"""Singular values of P(lambda), the level function, and analytic gradients.

The smallest singular value s_min(lambda) vanishes exactly on the spectrum,
and the sublevel sets of s_min(lambda) / w(|lambda|) are the weighted
pseudospectra.  Where s_min is simple and nonzero its gradient has the closed
form (Re u* P'(lambda) v, Re u* i P'(lambda) v) in the trailing singular
vector pair (u, v).  ``PointStack.grad_F`` is the one place that forms
it, less the weight term, for a stack of points: a row is NaN where the
surface gap or the value itself is too small for the formula to be
trusted, or at the origin under a non-constant weight.

A caller that needs only singular values (grids, ``s_min`` and ``F_eps``,
the fault tests, gaps, certificate residuals) goes through
``singular_values_many``, the one values-only SVD of P(lambda), for a
single point as for a grid.  It decomposes every block with ``_svals``,
which has two numpy kernels, written in real arithmetic on one array per
quantity with every matrix of the block at once.  At n = 2 a closed form
does it: a Givens rotation reduces each matrix to a real upper triangle,
and LAPACK's DLAS2 formula (Demmel and Kahan, SISSC 1990) gives that
triangle's singular values.  On a 401 x 401 grid it takes a fifth of the
time of LAPACK's ``gesdd``, whose cost at n = 2 is call overhead, and it
stays within a few units in the last place of s_1; the plain formula from
||A||_F and |det A| does not, near s_1 = s_2.  At n = 3 four Givens
rotations reduce each matrix to a real upper bidiagonal, five arrays
(d1, e1, d2, e2, d3), and implicit-shift Golub-Kahan QR sweeps on those
arrays (LAPACK's DBDSQR, from the same paper) run until e1 or e2 is
negligible; DLAS2 then takes the 2 x 2 block that remains.  On a 401 x 401
grid it takes half the time of the pooled ``gesdd`` or less, and it stays
within 8 units in the last place of s_1.  Every other n goes to
``np.linalg.svd`` (the Gram matrix would square the condition number).
The calling thread runs the Horner evaluation chunk by chunk, and the
4 MiB budget covers every evaluated chunk in flight and the kernels' work
arrays.  At n = 2 and 3 it also runs the kernel; otherwise a grid larger
than one chunk is decomposed on every CPU in the process's affinity mask,
by a thread pool created for the call.  Each chunk's values land in their
own rows, so results do not depend on the core count.  A caller that needs a gradient
reads it from ``point_stack``, which decomposes a stack of points with one
stacked SVD with vectors, a chunk at a time, derives every point's
closed-form gradient in array operations and keeps O(n) floats per point
(the boundary polish of ``contours`` and each Newton step of the saddle
search call it once).  Its products u_a* P'(lambda) v_b come from
``vector_derivatives``, which forms them for any pair of singular vectors
(the Gauss-Newton steps on the crossing of the two lowest distinct
surfaces use their pairs).  Its derivations are real arithmetic in a fixed
order, so a point gets the same bits alone as in any stack.  A caller that
needs the singular vectors themselves (the certificate's perturbations)
reads ``singular_triplets``, whose SVD is ``point_stack``'s: its values are
the point's row bit for bit.  LAPACK's singular values with and without
vectors may differ in the last bits, and at n = 2 and 3 ``point_stack``'s
values and the kernels' may too.  A non-finite P(lambda) raises
``np.linalg.LinAlgError`` on every path before LAPACK sees it.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .matpoly import (
    MatrixPolynomial,
    WeightPolynomial,
    evaluate_many,
    weight_deriv_eval,
    weight_eval,
)

# Validity thresholds for the closed-form gradient; the smoothness
# hypotheses ("simple, nonzero") are qualitative, these make them checkable.
# Width of the cluster of the least singular value, relative to s_1: s_min
# is simple where the cluster is one value, and its size is a certificate's
# geometric multiplicity.
MULTIPLICITY_RTOL = 1e-8
ZERO_RTOL = 1e-12
ORIGIN_TOL = 1e-12

# Bytes of evaluated matrices alive at once in a batched SVD, with the work
# arrays of the kernels decomposing them, shared by the chunk being
# evaluated and the chunks being decomposed.
_CHUNK_BYTES = 4 << 20

# Bytes per matrix entry of a stacked evaluation with vectors, at its peak
# (tests measure it).
_STACK_ENTRY_BYTES = 128

# Bytes of work arrays per matrix in the numpy kernels, by n, at their peak
# (tests measure it); np.linalg.svd works on one matrix at a time.
_KERNEL_BYTES = {2: 320, 3: 384}

# The n = 3 kernel works on each matrix scaled by a power of two into
# [1/2, 1), so s_1 >= 1/2.  An off-diagonal entry of its bidiagonal at or
# below this size is dropped (the bidiagonal deflates) and a diagonal entry
# at or below it is chased out; either moves no singular value by more than
# u s_1 / 2 (Weyl; u = 2^-52).
_DEFLATE_TOL = 2.0**-54

# Golub-Kahan sweeps after which the n = 3 kernel gives up on a matrix, as
# LAPACK does, with np.linalg.LinAlgError: five times the most that the
# fixtures' 401 x 401 grids and 300,000 random, graded and rank-deficient
# matrices needed (6).
_MAX_SWEEPS = 30


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# Threads that decompose chunks: one per CPU the process may run on.
_WORKERS = _usable_cpus()


@dataclass(frozen=True)
class SingularTripletSet:
    """Full SVD of P(lambda): values descending, unit vector columns.

    ``left[:, j]`` and ``right[:, j]`` satisfy P(lambda) v_j = s_j u_j.
    Phases are normalized so the largest-modulus entry of each right vector
    is real positive, which makes outputs reproducible; rank-one products
    u_j v_j* are unaffected.
    """

    values: np.ndarray
    left: np.ndarray
    right: np.ndarray


def singular_triplets(P: MatrixPolynomial, lam: complex) -> SingularTripletSet:
    """Full SVD of P(lambda) with deterministic phases; its values are the
    ``point_stack`` row of ``lam`` bit for bit."""
    U, s, Vh = _svd(P, np.asarray([lam], dtype=complex))
    return _phased(U[0], s[0], Vh[0])


def _phased(U: np.ndarray, s: np.ndarray, Vh: np.ndarray) -> SingularTripletSet:
    V = Vh.conj().T
    # each column's largest-modulus entry of V becomes real and positive; one
    # scalar division per column (an array division differs in the last bit)
    lead = V[np.argmax(np.abs(V), axis=0), np.arange(len(s))]
    phase = np.array([a / abs(a) for a in lead]).conj()
    return SingularTripletSet(values=s, left=U * phase, right=V * phase)


def s_min(P: MatrixPolynomial, lam: complex) -> float:
    """Smallest singular value of P(lambda)."""
    return float(singular_values_many(P, lam)[-1])


def singular_values_many(P: MatrixPolynomial, lams) -> np.ndarray:
    """Descending singular values at every point of ``lams``.

    Result shape is ``lams.shape + (n,)``, so ``(n,)`` for a scalar point.
    Every block goes through ``_svals``: the numpy kernels at n = 2 and 3,
    LAPACK otherwise, so a point gets the same bits alone as in any grid.
    An input larger than one chunk is evaluated chunk by chunk on the
    calling thread.  At n = 2 and 3 the calling thread also decomposes each
    chunk: the kernels are some fifty and some six hundred numpy calls per
    chunk that hold the GIL between short loops, so worker threads only
    contend for it, and their malloc arenas would keep the work arrays
    resident.  Otherwise a pool of ``_WORKERS`` threads that lives for this
    call decomposes at most ``_WORKERS`` chunks at a time; each job writes
    its own rows, so the result does not depend on the scheduling or on
    ``_WORKERS``.  Raises
    ``np.linalg.LinAlgError`` where P(lambda) is not finite.
    """
    L = np.asarray(lams, dtype=complex)
    chunk = _chunk_points(P.n)
    if L.size <= chunk:  # a single point costs no more than one kernel call
        return _svals(evaluate_many(P, L))
    flat = L.reshape(-1)
    out = np.empty((flat.size, P.n), dtype=float)
    if P.n in _KERNEL_BYTES:
        for start in range(0, flat.size, chunk):
            rows = slice(start, start + chunk)
            _decompose(out[rows], evaluate_many(P, flat[rows]))
        return out.reshape(L.shape + (P.n,))
    # Wait before evaluating, so the calling thread's Horner shares the CPUs
    # with at most _WORKERS - 1 running SVDs.  A block goes straight into
    # submit: only its job refers to it.
    with ThreadPoolExecutor(_WORKERS) as pool:
        jobs = deque()
        for start in range(0, flat.size, chunk):
            if len(jobs) == _WORKERS:
                jobs.popleft().result()
            rows = slice(start, start + chunk)
            jobs.append(pool.submit(_decompose, out[rows], evaluate_many(P, flat[rows])))
        for job in jobs:
            job.result()
    return out.reshape(L.shape + (P.n,))


def _chunk_points(n: int) -> int:
    """Points per chunk: a block of n x n complex matrices, with the
    kernel's work arrays at n = 2 and 3 (``_KERNEL_BYTES``), takes one
    share of ``_CHUNK_BYTES`` of ``_WORKERS + 1``, so that the blocks in
    flight fit.  At n = 2 and 3 only one is in flight.  At n = 2 a larger
    chunk would only push its work arrays out of cache (a 401 x 401 grid
    takes about 8% longer with three times the chunk, on two CPUs).  At
    n = 3 the one chunk takes the whole budget: the kernel costs some six
    hundred numpy calls per chunk whatever its size.  With chunks of 3149
    and 1222 points instead of 6394, a 401 x 401 grid took 1.2 and 1.5
    times as long, and the benchmark's peak RSS read up to 7 and 11 MB
    higher: the heap kept more of the many short-lived work arrays."""
    per_point = 16 * n * n + _KERNEL_BYTES.get(n, 0)
    shares = 1 if n == 3 else _WORKERS + 1
    return max(1, _CHUNK_BYTES // (per_point * shares))


def _stack_points(n: int) -> int:
    """Points per stacked evaluation with vectors: P(lambda), P'(lambda),
    U, Vh and the gradient's work arrays take ``_STACK_ENTRY_BYTES`` per
    matrix entry, and a chunk of them fits ``_CHUNK_BYTES``."""
    return max(1, _CHUNK_BYTES // (_STACK_ENTRY_BYTES * n * n))


def _require_finite(block: np.ndarray) -> None:
    # LAPACK raises for NaN only, and returns NaN values for an infinite entry
    if not np.isfinite(block).all():
        raise np.linalg.LinAlgError("non-finite entry in P(lambda)")


def _decompose(rows: np.ndarray, block: np.ndarray) -> None:
    rows[...] = _svals(block)


def _svals(block: np.ndarray) -> np.ndarray:
    """Descending singular values of each matrix in a (..., n, n) stack."""
    n = block.shape[-1]
    if n == 2:
        return _svals2(block)
    if n == 3:
        return _svals3(block)
    _require_finite(block)
    return np.linalg.svd(block, compute_uv=False)


def _scaled_parts(block: np.ndarray) -> tuple:
    """The real and imaginary parts of the n x n matrices of ``block``, one
    row per part and one column per matrix, each matrix scaled by the power
    of two 2^-e that brings its largest part into [1/2, 1), and the
    exponents e.  Raises ``np.linalg.LinAlgError`` on a non-finite entry."""
    n = block.shape[-1]
    parts = block.reshape(-1, n * n).view(float)
    top = np.maximum(parts.max(axis=1), -parts.min(axis=1))
    if not np.isfinite(top).all():
        raise np.linalg.LinAlgError("non-finite entry in P(lambda)")
    exp = np.frexp(top)[1]
    return np.ldexp(parts.T, -exp, order="C"), exp


def _dlas2(f, g2, h) -> tuple:
    """DLAS2's singular values s_1 >= s_2 of the real triangle
    [[f, g], [0, h]], f, h >= 0, from f, g^2 and h."""
    s1 = 0.5 * (np.sqrt((f + h) ** 2 + g2) + np.sqrt((f - h) ** 2 + g2))
    s2 = np.minimum(f, h) * (np.maximum(f, h) / (s1 + (s1 == 0)))
    # where s_1 and s_2 nearly coincide, rounding can leave s_2 an ulp above
    # s_1; the values stay descending and the gap nonnegative
    return s1, np.minimum(s2, s1)


def _svals2(block: np.ndarray) -> np.ndarray:
    """Singular values of a (..., 2, 2) complex stack in closed form.

    Each matrix is first scaled by the power of two that brings its largest
    real or imaginary part into [1/2, 1); the scaling is exact, so entries
    near 1e+-300 neither overflow nor underflow.  A Givens rotation with
    real cosine |a| / r, r = ||(a, c)||, takes the first column (a, c) to
    (r e^{i arg a}, 0); a zero first column keeps the identity.  Dropping
    the phases of the result leaves the real triangle [[r, |x|], [0, |y|]],
    whose singular values are DLAS2's (``_dlas2``):
    s_1 = (sqrt((r + |y|)^2 + |x|^2) + sqrt((r - |y|)^2 + |x|^2)) / 2 and
    s_2 = min(r, |y|) * (max(r, |y|) / s_1).  DLAS2 branches on
    max(r, |y|) against |x| only to keep the squares in range, which the
    scaling already does, so one expression covers both branches.  Equal
    moduli on the diagonal of a triangular matrix give s_2 = s_1 exactly.

    All arithmetic is real and elementwise, so a matrix gets the same bits
    in any stack (numpy's complex multiply rounds differently in its scalar
    and vector loops).  A non-finite entry raises ``np.linalg.LinAlgError``,
    as LAPACK does for NaN.
    """
    (ar, ai, br, bi, cr, ci, dr, di), exp = _scaled_parts(block)
    na2 = ar * ar + ai * ai
    r = np.sqrt(na2 + cr * cr + ci * ci)
    na = np.sqrt(na2)
    # p = a / |a|, 1 where a = 0; cs = |a| / r, 1 where r = 0
    zero_a = na == 0
    zero_r = r == 0
    na_ = na + zero_a
    pr = (ar + zero_a) / na_
    pi = ai / na_
    r_ = r + zero_r
    cs = (na + zero_r) / r_
    # sn = p conj(c) / r; x = cs b + sn d, y = cs d - conj(sn) b
    snr = (pr * cr + pi * ci) / r_
    sni = (pi * cr - pr * ci) / r_
    xr = cs * br + snr * dr - sni * di
    xi = cs * bi + snr * di + sni * dr
    yr = cs * dr - (snr * br + sni * bi)
    yi = cs * di - (snr * bi - sni * br)
    s1, s2 = _dlas2(r, xr * xr + xi * xi, np.sqrt(yr * yr + yi * yi))
    values = np.empty((len(exp), 2))
    np.ldexp(s1, exp, out=values[:, 0])
    np.ldexp(s2, exp, out=values[:, 1])
    return values.reshape(block.shape[:-1])


def _unit_pair(x, y) -> tuple:
    """(g, h) = (x, y) / r and r = ||(x, y)|| for complex x and y given as
    (re, im) pairs of arrays, with (g, h) = (1, 0) where r = 0.  The unitary
    [[conj g, conj h], [-h, g]] takes (x, y) to (r, 0)."""
    (xr, xi), (yr, yi) = x, y
    r = np.sqrt(xr * xr + xi * xi + (yr * yr + yi * yi))
    zero = r == 0
    r_ = r + zero
    return (xr + zero) / r_, xi / r_, yr / r_, yi / r_, r


def _rotate(pair, x, y) -> None:
    """x, y <- conj g x + conj h y, g y - h x, in place, for the (g, h) of
    ``_unit_pair`` and complex x, y given as (..., 2, k) arrays of (re, im)
    parts."""
    gr, gi, hr, hi, _ = pair
    xr, xi, yr, yi = x[..., 0, :], x[..., 1, :], y[..., 0, :], y[..., 1, :]
    top = (gr * xr + gi * xi + (hr * yr + hi * yi), gr * xi - gi * xr + (hr * yi - hi * yr))
    y[..., 0, :], y[..., 1, :] = (
        gr * yr - gi * yi - (hr * xr - hi * xi), gr * yi + gi * yr - (hr * xi + hi * xr)
    )
    x[..., 0, :], x[..., 1, :] = top


def _svals3(block: np.ndarray) -> np.ndarray:
    """Singular values of a (..., 3, 3) complex stack.

    Each matrix is scaled as in ``_svals2`` and reduced to a real upper
    bidiagonal (``_bidiagonalize``), whose singular values come from
    implicit-shift Golub-Kahan sweeps (``_bidiagonal_svals``).  All
    arithmetic is real and elementwise, and a matrix leaves the sweeps
    once its own bidiagonal deflates, so it gets the same bits in any
    stack.  A non-finite entry raises ``np.linalg.LinAlgError``, as does a
    bidiagonal still undeflated after ``_MAX_SWEEPS`` sweeps.
    """
    B, exp = _bidiagonalize(block)
    values = np.ldexp(_bidiagonal_svals(B), exp[:, None])
    return values.reshape(block.shape[:-1])


def _bidiagonalize(block: np.ndarray) -> tuple:
    """(d1, e1, d2, e2, d3) of a real upper bidiagonal with the singular
    values of each scaled matrix, as the rows of a (5, k) array, and the
    scaling exponents.  Four Givens rotations take the matrix to a complex
    bidiagonal with d1, e1 and d2 real and nonnegative: two from the left
    on column 0, one from the right on row 0 and one from the left on
    column 1.  Unitary diagonal scalings, which keep the singular values,
    then take e2 and d3 to their moduli."""
    a, exp = _scaled_parts(block)
    a = a.reshape(3, 3, 2, -1)  # a[i, j] = (re, im) of entry (i, j)
    # column 0 to (d1, 0, 0): rows 1 and 2, then rows 0 and 1
    pair = _unit_pair(a[1, 0], a[2, 0])
    _rotate(pair, a[1, 1:], a[2, 1:])
    pair = _unit_pair(a[0, 0], (pair[-1], 0.0))
    _rotate(pair, a[0, 1:], a[1, 1:])
    d1 = pair[-1]
    # row 0 to (d1, e1, 0): columns 1 and 2, from the right
    pair = _unit_pair(a[0, 1], a[0, 2])
    _rotate(pair, a[1:, 1], a[1:, 2])
    e1 = pair[-1]
    # column 1 to (e1, d2, 0): rows 1 and 2; the phases of (1, 2) and (2, 2)
    # drop out with the moduli
    pair = _unit_pair(a[1, 1], a[2, 1])
    _rotate(pair, a[1, 2], a[2, 2])
    (xr, xi), (yr, yi) = a[1, 2], a[2, 2]
    e2, d3 = np.sqrt(xr * xr + xi * xi), np.sqrt(yr * yr + yi * yi)
    return np.stack((d1, e1, pair[-1], e2, d3)), exp


def _givens(f, g) -> tuple:
    """(c, s, r) of the real rotation [[c, s], [-s, c]] that takes (f, g)
    to (r, 0); (f, g) is never (0, 0) where it is used."""
    r = np.sqrt(f * f + g * g)
    return f / r, g / r, r


def _sweep(B: np.ndarray) -> np.ndarray:
    """One implicit-shift Golub-Kahan QR sweep on the upper bidiagonals
    (d1, e1, d2, e2, d3) of B's columns, DBDSQR's chase from the top with
    the smaller singular value of the trailing 2 x 2 block, by DLAS2, as
    the shift.  Every d1 it sees is above ``_DEFLATE_TOL``, so the first
    rotation is well defined."""
    d1, e1, d2, e2, d3 = B
    _, shift = _dlas2(np.abs(d2), e2 * e2, np.abs(d3))
    c, s, _ = _givens((d1 - shift) * (1.0 + shift / d1), e1)
    f = c * d1 + s * e1
    e1 = c * e1 - s * d1
    g = s * d2
    d2 = c * d2
    c, s, d1 = _givens(f, g)
    f = c * e1 + s * d2
    d2 = c * d2 - s * e1
    g = s * e2
    e2 = c * e2
    c, s, e1 = _givens(f, g)
    f = c * d2 + s * e2
    e2 = c * e2 - s * d2
    g = s * d3
    d3 = c * d3
    c, s, d2 = _givens(f, g)
    return np.stack((d1, e1, d2, c * e2 + s * d3, c * d3 - s * e2))


def _chase_zeros(B: np.ndarray, small: np.ndarray) -> np.ndarray:
    """Deflate the bidiagonals whose diagonal entry, flagged in the (3, k)
    ``small``, is negligible: it is taken as zero and the fixed rotations
    that chase it out zero e1 (d1) or e2 (d2, d3).  A shifted sweep would
    make no progress on such a bidiagonal.  Returns the columns changed."""
    z1, z2, z3 = small
    z2 = z2 & ~z1
    z3 = z3 & ~(z1 | z2)
    idx = np.flatnonzero(z1)
    if idx.size:  # rows 1, 2 zero e1, then rows 1, 3 the fill at (1, 3)
        _, e1, d2, e2, d3 = np.abs(B[:, idx])
        c, s, r = _givens(d2, e1)
        B[:, idx] = 0.0
        B[2:, idx] = r, c * e2, np.sqrt((s * e2) ** 2 + d3 * d3)
    idx = np.flatnonzero(z2)
    if idx.size:  # rows 2, 3 zero e2
        e2, d3 = B[3:, idx]
        B[2:4, idx] = 0.0
        B[4, idx] = np.sqrt(e2 * e2 + d3 * d3)
    idx = np.flatnonzero(z3)
    if idx.size:  # columns 2, 3 zero e2, then columns 1, 3 the fill at (1, 3)
        d1, e1, d2, e2, _ = np.abs(B[:, idx])
        c, s, r = _givens(d2, e2)
        B[:3, idx] = np.sqrt(d1 * d1 + (s * e1) ** 2), c * e1, r
        B[3:, idx] = 0.0
    return z1 | z2 | z3


def _bidiagonal_svals(B: np.ndarray) -> np.ndarray:
    """Descending singular values (k, 3) of the upper bidiagonals whose
    (d1, e1, d2, e2, d3) are the columns of the (5, k) array B.

    Each round first retires the bidiagonals with e1 or e2 at most
    ``_DEFLATE_TOL`` and those with a negligible diagonal entry, which
    ``_chase_zeros`` deflates, and then sweeps the rest.  DLAS2 takes the
    2 x 2 block that a deflated bidiagonal leaves, and a sorting network
    places the third value.
    """
    k = B.shape[1]
    # B and its reversal (d3, e2, d2, e1, d1) have the same singular values;
    # chasing from the larger end of the diagonal keeps a small d1 from
    # stalling the sweeps (DBDSQR picks its direction the same way)
    flip = B[0] < B[4]
    B[:, flip] = B[::-1, flip]
    done = np.empty_like(B)
    lanes = np.arange(k)
    for sweep in range(_MAX_SWEEPS + 1):
        if sweep:
            B = _sweep(B)
        deflated = (np.abs(B[1]) <= _DEFLATE_TOL) | (np.abs(B[3]) <= _DEFLATE_TOL)
        small = np.abs(B[::2]) <= _DEFLATE_TOL
        small &= ~deflated
        if small.any():
            deflated |= _chase_zeros(B, small)
        if deflated.any():
            idx = np.flatnonzero(deflated)
            done[:, lanes[idx]] = B[:, idx]
            keep = np.flatnonzero(~deflated)
            B = B[:, keep]
            lanes = lanes[keep]
        if not lanes.size:
            break
    else:
        raise np.linalg.LinAlgError("SVD did not converge")
    # a bidiagonal deflated at e1 alone, reversed, is deflated at e2
    np.abs(done, out=done)
    upper = done[3] > _DEFLATE_TOL
    done[:, upper] = done[::-1, upper]
    d1, e1, d2, _, d3 = done
    s1, s2 = _dlas2(d1, e1 * e1, d2)
    values = np.empty((k, 3))
    np.maximum(s1, d3, out=values[:, 0])
    np.maximum(s2, np.minimum(s1, d3), out=values[:, 1])
    np.minimum(s2, d3, out=values[:, 2])
    return values


def on_spectrum(values):
    """Whether the least of the descending singular values is numerically
    zero, from one row or a stack of rows of values."""
    return values[..., -1] <= ZERO_RTOL * (1.0 + values[..., 0])


def trailing_cluster(values):
    """Size of the cluster of the least singular value, from one row or a
    stack of rows of descending values."""
    tol = MULTIPLICITY_RTOL * values[..., :1]
    return np.count_nonzero(values - values[..., -1:] <= tol, axis=-1)


def surface_gap(values, c1: int, c2: int):
    """s_{c2} - s_{c1} (1-based) from one row or a stack of rows of values."""
    return values[..., c2 - 1] - values[..., c1 - 1]


def _require_eps(eps: float) -> None:
    if eps < 0:
        raise PreconditionError("eps must be nonnegative")


def F_eps(P: MatrixPolynomial, w: WeightPolynomial, eps, lam):
    """Level function s_min(lambda) - eps * w(|lambda|) at a point, or at
    every point of an array (result shaped like ``lam``); ``eps`` may also
    be an array shaped like ``lam``, one level per point.

    Nonpositive exactly on the eps-sublevel set of s_min / w.  |lambda| is
    ``np.hypot`` of the parts, which rounds like ``abs()`` of a complex.
    """
    _require_eps(np.min(eps))
    L = np.asarray(lam, dtype=complex)
    return singular_values_many(P, L)[..., -1] - eps * weight_eval(w, np.hypot(L.real, L.imag))


@dataclass(frozen=True)
class PointStack:
    """What derives from the SVD with vectors of P(lambda) at k points, one
    row per point.

    ``s`` (k, n) holds LAPACK's singular values, descending.  ``s_grad``
    (k, 2) is the closed-form gradient (d/dx, d/dy) of s_min in the
    trailing pair; ``smooth`` says s_min is simple and nonzero, so that it
    holds.  ``gap`` is s_{n-1} - s_n (infinite for n = 1), ``weight`` is
    w(|lambda|) and ``weight_grad`` (k, 2) the gradient of w(|.|), NaN at
    the origin under a non-constant weight.
    """

    lam: np.ndarray
    s: np.ndarray
    s_grad: np.ndarray
    gap: np.ndarray
    on_spectrum: np.ndarray
    smooth: np.ndarray
    weight: np.ndarray
    weight_grad: np.ndarray

    def F(self, eps) -> np.ndarray:
        """s_min - eps * w(|lambda|); ``eps`` is a level or one per row."""
        _require_eps(np.min(eps))
        return self.s[:, -1] - eps * self.weight

    def grad_F(self, eps) -> np.ndarray:
        """(k, 2) gradient (d/dx, d/dy) of ``F(eps)``, the one closed form
        of it.  A row is NaN where the form cannot be trusted: s_min is not
        simple and nonzero, or the point is the origin under a non-constant
        weight."""
        _require_eps(np.min(eps))
        g = self.s_grad - np.asarray(eps, dtype=float)[..., None] * self.weight_grad
        g[~self.smooth] = np.nan
        return g


def point_stack(P: MatrixPolynomial, w: WeightPolynomial, lams) -> PointStack:
    """The ``PointStack`` of the points of ``lams``, in order.

    Each chunk of ``_stack_points(n)`` points costs one ``evaluate_many`` of
    P, one of P', one stacked ``np.linalg.svd`` and a fixed number of array
    operations.  Everything derived from the SVD is real arithmetic in a
    fixed order, elementwise, so a point gets the same bits alone as in any
    stack (numpy's complex products round differently in their scalar and
    vector loops).  Raises ``np.linalg.LinAlgError`` where P(lambda) is not
    finite.
    """
    L = np.asarray(lams, dtype=complex).reshape(-1)
    k, n = L.size, P.n
    s, c = vector_derivatives(P, L, (n - 1,))
    s_grad = c[:, 0, 0]
    gap = s[:, -2] - s[:, -1] if n >= 2 else np.full(k, np.inf)
    on_spec = on_spectrum(s)
    weight, weight_grad = weight_terms(w, L)
    return PointStack(
        lam=L, s=s, s_grad=s_grad, gap=gap, on_spectrum=on_spec,
        smooth=(trailing_cluster(s) == 1) & ~on_spec,
        weight=weight, weight_grad=weight_grad,
    )


def weight_terms(w: WeightPolynomial, L: np.ndarray) -> tuple:
    """w(|lambda|) and the (k, 2) gradient of w(|.|) at the points of the
    (k,) array ``L``; a gradient row is NaN at the origin under a
    non-constant weight, where w(|.|) has no gradient."""
    r = np.hypot(L.real, L.imag)
    away = r >= ORIGIN_TOL
    slope = weight_deriv_eval(w, r)
    safe = np.where(away, r, 1.0)
    weight_grad = np.column_stack([slope * L.real / safe, slope * L.imag / safe])
    weight_grad[~away] = 0.0 if w.is_constant else np.nan
    return weight_eval(w, r), weight_grad


def _svd(P: MatrixPolynomial, L: np.ndarray) -> tuple:
    """LAPACK's U, s, Vh of P(lambda) at the points of the (k,) array ``L``."""
    A = evaluate_many(P, L)
    _require_finite(A)
    return np.linalg.svd(A)


def vector_derivatives(P: MatrixPolynomial, lams, idx) -> tuple:
    """LAPACK's singular values (k, n) of P(lambda) at the points of
    ``lams`` and, for the 0-based indices a, b of ``idx``, the parts
    (Re c, -Im c) of c = u_a* P'(lambda) v_b as a (k, len(idx), len(idx), 2)
    array indexed [point, a, b].  For a = b that is the closed-form gradient
    (d/dx, d/dy) of s_a, where s_a is simple and nonzero.

    Each chunk of ``_stack_points(n)`` points costs one stacked SVD with
    vectors, one ``evaluate_many`` of P' and a fixed number of array
    operations per index, in real arithmetic in a fixed order, so a point
    gets the same bits alone as in any stack.
    """
    L = np.asarray(lams, dtype=complex).reshape(-1)
    k, n, m = L.size, P.n, len(idx)
    s = np.empty((k, n))
    c = np.empty((k, m, m, 2))
    chunk = _stack_points(n)
    for start in range(0, k, chunk):
        rows = slice(start, start + chunk)
        U, s[rows], Vh = _svd(P, L[rows])
        c[rows] = _derivative_products(U, Vh, evaluate_many(P.derivative, L[rows]), idx)
    return s, c


def _derivative_products(U: np.ndarray, Vh: np.ndarray, D: np.ndarray, idx) -> np.ndarray:
    """(Re c, -Im c) of c = u_a* D v_b for a, b in ``idx``, from one chunk's
    SVD and D = P'(lambda), on interleaved (re, im) parts.

    With h = conj(v_b) the row b of Vh, row a of D gives t_a = (D v_b)_a as
    Re t_a = D_a . (Re h_0, Im h_0, ...) and Im t_a = D_a . (-Im h_0, Re h_0, ...);
    then Re c = sum Re u_a Re t_a + Im u_a Im t_a and
    -Im c = sum Im u_a Re t_a - Re u_a Im t_a.
    """
    k, n, m = len(D), D.shape[-1], len(idx)
    u = U[:, :, idx]
    pairs = np.empty((k, m, 2, 2, n))
    pairs[:, :, 0, 0] = u.real.transpose(0, 2, 1)
    pairs[:, :, 0, 1] = pairs[:, :, 1, 0] = u.imag.transpose(0, 2, 1)
    np.negative(pairs[:, :, 0, 0], out=pairs[:, :, 1, 1])
    rows = D.view(float)[:, None]
    out = np.empty((k, m, m, 2))
    for j, b in enumerate(idx):
        h = Vh[:, b].view(float)
        rotated = np.empty((k, 2, 2 * n))
        rotated[:, 0] = h
        np.negative(h[:, 1::2], out=rotated[:, 1, 0::2])
        rotated[:, 1, 1::2] = h[:, 0::2]
        t = np.add.reduce(rows * rotated[:, :, None], axis=3)
        out[:, :, j] = np.add.reduce((pairs * t[:, None, None]).reshape(k, m, 2, 2 * n), axis=3)
    return out
