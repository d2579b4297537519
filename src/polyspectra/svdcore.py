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
the simplex searches, which evaluate every live simplex's
points in one call per step, gaps, certificate residuals) goes through
``singular_values_many``, the one values-only SVD of P(lambda), for a
single point as for a grid.  It decomposes every block with ``_svals``,
which has two kernels.  At n = 2 a closed form does it: a Givens rotation
reduces each matrix to a real upper triangle, and LAPACK's DLAS2 formula
(Demmel and Kahan, SISSC 1990) gives that triangle's singular values.  On
a 401 x 401 grid it takes a fifth of the time of LAPACK's ``gesdd``,
whose cost at n = 2 is call overhead, and it stays within a few units in
the last place of s_1; the plain formula from ||A||_F and |det A| does
not, near s_1 = s_2.  Every other n goes to ``np.linalg.svd`` (the Gram
matrix would square the condition number).  The calling thread runs the
Horner evaluation chunk by chunk, and the 4 MiB budget covers every
evaluated chunk in flight and the closed form's work arrays.  At n = 2 it
also runs the closed form; otherwise a grid larger than one chunk is
decomposed on every CPU in the process's affinity mask, by a thread pool
created for the call.  Each chunk's values land in their own rows, so
results do not depend on the core count.  A caller that needs a gradient
reads it from ``point_stack``, which decomposes a stack of points with one
stacked SVD with vectors, a chunk at a time, derives every point's
closed-form gradient in array operations and keeps O(n) floats per point
(the boundary polish of ``contours`` and each Newton step of the saddle
search call it once).  Its derivations are real arithmetic in a fixed
order, so a point gets the same bits alone as in any stack.  A caller that
needs the singular vectors themselves (the certificate's perturbations)
reads ``singular_triplets``, whose SVD is ``point_stack``'s: its values are
the point's row bit for bit.  LAPACK's singular values with and without
vectors may differ in the last bits, and at n = 2 ``point_stack``'s values
and the closed form's may too.  A non-finite P(lambda) raises
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
GAP_RTOL = 1e-8
ZERO_RTOL = 1e-12
ORIGIN_TOL = 1e-12

# Bytes of evaluated matrices alive at once in a batched SVD, with the work
# arrays of the kernels decomposing them, shared by the chunk being
# evaluated and the chunks being decomposed.
_CHUNK_BYTES = 4 << 20

# Bytes per matrix entry of a stacked evaluation with vectors, at its peak
# (tests measure it).
_STACK_ENTRY_BYTES = 128

# Bytes of work arrays per matrix in the n = 2 closed form, at their peak
# (tests measure it); np.linalg.svd works on one matrix at a time.
_KERNEL_BYTES = 320


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
    Every block goes through ``_svals``: the closed form at n = 2, LAPACK
    otherwise, so a point gets the same bits alone as in any grid.  An
    input larger than one chunk is evaluated chunk by chunk on the calling
    thread.  At n = 2 the calling thread also decomposes each chunk: the
    closed form is some fifty numpy calls per chunk that hold the GIL
    between short loops, so worker threads only contend for it, and their
    malloc arenas would keep the work arrays resident.  Otherwise a pool of
    ``_WORKERS`` threads that lives for this call decomposes at most
    ``_WORKERS`` chunks at a time; each job writes its own rows, so the
    result does not depend on the scheduling or on ``_WORKERS``.  Raises
    ``np.linalg.LinAlgError`` where P(lambda) is not finite.
    """
    L = np.asarray(lams, dtype=complex)
    chunk = _chunk_points(P.n)
    if L.size <= chunk:  # a single point costs no more than one kernel call
        return _svals(evaluate_many(P, L))
    flat = L.reshape(-1)
    out = np.empty((flat.size, P.n), dtype=float)
    if P.n == 2:
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
    """Points per chunk: a block of n x n complex matrices, with the closed
    form's work arrays at n = 2, takes one share of ``_CHUNK_BYTES`` of
    ``_WORKERS + 1``, so that the blocks in flight fit.  At n = 2 only one
    is in flight; a larger chunk would only push its work arrays out of
    cache (a 401 x 401 grid takes about 8% longer with three times the
    chunk, on two CPUs)."""
    per_point = 16 * n * n + (_KERNEL_BYTES if n == 2 else 0)
    return max(1, _CHUNK_BYTES // (per_point * (_WORKERS + 1)))


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
    if block.shape[-1] == 2:
        return _svals2(block)
    _require_finite(block)
    return np.linalg.svd(block, compute_uv=False)


def _svals2(block: np.ndarray) -> np.ndarray:
    """Singular values of a (..., 2, 2) complex stack in closed form.

    Each matrix is first scaled by the power of two that brings its largest
    real or imaginary part into [1/2, 1); the scaling is exact, so entries
    near 1e+-300 neither overflow nor underflow.  A Givens rotation with
    real cosine |a| / r, r = ||(a, c)||, takes the first column (a, c) to
    (r e^{i arg a}, 0); a zero first column keeps the identity.  Dropping
    the phases of the result leaves the real triangle [[r, |x|], [0, |y|]],
    whose singular values are DLAS2's
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
    parts = block.reshape(-1, 4).view(float)  # re, im of a, b, c, d per row
    top = np.abs(parts).max(axis=1)
    if not np.isfinite(top).all():
        raise np.linalg.LinAlgError("non-finite entry in P(lambda)")
    exp = np.frexp(top)[1]
    ar, ai, br, bi, cr, ci, dr, di = np.ldexp(parts.T, -exp, order="C")
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
    g2 = xr * xr + xi * xi
    h = np.sqrt(yr * yr + yi * yi)
    s1 = 0.5 * (np.sqrt((r + h) ** 2 + g2) + np.sqrt((r - h) ** 2 + g2))
    s2 = np.minimum(r, h) * (np.maximum(r, h) / (s1 + (s1 == 0)))
    values = np.empty((len(exp), 2))
    np.ldexp(s1, exp, out=values[:, 0])
    # where s_1 and s_2 nearly coincide, rounding can leave s_2 an ulp above
    # s_1; the values stay descending and the gap nonnegative
    np.ldexp(np.minimum(s2, s1), exp, out=values[:, 1])
    return values.reshape(block.shape[:-1])


def on_spectrum(values):
    """Whether the least of the descending singular values is numerically
    zero, from one row or a stack of rows of values."""
    return values[..., -1] <= ZERO_RTOL * (1.0 + values[..., 0])


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
    s = np.empty((k, n))
    s_grad = np.empty((k, 2))
    chunk = _stack_points(n)
    for start in range(0, k, chunk):
        rows = slice(start, start + chunk)
        s[rows], s_grad[rows] = _svd_grad(P, L[rows])
    gap = s[:, -2] - s[:, -1] if n >= 2 else np.full(k, np.inf)
    on_spec = on_spectrum(s)
    r = np.hypot(L.real, L.imag)
    away = r >= ORIGIN_TOL
    slope = weight_deriv_eval(w, r)
    safe = np.where(away, r, 1.0)
    weight_grad = np.column_stack([slope * L.real / safe, slope * L.imag / safe])
    weight_grad[~away] = 0.0 if w.is_constant else np.nan
    return PointStack(
        lam=L, s=s, s_grad=s_grad, gap=gap, on_spectrum=on_spec,
        smooth=(gap > GAP_RTOL * s[:, 0]) & ~on_spec,
        weight=weight_eval(w, r), weight_grad=weight_grad,
    )


def _svd(P: MatrixPolynomial, L: np.ndarray) -> tuple:
    """LAPACK's U, s, Vh of P(lambda) at the points of the (k,) array ``L``."""
    A = evaluate_many(P, L)
    _require_finite(A)
    return np.linalg.svd(A)


def _svd_grad(P: MatrixPolynomial, L: np.ndarray) -> tuple:
    """The singular values of P(lambda) and the closed-form gradient of
    s_min, (k, 2), at the points of one chunk."""
    U, s, Vh = _svd(P, L)
    D = evaluate_many(P.derivative, L)
    # s_grad = (Re c, -Im c) for c = u* P'(lambda) v, (u, v) the trailing
    # pair, on interleaved (re, im) parts.  With h = conj(v) the last row of
    # Vh, row a of P'(lambda) gives t_a = (P'(lambda) v)_a as
    # Re t_a = D_a . (Re h_0, Im h_0, ...) and Im t_a = D_a . (-Im h_0, Re h_0, ...);
    # then Re c = sum Re u_a Re t_a + Im u_a Im t_a and
    # -Im c = sum Im u_a Re t_a - Re u_a Im t_a
    k, n = L.size, P.n
    h = Vh[:, -1].view(float)
    rotated = np.empty((k, 2, 2 * n))
    rotated[:, 0] = h
    np.negative(h[:, 1::2], out=rotated[:, 1, 0::2])
    rotated[:, 1, 1::2] = h[:, 0::2]
    t = np.add.reduce(D.view(float)[:, None] * rotated[:, :, None], axis=3)
    u = U[:, :, -1]
    pairs = np.empty((k, 2, 2, n))
    pairs[:, 0, 0] = u.real
    pairs[:, 0, 1] = pairs[:, 1, 0] = u.imag
    np.negative(u.real, out=pairs[:, 1, 1])
    return s, np.add.reduce((pairs * t[:, None]).reshape(k, 2, 2 * n), axis=2)
