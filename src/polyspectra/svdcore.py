"""Singular values of P(lambda), the level function, and analytic gradients.

The smallest singular value s_min(lambda) vanishes exactly on the spectrum,
and the sublevel sets of s_min(lambda) / w(|lambda|) are the weighted
pseudospectra.  Where s_min is simple and nonzero its gradient has the closed
form (Re u* P'(lambda) v, Re u* i P'(lambda) v) in the trailing singular
vector pair (u, v).  ``PointEval.grad_F`` returns that gradient, less the
weight term, as an array, or None where the surface gap or the value itself
is too small for the formula to be trusted, or at the origin under a
non-constant weight.

A caller that needs only singular values (grids, ``s_min`` and ``F_eps``,
seed rays, the simplex searches, which evaluate every live simplex's
points in one call per step, gaps, certificate residuals) goes through
``singular_values_many``, the one values-only SVD of P(lambda), for a
single point as for a grid.  A grid larger than one chunk is decomposed
on every CPU in the process's affinity mask: the calling thread runs the
Horner evaluation chunk by chunk, a thread pool created for the call runs
the SVDs, and the 4 MiB budget covers every evaluated chunk in flight.
Each chunk's values land in their own rows, so results do not depend on
the core count.  A caller that needs vectors or a gradient reads
everything from one ``PointEval``, a single SVD with vectors.  LAPACK's
singular values with and without vectors may differ in the last bits.
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
    evaluate,
    evaluate_many,
    weight_deriv_eval,
    weight_eval,
)

# Validity thresholds for the closed-form gradient; the smoothness
# hypotheses ("simple, nonzero") are qualitative, these make them checkable.
GAP_RTOL = 1e-8
ZERO_RTOL = 1e-12
ORIGIN_TOL = 1e-12

# Bytes of evaluated matrices alive at once in a batched SVD, shared by the
# chunk being evaluated and the chunks being decomposed.
_CHUNK_BYTES = 4 << 20


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

    @property
    def n(self) -> int:
        return len(self.values)


def singular_triplets(P: MatrixPolynomial, lam: complex) -> SingularTripletSet:
    """Full SVD of P(lambda) with deterministic phases."""
    U, s, Vh = np.linalg.svd(evaluate(P, lam))
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
    An input larger than one chunk is evaluated chunk by chunk on the
    calling thread, and a pool of ``_WORKERS`` threads that lives for this
    call decomposes at most ``_WORKERS`` chunks at a time; each job writes
    its own rows, so the result does not depend on the scheduling or on
    ``_WORKERS``.  Chunks are sized so that ``_WORKERS + 1`` evaluated
    blocks fit in ``_CHUNK_BYTES``.
    """
    L = np.asarray(lams, dtype=complex)
    chunk = max(1, _CHUNK_BYTES // (16 * P.n * P.n * (_WORKERS + 1)))
    if L.size <= chunk:  # a single point costs no more than one SVD call
        return np.linalg.svd(evaluate_many(P, L), compute_uv=False)
    flat = L.reshape(-1)
    out = np.empty((flat.size, P.n), dtype=float)
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


def _decompose(rows: np.ndarray, block: np.ndarray) -> None:
    rows[...] = np.linalg.svd(block, compute_uv=False)


def on_spectrum(values) -> bool:
    """True when the least of the descending singular values is numerically zero."""
    return bool(values[-1] <= ZERO_RTOL * (1.0 + float(values[0])))


def surface_gap(values, c1: int, c2: int):
    """s_{c2} - s_{c1} (1-based) from one row or a stack of rows of values."""
    return values[..., c2 - 1] - values[..., c1 - 1]


def _require_eps(eps: float) -> None:
    if eps < 0:
        raise PreconditionError("eps must be nonnegative")


def F_eps(P: MatrixPolynomial, w: WeightPolynomial, eps: float, lam):
    """Level function s_min(lambda) - eps * w(|lambda|) at a point, or at
    every point of an array (result shaped like ``lam``).

    Nonpositive exactly on the eps-sublevel set of s_min / w.  |lambda| is
    ``np.hypot`` of the parts, which rounds like ``abs()`` of a complex.
    """
    _require_eps(eps)
    L = np.asarray(lam, dtype=complex)
    return singular_values_many(P, L)[..., -1] - eps * weight_eval(w, np.hypot(L.real, L.imag))


class PointEval:
    """One SVD of P(lambda) with vectors, and everything derived from it.

    ``gap`` is s_{n-1} - s_n (infinite for n = 1); ``smooth`` says s_min is
    simple and nonzero, so the closed-form gradient ``s_grad`` holds;
    ``weight_grad``, the gradient of w(|.|), is None at the origin for a
    non-constant weight.  ``grad_F(eps)`` is s_grad - eps * weight_grad, or
    None unless both hold; ``ratio_grad`` is ``grad_F(ratio) / weight``.
    P'(lambda) is evaluated from the P' kept on P.
    """

    def __init__(self, P: MatrixPolynomial, w: WeightPolynomial, lam: complex):
        self.lam = lam
        self.trip = singular_triplets(P, lam)
        s = self.trip.values
        self.s_min = float(s[-1])
        self.gap = float(s[-2] - s[-1]) if self.trip.n >= 2 else np.inf
        self.on_spectrum = on_spectrum(s)
        self.smooth = bool(self.gap > GAP_RTOL * float(s[0]) and not self.on_spectrum)
        self.deriv = evaluate(P.derivative, lam)
        core = self.trip.left[:, -1].conj() @ (self.deriv @ self.trip.right[:, -1])
        self.s_grad = np.array([core.real, (1j * core).real])
        r = abs(lam)
        self.weight = weight_eval(w, r)
        self.ratio = self.s_min / self.weight
        if r >= ORIGIN_TOL:
            self.weight_grad = weight_deriv_eval(w, r) * np.array([lam.real, lam.imag]) / r
        else:
            self.weight_grad = np.zeros(2) if w.is_constant else None

    def F(self, eps: float) -> float:
        """s_min - eps * w(|lambda|)."""
        _require_eps(eps)
        return self.s_min - eps * self.weight

    def grad_F(self, eps: float) -> np.ndarray | None:
        """Gradient (d/dx, d/dy) of F; None where the closed form cannot be
        trusted: s_min not simple and nonzero, or the origin under a
        non-constant weight."""
        _require_eps(eps)
        if not self.smooth or self.weight_grad is None:
            return None
        return self.s_grad - eps * self.weight_grad

    @property
    def ratio_grad(self) -> np.ndarray | None:
        """Gradient of s_min / w, None where ``grad_F`` is."""
        g = self.grad_F(self.ratio)
        return None if g is None else g / self.weight
