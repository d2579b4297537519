"""Matrix polynomials: evaluation, derivatives, norms, and eigenvalues.

A matrix polynomial is P(lambda) = sum_j P_j lambda**j with square complex
coefficients P_0 ... P_m.  Eigenvalues (roots of det P) are computed through
the first companion linearization of the monic reduction P_m^{-1} P_j, which
requires a nonsingular leading coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, PreconditionError, SingularLeadingCoefficientError

# Companion roots within 2 * CLUSTER_RTOL * (1 + max |root|) are one eigenvalue.
CLUSTER_RTOL = 1e-6
# Singular values below NULLITY_RTOL * eigenvalue_residual_scale count as zero.
NULLITY_RTOL = 1e-8


@dataclass(frozen=True)
class MatrixPolynomial:
    """Degree-m polynomial with n x n complex coefficients.

    ``coeffs[j]`` multiplies lambda**j.  Coefficient arrays are copied and
    frozen at construction, so instances are safe to share between threads;
    the singular values of P_m, the coefficient norms and the derivative P'
    are computed on first use and kept.
    """

    coeffs: tuple

    def __init__(self, coeffs):
        mats = []
        for j, c in enumerate(coeffs):
            a = np.array(c, dtype=complex)
            if a.ndim == 0:
                a = a.reshape(1, 1)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise InputError(f"coefficient {j} is not a square matrix")
            mats.append(a)
        if not mats:
            raise InputError("a matrix polynomial needs at least one coefficient")
        n = mats[0].shape[0]
        for j, a in enumerate(mats):
            if a.shape != (n, n):
                raise InputError(f"coefficient {j} has shape {a.shape}, expected {(n, n)}")
            a.setflags(write=False)
        object.__setattr__(self, "coeffs", tuple(mats))

    @property
    def n(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def m(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def leading_values(self) -> np.ndarray:
        """Descending singular values of P_m, from one SVD per polynomial."""
        values = np.linalg.svd(self.coeffs[-1], compute_uv=False)
        values.setflags(write=False)
        return values

    @cached_property
    def coefficient_norms(self) -> tuple:
        """Spectral norms ||P_0|| ... ||P_m||, ||P_m|| from ``leading_values``."""
        return (*(float(np.linalg.norm(C, 2)) for C in self.coeffs[:-1]),
                float(self.leading_values[0]))

    @cached_property
    def derivative(self) -> MatrixPolynomial:
        """Term-wise derivative P', degree max(m-1, 0)."""
        if self.m == 0:
            return MatrixPolynomial([np.zeros((self.n, self.n), dtype=complex)])
        return MatrixPolynomial([j * self.coeffs[j] for j in range(1, self.m + 1)])

    def __call__(self, lam):
        return evaluate(self, lam)


@dataclass(frozen=True)
class WeightPolynomial:
    """Real polynomial w(x) = sum_j w_j x**j with w_j >= 0 and w_0 > 0.

    The weights scale the admissible perturbation of each coefficient;
    ``w_j = 0`` forbids perturbing P_j entirely.  The coefficients of the
    derivative w' are computed on first use and kept.
    """

    weights: tuple

    def __init__(self, weights):
        ws = tuple(float(x) for x in np.atleast_1d(weights))
        if not ws:
            raise InputError("weight polynomial needs at least the constant term")
        if not np.isfinite(ws).all():
            raise InputError("weights must be finite")
        if ws[0] <= 0:
            raise InputError("constant weight w_0 must be strictly positive")
        if any(x < 0 for x in ws):
            raise InputError("weights must be nonnegative")
        object.__setattr__(self, "weights", ws)

    @cached_property
    def derivative_weights(self) -> tuple:
        """Coefficients j * w_j (j >= 1) of w', empty for a constant; computed
        on first use and kept."""
        return tuple(j * c for j, c in enumerate(self.weights))[1:]

    def coefficient(self, j: int) -> float:
        """w_j, treating missing high-order terms as zero."""
        return self.weights[j] if 0 <= j < len(self.weights) else 0.0

    @property
    def is_constant(self) -> bool:
        return all(x == 0 for x in self.weights[1:])

    def __call__(self, r):
        return weight_eval(self, r)


@dataclass(frozen=True)
class EigenReport:
    """Distinct eigenvalues with algebraic multiplicities.

    Nearly coincident companion roots are merged: reported values are
    pairwise separated by more than ``2 * cluster_radius``.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    cluster_radius: float

    @property
    def total_multiplicity(self) -> int:
        return int(self.multiplicities.sum())


def evaluate(P: MatrixPolynomial, lam: complex) -> np.ndarray:
    """P(lambda) by Horner recurrence, one point at a time.

    The program evaluates through ``evaluate_many``, which gives the same
    bits; this plain loop is the reference the tests hold it to.
    """
    acc = np.array(P.coeffs[-1], dtype=complex)
    for C in reversed(P.coeffs[:-1]):
        acc = acc * lam + C
    return acc


def evaluate_many(P: MatrixPolynomial, lams) -> np.ndarray:
    """Vectorized Horner evaluation.

    ``lams`` may have any shape; the result has shape ``lams.shape + (n, n)``.
    It is allocated once, and each multiply/add step writes into it.  Each
    point gets the same bits whatever the shape, and the same as ``evaluate``.
    """
    L = np.asarray(lams, dtype=complex)[..., None, None]
    if not P.m:
        return np.broadcast_to(P.coeffs[0], L.shape[:-2] + (P.n, P.n)).copy()
    # the leading coefficient takes the axes of L: numpy multiplies
    # one-element operands with differing numbers of axes (a one-point array
    # at n = 1) in a scalar loop that rounds differently from the vector loop
    # every other product runs
    lead = P.coeffs[-1][(None,) * (L.ndim - 2)]
    acc = lead * L  # the one allocation; every later step is in place
    acc += P.coeffs[-2]
    for C in reversed(P.coeffs[:-2]):
        # except a product of one element (a point at n = 1): numpy takes it
        # in place for a reduction, whose scalar loop rounds differently from
        # the vector loop every other product runs
        acc = np.multiply(acc, L, out=acc if acc.size > 1 else None)
        acc += C
    return acc


def max_norm(P: MatrixPolynomial) -> float:
    """max_j of the spectral norm of P_j."""
    return max(P.coefficient_norms)


def _horner(coeffs, r):
    """sum_j coeffs[j] * r**j for r >= 0, a float or an array like r."""
    if isinstance(r, np.ndarray):
        negative = bool((r < 0).any())
    else:
        r = float(r)
        negative = r < 0
    if negative:
        raise PreconditionError(
            f"weight polynomial argument must be nonnegative, got {np.min(r)}"
        )
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc


def weight_eval(w: WeightPolynomial, r):
    """w(r) for r >= 0, a float or an array like r; positive since w_0 > 0."""
    return _horner(w.weights, r)


def weight_deriv_eval(w: WeightPolynomial, r):
    """w'(r) for r >= 0."""
    return _horner(w.derivative_weights, r)


def singular_tolerance(P: MatrixPolynomial) -> float:
    """Rank tolerance for the leading coefficient: n * eps * ||P_m||."""
    return P.n * np.finfo(float).eps * float(P.leading_values.max())


def leading_s_min(P: MatrixPolynomial) -> float:
    """Smallest singular value of the leading coefficient P_m."""
    return float(P.leading_values[-1]) if P.n else 0.0


def require_nonsingular_leading(P: MatrixPolynomial) -> None:
    smin = leading_s_min(P)
    if smin <= singular_tolerance(P):
        raise SingularLeadingCoefficientError(
            f"leading coefficient is numerically singular (smallest singular value "
            f"{smin:.3e} <= tolerance {singular_tolerance(P):.3e})"
        )


def companion_matrix(P: MatrixPolynomial) -> np.ndarray:
    """First companion matrix of the monic reduction, size nm x nm."""
    require_nonsingular_leading(P)
    n, m = P.n, P.m
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    lead_inv = np.linalg.inv(P.coeffs[-1])
    B = [lead_inv @ C for C in P.coeffs[:-1]]
    C = np.zeros((n * m, n * m), dtype=complex)
    for k in range(m - 1):
        C[k * n : (k + 1) * n, (k + 1) * n : (k + 2) * n] = np.eye(n)
    for j in range(m):
        C[(m - 1) * n :, j * n : (j + 1) * n] = -B[j]
    return C


def connected_components(k: int, u, v) -> tuple[int, np.ndarray]:
    """Connected components of the graph on nodes 0..k-1 with edges (u, v).

    Returns the count and each node's group, numbered 0, 1, ... in the
    order of each group's lowest node.  A disjoint-set union (Tarjan, J.
    ACM 1975), all edges at once: each round compresses every path to its
    root, then hooks every root that an edge joins to a smaller root onto
    the smallest such root.  A root is therefore its group's lowest node.
    Self-loops and duplicate edges are allowed.
    """
    parent = np.arange(k)
    u = np.asarray(u, dtype=np.intp)
    v = np.asarray(v, dtype=np.intp)
    while True:
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        u, v = parent[u], parent[v]
        live = u != v
        if not live.any():
            break
        u, v = u[live], v[live]
        smaller, larger = np.minimum(u, v), np.maximum(u, v)
        # any of repeated writes hooks a root correctly, and numpy lands the
        # last, so the smallest root goes last: in edge order, a comb of k
        # teeth on one bar would take k rounds
        order = np.argsort(smaller, kind="stable")[::-1]
        parent[larger[order]] = smaller[order]
    roots = parent == np.arange(k)
    return int(np.count_nonzero(roots)), (np.cumsum(roots) - 1)[parent]


def _cluster_points(points: np.ndarray, radius: float):
    """Merge points whose mutual distance is at most 2*radius.

    The groups are the connected components of the graph joining points
    within 2*radius, taken in the order of their lowest member.
    Representatives are re-clustered until they are pairwise separated by
    more than 2*radius, so chained near-coincidences collapse into one
    value.
    """
    vals = np.asarray(points, dtype=complex)
    counts = np.ones(len(vals), dtype=int)
    while True:
        k, labels = connected_components(
            len(vals), *np.nonzero(np.abs(vals[:, None] - vals[None, :]) <= 2 * radius)
        )
        if k == len(vals):
            break
        groups = [np.flatnonzero(labels == g) for g in range(k)]
        totals = np.array([(vals[idx] * counts[idx]).sum() for idx in groups])
        counts = np.array([counts[idx].sum() for idx in groups])
        vals = totals / counts
    order = np.lexsort((vals.imag, vals.real))
    return vals[order], counts[order]


def eigenvalues(P: MatrixPolynomial) -> EigenReport:
    """All nm eigenvalues via the companion linearization, clustered into
    distinct values with algebraic multiplicities.

    Raises SingularLeadingCoefficientError when det P_m is numerically zero.
    """
    C = companion_matrix(P)
    if C.size == 0:
        return EigenReport(
            eigenvalues=np.zeros(0, dtype=complex),
            multiplicities=np.zeros(0, dtype=int),
            cluster_radius=0.0,
        )
    raw = np.linalg.eigvals(C)
    cluster_radius = CLUSTER_RTOL * (1.0 + float(np.abs(raw).max()))
    vals, counts = _cluster_points(raw, cluster_radius)
    return EigenReport(eigenvalues=vals, multiplicities=counts, cluster_radius=cluster_radius)


def geometric_multiplicity(P: MatrixPolynomial, lam0: complex) -> int:
    """dim null P(lam0): singular values below NULLITY_RTOL times the natural
    magnitude scale of P at lam0 count as zero."""
    from .svdcore import singular_values_many  # svdcore imports this module
    s = singular_values_many(P, lam0)
    scale = eigenvalue_residual_scale(P, lam0)
    if scale == 0.0:
        return P.n
    return int(np.count_nonzero(s <= NULLITY_RTOL * scale))


def eigenvalue_residual_scale(P: MatrixPolynomial, lam0: complex) -> float:
    """Magnitude scale used for eigenvalue residual checks at lam0."""
    return max_norm(P) * max(1.0, abs(lam0)) ** P.m
