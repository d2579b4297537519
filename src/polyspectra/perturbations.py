"""Explicit boundary perturbations with prescribed multiple eigenvalues.

Given mu off the spectrum, the full-rank and low-rank constructions add
-s_n(mu) times a (partial) isometry built from the singular vectors of
P(mu), distributed over the coefficients in proportion to the weights.  The
perturbed polynomial acquires mu as an eigenvalue whose geometric
multiplicity equals the multiplicity of s_n(mu) as a singular value, at the
smallest admissible ball radius s_n(mu) / w(|mu|).  Combined with a
stationary point of s_min / w, the construction certifies a defective
eigenvalue, which is how the distance to the nearest polynomial with a
multiple eigenvalue is found and witnessed.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    ConstructionError,
    GridTooCoarseError,
    NotFoundWithinBudgetError,
    PreconditionError,
    SaddleAtEigenvalueError,
    SaddleNotConvergedError,
    SaddleOnFaultError,
    SaddleOutsideWindowError,
)
from .faultlines import (
    build_surface_map,
    collapsed_gap,
    crossing_system,
    default_probes,
    is_fault_point,
)
from .matpoly import (
    MatrixPolynomial,
    WeightPolynomial,
    eigenvalues,
    evaluate_many,
    leading_s_min,
    weight_eval,
)
from .pseudospectrum import (
    DEFAULT_GRID,
    GridSpec,
    Levels,
    boundedness_check,
    compute_field,
    default_window,
    grid_merge_level,
    labels_near,
    node_values,
)
from .svdcore import (
    ORIGIN_TOL,
    SingularTripletSet,
    on_spectrum,
    point_stack,
    s_min,
    singular_triplets,
    singular_values_many,
    trailing_cluster,
    weight_terms,
)

# Gradient norm of s_min / w, times w, below which find_saddle stops at a
# stationary point.
SADDLE_GRAD_TOL = 1e-7
# |u* Q'(mu) v| below this scale certifies the derivative criterion.
DEFECT_RTOL = 1e-6
# Residual bound for the constructed perturbations.
RESIDUAL_RTOL = 1e-8
# Relative width of the ball boundary; levels are often quoted to a few digits.
BALL_RTOL = 1e-3
# Damped Newton iterations of find_saddle before it reports no convergence.
_SADDLE_MAX_ITER = 60


@dataclass(frozen=True)
class PerturbationSet:
    """Coefficient perturbations Delta_0 ... Delta_m applied to a base
    polynomial."""

    deltas: tuple
    base: MatrixPolynomial

    def polynomial(self) -> MatrixPolynomial:
        return MatrixPolynomial(
            [C + D for C, D in zip(self.base.coeffs, self.deltas)]
        )

    def norms(self) -> np.ndarray:
        return np.array([float(np.linalg.norm(D, 2)) for D in self.deltas])


class BallClassification(str, enum.Enum):
    interior = "interior"
    boundary = "boundary"
    outside = "outside"


@dataclass(frozen=True)
class BallMembership:
    """Smallest admissible ball radius of a perturbation set, and its
    position relative to a queried level eps."""

    radius: float
    classification: BallClassification


@dataclass(frozen=True)
class MultiplicityCertificate:
    """Witness that mu is a multiple eigenvalue of explicit perturbations.

    ``delta`` is the realizing ball radius s_n(mu)/w(|mu|); ``residual`` is
    the smallest singular value of the perturbed full-rank polynomial at mu
    (zero in exact arithmetic).  ``criterion`` is the derivative test
    u* Q'(mu) v in the trailing singular pair, and ``defective`` reports it,
    when the geometric multiplicity is 1.  For k >= 2 the pair is any pair
    of a k-dimensional subspace, so ``criterion`` is None and ``defective``
    False.
    """

    mu: complex
    q_hat: PerturbationSet
    q_tilde: PerturbationSet
    delta: float
    geometric_mult: int
    defective: bool
    residual: float
    residual_tilde: float
    criterion: complex | None
    constant_weight_substituted: bool


@dataclass(frozen=True)
class SaddleResult:
    mu: complex
    delta: float
    on_fault: bool
    iterations: int


@dataclass(frozen=True)
class DistanceResult:
    """Distance to the nearest polynomial with a multiple eigenvalue.

    ``points`` counts the grid nodes whose singular values were computed,
    and all nodes of the grid."""

    r: float
    certificate: MultiplicityCertificate
    saddle: SaddleResult
    bracket: tuple
    origin_case: bool
    points: tuple = (0, 0)  # (decomposed, total) nodes of the sampled field


def _off_spectrum(P: MatrixPolynomial, mu: complex) -> SingularTripletSet:
    trip = singular_triplets(P, mu)
    if on_spectrum(trip.values):
        raise PreconditionError(
            f"mu={mu:.6g} is numerically an eigenvalue (s_min={trip.values[-1]:.3e}); "
            "the construction degenerates there"
        )
    return trip


def _ratio_stack(P: MatrixPolynomial, w: WeightPolynomial, lams) -> tuple:
    """The ``point_stack`` of ``lams``, s_min / w at its rows and the
    gradient (k, 2) of s_min / w, ``grad_F(ratio) / weight``: NaN where
    ``PointStack.grad_F`` is."""
    stack = point_stack(P, w, lams)
    ratio = stack.s[:, -1] / stack.weight
    return stack, ratio, stack.grad_F(ratio) / stack.weight[:, None]


def _certificate_weight(w: WeightPolynomial, mu: complex) -> tuple:
    """(weight, at_origin) of a perturbation at mu: at the origin, |mu| <
    ORIGIN_TOL, only the constant coefficient can act, so the constant
    weight w_c(x) = w_0 replaces w there."""
    at_origin = abs(mu) < ORIGIN_TOL
    return (WeightPolynomial([w.weights[0]]) if at_origin else w), at_origin


def _build_perturbation(
    P: MatrixPolynomial, w: WeightPolynomial, mu: complex, trip, low_rank: bool
) -> PerturbationSet:
    """Perturbation from the off-spectrum singular triplets ``trip`` of P(mu)."""
    sn = float(trip.values[-1])
    k = int(trailing_cluster(trip.values))
    if low_rank:
        Z = trip.left[:, -k:] @ trip.right[:, -k:].conj().T
    else:
        Z = trip.left @ trip.right.conj().T
    E = -sn * Z
    w_eff, at_origin = _certificate_weight(w, mu)
    denom = weight_eval(w_eff, abs(mu))
    phase = 0.0 if at_origin else (mu.conjugate() / abs(mu))
    deltas = []
    for j in range(P.m + 1):
        wj = w_eff.coefficient(j)
        factor = (phase**j if j > 0 else 1.0) * wj / denom
        deltas.append(factor * E)
    return PerturbationSet(deltas=tuple(deltas), base=P)


def build_qhat(P: MatrixPolynomial, w: WeightPolynomial, mu: complex) -> PerturbationSet:
    """Full-rank boundary perturbation giving mu as an eigenvalue.

    Requires mu outside the spectrum.  Every coefficient perturbation has
    spectral norm w_j * s_n(mu) / w(|mu|), and the perturbations sum to
    -s_n(mu) Z at mu, annihilating the trailing singular directions.
    """
    return _build_perturbation(P, w, mu, _off_spectrum(P, mu), low_rank=False)


def build_qtilde(P: MatrixPolynomial, w: WeightPolynomial, mu: complex) -> PerturbationSet:
    """Rank-k variant of build_qhat built from the trailing k singular
    vector pairs only."""
    return _build_perturbation(P, w, mu, _off_spectrum(P, mu), low_rank=True)


def ball_membership(delta_set: PerturbationSet, w: WeightPolynomial, eps: float) -> BallMembership:
    """Smallest ball radius containing the perturbation, classified
    against eps.

    The radius is max_j ||Delta_j|| / w_j over the perturbable coefficients;
    any nonzero perturbation of a coefficient with w_j = 0 is inadmissible
    at every radius (infinite).  The boundary verdict is relative to
    BALL_RTOL.
    """
    radius = 0.0
    for j, nrm in enumerate(delta_set.norms().tolist()):
        wj = w.coefficient(j)
        if wj == 0.0:
            if nrm > 0.0:
                radius = np.inf
                break
        else:
            radius = max(radius, nrm / wj)
    if not np.isfinite(radius):
        cls = BallClassification.outside
    elif abs(radius - eps) <= BALL_RTOL * max(eps, radius):
        cls = BallClassification.boundary
    elif radius < eps:
        cls = BallClassification.interior
    else:
        cls = BallClassification.outside
    return BallMembership(radius=radius, classification=cls)


def distance_to_eigenvalue(P: MatrixPolynomial, w: WeightPolynomial, mu: complex) -> float:
    """Smallest ball radius at which some member acquires mu as an
    eigenvalue: s_min(mu) / w(|mu|).

    Realized exactly by build_qhat / build_qtilde on the ball boundary; no
    smaller ball reaches mu.  Returns 0 (with a warning) on the spectrum.
    """
    s = singular_values_many(P, mu)
    if on_spectrum(s):
        warnings.warn(f"mu={mu:.6g} is numerically an eigenvalue; distance is 0")
        return 0.0
    return float(s[-1]) / weight_eval(w, abs(mu))


def multiple_criterion(P_or_Q: MatrixPolynomial, mu: complex, u, v) -> complex:
    """u* Q'(mu) v for an eigenvalue mu with left/right eigenvectors u, v.

    A zero value forces mu to be a multiple eigenvalue; with geometric
    multiplicity 1 it is then defective.
    """
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    Qp = evaluate_many(P_or_Q.derivative, mu)
    return complex(u.conj() @ (Qp @ v))


def certify_multiple(
    P: MatrixPolynomial, w: WeightPolynomial, mu: complex
) -> MultiplicityCertificate:
    """Build both perturbations at mu and verify what they achieve.

    Checks the eigenvalue residuals, reads the geometric multiplicity k off
    the singular-value cluster of P(mu), and for k = 1 evaluates the
    derivative criterion in the trailing singular pair (None for k >= 2).
    """
    trip = _off_spectrum(P, mu)
    k = int(trailing_cluster(trip.values))
    q_hat = _build_perturbation(P, w, mu, trip, low_rank=False)
    q_tilde = _build_perturbation(P, w, mu, trip, low_rank=True)
    Qh = q_hat.polynomial()
    Qt = q_tilde.polynomial()
    s_h = singular_values_many(Qh, mu)
    res_h = float(s_h[-1])
    res_t = s_min(Qt, mu)
    scale = 1.0 + float(s_h[0])
    if max(res_h, res_t) > RESIDUAL_RTOL * scale:
        raise ConstructionError(
            f"perturbed polynomial does not annihilate mu={mu:.6g}: residuals "
            f"{res_h:.3e}, {res_t:.3e} exceed {RESIDUAL_RTOL * scale:.3e}"
        )
    if k == 1:
        crit = multiple_criterion(Qh, mu, trip.left[:, -1], trip.right[:, -1])
        deriv_scale = max(1.0, float(np.linalg.norm(evaluate_many(P.derivative, mu), 2)))
        defective = abs(crit) < DEFECT_RTOL * deriv_scale
    else:
        crit = None  # the trailing pair is not determined by the problem
        defective = False  # multiple via geometric multiplicity k >= 2
    w_eff, at_origin = _certificate_weight(w, mu)
    delta = float(trip.values[-1]) / weight_eval(w_eff, abs(mu))
    return MultiplicityCertificate(
        mu=complex(mu),
        q_hat=q_hat,
        q_tilde=q_tilde,
        delta=delta,
        geometric_mult=k,
        defective=defective,
        residual=res_h,
        residual_tilde=res_t,
        criterion=crit,
        constant_weight_substituted=at_origin and not w.is_constant,
    )


def find_saddle(
    P: MatrixPolynomial, w: WeightPolynomial, start: complex, window: GridSpec
) -> SaddleResult:
    """Stationary point of s_min / w near ``start``.

    Runs damped Newton on the analytic gradient of the ratio (stationarity
    of the ratio coincides with a vanishing level-function gradient at the
    matching level).  When the smooth iteration stalls or the gradient loses
    validity, the search looks for the minimum of s_{c2} / w on the crossing
    of the two lowest distinct surfaces, where the components meet: an
    on-fault merge point.  Each iteration takes one ``crossing_system`` at
    lam and lam +- h t (t the crossing's tangent at the last iterate, 0 at
    an isolated crossing) and moves lam by its Gauss-Newton step plus a
    Newton step along the new tangent on psi = m / w(|lambda|)^2, where
    m = (s_{c2}^2 + s_{c1}^2) / 2 is half the trace of M = W* P* P W: psi
    is smooth across the crossing and equals (s_{c2} / w)^2 on it.  Its
    gradient is (s_{c2} grad s_{c2} + s_{c1} grad s_{c1} - 2 m grad w / w)
    / w^2, and its curvature the central difference of t . grad psi.  At
    the origin, where a non-constant w(|lambda|) has a kink and psi no
    gradient, lam moves 2 h along t, downhill.  The search ends where the
    gap is at rounding level (s_{c2} - s_{c1} <= eps s_1), the tangent
    derivative of sqrt(psi) times w is below ``SADDLE_GRAD_TOL``, and
    ``is_fault_point`` holds.  An isolated crossing counts only as a local
    minimum of psi + grad psi . d + s_1 |J d| / w^2, (s_{c2} / w)^2 to
    first order: w^4 grad psi^T (J^T J)^-1 grad psi <= s_1^2.
    """
    lam = complex(start)
    if not window.contains(lam):
        raise SaddleOutsideWindowError(f"start {lam:.6g} outside window")

    here, (ratio,), (grad,) = _ratio_stack(P, w, [lam])
    if here.on_spectrum[0]:
        raise SaddleAtEigenvalueError("start is numerically on the spectrum")

    h_base = 1e-6
    stalled = bool(np.isnan(grad).any())
    iters = 0
    if not stalled:
        for iters in range(1, _SADDLE_MAX_ITER + 1):
            ng = float(np.linalg.norm(grad))
            if ng * here.weight[0] < SADDLE_GRAD_TOL:
                return SaddleResult(mu=lam, delta=float(ratio), on_fault=False, iterations=iters)
            h = h_base * (1.0 + abs(lam))
            _, _, g = _ratio_stack(P, w, [lam + h, lam - h, lam + 1j * h, lam - 1j * h])
            if np.isnan(g).any():
                stalled = True
                break
            J = ((g[0::2] - g[1::2]) / (2 * h)).T
            try:
                step = np.linalg.solve(J, -grad)
            except np.linalg.LinAlgError:
                stalled = True
                break
            alpha, accepted = 1.0, False
            for _ in range(25):
                cand = lam + alpha * complex(step[0], step[1])
                trial, (ratio_c,), (grad_c,) = _ratio_stack(P, w, [cand])
                if trial.on_spectrum[0]:
                    raise SaddleAtEigenvalueError(
                        f"iterates converged to the spectrum near {cand:.6g}"
                    )
                # False where the gradient is NaN
                if np.linalg.norm(grad_c) < ng * (1 - 1e-4 * alpha):
                    lam, here, ratio, grad = cand, trial, ratio_c, grad_c
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                stalled = True
                break
            if not window.contains(lam):
                raise SaddleOutsideWindowError(f"iterates left the window at {lam:.6g}")
        else:
            raise SaddleNotConvergedError(
                f"no stationary point within {_SADDLE_MAX_ITER} damped Newton iterations"
            )

    # smooth search gave up: look for a merge point on a surface crossing,
    # i.e. a minimum of the second lowest distinct surface that touches the
    # lowest one
    if P.n < 2:
        raise SaddleNotConvergedError("smooth search stalled on a scalar problem")
    smap = build_surface_map(P, default_probes(window))
    if smap.c2 is None:
        raise SaddleNotConvergedError(
            "smooth search stalled and all surfaces coincide; no crossing to use"
        )
    t = crossing_system(P, smap, [lam])[3][0]
    for nit in range(1, _SADDLE_MAX_ITER + 1):
        h = h_base * (1.0 + abs(lam))
        L = lam + h * np.array([0.0, t, -t])
        s, grads, gram, tangent, (dx, dy) = crossing_system(P, smap, L)
        side, t = t, tangent[0]
        weight, weight_grad = weight_terms(w, L)
        pair = s[:, (smap.c2 - 1, smap.c1 - 1)]
        m = 0.5 * np.add.reduce(pair * pair, axis=1)
        grad = np.add.reduce(pair[:, :, None] * grads, axis=1)  # of m
        grad = (grad - (2.0 * m / weight)[:, None] * weight_grad) / (weight * weight)[:, None]
        slope = grad[0] @ (t.real, t.imag)
        step, psi = complex(dx[0], dy[0]), m / (weight * weight)
        if side and np.isnan(slope):  # the origin, where a non-constant w(|lambda|) has a kink
            step += (2.0 * h if psi[1] <= psi[2] else -2.0 * h) * side
        elif side and t:
            curv = (grad[1] - grad[2]) @ (side.real, side.imag) / (2.0 * h)
            step -= slope / curv * t
        if (
            pair[0, 0] - pair[0, 1] <= np.finfo(float).eps * s[0, 0]
            and abs(slope) * weight[0] ** 2 < 2.0 * np.sqrt(m[0]) * SADDLE_GRAD_TOL
            and is_fault_point(P, lam, smap)
        ):
            break
        lam = complex(lam + step)
        if not window.contains(lam):
            raise SaddleOutsideWindowError(f"iterates left the window at {lam:.6g}")
    else:
        raise SaddleOnFaultError(
            f"search stalled at {lam:.6g} without a certified crossing "
            f"(residual surface gap {collapsed_gap(P, lam, smap):.3e})"
        )
    if not t:
        (xx, xy, yy), (gx, gy) = (g[0] for g in gram), grad[0] * weight[0] ** 2
        if gx * gx * yy - 2.0 * gx * gy * xy + gy * gy * xx > s[0, 0] ** 2 * (xx * yy - xy * xy):
            raise SaddleOnFaultError(
                f"the isolated crossing at {lam:.6g} is no minimum of the second surface"
            )
    s = singular_values_many(P, lam)
    if on_spectrum(s):
        raise SaddleAtEigenvalueError(f"crossing search converged to the spectrum at {lam:.6g}")
    delta = float(s[-1]) / weight_eval(w, abs(lam))
    return SaddleResult(mu=lam, delta=delta, on_fault=True, iterations=iters + nit)


def distance_to_multiple(
    P: MatrixPolynomial,
    w: WeightPolynomial,
    eps_max: float,
    window: GridSpec | None = None,
    nx: int = DEFAULT_GRID,
    ny: int = DEFAULT_GRID,
) -> DistanceResult:
    """Smallest level at which the sublevel components around two distinct
    eigenvalues meet, with an explicit certificate at the merge point.

    On a sampled field the components first meet at a field value: the
    first level at which two eigenvalues' grid cells share a label.  That
    level is found exactly over the sorted field values, and
    ``DistanceResult.bracket`` holds the field value just below it and the
    level itself.  A stationary-point search started between the closest
    pair of eigenvalues that share a label there then sharpens the level
    off the grid; at that level some member of the ball acquires a multiple
    eigenvalue at the meeting point.  If the boundedness condition fails at
    eps_max, the budget is capped at the largest level it supports.
    """
    eigen = eigenvalues(P)
    if len(eigen.eigenvalues) == 0:
        raise PreconditionError("constant polynomial has no eigenvalues")

    eps_eff = float(eps_max)
    if not boundedness_check(P, w, eps_eff):
        # boundedness_check holds when w_m = 0, and eigenvalues(P) required
        # a nonsingular leading coefficient, so this level is positive
        eps_eff = 0.99 * leading_s_min(P) / w.coefficient(P.m)

    if window is None:
        window = default_window(P, w, eps_max=eps_eff, nx=nx, ny=ny, eigen=eigen)
    if not all(window.contains(z) for z in eigen.eigenvalues):
        raise PreconditionError("window must contain every eigenvalue of P")
    if len(eigen.eigenvalues) < 2:
        raise PreconditionError(
            f"{len(eigen.eigenvalues)} distinct eigenvalue in the window; "
            "two components can meet only between two distinct eigenvalues"
        )
    eigs = [complex(z) for z in eigen.eigenvalues]

    # the floor level must put every eigenvalue inside a labeled cell
    eps_floor = max(2.0 * max(node_values(P, w, window, eigs)), 1e-14)
    if eps_floor >= eps_eff:
        raise GridTooCoarseError(
            f"grid floor level {eps_floor:.3e} exceeds the budget {eps_eff:.3e}; refine the grid"
        )
    # every level the search tests lies in [eps_floor, eps_eff]
    field = compute_field(P, w, window, Levels(spans=((eps_floor, eps_eff),), exact=tuple(eigs)))
    lo, hi, pair = merge_bracket(field, eigs, eps_floor, eps_eff)

    saddle = find_saddle(P, w, 0.5 * (pair[0] + pair[1]), window)
    certificate = certify_multiple(P, w, saddle.mu)
    return DistanceResult(
        r=float(saddle.delta),
        certificate=certificate,
        saddle=saddle,
        bracket=(float(lo), float(hi)),
        origin_case=certificate.constant_weight_substituted,
        points=(field.decomposed, field.values.size),
    )


def merge_bracket(field, eigs: list, eps_floor: float, eps_eff: float) -> tuple:
    """(lo, hi, pair): the grid level ``hi`` in (eps_floor, eps_eff] at which
    the first two of the eigenvalues ``eigs`` share a component, the field
    level ``lo`` just below it, and that pair (a, b, label).

    Above eps_floor every eigenvalue cell is labeled and the sublevel sets
    are nested, so the search's predicate is monotone in eps.
    """

    def shared(eps: float) -> bool:
        return len(set(labels_near(field, eps, eigs))) < len(eigs)

    if shared(eps_floor):
        raise GridTooCoarseError(
            "components already merged at the smallest grid-resolvable level; refine the grid"
        )
    if not shared(eps_eff):
        raise NotFoundWithinBudgetError(
            f"the {len(eigs)} distinct eigenvalues are still in separate components at "
            f"eps_max={eps_eff:.4e}; no merge found within budget"
        )
    lo, hi = grid_merge_level(field, eps_floor, eps_eff, shared)

    # the merging pair: no two eigenvalues share a label at lo, so it is the
    # closest pair sharing one at hi (ties go to the lower label)
    at_hi = labels_near(field, hi, eigs)
    pair = min(
        ((a, b, la) for (a, la), (b, lb) in combinations(zip(eigs, at_hi), 2) if la == lb),
        key=lambda p: (abs(p[0] - p[1]), p[2]),
    )
    return lo, hi, pair
