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
from scipy import optimize

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
from .faultlines import build_surface_map, default_probes
from .matpoly import (
    MatrixPolynomial,
    WeightPolynomial,
    derivative,
    eigenvalues,
    evaluate,
    leading_s_min,
    weight_eval,
)
from .pseudospectrum import (
    SADDLE_GRAD_TOL,
    GridSpec,
    boundedness_check,
    compute_field,
    default_window,
    grid_merge_level,
    labels_near,
)
from .svdcore import (
    ORIGIN_TOL,
    PointEval,
    on_spectrum,
    s_min,
    singular_values_many,
    surface_gap,
)

# Multiplicity cluster width for the smallest singular value, relative to s_1.
MULTIPLICITY_RTOL = 1e-8
# |u* Q'(mu) v| below this scale certifies the derivative criterion.
DEFECT_RTOL = 1e-6
# Residual bound for the constructed perturbations.
RESIDUAL_RTOL = 1e-8
# Residual surface gap, relative to 1 + s_1, that certifies an on-fault
# merge point found by the crossing search.
_CROSSING_RTOL = 1e-6
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
    (zero in exact arithmetic).  ``defective`` reports the derivative test
    u* Q'(mu) v when the geometric multiplicity is 1.
    """

    mu: complex
    q_hat: PerturbationSet
    q_tilde: PerturbationSet
    delta: float
    geometric_mult: int
    defective: bool
    residual: float
    residual_tilde: float
    criterion: complex
    constant_weight_substituted: bool


@dataclass(frozen=True)
class SaddleResult:
    mu: complex
    delta: float
    on_fault: bool
    iterations: int


@dataclass(frozen=True)
class DistanceResult:
    """Distance to the nearest polynomial with a multiple eigenvalue."""

    r: float
    certificate: MultiplicityCertificate
    saddle: SaddleResult
    bracket: tuple
    origin_case: bool


def _trailing_cluster_size(values: np.ndarray) -> int:
    """Multiplicity of the smallest singular value within the cluster width."""
    sn = values[-1]
    tol = MULTIPLICITY_RTOL * float(values[0])
    return int(np.count_nonzero(values - sn <= tol))


def _off_spectrum(P: MatrixPolynomial, w: WeightPolynomial, mu: complex) -> PointEval:
    here = PointEval(P, w, mu)
    if here.on_spectrum:
        raise PreconditionError(
            f"mu={mu:.6g} is numerically an eigenvalue (s_min={here.s_min:.3e}); "
            "the construction degenerates there"
        )
    return here


def _build_perturbation(
    P: MatrixPolynomial, w: WeightPolynomial, mu: complex, trip, low_rank: bool
) -> PerturbationSet:
    """Perturbation from the off-spectrum singular triplets ``trip`` of P(mu)."""
    sn = float(trip.values[-1])
    k = _trailing_cluster_size(trip.values)
    if low_rank:
        Z = trip.left[:, -k:] @ trip.right[:, -k:].conj().T
    else:
        Z = trip.left @ trip.right.conj().T
    E = -sn * Z
    # at mu = 0 only the constant coefficient can act, so the constant
    # weight w_c(x) = w_0 replaces w there
    at_origin = abs(mu) < ORIGIN_TOL
    w_eff = WeightPolynomial([w.weights[0]]) if at_origin else w
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
    return _build_perturbation(P, w, mu, _off_spectrum(P, w, mu).trip, low_rank=False)


def build_qtilde(P: MatrixPolynomial, w: WeightPolynomial, mu: complex) -> PerturbationSet:
    """Rank-k variant of build_qhat built from the trailing k singular
    vector pairs only."""
    return _build_perturbation(P, w, mu, _off_spectrum(P, w, mu).trip, low_rank=True)


def ball_membership(delta_set: PerturbationSet, w: WeightPolynomial, eps: float) -> BallMembership:
    """Smallest ball radius containing the perturbation, classified
    against eps.

    The radius is max_j ||Delta_j|| / w_j over the perturbable coefficients;
    any nonzero perturbation of a coefficient with w_j = 0 is inadmissible
    at every radius (infinite).  The boundary verdict is relative to
    BALL_RTOL.
    """
    radius = 0.0
    for j, D in enumerate(delta_set.deltas):
        nrm = float(np.linalg.norm(D, 2))
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
    Qp = evaluate(derivative(P_or_Q), mu)
    return complex(u.conj() @ (Qp @ v))


def certify_multiple(
    P: MatrixPolynomial, w: WeightPolynomial, mu: complex
) -> MultiplicityCertificate:
    """Build both perturbations at mu and verify what they achieve.

    Checks the eigenvalue residuals, reads the geometric multiplicity k off
    the singular-value cluster of P(mu), and for k = 1 evaluates the
    derivative criterion in the trailing singular pair.
    """
    here = _off_spectrum(P, w, mu)
    trip = here.trip
    k = _trailing_cluster_size(trip.values)
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
    at_origin = abs(mu) < ORIGIN_TOL
    crit = multiple_criterion(Qh, mu, trip.left[:, -1], trip.right[:, -1])
    if k == 1:
        deriv_scale = max(1.0, float(np.linalg.norm(here.deriv, 2)))
        defective = abs(crit) < DEFECT_RTOL * deriv_scale
    else:
        defective = False  # multiple via geometric multiplicity k >= 2
    delta = float(trip.values[-1]) / weight_eval(
        WeightPolynomial([w.weights[0]]) if at_origin else w, abs(mu)
    )
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
    validity, the search switches to simplex minimization of the second
    lowest distinct surface ratio: where that minimum touches the lowest
    surface the components meet on a surface crossing, which is returned as
    an on-fault merge point.
    """
    lam = complex(start)
    if not window.contains(lam):
        raise SaddleOutsideWindowError(f"start {lam:.6g} outside window")

    dP = derivative(P)
    here = PointEval(P, w, lam, dP)
    if here.on_spectrum:
        raise SaddleAtEigenvalueError("start is numerically on the spectrum")

    h_base = 1e-6
    grad = here.ratio_grad
    stalled = grad is None
    iters = 0
    if not stalled:
        for iters in range(1, _SADDLE_MAX_ITER + 1):
            ng = float(np.linalg.norm(grad))
            if ng * here.weight < SADDLE_GRAD_TOL:
                return SaddleResult(mu=lam, delta=here.ratio, on_fault=False, iterations=iters)
            h = h_base * (1.0 + abs(lam))
            J = np.empty((2, 2))
            ok = True
            for col, dz in enumerate((h, 1j * h)):
                gp = PointEval(P, w, lam + dz, dP).ratio_grad
                gm = PointEval(P, w, lam - dz, dP).ratio_grad
                if gp is None or gm is None:
                    ok = False
                    break
                J[:, col] = (gp - gm) / (2 * h)
            if not ok:
                stalled = True
                break
            try:
                step = np.linalg.solve(J, -grad)
            except np.linalg.LinAlgError:
                stalled = True
                break
            alpha, accepted = 1.0, False
            for _ in range(25):
                cand = lam + alpha * complex(step[0], step[1])
                trial = PointEval(P, w, cand, dP)
                if trial.on_spectrum:
                    raise SaddleAtEigenvalueError(
                        f"iterates converged to the spectrum near {cand:.6g}"
                    )
                grad_c = trial.ratio_grad
                if grad_c is not None and np.linalg.norm(grad_c) < ng * (1 - 1e-4 * alpha):
                    lam, here, grad = cand, trial, grad_c
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

    def second_ratio(p) -> float:
        s = singular_values_many(P, complex(p[0], p[1]))
        return float(s[smap.c2 - 1]) / weight_eval(w, float(np.hypot(p[0], p[1])))

    res = optimize.minimize(
        second_ratio,
        x0=[lam.real, lam.imag],
        method="Nelder-Mead",
        bounds=[(window.x_min, window.x_max), (window.y_min, window.y_max)],
        options=dict(maxiter=400, xatol=1e-12, fatol=1e-15),
    )
    mu = complex(res.x[0], res.x[1])
    s = singular_values_many(P, mu)
    if on_spectrum(s):
        raise SaddleAtEigenvalueError(f"crossing search converged to the spectrum at {mu:.6g}")
    gap = float(surface_gap(s, smap.c1, smap.c2))
    if gap > _CROSSING_RTOL * (1.0 + float(s[0])):
        raise SaddleOnFaultError(
            f"search stalled at {mu:.6g} without a certified crossing "
            f"(residual surface gap {gap:.3e})"
        )
    delta = float(s[-1]) / weight_eval(w, abs(mu))
    return SaddleResult(mu=mu, delta=delta, on_fault=True, iterations=iters + res.nit)


def distance_to_multiple(
    P: MatrixPolynomial,
    w: WeightPolynomial,
    eps_max: float,
    window: GridSpec | None = None,
    nx: int = 401,
    ny: int = 401,
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
    wm = w.coefficient(P.m)
    if not boundedness_check(P, w, eps_eff) and wm > 0:
        eps_eff = 0.99 * leading_s_min(P) / wm
        if eps_eff <= 0:
            raise PreconditionError("no positive level satisfies the boundedness condition")

    if window is None:
        window = default_window(P, w, eps_max=eps_eff, nx=nx, ny=ny, eigen=eigen)
    if not all(window.contains(z) for z in eigen.eigenvalues):
        raise PreconditionError("window must contain every eigenvalue of P")
    field = compute_field(P, w, window)
    eigs = [complex(z) for z in eigen.eigenvalues]

    # the floor level must put every eigenvalue inside a labeled cell
    eig_cell_values = [field.value_near(lam) for lam in eigen.eigenvalues]
    eps_floor = max(2.0 * max(eig_cell_values), 1e-14)
    if eps_floor >= eps_eff:
        raise GridTooCoarseError(
            f"grid floor level {eps_floor:.3e} exceeds the budget {eps_eff:.3e}; refine the grid"
        )

    # above eps_floor every eigenvalue cell is labeled and the sublevel sets
    # are nested, so this predicate is monotone in eps
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

    saddle = find_saddle(P, w, 0.5 * (pair[0] + pair[1]), window)
    r = saddle.delta
    origin_case = abs(saddle.mu) < 1e-8 * (1.0 + abs(pair[0])) and not w.is_constant
    cert_weight = WeightPolynomial([w.weights[0]]) if origin_case else w
    certificate = certify_multiple(P, cert_weight, saddle.mu)
    return DistanceResult(
        r=float(r),
        certificate=certificate,
        saddle=saddle,
        bracket=(float(lo), float(hi)),
        origin_case=origin_case,
    )
