"""Grid sampling of the s_min/w landscape, sublevel components, boundary
tracing, and the exact grid level at which components merge.

A single ScalarField stores the ratio s_min(lambda) / w(|lambda|) on a
rectangular grid; the eps-sublevel set of that one field answers membership
for every eps.  Components are labeled with 8-connectivity so thin diagonal
necks are not split spuriously.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import (
    BracketError,
    GridTooCoarseError,
    PreconditionError,
    SeedNotFoundError,
)
from .matpoly import (
    EigenReport,
    MatrixPolynomial,
    WeightPolynomial,
    derivative,
    leading_s_min,
    max_norm,
    require_nonsingular_leading,
    weight_eval,
)
from .svdcore import F_eps, PointEval, singular_values_many

_LABEL_STRUCTURE = np.ones((3, 3), dtype=int)

# Largest grid a GridSpec accepts: 4096 x 4096, whose complex points take 256 MiB.
MAX_GRID_POINTS = 1 << 24

# Points tested along a seed ray before its sign change is bisected.
_SEED_SAMPLES = 512


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation window with nx x ny sample points."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if not np.isfinite([self.x_min, self.x_max, self.y_min, self.y_max]).all():
            raise PreconditionError("window bounds must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise PreconditionError("window must have positive extent")
        if self.nx < 2 or self.ny < 2:
            raise PreconditionError("grid needs at least 2 points per axis")
        if self.nx * self.ny > MAX_GRID_POINTS:
            raise PreconditionError(f"{self.nx} x {self.ny} grid exceeds {MAX_GRID_POINTS} points")

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    def points(self) -> np.ndarray:
        """Complex grid points, shape (nx, ny)."""
        X, Y = np.meshgrid(self.xs(), self.ys(), indexing="ij")
        return X + 1j * Y

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / (self.ny - 1)

    @property
    def cell_diagonal(self) -> float:
        return float(np.hypot(self.dx, self.dy))

    @property
    def diagonal(self) -> float:
        return float(np.hypot(self.x_max - self.x_min, self.y_max - self.y_min))

    def contains(self, lam: complex) -> bool:
        return (
            self.x_min <= lam.real <= self.x_max
            and self.y_min <= lam.imag <= self.y_max
        )

    def nearest_index(self, lam: complex) -> tuple[int, int]:
        i = int(round((lam.real - self.x_min) / self.dx))
        j = int(round((lam.imag - self.y_min) / self.dy))
        return min(max(i, 0), self.nx - 1), min(max(j, 0), self.ny - 1)


@dataclass(frozen=True)
class ScalarField:
    """Samples of s_min(lambda) / w(|lambda|) over a grid."""

    grid: GridSpec
    values: np.ndarray

    def value_near(self, lam: complex) -> float:
        i, j = self.grid.nearest_index(lam)
        return float(self.values[i, j])


@dataclass(frozen=True)
class ComponentReport:
    """8-connected components of one eps-sublevel set of a ScalarField.

    ``labels`` assigns 0 outside and 1..count inside; ``eigen_assignment``
    maps each label to the (eigenvalue, algebraic multiplicity) pairs whose
    nearest grid point carries that label; ``bounded[label]`` is False when
    the component touches the window edge (unbounded within the window).
    """

    epsilon: float
    count: int
    labels: np.ndarray
    eigen_assignment: dict
    bounded: dict


class Termination(str, enum.Enum):
    closed = "closed"
    left_window = "left_window"
    gradient_invalid = "gradient_invalid"
    step_limit = "step_limit"


@dataclass(frozen=True)
class BoundaryCurve:
    """Ordered on-curve points produced by the tracer.

    ``termination`` explains why tracing stopped; ``interior_curve`` is set
    when probes on both sides of the seed have F_eps <= 0, i.e. the level
    curve bounds no exterior (it lies inside the sublevel set).
    """

    points: np.ndarray
    closed: bool
    termination: Termination
    interior_curve: bool = False
    detail: str = ""


def compute_field(
    P: MatrixPolynomial, w: WeightPolynomial, grid: GridSpec, svals: np.ndarray | None = None
) -> ScalarField:
    """Sample s_min / w on the grid.

    Each point is an independent evaluation; the batched SVD keeps the loop
    in LAPACK.  One field serves every eps.  A caller that already holds
    ``singular_values_many(P, grid.points())`` passes it as ``svals``.
    """
    pts = grid.points()
    if svals is None:
        svals = singular_values_many(P, pts)
    values = svals[..., -1] / weight_eval(w, np.abs(pts))
    values.setflags(write=False)
    return ScalarField(grid=grid, values=values)


def label_sublevel(field: ScalarField, eps: float) -> tuple[np.ndarray, int]:
    """8-connected labeling of {value <= eps}."""
    labels, count = ndimage.label(field.values <= eps, structure=_LABEL_STRUCTURE)
    return labels, int(count)


def components(field: ScalarField, eps: float, eigen: EigenReport) -> ComponentReport:
    """Label the eps-sublevel set and assign eigenvalues to components.

    Eigenvalues outside the window (zoomed views) are left unassigned.
    Raises GridTooCoarseError when an in-window eigenvalue's nearest grid
    point lies above eps; the grid then cannot represent the component
    around that eigenvalue and must be refined.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    labels, count = label_sublevel(field, eps)
    assignment: dict = {lab: [] for lab in range(1, count + 1)}
    for lam, mult in zip(eigen.eigenvalues, eigen.multiplicities):
        if not field.grid.contains(lam):
            continue
        i, j = field.grid.nearest_index(lam)
        lab = int(labels[i, j])
        if lab == 0:
            raise GridTooCoarseError(
                f"eigenvalue {lam:.6g} falls on a grid point with value "
                f"{field.values[i, j]:.3e} > eps={eps:.3e}; refine the grid "
                f"(nx={field.grid.nx}, ny={field.grid.ny}) or enlarge eps"
            )
        assignment[lab].append((complex(lam), int(mult)))
    edge_labels = set(np.unique(labels[0, :])) | set(np.unique(labels[-1, :]))
    edge_labels |= set(np.unique(labels[:, 0])) | set(np.unique(labels[:, -1]))
    bounded = {lab: lab not in edge_labels for lab in range(1, count + 1)}
    return ComponentReport(
        epsilon=float(eps),
        count=count,
        labels=labels,
        eigen_assignment=assignment,
        bounded=bounded,
    )


def on_curve_tolerance(P: MatrixPolynomial) -> float:
    return 1e-9 * (1.0 + max_norm(P))


def _ray_exit_parameter(window: GridSpec, lam0: complex, direction: complex) -> float:
    """Largest t with lam0 + t*direction still inside the window."""
    t = np.inf
    for lo, hi, p, d in (
        (window.x_min, window.x_max, lam0.real, direction.real),
        (window.y_min, window.y_max, lam0.imag, direction.imag),
    ):
        if abs(d) > 0:
            for bound in (lo, hi):
                tt = (bound - p) / d
                if tt > 0:
                    t = min(t, tt)
    return t if np.isfinite(t) else 0.0


def find_boundary_seed(
    P: MatrixPolynomial,
    w: WeightPolynomial,
    eps: float,
    lam0: complex,
    direction: complex,
    window: GridSpec,
) -> complex:
    """Point with |F_eps| below tolerance on the ray lam0 + t*direction.

    lam0 must be strictly inside the sublevel set (F_eps(lam0) < 0, true for
    any eigenvalue); the ray is marched to the window edge to bracket a sign
    change, then bisected.
    """
    direction = complex(direction)
    if direction == 0:
        raise PreconditionError("direction must be nonzero")
    direction /= abs(direction)
    if not window.contains(lam0):
        raise PreconditionError(f"starting point {lam0:.6g} lies outside the window")
    f0 = F_eps(P, w, eps, lam0)
    if f0 >= 0:
        raise PreconditionError(
            f"F_eps(lam0) = {f0:.3e} must be negative at the starting point"
        )
    t_max = _ray_exit_parameter(window, lam0, direction)
    if t_max <= 0:
        raise SeedNotFoundError("starting point lies on the window edge")
    lo = 0.0
    hi = None
    for t in np.linspace(0.0, t_max, _SEED_SAMPLES)[1:]:
        f = F_eps(P, w, eps, lam0 + t * direction)
        if f >= 0:
            hi = t
            break
        lo = t
    if hi is None:
        raise SeedNotFoundError(
            "no sign change of F_eps along the ray inside the window; the "
            "component may be unbounded through the window edge"
        )
    # bisect to full floating-point convergence; the final midpoint then
    # sits on the curve well inside the on-curve tolerance
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f = F_eps(P, w, eps, lam0 + mid * direction)
        if f < 0:
            lo = mid
        else:
            hi = mid
    seed = lam0 + 0.5 * (lo + hi) * direction
    tol = on_curve_tolerance(P)
    if abs(F_eps(P, w, eps, seed)) > tol:
        raise SeedNotFoundError(
            f"bisection converged but |F_eps| = "
            f"{abs(F_eps(P, w, eps, seed)):.3e} stays above tolerance {tol:.3e}"
        )
    return seed


# Stationarity threshold shared by the tracer stop test and the saddle
# search convergence test.
SADDLE_GRAD_TOL = 1e-7

_MAX_CORRECTOR_ITERS = 20
_MIN_STEP_FRACTION = 2.0 ** -12
_STATIONARY_PROXIMITY = 1.5
_TANGENT_FLIP_COS = 0.0


def trace_boundary(
    P: MatrixPolynomial,
    w: WeightPolynomial,
    eps: float,
    seed: complex,
    window: GridSpec,
    step_size: float | None = None,
    max_steps: int = 20000,
) -> BoundaryCurve:
    """Predictor-corrector tracing of the level curve F_eps = 0.

    The predictor moves along the tangent (the gradient rotated +90 degrees,
    keeping the sublevel interior on the left); the corrector runs Newton
    steps along the gradient until |F_eps| is below tolerance.  Each
    corrector iterate costs one SVD, which gives both F_eps and its gradient;
    the converged iterate's evaluation seeds the next predictor.  Tracing
    terminates on closure, window exit, step budget, or loss of gradient
    trust: an invalid gradient, a gradient norm below the stationarity
    threshold, an estimated stationary point within 1.5 steps (approach to a
    saddle / self-intersection), or persistent corrector failure at the
    minimum step (corner or cusp on the curve).
    """
    if step_size is None:
        step_size = window.diagonal / 500.0
    tol = on_curve_tolerance(P)
    dP = derivative(P)
    here = PointEval(P, w, seed, dP)
    f_seed = here.F(eps)
    if abs(f_seed) > tol:
        raise PreconditionError(f"seed is not on the curve: |F_eps| = {abs(f_seed):.3e}")
    g = here.grad_F(eps)
    if not g.valid or g.norm <= SADDLE_GRAD_TOL:
        raise PreconditionError("gradient at seed is invalid or vanishing")

    normal = np.array([g.dx, g.dy]) / g.norm
    probe = 2.0 * step_size
    interior_curve = (
        F_eps(P, w, eps, seed + probe * complex(*normal)) <= 0
        and F_eps(P, w, eps, seed - probe * complex(*normal)) <= 0
    )

    def correct(lam: complex, step: float):
        """Newton along grad_F toward F = 0; the converged PointEval, or None."""
        for _ in range(_MAX_CORRECTOR_ITERS):
            pe = PointEval(P, w, lam, dP)
            f = pe.F(eps)
            if abs(f) <= tol:
                return pe
            gg = pe.grad_F(eps)
            if not gg.valid or gg.norm == 0.0:
                return None
            shift = f / gg.norm**2
            move = complex(-shift * gg.dx, -shift * gg.dy)
            if abs(move) > 2.0 * step:
                return None
            lam = lam + move
        return None

    pts = [seed]
    lam = seed
    prev_tangent = None
    prev_grad = None
    termination = Termination.step_limit
    detail = ""
    min_step = step_size * _MIN_STEP_FRACTION

    for k in range(max_steps):
        g = here.grad_F(eps)
        if not g.valid:
            termination = Termination.gradient_invalid
            detail = "gradient invalid (surface crossing, zero value, or origin)"
            break
        if g.norm < SADDLE_GRAD_TOL:
            termination = Termination.gradient_invalid
            detail = "gradient below stationarity threshold"
            break
        if prev_grad is not None:
            dist = abs(lam - pts[-2]) if len(pts) >= 2 else step_size
            hess = np.hypot(g.dx - prev_grad.dx, g.dy - prev_grad.dy) / max(dist, 1e-300)
            if hess > 0 and g.norm / hess <= _STATIONARY_PROXIMITY * step_size:
                termination = Termination.gradient_invalid
                detail = "stationary point of F_eps within reach (near self-intersection)"
                break
        tangent = np.array([-g.dy, g.dx]) / g.norm
        if prev_tangent is not None:
            c = float(tangent @ prev_tangent)
            if c < _TANGENT_FLIP_COS:
                termination = Termination.gradient_invalid
                detail = "tangent direction flipped (corner or branch crossing)"
                break
        step = step_size
        nxt = None
        while step >= min_step:
            cand = correct(lam + step * complex(*tangent), step)
            if cand is not None and abs(cand.lam - lam) <= 2.0 * step_size:
                nxt = cand
                break
            step *= 0.5
        if nxt is None:
            termination = Termination.gradient_invalid
            detail = "corrector stalled below minimum step (corner, cusp, or crossing)"
            break
        prev_grad = g
        prev_tangent = tangent
        here, lam = nxt, nxt.lam
        pts.append(lam)
        if not window.contains(lam):
            termination = Termination.left_window
            break
        if k >= 3 and abs(lam - seed) <= step_size:
            pts.append(seed)
            termination = Termination.closed
            break

    return BoundaryCurve(
        points=np.array(pts, dtype=complex),
        closed=termination is Termination.closed,
        termination=termination,
        interior_curve=interior_curve,
        detail=detail,
    )


def labels_near(field: ScalarField, eps: float, points) -> list:
    """Labels of the eps-sublevel set at the grid cells nearest ``points``
    (0 where the cell lies outside the set)."""
    labels, _ = label_sublevel(field, eps)
    return [int(labels[field.grid.nearest_index(z)]) for z in points]


def grid_merge_level(field: ScalarField, lo: float, hi: float, merged) -> tuple[float, float]:
    """First level in (lo, hi] at which the predicate ``merged(eps)`` holds.

    The sublevel labels change only where eps crosses a field value, so the
    search runs over the sorted field values in (lo, hi), followed by hi.
    ``merged`` must be monotone in eps, false at lo and true at hi; it is
    called once per level tested, never at lo or hi.  Returns the level just
    below the merge (lo when there is none) and the merge level itself.
    """
    v = field.values
    levels = np.append(np.unique(v[(v > lo) & (v < hi)]), hi)
    k = bisect.bisect_left(
        range(len(levels)), True, hi=len(levels) - 1, key=lambda k: merged(float(levels[k]))
    )
    return (float(levels[k - 1]) if k else float(lo)), float(levels[k])


def merge_epsilon(field: ScalarField, group_a, group_b, eps_lo: float, eps_hi: float) -> float:
    """Grid level at which two eigenvalue groups join.

    Every point of both groups must lie in the window and in the eps_lo
    sublevel set.  At eps_lo the points must not all share one component,
    at eps_hi they must.  Returns the smallest field value in (eps_lo,
    eps_hi), or eps_hi, at which they do: the exact merge level of the
    sampled field, since its labels change only at its own values.
    """
    points = [complex(z) for z in (*group_a, *group_b)]
    for lam in points:
        if not field.grid.contains(lam):
            raise BracketError(f"group point {lam:.6g} lies outside the window")

    def merged(eps: float) -> bool:
        return len(set(labels_near(field, eps, points))) == 1

    at_lo = labels_near(field, eps_lo, points)
    if 0 in at_lo:
        lam = points[at_lo.index(0)]
        raise BracketError(f"point {lam:.6g} is outside the sublevel set at eps={eps_lo:.4e}")
    if len(set(at_lo)) == 1:
        raise BracketError(f"groups already share a component at eps_lo={eps_lo:.4e}")
    if not merged(eps_hi):
        raise BracketError(f"groups still separated at eps_hi={eps_hi:.4e}")
    return grid_merge_level(field, eps_lo, eps_hi, merged)[1]


def boundedness_check(P: MatrixPolynomial, w: WeightPolynomial, eps: float) -> bool:
    """Sufficient condition for a bounded sublevel set.

    True iff eps * w_m < 1 / ||P_m^{-1}||, i.e. no admissible perturbation
    can make the leading coefficient singular.  Vacuously true when the
    leading coefficient is not perturbed (w_m = 0).
    """
    wm = w.coefficient(P.m)
    if wm == 0.0:
        return True
    require_nonsingular_leading(P)
    return eps * wm < leading_s_min(P)


def default_window(
    P: MatrixPolynomial,
    w: WeightPolynomial,
    eps_max: float = 0.0,
    *,
    nx: int,
    ny: int,
    eigen: EigenReport,
) -> GridSpec:
    """Heuristic window of nx x ny points: the bounding box of ``eigen``, the
    eigenvalues of P, inflated by 50% of its larger span plus a growth
    margin for the level eps_max."""
    if len(eigen.eigenvalues) == 0:
        raise PreconditionError("cannot pick a window for a polynomial without eigenvalues")
    xs = eigen.eigenvalues.real
    ys = eigen.eigenvalues.imag
    span = max(xs.max() - xs.min(), ys.max() - ys.min(), 1.0)
    pad = 0.5 * span
    if eps_max > 0 and P.m >= 1:
        radius = float(np.abs(eigen.eigenvalues).max())
        smin_lead = leading_s_min(P)
        if smin_lead > 0:
            pad += (eps_max * weight_eval(w, radius) / smin_lead) ** (1.0 / P.m)
    return GridSpec(
        x_min=float(xs.min() - pad),
        x_max=float(xs.max() + pad),
        y_min=float(ys.min() - pad),
        y_max=float(ys.max() + pad),
        nx=nx,
        ny=ny,
    )
