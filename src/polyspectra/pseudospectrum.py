"""Grid sampling of the s_min/w landscape, sublevel components, boundary
tracing, and the exact grid level at which components merge.

The boundary tracer and the seed ray search are walkers: generators that
yield each point whose evaluation they need, or each level and points
whose F_eps values they need, and are sent the answer.  One driver,
``_lockstep``, advances every walker of a command together and answers a
round with one stacked evaluation of each kind.

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
    PolyspectraError,
    PreconditionError,
    SeedNotFoundError,
)
from .matpoly import (
    EigenReport,
    MatrixPolynomial,
    WeightPolynomial,
    leading_s_min,
    max_norm,
    require_nonsingular_leading,
    weight_eval,
)
from .svdcore import F_eps, PointEval, point_evals, singular_values_many

_LABEL_STRUCTURE = np.ones((3, 3), dtype=int)

# Largest grid a GridSpec accepts: 4096 x 4096, whose complex points take 256 MiB.
MAX_GRID_POINTS = 1 << 24

# Points per axis of every window whose size no input sets: the default
# window, a --window without --grid, and a document window without nx/ny.
DEFAULT_GRID = 401

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
    termination: Termination
    interior_curve: bool = False
    detail: str = ""

    @property
    def closed(self) -> bool:
        return self.termination is Termination.closed


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
    values = svals[..., -1] / weight_eval(w, np.hypot(pts.real, pts.imag))
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
    any eigenvalue).  One F_eps call samples the ray up to the window edge;
    the first sample outside the set brackets a sign change with the one
    before it, which is then bisected.  Runs the walker ``_seed_ray`` alone.
    """
    walker = _seed_ray(eps, lam0, direction, window, on_curve_tolerance(P))
    (seed,) = _lockstep(P, w, [walker], None)
    if isinstance(seed, Exception):
        raise seed
    return seed


def _seed_ray(eps: float, lam0: complex, direction: complex, window: GridSpec, tol: float):
    """``find_boundary_seed`` as a walker: a generator that yields each
    (level, points) pair it needs, is sent the F_eps values of those points,
    and returns the seed.  ``tol`` is ``on_curve_tolerance(P)``."""
    direction = complex(direction)
    if direction == 0:
        raise PreconditionError("direction must be nonzero")
    if not window.contains(lam0):
        raise PreconditionError(f"starting point {lam0:.6g} lies outside the window")
    if eps < 0:
        raise PreconditionError("eps must be nonnegative")
    direction /= abs(direction)
    (f0,) = yield eps, [lam0]
    if f0 >= 0:
        raise PreconditionError(f"F_eps(lam0) = {f0:.3e} must be negative at the starting point")
    t_max = _ray_exit_parameter(window, lam0, direction)
    if t_max <= 0:
        raise SeedNotFoundError("starting point lies on the window edge")
    ts = np.linspace(0.0, t_max, _SEED_SAMPLES)[1:]
    outside = (yield eps, lam0 + ts * direction) >= 0
    k = int(np.argmax(outside))
    if not outside[k]:
        raise SeedNotFoundError(
            "no sign change of F_eps along the ray inside the window; the "
            "component may be unbounded through the window edge"
        )
    lo, hi = (float(ts[k - 1]) if k else 0.0), float(ts[k])
    # bisect to full floating-point convergence; the final midpoint then
    # sits on the curve well inside the on-curve tolerance
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        (f,) = yield eps, [lam0 + mid * direction]
        if f < 0:
            lo = mid
        else:
            hi = mid
    seed = lam0 + 0.5 * (lo + hi) * direction
    (f,) = yield eps, [seed]
    if abs(f) > tol:
        raise SeedNotFoundError(
            f"bisection converged but |F_eps| = {abs(f):.3e} stays above tolerance {tol:.3e}"
        )
    return seed


def _each(call, items: list) -> list:
    """``call(items)``, one result per item; where it raises LinAlgError,
    ``call`` item by item, with each item's error in place of its result,
    so that an error stays with the item that raised it."""
    try:
        return call(items)
    except np.linalg.LinAlgError:
        out = []
        for item in items:
            try:
                out += call([item])
            except np.linalg.LinAlgError as exc:
                out.append(exc)
        return out


# Stationarity threshold shared by the tracer stop test and the saddle
# search convergence test.
SADDLE_GRAD_TOL = 1e-7

_MAX_CORRECTOR_ITERS = 20
_MIN_STEP_FRACTION = 2.0 ** -12
_STATIONARY_PROXIMITY = 1.5
_TANGENT_FLIP_COS = 0.0
# A corrected point must lie at least this fraction of the attempted step
# from the current one; a corrector that keeps returning to a corner fails
# this at every step down to the minimum, which ends the curve there.
_MIN_ADVANCE_FRACTION = 0.5
# A seed within this fraction of a step of an earlier curve, on a segment
# that runs the way the tracer would leave the seed, repeats that curve.
_RETRACE_FRACTION = 0.1
# Rounds between the tests that stop a speculative walker whose seed an
# earlier walker of its level has passed.
_PRUNE_ROUNDS = 8
# The axis rays tried from each eigenvalue, in order.
_RAY_DIRECTIONS = (1.0, -1.0, 1j, -1j)


@dataclass
class TraceStats:
    """Work of a lockstep: the rounds with a stacked ``point_evals`` call, and
    the points those calls evaluate."""

    rounds: int = 0
    points: int = 0


def _tracer_step(window: GridSpec, step_size: float | None) -> float:
    return window.diagonal / 500.0 if step_size is None else step_size


def retraced_curve(
    P: MatrixPolynomial,
    w: WeightPolynomial,
    eps: float,
    seed: complex,
    curves,
    window: GridSpec,
    step_size: float | None = None,
) -> int | None:
    """Index of the first of ``curves`` (BoundaryCurves of level eps) that
    tracing from ``seed`` would repeat, or None.

    A curve is repeated when one of its segments passes within
    _RETRACE_FRACTION of a step of the seed and runs the same way as the
    tangent there (positive cosine).  The direction test keeps the curves
    of two components that face each other across a neck narrower than
    that distance: their boundaries run opposite ways there.
    """
    g = PointEval(P, w, seed).grad_F(eps)
    reach = _RETRACE_FRACTION * _tracer_step(window, step_size)
    return _retraced(seed, g, [c.points for c in curves], reach)


def _retraced(seed: complex, g, point_lists, reach: float) -> int | None:
    """First of ``point_lists`` that passes ``seed`` within ``reach`` running
    along the tangent of the gradient ``g``; None for an invalid or zero g."""
    if g is None or not (g[0] or g[1]):
        return None
    tangent = complex(-g[1], g[0])
    for k, points in enumerate(point_lists):
        a = points[:-1]
        d = points[1:] - a
        length2 = np.abs(d) ** 2
        t = np.clip(np.real((seed - a) * np.conj(d)) / np.where(length2 > 0, length2, 1.0), 0, 1)
        near = np.abs(a + t * d - seed) <= reach
        if np.any(near & (np.real(d * np.conj(tangent)) > 0)):
            return k
    return None


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
    minimum step (corner or cusp on the curve).  A corrected point counts
    only if it advanced at least half the attempted step, so a corrector
    pulled back onto a corner fails at every step and stops the curve there
    instead of piling points onto the corner.  The one-walker case of
    ``trace_boundaries``.
    """
    (curve,) = trace_boundaries(P, w, [(eps, seed)], window, step_size, max_steps)
    if isinstance(curve, Exception):
        raise curve
    return curve


def trace_boundaries(
    P: MatrixPolynomial,
    w: WeightPolynomial,
    starts,
    window: GridSpec,
    step_size: float | None = None,
    max_steps: int = 20000,
    stats: TraceStats | None = None,
) -> list:
    """``trace_boundary`` from every (eps, seed) of ``starts``, in order: its
    curve, or the exception its tracing raised.  The curves are traced in
    lockstep, one stacked evaluation per round."""
    walkers = [_walk(P, w, eps, seed, window, step_size, max_steps) for eps, seed in starts]
    return _lockstep(P, w, walkers, stats)


def _seed_gradient(here: PointEval, eps: float, tol: float) -> tuple:
    """grad_xy at a seed the tracer can start from; PreconditionError for a
    seed off the curve or with an invalid or vanishing gradient."""
    f_seed = here.F(eps)
    if abs(f_seed) > tol:
        raise PreconditionError(f"seed is not on the curve: |F_eps| = {abs(f_seed):.3e}")
    g = here.grad_xy(eps)
    if g is None or np.hypot(*g) <= SADDLE_GRAD_TOL:
        raise PreconditionError("gradient at seed is invalid or vanishing")
    return g


def _walk(P, w, eps, seed, window, step_size, max_steps, here=None, pts=None):
    """``trace_boundary`` as a walker: a generator that yields each point it
    needs, is sent that point's PointEval, and returns the BoundaryCurve.

    ``here`` is the seed's PointEval when the caller already holds it;
    ``pts``, when given, is the list the walker appends its points to.
    Gradients are float pairs, and each operation is the one an array
    operation on them would do, element by element.
    """
    step_size = _tracer_step(window, step_size)
    tol = on_curve_tolerance(P)
    if here is None:
        here = yield seed
    gx, gy = _seed_gradient(here, eps, tol)
    norm = np.hypot(gx, gy)
    probe = 2.0 * step_size * complex(gx / norm, gy / norm)
    interior_curve = bool(np.all(F_eps(P, w, eps, seed + np.array([probe, -probe])) <= 0))

    def correct(lam: complex, step: float):
        """Newton along grad_F toward F = 0; the converged PointEval, or None."""
        for _ in range(_MAX_CORRECTOR_ITERS):
            pe = yield lam
            f = pe.F(eps)
            if abs(f) <= tol:
                return pe
            g = pe.grad_xy(eps)
            if g is None or not (g[0] or g[1]):
                return None
            shift = f / float(np.hypot(*g)) ** 2
            move = complex(-shift * g[0], -shift * g[1])
            if abs(move) > 2.0 * step:
                return None
            lam = lam + move
        return None

    pts = [] if pts is None else pts
    pts.append(seed)
    lam = seed
    prev_tangent = None
    prev_grad = None
    termination = Termination.step_limit
    detail = ""
    min_step = step_size * _MIN_STEP_FRACTION

    for k in range(max_steps):
        g = here.grad_xy(eps)
        if g is None:
            termination = Termination.gradient_invalid
            detail = "gradient invalid (surface crossing, zero value, or origin)"
            break
        gx, gy = g
        norm = np.hypot(gx, gy)
        if norm < SADDLE_GRAD_TOL:
            termination = Termination.gradient_invalid
            detail = "gradient below stationarity threshold"
            break
        if prev_grad is not None:
            # pts[-2] exists and lies >= _MIN_ADVANCE_FRACTION of a step from lam
            dist = abs(lam - pts[-2])
            hess = np.hypot(gx - prev_grad[0], gy - prev_grad[1]) / dist
            if hess > 0 and norm / hess <= _STATIONARY_PROXIMITY * step_size:
                termination = Termination.gradient_invalid
                detail = "stationary point of F_eps within reach (near self-intersection)"
                break
        tx, ty = -gy / norm, gx / norm
        tangent = np.array([tx, ty])
        if prev_tangent is not None:
            c = float(tangent @ prev_tangent)
            if c < _TANGENT_FLIP_COS:
                termination = Termination.gradient_invalid
                detail = "tangent direction flipped (corner or branch crossing)"
                break
        step = step_size
        nxt = None
        while step >= min_step:
            cand = yield from correct(lam + step * complex(tx, ty), step)
            if (
                cand is not None
                and _MIN_ADVANCE_FRACTION * step <= abs(cand.lam - lam) <= 2.0 * step_size
            ):
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
        termination=termination,
        interior_curve=interior_curve,
        detail=detail,
    )


def _lockstep(P, w, walkers: list, stats: TraceStats | None, prune=None) -> list:
    """Run walkers (generators as ``_walk`` and ``_seed_ray`` make them)
    together.

    A walker asks for a point's PointEval by yielding the point, and for
    F_eps values by yielding a (level, points) pair.  Each round answers
    the pairs of every live walker with one F_eps call and the points with
    one stacked ``point_evals`` call, and sends each walker its answer.
    Both give a point the same bits in any stack, so each walker gets the
    answers it gets alone.  Returns what each walker returned, or the library or LinAlgError
    exception it raised; ``_each`` keeps a LinAlgError with the walker whose
    request raised it.  Every _PRUNE_ROUNDS rounds ``prune(live)`` names
    live walkers to stop; a stopped walker returns None.
    """
    results = [None] * len(walkers)
    asks = ({}, {})  # the requests by walker: points, and (level, points) pairs
    points, values = asks

    def send(i: int, answer) -> None:
        try:
            ask = walkers[i].send(answer)
        except StopIteration as stop:
            results[i] = stop.value
        except (PolyspectraError, np.linalg.LinAlgError) as exc:
            results[i] = exc
        else:
            asks[type(ask) is tuple][i] = ask

    def levels(items: list) -> list:
        sizes = [len(z) for _, z in items]
        eps = np.repeat([level for level, _ in items], sizes)
        f = F_eps(P, w, eps, np.concatenate([z for _, z in items]))
        return np.split(f, np.cumsum(sizes)[:-1])

    for i in range(len(walkers)):
        send(i, None)
    rounds = 0
    while points or values:
        answers = []
        if points:
            live = list(points)
            if stats is not None:
                stats.rounds += 1
                stats.points += len(live)
            rows = _each(lambda z: point_evals(P, w, z), [points.pop(i) for i in live])
            answers += zip(live, rows)
        if values:
            live = list(values)
            answers += zip(live, _each(levels, [values.pop(i) for i in live]))
        for i, answer in answers:
            if isinstance(answer, Exception):
                results[i] = answer
                walkers[i].close()
            else:
                send(i, answer)
        rounds += 1
        if prune is not None and rounds % _PRUNE_ROUNDS == 0:
            for i in prune([*points, *values]):
                points.pop(i, None)
                values.pop(i, None)
                walkers[i].close()
    return results


def trace_eigenvalue_rays(
    P: MatrixPolynomial,
    w: WeightPolynomial,
    levels,
    eigenvalues,
    window: GridSpec,
    step_size: float | None = None,
    max_steps: int = 20000,
    stats: TraceStats | None = None,
):
    """Trace each level's boundaries from the axis rays of ``eigenvalues``.

    Yields (eps, lam, found) for every level and then every eigenvalue, in
    order, with the outcome of the sequential search: the axis rays are
    tried in the order of _RAY_DIRECTIONS; a ray without a seed
    (SeedNotFoundError or PreconditionError) or whose seed the tracer
    rejects passes to the next; a seed on a curve this level already has,
    running the same way (``retraced_curve``), ends the search with that
    curve's id; otherwise the traced curve is kept.  ``found`` is the
    BoundaryCurve, the id of the repeated curve (its index among the curves
    yielded so far), or None when no ray gives a seed.  Another exception
    is raised where the search meets it, after the outcomes before it.

    The work is done ahead in one lockstep, with one walker (``_search``)
    per level and eigenvalue: it tries the rays in order, records each
    seed with its PointEval, and traces from its first traceable seed.  A
    tracing walker stops when an earlier walker of its level passes its
    seed the same way (``_prune_passed``).  The sequential search then
    replays on what the walkers recorded, and traces alone a stopped walker
    it needs.  So the outcomes are those of the search run point by point.
    """
    tol = on_curve_tolerance(P)
    step = _tracer_step(window, step_size)
    reach = _RETRACE_FRACTION * step
    pairs = [(level, eps, lam) for level, eps in enumerate(levels) for lam in eigenvalues]
    tried = [[] for _ in pairs]  # (seed, PointEval) of each ray with a seed
    points = [[] for _ in pairs]  # of the curve each walker traces
    walkers = [
        _search(P, w, eps, lam, window, step_size, max_steps, tol, seeds, pts)
        for (_, eps, lam), seeds, pts in zip(pairs, tried, points)
    ]
    prune = _prune_passed(pairs, tried, points, reach, step)
    results = _lockstep(P, w, walkers, stats, prune)

    # the sequential search, on what the walkers recorded
    kept = []
    level_ids = {}
    for (level, eps, lam), seeds, result in zip(pairs, tried, results):
        ids = level_ids.setdefault(level, [])
        found = None
        for seed, row in seeds:
            k = _retraced(seed, row.grad_xy(eps), [kept[c].points for c in ids], reach)
            if k is not None:
                found = ids[k]
                break
            if not _traceable(row, eps, tol):
                continue
            # a traceable seed is the walker's last: it traced from it
            if result is None:  # stopped ahead; the search needs it
                walker = _walk(P, w, eps, seed, window, step_size, max_steps, row)
                (result,) = _lockstep(P, w, [walker], stats)
            if isinstance(result, Exception):
                raise result
            ids.append(len(kept))
            kept.append(result)
            found = result
            break
        else:
            if isinstance(result, Exception):  # met after the recorded rays
                raise result
        yield eps, lam, found


def _search(P, w, eps, lam, window, step_size, max_steps, tol, tried: list, pts: list):
    """The rays from one eigenvalue as a walker: tries the rays of
    _RAY_DIRECTIONS in order, appends each seed and its PointEval to
    ``tried``, and traces from the first seed the tracer accepts, into
    ``pts``.  Returns that curve, or None when no ray gives one."""
    for direction in _RAY_DIRECTIONS:
        try:
            seed = yield from _seed_ray(eps, lam, direction, window, tol)
        except (SeedNotFoundError, PreconditionError):
            continue
        row = yield seed
        tried.append((seed, row))
        if _traceable(row, eps, tol):
            return (yield from _walk(P, w, eps, seed, window, step_size, max_steps, row, pts))
    return None


def _prune_passed(pairs: list, tried: list, points: list, reach: float, step: float):
    """The prune of ``trace_eigenvalue_rays``: ``prune(live)`` names the live
    walkers that are tracing and whose seed an earlier walker of their level
    has passed the same way.  A walker still trying rays has no seed yet,
    and is never named."""
    checked = {}  # (walker, earlier walker) -> points of the earlier one tested
    # a segment passing a seed within reach has an end within reach + 2 steps
    radius = reach + 2.0 * step

    def prune(live: list) -> list:
        stop = []
        for j in live:
            if not points[j]:
                continue
            seed, level = points[j][0], pairs[j][0]
            near = []
            for q in range(j):
                if pairs[q][0] == level:
                    fresh = points[q][max(checked.get((j, q), 0) - 1, 0) :]
                    checked[j, q] = len(points[q])
                    if len(fresh) > 1 and any(abs(z - seed) <= radius for z in fresh):
                        near.append(np.array(fresh, dtype=complex))
            if near:
                g = tried[j][-1][1].grad_xy(pairs[j][1])
                if _retraced(seed, g, near, reach) is not None:
                    stop.append(j)
        return stop

    return prune


def _traceable(row: PointEval, eps: float, tol: float) -> bool:
    try:
        _seed_gradient(row, eps, tol)
    except PreconditionError:
        return False
    return True


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
