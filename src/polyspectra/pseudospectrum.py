"""Grid sampling of the s_min/w landscape, sublevel components, and the
exact grid level at which components merge.

A single ScalarField stores the ratio s_min(lambda) / w(|lambda|) on a
rectangular grid; the eps-sublevel set of that one field answers membership
for every eps.  Components are labeled with 8-connectivity so thin diagonal
necks are not split spuriously: ``label_mask`` cuts the set into row runs,
joins each run to the runs of the next row that overlap it or touch it at a
corner, merges the joined runs with the union-find
``matpoly.connected_components`` and numbers the components by their first
node in raster order, as ``scipy.ndimage.label`` does.  The corner-only
joins are the diagonal-only contacts (saddle cells), the one place a
different connectivity rule would change.

Component counts and the grid merge level depend only on which nodes lie
at or below the levels asked about, so ``components`` and ``distance``
build a field for those levels alone (``Levels``: single levels, or the
band [eps_floor, eps_max] that every level of the merge search lies in).
Weyl's inequality, |s_min(P(lambda)) - s_min(P(c))| <= sum_j ||P_j||
|lambda^j - c^j|, bounds a node's value from a nearby decomposed node c;
such a field decomposes a lattice of every 8th node, then the nodes of a
lattice of every 2nd node, then every node whose enclosure, widened by
the rounding margin ``WEYL_MARGIN_RTOL``, still meets a level, and the
nodes nearest the eigenvalues.  Every other node lies on the same side of
every level as its value, so labels, counts and the values the merge
search bisects over are the full field's, and a level outside the field's
spans raises.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, GridTooCoarseError, PreconditionError
from .matpoly import (
    EigenReport,
    MatrixPolynomial,
    WeightPolynomial,
    connected_components,
    leading_s_min,
    require_nonsingular_leading,
    weight_eval,
)
from .svdcore import singular_values_many

# Largest grid a GridSpec accepts: 4096 x 4096, whose complex points take 256 MiB.
MAX_GRID_POINTS = 1 << 24

# Rounding margin m of the Weyl enclosure of a levelled field, relative to
# (n + m + 1) sum_j ||P_j|| rho^j / w, with rho the window's largest |lambda|
# and w its smallest weight: it covers the Horner and SVD rounding of s_min
# at a node and at the node its enclosure comes from, and of the enclosure
# itself, each some tens of units in the last place of that scale.
WEYL_MARGIN_RTOL = 1e-13

# Steps, in grid cells, of the lattices a levelled field decomposes before
# its last call: the first lattice is decomposed whole, every later one only
# where enclosures still meet a span.
_LATTICE_STEPS = (8, 2)

# Points per axis of every window whose size no input sets: the default
# window, a --window without --grid, and a document window without nx/ny.
DEFAULT_GRID = 401


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
class Levels:
    """The levels a field must answer: closed ``spans`` [a, b] of levels (a
    single level is [eps, eps]), and ``exact`` points, in or out of the
    window, whose nearest in-window nodes must hold exact values."""

    spans: tuple
    exact: tuple = ()


@dataclass(frozen=True)
class ScalarField:
    """Samples of s_min(lambda) / w(|lambda|) over a grid.

    ``levels`` is None when every value is exact.  Otherwise the field
    answers only the levels in ``levels.spans``: ``exact`` marks the nodes
    whose value is s_min / w itself, and every other node holds an end of
    a Weyl enclosure that meets no span, which compares with every level
    in the spans as the exact value does.  Labeling at a level outside the
    spans, and reading a value that is not exact, raise.
    """

    grid: GridSpec
    values: np.ndarray
    levels: Levels | None = None
    exact: np.ndarray | None = None

    @property
    def decomposed(self) -> int:
        """Nodes whose singular values were computed."""
        return self.values.size if self.exact is None else int(np.count_nonzero(self.exact))

    def check_levels(self, lo: float, hi: float | None = None) -> None:
        """Raise unless one span holds every level of [lo, hi]."""
        hi = lo if hi is None else hi
        if self.levels is not None and not any(a <= lo and hi <= b for a, b in self.levels.spans):
            raise PreconditionError(
                f"levels [{lo:.6g}, {hi:.6g}] lie outside the spans the field was built for"
            )

    def value_near(self, lam: complex) -> float:
        i, j = self.grid.nearest_index(lam)
        if self.exact is not None and not self.exact[i, j]:
            raise PreconditionError(f"the field holds no exact value at the node nearest {lam:.6g}")
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


def compute_field(
    P: MatrixPolynomial,
    w: WeightPolynomial,
    grid: GridSpec,
    levels: Levels | None = None,
    *,
    svals: np.ndarray | None = None,
) -> ScalarField:
    """Sample s_min / w on the grid.

    Each point is an independent evaluation; the batched SVD keeps the loop
    in LAPACK.  Without ``levels`` every node is decomposed and one field
    serves every eps; a caller that already holds
    ``singular_values_many(P, grid.points())`` passes it as ``svals``.  With
    ``levels`` only the nodes those levels depend on are decomposed
    (``_levelled_values``).
    """
    pts = grid.points()
    radius = np.hypot(pts.real, pts.imag)
    weight = weight_eval(w, radius)
    if levels is None:
        if svals is None:
            svals = singular_values_many(P, pts)
        values = svals[..., -1] / weight
        exact = None
    else:
        values, exact = _levelled_values(P, grid, pts, radius, weight, levels)
        exact.setflags(write=False)
    values.setflags(write=False)
    return ScalarField(grid=grid, values=values, levels=levels, exact=exact)


def node_values(
    P: MatrixPolynomial, w: WeightPolynomial, grid: GridSpec, points
) -> list:
    """Exact s_min / w at the nodes nearest ``points``, bit for bit the
    values ``compute_field`` gives those nodes."""
    nodes = np.array([grid.nearest_index(z) for z in points]).reshape(-1, 2)
    pts = grid.points()[nodes[:, 0], nodes[:, 1]]
    values = singular_values_many(P, pts)[:, -1] / weight_eval(w, np.hypot(pts.real, pts.imag))
    return values.tolist()


def _lattice(size: int, step: int) -> tuple:
    """The nearest node of the lattice of every ``step``-th node, as its
    lattice index, of each of ``size`` nodes along an axis, and the number
    of nodes each lattice node is nearest to."""
    near = np.minimum((np.arange(size) + step // 2) // step, (size - 1) // step)
    return near, np.bincount(near)


def _meets(lo: np.ndarray, hi: np.ndarray, spans) -> np.ndarray:
    """Where [lo, hi] meets some span."""
    hit = np.zeros(lo.shape, dtype=bool)
    for a, b in spans:
        hit |= (lo <= b) & (hi >= a)
    return hit


def _levelled_values(P, grid, pts, radius, weight, levels: Levels) -> tuple:
    """Field values and exact mask of a field that answers ``levels``.

    Weyl's inequality bounds s_min at a node lambda by s_min at a node c:
    |s_min(lambda) - s_min(c)| <= sum_j ||P_j|| |lambda^j - c^j|
    <= d q'(rho), where d = |lambda - c|, q(x) = sum_j ||P_j|| x^j and
    rho = |lambda| + R >= max(|lambda|, |c|) for R, the largest lattice
    step in cell diagonals.  The enclosure of the node's value is s_min(c)
    / w(|lambda|) widened by d q'(rho) / w(|lambda|) and by the rounding
    margin, ``WEYL_MARGIN_RTOL * (n + deg P + 1)`` times q / w at the
    window's largest |lambda| + R and its smallest w.  Each lattice of
    ``_LATTICE_STEPS`` (every step-th node along each axis) decomposes, in
    one batched call, its nodes whose enclosure still meets a span (all of
    the first), and narrows every node's enclosure by its nearest lattice
    node.  One last call decomposes every node whose enclosure still meets
    a span, and the nodes of ``levels.exact``.  Every other node stores the
    upper end of its enclosure, which lies on the same side of every level
    in the spans as the node's value.
    """
    norms = P.coefficient_norms
    reach = max(_LATTICE_STEPS) * grid.cell_diagonal  # R, beyond every |lambda - c|
    # the rounding margin over w, as one bound for every node
    rho = max(abs(grid.x_min), abs(grid.x_max)) + max(abs(grid.y_min), abs(grid.y_max)) + reach
    # a numpy power overflows to inf, which makes the margin infinite and
    # decomposes every node; a zero norm's term is left out, not inf * 0
    with np.errstate(over="ignore"):
        q = sum(c * np.float64(rho) ** k for k, c in enumerate(norms) if c)
    margin = WEYL_MARGIN_RTOL * (P.n + P.m + 1) * q / float(weight.min())
    # q'(|lambda| + R) / w(|lambda|), the bound's growth with |lambda - c|
    slope = np.full(pts.shape, float(P.m * norms[-1]))
    for k in range(P.m - 1, 0, -1):
        slope *= radius + reach
        slope += k * norms[k]
    slope /= weight
    xs, ys = grid.xs(), grid.ys()
    s_min = np.full(pts.shape, np.nan)  # NaN until decomposed
    flat_s, flat_pts = s_min.reshape(-1), pts.reshape(-1)
    lo = np.full(pts.shape, -np.inf)
    hi = np.full(pts.shape, np.inf)

    def decompose(nodes: np.ndarray) -> None:
        flat_s[nodes] = singular_values_many(P, flat_pts[nodes])[:, -1]

    for step in _LATTICE_STEPS:
        (nx, cx), (ny, cy) = _lattice(grid.nx, step), _lattice(grid.ny, step)
        lattice = np.s_[::step, ::step]
        i, j = np.nonzero(np.isnan(s_min[lattice]) & _meets(lo[lattice], hi[lattice], levels.spans))
        decompose((i * grid.ny + j) * step)
        # s_min at the nearest lattice node over w, NaN where the lattice
        # node is not decomposed, which fmax and fmin pass over
        near = np.repeat(s_min[lattice][nx], cy, axis=1) / weight
        bound = np.sqrt(np.add.outer((xs - xs[::step][nx]) ** 2, (ys - ys[::step][ny]) ** 2))
        bound *= slope
        bound += margin
        np.fmin(hi, near + bound, out=hi)
        np.fmax(lo, near - bound, out=lo)

    todo = np.isnan(s_min)
    todo &= _meets(lo, hi, levels.spans)
    for z in levels.exact:
        if grid.contains(z):
            todo[grid.nearest_index(z)] = True
    todo &= np.isnan(s_min)
    decompose(np.flatnonzero(todo))
    exact = ~np.isnan(s_min)
    nodes = np.flatnonzero(exact)
    hi.reshape(-1)[nodes] = flat_s[nodes] / weight.reshape(-1)[nodes]
    return hi, exact


def label_sublevel(field: ScalarField, eps: float) -> tuple[np.ndarray, int]:
    """8-connected labeling of {value <= eps}: int32 labels numbered in
    raster order and the count (``label_mask``)."""
    field.check_levels(eps)
    return label_mask(field.values <= eps)


def label_mask(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected components of a 2-D boolean mask: int32 labels, 0
    outside the mask and 1..count inside, and the count.

    The mask is cut into runs, maximal stretches of one row.  A run is
    joined to every run of the next row that overlaps it or touches it at
    a corner, and ``connected_components`` merges the joined runs.  The
    corner contacts are the diagonal-only edges, where two cells share no
    side: a saddle-cell rule (ROADMAP item 3) would decide them here.
    Components are numbered by their first cell in raster order, as
    ``scipy.ndimage.label`` numbers them, and one cumulative sum over a
    +label mark at each run's start and a -label mark after its end
    writes the labels.
    """
    rows, cols = mask.shape
    width = cols + 1  # a column outside the mask ends every row's last run
    flat = np.zeros(rows * width + 1, dtype=bool)
    flat[1:].reshape(rows, width)[:, :cols] = mask
    # cell p is flat[p + 1]; a run starts and stops where the row changes
    changes = np.flatnonzero(flat[1:] != flat[:-1])
    starts, stops = changes[0::2], changes[1::2]
    # a run's links in the next row: from the run touching the corner
    # before its first cell to the one touching the corner after its last
    first = np.searchsorted(stops, starts + width, side="left")
    links = np.searchsorted(starts, stops + width, side="right") - first
    below = np.arange(links.sum()) + np.repeat(first - (np.cumsum(links) - links), links)
    above = np.repeat(np.arange(len(starts)), links)
    count, run_labels = connected_components(len(starts), above, below)
    marks = np.zeros(rows * width, dtype=np.int32)
    marks[starts] = run_labels + 1
    marks[stops] = -(run_labels + 1)
    labels = np.cumsum(marks, dtype=np.int32).reshape(rows, width)[:, :cols]
    return np.ascontiguousarray(labels), count


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
                f"{field.value_near(lam):.3e} > eps={eps:.3e}; refine the grid "
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
    field.check_levels(lo, hi)
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
