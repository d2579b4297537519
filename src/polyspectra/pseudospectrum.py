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
at or below the levels asked about, and a level's contours only on the
values at both ends of the grid edges it crosses, so ``components``,
``distance`` and ``trace`` build a field for those levels alone
(``Levels``: single levels, or the band [0, eps_max] that holds every
level of the merge search and that ``distance`` reads its floor level
from).  Weyl's inequality, |s_min(P(lambda)) - s_min(P(c))| <= sum_j
||P_j|| |lambda^j - c^j|, bounds a node's value from a nearby decomposed
node c; such a field decomposes a lattice of every 4th node, then every
node whose enclosure from its nearest lattice node, widened by the
rounding margin ``WEYL_MARGIN_RTOL``, still meets a level, and last the
nodes nearest the eigenvalues and both ends of every edge a single level
crosses.  Before the enclosures pick their nodes, a band is cut at the
level where the eigenvalues' components meet on the field of enclosure
upper ends, which bounds the merge level from above.  Every other node
lies on the same side of every level as its value, so labels, counts,
the values the merge search bisects over and the contours of single
levels are the full field's, and a level outside the field's spans
raises.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import GridTooCoarseError, NotFoundWithinBudgetError, PreconditionError
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
# (n + m + 1) sum_j ||P_j|| rho^j / w, with rho = max |x| + max |y| + R over
# the window (R the lattice step in cell diagonals, so rho lies at or above
# every |lambda| + R) and w its smallest weight: it covers the Horner and
# SVD rounding of s_min at a node and at the node its enclosure comes from,
# and of the enclosure itself, each some tens of units in the last place of
# that scale.
WEYL_MARGIN_RTOL = 1e-13

# Step, in grid cells, of the lattice a levelled field decomposes whole
# before it encloses every other node from its nearest lattice node.
_LATTICE_STEP = 4

# Nodes, in whole rows, of each block in which a levelled field forms its
# enclosures and decomposes the nodes they leave open: at 401 x 401 a
# block's work arrays and batched call take less than a full field's, and
# a grid of at most this many nodes is one block, one batched call.
_BLOCK_NODES = 1 << 14

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
    window, whose nearest in-window nodes must hold exact values.

    A band [a, b], a < b, with two or more exact points in the window asks
    for the levels up to the one at which the components of two of those
    points' nodes first meet: the field may cut it to [a, B] for a level B
    at which they already meet, and its ``levels`` then hold the cut
    band."""

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
        """Raise unless lo <= hi and one span holds every level of [lo, hi]."""
        hi = lo if hi is None else hi
        if lo > hi:
            raise PreconditionError(f"levels [{lo:.6g}, {hi:.6g}] are out of order")
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
    s_min: np.ndarray | None = None,
) -> ScalarField:
    """Sample s_min / w on the grid.

    Each point is an independent evaluation; the batched SVD keeps the loop
    in LAPACK.  Without ``levels`` every node is decomposed and one field
    serves every eps; a caller that already holds the (nx, ny) s_min on
    the grid passes it as ``s_min``.  With
    ``levels`` only the nodes those levels depend on are decomposed
    (``_levelled_values``).
    """
    if levels is None:
        if s_min is None:
            s_min = singular_values_many(P, grid.points())[..., -1]
        values = s_min / weight_eval(w, np.hypot.outer(grid.xs(), grid.ys()))
        exact = None
    else:
        values, exact, levels = _levelled_values(P, w, grid, levels)
        exact.setflags(write=False)
    values.setflags(write=False)
    return ScalarField(grid=grid, values=values, levels=levels, exact=exact)


def _lattice(size: int, step: int) -> np.ndarray:
    """The nearest node of the lattice of every ``step``-th node, as its
    lattice index, of each of ``size`` nodes along an axis."""
    return np.minimum((np.arange(size) + step // 2) // step, (size - 1) // step)


def _meets(lo: np.ndarray, hi: np.ndarray, spans) -> np.ndarray:
    """Where [lo, hi] meets some span."""
    hit = np.zeros(lo.shape, dtype=bool)
    for a, b in spans:
        hit |= (lo <= b) & (hi >= a)
    return hit


def _narrowed(spans, upper: np.ndarray, nodes) -> tuple:
    """``spans`` with each band [a, b], a < b, cut at the first level in
    (a, b] at which two of the (i, j) ``nodes`` share a component of
    {upper <= level} (``_shared``, by ``merge_bracket``'s search); a band
    where they share none at b stays whole.  ``upper`` lies at or above the
    field's values, so its sublevel sets lie inside the field's, whose
    components around those nodes meet there too."""

    def met(eps: float) -> bool:
        return _shared(labels_at(upper <= eps, nodes))

    return tuple(
        (a, _merge_level(upper, a, b, met)[1]) if a < b and met(b) else (a, b) for a, b in spans
    )


def _levelled_values(P, w, grid, levels: Levels) -> tuple:
    """Field values, exact mask and answered ``Levels`` of a field that
    answers ``levels``.

    Weyl's inequality bounds s_min at a node lambda by s_min at a node c:
    |s_min(lambda) - s_min(c)| <= sum_j ||P_j|| |lambda^j - c^j|
    <= d q'(rho), where d = |lambda - c|, q(x) = sum_j ||P_j|| x^j and
    rho = |lambda| + R >= max(|lambda|, |c|) for R, the lattice step in
    cell diagonals.  The enclosure of the node's value is s_min(c) /
    w(|lambda|), for c its nearest node on the lattice of every
    ``_LATTICE_STEP``-th node along each axis, widened by d q'(rho) /
    w(|lambda|) and by the rounding margin, ``WEYL_MARGIN_RTOL * (n + deg
    P + 1)`` times q / w at the window's max |x| + max |y| + R and its
    smallest w.  One batched call decomposes the lattice.  A band of exact
    points (``Levels``) is then cut by ``_narrowed`` on the field of
    enclosure upper ends, and the returned ``Levels`` hold the cut band.
    Next, every node whose enclosure still meets a span is decomposed.
    Every other node stores the upper end of its enclosure, which lies on
    the same side of every level in the spans as the node's value.  A last
    call decomposes the nodes of ``levels.exact`` and both ends of every
    grid edge whose stored values lie on two sides of a single level (a
    span [eps, eps]): marching squares reads its crossing points and its
    saddle cells from those ends only, so the contours of such a level are
    the full field's.

    No complex grid is held: a decomposed node's point is formed from its
    axes' coordinates, as ``grid.points()`` forms it, and the enclosures
    are formed and the nodes they leave open decomposed a block of rows of
    about ``_BLOCK_NODES`` nodes at a time.  So the working set is the
    values, the exact mask and the lower ends, and then, in place of the
    lower ends, a mask of the open nodes and one block's batched call.
    """
    norms = P.coefficient_norms
    xs, ys = grid.xs(), grid.ys()
    step = _LATTICE_STEP
    reach = step * grid.cell_diagonal  # R, beyond every |lambda - c|
    # the rounding margin over w, as one bound for every node
    rho = max(abs(grid.x_min), abs(grid.x_max)) + max(abs(grid.y_min), abs(grid.y_max)) + reach
    # a numpy power overflows to inf, which makes the margin infinite and
    # decomposes every node; a zero norm's term is left out, not inf * 0
    with np.errstate(over="ignore"):
        q = sum(c * np.float64(rho) ** k for k, c in enumerate(norms) if c)
    # w(|lambda|) grows with |x| and |y| (w_j >= 0), so the window's smallest
    # w is at its node of least |x| and least |y|
    w_min = weight_eval(w, np.hypot(np.abs(xs).min(), np.abs(ys).min()))
    margin = WEYL_MARGIN_RTOL * (P.n + P.m + 1) * q / w_min

    def s_min(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return singular_values_many(P, xs[i] + 1j * ys[j])[..., -1]

    lattice = np.arange(0, grid.nx, step)[:, None], np.arange(0, grid.ny, step)
    s_lattice = s_min(*lattice)
    # each node's nearest lattice node, by lattice index along each axis
    near_i, near_j = _lattice(grid.nx, step), _lattice(grid.ny, step)

    def enclosure(rows: np.ndarray) -> tuple:
        """Ends of the enclosures of the nodes in ``rows``."""
        radius = np.hypot.outer(xs[rows], ys)
        weight = weight_eval(w, radius)
        # q'(|lambda| + R) / w(|lambda|), the bound's growth with |lambda - c|
        radius += reach
        slope = np.full(weight.shape, float(P.m * norms[-1]))
        for k in range(P.m - 1, 0, -1):
            slope *= radius
            slope += k * norms[k]
        del radius
        slope /= weight
        ni = near_i[rows]
        # s_min at the nearest lattice node over w
        lo = s_lattice[ni][:, near_j] / weight
        bound = np.add.outer((xs[rows] - xs[ni * step]) ** 2, (ys - ys[near_j * step]) ** 2)
        np.sqrt(bound, out=bound)
        bound *= slope
        bound += margin
        hi = lo + bound
        lo -= bound
        return lo, hi

    values = np.empty((grid.nx, grid.ny))
    exact = np.zeros(values.shape, dtype=bool)
    low = np.empty(values.shape)
    blocks = np.array_split(np.arange(grid.nx), -(-grid.nx * grid.ny // _BLOCK_NODES))
    for rows in blocks:
        low[rows], values[rows] = enclosure(rows)

    def settle(i: np.ndarray, j: np.ndarray, s: np.ndarray) -> None:
        """Store s_min / w at the nodes (i, j), whose s_min is ``s``."""
        values[i, j] = s / weight_eval(w, np.hypot(xs[i], ys[j]))
        exact[i, j] = True

    settle(*lattice, s_lattice)
    spans = levels.spans
    # a band asks for the level at which two of these nodes' components meet
    nodes = [grid.nearest_index(z) for z in levels.exact if grid.contains(z)]
    if len(nodes) >= 2 and any(a < b for a, b in spans):
        spans = _narrowed(spans, values, nodes)
    todo = _meets(low, values, spans) & ~exact
    del low
    for rows in blocks:
        i, j = np.nonzero(todo[rows])
        settle(rows[i], j, s_min(rows[i], j))
    del todo

    # the exact points' nodes, and both ends of every edge a single level
    # crosses; every node left holds an enclosure end on its value's side
    last = np.zeros(values.shape, dtype=bool)
    for node in nodes:
        last[node] = True
    for a, b in levels.spans:
        if a == b:
            side = values <= a
            across = side[1:] != side[:-1]
            last[1:] |= across
            last[:-1] |= across
            across = side[:, 1:] != side[:, :-1]
            last[:, 1:] |= across
            last[:, :-1] |= across
    i, j = np.nonzero(last & ~exact)
    settle(i, j, s_min(i, j))
    return values, exact, Levels(spans, levels.exact)


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
    starts, stops, run_labels, count = _labelled_runs(mask)
    marks = np.zeros(rows * (cols + 1), dtype=np.int32)
    marks[starts] = run_labels + 1
    marks[stops] = -(run_labels + 1)
    labels = np.cumsum(marks, dtype=np.int32).reshape(rows, cols + 1)[:, :cols]
    return np.ascontiguousarray(labels), count


def labels_at(mask: np.ndarray, nodes) -> list:
    """The labels ``label_mask(mask)[0]`` gives the (i, j) ``nodes``, read
    from the runs that hold them, without writing the labels of the other
    cells."""
    cols = mask.shape[1]
    starts, stops, run_labels, _ = _labelled_runs(mask)
    cells = np.array([i * (cols + 1) + j for i, j in nodes], dtype=np.intp)
    # the last run starting at or before each cell holds it if it stops
    # after it; a mask with no runs holds no cell
    run = np.searchsorted(starts, cells, side="right") - 1
    inside = run >= 0
    inside[inside] = cells[inside] < stops[run[inside]]
    labels = np.zeros(len(cells), dtype=np.intp)
    labels[inside] = run_labels[run[inside]] + 1
    return labels.tolist()


def _labelled_runs(mask: np.ndarray) -> tuple:
    """The runs of a 2-D boolean mask and their components: each run's
    first cell and the cell after its last, as positions p = i (cols + 1)
    + j, its component, numbered from 0 by first cell in raster order, and
    the count (``label_mask``)."""
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
    return starts, stops, run_labels, count


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
        count=count,
        labels=labels,
        eigen_assignment=assignment,
        bounded=bounded,
    )


def _shared(labels) -> bool:
    """Whether two of ``labels`` are equal and nonzero: two nodes in one
    component of the sublevel set."""
    inside = [k for k in labels if k]
    return len(set(inside)) < len(inside)


def merge_bracket(field: ScalarField, points, lo: float, hi: float) -> tuple:
    """(below, level, pair): the first level in (lo, hi] at which the
    components of the nodes nearest two of ``points`` meet, the level just
    below it (lo when there is none), and the closest pair (a, b, label)
    of ``points`` whose nodes share a component at that level (ties go to
    the lower label).

    The sublevel labels change only where a level crosses a field value,
    so ``level`` is the smallest field value in (lo, hi), or hi, at which
    two of the nodes share a nonzero label (``_shared``): the exact merge
    level of the sampled field, found by ``_merge_level``'s bisection with
    each level labeled once.  Raises GridTooCoarseError when lo >= hi or
    two nodes already share a component at lo, NotFoundWithinBudgetError
    when none do at hi, and PreconditionError for a point outside the
    window or a level outside the field's spans.
    """
    merged = "components already merged at the smallest grid-resolvable level; refine the grid"
    if lo >= hi:
        raise GridTooCoarseError(merged)
    field.check_levels(lo, hi)
    for z in points:
        if not field.grid.contains(z):
            raise PreconditionError(f"point {z:.6g} lies outside the window")
    nodes = [field.grid.nearest_index(z) for z in points]

    @functools.cache
    def labels(eps: float) -> list:
        return labels_at(field.values <= eps, nodes)

    def shared(eps: float) -> bool:
        return _shared(labels(eps))

    if shared(lo):
        raise GridTooCoarseError(merged)
    if not shared(hi):
        raise NotFoundWithinBudgetError(
            f"the {len(points)} distinct eigenvalues are still in separate components at "
            f"eps_max={hi:.4e}; no merge found within budget"
        )
    below, level = _merge_level(field.values, lo, hi, shared)
    # no two nodes share a label at below, so the closest pair sharing one
    # at level is the merging pair
    pair = min(
        ((a, b, la) for (a, la), (b, lb) in combinations(zip(points, labels(level)), 2)
         if la == lb != 0),
        key=lambda p: (abs(p[0] - p[1]), p[2]),
    )
    return below, level, pair


def _merge_level(v: np.ndarray, lo: float, hi: float, merged) -> tuple[float, float]:
    """First level in (lo, hi] at which the predicate ``merged(eps)``
    holds, and the value just below it (lo when there is none), by
    bisection over the sorted values of ``v`` in (lo, hi), followed by hi.
    ``merged`` must be monotone in eps, false at lo and true at hi; it is
    called once per level tested, never at lo or hi."""
    levels = np.append(np.unique(v[(v > lo) & (v < hi)]), hi)
    k = bisect.bisect_left(
        range(len(levels)), True, hi=len(levels) - 1, key=lambda k: merged(float(levels[k]))
    )
    return (float(levels[k - 1]) if k else float(lo)), float(levels[k])


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
