"""Marching-squares contours of a sampled field as directed graphs, and the
boundary curves of the pseudospectra polished from them.

``_contour`` turns one level of an (nx, ny) sample array into a graph.
numpy classifies every cell, resolves the ambiguous saddle cells by their
center value and interpolates every crossed edge; each crossing is a node,
keyed by its grid edge, so neighbouring cells share it bit for bit.  The
segment table runs every segment with the inside corners of its cell on
its right, so each segment links its end to its start: a node has at most
one successor and one predecessor, and the sublevel set lies on the left
of every link.  One walker, ``_chains``, follows the links in Python, once
per node, and ``marching_squares`` returns its chains as polylines.

The boundary of the eps-pseudospectrum is the level curve
F_eps(lambda) = s_min(lambda) - eps * w(|lambda|) = 0.  ``boundary_curves``
joins the graphs of every level of the s_min/w field into one successor
list and moves every node onto F_eps = 0 by Newton steps
z <- z - F grad F / |grad F|^2, batched: each round evaluates the nodes not
yet on the curve with one ``point_stack`` call.  Its points are therefore
about one grid cell apart.  A node is frozen where the closed-form
gradient cannot be trusted (a multiple s_min, such as a corner where two
singular-value surfaces cross), or where its step is not finite or longer
than ``_STEP_GUARD`` cell diagonals; a frozen node is never emitted, and
its links are cut.  So is a jump, a link whose midpoint lies outside the
set by more than ``_JUMP_SAG`` of its length: its ends were polished onto
the two sides of a corner, where s_min is multiple.  Where the grid joined
two parts of the boundary across a neck narrower than a cell, the contour
jumps the neck twice; the exterior joins the two jumps, and they are
swapped for the arcs that face each other across the neck, so each part
gets its own curve.  Each piece is a ``BoundaryCurve`` whose points meet
``on_curve_tolerance``, with the sublevel set on its left as the links run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .matpoly import MatrixPolynomial, WeightPolynomial, max_norm
from .pseudospectrum import GridSpec, ScalarField
from .svdcore import F_eps, point_stack

# Newton rounds of the boundary polish; a vertex still off the curve after
# them is frozen.
_MAX_CORRECTOR_ITERS = 20
# Longest Newton step of a polished vertex, in cell diagonals; a longer one
# freezes the vertex.
_STEP_GUARD = 1.0
# Distance in cell diagonals within which a curve point repeats the one
# after it and is dropped.
_REPEAT = 1e-9
# Share of its length by which the midpoint of a segment between two
# polished vertices may lie outside the set before the segment counts as a
# jump.  An arc of curvature k sags by length^2 * k / 8 below its chord, so
# a jump would be a curve turning by more than a radian within one segment.
_JUMP_SAG = 0.125

# Edges of cell (i, j): bottom and top are the x-edges at ys[j] and ys[j+1],
# left and right the y-edges at xs[i] and xs[i+1].
_BOTTOM, _TOP, _LEFT, _RIGHT = range(4)

# Segments of each cell case, in output order, each running with the inside
# corners of the cell on its right.  The case index packs the "inside" bits
# of the corners BL=1, BR=2, TR=4, TL=8.  The ambiguous cases 5 and 10 are
# listed for a cell center outside the level; 16 and 17 are cases 5 and 10
# with the center inside.
_SEGMENT_TABLE = {
    1: ((_LEFT, _BOTTOM),),
    2: ((_BOTTOM, _RIGHT),),
    3: ((_LEFT, _RIGHT),),
    4: ((_RIGHT, _TOP),),
    5: ((_LEFT, _BOTTOM), (_RIGHT, _TOP)),
    6: ((_BOTTOM, _TOP),),
    7: ((_LEFT, _TOP),),
    8: ((_TOP, _LEFT),),
    9: ((_TOP, _BOTTOM),),
    10: ((_BOTTOM, _RIGHT), (_TOP, _LEFT)),
    11: ((_TOP, _RIGHT),),
    12: ((_RIGHT, _LEFT),),
    13: ((_RIGHT, _BOTTOM),),
    14: ((_BOTTOM, _LEFT),),
    16: ((_LEFT, _TOP), (_RIGHT, _BOTTOM)),
    17: ((_BOTTOM, _LEFT), (_TOP, _RIGHT)),
}
_NPAIRS = np.zeros(18, dtype=np.intp)
_PAIRS = np.zeros((18, 2, 2), dtype=np.intp)
for _case, _pairs in _SEGMENT_TABLE.items():
    _NPAIRS[_case] = len(_pairs)
    _PAIRS[_case, : len(_pairs)] = _pairs


class Termination(str, enum.Enum):
    closed = "closed"
    left_window = "left_window"
    gradient_invalid = "gradient_invalid"


@dataclass(frozen=True)
class BoundaryCurve:
    """Ordered points of one piece of the level curve F_eps = 0, with the
    sublevel set on the left.

    ``termination`` says how the piece ends: ``closed`` (its last point is
    its first, the smallest of its points by x, then y), ``left_window``
    (both ends on the window edge) or ``gradient_invalid`` (an end next to
    a vertex the polish froze, or to a jump across a corner where s_min is
    multiple).
    """

    points: np.ndarray
    termination: Termination

    @property
    def closed(self) -> bool:
        return self.termination is Termination.closed


def on_curve_tolerance(P: MatrixPolynomial) -> float:
    """|F_eps| at or below which a point counts as on the level curve."""
    return 1e-9 * (1.0 + max_norm(P))


def _cell_cases(values: np.ndarray, level: float) -> np.ndarray:
    """Table index of every cell, shape (nx-1, ny-1)."""
    inside = (values <= level).view(np.uint8)
    case = inside[:-1, :-1] | inside[1:, :-1] << 1 | inside[1:, 1:] << 2 | inside[:-1, 1:] << 3
    i, j = np.nonzero((case == 5) | (case == 10))
    center = 0.25 * (values[i, j] + values[i + 1, j] + values[i + 1, j + 1] + values[i, j + 1])
    case[i, j] = np.where(center <= level, 16 + (case[i, j] == 10), case[i, j])
    return case


def _segments(case: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """Segment endpoints as edge ids, shape (segments, 2), in the order
    cells row-major in (i, j), then the table's pair order.

    x-edge (i, j)-(i+1, j) has id ``i*ny + j``; y-edge (i, j)-(i, j+1) has
    id ``(nx-1)*ny + i*(ny-1) + j``, so ids sort like the keys (kind, i, j).
    """
    i, j = np.nonzero(_NPAIRS[case])
    cell_case = case[i, j]
    per_cell = _NPAIRS[cell_case]
    cell = np.repeat(np.arange(len(cell_case)), per_cell)
    slot = np.arange(len(cell)) - np.repeat(np.cumsum(per_cell) - per_cell, per_cell)
    names = _PAIRS[cell_case[cell], slot]
    i, j = i[cell, None], j[cell, None]
    x_edge = i * ny + j + (names == _TOP)
    y_edge = (nx - 1) * ny + (i + (names == _RIGHT)) * (ny - 1) + j
    return np.where(names < _LEFT, x_edge, y_edge)


def _edge_points(grid: GridSpec, values: np.ndarray, level: float, edges: np.ndarray):
    """Crossing point on each edge id in ``edges``, shape (len(edges), 2)."""
    nx_edges = (grid.nx - 1) * grid.ny
    on_x = edges < nx_edges
    y_id = edges - nx_edges
    i0 = np.where(on_x, edges // grid.ny, y_id // (grid.ny - 1))
    j0 = np.where(on_x, edges % grid.ny, y_id % (grid.ny - 1))
    i1, j1 = i0 + on_x, j0 + ~on_x
    xs, ys = grid.xs(), grid.ys()
    px, py, qx, qy = xs[i0], ys[j0], xs[i1], ys[j1]
    fp, fq = values[i0, j0], values[i1, j1]
    same = fq == fp
    t = np.where(same, 0.5, (level - fp) / np.where(same, 1.0, fq - fp))
    return np.column_stack([px + t * (qx - px), py + t * (qy - py)])


def _contour(grid: GridSpec, values: np.ndarray, level: float) -> tuple:
    """The ``level`` contour of ``values`` as a directed graph: the crossing
    point (k, 2) of each crossed edge, in edge order, and ``nxt``, each
    crossing's successor along the contour with the sublevel set on its
    left, or -1 where the contour leaves the window."""
    segments = _segments(_cell_cases(values, level), grid.nx, grid.ny)
    edges, ends = np.unique(segments, return_inverse=True)
    ends = ends.reshape(segments.shape)
    nxt = np.full(len(edges), -1)
    nxt[ends[:, 1]] = ends[:, 0]  # a segment runs with the set on its right
    return _edge_points(grid, values, level, edges), nxt


def _chains(nxt: np.ndarray, skip: np.ndarray):
    """(nodes, closed) of each chain of the successor list ``nxt`` (-1 for
    none), in which no node has two predecessors, through the nodes not in
    ``skip``: first each open chain, from a node no link enters, in node
    order, then each loop, from its lowest node.  A chain also ends before
    a skipped node."""
    succ, seen = nxt.tolist(), skip.tolist()
    for v in [*np.setdiff1d(np.arange(len(succ)), nxt).tolist(), *range(len(succ))]:
        chain, u = [], v
        while u >= 0 and not seen[u]:
            seen[u] = True
            chain.append(u)
            u = succ[u]
        if chain:
            yield chain, u == v


def marching_squares(grid: GridSpec, values: np.ndarray, level: float):
    """Level curves of ``values`` as a list of (k, 2) coordinate arrays, the
    chains of ``_contour``: each runs with the sublevel set on its left,
    the open ones first, from the window edge in edge order, then the
    closed ones, from their crossing on the lowest edge, which they repeat
    at their end."""
    points, nxt = _contour(grid, values, level)
    return [
        points[chain + [chain[0]] if closed else chain]
        for chain, closed in _chains(nxt, np.zeros(len(nxt), dtype=bool))
    ]


@dataclass(frozen=True)
class BoundaryTrace:
    """The polished boundary pieces of each level, in the order of the
    levels, and the polish's work: its Newton ``rounds``, the ``points``
    they evaluate, and the ``frozen`` contour vertices it dropped."""

    curves: list
    rounds: int
    points: int
    frozen: int


def boundary_curves(
    P: MatrixPolynomial, w: WeightPolynomial, field: ScalarField, levels
) -> BoundaryTrace:
    """The boundary of each eps-pseudospectrum of ``levels`` inside the
    field's window, as polished pieces of its contours.

    The ``_contour`` graphs of every level are joined into one successor
    list, and every node is polished onto F_eps = 0 together (see the
    module docstring), so every emitted point has |F_eps| <=
    ``on_curve_tolerance(P)`` and neighbouring points lie about one cell
    apart.  ``_curves`` cuts the links at frozen nodes and jumps and walks
    the pieces, each with the sublevel set on its left.  The field is a
    full one or one built for each of ``levels`` as a single level, which
    is exact at both ends of every edge those levels cross; a field built
    for other levels, or for a band that holds one of them, raises
    ``PreconditionError``.
    """
    for level in levels:
        field.check_levels(level)
        # a band's field is exact only where enclosures meet the band, not
        # at the outer end of every edge that a level inside it crosses
        if field.levels is not None and not any(a == level == b for a, b in field.levels.spans):
            raise PreconditionError(
                f"level {level:.6g} lies inside a band of the field; its contours need "
                "a field built for it as a single level"
            )
    graphs = [_contour(field.grid, field.values, level) for level in levels]
    sizes = [len(nxt) for _, nxt in graphs]
    xy = np.concatenate([np.zeros((0, 2)), *(points for points, _ in graphs)])
    nxt = np.concatenate([
        np.zeros(0, dtype=np.intp),
        *(np.where(g >= 0, g + base, -1) for (_, g), base in zip(graphs, np.cumsum([0, *sizes]))),
    ])
    level_of = np.repeat(np.arange(len(sizes)), sizes)
    eps = np.asarray(levels, dtype=float)[level_of]
    h = field.grid.cell_diagonal
    xy, on, grad, rounds, points = _polish(P, w, xy, eps, on_curve_tolerance(P), _STEP_GUARD * h)
    z = xy[:, 0] + 1j * xy[:, 1]
    curves, fill_rounds, fill_points = _curves(
        P, w, nxt, level_of, len(sizes), z, eps, on, grad, h
    )
    frozen = int(np.count_nonzero(~on))
    return BoundaryTrace(curves, rounds + fill_rounds, points + fill_points, frozen)


def _polish(P, w, xy: np.ndarray, eps: np.ndarray, tol: float, guard: float) -> tuple:
    """Batched Newton on F_eps, one level per vertex, from the vertices
    ``xy`` (k, 2): the moved vertices, which of them are on the curve, the
    gradients (k, 2) of F_eps there (NaN where they cannot be trusted), the
    rounds and the points evaluated.  A round evaluates its vertices with
    one ``point_stack``, which holds O(n) floats per point and decomposes
    them a chunk at a time.  All arithmetic is real and elementwise, so a
    vertex moves as it would alone.
    """
    xy = xy.copy()
    on = np.zeros(len(xy), dtype=bool)
    live = np.ones(len(xy), dtype=bool)
    grad = np.full((len(xy), 2), np.nan)
    rounds = points = 0
    for _ in range(_MAX_CORRECTOR_ITERS):
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        stack = point_stack(P, w, xy[idx, 0] + 1j * xy[idx, 1])
        f = stack.F(eps[idx])
        grad[idx] = stack.grad_F(eps[idx])
        rounds += 1
        points += idx.size
        g = grad[idx]
        norm = np.hypot(g[:, 0], g[:, 1])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            move = -(f / (norm * norm))[:, None] * g
        done = np.abs(f) <= tol
        step = ~done & (np.hypot(move[:, 0], move[:, 1]) <= guard)  # False for NaN
        on[idx[done]] = True
        xy[idx[step]] += move[step]
        live[idx[~step]] = False
    return xy, on, grad, rounds, points


def _curves(P, w, nxt, level_of, levels: int, z, eps, on, grad, h: float) -> tuple:
    """The BoundaryCurves of each level from the polished nodes ``z`` of
    the successor list ``nxt`` (level index ``level_of``, levels ``eps``,
    on the curve where ``on``, gradients ``grad``) of a grid of cell
    diagonal ``h``, and the rounds and points of the polish of the neck
    fills.

    A link between two nodes on the curve is a jump when its midpoint lies
    outside the set (``_jumps``): it cuts a corner, where s_min is
    multiple, or crosses a neck narrower than a cell, which the grid
    joined.  Two jumps of one chain of ``nxt`` that the exterior joins
    (``_neck``) are swapped for the chords from each jump's start to the
    other's end, filled with points a cell apart polished onto the curve,
    when every one of them gets there; the chain splits in two, one for
    each side of the neck.  Every other jump cuts its link, as a frozen
    node does.  ``_chains`` walks the pieces; a piece runs from the window
    edge to the window edge (``left_window``) when it starts at a node no
    link of ``nxt`` enters and ends at one without a successor there.  Each
    piece loses every point within ``_REPEAT`` cell diagonals of the one
    after it, cyclically on a loop (the crossings of the edges that meet at
    a grid node polish to one point where the curve passes through the
    node), and is dropped when no segment remains.  A closed piece starts
    and ends at its smallest point, by x and then y.
    """
    tol = on_curve_tolerance(P)
    starts, stops = np.isin(np.arange(len(z)), nxt, invert=True), nxt < 0
    chain_of = np.zeros(len(z), dtype=np.intp)
    for c, (chain, _) in enumerate(_chains(nxt, np.zeros(len(z), dtype=bool))):
        chain_of[chain] = c
    a = np.flatnonzero((nxt >= 0) & on)
    a = a[on[nxt[a]]]
    free = a[_jumps(P, w, z[a], z[nxt[a]], eps[a], grad[a], grad[nxt[a]], tol)].tolist()
    pairs, cut = [], []
    while free:
        j = free.pop(0)
        mid = 0.5 * (z[j] + z[nxt[j]])
        mates = [i for i in free if chain_of[i] == chain_of[j]]
        for i in sorted(mates, key=lambda i: abs(0.5 * (z[i] + z[nxt[i]]) - mid)):
            if _neck(P, w, eps[j], mid, 0.5 * (z[i] + z[nxt[i]]), h, tol):
                pairs.append((j, i))
                free.remove(i)
                break
        else:
            cut.append(j)

    chords = [(j, nxt[i]) for j, i in pairs] + [(i, nxt[j]) for j, i in pairs]
    fill = [_chord(z[u], z[v], h) for u, v in chords]
    sizes = [len(f) for f in fill]
    level = np.repeat([eps[u] for u, _ in chords], sizes)
    fill = np.concatenate([np.zeros(0, dtype=complex), *fill])
    xy, reached, _, rounds, points = _polish(
        P, w, np.column_stack([fill.real, fill.imag]), level, tol, _STEP_GUARD * h
    )
    ids = np.split(np.arange(len(z), len(z) + len(fill)), np.cumsum(sizes, dtype=np.intp)[:-1])
    z = np.append(z, xy[:, 0] + 1j * xy[:, 1])
    on = np.append(on, reached)
    nxt = np.append(nxt, np.full(len(fill), -1))
    for n, (j, i) in enumerate(pairs):
        both = (n, n + len(pairs))
        if not all(on[ids[c]].all() for c in both):
            cut += [j, i]
            continue
        for c in both:
            chain = [chords[c][0], *ids[c].tolist(), chords[c][1]]
            nxt[chain[:-1]] = chain[1:]
    nxt[cut] = -1  # the jumps left cut their links, as frozen nodes do
    nxt[~on] = -1

    # a fill node ends no piece of two points or more, and a loop's lowest
    # node is not a fill node, so ``starts``, ``stops`` and ``level_of``
    # are read at grid nodes only
    curves = [[] for _ in range(levels)]
    for chain, closed in _chains(nxt, ~on):
        piece = np.array(chain)
        keep = np.abs(z[np.roll(piece, -1)] - z[piece]) > _REPEAT * h
        keep[-1] |= not closed  # an open piece keeps its last point
        piece = piece[keep]
        if len(piece) < 2:
            continue
        if closed:
            piece = np.roll(piece, -np.lexsort((z[piece].imag, z[piece].real))[0])
            piece, termination = np.append(piece, piece[0]), Termination.closed
        elif starts[chain[0]] and stops[chain[-1]]:
            termination = Termination.left_window
        else:
            termination = Termination.gradient_invalid
        curves[level_of[chain[0]]].append(BoundaryCurve(z[piece], termination))
    return curves, rounds, points


def _jumps(P, w, za, zb, eps, ga, gb, tol: float) -> np.ndarray:
    """Which segments from ``za`` to ``zb``, points of the level-``eps``
    curves with gradients ``ga`` and ``gb``, are jumps: F_eps at the
    midpoint exceeds ``tol`` and ``_JUMP_SAG`` times the segment's length
    times the smaller gradient norm, so the midpoint lies farther outside
    the set than an arc of the curve between the two points sags."""
    if not len(za):
        return np.zeros(0, dtype=bool)
    f = F_eps(P, w, eps, 0.5 * (za + zb))
    slope = np.fmin(np.hypot(ga[:, 0], ga[:, 1]), np.hypot(gb[:, 0], gb[:, 1]))
    return f > np.fmax(tol, _JUMP_SAG * np.abs(zb - za) * slope)


def _neck(P, w, eps: float, m1: complex, m2: complex, h: float, tol: float) -> bool:
    """Whether the exterior of the eps-pseudospectrum joins the points
    ``m1`` and ``m2``: F_eps > ``tol`` at points at most ``h`` apart on the
    segment between them."""
    count = int(np.ceil(abs(m2 - m1) / h)) + 1
    return bool((F_eps(P, w, eps, np.linspace(m1, m2, count)) > tol).all())


def _chord(za: complex, zb: complex, h: float) -> np.ndarray:
    """Points strictly between ``za`` and ``zb``, evenly spaced and at most
    ``h`` apart."""
    count = int(np.ceil(abs(zb - za) / h)) - 1
    return za + (zb - za) * np.arange(1, count + 1) / (count + 1)


def nearest_curve(curves, z: complex) -> tuple:
    """Index of the curve of ``curves`` that passes nearest the point ``z``,
    and its distance from ``z``; (-1, inf) when there is no curve."""
    distances = [_distance(c.points, z) for c in curves]
    if not distances:
        return -1, np.inf
    k = int(np.argmin(distances))
    return k, distances[k]


def _distance(points: np.ndarray, z: complex) -> float:
    """Distance from ``z`` to the polyline through ``points``."""
    a, d = points[:-1], np.diff(points)
    length2 = np.abs(d) ** 2
    t = np.clip(np.real((z - a) * np.conj(d)) / np.where(length2 > 0, length2, 1.0), 0.0, 1.0)
    return float(np.min(np.abs(a + t * d - z)))
