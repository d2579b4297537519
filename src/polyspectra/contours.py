"""Marching-squares extraction of level curves from a sampled field.

Produces polylines (chains of linearly interpolated edge crossings) for a
given level of an (nx, ny) sample array.  numpy classifies every cell,
resolves the ambiguous saddle cells by their center value and interpolates
every crossed edge; only the chaining of segments into polylines runs in
Python, once per segment.  Endpoints are keyed by grid edge, so segments
from neighboring cells share exact coordinates and chain into polylines
deterministically.
"""

from __future__ import annotations

import numpy as np

from .pseudospectrum import GridSpec

# Edges of cell (i, j): bottom and top are the x-edges at ys[j] and ys[j+1],
# left and right the y-edges at xs[i] and xs[i+1].
_BOTTOM, _TOP, _LEFT, _RIGHT = range(4)

# Segments of each cell case, in output order.  The case index packs the
# "inside" bits of the corners BL=1, BR=2, TR=4, TL=8.  The ambiguous cases
# 5 and 10 are listed for a cell center outside the level; 16 and 17 are
# cases 5 and 10 with the center inside.
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
    16: ((_LEFT, _TOP), (_BOTTOM, _RIGHT)),
    17: ((_BOTTOM, _LEFT), (_TOP, _RIGHT)),
}
_NPAIRS = np.zeros(18, dtype=np.intp)
_PAIRS = np.zeros((18, 2, 2), dtype=np.intp)
for _case, _pairs in _SEGMENT_TABLE.items():
    _NPAIRS[_case] = len(_pairs)
    _PAIRS[_case, : len(_pairs)] = _pairs


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


def marching_squares(grid: GridSpec, values: np.ndarray, level: float):
    """Level curves of ``values`` as a list of (k, 2) coordinate arrays."""
    segments = _segments(_cell_cases(values, level), grid.nx, grid.ny)
    if not len(segments):
        return []
    edges, ends = np.unique(segments, return_inverse=True)
    points = _edge_points(grid, values, level, edges)
    ends = ends.reshape(segments.shape).tolist()

    # chain segments into polylines via shared edge endpoints; ``ends`` index
    # ``edges``, which is sorted, so edge order is index order
    adjacency: list = [[] for _ in range(len(edges))]
    for idx, (ea, eb) in enumerate(ends):
        adjacency[ea].append((idx, eb))
        adjacency[eb].append((idx, ea))

    used = [False] * len(ends)
    polylines = []

    def walk(start_edge):
        chain = [start_edge]
        current = start_edge
        while True:
            nxt = None
            for idx, other in adjacency[current]:
                if not used[idx]:
                    used[idx] = True
                    nxt = other
                    break
            if nxt is None:
                break
            chain.append(nxt)
            current = nxt
        return points[chain]

    # open ends first, in edge order; then closed loops in segment order
    for e, nbrs in enumerate(adjacency):
        if len(nbrs) == 1 and not used[nbrs[0][0]]:
            polylines.append(walk(e))
    for ea, _ in ends:
        if any(not used[idx] for idx, _ in adjacency[ea]):
            polylines.append(walk(ea))

    return polylines
