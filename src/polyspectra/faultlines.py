"""Fault points: where the two lowest distinct singular-value surfaces meet.

Surfaces that coincide identically (repeated structure in the polynomial)
are first collapsed by probing the window for them; the fault set is then
the zero set of the gap between the two lowest surviving surfaces.  The gap
is nonnegative and typically conic at its zeros, but the crossing equations
are smooth: the right singular vectors W = [v_{c2}, v_{c1}] span a subspace
that varies analytically while the pair stays apart from the other surfaces
(Kato), and the surfaces meet where the Hermitian 2 x 2 matrix W* P* P W has
a double eigenvalue.  ``crossing_system`` forms those equations' Gauss-Newton
step; ``crossing_points`` refines every candidate by batched steps, one
stacked SVD with vectors per step, and ``find_saddle`` walks along the
crossing with them.  Fault detection never involves the weight polynomial:
the operation signatures admit no weight input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .matpoly import MatrixPolynomial
from .pseudospectrum import _BLOCK_NODES, GridSpec
from .svdcore import (
    singular_values_grid,
    singular_values_many,
    surface_gap,
    vector_derivatives,
)

# Probe agreement threshold for "identical surfaces".  Agreement at every
# generic probe is strong (not certified) evidence of global identity,
# since distinct surfaces can only coincide on sets without interior.
IDENTITY_RTOL = 1e-10

REFINED_GAP_RTOL = 1e-8

# Probes per window for the surface identity test, and the seed that draws them.
PROBE_COUNT = 24
PROBE_SEED = 20240

# Gauss-Newton steps per candidate cell; a start still failing the fault
# test after them is dropped.  The fixtures' starts need at most 3.
CROSSING_MAX_STEPS = 8

# A Gauss-Newton step leaves out the directions whose singular value of the
# crossing Jacobian is at most this share of its largest: a fault curve
# gives a rank-one Jacobian, so the step moves a start to its foot point on
# the curve.  The Gram matrix resolves ratios down to about 1e-8.
CROSSING_RANK_RTOL = 1e-6


@dataclass(frozen=True)
class SurfaceIndexMap:
    """Canonical indices of the distinct singular-value surfaces.

    ``representative[j-1]`` is the 1-based canonical index for surface j;
    surfaces sharing a representative agreed at every probe.  ``c1`` is the
    largest canonical index (the lowest distinct surface) and ``c2`` the
    second largest; ``c2`` is None when fewer than two distinct surfaces
    exist.
    """

    representative: tuple
    c1: int
    c2: int | None

    @property
    def distinct_count(self) -> int:
        return len(set(self.representative))


@dataclass(frozen=True)
class FaultReport:
    """Grid cells flagged by the scan, their refined fault points, and what
    the refinement of the cells did."""

    cells: tuple
    refined_points: np.ndarray
    refined_gaps: np.ndarray
    empty: bool
    steps: int = 0  # batched Gauss-Newton steps taken
    dropped: int = 0  # starts failing the fault test within the step budget
    left_window: int = 0  # starts whose step left the window


def build_surface_map(P: MatrixPolynomial, window: GridSpec) -> SurfaceIndexMap:
    """Group surface indices whose singular values agree at PROBE_COUNT
    probes drawn uniformly from the window with PROBE_SEED.

    Identical surfaces occupy contiguous positions in the descending order,
    so only adjacent pairs need comparing.  Each group is represented by its
    largest index.
    """
    rng = np.random.default_rng(PROBE_SEED)
    x = rng.uniform(window.x_min, window.x_max, PROBE_COUNT)
    y = rng.uniform(window.y_min, window.y_max, PROBE_COUNT)
    svals = singular_values_many(P, x + 1j * y)  # (PROBE_COUNT, n)
    n = P.n
    scale = 1.0 + svals[:, :1]
    same_as_next = np.all(np.abs(np.diff(svals, axis=1)) <= IDENTITY_RTOL * scale, axis=0)
    # 1-based largest index of each group: every index that differs from
    # the next one, and n
    ends = np.append(np.flatnonzero(~same_as_next) + 1, n)
    rep = ends[np.searchsorted(ends, np.arange(1, n + 1))]
    c2 = int(ends[-2]) if len(ends) > 1 else None
    return SurfaceIndexMap(representative=tuple(rep.tolist()), c1=n, c2=c2)


def collapsed_gap(P: MatrixPolynomial, lam: complex, smap: SurfaceIndexMap) -> float:
    """s_{c2}(lambda) - s_{c1}(lambda) >= 0, the collapsed surface gap."""
    if smap.c2 is None:
        raise PreconditionError("fewer than two distinct surfaces; gap undefined")
    return float(surface_gap(singular_values_many(P, lam), smap.c1, smap.c2))


def _fault_rows(svals, smap: SurfaceIndexMap):
    """Row-wise fault test on descending singular values: the collapsed gap
    is at most REFINED_GAP_RTOL * (1 + s_1)."""
    gap = surface_gap(svals, smap.c1, smap.c2)
    return gap <= REFINED_GAP_RTOL * (1.0 + svals[..., 0])


def is_fault_point(P: MatrixPolynomial, lam: complex, smap: SurfaceIndexMap) -> bool:
    """True iff the collapsed gap at lambda is at most
    REFINED_GAP_RTOL * (1 + s_1(lambda)).

    With fewer than two distinct surfaces the fault set is vacuously empty
    and every point answers False.
    """
    if smap.c2 is None:
        return False
    return bool(_fault_rows(singular_values_many(P, lam), smap))


def _complex_points(xy: np.ndarray) -> np.ndarray:
    """(m, 2) coordinates as m complex points; a view keeps the sign of a
    zero part, which ``x + 1j * y`` would not."""
    return np.ascontiguousarray(xy, dtype=float).view(complex)[:, 0]


def crossing_system(P: MatrixPolynomial, smap: SurfaceIndexMap, lams) -> tuple:
    """The Gauss-Newton system of the crossing of surfaces c2 and c1 at each
    point: ``(s, grads, gram, tangent, step)``.

    With W = [v_{c2}, v_{c1}] at the point, M = W* P* P W is
    diag(s_{c2}^2, s_{c1}^2) there, so the residual
    r = (M_11 - M_22, 2 Re M_12, 2 Im M_12), whose norm is the gap of M's
    eigenvalues, is (s_{c2}^2 - s_{c1}^2, 0, 0).  G = W* P* P' W has entries
    G_ab = s_a u_a* P' v_b, and d/dx M = G + G*, d/dy M = i (G - G*) give
    the 3 x 2 Jacobian J of r.  r and J are halved and divided by s_1, which
    keeps the step and the squares in range.  ``s`` (k, n) holds LAPACK's
    singular values, ``grads`` (k, 2, 2) the (Re, -Im) parts of G_aa / s_a
    and G_bb / s_b, the gradients of s_{c2} and s_{c1} where simple, and
    ``gram`` the entries (xx, xy, yy) of J^T J.  J has rank 2 where its
    smaller singular value exceeds ``CROSSING_RANK_RTOL`` times the larger;
    ``tangent`` is 0 there, and elsewhere the unit eigenvector of J^T J's
    smaller eigenvalue as a complex number, the crossing's direction.
    ``step`` (dx, dy) solves J step = -r in the least-squares sense without
    J's directions below that share: by the inverse of J^T J at rank 2, by
    its dominant spectral projector over the larger eigenvalue at rank 1,
    and no step at rank 0.
    """
    a, b = smap.c2 - 1, smap.c1 - 1
    s, c = vector_derivatives(P, lams, (a, b))
    qa, qb = s[:, a] / s[:, 0], s[:, b] / s[:, 0]  # s_1 > 0 off the fault set
    (xaa, yaa), (xab, yab), (xba, yba), (xbb, ybb) = c.reshape(-1, 4, 2).transpose(1, 2, 0)
    # the rows of J: the residual's three parts, (d/dx, d/dy) each
    (j0x, j0y), (j1x, j1y), (j2x, j2y) = (
        (qa * xaa - qb * xbb, qa * yaa - qb * ybb),
        (qa * xab + qb * xba, qa * yab + qb * yba),
        (qb * yba - qa * yab, qa * xab - qb * xba),
    )
    r = 0.5 * (qa * s[:, a] - qb * s[:, b])
    gx, gy = r * j0x, r * j0y  # J^T r
    xx = j0x * j0x + j1x * j1x + j2x * j2x
    xy = j0x * j0y + j1x * j1y + j2x * j2y
    yy = j0y * j0y + j1y * j1y + j2y * j2y
    half, skew = 0.5 * (xx + yy), 0.5 * (xx - yy)
    rad = np.sqrt(skew * skew + xy * xy)
    big, small = half + rad, half - rad  # the eigenvalues of J^T J
    # step = -A g / den: the adjugate over the determinant at rank 2, and
    # (J^T J - small I) / (big - small) over big at rank 1
    full = small > CROSSING_RANK_RTOL**2 * big
    axx, ayy, axy = np.where(full, (yy, xx, -xy), (xx - small, yy - small, xy))
    den = np.where(full, big * small, np.where(big > 0, 2.0 * rad * big, np.inf))
    step = -(axx * gx + axy * gy) / den, -(axy * gx + ayy * gy) / den
    tangent = np.where(full, 0j, 1j * np.exp(0.5j * np.arctan2(xy, skew)))
    return s, c[:, (0, 1), (0, 1)], (xx, xy, yy), tangent, step


def crossing_points(P: MatrixPolynomial, smap: SurfaceIndexMap, starts, window: GridSpec) -> tuple:
    """Each start refined onto the crossing of surfaces c2 and c1.

    Every live start is tested with the fault rule (``_fault_rows``, the
    rule of ``is_fault_point``); while it fails and ``CROSSING_MAX_STEPS``
    lasts, it takes one Gauss-Newton step (``crossing_system``).  A start
    whose collapsed gap did not fall in its last step is dropped: it has
    reached a least-squares point of the crossing equations off the fault
    set, an avoided crossing.  All live starts share one stacked SVD with
    vectors and one singular-value call per step, and all arithmetic is
    elementwise, so a start gets the same bits alone as in any stack.
    Returns ``(points, gaps, steps, left_window)``: each start's refined
    point and collapsed gap, NaN where it was dropped or a step took it out
    of the window (``left_window`` counts those), and the number of steps
    taken.
    """
    lams = np.asarray(starts, dtype=complex).reshape(-1)
    points = np.full(lams.size, np.nan, dtype=complex)
    gaps = np.full(lams.size, np.nan)
    live = np.arange(lams.size)
    last = np.full(lams.size, np.inf)  # each live start's gap before its last step
    steps = left = 0
    while live.size:
        s = singular_values_many(P, lams)
        ok = _fault_rows(s, smap)
        gap = surface_gap(s, smap.c1, smap.c2)
        points[live[ok]], gaps[live[ok]] = lams[ok], gap[ok]
        going = ~ok & (gap < last)
        live, lams, last = live[going], lams[going], gap[going]
        if not live.size or steps == CROSSING_MAX_STEPS:
            break
        dx, dy = crossing_system(P, smap, lams)[-1]
        x, y = lams.real + dx, lams.imag + dy
        # a non-finite step fails every comparison
        inside = (window.x_min <= x) & (x <= window.x_max)
        inside &= (window.y_min <= y) & (y <= window.y_max)
        steps += 1
        left += int(np.count_nonzero(~inside))
        live, last = live[inside], last[inside]
        lams = _complex_points(np.column_stack((x, y))[inside])
    return points, gaps, steps, left


def _filter3(op, a: np.ndarray, rows: slice | None = None) -> np.ndarray:
    """``op`` (np.maximum or np.minimum) over the 3 x 3 block of each node
    in ``rows`` (all rows by default), the array extended by its edge
    values: the one-row halo's indices are clipped to the array, as
    ``np.pad(mode="edge")`` extends it."""
    rows = slice(0, len(a)) if rows is None else rows
    a = a[np.clip(np.arange(rows.start - 1, rows.stop + 1), 0, len(a) - 1)]
    a = op(op(a[:-2], a[1:-1]), a[2:])
    a = np.pad(a, ((0, 0), (1, 1)), mode="edge")
    return op(op(a[:, :-2], a[:, 1:-1]), a[:, 2:])


def _blocks(size: int, width: int) -> list:
    """Slices of ``size`` lines of ``width`` nodes each, about
    ``_BLOCK_NODES`` nodes per slice."""
    step = max(1, _BLOCK_NODES // width)
    return [slice(start, min(start + step, size)) for start in range(0, size, step)]


def fault_scan(
    P: MatrixPolynomial,
    grid: GridSpec,
    smap: SurfaceIndexMap,
    gap: np.ndarray | None = None,
) -> FaultReport:
    """Locate fault points inside the window.

    The collapsed gap is sampled on the grid; 8-neighbor local minima whose
    value is below 10 * cell diagonal * local slope estimate are candidate
    cells (the margin keeps curve crossings between nodes from being
    missed).  All candidates are refined together by ``crossing_points``,
    and each keeps its refined point where the ``is_fault_point`` rule
    holds within the step budget.
    An empty report is a valid outcome; with fewer than two distinct
    surfaces (scalar problems, fully repeated structure) the fault set is
    vacuously empty.  A caller that already holds the (nx, ny) collapsed
    gap on the grid passes it as ``gap``.

    The working set is the gap, the slope and the candidate mask, 17 B per
    node, and blocks of about ``_BLOCK_NODES`` nodes.  The grid call
    (``singular_values_grid``) keeps only s_{c2} and s_{c1}, and its
    chunks are in flight only before the gap is formed.  The slope's
    x-derivative is taken a block of columns at a time and its
    y-derivative a block of rows at a time, each by ``np.gradient`` along
    the full axis, and the 3 x 3 filters a block of rows at a time, so
    every value has the bits of the whole-array operations.
    """
    if smap.c2 is None:
        return FaultReport(
            cells=(),
            refined_points=np.zeros(0, dtype=complex),
            refined_gaps=np.zeros(0, dtype=float),
            empty=True,
        )
    xs, ys = grid.xs(), grid.ys()
    if gap is None:
        pair = singular_values_grid(P, xs, ys, (smap.c2 - 1, smap.c1 - 1))
        gap = pair[..., 0] - pair[..., 1]
        del pair
    row_blocks = _blocks(grid.nx, grid.ny)
    slope = np.empty_like(gap)
    for cols in _blocks(grid.ny, grid.nx):
        slope[:, cols] = np.gradient(gap[:, cols], xs, axis=0)
    for rows in row_blocks:
        block = slope[rows]
        np.hypot(block, np.gradient(gap[rows], ys, axis=1), out=block)
        np.maximum(block, np.finfo(float).tiny, out=block)
    tau = 10.0 * grid.cell_diagonal

    # interior 8-neighbor minima below the slope margin
    candidate = np.empty(gap.shape, dtype=bool)
    for rows in row_blocks:
        g = gap[rows]
        block = candidate[rows]
        np.less_equal(g, _filter3(np.minimum, gap, rows), out=block)
        block &= g <= tau * _filter3(np.maximum, slope, rows)
    candidate[[0, -1], :] = False
    candidate[:, [0, -1]] = False
    # argwhere lists the cells in row-major, i.e. sorted, order
    cells = tuple((int(i), int(j)) for i, j in np.argwhere(candidate))

    starts = [complex(xs[i], ys[j]) for i, j in cells]
    points, gaps, steps, left = crossing_points(P, smap, starts, grid)
    found = ~np.isnan(gaps)
    refined = list(zip(points[found].tolist(), gaps[found].tolist()))

    # near-duplicate refinements from neighboring cells collapse to one point
    dedupe_radius = 0.5 * grid.cell_diagonal
    kept: list = []
    for lam, gval in sorted(refined, key=lambda t: (t[0].real, t[0].imag)):
        if all(abs(lam - other) > dedupe_radius for other, _ in kept):
            kept.append((lam, gval))

    points = np.array([lam for lam, _ in kept], dtype=complex)
    gaps = np.array([gv for _, gv in kept], dtype=float)
    return FaultReport(
        cells=cells,
        refined_points=points,
        refined_gaps=gaps,
        empty=len(points) == 0,
        steps=steps,
        dropped=len(cells) - len(refined) - left,
        left_window=left,
    )
