"""Fault points: where the two lowest distinct singular-value surfaces meet.

Surfaces that coincide identically (repeated structure in the polynomial)
are first collapsed through a probe-based index map; the fault set is then
the zero set of the gap between the two lowest surviving surfaces.  The gap
is nonnegative and typically conic at its zeros, so refinement uses a
derivative-free simplex search.  Fault detection never involves the weight
polynomial: the operation signatures admit no weight input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage, optimize

from .errors import PreconditionError
from .matpoly import MatrixPolynomial
from .pseudospectrum import GridSpec
from .svdcore import singular_values_many, surface_gap

# Probe agreement threshold for "identical surfaces".  Agreement at every
# generic probe is strong (not certified) evidence of global identity,
# since distinct surfaces can only coincide on sets without interior.
IDENTITY_RTOL = 1e-10

REFINED_GAP_RTOL = 1e-8

# Probes per window for the surface identity test, and the seed that draws them.
PROBE_COUNT = 24
PROBE_SEED = 20240

# Nelder-Mead iteration budget per candidate cell.
REFINE_MAXITER = 200


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
    """Grid cells flagged by the scan and their refined fault points."""

    cells: tuple
    refined_points: np.ndarray
    refined_gaps: np.ndarray
    empty: bool


def default_probes(window: GridSpec) -> np.ndarray:
    """Generic probe points drawn uniformly from the window (deterministic)."""
    rng = np.random.default_rng(PROBE_SEED)
    x = rng.uniform(window.x_min, window.x_max, PROBE_COUNT)
    y = rng.uniform(window.y_min, window.y_max, PROBE_COUNT)
    return x + 1j * y


def build_surface_map(P: MatrixPolynomial, probes) -> SurfaceIndexMap:
    """Group surface indices whose singular values agree at every probe.

    Identical surfaces occupy contiguous positions in the descending order,
    so only adjacent pairs need comparing.  Each group is represented by its
    largest index.
    """
    probes = np.asarray(probes, dtype=complex)
    if probes.size < 2:
        raise PreconditionError("need at least 2 probe points (20+ recommended)")
    svals = singular_values_many(P, probes)  # (npr, n)
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


def is_fault_point(P: MatrixPolynomial, lam: complex, smap: SurfaceIndexMap) -> bool:
    """True iff the collapsed gap at lambda is at most
    REFINED_GAP_RTOL * (1 + s_1(lambda)).

    With fewer than two distinct surfaces the fault set is vacuously empty
    and every point answers False.
    """
    if smap.c2 is None:
        return False
    s = singular_values_many(P, lam)
    return float(surface_gap(s, smap.c1, smap.c2)) <= REFINED_GAP_RTOL * (1.0 + float(s[0]))


def simplex_minimum(f, start: complex, window: GridSpec, maxiter: int) -> tuple:
    """Nelder-Mead minimum of the real function ``f(lambda)`` from ``start``
    inside the window, within ``maxiter`` iterations: the point, the value
    of ``f`` there and the iterations taken."""
    res = optimize.minimize(
        lambda p: f(complex(p[0], p[1])),
        x0=[start.real, start.imag],
        method="Nelder-Mead",
        bounds=[(window.x_min, window.x_max), (window.y_min, window.y_max)],
        options=dict(maxiter=maxiter, xatol=1e-12, fatol=1e-15),
    )
    return complex(res.x[0], res.x[1]), float(res.fun), int(res.nit)


def fault_scan(
    P: MatrixPolynomial,
    grid: GridSpec,
    smap: SurfaceIndexMap,
    svals: np.ndarray | None = None,
) -> FaultReport:
    """Locate fault points inside the window.

    The collapsed gap is sampled on the grid; 8-neighbor local minima whose
    value is below 10 * cell diagonal * local slope estimate are candidate
    cells (the margin keeps curve crossings between nodes from being
    missed).  Each candidate is refined by Nelder-Mead simplex minimization
    of the gap, and refined points are kept where ``is_fault_point`` holds.
    An empty report is a valid outcome; with fewer than two distinct
    surfaces (scalar problems, fully repeated structure) the fault set is
    vacuously empty.  A caller that already holds
    ``singular_values_many(P, grid.points())`` passes it as ``svals``.
    """
    if smap.c2 is None:
        return FaultReport(
            cells=(),
            refined_points=np.zeros(0, dtype=complex),
            refined_gaps=np.zeros(0, dtype=float),
            empty=True,
        )
    if svals is None:
        svals = singular_values_many(P, grid.points())
    g = surface_gap(svals, smap.c1, smap.c2)
    xs, ys = grid.xs(), grid.ys()
    gx, gy = np.gradient(g, xs, ys)
    slope = np.maximum(np.hypot(gx, gy), np.finfo(float).tiny)
    tau_cell = 10.0 * grid.cell_diagonal * ndimage.maximum_filter(slope, size=3, mode="nearest")

    is_min = g <= ndimage.minimum_filter(g, size=3, mode="nearest")
    is_min[[0, -1], :] = False
    is_min[:, [0, -1]] = False
    # argwhere lists the cells in row-major, i.e. sorted, order
    cells = tuple((int(i), int(j)) for i, j in np.argwhere(is_min & (g <= tau_cell)))

    refined = []
    for i, j in cells:
        lam, gval, _ = simplex_minimum(
            lambda z: collapsed_gap(P, z, smap), complex(xs[i], ys[j]), grid, REFINE_MAXITER
        )
        if is_fault_point(P, lam, smap):
            refined.append((lam, gval))

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
    )
