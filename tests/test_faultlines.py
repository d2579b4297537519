import inspect

import numpy as np
import pytest

from polyspectra import (
    GridSpec,
    MatrixPolynomial,
    build_surface_map,
    collapsed_gap,
    default_probes,
    fault_scan,
    is_fault_point,
)
from polyspectra import faultlines

SQUARE = GridSpec(x_min=-2.0, x_max=2.0, y_min=-2.0, y_max=2.0, nx=241, ny=241)


def reference_surface_map(svals):
    """Run-loop form of ``build_surface_map`` on the probe values ``svals``:
    (representative, c1, c2)."""
    n = svals.shape[1]
    scale = 1.0 + svals[:, 0]
    same_as_next = [
        bool(np.all(np.abs(svals[:, j] - svals[:, j + 1]) <= faultlines.IDENTITY_RTOL * scale))
        for j in range(n - 1)
    ]
    rep = [0] * n
    j = n - 1
    while j >= 0:
        k = j
        while k > 0 and same_as_next[k - 1]:
            k -= 1
        for i in range(k, j + 1):
            rep[i] = j + 1
        j = k - 1
    canonical = sorted(set(rep), reverse=True)
    return tuple(rep), canonical[0], canonical[1] if len(canonical) > 1 else None


class TestSurfaceMap:
    def test_distinct_diagonal(self, disc_pair):
        smap = build_surface_map(disc_pair, default_probes(SQUARE))
        assert smap.representative == (1, 2)
        assert (smap.c1, smap.c2) == (2, 1)
        assert smap.distinct_count == 2

    def test_repeated_diagonal_collapses(self):
        P = MatrixPolynomial([np.diag([-1.0, -1.0]), np.eye(2)])
        smap = build_surface_map(P, default_probes(SQUARE))
        assert smap.distinct_count == 1
        assert smap.c2 is None

    def test_quadratic_pair_distinct(self, diag_quadratic_pair):
        smap = build_surface_map(diag_quadratic_pair, default_probes(SQUARE))
        assert smap.distinct_count == 2

    def test_matches_run_loop(self, monkeypatch):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            # descending surfaces, some runs of them identical up to a
            # difference around the identity threshold
            svals = -np.sort(-rng.uniform(0, 5, size=(6, n)), axis=1)
            for j in np.flatnonzero(rng.uniform(size=n - 1) < 0.5):
                svals[:, j + 1] = svals[:, j] - rng.choice([0.0, 1e-11, 1e-9])
            monkeypatch.setattr(faultlines, "singular_values_many", lambda P, z: svals)
            smap = build_surface_map(MatrixPolynomial([np.eye(n)]), np.zeros(6))
            assert (smap.representative, smap.c1, smap.c2) == reference_surface_map(svals)

    def test_probe_count_guard(self, disc_pair):
        with pytest.raises(Exception):
            build_surface_map(disc_pair, [0.1 + 0.1j])


class TestFaultScan:
    def test_isolated_point(self, isolated_fault_pencil):
        smap = build_surface_map(isolated_fault_pencil, default_probes(SQUARE))
        rep = fault_scan(isolated_fault_pencil, SQUARE, smap)
        assert not rep.empty
        assert len(rep.refined_points) == 1
        assert abs(rep.refined_points[0]) < 1e-4

    def test_scalar_is_empty(self, scalar_double_root):
        smap = build_surface_map(scalar_double_root, default_probes(SQUARE))
        rep = fault_scan(scalar_double_root, SQUARE, smap)
        assert rep.empty
        assert len(rep.refined_points) == 0

    def test_circle_and_line(self, diag_quadratic_pair):
        win = GridSpec(x_min=-2.0, x_max=3.0, y_min=-2.0, y_max=2.0, nx=241, ny=241)
        smap = build_surface_map(diag_quadratic_pair, default_probes(win))
        rep = fault_scan(diag_quadratic_pair, win, smap)
        assert not rep.empty
        pts = rep.refined_points
        # true fault set: circle centred (1/2, 0) of radius sqrt(3)/2, line x = 1/2
        d_circle = np.abs(np.abs(pts - 0.5) - np.sqrt(3) / 2)
        d_line = np.abs(pts.real - 0.5)
        assert np.max(np.minimum(d_circle, d_line)) <= 2 * win.cell_diagonal

    def test_refined_gaps_vanish(self, diag_quadratic_pair):
        win = GridSpec(x_min=-2.0, x_max=3.0, y_min=-2.0, y_max=2.0, nx=121, ny=121)
        smap = build_surface_map(diag_quadratic_pair, default_probes(win))
        rep = fault_scan(diag_quadratic_pair, win, smap)
        assert np.all(rep.refined_gaps <= 1e-8 * 10)

    def test_no_filled_blob(self):
        # crossings have empty interior: the near-zero gap set never fills
        # a 3x3 block of cells
        rng = np.random.default_rng(53)
        from conftest import random_polynomial

        P = random_polynomial(rng, 3, 1)
        win = GridSpec(x_min=-3.0, x_max=3.0, y_min=-3.0, y_max=3.0, nx=121, ny=121)
        smap = build_surface_map(P, default_probes(win))
        from polyspectra.svdcore import singular_values_many

        s = singular_values_many(P, win.points())
        g = s[..., smap.c2 - 1] - s[..., smap.c1 - 1]
        tiny = g <= 1e-8 * (1.0 + s[..., 0])
        filled = np.zeros_like(tiny)
        filled[1:-1, 1:-1] = (
            tiny[1:-1, 1:-1]
            & tiny[:-2, 1:-1] & tiny[2:, 1:-1] & tiny[1:-1, :-2] & tiny[1:-1, 2:]
            & tiny[:-2, :-2] & tiny[2:, 2:] & tiny[:-2, 2:] & tiny[2:, :-2]
        )
        assert not filled.any()


class TestIsFaultPoint:
    def test_movable_eigenvalue_critical_value(self, diag_movable):
        win = GridSpec(x_min=-3.0, x_max=3.0, y_min=-2.5, y_max=2.5, nx=61, ny=61)
        smap = build_surface_map(diag_movable, default_probes(win))
        assert is_fault_point(diag_movable, 1.0, smap)
        assert not is_fault_point(diag_movable, 5.0, smap)

    def test_conic_pencil_origin(self, conic_pencil):
        smap = build_surface_map(conic_pencil, default_probes(SQUARE))
        assert is_fault_point(conic_pencil, 0.0, smap)

    def test_vacuous_without_second_surface(self, scalar_double_root):
        smap = build_surface_map(scalar_double_root, default_probes(SQUARE))
        assert not is_fault_point(scalar_double_root, 1.0, smap)

    def test_collapsed_gap_nonnegative(self, conic_pencil):
        smap = build_surface_map(conic_pencil, default_probes(SQUARE))
        rng = np.random.default_rng(3)
        for _ in range(20):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert collapsed_gap(conic_pencil, lam, smap) >= 0


class TestWeightIndependence:
    def test_fault_operations_take_no_weight(self):
        # structural check: the fault set never depends on the weights
        for fn in (faultlines.build_surface_map, faultlines.fault_scan,
                   faultlines.is_fault_point, faultlines.collapsed_gap):
            params = inspect.signature(fn).parameters
            assert "w" not in params and "weight" not in params


class TestVoronoiProperty:
    def test_normal_pencil_faults_are_equidistant(self):
        # for a normal matrix the surfaces are the distances |l - l_j|, so
        # fault points sit on nearest-eigenvalue ties
        rng = np.random.default_rng(97)
        for _ in range(2):
            k = int(rng.integers(3, 6))
            eigs = rng.uniform(-1.2, 1.2, k) + 1j * rng.uniform(-1.2, 1.2, k)
            M = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            Q, _ = np.linalg.qr(M)
            A = Q @ np.diag(eigs) @ Q.conj().T
            P = MatrixPolynomial([-A, np.eye(k)])
            win = GridSpec(x_min=-2.0, x_max=2.0, y_min=-2.0, y_max=2.0, nx=161, ny=161)
            smap = build_surface_map(P, default_probes(win))
            rep = fault_scan(P, win, smap)
            assert not rep.empty
            for lam in rep.refined_points:
                d = np.sort(np.abs(eigs - lam))
                assert d[1] - d[0] <= 2 * win.cell_diagonal
