import inspect
from pathlib import Path

import numpy as np
import pytest

from polyspectra import (
    GridSpec,
    MatrixPolynomial,
    build_surface_map,
    collapsed_gap,
    fault_scan,
    is_fault_point,
)
from polyspectra import evaluate, faultlines
from polyspectra.cli import parse_problem

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# The fixtures with candidate cells on their document grids.
FAULT_FIXTURES = (
    "normal_pencil_3x3",
    "diag_quadratic_pair_2x2",
    "diag_movable_eigenvalue_2x2",
    "damped_system_3x3",
    "isolated_fault_pencil_3x3",
    "conic_pencil_3x3",
)

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
        smap = build_surface_map(disc_pair, SQUARE)
        assert smap.representative == (1, 2)
        assert (smap.c1, smap.c2) == (2, 1)
        assert smap.distinct_count == 2

    def test_repeated_diagonal_collapses(self):
        P = MatrixPolynomial([np.diag([-1.0, -1.0]), np.eye(2)])
        smap = build_surface_map(P, SQUARE)
        assert smap.distinct_count == 1
        assert smap.c2 is None

    def test_quadratic_pair_distinct(self, diag_quadratic_pair):
        smap = build_surface_map(diag_quadratic_pair, SQUARE)
        assert smap.distinct_count == 2

    def test_matches_run_loop(self, monkeypatch):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            # descending surfaces, some runs of them identical up to a
            # difference around the identity threshold
            rows = faultlines.PROBE_COUNT
            svals = -np.sort(-rng.uniform(0, 5, size=(rows, n)), axis=1)
            for j in np.flatnonzero(rng.uniform(size=n - 1) < 0.5):
                svals[:, j + 1] = svals[:, j] - rng.choice([0.0, 1e-11, 1e-9])
            monkeypatch.setattr(faultlines, "singular_values_many", lambda P, z: svals)
            smap = build_surface_map(MatrixPolynomial([np.eye(n)]), SQUARE)
            assert (smap.representative, smap.c1, smap.c2) == reference_surface_map(svals)


class TestFaultScan:
    def test_isolated_point(self, isolated_fault_pencil):
        smap = build_surface_map(isolated_fault_pencil, SQUARE)
        rep = fault_scan(isolated_fault_pencil, SQUARE, smap)
        assert not rep.empty
        assert len(rep.refined_points) == 1
        assert abs(rep.refined_points[0]) < 1e-4

    def test_scalar_is_empty(self, scalar_double_root):
        smap = build_surface_map(scalar_double_root, SQUARE)
        rep = fault_scan(scalar_double_root, SQUARE, smap)
        assert rep.empty
        assert len(rep.refined_points) == 0

    def test_circle_and_line(self, diag_quadratic_pair):
        win = GridSpec(x_min=-2.0, x_max=3.0, y_min=-2.0, y_max=2.0, nx=241, ny=241)
        smap = build_surface_map(diag_quadratic_pair, win)
        rep = fault_scan(diag_quadratic_pair, win, smap)
        assert not rep.empty
        pts = rep.refined_points
        # true fault set: circle centred (1/2, 0) of radius sqrt(3)/2, line x = 1/2
        d_circle = np.abs(np.abs(pts - 0.5) - np.sqrt(3) / 2)
        d_line = np.abs(pts.real - 0.5)
        assert np.max(np.minimum(d_circle, d_line)) <= 2 * win.cell_diagonal

    def test_refined_gaps_vanish(self, diag_quadratic_pair):
        win = GridSpec(x_min=-2.0, x_max=3.0, y_min=-2.0, y_max=2.0, nx=121, ny=121)
        smap = build_surface_map(diag_quadratic_pair, win)
        rep = fault_scan(diag_quadratic_pair, win, smap)
        assert np.all(rep.refined_gaps <= 1e-8 * 10)

    def test_no_filled_blob(self):
        # crossings have empty interior: the near-zero gap set never fills
        # a 3x3 block of cells
        rng = np.random.default_rng(53)
        from conftest import random_polynomial

        P = random_polynomial(rng, 3, 1)
        win = GridSpec(x_min=-3.0, x_max=3.0, y_min=-3.0, y_max=3.0, nx=121, ny=121)
        smap = build_surface_map(P, win)
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
        smap = build_surface_map(diag_movable, win)
        assert is_fault_point(diag_movable, 1.0, smap)
        assert not is_fault_point(diag_movable, 5.0, smap)

    def test_conic_pencil_origin(self, conic_pencil):
        smap = build_surface_map(conic_pencil, SQUARE)
        assert is_fault_point(conic_pencil, 0.0, smap)

    def test_vacuous_without_second_surface(self, scalar_double_root):
        smap = build_surface_map(scalar_double_root, SQUARE)
        assert not is_fault_point(scalar_double_root, 1.0, smap)

    def test_collapsed_gap_nonnegative(self, conic_pencil):
        smap = build_surface_map(conic_pencil, SQUARE)
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
            smap = build_surface_map(P, win)
            rep = fault_scan(P, win, smap)
            assert not rep.empty
            for lam in rep.refined_points:
                d = np.sort(np.abs(eigs - lam))
                assert d[1] - d[0] <= 2 * win.cell_diagonal


class TestLockstepRefinement:
    """All candidate cells share one singular-value call per Gauss-Newton
    step."""

    @staticmethod
    def _count_calls(monkeypatch):
        calls = []
        original = faultlines.singular_values_many

        def counting(P, lams):
            calls.append(np.shape(lams))
            return original(P, lams)

        monkeypatch.setattr(faultlines, "singular_values_many", counting)
        return calls

    def test_calls_are_bounded_by_the_iteration_budget(self, monkeypatch, diag_quadratic_pair):
        # the document grid of diag_quadratic_pair_2x2
        win = GridSpec(x_min=-2.0, x_max=3.0, y_min=-2.0, y_max=2.0, nx=241, ny=241)
        smap = build_surface_map(diag_quadratic_pair, win)
        calls = self._count_calls(monkeypatch)
        rep = fault_scan(diag_quadratic_pair, win, smap)
        assert len(rep.cells) > 100
        # the grid, and one fault test before each step and after the last
        assert len(calls) <= faultlines.CROSSING_MAX_STEPS + 2

    def test_no_candidates_only_the_grid(self, monkeypatch, disc_pair):
        # the gap of diag(l - 1, l + 1) grows with Re l off its fault line
        # Re l = 0, so this window has no interior minimum
        win = GridSpec(x_min=0.5, x_max=2.0, y_min=-1.0, y_max=1.0, nx=41, ny=41)
        smap = build_surface_map(disc_pair, win)
        calls = self._count_calls(monkeypatch)
        original = faultlines.singular_values_grid

        def grid(P, xs, ys, columns):
            calls.append(("grid", len(xs), len(ys)))
            return original(P, xs, ys, columns)

        monkeypatch.setattr(faultlines, "singular_values_grid", grid)
        rep = fault_scan(disc_pair, win, smap)
        assert rep.cells == () and rep.empty
        assert calls == [("grid", 41, 41)]


class TestWorkingSet:
    """A fault scan keeps O(1) arrays per grid node, not the grid's points
    or every singular value."""

    # the gap, the slope and the candidate mask (17 B), or the grid call's
    # two kept columns and the gap formed from them (24 B), per node
    BYTES_PER_NODE = 24

    def test_the_damped_scan_fits_its_bytes_per_node(self):
        import tracemalloc

        from polyspectra.svdcore import _CHUNK_BYTES

        spec = parse_problem((FIXTURES / "damped_system_3x3.json").read_text())
        P, win = spec.polynomial, spec.window
        assert (win.nx, win.ny) == (401, 401)
        smap = build_surface_map(P, win)
        tracemalloc.start()
        try:
            rep = fault_scan(P, win, smap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rep.cells) == 4
        assert peak <= self.BYTES_PER_NODE * win.nx * win.ny + _CHUNK_BYTES

    def test_faults_with_levels_decomposes_the_grid_once(self, monkeypatch, tmp_path):
        from polyspectra import cli, pseudospectrum, svdcore

        grids, sizes, evaluated = [], [], [0]
        original_grid = svdcore.singular_values_grid
        original_many = svdcore.singular_values_many
        original_evaluate = svdcore.evaluate_many

        def grid(P, xs, ys, columns):
            grids.append((len(xs), len(ys), tuple(columns)))
            return original_grid(P, xs, ys, columns)

        def many(P, lams):
            sizes.append(np.size(lams))
            return original_many(P, lams)

        def evaluate(P, lams):
            evaluated[0] += np.size(lams)
            return original_evaluate(P, lams)

        monkeypatch.setattr(cli, "singular_values_grid", grid)
        monkeypatch.setattr(faultlines, "singular_values_grid", grid)
        monkeypatch.setattr(faultlines, "singular_values_many", many)
        monkeypatch.setattr(pseudospectrum, "singular_values_many", many)
        monkeypatch.setattr(svdcore, "evaluate_many", evaluate)
        code = cli.main([
            "faults", "--input", str(FIXTURES / "damped_system_3x3.json"),
            "--grid", "101", "101", "--eps", "0.05", "0.2", "--svg", str(tmp_path / "out.svg"),
        ])
        assert code == 0
        nodes = 101 * 101
        # s_{c2}, s_{c1} and s_min at every node, from one call
        assert grids == [(101, 101, (1, 2, 2))]
        assert max(sizes) < nodes
        # the grid once, and the probes and the fault tests of the refinement
        assert nodes <= evaluated[0] < 2 * nodes


def document_scan(name: str) -> tuple:
    """(P, window, surface map, fault report, candidate starts) of a fixture
    on its document grid."""
    spec = parse_problem((FIXTURES / f"{name}.json").read_text())
    P, win = spec.polynomial, spec.window
    smap = build_surface_map(P, win)
    rep = fault_scan(P, win, smap)
    xs, ys = win.xs(), win.ys()
    return P, win, smap, rep, [complex(xs[i], ys[j]) for i, j in rep.cells]


def haar_unitary(rng, n: int) -> np.ndarray:
    """A Haar-distributed n x n unitary: QR of a complex Gaussian matrix,
    with the phases of R's diagonal moved into Q."""
    Q, R = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def finite_difference_step(P, smap, lam: complex, h: float) -> np.ndarray:
    """The least-squares Gauss-Newton step from ``lam``, with the Jacobian of
    the crossing residual taken by central differences in the fixed basis
    W = [v_{c2}, v_{c1}] of ``lam``."""
    _, _, Vh = np.linalg.svd(evaluate(P, lam))
    W = Vh[[smap.c2 - 1, smap.c1 - 1]].conj().T

    def residual(z):
        A = evaluate(P, z) @ W
        M = A.conj().T @ A
        return np.array([(M[0, 0] - M[1, 1]).real, 2 * M[0, 1].real, 2 * M[0, 1].imag])

    J = np.column_stack([
        (residual(lam + h) - residual(lam - h)) / (2 * h),
        (residual(lam + 1j * h) - residual(lam - 1j * h)) / (2 * h),
    ])
    return np.linalg.lstsq(J, -residual(lam), rcond=faultlines.CROSSING_RANK_RTOL)[0]


class TestCrossingRefinement:
    """Gauss-Newton on the crossing equations refines every candidate."""

    # Largest move of a refined point under a unitary copy U P_j V of the
    # coefficients, in cell diagonals; the fixtures' seeded copies move
    # none by more than 2e-13.
    UNITARY_MOVE_RTOL = 1e-9

    @pytest.mark.parametrize("name", FAULT_FIXTURES)
    def test_every_candidate_passes_within_the_budget(self, name):
        P, win, smap, rep, starts = document_scan(name)
        assert starts
        points, gaps, steps, left = faultlines.crossing_points(P, smap, starts, win)
        assert not np.isnan(gaps).any() and left == 0
        assert steps <= faultlines.CROSSING_MAX_STEPS
        assert all(is_fault_point(P, lam, smap) for lam in points)
        assert (rep.steps, rep.dropped, rep.left_window) == (steps, 0, 0)

    @pytest.mark.parametrize(
        "name, count",
        [("isolated_fault_pencil_3x3", 1), ("damped_system_3x3", 4), ("conic_pencil_3x3", 1)],
    )
    def test_isolated_fault_counts(self, name, count):
        assert len(document_scan(name)[3].refined_points) == count

    @pytest.mark.parametrize("name", ["diag_movable_eigenvalue_2x2", "damped_system_3x3"])
    def test_each_start_alone_equals_the_stack(self, name):
        P, win, smap, _, starts = document_scan(name)
        points, gaps, _, _ = faultlines.crossing_points(P, smap, starts, win)
        for k, start in enumerate(starts):
            alone, gap, _, _ = faultlines.crossing_points(P, smap, [start], win)
            assert alone.tobytes() == points[k:k + 1].tobytes()
            assert gap.tobytes() == gaps[k:k + 1].tobytes()

    def test_a_unitary_copy_moves_no_point(self):
        P, win, smap, _, starts = document_scan("diag_quadratic_pair_2x2")
        points, gaps, _, _ = faultlines.crossing_points(P, smap, starts, win)
        rng = np.random.default_rng(21)
        for _ in range(3):
            U, V = haar_unitary(rng, P.n), haar_unitary(rng, P.n)
            Q = MatrixPolynomial([U @ C @ V for C in P.coeffs])
            qmap = build_surface_map(Q, win)
            assert (qmap.c1, qmap.c2) == (smap.c1, smap.c2)
            moved, qgaps, _, _ = faultlines.crossing_points(Q, qmap, starts, win)
            assert not np.isnan(gaps).any() and not np.isnan(qgaps).any()
            assert np.abs(moved - points).max() <= self.UNITARY_MOVE_RTOL * win.cell_diagonal

    def test_steps_match_a_finite_difference_jacobian(self, diag_quadratic_pair):
        # a generic complex 3 x 3 pencil has a rank-two Jacobian; on the
        # diagonal pair's fault curve it has rank one and the step is the
        # least-norm one
        from conftest import random_polynomial

        rng = np.random.default_rng(9)
        cases = [(random_polynomial(rng, 3, 1), 0.3 - 0.2j, 1e-4)]
        cases += [(diag_quadratic_pair, z, 1e-5) for z in (0.62 + 0.1j, -0.2 + 0.7j)]
        for P, lam, h in cases:
            smap = build_surface_map(P, SQUARE)
            dx, dy = faultlines.crossing_system(P, smap, np.array([lam]))[-1]
            want = finite_difference_step(P, smap, lam, h)
            assert np.hypot(dx[0] - want[0], dy[0] - want[1]) <= 1e-6 * np.hypot(*want)

    def test_avoided_crossings_are_dropped_early(self):
        # a generic complex polynomial has avoided crossings but no crossing:
        # each candidate's gap stops falling at a least-squares point of the
        # crossing equations, and the start is dropped there
        from conftest import random_polynomial

        P = random_polynomial(np.random.default_rng(0), 3, 2)
        win = GridSpec(x_min=-2.0, x_max=2.0, y_min=-2.0, y_max=2.0, nx=81, ny=81)
        rep = fault_scan(P, win, build_surface_map(P, win))
        assert rep.cells and rep.empty
        assert (rep.dropped, rep.left_window) == (len(rep.cells), 0)
        assert rep.steps < faultlines.CROSSING_MAX_STEPS

    def test_a_step_out_of_the_window_drops_the_start(self, diag_quadratic_pair):
        # the fault line Re l = 1/2 lies outside this window, so the first
        # step from a start near its edge leaves it
        win = GridSpec(x_min=-2.0, x_max=0.45, y_min=-0.1, y_max=0.1, nx=11, ny=11)
        smap = build_surface_map(diag_quadratic_pair, SQUARE)
        points, gaps, steps, left = faultlines.crossing_points(
            diag_quadratic_pair, smap, [0.4 + 0.0j], win
        )
        assert np.isnan(gaps).all() and (steps, left) == (1, 1)
