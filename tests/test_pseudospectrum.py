import numpy as np
import pytest

from polyspectra import (
    BracketError,
    GridSpec,
    GridTooCoarseError,
    MatrixPolynomial,
    PreconditionError,
    ScalarField,
    SeedNotFoundError,
    Termination,
    WeightPolynomial,
    boundedness_check,
    components,
    compute_field,
    default_window,
    eigenvalues,
    find_boundary_seed,
    find_saddle,
    merge_epsilon,
    s_min,
    trace_boundary,
    weight_eval,
)
from polyspectra import pseudospectrum
from polyspectra.pseudospectrum import MAX_GRID_POINTS, label_sublevel, on_curve_tolerance
from polyspectra.svdcore import F_eps

from conftest import random_polynomial, random_weight


@pytest.fixture(scope="module")
def uptri_field(request):
    uptri = request.getfixturevalue("uptri_quadratic")
    w = request.getfixturevalue("weight_quadratic")
    grid = request.getfixturevalue("uptri_window")
    return compute_field(uptri, w, grid)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            GridSpec(x_min=1.0, x_max=0.0, y_min=0.0, y_max=1.0, nx=10, ny=10)
        with pytest.raises(PreconditionError):
            GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=1, ny=10)

    def test_point_count_cap(self):
        side = 1 << 12
        assert side * side == MAX_GRID_POINTS
        GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=side, ny=side)
        with pytest.raises(PreconditionError, match="exceeds"):
            GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=side + 1, ny=side)

    def test_nearest_index_roundtrip(self):
        g = GridSpec(x_min=-1.0, x_max=1.0, y_min=-2.0, y_max=2.0, nx=21, ny=41)
        i, j = g.nearest_index(0.31 - 0.52j)
        assert abs(g.xs()[i] - 0.31) <= g.dx / 2 + 1e-15
        assert abs(g.ys()[j] + 0.52) <= g.dy / 2 + 1e-15


class TestComputeField:
    def test_scalar_field_is_distance(self):
        P = MatrixPolynomial([[[-0.3]], [[1.0]]])  # lambda - 0.3
        g = GridSpec(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=21, ny=21)
        field = compute_field(P, WeightPolynomial([1.0]), g)
        pts = g.points()
        assert np.allclose(field.values, np.abs(pts - 0.3), atol=1e-12)

    def test_reference_value_at_merge_point(self, uptri_field):
        assert uptri_field.value_near(1.4145) == pytest.approx(0.0091, abs=5e-4)

    def test_zero_at_eigenvalues(self, damped_system, weight_damped, damped_window):
        field = compute_field(damped_system, weight_damped, damped_window)
        for lam in eigenvalues(damped_system).eigenvalues:
            assert field.value_near(lam) < 5e-3

    def test_nonnegative(self, uptri_field):
        assert np.all(uptri_field.values >= 0)


class TestComponents:
    def test_uptri_counts(self, uptri_field, uptri_quadratic):
        eigen = eigenvalues(uptri_quadratic)
        assert components(uptri_field, 0.005, eigen).count == 2
        assert components(uptri_field, 0.02, eigen).count == 1

    def test_damped_counts(self, damped_system, weight_damped, damped_window):
        eigen = eigenvalues(damped_system)
        field = compute_field(damped_system, weight_damped, damped_window)
        assert components(field, 0.02, eigen).count == 6
        assert components(field, 0.1, eigen).count == 1

    def test_every_component_carries_an_eigenvalue(self, uptri_field, uptri_quadratic):
        eigen = eigenvalues(uptri_quadratic)
        rep = components(uptri_field, 0.005, eigen)
        assert set(rep.eigen_assignment) == set(range(1, rep.count + 1))
        for entries in rep.eigen_assignment.values():
            assert len(entries) >= 1
        assert all(rep.bounded.values())

    def test_multiplicity_totals(self, uptri_field, uptri_quadratic):
        eigen = eigenvalues(uptri_quadratic)
        rep = components(uptri_field, 0.02, eigen)
        total = sum(m for entries in rep.eigen_assignment.values() for _, m in entries)
        assert total == eigen.total_multiplicity

    def test_too_coarse_raises(self, uptri_field, uptri_quadratic):
        eigen = eigenvalues(uptri_quadratic)
        with pytest.raises(GridTooCoarseError, match="refine"):
            components(uptri_field, 1e-12, eigen)

    def test_zoomed_window_skips_outside_eigenvalues(
        self, uptri_quadratic, weight_quadratic
    ):
        # window shows only the component around 1; the eigenvalue at 2 is
        # outside and stays unassigned
        zoom = GridSpec(x_min=0.5, x_max=1.5, y_min=-0.5, y_max=0.5, nx=101, ny=101)
        field = compute_field(uptri_quadratic, weight_quadratic, zoom)
        rep = components(field, 0.005, eigenvalues(uptri_quadratic))
        assigned = [z for entries in rep.eigen_assignment.values() for z, _ in entries]
        assert len(assigned) == 1
        assert assigned[0] == pytest.approx(1.0, abs=1e-5)

    def test_nesting(self, uptri_field):
        small, _ = label_sublevel(uptri_field, 0.004)
        large, _ = label_sublevel(uptri_field, 0.02)
        assert np.all((small > 0) <= (large > 0))

    def test_count_bound_random(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 3))
            P = random_polynomial(rng, n, m)
            w = random_weight(rng, m)
            eigen = eigenvalues(P)
            win = default_window(P, w, eps_max=0.0, nx=161, ny=161, eigen=eigen)
            field = compute_field(P, w, win)
            floor = 2.0 * max(field.value_near(z) for z in eigen.eigenvalues)
            for eps in np.geomspace(max(floor, 1e-6), 1.0, 6):
                rep = components(field, eps, eigen)
                assert rep.count <= len(eigen.eigenvalues)
                if all(rep.bounded.values()):
                    # no spurious components: each one holds an eigenvalue
                    assert all(
                        len(entries) >= 1 for entries in rep.eigen_assignment.values()
                    )


class TestBoundarySeed:
    def test_scalar_disc(self):
        P = MatrixPolynomial([[[-0.7]], [[1.0]]])  # lambda - 0.7
        win = GridSpec(x_min=-2.0, x_max=2.0, y_min=-2.0, y_max=2.0, nx=11, ny=11)
        seed = find_boundary_seed(P, WeightPolynomial([1.0]), 0.5, 0.7, 1.0, win)
        assert seed == pytest.approx(1.2, abs=1e-10)

    def test_diag_disc_negative_direction(self, disc_pair, unit_weight):
        win = GridSpec(x_min=-2.0, x_max=2.0, y_min=-2.0, y_max=2.0, nx=11, ny=11)
        seed = find_boundary_seed(disc_pair, unit_weight, 0.25, -1.0, -1.0, win)
        assert seed == pytest.approx(-1.25, abs=1e-10)

    def test_uptri_seed_lies_on_curve(self, uptri_quadratic, weight_quadratic, uptri_window):
        seed = find_boundary_seed(
            uptri_quadratic, weight_quadratic, 0.005, 1.0, 1.0, uptri_window
        )
        assert 1.0 < seed.real < 1.5
        f = F_eps(uptri_quadratic, weight_quadratic, 0.005, seed)
        assert abs(f) <= on_curve_tolerance(uptri_quadratic)

    def test_no_crossing_raises(self, scalar_double_root, weight_linear):
        # level 1 set extends past this window's right edge along +1
        win = GridSpec(x_min=-1.5, x_max=3.5, y_min=-2.5, y_max=2.5, nx=11, ny=11)
        with pytest.raises(SeedNotFoundError, match="unbounded"):
            find_boundary_seed(scalar_double_root, weight_linear, 1.0, 1.0, 1.0, win)

    def test_positive_start_rejected(self, disc_pair, unit_weight):
        win = GridSpec(x_min=-2.0, x_max=2.0, y_min=-2.0, y_max=2.0, nx=11, ny=11)
        with pytest.raises(PreconditionError):
            find_boundary_seed(disc_pair, unit_weight, 0.25, 5.0, 1.0, win)


class TestTraceBoundary:
    def test_scalar_circle(self):
        P = MatrixPolynomial([[[-0.2]], [[1.0]]])  # lambda - 0.2, disc of radius eps
        w = WeightPolynomial([1.0])
        win = GridSpec(x_min=-1.0, x_max=1.4, y_min=-1.2, y_max=1.2, nx=11, ny=11)
        seed = find_boundary_seed(P, w, 0.5, 0.2, 1.0, win)
        curve = trace_boundary(P, w, 0.5, seed, win)
        assert curve.termination is Termination.closed
        assert curve.closed
        radii = np.abs(curve.points - 0.2)
        assert np.max(np.abs(radii - 0.5)) < 1e-6
        assert all(
            abs(F_eps(P, w, 0.5, z)) <= on_curve_tolerance(P) for z in curve.points
        )
        steps = np.abs(np.diff(curve.points))
        assert np.max(steps) <= 2 * win.diagonal / 500 + 1e-12
        # interior kept on the left means counterclockwise around the disc
        z = curve.points
        signed_area = 0.5 * np.sum(
            z.real[:-1] * z.imag[1:] - z.real[1:] * z.imag[:-1]
        )
        assert signed_area > 0
        assert not curve.interior_curve

    def test_corner_stops_tracing(self, scalar_double_root, weight_linear):
        # level-1 boundary of (l-1)^2 against 2|l|+1 has a corner at 0
        win = GridSpec(x_min=-1.5, x_max=3.5, y_min=-2.5, y_max=2.5, nx=11, ny=11)
        x = -0.05
        y = np.sqrt(2 + 2 * x - x * x - 2 * np.sqrt(2 * x + 1))
        seed = find_boundary_seed(
            scalar_double_root, weight_linear, 1.0, 1.0, complex(x, y) - 1.0, win
        )
        curve = trace_boundary(
            scalar_double_root, weight_linear, 1.0, seed, win, step_size=0.01
        )
        assert curve.termination is Termination.gradient_invalid
        assert abs(curve.points[-1]) < 0.05

    def test_near_merge_level_stops_at_crossing(
        self, uptri_quadratic, weight_quadratic, uptri_window
    ):
        sad = find_saddle(uptri_quadratic, weight_quadratic, 1.3, uptri_window)
        seed = find_boundary_seed(
            uptri_quadratic, weight_quadratic, sad.delta, 1.0, 1.0, uptri_window
        )
        curve = trace_boundary(uptri_quadratic, weight_quadratic, sad.delta, seed, uptri_window)
        assert curve.termination is Termination.gradient_invalid
        assert abs(curve.points[-1] - sad.mu) < 3 * uptri_window.diagonal / 500

    def test_off_curve_seed_rejected(self, disc_pair, unit_weight):
        win = GridSpec(x_min=-2.0, x_max=2.0, y_min=-2.0, y_max=2.0, nx=11, ny=11)
        with pytest.raises(PreconditionError):
            trace_boundary(disc_pair, unit_weight, 0.5, 0.9, win)

    def test_left_window(self):
        P = MatrixPolynomial([[[-0.0]], [[1.0]]])  # lambda; disc around 0
        w = WeightPolynomial([1.0])
        win = GridSpec(x_min=-0.3, x_max=0.6, y_min=-0.3, y_max=0.6, nx=11, ny=11)
        seed = find_boundary_seed(P, w, 0.5, 0.0, 1.0, win)
        curve = trace_boundary(P, w, 0.5, seed, win)
        assert curve.termination is Termination.left_window


class TestTraceCost:
    @pytest.mark.parametrize(
        "poly, weight, eps, window",
        [
            ("uptri_quadratic", "weight_quadratic", 0.005, "uptri_window"),
            ("damped_system", "weight_damped", 0.02, "damped_window"),
            ("conic_pencil", "unit_weight", 0.31622776601683794, None),
        ],
        ids=["uptri", "damped", "conic"],
    )
    def test_svds_per_traced_point(self, request, monkeypatch, poly, weight, eps, window):
        # each corrector iterate reads F_eps and its gradient from one SVD,
        # so a point costs about two SVDs (predicted point, converged point)
        P = request.getfixturevalue(poly)
        w = request.getfixturevalue(weight)
        if window is None:
            win = GridSpec(x_min=-2.0, x_max=2.5, y_min=-2.0, y_max=2.0, nx=241, ny=241)
        else:
            win = request.getfixturevalue(window)
        lam = eigenvalues(P).eigenvalues[0]
        seed = find_boundary_seed(P, w, eps, lam, 1.0, win)
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        curve = trace_boundary(P, w, eps, seed, win)
        monkeypatch.undo()
        assert curve.closed
        assert len(calls) / len(curve.points) < 3.5


def scan_merge_level(field, points, eps_lo):
    """Smallest field value above eps_lo at which the cells nearest
    ``points`` are 8-connected in the sublevel set, by a linear scan that
    adds the cells in increasing value order to a union-find."""
    values = field.values
    ny = values.shape[1]
    marked = [field.grid.nearest_index(complex(z)) for z in points]
    parent = {}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    order = np.argsort(values, axis=None, kind="stable")
    flat = values.ravel()
    for pos, idx in enumerate(order):
        cell = divmod(int(idx), ny)
        parent[cell] = cell
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                other = (cell[0] + di, cell[1] + dj)
                if other in parent:
                    parent[find(other)] = find(cell)
        level = flat[idx]
        if pos + 1 < len(order) and flat[order[pos + 1]] == level:
            continue  # a level's cells all join before it is read
        if level > eps_lo and all(m in parent for m in marked):
            if len({find(m) for m in marked}) == 1:
                return float(level)
    return None


class TestMergeEpsilon:
    @pytest.mark.parametrize("seed", range(6))
    def test_exact_level_on_random_fields(self, seed):
        # ties are common: the values are multiples of 1/30
        rng = np.random.default_rng(seed)
        grid = GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=15, ny=15)
        values = rng.integers(1, 30, size=(15, 15)) / 30.0
        cells = [(1, 2), (12, 11), (3, 13)][: 2 + seed % 2]
        for i, j in cells:
            values[i, j] = 0.0
        field = ScalarField(grid=grid, values=values)
        points = [complex(grid.xs()[i], grid.ys()[j]) for i, j in cells]
        got = merge_epsilon(field, points[:-1], points[-1:], 0.0, 1.0)
        assert got == scan_merge_level(field, points, 0.0)
        assert got in values

    def test_exact_level_on_uptri(self, uptri_field):
        got = merge_epsilon(uptri_field, [1.0], [2.0], 0.005, 0.02)
        assert got == scan_merge_level(uptri_field, [1.0, 2.0], 0.005)

    def test_one_labeling_per_level(self, uptri_field, monkeypatch):
        levels = []
        label = pseudospectrum.label_sublevel

        def counting(field, eps):
            levels.append(eps)
            return label(field, eps)

        monkeypatch.setattr(pseudospectrum, "label_sublevel", counting)
        merge_epsilon(uptri_field, [1.0], [2.0], 0.005, 0.02)
        assert len(levels) == len(set(levels))

    def test_uptri_merge_level(self, uptri_field):
        got = merge_epsilon(uptri_field, [1.0], [2.0], 0.005, 0.02)
        assert got == pytest.approx(0.0091, abs=2e-4)

    def test_disc_tangency(self, disc_pair, unit_weight):
        win = GridSpec(x_min=-2.0, x_max=2.0, y_min=-2.0, y_max=2.0, nx=201, ny=201)
        field = compute_field(disc_pair, unit_weight, win)
        got = merge_epsilon(field, [-1.0], [1.0], 0.8, 1.2)
        assert got == pytest.approx(1.0, abs=1e-4)

    def test_damped_upper_pair(self, damped_system, weight_damped, damped_window):
        field = compute_field(damped_system, weight_damped, damped_window)
        eigen = eigenvalues(damped_system)
        upper = sorted(
            (z for z in eigen.eigenvalues if z.imag > 0), key=lambda z: -z.imag
        )
        got = merge_epsilon(field, [upper[0]], [upper[1]], 0.02, 0.05)
        assert 0.02 < got < 0.05

    def test_bad_bracket(self, uptri_field):
        with pytest.raises(BracketError):
            merge_epsilon(uptri_field, [1.0], [2.0], 0.02, 0.03)
        with pytest.raises(BracketError):
            merge_epsilon(uptri_field, [1.0], [2.0], 0.002, 0.005)


class TestBoundedness:
    def test_unweighted_leading_always_bounded(self, disc_pair, unit_weight):
        assert boundedness_check(disc_pair, unit_weight, 1e9)

    def test_damped_threshold(self, damped_system, weight_damped):
        # ||P_2^{-1}|| = 1, w_2 = 5: bounded iff eps < 0.2
        assert boundedness_check(damped_system, weight_damped, 0.19)
        assert not boundedness_check(damped_system, weight_damped, 0.2)
        assert not boundedness_check(damped_system, weight_damped, 0.21)

    def test_monic_pencil(self):
        A = np.array([[0.0, 2.0], [0.0, 0.0]])
        P = MatrixPolynomial([A, np.eye(2)])
        assert boundedness_check(P, WeightPolynomial([1.0]), 123.0)


class TestLandscapeShape:
    def test_strict_local_minima_only_near_eigenvalues(self):
        # the inverted surface satisfies the maximum principle off the
        # spectrum, so grid minima of s_min/w must hug the eigenvalues
        rng = np.random.default_rng(29)
        P = random_polynomial(rng, 3, 1)
        w = random_weight(rng, 1)
        eigen = eigenvalues(P)
        win = default_window(P, w, nx=201, ny=201, eigen=eigen)
        field = compute_field(P, w, win)
        v = field.values
        interior = v[1:-1, 1:-1]
        strict_min = np.ones_like(interior, dtype=bool)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                strict_min &= interior < v[1 + di : v.shape[0] - 1 + di, 1 + dj : v.shape[1] - 1 + dj]
        cell = field.grid.cell_diagonal
        for i, j in np.argwhere(strict_min):
            lam = complex(field.grid.xs()[i + 1], field.grid.ys()[j + 1])
            assert np.min(np.abs(eigen.eigenvalues - lam)) <= 2 * cell

    def test_random_members_stay_inside(self, uptri_quadratic, weight_quadratic, uptri_field):
        # every eigenvalue of a ball member lands in a sublevel grid cell
        rng = np.random.default_rng(41)
        eps = 0.01
        P, w = uptri_quadratic, weight_quadratic
        field = uptri_field
        for _ in range(20):
            deltas = []
            for j in range(P.m + 1):
                D = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                target = rng.uniform(0, eps * w.weights[j])
                D *= target / np.linalg.norm(D, 2)
                deltas.append(D)
            Q = MatrixPolynomial([C + D for C, D in zip(P.coeffs, deltas)])
            for lam in eigenvalues(Q).eigenvalues:
                i, j = field.grid.nearest_index(lam)
                i2 = slice(max(i - 1, 0), min(i + 2, field.grid.nx))
                j2 = slice(max(j - 1, 0), min(j + 2, field.grid.ny))
                neighborhood = field.values[i2, j2]
                slack = np.max(neighborhood) - np.min(neighborhood)
                assert field.value_near(lam) <= eps + 2 * slack + 1e-12
