import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from polyspectra import (
    GridSpec,
    GridTooCoarseError,
    MatrixPolynomial,
    NotFoundWithinBudgetError,
    PreconditionError,
    ScalarField,
    Termination,
    WeightPolynomial,
    boundary_curves,
    boundedness_check,
    components,
    compute_field,
    default_window,
    eigenvalues,
    merge_bracket,
    s_min,
    weight_eval,
)
from polyspectra import pseudospectrum
from polyspectra.cli import main, parse_problem
from polyspectra.contours import on_curve_tolerance
from polyspectra.pseudospectrum import MAX_GRID_POINTS, label_sublevel
from polyspectra.svdcore import F_eps, singular_values_many

from conftest import random_polynomial, random_weight

FIXTURE_FILES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))


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

    @pytest.mark.parametrize(
        "name", ["uptri_quadratic_2x2", "damped_system_3x3", "scalar_double_root"]
    )
    def test_values_are_point_ratios_bit_for_bit(self, name):
        # |lambda| is rounded as abs() rounds it, at every grid point
        spec = parse_problem((FIXTURE_FILES[0].parent / f"{name}.json").read_text())
        P, w = spec.polynomial, spec.weight
        grid = replace(spec.window, nx=40, ny=50)
        want = [s_min(P, z) / weight_eval(w, abs(z)) for z in grid.points().flat]
        values = compute_field(P, w, grid).values
        assert values.reshape(-1).tobytes() == np.array(want).tobytes()


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


def fixture_trace(path, levels=None):
    """The polished boundary of a fixture at its own levels, on its own grid."""
    spec = parse_problem(path.read_text())
    P, w, window = spec.polynomial, spec.weight, spec.window
    levels = spec.epsilons if levels is None else levels
    return spec, boundary_curves(P, w, compute_field(P, w, window), levels)


def direct_F(spec, eps: float, z: np.ndarray) -> np.ndarray:
    """F_eps at the points z by one direct SVD of sum_j P_j z**j each, with
    explicit powers."""
    P, w = spec.polynomial, spec.weight
    A = sum(C * z[:, None, None] ** j for j, C in enumerate(P.coeffs))
    smallest = np.linalg.svd(A, compute_uv=False)[:, -1]
    r = np.abs(z)
    return smallest - eps * sum(c * r**j for j, c in enumerate(w.weights))


class TestTraceBoundary:
    def test_scalar_circle(self):
        P = MatrixPolynomial([[[-0.2]], [[1.0]]])  # lambda - 0.2, disc of radius eps
        w = WeightPolynomial([1.0])
        win = GridSpec(x_min=-1.0, x_max=1.4, y_min=-1.2, y_max=1.2, nx=41, ny=41)
        trace = boundary_curves(P, w, compute_field(P, w, win), [0.5])
        [[curve]] = trace.curves
        assert curve.termination is Termination.closed
        assert curve.closed and curve.points[0] == curve.points[-1]
        radii = np.abs(curve.points - 0.2)
        assert np.max(np.abs(radii - 0.5)) < 1e-9
        assert all(
            abs(F_eps(P, w, 0.5, z)) <= on_curve_tolerance(P) for z in curve.points
        )
        # points lie about one cell apart
        assert np.max(np.abs(np.diff(curve.points))) <= win.cell_diagonal
        # interior kept on the left means counterclockwise around the disc
        z = curve.points
        signed_area = 0.5 * np.sum(
            z.real[:-1] * z.imag[1:] - z.real[1:] * z.imag[:-1]
        )
        assert signed_area == pytest.approx(np.pi * 0.25, rel=1e-2)
        assert trace.frozen == 0

    def test_corner_stops_tracing(self):
        # at eps = 1 the boundary of diag(l^2 - 1, l^2 - 2l) turns corners
        # where |l^2 - 1| = |l^2 - 2l| = 1 and s_min is double: on the fault
        # line Re l = 1/2, where the polish freezes the vertices, and at
        # 1.31 +- 0.29i and -0.31 +- 0.29i, where the segment between the
        # two sides is a jump.  Every piece ends next to a corner: there the
        # larger singular value is near eps too.
        path = next(p for p in FIXTURE_FILES if p.stem == "diag_quadratic_pair_2x2")
        spec, trace = fixture_trace(path, [1.0])
        h = spec.window.cell_diagonal
        assert trace.frozen > 0
        assert len(trace.curves[0]) == 6
        for curve in trace.curves[0]:
            assert curve.termination is Termination.gradient_invalid
            ends = np.array([curve.points[0], curve.points[-1]])
            larger = singular_values_many(spec.polynomial, ends)[:, 0]
            assert np.all(larger - 1.0 <= 3 * h)
        ends = [c.points[k] for c in trace.curves[0] for k in (0, -1)]
        assert sum(abs(z.real - 0.5) <= h for z in ends) == 4

    def test_off_curve_seed_rejected(self, disc_pair, tmp_path, capsys):
        doc = {
            "n": 2, "m": 1,
            "coefficients": [{"re": C.real.tolist()} for C in disc_pair.coeffs],
            "window": {"x_min": -2.0, "x_max": 2.0, "y_min": -2.0, "y_max": 2.0,
                       "nx": 11, "ny": 11},
        }
        problem = tmp_path / "discs.json"
        problem.write_text(json.dumps(doc))
        argv = ["trace", "--input", str(problem), "--eps", "0.5"]
        assert main([*argv, "--seed", "0.9", "0"]) == 4
        assert "not on the eps=0.5 curve" in capsys.readouterr().err
        assert main([*argv, "--seed", "1.5", "0"]) == 0

    def test_left_window(self):
        P = MatrixPolynomial([[[-0.0]], [[1.0]]])  # lambda; disc around 0
        w = WeightPolynomial([1.0])
        win = GridSpec(x_min=-0.3, x_max=0.6, y_min=-0.3, y_max=0.6, nx=11, ny=11)
        [[curve]] = boundary_curves(P, w, compute_field(P, w, win), [0.5]).curves
        assert curve.termination is Termination.left_window
        # counterclockwise from the bottom edge to the left one, polished
        # onto the circle from the edge crossings
        start, end = curve.points[0], curve.points[-1]
        assert start == pytest.approx(0.4 - 0.3j, abs=0.1 * win.cell_diagonal)
        assert end == pytest.approx(-0.3 + 0.4j, abs=0.1 * win.cell_diagonal)

    def test_unreached_boundary_gets_a_curve(self):
        # at eps = 1 no axis ray from the double root 1 meets the boundary
        # inside the window, which the field's contours still find
        path = next(p for p in FIXTURE_FILES if p.stem == "scalar_double_root")
        spec, trace = fixture_trace(path)
        assert all(trace.curves)
        assert trace.curves[spec.epsilons.index(1.0)]

    @pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.stem)
    def test_every_point_is_on_the_curve(self, path):
        spec, trace = fixture_trace(path)
        tol = on_curve_tolerance(spec.polynomial)
        for eps, curves in zip(spec.epsilons, trace.curves):
            for curve in curves:
                assert np.max(np.abs(direct_F(spec, eps, curve.points))) <= tol


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
        # a vertex costs one SVD with vectors per Newton round, and most
        # reach the curve in two or three
        P = request.getfixturevalue(poly)
        w = request.getfixturevalue(weight)
        if window is None:
            win = GridSpec(x_min=-2.0, x_max=2.5, y_min=-2.0, y_max=2.0, nx=241, ny=241)
        else:
            win = request.getfixturevalue(window)
        field = compute_field(P, w, win)
        decomposed = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            if kwargs.get("compute_uv", True):
                decomposed.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        trace = boundary_curves(P, w, field, [eps])
        monkeypatch.undo()
        points = sum(len(c.points) for c in trace.curves[0])
        assert all(c.closed for c in trace.curves[0])
        assert sum(decomposed) == trace.points
        assert trace.points / points < 3.5


def scan_merge_level(field, points, eps_lo):
    """Smallest field value above eps_lo at which the cells nearest two of
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
        roots = [find(m) for m in marked if m in parent]
        if level > eps_lo and len(set(roots)) < len(roots):
            return float(level)
    return None


class TestMergeBracket:
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
        below, got, (a, b, label) = merge_bracket(field, points, 0.0, 1.0)
        assert got == scan_merge_level(field, points, 0.0)
        assert got in values
        assert below < got and not np.any((values > below) & (values < got))
        labels, _ = label_sublevel(field, got)
        assert labels[grid.nearest_index(a)] == labels[grid.nearest_index(b)] == label != 0

    def test_exact_level_on_uptri(self, uptri_field):
        got = merge_bracket(uptri_field, [1.0, 2.0], 0.005, 0.02)[1]
        assert got == scan_merge_level(uptri_field, [1.0, 2.0], 0.005)

    def test_one_labeling_per_level(self, uptri_field, monkeypatch):
        # every level tested, the merge level's pair lookup included, is
        # labeled once: each call labels a different sublevel set
        sizes = []
        label = pseudospectrum.labels_at

        def counting(mask, nodes):
            sizes.append(int(np.count_nonzero(mask)))
            return label(mask, nodes)

        monkeypatch.setattr(pseudospectrum, "labels_at", counting)
        _, level, _ = merge_bracket(uptri_field, [1.0, 2.0], 0.005, 0.02)
        assert len(sizes) == len(set(sizes))
        assert int(np.count_nonzero(uptri_field.values <= level)) in sizes

    def test_uptri_merge_level(self, uptri_field):
        got = merge_bracket(uptri_field, [1.0, 2.0], 0.005, 0.02)[1]
        assert got == pytest.approx(0.0091, abs=2e-4)

    def test_disc_tangency(self, disc_pair, unit_weight):
        win = GridSpec(x_min=-2.0, x_max=2.0, y_min=-2.0, y_max=2.0, nx=201, ny=201)
        field = compute_field(disc_pair, unit_weight, win)
        got = merge_bracket(field, [-1.0, 1.0], 0.8, 1.2)[1]
        assert got == pytest.approx(1.0, abs=1e-4)

    def test_damped_upper_pair(self, damped_system, weight_damped, damped_window):
        field = compute_field(damped_system, weight_damped, damped_window)
        eigen = eigenvalues(damped_system)
        upper = sorted(
            (z for z in eigen.eigenvalues if z.imag > 0), key=lambda z: -z.imag
        )
        got = merge_bracket(field, [upper[0], upper[1]], 0.02, 0.05)[1]
        assert 0.02 < got < 0.05

    def test_bad_bracket(self, uptri_field):
        with pytest.raises(GridTooCoarseError, match="already merged"):
            merge_bracket(uptri_field, [1.0, 2.0], 0.02, 0.03)
        with pytest.raises(GridTooCoarseError, match="already merged"):
            merge_bracket(uptri_field, [1.0, 2.0], 0.02, 0.02)
        with pytest.raises(NotFoundWithinBudgetError, match="separate components"):
            merge_bracket(uptri_field, [1.0, 2.0], 0.002, 0.005)
        with pytest.raises(PreconditionError, match="outside the window"):
            merge_bracket(uptri_field, [1.0, 2.0, 3.5], 0.005, 0.02)


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
