import decimal
import sys
import threading
import tracemalloc
import weakref
from decimal import Decimal

import mpmath
import numpy as np
import pytest

from polyspectra import (
    F_eps,
    GridSpec,
    MatrixPolynomial,
    PreconditionError,
    WeightPolynomial,
    build_surface_map,
    collapsed_gap,
    eigenvalues,
    evaluate,
    s_min,
    singular_triplets,
    svdcore,
    weight_deriv_eval,
    weight_eval,
)
from polyspectra.matpoly import eigenvalue_residual_scale, evaluate_many
from polyspectra.perturbations import _ratio_stack
from polyspectra.svdcore import point_stack, singular_values_many, surface_gap

from conftest import random_polynomial, random_weight

MU = 1.4145
UNIT = WeightPolynomial([1.0])


def fd_gradient(P, lam, h=1e-6):
    """Independent oracle: central differences of the smallest singular value."""
    return np.array(
        [
            (s_min(P, lam + h) - s_min(P, lam - h)) / (2 * h),
            (s_min(P, lam + 1j * h) - s_min(P, lam - 1j * h)) / (2 * h),
        ]
    )


class TestSingularTriplets:
    def test_conic_pencil_double_value(self, conic_pencil):
        trip = singular_triplets(conic_pencil, 0.0)
        assert trip.values[1] == pytest.approx(np.sqrt(5 / 16), abs=1e-10)
        assert trip.values[2] == pytest.approx(np.sqrt(5 / 16), abs=1e-10)

    def test_uptri_reference_values(self, uptri_quadratic):
        trip = singular_triplets(uptri_quadratic, MU)
        assert trip.values[0] == pytest.approx(1.4650, abs=5e-4)
        assert trip.values[1] == pytest.approx(0.0402, abs=5e-4)

    def test_zero_matrix(self):
        P = MatrixPolynomial([np.zeros((2, 2))])
        assert np.all(singular_triplets(P, 1.0).values == 0.0)

    def test_triplet_relations(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            P = random_polynomial(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
            lam = complex(rng.normal(), rng.normal())
            trip = singular_triplets(P, lam)
            A = evaluate(P, lam)
            s1 = trip.values[0]
            assert np.all(np.diff(trip.values) <= 1e-12 * (1 + s1))
            for j in range(P.n):
                resid = A @ trip.right[:, j] - trip.values[j] * trip.left[:, j]
                assert np.linalg.norm(resid) <= 1e-10 * max(s1, 1e-300)
            assert np.linalg.norm(trip.left.conj().T @ trip.left - np.eye(P.n)) < 1e-10
            assert np.linalg.norm(trip.right.conj().T @ trip.right - np.eye(P.n)) < 1e-10

    def test_phase_normalization(self):
        rng = np.random.default_rng(6)
        P = random_polynomial(rng, 3, 2)
        trip = singular_triplets(P, 0.7 - 0.3j)
        for j in range(3):
            v = trip.right[:, j]
            k = np.argmax(np.abs(v))
            assert v[k].imag == pytest.approx(0.0, abs=1e-14)
            assert v[k].real > 0


class TestSMin:
    def test_eigenvalue_gives_zero(self, uptri_quadratic):
        assert s_min(uptri_quadratic, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_reference_value(self, uptri_quadratic):
        assert s_min(uptri_quadratic, MU) == pytest.approx(0.0402, abs=5e-4)

    def test_scalar_distance(self):
        P = MatrixPolynomial([[[-2.0]], [[1.0]]])  # lambda - 2
        lam = 0.5 + 1.0j
        assert s_min(P, lam) == pytest.approx(abs(lam - 2), rel=1e-12)

    def test_weyl_continuity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            P = random_polynomial(rng, 3, 2)
            a = complex(rng.normal(), rng.normal())
            b = a + 0.1 * complex(rng.normal(), rng.normal())
            bound = np.linalg.norm(evaluate(P, a) - evaluate(P, b), 2)
            assert abs(s_min(P, a) - s_min(P, b)) <= bound + 1e-12

    def test_eigenvalue_characterization(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            P = random_polynomial(rng, int(rng.integers(2, 4)), int(rng.integers(1, 3)))
            for lam in eigenvalues(P).eigenvalues:
                assert s_min(P, lam) < 1e-8 * eigenvalue_residual_scale(P, lam)


class TestLevelFunction:
    def test_near_zero_at_reference_point(self, uptri_quadratic, weight_quadratic):
        assert abs(F_eps(uptri_quadratic, weight_quadratic, 0.0091, MU)) < 5e-4

    def test_negative_at_eigenvalue(self, uptri_quadratic, weight_quadratic):
        eps = 0.37
        expected = -eps * weight_eval(weight_quadratic, 1.0)
        assert F_eps(uptri_quadratic, weight_quadratic, eps, 1.0) == pytest.approx(
            expected, abs=1e-10
        )

    def test_scalar_double_root_value(self, scalar_double_root, weight_linear):
        # |3-1|^2 - w(3) = 4 - 7
        assert F_eps(scalar_double_root, weight_linear, 1.0, 3.0) == pytest.approx(
            -3.0, abs=1e-12
        )

    def test_strictly_monotone_in_eps(self, uptri_quadratic, weight_quadratic):
        rng = np.random.default_rng(9)
        for _ in range(10):
            lam = complex(rng.uniform(0, 3), rng.uniform(-1, 1))
            f1 = F_eps(uptri_quadratic, weight_quadratic, 0.01, lam)
            f2 = F_eps(uptri_quadratic, weight_quadratic, 0.02, lam)
            assert f1 > f2

    def test_negative_eps_rejected(self, uptri_quadratic, weight_quadratic):
        with pytest.raises(PreconditionError):
            F_eps(uptri_quadratic, weight_quadratic, -0.1, 0.0)

    @pytest.mark.parametrize(
        "poly, weight",
        [("scalar_double_root", "weight_linear"), ("damped_system", "weight_damped")],
    )
    def test_array_matches_points_bitwise(self, request, poly, weight):
        # one call on an array gives each point's value to the last bit,
        # |lambda| included, and keeps the array's shape
        P, w = request.getfixturevalue(poly), request.getfixturevalue(weight)
        rng = np.random.default_rng(10)
        lams = (rng.uniform(-3, 3, 2000) + 1j * rng.uniform(-3, 3, 2000)).reshape(40, 50)
        got = F_eps(P, w, 0.3, lams)
        assert got.shape == lams.shape
        want = np.array([[F_eps(P, w, 0.3, z) for z in row] for row in lams])
        assert got.tobytes() == want.tobytes()
        assert np.all(want.reshape(-1) == [s_min(P, z) - 0.3 * w(abs(z)) for z in lams.flat])


class TestGradSMin:
    def test_uptri_matches_weight_gradient(self, uptri_quadratic, weight_quadratic):
        # at the merge point the level gradient vanishes, so the surface
        # gradient equals delta * w'(|mu|) in the radial direction
        delta = s_min(uptri_quadratic, MU) / weight_eval(weight_quadratic, MU)
        expected = delta * weight_deriv_eval(weight_quadratic, MU)
        (g,) = point_stack(uptri_quadratic, UNIT, [MU]).grad_F(0.0)
        assert not np.isnan(g).any()
        assert g[0] == pytest.approx(expected, abs=2e-3)
        assert g[1] == pytest.approx(0.0, abs=2e-3)

    def test_conic_pencil_invalid_at_origin(self, conic_pencil):
        pe = point_stack(conic_pencil, UNIT, [0.0])
        assert np.isnan(pe.grad_F(0.0)).all()
        assert pe.gap[0] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_distance_gradient(self):
        P = MatrixPolynomial([[[-2.0]], [[1.0]]])
        (g,) = point_stack(P, UNIT, [3.0]).grad_F(0.0)
        assert not np.isnan(g).any()
        assert (g[0], g[1]) == (pytest.approx(1.0, abs=1e-12), pytest.approx(0.0, abs=1e-12))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 40:
            P = random_polynomial(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
            lam = complex(rng.normal(), rng.normal())
            pe = point_stack(P, UNIT, [lam])
            (g,) = pe.grad_F(0.0)
            if np.isnan(g).any() or pe.gap[0] <= 1e-3 or s_min(P, lam) <= 1e-3:
                continue
            fd = fd_gradient(P, lam)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(
                1.0, np.linalg.norm(fd)
            )
            checked += 1


class TestWeightedGradients:
    @pytest.mark.parametrize("which", ["grad_F", "ratio"])
    def test_matches_finite_differences(self, which):
        # same loop as for the unweighted gradient, now with the w'(r) lambda / r term
        # of a non-constant weight
        rng = np.random.default_rng(11)
        h = 1e-6
        checked = 0
        while checked < 40:
            m = int(rng.integers(1, 4))
            P = random_polynomial(rng, int(rng.integers(1, 5)), m)
            w = random_weight(rng, m)
            eps = float(rng.uniform(0.1, 1.0))
            lam = complex(rng.normal(), rng.normal())
            pe, _, grad_ratio = _ratio_stack(P, w, [lam])
            if not pe.smooth[0] or pe.gap[0] <= 1e-3 or pe.s[0, -1] <= 1e-3:
                continue
            if which == "grad_F":
                got = pe.grad_F(eps)[0]

                def f(z):
                    return F_eps(P, w, eps, z)

            else:
                got = grad_ratio[0]

                def f(z):
                    return s_min(P, z) / weight_eval(w, abs(z))

            fd = np.array(
                [(f(lam + h) - f(lam - h)) / (2 * h), (f(lam + 1j * h) - f(lam - 1j * h)) / (2 * h)]
            )
            assert np.linalg.norm(got - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))
            checked += 1


class TestGradF:
    def test_vanishes_at_merge_point(self, uptri_quadratic, weight_quadratic):
        (g,) = point_stack(uptri_quadratic, weight_quadratic, [MU]).grad_F(0.0091)
        assert not np.isnan(g).any()
        assert abs(g[0]) < 2e-3 and abs(g[1]) < 2e-3

    def test_invalid_at_origin_with_nonconstant_weight(
        self, scalar_double_root, weight_linear
    ):
        assert np.isnan(point_stack(scalar_double_root, weight_linear, [0.0]).grad_F(1.0)).all()

    def test_constant_weight_at_origin_keeps_validity(self):
        P = MatrixPolynomial([[[-2.0]], [[1.0]]])
        assert not np.isnan(point_stack(P, UNIT, [0.0]).grad_F(0.5)).any()

    def test_constant_weight_drops_weight_term(self):
        P = MatrixPolynomial([[[-2.0]], [[1.0]]])
        (g,) = point_stack(P, UNIT, [3.0]).grad_F(0.5)
        assert (g[0], g[1]) == (pytest.approx(1.0, abs=1e-12), pytest.approx(0.0, abs=1e-12))

    def test_nan_exactly_where_the_gradient_of_the_ratio_is_nan(
        self, conic_pencil, scalar_double_root, weight_linear, uptri_quadratic, weight_quadratic
    ):
        untrusted = [
            _ratio_stack(conic_pencil, UNIT, [0.0]),  # s_min is a double value
            _ratio_stack(scalar_double_root, weight_linear, [0.0]),  # the origin
            _ratio_stack(uptri_quadratic, weight_quadratic, [1.0]),  # an eigenvalue
        ]
        for pe, _, grad_ratio in untrusted:
            assert np.isnan(pe.grad_F(0.3)).all() and np.isnan(grad_ratio).all()
        pe, _, grad_ratio = _ratio_stack(uptri_quadratic, weight_quadratic, [MU])
        assert not np.isnan(pe.grad_F(0.3)).any() and not np.isnan(grad_ratio).any()


class TestGap:
    def test_conic_pencil_zero(self, conic_pencil):
        values = singular_values_many(conic_pencil, 0.0)
        assert surface_gap(values, 3, 2) == pytest.approx(0.0, abs=1e-12)

    def test_movable_eigenvalue_critical(self, diag_movable):
        values = singular_values_many(diag_movable, 1.0)
        assert surface_gap(values, 2, 1) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_moduli(self):
        P = MatrixPolynomial([np.diag([-1.0, 1.0]), np.eye(2)])
        assert surface_gap(singular_values_many(P, 5.0), 2, 1) == pytest.approx(2.0, rel=1e-12)


class TestValuesPath:
    """``singular_values_many`` is the one values-only SVD of P(lambda)."""

    CHUNK_BYTES = 4 << 20

    @pytest.fixture
    def wide(self):
        rng = np.random.default_rng(16)
        return random_polynomial(rng, 16, 2)

    def test_chunks_hold_at_most_the_byte_budget(self, wide, monkeypatch):
        blocks = []
        original = svdcore.evaluate_many

        def recording(P, lams):
            out = original(P, lams)
            blocks.append(out.nbytes)
            return out

        monkeypatch.setattr(svdcore, "evaluate_many", recording)
        grid = GridSpec(x_min=-2, x_max=2, y_min=-2, y_max=2, nx=50, ny=50)
        values = singular_values_many(wide, grid.points())
        assert values.shape == (50, 50, 16)
        assert len(blocks) >= 3
        assert max(blocks) <= self.CHUNK_BYTES
        assert sum(blocks) == 50 * 50 * 16 * 16 * 16

    def test_multi_chunk_rows_equal_single_points(self, wide):
        rng = np.random.default_rng(17)
        lams = rng.normal(size=2500) + 1j * rng.normal(size=2500)
        batched = singular_values_many(wide, lams)
        for lam, row in zip(lams, batched):
            assert np.array_equal(singular_values_many(wide, lam), row)
            direct = np.linalg.svd(evaluate(wide, lam), compute_uv=False)
            assert np.array_equal(direct, row)

    def test_scalar_point_gives_one_row(self, uptri_quadratic, wide):
        assert singular_values_many(uptri_quadratic, 1.4145).shape == (2,)
        assert singular_values_many(wide, 0.3 - 1j).shape == (16,)
        assert singular_values_many(wide, [0.3 - 1j]).shape == (1, 16)

    def test_point_queries_equal_batched_entries(self, conic_pencil):
        rng = np.random.default_rng(18)
        lams = rng.normal(size=40) + 1j * rng.normal(size=40)
        batched = singular_values_many(conic_pencil, lams)
        window = GridSpec(x_min=-2, x_max=2, y_min=-2, y_max=2, nx=5, ny=5)
        smap = build_surface_map(conic_pencil, window)
        for lam, row in zip(lams, batched):
            assert s_min(conic_pencil, lam) == row[-1]
            assert surface_gap(singular_values_many(conic_pencil, lam), 3, 2) == row[-2] - row[-1]
            assert collapsed_gap(conic_pencil, lam, smap) == row[smap.c2 - 1] - row[smap.c1 - 1]


class TestPooledPath:
    """Chunks are evaluated on the calling thread and decomposed by a pool."""

    @staticmethod
    def chunk(n, workers):
        return svdcore._CHUNK_BYTES // (16 * n * n * (workers + 1))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_bitwise_equal_to_one_serial_call(self, n, workers, monkeypatch):
        monkeypatch.setattr(svdcore, "_WORKERS", workers)
        rng = np.random.default_rng(100 + n)
        P = random_polynomial(rng, n, 2)
        chunk = self.chunk(n, workers)
        count = 2 * chunk + chunk // 3 + 1
        assert count % chunk != 0
        lams = rng.normal(size=count) + 1j * rng.normal(size=count)
        reference = svdcore._svals(evaluate_many(P, lams))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads as often as possible
        try:
            pooled = singular_values_many(P, lams)
        finally:
            sys.setswitchinterval(interval)
        assert pooled.tobytes() == reference.tobytes()

    def test_nan_coefficient_raises_without_hanging(self, monkeypatch):
        monkeypatch.setattr(svdcore, "_WORKERS", 2)
        P = MatrixPolynomial([np.full((4, 4), np.nan), np.eye(4)])
        lams = np.linspace(-1, 1, 5 * self.chunk(4, 2)) + 0.5j
        caught = []

        def call():
            try:
                singular_values_many(P, lams)
            except np.linalg.LinAlgError as exc:
                caught.append(exc)

        worker = threading.Thread(target=call, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert len(caught) == 1

    def test_no_thread_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(svdcore, "_WORKERS", 3)
        rng = np.random.default_rng(19)
        P = random_polynomial(rng, 16, 2)
        before = threading.active_count()
        values = singular_values_many(P, rng.normal(size=4 * self.chunk(16, 3)))
        assert values.shape[0] == 4 * self.chunk(16, 3)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_blocks_alive_at_once_fit_the_budget(self, workers, monkeypatch):
        monkeypatch.setattr(svdcore, "_WORKERS", workers)
        live, peak = [0], [0]
        lock = threading.Lock()
        original = svdcore.evaluate_many

        def release(nbytes):
            with lock:
                live[0] -= nbytes

        def recording(P, lams):
            out = original(P, lams)
            with lock:
                live[0] += out.nbytes
                peak[0] = max(peak[0], live[0])
            weakref.finalize(out, release, out.nbytes)
            return out

        monkeypatch.setattr(svdcore, "evaluate_many", recording)
        rng = np.random.default_rng(20)
        P = random_polynomial(rng, 16, 2)
        singular_values_many(P, rng.normal(size=10 * self.chunk(16, workers)))
        assert self.chunk(16, workers) * 16 * 16 * 16 <= peak[0] <= svdcore._CHUNK_BYTES


class TestGridPath:
    """``singular_values_grid`` forms each chunk's points from the axes and
    keeps only the columns asked for, with ``singular_values_many``'s bits."""

    @staticmethod
    def reference(P, xs, ys, columns):
        # the points as GridSpec.points() forms them
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return singular_values_many(P, X + 1j * Y)[..., list(columns)]

    @pytest.mark.parametrize(
        ("n", "columns"), [(1, (0,)), (2, (1,)), (2, (0, 1)), (3, (1, 2)), (3, (1, 2, 2)), (16, (15, 3, 0))]
    )
    def test_bitwise_equal_to_the_columns_of_the_values_path(self, n, columns):
        rng = np.random.default_rng(200 + n)
        P = random_polynomial(rng, n, 2)
        chunk = svdcore._chunk_points(n)
        nx = int(np.sqrt(chunk)) + 3
        ny = nx + 1
        assert (nx * ny) % chunk != 0 and nx * ny > chunk
        for shape in ((nx, ny), (1, ny), (nx, 1), (1, chunk + 7), (chunk + 7, 1), (5, 7)):
            xs = np.linspace(-1.5, 2.0, shape[0])
            ys = np.linspace(-2.0, 1.0, shape[1])
            values = svdcore.singular_values_grid(P, xs, ys, columns)
            assert values.shape == shape + (len(columns),)
            assert values.tobytes() == self.reference(P, xs, ys, columns).tobytes()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_the_pool_path_is_bitwise_equal(self, workers, monkeypatch):
        monkeypatch.setattr(svdcore, "_WORKERS", workers)
        rng = np.random.default_rng(210)
        P = random_polynomial(rng, 16, 2)
        xs, ys = np.linspace(-1, 1, 53), np.linspace(-2, 2, 41)
        assert 53 * 41 > 3 * svdcore._chunk_points(16)
        values = svdcore.singular_values_grid(P, xs, ys, (15, 0))
        assert values.tobytes() == self.reference(P, xs, ys, (15, 0)).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_every_evaluation_holds_at_most_one_chunk(self, n, monkeypatch):
        sizes = []
        original = svdcore.evaluate_many

        def recording(P, lams):
            sizes.append(np.size(lams))
            return original(P, lams)

        monkeypatch.setattr(svdcore, "evaluate_many", recording)
        rng = np.random.default_rng(220 + n)
        P = random_polynomial(rng, n, 1)
        chunk = svdcore._chunk_points(n)
        nx = int(np.sqrt(2 * chunk)) + 1
        xs, ys = np.linspace(-1, 1, nx), np.linspace(-1, 1, nx + 2)
        svdcore.singular_values_grid(P, xs, ys, (n - 1,))
        assert len(sizes) >= 2
        assert max(sizes) <= chunk
        assert sum(sizes) == nx * (nx + 2)


def pytest_generate_tests(metafunc):
    # each kernel class names the stack kinds its accuracy tests run on
    if "kind" in metafunc.fixturenames:
        metafunc.parametrize("kind", metafunc.cls.KINDS)


class KernelChecks:
    """Checks shared by the numpy kernels of ``_svals``; a subclass sets
    ``N``, the stack kinds, the polynomial of its grid and the reference."""

    N: int
    EPS = np.finfo(float).eps  # u in the bounds below: the spacing of doubles at 1
    UNSCALED = ["random", "nearly_singular", "nearly_equal", "zero_first_column", "zero", "rank_one"]
    SCALES = [1e150, 1e-150, 1e300, 1e-300]
    POLYNOMIAL: str
    GRID: GridSpec

    @classmethod
    def stack(cls, kind, k, seed=30):
        rng = np.random.default_rng(seed)
        n = cls.N
        Z = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
        if kind in ("nearly_singular", "nearly_equal", "double_s_min"):
            # U diag(1, ..., last) V*: s_n near 0, s_n near s_1, or (n = 3)
            # s_2 = s_3
            S = np.zeros((k, n, n))
            S[:, 0, 0] = 1.0
            t = rng.random(k)
            if n == 3:
                S[:, 1, 1] = t if kind == "double_s_min" else rng.random(k)
            last = {"nearly_singular": 1e-14 * t, "nearly_equal": 1.0 - 1e-13 * t}
            S[:, -1, -1] = last.get(kind, t)
            U = np.linalg.qr(Z)[0]
            V = np.linalg.qr(rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n)))[0]
            return U @ S @ V
        if kind == "zero_first_column":
            Z[:, :, 0] = 0.0
        elif kind == "zero_middle_column":
            Z[:, :, 1] = 0.0
        elif kind == "zero":
            Z[...] = 0.0
        elif kind == "rank_one":
            Z = Z[:, :, :1] @ Z[:, :1, :]
        elif not isinstance(kind, str):
            Z = Z * kind
        return Z

    def assert_within(self, got, ref, ulps):
        scale = self.EPS * ref[:, :1]
        assert np.all(np.abs(got - ref) <= ulps * scale)

    def check_reference(self, kind, ulps):
        A = self.stack(kind, 300)
        got = svdcore._svals(A)
        assert np.all(np.isfinite(got)) and np.all(np.diff(got, axis=1) <= 0)
        self.assert_within(got, self.exact(A), ulps)

    @pytest.mark.parametrize("power", [1000, 500, -500, -1000])
    def test_power_of_two_scaling_is_exact(self, power):
        A = self.stack("random", 500)
        assert np.array_equal(svdcore._svals(A * 2.0**power), svdcore._svals(A) * 2.0**power)

    def test_a_matrix_gets_the_same_bits_in_any_stack(self):
        A = self.stack("random", 600).reshape(20, 30, self.N, self.N)
        stacked = svdcore._svals(A)
        assert stacked.shape == (20, 30, self.N)
        for idx in np.ndindex(20, 30):
            assert svdcore._svals(A[idx]).tobytes() == stacked[idx].tobytes()

    def test_an_empty_stack_gives_no_rows(self):
        assert svdcore._svals(np.zeros((0, self.N, self.N), dtype=complex)).shape == (0, self.N)

    def test_grid_values_equal_each_point_alone(self, request):
        P = request.getfixturevalue(self.POLYNOMIAL)
        assert self.GRID.nx * self.GRID.ny > 8 * svdcore._chunk_points(self.N)
        points = self.GRID.points()
        values = singular_values_many(P, points)
        for idx in list(np.ndindex(self.GRID.ny, self.GRID.nx))[::97]:
            alone = singular_values_many(P, points[idx])
            assert alone.tobytes() == values[idx].tobytes()

    def test_work_arrays_fit_kernel_bytes(self):
        A = self.stack("random", svdcore._chunk_points(self.N))
        tracemalloc.start()
        try:
            values = svdcore._svals(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - values.nbytes <= svdcore._KERNEL_BYTES[self.N] * len(A)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_chunks_and_work_arrays_fit_the_budget(self, workers, request, monkeypatch):
        monkeypatch.setattr(svdcore, "_WORKERS", workers)
        P = request.getfixturevalue(self.POLYNOMIAL)
        rng = np.random.default_rng(31)
        lams = rng.normal(size=10 * svdcore._chunk_points(self.N)) + 1j * rng.normal()
        tracemalloc.start()
        try:
            values = singular_values_many(P, lams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - values.nbytes <= svdcore._CHUNK_BYTES

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_raise(self, bad):
        # as gesdd does for NaN; LAPACK returns NaN values for an infinite entry
        P = MatrixPolynomial([np.full((self.N, self.N), bad), np.eye(self.N)])
        lams = np.linspace(-1, 1, 3 * svdcore._chunk_points(self.N)) + 0.5j
        for points in (lams, lams[0]):  # several chunks, and one
            with pytest.raises(np.linalg.LinAlgError):
                singular_values_many(P, points)


class TestModulus(KernelChecks):
    """At n = 1 ``_svals`` takes the modulus of the one entry."""

    N = 1
    KINDS = KernelChecks.UNSCALED + KernelChecks.SCALES
    POLYNOMIAL = "scalar_double_root"
    # more than eight chunks of n = 1 points
    GRID = GridSpec(x_min=-1.5, x_max=3.5, y_min=-2.5, y_max=2.5, nx=821, ny=821)

    @staticmethod
    def exact(A):
        """The modulus of each entry from 200-bit arithmetic."""
        with mpmath.workprec(200):
            return np.array([[float(abs(mpmath.mpc(z.real, z.imag)))] for z in A.reshape(-1)])

    def test_within_3u_of_a_200_bit_reference(self, kind):
        self.check_reference(kind, 3)


class TestClosedForm(KernelChecks):
    """At n = 2 ``_svals`` takes a Givens rotation and DLAS2's formula."""

    N = 2
    KINDS = KernelChecks.UNSCALED + KernelChecks.SCALES
    POLYNOMIAL = "uptri_quadratic"
    GRID = GridSpec(x_min=0.2, x_max=2.8, y_min=-1, y_max=1, nx=301, ny=301)

    @staticmethod
    def exact(A):
        """Singular values of each matrix from 50-digit decimal arithmetic:
        s_1^2 = (N + sqrt(N^2 - 4 D^2)) / 2 with N = ||A||_F^2, D = |det A|."""
        out = []
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for M in A:
                (ar, ai), (br, bi), (cr, ci), (dr, di) = (
                    (Decimal(z.real), Decimal(z.imag)) for z in M.ravel()
                )
                N = ar * ar + ai * ai + br * br + bi * bi + cr * cr + ci * ci + dr * dr + di * di
                det_re = (ar * dr - ai * di) - (br * cr - bi * ci)
                det_im = (ar * di + ai * dr) - (br * ci + bi * cr)
                D = (det_re * det_re + det_im * det_im).sqrt()
                s1 = ((N + (N * N - 4 * D * D).sqrt()) / 2).sqrt()
                out.append([float(s1), float(D / s1) if s1 else 0.0])
        return np.array(out).reshape(A.shape[:-1])

    def test_within_4u_of_a_50_digit_reference(self, kind):
        self.check_reference(kind, 4)

    def test_within_8u_of_gesdd(self, kind):
        # 4u for the kernel and 4u for gesdd, each against the exact values:
        # gesdd alone is up to 3.6u off on these stacks (it rescales entries
        # near 1e+-150 and beyond by factors that are not powers of two), so
        # the two differ by more than 4u on some matrices
        A = self.stack(kind, 1000)
        self.assert_within(svdcore._svals(A), np.linalg.svd(A, compute_uv=False), 8)

    def test_equal_moduli_on_a_triangle_give_a_zero_gap(self):
        A = self.stack("random", 500)
        A[:, 1, 0] = 0.0
        A[:, 1, 1] = A[:, 0, 0].conj()
        s = svdcore._svals(A)
        A[:, 0, 1] = 0.0
        d = svdcore._svals(A)
        assert np.array_equal(s[:, 0] > s[:, 1], np.abs(A[:, 0, 0]) > 0)
        assert np.all(d[:, 0] == d[:, 1])


class TestBidiagonalSweeps(KernelChecks):
    """At n = 3 ``_svals`` reduces each matrix to a real bidiagonal and runs
    Golub-Kahan sweeps on it."""

    N = 3
    KINDS = KernelChecks.UNSCALED + ["zero_middle_column", "double_s_min"] + KernelChecks.SCALES
    POLYNOMIAL = "damped_system"
    GRID = GridSpec(x_min=-2.4, x_max=1.4, y_min=-3.0, y_max=3.0, nx=401, ny=401)

    @staticmethod
    def exact(A):
        """Singular values of each matrix from mpmath's SVD at 50 digits."""
        with mpmath.workdps(50):
            values = [mpmath.svd_c(mpmath.matrix(M.tolist()), compute_uv=False) for M in A]
            return np.array([sorted(map(float, s), reverse=True) for s in values])

    def test_within_8u_of_a_50_digit_reference(self, kind):
        # the reduction's four rotations and each sweep's four add their
        # rounding; on these stacks the kernel stays within 3u, on the
        # fixture grids within 6u.  gesdd is no yardstick at n = 3: it is
        # 41u off s_1 on one nearly_equal matrix
        self.check_reference(kind, 8)

    def test_grid_lanes_furthest_from_gesdd_are_within_8u(self, damped_system):
        A = evaluate_many(damped_system, self.GRID.points().reshape(-1))
        got = svdcore._svals(A)
        gesdd = np.linalg.svd(A, compute_uv=False)
        worst = np.argsort(np.abs(got - gesdd).max(axis=1) / gesdd[:, 0])[-100:]
        self.assert_within(got[worst], self.exact(A[worst]), 8)

    def test_zero_columns_deflate_without_a_sweep(self, monkeypatch):
        # a zero first column leaves d1 = 0, where a shifted sweep would
        # make no progress: fixed rotations chase it out before any sweep.
        # A zero middle column leaves e2 = d3 = 0 after the reduction
        monkeypatch.setattr(svdcore, "_MAX_SWEEPS", 0)
        for kind in ("zero_first_column", "zero_middle_column", "zero"):
            A = self.stack(kind, 300)
            self.assert_within(svdcore._svals(A), self.exact(A), 4)

    @pytest.mark.parametrize("zeros", [(0,), (1,), (2,), (0, 2)])
    def test_a_zero_on_the_bidiagonal_is_chased_out_without_a_sweep(self, zeros, monkeypatch):
        # d1, d2, d3 or both ends zero; a zero d1 alone is reversed to the end
        monkeypatch.setattr(svdcore, "_MAX_SWEEPS", 0)
        B = np.random.default_rng(33).uniform(0.5, 1.0, size=(5, 100))
        B[[2 * i for i in zeros]] = 0.0
        dense = np.zeros((100, 3, 3))
        dense[:, [0, 0, 1, 1, 2], [0, 1, 1, 2, 2]] = B.T
        self.assert_within(svdcore._bidiagonal_svals(B), self.exact(dense), 4)

    @pytest.mark.parametrize("several_chunks", [False, True])
    def test_exceeding_the_sweep_cap_raises(self, several_chunks, monkeypatch):
        monkeypatch.setattr(svdcore, "_MAX_SWEEPS", 1)
        rng = np.random.default_rng(32)
        P = random_polynomial(rng, 3, 2)
        points = 2 * svdcore._chunk_points(3) + 1 if several_chunks else 1
        lams = rng.normal(size=points) + 1j * rng.normal(size=points)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            singular_values_many(P, lams)
