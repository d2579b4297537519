import numpy as np
import pytest

from polyspectra import (
    InputError,
    MatrixPolynomial,
    PreconditionError,
    SingularLeadingCoefficientError,
    WeightPolynomial,
    derivative,
    eigenvalues,
    evaluate,
    evaluate_many,
    geometric_multiplicity,
    max_norm,
    weight_deriv_eval,
    weight_eval,
)
from polyspectra.matpoly import _cluster_points, eigenvalue_residual_scale

from conftest import random_polynomial


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            MatrixPolynomial([np.ones((2, 3))])

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(InputError):
            MatrixPolynomial([np.eye(2), np.eye(3)])

    def test_scalar_promotes_to_1x1(self):
        P = MatrixPolynomial([[[2.0]], [[1.0]]])
        assert P.n == 1 and P.m == 1

    def test_coefficients_frozen(self, uptri_quadratic):
        with pytest.raises(ValueError):
            uptri_quadratic.coeffs[0][0, 0] = 99.0

    def test_weight_constant_must_be_positive(self):
        with pytest.raises(InputError):
            WeightPolynomial([0.0, 1.0])
        with pytest.raises(InputError):
            WeightPolynomial([1.0, -0.5])
        with pytest.raises(InputError, match="finite"):
            WeightPolynomial([1.0, np.nan])
        with pytest.raises(InputError, match="finite"):
            WeightPolynomial([np.inf])


class TestEvaluate:
    def test_constant_term(self, uptri_quadratic):
        assert np.allclose(evaluate(uptri_quadratic, 0.0), [[1, 0], [0, 4]])

    def test_scalar_root(self):
        P = MatrixPolynomial([[[-3.0]], [[1.0]]])  # lambda - 3
        assert evaluate(P, 3.0)[0, 0] == 0.0

    def test_uptri_value(self, uptri_quadratic):
        # entries are (l-1)^2, l / 0, (l-2)^2 evaluated directly
        lam = 1.4145
        expected = np.array(
            [[(lam - 1) ** 2, lam], [0.0, (lam - 2) ** 2]], dtype=complex
        )
        assert np.allclose(evaluate(uptri_quadratic, lam), expected, atol=1e-14)

    def test_callable_sugar(self, uptri_quadratic):
        lam = 0.3 + 0.4j
        assert np.array_equal(uptri_quadratic(lam), evaluate(uptri_quadratic, lam))

    def test_horner_matches_power_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            P = random_polynomial(rng, rng.integers(1, 4), rng.integers(0, 4))
            lam = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            naive = sum(C * lam**j for j, C in enumerate(P.coeffs))
            got = evaluate(P, lam)
            assert np.linalg.norm(got - naive) <= 1e-12 * max(
                1.0, np.linalg.norm(naive)
            )

    def test_evaluate_many_matches_pointwise(self, uptri_quadratic):
        lams = np.array([[0.1 + 0.2j, 1.5], [2.0 - 1.0j, -0.3j]])
        batch = evaluate_many(uptri_quadratic, lams)
        assert batch.shape == (2, 2, 2, 2)
        for idx in np.ndindex(2, 2):
            assert np.allclose(batch[idx], evaluate(uptri_quadratic, lams[idx]))


class TestDerivative:
    def test_uptri_coefficients(self, uptri_quadratic):
        D = derivative(uptri_quadratic)
        assert D.m == 1
        assert np.allclose(D.coeffs[0], [[-2, 1], [0, -4]])
        assert np.allclose(D.coeffs[1], [[2, 0], [0, 2]])

    def test_constant_gives_zero(self):
        D = derivative(MatrixPolynomial([np.eye(2)]))
        assert D.m == 0
        assert np.all(D.coeffs[0] == 0)

    def test_scalar_double_root(self, scalar_double_root):
        D = derivative(scalar_double_root)  # 2*lambda - 2
        assert D.coeffs[0][0, 0] == -2.0
        assert D.coeffs[1][0, 0] == 2.0


class TestMaxNorm:
    def test_uptri_value_matches_direct_svd(self, uptri_quadratic):
        # oracle: spectral norm of each coefficient via direct SVD
        expected = max(
            np.linalg.svd(C, compute_uv=False)[0] for C in uptri_quadratic.coeffs
        )
        assert max_norm(uptri_quadratic) == pytest.approx(expected, rel=1e-14)
        # sqrt of the larger eigenvalue of P_1* P_1, (21 + sqrt(185)) / 2
        assert expected == pytest.approx(np.sqrt((21 + np.sqrt(185)) / 2), rel=1e-12)

    def test_zero_polynomial(self):
        assert max_norm(MatrixPolynomial([np.zeros((2, 2))])) == 0.0

    def test_identity_pencil(self):
        A = np.diag([3.0, 1.0])
        P = MatrixPolynomial([-A, np.eye(2)])
        assert max_norm(P) == 3.0


class TestWeightEval:
    def test_quadratic_weight(self, weight_quadratic):
        r = 1.4145
        assert weight_eval(weight_quadratic, r) == pytest.approx(
            r * r + r + 1, rel=1e-15
        )
        assert weight_eval(weight_quadratic, r) == pytest.approx(4.41531, abs=1e-5)

    def test_at_zero_gives_constant(self, weight_linear):
        assert weight_eval(weight_linear, 0.0) == 1.0

    def test_damped_weight_at_one(self, weight_damped):
        assert weight_eval(weight_damped, 1.0) == pytest.approx(21.3, rel=1e-14)

    def test_negative_radius_rejected(self, weight_quadratic):
        with pytest.raises(PreconditionError):
            weight_eval(weight_quadratic, -0.1)

    def test_derivative_eval(self, weight_linear):
        assert weight_deriv_eval(weight_linear, 0.7) == 2.0
        w = WeightPolynomial([1.0, 1.0, 1.0])
        assert weight_deriv_eval(w, 1.4145) == pytest.approx(2 * 1.4145 + 1, rel=1e-15)


class TestEigenvalues:
    def test_uptri_double_roots(self, uptri_quadratic):
        rep = eigenvalues(uptri_quadratic)
        assert np.allclose(rep.eigenvalues, [1.0, 2.0], atol=1e-5)
        assert list(rep.multiplicities) == [2, 2]
        assert rep.total_multiplicity == 4

    def test_damped_simple_pairs(self, damped_system):
        rep = eigenvalues(damped_system)
        assert rep.total_multiplicity == 6
        assert np.all(rep.multiplicities == 1)
        expected = [
            -0.75 + 0.86j, -0.75 - 0.86j, -0.51 + 1.25j,
            -0.51 - 1.25j, -0.08 + 1.45j, -0.08 - 1.45j,
        ]
        for z in expected:
            assert np.min(np.abs(rep.eigenvalues - z)) < 0.01

    def test_diagonal_pencil(self):
        P = MatrixPolynomial([np.diag([-1.0, 1.0]), np.eye(2)])
        rep = eigenvalues(P)
        assert np.allclose(sorted(rep.eigenvalues.real), [-1.0, 1.0], atol=1e-10)
        assert np.all(rep.multiplicities == 1)

    def test_singular_leading_coefficient_rejected(self):
        P = MatrixPolynomial([np.eye(2), np.diag([1.0, 0.0])])
        with pytest.raises(SingularLeadingCoefficientError):
            eigenvalues(P)

    def test_constant_polynomial_has_no_eigenvalues(self):
        rep = eigenvalues(MatrixPolynomial([np.eye(3)]))
        assert rep.total_multiplicity == 0

    def test_separation_invariant(self, uptri_quadratic):
        rep = eigenvalues(uptri_quadratic)
        vals = rep.eigenvalues
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert abs(vals[i] - vals[j]) > 2 * rep.cluster_radius

    def test_residuals_and_multiplicity_sum(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            P = random_polynomial(rng, n, m)
            rep = eigenvalues(P)
            assert rep.total_multiplicity == n * m
            for lam in rep.eigenvalues:
                smin = np.linalg.svd(evaluate(P, lam), compute_uv=False)[-1]
                assert smin < 1e-8 * eigenvalue_residual_scale(P, lam)


def reference_cluster_points(points, radius):
    """Pairwise union-find form of ``matpoly._cluster_points``: merge points
    within 2*radius, the union root being the lowest index, until the
    representatives are pairwise separated by more than 2*radius."""
    vals = np.asarray(points, dtype=complex)
    counts = np.ones(len(vals), dtype=int)
    while True:
        k = len(vals)
        parent = list(range(k))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        merged = False
        for i in range(k):
            for j in range(i + 1, k):
                if abs(vals[i] - vals[j]) <= 2 * radius:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
                        merged = True
        if not merged:
            break
        groups = {}
        for i in range(k):
            groups.setdefault(find(i), []).append(i)
        new_vals, new_counts = [], []
        for root in sorted(groups):
            idx = groups[root]
            c = counts[idx].sum()
            new_vals.append((vals[idx] * counts[idx]).sum() / c)
            new_counts.append(c)
        vals = np.array(new_vals, dtype=complex)
        counts = np.array(new_counts, dtype=int)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order], counts[order]


def random_cluster_sets(seed, count):
    """Seeded point sets of 1-40 points with radii 1e-7 to 1e-1: a chain of
    steps between 0.2 and 1.6 times 2*radius (neighbours join, the chain
    may or may not), a ring of near-coincident roots, exact repeats, and
    scattered points, in random order."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 41))
        radius = 10.0 ** rng.uniform(-7, -1)
        n_chain, n_ring, n_same = rng.multinomial(k // 2, [1 / 3] * 3)
        steps = rng.uniform(0.2, 1.6, n_chain) * np.exp(2j * np.pi * rng.uniform(size=n_chain))
        ring = 0.9 * np.exp(2j * np.pi * np.arange(n_ring) / max(n_ring, 1))
        scattered = rng.normal(size=k - n_chain - n_ring - n_same)
        pts = np.concatenate([
            rng.normal() + 2 * radius * np.cumsum(steps),
            rng.normal() + radius * ring,
            np.full(n_same, rng.normal()),
            scattered + 1j * rng.normal(size=len(scattered)),
        ])
        yield rng.permutation(pts), radius


class TestClusterPoints:
    def test_matches_pairwise_union_find(self):
        for pts, radius in random_cluster_sets(7, 2000):
            got_vals, got_counts = _cluster_points(pts, radius)
            ref_vals, ref_counts = reference_cluster_points(pts, radius)
            assert got_vals.tobytes() == ref_vals.tobytes()
            assert got_counts.tolist() == ref_counts.tolist()


class TestGeometricMultiplicity:
    def test_uptri_at_double_eigenvalue(self, uptri_quadratic):
        assert geometric_multiplicity(uptri_quadratic, 1.0) == 1

    def test_full_null_space(self):
        P = MatrixPolynomial([np.diag([-1.0, -1.0]), np.eye(2)])
        assert geometric_multiplicity(P, 1.0) == 2

    def test_not_an_eigenvalue(self, uptri_quadratic):
        assert geometric_multiplicity(uptri_quadratic, 5.0) == 0

    def test_never_exceeds_algebraic(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            P = random_polynomial(rng, int(rng.integers(2, 4)), int(rng.integers(1, 3)))
            rep = eigenvalues(P)
            for lam, mult in zip(rep.eigenvalues, rep.multiplicities):
                assert geometric_multiplicity(P, lam) <= mult
