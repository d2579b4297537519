from dataclasses import replace

import numpy as np
import pytest

from polyspectra import (
    BallClassification,
    GridSpec,
    MatrixPolynomial,
    NotFoundWithinBudgetError,
    PerturbationSet,
    PreconditionError,
    WeightPolynomial,
    ball_membership,
    build_qhat,
    build_qtilde,
    certify_multiple,
    compute_field,
    distance_to_eigenvalue,
    distance_to_multiple,
    eigenvalues,
    evaluate,
    find_saddle,
    geometric_multiplicity,
    multiple_criterion,
    s_min,
    singular_triplets,
    weight_eval,
)
from polyspectra.perturbations import DEFECT_RTOL
from polyspectra.pseudospectrum import label_sublevel

from conftest import random_polynomial

MU = 1.4145

# reference values for the 2x2 upper-triangular quadratic at its merge point
DHAT_REF = np.array([[-0.0031, -0.0086], [0.0086, -0.0031]])
DTILDE_REF = np.array([[-0.0021, 0.0002], [0.0088, -0.0010]])
QHAT_REF = [
    np.array([[0.9969, -0.0086], [0.0086, 3.9969]]),
    np.array([[-2.0031, 0.9914], [0.0086, -4.0031]]),
    np.array([[0.9969, -0.0086], [0.0086, 0.9969]]),
]
QTILDE_REF = [
    np.array([[0.9979, 0.0002], [0.0088, 3.9990]]),
    np.array([[-2.0021, 1.0002], [0.0088, -4.0010]]),
    np.array([[0.9979, 0.0002], [0.0088, 0.9990]]),
]


class TestBuildQhat:
    def test_reference_deltas(self, uptri_quadratic, weight_quadratic):
        pert = build_qhat(uptri_quadratic, weight_quadratic, MU)
        for D in pert.deltas:
            assert np.allclose(D.real, DHAT_REF, atol=1e-3)
            assert np.allclose(D.imag, 0.0, atol=1e-12)
            assert np.linalg.norm(D, 2) == pytest.approx(0.0091, abs=2e-4)

    def test_reference_coefficients(self, uptri_quadratic, weight_quadratic):
        Q = build_qhat(uptri_quadratic, weight_quadratic, MU).polynomial()
        for C, ref in zip(Q.coeffs, QHAT_REF):
            assert np.allclose(C.real, ref, atol=1e-3)

    def test_scalar_shift(self):
        P = MatrixPolynomial([[[-2.0]], [[1.0]]])  # lambda - 2
        pert = build_qhat(P, WeightPolynomial([1.0]), 3.0)
        assert pert.deltas[0][0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert pert.deltas[1][0, 0] == pytest.approx(0.0, abs=1e-12)
        Q = pert.polynomial()
        assert abs(evaluate(Q, 3.0)[0, 0]) < 1e-14

    def test_rejects_spectrum_point(self, uptri_quadratic, weight_quadratic):
        with pytest.raises(PreconditionError):
            build_qhat(uptri_quadratic, weight_quadratic, 1.0)

    def test_origin_uses_constant_weight(self, weight_linear):
        # at mu = 0 only the constant coefficient acts and only w_0 matters
        P = MatrixPolynomial([[[-2.0]], [[1.0]]])
        pert = build_qhat(P, weight_linear, 0.0)
        assert abs(evaluate(pert.polynomial(), 0.0)[0, 0]) < 1e-14
        assert np.linalg.norm(pert.deltas[1], 2) == 0.0
        assert np.linalg.norm(pert.deltas[0], 2) == pytest.approx(
            s_min(P, 0.0) / weight_linear.weights[0], rel=1e-12
        )

    def test_annihilates_trailing_directions(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            P = random_polynomial(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
            w = WeightPolynomial(rng.uniform(0.2, 2.0, P.m + 1))
            mu = complex(rng.normal(), rng.normal())
            if s_min(P, mu) < 1e-8:
                continue
            Q = build_qhat(P, w, mu).polynomial()
            resid = np.linalg.svd(evaluate(Q, mu), compute_uv=False)[-1]
            assert resid < 1e-10 * (1.0 + np.linalg.norm(evaluate(P, mu), 2))


class TestBuildQtilde:
    def test_reference_deltas(self, uptri_quadratic, weight_quadratic):
        pert = build_qtilde(uptri_quadratic, weight_quadratic, MU)
        for D in pert.deltas:
            assert np.allclose(D.real, DTILDE_REF, atol=1e-3)
            assert np.linalg.norm(D, 2) == pytest.approx(0.0091, abs=2e-4)
        assert all(np.linalg.matrix_rank(D, tol=1e-10) == 1 for D in pert.deltas)

    def test_reference_coefficients(self, uptri_quadratic, weight_quadratic):
        Q = build_qtilde(uptri_quadratic, weight_quadratic, MU).polynomial()
        for C, ref in zip(Q.coeffs, QTILDE_REF):
            assert np.allclose(C.real, ref, atol=1e-3)

    def test_scalar_collapses_to_qhat(self):
        P = MatrixPolynomial([[[-2.0]], [[1.0]]])
        w = WeightPolynomial([1.0])
        qh = build_qhat(P, w, 3.0)
        qt = build_qtilde(P, w, 3.0)
        for A, B in zip(qh.deltas, qt.deltas):
            assert np.allclose(A, B, atol=1e-14)

    def test_low_rank_and_left_vectors(self, conic_pencil, unit_weight):
        # double smallest singular value: rank-2 deltas, two left null vectors
        mu = 0.0 + 0.0j
        trip = singular_triplets(conic_pencil, mu)
        pert = build_qtilde(conic_pencil, unit_weight, mu)
        Qmu = evaluate(pert.polynomial(), mu)
        assert np.linalg.matrix_rank(pert.deltas[0], tol=1e-10) == 2
        for j in (1, 2):
            assert np.linalg.norm(trip.left[:, -j].conj() @ Qmu) < 1e-10


class TestBallMembership:
    def test_reference_boundary(self, uptri_quadratic, weight_quadratic):
        pert = build_qhat(uptri_quadratic, weight_quadratic, MU)
        bm = ball_membership(pert, weight_quadratic, 0.0091)
        assert bm.classification is BallClassification.boundary
        assert bm.radius == pytest.approx(0.0091, abs=2e-4)

    def test_zero_perturbation_interior(self, uptri_quadratic, weight_quadratic):
        zero = PerturbationSet(
            deltas=tuple(np.zeros((2, 2)) for _ in range(3)), base=uptri_quadratic
        )
        bm = ball_membership(zero, weight_quadratic, 0.5)
        assert bm.radius == 0.0
        assert bm.classification is BallClassification.interior

    def test_forbidden_direction_is_outside(self, uptri_quadratic):
        w = WeightPolynomial([1.0, 0.0, 1.0])
        deltas = (np.zeros((2, 2)), 0.1 * np.eye(2), np.zeros((2, 2)))
        bm = ball_membership(PerturbationSet(deltas=deltas, base=uptri_quadratic), w, 10.0)
        assert bm.radius == np.inf
        assert bm.classification is BallClassification.outside

    def test_radius_exactness(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            P = random_polynomial(rng, 3, 2)
            w = WeightPolynomial(rng.uniform(0.2, 2.0, 3))
            mu = complex(rng.normal(), rng.normal())
            if s_min(P, mu) < 1e-8:
                continue
            delta = distance_to_eigenvalue(P, w, mu)
            for build in (build_qhat, build_qtilde):
                pert = build(P, w, mu)
                bm = ball_membership(pert, w, delta)
                assert bm.radius == pytest.approx(delta, rel=1e-12)
                assert np.allclose(
                    pert.norms(), [delta * wj for wj in w.weights], rtol=1e-12
                )


class TestDistanceToEigenvalue:
    def test_reference_value(self, uptri_quadratic, weight_quadratic):
        assert distance_to_eigenvalue(
            uptri_quadratic, weight_quadratic, MU
        ) == pytest.approx(0.0091, abs=2e-4)

    def test_scalar(self):
        P = MatrixPolynomial([[[-2.0]], [[1.0]]])
        assert distance_to_eigenvalue(P, WeightPolynomial([1.0]), 3.0) == pytest.approx(1.0)

    def test_on_spectrum_returns_zero_with_warning(self, uptri_quadratic, weight_quadratic):
        with pytest.warns(UserWarning):
            assert distance_to_eigenvalue(uptri_quadratic, weight_quadratic, 1.0) == 0.0

    def test_no_smaller_ball_reaches_mu(self):
        # Monte-Carlo lower bound: members at 95% of the radius never
        # acquire mu as an eigenvalue
        rng = np.random.default_rng(71)
        P = random_polynomial(rng, 2, 2)
        w = WeightPolynomial(rng.uniform(0.5, 1.5, 3))
        mu = 0.37 - 0.21j
        delta = distance_to_eigenvalue(P, w, mu)
        scale = np.linalg.norm(evaluate(P, mu), 2)
        for _ in range(200):
            deltas = []
            for j in range(3):
                D = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                D *= (0.95 * delta * w.weights[j]) / np.linalg.norm(D, 2)
                deltas.append(D)
            Q = MatrixPolynomial([C + D for C, D in zip(P.coeffs, deltas)])
            assert np.linalg.svd(evaluate(Q, mu), compute_uv=False)[-1] > 1e-10 * scale


class TestMultipleCriterion:
    def test_zero_for_scalar_double_root(self, scalar_double_root):
        crit = multiple_criterion(scalar_double_root, 1.0, [1.0], [1.0])
        assert crit == 0.0

    def test_nonzero_for_simple_eigenvalue(self):
        P = MatrixPolynomial([[[-2.0]], [[1.0]]])
        assert multiple_criterion(P, 2.0, [1.0], [1.0]) == pytest.approx(1.0)

    def test_certifies_merge_point(self, uptri_quadratic, weight_quadratic, uptri_window):
        sad = find_saddle(uptri_quadratic, weight_quadratic, 1.3, uptri_window)
        trip = singular_triplets(uptri_quadratic, sad.mu)
        Q = build_qhat(uptri_quadratic, weight_quadratic, sad.mu).polynomial()
        crit = multiple_criterion(Q, sad.mu, trip.left[:, -1], trip.right[:, -1])
        assert abs(crit) < 1e-6


class TestFindSaddle:
    def test_uptri_merge_point(self, uptri_quadratic, weight_quadratic, uptri_window):
        sad = find_saddle(uptri_quadratic, weight_quadratic, 1.3, uptri_window)
        assert sad.mu.real == pytest.approx(1.4145, abs=5e-4)
        assert sad.mu.imag == pytest.approx(0.0, abs=5e-4)
        assert sad.delta == pytest.approx(0.0091, abs=2e-4)
        assert not sad.on_fault

    def test_disc_pair_crossing(self, disc_pair, unit_weight):
        win = GridSpec(x_min=-2.0, x_max=2.0, y_min=-2.0, y_max=2.0, nx=11, ny=11)
        sad = find_saddle(disc_pair, unit_weight, 0.1 + 0.1j, win)
        assert abs(sad.mu) < 1e-6
        assert sad.delta == pytest.approx(1.0, abs=1e-6)
        assert sad.on_fault

    def test_self_certifying_random_quadratic(self):
        rng = np.random.default_rng(83)
        P = random_polynomial(rng, 2, 1)
        w = WeightPolynomial([1.0, 0.7])
        eigen = eigenvalues(P)
        a, b = eigen.eigenvalues[:2]
        win = GridSpec(
            x_min=min(a.real, b.real) - 3.0, x_max=max(a.real, b.real) + 3.0,
            y_min=min(a.imag, b.imag) - 3.0, y_max=max(a.imag, b.imag) + 3.0,
            nx=11, ny=11,
        )
        sad = find_saddle(P, w, 0.5 * (a + b), win)
        cert = certify_multiple(P, w, sad.mu)
        assert cert.residual < 1e-10
        if cert.geometric_mult == 1:
            assert abs(cert.criterion) < DEFECT_RTOL * 10

    def test_start_on_spectrum_rejected(self, uptri_quadratic, weight_quadratic, uptri_window):
        from polyspectra import SaddleAtEigenvalueError

        with pytest.raises(SaddleAtEigenvalueError):
            find_saddle(uptri_quadratic, weight_quadratic, 1.0, uptri_window)

    def test_movable_eigenvalue_self_intersection(self, unit_weight):
        # diag(l^2 - 2l, (a - l)(l + 2)) with a = 1/2: the level-1 boundary
        # crosses itself at l = 1, a smooth stationary point of the first
        # diagonal modulus
        a = 0.5
        P = MatrixPolynomial(
            [np.diag([0.0, 2 * a]), np.diag([-2.0, a - 2.0]), np.diag([1.0, -1.0])]
        )
        win = GridSpec(x_min=-3.0, x_max=3.0, y_min=-2.5, y_max=2.5, nx=11, ny=11)
        sad = find_saddle(P, unit_weight, 1.0 + 0.2j, win)
        assert sad.mu == pytest.approx(1.0, abs=1e-6)
        assert sad.delta == pytest.approx(1.0, abs=1e-9)
        assert not sad.on_fault


class TestOnFaultSaddle:
    """Where the smooth search stalls, find_saddle returns the minimum of the
    second surface's ratio on a surface crossing, or fails."""

    MOVABLE_WINDOW = GridSpec(x_min=-3.0, x_max=3.0, y_min=-2.5, y_max=2.5, nx=241, ny=241)

    @pytest.mark.parametrize(
        "weights, unitary_seed, r",
        [
            ([1.0], None, 0.64),
            ([1.0, 0.3], None, 0.64 / 1.12),
            ([0.5, 0.2, 0.1], None, 0.64 / 0.596),
            ([1.0], 5, 0.64),
        ],
    )
    def test_movable_merge_on_the_crossing(self, diag_movable, weights, unitary_seed, r):
        # the pair 0, 2/3 merges at mu = 0.4, where |l^2 - 2l| = |(2/3 - l)(l + 2)|
        # = 0.64; w(0.4) is 1, 1.12 or 0.596
        P = diag_movable
        if unitary_seed is not None:
            rng = np.random.default_rng(unitary_seed)
            U, V = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                    for _ in range(2))
            P = MatrixPolynomial([U @ C @ V for C in P.coeffs])
        sad = find_saddle(P, WeightPolynomial(weights), 1.0 / 3.0, self.MOVABLE_WINDOW)
        assert sad.on_fault
        assert abs(sad.mu - 0.4) <= 1e-7
        assert sad.delta == pytest.approx(r, rel=1e-13, abs=0.0)

    def test_a_crossing_through_the_origin_under_a_linear_weight(self, disc_pair):
        # the smooth search stalls at once at the origin, where w(|l|) = 1 + |l|/2
        # has a kink; along the crossing Re l = 0 the ratio sqrt(1 + y^2) / (1 + |y|/2)
        # is greatest there and least, 2 / sqrt(5), at y = +-1/2
        win = GridSpec(x_min=-2.0, x_max=2.0, y_min=-2.0, y_max=2.0, nx=11, ny=11)
        sad = find_saddle(disc_pair, WeightPolynomial([1.0, 0.5]), 0j, win)
        assert sad.on_fault
        assert abs(sad.mu.real) <= 1e-9 and abs(abs(sad.mu.imag) - 0.5) <= 1e-6
        assert sad.delta == pytest.approx(2.0 / np.sqrt(5.0), rel=1e-12)

    @pytest.mark.parametrize(
        "angle, mu", [(0.5, 0.5 + np.sqrt(3) / 2), (2.6, 0.5 - np.sqrt(3) / 2)]
    )
    def test_a_curved_crossing(self, diag_quadratic_pair, unit_weight, monkeypatch, angle, mu):
        # from a point of the fault circle |l - 1/2| = sqrt(3)/2 of diag(l^2 - 1, l^2 - 2l),
        # along which s_2^2 = 3 (1 - 3 cos^2 / 4) is least on the real axis; each
        # Newton step takes the tangent at the iterate, not at the one before
        self._stall_the_smooth_search(monkeypatch)
        win = GridSpec(x_min=-2.0, x_max=3.0, y_min=-2.0, y_max=2.0, nx=11, ny=11)
        start = 0.5 + np.sqrt(3) / 2 * np.exp(1j * angle)
        sad = find_saddle(diag_quadratic_pair, unit_weight, start, win)
        assert sad.on_fault and abs(sad.mu - mu) <= 1e-7 and sad.iterations <= 20
        assert sad.delta == pytest.approx(np.sqrt(3) / 2, rel=1e-12)

    @staticmethod
    def _stall_the_smooth_search(monkeypatch):
        from polyspectra import perturbations

        smooth = perturbations._ratio_stack

        def no_gradient(P, w, lams):
            stack, ratio, grad = smooth(P, w, lams)
            return stack, ratio, np.full_like(grad, np.nan)

        monkeypatch.setattr(perturbations, "_ratio_stack", no_gradient)

    def test_an_isolated_crossing_that_is_a_minimum(self, conic_pencil, unit_weight,
                                                     monkeypatch):
        # surfaces 2 and 3 of the conic pencil cross at 0 alone, where
        # s_2 = s_3 = sqrt(5/16) is the least value of s_2
        self._stall_the_smooth_search(monkeypatch)
        win = GridSpec(x_min=-2.0, x_max=2.5, y_min=-2.0, y_max=2.0, nx=241, ny=241)
        sad = find_saddle(conic_pencil, unit_weight, 0.02 + 0.01j, win)
        assert sad.on_fault
        assert abs(sad.mu) <= 1e-6
        assert sad.delta == pytest.approx(np.sqrt(5 / 16), rel=1e-12)

    def test_an_isolated_crossing_that_is_no_minimum(self, damped_system, weight_damped,
                                                      damped_window, monkeypatch):
        from polyspectra import SaddleOnFaultError

        # one of the damped system's four isolated crossings; s_2 / w falls
        # away from it, so it is no merge point
        self._stall_the_smooth_search(monkeypatch)
        start = -0.618513792870675 - 1.3751759930197398j + 0.02 + 0.01j
        with pytest.raises(SaddleOnFaultError):
            find_saddle(damped_system, weight_damped, start, damped_window)


class TestCertifyMultiple:
    def test_uptri_certificate(self, uptri_quadratic, weight_quadratic, uptri_window):
        sad = find_saddle(uptri_quadratic, weight_quadratic, 1.3, uptri_window)
        cert = certify_multiple(uptri_quadratic, weight_quadratic, sad.mu)
        assert cert.geometric_mult == 1
        assert cert.defective
        assert cert.delta == pytest.approx(0.0091, abs=2e-4)
        assert cert.residual < 1e-8 and cert.residual_tilde < 1e-8

    def test_fault_point_gets_geometric_two(self, diag_quadratic_pair, unit_weight):
        # a crossing point away from the spectrum: double smallest value
        mu = complex(0.5 + np.sqrt(3) / 2 * np.cos(1.1), np.sqrt(3) / 2 * np.sin(1.1))
        cert = certify_multiple(diag_quadratic_pair, unit_weight, mu)
        assert cert.geometric_mult == 2
        Qh = cert.q_hat.polynomial()
        assert geometric_multiplicity(Qh, mu) == 2

    def test_scalar_simple_shift(self):
        P = MatrixPolynomial([[[-2.0]], [[1.0]]])
        cert = certify_multiple(P, WeightPolynomial([1.0]), 3.0)
        assert cert.geometric_mult == 1
        assert not cert.defective

    def test_phase_invariance(self, uptri_quadratic, weight_quadratic):
        # rebuilding from a randomly re-phased SVD leaves the coefficients
        # unchanged to machine precision
        rng = np.random.default_rng(89)
        mu = MU
        A = evaluate(uptri_quadratic, mu)
        U, s, Vh = np.linalg.svd(A)
        phases = np.exp(2j * np.pi * rng.uniform(size=2))
        U2 = U * phases
        V2 = Vh.conj().T * phases
        Zhat2 = U2 @ V2.conj().T
        w = weight_quadratic
        denom = weight_eval(w, abs(mu))
        ref = build_qhat(uptri_quadratic, w, mu)
        for j, D in enumerate(ref.deltas):
            manual = ((mu / abs(mu)) ** j * w.weights[j] / denom) * (-s[-1] * Zhat2)
            assert np.allclose(manual, D, atol=1e-12)

    def test_unitary_zhat(self):
        rng = np.random.default_rng(91)
        P = random_polynomial(rng, 4, 2)
        mu = 0.3 + 0.8j
        trip = singular_triplets(P, mu)
        Z = trip.left @ trip.right.conj().T
        assert np.linalg.norm(Z.conj().T @ Z - np.eye(4)) <= 1e-12 * 10


class TestDistanceToMultiple:
    def test_uptri(self, uptri_quadratic, weight_quadratic, uptri_window):
        res = distance_to_multiple(
            uptri_quadratic, weight_quadratic, 0.05, window=uptri_window
        )
        assert res.r == pytest.approx(0.0091, abs=2e-4)
        assert res.certificate.mu.real == pytest.approx(1.4145, abs=5e-4)
        assert res.certificate.defective
        assert not res.origin_case

    def test_bracket_is_the_grid_merge_level(self, uptri_quadratic, weight_quadratic,
                                             uptri_window):
        res = distance_to_multiple(
            uptri_quadratic, weight_quadratic, 0.05, window=uptri_window
        )
        lo, hi = res.bracket
        field = compute_field(uptri_quadratic, weight_quadratic, uptri_window)
        assert hi in field.values
        assert not np.any((field.values > lo) & (field.values < hi))

        def eigenvalue_labels(eps):
            labels, _ = label_sublevel(field, eps)
            return [labels[uptri_window.nearest_index(z)] for z in (1.0, 2.0)]

        a, b = eigenvalue_labels(hi)
        assert a == b != 0
        a, b = eigenvalue_labels(lo)
        assert a != b

    def test_damped_bracket(self, damped_system, weight_damped, damped_window):
        res = distance_to_multiple(
            damped_system, weight_damped, 0.2, window=damped_window
        )
        assert 0.02 < res.r < 0.05

    def test_one_svd_of_the_leading_coefficient(self, damped_system, weight_damped,
                                                damped_window, monkeypatch):
        # a fresh instance, since the session fixture may hold cached values
        P = MatrixPolynomial(damped_system.coeffs)
        lead = P.coeffs[-1]
        calls = []
        svd, norm = np.linalg.svd, np.linalg.norm

        def on_lead(a):
            return np.shape(a) == lead.shape and np.array_equal(a, lead)

        def counting_svd(a, *args, **kwargs):
            calls.extend(["svd"] if on_lead(a) else [])
            return svd(a, *args, **kwargs)

        def counting_norm(x, ord=None, *args, **kwargs):
            # the matrix 2-norm is the largest singular value: one more SVD
            calls.extend(["norm"] if ord == 2 and on_lead(x) else [])
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        window = replace(damped_window, nx=81, ny=81)
        distance_to_multiple(P, weight_damped, 0.2, window=window)
        assert calls == ["svd"]

    def test_disc_pair(self, disc_pair, unit_weight):
        res = distance_to_multiple(disc_pair, unit_weight, 2.0)
        assert res.r == pytest.approx(1.0, abs=1e-3)
        assert abs(res.certificate.mu) < 1e-6
        assert res.certificate.geometric_mult == 2

    def test_budget_exhausted(self, uptri_quadratic, weight_quadratic, uptri_window):
        with pytest.raises(NotFoundWithinBudgetError):
            distance_to_multiple(
                uptri_quadratic, weight_quadratic, 0.004, window=uptri_window
            )

    def test_saddle_implies_defective_random(self):
        rng = np.random.default_rng(101)
        found = 0
        for _ in range(6):
            P = random_polynomial(rng, 2, 1)
            w = WeightPolynomial([1.0, 0.5])
            try:
                res = distance_to_multiple(P, w, 2.0, nx=161, ny=161)
            except Exception:
                continue
            if res.certificate.geometric_mult == 1:
                assert res.certificate.defective
                found += 1
        assert found >= 2


class TestSingleRules:
    """faults and distance share one fault-point test; the certificate and
    distance share one origin rule."""

    def test_crossing_uses_the_fault_point_test(self, diag_movable, unit_weight, monkeypatch):
        from polyspectra import SaddleOnFaultError, faultlines

        win = GridSpec(x_min=-3.0, x_max=3.0, y_min=-2.5, y_max=2.5, nx=241, ny=241)
        # the merging pair 0, 2/3 meets on a crossing whose gap is exactly 0
        assert find_saddle(diag_movable, unit_weight, 1.0 / 3.0, win).on_fault
        monkeypatch.setattr(faultlines, "REFINED_GAP_RTOL", -1.0)
        with pytest.raises(SaddleOnFaultError, match="residual surface gap"):
            find_saddle(diag_movable, unit_weight, 1.0 / 3.0, win)

    def test_origin_rule_is_the_certificates(self, disc_pair, monkeypatch):
        from polyspectra import SaddleResult, perturbations
        from polyspectra.svdcore import point_stack

        # |mu| = 1e-10 is off the origin (ORIGIN_TOL = 1e-12), where the
        # phase of mu is defined and the certificate keeps w itself
        w = WeightPolynomial([1.0, 1.0])
        mu = 1e-10 + 0j
        here = point_stack(disc_pair, w, [mu])
        fake = SaddleResult(mu=mu, delta=float(here.s[0, -1] / here.weight[0]), on_fault=True,
                            iterations=0)
        monkeypatch.setattr(perturbations, "find_saddle", lambda *args: fake)
        win = GridSpec(x_min=-3.0, x_max=3.0, y_min=-3.0, y_max=3.0, nx=61, ny=61)
        res = distance_to_multiple(disc_pair, w, 0.9, window=win)
        assert not res.origin_case
        assert not res.certificate.constant_weight_substituted
        assert res.certificate.delta == res.r
