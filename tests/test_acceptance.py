"""Acceptance suite.

Each test prints one PASS/FAIL line and enforces the stated tolerances and
runtime budgets.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from polyspectra import (
    GridSpec,
    MatrixPolynomial,
    Termination,
    WeightPolynomial,
    boundary_curves,
    build_qhat,
    build_qtilde,
    build_surface_map,
    certify_multiple,
    components,
    compute_field,
    default_window,
    distance_to_multiple,
    eigenvalues,
    evaluate,
    fault_scan,
    find_saddle,
    is_fault_point,
    merge_bracket,
    multiple_criterion,
    s_min,
    singular_triplets,
)
from polyspectra.pseudospectrum import label_sublevel
from polyspectra.svdcore import point_stack

from conftest import random_polynomial, random_weight
from test_perturbations import DHAT_REF, DTILDE_REF, QHAT_REF, QTILDE_REF

MU = 1.4145


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


class Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.t0 = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def check(self) -> bool:
        return self.elapsed < self.limit


def test_criterion_1_singular_values(uptri_quadratic):
    budget = Budget(1.0)
    trip = singular_triplets(uptri_quadratic, MU)
    s1, s2 = trip.values[0], trip.values[1]
    ok = abs(s1 - 1.4650) <= 5e-4 and abs(s2 - 0.0402) <= 5e-4 and budget.check()
    report(
        "1 (singular values at the merge point)",
        ok,
        f"s1={s1:.6f}, s2={s2:.6f}, elapsed={budget.elapsed:.2f}s",
    )


def test_criterion_2_certificates(uptri_quadratic, weight_quadratic, uptri_window):
    budget = Budget(1.0)
    P, w = uptri_quadratic, weight_quadratic
    sad = find_saddle(P, w, 1.3, uptri_window)
    mu = sad.mu
    q_hat = build_qhat(P, w, mu)
    q_tilde = build_qtilde(P, w, mu)
    checks = []
    for pert, dref, qref in ((q_hat, DHAT_REF, QHAT_REF), (q_tilde, DTILDE_REF, QTILDE_REF)):
        for D in pert.deltas:
            checks.append(np.max(np.abs(D.real - dref)) <= 1e-3)
            checks.append(np.max(np.abs(D.imag)) <= 1e-3)
            checks.append(abs(np.linalg.norm(D, 2) - 0.0091) <= 2e-4)
        for C, ref in zip(pert.polynomial().coeffs, qref):
            checks.append(np.max(np.abs(C.real - ref)) <= 1e-3)
    res_hat = np.linalg.svd(evaluate(q_hat.polynomial(), mu), compute_uv=False)[-1]
    res_tilde = np.linalg.svd(evaluate(q_tilde.polynomial(), mu), compute_uv=False)[-1]
    checks.append(res_hat < 1e-8)
    checks.append(res_tilde < 1e-8)
    trip = singular_triplets(P, mu)
    crit = multiple_criterion(
        q_hat.polynomial(), mu, trip.left[:, -1], trip.right[:, -1]
    )
    checks.append(abs(crit) < 1e-6)
    cert = certify_multiple(P, w, mu)
    checks.append(cert.geometric_mult == 1)
    ok = all(checks) and budget.check()
    report(
        "2 (explicit boundary perturbations)",
        ok,
        f"residuals=({res_hat:.2e},{res_tilde:.2e}), |criterion|={abs(crit):.2e}, "
        f"k={cert.geometric_mult}, elapsed={budget.elapsed:.2f}s",
    )


def test_criterion_3_merge(uptri_quadratic, weight_quadratic, uptri_window):
    budget = Budget(30.0)
    P, w = uptri_quadratic, weight_quadratic
    eigen = eigenvalues(P)
    field = compute_field(P, w, uptri_window)
    count_lo = components(field, 0.005, eigen).count
    count_hi = components(field, 0.02, eigen).count
    merge = merge_bracket(field, [1.0, 2.0], 0.005, 0.02)[1]
    sad = find_saddle(P, w, 1.3, uptri_window)
    ok = (
        count_lo == 2
        and count_hi == 1
        and abs(merge - 0.0091) <= 2e-4
        and abs(sad.mu - MU) <= 5e-4
        and budget.check()
    )
    report(
        "3 (component merge level)",
        ok,
        f"counts=({count_lo},{count_hi}), merge={merge:.6f}, "
        f"saddle={sad.mu.real:.6f}{sad.mu.imag:+.1e}i, elapsed={budget.elapsed:.2f}s",
    )


def test_criterion_4_damped_system(damped_system, weight_damped, damped_window):
    budget = Budget(60.0)
    P, w = damped_system, weight_damped
    eigen = eigenvalues(P)
    printed = [
        -0.08 + 1.45j, -0.08 - 1.45j, -0.75 + 0.86j,
        -0.75 - 0.86j, -0.51 + 1.25j, -0.51 - 1.25j,
    ]
    eig_ok = all(np.min(np.abs(eigen.eigenvalues - z)) <= 0.01 for z in printed)
    field = compute_field(P, w, damped_window)
    count_002 = components(field, 0.02, eigen).count
    count_01 = components(field, 0.1, eigen).count
    res = distance_to_multiple(P, w, 0.2, window=damped_window)
    # connected threshold: first level with a single component
    lo, hi = 0.05, 0.1
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        if label_sublevel(field, mid)[1] == 1:
            hi = mid
        else:
            lo = mid
    eps2 = 0.5 * (lo + hi)
    ok = (
        eig_ok
        and count_002 == 6
        and count_01 == 1
        and 0.02 < res.r < 0.05
        and 0.05 < eps2 < 0.1
        and budget.check()
    )
    report(
        "4 (damped system)",
        ok,
        f"counts=({count_002},{count_01}), r={res.r:.5f}, eps2={eps2:.5f}, "
        f"elapsed={budget.elapsed:.2f}s",
    )


def test_criterion_5_conic_double_point(conic_pencil):
    s = singular_triplets(conic_pencil, 0.0).values
    target = np.sqrt(5.0 / 16.0)
    (g,) = point_stack(conic_pencil, WeightPolynomial([1.0]), [0.0]).grad_F(0.0)
    win = GridSpec(x_min=-2.0, x_max=2.5, y_min=-2.0, y_max=2.0, nx=61, ny=61)
    smap = build_surface_map(conic_pencil, win)
    fault = is_fault_point(conic_pencil, 0.0, smap)
    ok = (
        abs(s[1] - target) <= 1e-10
        and abs(s[2] - target) <= 1e-10
        and np.isnan(g).all()
        and fault
    )
    report(
        "5 (conic double point)",
        ok,
        f"s2={s[1]:.12f}, s3={s[2]:.12f}, grad_valid={g is not None}, fault={fault}",
    )


def test_criterion_6_fault_fixtures(
    isolated_fault_pencil, scalar_double_root, diag_quadratic_pair, diag_movable
):
    square = GridSpec(x_min=-2.0, x_max=2.0, y_min=-2.0, y_max=2.0, nx=241, ny=241)
    smap_iso = build_surface_map(isolated_fault_pencil, square)
    rep_iso = fault_scan(isolated_fault_pencil, square, smap_iso)
    iso_ok = len(rep_iso.refined_points) == 1 and abs(rep_iso.refined_points[0]) <= 1e-4

    smap_sc = build_surface_map(scalar_double_root, square)
    rep_sc = fault_scan(scalar_double_root, square, smap_sc)
    scalar_ok = rep_sc.empty

    win5 = GridSpec(x_min=-2.0, x_max=3.0, y_min=-2.0, y_max=2.0, nx=241, ny=241)
    smap5 = build_surface_map(diag_quadratic_pair, win5)
    rep5 = fault_scan(diag_quadratic_pair, win5, smap5)
    pts = rep5.refined_points
    d_circle = np.abs(np.abs(pts - 0.5) - np.sqrt(3) / 2)
    d_line = np.abs(pts.real - 0.5)
    pair_ok = len(pts) > 0 and np.max(np.minimum(d_circle, d_line)) <= 2 * win5.cell_diagonal

    win2 = GridSpec(x_min=-3.0, x_max=3.0, y_min=-2.5, y_max=2.5, nx=61, ny=61)
    smap2 = build_surface_map(diag_movable, win2)
    movable_ok = is_fault_point(diag_movable, 1.0, smap2)

    ok = iso_ok and scalar_ok and pair_ok and movable_ok
    report(
        "6 (fault fixtures)",
        ok,
        f"isolated={iso_ok}, scalar_empty={scalar_ok}, circle+line={pair_ok}, "
        f"critical_value={movable_ok}",
    )


def test_criterion_7_property_suites(uptri_quadratic, weight_quadratic, uptri_window):
    budget = Budget(600.0)

    # (a) component count never exceeds the distinct eigenvalue count
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        P = random_polynomial(rng, n, m)
        w = random_weight(rng, m)
        eigen = eigenvalues(P)
        win = default_window(P, w, nx=161, ny=161, eigen=eigen)
        field = compute_field(P, w, win)
        floor = 2.0 * max(field.value_near(z) for z in eigen.eigenvalues)
        for eps in np.geomspace(max(floor, 1e-9), max(2 * floor, 1.0), 10):
            rep = components(field, eps, eigen)
            if rep.count > len(eigen.eigenvalues):
                violations += 1
    a_ok = violations == 0

    # (b) analytic gradient against central differences
    rng = np.random.default_rng(2025)
    worst = 0.0
    checked = 0
    while checked < 200:
        P = random_polynomial(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        lam = complex(rng.normal(), rng.normal())
        pe = point_stack(P, WeightPolynomial([1.0]), [lam])
        (g,) = pe.grad_F(0.0)
        if np.isnan(g).any() or pe.gap[0] <= 1e-3 or s_min(P, lam) <= 1e-3:
            continue
        h = 1e-6
        fd = np.array(
            [
                (s_min(P, lam + h) - s_min(P, lam - h)) / (2 * h),
                (s_min(P, lam + 1j * h) - s_min(P, lam - 1j * h)) / (2 * h),
            ]
        )
        err = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-30)
        worst = max(worst, err)
        checked += 1
    b_ok = worst < 1e-5

    # (c) sampled ball members stay inside and conserve per-component counts
    c_ok = True
    rng = np.random.default_rng(2026)
    instances = [
        (uptri_quadratic, weight_quadratic, uptri_window, 0.005),
        (random_polynomial(rng, 2, 1), random_weight(rng, 1), None, None),
        (random_polynomial(rng, 3, 1), random_weight(rng, 1), None, None),
    ]
    for P, w, win, eps in instances:
        eigen = eigenvalues(P)
        if win is None:
            win = default_window(P, w, nx=201, ny=201, eigen=eigen)
        field = compute_field(P, w, win)
        if eps is None:
            eps = 6.0 * max(field.value_near(z) for z in eigen.eigenvalues)
        rep = components(field, eps, eigen)
        if not all(rep.bounded.values()):
            continue
        base_totals = {
            lab: sum(mult for _, mult in entries)
            for lab, entries in rep.eigen_assignment.items()
        }
        for _ in range(100):
            deltas = []
            for j in range(P.m + 1):
                D = rng.normal(size=(P.n, P.n)) + 1j * rng.normal(size=(P.n, P.n))
                D *= (0.8 * eps * w.coefficient(j)) / np.linalg.norm(D, 2)
                deltas.append(D)
            Q = MatrixPolynomial([C + D for C, D in zip(P.coeffs, deltas)])
            q_eigs = eigenvalues(Q)
            totals = dict.fromkeys(base_totals, 0)
            for lam, mult in zip(q_eigs.eigenvalues, q_eigs.multiplicities):
                i, j = field.grid.nearest_index(lam)
                lab = int(rep.labels[i, j])
                if lab == 0:
                    # interpolation slack: look for a labeled cell adjacent
                    # to the nearest grid point
                    patch = rep.labels[
                        max(i - 1, 0) : i + 2, max(j - 1, 0) : j + 2
                    ]
                    nz = patch[patch > 0]
                    if len(nz) == 0:
                        c_ok = False
                        continue
                    lab = int(nz[0])
                totals[lab] = totals.get(lab, 0) + int(mult)
            if totals != base_totals:
                c_ok = False

    # (d) strict grid minima of the landscape hug the spectrum
    d_ok = True
    rng = np.random.default_rng(2027)
    for _ in range(20):
        P = random_polynomial(rng, int(rng.integers(2, 4)), int(rng.integers(1, 3)))
        w = random_weight(rng, P.m)
        eigen = eigenvalues(P)
        win = default_window(P, w, nx=201, ny=201, eigen=eigen)
        field = compute_field(P, w, win)
        v = field.values
        interior = v[1:-1, 1:-1]
        strict = np.ones_like(interior, dtype=bool)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                strict &= interior < v[1 + di : v.shape[0] - 1 + di, 1 + dj : v.shape[1] - 1 + dj]
        cell = field.grid.cell_diagonal
        xs, ys = field.grid.xs(), field.grid.ys()
        for i, j in np.argwhere(strict):
            lam = complex(xs[i + 1], ys[j + 1])
            if np.min(np.abs(eigen.eigenvalues - lam)) > 2 * cell:
                d_ok = False

    # (e) fault points of random normal pencils sit on nearest-eigenvalue ties
    e_ok = True
    rng = np.random.default_rng(2028)
    for _ in range(10):
        k = int(rng.integers(3, 6))
        eigs = rng.uniform(-1.2, 1.2, k) + 1j * rng.uniform(-1.2, 1.2, k)
        Q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        A = Q @ np.diag(eigs) @ Q.conj().T
        P = MatrixPolynomial([-A, np.eye(k)])
        win = GridSpec(x_min=-2.0, x_max=2.0, y_min=-2.0, y_max=2.0, nx=161, ny=161)
        smap = build_surface_map(P, win)
        rep = fault_scan(P, win, smap)
        if rep.empty:
            e_ok = False
            continue
        for lam in rep.refined_points:
            d = np.sort(np.abs(eigs - lam))
            if d[1] - d[0] > 2 * win.cell_diagonal:
                e_ok = False

    ok = a_ok and b_ok and c_ok and d_ok and e_ok and budget.check()
    report(
        "7 (property suites)",
        ok,
        f"count_bound={a_ok}, fd_gradient={b_ok} (worst {worst:.2e}), "
        f"ball_inclusion+conservation={c_ok}, min_exclusion={d_ok}, "
        f"voronoi={e_ok}, elapsed={budget.elapsed:.1f}s",
    )


def test_criterion_8_trivial_geometry(disc_pair, unit_weight):
    P = MatrixPolynomial([[[-0.4]], [[1.0]]])  # lambda - 0.4
    w = WeightPolynomial([1.0])
    win = GridSpec(x_min=-0.8, x_max=1.6, y_min=-1.2, y_max=1.2, nx=11, ny=11)
    eps = 0.7
    [[curve]] = boundary_curves(P, w, compute_field(P, w, win), [eps]).curves
    deviation = np.max(np.abs(np.abs(curve.points - 0.4) - eps))
    circle_ok = curve.termination is Termination.closed and deviation < 1e-6

    res = distance_to_multiple(disc_pair, unit_weight, 2.0)
    disc_ok = abs(res.r - 1.0) <= 1e-3 and abs(res.certificate.mu) <= 1e-3
    ok = circle_ok and disc_ok
    report(
        "8 (trivial geometry)",
        ok,
        f"circle_deviation={deviation:.2e}, r={res.r:.6f}, "
        f"saddle={abs(res.certificate.mu):.2e}",
    )
