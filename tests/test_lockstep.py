"""Batched evaluation and the batched polish give what one point gives.

A ``point_stack`` row must equal the ``point_stack`` of its point alone
bit for bit, and ``singular_triplets`` must give the point the singular
values of that row; and the ``trace`` command, which polishes every
contour vertex of every level together, one ``point_stack`` per round,
must print and write what the sequential search below gives, which moves
one vertex at a time, one single-point ``point_stack`` per Newton step.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from polyspectra import (
    GridSpec,
    MatrixPolynomial,
    WeightPolynomial,
    compute_field,
    eigenvalues,
)
from polyspectra import contours, svdcore
from polyspectra.cli import _csv_lines, _json_text, main, parse_problem
from polyspectra.contours import on_curve_tolerance
from polyspectra.perturbations import _ratio_stack
from polyspectra.svdcore import point_stack, singular_triplets

from conftest import random_polynomial

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))
CONIC = next(p for p in FIXTURES if p.stem == "conic_pencil_3x3")


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


def state(rows: tuple, i: int, eps: float) -> tuple:
    """Everything row ``i`` of a ``_ratio_stack`` carries, as bytes."""
    stack, ratio, grad_ratio = rows
    return tuple(
        _bits(a[i])
        for a in (
            stack.lam, stack.s, stack.gap, stack.on_spectrum, stack.smooth, stack.weight,
            stack.s_grad, stack.weight_grad, stack.F(eps), stack.grad_F(eps), ratio, grad_ratio,
        )
    )


def assert_rows_equal_points(P, w, lams, eps=0.25):
    rows = _ratio_stack(P, w, lams)
    assert len(rows[0].s) == len(lams)
    for i, lam in enumerate(lams):
        alone = state(_ratio_stack(P, w, [lam]), 0, eps)
        assert state(rows, i, eps) == alone
        # a stack of one gives the point the bits it has in any stack
        assert alone == state(_ratio_stack(P, w, [complex(rows[0].lam[i])]), 0, eps)


class TestStackedRows:
    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_rows_equal_points_alone(self, path):
        spec = parse_problem(path.read_text())
        P, w, win = spec.polynomial, spec.weight, spec.window
        rng = np.random.default_rng(40)
        eig = list(eigenvalues(P).eigenvalues)
        for size in (1, 2, 3, 5, 8, 17, 64):
            lams = win.x_min + (win.x_max - win.x_min) * rng.random(size)
            lams = lams + 1j * (win.y_min + (win.y_max - win.y_min) * rng.random(size))
            lams = list(lams)
            lams[rng.integers(size)] = eig[rng.integers(len(eig))]  # an eigenvalue
            assert_rows_equal_points(P, w, lams)

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_triplet_values_are_the_rows(self, path):
        # the certificate's delta reads the first, find_saddle's ratio the second
        spec = parse_problem(path.read_text())
        P, w, win = spec.polynomial, spec.weight, spec.window
        rng = np.random.default_rng(44)
        lams = win.x_min + (win.x_max - win.x_min) * rng.random(16)
        lams = lams + 1j * (win.y_min + (win.y_max - win.y_min) * rng.random(16))
        for lam in [*lams.tolist(), *eigenvalues(P).eigenvalues.tolist()]:
            values = singular_triplets(P, lam).values
            assert _bits(values) == _bits(point_stack(P, w, [lam]).s[0])

    def test_origin_under_a_linear_weight(self, scalar_double_root, weight_linear):
        lams = [0.0, 1.0, 0.5 + 0.5j, 0.0, -0.25j]
        assert_rows_equal_points(scalar_double_root, weight_linear, lams)
        stack = point_stack(scalar_double_root, weight_linear, lams)
        assert np.isnan(stack.weight_grad[0]).all() and np.isnan(stack.grad_F(1.0)[0]).all()
        _, _, grad_ratio = _ratio_stack(scalar_double_root, weight_linear, [0.0])
        assert np.isnan(grad_ratio).all()

    def test_complex_scalar_polynomial(self):
        rng = np.random.default_rng(43)
        P = random_polynomial(rng, 1, 2)
        w = WeightPolynomial([1.0, 0.3, 0.1])
        for size in (1, 2, 9):
            assert_rows_equal_points(P, w, list(rng.normal(size=size) + 1j * rng.normal(size=size)))

    def test_n16_stack_larger_than_one_chunk(self):
        rng = np.random.default_rng(41)
        P = random_polynomial(rng, 16, 2)
        w = WeightPolynomial([1.0, 0.5, 0.25])
        chunk = svdcore._stack_points(16)
        size = chunk + chunk // 2 + 1
        assert_rows_equal_points(P, w, list(rng.normal(size=size) + 1j * rng.normal(size=size)))

    def test_a_chunk_fits_its_byte_budget(self):
        rng = np.random.default_rng(42)
        P = random_polynomial(rng, 16, 2)
        w = WeightPolynomial([1.0, 0.5])
        chunk = svdcore._stack_points(16)
        lams = rng.normal(size=2 * chunk + 1) + 1j * rng.normal(size=2 * chunk + 1)
        point_stack(P, w, lams[:2])  # P' and the LAPACK routines, made once
        tracemalloc.start()
        try:
            stack = point_stack(P, w, lams)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stack.s) == len(lams)
        assert peak - kept <= svdcore._STACK_ENTRY_BYTES * 16 * 16 * chunk <= svdcore._CHUNK_BYTES

    def test_the_polish_holds_one_chunk_of_vectors(self):
        # n = 16 with some 800 contour vertices: the singular vectors of all
        # of them would take 6.7 MB, on top of a chunk's work arrays; a
        # round keeps one chunk's at a time
        rng = np.random.default_rng(7)
        P = random_polynomial(rng, 16, 1)
        w = WeightPolynomial([1.0])
        r = 1.2 * np.abs(eigenvalues(P).eigenvalues).max()
        field = compute_field(P, w, GridSpec(-r, r, -r, r, 240, 240))
        level = float(np.median(field.values))
        contours.boundary_curves(P, w, field, [level])  # LAPACK and P', made once
        tracemalloc.start()
        try:
            trace = contours.boundary_curves(P, w, field, [level])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        vertices = sum(len(c.points) for c in trace.curves[0])
        assert 2 * 16 * 16 * 16 * vertices > 1.5 * svdcore._CHUNK_BYTES
        assert peak <= 2 * svdcore._CHUNK_BYTES

    def test_non_finite_entries_raise(self):
        P = MatrixPolynomial([np.eye(3), 1e308 * np.eye(3)])
        w = WeightPolynomial([1.0])
        point_stack(P, w, [1e-309, 0.5])  # finite
        for lams in ([2.0], [0.5, 2.0]):
            with np.errstate(over="ignore"), pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                point_stack(P, w, lams)


def polish_alone(P, w, eps: float, x: float, y: float, tol: float, guard: float):
    """Newton steps of one vertex, one single-point ``point_stack`` per
    step: the point, whether it reached the curve, and the gradient of F_eps
    there (NaN where it cannot be trusted)."""
    lam = complex(x, y)
    for _ in range(contours._MAX_CORRECTOR_ITERS):
        pe = point_stack(P, w, [lam])
        (f,) = pe.F(eps).tolist()
        ((gx, gy),) = pe.grad_F(eps).tolist()
        norm = np.hypot(gx, gy)
        with np.errstate(divide="ignore", invalid="ignore"):
            shift = f / (norm * norm)
        if abs(f) <= tol:
            return lam, True, (gx, gy)
        mx, my = -shift * gx, -shift * gy
        if not np.hypot(mx, my) <= guard:
            break
        lam = complex(lam.real + mx, lam.imag + my)
    return lam, False, (gx, gy)


def reference_trace(spec):
    """``trace`` without ``--seed``, one vertex at a time: (curves, stdout
    lines, warnings)."""
    P, w, window = spec.polynomial, spec.weight, spec.window
    field = compute_field(P, w, window)
    h = window.cell_diagonal
    tol, guard = on_curve_tolerance(P), contours._STEP_GUARD * h
    nxt, level_of, z, eps, on, grad = [], [], [], [], [], []
    for k, level in enumerate(spec.epsilons):
        points, succ = contours._contour(window, field.values, level)
        nxt += [u + len(z) if u >= 0 else -1 for u in succ.tolist()]
        for x, y in points.tolist():
            lam, reached, g = polish_alone(P, w, level, x, y, tol, guard)
            z.append(lam)
            eps.append(level)
            on.append(reached)
            grad.append(g)
            level_of.append(k)
    levels, _, _ = contours._curves(
        P, w, np.array(nxt, dtype=np.intp), np.array(level_of, dtype=np.intp),
        len(spec.epsilons), np.array(z, dtype=complex), np.array(eps),
        np.array(on, dtype=bool), np.array(grad).reshape(-1, 2), h,
    )
    curves = [(eps, c) for eps, level in zip(spec.epsilons, levels) for c in level]
    warnings = [
        f"eps={eps:.6g}: no boundary curve in the window"
        for eps, level in zip(spec.epsilons, levels)
        if not level
    ]
    stdout = [
        f"eps={eps:.6g}: {len(c.points)} points, termination={c.termination.value}"
        for eps, c in curves
    ]
    return curves, stdout, warnings


def run_trace(path, tmp_path, capsys) -> tuple:
    csv, js = tmp_path / "t.csv", tmp_path / "t.json"
    capsys.readouterr()
    code = main(["trace", "--input", str(path), "--csv", str(csv), "--json", str(js)])
    out, err = capsys.readouterr()
    return code, out.splitlines(), err, csv.read_text(), js.read_text()


def expected_files(curves) -> tuple:
    rows = (
        f"{cid},{z.real:.17g},{z.imag:.17g}"
        for cid, (_, curve) in enumerate(curves)
        for z in curve.points.tolist()
    )
    doc = {
        "curves": [
            {
                "closed": c.closed,
                "epsilon": eps,
                "points": len(c.points),
                "termination": c.termination.value,
            }
            for eps, c in curves
        ]
    }
    return "".join(_csv_lines("curve_id,x,y", rows)), _json_text(doc)


class TestLockstepTrace:
    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_outputs_equal_the_sequential_search(self, path, tmp_path, capsys):
        spec = parse_problem(path.read_text())
        curves, stdout, warnings = reference_trace(spec)
        code, out, err, csv, js = run_trace(path, tmp_path, capsys)
        assert code == 0
        assert out == stdout
        assert (csv, js) == expected_files(curves)
        if warnings:
            assert f"warnings={warnings}" in err
        else:
            assert "warnings=" not in err

    def test_summary_line_counts_the_work(self, tmp_path, capsys):
        code, out, err, _, js = run_trace(CONIC, tmp_path, capsys)
        assert code == 0
        ends = [c["termination"] for c in json.loads(js)["curves"]]
        line = next(s for s in err.splitlines() if s.startswith("[polyspectra] trace"))
        assert f"curves closed={ends.count('closed')} " in line
        rounds = int(line.split(" rounds=")[1].split()[0])
        points = int(line.split(" points=")[1].split()[0])
        frozen = int(line.split(" frozen=")[1].split()[0])
        # the first round evaluates every vertex once, and a closed curve
        # repeats its first point
        vertices = sum(c["points"] for c in json.loads(js)["curves"]) - ends.count("closed")
        assert 0 < rounds <= contours._MAX_CORRECTOR_ITERS
        assert vertices + frozen <= points <= rounds * (vertices + frozen)

    def test_error_in_a_polish_round_fails_the_command(self, tmp_path, capsys, monkeypatch):
        def planted(P, w, lams):
            raise np.linalg.LinAlgError("planted")

        monkeypatch.setattr(contours, "point_stack", planted)
        capsys.readouterr()
        assert main(["trace", "--input", str(CONIC)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: planted" in err
        assert "Traceback" not in err
