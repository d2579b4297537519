"""Lockstep evaluation and tracing give what one point and one walker give.

A stacked ``point_evals`` row must equal ``PointEval`` at the same point bit
for bit, and the ``trace`` command, which traces every curve of a command
together and replays the sequential seed search on the results, must print
and write what the point-by-point loop below does.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from polyspectra import (
    MatrixPolynomial,
    PreconditionError,
    SeedNotFoundError,
    WeightPolynomial,
    eigenvalues,
    find_boundary_seed,
    retraced_curve,
    trace_boundary,
)
from polyspectra import pseudospectrum, svdcore
from polyspectra.cli import _csv_text, _json_text, main, parse_problem
from polyspectra.svdcore import PointEval, point_evals

from conftest import random_polynomial

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))
CONIC = next(p for p in FIXTURES if p.stem == "conic_pencil_3x3")
SCALAR = next(p for p in FIXTURES if p.stem == "scalar_double_root")


def _bits(x) -> bytes:
    return b"None" if x is None else np.asarray(x).tobytes()


def state(pe: PointEval, eps: float) -> tuple:
    """Everything a row carries, as bytes."""
    trip = pe.trip
    return (
        _bits(pe.lam), _bits(pe.s_min), _bits(pe.gap), pe.on_spectrum, pe.smooth,
        _bits(pe.weight), _bits(pe.ratio), _bits(pe.s_grad), _bits(pe.weight_grad),
        _bits(pe.grad_F(eps)), _bits(pe.grad_xy(eps)), _bits(pe.ratio_grad),
        _bits(trip.values), _bits(trip.left), _bits(trip.right),
    )


def assert_rows_equal_points(P, w, lams, eps=0.25):
    rows = point_evals(P, w, lams)
    assert len(rows) == len(lams)
    for lam, row in zip(lams, rows):
        assert state(row, eps) == state(PointEval(P, w, lam), eps)


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

    def test_origin_under_a_linear_weight(self, scalar_double_root, weight_linear):
        lams = [0.0, 1.0, 0.5 + 0.5j, 0.0, -0.25j]
        assert_rows_equal_points(scalar_double_root, weight_linear, lams)
        row = point_evals(scalar_double_root, weight_linear, lams)[0]
        assert row.weight_grad is None and row.grad_F(1.0) is None

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
        point_evals(P, w, lams[:2])  # P' and the LAPACK routines, made once
        tracemalloc.start()
        try:
            rows = point_evals(P, w, lams)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == len(lams)
        assert peak - kept <= svdcore._STACK_ENTRY_BYTES * 16 * 16 * chunk <= svdcore._CHUNK_BYTES

    def test_non_finite_entries_raise(self):
        P = MatrixPolynomial([np.eye(3), 1e308 * np.eye(3)])
        w = WeightPolynomial([1.0])
        point_evals(P, w, [1e-309, 0.5])  # finite
        for lams in ([2.0], [0.5, 2.0]):
            with np.errstate(over="ignore"), pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                point_evals(P, w, lams)


def reference_trace(spec):
    """The sequential search of ``trace``, one seed and one walker at a time:
    (curves, stdout lines, warnings)."""
    P, w, window = spec.polynomial, spec.weight, spec.window
    curves, stdout, warnings = [], [], []
    for eps in spec.epsilons:
        level = []
        for lam in eigenvalues(P).eigenvalues:
            curve = None
            for direction in (1.0, -1.0, 1j, -1j):
                try:
                    seed = find_boundary_seed(P, w, eps, lam, direction, window)
                    k = retraced_curve(P, w, eps, seed, [curves[c][1] for c in level], window)
                    if k is not None:
                        stdout.append(
                            f"eps={eps:.6g}: eigenvalue {lam:.6g} seeds curve {level[k]} "
                            "again, skipped"
                        )
                        break
                    curve = trace_boundary(P, w, eps, seed, window)
                    break
                except (SeedNotFoundError, PreconditionError):
                    continue
            else:
                warnings.append(f"eps={eps:.6g}: no traceable seed from eigenvalue {lam:.6g}")
            if curve is not None:
                level.append(len(curves))
                curves.append((eps, curve))
    stdout += [
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
                "interior_curve": c.interior_curve,
                "points": len(c.points),
                "termination": c.termination.value,
            }
            for eps, c in curves
        ]
    }
    return _csv_text("curve_id,x,y", rows), _json_text(doc)


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
        if path == CONIC:
            assert sum("skipped" in line for line in out) == 5
        if path == SCALAR:
            assert "eps=1: no traceable seed from eigenvalue 1+0j" in warnings

    def test_summary_line_counts_the_work(self, tmp_path, capsys):
        code, out, err, _, js = run_trace(CONIC, tmp_path, capsys)
        assert code == 0
        ends = [c["termination"] for c in json.loads(js)["curves"]]
        line = next(s for s in err.splitlines() if s.startswith("[polyspectra] trace"))
        assert f"curves closed={ends.count('closed')} " in line
        rounds = int(line.split(" rounds=")[1].split()[0])
        points = int(line.split(" points=")[1].split()[0])
        assert 0 < rounds < points

    @staticmethod
    def plant(monkeypatch, targets) -> list:
        """Make the walker from every seed in ``targets`` raise LinAlgError
        after its first evaluation; returns the seeds it fired on."""
        walk = pseudospectrum._walk
        fired = []

        def planted(P, w, eps, seed, *args):
            if complex(seed) in targets:
                fired.append(complex(seed))
                yield seed
                raise np.linalg.LinAlgError("planted")
            return (yield from walk(P, w, eps, seed, *args))

        monkeypatch.setattr(pseudospectrum, "_walk", planted)
        return fired

    @staticmethod
    def skipped_seeds(spec) -> set:
        """Seeds of the rays the sequential search skips as repeats, less
        those that also start a kept curve (rays of several eigenvalues can
        meet the boundary at one point)."""
        P, w, window = spec.polynomial, spec.weight, spec.window
        curves, stdout, _ = reference_trace(spec)
        seeds = set()
        for eps in spec.epsilons:
            for lam in eigenvalues(P).eigenvalues:
                if f"eps={eps:.6g}: eigenvalue {lam:.6g} seeds curve" in "\n".join(stdout):
                    seeds.add(complex(find_boundary_seed(P, w, eps, lam, 1.0, window)))
        return seeds - {complex(c.points[0]) for _, c in curves}

    def test_error_in_a_walker_the_search_skips_is_dropped(self, tmp_path, capsys, monkeypatch):
        spec = parse_problem(CONIC.read_text())
        curves, stdout, _ = reference_trace(spec)
        fired = self.plant(monkeypatch, self.skipped_seeds(spec))
        code, out, _, csv, js = run_trace(CONIC, tmp_path, capsys)
        assert fired  # the planted walkers ran
        assert code == 0
        assert out == stdout
        assert (csv, js) == expected_files(curves)

    def test_error_in_a_kept_walker_fails_the_command(self, tmp_path, capsys, monkeypatch):
        spec = parse_problem(CONIC.read_text())
        P, w, window = spec.polynomial, spec.weight, spec.window
        lam = eigenvalues(P).eigenvalues[0]
        first = complex(find_boundary_seed(P, w, spec.epsilons[0], lam, 1.0, window))
        fired = self.plant(monkeypatch, {first})
        capsys.readouterr()
        assert main(["trace", "--input", str(CONIC)]) == 3
        assert fired == [first]
        assert "numerical failure: planted" in capsys.readouterr().err
