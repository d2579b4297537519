"""Lockstep evaluation and tracing give what one point and one walker give.

A stacked ``point_evals`` row must equal ``PointEval`` at the same point bit
for bit; seed rays and tracers run in one lockstep must return what each
returns alone; and the ``trace`` command, which runs every seed ray and
curve of a command together and replays the sequential seed search on the
results, must print and write what the point-by-point loop below does.
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

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_walkers_stopped_ahead_are_traced_alone(self, path, tmp_path, capsys, monkeypatch):
        """The prune stops every tracing walker at its first test, so the
        replay traces alone every curve that takes more than one prune
        interval."""
        stopped = []

        def stop_every_tracing_walker(pairs, tried, points, reach, step):
            def prune(live):
                stop = [j for j in live if points[j]]
                stopped.extend(stop)
                return stop

            return prune

        monkeypatch.setattr(pseudospectrum, "_prune_passed", stop_every_tracing_walker)
        spec = parse_problem(path.read_text())
        curves, stdout, warnings = reference_trace(spec)
        code, out, err, csv, js = run_trace(path, tmp_path, capsys)
        assert stopped
        assert code == 0
        assert out == stdout
        assert (csv, js) == expected_files(curves)
        if warnings:
            assert f"warnings={warnings}" in err
        else:
            assert "warnings=" not in err

    def test_error_in_a_ray_fails_the_command(self, tmp_path, capsys, monkeypatch):
        """A LinAlgError raised by the samples of the first ray the search
        tries exits 3."""
        spec = parse_problem(CONIC.read_text())
        window = spec.window
        lam = eigenvalues(spec.polynomial).eigenvalues[0]
        t_max = pseudospectrum._ray_exit_parameter(window, lam, 1.0)
        samples = set((lam + np.linspace(0.0, t_max, 512)[1:]).tolist())
        f_eps = pseudospectrum.F_eps
        fired = []

        def planted(P, w, eps, points):
            if samples <= set(np.ravel(points).tolist()):
                fired.append(len(np.ravel(points)))
                raise np.linalg.LinAlgError("planted")
            return f_eps(P, w, eps, points)

        monkeypatch.setattr(pseudospectrum, "F_eps", planted)
        capsys.readouterr()
        assert main(["trace", "--input", str(CONIC)]) == 3
        err = capsys.readouterr().err
        assert fired
        assert "numerical failure: planted" in err
        assert "Traceback" not in err


def logged(walker, log: list):
    """``walker``, with an "S" in ``log`` whenever it is sent an answer."""
    answer = None
    while True:
        try:
            ask = walker.send(answer)
        except StopIteration as stop:
            return stop.value
        answer = yield ask
        log.append("S")


class TestMixedRounds:
    def test_seed_rays_and_tracers_in_one_lockstep(self, monkeypatch):
        """Seed rays ask for values while tracers ask for points, in the same
        rounds; each walker returns what it returns alone."""
        spec = parse_problem(CONIC.read_text())
        P, w, window = spec.polynomial, spec.weight, spec.window
        tol = pseudospectrum.on_curve_tolerance(P)
        lams = eigenvalues(P).eigenvalues
        seeds = []
        for eps in spec.epsilons:
            for lam in lams:
                try:
                    seeds.append((eps, find_boundary_seed(P, w, eps, lam, 1.0, window)))
                except (SeedNotFoundError, PreconditionError):
                    pass
        assert seeds

        def walkers() -> list:
            rays = [
                pseudospectrum._seed_ray(eps, lam, direction, window, tol)
                for eps in spec.epsilons
                for lam in lams
                for direction in (1.0, -1.0, 1j, -1j)
            ]
            walks = [
                pseudospectrum._walk(P, w, eps, seed, window, None, 20000) for eps, seed in seeds
            ]
            return rays + walks

        alone = [pseudospectrum._lockstep(P, w, [x], None)[0] for x in walkers()]
        log = []
        point_evals, f_eps = pseudospectrum.point_evals, pseudospectrum.F_eps

        def logged_point_evals(P, w, lams):
            log.append("P")
            return point_evals(P, w, lams)

        def logged_f_eps(P, w, eps, lam):
            if np.ndim(eps):  # a round's values, not a tracer's own probe
                log.append("F")
            return f_eps(P, w, eps, lam)

        monkeypatch.setattr(pseudospectrum, "point_evals", logged_point_evals)
        monkeypatch.setattr(pseudospectrum, "F_eps", logged_f_eps)
        together = pseudospectrum._lockstep(P, w, [logged(x, log) for x in walkers()], None)
        assert "PF" in "".join(log)  # a round answered points and values
        assert len(together) == len(alone)
        for got, want in zip(together, alone):
            if isinstance(want, Exception):
                assert (type(got), str(got)) == (type(want), str(want))
            elif isinstance(want, pseudospectrum.BoundaryCurve):
                assert got.points.tobytes() == want.points.tobytes()
                assert (got.termination, got.interior_curve, got.detail) == (
                    want.termination, want.interior_curve, want.detail
                )
            else:
                assert _bits(got) == _bits(want)
        assert sum(isinstance(x, pseudospectrum.BoundaryCurve) for x in alone) == len(seeds)
