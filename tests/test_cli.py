import json
import os
from pathlib import Path

import numpy as np
import pytest

from polyspectra import GridSpec, compute_field
from polyspectra.cli import main, parse_problem

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ALL_FIXTURES = sorted(FIXTURES.glob("*.json"))
UPTRI = str(FIXTURES / "uptri_quadratic_2x2.json")
DAMPED = str(FIXTURES / "damped_system_3x3.json")
SCALAR = str(FIXTURES / "scalar_double_root.json")
ISOLATED = str(FIXTURES / "isolated_fault_pencil_3x3.json")
CONIC = str(FIXTURES / "conic_pencil_3x3.json")
DIAG_PAIR = str(FIXTURES / "diag_quadratic_pair_2x2.json")


class TestParsing:
    @pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
    def test_parsing_reads_every_number(self, path):
        text = path.read_text()
        spec, doc = parse_problem(text), json.loads(text)
        P, window = spec.polynomial, spec.window
        assert (P.n, P.m) == (doc["n"], doc["m"])
        for C, entry in zip(P.coeffs, doc["coefficients"], strict=True):
            assert C.real.tolist() == entry["re"]
            assert C.imag.tolist() == entry["im"]
        weight = doc["weight"]
        expected = {"unit": [1.0], "custom": weight.get("values")}[weight["mode"]]
        assert list(spec.weight.weights) == expected
        bounds = {key: getattr(window, key) for key in doc["window"]}
        assert bounds == doc["window"]
        assert list(spec.epsilons) == doc["epsilons"]

    def test_weight_modes(self):
        base = {
            "n": 1, "m": 1,
            "coefficients": [{"re": [[-2.0]], "im": [[0.0]]}, {"re": [[1.0]], "im": [[0.0]]}],
        }
        spec = parse_problem(json.dumps({**base, "weight": {"mode": "unit"}}))
        assert spec.weight.weights == (1.0,)
        spec = parse_problem(
            json.dumps({**base, "weight": {"mode": "constant", "value": 2.5}})
        )
        assert spec.weight.weights == (2.5,)
        spec = parse_problem(
            json.dumps({**base, "weight": {"mode": "coefficient_norms"}})
        )
        assert spec.weight.weights == (2.0, 1.0)
        spec = parse_problem(
            json.dumps({**base, "weight": {"mode": "custom", "values": [1.0, 3.0]}})
        )
        assert spec.weight.weights == (1.0, 3.0)

    def test_zero_constant_norm_rejected(self):
        doc = {
            "n": 1, "m": 1,
            "coefficients": [{"re": [[0.0]], "im": [[0.0]]}, {"re": [[1.0]], "im": [[0.0]]}],
            "weight": {"mode": "coefficient_norms"},
        }
        from polyspectra import InputError

        with pytest.raises(InputError, match="P_0"):
            parse_problem(json.dumps(doc))

    def test_diagnostics_name_the_field(self):
        from polyspectra import InputError

        doc = {"n": 2, "m": 0, "coefficients": [{"re": [[1.0, 0.0]], "im": None}]}
        with pytest.raises(InputError, match=r"coefficients\[0\]"):
            parse_problem(json.dumps(doc))


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["eigs", "--input", UPTRI]) == 0

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["eigs", "--input", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["eigs", "--input", "/nonexistent/x.json"]) == 2

    def test_schema_error_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "m": 1, "coefficients": [{"re": [[1]]}]}))
        assert main(["eigs", "--input", str(bad)]) == 2
        assert "coefficients" in capsys.readouterr().err

    def test_numerical_failure_singular_leading(self, tmp_path, capsys):
        doc = {
            "n": 2, "m": 1,
            "coefficients": [
                {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
                {"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            ],
            "weight": {"mode": "unit"},
        }
        p = tmp_path / "singular.json"
        p.write_text(json.dumps(doc))
        assert main(["eigs", "--input", str(p)]) == 3

    @pytest.mark.parametrize(
        "command", ["eigs", "field", "components", "trace", "faults", "distance"]
    )
    def test_overflow_in_the_companion_matrix(self, command, tmp_path, capsys):
        # finite entries, but inv(P_m) overflows and LAPACK rejects the result
        doc = {"n": 1, "m": 1, "coefficients": [{"re": [[1e308]]}, {"re": [[1e-308]]}]}
        p = tmp_path / "overflow.json"
        p.write_text(json.dumps(doc))
        assert main([command, "--input", str(p)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_precondition_violation(self, capsys):
        # perturbing at an eigenvalue degenerates the construction
        assert main(["perturb", "--input", UPTRI, "--mu", "1.0", "0.0"]) == 4

    def test_distance_needs_two_distinct_eigenvalues(self, capsys, monkeypatch):
        # (l - 1)^2 has one distinct eigenvalue, so no two components can
        # meet; this is known before any field is sampled
        from polyspectra import perturbations

        def no_field(*args, **kwargs):
            raise AssertionError("field sampled")

        monkeypatch.setattr(perturbations, "compute_field", no_field)
        assert main(["distance", "--input", SCALAR, "--eps-max", "0.2"]) == 4
        assert "1 distinct eigenvalue" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [("0", "5"), ("5", "0"), ("1", "1")])
    def test_grid_below_two_points(self, grid, capsys):
        assert main(["field", "--input", UPTRI, "--grid", *grid]) == 4
        assert "at least 2 points" in capsys.readouterr().err

    def test_grid_above_the_cap(self, tmp_path, capsys):
        # rejected before any grid array is allocated
        assert main(["components", "--input", UPTRI, "--grid", "100000", "100000"]) == 4
        assert "exceeds" in capsys.readouterr().err
        doc = json.loads(Path(UPTRI).read_text())
        doc["window"]["nx"] = doc["window"]["ny"] = 100000
        p = tmp_path / "huge_grid.json"
        p.write_text(json.dumps(doc))
        assert main(["components", "--input", str(p)]) == 2
        assert "window" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "weight",
        [
            {"mode": "custom", "values": [1.0, float("nan")]},
            {"mode": "custom", "values": [float("inf")]},
            {"mode": "constant", "value": float("inf")},
        ],
    )
    def test_weights_must_be_finite(self, weight, tmp_path, capsys):
        doc = json.loads(Path(UPTRI).read_text())
        doc["weight"] = weight
        p = tmp_path / "weight.json"
        p.write_text(json.dumps(doc))
        assert main(["components", "--input", str(p), "--grid", "41", "41"]) == 2
        assert "weight" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, eps",
        [("field", "0"), ("field", "inf"), ("components", "nan"), ("faults", "-1")],
    )
    def test_eps_must_be_finite_and_positive(self, command, eps, capsys):
        argv = [command, "--input", UPTRI, "--grid", "21", "21", "--eps", "0.01", eps]
        assert main(argv) == 2
        assert "--eps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, argv",
        [
            # trace has no step flags: they exit 2 as unknown flags
            ("--step-size", ["trace", "--eps", "0.01", "--step-size", "nan"]),
            ("--step-size", ["trace", "--eps", "0.01", "--step-size", "0.01"]),
            ("--max-steps", ["trace", "--eps", "0.01", "--max-steps", "100"]),
            ("--seed", ["trace", "--eps", "0.01", "--seed", "nan", "0"]),
            ("--eps-max", ["distance", "--eps-max", "0"]),
            ("--eps-max", ["distance", "--eps-max", "inf"]),
            ("--mu", ["perturb", "--mu", "nan", "0"]),
        ],
    )
    def test_numeric_flags_are_checked(self, flag, argv, capsys):
        if flag in ("--step-size", "--max-steps"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--input", UPTRI])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
            return
        assert main([*argv, "--input", UPTRI]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["faults", "--window", "-1e-05", "1", "-1", "1", "--grid", "21", "21"],
            ["perturb", "--mu", "-1e-05", "0"],
            ["field", "--window", "-2E-1", "2.8", "-1", "1", "--grid", "21", "21"],
        ],
        ids=["faults-window--1e-05", "perturb-mu--1e-05", "field-window--2E-1"],
    )
    def test_negative_numbers_in_exponent_form(self, argv, capsys):
        # argparse's own negative-number pattern has no exponent, and read
        # each of these values as an option
        assert main([*argv, "--input", UPTRI]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["components", "--csv", "out.csv"],
            ["perturb", "--mu", "1.5", "0", "--grid", "21", "21"],
            ["trace", "--grid", "21", "21"],
            ["eigs", "--eps", "0.1"],
            # an abbreviation of --eps-max is not accepted either
            ["distance", "--eps", "0.1"],
        ],
    )
    def test_unread_flag_is_rejected(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", UPTRI])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_document_epsilons_must_be_finite(self, tmp_path, capsys):
        doc = json.loads(Path(UPTRI).read_text())
        doc["epsilons"] = [0.01, float("inf")]
        p = tmp_path / "inf_eps.json"
        p.write_text(json.dumps(doc))
        assert main(["field", "--input", str(p), "--grid", "21", "21"]) == 2
        assert "epsilons" in capsys.readouterr().err

    def test_non_finite_coefficient(self, tmp_path, capsys):
        doc = json.loads(Path(UPTRI).read_text())
        doc["coefficients"][1]["im"][0][1] = float("nan")
        p = tmp_path / "nan_coef.json"
        p.write_text(json.dumps(doc))
        assert main(["eigs", "--input", str(p)]) == 2
        assert "coefficients[1]" in capsys.readouterr().err

    def test_non_finite_window(self, tmp_path, capsys):
        doc = json.loads(Path(UPTRI).read_text())
        doc["window"]["x_max"] = float("inf")
        p = tmp_path / "inf_window.json"
        p.write_text(json.dumps(doc))
        assert main(["components", "--input", str(p)]) == 2
        assert "window" in capsys.readouterr().err

    @pytest.mark.parametrize("size", [40.9, "41", True])
    def test_window_size_not_an_integer(self, size, tmp_path, capsys):
        doc = json.loads(Path(UPTRI).read_text())
        doc["window"]["nx"] = size
        p = tmp_path / "size_window.json"
        p.write_text(json.dumps(doc))
        assert main(["field", "--input", str(p), "--eps", "0.01"]) == 2
        assert "window.nx: expected an integer" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("window", "x_min"), "0.2", "window.x_min"),
            (("window", "x_min"), True, "window.x_min"),
            (("epsilons", 0), "0.01", "epsilons[0]"),
            (("epsilons", 0), True, "epsilons[0]"),
            (("coefficients", 0, "re", 0, 0), "3", "coefficients[0].re"),
            (("coefficients", 1, "im", 1, 0), False, "coefficients[1].im"),
            (("weight",), {"mode": "constant", "value": True}, "weight.value"),
            (("weight",), {"mode": "custom", "values": ["1"]}, "weight.values[0]"),
            (("window", "y_max"), 10**400, "window.y_max"),
            (("n",), True, "n"),
        ],
        ids=[
            "bound-string", "bound-bool", "eps-string", "eps-bool", "coefficient-string",
            "coefficient-bool", "weight-value-bool", "weight-values-string", "bound-beyond-float",
            "n-bool",
        ],
    )
    def test_numeric_field_not_a_json_number(self, path, value, field, tmp_path, capsys):
        # a JSON number is an int or a float, never a bool or a string
        doc = json.loads(Path(UPTRI).read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        p = tmp_path / "not_a_number.json"
        p.write_text(json.dumps(doc))
        assert main(["field", "--input", str(p), "--grid", "11", "11", "--eps", "0.01"]) == 2
        assert f"error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["field", "components", "faults"])
    def test_overflow_in_a_2x2_grid(self, command, tmp_path, capsys):
        # finite coefficients, but P(lambda) overflows on the window
        doc = json.loads(Path(UPTRI).read_text())
        doc["coefficients"][2]["re"] = [[1e308, 0.0], [0.0, 1e308]]
        p = tmp_path / "overflow.json"
        p.write_text(json.dumps(doc))
        assert main([command, "--input", str(p), "--grid", "21", "21", "--eps", "0.5"]) == 3
        assert "numerical failure: non-finite entry in P(lambda)" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["components", "distance"])
    def test_damped_system_in_a_1e200_window(self, command, tmp_path, capsys):
        # rho^k of the enclosure's rounding margin overflows on this window;
        # the margin is then infinite and every node is decomposed
        doc = json.loads(Path(DAMPED).read_text())
        doc["window"] = {"x_min": -1e200, "x_max": 1e200, "y_min": -1e200, "y_max": 1e200,
                         "nx": 5, "ny": 5}
        p = tmp_path / "damped_1e200_window.json"
        p.write_text(json.dumps(doc))
        levels = ["--eps", "0.1"] if command == "components" else []
        assert main([command, "--input", str(p), *levels]) in (0, 3)
        assert "Traceback" not in capsys.readouterr().err


class TestOutputs:
    def test_eigs_json(self, tmp_path, capsys):
        out = tmp_path / "e.json"
        assert main(["eigs", "--input", DAMPED, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["total_multiplicity"] == 6
        assert len(doc["eigenvalues"]) == 6
        assert all(e["algebraic"] == 1 for e in doc["eigenvalues"])

    def test_eigs_double_roots(self, tmp_path, capsys):
        out = tmp_path / "e.json"
        assert main(["eigs", "--input", UPTRI, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert sorted(e["re"] for e in doc["eigenvalues"]) == pytest.approx([1.0, 2.0], abs=1e-5)
        assert [e["algebraic"] for e in doc["eigenvalues"]] == [2, 2]
        assert [e["geometric"] for e in doc["eigenvalues"]] == [1, 1]

    def test_distance_caps_unbounded_budget(self, tmp_path, capsys):
        # eps-max 0.2 violates the boundedness condition exactly at the
        # budget; the search caps it and still finds the first merge
        out = tmp_path / "d7.json"
        assert (
            main(["distance", "--input", DAMPED, "--eps-max", "0.2", "--json", str(out)])
            == 0
        )
        doc = json.loads(out.read_text())
        assert 0.02 < doc["r"] < 0.05

    def test_components_counts(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert (
            main(
                ["components", "--input", UPTRI, "--eps", "0.005", "0.02",
                 "--json", str(out)]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert [r["count"] for r in doc["reports"]] == [2, 1]

    def test_field_csv_format(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert (
            main(["field", "--input", UPTRI, "--grid", "41", "41", "--csv", str(out)])
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 41 * 41
        x, y, v = lines[1].split(",")
        assert float(x) == 0.2 and float(y) == -1.0 and float(v) >= 0

    def test_field_csv_matches_row_reference(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert main(["field", "--input", DAMPED, "--grid", "7", "5", "--csv", str(out)]) == 0
        spec = parse_problem(Path(DAMPED).read_text())
        window = GridSpec(
            x_min=spec.window.x_min, x_max=spec.window.x_max,
            y_min=spec.window.y_min, y_max=spec.window.y_max, nx=7, ny=5,
        )
        values = compute_field(spec.polynomial, spec.weight, window).values
        xs, ys = window.xs(), window.ys()
        lines = ["x,y,value"]
        for i in range(7):
            for j in range(5):
                lines.append(f"{xs[i]:.17g},{ys[j]:.17g},{values[i, j]:.17g}")
        assert out.read_text() == "\n".join(lines) + "\n"

    def test_field_rows_format_every_double_as_the_f_string(self):
        from polyspectra.cli import _field_rows

        window = GridSpec(x_min=-1e-300, x_max=3.0, y_min=-0.1, y_max=1e17, nx=3, ny=4)
        values = np.array([[0.0, -0.0, 5e-324, np.nan],
                           [np.inf, 1.7976931348623157e308, 0.1, 1 / 3],
                           [2.5e-8, 123456789.125, -np.inf, 1e-310]])
        want = [f"{x:.17g},{y:.17g},{v:.17g}"
                for x, row in zip(window.xs(), values) for y, v in zip(window.ys(), row)]
        assert "\n".join(_field_rows(window, values)) == "\n".join(want)

    def test_field_svg(self, tmp_path, capsys):
        out = tmp_path / "f.svg"
        assert (
            main(["field", "--input", UPTRI, "--grid", "81", "81",
                  "--eps", "0.005", "--svg", str(out)])
            == 0
        )
        text = out.read_text()
        assert text.startswith("<?xml")
        assert "<polyline" in text and "</svg>" in text

    def test_trace_csv(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert (
            main(["trace", "--input", UPTRI, "--eps", "0.005", "--csv", str(out)]) == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "curve_id,x,y"
        assert len(lines) > 10

    def test_trace_sweep_draws_every_level(self, tmp_path, capsys):
        # no axis ray from the double root meets the eps = 1 boundary inside
        # the window, and the field's contours draw it all the same: every
        # level has curves, and none is warned about
        out, js = tmp_path / "t.csv", tmp_path / "t.json"
        assert main(["trace", "--input", SCALAR, "--csv", str(out), "--json", str(js)]) == 0
        assert "warnings=" not in capsys.readouterr().err
        levels = {c["epsilon"] for c in json.loads(js.read_text())["curves"]}
        assert levels == {0.5, 1.0, 1.5}

    def test_trace_sweep_skips_unseedable_levels(self, tmp_path, capsys):
        # lambda with a unit weight: the disc of radius eps around 0 crosses
        # this window at eps = 0.5 and lies outside it at eps = 0.001, so the
        # sweep warns of that level and traces the other; with no level
        # left, the command fails
        problem = tmp_path / "disc.json"
        problem.write_text(json.dumps({"n": 1, "m": 1, "coefficients": [{"re": [[0.0]]}, {"re": [[1.0]]}]}))
        out = tmp_path / "t.json"
        argv = ["trace", "--input", str(problem), "--eps", "0.5", "0.001",
                "--window", "0.4", "0.8", "-0.2", "0.2", "--json", str(out)]
        assert main(argv) == 0
        assert "warnings=['eps=0.001: no boundary curve in the window']" in capsys.readouterr().err
        assert [c["epsilon"] for c in _curves(out)] == [0.5]
        assert main([*argv[:4], "0.001", *argv[6:]]) == 3
        assert "no boundary curve in the window for any requested level" in capsys.readouterr().err

    def test_faults_json(self, tmp_path, capsys):
        out = tmp_path / "faults.json"
        assert main(["faults", "--input", ISOLATED, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["empty"] is False
        assert len(doc["refined_points"]) == 1
        pt = doc["refined_points"][0]
        assert abs(complex(pt["re"], pt["im"])) < 1e-4

    def test_faults_summary_counts_the_refinement(self, capsys):
        assert main(["faults", "--input", DAMPED]) == 0
        summary = capsys.readouterr().err.splitlines()[-1]
        assert summary.endswith(" cells=4 steps=3 dropped=0 left_window=0")

    def test_faults_svg_levels_share_the_grid_svd(self, tmp_path, capsys, monkeypatch):
        from polyspectra import svdcore

        shapes = []
        original = svdcore.evaluate_many

        def recording(P, lams):
            shapes.append(np.shape(lams))
            return original(P, lams)

        monkeypatch.setattr(svdcore, "evaluate_many", recording)
        argv = ["faults", "--input", DAMPED, "--grid", "41", "41", "--eps", "0.05"]
        assert main(argv + ["--svg", str(tmp_path / "f.svg")]) == 0
        assert shapes.count((41, 41)) == 1

    def test_distance_json(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        assert (
            main(["distance", "--input", UPTRI, "--eps-max", "0.05", "--json", str(out)])
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["r"] == pytest.approx(0.0091, abs=2e-4)
        cert = doc["certificate"]
        assert cert["defective"] is True
        assert cert["geometric_multiplicity"] == 1
        assert complex(cert["mu"]["re"], cert["mu"]["im"]).real == pytest.approx(
            1.4145, abs=5e-4
        )
        # serialized coefficient matrices are complete
        assert len(cert["q_hat_coefficients"]) == 3
        assert len(cert["q_tilde_coefficients"]) == 3

    def test_perturb_json(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert (
            main(["perturb", "--input", UPTRI, "--mu", "1.4145", "0.0",
                  "--json", str(out)])
            == 0
        )
        cert = json.loads(out.read_text())["certificate"]
        assert cert["delta"] == pytest.approx(0.0091, abs=2e-4)
        ref = np.array([[0.9969, -0.0086], [0.0086, 3.9969]])
        got = np.array(cert["q_hat_coefficients"][0]["re"])
        assert np.allclose(got, ref, atol=1e-3)


def _curves(path) -> list:
    return json.loads(Path(path).read_text())["curves"]


class TestTraceCurves:
    def test_corner_stall_ends_the_curve(self, tmp_path, capsys):
        # at eps = 1 the curve through this seed turns corners at
        # 1.3165 +- 0.2887i, where s_min is double; the segment across
        # each is a jump, and the piece the seed selects ends at both
        out, csv = tmp_path / "t.json", tmp_path / "t.csv"
        argv = ["trace", "--input", DIAG_PAIR, "--eps", "1",
                "--seed", "2.414213562373095", "0", "--json", str(out), "--csv", str(csv)]
        assert main(argv) == 0
        [curve] = _curves(out)
        assert curve["termination"] == "gradient_invalid"
        assert curve["points"] < 200
        rows = csv.read_text().splitlines()[1:]
        cell = parse_problem(Path(DIAG_PAIR).read_text()).window.cell_diagonal
        ends = [complex(*map(float, row.split(",")[1:])) for row in (rows[0], rows[-1])]
        assert sorted(round(z.imag, 1) for z in ends) == [-0.3, 0.3]
        for z in ends:
            assert abs(z - complex(1.3165, np.copysign(0.2887, z.imag))) <= cell

    @pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
    def test_fixture_levels_end_before_the_step_limit(self, path, tmp_path, capsys):
        # the polish has no step budget: a curve ends closed, on the window
        # edge or next to a frozen vertex, and says which
        out = tmp_path / "t.json"
        assert main(["trace", "--input", str(path), "--json", str(out)]) == 0
        for c in _curves(out):
            assert c["termination"] in ("closed", "left_window", "gradient_invalid")
            assert c["closed"] == (c["termination"] == "closed")

    def test_one_curve_per_boundary(self, tmp_path, capsys):
        # all three eigenvalues of the conic pencil share one component at
        # these levels, so each level has one closed curve
        out = tmp_path / "t.json"
        argv = ["trace", "--input", CONIC, "--eps", "0.5590169943749475",
                "0.7071067811865476", "--json", str(out)]
        assert main(argv) == 0
        curves = _curves(out)
        assert [c["epsilon"] for c in curves] == [0.5590169943749475, 0.7071067811865476]
        assert all(c["closed"] for c in curves)

    def test_facing_boundaries_across_a_neck_are_both_traced(self, tmp_path, capsys):
        # diag(l - 1, l + 1) at eps = 0.9996: the two discs face each other
        # across a 0.0008 neck, a tenth of a cell, which the grid joins
        # into one contour; the boundaries run opposite ways there
        doc = {
            "n": 2, "m": 1,
            "coefficients": [{"re": [[-1.0, 0.0], [0.0, 1.0]]},
                             {"re": [[1.0, 0.0], [0.0, 1.0]]}],
        }
        problem = tmp_path / "discs.json"
        problem.write_text(json.dumps(doc))
        out = tmp_path / "t.json"
        argv = ["trace", "--input", str(problem), "--eps", "0.9996",
                "--window", "-2.5", "1.9", "-1.5", "1.5", "--json", str(out)]
        assert main(argv) == 0
        assert len(_curves(out)) == 2
        assert "skipped" not in capsys.readouterr().out

    @pytest.mark.parametrize("eps", [0.98, 0.9996])
    def test_each_disc_across_a_neck_gets_its_own_circle(self, tmp_path, eps):
        # the contour the grid draws round both discs jumps the neck twice;
        # the two jumps are swapped for the arcs facing each other there,
        # filled with points a cell apart.  The disc about -1 gets a closed
        # circle, the one about 1 an arc that leaves the window at Re 1.9
        doc = {
            "n": 2, "m": 1,
            "coefficients": [{"re": [[-1.0, 0.0], [0.0, 1.0]]},
                             {"re": [[1.0, 0.0], [0.0, 1.0]]}],
        }
        problem = tmp_path / "discs.json"
        problem.write_text(json.dumps(doc))
        out, csv = tmp_path / "t.json", tmp_path / "t.csv"
        window = ["-2.5", "1.9", "-1.5", "1.5"]
        argv = ["trace", "--input", str(problem), "--eps", str(eps),
                "--window", *window, "--json", str(out), "--csv", str(csv)]
        assert main(argv) == 0
        assert sorted(c["termination"] for c in _curves(out)) == ["closed", "left_window"]
        cell = np.hypot(4.4, 3.0) / 400
        rows = np.array([row.split(",") for row in csv.read_text().splitlines()[1:]], dtype=float)
        for cid in (0, 1):
            z = rows[rows[:, 0] == cid, 1] + 1j * rows[rows[:, 0] == cid, 2]
            centre = -1.0 if z.real.min() < -1.0 else 1.0
            assert np.abs(np.abs(z - centre) - eps).max() < 1e-8
            assert np.abs(np.diff(z)).max() <= cell

    def test_explicit_seeds_are_always_traced(self, tmp_path, capsys):
        out, csv = tmp_path / "t.json", tmp_path / "t.csv"
        seed = ["--seed", "2.414213562373095", "0"]
        argv = ["trace", "--input", DIAG_PAIR, "--eps", "1", *seed, *seed,
                "--json", str(out), "--csv", str(csv)]
        assert main(argv) == 0
        # two identical seeds select the same curve twice
        first, second = _curves(out)
        assert first == second
        rows = [row.split(",", 1) for row in csv.read_text().splitlines()[1:]]
        assert [xy for cid, xy in rows if cid == "0"] == [xy for cid, xy in rows if cid == "1"]

    def test_off_curve_seed_exits_4(self, tmp_path, capsys):
        argv = ["trace", "--input", DIAG_PAIR, "--eps", "1", "--seed", "2.4", "0",
                "--json", str(tmp_path / "t.json")]
        assert main(argv) == 4
        assert "is not on the eps=1 curve" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    def test_seed_no_piece_reaches_exits_4(self, tmp_path, capsys):
        # lambda - 0.2 at eps 0.5: the seed 0.7 is on the circle, but the
        # window ends at Re 0.5, so the nearest piece passes 0.2 away
        problem = tmp_path / "disc.json"
        doc = {"n": 1, "m": 1, "coefficients": [{"re": [[-0.2]]}, {"re": [[1.0]]}]}
        problem.write_text(json.dumps(doc))
        argv = ["trace", "--input", str(problem), "--eps", "0.5",
                "--window", "-1", "0.5", "-1", "1", "--json", str(tmp_path / "t.json")]
        assert main([*argv, "--seed", "0.2", "0.5"]) == 0
        assert main([*argv, "--seed", "0.7", "0"]) == 4
        assert "no traced piece passes within a cell of it" in capsys.readouterr().err


class TestDeterminism:
    def test_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ca, cb = tmp_path / "a.csv", tmp_path / "b.csv"
        for out_json, out_csv in ((a, ca), (b, cb)):
            assert (
                main(["field", "--input", UPTRI, "--grid", "41", "41",
                      "--json", str(out_json), "--csv", str(out_csv)])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()
        assert ca.read_bytes() == cb.read_bytes()

    def test_svg_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            assert (
                main(["field", "--input", UPTRI, "--grid", "41", "41",
                      "--eps", "0.01", "--svg", str(out)])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_outputs_exist_and_nonempty(self, tmp_path, capsys):
        out = tmp_path / "e.json"
        assert main(["eigs", "--input", UPTRI, "--json", str(out)]) == 0
        assert out.exists() and out.stat().st_size > 0


class TestDefaultGrid:
    """A window whose size no input sets has DEFAULT_GRID points per axis."""

    @staticmethod
    def _spy(monkeypatch, module, name, position):
        """Record the shape of the grid, positional argument ``position``,
        of each call of ``module.name``."""
        grids = []
        original = getattr(module, name)

        def recording(*args, **kwargs):
            grids.append(args[position].points().shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        return grids

    @staticmethod
    def _problem(tmp_path, drop):
        doc = json.loads(Path(UPTRI).read_text())
        if drop == "window":
            del doc["window"]
        else:
            del doc["window"]["nx"], doc["window"]["ny"]
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(doc))
        return str(problem)

    def test_distance_document_window_without_size(self, tmp_path, capsys, monkeypatch):
        from polyspectra import perturbations
        from polyspectra.pseudospectrum import DEFAULT_GRID

        grids = self._spy(monkeypatch, perturbations, "compute_field", 2)
        problem = self._problem(tmp_path, "size")
        assert main(["distance", "--input", problem, "--eps-max", "0.05"]) == 0
        assert grids == [(DEFAULT_GRID, DEFAULT_GRID)]

    @pytest.mark.parametrize(
        "command, spied, position",
        [("field", "compute_field", 2), ("components", "compute_field", 2),
         ("faults", "fault_scan", 1)],
    )
    def test_default_window(self, tmp_path, capsys, monkeypatch, command, spied, position):
        from polyspectra import cli
        from polyspectra.pseudospectrum import DEFAULT_GRID

        grids = self._spy(monkeypatch, cli, spied, position)
        problem = self._problem(tmp_path, "window")
        assert main([command, "--input", problem, "--json", str(tmp_path / "out.json")]) == 0
        assert grids == [(DEFAULT_GRID, DEFAULT_GRID)]

    def test_trace_default_window(self, tmp_path, capsys):
        problem = self._problem(tmp_path, "window")
        assert main(["trace", "--input", problem, "--json", str(tmp_path / "out.json")]) == 0
        assert json.loads((tmp_path / "out.json").read_text())["curves"]


class TestDefaults:
    def test_distance_window_samples_the_default_grid(self, tmp_path, capsys, monkeypatch):
        # a --window without --grid samples as many points as the default window
        from polyspectra import perturbations

        shapes = []
        original = perturbations.compute_field

        def recording(P, w, grid, levels=None):
            shapes.append(grid.points().shape)
            return original(P, w, grid, levels)

        monkeypatch.setattr(perturbations, "compute_field", recording)
        doc = json.loads(Path(UPTRI).read_text())
        del doc["window"]
        problem = tmp_path / "no_window.json"
        problem.write_text(json.dumps(doc))
        argv = ["distance", "--input", str(problem), "--eps-max", "0.05"]
        assert main(argv) == 0
        assert main(argv + ["--window", "0.2", "2.8", "-1", "1"]) == 0
        assert len(shapes) == 2 and shapes[0] == shapes[1]

    def test_default_epsilon_sweep(self, tmp_path, capsys):
        # no epsilons in the file and none on the command line: the command
        # falls back to a norm-scaled logarithmic sweep
        doc = json.loads(Path(UPTRI).read_text())
        del doc["epsilons"]
        p = tmp_path / "no_eps.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "f.json"
        assert main(["field", "--input", str(p), "--grid", "41", "41",
                     "--json", str(out)]) == 0
        eps = json.loads(out.read_text())["epsilons"]
        assert len(eps) == 7
        assert eps == sorted(eps) and eps[0] > 0


class TestNonFiniteValues:
    """I + 1e308 lambda I overflows to an infinite P(lambda) on [1, 3]: every
    command that evaluates there exits 3 instead of reading NaN values."""

    @pytest.fixture
    def problem(self, tmp_path):
        doc = {
            "n": 3, "m": 1,
            "coefficients": [{"re": np.eye(3).tolist()}, {"re": (1e308 * np.eye(3)).tolist()}],
            "window": {"x_min": 1.0, "x_max": 3.0, "y_min": -1.0, "y_max": 1.0,
                       "nx": 21, "ny": 21},
            "epsilons": [0.5],
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["field"],
            ["components", "--eps", "0.5"],
            ["faults"],
            ["trace", "--seed", "2", "0"],
            # the rays from the eigenvalue near 0 run into the overflow
            ["trace", "--window", "-1", "3", "-1", "1"],
            # the certificate's SVD of P(mu) with vectors
            ["perturb", "--mu", "2", "0"],
        ],
        ids=["field", "components", "faults", "trace-seed", "trace-rays", "perturb"],
    )
    def test_exit_3(self, problem, argv, capfd):
        assert main([argv[0], "--input", problem, *argv[1:]]) == 3
        out, err = capfd.readouterr()
        assert "numerical failure: non-finite entry in P(lambda)" in err
        assert "illegal value" not in out + err  # LAPACK never sees the entry


class TestCertificateCriterion:
    def test_null_where_the_trailing_pair_is_not_unique(self, tmp_path, capsys):
        # at mu = 0.4 diag_movable has a double smallest singular value
        path = FIXTURES / "diag_movable_eigenvalue_2x2.json"
        out = tmp_path / "p.json"
        assert main(["perturb", "--input", str(path), "--mu", "0.4", "0", "--json", str(out)]) == 0
        cert = json.loads(out.read_text())["certificate"]
        assert cert["geometric_multiplicity"] == 2 and cert["criterion"] is None
        assert main(["perturb", "--input", UPTRI, "--mu", "1.4", "0", "--json", str(out)]) == 0
        cert = json.loads(out.read_text())["certificate"]
        assert cert["geometric_multiplicity"] == 1 and set(cert["criterion"]) == {"re", "im"}
