import json
import os
from pathlib import Path

import numpy as np
import pytest

from polyspectra import GridSpec, compute_field
from polyspectra.cli import main, parse_problem, serialize_problem

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ALL_FIXTURES = sorted(FIXTURES.glob("*.json"))
UPTRI = str(FIXTURES / "uptri_quadratic_2x2.json")
DAMPED = str(FIXTURES / "damped_system_3x3.json")
SCALAR = str(FIXTURES / "scalar_double_root.json")
ISOLATED = str(FIXTURES / "isolated_fault_pencil_3x3.json")


class TestParsing:
    @pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
    def test_round_trip_is_byte_identical(self, path):
        text = path.read_text()
        assert serialize_problem(parse_problem(text)) == text

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
            ("--step-size", ["trace", "--eps", "0.01", "--step-size", "nan"]),
            ("--step-size", ["trace", "--eps", "0.01", "--step-size", "0"]),
            ("--max-steps", ["trace", "--eps", "0.01", "--max-steps", "-5"]),
            ("--seed", ["trace", "--eps", "0.01", "--seed", "nan", "0"]),
            ("--eps-max", ["distance", "--eps-max", "0"]),
            ("--eps-max", ["distance", "--eps-max", "inf"]),
            ("--mu", ["perturb", "--mu", "nan", "0"]),
        ],
    )
    def test_numeric_flags_are_checked(self, flag, argv, capsys):
        assert main([*argv, "--input", UPTRI]) == 2
        assert flag in capsys.readouterr().err

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

    def test_trace_sweep_skips_unseedable_levels(self, tmp_path, capsys):
        # at one level of this fixture every axis ray either exits the
        # window or seeds exactly on the corner; the sweep warns and still
        # traces the other levels
        out = tmp_path / "t.csv"
        assert main(["trace", "--input", SCALAR, "--csv", str(out)]) == 0
        err = capsys.readouterr().err
        assert "no traceable seed" in err
        curve_ids = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
        assert len(curve_ids) == 2

    def test_faults_json(self, tmp_path, capsys):
        out = tmp_path / "faults.json"
        assert main(["faults", "--input", ISOLATED, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["empty"] is False
        assert len(doc["refined_points"]) == 1
        pt = doc["refined_points"][0]
        assert abs(complex(pt["re"], pt["im"])) < 1e-4

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


class TestDefaults:
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
