"""Tests of the benchmark itself: generator, seed invariance, checks and
span arithmetic.  Run with ``python3 -m pytest perfbench``."""

import json
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
import tracing  # noqa: E402
from checks import Checker, Problem  # noqa: E402
from workloads import Op  # noqa: E402


def test_generator_is_deterministic_per_seed():
    a, b, c = gen.generate(7), gen.generate(7), gen.generate(8)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert set(a) == set(c) == set(gen.fixture_names()) | {"wide"}
    for name in a:
        assert a[name]["coefficients"] != c[name]["coefficients"]
        assert {k: v for k, v in a[name].items() if k != "coefficients"} == {
            k: v for k, v in c[name].items() if k != "coefficients"
        }


def test_haar_unitary_is_unitary():
    U = gen.haar_unitary(np.random.default_rng(0), 5)
    assert np.allclose(U.conj().T @ U, np.eye(5), atol=1e-13)


def test_wide_levels_put_every_eigenvalue_cell_inside():
    doc = gen.wide_base()
    coeffs = gen.coefficients(doc)
    ws = gen.weight_values(doc, coeffs)
    w = doc["window"]
    dx = (w["x_max"] - w["x_min"]) / (w["nx"] - 1)
    dy = (w["y_max"] - w["y_min"]) / (w["ny"] - 1)
    eigs = gen.eigenvalues(coeffs)
    assert len(eigs) == gen.WIDE_N * gen.WIDE_M
    for lam in eigs:
        # the grid node the program's components() assigns lam to
        node = complex(
            w["x_min"] + round((lam.real - w["x_min"]) / dx) * dx,
            w["y_min"] + round((lam.imag - w["y_min"]) / dy) * dy,
        )
        s = np.linalg.svd(gen.evaluate(coeffs, node), compute_uv=False)
        assert s[-1] / gen.weight_at(ws, abs(node)) < doc["epsilons"][0]


@pytest.mark.parametrize("name", ["uptri_quadratic_2x2", "damped_system_3x3", "wide"])
def test_field_is_invariant_under_the_unitary_transform(name):
    from polyspectra.cli import parse_problem
    from polyspectra.pseudospectrum import GridSpec, compute_field

    base = gen.load_fixture(name) if name != "wide" else gen.wide_base()
    moved = gen.generate(3)[name]
    fields = []
    for doc in (base, moved):
        spec = parse_problem(json.dumps(doc))
        w = spec.window
        grid = GridSpec(w.x_min, w.x_max, w.y_min, w.y_max, 41, 37)
        fields.append(compute_field(spec.polynomial, spec.weight, grid).values)
    assert np.max(np.abs(fields[0] - fields[1])) <= 1e-12 * np.max(np.abs(fields[0]))


def _field_csv(prob, nx, ny, path, scale=1.0):
    w = prob.doc["window"]
    lines = ["x,y,value"]
    for x in np.linspace(w["x_min"], w["x_max"], nx):
        for y in np.linspace(w["y_min"], w["y_max"], ny):
            lam = complex(x, y)
            value = scale * prob.svals(lam)[-1] / prob.weight(lam)
            lines.append(f"{float(x)!r},{float(y)!r},{float(value)!r}")
    path.write_text("\n".join(lines) + "\n")


def test_field_check_accepts_exact_values_and_rejects_perturbed_ones(tmp_path):
    prob = Problem.from_doc(gen.generate(1)["damped_system_3x3"])
    checker = Checker({"p": prob}, seed=1)
    op = Op("field", "p", (), ("csv",), (6, 5))
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    _field_csv(prob, 6, 5, good)
    _field_csv(prob, 6, 5, bad, scale=1.0 + 1e-6)
    assert checker.check(0, op, {"csv": str(good)}) == []
    assert checker.check(0, op, {"csv": str(bad)})


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S("cli.field", 0.0, 10.0, -1),
        S("pseudospectrum.compute_field", 1.0, 4.0, 0),
        S("contours.marching_squares", 3.0, 6.0, 0),  # overlaps its sibling
        S("svdcore.singular_values_many", 2.0, 3.0, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])
    m = tracing.layer_metrics(spans, {})
    assert m["cli.output_s"] == pytest.approx(5.0)
    assert m["cli.field_s"] == pytest.approx(10.0)
    assert m["pseudospectrum.self_s"] == pytest.approx(2.0)
    assert m["svdcore.singular_values_many_s"] == pytest.approx(1.0)


def test_tracer_records_nested_layer_calls_and_restores_the_program():
    import polyspectra.pseudospectrum as ps
    from polyspectra import MatrixPolynomial, WeightPolynomial

    original = ps.compute_field
    P = MatrixPolynomial([np.diag([1.0, -1.0]), np.eye(2)])
    grid = ps.GridSpec(-2.0, 2.0, -1.0, 1.0, 9, 7)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ps.compute_field(P, WeightPolynomial([1.0]), grid)
    finally:
        tracer.uninstall()
    assert ps.compute_field is original
    names = [s.name for s in tracer.spans]
    assert names == [
        "pseudospectrum.compute_field",
        "svdcore.singular_values_many",
        "matpoly.evaluate_many",
    ]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1]
    m = tracer.metrics()
    assert m["svdcore.grid_points"] == 63
    assert m["matpoly.horner_bytes"] == 63 * 4 * 16


def test_command_split_charges_each_span_to_its_root_command():
    S = tracing.Span
    spans = [
        S("cli.field", 0.0, 10.0, -1),
        S("svdcore.singular_values_many", 1.0, 4.0, 0),
        S("matpoly.evaluate_many", 1.0, 2.0, 1),
        S("cli.trace", 10.0, 12.0, -1),
        S("svdcore.singular_values_many", 10.5, 11.0, 3),
    ]
    split = tracing.command_split(spans)
    assert dict(split["field"]) == pytest.approx({"cli": 7.0, "svdcore": 2.0, "matpoly": 1.0})
    assert dict(split["trace"]) == pytest.approx({"cli": 1.5, "svdcore": 0.5})
