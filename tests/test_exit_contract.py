"""Every command keeps the exit-code contract on random documents.

Every run of ``cli.main`` exits 0, 2 (parse), 3 (numerical) or 4
(precondition): an exception escaping ``main`` fails the test, and so does
a traceback or a LAPACK message on stderr.  The documents are 2 x 2 and
3 x 3 polynomials of degree 1 and 2, general or real diagonal (whose faults
are curves, so ``distance`` may merge on a crossing), with coefficient
scales from 1e-300 to 1e300, every weight mode, an explicit window and a
grid of at most 41 x 41, at levels from 1e-300 to 1e300.  Window bounds,
``--mu`` and ``--seed`` values include negative numbers in exponent form.
"""

import json
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyspectra.cli import main

WEIGHTS = (
    {"mode": "unit"},
    {"mode": "constant", "value": 2.5},
    {"mode": "coefficient_norms"},
    {"mode": "custom", "values": [1.0, 0.3, 0.1]},
)
# powers of ten from 1e-300 to 1e300, half of them within 1e-2 and 1e2
powers = st.one_of(st.integers(-2, 2), st.integers(-300, 300)).map(lambda k: 10.0**k)
# coordinates in [-2, 2], some of them negative and printed with an exponent
coordinates = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([-1e-05, -2.5e-07, -3e-300]))
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])


@st.composite
def documents(draw) -> dict:
    n, m = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    diagonal = draw(st.booleans())
    scale = draw(st.one_of(st.just(1.0), powers))
    coefficients = []
    for j in range(m + 1):
        C = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if j == m:  # a dominant leading coefficient keeps the eigenvalues near the origin
            C += 2.0 * np.sqrt(n) * np.eye(n)
        C = scale * (np.diag(np.diag(C).real) if diagonal else C)
        coefficients.append({"re": C.real.tolist(), "im": C.imag.tolist()})
    weight = dict(draw(st.sampled_from(WEIGHTS)))
    if weight["mode"] == "custom":
        weight["values"] = weight["values"][: m + 1]
    return {"n": n, "m": m, "coefficients": coefficients, "weight": weight}


def run(argv, capfd) -> None:
    """Run ``cli.main`` and check its exit code and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits 2 on a malformed command line
        code = exc.code
    err = capfd.readouterr().err
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err and "On entry to" not in err, err


@SETTINGS
@given(
    doc=documents(),
    command=st.sampled_from(["distance", "faults"]),
    center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    radius=st.integers(-1, 2).map(lambda k: 10.0**k),
    grid=st.one_of(st.just((41, 41)), st.tuples(st.integers(2, 41), st.integers(2, 41))),
    level=powers,
)
def test_every_run_exits_by_the_contract(tmp_path, capfd, doc, command, center, radius, grid,
                                         level):
    path = Path(tmp_path) / "problem.json"
    path.write_text(json.dumps(doc))
    (x, y) = center
    window = [x - radius, x + radius, y - radius, y + radius]
    argv = [command, "--input", str(path), "--window", *map(repr, window),
            "--grid", *map(str, grid), "--json", str(Path(tmp_path) / "out.json")]
    if command == "distance":
        argv += ["--eps-max", repr(level)]
    else:
        argv += ["--eps", repr(level), "--svg", str(Path(tmp_path) / "out.svg")]
    run(argv, capfd)


@SETTINGS
@given(
    doc=documents(),
    command=st.sampled_from(["trace", "components", "field", "perturb", "eigs"]),
    center=st.tuples(coordinates, coordinates),
    radius=st.one_of(st.integers(-1, 1), st.integers(-5, 1)).map(lambda k: 10.0**k),
    grid=st.one_of(st.just((41, 41)), st.tuples(st.integers(2, 41), st.integers(2, 41))),
    level=powers,
    point=st.tuples(coordinates, coordinates),
    seeded=st.booleans(),
)
def test_every_other_command_exits_by_the_contract(tmp_path, capfd, doc, command, center,
                                                   radius, grid, level, point, seeded):
    # trace has no --grid: it reads the window and its size from the document
    (x, y), out = center, Path(tmp_path)
    window = (x - radius, x + radius, y - radius, y + radius)
    doc = dict(doc, window={"x_min": window[0], "x_max": window[1], "y_min": window[2],
                            "y_max": window[3], "nx": grid[0], "ny": grid[1]})
    (out / "problem.json").write_text(json.dumps(doc))
    argv = [command, "--input", str(out / "problem.json"), "--json", str(out / "out.json")]
    if command in ("field", "components"):
        argv += ["--window", *map(repr, window), "--grid", *map(str, grid)]
    if command in ("field", "components", "trace"):
        argv += ["--eps", repr(level)]
    if command in ("field", "trace"):
        argv += ["--csv", str(out / "out.csv"), "--svg", str(out / "out.svg")]
    if command == "trace" and seeded:
        argv += ["--seed", *map(repr, point)]
    if command == "perturb":
        argv += ["--mu", *map(repr, point)]
    run(argv, capfd)
