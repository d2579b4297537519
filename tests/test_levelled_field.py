"""A field built for a set of levels answers them as the full field does.

``compute_field(P, w, grid, Levels(...))`` decomposes only the nodes whose
Weyl enclosure meets one of the spans, and every other node stores an end
of its enclosure.  The properties below compare it with the full field on
unitary copies U P_j V of every fixture, at levels drawn at random and from
the full field's own values, where a node's value equals the level (a tie).
The ``tight`` problem, p(lambda) = lambda - 0.3 on a window whose bottom row
is the real axis, is one where Weyl's inequality holds with equality along
that row, so only the rounding margin keeps its enclosures valid.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyspectra import GridSpec, MatrixPolynomial, PreconditionError, WeightPolynomial
from polyspectra.cli import main, parse_problem
from polyspectra.errors import PolyspectraError
from polyspectra.matpoly import eigenvalues
from polyspectra.perturbations import merge_bracket
from polyspectra.pseudospectrum import (
    Levels,
    compute_field,
    grid_merge_level,
    label_sublevel,
    node_values,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PROBLEMS = {
    path.stem: (spec.polynomial, spec.weight, spec.window)
    for path in sorted(FIXTURES.glob("*.json"))
    for spec in [parse_problem(path.read_text())]
}
PROBLEMS["tight"] = (
    MatrixPolynomial([[[-0.3]], [[1.0]]]),
    WeightPolynomial([1.0]),
    GridSpec(x_min=-1.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=2, ny=2),
)


def _unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _copy(P: MatrixPolynomial, seed: int) -> MatrixPolynomial:
    """U P_j V for the seed's Haar unitaries U and V; seed 0 is P itself."""
    if seed == 0:
        return P
    rng = np.random.default_rng(seed)
    U, V = _unitary(rng, P.n), _unitary(rng, P.n)
    return MatrixPolynomial([U @ C @ V for C in P.coeffs])


def _outcome(call):
    """The value of ``call()``, or the type and message of the error it raises."""
    try:
        return call()
    except PolyspectraError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@settings(max_examples=6, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.one_of(st.just(0), st.integers(1, 2**32 - 1)),
    nx=st.integers(15, 201),
    ny=st.integers(15, 201),
    rand=st.randoms(use_true_random=False),
)
def test_levelled_field_answers_its_levels_as_the_full_field(name, seed, nx, ny, rand):
    P0, w, window = PROBLEMS[name]
    P = _copy(P0, seed)
    grid = replace(window, nx=nx, ny=ny)
    eigs = [complex(z) for z in eigenvalues(P).eigenvalues if grid.contains(z)]
    full = compute_field(P, w, grid)
    values = full.values

    # ties: values of nodes on the row and the column through an
    # eigenvalue's node, and of random nodes; and levels between values
    i, j = grid.nearest_index(rand.choice(eigs)) if eigs else (nx // 2, ny // 2)
    ties = [values[rand.randrange(nx), j] for _ in range(40)]
    ties += [values[i, rand.randrange(ny)] for _ in range(4)]
    ties += [values[rand.randrange(nx), rand.randrange(ny)] for _ in range(4)]
    lo, hi = float(values.min()), float(np.quantile(values, 0.5))
    levels = sorted({float(v) for v in ties} | {rand.uniform(lo, hi) for _ in range(3)})

    levelled = compute_field(P, w, grid, Levels(tuple((e, e) for e in levels), tuple(eigs)))
    for eps in levels:
        want, want_count = label_sublevel(full, eps)
        got, got_count = label_sublevel(levelled, eps)
        assert got_count == want_count and np.array_equal(got, want), eps
    assert np.array_equal(levelled.values[levelled.exact], values[levelled.exact])
    for lam in eigs:
        assert levelled.value_near(lam) == full.value_near(lam)

    # outside the spans, and at nodes that are not exact, the field raises
    gap = next((e for e in np.linspace(lo, hi, 7)[1:-1] if e not in levels), None)
    with pytest.raises(PreconditionError, match="outside the spans"):
        label_sublevel(levelled, 2 * levels[-1] + 1.0)
    if gap is not None:
        with pytest.raises(PreconditionError, match="outside the spans"):
            label_sublevel(levelled, float(gap))
    if not levelled.exact.all():
        k, m = np.argwhere(~levelled.exact)[0]
        with pytest.raises(PreconditionError, match="no exact value"):
            levelled.value_near(grid.points()[k, m])

    # the distance search over the band [floor, top], as distance runs it
    if len(eigs) < 2:
        return
    floor = max(2.0 * max(node_values(P, w, grid, eigs)), 1e-14)
    above = values[values > floor]
    if not above.size:
        return
    top = float(rand.choice([rand.choice(above.ravel().tolist()),
                             rand.uniform(floor, float(above.max()))]))
    band = compute_field(P, w, grid, Levels(((floor, top),), tuple(eigs)))
    assert _outcome(lambda: merge_bracket(band, eigs, floor, top)) == _outcome(
        lambda: merge_bracket(full, eigs, floor, top)
    )
    with pytest.raises(PreconditionError, match="outside the spans"):
        grid_merge_level(band, floor, 2 * top, lambda eps: True)


def test_components_prints_the_exact_value_at_an_eigenvalue_outside_eps(tmp_path):
    # the node nearest an eigenvalue of the damped system lies above 0.02 at
    # 11 x 11 and above 1e-6 at 201 x 201: components exits 3 and prints
    # that node's exact value
    path = FIXTURES / "damped_system_3x3.json"
    P, w, window = PROBLEMS["damped_system_3x3"]
    eigs = [complex(z) for z in eigenvalues(P).eigenvalues]
    for size, eps in ((11, 0.02), (201, 1e-6)):
        full = compute_field(P, w, replace(window, nx=size, ny=size))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["components", "--input", str(path), "--grid", str(size), str(size),
                         "--eps", repr(eps), "--json", str(tmp_path / "out.json")])
        assert code == 3
        lam = next(lam for lam in eigs if f"eigenvalue {lam:.6g} " in err.getvalue())
        value = full.value_near(lam)
        assert value > eps
        assert f"grid point with value {value:.3e} > eps={eps:.3e}" in err.getvalue()


def test_components_and_distance_report_the_decomposed_nodes(tmp_path):
    path = str(FIXTURES / "conic_pencil_3x3.json")
    eps_max = json.dumps(0.2)
    for argv in (["components"], ["distance", "--eps-max", eps_max]):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            assert main([*argv, "--input", path, "--grid", "201", "201"]) == 0
        done, total = err.getvalue().split(" points=")[1].split()[0].split("/")
        assert int(total) == 201 * 201 and 0 < int(done) < 0.5 * int(total)


def test_a_node_where_p_overflows_still_exits_3(tmp_path):
    # P(lambda) = 1 + 1e154 lambda^2 overflows only near the window's far
    # corner, which no lattice of every 8th node holds; the margin, as large
    # as the coefficient norms, then covers every level, so that node is
    # decomposed and the command fails as on the full field
    doc = {"n": 1, "m": 2, "coefficients": [{"re": [[1.0]]}, {"re": [[0.0]]}, {"re": [[1e154]]}],
           "window": {"x_min": -1e76, "x_max": 1.3e77, "y_min": -1e76, "y_max": 1.3e77,
                      "nx": 15, "ny": 15}}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["components", "--input", str(path), "--eps", "0.5"])
    assert code == 3 and "non-finite" in err.getvalue()
