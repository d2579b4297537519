"""A field built for a set of levels answers them as the full field does.

``compute_field(P, w, grid, Levels(...))`` decomposes only the nodes whose
Weyl enclosure meets one of the spans, and both ends of every grid edge a
single level crosses, and every other node stores an end of its
enclosure.  Its labels, its exact values and the boundary curves polished
from its contours must be the full field's, and it must take no more
memory.  A band with the eigenvalues as exact points is cut where their
components meet on the enclosures' upper ends, and ``distance``'s bracket
and merging pair must still be the full field's.  The properties below compare it with the full field on
unitary copies U P_j V of every fixture, at levels drawn at random and from
the full field's own values, where a node's value equals the level (a tie).
The ``tight`` problem, p(lambda) = lambda - 0.3 on a window whose bottom row
is the real axis, is one where Weyl's inequality holds with equality along
that row, so only the rounding margin keeps its enclosures valid.
"""

import io
import json
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyspectra import GridSpec, MatrixPolynomial, PreconditionError, WeightPolynomial
from polyspectra import perturbations
from polyspectra.cli import main, parse_problem
from polyspectra.contours import boundary_curves
from polyspectra.errors import PolyspectraError
from polyspectra.matpoly import eigenvalues
from polyspectra.pseudospectrum import (
    Levels,
    ScalarField,
    compute_field,
    label_sublevel,
    merge_bracket,
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


def _trace(P, w, field, levels) -> tuple:
    """Everything ``boundary_curves`` returns, with each curve's points as
    bytes."""
    traced = boundary_curves(P, w, field, levels)
    curves = [[(c.points.tobytes(), c.termination) for c in level] for level in traced.curves]
    return curves, traced.rounds, traced.points, traced.frozen


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
        # both ends of every edge the level crosses are exact
        side, exact = values <= eps, levelled.exact
        assert (exact[1:] & exact[:-1])[side[1:] != side[:-1]].all(), eps
        assert (exact[:, 1:] & exact[:, :-1])[side[:, 1:] != side[:, :-1]].all(), eps
    assert np.array_equal(levelled.values[levelled.exact], values[levelled.exact])
    for lam in eigs:
        assert levelled.value_near(lam) == full.value_near(lam)

    # so its contours, polished, are the full field's, bit for bit; a
    # level it was not built for raises
    traced = rand.sample(levels, min(2, len(levels)))
    assert _trace(P, w, levelled, traced) == _trace(P, w, full, traced)
    with pytest.raises(PreconditionError, match="outside the spans"):
        boundary_curves(P, w, levelled, [*traced, 2 * levels[-1] + 1.0])

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

    # the distance search over [floor, top] on the band [0, top], as
    # distance runs it
    if len(eigs) < 2:
        return
    floor = max(2.0 * max(full.value_near(z) for z in eigs), 1e-14)
    above = values[values > floor]
    if not above.size:
        return
    top = float(rand.choice([rand.choice(above.ravel().tolist()),
                             rand.uniform(floor, float(above.max()))]))
    band = compute_field(P, w, grid, Levels(((0.0, top),), tuple(eigs)))
    ((_, cut),) = band.levels.spans  # the band, cut at the enclosures' merge
    assert cut <= top
    assert [band.value_near(z) for z in eigs] == [full.value_near(z) for z in eigs]
    assert _outcome(lambda: merge_bracket(band, eigs, floor, cut)) == _outcome(
        lambda: merge_bracket(full, eigs, floor, top)
    )
    with pytest.raises(PreconditionError, match="outside the spans"):
        merge_bracket(band, eigs, floor, 2 * top)


# each landscape fixture with the budget its distance is searched under
BUDGETS = {
    "uptri_quadratic_2x2": 0.05,
    "damped_system_3x3": 0.1,
    "conic_pencil_3x3": 0.2,
    "isolated_fault_pencil_3x3": 0.5,
    "diag_movable_eigenvalue_2x2": 1.0,
}


@pytest.mark.parametrize("size", [101, 401])
@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_distance_cuts_its_band_at_the_merge(name, size, monkeypatch):
    # distance cuts its band where the enclosures' components meet, and
    # searches below that cut: its bracket and merging pair are still those
    # of the full field over [floor, eps_max]
    P, w, window = PROBLEMS[name]
    grid = replace(window, nx=size, ny=size)
    eps_max = BUDGETS[name]
    eigs = [complex(z) for z in eigenvalues(P).eigenvalues]
    full = compute_field(P, w, grid)
    floor = max(2.0 * max(full.value_near(z) for z in eigs), 1e-14)
    want = _outcome(lambda: merge_bracket(full, eigs, floor, eps_max))

    seen = []

    def recording(*args):
        seen.append(_outcome(lambda: merge_bracket(*args)))
        return merge_bracket(*args)

    monkeypatch.setattr(perturbations, "merge_bracket", recording)
    got = _outcome(lambda: perturbations.distance_to_multiple(P, w, eps_max, window=grid))
    assert seen == [want]
    if isinstance(got, perturbations.DistanceResult):
        lo, hi, _ = want
        assert got.bracket == (lo, hi)
        assert hi <= got.band <= eps_max
        if (name, size) == ("damped_system_3x3", 401):
            done, total = got.points
            assert 4 * done <= total


def test_a_band_field_cannot_be_traced_inside_its_band():
    # the band's outer edge ends need not be exact, so tracing at its top
    # would polish other contours than the full field's
    P, w, window = PROBLEMS["conic_pencil_3x3"]
    grid = replace(window, nx=101, ny=101)
    band = compute_field(P, w, grid, Levels(((0.0, 0.6),)))
    with pytest.raises(PreconditionError, match="inside a band"):
        boundary_curves(P, w, band, [0.6])
    single = compute_field(P, w, grid, Levels(((0.6, 0.6),)))
    assert _trace(P, w, single, [0.6]) == _trace(P, w, compute_field(P, w, grid), [0.6])


def test_levels_out_of_order_are_rejected():
    # [0.5, 0.1] is empty: no span holds it, though 0.5 >= 0 and 0.1 <= 0.2
    grid = GridSpec(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=2, ny=2)
    field = ScalarField(grid=grid, values=np.zeros((2, 2)), levels=Levels(((0.0, 0.2),)),
                        exact=np.ones((2, 2), dtype=bool))
    field.check_levels(0.1, 0.2)
    with pytest.raises(PreconditionError, match="out of order"):
        field.check_levels(0.5, 0.1)


def test_a_levelled_field_takes_no_more_memory_than_a_full_one():
    # trace's field, one single level per eps, on the fixture whose trace
    # decomposes the largest share of its nodes (58% at 401 x 401), and
    # distance's band field with the eigenvalues as exact points
    spec = parse_problem((FIXTURES / "damped_system_3x3.json").read_text())
    P, w = spec.polynomial, spec.weight
    grid = replace(spec.window, nx=401, ny=401)
    eigs = tuple(complex(z) for z in eigenvalues(P).eigenvalues)
    kinds = (None, Levels(tuple((e, e) for e in spec.epsilons)),
             Levels(((0.0, 0.1),), exact=eigs))
    for levels in kinds:  # what a process allocates once, on a small grid
        compute_field(P, w, replace(grid, nx=41, ny=41), levels)
    peaks = []
    for levels in kinds:
        tracemalloc.start()
        try:
            compute_field(P, w, grid, levels)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    full, single, band = peaks
    assert single <= full and band <= full


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
    # distance also names the top of the band it searched, at most eps_max
    band = float(err.getvalue().split(" band=")[1].split()[0])
    assert 0 < band <= 0.2


def test_a_node_where_p_overflows_still_exits_3(tmp_path):
    # P(lambda) = 1 + 1e154 lambda^2 overflows only at the three nodes of
    # the window's far corner, which the lattice of every 4th node misses;
    # the margin, as large as the coefficient norms, then covers every
    # level, so those nodes are decomposed and the command fails as on the
    # full field
    doc = {"n": 1, "m": 2, "coefficients": [{"re": [[1.0]]}, {"re": [[0.0]]}, {"re": [[1e154]]}],
           "window": {"x_min": -1e76, "x_max": 1.02e77, "y_min": -1e76, "y_max": 1.02e77,
                      "nx": 15, "ny": 15}}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["components", "--input", str(path), "--eps", "0.5"])
    assert code == 3 and "non-finite" in err.getvalue()
