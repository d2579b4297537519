from pathlib import Path

import numpy as np
import pytest

from polyspectra import (
    F_eps,
    GridSpec,
    MatrixPolynomial,
    WeightPolynomial,
    boundary_curves,
    compute_field,
)
from polyspectra import contours
from polyspectra.cli import _csv_lines, _json_text, parse_problem
from polyspectra.contours import (
    _SEGMENT_TABLE,
    _chains,
    _edge_points,
    marching_squares,
    on_curve_tolerance,
)
from polyspectra.svdcore import point_stack

from test_point_stack import run_trace

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))


def radial_field(grid):
    pts = grid.points()
    return np.abs(pts)


class TestMarchingSquares:
    def test_circle_level_set(self):
        grid = GridSpec(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=101, ny=101)
        polys = marching_squares(grid, radial_field(grid), 0.6)
        assert len(polys) == 1
        poly = polys[0]
        radii = np.hypot(poly[:, 0], poly[:, 1])
        # linear interpolation error is O(cell^2 / radius)
        assert np.max(np.abs(radii - 0.6)) < 2e-3
        # the chain closes on itself
        assert np.allclose(poly[0], poly[-1])
        # arc coverage: points spread over all quadrants
        angles = np.arctan2(poly[:, 1], poly[:, 0])
        assert angles.min() < -2.0 and angles.max() > 2.0

    def test_empty_level(self):
        grid = GridSpec(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=21, ny=21)
        assert marching_squares(grid, radial_field(grid), -0.1) == []

    def test_open_curve_hits_window_edge(self):
        grid = GridSpec(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=41, ny=41)
        pts = grid.points()
        values = pts.real  # level set Re = 0.25 is a vertical line
        polys = marching_squares(grid, values, 0.25)
        assert len(polys) == 1
        poly = polys[0]
        assert np.allclose(poly[:, 0], 0.25, atol=1e-12)
        ys = np.sort(poly[:, 1])
        assert ys[0] == -1.0 and ys[-1] == 1.0

    def test_two_separate_blobs(self):
        grid = GridSpec(x_min=-2.0, x_max=2.0, y_min=-1.0, y_max=1.0, nx=81, ny=41)
        pts = grid.points()
        values = np.minimum(np.abs(pts - 1.0), np.abs(pts + 1.0))
        polys = marching_squares(grid, values, 0.4)
        assert len(polys) == 2
        centers = sorted(np.mean(p[:, 0]) for p in polys)
        assert abs(centers[0] + 1.0) < 0.05 and abs(centers[1] - 1.0) < 0.05


def reference_marching_squares(grid, values, level):
    """The per-cell marching-squares loop, kept as the reference the
    vectorised code must reproduce bit for bit.  Each segment runs with the
    inside corners of its cell on its left, and links its start to its end;
    the polylines are the chains of those links: first the open ones, from
    each crossing no link enters, by edge, then the loops, each from its
    lowest edge, which it repeats at its end."""
    xs, ys = grid.xs(), grid.ys()
    inside = values <= level
    table = {
        1: (("bottom", "left"),), 2: (("right", "bottom"),), 3: (("right", "left"),),
        4: (("top", "right"),), 6: (("top", "bottom"),), 7: (("top", "left"),),
        8: (("left", "top"),), 9: (("bottom", "top"),), 11: (("right", "top"),),
        12: (("left", "right"),), 13: (("bottom", "right"),), 14: (("left", "bottom"),),
    }
    saddles = {
        (5, True): (("top", "left"), ("bottom", "right")),
        (5, False): (("bottom", "left"), ("top", "right")),
        (10, True): (("left", "bottom"), ("right", "top")),
        (10, False): (("right", "bottom"), ("left", "top")),
    }
    names = {
        "bottom": lambda i, j: ("x", i, j),
        "top": lambda i, j: ("x", i, j + 1),
        "left": lambda i, j: ("y", i, j),
        "right": lambda i, j: ("y", i + 1, j),
    }

    def point_on(kind, i, j):
        i1, j1 = (i + 1, j) if kind == "x" else (i, j + 1)
        p, q = (xs[i], ys[j]), (xs[i1], ys[j1])
        fp, fq = values[i, j], values[i1, j1]
        t = 0.5 if fq == fp else min(max((level - fp) / (fq - fp), 0.0), 1.0)
        return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

    link = {}
    for i in range(grid.nx - 1):
        for j in range(grid.ny - 1):
            case = (
                int(inside[i, j]) | int(inside[i + 1, j]) << 1
                | int(inside[i + 1, j + 1]) << 2 | int(inside[i, j + 1]) << 3
            )
            if case in (5, 10):
                center = 0.25 * (
                    values[i, j] + values[i + 1, j] + values[i + 1, j + 1] + values[i, j + 1]
                )
                pairs = saddles[case, bool(center <= level)]
            else:
                pairs = table.get(case, ())
            for a, b in pairs:
                assert names[a](i, j) not in link
                link[names[a](i, j)] = names[b](i, j)

    edges = sorted(set(link) | set(link.values()))
    entered = set(link.values())
    polylines, done = [], set()
    for start in [e for e in edges if e not in entered] + edges:
        if start in done:
            continue
        chain = [start]
        while chain[-1] in link and link[chain[-1]] != start:
            chain.append(link[chain[-1]])
        if chain[-1] in link:
            chain.append(start)
        done.update(chain)
        polylines.append(np.array([point_on(*e) for e in chain]))
    return polylines


def assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


UNIT = GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=2, ny=2)


def one_cell(bl, br, tr, tl):
    return np.array([[bl, tl], [br, tr]], dtype=float)


class TestBranches:
    # values 0 and 1 on a saddle cell: the center value is 0.5, inside the
    # level 0.75 and outside the level 0.25
    @pytest.mark.parametrize(
        "corners, level, want",
        [
            # case 5 (BL, TR inside), center outside: BL and TR cut off
            ((0, 1, 0, 1), 0.25, [[(0.25, 0.0), (0.0, 0.25)], [(0.75, 1.0), (1.0, 0.75)]]),
            # case 5, center inside: the band joining BL and TR
            ((0, 1, 0, 1), 0.75, [[(0.75, 0.0), (1.0, 0.25)], [(0.25, 1.0), (0.0, 0.75)]]),
            # case 10 (BR, TL inside), center outside: BR and TL cut off
            ((1, 0, 1, 0), 0.25, [[(0.0, 0.75), (0.25, 1.0)], [(1.0, 0.25), (0.75, 0.0)]]),
            # case 10, center inside: the band joining BR and TL
            ((1, 0, 1, 0), 0.75, [[(0.0, 0.25), (0.25, 0.0)], [(1.0, 0.75), (0.75, 1.0)]]),
        ],
        ids=["case5-center-out", "case5-center-in", "case10-center-out", "case10-center-in"],
    )
    def test_saddle_cell(self, corners, level, want):
        values = one_cell(*corners)
        polys = marching_squares(UNIT, values, level)
        assert [p.tolist() for p in polys] == [[list(pt) for pt in w] for w in want]
        assert_bitwise_equal(polys, reference_marching_squares(UNIT, values, level))

    def test_level_equal_to_two_neighbouring_samples(self):
        # samples 1 and 2 equal the level and count as inside; the crossing
        # sits exactly on sample 2 (t = 0), the flat edge between them is
        # not crossed
        grid = GridSpec(x_min=0.0, x_max=3.0, y_min=0.0, y_max=1.0, nx=4, ny=2)
        values = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        polys = marching_squares(grid, values, 1.0)
        assert [p.tolist() for p in polys] == [[[2.0, 0.0], [2.0, 1.0]]]
        assert_bitwise_equal(polys, reference_marching_squares(grid, values, 1.0))
        # an edge whose two samples are equal interpolates to its midpoint
        flat_x_edge = np.array([1 * grid.ny + 0])
        assert _edge_points(grid, values, 1.0, flat_x_edge).tolist() == [[1.5, 0.0]]

    @pytest.mark.parametrize("level", [-0.5, 2.5])
    def test_no_crossings(self, level):
        grid = GridSpec(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=9, ny=7)
        values = 1.0 + radial_field(grid) / 2.0  # in [1, 1.71]
        assert marching_squares(grid, values, level) == []

    def test_pinned_polylines(self):
        # two discs of radius^2 1.5: one centered on the left window edge
        # (an open curve) and one inside the window (a closed loop)
        grid = GridSpec(x_min=-3.0, x_max=3.0, y_min=-2.0, y_max=2.0, nx=7, ny=5)
        X, Y = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
        values = np.minimum((X - 1) ** 2 + Y**2, (X + 3) ** 2 + Y**2)
        polys = marching_squares(grid, values, 1.5)
        assert [len(p) for p in polys] == [7, 13]
        assert [bool(np.array_equal(p[0], p[-1])) for p in polys] == [False, True]
        # counterclockwise: the open arc from the bottom of the window edge,
        # the loop from its crossing on the lowest edge
        assert polys[0][0].tolist() == [-3.0, -1.1666666666666665]
        assert polys[0][-1].tolist() == [-3.0, 1.1666666666666667]
        assert polys[1][0].tolist() == [-0.16666666666666663, 0.0]
        assert polys[1][1].tolist() == [0.0, -0.5]
        assert_bitwise_equal(polys, reference_marching_squares(grid, values, 1.5))


class TestMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_fields(self, seed):
        # coarse integer-valued and rounded fields hit exact ties with the
        # level and many saddle cells
        rng = np.random.default_rng(seed)
        grid = GridSpec(x_min=-1.0, x_max=2.0, y_min=-0.0, y_max=1.0, nx=23, ny=17)
        fields = (
            rng.standard_normal((23, 17)),
            rng.integers(-2, 3, (23, 17)).astype(float),
            np.round(rng.standard_normal((23, 17)), 1),
        )
        for values in fields:
            for level in (0.0, 0.5, -1.0, float(rng.standard_normal())):
                assert_bitwise_equal(
                    marching_squares(grid, values, level),
                    reference_marching_squares(grid, values, level),
                )

    def test_circle(self):
        grid = GridSpec(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=101, ny=101)
        values = radial_field(grid)
        assert_bitwise_equal(
            marching_squares(grid, values, 0.6), reference_marching_squares(grid, values, 0.6)
        )


class TestPieces:
    """How ``_chains`` splits the links of one line at frozen vertices and
    cut segments."""

    @staticmethod
    def pieces(good, closed, cut=()):
        idx = np.arange(len(good))
        nxt = np.roll(idx, -1) if closed else np.append(idx[1:], -1)
        good = np.array(good)
        nxt[list(cut)] = -1
        nxt[~good] = -1
        return [(chain, loop) for chain, loop in _chains(nxt, ~good) if len(chain) > 1]

    def test_open_line_without_frozen_vertices_ends_on_the_window_edge(self):
        assert self.pieces([True] * 4, False) == [([0, 1, 2, 3], False)]

    def test_open_line_splits_at_frozen_vertices(self):
        got = self.pieces([True, True, False, True, True, True, False, True], False)
        # a piece of one point is dropped
        assert got == [([0, 1], False), ([3, 4, 5], False)]

    def test_closed_loop_cut_at_k_vertices_gives_k_pieces(self):
        assert self.pieces([True] * 5, True) == [([0, 1, 2, 3, 4], True)]
        got = self.pieces([True, False, True, True, True, False, True, True], True)
        assert got == [([2, 3, 4], False), ([6, 7, 0], False)]

    def test_a_cut_segment_splits_the_line_and_keeps_both_ends(self):
        got = self.pieces([True] * 5, False, [1])
        assert got == [([0, 1], False), ([2, 3, 4], False)]
        # a closed loop cut at one segment gives one open piece
        assert self.pieces([True] * 4, True, [2]) == [([3, 0, 1, 2], False)]

    def test_open_chains_come_first_and_a_loop_starts_at_its_lowest_node(self):
        # a loop 4 -> 2 -> 5 -> 4, and an open chain 3 -> 0 -> 1
        nxt = np.array([1, -1, 5, 0, 2, 4])
        got = list(_chains(nxt, np.zeros(6, dtype=bool)))
        assert got == [([3, 0, 1], False), ([2, 5, 4], True)]


class TestPolishedPieces:
    """What ``_curves`` emits from vertices already on the curve."""

    @staticmethod
    def curves(P, eps, z, closed):
        w = WeightPolynomial([1.0])
        z = np.asarray(z, dtype=complex)
        level = np.full(len(z), eps)
        grad = point_stack(P, w, z).grad_F(level)
        idx = np.arange(len(z))
        nxt = np.roll(idx, -1) if closed else np.append(idx[1:], -1)
        on = np.ones(len(z), dtype=bool)
        level_of = np.zeros(len(z), dtype=np.intp)
        [curves], _, _ = contours._curves(P, w, nxt, level_of, 1, z, level, on, grad, 0.1)
        return curves

    def test_a_piece_whose_points_coincide_is_dropped(self):
        # lambda - 0.2 at eps 0.5.  The vertices of the edges meeting at a
        # grid node polish to one point: a piece left with one point, and
        # no segment, is not emitted
        P = MatrixPolynomial([[[-0.2]], [[1.0]]])
        assert self.curves(P, 0.5, [0.7, 0.7], False) == []
        assert self.curves(P, 0.5, [0.7, 0.7, 0.7], True) == []
        [curve] = self.curves(P, 0.5, [0.7, 0.7, 0.2 + 0.5j], False)
        assert curve.points.tolist() == [0.7, 0.2 + 0.5j]
        assert curve.termination.value == "left_window"

    def test_a_segment_through_the_exterior_cuts_the_line(self):
        # diag(lambda + 1, lambda - 1) at eps 1.02: the discs overlap, and
        # the boundary of their union turns a corner at 0.2i.  A line along
        # the right circle to 0.3 rad, then along the left one, jumps the
        # corner through the exterior, and splits there
        P = MatrixPolynomial([np.diag([1.0, -1.0]), np.eye(2)])
        left = [-1 + 1.02 * np.exp(1j * t) for t in (0.5, 0.4, 0.3)]
        right = [1 - np.conj(z + 1) for z in left[::-1]]
        pieces = self.curves(P, 1.02, (left + right)[::-1], False)
        assert [c.termination.value for c in pieces] == ["gradient_invalid"] * 2
        # one piece on each circle
        assert sorted(bool(c.points.real.max() < 0) for c in pieces) == [False, True]

    def test_a_closed_curve_starts_at_its_smallest_point(self):
        # lambda - 0.2 at eps 0.5, counterclockwise from two different
        # vertices: the same curve, from its smallest point by x, then y
        P = MatrixPolynomial([[[-0.2]], [[1.0]]])
        z = 0.2 + 0.5 * np.exp(1j * np.linspace(0.0, 2 * np.pi, 13)[:-1])
        [a] = self.curves(P, 0.5, z, True)
        [b] = self.curves(P, 0.5, np.roll(z, 5), True)
        assert a.termination.value == b.termination.value == "closed"
        assert a.points.tobytes() == b.points.tobytes()
        assert len(a.points) == 13 and a.points[0] == a.points[-1]
        assert a.points[0] == min(z.tolist(), key=lambda p: (p.real, p.imag))


class TestTableOrientation:
    """Every segment runs with the sublevel set on one side."""

    # midpoints of the edges of the unit cell, and their end corners
    EDGES = {
        contours._BOTTOM: ((0.5, 0.0), ((0, 0), (1, 0))),
        contours._TOP: ((0.5, 1.0), ((0, 1), (1, 1))),
        contours._LEFT: ((0.0, 0.5), ((0, 0), (0, 1))),
        contours._RIGHT: ((1.0, 0.5), ((1, 0), (1, 1))),
    }
    BITS = {(0, 0): 1, (1, 0): 2, (1, 1): 4, (0, 1): 8}

    @pytest.mark.parametrize("case", sorted(_SEGMENT_TABLE))
    def test_inside_corners_lie_right_of_every_segment(self, case):
        corners = {5: 5, 10: 10, 16: 5, 17: 10}.get(case, case)
        for a, b in _SEGMENT_TABLE[case]:
            (ax, ay), (bx, by) = self.EDGES[a][0], self.EDGES[b][0]
            for edge in (a, b):
                for cx, cy in self.EDGES[edge][1]:
                    # the corners of the two crossed edges: inside ones to
                    # the right (negative cross product), outside ones left
                    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
                    assert (cross < 0) == bool(corners & self.BITS[cx, cy]), (a, b)


@pytest.mark.parametrize("seed", range(4))
def test_random_field_polylines_have_the_set_on_their_left(seed):
    # continuous random values never equal the level, so every crossing
    # lies inside one edge, whose inside end is left of the segments
    # through the crossing
    rng = np.random.default_rng(seed)
    grid = GridSpec(x_min=-1.0, x_max=2.0, y_min=0.0, y_max=1.0, nx=23, ny=17)
    values = rng.standard_normal((23, 17))
    xs, ys = grid.xs(), grid.ys()
    level = float(rng.standard_normal())

    def inside_end(x, y):
        [i] = np.flatnonzero(xs <= x)[-1:]
        [j] = np.flatnonzero(ys <= y)[-1:]
        other = (i + 1, j) if y == ys[j] else (i, j + 1)
        return (i, j) if values[i, j] <= level else other

    polys = marching_squares(grid, values, level)
    assert polys
    for poly in polys:
        for p, q in zip(poly[:-1], poly[1:]):
            for x, y in (p, q):
                i, j = inside_end(x, y)
                cross = (q[0] - p[0]) * (ys[j] - p[1]) - (q[1] - p[1]) * (xs[i] - p[0])
                assert cross > 0


def fixture_curves(path):
    spec = parse_problem(path.read_text())
    P, w, window = spec.polynomial, spec.weight, spec.window
    return spec, boundary_curves(P, w, compute_field(P, w, window), spec.epsilons)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_sublevel_set_lies_left_of_every_curve(path):
    # F_eps a quarter cell left of each segment's midpoint is negative, and
    # a quarter cell right of it positive, but near a corner
    spec, trace = fixture_curves(path)
    P, w, h = spec.polynomial, spec.weight, 0.25 * spec.window.cell_diagonal
    left, right = [], []
    for eps, curves in zip(spec.epsilons, trace.curves):
        for curve in curves:
            d = np.diff(curve.points)
            assert np.all(np.abs(d) > 0)
            mid, normal = curve.points[:-1] + 0.5 * d, 1j * d / np.abs(d)
            left.append(F_eps(P, w, eps, mid + h * normal) < 0)
            right.append(F_eps(P, w, eps, mid - h * normal) > 0)
    assert np.mean(np.concatenate(left)) > 0.98
    assert np.mean(np.concatenate(right)) > 0.98


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


class TestBatchedPolish:
    """``trace`` polishes every contour vertex of every level together, one
    ``point_stack`` per round; it must print and write what
    ``reference_trace`` gives, which moves one vertex at a time, one
    single-point ``point_stack`` per Newton step."""

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
