"""Sublevel labels, the union-find and the fault scan's 3 x 3 filters,
checked bit for bit against scipy, and the connectivity rule they share.

scipy is the tests' oracle only: the package itself imports none of it
(``tests/test_import_graph.py``).
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage, sparse
from scipy.sparse import csgraph

from polyspectra import GridSpec, ScalarField, compute_field
from polyspectra.cli import parse_problem
from polyspectra.faultlines import _filter3
from polyspectra.matpoly import connected_components
from polyspectra.pseudospectrum import label_mask, label_sublevel

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))
EIGHT = np.ones((3, 3), dtype=int)


def assert_labels_match_ndimage(mask):
    labels, count = label_mask(mask)
    want, want_count = ndimage.label(mask, structure=EIGHT)
    assert count == want_count
    assert labels.dtype == want.dtype == np.int32
    assert np.array_equal(labels, want)


def spiral(n: int) -> np.ndarray:
    """A clockwise square spiral one cell wide, its turns one cell apart."""
    mask = np.zeros((n, n), dtype=bool)
    r, c, dr, dc = 0, 0, 0, 1
    mask[r, c] = True
    lengths = [n - 1, n - 1, n - 1] + [n - k for k in range(3, n, 2) for _ in (0, 1)]
    for length in lengths:
        for _ in range(length):
            r, c = r + dr, c + dc
            mask[r, c] = True
        dr, dc = dc, -dr
    return mask


class TestLabelMask:
    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 7), (7, 1), (2, 2), (5, 9)], ids=lambda s: "x".join(map(str, s))
    )
    @pytest.mark.parametrize("fill", [False, True], ids=["empty", "full"])
    def test_empty_and_full(self, shape, fill):
        assert_labels_match_ndimage(np.full(shape, fill))

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 40])
    def test_single_rows_and_columns(self, k):
        rng = np.random.default_rng(k)
        for _ in range(20):
            row = rng.random(k) < 0.5
            assert_labels_match_ndimage(row[None, :])
            assert_labels_match_ndimage(row[:, None])

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (6, 7), (40, 39)])
    def test_checkerboards_join_at_corners(self, shape):
        # every contact is diagonal-only, so each board is one component
        board = np.add.outer(np.arange(shape[0]), np.arange(shape[1])) % 2 == 0
        for mask in (board, ~board):
            assert_labels_match_ndimage(mask)
        assert label_mask(board)[1] == 1

    def test_u_shapes_number_by_first_cell(self):
        # the U's right arm starts after the dot between its arms and joins
        # the left arm further down, and the hook around both starts last:
        # labels follow each component's first cell, not the merge order
        u = np.array(
            [
                [1, 0, 0, 1, 0, 1, 0, 1],
                [1, 0, 0, 0, 0, 1, 0, 1],
                [1, 1, 1, 1, 1, 1, 0, 1],
                [0, 0, 0, 0, 0, 0, 0, 1],
                [1, 1, 1, 1, 1, 1, 1, 1],
            ],
            dtype=bool,
        )
        labels, count = label_mask(u)
        assert count == 3
        assert labels[0].tolist() == [1, 0, 0, 2, 0, 1, 0, 3]
        assert labels[4].tolist() == [3] * 8
        for mask in (u, u[::-1], u[:, ::-1], u.T, u.T[::-1]):
            assert_labels_match_ndimage(mask)

    @pytest.mark.parametrize("n", [5, 6, 11, 12, 41])
    def test_spirals(self, n):
        mask = spiral(n)
        for variant in (mask, mask.T, mask[::-1], mask[:, ::-1], ~mask):
            assert_labels_match_ndimage(variant)

    def test_random_masks(self):
        rng = np.random.default_rng(20)
        for _ in range(400):
            rows, cols = rng.integers(1, 41, size=2)
            assert_labels_match_ndimage(rng.random((rows, cols)) < rng.uniform(0.05, 0.95))

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_fixture_fields_at_25_levels(self, path):
        spec = parse_problem(path.read_text())
        window = replace(spec.window, nx=401, ny=401)
        field = compute_field(spec.polynomial, spec.weight, window)
        for level in np.quantile(field.values, np.linspace(0.0, 1.0, 25)):
            labels, count = label_sublevel(field, float(level))
            want, want_count = ndimage.label(field.values <= level, structure=EIGHT)
            assert count == want_count
            assert np.array_equal(labels, want)


class TestConnectedComponents:
    def test_random_graphs_match_csgraph(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            k = int(rng.integers(1, 40))
            edges = int(rng.integers(0, 2 * k))
            u, v = rng.integers(0, k, size=(2, edges))
            # duplicate edges and self-loops
            u = np.concatenate([u, u[: edges // 3], np.arange(0, k, 3)])
            v = np.concatenate([v, v[: edges // 3], np.arange(0, k, 3)])
            graph = sparse.coo_matrix((np.ones(len(u)), (u, v)), shape=(k, k))
            want_count, want = csgraph.connected_components(graph, directed=False)
            count, labels = connected_components(k, u, v)
            assert count == want_count
            assert labels.tolist() == want.tolist()

    def test_no_edges(self):
        count, labels = connected_components(5, [], [])
        assert count == 5
        assert labels.tolist() == [0, 1, 2, 3, 4]

    def test_no_nodes(self):
        count, labels = connected_components(0, [], [])
        assert count == 0
        assert len(labels) == 0

    def test_groups_number_by_lowest_node(self):
        count, labels = connected_components(6, [5, 4, 1], [3, 2, 5])
        assert count == 3
        assert labels.tolist() == [0, 1, 2, 1, 2, 1]


class TestFilter3:
    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (1, 6), (6, 1), (2, 2), (3, 3), (17, 23)],
        ids=lambda s: "x".join(map(str, s)),
    )
    def test_matches_ndimage_nearest(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for a in (rng.normal(size=shape), rng.integers(0, 3, size=shape).astype(float)):
            got = _filter3(np.maximum, a)
            assert got.tobytes() == ndimage.maximum_filter(a, size=3, mode="nearest").tobytes()
            got = _filter3(np.minimum, a)
            assert got.tobytes() == ndimage.minimum_filter(a, size=3, mode="nearest").tobytes()


class TestConnectivityRule:
    """Cells that touch only at a corner share a component (8-connectivity).

    ROADMAP item 3 is to decide such saddle cells from s_min/w at the cell
    centre instead; that change of the one rule edits these tests.
    """

    def test_diagonal_contact_joins_two_cells(self):
        assert label_mask(np.array([[1, 0], [0, 1]], dtype=bool))[1] == 1
        assert label_mask(np.array([[0, 1], [1, 0]], dtype=bool))[1] == 1
        grid = GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=2, ny=2)
        field = ScalarField(grid=grid, values=np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert label_sublevel(field, 0.5)[1] == 1

    def test_damped_at_15x15_counts_two(self):
        # ROADMAP item 3's table: 2 components 8-connected, 4 with 4-connectivity
        path = next(p for p in FIXTURES if p.stem == "damped_system_3x3")
        spec = parse_problem(path.read_text())
        window = replace(spec.window, nx=15, ny=15)
        field = compute_field(spec.polynomial, spec.weight, window)
        assert label_sublevel(field, 0.02)[1] == 2
        assert ndimage.label(field.values <= 0.02)[1] == 4
