"""Tests for maximum-weight bipartite matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.weight_matching import (
    matching_weight,
    max_weight_matching,
    max_weight_matching_arrays,
)
from tests.conftest import bipartite_edge_lists


def _best_weight(n_left, edges, weights):
    """Maximum matching weight by enumerating every matching."""
    by_left = [[] for _ in range(n_left)]
    for eid, (u, v) in enumerate(edges):
        by_left[u].append((v, weights[eid]))

    def best(u, used):
        if u == n_left:
            return 0.0
        top = best(u + 1, used)  # leave u unmatched
        for v, w in by_left[u]:
            if v not in used:
                top = max(top, w + best(u + 1, used | {v}))
        return top

    return best(0, frozenset())


def _check_selection(n_left, n_right, edges, weights):
    """Solve both entry points and assert every documented property."""
    us = np.array([u for u, _ in edges], dtype=np.int64)
    vs = np.array([v for _, v in edges], dtype=np.int64)
    got = max_weight_matching_arrays(
        n_left, n_right, us, vs, np.asarray(weights, dtype=float)
    )
    assert got.dtype == np.int64
    # The dict wrapper returns the same selection, in the same order.
    as_dict = max_weight_matching(n_left, n_right, edges, weights)
    assert list(as_dict.items()) == [
        (edges[e][0], e) for e in got.tolist()
    ]
    # A valid matching, ordered by left vertex.
    lefts = [edges[e][0] for e in got.tolist()]
    rights = [edges[e][1] for e in got.tolist()]
    assert lefts == sorted(set(lefts))
    assert len(set(rights)) == len(rights)
    for e in got.tolist():
        # Only positive-weight edges are returned...
        assert weights[e] > 0
        # ...and a parallel group resolves to its heaviest copy, ties
        # to the lowest edge id.
        copies = [i for i, pair in enumerate(edges) if pair == edges[e]]
        top = max(weights[i] for i in copies)
        assert e == min(i for i in copies if weights[i] == top)
    # Optimal, by exhaustive search.
    total = sum(weights[e] for e in got.tolist())
    assert total == pytest.approx(_best_weight(n_left, edges, weights))
    return total


class TestMaxWeightMatching:
    def test_prefers_heavy_edge(self):
        got = max_weight_matching(2, 2, [(0, 0), (0, 1), (1, 0)], [1, 10, 10])
        assert matching_weight(got, [1, 10, 10]) == 20

    def test_zero_weight_edges_unmatched(self):
        got = max_weight_matching(1, 1, [(0, 0)], [0.0])
        assert got == {}

    def test_parallel_edges_heaviest_wins(self):
        got = max_weight_matching(1, 1, [(0, 0), (0, 0)], [1.0, 5.0])
        assert got == {0: 1}

    def test_empty_inputs(self):
        assert max_weight_matching(0, 3, [], []) == {}
        assert max_weight_matching(3, 3, [], []) == {}

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            max_weight_matching(1, 1, [(0, 0)], [-1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            max_weight_matching(1, 1, [(0, 0)], [])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            max_weight_matching(1, 1, [(0, 1)], [1.0])

    def test_left_larger_than_right(self):
        got = max_weight_matching(
            3, 1, [(0, 0), (1, 0), (2, 0)], [1.0, 5.0, 3.0]
        )
        assert matching_weight(got, [1.0, 5.0, 3.0]) == 5.0

    @given(bipartite_edge_lists(max_side=4, max_edges=8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_optimal_vs_bruteforce(self, data, draw):
        n_left, n_right, edges = data
        weights = [
            float(draw.draw(st.integers(0, 9))) for _ in range(len(edges))
        ]
        got = max_weight_matching(n_left, n_right, edges, weights)
        assert matching_weight(got, weights) == pytest.approx(
            _best_weight(n_left, edges, weights)
        )


class TestArrayEntryPoint:
    def test_returns_edge_ids_by_left_vertex(self):
        got = max_weight_matching_arrays(
            3, 3, [2, 0, 1], [0, 1, 2], [4.0, 5.0, 6.0]
        )
        assert got.tolist() == [1, 2, 0]

    def test_tied_parallel_copies_resolve_to_lowest_id(self):
        got = max_weight_matching_arrays(
            2, 2, [1, 0, 1, 0], [1, 0, 1, 0], [3.0, 2.0, 3.0, 2.0]
        )
        assert got.tolist() == [1, 0]

    def test_integer_weights_accepted(self):
        got = max_weight_matching_arrays(
            2, 2, np.array([0, 1]), np.array([1, 0]), np.array([2, 7])
        )
        assert got.tolist() == [0, 1]

    def test_empty_returns_int64(self):
        got = max_weight_matching_arrays(4, 4, [], [], [])
        assert got.dtype == np.int64 and got.size == 0

    @pytest.mark.parametrize(
        "us,vs,weights,match",
        [
            ([0], [0, 0], [1.0], "equal length"),
            ([0], [0], [1.0, 2.0], "equal length"),
            ([0, 0], [0, 0], [1.0, -2.0], "nonnegative, got -2.0"),
            ([0, 3], [0, 0], [1.0, 1.0], r"edge \(3, 0\) out of range"),
            ([0, 0], [0, -1], [1.0, 1.0], r"edge \(0, -1\) out of range"),
            # The first bad edge is the one reported.
            ([5, 0], [0, 0], [1.0, -1.0], "out of range"),
            ([0, 5], [0, 0], [-1.0, 1.0], "nonnegative"),
        ],
    )
    def test_validation_errors(self, us, vs, weights, match):
        with pytest.raises(ValueError, match=match):
            max_weight_matching_arrays(2, 2, us, vs, weights)


@st.composite
def _weighted_multigraphs(draw):
    """Up to 5x5 graphs with zero weights, ties and parallel copies."""
    n_left, n_right, edges = draw(bipartite_edge_lists(max_side=5, max_edges=9))
    # Duplicate a few drawn edges so parallel groups are common.
    for _ in range(draw(st.integers(0, 3))):
        if edges:
            edges.append(edges[draw(st.integers(0, len(edges) - 1))])
    weights = [float(draw(st.integers(0, 4))) for _ in edges]
    return n_left, n_right, edges, weights


class TestBruteForceOptimality:
    @given(_weighted_multigraphs())
    @settings(max_examples=300, deadline=None)
    def test_both_entry_points_in_both_orientations(self, graph):
        n_left, n_right, edges, weights = graph
        total = _check_selection(n_left, n_right, edges, weights)
        # The transposed graph has the same optimum.
        flipped = [(v, u) for u, v in edges]
        assert _check_selection(
            n_right, n_left, flipped, weights
        ) == pytest.approx(total)
