"""Maximum-weight bipartite matching (not necessarily perfect).

The paper's **MinRTime** and **MaxWeight** heuristics both extract a
maximum-weight matching from the waiting graph each round, with different
edge weights (flow age, and endpoint queue sizes, respectively).

With nonnegative weights, maximum-weight matching is the rectangular
assignment problem on the dense weight matrix (absent edges weigh 0)
with zero-weight pairs dropped afterwards.  scipy's C solver
(``linear_sum_assignment(..., maximize=True)``) solves it; a 150x150
call takes under a millisecond.

Tie rule: among maximum-weight matchings, the one scipy picks on the
``(n_left, n_right)`` matrix (rows are left vertices), after parallel
edges collapse to their heaviest copy, ties to the lowest edge id.
``tests/test_golden_selections.py`` pins the resulting MinRTime and
MaxWeight selections, so a change of tie choice fails loudly.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment


def max_weight_matching_arrays(
    n_left: int,
    n_right: int,
    us: np.ndarray,
    vs: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Maximum-weight matching over bare endpoint arrays.

    Parameters
    ----------
    n_left / n_right:
        Vertex counts.
    us / vs:
        Endpoints of edge ``i`` are ``(us[i], vs[i])``; parallel edges
        are allowed (only the heaviest copy, ties to the lowest id, can
        be returned).
    weights:
        Nonnegative weight per edge.

    Returns
    -------
    ndarray
        Matched edge ids (``int64``) in ascending order of their left
        vertex; only edges of strictly positive weight are returned.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    n_edges = len(w)
    if len(us) != n_edges or len(vs) != n_edges:
        raise ValueError("edges and weights must have equal length")
    if n_left == 0 or n_right == 0 or n_edges == 0:
        return np.empty(0, dtype=np.int64)
    # Negative vertex ids wrap to huge unsigned values, so one
    # comparison per side catches both ends of the range.
    negative = w < 0
    bad = (
        negative
        | (us.view(np.uint64) >= n_left)
        | (vs.view(np.uint64) >= n_right)
    )
    if bad.any():
        i = int(np.argmax(bad))  # report the first bad edge
        if negative[i]:
            raise ValueError(f"weights must be nonnegative, got {w[i]}")
        raise ValueError(f"edge ({us[i]}, {vs[i]}) out of range")

    # Dense (n_left, n_right) matrices over flat cells.
    cell = us * n_right + vs
    eids = np.arange(n_edges)
    eid_flat = np.full(n_left * n_right, -1, dtype=np.int64)
    eid_flat[cell] = eids
    if not (eid_flat[cell] == eids).all():
        # Parallel edges: keep the heaviest copy, ties to the lowest id
        # (lexsort is stable).
        order = np.lexsort((-w, cell))
        first = np.ones(n_edges, dtype=bool)
        first[1:] = cell[order[1:]] != cell[order[:-1]]
        eids = order[first]
        cell, w = cell[eids], w[eids]
        eid_flat[cell] = eids
    weight_flat = np.zeros(n_left * n_right)
    weight_flat[cell] = w

    rows, cols = linear_sum_assignment(
        weight_flat.reshape(n_left, n_right), maximize=True
    )
    matched = rows * n_right + cols
    return eid_flat[matched[weight_flat[matched] > 0]]


def max_weight_matching(
    n_left: int,
    n_right: int,
    edges: Sequence[tuple[int, int]],
    weights: Sequence[float],
) -> Dict[int, int]:
    """Maximum-weight matching of a bipartite graph.

    Parameters
    ----------
    n_left / n_right:
        Vertex counts.
    edges:
        ``(u, v)`` pairs; parallel edges are allowed (the heaviest copy is
        the only one that can win).
    weights:
        Nonnegative weight per edge, aligned with ``edges``.

    Returns
    -------
    dict
        ``{left_vertex: edge_index}`` for every matched left vertex whose
        matched edge has strictly positive weight; the same selection as
        :func:`max_weight_matching_arrays`.
    """
    if len(edges) != len(weights):
        raise ValueError("edges and weights must have equal length")
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    matched = max_weight_matching_arrays(
        n_left, n_right, ends[:, 0], ends[:, 1], weights
    )
    return dict(zip(ends[matched, 0].tolist(), matched.tolist()))


def matching_weight(
    matching: Dict[int, int], weights: Sequence[float]
) -> float:
    """Total weight of a matching returned by :func:`max_weight_matching`."""
    return float(sum(weights[eid] for eid in matching.values()))
