"""Directed triad census and degree-preserving graph randomization.

Every unordered node triple of a digraph falls into exactly one of 16
isomorphism classes. The census encodes each triple's six possible arcs as a
6-bit code and maps it to its class through a frozen 64-entry lookup table.
Significance profiles compare the census against an ensemble of graphs
randomized by directed edge swaps that preserve every node's in- and
out-degree.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import MetricError

#: The 16 directed triad classes in conventional order.
TRIAD_NAMES = (
    "003", "012", "102", "021D", "021U", "021C", "111D", "111U",
    "030T", "030C", "201", "120D", "120U", "120C", "210", "300",
)

# 6-bit arc code for a triple (i, j, k), i < j < k:
#   bit0 i->j, bit1 j->i, bit2 i->k, bit3 k->i, bit4 j->k, bit5 k->j.
# CODE_TO_CLASS[code] is the index into TRIAD_NAMES of the code's
# isomorphism class (minimum re-encoding over all node permutations).
CODE_TO_CLASS = np.array(
    [
        0, 1, 1, 2, 1, 3, 5, 7, 1, 5, 4, 6, 2, 7, 6, 10,
        1, 5, 3, 7, 4, 8, 8, 12, 5, 9, 8, 13, 6, 13, 11, 14,
        1, 4, 5, 6, 5, 8, 9, 13, 3, 8, 8, 11, 7, 12, 13, 14,
        2, 6, 7, 10, 6, 11, 13, 14, 7, 13, 12, 14, 10, 14, 14, 15,
    ],
    dtype=np.int64,
)


@lru_cache(maxsize=64)
def _triple_indices(n: int):
    idx = np.arange(n)
    i, j, k = np.meshgrid(idx, idx, idx, indexing="ij")
    keep = (i < j) & (j < k)
    return i[keep], j[keep], k[keep]


def triad_census(adjacency: np.ndarray) -> np.ndarray:
    """Count node triples per triad class. adjacency is a boolean matrix
    whose diagonal is ignored; needs at least 3 nodes."""
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    if adj.shape != (n, n):
        raise MetricError("adjacency must be square")
    if n < 3:
        raise MetricError(f"triad census needs >= 3 nodes, got {n}")
    i, j, k = _triple_indices(n)
    code = (
        adj[i, j].astype(np.int64)
        + 2 * adj[j, i]
        + 4 * adj[i, k]
        + 8 * adj[k, i]
        + 16 * adj[j, k]
        + 32 * adj[k, j]
    )
    return np.bincount(CODE_TO_CLASS[code], minlength=16)


def _swap(adj, edges, pairs):
    """Attempt one directed edge swap per row of pairs, in place.

    A pick of edges (a->b, c->d) is rewired to (a->d, c->b) unless that
    would create a self-loop or a duplicate arc; failed attempts leave the
    graph unchanged but still count. In- and out-degrees are invariant.
    """
    for t in range(pairs.shape[0]):
        e1 = pairs[t, 0]
        e2 = pairs[t, 1]
        a = edges[e1, 0]
        b = edges[e1, 1]
        c = edges[e2, 0]
        d = edges[e2, 1]
        if a == d or c == b:
            continue
        if adj[a, d] or adj[c, b]:
            continue
        adj[a, b] = False
        adj[c, d] = False
        adj[a, d] = True
        adj[c, b] = True
        edges[e1, 1] = d
        edges[e2, 1] = b


def degree_preserving_randomization(
    adjacency: np.ndarray, swaps_per_edge: int, rng: np.random.Generator
) -> np.ndarray:
    """Randomized copy of adjacency via swaps_per_edge * |E| attempted
    directed edge swaps."""
    adj = np.ascontiguousarray(adjacency, dtype=bool).copy()
    np.fill_diagonal(adj, False)
    edges = np.argwhere(adj).astype(np.int64)
    m = len(edges)
    if m == 0:
        return adj
    attempts = swaps_per_edge * m
    pairs = rng.integers(0, m, size=(attempts, 2), dtype=np.int64)
    _swap(adj, edges, pairs)
    return adj


def triad_significance_profile(
    adjacency: np.ndarray,
    ensemble_size: int = 20,
    swaps_per_edge: int = 10,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Unit-normalized z-scores of the 16 triad counts against a
    degree-preserving random ensemble.

    Classes whose count never varies across the ensemble get z = 0; a profile
    with no varying class at all stays the zero vector.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    observed = triad_census(adjacency).astype(np.float64)
    ensemble = np.empty((ensemble_size, 16))
    for e in range(ensemble_size):
        randomized = degree_preserving_randomization(adjacency, swaps_per_edge, rng)
        ensemble[e] = triad_census(randomized)
    mean = ensemble.mean(axis=0)
    std = ensemble.std(axis=0)
    z = np.zeros(16)
    varying = std > 0
    z[varying] = (observed[varying] - mean[varying]) / std[varying]
    norm = np.linalg.norm(z)
    return z / norm if norm > 0 else z
