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
    whose diagonal is ignored, giving shape (16,), or a stack of k such
    matrices, giving shape (k, 16); needs at least 3 nodes."""
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim not in (2, 3) or adj.shape[-2] != adj.shape[-1]:
        raise MetricError("adjacency must be square, or a stack of square matrices")
    n = adj.shape[-1]
    if n < 3:
        raise MetricError(f"triad census needs >= 3 nodes, got {n}")
    i, j, k = _triple_indices(n)
    code = (
        adj[..., i, j].astype(np.int64)
        + 2 * adj[..., j, i]
        + 4 * adj[..., i, k]
        + 8 * adj[..., k, i]
        + 16 * adj[..., j, k]
        + 32 * adj[..., k, j]
    )
    classes = CODE_TO_CLASS[code]
    if adj.ndim == 2:
        return np.bincount(classes, minlength=16)
    # one bincount over the stack: graph g's classes land in bins 16g..16g+15
    graphs = len(adj)
    classes += 16 * np.arange(graphs)[:, None]
    return np.bincount(classes.ravel(), minlength=16 * graphs).reshape(graphs, 16)


@lru_cache(maxsize=2)
def _swap_setup(shape: tuple, data: bytes):
    """The swap loop's state for one adjacency: the flat adjacency with a
    True diagonal, each edge's target, each edge's source row offset, and
    whether each edge is movable. Cached because a profile randomizes one
    adjacency many times in a row, so every value is immutable."""
    adj = np.frombuffer(data, dtype=bool).reshape(shape).copy()
    np.fill_diagonal(adj, False)
    n = shape[0]
    src, dst = np.argwhere(adj).T
    movable = (adj.sum(axis=1)[src] < n - 1) & (adj.sum(axis=0)[dst] < n - 1)
    np.fill_diagonal(adj, True)
    rows = src * n
    rows.flags.writeable = movable.flags.writeable = False
    return tuple(adj.ravel().tolist()), tuple(dst.tolist()), rows, movable


def degree_preserving_randomization(
    adjacency: np.ndarray, swaps_per_edge: int, rng: np.random.Generator
) -> np.ndarray:
    """Randomized copy of adjacency via swaps_per_edge * |E| attempted
    directed edge swaps.

    A pick of edges (a->b, c->d) is rewired to (a->d, c->b) unless that
    would create a self-loop or a duplicate arc; failed attempts leave the
    graph unchanged but still count. In- and out-degrees are invariant.

    Picks that must fail are dropped before the loop, and the rest run in
    draw order, so output and generator state equal those of testing every
    pick. A pick succeeds only if a->d and c->b are both absent, so an edge
    can move only if its source has out-degree < n - 1 and its target
    in-degree < n - 1 (it is movable). A success exchanges the targets of
    two movable edges and keeps every degree, so the movable edges stay
    movable and the others never move. Two edges from one source always
    fail, since the a->d they need is the second edge itself. The loop thus
    sees only picks of two movable edges with different sources; sources
    never change, so this mask holds for the whole call.
    """
    adj = np.ascontiguousarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise MetricError("adjacency must be a square matrix")
    present, dst, rows, movable = _swap_setup(adj.shape, adj.tobytes())
    m = len(dst)
    if m == 0:
        return np.zeros(adj.shape, dtype=bool)
    pairs = rng.integers(0, m, size=(swaps_per_edge * m, 2), dtype=np.int64)
    # The loop runs on plain Python lists: present is the flat adjacency, dst
    # each edge's current target. A swap only moves targets, so each pick's
    # source row offset is fixed and computed up front. A True diagonal makes
    # the self-loop tests (a == d, c == b) part of the duplicate-arc test;
    # no swap ever clears it, since a->b and c->d are never self-loops.
    offsets = rows[pairs]
    both_movable = movable[pairs]
    keep = both_movable[:, 0] & both_movable[:, 1] & (offsets[:, 0] != offsets[:, 1])
    pairs, offsets = pairs[keep], offsets[keep]
    present = list(present)
    dst = list(dst)
    for e1, e2, a, c in zip(
        pairs[:, 0].tolist(), pairs[:, 1].tolist(), offsets[:, 0].tolist(), offsets[:, 1].tolist()
    ):
        b = dst[e1]
        d = dst[e2]
        ad = a + d
        cb = c + b
        if present[ad] or present[cb]:
            continue
        present[a + b] = present[c + d] = False
        present[ad] = present[cb] = True
        dst[e1] = d
        dst[e2] = b
    adj = np.array(present, dtype=bool).reshape(adj.shape)
    np.fill_diagonal(adj, False)
    return adj


def triad_significance_profile(
    adjacency: np.ndarray, ensemble_size: int, swaps_per_edge: int, rng: np.random.Generator
) -> np.ndarray:
    """Unit-normalized z-scores of the 16 triad counts against a
    degree-preserving random ensemble.

    Classes whose count never varies across the ensemble get z = 0; a profile
    with no varying class at all stays the zero vector.
    """
    observed = triad_census(adjacency).astype(np.float64)
    randomized = np.empty((ensemble_size, *np.shape(adjacency)), dtype=bool)
    for e in range(ensemble_size):
        randomized[e] = degree_preserving_randomization(adjacency, swaps_per_edge, rng)
    ensemble = triad_census(randomized).astype(np.float64)
    mean = ensemble.mean(axis=0)
    std = ensemble.std(axis=0)
    z = np.zeros(16)
    varying = std > 0
    z[varying] = (observed[varying] - mean[varying]) / std[varying]
    norm = np.linalg.norm(z)
    return z / norm if norm > 0 else z
