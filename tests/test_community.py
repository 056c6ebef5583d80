import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmreduce.community import (
    CommunityStats,
    Partition,
    _densify,
    agglomerative_modularity,
    chinese_whispers,
    export_partition,
    import_partition,
    partition_stats,
    weighted_modularity,
)
from fcmreduce.errors import ContractError
from fcmreduce.population import SocialGraph
from fcmreduce.similarity import TieWeight


def weighted_graph(n, edges):
    """edges: list of (i, j, similarity). Returns (graph, weights) with the
    requested similarities (via dissimilarity = -log(s))."""
    ties = tuple((i, j) for i, j, _ in edges)
    graph = SocialGraph(tuple(range(n)), ties)
    weights = {(i, j): TieWeight(-np.log(s)) for i, j, s in edges}
    return graph, weights


def two_cliques(size, bridge_sim=0.01, clique_sim=1.0):
    edges = []
    for i, j in itertools.combinations(range(size), 2):
        edges.append((i, j, clique_sim))
    for i, j in itertools.combinations(range(size, 2 * size), 2):
        edges.append((i, j, clique_sim))
    edges.append((size - 1, size, bridge_sim))
    return weighted_graph(2 * size, edges)


def brute_force_best_two_partition(graph, weights):
    """argmax of weighted modularity over all 2-partitions, vectorized over
    bitmask membership (node 0 pinned to side A to kill the symmetry)."""
    n = graph.n
    ties = list(graph.ties)
    sims = np.array([weights[t].similarity for t in ties])
    m = sims.sum()
    deg = np.zeros(n)
    for (i, j), s in zip(ties, sims):
        deg[i] += s
        deg[j] += s
    n_masks = 1 << (n - 1)
    masks = np.arange(n_masks, dtype=np.uint64)
    membership = np.zeros((n_masks, n), dtype=bool)
    membership[:, 0] = True
    for v in range(1, n):
        membership[:, v] = (masks >> np.uint64(v - 1)) & np.uint64(1) == 1
    k_a = membership @ deg
    k_b = deg.sum() - k_a
    w_in_a = np.zeros(n_masks)
    w_in_b = np.zeros(n_masks)
    for (i, j), s in zip(ties, sims):
        same_a = membership[:, i] & membership[:, j]
        same_b = ~membership[:, i] & ~membership[:, j]
        w_in_a += s * same_a
        w_in_b += s * same_b
    q = w_in_a / m - (k_a / (2 * m)) ** 2 + w_in_b / m - (k_b / (2 * m)) ** 2
    # proper 2-partitions only (side B non-empty)
    q[np.all(membership, axis=1)] = -np.inf
    best = int(np.argmax(q))
    side_a = frozenset(v for v in range(n) if membership[best, v])
    return side_a, float(q[best])


def scan_agglomerative(graph, weights):
    """Reference agglomeration: after every merge, rescan all live pairs in
    ascending order for the largest strictly positive modularity gain. The
    heap-driven detector must give the same assignment."""
    m = sum(weights[t].similarity for t in graph.ties)
    labels = {v: v for v in graph.nodes}
    if m == 0.0:
        return _densify(labels)
    k = {v: 0.0 for v in graph.nodes}
    between = {v: {} for v in graph.nodes}
    for i, j in graph.ties:
        s = weights[(i, j)].similarity
        k[i] += s
        k[j] += s
        between[i][j] = between[i].get(j, 0.0) + s
        between[j][i] = between[j].get(i, 0.0) + s
    alive = set(graph.nodes)
    while len(alive) > 1:
        best_gain = 0.0
        best_pair = None
        for a in sorted(alive):
            for b in sorted(between[a]):
                if b <= a:
                    continue
                gain = between[a][b] / m - k[a] * k[b] / (2.0 * m * m)
                if gain > best_gain:
                    best_gain = gain
                    best_pair = (a, b)
        if best_pair is None:
            break
        a, b = best_pair
        k[a] += k[b]
        for other, s in between[b].items():
            if other == a:
                continue
            between[a][other] = between[a].get(other, 0.0) + s
            between[other][a] = between[other].get(a, 0.0) + s
            del between[other][b]
        between[a].pop(b, None)
        del between[b]
        del k[b]
        alive.discard(b)
        for node, lab in labels.items():
            if lab == b:
                labels[node] = a
    return _densify(labels)


@st.composite
def agglomeration_cases(draw):
    """Small graphs with isolated nodes, components split at a drawn node id
    (no tie crosses it), and weights that are uniform (pairs of equal degree
    have equal gains, so the tie-break decides), drawn from three values,
    arbitrary, or all zero in similarity."""
    n = draw(st.integers(1, 14))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    split = draw(st.integers(0, n))
    ties = sorted((i, j) for i, j in chosen if (i < split) == (j < split))
    mode = draw(st.sampled_from(("uniform", "three", "any", "zero")))
    per_tie = {"min_size": len(ties), "max_size": len(ties)}
    if mode == "uniform":
        ds = [draw(st.floats(0.0, 5.0))] * len(ties)
    elif mode == "three":
        ds = draw(st.lists(st.sampled_from((0.0, 0.5, 2.0)), **per_tie))
    elif mode == "any":
        ds = draw(st.lists(st.floats(0.0, 5.0), **per_tie))
    else:
        ds = [1e4] * len(ties)  # exp(-1e4) underflows to a similarity of 0.0
    graph = SocialGraph(tuple(range(n)), tuple(ties))
    return graph, {t: TieWeight(d) for t, d in zip(ties, ds)}


class TestPartition:
    def test_dense_ids_required(self):
        with pytest.raises(ContractError):
            Partition({0: 0, 1: 2})

    def test_members(self):
        p = Partition({0: 0, 1: 1, 2: 0})
        assert p.members() == {0: [0, 2], 1: [1]}
        assert p.count == 2

    def test_csv_round_trip(self, tmp_path):
        p = Partition({0: 0, 1: 1, 2: 0, 3: 1})
        path = tmp_path / "partition.csv"
        export_partition(p, path)
        assert import_partition(path).assignment == p.assignment


class TestChineseWhispers:
    def test_two_cliques_with_weak_bridge(self):
        graph, weights = two_cliques(5)
        p = chinese_whispers(graph, weights, seed=0)
        assert p.count == 2
        assert p.converged is True
        groups = {frozenset(ms) for ms in p.members().values()}
        assert groups == {frozenset(range(5)), frozenset(range(5, 10))}

    def test_edgeless_graph_gives_singletons(self):
        graph = SocialGraph(tuple(range(7)), ())
        p = chinese_whispers(graph, {}, seed=1)
        assert p.count == 7
        assert p.converged is True

    def test_fixed_seed_reproducible(self):
        graph, weights = two_cliques(4, bridge_sim=0.5)
        a = chinese_whispers(graph, weights, seed=42)
        b = chinese_whispers(graph, weights, seed=42)
        assert a.assignment == b.assignment

    def test_reports_nonconvergence_when_cut_short(self):
        graph, weights = two_cliques(5)
        p = chinese_whispers(graph, weights, max_rounds=1, seed=0)
        assert p.converged is False
        assert p.rounds_used == 1

    def test_missing_weights_rejected(self):
        graph = SocialGraph((0, 1), ((0, 1),))
        with pytest.raises(ContractError):
            chinese_whispers(graph, {}, seed=0)

    def test_partition_invariants_on_random_graphs(self, rng):
        for trial in range(10):
            n = int(rng.integers(5, 25))
            density = rng.uniform(0.1, 0.5)
            edges = [
                (i, j, float(rng.uniform(0.05, 1.0)))
                for i, j in itertools.combinations(range(n), 2)
                if rng.random() < density
            ]
            graph, weights = weighted_graph(n, edges)
            p = chinese_whispers(graph, weights, seed=trial)
            assert set(p.assignment) == set(range(n))
            sizes = [len(ms) for ms in p.members().values()]
            assert sum(sizes) == n
            assert min(sizes) >= 1


class TestAgglomerative:
    def test_two_cliques_with_weak_bridge(self):
        graph, weights = two_cliques(5)
        p = agglomerative_modularity(graph, weights)
        assert p.count == 2
        groups = {frozenset(ms) for ms in p.members().values()}
        assert groups == {frozenset(range(5)), frozenset(range(5, 10))}

    def test_matches_brute_force_two_partition(self):
        graph, weights = two_cliques(4)
        p = agglomerative_modularity(graph, weights)
        side, best_q = brute_force_best_two_partition(graph, weights)
        got_groups = {frozenset(ms) for ms in p.members().values()}
        assert got_groups == {side, frozenset(range(8)) - side}
        assert weighted_modularity(graph, weights, p.assignment) == pytest.approx(
            best_q, abs=1e-12
        )

    def test_single_dyad_merges(self):
        graph, weights = weighted_graph(2, [(0, 1, 0.8)])
        p = agglomerative_modularity(graph, weights)
        assert p.count == 1

    def test_complete_uniform_graph_never_decreases_modularity(self):
        edges = [(i, j, 0.7) for i, j in itertools.combinations(range(6), 2)]
        graph, weights = weighted_graph(6, edges)
        p = agglomerative_modularity(graph, weights)
        singletons = {v: v for v in range(6)}
        assert weighted_modularity(graph, weights, p.assignment) >= weighted_modularity(
            graph, weights, singletons
        )

    def test_final_modularity_beats_singletons_on_random_graphs(self, rng):
        for trial in range(8):
            n = int(rng.integers(4, 16))
            edges = [
                (i, j, float(rng.uniform(0.05, 1.0)))
                for i, j in itertools.combinations(range(n), 2)
                if rng.random() < 0.4
            ]
            graph, weights = weighted_graph(n, edges)
            p = agglomerative_modularity(graph, weights)
            q_final = weighted_modularity(graph, weights, p.assignment)
            q_single = weighted_modularity(graph, weights, {v: v for v in range(n)})
            assert q_final >= q_single - 1e-12

    def test_deterministic(self):
        graph, weights = two_cliques(4, bridge_sim=0.3)
        a = agglomerative_modularity(graph, weights)
        b = agglomerative_modularity(graph, weights)
        assert a.assignment == b.assignment

    def test_isolated_nodes_stay_singletons(self):
        graph, weights = weighted_graph(4, [(0, 1, 0.9)])
        p = agglomerative_modularity(graph, weights)
        assert p.assignment[2] != p.assignment[3]
        assert p.count == 3

    @settings(max_examples=300, deadline=None)
    @given(agglomeration_cases())
    def test_heap_matches_scan_oracle(self, case):
        graph, weights = case
        assert agglomerative_modularity(graph, weights).assignment == scan_agglomerative(
            graph, weights
        )

    @pytest.mark.parametrize(
        "kind, uniform",
        [("scale_free", False), ("small_world", False), ("scale_free", True)],
    )
    def test_heap_matches_scan_oracle_on_larger_graphs(self, kind, uniform):
        # 300 nodes: enough merges for the heap to be rebuilt at least once
        if kind == "scale_free":
            g = nx.barabasi_albert_graph(300, 5, seed=7)
        else:
            g = nx.watts_strogatz_graph(300, 6, 0.1, seed=7)
        ties = sorted((min(e), max(e)) for e in g.edges())
        graph = SocialGraph(tuple(g.nodes), tuple(ties))
        rng = np.random.default_rng(7)
        ds = np.full(len(ties), 0.5) if uniform else rng.uniform(0.0, 3.0, len(ties))
        weights = {t: TieWeight(float(d)) for t, d in zip(ties, ds)}
        assert agglomerative_modularity(graph, weights).assignment == scan_agglomerative(
            graph, weights
        )

    def test_heap_stays_bounded_when_merges_leave_gains_unchanged(self, monkeypatch):
        # leaves tied to a hub with a similarity below the hub degree's ulp:
        # absorbing one leaves the hub's degree, and so every gain in its
        # row, bit-identical, so each merge re-pushes entries still current
        import heapq

        import fcmreduce.community as community

        n = 400
        ties = [(0, j) for j in range(1, n)] + [(1, j) for j in range(10, n)]
        ties += list(itertools.combinations(range(1, 10), 2))
        graph = SocialGraph(tuple(range(n)), tuple(ties))
        weights = {t: TieWeight(0.1 if max(t) < 10 else 60.0) for t in graph.ties}
        longest = 0
        push = heapq.heappush

        def recording_push(heap, entry):
            nonlocal longest
            push(heap, entry)
            longest = max(longest, len(heap))

        monkeypatch.setattr(community.heapq, "heappush", recording_push)
        p = agglomerative_modularity(graph, weights)
        monkeypatch.undo()
        assert p.assignment == scan_agglomerative(graph, weights)
        # at most twice the ties before a rebuild, plus one merged row
        assert 0 < longest <= 2 * len(ties) + n

    def test_modularity_drift_raises_contract_error(self, monkeypatch):
        # an explicit check, not an assert, so it also holds under python -O
        import fcmreduce.community as community

        graph, weights = two_cliques(3)
        monkeypatch.setattr(community, "weighted_modularity", lambda *args: -1.0)
        with pytest.raises(ContractError, match="drifted"):
            agglomerative_modularity(graph, weights)


class TestStats:
    def test_mixed_sizes(self):
        p = Partition(
            {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 2, 9: 2}
        )
        s = partition_stats(p)
        assert s == CommunityStats(count=3, avg_size=pytest.approx(10 / 3), max_size=4, min_size=3)

    def test_singletons(self):
        p = Partition({i: i for i in range(5)})
        s = partition_stats(p)
        assert (s.count, s.avg_size, s.max_size, s.min_size) == (5, 1.0, 1, 1)

    def test_one_community(self):
        p = Partition({i: 0 for i in range(6)})
        s = partition_stats(p)
        assert (s.count, s.avg_size, s.max_size, s.min_size) == (1, 6.0, 6, 6)
