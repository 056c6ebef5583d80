import itertools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmreduce import similarity
from fcmreduce.errors import ConfigError, MetricError
from fcmreduce.fcm import Fcm
from fcmreduce.population import (
    SocialGraph,
    build_obesity_fcm,
    generate_cmaes_style,
    make_agents,
)
from fcmreduce.seeding import int_seed
from fcmreduce.similarity import (
    METRIC_KINDS,
    DiscretizationSpec,
    MetricConfig,
    StructuralView,
    TieWeight,
    centrality_cosine_distance,
    clustering_coefficient,
    clustering_distance,
    compare_graphs_distance,
    concept_count_distance,
    density,
    density_distance,
    distance,
    edge_kl_distance,
    export_tie_weights,
    import_tie_weights,
    jaccard_edge_distance,
    kl_from_counts,
    kl_from_samples,
    ks_edge_distance,
    ks_statistic,
    node_kl_distance,
    rt_distance,
    rt_ratio,
    triad_profile,
    tsp_distance,
    weigh_ties,
)
from fcmreduce.triads import TRIAD_NAMES, triad_census

from conftest import random_fcm

VIEW0 = StructuralView(epsilon=0.0)
DISC = DiscretizationSpec()


def fcm_with_n_concepts(n):
    labels = tuple(f"X{i}" for i in range(n))
    w = np.zeros((n, n))
    w[0, 1] = 0.5
    return Fcm(labels, w, np.zeros(n))


def fcm_from_adjacency(adj, activation=None):
    n = adj.shape[0]
    w = adj.astype(float) * 0.5
    a = np.zeros(n) if activation is None else activation
    return Fcm(tuple(f"N{i}" for i in range(n)), w, a)


class TestConceptCount:
    def test_worked_example_six_seven(self):
        a, b = fcm_with_n_concepts(6), fcm_with_n_concepts(7)
        assert concept_count_distance(a, b) == pytest.approx(1 / 13, abs=1e-12)

    def test_identical_counts(self):
        a, b = fcm_with_n_concepts(4), fcm_with_n_concepts(4)
        assert concept_count_distance(a, b) == 0.0

    def test_one_three(self):
        one = Fcm(("A",), [[0.0]], [0.0])
        assert concept_count_distance(one, fcm_with_n_concepts(3)) == 0.5


class TestDensity:
    def test_obesity_density(self):
        f = build_obesity_fcm()
        assert density(f, VIEW0) == pytest.approx(20 / (13 * 12), abs=1e-12)

    def test_fully_connected_is_one(self):
        f = generate_cmaes_style(1, seed=1)[0]
        assert density(f, VIEW0) == 1.0

    def test_self_distance_zero(self):
        f = build_obesity_fcm()
        assert density_distance(f, f, VIEW0) == 0.0

    def test_single_concept_undefined(self):
        with pytest.raises(MetricError):
            density(Fcm(("A",), [[0.0]], [0.0]), VIEW0)

    def test_threshold_drops_weak_edges(self):
        f = build_obesity_fcm()
        # |w| >= 0.5 keeps 16 of the 20 edges (drops -0.44, 0.478, 0.84->no wait)
        kept = sum(1 for _, _, w in f.edges() if abs(w) >= 0.5)
        assert density(f, StructuralView(0.5)) == pytest.approx(kept / 156)


class TestRtRatio:
    def test_obesity_receivers_transmitters(self):
        f = build_obesity_fcm()
        adj = VIEW0.adjacency(f)
        receivers = {
            f.concepts[i]
            for i in range(13)
            if adj[:, i].any() and not adj[i, :].any()
        }
        transmitters = {
            f.concepts[i]
            for i in range(13)
            if adj[i, :].any() and not adj[:, i].any()
        }
        assert receivers == {"Physical health"}
        assert transmitters == {
            "Age", "Income", "Belief in Personal Responsibility", "Knowledge", "Stress",
        }
        assert rt_ratio(f, VIEW0) == pytest.approx((1 + 1) / (5 + 1), abs=1e-12)

    def test_fully_connected_smoothed_to_one(self):
        f = generate_cmaes_style(1, seed=1)[0]
        assert rt_ratio(f, StructuralView(0.0)) == 1.0

    def test_self_distance_zero(self):
        f = build_obesity_fcm()
        assert rt_distance(f, f, VIEW0) == 0.0


class TestClustering:
    def test_complete_digraph(self):
        n = 5
        adj = ~np.eye(n, dtype=bool)
        f = fcm_from_adjacency(adj)
        assert clustering_coefficient(f, VIEW0) == 1.0

    def test_star_digraph(self):
        adj = np.zeros((5, 5), dtype=bool)
        adj[0, 1:] = True  # hub -> leaves
        f = fcm_from_adjacency(adj)
        assert clustering_coefficient(f, VIEW0) == 0.0

    def test_self_distance_zero(self):
        f = build_obesity_fcm()
        assert clustering_distance(f, f, VIEW0) == 0.0

    def test_triangle_value(self):
        # directed 3-cycle: each node has 2 neighbors, 1 arc among them
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 2] = adj[2, 0] = True
        f = fcm_from_adjacency(adj)
        assert clustering_coefficient(f, VIEW0) == pytest.approx(0.5)


# --- brute-force triad oracle (independent of the implementation) ---------

_BITS = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]


def _encode(edges):
    code = 0
    for bit, pair in enumerate(_BITS):
        if pair in edges:
            code |= 1 << bit
    return code


def _canonical(edges):
    best = 1 << 6
    for perm in itertools.permutations(range(3)):
        relabeled = {(perm[a], perm[b]) for a, b in edges}
        best = min(best, _encode(relabeled))
    return best


def brute_force_census(adj):
    """Classify every triple by canonicalizing its subgraph; counts keyed by
    canonical code."""
    n = adj.shape[0]
    counts = {}
    for i, j, k in itertools.combinations(range(n), 3):
        trio = (i, j, k)
        edges = {
            (a, b)
            for a, b in itertools.permutations(range(3), 2)
            if adj[trio[a], trio[b]]
        }
        code = _canonical(edges)
        counts[code] = counts.get(code, 0) + 1
    return counts


class TestTriadCensus:
    def test_empty_graph_is_all_003(self):
        census = triad_census(np.zeros((5, 5), dtype=bool))
        assert census[TRIAD_NAMES.index("003")] == 10
        assert census.sum() == 10

    def test_complete_graph_is_all_300(self):
        adj = ~np.eye(4, dtype=bool)
        census = triad_census(adj)
        assert census[TRIAD_NAMES.index("300")] == 4

    def test_too_few_nodes(self):
        with pytest.raises(MetricError):
            triad_census(np.zeros((2, 2), dtype=bool))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_classification(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        adj = rng.random((n, n)) < rng.uniform(0.1, 0.7)
        np.fill_diagonal(adj, False)
        census = triad_census(adj)
        assert census.sum() == math.comb(n, 3)
        oracle = brute_force_census(adj)
        # compare as multisets of per-class counts; class identity is
        # checked against networkx below
        assert sorted(census[census > 0].tolist()) == sorted(oracle.values())
        nx_census = nx.triadic_census(nx.from_numpy_array(adj, create_using=nx.DiGraph))
        assert {name: int(c) for name, c in zip(TRIAD_NAMES, census)} == nx_census

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_stack_equals_per_graph_census(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        stack = rng.random((int(rng.integers(1, 6)), n, n)) < rng.uniform(0.0, 1.0)
        census = triad_census(stack)
        assert census.shape == (len(stack), 16)
        for adj, row in zip(stack, census):
            assert np.array_equal(row, triad_census(adj))
            np.fill_diagonal(adj, False)
            nx_census = nx.triadic_census(nx.from_numpy_array(adj, create_using=nx.DiGraph))
            assert {name: int(c) for name, c in zip(TRIAD_NAMES, row)} == nx_census

    def test_empty_stack(self):
        assert triad_census(np.zeros((0, 4, 4), dtype=bool)).shape == (0, 16)

    def test_non_square_rejected(self):
        for shape in ((3, 4), (2, 3, 4), (4,), (1, 1, 4, 4)):
            with pytest.raises(MetricError):
                triad_census(np.zeros(shape, dtype=bool))


def _scalar_swap_randomization(adjacency, swaps_per_edge, rng):
    """The numpy-scalar edge-swap loop the list loop replaced, kept as the
    oracle for degree_preserving_randomization."""
    adj = np.ascontiguousarray(adjacency, dtype=bool).copy()
    np.fill_diagonal(adj, False)
    edges = np.argwhere(adj).astype(np.int64)
    m = len(edges)
    if m == 0:
        return adj
    pairs = rng.integers(0, m, size=(swaps_per_edge * m, 2), dtype=np.int64)
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
    return adj


class TestTsp:
    def test_complete_digraph_swap_invariant_all_z_zero(self):
        adj = ~np.eye(6, dtype=bool)
        f = fcm_from_adjacency(adj)
        profile = triad_profile(f, VIEW0, ensemble_size=10, swaps_per_edge=10, seed=4)
        assert np.array_equal(profile, np.zeros(16))

    def test_identical_graphs_same_seed_distance_zero(self):
        f = random_fcm(np.random.default_rng(7))
        assert tsp_distance(f, f, VIEW0, seed=11) == 0.0

    def test_two_zero_profiles_distance_zero(self):
        a = fcm_from_adjacency(~np.eye(5, dtype=bool))
        b = fcm_from_adjacency(~np.eye(6, dtype=bool))
        assert tsp_distance(a, b, VIEW0, seed=1) == 0.0

    def test_profile_unit_norm_or_zero(self, rng):
        for _ in range(5):
            f = random_fcm(rng, n_min=5, n_max=9)
            p = triad_profile(f, VIEW0, ensemble_size=10, swaps_per_edge=5, seed=2)
            norm = np.linalg.norm(p)
            assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0

    def test_needs_three_concepts(self):
        with pytest.raises(MetricError):
            triad_profile(fcm_with_n_concepts(2), VIEW0)

    def test_cosine_to_distance_mapping(self):
        # negated profiles -> 1, orthogonal -> 0.5 (cosine -1 and 0)
        from fcmreduce.similarity import _cosine

        u = np.array([1.0, 0.0])
        assert (1 - _cosine(u, -u)) / 2 == 1.0
        assert (1 - _cosine(u, np.array([0.0, 1.0]))) / 2 == 0.5

    def test_swap_preserves_degrees(self, rng):
        from fcmreduce.triads import degree_preserving_randomization

        for _ in range(10):
            n = int(rng.integers(4, 10))
            adj = rng.random((n, n)) < 0.4
            np.fill_diagonal(adj, False)
            randomized = degree_preserving_randomization(adj, 10, rng)
            assert np.array_equal(adj.sum(0), randomized.sum(0))
            assert np.array_equal(adj.sum(1), randomized.sum(1))
            assert not np.any(np.diag(randomized))

    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_randomization_equals_scalar_loop(self, n, density, swaps, diagonal, seed):
        # same adjacency and same generator state as the replaced loop, from
        # empty to complete digraphs, with or without a True diagonal
        from fcmreduce.triads import degree_preserving_randomization

        adj = np.random.default_rng(seed).random((n, n)) < density
        np.fill_diagonal(adj, diagonal)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        randomized = degree_preserving_randomization(adj, swaps, rng)
        assert randomized.dtype == bool
        assert np.array_equal(randomized, _scalar_swap_randomization(adj, swaps, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert np.diag(adj).tolist() == [diagonal] * n


class TestJaccard:
    def test_identical(self):
        f = build_obesity_fcm()
        assert jaccard_edge_distance(f, f) == 0.0

    def test_disjoint_edge_sets(self):
        a = Fcm(("A", "B"), [[0, 0.4], [0, 0]], [0, 0])
        b = Fcm(("A", "B"), [[0, 0], [0.3, 0]], [0, 0])
        assert jaccard_edge_distance(a, b) == 1.0

    def test_worked_example(self):
        a = Fcm(("A", "B"), [[0, 0.4], [0, 0]], [0, 0])
        b = Fcm(("A", "B"), [[0, 0.2], [0, 0]], [0, 0])
        assert jaccard_edge_distance(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_uses_absolute_weights(self):
        a = Fcm(("A", "B"), [[0, -0.4], [0, 0]], [0, 0])
        b = Fcm(("A", "B"), [[0, 0.4], [0, 0]], [0, 0])
        assert jaccard_edge_distance(a, b) == 0.0

    def test_both_empty_is_error(self):
        a = Fcm(("A",), [[0.0]], [0.0])
        with pytest.raises(MetricError):
            jaccard_edge_distance(a, a)


class TestCentrality:
    def test_identical(self):
        f = build_obesity_fcm()
        for kind in ("degree", "betweenness", "closeness"):
            assert centrality_cosine_distance(f, f, kind, VIEW0) == 0.0

    def test_label_disjoint_orthogonal(self):
        a = Fcm(("A", "B"), [[0, 0.5], [0.5, 0]], [0, 0])
        b = Fcm(("C", "D"), [[0, 0.5], [0.5, 0]], [0, 0])
        assert centrality_cosine_distance(a, b, "degree", VIEW0) == 0.5

    def test_obesity_exercise_degree(self):
        f = build_obesity_fcm()
        adj = VIEW0.adjacency(f)
        i = f.index_of("Exercise")
        assert adj[:, i].sum() + adj[i, :].sum() == 6

    def test_zero_norm_error(self):
        a = Fcm(("A", "B"), np.zeros((2, 2)), [0, 0])
        b = Fcm(("A", "B"), [[0, 0.5], [0, 0]], [0, 0])
        with pytest.raises(MetricError):
            centrality_cosine_distance(a, b, "degree", VIEW0)

    def test_betweenness_on_path(self):
        # A->B->C gives B all the betweenness; two copies agree
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 2] = 0.9
        a = Fcm(("A", "B", "C"), w, np.zeros(3))
        assert centrality_cosine_distance(a, a, "betweenness", VIEW0) == 0.0

    def test_unknown_kind(self):
        f = build_obesity_fcm()
        with pytest.raises(MetricError):
            centrality_cosine_distance(f, f, "pagerank", VIEW0)


class TestKl:
    def test_identical_samples_zero(self):
        s = np.array([0.1, 0.5, 0.9, 0.3])
        assert kl_from_samples(s, s, DISC.node_edges, DISC.alpha) == 0.0

    def test_two_bin_closed_form(self):
        # one sample in the first bin vs one in the second, 10 bins
        alpha = 1e-6
        p = [0.05]
        q = [0.15]
        got = kl_from_samples(p, q, DISC.node_edges, alpha)
        pa = (1 + alpha) / (1 + 10 * alpha)
        pb = alpha / (1 + 10 * alpha)
        expected = pa * math.log(pa / pb) + pb * math.log(pb / pa)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got > math.log(1 / alpha) / 2  # log(1/alpha)-scale

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0, 1, size=int(rng.integers(1, 40)))
        q = rng.uniform(0, 1, size=int(rng.integers(1, 40)))
        assert kl_from_samples(p, q, DISC.node_edges, 1e-6) >= 0.0

    def test_zero_iff_identical_histograms(self):
        p = [0.11, 0.12]
        q = [0.13, 0.14]  # same bin (0.1-0.2) -> identical histograms
        assert kl_from_samples(p, q, DISC.node_edges, 1e-6) == 0.0

    def test_monotone_under_separation(self):
        # moving q's mass further from p's bin increases divergence
        near = kl_from_counts([2, 0, 0], [1, 1, 0], 1e-6)
        far = kl_from_counts([2, 0, 0], [0, 2, 0], 1e-6)
        assert far > near

    def test_symmetrized_tie_distance(self, rng):
        a, b = random_fcm(rng), random_fcm(rng)
        assert node_kl_distance(a, b, DISC) == pytest.approx(
            node_kl_distance(b, a, DISC), abs=1e-12
        )
        assert edge_kl_distance(a, b, DISC) == pytest.approx(
            edge_kl_distance(b, a, DISC), abs=1e-12
        )


def brute_force_ks(x, y):
    """sup over pooled sample points of |F_x - F_y|, by counting."""
    best = 0.0
    for t in list(x) + list(y):
        fx = sum(1 for v in x if v <= t) / len(x)
        fy = sum(1 for v in y if v <= t) / len(y)
        best = max(best, abs(fx - fy))
    return best


class TestKs:
    def test_identical(self):
        f = build_obesity_fcm()
        assert ks_edge_distance(f, f) == 0.0

    def test_fully_separated(self):
        assert ks_statistic([0.1, 0.2], [0.8, 0.9]) == 1.0

    def test_equal_empirical_cdfs(self):
        assert ks_statistic([0.0, 1.0], [0.0, 0.0, 1.0, 1.0]) == 0.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=int(rng.integers(1, 51)))
        y = rng.uniform(-1, 1, size=int(rng.integers(1, 51)))
        # throw in ties to exercise the right-continuity handling
        if len(x) > 2 and len(y) > 2:
            y[0] = x[0]
            y[1] = x[1]
        assert ks_statistic(x, y) == pytest.approx(brute_force_ks(x, y), abs=1e-12)

    def test_empty_edges_error(self):
        a = Fcm(("A",), [[0.0]], [0.0])
        b = build_obesity_fcm()
        with pytest.raises(MetricError):
            ks_edge_distance(a, b)


class TestCompareGraphs:
    def test_identical(self):
        f = build_obesity_fcm()
        assert compare_graphs_distance(f, f) == 0.0

    def test_against_zero_fcm(self):
        a = build_obesity_fcm()
        b = Fcm(a.concepts, np.zeros((13, 13)), np.zeros(13))
        assert compare_graphs_distance(a, b) == 1.0

    def test_worked_example(self):
        a = Fcm(("A", "B"), [[0, 0.5], [0, 0]], [0, 0])
        b = Fcm(("A", "B"), [[0, 0.3], [0, 0]], [0, 0])
        assert compare_graphs_distance(a, b) == pytest.approx(0.25, abs=1e-12)

    def test_both_zero(self):
        a = Fcm(("A",), [[0.0]], [0.0])
        assert compare_graphs_distance(a, a) == 0.0

    def test_label_alignment(self):
        a = Fcm(("A", "B"), [[0, 0.5], [0, 0]], [0, 0])
        b = Fcm(("B", "C"), [[0, 0.5], [0, 0]], [0, 0])
        # no overlapping edges once aligned on the label union
        d = compare_graphs_distance(a, b)
        assert d == pytest.approx(math.sqrt(0.5) / 1.0, abs=1e-12)


class TestTieWeight:
    def test_similarity_is_exp_of_negated_dissimilarity(self):
        tw = TieWeight(0.25)
        assert tw.similarity == pytest.approx(math.exp(-0.25), abs=1e-15)

    def test_zero_dissimilarity_is_similarity_one(self):
        assert TieWeight(0.0).similarity == 1.0

    def test_negative_rejected(self):
        with pytest.raises(MetricError):
            TieWeight(-0.1)


class TestWeighTies:
    def test_worked_concept_count_example(self):
        from fcmreduce.population import Agent

        agents = [Agent(0, fcm_with_n_concepts(6)), Agent(1, fcm_with_n_concepts(7))]
        graph = SocialGraph((0, 1), ((0, 1),))
        weights = weigh_ties(agents, graph, "concept_count")
        tw = weights[(0, 1)]
        assert tw.dissimilarity == pytest.approx(1 / 13, abs=1e-9)
        assert tw.similarity == pytest.approx(math.exp(-1 / 13), abs=1e-9)

    def test_identical_fcms_similarity_one(self):
        from fcmreduce.population import Agent

        f = build_obesity_fcm()
        agents = [Agent(0, f), Agent(1, f)]
        graph = SocialGraph((0, 1), ((0, 1),))
        for metric in ("density", "jaccard_edges", "compare_graphs", "ks_edges"):
            weights = weigh_ties(agents, graph, metric)
            assert weights[(0, 1)].similarity == 1.0

    def test_tie_count_preserved(self):
        agents = make_agents(generate_cmaes_style(8, seed=1))
        ties = tuple((i, i + 1) for i in range(7))
        graph = SocialGraph(tuple(range(8)), ties)
        weights = weigh_ties(agents, graph, "kl_edges")
        assert set(weights) == set(ties)

    def test_error_names_offending_tie(self):
        from fcmreduce.population import Agent

        good = build_obesity_fcm()
        empty = Fcm(("A", "B"), np.zeros((2, 2)), [0, 0])
        agents = [Agent(0, good), Agent(1, empty)]
        graph = SocialGraph((0, 1), ((0, 1),))
        with pytest.raises(MetricError, match=r"\(0, 1\)"):
            weigh_ties(agents, graph, "ks_edges")

    def test_unknown_metric(self):
        agents = make_agents(generate_cmaes_style(2, seed=1))
        graph = SocialGraph((0, 1), ((0, 1),))
        with pytest.raises(MetricError, match="concept_count"):
            weigh_ties(agents, graph, "hamming")

    def test_csv_round_trip(self, tmp_path):
        agents = make_agents(generate_cmaes_style(6, seed=2))
        graph = SocialGraph(tuple(range(6)), tuple((i, i + 1) for i in range(5)))
        weights = weigh_ties(agents, graph, "compare_graphs")
        path = tmp_path / "ties.csv"
        export_tie_weights(weights, "compare_graphs", path)
        loaded, metric = import_tie_weights(path)
        assert metric == "compare_graphs"
        assert set(loaded) == set(weights)
        for tie in weights:
            assert loaded[tie].dissimilarity == weights[tie].dissimilarity
            assert loaded[tie].similarity == weights[tie].similarity

    HEADER = "i,j,metric,dissimilarity,similarity\n"

    @pytest.mark.parametrize(
        "row",
        [
            "0", "1,2", "0,abc,density,0.5,0.6", "0,1,density,abc,0.6",
            "0,1,density,-0.5,1.6", "0,1,density,nan,0.6", "0,1,density,inf,0.0",
        ],
    )
    def test_malformed_tie_row_is_config_error(self, tmp_path, row):
        path = tmp_path / "ties.csv"
        path.write_text(self.HEADER + row + "\n")
        with pytest.raises(ConfigError):
            import_tie_weights(path)

    @pytest.mark.parametrize("text", ["", "a,b,c\n0,1,2\n"])
    def test_bad_header_is_config_error(self, tmp_path, text):
        path = tmp_path / "ties.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match="header"):
            import_tie_weights(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            import_tie_weights(tmp_path / "missing.csv")

    def test_duplicate_tie_rejected(self, tmp_path):
        path = tmp_path / "ties.csv"
        path.write_text(self.HEADER + "0,1,density,0.5,0.6\n1,0,density,0.5,0.6\n")
        with pytest.raises(ConfigError, match="twice"):
            import_tie_weights(path)

    def test_mixed_metrics_rejected(self, tmp_path):
        path = tmp_path / "ties.csv"
        path.write_text(self.HEADER + "0,1,density,0.5,0.6\n1,2,tsp,0.5,0.6\n")
        with pytest.raises(ConfigError, match="mixes metrics"):
            import_tie_weights(path)

    def test_header_only_file_has_no_metric(self, tmp_path):
        path = tmp_path / "ties.csv"
        path.write_text(self.HEADER)
        assert import_tie_weights(path) == ({}, "")


def pair_distance(kind, a, b, cfg, seed=0):
    """Front door for metric property checks, mirroring weigh_ties wiring."""
    from fcmreduce.population import Agent

    agents = [Agent(0, a), Agent(1, b)]
    graph = SocialGraph((0, 1), ((0, 1),))
    return weigh_ties(agents, graph, kind, cfg)[(0, 1)].dissimilarity


class TestRegistry:
    """weigh_ties and distance() run the same (feature, compare) entry."""

    @staticmethod
    def mixed_population():
        rng = np.random.default_rng(8)
        agents = make_agents([random_fcm(rng, 3, 9, prefix="C") for _ in range(10)])
        ties = tuple((i, (i + 1) % 9) for i in range(9)) + ((0, 4), (2, 7))
        # agent 9 has no tie
        return agents, SocialGraph(tuple(range(10)), ties)

    @pytest.mark.parametrize("metric", [m for m in METRIC_KINDS if m != "tsp"])
    def test_weigh_ties_equals_distance(self, metric):
        agents, graph = self.mixed_population()
        cfg = MetricConfig(centrality="closeness", seed=3)
        weights = weigh_ties(agents, graph, metric, cfg)
        assert set(weights) == set(graph.ties)
        for (i, j), tw in weights.items():
            assert tw.dissimilarity == distance(metric, agents[i].fcm, agents[j].fcm, cfg)

    def test_tsp_profiles_each_endpoint_once(self, monkeypatch):
        agents, graph = self.mixed_population()
        cfg = MetricConfig(tsp_ensemble=3, seed=3)
        seeds = []
        profile = similarity.triad_profile

        def counting_profile(f, view, ensemble_size, swaps_per_edge, seed):
            seeds.append(seed)
            return profile(f, view, ensemble_size, swaps_per_edge, seed)

        monkeypatch.setattr(similarity, "triad_profile", counting_profile)
        weigh_ties(agents, graph, "tsp", cfg)
        assert sorted(seeds) == sorted(int_seed(3, "tsp", i) for i in range(9))

    def test_jaccard_independent_of_hash_seed(self):
        import os
        import subprocess
        import sys

        import fcmreduce

        script = (
            "from fcmreduce.population import SocialGraph, generate_cmaes_style, make_agents\n"
            "from fcmreduce.similarity import weigh_ties\n"
            "agents = make_agents(generate_cmaes_style(12, 5))\n"
            "graph = SocialGraph(tuple(range(12)), tuple((i, (i + 1) % 12) for i in range(12)))\n"
            "weights = weigh_ties(agents, graph, 'jaccard_edges')\n"
            "print([weights[t].dissimilarity.hex() for t in sorted(weights)])\n"
        )
        src = os.path.dirname(os.path.dirname(fcmreduce.__file__))
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]


def test_registry_has_exactly_eleven_metrics():
    assert len(METRIC_KINDS) == 11
    assert len(set(METRIC_KINDS)) == 11


class TestMetricProperties:
    """Identity, symmetry, and range checks over random FCM pairs; the
    full 200-pair sweep lives in the acceptance suite."""

    def test_identity_symmetry_range(self):
        rng = np.random.default_rng(99)
        cfg = MetricConfig(view=StructuralView(0.05), seed=5)
        bounded = {
            "concept_count", "density", "rt_ratio", "clustering", "tsp",
            "jaccard_edges", "ks_edges", "centrality_cosine", "compare_graphs",
        }
        for _ in range(15):
            a = random_fcm(rng, prefix="C")
            b = random_fcm(rng, prefix="C")
            for kind in METRIC_KINDS:
                # tsp identity/symmetry hold under a fixed shared seed
                if kind == "tsp":
                    d_aa = tsp_distance(a, a, cfg.view, seed=3)
                    d_ab = tsp_distance(a, b, cfg.view, seed=3)
                    d_ba = tsp_distance(b, a, cfg.view, seed=3)
                else:
                    d_aa = pair_distance(kind, a, a, cfg)
                    d_ab = pair_distance(kind, a, b, cfg)
                    d_ba = pair_distance(kind, b, a, cfg)
                assert d_aa == pytest.approx(0.0, abs=1e-9), kind
                assert d_ab == pytest.approx(d_ba, abs=1e-9), kind
                assert d_ab >= 0.0, kind
                if kind in bounded:
                    assert d_ab <= 1.0 + 1e-9, kind
