import hashlib
import json
import os
import tempfile
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmreduce import population
from fcmreduce.errors import ChannelError, ConfigError, ContractError, GenerationError
from fcmreduce.fcm import Fcm, fcm_to_dict
from fcmreduce.pipeline import config_from_dict, stage_population, stage_topology
from fcmreduce.population import (
    CMAES_CONCEPTS,
    TOPOLOGY_KINDS,
    Agent,
    SocialGraph,
    TopologySpec,
    assign_channels,
    build_obesity_fcm,
    build_topology,
    export_population,
    export_topology,
    generate_cmaes_style,
    generate_variants,
    import_population,
    import_topology,
    make_agents,
    randomize_activations,
)
from fcmreduce.seeding import int_seed

# Independently typed copy of the expert obesity edge table; the golden
# test compares build_obesity_fcm() against this, not the other way around.
OBESITY_TABLE = [
    ("Age", "Exercise", -0.44),
    ("Income", "Exercise", 0.548),
    ("Income", "Fatness perceived as negative", 0.478),
    ("Fatness perceived as negative", "Weight discrimination", 0.739),
    ("Belief in Personal Responsibility", "Weight discrimination", 0.578),
    ("Obesity", "Weight discrimination", 0.84),
    ("Obesity", "Physical health", -0.795),
    ("Weight discrimination", "Depression", 0.732),
    ("Exercise", "Depression", -0.649),
    ("Exercise", "Obesity", -0.638),
    ("Exercise", "Physical health", 0.860),
    ("Depression", "Anti-depressants", 0.592),
    ("Anti-depressants", "Obesity", 0.528),
    ("Anti-depressants", "Food intake", 0.526),
    ("Food intake", "Obesity", 0.637),
    ("Knowledge", "Food intake", -0.5),
    ("Knowledge", "Exercise", 0.5),
    ("Stress", "Depression", 0.54),
    ("Stress", "Food intake", 0.607),
    ("Stress", "Physical health", -0.694),
]


@st.composite
def written_fcms(draw):
    """FCMs whose labels need escaping (quotes, backslashes, control and
    non-ASCII characters) or hold format markers (%, %r, %%), with sparse or
    empty weight matrices and activations that may be all zero."""
    n = draw(st.integers(1, 6))
    piece = st.one_of(
        st.sampled_from(['"', "\\", "\n", "\t", "/", "é", "ü", "漢", "𝄞", " ", "%", "%r", "%%"]),
        st.characters(codec="utf-8"),
    )
    label = st.lists(piece, min_size=1, max_size=6).map("".join)
    labels = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    sparse = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    weights = draw(st.lists(sparse, min_size=n * n, max_size=n * n))
    activation = draw(st.one_of(
        st.just([0.0] * n),
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=n, max_size=n),
    ))
    return Fcm(tuple(labels), np.reshape(weights, (n, n)), activation)


def json_dumps_records(fcms):
    """The bytes export_population must write: one json.dumps record a line."""
    return ("[\n" + ",\n".join(
        json.dumps(fcm_to_dict(f), sort_keys=True) for f in fcms
    ) + "\n]\n").encode("utf-8")


class TestObesityFcm:
    def test_node_count_is_distinct_sources_and_targets(self):
        labels = {s for s, _, _ in OBESITY_TABLE} | {t for _, t, _ in OBESITY_TABLE}
        f = build_obesity_fcm()
        assert f.n == len(labels) == 13

    def test_edge_count(self):
        f = build_obesity_fcm()
        assert f.edge_count == len(OBESITY_TABLE) == 20

    def test_all_triples_match_table(self):
        f = build_obesity_fcm()
        assert sorted(f.edges()) == sorted(OBESITY_TABLE)

    def test_spot_weights(self):
        f = build_obesity_fcm()
        w = {(s, t): v for s, t, v in f.edges()}
        assert w[("Obesity", "Weight discrimination")] == 0.84
        assert w[("Age", "Exercise")] == -0.44
        assert w[("Exercise", "Physical health")] == 0.860
        assert w[("Stress", "Physical health")] == -0.694

    def test_physical_health_is_target_only(self):
        f = build_obesity_fcm()
        i = f.index_of("Physical health")
        assert np.all(f.weights[i] == 0.0)  # no outgoing edges
        assert np.count_nonzero(f.weights[:, i]) == 3


class TestVariants:
    def test_zero_jitter_is_identity(self):
        base = build_obesity_fcm()
        for v in generate_variants(base, 5, 0.0, seed=1):
            assert np.array_equal(v.weights, base.weights)

    def test_structure_preserved_and_in_range(self):
        base = build_obesity_fcm()
        variants = generate_variants(base, 722, 0.1, seed=9)
        assert len(variants) == 722
        base_mask = base.weights != 0
        for v in variants[:50]:
            assert v.edge_count == 20
            assert np.array_equal(v.weights != 0, base_mask)
            assert np.all(np.abs(v.weights) <= 1.0)

    def test_clamped_at_extremes(self):
        base = Fcm(("A", "B"), [[0.0, 0.99], [-0.99, 0.0]], [0, 0])
        for v in generate_variants(base, 200, 0.5, seed=3):
            assert np.all(np.abs(v.weights) <= 1.0)

    def test_deterministic(self):
        base = build_obesity_fcm()
        a = generate_variants(base, 10, 0.1, seed=4)
        b = generate_variants(base, 10, 0.1, seed=4)
        assert all(np.array_equal(x.weights, y.weights) for x, y in zip(a, b))

    def test_bad_args(self):
        base = build_obesity_fcm()
        with pytest.raises(ConfigError):
            generate_variants(base, 0, 0.1, seed=1)
        with pytest.raises(ConfigError):
            generate_variants(base, 1, -0.1, seed=1)
        # nan used to reach rng.uniform as an OverflowError
        with pytest.raises(ConfigError, match="jitter"):
            generate_variants(base, 2, float("nan"), seed=0)
        with pytest.raises(ConfigError, match="must be an integer"):
            generate_variants(base, 2.5, 0.1, seed=0)


class TestCmaesStyle:
    def test_shape(self):
        fcms = generate_cmaes_style(3, seed=2)
        for f in fcms:
            assert f.n == 15
            assert f.edge_count == 15 * 14
            assert np.all(np.abs(f.weights) <= 1.0)
            assert np.all((f.activation >= 0) & (f.activation <= 1))
            assert np.all(np.diag(f.weights) == 0.0)

    def test_concept_labels(self):
        f = generate_cmaes_style(1, seed=0)[0]
        assert f.concepts == CMAES_CONCEPTS
        assert f.concepts[0] == "Awareness"
        assert f.concepts[-1] == "Visibility at home"
        assert len(set(f.concepts)) == 15

    def test_count_honored(self):
        assert len(generate_cmaes_style(722, seed=5)) == 722

    def test_deterministic(self):
        a = generate_cmaes_style(4, seed=6)
        b = generate_cmaes_style(4, seed=6)
        for x, y in zip(a, b):
            assert np.array_equal(x.weights, y.weights)
            assert np.array_equal(x.activation, y.activation)

    def test_agents_differ(self):
        a, b = generate_cmaes_style(2, seed=7)
        assert not np.array_equal(a.weights, b.weights)

    def test_non_integer_count_rejected(self):
        # 2.5 used to end in a TypeError traceback from range()
        with pytest.raises(ConfigError, match="must be an integer"):
            generate_cmaes_style(2.5, seed=0)


class TestPopulationIO:
    def test_round_trip(self, tmp_path):
        fcms = generate_cmaes_style(3, seed=1)
        path = tmp_path / "pop.json"
        export_population(fcms, path)
        loaded = import_population(path)
        assert len(loaded) == 3
        for x, y in zip(fcms, loaded):
            assert x.concepts == y.concepts
            assert np.array_equal(x.weights, y.weights)
            assert np.array_equal(x.activation, y.activation)

    def test_error_names_record_index(self, tmp_path):
        path = tmp_path / "pop.json"
        path.write_text(
            '[{"concepts": ["A"], "edges": []},'
            ' {"concepts": ["A", "B"],'
            '  "edges": [{"source": "A", "target": "B", "weight": 1.5}]}]'
        )
        with pytest.raises(ConfigError, match="record 1"):
            import_population(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            import_population(tmp_path / "nope.json")

    def test_indented_file_imports_equal(self, tmp_path):
        # files written with json.dump(..., indent=1) before the writer
        # streamed one record per line still import, and both forms hold
        # the same records
        fcms = generate_cmaes_style(4, seed=3)
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps([fcm_to_dict(f) for f in fcms], indent=1, sort_keys=True))
        export_population(fcms, new)
        assert json.loads(new.read_text()) == json.loads(old.read_text())
        for x, y in zip(import_population(old), import_population(new)):
            assert x.concepts == y.concepts
            assert np.array_equal(x.weights, y.weights)
            assert np.array_equal(x.activation, y.activation)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(written_fcms(), min_size=1, max_size=4))
    def test_bytes_equal_json_dumps_of_each_record(self, fcms):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "population.json")
            export_population(fcms, path)
            with open(path, "rb") as fh:
                assert fh.read() == json_dumps_records(fcms)

    def test_records_beyond_template_cache_size(self, tmp_path):
        # more zero patterns than the template cache holds, each written
        # twice in a row and the whole cycle three times: the second of each
        # pair hits the cache, and every cycle evicts the previous one's
        population._record_template.cache_clear()
        size = population._record_template.cache_info().maxsize + 4
        rng = np.random.default_rng(7)
        fcms = []
        for _ in range(3):
            for k in range(size):
                # pattern k: the one zero weight sits at flat index k
                w = rng.uniform(-1.0, 1.0, size=(5, 5))
                w.flat[k] = 0.0
                a = rng.uniform(0.0, 1.0, size=5)
                a[k % 5] = 0.0
                fcms += [Fcm(("A", "B%", "C", "%rD", "E"), w, a)] * 2
        path = tmp_path / "population.json"
        export_population(fcms, path)
        assert path.read_bytes() == json_dumps_records(fcms)
        info = population._record_template.cache_info()
        assert info.hits == 3 * size and info.misses == 3 * size

    @pytest.mark.parametrize("config, digest", [
        ({"source": "cmaes-style", "count": 200, "seed": 42},
         "43b49066dcd6f715e933014c76b83207213083c55fccedd2d6ed650159a46e2c"),
        ({"source": "obesity-variants", "count": 60, "seed": 42},
         "8a2b000d7754cd2a9d2bdd0e142c48c2821776717736433586f33c215770c8c4"),
    ], ids=["cmaes-200", "obesity-60"])
    def test_golden_population_digest(self, tmp_path, config, digest):
        # recorded with the per-record encoder the templates replaced
        agents = stage_population(config_from_dict(config))
        path = tmp_path / "population.json"
        export_population([a.fcm for a in agents], path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_single_fcm_file(self, tmp_path):
        path = tmp_path / "one.json"
        export_population(generate_cmaes_style(1, seed=1), path)
        assert len(import_population(path)) == 1


class TestSocialGraph:
    def test_rejects_self_tie(self):
        with pytest.raises(ContractError):
            SocialGraph((0, 1), ((0, 0),))

    def test_rejects_duplicate_tie(self):
        with pytest.raises(ContractError):
            SocialGraph((0, 1), ((0, 1), (1, 0)))

    def test_normalizes_tie_order(self):
        g = SocialGraph((0, 1, 2), ((2, 0), (2, 1)))
        assert g.ties == ((0, 2), (1, 2))


class TestTopologies:
    def test_ring_lattice_when_beta_zero(self):
        g = build_topology(TopologySpec("small_world", n=10, k=2, beta=0.0, seed=1))
        assert g.n == 10
        degree = Counter(v for tie in g.ties for v in tie)
        assert all(degree[v] == 2 for v in g.nodes)

    def test_ba_edge_count(self):
        # complete seed graph on m nodes, then (n - m) nodes adding m edges
        g = build_topology(TopologySpec("scale_free", n=722, m=2, seed=1))
        assert g.n == 722
        assert len(g.ties) == (722 - 2) * 2 + 1

    def test_er_zero_probability_rejected(self):
        with pytest.raises(GenerationError):
            build_topology(TopologySpec("random", n=10, p=0.0, seed=1))

    def test_er_has_no_isolated_nodes(self):
        g = build_topology(TopologySpec("random", n=60, p=0.1, seed=3))
        degree = Counter(v for tie in g.ties for v in tie)
        assert all(degree[v] > 0 for v in g.nodes)

    def test_deterministic_per_seed(self):
        a = build_topology(TopologySpec("random", n=50, p=0.15, seed=8))
        b = build_topology(TopologySpec("random", n=50, p=0.15, seed=8))
        c = build_topology(TopologySpec("random", n=50, p=0.15, seed=9))
        assert a.ties == b.ties
        assert a.ties != c.ties

    def test_odd_ring_degree_rejected(self):
        with pytest.raises(ConfigError):
            TopologySpec("small_world", n=10, k=3)

    @pytest.mark.parametrize("kind, bad, message", [
        ("small_world", {"n": 10.5}, "n must be an integer"),
        ("small_world", {"n": "10"}, "n must be an integer"),
        ("small_world", {"k": 4.0}, "k must be an integer"),
        ("scale_free", {"m": 2.0}, "m must be an integer"),
        ("scale_free", {"m": True}, "m must be an integer"),
        ("random", {"seed": 1.5}, "seed must be an integer"),
        ("random", {"p": "0.1"}, "p and beta must be finite numbers"),
        ("random", {"p": float("nan")}, "p and beta must be finite numbers"),
        ("small_world", {"beta": "0.1"}, "p and beta must be finite numbers"),
        ("small_world", {"beta": True}, "p and beta must be finite numbers"),
    ], ids=repr)
    def test_knob_of_the_wrong_type_rejected(self, kind, bad, message):
        with pytest.raises(ConfigError, match=message):
            TopologySpec(kind, **{"n": 10, **bad})

    def test_numpy_knobs_stored_plain(self):
        spec = TopologySpec("small_world", n=np.int64(10), k=np.int32(4), seed=np.int64(-2))
        assert [type(v) for v in (spec.n, spec.k, spec.m, spec.seed)] == [int] * 4
        assert build_topology(spec) == build_topology(TopologySpec("small_world", n=10, k=4, seed=-2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            TopologySpec("lattice", n=10)

    def test_scale_free_single_attachment_rejected(self):
        # m = 1 would grow from a one-node complete graph, which has no tie
        # end for the first newcomer to draw
        with pytest.raises(ConfigError, match="2 <= m < n"):
            TopologySpec("scale_free", n=10, m=1)

    @pytest.mark.parametrize("config, digest", [
        ({"topology": "random", "p": 0.05},
         "ac2b19d2c0ebefdaacf44a2f1f53d6df002a2131ebc7a37a903d839f27ee901a"),
        ({"topology": "small_world"},
         "0a19a8bdfeb88b7b87a9299121b225ca2cc2cb8b515f4228403a5d216ead4cd8"),
        ({"topology": "scale_free"},
         "032fabcfc2a9e4627dec6d2ce7e6d6949909be3f36f89dd010a9078cb21be73f"),
    ], ids=["random", "small_world", "scale_free"])
    def test_golden_topology_digest(self, tmp_path, config, digest):
        # recorded when networkx's generators drew the ties
        cfg = config_from_dict(dict(config, source="cmaes-style", count=200, seed=42))
        path = tmp_path / "topology.csv"
        export_topology(stage_topology(cfg, stage_population(cfg)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def networkx_ties(spec):
    """The tie set networkx 3.6 draws for spec under build_topology's seeds
    and retry rule; None when every attempt leaves a node isolated."""
    for attempt in range(population._MAX_TOPOLOGY_RETRIES):
        seed = int_seed(spec.seed, "topology", spec.kind, attempt)
        if spec.kind == "random":
            g = nx.gnp_random_graph(spec.n, spec.p, seed=seed)
        elif spec.kind == "small_world":
            g = nx.watts_strogatz_graph(spec.n, spec.k, spec.beta, seed=seed)
        else:
            g = nx.barabasi_albert_graph(
                spec.n, spec.m, seed=seed, initial_graph=nx.complete_graph(spec.m)
            )
        if all(d > 0 for _, d in g.degree()):
            return {(min(e), max(e)) for e in g.edges()}
    return None


def built_ties(spec):
    try:
        return set(build_topology(spec).ties)
    except GenerationError:
        return None


EDGE_PROBABILITY = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def topology_specs(draw):
    """Specs over the whole valid parameter space, with its edges (p and
    beta of 0 or 1, the densest ring, m = n - 1) drawn often."""
    kind = draw(st.sampled_from(TOPOLOGY_KINDS))
    n = draw(st.integers(3, 80))
    seed = draw(st.integers(-(2**63), 2**64))
    if kind == "random":
        return TopologySpec(kind, n, p=draw(EDGE_PROBABILITY), seed=seed)
    if kind == "small_world":
        # (n - 1) // 2 * 2 is n - 2 for even n: one missing tie per node,
        # so rewiring soon meets a node tied to all others
        k = draw(st.sampled_from([2, (n - 1) // 2 * 2]) | st.integers(1, (n - 1) // 2).map(lambda h: 2 * h))
        return TopologySpec(kind, n, k=k, beta=draw(EDGE_PROBABILITY), seed=seed)
    m = draw(st.sampled_from([2, n - 1]) | st.integers(2, n - 1))
    return TopologySpec(kind, n, m=m, seed=seed)


class TestTopologyOracle:
    """build_topology draws the tie set networkx 3.6 draws from the same
    seed; networkx is only the test's oracle."""

    @settings(max_examples=300, deadline=None)
    @given(spec=topology_specs())
    def test_ties_equal_networkx(self, spec):
        assert built_ties(spec) == networkx_ties(spec)

    @pytest.mark.parametrize("spec", [
        TopologySpec("random", n=30, p=0.0, seed=1),
        TopologySpec("random", n=30, p=1.0, seed=1),
        TopologySpec("random", n=200, p=0.03, seed=42),
        TopologySpec("small_world", n=30, k=4, beta=0.0, seed=2),
        TopologySpec("small_world", n=30, k=4, beta=1.0, seed=2),
        TopologySpec("small_world", n=12, k=10, beta=0.5, seed=3),
        TopologySpec("small_world", n=11, k=10, beta=0.5, seed=3),
        TopologySpec("small_world", n=200, k=6, beta=0.1, seed=42),
        TopologySpec("scale_free", n=3, m=2, seed=4),
        TopologySpec("scale_free", n=30, m=29, seed=4),
        TopologySpec("scale_free", n=1500, m=3, seed=42),
    ], ids=repr)
    def test_parameter_edges_equal_networkx(self, spec):
        assert built_ties(spec) == networkx_ties(spec)


class TestChannels:
    def test_channels_drawn_from_shared_concepts(self):
        agents = make_agents(generate_cmaes_style(20, seed=1))
        g = build_topology(TopologySpec("small_world", n=20, k=4, beta=0.1, seed=2))
        wired = assign_channels(g, agents, seed=3)
        labels = set(CMAES_CONCEPTS)
        assert set(wired.channels) == set(wired.ties)
        assert all(c in labels for c in wired.channels.values())
        # uniform over 15 labels: with 40 ties expect a handful of distinct ones
        assert len(set(wired.channels.values())) > 3

    def test_deterministic(self):
        agents = make_agents(generate_cmaes_style(10, seed=1))
        g = build_topology(TopologySpec("small_world", n=10, k=2, beta=0.0, seed=2))
        a = assign_channels(g, agents, seed=5)
        b = assign_channels(g, agents, seed=5)
        assert a.channels == b.channels

    def test_disjoint_concepts_error(self):
        f1 = Fcm(("A",), [[0.0]], [0.0])
        f2 = Fcm(("B",), [[0.0]], [0.0])
        agents = [Agent(0, f1), Agent(1, f2)]
        g = SocialGraph((0, 1), ((0, 1),))
        with pytest.raises(ChannelError):
            assign_channels(g, agents, seed=1)


class TestTopologyIO:
    def test_round_trip(self, tmp_path):
        agents = make_agents(generate_cmaes_style(10, seed=1))
        g = build_topology(TopologySpec("small_world", n=10, k=4, beta=0.2, seed=2))
        g = assign_channels(g, agents, seed=3)
        path = tmp_path / "topo.csv"
        export_topology(g, path)
        loaded = import_topology(path, range(10))
        assert loaded.ties == g.ties
        assert loaded.channels == g.channels

    def test_graph_without_channels_is_not_written(self, tmp_path):
        # import_topology rejects a row without a channel label
        g = build_topology(TopologySpec("small_world", n=10, k=4, beta=0.2, seed=2))
        with pytest.raises(ContractError, match="assigned channels"):
            export_topology(g, tmp_path / "topo.csv")
        assert not (tmp_path / "topo.csv").exists()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "topo.csv"
        path.write_text("a,b,c\n0,1,X\n")
        with pytest.raises(ConfigError, match="header"):
            import_topology(path, range(2))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,1,X\n1,1,X\n", "self-tie"),
            ("0,1,X\n0,5,X\n", "unknown node"),
            ("0,1,X\n1,0,X\n", "duplicate ties"),
            ("0,1,X\n1,2,\n", "channels missing"),
            ("0,1,\n1,2,\n", "channels missing"),
            ("0,1,X,extra\n", "malformed topology row"),
        ],
    )
    def test_bad_ties_are_config_errors(self, tmp_path, rows, message):
        path = tmp_path / "topo.csv"
        path.write_text("i,j,channel_label\n" + rows)
        with pytest.raises(ConfigError, match=message):
            import_topology(path, range(3))


def test_randomize_activations_deterministic_and_in_range():
    fcms = generate_variants(build_obesity_fcm(), 5, 0.1, seed=1)
    a = randomize_activations(fcms, seed=2)
    b = randomize_activations(fcms, seed=2)
    for x, y in zip(a, b):
        assert np.array_equal(x.activation, y.activation)
        assert np.all((x.activation >= 0) & (x.activation <= 1))
        assert x.activation.std() > 0
