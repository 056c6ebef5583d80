import numpy as np
import pytest

from fcmreduce.errors import ChannelError, ConfigError, ContractError, GenerationError
from fcmreduce.fcm import Fcm
from fcmreduce.population import (
    CMAES_CONCEPTS,
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
        import json

        from fcmreduce.fcm import fcm_to_dict

        fcms = generate_cmaes_style(4, seed=3)
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps([fcm_to_dict(f) for f in fcms], indent=1, sort_keys=True))
        export_population(fcms, new)
        assert json.loads(new.read_text()) == json.loads(old.read_text())
        for x, y in zip(import_population(old), import_population(new)):
            assert x.concepts == y.concepts
            assert np.array_equal(x.weights, y.weights)
            assert np.array_equal(x.activation, y.activation)

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
        assert all(g.degree(v) == 2 for v in g.nodes)

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
        assert all(g.degree(v) > 0 for v in g.nodes)

    def test_deterministic_per_seed(self):
        a = build_topology(TopologySpec("random", n=50, p=0.15, seed=8))
        b = build_topology(TopologySpec("random", n=50, p=0.15, seed=8))
        c = build_topology(TopologySpec("random", n=50, p=0.15, seed=9))
        assert a.ties == b.ties
        assert a.ties != c.ties

    def test_odd_ring_degree_rejected(self):
        with pytest.raises(ConfigError):
            TopologySpec("small_world", n=10, k=3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            TopologySpec("lattice", n=10)


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
