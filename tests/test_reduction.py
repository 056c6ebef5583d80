import numpy as np
import pytest

from fcmreduce.community import Partition, chinese_whispers
from fcmreduce.errors import ChannelError, ContractError
from fcmreduce.fcm import Fcm
from fcmreduce.population import (
    Agent,
    SocialGraph,
    TopologySpec,
    agents_by_id,
    assign_channels,
    build_topology,
    draw_channel,
    generate_cmaes_style,
    make_agents,
)
from fcmreduce.reduction import contract, select_representatives
from fcmreduce.seeding import rng_for
from fcmreduce.similarity import TieWeight


def agent_with_activation_sum(agent_id, total, n=4, labels=None):
    labels = labels or tuple(f"C{i}" for i in range(n))
    activation = np.full(n, total / n)
    return Agent(agent_id, Fcm(labels, np.zeros((n, n)), activation))


class TestSelectRepresentatives:
    def test_single_member_community(self):
        agents = [agent_with_activation_sum(0, 1.0)]
        reps = select_representatives(agents, Partition({0: 0}))
        assert reps == {0: 0}

    def test_odd_size_median(self):
        agents = [
            agent_with_activation_sum(0, 1.0),
            agent_with_activation_sum(1, 2.0),
            agent_with_activation_sum(2, 3.9),
        ]
        reps = select_representatives(agents, Partition({0: 0, 1: 0, 2: 0}))
        assert reps == {0: 1}

    def test_even_size_takes_lower_middle(self):
        agents = [
            agent_with_activation_sum(0, 1.0),
            agent_with_activation_sum(1, 2.0),
            agent_with_activation_sum(2, 3.0),
            agent_with_activation_sum(3, 3.9),
        ]
        reps = select_representatives(agents, Partition({i: 0 for i in range(4)}))
        assert reps == {0: 1}

    def test_score_ties_break_by_lower_id(self):
        agents = [
            agent_with_activation_sum(0, 2.0),
            agent_with_activation_sum(1, 2.0),
            agent_with_activation_sum(2, 2.0),
        ]
        reps = select_representatives(agents, Partition({0: 0, 1: 0, 2: 0}))
        assert reps == {0: 1}  # sorted by (score, id) -> middle is id 1

    def test_representative_belongs_to_its_community(self, rng):
        agents = make_agents(generate_cmaes_style(20, seed=1))
        assignment = {i: int(rng.integers(0, 4)) for i in range(20)}
        # make ids dense
        used = sorted(set(assignment.values()))
        remap = {c: k for k, c in enumerate(used)}
        partition = Partition({i: remap[c] for i, c in assignment.items()})
        reps = select_representatives(agents, partition)
        for comm, members in partition.members().items():
            assert reps[comm] in members


def wired_model(n=10, seed=3):
    agents = make_agents(generate_cmaes_style(n, seed=seed))
    graph = build_topology(TopologySpec("small_world", n=n, k=4, beta=0.2, seed=seed))
    graph = assign_channels(graph, agents, seed=seed)
    return agents, graph


def per_pair_contract(agents, graph, partition, reps, seed):
    """Reference contraction: each crossing community pair's original ties
    in a list, scanned for the first channel both representatives hold,
    else a redraw, pairs in sorted order. Returns (ties, channels,
    redrawn) or the ChannelError text."""
    comm_of = partition.assignment
    by_id = agents_by_id(agents, sorted(reps.values()))
    crossing = {}
    for i, j in graph.ties:
        ca, cb = comm_of[i], comm_of[j]
        if ca != cb:
            crossing.setdefault((min(ca, cb), max(ca, cb)), []).append((i, j))
    rng = rng_for(seed, "contract")
    channels, redrawn = {}, {}
    for (ca, cb), originals in sorted(crossing.items()):
        ra, rb = reps[ca], reps[cb]
        tie = (min(ra, rb), max(ra, rb))
        shared = set(by_id[ra].fcm.concepts) & set(by_id[rb].fcm.concepts)
        label = next((graph.channels[o] for o in originals if graph.channels[o] in shared), None)
        if label is None:
            try:
                label = draw_channel(by_id[ra], by_id[rb], rng,
                                     "representatives {} and {} share no concept for the reduced tie")
            except ChannelError as exc:
                return str(exc)
            redrawn[f"{tie[0]},{tie[1]}"] = label
        channels[tie] = label
    return tuple(sorted(channels)), channels, redrawn


def subset_model(rng, n):
    """n agents, each holding 2 to 5 of six concepts, on a random graph
    whose ties join agents that share a concept; channels drawn as
    assign_channels draws them."""
    pool = np.array([f"K{c}" for c in range(6)])
    agents = []
    for v in range(n):
        size = int(rng.integers(2, 6))
        labels = tuple(sorted(rng.choice(pool, size, replace=False)))
        agents.append(Agent(v, Fcm(labels, np.zeros((size, size)), rng.uniform(0.0, 1.0, size))))
    ties = tuple(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.3 and set(agents[i].fcm.concepts) & set(agents[j].fcm.concepts)
    )
    return agents, assign_channels(SocialGraph(tuple(range(n)), ties), agents, seed=int(rng.integers(1000)))


class TestContract:
    def test_matches_per_pair_oracle_on_concept_subsets(self):
        # agents hold different concept subsets, so a pair's first crossing
        # ties often fail to qualify, channels get redrawn, and some pairs
        # of representatives share nothing; half the models take a random
        # member, not the median, as representative
        rng = np.random.default_rng(2024)
        seen = {"redrawn": 0, "error": 0, "not_median": 0}
        for trial in range(150):
            agents, graph = subset_model(rng, int(rng.integers(4, 30)))
            weights = {t: TieWeight(float(rng.uniform(0.0, 2.0))) for t in graph.ties}
            partition = chinese_whispers(graph, weights, max_rounds=int(rng.integers(1, 4)), seed=trial)
            reps = select_representatives(agents, partition)
            if trial % 2:
                members = partition.members()
                reps = {c: ms[int(rng.integers(len(ms)))] for c, ms in members.items()}
                seen["not_median"] += reps != select_representatives(agents, partition)
            expected = per_pair_contract(agents, graph, partition, reps, seed=trial)
            if isinstance(expected, str):
                seen["error"] += 1
                with pytest.raises(ChannelError) as info:
                    contract(agents, graph, partition, reps, seed=trial)
                assert str(info.value) == expected
                continue
            model = contract(agents, graph, partition, reps, seed=trial)
            ties, channels, redrawn = expected
            assert model.graph.ties == ties
            assert model.graph.channels == channels
            assert model.provenance["redrawn_channels"] == redrawn
            assert model.provenance["communities"] == {
                str(c): {"representative": reps[c], "members": ms}
                for c, ms in partition.members().items()
            }
            seen["redrawn"] += bool(redrawn)
        assert min(seen.values()) >= 10, seen

    def test_one_community(self):
        agents, graph = wired_model(8)
        partition = Partition({i: 0 for i in range(8)})
        reps = select_representatives(agents, partition)
        model = contract(agents, graph, partition, reps)
        assert len(model.agents) == 1
        assert model.graph.ties == ()
        assert model.removed_count == 7

    def test_singleton_partition_is_identity(self):
        agents, graph = wired_model(10)
        partition = Partition({i: i for i in range(10)})
        reps = select_representatives(agents, partition)
        model = contract(agents, graph, partition, reps)
        assert [a.id for a in model.agents] == list(range(10))
        assert model.graph.ties == graph.ties
        assert model.graph.channels == graph.channels
        assert model.removed_count == 0
        assert model.provenance["redrawn_channels"] == {}

    def test_crossing_ties_collapse_to_one(self):
        agents = make_agents(generate_cmaes_style(6, seed=2))
        ties = ((0, 3), (1, 4), (2, 5), (0, 1), (3, 4))
        graph = assign_channels(
            SocialGraph(tuple(range(6)), ties), agents, seed=1
        )
        partition = Partition({0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1})
        reps = select_representatives(agents, partition)
        model = contract(agents, graph, partition, reps)
        assert len(model.graph.ties) == 1
        assert model.removed_count == 4

    def test_channel_comes_from_lowest_crossing_tie(self):
        agents = make_agents(generate_cmaes_style(4, seed=5))
        ties = ((0, 2), (1, 3))
        channels = {(0, 2): agents[0].fcm.concepts[3], (1, 3): agents[0].fcm.concepts[7]}
        graph = SocialGraph(tuple(range(4)), ties, channels)
        partition = Partition({0: 0, 1: 0, 2: 1, 3: 1})
        reps = {0: 0, 1: 2}
        model = contract(agents, graph, partition, reps)
        assert model.graph.channels[(0, 2)] == agents[0].fcm.concepts[3]

    def test_channel_redrawn_when_label_missing_from_reps(self):
        shared = ("S0", "S1")
        def make(agent_id, extra):
            labels = shared + (extra,)
            return Agent(agent_id, Fcm(labels, np.zeros((3, 3)), np.zeros(3)))

        # crossing tie's channel is a concept only agents 1 and 3 hold;
        # representatives 0 and 2 don't, so the channel must be redrawn.
        agents = [make(0, "A0"), make(1, "X"), make(2, "B0"), make(3, "X")]
        graph = SocialGraph((0, 1, 2, 3), ((1, 3),), {(1, 3): "X"})
        partition = Partition({0: 0, 1: 0, 2: 1, 3: 1})
        reps = {0: 0, 1: 2}
        model = contract(agents, graph, partition, reps, seed=9)
        tie = model.graph.ties[0]
        assert model.graph.channels[tie] in shared
        assert model.provenance["redrawn_channels"] == {
            f"{tie[0]},{tie[1]}": model.graph.channels[tie]
        }

    def test_channel_error_when_reps_share_nothing(self):
        a = Agent(0, Fcm(("A", "X"), np.zeros((2, 2)), np.zeros(2)))
        b = Agent(1, Fcm(("B", "X"), np.zeros((2, 2)), np.zeros(2)))
        c = Agent(2, Fcm(("A",), np.zeros((1, 1)), np.zeros(1)))
        d = Agent(3, Fcm(("B",), np.zeros((1, 1)), np.zeros(1)))
        # crossing tie 0-1 over "X"; reps are 2 and 3 with no shared concept
        graph = SocialGraph((0, 1, 2, 3), ((0, 1),), {(0, 1): "X"})
        partition = Partition({0: 0, 1: 1, 2: 0, 3: 1})
        reps = {0: 2, 1: 3}
        with pytest.raises(ChannelError):
            contract([a, b, c, d], graph, partition, reps)

    def test_contraction_soundness_bijection(self, rng):
        # every reduced tie maps to >=1 crossing original tie and vice versa
        for trial in range(8):
            n = int(rng.integers(6, 16))
            agents, graph = wired_model(n, seed=trial)
            c = int(rng.integers(2, min(6, n)))
            raw = {i: int(rng.integers(0, c)) for i in range(n)}
            used = sorted(set(raw.values()))
            remap = {v: k for k, v in enumerate(used)}
            partition = Partition({i: remap[v] for i, v in raw.items()})
            reps = select_representatives(agents, partition)
            model = contract(agents, graph, partition, reps)
            comm = partition.assignment
            crossing_pairs = {
                frozenset((comm[i], comm[j]))
                for i, j in graph.ties
                if comm[i] != comm[j]
            }
            reduced_pairs = set()
            rep_to_comm = {r: c for c, r in reps.items()}
            for i, j in model.graph.ties:
                reduced_pairs.add(frozenset((rep_to_comm[i], rep_to_comm[j])))
            assert reduced_pairs == crossing_pairs
            assert model.removed_count == n - partition.count

    def test_requires_channels(self):
        agents = make_agents(generate_cmaes_style(4, seed=1))
        graph = SocialGraph(tuple(range(4)), ((0, 1),))
        partition = Partition({i: i for i in range(4)})
        with pytest.raises(ContractError):
            contract(agents, graph, partition, {i: i for i in range(4)})

    def test_provenance_structure(self):
        agents, graph = wired_model(6)
        partition = Partition({0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1})
        reps = select_representatives(agents, partition)
        model = contract(agents, graph, partition, reps)
        assert set(model.provenance["communities"]) == {"0", "1"}
        for comm, entry in model.provenance["communities"].items():
            assert entry["representative"] in entry["members"]
