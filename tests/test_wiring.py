"""How agents and a social graph fit together, as every stage sees it: ids
are non-negative integers, every graph node has an agent, and a graph with
ties is run, contracted or written only once its channels are assigned. A
reduction rests on four more rules: a tie's channel is a concept both its
agents hold, tie weights cover exactly the graph's ties, a partition assigns
exactly its nodes, and each representative is a member of its community.
Each fault raises the same ContractError from every entry point."""

import re

import numpy as np
import pytest

from fcmreduce.community import (
    Partition,
    agglomerative_modularity,
    chinese_whispers,
    weighted_modularity,
)
from fcmreduce.errors import ContractError
from fcmreduce.fcm import SimulationSettings
from fcmreduce.harness import RunSpec, interact, run_distribution, run_once, run_once_reference
from fcmreduce.population import (
    CMAES_CONCEPTS,
    SocialGraph,
    TopologySpec,
    agent_id,
    assign_channels,
    build_topology,
    export_topology,
    generate_cmaes_style,
    make_agents,
)
from fcmreduce.reduction import contract, select_representatives
from fcmreduce.similarity import TieWeight, weigh_ties

SPEC = RunSpec("Awareness", SimulationSettings("Awareness"), rounds=2, repeats=1)
SINGLETONS = Partition({v: v for v in range(4)})
REPS = {v: v for v in range(4)}  # each singleton community's representative


def path_model():
    """Four cmaes-style agents on the path 0-1-2-3, channels unassigned."""
    agents = make_agents(generate_cmaes_style(4, seed=1))
    return agents, SocialGraph(range(4), ((0, 1), (1, 2), (2, 3)))


MISSING_AGENT_CALLS = {
    "weigh_ties": lambda agents, bare, wired: weigh_ties(agents, wired, "concept_count"),
    "run_once": lambda agents, bare, wired: run_once(agents, wired, SPEC, 0),
    "run_once_reference": lambda agents, bare, wired: run_once_reference(agents, wired, SPEC, 0),
    "contract": lambda agents, bare, wired: contract(agents, wired, SINGLETONS, REPS),
    "select_representatives": lambda agents, bare, wired: select_representatives(agents, SINGLETONS),
    "assign_channels": lambda agents, bare, wired: assign_channels(bare, agents, seed=0),
}


@pytest.mark.parametrize("call", MISSING_AGENT_CALLS.values(), ids=MISSING_AGENT_CALLS)
def test_missing_agent_is_contract_error_everywhere(call):
    agents, bare = path_model()
    wired = assign_channels(bare, agents, seed=0)
    with pytest.raises(ContractError, match=r"^no agent for ids \[3\]$"):
        call(agents[:3], bare, wired)


def test_channel_less_graph_raises_one_error_everywhere(tmp_path):
    agents, bare = path_model()
    calls = (
        lambda: run_once(agents, bare, SPEC, 0),
        lambda: run_once_reference(agents, bare, SPEC, 0),
        lambda: contract(agents, bare, SINGLETONS, REPS),
        lambda: export_topology(bare, tmp_path / "topology.csv"),
    )
    messages = set()
    for call in calls:
        with pytest.raises(ContractError, match="assigned channels") as raised:
            call()
        messages.add(str(raised.value))
    assert len(messages) == 1
    assert not (tmp_path / "topology.csv").exists()


def test_graph_without_ties_runs_without_channels():
    agents, _ = path_model()
    lone = SocialGraph((0, 1), ())
    assert lone.assigned_channels() == {}
    assert run_once(agents, lone, SPEC, 0) == run_once_reference(agents, lone, SPEC, 0)


BAD_IDS = [1.7, 2.0, True, False, -1, "1", np.float64(1.0), None]


@pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
def test_social_graph_rejects_ids_that_are_no_plain_non_negative_integers(bad):
    with pytest.raises(ContractError, match="agent id must be an integer >= 0"):
        SocialGraph((bad, 5), ())
    with pytest.raises(ContractError, match="agent id must be an integer >= 0"):
        SocialGraph((1, 5), ((bad, 5),))
    with pytest.raises(ContractError, match="agent id must be an integer >= 0"):
        SocialGraph((1, 5), ((1, 5),), {(bad, 5): "A", (1, 5): "A"})


@pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
def test_partition_rejects_ids_that_are_no_plain_non_negative_integers(bad):
    with pytest.raises(ContractError, match="agent id must be an integer >= 0"):
        Partition({bad: 0, 5: 0})
    with pytest.raises(ContractError, match="community id must be an integer >= 0"):
        Partition({0: 0, 5: bad})


def test_fractional_community_does_not_merge_into_another():
    with pytest.raises(ContractError, match="community id"):
        Partition({0: 0.5, 1: 0})


def test_numpy_integer_ids_are_stored_as_plain_ints():
    i64, i32 = np.int64, np.int32
    graph = SocialGraph((i64(0), i32(1), i64(2)), ((i64(1), i32(0)), (i64(1), 2)),
                        {(i32(0), i64(1)): "A", (i64(2), i64(1)): "B"})
    assert graph == SocialGraph((0, 1, 2), ((0, 1), (1, 2)), {(0, 1): "A", (1, 2): "B"})
    ids = [*graph.nodes, *(v for tie in graph.ties for v in tie),
           *(v for tie in graph.channels for v in tie)]
    assert {type(v) for v in ids} == {int}
    partition = Partition({i64(0): i32(0), i32(1): i64(1)})
    assert partition.assignment == {0: 0, 1: 1}
    assert {type(v) for v in (*partition.assignment, *partition.assignment.values())} == {int}
    assert type(agent_id(np.uint8(7))) is int


def wired_path_model():
    agents, bare = path_model()
    return agents, assign_channels(bare, agents, seed=0)


PATH_WEIGHTS = {(0, 1): TieWeight(0.5), (1, 2): TieWeight(2.0), (2, 3): TieWeight(0.5)}

CHANNEL_CALLS = {
    "run_once": lambda agents, graph: run_once(agents, graph, SPEC, 0),
    "run_once_reference": lambda agents, graph: run_once_reference(agents, graph, SPEC, 0),
    "run_distribution": lambda agents, graph: run_distribution(agents, graph, SPEC),
    "interact": lambda agents, graph: interact(agents[1], agents[2], graph.channels[(1, 2)], SPEC.settings),
}


@pytest.mark.parametrize("call", CHANNEL_CALLS.values(), ids=CHANNEL_CALLS)
def test_channel_a_map_lacks_is_contract_error_everywhere(call):
    agents, wired = wired_path_model()
    graph = SocialGraph(wired.nodes, wired.ties, {**wired.channels, (1, 2): "Obesity"})
    message = f"tie (1, 2): concept 'Obesity' not in FCM ({', '.join(CMAES_CONCEPTS)})"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        call(agents, graph)


WEIGHT_CALLS = {
    "chinese_whispers": lambda graph, weights: chinese_whispers(graph, weights),
    "agglomerative_modularity": lambda graph, weights: agglomerative_modularity(graph, weights),
    "weighted_modularity": lambda graph, weights: weighted_modularity(graph, weights, SINGLETONS.assignment),
}
WEIGHT_FAULTS = {
    "missing tie": ({t: w for t, w in PATH_WEIGHTS.items() if t != (2, 3)},
                    r"^tie weights missing for ties \[\(2, 3\)\]$"),
    "extra tie": ({**PATH_WEIGHTS, (0, 3): TieWeight(0.5)},
                  r"^tie weights given for ties not in the graph \[\(0, 3\)\]$"),
}


@pytest.mark.parametrize("fault", WEIGHT_FAULTS.values(), ids=WEIGHT_FAULTS)
@pytest.mark.parametrize("call", WEIGHT_CALLS.values(), ids=WEIGHT_CALLS)
def test_weights_not_of_the_graphs_ties_are_contract_error_everywhere(call, fault):
    weights, message = fault
    _, bare = path_model()
    with pytest.raises(ContractError, match=message):
        call(bare, weights)


PARTITION_CALLS = {
    "weighted_modularity": lambda agents, graph, partition: weighted_modularity(
        graph, PATH_WEIGHTS, partition.assignment
    ),
    "contract": lambda agents, graph, partition: contract(
        agents, graph, partition, {c: c for c in range(partition.count)}
    ),
}
PARTITION_FAULTS = {
    "missing node": (Partition({0: 0, 1: 1, 2: 2}), r"^communities missing for nodes \[3\]$"),
    "extra node": (Partition({v: v for v in range(5)}),
                   r"^communities given for nodes not in the graph \[4\]$"),
}


@pytest.mark.parametrize("fault", PARTITION_FAULTS.values(), ids=PARTITION_FAULTS)
@pytest.mark.parametrize("call", PARTITION_CALLS.values(), ids=PARTITION_CALLS)
def test_partition_not_of_the_graphs_nodes_is_contract_error_everywhere(call, fault):
    partition, message = fault
    agents, wired = wired_path_model()
    with pytest.raises(ContractError, match=message):
        call(agents, wired, partition)


HALVES = Partition({0: 0, 1: 0, 2: 1, 3: 1})


@pytest.mark.parametrize("reps", [{0: 0, 1: 1}, {0: 2, 1: 3}, {0: 0}, {0: 0, 1: 2, 2: 3}], ids=repr)
def test_representative_outside_its_community_is_contract_error(reps):
    agents, wired = wired_path_model()
    with pytest.raises(ContractError, match="^reps must map each of the 2 communities to one of its members$"):
        contract(agents, wired, HALVES, reps)


def test_removed_count_counts_the_graphs_nodes_not_the_agents():
    agents = make_agents(generate_cmaes_style(5, seed=1))  # agent 4 is on no node
    _, bare = path_model()
    model = contract(agents, assign_channels(bare, agents, seed=0), HALVES, {0: 1, 1: 2})
    assert model.removed_count == 2
    assert model.graph.nodes == (1, 2)


def test_channel_for_a_pair_that_is_no_tie_is_contract_error():
    with pytest.raises(ContractError, match=r"^channels given for ties not in the graph \[\(1, 2\), \(5, 5\)\]$"):
        SocialGraph((0, 1, 2), ((0, 1),), {(0, 1): "a", (1, 2): "b", (5, 5): "c"})


def test_channel_given_under_both_orientations_is_contract_error():
    """(0, 1) and (1, 0) key one undirected tie, so a dict naming both gives
    it two channels; one of them used to be kept silently."""
    with pytest.raises(ContractError, match=r"^channel given twice for tie \(0, 1\)$"):
        SocialGraph((0, 1), ((0, 1),), {(0, 1): "A", (1, 0): "B"})


def test_node_order_given_changes_neither_graph_nor_partition_nor_run():
    """A graph stores its nodes in id order, so chinese_whispers, which visits
    them in a seeded permutation of that order, and the run loop see the same
    graph however its nodes were listed."""
    agents = make_agents(generate_cmaes_style(40, seed=0))
    graph = assign_channels(build_topology(TopologySpec("small_world", 40, seed=3)), agents, seed=5)
    reversed_graph = SocialGraph(graph.nodes[::-1], graph.ties, graph.channels)
    assert reversed_graph == graph
    assert reversed_graph.nodes == tuple(range(40))
    weights = weigh_ties(agents, graph, "jaccard_edges")
    assert chinese_whispers(reversed_graph, weights, seed=1) == chinese_whispers(graph, weights, seed=1)
    assert run_once(agents, reversed_graph, SPEC, 0) == run_once(agents, graph, SPEC, 0)
