"""How agents and a social graph fit together, as every stage sees it: ids
are non-negative integers, every graph node has an agent, and a graph with
ties is run, contracted or written only once its channels are assigned. Each
fault raises the same ContractError from every entry point."""

import numpy as np
import pytest

from fcmreduce.community import Partition
from fcmreduce.errors import ContractError
from fcmreduce.fcm import SimulationSettings
from fcmreduce.harness import RunSpec, run_once, run_once_reference
from fcmreduce.population import (
    SocialGraph,
    agent_id,
    assign_channels,
    export_topology,
    generate_cmaes_style,
    make_agents,
)
from fcmreduce.reduction import contract, select_representatives
from fcmreduce.similarity import weigh_ties

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
