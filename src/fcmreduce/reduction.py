"""Collapse communities to median representatives and rebuild the model.

Each community is replaced by its median member, scored by the sum of
initial concept values; representatives keep their own id, ruleset, and
initial activation. Two representatives are tied iff any original tie
crossed their communities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .community import Partition, check_assignment
from .errors import ConfigError, ContractError, is_integer
from .files import read_json, write_json
from .population import Agent, SocialGraph, agents_by_id, draw_channel, tie_key
from .seeding import rng_for


@dataclass
class ReducedModel:
    """The contracted population: one super-agent per community."""

    agents: list
    graph: SocialGraph
    provenance: dict
    removed_count: int


def select_representatives(agents: list[Agent], partition: Partition) -> dict:
    """Per community, the member whose initial-activation sum is the median:
    members sorted by (score, id), element at index (size - 1) // 2. Returns
    community id -> agent id."""
    by_id = agents_by_id(agents, partition.assignment)
    reps = {}
    for comm, members in partition.members().items():
        scored = sorted((float(by_id[v].fcm.activation.sum()), v) for v in members)
        reps[comm] = scored[(len(scored) - 1) // 2][1]
    return reps


def contract(
    agents: list[Agent],
    graph: SocialGraph,
    partition: Partition,
    reps: dict,
    seed: int = 0,
) -> ReducedModel:
    """Contract the population along the partition.

    The reduced tie set is the image of the original ties under the
    community map (self-pairs dropped, duplicates collapsed). A reduced
    tie's channel is that of the lowest crossing tie whose channel both
    representatives hold, else a redraw in community-pair order: a uniform
    pick from the representatives' shared concepts, recorded in the
    provenance.
    """
    graph_channels = graph.assigned_channels()
    check_assignment(graph, partition.assignment)
    comm_of = partition.assignment
    if len(reps) != partition.count or any(comm_of.get(r) != c for c, r in reps.items()):
        raise ContractError(f"reps must map each of the {partition.count} communities to one of its members")
    rep_ids = sorted(reps.values())
    by_id = agents_by_id(agents, rep_ids)
    held = {comm: set(by_id[rep].fcm.concepts) for comm, rep in reps.items()}
    # crossing community pair -> the first usable channel in graph.ties
    # order (lowest (i, j) first), None while no crossing tie qualifies
    usable: dict = {}
    for tie in graph.ties:
        ca, cb = sorted((comm_of[tie[0]], comm_of[tie[1]]))
        if ca != cb and usable.get((ca, cb)) is None:
            label = graph_channels[tie]
            usable[(ca, cb)] = label if label in held[ca] and label in held[cb] else None
    rng = rng_for(seed, "contract")
    channels = {}
    redrawn = {}
    for (ca, cb), label in sorted(usable.items()):
        ra, rb = reps[ca], reps[cb]
        tie = tie_key(ra, rb)
        if label is None:
            label = draw_channel(by_id[ra], by_id[rb], rng,
                                 "representatives {} and {} share no concept for the reduced tie")
            redrawn[f"{tie[0]},{tie[1]}"] = label
        channels[tie] = label
    reduced_graph = SocialGraph(rep_ids, tuple(channels), channels)
    provenance = {
        "communities": {
            str(comm): {"representative": reps[comm], "members": members}
            for comm, members in partition.members().items()
        },
        "redrawn_channels": redrawn,
    }
    return ReducedModel(
        agents=list(by_id.values()),
        graph=reduced_graph,
        provenance=provenance,
        removed_count=graph.n - len(reps),
    )


def export_provenance(model: ReducedModel, path) -> None:
    write_json(path, model.provenance)


def import_provenance(path) -> dict:
    """Read provenance.json; each community entry must carry an integer
    representative and a list of integer members."""
    provenance = read_json(path, "provenance")
    communities = provenance.get("communities") if isinstance(provenance, dict) else None
    if not isinstance(communities, dict):
        raise ConfigError(f"provenance file {path} has no communities mapping")
    for comm, entry in communities.items():
        if not (
            isinstance(entry, dict)
            and is_integer(entry.get("representative"))
            and isinstance(entry.get("members"), list)
            and all(map(is_integer, entry["members"]))
        ):
            raise ConfigError(f"provenance file {path}: malformed community {comm!r}")
    return provenance
