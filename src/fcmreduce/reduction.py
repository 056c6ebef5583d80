"""Collapse communities to median representatives and rebuild the model.

Each community is replaced by its median member, scored by the sum of
initial concept values; representatives keep their own id, ruleset, and
initial activation. Two representatives are tied iff any original tie
crossed their communities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .community import Partition
from .errors import ConfigError, is_integer
from .files import read_json, write_json
from .population import Agent, SocialGraph, agents_by_id, draw_channel
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
    tie's channel is taken from the lowest-(i, j) original crossing tie
    whose label exists in both representatives' FCMs; if no crossing tie
    qualifies, a channel is re-drawn uniformly from the representatives'
    label intersection and the redraw is recorded in the provenance.
    """
    graph_channels = graph.assigned_channels()
    rep_ids = sorted(reps.values())
    by_id = agents_by_id(agents, rep_ids)
    comm_of = partition.assignment
    crossing: dict = {}
    for i, j in graph.ties:
        ca, cb = comm_of[i], comm_of[j]
        if ca == cb:
            continue
        key = (ca, cb) if ca < cb else (cb, ca)
        crossing.setdefault(key, []).append((i, j))
    rng = rng_for(seed, "contract")
    ties = []
    channels = {}
    redrawn = {}
    for (ca, cb), originals in sorted(crossing.items()):
        ra, rb = reps[ca], reps[cb]
        tie = (ra, rb) if ra < rb else (rb, ra)
        concepts_a = set(by_id[ra].fcm.concepts)
        concepts_b = set(by_id[rb].fcm.concepts)
        label = None
        for orig in sorted(originals):
            cand = graph_channels[orig]
            if cand in concepts_a and cand in concepts_b:
                label = cand
                break
        if label is None:
            label = draw_channel(by_id[ra], by_id[rb], rng,
                                 "representatives {} and {} share no concept for the reduced tie")
            redrawn[f"{tie[0]},{tie[1]}"] = label
        ties.append(tie)
        channels[tie] = label
    reduced_graph = SocialGraph(tuple(rep_ids), tuple(sorted(ties)), channels)
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
        removed_count=len(agents) - len(reps),
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
