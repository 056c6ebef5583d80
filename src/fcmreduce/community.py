"""Community detection on the similarity-weighted social graph.

Two detectors are provided: a randomized label-propagation scheme in which
every node repeatedly adopts the class dominating its neighborhood (summed
by similarity weight), and a deterministic agglomerative scheme that merges
the community pair with the largest positive gain in weighted modularity
until no merge helps. The agglomerative scheme is the greedy heap method of
Clauset, Newman & Moore: candidate merges wait in a max-heap with lazy
deletion (an entry is dropped when popped if a community in it has merged
since it was pushed), and the heap is rebuilt whenever it holds more than
twice as many entries as there are ties.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import ConfigError, ContractError, as_config_error, check_integer
from .files import read_csv, write_csv
from .population import SocialGraph, agent_id, check_keys
from .seeding import rng_for


@dataclass
class Partition:
    """Total, non-overlapping community assignment with dense ids 0..c-1."""

    assignment: dict
    converged: bool | None = None
    rounds_used: int | None = None

    def __post_init__(self):
        self.assignment = {agent_id(k): agent_id(c, "community id") for k, c in self.assignment.items()}
        if not self.assignment:
            raise ContractError("partition over an empty node set")
        communities = set(self.assignment.values())
        if communities != set(range(len(communities))):
            raise ContractError("community ids must be dense 0..c-1")

    @property
    def count(self) -> int:
        return len(set(self.assignment.values()))

    def members(self) -> dict:
        """Map community id -> sorted member list."""
        out: dict = {}
        for node, comm in self.assignment.items():
            out.setdefault(comm, []).append(node)
        return {c: sorted(ms) for c, ms in sorted(out.items())}


@dataclass(frozen=True)
class CommunityStats:
    count: int
    avg_size: float
    max_size: int
    min_size: int


def _densify(labels: dict) -> dict:
    """Relabel communities to 0..c-1, ordered by each community's lowest
    member id (stable across runs)."""
    groups: dict = {}
    for node, lab in labels.items():
        groups.setdefault(lab, []).append(node)
    ordered = sorted(groups.values(), key=min)
    mapping = {}
    for new_id, members in enumerate(ordered):
        for node in members:
            mapping[node] = new_id
    return mapping


def check_tie_weights(graph: SocialGraph, weights: dict) -> None:
    """The rule that weights has exactly graph's ties as keys."""
    check_keys(weights, graph.ties, "tie weights", "ties")


def check_assignment(graph: SocialGraph, assignment: dict) -> None:
    """The rule that a partition's assignment has exactly graph's nodes as keys."""
    check_keys(assignment, graph.nodes, "communities", "nodes")


def chinese_whispers(
    graph: SocialGraph, weights: dict, max_rounds: int = 50, seed: int = 0
) -> Partition:
    """Label propagation: nodes start in their own class and, visited in a
    seeded random order each round, adopt the class with the largest summed
    similarity among their neighbors (ties broken by a seeded uniform pick).
    Stops after a round with no change, or after max_rounds."""
    check_tie_weights(graph, weights)
    max_rounds = check_integer("max_rounds", max_rounds, ConfigError, 1)
    rng = rng_for(seed, "chinese-whispers")
    nbrs: dict = {v: [] for v in graph.nodes}
    for i, j in graph.ties:
        sim = weights[(i, j)].similarity
        nbrs[i].append((j, sim))
        nbrs[j].append((i, sim))
    labels = {v: v for v in graph.nodes}
    converged = False
    rounds_used = 0
    for _ in range(max_rounds):
        rounds_used += 1
        changed = False
        for v in [graph.nodes[p] for p in rng.permutation(graph.n).tolist()]:
            if not nbrs[v]:
                continue
            scores: dict = {}
            for u, sim in nbrs[v]:
                scores[labels[u]] = scores.get(labels[u], 0.0) + sim
            best = max(scores.values())
            candidates = sorted(lab for lab, s in scores.items() if s == best)
            pick = candidates[0] if len(candidates) == 1 else candidates[int(rng.integers(len(candidates)))]
            if pick != labels[v]:
                labels[v] = pick
                changed = True
        if not changed:
            converged = True
            break
    return Partition(_densify(labels), converged=converged, rounds_used=rounds_used)


def weighted_modularity(graph: SocialGraph, weights: dict, assignment: dict) -> float:
    """Newman modularity with similarity weights as edge strengths:
    Q = sum_c [W_in(c)/m - (K_c / 2m)^2] with m the total tie weight, W_in
    the intra-community weight, and K_c the summed weighted degree."""
    check_tie_weights(graph, weights)
    check_assignment(graph, assignment)
    m = sum(weights[t].similarity for t in graph.ties)
    if m == 0.0:
        return 0.0
    w_in: dict = {}
    k: dict = {}
    for i, j in graph.ties:
        s = weights[(i, j)].similarity
        k[assignment[i]] = k.get(assignment[i], 0.0) + s
        k[assignment[j]] = k.get(assignment[j], 0.0) + s
        if assignment[i] == assignment[j]:
            w_in[assignment[i]] = w_in.get(assignment[i], 0.0) + s
    q = 0.0
    for c in set(assignment.values()):
        q += w_in.get(c, 0.0) / m - (k.get(c, 0.0) / (2.0 * m)) ** 2
    return q


def agglomerative_modularity(graph: SocialGraph, weights: dict) -> Partition:
    """Greedy agglomeration of Clauset, Newman & Moore (Phys. Rev. E 70,
    066111, 2004) on weighted modularity (Newman, Phys. Rev. E 70, 056131,
    2004): starting from singletons, repeatedly merge the community pair
    with the largest strictly positive modularity gain (equal gains broken
    by the lowest community-id pair); stop when no merge increases
    modularity. Deterministic.

    The candidate pairs sit in a lazy max-heap of (-gain, a, b, stamp[a],
    stamp[b]) with a < b, so the heap order is the tie-break; stamp[c]
    counts the merges community c has absorbed. Merging b into a changes
    only the gains of a's pairs, so a's stamp moves on, a's new row is
    pushed and older entries are left in place: a popped entry is current
    exactly when both its stamps still match (a merged-away community has
    no stamp). Each pair is pushed once per stamp, so at most one entry per
    pair is current. When the heap holds more than twice the tie count it
    is rebuilt from its current entries; live pairs never outnumber the
    ties, which bounds memory.
    """
    check_tie_weights(graph, weights)
    m = sum(weights[t].similarity for t in graph.ties)
    labels = {v: v for v in graph.nodes}
    if m == 0.0:
        return Partition(_densify(labels))
    # community state: weighted degree K, and inter-community weights
    k: dict = {v: 0.0 for v in graph.nodes}
    between: dict = {v: {} for v in graph.nodes}
    for i, j in graph.ties:
        s = weights[(i, j)].similarity
        k[i] += s
        k[j] += s
        between[i][j] = between[i].get(j, 0.0) + s
        between[j][i] = between[j].get(i, 0.0) + s
    members: dict = {v: [v] for v in graph.nodes}
    q_running = weighted_modularity(graph, weights, labels)

    def gain(a, b):
        return between[a][b] / m - k[a] * k[b] / (2.0 * m * m)

    stamp: dict = {v: 0 for v in graph.nodes}

    def current(entry):
        _, a, b, stamp_a, stamp_b = entry
        return stamp.get(a) == stamp_a and stamp.get(b) == stamp_b

    heap = [(-g, a, b, 0, 0) for a, b in graph.ties if (g := gain(a, b)) > 0.0]
    heapq.heapify(heap)
    compact_above = 2 * len(graph.ties)
    while heap:
        entry = heapq.heappop(heap)
        if not current(entry):
            continue
        neg_gain, a, b, _, _ = entry
        q_running += -neg_gain
        # merge b into a (a < b keeps the lowest id as the community label)
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
        del stamp[b]
        stamp[a] += 1
        members[a] += members.pop(b)
        for other in between[a]:
            lo, hi = (a, other) if a < other else (other, a)
            g = gain(lo, hi)
            if g > 0.0:
                heapq.heappush(heap, (-g, lo, hi, stamp[lo], stamp[hi]))
        if len(heap) > compact_above:
            heap = [e for e in heap if current(e)]
            heapq.heapify(heap)
    for comm, nodes in members.items():
        for node in nodes:
            labels[node] = comm
    # each accepted merge had strictly positive gain, so modularity is
    # non-decreasing; the accumulated gains must match a fresh evaluation
    q_final = weighted_modularity(graph, weights, labels)
    if not abs(q_running - q_final) < 1e-9:
        raise ContractError(
            f"accumulated modularity {q_running!r} drifted from its evaluation {q_final!r}"
        )
    return Partition(_densify(labels))


def partition_stats(p: Partition) -> CommunityStats:
    sizes = [len(ms) for ms in p.members().values()]
    return CommunityStats(
        count=len(sizes),
        avg_size=sum(sizes) / len(sizes),
        max_size=max(sizes),
        min_size=min(sizes),
    )


# ---------------------------------------------------------------------------
# Partition file I/O: CSV agent_id,community_id

_PARTITION_HEADER = ["agent_id", "community_id"]
_PARTITION_TYPES = (int, int)


def export_partition(p: Partition, path) -> None:
    write_csv(path, _PARTITION_HEADER, sorted(p.assignment.items()))


def import_partition(path) -> Partition:
    assignment = {}
    for agent, community in read_csv(path, _PARTITION_HEADER, "partition", _PARTITION_TYPES):
        if agent in assignment:
            raise ConfigError(f"agent {agent} listed twice in {path}")
        assignment[agent] = community
    with as_config_error(f"partition file {path}: "):
        return Partition(assignment)
