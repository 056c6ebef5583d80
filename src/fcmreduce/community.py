"""Community detection on the similarity-weighted social graph.

Two detectors are provided: a randomized label-propagation scheme in which
every node repeatedly adopts the class dominating its neighborhood (summed
by similarity weight), and a deterministic agglomerative scheme that merges
the community pair with the largest positive gain in weighted modularity
until no merge helps. The agglomerative scheme is the greedy heap method of
Clauset, Newman & Moore: candidate merges wait in a max-heap keyed on
upper bounds of their gains. A merge pushes only the pairs whose tie
weight it changed; the top entry's gain is evaluated afresh, and the entry
is merged on if its key is exact, re-keyed if not, and dropped if a
community in it has merged away. The heap is rebuilt whenever it holds
more than twice as many entries as there are ties.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from sys import float_info

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


def _tie_table(graph: SocialGraph, weights: dict) -> tuple:
    """After check_tie_weights: m, the total tie similarity; each node's
    weighted degree; and node -> {neighbour: similarity} rows, neighbours in
    increasing id (graph.ties is sorted)."""
    check_tie_weights(graph, weights)
    m = 0.0
    degree = dict.fromkeys(graph.nodes, 0.0)
    rows: dict = {v: {} for v in graph.nodes}
    for i, j in graph.ties:
        s = weights[(i, j)].similarity
        m += s
        degree[i] += s
        degree[j] += s
        rows[i][j] = s
        rows[j][i] = s
    return m, degree, rows


def chinese_whispers(
    graph: SocialGraph, weights: dict, max_rounds: int = 50, seed: int = 0
) -> Partition:
    """Label propagation: nodes start in their own class and, visited in a
    seeded random order each round, adopt the class with the largest summed
    similarity among their neighbors (ties broken by a seeded uniform pick).
    Stops after a round with no change, or after max_rounds."""
    _, _, nbrs = _tie_table(graph, weights)
    max_rounds = check_integer("max_rounds", max_rounds, ConfigError, 1)
    rng = rng_for(seed, "chinese-whispers")
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
            for u, sim in nbrs[v].items():
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
    m = 0.0
    w_in: dict = {}
    k: dict = {}
    for i, j in graph.ties:
        s = weights[(i, j)].similarity
        m += s
        k[assignment[i]] = k.get(assignment[i], 0.0) + s
        k[assignment[j]] = k.get(assignment[j], 0.0) + s
        if assignment[i] == assignment[j]:
            w_in[assignment[i]] = w_in.get(assignment[i], 0.0) + s
    if m == 0.0:
        return 0.0
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

    The candidate pairs sit in a max-heap of (-key, a, b) with a < b, so
    the heap order is the tie-break. Invariant: each live pair with a
    positive gain has an entry whose key is at least its gain. Merging b
    into a changes the summed tie weight only of a's pairs with b's former
    neighbours (it grows, or the pair is new), so only those are pushed.
    a's other pairs keep their tie weight while K_a = K_a + K_b grows:
    similarities are >= 0, and rounded sums, products and differences are
    monotone, so their gains can only fall and their keys stay upper
    bounds. Pairs without a do not change.

    The top entry is dropped when a community in it has merged away;
    otherwise its gain is evaluated afresh. If the gain equals the key,
    every other pair gains at most that and every lower pair less, so the
    pair is the one a full rescan would pick and it merges; else the entry
    is re-keyed on its gain, or dropped if that gain is not positive. When
    the heap holds more than twice the tie count it is rebuilt from the
    live pairs' gains, one entry each; live pairs never outnumber the ties,
    which bounds memory.

    Raises ContractError when the summed similarity m is below about
    1e-154, so that 2*m*m is not a normal float (every tie's
    dissimilarity above about 355 + ln(tie count)): the gains would lose
    their precision, and once m*m underflows to zero they divide by zero.
    """
    # community state: weighted degree K, and inter-community weights
    m, k, between = _tie_table(graph, weights)
    if m == 0.0:
        return Partition(_densify({v: v for v in graph.nodes}))
    if 2.0 * m * m < float_info.min:
        raise ContractError(
            f"total tie similarity m = {m!r} is too small for modularity: "
            "2*m*m is below the smallest normal float"
        )
    members: dict = {v: [v] for v in graph.nodes}
    # the singletons' modularity: no tie lies inside a community
    q_running = -sum((kv / (2.0 * m)) ** 2 for kv in k.values())

    def gain(a, b):
        return between[a][b] / m - k[a] * k[b] / (2.0 * m * m)

    heap = [(-g, a, b) for a, b in graph.ties if (g := gain(a, b)) > 0.0]
    heapq.heapify(heap)
    compact_above = 2 * len(graph.ties)
    while heap:
        neg_key, a, b = heap[0]
        row = between.get(a)
        g = gain(a, b) if row is not None and b in row else 0.0
        if g != -neg_key:
            # a community merged away (g = 0.0 < every key), or a stale key
            if g > 0.0:
                heapq.heapreplace(heap, (-g, a, b))
            else:
                heapq.heappop(heap)
            continue
        q_running += g
        # merge b into a (a < b keeps the lowest id as the community label)
        absorbed = between.pop(b)
        del absorbed[a]
        del row[b]
        k[a] += k[b]
        for other, s in absorbed.items():
            row[other] = row.get(other, 0.0) + s
            between[other][a] = between[other].get(a, 0.0) + s
            del between[other][b]
        del k[b]
        members[a] += members.pop(b)
        fresh = [
            (-g, a, other) if a < other else (-g, other, a)
            for other in absorbed
            if (g := gain(a, other)) > 0.0
        ]
        # the merged pair's entry, still on top, gives its slot to a fresh one
        if fresh:
            heapq.heapreplace(heap, fresh.pop())
        else:
            heapq.heappop(heap)
        for entry in fresh:
            heapq.heappush(heap, entry)
        if len(heap) > compact_above:
            heap = [
                (-g, lo, hi)
                for lo in between
                for hi in between[lo]
                if lo < hi and (g := gain(lo, hi)) > 0.0
            ]
            heapq.heapify(heap)
    # a community keeps its lowest member's id, so sorted ids are _densify's order
    assignment = dict.fromkeys(graph.nodes)
    for comm, label in enumerate(sorted(members)):
        for node in members[label]:
            assignment[node] = comm
    # each accepted merge had strictly positive gain, so modularity is
    # non-decreasing; the accumulated gains must match a fresh evaluation
    q_final = weighted_modularity(graph, weights, assignment)
    if not abs(q_running - q_final) < 1e-9:
        raise ContractError(
            f"accumulated modularity {q_running!r} drifted from its evaluation {q_final!r}"
        )
    return Partition(assignment)


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
