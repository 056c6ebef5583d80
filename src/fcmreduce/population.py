"""Agent populations, social-network topologies, and interaction channels.

Two ready-made populations ship with the package: weight-jittered variants
of a 13-concept expert obesity map, and fully connected 15-concept
fruit-intake maps with individually random weights. Arbitrary populations
can be imported from the JSON format.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ChannelError, ConfigError, ContractError, GenerationError, check_integer, is_number
from .errors import as_config_error, check_choice
# fcm_to_dict defines the record export_population writes; perfbench/layers.py
# wraps it under this module's name
from .fcm import Fcm, fcm_from_dict, fcm_to_dict  # noqa: F401
from .files import json_errors, read_csv, read_text, write_csv, writing
from .seeding import int_seed, rng_for


@dataclass(frozen=True)
class Agent:
    """One simulated individual: an integer id and its own ruleset."""

    id: int
    fcm: Fcm


def agent_id(value, name: str = "agent id") -> int:
    """value as a plain int id; ContractError unless it is an integer >= 0."""
    fast = type(value) is int and value >= 0  # one call per node and tie end
    return value if fast else check_integer(name, value, ContractError, 0)


def agents_by_id(agents: list[Agent], ids) -> dict:
    """{id: Agent} for each of ids, in their order; ContractError naming ids no agent has."""
    by_id = {a.id: a for a in agents}
    if missing := [v for v in ids if v not in by_id]:
        raise ContractError(f"no agent for ids {missing[:5]}")
    return {v: by_id[v] for v in ids}


def draw_channel(a: Agent, b: Agent, rng, fault: str) -> str:
    """A concept drawn uniformly from the sorted concepts both agents' maps
    hold; ChannelError with fault.format(a.id, b.id) when they share none."""
    shared = sorted(set(a.fcm.concepts) & set(b.fcm.concepts))
    if not shared:
        raise ChannelError(fault.format(a.id, b.id))
    return shared[int(rng.integers(len(shared)))]


def channel_index(a: Agent, b: Agent, channel: str) -> tuple[int, int]:
    """The channel's index in a's map and in b's: the rule that a tie's
    channel is a concept both its agents hold; ContractError otherwise."""
    try:
        return a.fcm.index_of(channel), b.fcm.index_of(channel)
    except ConfigError as exc:
        raise ContractError(f"tie ({a.id}, {b.id}): {exc}") from exc


def check_keys(given: dict, expected: tuple, what: str, of: str) -> None:
    """ContractError unless given's keys are exactly the distinct expected
    ones, naming the first that are missing or not expected."""
    if missing := [k for k in expected if k not in given]:
        raise ContractError(f"{what} missing for {of} {missing[:5]}")
    if len(given) > len(expected):
        wanted = set(expected)
        extra = [k for k in given if k not in wanted]
        raise ContractError(f"{what} given for {of} not in the graph {extra[:5]}")


@dataclass
class SocialGraph:
    """Who interacts with whom, and over which shared concept.

    nodes are agent ids, stored in increasing order: plain non-negative ints,
    any other id a ContractError (dense 0..n-1 for generated populations;
    reduced models keep the surviving representatives' original ids). ties
    are undirected (i, j) pairs with i < j, stored in increasing order.
    channels maps each tie to the one concept both endpoint agents observe
    during an interaction; it is None until assign_channels has run, and
    assigned_channels() guards every reader.
    """

    nodes: tuple[int, ...]
    ties: tuple[tuple[int, int], ...]
    channels: dict | None = None

    def __post_init__(self):
        self.nodes = tuple(sorted(map(agent_id, self.nodes)))
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ContractError("duplicate node ids in social graph")
        ties = []
        for i, j in self.ties:
            i, j = agent_id(i), agent_id(j)
            if i == j:
                raise ContractError(f"self-tie at node {i}")
            if i > j:
                i, j = j, i
            if i not in node_set or j not in node_set:
                raise ContractError(f"tie ({i}, {j}) references an unknown node")
            ties.append((i, j))
        if len(set(ties)) != len(ties):
            raise ContractError("duplicate ties in social graph")
        self.ties = tuple(sorted(ties))
        if self.channels is not None:
            chans = {}
            for key, label in self.channels.items():
                i, j = agent_id(key[0]), agent_id(key[1])
                chans[(i, j) if i < j else (j, i)] = label
            check_keys(chans, self.ties, "channels", "ties")
            self.channels = chans

    @property
    def n(self) -> int:
        return len(self.nodes)

    def assigned_channels(self) -> dict:
        """The tie -> concept map; ContractError while ties have none."""
        if self.channels is None and self.ties:
            raise ContractError("a graph with ties needs assigned channels; call assign_channels")
        return self.channels or {}


@dataclass(frozen=True)
class TopologySpec:
    """Which generator to run and with what knobs.

    random: Erdos-Renyi with edge probability p. small_world: Watts-Strogatz
    ring of even degree k rewired with probability beta. scale_free:
    Barabasi-Albert growing from a complete graph on m nodes, each newcomer
    attaching m edges (so |E| = (n - m) * m + m * (m - 1) / 2).
    """

    kind: str
    n: int
    p: float = 0.01
    k: int = 6
    beta: float = 0.1
    m: int = 3
    seed: int = 0

    def __post_init__(self):
        check_choice("topology kind", self.kind, TOPOLOGY_KINDS, ConfigError)
        for name in ("n", "k", "m", "seed"):  # stored plain for range() and seeding
            object.__setattr__(self, name, check_integer(name, getattr(self, name), ConfigError, None))
        if not (is_number(self.p) and is_number(self.beta)):
            raise ConfigError(f"p and beta must be finite numbers, got {self.p!r} and {self.beta!r}")
        if self.n < 2:
            raise ConfigError("topology needs at least 2 nodes")
        if self.kind == "random" and not 0.0 <= self.p <= 1.0:
            raise ConfigError("edge probability p must lie in [0, 1]")
        if self.kind == "small_world":
            if self.k < 2 or self.k % 2 != 0:
                raise ConfigError("ring degree k must be an even integer >= 2")
            if self.k >= self.n:
                raise ConfigError("ring degree k must be smaller than n")
            if not 0.0 <= self.beta <= 1.0:
                raise ConfigError("rewiring probability beta must lie in [0, 1]")
        # a newcomer draws its targets from the tie ends so far, and a
        # complete graph on one node has none
        if self.kind == "scale_free" and not 2 <= self.m < self.n:
            raise ConfigError("attachment count m must satisfy 2 <= m < n")


# ---------------------------------------------------------------------------
# Built-in populations

# 13-concept expert obesity map: 20 directed weighted edges.
OBESITY_EDGES = (
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
)

# Fully connected 15-concept fruit-intake map; constructs with several
# operationalizations get a short qualifier so labels stay unique.
CMAES_CONCEPTS = (
    "Awareness",
    "Attitude",
    "Attitude Price",
    "Self-efficacy (can eat more fruit)",
    "Self-efficacy (difficult to eat more fruit)",
    "Social-influence (should eat fruit)",
    "Social-influence (peers eat fruit)",
    "Intention",
    "Action-planning (when)",
    "Action-planning (which fruit)",
    "Action-planning (how many)",
    "Coping planning (interference)",
    "Coping planning (difficulty)",
    "Perceived availability",
    "Visibility at home",
)


def build_obesity_fcm() -> Fcm:
    """The 13-concept, 20-edge expert obesity map (zero activations)."""
    labels = []
    for s, t, _ in OBESITY_EDGES:
        for label in (s, t):
            if label not in labels:
                labels.append(label)
    index = {c: i for i, c in enumerate(labels)}
    weights = np.zeros((len(labels), len(labels)))
    for s, t, w in OBESITY_EDGES:
        weights[index[s], index[t]] = w
    return Fcm(tuple(labels), weights, np.zeros(len(labels)))


def generate_variants(base: Fcm, count: int, jitter: float, seed: int) -> list[Fcm]:
    """count copies of base with each nonzero weight perturbed by uniform
    noise in [-jitter, +jitter], clamped to [-1, 1]. Zero entries stay zero;
    structure and activation are shared with base."""
    check_integer("variant count", count, ConfigError, 1)
    if not (is_number(jitter) and jitter >= 0):
        raise ConfigError("jitter must be a number >= 0")
    rng = rng_for(seed, "variants")
    mask = base.weights != 0.0
    nnz = int(mask.sum())
    variants = []
    for _ in range(count):
        w = base.weights.copy()
        w[mask] = np.clip(w[mask] + rng.uniform(-jitter, jitter, size=nnz), -1.0, 1.0)
        variants.append(base.with_weights(w))
    return variants


def generate_cmaes_style(count: int, seed: int) -> list[Fcm]:
    """count fully connected 15-concept FCMs: off-diagonal weights uniform in
    [-1, 1], activations uniform in [0, 1], all drawn per agent."""
    check_integer("population count", count, ConfigError, 1)
    rng = rng_for(seed, "cmaes")
    n = len(CMAES_CONCEPTS)
    off_diag = ~np.eye(n, dtype=bool)
    fcms = []
    for _ in range(count):
        w = np.zeros((n, n))
        w[off_diag] = rng.uniform(-1.0, 1.0, size=n * (n - 1))
        a = rng.uniform(0.0, 1.0, size=n)
        fcms.append(Fcm(CMAES_CONCEPTS, w, a))
    return fcms


def randomize_activations(fcms: list[Fcm], seed: int) -> list[Fcm]:
    """Re-draw every FCM's initial activation uniformly in [0, 1]."""
    rng = rng_for(seed, "activations")
    return [f.with_activation(rng.uniform(0.0, 1.0, size=f.n)) for f in fcms]


def make_agents(fcms: list[Fcm]) -> list[Agent]:
    return [Agent(i, f) for i, f in enumerate(fcms)]


# ---------------------------------------------------------------------------
# Population file I/O: a JSON array of FCM objects.

def export_population(fcms: list[Fcm], path) -> None:
    """Write one FCM object per line, in the bytes
    `json.dumps(fcm_to_dict(f), sort_keys=True)` would give.

    Everything in a record except its numbers depends only on the map's
    labels and on which activations and weights are nonzero, so each record
    is filled into a template that _record_template caches under the key
    (concepts, nonzero-activation bytes, nonzero-weight bytes). The labels in
    a template are json-encoded, keys come in sorted order and every number
    is a `%r` slot, which writes float.__repr__, as json does. The activation
    slots follow label order and the edge slots the row-major order of the
    weight mask, which is np.nonzero's order, so the bytes are the ones the
    per-record encoding gave."""
    with writing(path) as fh:
        fh.write("[\n")
        for idx, f in enumerate(fcms):
            if idx:
                fh.write(",\n")
            fh.write(_population_record(f))
        fh.write("\n]\n")


def _population_record(f: Fcm) -> str:
    edges = f.weights != 0.0
    template, order = _record_template(
        f.concepts, (f.activation != 0.0).tobytes(), edges.tobytes()
    )
    return template % (*f.activation[order].tolist(), *f.weights[edges].tolist())


@functools.lru_cache(maxsize=8)
def _record_template(concepts: tuple, active: bytes, edges: bytes) -> tuple:
    """(format string, label-sorted indices of the nonzero activations) for
    maps with these labels and zero pattern. A literal % in a label is
    doubled so that only the number slots take arguments."""
    n = len(concepts)
    labels = [json.dumps(c).replace("%", "%%") for c in concepts]
    kept = sorted(np.flatnonzero(np.frombuffer(active, dtype=bool)).tolist(),
                  key=concepts.__getitem__)
    src, tgt = np.nonzero(np.frombuffer(edges, dtype=bool).reshape(n, n))
    activation = ", ".join(f"{labels[i]}: %r" for i in kept)
    edge_text = ", ".join(
        f'{{"source": {labels[i]}, "target": {labels[j]}, "weight": %r}}'
        for i, j in zip(src.tolist(), tgt.tolist())
    )
    template = (
        f'{{"activation": {{{activation}}}, "concepts": [{", ".join(labels)}], '
        f'"edges": [{edge_text}]}}'
    )
    order = np.array(kept, dtype=np.intp)
    order.setflags(write=False)
    return template, order


_DECODE = json.JSONDecoder().raw_decode
_SKIP = json.decoder.WHITESPACE.match


def _population_records(path):
    """Yield the records of a population file one at a time, so no caller
    holds the whole decoded tree. The file's text is read once and its
    top-level array walked: each record is decoded where it stands and the
    whitespace between records skipped as json does, so exactly the files
    json.load accepts are accepted. Text that does not open a non-empty
    array is classified by json.loads: not JSON, or not such an array."""
    text = read_text(path, "population")
    with json_errors(path, "population"):
        start = _SKIP(text).end()
        at = _SKIP(text, start + 1).end()
        if not text.startswith("[", start) or text.startswith("]", at):
            json.loads(text)
            raise ConfigError(f"population file {path} must hold a non-empty JSON array")
        while True:
            record, at = _DECODE(text, at)
            yield record
            at = _SKIP(text, at).end()
            if text.startswith("]", at):
                break
            if not text.startswith(",", at):
                raise json.JSONDecodeError("Expecting ',' delimiter", text, at)
            at = _SKIP(text, at + 1).end()
        end = _SKIP(text, at + 1).end()
        if end != len(text):
            raise json.JSONDecodeError("Extra data", text, end)


def population_size(path) -> int:
    """The number of maps in a population file, without building any."""
    return sum(1 for _ in _population_records(path))


def import_population(path) -> list[Fcm]:
    fcms = []
    for idx, record in enumerate(_population_records(path)):
        with as_config_error(f"population record {idx}: ", ConfigError):
            fcms.append(fcm_from_dict(record))
    return fcms


# ---------------------------------------------------------------------------
# Topologies and channels

_MAX_TOPOLOGY_RETRIES = 20


def _random_ties(spec: TopologySpec, rng: random.Random) -> list:
    """Erdos-Renyi G(n, p): each pair, in lexicographic order, is a tie when
    one rng.random() falls below p."""
    draw, p = rng.random, spec.p
    return [pair for pair in combinations(range(spec.n), 2) if draw() < p]


def _small_world_ties(spec: TopologySpec, rng: random.Random) -> list:
    """Watts-Strogatz: a ring where each node ties to its k/2 nearest
    neighbours on each side, then, distance by distance and node by node,
    the tie (u, u + j) is rewired with probability beta to a node drawn
    uniformly among those u is not yet tied to. When u is already tied to
    every other node, the rewiring is skipped after one more draw."""
    n, nodes = spec.n, list(range(spec.n))
    adj = [set() for _ in nodes]
    for j in range(1, spec.k // 2 + 1):
        for u in nodes:
            v = (u + j) % n
            adj[u].add(v)
            adj[v].add(u)
    for j in range(1, spec.k // 2 + 1):
        for u in nodes:
            if rng.random() < spec.beta:
                w = rng.choice(nodes)
                while w == u or w in adj[u]:
                    w = rng.choice(nodes)
                    if len(adj[u]) >= n - 1:
                        break
                else:
                    v = (u + j) % n
                    adj[u].remove(v)
                    adj[v].remove(u)
                    adj[u].add(w)
                    adj[w].add(u)
    return [(u, w) for u in nodes for w in adj[u] if u < w]


def _scale_free_ties(spec: TopologySpec, rng: random.Random) -> list:
    """Barabasi-Albert from a complete graph on m nodes: each newcomer draws
    targets from the list holding every node once per tie end until it has
    m distinct ones, ties to them, and the list grows by those targets, in
    the drawn set's iteration order, then by the newcomer m times."""
    m = spec.m
    ties = list(combinations(range(m), 2))
    repeated = [v for v in range(m) for _ in range(m - 1)]
    for source in range(m, spec.n):
        targets = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        ties.extend((t, source) for t in targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return ties


_TIE_GENERATORS = {
    "random": _random_ties,
    "small_world": _small_world_ties,
    "scale_free": _scale_free_ties,
}

TOPOLOGY_KINDS = tuple(_TIE_GENERATORS)


def build_topology(spec: TopologySpec) -> SocialGraph:
    """Generate ties (channels unassigned) for the requested topology.

    Attempt a draws from random.Random(int_seed(spec.seed, "topology",
    spec.kind, a)), the Mersenne Twister stream networkx 3.6's generators
    read for an int seed, and each generator makes the draws networkx's
    makes, in the same order, so the tie set is the one networkx gives.
    Retries with the next attempt when the draw leaves isolated nodes
    (possible for the random kind); fails after a bounded number of attempts.
    """
    generate = _TIE_GENERATORS[spec.kind]
    for attempt in range(_MAX_TOPOLOGY_RETRIES):
        ties = generate(spec, random.Random(int_seed(spec.seed, "topology", spec.kind, attempt)))
        if len({v for tie in ties for v in tie}) == spec.n:
            return SocialGraph(tuple(range(spec.n)), tuple(ties))
    raise GenerationError(
        f"{spec.kind} topology left isolated nodes in {_MAX_TOPOLOGY_RETRIES} attempts "
        f"(n={spec.n}); increase connectivity parameters"
    )


def assign_channels(graph: SocialGraph, agents: list[Agent], seed: int) -> SocialGraph:
    """Give every tie one concept drawn uniformly from the intersection of
    both endpoints' concept sets, so each agent has an equal chance to
    influence any shared concept of its peer."""
    by_id = agents_by_id(agents, graph.nodes)
    rng = rng_for(seed, "channels")
    fault = "agents {} and {} share no concept to interact over"
    channels = {(i, j): draw_channel(by_id[i], by_id[j], rng, fault) for i, j in graph.ties}
    return SocialGraph(graph.nodes, graph.ties, channels)


# ---------------------------------------------------------------------------
# Topology file I/O: edge-list CSV i,j,channel_label

_TOPOLOGY_HEADER = ["i", "j", "channel_label"]
_TOPOLOGY_TYPES = (int, int, str)


def export_topology(graph: SocialGraph, path) -> None:
    channels = graph.assigned_channels()
    write_csv(path, _TOPOLOGY_HEADER, ([*tie, channels[tie]] for tie in graph.ties))


def import_topology(path, nodes) -> SocialGraph:
    """Read an edge-list CSV back into a SocialGraph over the given nodes."""
    ties = []
    channels = {}
    for i, j, label in read_csv(path, _TOPOLOGY_HEADER, "topology", _TOPOLOGY_TYPES):
        ties.append((i, j))
        if label:
            channels[(i, j)] = label
    with as_config_error(f"topology file {path}: "):
        return SocialGraph(tuple(nodes), tuple(ties), channels)
