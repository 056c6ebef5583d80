"""The 11 FCM comparison measures and per-tie similarity weighting.

Each measure is one MEASURES entry: a feature that summarizes one agent's
map and a compare that turns two features into a dissimilarity d >= 0 (0
means indistinguishable under that measure). Ties carry similarity exp(-d)
so unbounded measures (the KL family) still map into (0, 1]. Structural
measures (density, R/T, clustering, triads, centrality) run on a
thresholded unweighted view of the map because fully connected FCMs would
otherwise make them degenerate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, MetricError, as_config_error, check_choice, check_integer, is_number
from .fcm import Fcm
from .files import read_csv, write_csv
from .population import Agent, SocialGraph, agents_by_id, tie_key
from .seeding import int_seed
from .triads import triad_significance_profile

CENTRALITY_KINDS = ("degree", "betweenness", "closeness")


@dataclass(frozen=True)
class StructuralView:
    """Unweighted digraph carved out of a weight matrix: an arc i -> j is
    present iff w[i][j] != 0 and |w[i][j]| >= epsilon. Self-loops are
    dropped. epsilon = 0 keeps every nonzero arc."""

    epsilon: float = 0.05

    def __post_init__(self):
        if not (is_number(self.epsilon) and self.epsilon >= 0):
            raise MetricError("presence threshold epsilon must be a number >= 0")

    def adjacency(self, fcm: Fcm) -> np.ndarray:
        adj = (fcm.weights != 0.0) & (np.abs(fcm.weights) >= self.epsilon)
        np.fill_diagonal(adj, False)
        return adj


@dataclass(frozen=True)
class DiscretizationSpec:
    """Fixed histogram grids for the KL measures: node values binned over
    [0, 1], signed edge weights over [-1, 1], with additive smoothing."""

    node_bins: int = 10
    edge_bins: int = 20
    alpha: float = 1e-6

    def __post_init__(self):
        for name in ("node_bins", "edge_bins"):
            check_integer(name, getattr(self, name), MetricError, 2)
        if not (is_number(self.alpha) and self.alpha > 0):
            raise MetricError("smoothing alpha must be a number > 0")

    @property
    def node_edges(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.node_bins + 1)

    @property
    def edge_edges(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.edge_bins + 1)


@dataclass(frozen=True)
class TieWeight:
    """Per-tie dissimilarity and its similarity mapping exp(-d)."""

    dissimilarity: float
    similarity: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.dissimilarity) and self.dissimilarity >= 0):
            raise MetricError(f"dissimilarity must be finite and >= 0, got {self.dissimilarity}")
        object.__setattr__(self, "similarity", math.exp(-self.dissimilarity))


@dataclass(frozen=True)
class MetricConfig:
    """Everything a tie-weighting pass needs besides the metric name."""

    view: StructuralView = StructuralView()
    discretization: DiscretizationSpec = DiscretizationSpec()
    centrality: str = "degree"
    tsp_ensemble: int = 20
    tsp_swaps_per_edge: int = 10
    seed: int = 0

    def __post_init__(self):
        check_choice("centrality kind", self.centrality, CENTRALITY_KINDS, MetricError)
        check_integer("tsp_ensemble", self.tsp_ensemble, MetricError, 1)
        check_integer("tsp_swaps_per_edge", self.tsp_swaps_per_edge, MetricError, 0)


# ---------------------------------------------------------------------------
# Per-map structural summaries

def density(f: Fcm, view: StructuralView) -> float:
    """Present arcs over the |V|(|V|-1) possible ones."""
    if f.n < 2:
        raise MetricError("density is undefined for a single-concept FCM")
    return float(view.adjacency(f).sum()) / (f.n * (f.n - 1))


def rt_ratio(f: Fcm, view: StructuralView) -> float:
    """Laplace-smoothed receiver/transmitter ratio (R + 1) / (T + 1).

    Receivers have incoming arcs only, transmitters outgoing only; the
    smoothing keeps the ratio defined when either count is 0 (guaranteed in
    fully connected maps).
    """
    adj = view.adjacency(f)
    out_deg = adj.sum(axis=1)
    in_deg = adj.sum(axis=0)
    receivers = int(np.sum((in_deg > 0) & (out_deg == 0)))
    transmitters = int(np.sum((out_deg > 0) & (in_deg == 0)))
    return (receivers + 1) / (transmitters + 1)


def clustering_coefficient(f: Fcm, view: StructuralView) -> float:
    """Mean over nodes of (directed arcs among the node's undirected
    neighborhood) / (|N|(|N|-1)); nodes with fewer than 2 neighbors score 0."""
    adj = view.adjacency(f)
    undirected = adj | adj.T
    coeffs = np.zeros(f.n)
    for i in range(f.n):
        nbrs = np.nonzero(undirected[i])[0]
        if len(nbrs) < 2:
            continue
        arcs = int(adj[np.ix_(nbrs, nbrs)].sum())
        coeffs[i] = arcs / (len(nbrs) * (len(nbrs) - 1))
    return float(coeffs.mean())


def triad_profile(
    f: Fcm,
    view: StructuralView,
    ensemble_size: int = 20,
    swaps_per_edge: int = 10,
    seed: int = 0,
) -> np.ndarray:
    """Unit-normalized triad z-score profile of the structural view."""
    if f.n < 3:
        raise MetricError(f"triad profile needs >= 3 concepts, got {f.n}")
    rng = np.random.default_rng(seed)
    return triad_significance_profile(view.adjacency(f), ensemble_size, swaps_per_edge, rng)


def _centrality_map(f: Fcm, kind: str, view: StructuralView) -> dict:
    adj = view.adjacency(f)
    if kind == "degree":
        totals = adj.sum(axis=0) + adj.sum(axis=1)
        return {label: float(totals[i]) for i, label in enumerate(f.concepts)}
    import networkx as nx  # only these two kinds need it; importing it costs start-up time

    g = nx.from_numpy_array(adj.astype(np.int8), create_using=nx.DiGraph)
    if kind == "betweenness":
        values = nx.betweenness_centrality(g)
    else:
        values = nx.closeness_centrality(g)
    return {label: float(values[i]) for i, label in enumerate(f.concepts)}


def _edge_weights(f: Fcm) -> np.ndarray:
    w = f.weights[f.weights != 0.0]
    if len(w) == 0:
        raise MetricError("edge-weight measures need at least one edge per FCM")
    return w


# ---------------------------------------------------------------------------
# Sample statistics

def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 and nv == 0.0:
        return 1.0
    if nu == 0.0 or nv == 0.0:
        return 0.0
    # rounding can push |cos| a hair past 1, which would make (1-cos)/2 < 0
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def ks_statistic(x, y) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_x - F_y| over the
    pooled sample points, by a merged-sort sweep."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    y = np.sort(np.asarray(y, dtype=np.float64))
    if len(x) == 0 or len(y) == 0:
        raise MetricError("KS statistic needs non-empty samples")
    pooled = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, pooled, side="right") / len(x)
    cdf_y = np.searchsorted(y, pooled, side="right") / len(y)
    return float(np.max(np.abs(cdf_x - cdf_y)))


def kl_from_counts(p_counts, q_counts, alpha: float) -> float:
    """D(P || Q) in nats after adding alpha to every bin and renormalizing.

    Divergence is >= 0 by Gibbs' inequality; the clamp only absorbs float
    rounding on near-identical histograms. With alpha 0, a bin empty in P
    makes the sum NaN and one empty in Q alone makes it inf, without a numpy
    warning: the caller decides what such a value means.
    """
    p = np.asarray(p_counts, dtype=np.float64) + alpha
    q = np.asarray(q_counts, dtype=np.float64) + alpha
    p /= p.sum()
    q /= q.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        return max(float(np.sum(p * np.log(p / q))), 0.0)


def kl_from_samples(p_samples, q_samples, bin_edges, alpha: float) -> float:
    p_samples = np.asarray(p_samples, dtype=np.float64)
    q_samples = np.asarray(q_samples, dtype=np.float64)
    if len(p_samples) == 0 or len(q_samples) == 0:
        raise MetricError("KL divergence needs non-empty samples")
    p_counts, _ = np.histogram(p_samples, bins=bin_edges)
    q_counts, _ = np.histogram(q_samples, bins=bin_edges)
    return kl_from_counts(p_counts, q_counts, alpha)


# ---------------------------------------------------------------------------
# Features: feature(fcm, cfg, seed) summarizes one agent's map

def _tsp_profile(f: Fcm, cfg: MetricConfig, seed: int) -> np.ndarray:
    # triad_profile is resolved when called, so wrapping the module
    # attribute (as a profiler does) sees every profile drawn.
    return triad_profile(f, cfg.view, cfg.tsp_ensemble, cfg.tsp_swaps_per_edge, seed)


def _edge_histogram(f: Fcm, cfg: MetricConfig, seed: int) -> np.ndarray:
    return np.histogram(_edge_weights(f), bins=cfg.discretization.edge_edges)[0]


def _node_histogram(f: Fcm, cfg: MetricConfig, seed: int) -> np.ndarray:
    return np.histogram(f.activation, bins=cfg.discretization.node_edges)[0]


# ---------------------------------------------------------------------------
# Comparisons: compare(x, y, cfg) turns two features into a dissimilarity

def _relative_gap(x, y, cfg: MetricConfig) -> float:
    """|x - y| / (x + y); 0 for equal values, tends to 1 as the gap grows."""
    return abs(x - y) / (x + y)


def _abs_gap(x, y, cfg: MetricConfig) -> float:
    return abs(x - y)


def _cosine_gap(u, v, cfg: MetricConfig) -> float:
    """(1 - cos(u, v)) / 2, in [0, 1]."""
    return (1.0 - _cosine(u, v)) / 2.0


def _symmetric_kl(p, q, cfg: MetricConfig) -> float:
    """(D(p||q) + D(q||p)) / 2 over histogram counts, so ties stay undirected."""
    alpha = cfg.discretization.alpha
    return (kl_from_counts(p, q, alpha) + kl_from_counts(q, p, alpha)) / 2.0


def _centrality_gap(ca: dict, cb: dict, cfg: MetricConfig) -> float:
    """Cosine gap between two centrality rankings aligned on the union of
    concept labels (absent labels contribute 0)."""
    labels = sorted(set(ca) | set(cb))
    va = np.array([ca.get(l, 0.0) for l in labels])
    vb = np.array([cb.get(l, 0.0) for l in labels])
    if np.linalg.norm(va) == 0.0 or np.linalg.norm(vb) == 0.0:
        raise MetricError(f"{cfg.centrality} centrality vector has zero norm; cosine undefined")
    return _cosine_gap(va, vb, cfg)


def _aligned_weights(a: Fcm, b: Fcm) -> list[np.ndarray]:
    """Both weight matrices over the sorted union of the two maps' labels; a
    label one map lacks has zero rows and columns there.

    The union size and each map's np.ix_ placement in it depend only on the
    two label tuples, so _alignment caches them under (a.concepts,
    b.concepts); each call still scatters both maps into fresh zero
    matrices. The aligned arrays are the ones a per-call union embedding
    gives, element for element, so every sum and norm taken over them keeps
    its bits."""
    size, placements = _alignment(a.concepts, b.concepts)
    aligned = []
    for f, place in zip((a, b), placements):
        w = np.zeros((size, size))
        w[place] = f.weights
        aligned.append(w)
    return aligned


@functools.lru_cache(maxsize=16)
def _alignment(concepts_a: tuple, concepts_b: tuple) -> tuple:
    """(union size, (np.ix_ placement of a, np.ix_ placement of b)); the
    index arrays are read-only because every caller shares them."""
    labels = sorted(set(concepts_a) | set(concepts_b))
    index = {l: k for k, l in enumerate(labels)}
    placements = []
    for concepts in (concepts_a, concepts_b):
        rows = [index[l] for l in concepts]
        place = np.ix_(rows, rows)
        for grid in place:
            grid.setflags(write=False)
        placements.append(place)
    return len(labels), tuple(placements)


def _jaccard_gap(a: Fcm, b: Fcm, cfg: MetricConfig) -> float:
    """Weighted Jaccard distance 1 - sum(min)/sum(max) of the label-aligned
    |weights|. The sums run in label order, so the result is the same in
    every process."""
    wa, wb = (np.abs(w) for w in _aligned_weights(a, b))
    s_max = float(np.maximum(wa, wb).sum())
    if s_max == 0.0:
        raise MetricError("weighted Jaccard is undefined for two edgeless FCMs")
    return 1.0 - float(np.minimum(wa, wb).sum()) / s_max


def _frobenius_gap(a: Fcm, b: Fcm, cfg: MetricConfig) -> float:
    """Frobenius norm of the label-aligned weight difference, normalized by
    the sum of the two matrices' norms (0/0 defined as 0)."""
    wa, wb = _aligned_weights(a, b)
    denom = np.linalg.norm(wa) + np.linalg.norm(wb)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(wa - wb) / denom)


# ---------------------------------------------------------------------------
# The registry

#: The 11 tie-weighting measures: name -> (feature, compare). A tie's
#: dissimilarity is compare(feature(fcm_i, cfg, seed_i), feature(fcm_j, cfg,
#: seed_j), cfg); only tsp reads the seed.
MEASURES = {
    "concept_count": (lambda f, cfg, seed: f.n, _relative_gap),
    "density": (lambda f, cfg, seed: density(f, cfg.view), _abs_gap),
    "rt_ratio": (lambda f, cfg, seed: rt_ratio(f, cfg.view), _relative_gap),
    "clustering": (lambda f, cfg, seed: clustering_coefficient(f, cfg.view), _abs_gap),
    "tsp": (_tsp_profile, _cosine_gap),
    "jaccard_edges": (lambda f, cfg, seed: f, _jaccard_gap),
    "ks_edges": (lambda f, cfg, seed: _edge_weights(f), lambda x, y, cfg: ks_statistic(x, y)),
    "kl_edges": (_edge_histogram, _symmetric_kl),
    "kl_nodes": (_node_histogram, _symmetric_kl),
    "centrality_cosine": (
        lambda f, cfg, seed: _centrality_map(f, cfg.centrality, cfg.view),
        _centrality_gap,
    ),
    "compare_graphs": (lambda f, cfg, seed: f, _frobenius_gap),
}

METRIC_KINDS = tuple(MEASURES)


def _measure(metric: str):
    return MEASURES[check_choice("metric kind", metric, METRIC_KINDS, MetricError)]


def distance(
    metric: str, a: Fcm, b: Fcm, config: MetricConfig | None = None, seed: int = 0
) -> float:
    """Dissimilarity of two maps under one measure. Both features are drawn
    with the same seed, so identical maps land at distance 0."""
    feature, compare = _measure(metric)
    cfg = config or MetricConfig()
    return compare(feature(a, cfg, seed), feature(b, cfg, seed), cfg)


# The scalar forms the acceptance tests import; every other pairwise
# distance is distance(metric, a, b, config, seed).

def concept_count_distance(a: Fcm, b: Fcm) -> float:
    return distance("concept_count", a, b)


def tsp_distance(
    a: Fcm,
    b: Fcm,
    view: StructuralView,
    ensemble_size: int = 20,
    swaps_per_edge: int = 10,
    seed: int = 0,
) -> float:
    return distance("tsp", a, b, MetricConfig(view, tsp_ensemble=ensemble_size,
                                              tsp_swaps_per_edge=swaps_per_edge), seed)


# ---------------------------------------------------------------------------
# Tie weighting

def weigh_ties(
    agents: list[Agent],
    graph: SocialGraph,
    metric: str,
    config: MetricConfig | None = None,
    features: dict | None = None,
) -> dict:
    """Weight of every existing tie under the chosen measure: a map
    (i, j) -> TieWeight. Only interacting pairs are compared; each endpoint
    agent's feature is computed once, when a tie first touches it.

    features, when given, is the caller's cache of agent id -> feature for
    this metric and config, filled here as ties touch new agents. A feature
    depends only on the agent's map, the metric, the config and the agent
    id, never on the graph, so one dict can serve the same agents weighed
    over several topologies."""
    feature, compare = _measure(metric)
    cfg = config or MetricConfig()
    by_id = agents_by_id(agents, graph.nodes)
    features = {} if features is None else features
    seeded = metric == "tsp"  # the one measure whose feature reads its seed

    def feature_of(agent_id):
        if agent_id not in features:
            # seeded by agent id, not by evaluation order, so tie weighting
            # stays schedule-independent
            seed = int_seed(cfg.seed, "tsp", agent_id) if seeded else 0
            features[agent_id] = feature(by_id[agent_id].fcm, cfg, seed)
        return features[agent_id]

    weights = {}
    for i, j in graph.ties:
        try:
            weights[(i, j)] = TieWeight(compare(feature_of(i), feature_of(j), cfg))
        except MetricError as exc:
            raise MetricError(f"metric {metric!r} failed on tie ({i}, {j}): {exc}") from exc
    return weights


# ---------------------------------------------------------------------------
# Tie-weight file I/O: CSV i,j,metric,dissimilarity,similarity

_TIE_HEADER = ["i", "j", "metric", "dissimilarity", "similarity"]
_TIE_TYPES = (int, int, str, float, float)


def export_tie_weights(weights: dict, metric: str, path) -> None:
    write_csv(path, _TIE_HEADER, (
        [i, j, metric, repr(tw.dissimilarity), repr(tw.similarity)]
        for (i, j), tw in sorted(weights.items())
    ))


def import_tie_weights(path) -> tuple[dict, str]:
    """Read a tie-weight CSV; returns (weights map, metric name), the metric
    "" for a file without rows. Each similarity must be exp(-dissimilarity)."""
    weights = {}
    metrics = set()
    for i, j, metric, dissimilarity, similarity in read_csv(path, _TIE_HEADER, "tie-weight", _TIE_TYPES):
        with as_config_error(f"malformed tie-weight row ({i}, {j}) in {path}: ", MetricError):
            weight = TieWeight(dissimilarity)
        if similarity != weight.similarity:
            raise ConfigError(f"tie ({i}, {j}) in {path}: similarity is not exp(-dissimilarity)")
        tie = tie_key(i, j)
        if tie in weights:
            raise ConfigError(f"tie {tie} listed twice in {path}")
        weights[tie] = weight
        metrics.add(metric)
    if len(metrics) > 1:
        raise ConfigError(f"tie-weight file {path} mixes metrics {sorted(metrics)}")
    return weights, metrics.pop() if metrics else ""
