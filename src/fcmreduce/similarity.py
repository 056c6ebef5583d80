"""The 11 FCM comparison measures and per-tie similarity weighting.

Each measure produces a dissimilarity d >= 0 (0 means indistinguishable
under that measure); ties carry similarity exp(-d) so unbounded measures
(the KL family) still map into (0, 1]. Structural measures (density, R/T,
clustering, triads, centrality) run on a thresholded unweighted view of the
map because fully connected FCMs would otherwise make them degenerate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from .errors import ConfigError, MetricError
from .fcm import Fcm
from .population import Agent, SocialGraph
from .seeding import int_seed
from .triads import triad_significance_profile

#: Registry of the 11 tie-weighting measures.
METRIC_KINDS = (
    "concept_count",
    "density",
    "rt_ratio",
    "clustering",
    "tsp",
    "jaccard_edges",
    "ks_edges",
    "kl_edges",
    "kl_nodes",
    "centrality_cosine",
    "compare_graphs",
)

CENTRALITY_KINDS = ("degree", "betweenness", "closeness")


@dataclass(frozen=True)
class StructuralView:
    """Unweighted digraph carved out of a weight matrix: an arc i -> j is
    present iff w[i][j] != 0 and |w[i][j]| >= epsilon. Self-loops are
    dropped. epsilon = 0 keeps every nonzero arc."""

    epsilon: float = 0.05

    def __post_init__(self):
        if self.epsilon < 0:
            raise MetricError("presence threshold epsilon must be >= 0")

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
        if self.node_bins < 2 or self.edge_bins < 2:
            raise MetricError("histograms need at least 2 bins")
        if not self.alpha > 0:
            raise MetricError("smoothing alpha must be > 0")

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
        if self.centrality not in CENTRALITY_KINDS:
            raise MetricError(
                f"unknown centrality kind {self.centrality!r}; valid: {CENTRALITY_KINDS}"
            )
        if self.tsp_ensemble < 1 or self.tsp_swaps_per_edge < 0:
            raise MetricError("tsp ensemble parameters out of range")


# ---------------------------------------------------------------------------
# Scalar structural measures

def concept_count_distance(a: Fcm, b: Fcm) -> float:
    """|n_A - n_B| / (n_A + n_B); 0 for equal counts, tends to 1 as the gap
    grows."""
    return abs(a.n - b.n) / (a.n + b.n)


def density(f: Fcm, view: StructuralView) -> float:
    """Present arcs over the |V|(|V|-1) possible ones."""
    if f.n < 2:
        raise MetricError("density is undefined for a single-concept FCM")
    return float(view.adjacency(f).sum()) / (f.n * (f.n - 1))


def density_distance(a: Fcm, b: Fcm, view: StructuralView) -> float:
    return abs(density(a, view) - density(b, view))


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


def rt_distance(a: Fcm, b: Fcm, view: StructuralView) -> float:
    ra, rb = rt_ratio(a, view), rt_ratio(b, view)
    return abs(ra - rb) / (ra + rb)


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


def clustering_distance(a: Fcm, b: Fcm, view: StructuralView) -> float:
    return abs(clustering_coefficient(a, view) - clustering_coefficient(b, view))


# ---------------------------------------------------------------------------
# Triad significance profiles

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


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 and nv == 0.0:
        return 1.0
    if nu == 0.0 or nv == 0.0:
        return 0.0
    # rounding can push |cos| a hair past 1, which would make (1-cos)/2 < 0
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def tsp_distance(
    a: Fcm,
    b: Fcm,
    view: StructuralView,
    ensemble_size: int = 20,
    swaps_per_edge: int = 10,
    seed: int = 0,
) -> float:
    """(1 - cos(profile_a, profile_b)) / 2, both profiles drawn with the
    same seed so identical graphs land at distance 0."""
    pa = triad_profile(a, view, ensemble_size, swaps_per_edge, seed)
    pb = triad_profile(b, view, ensemble_size, swaps_per_edge, seed)
    return (1.0 - _cosine(pa, pb)) / 2.0


# ---------------------------------------------------------------------------
# Edge-multiset measures

def _edge_map(f: Fcm) -> dict:
    return {(s, t): w for s, t, w in f.edges()}


def jaccard_edge_distance(a: Fcm, b: Fcm) -> float:
    """Weighted Jaccard distance 1 - sum(min)/sum(max) over the union of
    labeled edges, using |weight| as the (positive) entry."""
    ea, eb = _edge_map(a), _edge_map(b)
    keys = set(ea) | set(eb)
    if not keys:
        raise MetricError("weighted Jaccard is undefined for two edgeless FCMs")
    s_min = sum(min(abs(ea.get(k, 0.0)), abs(eb.get(k, 0.0))) for k in keys)
    s_max = sum(max(abs(ea.get(k, 0.0)), abs(eb.get(k, 0.0))) for k in keys)
    return 1.0 - s_min / s_max


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


def _edge_weights(f: Fcm) -> np.ndarray:
    return f.weights[f.weights != 0.0]


def ks_edge_distance(a: Fcm, b: Fcm) -> float:
    wa, wb = _edge_weights(a), _edge_weights(b)
    if len(wa) == 0 or len(wb) == 0:
        raise MetricError("KS over edge weights needs at least one edge per FCM")
    return ks_statistic(wa, wb)


# ---------------------------------------------------------------------------
# KL divergences over discretized samples

def kl_from_counts(p_counts, q_counts, alpha: float) -> float:
    """D(P || Q) in nats after adding alpha to every bin and renormalizing.

    Divergence is >= 0 by Gibbs' inequality; the clamp only absorbs float
    rounding on near-identical histograms.
    """
    p = np.asarray(p_counts, dtype=np.float64) + alpha
    q = np.asarray(q_counts, dtype=np.float64) + alpha
    p /= p.sum()
    q /= q.sum()
    return max(float(np.sum(p * np.log(p / q))), 0.0)


def kl_from_samples(p_samples, q_samples, bin_edges, alpha: float) -> float:
    p_samples = np.asarray(p_samples, dtype=np.float64)
    q_samples = np.asarray(q_samples, dtype=np.float64)
    if len(p_samples) == 0 or len(q_samples) == 0:
        raise MetricError("KL divergence needs non-empty samples")
    p_counts, _ = np.histogram(p_samples, bins=bin_edges)
    q_counts, _ = np.histogram(q_samples, bins=bin_edges)
    return kl_from_counts(p_counts, q_counts, alpha)


def node_kl_divergence(a: Fcm, b: Fcm, disc: DiscretizationSpec) -> float:
    """One-sided D(a || b) over initial activation values."""
    return kl_from_samples(a.activation, b.activation, disc.node_edges, disc.alpha)


def edge_kl_divergence(a: Fcm, b: Fcm, disc: DiscretizationSpec) -> float:
    """One-sided D(a || b) over signed edge weights."""
    wa, wb = _edge_weights(a), _edge_weights(b)
    if len(wa) == 0 or len(wb) == 0:
        raise MetricError("KL over edge weights needs at least one edge per FCM")
    return kl_from_samples(wa, wb, disc.edge_edges, disc.alpha)


def node_kl_distance(a: Fcm, b: Fcm, disc: DiscretizationSpec) -> float:
    """Symmetrized (D(a||b) + D(b||a)) / 2 so ties stay undirected."""
    return (node_kl_divergence(a, b, disc) + node_kl_divergence(b, a, disc)) / 2.0


def edge_kl_distance(a: Fcm, b: Fcm, disc: DiscretizationSpec) -> float:
    return (edge_kl_divergence(a, b, disc) + edge_kl_divergence(b, a, disc)) / 2.0


# ---------------------------------------------------------------------------
# Centrality rankings

def _centrality_map(f: Fcm, kind: str, view: StructuralView) -> dict:
    adj = view.adjacency(f)
    if kind == "degree":
        totals = adj.sum(axis=0) + adj.sum(axis=1)
        return {label: float(totals[i]) for i, label in enumerate(f.concepts)}
    g = nx.from_numpy_array(adj.astype(np.int8), create_using=nx.DiGraph)
    if kind == "betweenness":
        values = nx.betweenness_centrality(g)
    else:
        values = nx.closeness_centrality(g)
    return {label: float(values[i]) for i, label in enumerate(f.concepts)}


def centrality_cosine_distance(a: Fcm, b: Fcm, kind: str, view: StructuralView) -> float:
    """(1 - cos) / 2 between the two centrality rankings, aligned on the
    union of concept labels (absent labels contribute 0)."""
    if kind not in CENTRALITY_KINDS:
        raise MetricError(f"unknown centrality kind {kind!r}; valid: {CENTRALITY_KINDS}")
    ca = _centrality_map(a, kind, view)
    cb = _centrality_map(b, kind, view)
    labels = sorted(set(ca) | set(cb))
    va = np.array([ca.get(l, 0.0) for l in labels])
    vb = np.array([cb.get(l, 0.0) for l in labels])
    if np.linalg.norm(va) == 0.0 or np.linalg.norm(vb) == 0.0:
        raise MetricError(f"{kind} centrality vector has zero norm; cosine undefined")
    return (1.0 - _cosine(va, vb)) / 2.0


# ---------------------------------------------------------------------------
# Whole-matrix comparison

def compare_graphs_distance(a: Fcm, b: Fcm) -> float:
    """Frobenius norm of the label-aligned weight difference, normalized by
    the sum of the two matrices' norms (0/0 defined as 0)."""
    labels = sorted(set(a.concepts) | set(b.concepts))
    index = {l: i for i, l in enumerate(labels)}
    n = len(labels)
    wa = np.zeros((n, n))
    wb = np.zeros((n, n))
    for s, t, w in a.edges():
        wa[index[s], index[t]] = w
    for s, t, w in b.edges():
        wb[index[s], index[t]] = w
    denom = np.linalg.norm(wa) + np.linalg.norm(wb)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(wa - wb) / denom)


# ---------------------------------------------------------------------------
# Tie weighting

def _pair_function(kind: str, agents_by_id: dict, cfg: MetricConfig):
    """Dissimilarity function over agent ids, with per-agent features cached
    so each FCM is summarized once no matter how many ties touch it."""
    view, disc = cfg.view, cfg.discretization
    cache: dict = {}

    def cached(agent_id, build):
        if agent_id not in cache:
            cache[agent_id] = build(agents_by_id[agent_id].fcm, agent_id)
        return cache[agent_id]

    if kind == "concept_count":
        return lambda i, j: concept_count_distance(agents_by_id[i].fcm, agents_by_id[j].fcm)
    if kind == "density":
        feat = lambda f, _i: density(f, view)
        return lambda i, j: abs(cached(i, feat) - cached(j, feat))
    if kind == "rt_ratio":
        feat = lambda f, _i: rt_ratio(f, view)

        def rt_pair(i, j):
            ra, rb = cached(i, feat), cached(j, feat)
            return abs(ra - rb) / (ra + rb)

        return rt_pair
    if kind == "clustering":
        feat = lambda f, _i: clustering_coefficient(f, view)
        return lambda i, j: abs(cached(i, feat) - cached(j, feat))
    if kind == "tsp":
        # Profiles are seeded by agent id, not by evaluation order, so
        # parallel tie weighting stays schedule-independent.
        feat = lambda f, i: triad_profile(
            f, view, cfg.tsp_ensemble, cfg.tsp_swaps_per_edge, int_seed(cfg.seed, "tsp", i)
        )
        return lambda i, j: (1.0 - _cosine(cached(i, feat), cached(j, feat))) / 2.0
    if kind == "jaccard_edges":
        return lambda i, j: jaccard_edge_distance(agents_by_id[i].fcm, agents_by_id[j].fcm)
    if kind == "ks_edges":
        feat = lambda f, _i: np.sort(_edge_weights(f))

        def ks_pair(i, j):
            wa, wb = cached(i, feat), cached(j, feat)
            if len(wa) == 0 or len(wb) == 0:
                raise MetricError("KS over edge weights needs at least one edge per FCM")
            return ks_statistic(wa, wb)

        return ks_pair
    if kind in ("kl_edges", "kl_nodes"):
        if kind == "kl_nodes":
            feat = lambda f, _i: np.histogram(f.activation, bins=disc.node_edges)[0]
        else:
            def feat(f, _i):
                w = _edge_weights(f)
                if len(w) == 0:
                    raise MetricError("KL over edge weights needs at least one edge per FCM")
                return np.histogram(w, bins=disc.edge_edges)[0]

        def kl_pair(i, j):
            pa, pb = cached(i, feat), cached(j, feat)
            return (kl_from_counts(pa, pb, disc.alpha) + kl_from_counts(pb, pa, disc.alpha)) / 2.0

        return kl_pair
    if kind == "centrality_cosine":
        return lambda i, j: centrality_cosine_distance(
            agents_by_id[i].fcm, agents_by_id[j].fcm, cfg.centrality, view
        )
    if kind == "compare_graphs":
        return lambda i, j: compare_graphs_distance(agents_by_id[i].fcm, agents_by_id[j].fcm)
    raise MetricError(f"unknown metric kind {kind!r}; valid: {METRIC_KINDS}")


def weigh_ties(
    agents: list[Agent],
    graph: SocialGraph,
    metric: str,
    config: MetricConfig | None = None,
) -> dict:
    """Weight of every existing tie under the chosen measure: a map
    (i, j) -> TieWeight. Only interacting pairs are compared."""
    if metric not in METRIC_KINDS:
        raise MetricError(f"unknown metric kind {metric!r}; valid: {METRIC_KINDS}")
    cfg = config or MetricConfig()
    by_id = {a.id: a for a in agents}
    pair_fn = _pair_function(metric, by_id, cfg)
    weights = {}
    for i, j in graph.ties:
        try:
            weights[(i, j)] = TieWeight(pair_fn(i, j))
        except MetricError as exc:
            raise MetricError(f"metric {metric!r} failed on tie ({i}, {j}): {exc}") from exc
    return weights


# ---------------------------------------------------------------------------
# Tie-weight file I/O: CSV i,j,metric,dissimilarity,similarity

def export_tie_weights(weights: dict, metric: str, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "metric", "dissimilarity", "similarity"])
        for (i, j), tw in sorted(weights.items()):
            writer.writerow([i, j, metric, repr(tw.dissimilarity), repr(tw.similarity)])


def import_tie_weights(path) -> tuple[dict, str]:
    """Read a tie-weight CSV; returns (weights map, metric name). The metric
    is "" for a file without rows."""
    weights = {}
    metrics = set()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["i", "j", "metric", "dissimilarity", "similarity"]:
            raise MetricError(f"unexpected tie-weight header {header!r} in {path}")
        for row in reader:
            if not row:
                continue
            try:
                i, j, metric, d = int(row[0]), int(row[1]), row[2], float(row[3])
            except (IndexError, ValueError) as exc:
                raise ConfigError(f"malformed tie-weight row {row!r} in {path}") from exc
            metrics.add(metric)
            weights[(i, j) if i < j else (j, i)] = TieWeight(d)
    if len(metrics) > 1:
        raise ConfigError(f"tie-weight file {path} mixes metrics {sorted(metrics)}")
    return weights, metrics.pop() if metrics else ""
