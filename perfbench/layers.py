"""Per-layer metrics: which public functions are wrapped, what is counted
at each boundary, and how spans become the per-layer numbers.

Layers are fcmreduce's modules. Each wrapped name is patched in the
namespace its caller looks it up in (pipeline and cli import names
directly), so the pipeline itself runs unchanged.
"""

from __future__ import annotations

from tracing import covered_time, layer_self_times, percentile, tail_percentile, union_length
from workloads import CLI_STAGES

LAYERS = (
    "population", "fcm", "harness", "triads", "similarity", "community",
    "reduction", "analysis", "pipeline", "cli",
)

# fcmreduce.similarity.METRIC_KINDS, restated so that run.py can read the
# metric names without importing the package (a self-test keeps them equal).
METRIC_KINDS = (
    "concept_count", "density", "rt_ratio", "clustering", "tsp", "jaccard_edges",
    "ks_edges", "kl_edges", "kl_nodes", "centrality_cosine", "compare_graphs",
)

# Names (in the pipeline module's namespace) by the role their time plays.
GENERATE = ("generate_cmaes_style", "generate_variants", "build_obesity_fcm",
            "randomize_activations", "make_agents")
WRITERS = ("write_artifacts", "export_population", "export_topology", "export_tie_weights",
           "export_partition", "export_provenance", "export_distribution", "export_long_format")
READERS = ("import_population", "import_topology", "import_tie_weights", "import_partition",
           "import_provenance", "import_distribution")
PIPELINE_CALLS = GENERATE + WRITERS + READERS + (
    "build_topology", "assign_channels", "run_distribution", "weigh_ties",
    "chinese_whispers", "agglomerative_modularity", "partition_stats",
    "select_representatives", "contract", "build_report", "report_to_json", "sweep_row",
    "stage_population", "stage_topology", "stage_simulate", "stage_weigh", "stage_cluster",
    "stage_reduce", "stage_compare",
)
CLI_CALLS = ("stage_generate_files", "stage_weigh_files", "stage_cluster_files",
             "stage_reduce_files", "stage_simulate_files", "stage_compare_files",
             "report_to_json")

#: Every per-layer metric, in report order, with its unit.
PER_LAYER_UNITS = {
    "population.generate_s": "s",
    "population.topology_s": "s",
    "population.channels_s": "s",
    "fcm.settle_iters_mean": "iterations",
    "fcm.settle_cap_hits": "count",
    "harness.busy_s": "s",
    "harness.orig_s": "s",
    "harness.reduced_s": "s",
    "harness.calls": "count",
    "harness.tie_visits": "count",
    "harness.tie_visits_per_s": "1/s",
    "triads.profile_s.p50": "s",
    "triads.profile_s.tail": "s",
    "triads.profiles": "count",
    "triads.randomize_s": "s",
    "triads.census_s": "s",
    "triads.swap_attempts": "count",
    "triads.swap_attempts_per_s": "1/s",
    "similarity.weigh_s": "s",
    **{f"similarity.weigh_s.{m}": "s" for m in METRIC_KINDS},
    "similarity.ties_weighed": "count",
    "similarity.distinct_weights": "count",
    "community.cw_s": "s",
    "community.cw_rounds": "count",
    "community.cw_converged_frac": "ratio",
    "community.agglo_s": "s",
    "community.agglo_merges": "count",
    "community.count": "count",
    "reduction.select_s": "s",
    "reduction.contract_s": "s",
    "reduction.removed_frac": "ratio",
    "reduction.redrawn": "count",
    "analysis.report_s": "s",
    "analysis.kl": "nats",
    "pipeline.write_s": "s",
    "pipeline.artifact_bytes": "bytes",
    **{f"cli.stage_s.{stage}": "s" for stage, _ in CLI_STAGES},
    "io.read_s": "s",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "self_s.uncovered": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def settle_counts(agents, settings) -> tuple:
    """(mean iterations, cap hits) of simulate() from each agent's initial
    state: how much settling one interaction costs on this population."""
    from fcmreduce.fcm import simulate

    iterations = hits = 0
    for agent in agents:
        _, taken, stabilized = simulate(agent.fcm, agent.fcm.activation, settings)
        iterations += taken
        hits += not stabilized
    return iterations / len(agents), hits


class LayerProbe:
    """Wraps the layer boundaries on a Tracer and counts work done there."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.populations: list = []  # agent lists that are whole populations
        self.harness = {"calls": 0, "tie_visits": 0, "orig_s": 0.0, "reduced_s": 0.0}
        self.profile_s: list = []
        self.profile_calls: list = []  # (args, kwargs, profile) of the first few calls
        self.swap_attempts = 0
        self.weigh_s = {m: 0.0 for m in METRIC_KINDS}
        self.ties_weighed = 0
        self.distinct_weights = 0
        self.cw = {"calls": 0, "rounds": 0, "converged": 0}
        self.agglo_merges = 0
        self.community_counts: list = []
        self.removed = 0
        self.contracted = 0
        self.redrawn = 0
        self.kl: list = []

    def install(self) -> None:
        from fcmreduce import cli, pipeline, population, similarity, triads

        hooks = {
            "make_agents": self._on_population,
            "run_distribution": self._on_run_distribution,
            "weigh_ties": self._on_weigh,
            "chinese_whispers": self._on_cw,
            "agglomerative_modularity": self._on_agglo,
            "contract": self._on_contract,
            "build_report": self._on_report,
        }
        wrap = self.tracer.wrap
        for name in PIPELINE_CALLS:
            wrap(pipeline, name, hooks.get(name))
        for name in CLI_CALLS:
            wrap(cli, name)
        for name in ("fcm_to_dict", "fcm_from_dict"):
            wrap(population, name)
        wrap(similarity, "triad_profile", self._on_profile)
        wrap(similarity, "triad_significance_profile")
        wrap(triads, "degree_preserving_randomization", self._on_randomize)
        wrap(triads, "triad_census")

    # Boundary counters ------------------------------------------------------

    def _on_population(self, args, kwargs, agents, span):
        self.populations.append(agents)

    def _on_run_distribution(self, args, kwargs, dist, span):
        agents, graph, spec = args[:3]
        self.harness["calls"] += 1
        self.harness["tie_visits"] += spec.repeats * spec.rounds * len(graph.ties)
        whole = any(agents is p for p in self.populations)
        self.harness["orig_s" if whole else "reduced_s"] += span.duration

    def _on_profile(self, args, kwargs, profile, span):
        self.profile_s.append(span.duration)
        if len(self.profile_calls) < 3:
            self.profile_calls.append((args, kwargs, profile))

    def _on_randomize(self, args, kwargs, adj, span):
        import numpy as np

        adjacency = np.asarray(args[0], dtype=bool)
        arcs = int(adjacency.sum() - np.trace(adjacency))
        swaps = args[1] if len(args) > 1 else kwargs["swaps_per_edge"]
        self.swap_attempts += swaps * arcs

    def _on_weigh(self, args, kwargs, weights, span):
        metric = args[2] if len(args) > 2 else kwargs["metric"]
        self.weigh_s[metric] += span.duration
        self.ties_weighed += len(weights)
        self.distinct_weights += len({tw.similarity for tw in weights.values()})

    def _on_cw(self, args, kwargs, partition, span):
        self.cw["calls"] += 1
        self.cw["rounds"] += partition.rounds_used
        self.cw["converged"] += bool(partition.converged)
        self.community_counts.append(partition.count)

    def _on_agglo(self, args, kwargs, partition, span):
        self.agglo_merges += len(args[0].nodes) - partition.count
        self.community_counts.append(partition.count)

    def _on_contract(self, args, kwargs, model, span):
        self.contracted += len(args[0])
        self.removed += model.removed_count
        self.redrawn += len(model.provenance["redrawn_channels"])

    def _on_report(self, args, kwargs, report, span):
        self.kl.append(report.kl_divergence)

    # Metrics ---------------------------------------------------------------

    def metrics(self, spans, root, artifact_bytes: int, settle: tuple) -> dict:
        """Every PER_LAYER_UNITS metric except trace.overhead_s, from the
        spans under root. settle is (mean iterations, cap hits)."""

        def time_in(*names):
            return covered_time(spans, set(names))

        busy = time_in("run_distribution")
        randomize = time_in("degree_preserving_randomization")
        profiles = self.profile_s
        own = layer_self_times(spans)
        children = [s for s in spans if s.parent == root.id]
        cw_calls = self.cw["calls"]
        counts = self.community_counts
        return {
            "population.generate_s": time_in(*GENERATE),
            "population.topology_s": time_in("build_topology"),
            "population.channels_s": time_in("assign_channels"),
            "fcm.settle_iters_mean": settle[0],
            "fcm.settle_cap_hits": settle[1],
            "harness.busy_s": busy,
            "harness.orig_s": self.harness["orig_s"],
            "harness.reduced_s": self.harness["reduced_s"],
            "harness.calls": self.harness["calls"],
            "harness.tie_visits": self.harness["tie_visits"],
            "harness.tie_visits_per_s": self.harness["tie_visits"] / busy if busy else 0.0,
            "triads.profile_s.p50": percentile(profiles, 50.0),
            "triads.profile_s.tail": percentile(profiles, tail_percentile(len(profiles))),
            "triads.profiles": len(profiles),
            "triads.randomize_s": randomize,
            "triads.census_s": time_in("triad_census"),
            "triads.swap_attempts": self.swap_attempts,
            "triads.swap_attempts_per_s": self.swap_attempts / randomize if randomize else 0.0,
            "similarity.weigh_s": time_in("weigh_ties"),
            **{f"similarity.weigh_s.{k}": v for k, v in self.weigh_s.items()},
            "similarity.ties_weighed": self.ties_weighed,
            "similarity.distinct_weights": self.distinct_weights,
            "community.cw_s": time_in("chinese_whispers"),
            "community.cw_rounds": self.cw["rounds"],
            "community.cw_converged_frac": self.cw["converged"] / cw_calls if cw_calls else 0.0,
            "community.agglo_s": time_in("agglomerative_modularity"),
            "community.agglo_merges": self.agglo_merges,
            "community.count": sum(counts) / len(counts) if counts else 0.0,
            "reduction.select_s": time_in("select_representatives"),
            "reduction.contract_s": time_in("contract"),
            "reduction.removed_frac": self.removed / self.contracted if self.contracted else 0.0,
            "reduction.redrawn": self.redrawn,
            "analysis.report_s": time_in("build_report"),
            "analysis.kl": sum(self.kl) / len(self.kl) if self.kl else 0.0,
            "pipeline.write_s": time_in(*WRITERS),
            "pipeline.artifact_bytes": artifact_bytes,
            **{f"cli.stage_s.{stage}": time_in(f"cli.{stage}") for stage, _ in CLI_STAGES},
            "io.read_s": time_in(*READERS),
            **{f"self_s.{layer}": own.get(layer, 0.0) for layer in LAYERS},
            "self_s.uncovered": root.duration - union_length(
                (s.start, s.end) for s in children),
            "trace.wall_s": root.duration,
            "trace.spans": len(spans),
        }
