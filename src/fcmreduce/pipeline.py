"""Configuration-driven end-to-end pipeline and resumable stages.

The pipeline executes: build population -> topology + channels -> original
output distribution -> tie weighting -> community detection -> median
representatives + contraction -> reduced output distribution -> fidelity
report. Every stage derives its RNG stream from (master_seed, stage tag),
so running stages separately from files reproduces the monolithic run
byte-for-byte, and the original and reduced runs share per-run seeds (a
singleton partition therefore reproduces the original distribution exactly).
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field, replace

from .analysis import (
    SWEEP_HEADER,
    FidelityReport,
    build_report,
    export_long_format,
    report_to_json,
    sweep_row,
)
from .community import (
    Partition,
    agglomerative_modularity,
    chinese_whispers,
    export_partition,
    import_partition,
    partition_stats,
)
from .errors import ConfigError, FcmReduceError
from .fcm import TRANSFER_FUNCTIONS, SimulationSettings
from .harness import (
    OutputDistribution,
    RunSpec,
    export_distribution,
    import_distribution,
    run_distribution,
)
from .population import (
    TOPOLOGY_KINDS,
    Agent,
    SocialGraph,
    TopologySpec,
    assign_channels,
    build_obesity_fcm,
    build_topology,
    export_population,
    export_topology,
    generate_cmaes_style,
    generate_variants,
    import_population,
    import_topology,
    make_agents,
    randomize_activations,
)
from .reduction import ReducedModel, contract, export_provenance, import_provenance, select_representatives
from .seeding import int_seed
from .similarity import (
    CENTRALITY_KINDS,
    METRIC_KINDS,
    DiscretizationSpec,
    MetricConfig,
    StructuralView,
    export_tie_weights,
    import_tie_weights,
    weigh_ties,
)

POPULATION_SOURCES = ("obesity-variants", "cmaes-style", "import")
COMMUNITY_ALGORITHMS = ("chinese_whispers", "agglomerative")

# Default watched concept per built-in population source.
_DEFAULT_CONCEPT = {"obesity-variants": "Obesity", "cmaes-style": "Awareness"}


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved configuration for one pipeline execution."""

    source: str = "cmaes-style"
    count: int = 100
    jitter: float = 0.1
    population_path: str | None = None
    randomize_activations: bool = True

    topology: str = "small_world"
    p: float = 0.01
    k: int = 6
    beta: float = 0.1
    m: int = 3

    metric: str = "jaccard_edges"
    centrality: str = "degree"
    epsilon: float = 0.05
    node_bins: int = 10
    edge_bins: int = 20
    alpha: float = 1e-6
    tsp_ensemble: int = 20
    tsp_swaps_per_edge: int = 10

    algorithm: str = "chinese_whispers"
    max_rounds: int = 50

    rounds: int = 10
    repeats: int = 100
    output_concept: str | None = None
    stabilization_concept: str | None = None
    tolerance: float = 0.05
    max_iterations: int = 100
    transfer: str = "tanh"
    self_memory: bool = True
    workers: int = 1

    kl_bins: int = 20
    kl_alpha: float = 1e-6

    seed: int = 0

    def __post_init__(self):
        if self.source not in POPULATION_SOURCES:
            raise ConfigError(
                f"unknown population source {self.source!r}; valid: {POPULATION_SOURCES}"
            )
        if self.source == "import":
            if not self.population_path:
                raise ConfigError("population source 'import' needs population_path")
            if not os.path.exists(self.population_path):
                raise ConfigError(f"population file not found: {self.population_path}")
        elif self.count < 1:
            raise ConfigError("population count must be >= 1")
        if self.topology not in TOPOLOGY_KINDS:
            raise ConfigError(f"unknown topology {self.topology!r}; valid: {TOPOLOGY_KINDS}")
        if self.metric not in METRIC_KINDS:
            raise ConfigError(f"unknown metric {self.metric!r}; valid: {METRIC_KINDS}")
        if self.centrality not in CENTRALITY_KINDS:
            raise ConfigError(
                f"unknown centrality {self.centrality!r}; valid: {CENTRALITY_KINDS}"
            )
        if self.algorithm not in COMMUNITY_ALGORITHMS:
            raise ConfigError(
                f"unknown community algorithm {self.algorithm!r}; valid: {COMMUNITY_ALGORITHMS}"
            )
        if self.transfer not in TRANSFER_FUNCTIONS:
            raise ConfigError(
                f"unknown transfer {self.transfer!r}; valid: {TRANSFER_FUNCTIONS}"
            )

    # Derived pieces -------------------------------------------------------

    def watched_concept(self, which: str) -> str:
        explicit = self.output_concept if which == "output" else self.stabilization_concept
        if explicit:
            return explicit
        default = _DEFAULT_CONCEPT.get(self.source)
        if default is None:
            raise ConfigError(
                f"{which}_concept must be set explicitly for imported populations"
            )
        return default

    def settings(self) -> SimulationSettings:
        return SimulationSettings(
            stabilization_concept=self.watched_concept("stabilization"),
            max_iterations=self.max_iterations,
            stabilization_tolerance=self.tolerance,
            transfer=self.transfer,
            self_memory=self.self_memory,
        )

    def run_spec(self) -> RunSpec:
        return RunSpec(
            output_concept=self.watched_concept("output"),
            settings=self.settings(),
            rounds=self.rounds,
            repeats=self.repeats,
            master_seed=self.seed,
        )

    def metric_config(self) -> MetricConfig:
        return MetricConfig(
            view=StructuralView(self.epsilon),
            discretization=DiscretizationSpec(self.node_bins, self.edge_bins, self.alpha),
            centrality=self.centrality,
            tsp_ensemble=self.tsp_ensemble,
            tsp_swaps_per_edge=self.tsp_swaps_per_edge,
            seed=self.seed,
        )

    def topology_spec(self, n: int) -> TopologySpec:
        return TopologySpec(
            kind=self.topology, n=n, p=self.p, k=self.k, beta=self.beta, m=self.m,
            seed=self.seed,
        )


def config_from_dict(data: dict, **overrides) -> PipelineConfig:
    valid = set(PipelineConfig.__dataclass_fields__)
    unknown = set(data) - valid
    if unknown:
        raise ConfigError(
            f"unknown config keys {sorted(unknown)}; valid keys: {sorted(valid)}"
        )
    merged = dict(data)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return PipelineConfig(**merged)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def load_config(path, **overrides) -> PipelineConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data, **overrides)


# ---------------------------------------------------------------------------
# Stages. Each one is a pure function of (config, inputs); RNG streams come
# from (config.seed, stage tag).

def stage_population(cfg: PipelineConfig) -> list[Agent]:
    pop_seed = int_seed(cfg.seed, "population")
    if cfg.source == "cmaes-style":
        fcms = generate_cmaes_style(cfg.count, pop_seed)
    elif cfg.source == "obesity-variants":
        fcms = generate_variants(build_obesity_fcm(), cfg.count, cfg.jitter, pop_seed)
        if cfg.randomize_activations:
            fcms = randomize_activations(fcms, pop_seed)
    else:
        fcms = import_population(cfg.population_path)
    agents = make_agents(fcms)
    # fail fast: the watched concepts must exist in every agent's FCM
    for which in ("output", "stabilization"):
        label = cfg.watched_concept(which)
        for agent in agents:
            if label not in agent.fcm.concepts:
                raise ConfigError(
                    f"{which} concept {label!r} missing from agent {agent.id}'s FCM"
                )
    return agents


def stage_topology(cfg: PipelineConfig, agents: list[Agent]) -> SocialGraph:
    graph = build_topology(cfg.topology_spec(len(agents)))
    return assign_channels(graph, agents, int_seed(cfg.seed, "channels", cfg.topology))


def stage_weigh(cfg: PipelineConfig, agents: list[Agent], graph: SocialGraph) -> dict:
    return weigh_ties(agents, graph, cfg.metric, cfg.metric_config())


def stage_cluster(cfg: PipelineConfig, graph: SocialGraph, weights: dict) -> Partition:
    if cfg.algorithm == "chinese_whispers":
        return chinese_whispers(
            graph, weights, max_rounds=cfg.max_rounds, seed=int_seed(cfg.seed, "community")
        )
    return agglomerative_modularity(graph, weights)


def stage_reduce(
    cfg: PipelineConfig, agents: list[Agent], graph: SocialGraph, partition: Partition
) -> ReducedModel:
    reps = select_representatives(agents, partition)
    return contract(agents, graph, partition, reps, seed=int_seed(cfg.seed, "contract"))


def stage_simulate(
    cfg: PipelineConfig, agents: list[Agent], graph: SocialGraph
) -> OutputDistribution:
    return run_distribution(agents, graph, cfg.run_spec(), workers=cfg.workers)


def stage_compare(
    cfg: PipelineConfig,
    original: OutputDistribution,
    simplified: OutputDistribution,
    model: ReducedModel,
    partition: Partition,
) -> FidelityReport:
    return build_report(
        original,
        simplified,
        model.removed_count,
        partition_stats(partition),
        asdict(cfg),
        bins=cfg.kl_bins,
        alpha=cfg.kl_alpha,
    )


@dataclass
class PipelineResult:
    agents: list
    graph: SocialGraph
    tie_weights: dict
    partition: Partition
    reduced: ReducedModel
    original: OutputDistribution
    simplified: OutputDistribution
    report: FidelityReport


def run_pipeline(cfg: PipelineConfig, out_dir=None) -> PipelineResult:
    """Execute the whole pipeline; write all artifacts when out_dir is set."""
    agents = _staged("population", stage_population, cfg)
    graph = _staged("topology", stage_topology, cfg, agents)
    original = _staged("simulate-original", stage_simulate, cfg, agents, graph)
    weights = _staged("weigh", stage_weigh, cfg, agents, graph)
    partition = _staged("cluster", stage_cluster, cfg, graph, weights)
    reduced = _staged("reduce", stage_reduce, cfg, agents, graph, partition)
    simplified = _staged(
        "simulate-reduced", stage_simulate, cfg, reduced.agents, reduced.graph
    )
    report = _staged("compare", stage_compare, cfg, original, simplified, reduced, partition)
    result = PipelineResult(
        agents, graph, weights, partition, reduced, original, simplified, report
    )
    if out_dir is not None:
        write_artifacts(result, cfg, out_dir)
    return result


class StageError(FcmReduceError):
    """An error wrapped with the name of the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _staged(name, fn, *args):
    try:
        return fn(*args)
    except FcmReduceError as exc:
        if isinstance(exc, StageError):
            raise
        raise StageError(name, exc) from exc


def write_artifacts(result: PipelineResult, cfg: PipelineConfig, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    join = lambda name: os.path.join(out_dir, name)
    export_population([a.fcm for a in result.agents], join("population.json"))
    export_topology(result.graph, join("topology.csv"))
    export_tie_weights(result.tie_weights, cfg.metric, join("ties.csv"))
    export_partition(result.partition, join("partition.csv"))
    export_population([a.fcm for a in result.reduced.agents], join("reduced_population.json"))
    export_topology(result.reduced.graph, join("reduced_topology.csv"))
    export_provenance(result.reduced, join("provenance.json"))
    spec = cfg.run_spec()
    export_distribution(
        result.original, spec, join("distribution_original.csv"),
        join("runspec_original.json"),
    )
    export_distribution(
        result.simplified, spec, join("distribution_reduced.csv"),
        join("runspec_reduced.json"),
    )
    export_long_format(result.original, result.simplified, join("violin.csv"))
    with open(join("report.json"), "w", encoding="utf-8") as fh:
        fh.write(report_to_json(result.report))


# ---------------------------------------------------------------------------
# Sweep mode: the cartesian product of all metrics x both community
# algorithms x all three topologies, one CSV row per cell. The population is
# built once; topology, channels, and the original distribution are reused
# across every cell that shares a topology.

def run_sweep(cfg: PipelineConfig, out_dir) -> list:
    os.makedirs(out_dir, exist_ok=True)
    agents = _staged("population", stage_population, cfg)
    rows = []
    for topology in TOPOLOGY_KINDS:
        top_cfg = replace(cfg, topology=topology)
        graph = _staged("topology", stage_topology, top_cfg, agents)
        original = _staged("simulate-original", stage_simulate, top_cfg, agents, graph)
        for metric in METRIC_KINDS:
            cell_base = replace(top_cfg, metric=metric)
            weights = _staged("weigh", stage_weigh, cell_base, agents, graph)
            for algorithm in COMMUNITY_ALGORITHMS:
                cell = replace(cell_base, algorithm=algorithm)
                partition = _staged("cluster", stage_cluster, cell, graph, weights)
                reduced = _staged("reduce", stage_reduce, cell, agents, graph, partition)
                simplified = _staged(
                    "simulate-reduced", stage_simulate, cell, reduced.agents, reduced.graph
                )
                report = _staged(
                    "compare", stage_compare, cell, original, simplified, reduced, partition
                )
                rows.append(sweep_row(report, topology, metric, algorithm))
    with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        writer.writerows(rows)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(asdict(cfg), fh, indent=2, sort_keys=True)
    return rows


# ---------------------------------------------------------------------------
# File-based stage execution (compose or resume pipelines from a work dir).

def _load_agents(out_dir) -> list[Agent]:
    return make_agents(import_population(os.path.join(out_dir, "population.json")))


def _load_graph(out_dir, n: int) -> SocialGraph:
    return import_topology(os.path.join(out_dir, "topology.csv"), range(n))


def stage_generate_files(cfg: PipelineConfig, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    agents = stage_population(cfg)
    graph = stage_topology(cfg, agents)
    export_population([a.fcm for a in agents], os.path.join(out_dir, "population.json"))
    export_topology(graph, os.path.join(out_dir, "topology.csv"))


def stage_weigh_files(cfg: PipelineConfig, out_dir) -> None:
    agents = _load_agents(out_dir)
    graph = _load_graph(out_dir, len(agents))
    weights = stage_weigh(cfg, agents, graph)
    export_tie_weights(weights, cfg.metric, os.path.join(out_dir, "ties.csv"))


def stage_cluster_files(cfg: PipelineConfig, out_dir) -> None:
    agents = _load_agents(out_dir)
    graph = _load_graph(out_dir, len(agents))
    weights, metric = import_tie_weights(os.path.join(out_dir, "ties.csv"))
    if weights and metric != cfg.metric:
        raise ConfigError(
            f"ties.csv was weighed with metric {metric!r} but the config asks for {cfg.metric!r}"
        )
    if set(weights) != set(graph.ties):
        raise ConfigError("ties.csv does not weigh exactly the ties of topology.csv")
    partition = stage_cluster(cfg, graph, weights)
    export_partition(partition, os.path.join(out_dir, "partition.csv"))


def stage_reduce_files(cfg: PipelineConfig, out_dir) -> None:
    agents = _load_agents(out_dir)
    graph = _load_graph(out_dir, len(agents))
    partition = import_partition(os.path.join(out_dir, "partition.csv"))
    model = stage_reduce(cfg, agents, graph, partition)
    export_population(
        [a.fcm for a in model.agents], os.path.join(out_dir, "reduced_population.json")
    )
    export_topology(model.graph, os.path.join(out_dir, "reduced_topology.csv"))
    export_provenance(model, os.path.join(out_dir, "provenance.json"))


def _load_reduced(out_dir) -> tuple:
    provenance = import_provenance(os.path.join(out_dir, "provenance.json"))
    rep_ids = sorted(
        entry["representative"] for entry in provenance["communities"].values()
    )
    fcms = import_population(os.path.join(out_dir, "reduced_population.json"))
    if len(fcms) != len(rep_ids):
        raise ConfigError("reduced population and provenance disagree on size")
    agents = [Agent(i, f) for i, f in zip(rep_ids, fcms)]
    graph = import_topology(os.path.join(out_dir, "reduced_topology.csv"), rep_ids)
    return agents, graph


def stage_simulate_files(cfg: PipelineConfig, out_dir, model: str = "original") -> None:
    if model == "original":
        agents = _load_agents(out_dir)
        graph = _load_graph(out_dir, len(agents))
        suffix = "original"
    else:
        agents, graph = _load_reduced(out_dir)
        suffix = "reduced"
    dist = stage_simulate(cfg, agents, graph)
    export_distribution(
        dist, cfg.run_spec(),
        os.path.join(out_dir, f"distribution_{suffix}.csv"),
        os.path.join(out_dir, f"runspec_{suffix}.json"),
    )


def stage_compare_files(
    cfg: PipelineConfig, out_dir, original_path=None, simplified_path=None
) -> FidelityReport:
    original = import_distribution(
        original_path or os.path.join(out_dir, "distribution_original.csv")
    )
    simplified = import_distribution(
        simplified_path or os.path.join(out_dir, "distribution_reduced.csv")
    )
    partition = import_partition(os.path.join(out_dir, "partition.csv"))
    provenance = import_provenance(os.path.join(out_dir, "provenance.json"))
    removed = sum(len(e["members"]) for e in provenance["communities"].values()) - len(
        provenance["communities"]
    )
    report = build_report(
        original,
        simplified,
        removed,
        partition_stats(partition),
        asdict(cfg),
        bins=cfg.kl_bins,
        alpha=cfg.kl_alpha,
    )
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))
    return report
