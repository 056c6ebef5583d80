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

import os
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, fields, replace

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
    check_assignment,
    check_tie_weights,
    chinese_whispers,
    export_partition,
    import_partition,
    partition_stats,
)
from .errors import ConfigError, MetricError, as_config_error, check_choice, check_integer, is_integer
from .errors import is_number, plain
from .fcm import SimulationSettings
from .files import read_json, write_csv, write_json, writing
from .forking import forking
from .harness import (
    OutputDistribution,
    RunSpec,
    check_watched,
    export_distribution,
    import_distribution,
    run_distribution,
)
from .population import (
    TOPOLOGY_KINDS,
    Agent,
    SocialGraph,
    TopologySpec,
    agents_by_id,
    assign_channels,
    build_obesity_fcm,
    build_topology,
    channel_index,
    check_jitter,
    export_population,
    export_topology,
    generate_cmaes_style,
    generate_variants,
    import_population,
    import_topology,
    make_agents,
    population_size,
    randomize_activations,
)
from .reduction import ReducedModel, contract, export_provenance, import_provenance, select_representatives
from .seeding import int_seed
from .similarity import (
    METRIC_KINDS,
    DiscretizationSpec,
    MetricConfig,
    StructuralView,
    export_tie_weights,
    import_tie_weights,
    weigh_ties,
)

# The named choices the stages dispatch on, one table each. An entry names
# its functions in its body, so they are looked up in this module at call
# time and a wrapper patched in here (as perfbench/layers.py does) sees it.

def _obesity_variants(cfg: PipelineConfig, seed: int) -> list:
    fcms = generate_variants(build_obesity_fcm(), cfg.count, cfg.jitter, seed)
    return randomize_activations(fcms, seed) if cfg.randomize_activations else fcms


# population source -> (default watched concept, None where the config must
# name it; the maps, from the config and the population seed)
SOURCES = {
    "obesity-variants": ("Obesity", _obesity_variants),
    "cmaes-style": ("Awareness", lambda cfg, seed: generate_cmaes_style(cfg.count, seed)),
    "import": (None, lambda cfg, seed: import_population(cfg.population_path)),
}
POPULATION_SOURCES = tuple(SOURCES)

# community algorithm -> the partition, from the config, graph and tie weights
DETECTORS = {
    "chinese_whispers": lambda cfg, graph, weights: chinese_whispers(
        graph, weights, max_rounds=cfg.max_rounds, seed=int_seed(cfg.seed, "community")
    ),
    "agglomerative": lambda cfg, graph, weights: agglomerative_modularity(graph, weights),
}
COMMUNITY_ALGORITHMS = tuple(DETECTORS)

# the two models a run simulates, in the order their files are read
MODELS = ("original", "reduced")

# Per field annotation of PipelineConfig: what a value must be, and the test.
FIELD_TYPES = {
    "int": ("an integer", is_integer),
    "float": ("a finite number", is_number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved configuration for one pipeline execution. workers caps the
    processes a distribution's runs are split over (see run_distribution);
    the samples never depend on it."""

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
        """The one check of a config: types, names, then every bound, by
        building the sub-specs that the stages build from it."""
        for f in fields(self):
            value = getattr(self, f.name)
            wanted, accepts = FIELD_TYPES[f.type]
            if not accepts(value):
                raise ConfigError(f"config key {f.name!r} must be {wanted}, got {value!r:.60}")
            if f.type in ("int", "float"):  # report.json echoes the config
                object.__setattr__(self, f.name, plain(value))
        check_choice("population source", self.source, POPULATION_SOURCES, ConfigError)
        if self.source == "import":
            if not self.population_path:
                raise ConfigError("population source 'import' needs population_path")
            if not os.path.exists(self.population_path):
                raise ConfigError(f"population file not found: {self.population_path}")
        # TopologySpec checks the name too, but an imported population's
        # size, and so its topology_spec, is known only once the file is read
        check_choice("topology", self.topology, TOPOLOGY_KINDS, ConfigError)
        check_choice("metric", self.metric, METRIC_KINDS, ConfigError)
        check_choice("community algorithm", self.algorithm, COMMUNITY_ALGORITHMS, ConfigError)
        check_jitter(self.jitter)
        for name in ("workers", "max_rounds", "kl_bins"):
            check_integer(name, getattr(self, name), ConfigError, 1)
        if not self.kl_alpha > 0:
            raise ConfigError("kl_alpha must be > 0")
        self.run_spec()
        with as_config_error("", MetricError):
            self.metric_config()
        if self.source != "import":
            self.topology_spec(self.count)

    # Derived pieces -------------------------------------------------------

    def watched_concept(self, which: str) -> str:
        explicit = self.output_concept if which == "output" else self.stabilization_concept
        if explicit:
            return explicit
        default = SOURCES[self.source][0]
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
    return PipelineConfig(**merged)


def load_config(path, **overrides) -> PipelineConfig:
    data = read_json(path, "config")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config_from_dict(data, **overrides)


# ---------------------------------------------------------------------------
# Stages. Each one is a pure function of (config, inputs); RNG streams come
# from (config.seed, stage tag).

def stage_population(cfg: PipelineConfig) -> list[Agent]:
    fcms = SOURCES[cfg.source][1](cfg, int_seed(cfg.seed, "population"))
    agents = make_agents(fcms)
    check_watched(agents, cfg.run_spec())  # fail fast, before any stage runs
    return agents


def stage_topology(cfg: PipelineConfig, agents: list[Agent]) -> SocialGraph:
    graph = build_topology(cfg.topology_spec(len(agents)))
    return assign_channels(graph, agents, int_seed(cfg.seed, "channels", cfg.topology))


def stage_weigh(
    cfg: PipelineConfig, agents: list[Agent], graph: SocialGraph, features: dict | None = None
) -> dict:
    return weigh_ties(agents, graph, cfg.metric, cfg.metric_config(), features)


def stage_cluster(cfg: PipelineConfig, graph: SocialGraph, weights: dict) -> Partition:
    return DETECTORS[cfg.algorithm](cfg, graph, weights)


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
    cfg: PipelineConfig, original: OutputDistribution, simplified: OutputDistribution, partition: Partition
) -> FidelityReport:
    removed = len(partition.assignment) - partition.count  # members beyond one per community
    return build_report(
        original, simplified, removed, partition_stats(partition), asdict(cfg),
        bins=cfg.kl_bins, alpha=cfg.kl_alpha,
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


def _cells(cfg: PipelineConfig, topologies, metrics, algorithms, agents=None):
    """One PipelineResult per (topology, metric, algorithm) cell of cfg, in
    that nesting order, doing each piece of work once:

    - the population once, unless the caller built it (agents);
    - each agent's feature once per metric, since no topology knob enters
      it (seed, metric config and agent id do);
    - the graph and the original distribution once per topology, and the
      tie weights once per (topology, metric);
    - the reduced model and its distribution once per distinct partition
      within a topology, since neither depends on the metric or the
      algorithm. The key keeps the community labels: contract visits
      crossing pairs in label order, so a relabelled grouping may draw
      other channels."""
    # each topology's knobs (p, k, beta, m) are checked before any work
    top_cfgs = [replace(cfg, topology=topology) for topology in topologies]
    agents = stage_population(cfg) if agents is None else agents
    features = {metric: {} for metric in metrics}
    for top_cfg in top_cfgs:
        graph = stage_topology(top_cfg, agents)
        original = stage_simulate(top_cfg, agents, graph)
        reductions: dict = {}  # partition assignment -> (reduced, simplified)
        for metric in metrics:
            metric_cfg = replace(top_cfg, metric=metric)
            weights = stage_weigh(metric_cfg, agents, graph, features[metric])
            for algorithm in algorithms:
                cell = replace(metric_cfg, algorithm=algorithm)
                partition = stage_cluster(cell, graph, weights)
                key = tuple(sorted(partition.assignment.items()))
                if key not in reductions:
                    reduced = stage_reduce(cell, agents, graph, partition)
                    simplified = stage_simulate(cell, reduced.agents, reduced.graph)
                    reductions[key] = reduced, simplified
                reduced, simplified = reductions[key]
                report = stage_compare(cell, original, simplified, partition)
                yield PipelineResult(
                    agents, graph, weights, partition, reduced, original, simplified, report
                )


def run_pipeline(cfg: PipelineConfig, out_dir=None) -> PipelineResult:
    """Execute the whole pipeline; write all artifacts when out_dir is set.
    population.json depends on the population alone, so it is written by a
    child forked once the population exists, while this process runs the
    other stages (see _population_writer)."""
    cells = (cfg.topology,), (cfg.metric,), (cfg.algorithm,)
    if out_dir is None:
        (result,) = _cells(cfg, *cells)
        return result
    agents = stage_population(cfg)
    with _population_writer(out_dir, agents) as population_written:
        (result,) = _cells(cfg, *cells, agents)
        write_artifacts(result, cfg, out_dir, population_written)
    return result


def write_artifacts(result: PipelineResult, cfg: PipelineConfig, out_dir, population_written) -> None:
    """The other 12 files, then population_written(), which waits for the
    population.json being written and puts it in place."""
    _write(out_dir, "topology.csv", export_topology, result.graph)
    _write(out_dir, "ties.csv", export_tie_weights, result.tie_weights, cfg.metric)
    _write(out_dir, "partition.csv", export_partition, result.partition)
    _write_reduced(out_dir, result.reduced)
    for dist, model in zip((result.original, result.simplified), MODELS):
        _write_distribution(out_dir, cfg, dist, model)
    _write_comparison(out_dir, result.original, result.simplified, result.report)
    population_written()


@contextmanager
def _population_writer(out_dir, agents: list[Agent]):
    """Write the population.json of out_dir in a child forked on entry,
    while the with block computes. The child writes a side file. The
    function yielded waits for it, raises its error as the write in this
    process would, and renames the file into place. Leaving the block by an
    error kills and reaps the child and removes the side file and the
    directories made here, so a failed stage leaves out_dir as it was."""
    side = os.path.join(out_dir, "population.json.part")
    made = _missing_dirs(out_dir)
    fcms = [a.fcm for a in agents]
    try:
        with forking() as fork:
            os.makedirs(out_dir, exist_ok=True)
            # export_population is looked up in this module when the child
            # calls it, so a wrapper patched in here sees the call
            child = fork("the process writing population.json",
                         lambda: export_population(fcms, side))

            def written():
                child.result()
                os.replace(side, os.path.join(out_dir, "population.json"))

            yield written
    except BaseException:
        for path in (side, f"{side}.tmp"):
            with suppress(OSError):
                os.remove(path)
        for path in made:
            with suppress(OSError):  # not empty: a later write failed
                os.rmdir(path)
        raise


def _missing_dirs(path) -> list:
    """path and those of its ancestors that do not exist, deepest first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


# One writer per work-directory file, shared by write_artifacts and the
# file-based stages, so both routes write the same names and bytes. Each
# returns the names of the files it wrote, and a file stage returns those.

def _write(out_dir, name: str, export, *args) -> list:
    export(*args, os.path.join(out_dir, name))
    return [name]


def _write_model(out_dir, agents: list[Agent], graph: SocialGraph, prefix: str = "") -> list:
    """The original model's files, or with prefix "reduced_" the reduced one's."""
    return _write(
        out_dir, f"{prefix}population.json", export_population, [a.fcm for a in agents]
    ) + _write(out_dir, f"{prefix}topology.csv", export_topology, graph)


def _write_reduced(out_dir, model: ReducedModel) -> list:
    names = _write_model(out_dir, model.agents, model.graph, "reduced_")
    return names + _write(out_dir, "provenance.json", export_provenance, model)


def _write_distribution(out_dir, cfg: PipelineConfig, dist: OutputDistribution, model: str) -> list:
    names = [f"distribution_{model}.csv", f"runspec_{model}.json"]
    export_distribution(dist, cfg.run_spec(), *(os.path.join(out_dir, n) for n in names))
    return names


def _write_comparison(
    out_dir, original: OutputDistribution, simplified: OutputDistribution, report: FidelityReport
) -> None:
    export_long_format(original, simplified, os.path.join(out_dir, "violin.csv"))
    with writing(os.path.join(out_dir, "report.json")) as fh:
        fh.write(report_to_json(report))


# ---------------------------------------------------------------------------
# Sweep mode: the cartesian product of all metrics x both community
# algorithms x all three topologies, one CSV row per cell; each row is the
# run_pipeline report of its cell.

def run_sweep(cfg: PipelineConfig, out_dir) -> list:
    rows = []
    for result in _cells(cfg, TOPOLOGY_KINDS, METRIC_KINDS, COMMUNITY_ALGORITHMS):
        cell = result.report.config
        rows.append(sweep_row(result.report, cell["topology"], cell["metric"], cell["algorithm"]))
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "sweep.csv"), SWEEP_HEADER, rows)
    write_json(os.path.join(out_dir, "config.json"), asdict(cfg))
    return rows


# ---------------------------------------------------------------------------
# File-based stage execution (compose or resume pipelines from a work dir).

def _load_model(out_dir, prefix: str = "", ids=None) -> tuple:
    """(agents, graph) of the original model, or with prefix "reduced_" and
    the representatives' ids of the reduced one."""
    fcms = import_population(os.path.join(out_dir, f"{prefix}population.json"))
    if ids is not None and len(ids) != len(fcms):
        raise ConfigError("reduced population and provenance disagree on size")
    agents = make_agents(fcms) if ids is None else [Agent(i, f) for i, f in zip(ids, fcms)]
    graph = import_topology(os.path.join(out_dir, f"{prefix}topology.csv"), [a.id for a in agents])
    by_id, channels = agents_by_id(agents, graph.nodes), graph.assigned_channels()
    with as_config_error():
        for i, j in graph.ties:
            channel_index(by_id[i], by_id[j], channels[(i, j)])
    return agents, graph


def stage_generate_files(cfg: PipelineConfig, out_dir) -> list:
    os.makedirs(out_dir, exist_ok=True)
    agents = stage_population(cfg)
    return _write_model(out_dir, agents, stage_topology(cfg, agents))


def stage_weigh_files(cfg: PipelineConfig, out_dir) -> list:
    agents, graph = _load_model(out_dir)
    weights = stage_weigh(cfg, agents, graph)
    return _write(out_dir, "ties.csv", export_tie_weights, weights, cfg.metric)


def stage_cluster_files(cfg: PipelineConfig, out_dir) -> list:
    # clustering uses no map, so of the population only its size is read
    size = population_size(os.path.join(out_dir, "population.json"))
    graph = import_topology(os.path.join(out_dir, "topology.csv"), range(size))
    weights, metric = import_tie_weights(os.path.join(out_dir, "ties.csv"))
    if weights and metric != cfg.metric:
        raise ConfigError(
            f"ties.csv was weighed with metric {metric!r} but the config asks for {cfg.metric!r}"
        )
    with as_config_error("ties.csv does not weigh exactly the ties of topology.csv: "):
        check_tie_weights(graph, weights)
    partition = stage_cluster(cfg, graph, weights)
    return _write(out_dir, "partition.csv", export_partition, partition)


def stage_reduce_files(cfg: PipelineConfig, out_dir) -> list:
    agents, graph = _load_model(out_dir)
    partition = import_partition(os.path.join(out_dir, "partition.csv"))
    with as_config_error("partition.csv does not assign exactly the agents of topology.csv: "):
        check_assignment(graph, partition.assignment)
    return _write_reduced(out_dir, stage_reduce(cfg, agents, graph, partition))


def stage_simulate_files(cfg: PipelineConfig, out_dir, model: str = "original") -> list:
    check_choice("model", model, MODELS, ConfigError)
    if model == "original":
        agents, graph = _load_model(out_dir)
    else:
        provenance = import_provenance(os.path.join(out_dir, "provenance.json"))
        reps = sorted(entry["representative"] for entry in provenance["communities"].values())
        agents, graph = _load_model(out_dir, "reduced_", reps)
    return _write_distribution(out_dir, cfg, stage_simulate(cfg, agents, graph), model)


def stage_compare_files(
    cfg: PipelineConfig, out_dir, original_path=None, simplified_path=None
) -> FidelityReport:
    original, simplified = (
        import_distribution(path or os.path.join(out_dir, f"distribution_{model}.csv"))
        for path, model in zip((original_path, simplified_path), MODELS)
    )
    if len(simplified.samples) != len(original.samples):
        # the two runs pair up by their shared per-run seeds
        raise ConfigError(
            f"the original distribution holds {len(original.samples)} samples "
            f"but the reduced one {len(simplified.samples)}"
        )
    partition_path = os.path.join(out_dir, "partition.csv")
    provenance_path = os.path.join(out_dir, "provenance.json")
    partition = import_partition(partition_path)
    provenance = import_provenance(provenance_path)
    # the community stats come from the partition and the distributions from
    # the reduction, so both must describe the same grouping of agents
    groups = sorted(sorted(e["members"]) for e in provenance["communities"].values())
    if groups != sorted(partition.members().values()):
        raise ConfigError(
            f"{partition_path} groups the agents differently from the reduction in "
            f"{provenance_path}; run reduce and simulate again after cluster"
        )
    report = stage_compare(cfg, original, simplified, partition)
    _write_comparison(out_dir, original, simplified, report)
    return report
