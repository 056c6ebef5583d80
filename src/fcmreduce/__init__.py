"""Reduce hybrid agent/FCM simulation models by merging agents who think
alike: weigh social ties with FCM similarity, cluster like-minded agents,
collapse clusters to median representatives, and quantify the fidelity of
the reduced model against the original."""

from .analysis import FidelityReport, build_report, output_kl, summarize
from .community import (
    CommunityStats,
    Partition,
    agglomerative_modularity,
    chinese_whispers,
    partition_stats,
    weighted_modularity,
)
from .errors import (
    ChannelError,
    ConfigError,
    ContractError,
    FcmReduceError,
    GenerationError,
    MetricError,
    ReportError,
)
from .fcm import Fcm, SimulationSettings, simulate, step
from .harness import (
    OutputDistribution,
    RunSpec,
    interact,
    run_distribution,
    run_once,
)
from .population import (
    Agent,
    SocialGraph,
    TopologySpec,
    assign_channels,
    build_obesity_fcm,
    build_topology,
    export_population,
    generate_cmaes_style,
    generate_variants,
    import_population,
    make_agents,
)
from .pipeline import PipelineConfig, load_config, run_pipeline, run_sweep
from .reduction import ReducedModel, contract, select_representatives
from .similarity import (
    CENTRALITY_KINDS,
    METRIC_KINDS,
    DiscretizationSpec,
    MetricConfig,
    StructuralView,
    TieWeight,
    weigh_ties,
)

__version__ = "0.1.0"
