"""Named choices: each site checks a name against its one tuple through
errors.check_choice, an unknown name of any type raises the site's typed
error with the message it always had, and the stages dispatch from the
tables, so a wrapper patched into pipeline sees every call."""

import os

import pytest

from fcmreduce import pipeline
from fcmreduce.community import Partition
from fcmreduce.errors import ConfigError, MetricError
from fcmreduce.fcm import SimulationSettings
from fcmreduce.pipeline import MODELS, PipelineConfig, run_pipeline, stage_simulate_files
from fcmreduce.population import (
    SocialGraph,
    TopologySpec,
    export_population,
    generate_cmaes_style,
    make_agents,
)
from fcmreduce.similarity import MetricConfig, distance, weigh_ties

METRICS = (
    "('concept_count', 'density', 'rt_ratio', 'clustering', 'tsp', 'jaccard_edges', "
    "'ks_edges', 'kl_edges', 'kl_nodes', 'centrality_cosine', 'compare_graphs')"
)
TOPOLOGIES = "('random', 'small_world', 'scale_free')"
MAP = generate_cmaes_style(1, 0)[0]
AGENTS = make_agents(generate_cmaes_style(2, 0))
TIE = SocialGraph((0, 1), ((0, 1),), {(0, 1): "Awareness"})
SMALL = {"count": 12, "k": 4, "rounds": 1, "repeats": 2, "seed": 3}

# site -> (call with the name, typed error, message for the name 'x')
SITES = {
    "config source": (
        lambda v: PipelineConfig(source=v), ConfigError,
        "unknown population source 'x'; valid: ('obesity-variants', 'cmaes-style', 'import')",
    ),
    "config topology": (
        lambda v: PipelineConfig(topology=v), ConfigError,
        f"unknown topology 'x'; valid: {TOPOLOGIES}",
    ),
    "config metric": (
        lambda v: PipelineConfig(metric=v), ConfigError, f"unknown metric 'x'; valid: {METRICS}",
    ),
    "config algorithm": (
        lambda v: PipelineConfig(algorithm=v), ConfigError,
        "unknown community algorithm 'x'; valid: ('chinese_whispers', 'agglomerative')",
    ),
    "TopologySpec": (
        lambda v: TopologySpec(kind=v, n=10), ConfigError,
        f"unknown topology kind 'x'; valid: {TOPOLOGIES}",
    ),
    "SimulationSettings": (
        lambda v: SimulationSettings("Awareness", transfer=v), ConfigError,
        "unknown transfer function 'x'; valid: ('tanh', 'sigmoid')",
    ),
    "MetricConfig": (
        lambda v: MetricConfig(centrality=v), MetricError,
        "unknown centrality kind 'x'; valid: ('degree', 'betweenness', 'closeness')",
    ),
    "distance": (
        lambda v: distance(v, MAP, MAP), MetricError, f"unknown metric kind 'x'; valid: {METRICS}",
    ),
    "weigh_ties": (
        lambda v: weigh_ties(AGENTS, TIE, v), MetricError,
        f"unknown metric kind 'x'; valid: {METRICS}",
    ),
    "stage_simulate_files": (
        lambda v: stage_simulate_files(PipelineConfig(), "no-such-dir", model=v), ConfigError,
        "unknown model 'x'; valid: ('original', 'reduced')",
    ),
}


@pytest.mark.parametrize("site", SITES)
def test_unknown_name_keeps_its_message(site):
    call, error, message = SITES[site]
    with pytest.raises(error) as raised:
        call("x")
    assert type(raised.value) is error
    assert str(raised.value) == message


@pytest.mark.parametrize("value", (["x"], {"x": 1}, None, 3), ids=("list", "dict", "None", "int"))
@pytest.mark.parametrize("site", SITES)
def test_name_of_another_type_raises_the_typed_error(site, value):
    call, error, _ = SITES[site]
    with pytest.raises(error):
        call(value)


def test_a_model_outside_models_writes_nothing(tmp_path):
    cfg = PipelineConfig(**SMALL)
    run_pipeline(cfg, tmp_path)
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    with pytest.raises(ConfigError, match=r"^unknown model 'Original'; valid: \('original', 'reduced'\)$"):
        stage_simulate_files(cfg, tmp_path, model="Original")
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
    for model in MODELS:
        assert stage_simulate_files(cfg, tmp_path, model=model) == [
            f"distribution_{model}.csv", f"runspec_{model}.json"
        ]


def test_stages_reach_the_functions_named_in_pipeline(tmp_path, monkeypatch):
    reached = []
    for name in (
        "generate_cmaes_style", "generate_variants", "build_obesity_fcm", "randomize_activations",
        "import_population", "make_agents", "chinese_whispers", "agglomerative_modularity",
    ):
        def recording(*args, _name=name, _call=getattr(pipeline, name), **kwargs):
            reached.append(_name)
            return _call(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, recording)
    path = tmp_path / "population.json"
    export_population(generate_cmaes_style(12, 0), path)
    sources = {
        "cmaes-style": {},
        "obesity-variants": {},
        "import": {"population_path": str(path), "output_concept": "Awareness",
                   "stabilization_concept": "Awareness"},
    }
    assert set(sources) == set(pipeline.POPULATION_SOURCES)
    for source, extra in sources.items():
        agents = pipeline.stage_population(PipelineConfig(source=source, **SMALL, **extra))
    graph = pipeline.stage_topology(PipelineConfig(**SMALL), agents)
    weights = pipeline.stage_weigh(PipelineConfig(**SMALL), agents, graph)
    for algorithm in pipeline.COMMUNITY_ALGORITHMS:
        partition = pipeline.stage_cluster(PipelineConfig(algorithm=algorithm, **SMALL), graph, weights)
        assert isinstance(partition, Partition)
    assert reached == [
        "generate_cmaes_style", "make_agents",
        "build_obesity_fcm", "generate_variants", "randomize_activations", "make_agents",
        "import_population", "make_agents",
        "chinese_whispers", "agglomerative_modularity",
    ]
