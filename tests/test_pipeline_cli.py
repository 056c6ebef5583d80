import csv
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmreduce import cli, pipeline, population, similarity
from fcmreduce.analysis import sweep_row
from fcmreduce.cli import main
from fcmreduce.errors import ConfigError
from fcmreduce.pipeline import (
    FIELD_TYPES,
    PipelineConfig,
    config_from_dict,
    load_config,
    run_pipeline,
    run_sweep,
)
from fcmreduce.population import export_population, generate_cmaes_style

SMOKE = {
    "source": "cmaes-style",
    "count": 40,
    "topology": "small_world",
    "k": 4,
    "metric": "jaccard_edges",
    "algorithm": "chinese_whispers",
    "rounds": 2,
    "repeats": 6,
    "seed": 11,
}


def write_config(tmp_path, overrides=None, name="config.json"):
    data = dict(SMOKE)
    data.update(overrides or {})
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfig:
    def test_unknown_key_rejected_with_valid_list(self):
        with pytest.raises(ConfigError, match="valid keys"):
            config_from_dict({"metrik": "tsp"})

    def test_unknown_metric_lists_options(self):
        with pytest.raises(ConfigError, match="jaccard_edges"):
            config_from_dict({"metric": "hamming"})

    def test_unknown_algorithm_lists_options(self):
        with pytest.raises(ConfigError, match="chinese_whispers"):
            config_from_dict({"algorithm": "louvain"})

    def test_import_source_requires_existing_path(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            config_from_dict(
                {"source": "import", "population_path": str(tmp_path / "missing.json")}
            )

    def test_negative_jitter_rejected_at_load(self):
        with pytest.raises(ConfigError, match="jitter"):
            config_from_dict({"source": "obesity-variants", "jitter": -1})

    def test_default_concepts_per_source(self):
        assert PipelineConfig(source="cmaes-style").watched_concept("output") == "Awareness"
        assert PipelineConfig(source="obesity-variants").watched_concept("output") == "Obesity"

    def test_overrides_win(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path, metric="tsp", seed=99)
        assert cfg.metric == "tsp"
        assert cfg.seed == 99


# Bounds a sub-spec checks, bounds only PipelineConfig checks, and wrong types.
BAD_CONFIGS = [
    {"k": 3}, {"count": 1}, {"topology": "random", "p": 2},
    {"rounds": 0}, {"node_bins": 1}, {"tsp_ensemble": 0}, {"epsilon": -1},
    {"max_iterations": 0}, {"tolerance": 0},
    {"max_iterations": 2.5}, {"max_iterations": True},
    {"tolerance": float("inf")}, {"tolerance": float("nan")},
    *({key: 2.0} for key in ("rounds", "repeats", "count", "k", "max_iterations",
                             "tsp_ensemble", "node_bins", "kl_bins")),
    {"kl_alpha": 0}, {"kl_bins": 0}, {"max_rounds": 0}, {"workers": 0},
    {"self_memory": "no"}, {"seed": "abc"},
    {"source": "obesity-variants", "jitter": -1},
    {"source": "obesity-variants", "jitter": 8.99e307},  # 2 * jitter overflows
    {"source": "import", "stabilization_concept": "Awareness"},  # no output_concept
    {"topology": "scale_free", "m": 1},
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


class TestConfigChecks:
    @pytest.mark.parametrize("bad", BAD_CONFIGS, ids=json.dumps)
    def test_bad_value_exits_1_on_both_routes(self, tmp_path, capsys, bad):
        if bad.get("source") == "import":
            pop = tmp_path / "pop.json"
            export_population(generate_cmaes_style(8, seed=1), pop)
            bad = dict(bad, population_path=str(pop))
        path = write_config(tmp_path, bad)
        for command in ("pipeline", "generate"):
            assert main([command, "--config", path, "--out", str(tmp_path / command)]) == 1
            assert "config error" in capsys.readouterr().err

    def test_every_field_annotation_has_a_type_check(self):
        assert {f.type for f in fields(PipelineConfig)} <= set(FIELD_TYPES)

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from([f.name for f in fields(PipelineConfig)]), value=JSON_VALUES)
    def test_any_json_value_is_rejected_or_builds_every_spec(self, name, value):
        try:
            cfg = config_from_dict({name: value})
        except ConfigError:
            return
        cfg.run_spec()
        cfg.metric_config()
        if cfg.source != "import":
            cfg.topology_spec(cfg.count)


class TestPipeline:
    def test_smoke_run_emits_complete_report(self, tmp_path):
        out = tmp_path / "out"
        cfg = config_from_dict(SMOKE)
        result = run_pipeline(cfg, out_dir=str(out))
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {
            "kl_divergence", "original", "simplified",
            "removed_count", "communities", "config",
        }
        assert report["config"]["seed"] == 11
        for name in (
            "population.json", "topology.csv", "ties.csv", "partition.csv",
            "reduced_population.json", "reduced_topology.csv", "provenance.json",
            "distribution_original.csv", "distribution_reduced.csv",
            "runspec_original.json", "runspec_reduced.json", "violin.csv",
        ):
            assert (out / name).exists(), name
        assert len(result.original.samples) == 6

    def test_identical_config_twice_byte_identical_report(self, tmp_path):
        cfg = config_from_dict(SMOKE)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(cfg, out_dir=str(out_a))
        run_pipeline(cfg, out_dir=str(out_b))
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_obesity_source_runs(self, tmp_path):
        cfg = config_from_dict(
            {
                "source": "obesity-variants", "count": 20, "topology": "random",
                "p": 0.2, "metric": "compare_graphs", "rounds": 1, "repeats": 3,
                "seed": 5,
            }
        )
        result = run_pipeline(cfg)
        assert result.report.communities["count"] >= 1

    def test_import_source_round_trip(self, tmp_path):
        from fcmreduce.population import export_population, generate_cmaes_style

        pop_path = tmp_path / "pop.json"
        export_population(generate_cmaes_style(15, seed=2), pop_path)
        cfg = config_from_dict(
            {
                "source": "import", "population_path": str(pop_path),
                "topology": "small_world", "k": 4, "metric": "kl_nodes",
                "output_concept": "Awareness", "stabilization_concept": "Awareness",
                "rounds": 1, "repeats": 3, "seed": 6,
            }
        )
        result = run_pipeline(cfg)
        assert len(result.agents) == 15


class TestStageComposition:
    def test_stage_by_stage_equals_monolithic(self, tmp_path):
        config_path = write_config(tmp_path)
        mono = tmp_path / "mono"
        staged = tmp_path / "staged"

        assert main(["pipeline", "--config", config_path, "--out", str(mono)]) == 0
        for command in ("generate", "weigh", "cluster", "reduce"):
            assert main([command, "--config", config_path, "--out", str(staged)]) == 0
        for model in ("original", "reduced"):
            assert (
                main(
                    ["simulate", "--config", config_path, "--out", str(staged), "--model", model]
                )
                == 0
            )
        assert main(["compare", "--config", config_path, "--out", str(staged)]) == 0

        for name in (
            "population.json", "topology.csv", "ties.csv", "partition.csv",
            "reduced_population.json", "reduced_topology.csv", "provenance.json",
            "distribution_original.csv", "distribution_reduced.csv",
            "runspec_original.json", "runspec_reduced.json", "violin.csv", "report.json",
        ):
            assert (mono / name).read_bytes() == (staged / name).read_bytes(), name
        assert sorted(os.listdir(mono)) == sorted(os.listdir(staged))

    def test_cluster_builds_no_map(self, tmp_path, monkeypatch, capsys):
        config_path = write_config(tmp_path)
        staged = tmp_path / "staged"
        for stage in ("generate", "weigh"):
            assert main([stage, "--config", config_path, "--out", str(staged)]) == 0
        built = []
        monkeypatch.setattr(population, "fcm_from_dict", lambda *a, **k: built.append(a))
        assert main(["cluster", "--config", config_path, "--out", str(staged)]) == 0
        assert built == []
        # the population file is still checked for a non-empty array
        (staged / "population.json").write_text("[]")
        assert main(["cluster", "--config", config_path, "--out", str(staged)]) == 1
        assert "must hold a non-empty JSON array" in capsys.readouterr().err


def run_fresh(script: str) -> str:
    """stdout of script run in a new interpreter that imports this checkout's fcmreduce."""
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True).stdout


class TestStartUp:
    """networkx costs about half of a process's start-up, so only the two
    centralities that need it import it; forked runs need no process pool."""

    def test_default_run_never_imports_networkx(self, tmp_path):
        script = (
            "import sys\n"
            "import fcmreduce\n"
            "from fcmreduce.pipeline import config_from_dict, run_pipeline\n"
            "loaded = ['networkx' in sys.modules]\n"
            f"run_pipeline(config_from_dict({SMOKE!r}), out_dir={str(tmp_path)!r})\n"
            "loaded.append('networkx' in sys.modules)\n"
            f"run_pipeline(config_from_dict({dict(SMOKE, metric='centrality_cosine')!r}))\n"
            "loaded.append('networkx' in sys.modules)\n"
            "print(loaded)\n"
        )
        assert run_fresh(script).strip() == "[False, False, False]"

    def test_forked_runs_import_no_process_pool(self, tmp_path):
        # multiprocessing and concurrent.futures cost start-up time and
        # memory, and their pools start threads. SMOKE's runs are below the
        # block a fork pays for, so the cut-off is lowered to make them fork
        script = (
            "import os, sys\n"
            "import fcmreduce\n"
            "from fcmreduce import harness\n"
            "from fcmreduce.pipeline import config_from_dict, run_pipeline\n"
            "pools = ('multiprocessing', 'concurrent.futures')\n"
            "loaded = [any(m in sys.modules for m in pools)]\n"
            "harness._MIN_BLOCK_VISITS = 1\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            f"run_pipeline(config_from_dict({dict(SMOKE, workers=2)!r}), out_dir={str(tmp_path)!r})\n"
            "loaded.append(any(m in sys.modules for m in pools))\n"
            "print(loaded, len(forks) > 0)\n"
        )
        assert run_fresh(script).strip() == "[False, False] True"

    @pytest.mark.parametrize("centrality, digest", [
        ("betweenness", "730478a75c94d57e9772d680b42d1d39a1b35f33fa8186854ae950857c03771d"),
        ("closeness", "1539224e07b70cfac6198c5cba5e2001331c0ac09e434e60d91475a3fa758f44"),
    ])
    def test_networkx_centrality_loads_it_and_keeps_weights(self, centrality, digest):
        # digests recorded when every module imported networkx at start-up
        config = {"metric": "centrality_cosine", "centrality": centrality,
                  "count": 20, "k": 4, "seed": 42}
        script = (
            "import hashlib, sys\n"
            "from fcmreduce.pipeline import config_from_dict, stage_population, stage_topology, stage_weigh\n"
            f"cfg = config_from_dict({config!r})\n"
            "agents = stage_population(cfg)\n"
            "w = stage_weigh(cfg, agents, stage_topology(cfg, agents))\n"
            "text = repr([(tie, w[tie].dissimilarity) for tie in sorted(w)])\n"
            "print('networkx' in sys.modules, hashlib.sha256(text.encode()).hexdigest())\n"
        )
        assert run_fresh(script).split() == ["True", digest]


class TestCommandTable:
    FILE_STAGES = (
        ["generate"], ["weigh"], ["cluster"], ["reduce"],
        ["simulate", "--model", "original"], ["simulate", "--model", "reduced"],
    )
    EXTRA_FLAGS = {
        "pipeline": ["--sweep"], "generate": [], "weigh": [], "cluster": [], "reduce": [],
        "simulate": ["--model"], "compare": ["--original", "--simplified"],
    }

    def test_wrote_line_names_the_files_the_stage_created(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        out = tmp_path / "staged"
        for argv in self.FILE_STAGES:
            before = set(os.listdir(out)) if out.exists() else set()
            assert main(argv + ["--config", config_path, "--out", str(out)]) == 0
            line = capsys.readouterr().out
            assert line.startswith("wrote ") and line.endswith(f" to {out}\n"), line
            names = line[len("wrote "):-len(f" to {out}\n")].split(", ")
            assert sorted(names) == sorted(set(os.listdir(out)) - before), argv

    def test_calls_go_through_the_names_in_cli(self, tmp_path, monkeypatch, capsys):
        # perfbench/layers.py wraps these names in cli's namespace
        calls = []
        for name in (
            "stage_generate_files", "stage_weigh_files", "stage_cluster_files",
            "stage_reduce_files", "stage_simulate_files", "stage_compare_files",
            "report_to_json",
        ):
            def spy(*args, _name=name, _real=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, spy)
        config_path = write_config(tmp_path)
        for argv in self.FILE_STAGES + (["compare"], ["pipeline"]):
            assert main(argv + ["--config", config_path, "--out", str(tmp_path / "o")]) == 0
        assert calls == [
            "stage_generate_files", "stage_weigh_files", "stage_cluster_files",
            "stage_reduce_files", "stage_simulate_files", "stage_simulate_files",
            "stage_compare_files", "report_to_json", "report_to_json",
        ]

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_help_lists_the_extra_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        text = capsys.readouterr().out
        for flag in self.EXTRA_FLAGS[command] + ["--config", "--seed", "--out"]:
            assert flag in text, flag


class TestSweep:
    SMALL = {
        "source": "cmaes-style", "count": 18, "k": 4, "m": 2, "p": 0.25,
        "rounds": 1, "repeats": 2, "tsp_ensemble": 5, "tsp_swaps_per_edge": 3, "seed": 13,
    }

    def test_sweep_emits_full_grid(self, tmp_path):
        cfg = config_from_dict(self.SMALL)
        rows = run_sweep(cfg, str(tmp_path / "sweep"))
        assert len(rows) == 11 * 2 * 3
        with open(tmp_path / "sweep" / "sweep.csv") as fh:
            lines = list(csv.reader(fh))
        assert len(lines) == 67
        assert lines[0][:4] == ["topology", "metric", "algorithm", "kl"]
        combos = {(r[0], r[1], r[2]) for r in lines[1:]}
        assert len(combos) == 66

    def test_sweep_rows_equal_pipeline_reports(self, tmp_path):
        # every cell, so features and reduced runs shared across cells
        # change no row
        sweep = run_sweep(config_from_dict(self.SMALL), str(tmp_path / "sweep"))
        rows = {tuple(row[:3]): row for row in sweep}
        assert len(rows) == 66
        for cell, row in rows.items():
            names = dict(zip(("topology", "metric", "algorithm"), cell))
            result = run_pipeline(config_from_dict(dict(self.SMALL, **names)))
            assert row == sweep_row(result.report, *cell)

    def test_sweep_does_each_piece_of_work_once(self, tmp_path, monkeypatch):
        runs, seeds, compared = [], [], []
        run_distribution, stage_compare = pipeline.run_distribution, pipeline.stage_compare
        triad_profile = similarity.triad_profile

        def counting_run(*args, **kwargs):
            runs.append(run_distribution(*args, **kwargs))
            return runs[-1]

        def counting_profile(*args, **kwargs):
            seeds.append(args[4])  # int_seed(seed, "tsp", agent id)
            return triad_profile(*args, **kwargs)

        def recording_compare(cell, original, simplified, partition):
            key = (cell.topology, tuple(sorted(partition.assignment.items())))
            compared.append((key, simplified))
            return stage_compare(cell, original, simplified, partition)

        monkeypatch.setattr(pipeline, "run_distribution", counting_run)
        monkeypatch.setattr(similarity, "triad_profile", counting_profile)
        monkeypatch.setattr(pipeline, "stage_compare", recording_compare)
        run_sweep(config_from_dict(self.SMALL), str(tmp_path / "sweep"))

        assert len(compared) == 66
        distinct = {key for key, _ in compared}
        assert len(distinct) < 66  # the test needs cells that share a partition
        assert len(runs) == 3 + len(distinct)
        assert 0 < len(seeds) == len(set(seeds)) <= self.SMALL["count"]
        simplified_of = {}
        for key, simplified in compared:
            assert simplified_of.setdefault(key, simplified) is simplified
        assert len({id(s) for s in simplified_of.values()}) == len(distinct)

    def test_sweep_through_the_cli(self, tmp_path, capsys):
        config_path = write_config(tmp_path, dict(self.SMALL, topology="small_world"))
        out = tmp_path / "sweep"
        assert main(["pipeline", "--sweep", "--config", config_path, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"sweep complete: 66 cells -> {out}/sweep.csv\n"
        assert sorted(os.listdir(out)) == ["config.json", "sweep.csv"]

    def test_knob_bad_for_another_topology_rejected_before_any_work(self, tmp_path):
        # k=3 is no small-world ring degree; the random topology ignores k
        cfg = config_from_dict({"topology": "random", "p": 0.3, "k": 3, "count": 18})
        with pytest.raises(ConfigError, match="ring degree"):
            run_sweep(cfg, str(tmp_path / "sweep"))
        assert not (tmp_path / "sweep").exists()


class TestCliErrors:
    def test_config_error_exit_code_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {"metric": "nope"})
        assert main(["pipeline", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exit_code_1(self, tmp_path):
        assert (
            main(["pipeline", "--config", str(tmp_path / "none.json"), "--out", "o"]) == 1
        )

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe")
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "config file" in capsys.readouterr().err

    def test_directory_as_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.mkdir()
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"config file {path} cannot be read" in capsys.readouterr().err

    def test_weigh_on_directory_population_exits_1(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        staged = tmp_path / "staged"
        (staged / "population.json").mkdir(parents=True)
        assert main(["weigh", "--config", config_path, "--out", str(staged)]) == 1
        assert "population file" in capsys.readouterr().err

    def test_weigh_on_non_utf8_population_exits_1(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        staged = tmp_path / "staged"
        staged.mkdir()
        (staged / "population.json").write_bytes(b"\xff\xfe")
        assert main(["weigh", "--config", config_path, "--out", str(staged)]) == 1
        assert "population file" in capsys.readouterr().err

    def test_malformed_population_exits_1_on_both_routes(self, tmp_path, capsys):
        # the config validates (the file exists) but the population payload
        # is junk, so its reader fails inside the population stage
        pop = tmp_path / "pop.json"
        pop.write_text('[{"concepts": ["A", "A"], "edges": []}]')
        path = write_config(
            tmp_path, {"source": "import", "population_path": str(pop),
                       "output_concept": "A", "stabilization_concept": "A"}
        )
        for command in ("pipeline", "generate"):
            assert main([command, "--config", path, "--out", str(tmp_path / command)]) == 1
            assert "population" in capsys.readouterr().err

    def test_runtime_error_exits_2_on_both_routes(self, tmp_path, capsys):
        # edgeless maps load and simulate, but jaccard_edges cannot weigh them
        pop = tmp_path / "pop.json"
        pop.write_text(json.dumps([{"concepts": ["A", "B"], "edges": []}] * 6))
        path = write_config(
            tmp_path, {"source": "import", "population_path": str(pop), "k": 2,
                       "metric": "jaccard_edges",
                       "output_concept": "A", "stabilization_concept": "A"}
        )
        failure = "error: metric 'jaccard_edges' failed on tie (0, 1)"
        assert main(["pipeline", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert failure in capsys.readouterr().err
        staged = str(tmp_path / "staged")
        assert main(["generate", "--config", path, "--out", staged]) == 0
        assert main(["weigh", "--config", path, "--out", staged]) == 2
        assert failure in capsys.readouterr().err

    def test_out_of_memory_exits_2_without_traceback(self, tmp_path, monkeypatch, capsys):
        # a huge kl_bins or tsp_ensemble makes numpy raise a MemoryError
        # subclass; raising one directly allocates nothing
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.3 TiB for an array")

        monkeypatch.setattr(cli, "run_pipeline", exhausted)
        path = write_config(tmp_path)
        assert main(["pipeline", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "error: out of memory: Unable to allocate" in err
        assert "Traceback" not in err

    def test_blank_channel_labels_exit_1_in_every_reader(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        staged = tmp_path / "staged"
        for stage in ("generate", "weigh", "cluster"):
            assert main([stage, "--config", config_path, "--out", str(staged)]) == 0
        topology = staged / "topology.csv"
        header, *rows = topology.read_text().splitlines(keepends=True)
        topology.write_text(header + "".join(r.rsplit(",", 1)[0] + ",\n" for r in rows))
        capsys.readouterr()
        for stage in ("weigh", "cluster", "reduce", "simulate"):
            assert main([stage, "--config", config_path, "--out", str(staged)]) == 1, stage
            assert "channels missing" in capsys.readouterr().err

    def test_stage_missing_inputs_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(["weigh", "--config", path, "--out", str(tmp_path / "emptydir")])
        assert code == 1
        assert "population file not found" in capsys.readouterr().err

    def test_compare_on_short_distribution_row_exits_1(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        out = tmp_path / "full"
        assert main(["pipeline", "--config", config_path, "--out", str(out)]) == 0
        short = tmp_path / "short.csv"
        short.write_text("run_index,output_value\n0\n")
        code = main(
            ["compare", "--config", config_path, "--out", str(out), "--simplified", str(short)]
        )
        assert code == 1
        assert "malformed distribution row" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("run_index,output_value\n5,0.5\n5,0.7\n", "should have run_index 0"),
        ("run_index,output_value\n0,0.5\n", "4 samples but the reduced one 1"),
    ], ids=["repeated run index", "one sample against four"])
    def test_compare_on_unpaired_distribution_exits_1(self, tmp_path, capsys, text, message):
        # reduced sample i pairs with original sample i by the shared run seed
        config_path = write_config(tmp_path, {"repeats": 4})
        out = tmp_path / "full"
        assert main(["pipeline", "--config", config_path, "--out", str(out)]) == 0
        capsys.readouterr()
        simplified = tmp_path / "simplified.csv"
        simplified.write_text(text)
        code = main(
            ["compare", "--config", config_path, "--out", str(out),
             "--simplified", str(simplified)]
        )
        assert code == 1
        assert message in capsys.readouterr().err

    def test_compare_on_malformed_partition_exits_1(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        out = tmp_path / "full"
        assert main(["pipeline", "--config", config_path, "--out", str(out)]) == 0
        capsys.readouterr()
        for text, message in (
            ("agent_id,community_id\n0\n", "malformed partition row"),
            ("agent_id,community_id\n0,x\n", "malformed partition row"),
            ("agent_id,community_id\n0,0,junk\n", "malformed partition row"),
            ("agent_id,community_id\n0,1\n", "dense"),
            ("a,b\n0,0\n", "unexpected partition header"),
        ):
            (out / "partition.csv").write_text(text)
            assert main(["compare", "--config", config_path, "--out", str(out)]) == 1
            assert message in capsys.readouterr().err
        os.remove(out / "partition.csv")
        assert main(["compare", "--config", config_path, "--out", str(out)]) == 1
        assert "partition file not found" in capsys.readouterr().err

    def test_simulate_reduced_on_malformed_provenance_exits_1(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        out = tmp_path / "full"
        assert main(["pipeline", "--config", config_path, "--out", str(out)]) == 0
        capsys.readouterr()
        provenance = out / "provenance.json"
        text = provenance.read_text()
        for bad, message in (
            (text[: len(text) // 2], "not valid JSON"),
            ('{"redrawn_channels": []}', "no communities mapping"),
            ('{"communities": {"0": {"members": [0]}}}', "malformed community"),
        ):
            provenance.write_text(bad)
            code = main(["simulate", "--config", config_path, "--out", str(out),
                         "--model", "reduced"])
            assert code == 1
            assert message in capsys.readouterr().err
        os.remove(provenance)
        assert main(["compare", "--config", config_path, "--out", str(out)]) == 1
        assert "provenance file not found" in capsys.readouterr().err

    def test_cluster_rejects_ties_of_another_metric(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        staged = str(tmp_path / "staged")
        assert main(["generate", "--config", config_path, "--out", staged]) == 0
        assert main(["weigh", "--config", config_path, "--out", staged,
                     "--metric", "density"]) == 0
        assert main(["cluster", "--config", config_path, "--out", staged]) == 1
        assert "'density'" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(staged, "partition.csv"))

    @pytest.mark.parametrize("edit", ["extra tie", "self tie", "missing tie"])
    def test_cluster_rejects_ties_not_of_topology(self, tmp_path, capsys, edit):
        config_path = write_config(tmp_path)
        staged = tmp_path / "staged"
        assert main(["generate", "--config", config_path, "--out", str(staged)]) == 0
        assert main(["weigh", "--config", config_path, "--out", str(staged)]) == 0
        with open(staged / "topology.csv", newline="") as fh:
            topology = {(int(r[0]), int(r[1])) for r in list(csv.reader(fh))[1:]}
        ties = staged / "ties.csv"
        lines = ties.read_text().splitlines(keepends=True)
        if edit == "missing tie":
            lines.pop()
        elif edit == "self tie":
            lines.append("1,1,jaccard_edges,0.5,0.6065306597126334\n")
        else:
            j = next(j for j in range(1, 40) if (0, j) not in topology)
            lines.append(f"0,{j},jaccard_edges,0.5,0.6065306597126334\n")
        ties.write_text("".join(lines))
        assert main(["cluster", "--config", config_path, "--out", str(staged)]) == 1
        assert "ties of topology.csv" in capsys.readouterr().err
        assert not os.path.exists(staged / "partition.csv")

    @pytest.mark.parametrize("edit", ["missing row", "extra row"])
    def test_reduce_rejects_partition_not_of_topology(self, tmp_path, capsys, edit):
        config_path = write_config(tmp_path)
        staged = tmp_path / "staged"
        for stage in ("generate", "weigh", "cluster"):
            assert main([stage, "--config", config_path, "--out", str(staged)]) == 0
        partition = staged / "partition.csv"
        header, *rows = partition.read_text().splitlines(keepends=True)
        if edit == "missing row":
            # drop an agent whose community keeps another member, so the
            # ids stay dense and the file itself still reads
            comms = [row.split(",")[1] for row in rows]
            rows.pop(next(i for i, c in enumerate(comms) if comms.count(c) > 1))
        else:
            rows.append("999,0\n")
        partition.write_text(header + "".join(rows))
        assert main(["reduce", "--config", config_path, "--out", str(staged)]) == 1
        assert "agents of topology.csv" in capsys.readouterr().err
        assert not os.path.exists(staged / "provenance.json")

    def test_compare_rejects_partition_not_of_reduction(self, tmp_path, capsys):
        # a partition.csv rewritten after reduce (as a second cluster run
        # does) must not be reported against the older reduction
        config_path = write_config(tmp_path)
        staged = tmp_path / "staged"
        for stage in ("generate", "weigh", "cluster", "reduce"):
            assert main([stage, "--config", config_path, "--out", str(staged)]) == 0
        for model in ("original", "reduced"):
            assert main(["simulate", "--config", config_path, "--out", str(staged),
                         "--model", model]) == 0
        partition = staged / "partition.csv"
        header, *rows = partition.read_text().splitlines(keepends=True)
        # move one agent of a community that keeps another member, so the
        # ids stay dense and every agent is still assigned
        comms = [row.strip().split(",")[1] for row in rows]
        k = next(i for i, c in enumerate(comms) if comms.count(c) > 1)
        other = next(c for c in comms if c != comms[k])
        rows[k] = f"{rows[k].split(',')[0]},{other}\n"
        partition.write_text(header + "".join(rows))
        capsys.readouterr()
        assert main(["compare", "--config", config_path, "--out", str(staged)]) == 1
        err = capsys.readouterr().err
        assert "partition.csv" in err and "provenance.json" in err
        assert not os.path.exists(staged / "report.json")

    def test_cluster_before_weigh_exits_1(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        staged = str(tmp_path / "staged")
        assert main(["generate", "--config", config_path, "--out", staged]) == 0
        assert main(["cluster", "--config", config_path, "--out", staged]) == 1
        assert "tie-weight file not found" in capsys.readouterr().err

    def test_compare_before_simulate_exits_1(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        staged = str(tmp_path / "staged")
        for stage in ("generate", "weigh", "cluster", "reduce"):
            assert main([stage, "--config", config_path, "--out", staged]) == 0
        assert main(["compare", "--config", config_path, "--out", staged]) == 1
        assert "distribution file not found" in capsys.readouterr().err

    def test_cli_metric_override_lands_in_report(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["pipeline", "--config", path, "--out", str(out), "--metric", "density"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["metric"] == "density"

    def test_compare_on_two_distribution_files(self, tmp_path, capsys):
        # compare works on bare distribution CSVs plus partition/provenance
        config_path = write_config(tmp_path)
        out = tmp_path / "full"
        assert main(["pipeline", "--config", config_path, "--out", str(out)]) == 0
        capsys.readouterr()  # drop the pipeline's own report print
        code = main(
            [
                "compare", "--config", config_path, "--out", str(out),
                "--original", str(out / "distribution_original.csv"),
                "--simplified", str(out / "distribution_reduced.csv"),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "kl_divergence" in payload

    def test_command_without_config_uses_the_defaults(self, tmp_path, capsys):
        out = tmp_path / "staged"
        assert main(["generate", "--out", str(out), "--seed", "3"]) == 0
        assert capsys.readouterr().out == f"wrote population.json, topology.csv to {out}\n"
        assert population.population_size(out / "population.json") == PipelineConfig().count

    @pytest.mark.parametrize("seed", ["abc", "1_0", " 3", "\u0663", "3.0"])
    def test_seed_must_be_plain_integer_text(self, tmp_path, capsys, seed):
        with pytest.raises(SystemExit) as exit_:
            main(["generate", "--out", str(tmp_path / "o"), "--seed", seed])
        assert exit_.value.code == 2
        assert f"argument --seed: invalid integer value: {seed!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_simulate_reduced_on_population_of_another_size_exits_1(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        out = tmp_path / "full"
        assert main(["pipeline", "--config", config_path, "--out", str(out)]) == 0
        capsys.readouterr()
        reduced = out / "reduced_population.json"
        reduced.write_text(json.dumps(json.loads(reduced.read_text())[1:]))
        assert main(["simulate", "--config", config_path, "--out", str(out),
                     "--model", "reduced"]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: reduced population and provenance disagree on size"
        )

    def test_generate_on_population_without_output_concept_exits_1(self, tmp_path, capsys):
        pop = tmp_path / "pop.json"
        export_population(generate_cmaes_style(8, seed=1), pop)
        path = write_config(tmp_path, {
            "source": "import", "population_path": str(pop), "k": 2,
            "output_concept": "Obesity", "stabilization_concept": "Awareness",
        })
        assert main(["generate", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: output concept 'Obesity' missing from agent 0's FCM"
        )

    def test_simulate_on_channel_a_map_lacks_exits_1(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        staged = tmp_path / "staged"
        assert main(["generate", "--config", config_path, "--out", str(staged)]) == 0
        capsys.readouterr()
        topology = staged / "topology.csv"
        header, first, *rest = topology.read_text().splitlines(keepends=True)
        i, j, _ = first.split(",")
        topology.write_text(header + f"{i},{j},Obesity\r\n" + "".join(rest))
        assert main(["simulate", "--config", config_path, "--out", str(staged)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: tie ({i}, {j}): concept 'Obesity' not in FCM"
        )

    @pytest.mark.parametrize("stage", [
        ["weigh"], ["reduce"], ["simulate"], ["simulate", "--model", "reduced"],
    ], ids=" ".join)
    def test_every_stage_loading_a_model_rejects_a_channel_a_map_lacks(self, tmp_path, capsys, stage):
        config_path = write_config(tmp_path)
        staged = tmp_path / "staged"
        for step in ("generate", "weigh", "cluster", "reduce"):
            assert main([step, "--config", config_path, "--out", str(staged)]) == 0
        capsys.readouterr()
        prefix = "reduced_" if "reduced" in stage else ""
        topology = staged / f"{prefix}topology.csv"
        header, first, *rest = topology.read_text().splitlines(keepends=True)
        i, j, _ = first.split(",")
        topology.write_text(header + f"{i},{j},Obesity\r\n" + "".join(rest))
        written = {p.name: p.read_bytes() for p in staged.iterdir()}
        assert main([*stage, "--config", config_path, "--out", str(staged)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: tie ({i}, {j}): concept 'Obesity' not in FCM"
        )
        assert {p.name: p.read_bytes() for p in staged.iterdir()} == written

    def test_id_outside_the_id_rule_in_a_stage_file_exits_1(self, tmp_path, capsys):
        # ids are non-negative integers; a reader turns the graph's or the
        # partition's ContractError into a ConfigError naming its file
        config_path = write_config(tmp_path)
        out = tmp_path / "full"
        assert main(["pipeline", "--config", config_path, "--out", str(out)]) == 0
        capsys.readouterr()
        topology = out / "topology.csv"
        header, first, *rest = topology.read_text().splitlines(keepends=True)
        _, j, label = first.split(",")
        topology.write_text(header + f"-1,{j},{label}" + "".join(rest))
        assert main(["weigh", "--config", config_path, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: topology file {topology}: agent id must be an integer >= 0, got -1"
        )
        partition = out / "partition.csv"
        partition.write_text("agent_id,community_id\n0,0\n-1,0\n")
        assert main(["compare", "--config", config_path, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: partition file {partition}: agent id must be an integer >= 0, got -1"
        )

    def test_tie_similarity_not_of_its_dissimilarity_exits_1(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        staged = tmp_path / "staged"
        for stage in ("generate", "weigh"):
            assert main([stage, "--config", config_path, "--out", str(staged)]) == 0
        capsys.readouterr()
        ties = staged / "ties.csv"
        with open(ties, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][4] = repr(float(rows[1][4]) / 2)
        with open(ties, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["cluster", "--config", config_path, "--out", str(staged)]) == 1
        assert "similarity is not exp(-dissimilarity)" in capsys.readouterr().err
        assert not (staged / "partition.csv").exists()

    def test_cluster_on_similarities_too_small_for_modularity_exits_2(self, tmp_path, capsys):
        # exp(-700) is about 1e-304, so 2*m*m underflows to zero
        config_path = write_config(tmp_path, {"count": 12, "algorithm": "agglomerative"})
        staged = tmp_path / "staged"
        for stage in ("generate", "weigh"):
            assert main([stage, "--config", config_path, "--out", str(staged)]) == 0
        capsys.readouterr()
        ties = staged / "ties.csv"
        with open(ties, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[3:] = ["700.0", repr(math.exp(-700.0))]
        with open(ties, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["cluster", "--config", config_path, "--out", str(staged)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: total tie similarity m = ")
        assert err.count("\n") == 1
        assert not (staged / "partition.csv").exists()


ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                    "\u0665\u0666\u0667\u0668\u0669")


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """The work directory of one SMOKE pipeline run, and its config."""
    tmp = tmp_path_factory.mktemp("full")
    config_path = write_config(tmp)
    assert main(["pipeline", "--config", config_path, "--out", str(tmp / "out")]) == 0
    return config_path, tmp / "out"


class TestNumberText:
    """A number field must be plain ASCII text, as the writers emit it; int()
    and float() would also read each of these spoiled fields as the value
    written, so each file below still loads that way without the rule."""

    @pytest.mark.parametrize("name, column, command, what", [
        ("topology.csv", 1, "weigh", "topology"),
        ("partition.csv", 0, "reduce", "partition"),
        ("distribution_reduced.csv", 1, "compare", "distribution"),
    ])
    @pytest.mark.parametrize("spoil", [
        lambda text: "0_" + text,
        lambda text: " " + text,
        lambda text: text.translate(ARABIC_INDIC_DIGITS),
    ], ids=["digit separator", "leading blank", "Arabic-Indic digits"])
    def test_spoiled_number_field_exits_1(
        self, full_run, tmp_path, capsys, name, column, command, what, spoil
    ):
        config_path, full = full_run
        out = tmp_path / "out"
        shutil.copytree(full, out)
        with open(out / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[1][column] = spoil(rows[1][column])
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert main([command, "--config", config_path, "--out", str(out)]) == 1
        assert f"malformed {what} row" in capsys.readouterr().err

    @pytest.mark.parametrize("spoil", [
        lambda record: record["edges"][0].update(weight="0.5"),
        lambda record: record["edges"][0].update(weight=True),
        lambda record: record["activation"].update(A=False),
        lambda record: record.update(concepts="AB"),
    ], ids=["weight as a string", "weight true", "activation false", "concepts as a string"])
    def test_population_value_not_a_json_number_or_array_exits_1(self, tmp_path, capsys, spoil):
        record = {"concepts": ["A", "B"], "activation": {"A": 0.5},
                  "edges": [{"source": "A", "target": "B", "weight": 0.5}]}
        records = [json.loads(json.dumps(record)) for _ in range(6)]
        spoil(records[0])
        pop = tmp_path / "pop.json"
        pop.write_text(json.dumps(records))
        path = write_config(tmp_path, {
            "source": "import", "population_path": str(pop), "k": 2,
            "output_concept": "A", "stabilization_concept": "A",
        })
        assert main(["generate", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error: population record 0: ")
