import csv
import json
import os

import numpy as np
import pytest

from fcmreduce.cli import main
from fcmreduce.errors import ConfigError
from fcmreduce.pipeline import (
    PipelineConfig,
    config_from_dict,
    load_config,
    run_pipeline,
    run_sweep,
)

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

    def test_default_concepts_per_source(self):
        assert PipelineConfig(source="cmaes-style").watched_concept("output") == "Awareness"
        assert PipelineConfig(source="obesity-variants").watched_concept("output") == "Obesity"

    def test_overrides_win(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path, metric="tsp", seed=99)
        assert cfg.metric == "tsp"
        assert cfg.seed == 99


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
            "distribution_original.csv", "distribution_reduced.csv", "report.json",
        ):
            assert (mono / name).read_bytes() == (staged / name).read_bytes(), name


class TestSweep:
    def test_sweep_emits_full_grid(self, tmp_path):
        cfg = config_from_dict(
            {
                "source": "cmaes-style", "count": 18, "k": 4, "m": 2, "p": 0.25,
                "rounds": 1, "repeats": 2, "tsp_ensemble": 5,
                "tsp_swaps_per_edge": 3, "seed": 13,
            }
        )
        rows = run_sweep(cfg, str(tmp_path / "sweep"))
        assert len(rows) == 11 * 2 * 3
        with open(tmp_path / "sweep" / "sweep.csv") as fh:
            lines = list(csv.reader(fh))
        assert len(lines) == 67
        assert lines[0][:4] == ["topology", "metric", "algorithm", "kl"]
        combos = {(r[0], r[1], r[2]) for r in lines[1:]}
        assert len(combos) == 66


class TestCliErrors:
    def test_config_error_exit_code_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {"metric": "nope"})
        assert main(["pipeline", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exit_code_1(self, tmp_path):
        assert (
            main(["pipeline", "--config", str(tmp_path / "none.json"), "--out", "o"]) == 1
        )

    def test_runtime_error_exit_code_2_names_stage(self, tmp_path, capsys):
        # config validates (file exists) but the population payload is junk,
        # so the failure surfaces inside the population stage
        pop = tmp_path / "pop.json"
        pop.write_text('[{"concepts": ["A", "A"], "edges": []}]')
        path = write_config(
            tmp_path, {"source": "import", "population_path": str(pop),
                       "output_concept": "A", "stabilization_concept": "A"}
        )
        code = main(["pipeline", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "population" in capsys.readouterr().err

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

    def test_compare_on_malformed_partition_exits_1(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        out = tmp_path / "full"
        assert main(["pipeline", "--config", config_path, "--out", str(out)]) == 0
        capsys.readouterr()
        for text, message in (
            ("agent_id,community_id\n0\n", "malformed partition row"),
            ("agent_id,community_id\n0,x\n", "malformed partition row"),
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
            lines.append("1,1,jaccard_edges,0.5,0.6\n")
        else:
            j = next(j for j in range(1, 40) if (0, j) not in topology)
            lines.append(f"0,{j},jaccard_edges,0.5,0.6\n")
        ties.write_text("".join(lines))
        assert main(["cluster", "--config", config_path, "--out", str(staged)]) == 1
        assert "ties of topology.csv" in capsys.readouterr().err
        assert not os.path.exists(staged / "partition.csv")

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
