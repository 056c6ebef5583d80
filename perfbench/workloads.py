"""Workload definitions and the user-facing routes that execute them.

workloads.json holds, per workload, the config generated at the recorded
seed, the route (which public entry point runs it), why it was chosen,
which layers it should and should not move, and the sha256 of its final
output at the recorded seed. Any other seed reuses the config with only
"seed" replaced, so the program receives nothing but a generated config.

This module imports no fcmreduce code at import time: the worker times
the package import as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "workloads.json")

#: The staged CLI route: (stage name, subcommand argv), in pipeline order.
CLI_STAGES = (
    ("generate", ["generate"]),
    ("weigh", ["weigh"]),
    ("cluster", ["cluster"]),
    ("reduce", ["reduce"]),
    ("simulate-original", ["simulate", "--model", "original"]),
    ("simulate-reduced", ["simulate", "--model", "reduced"]),
    ("compare", ["compare"]),
)

ROUTES = ("pipeline", "cli-staged", "sweep")


def load_spec(path=SPEC_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def instance_seed(seed: int, index: int) -> int:
    """Config seed for the index-th call of a run: the run's seed itself
    first, then seeds derived from it, so a run's median spans several
    inputs and the same run seed always gives the same inputs."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def config_for(workload: dict, seed: int) -> dict:
    """The config the program receives for this workload at this seed."""
    return dict(workload["config"], seed=seed)


def output_name(route: str) -> str:
    """The file whose sha256 identifies a run's output."""
    return "sweep.csv" if route == "sweep" else "report.json"


def run_route(route: str, config: dict, work_dir: str, span=None) -> str:
    """Run one workload through its entry point, writing artifacts under
    work_dir; returns the output directory. span(name) wraps each CLI stage
    when tracing."""
    from fcmreduce import cli, pipeline

    out_dir = os.path.join(work_dir, "out")
    if route == "pipeline":
        pipeline.run_pipeline(pipeline.config_from_dict(config), out_dir)
    elif route == "sweep":
        pipeline.run_sweep(pipeline.config_from_dict(config), out_dir)
    elif route == "cli-staged":
        config_path = os.path.join(work_dir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        for stage, argv in CLI_STAGES:
            with span(stage) if span else contextlib.nullcontext():
                # the CLI prints its report; keep the worker's stdout for results
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv + ["--config", config_path, "--out", out_dir])
            if code != 0:
                raise RuntimeError(f"fcmreduce {' '.join(argv)} exited with {code}")
    else:
        raise ValueError(f"unknown route {route!r}; valid: {ROUTES}")
    return out_dir
