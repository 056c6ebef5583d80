"""One measurement in a fresh process.

    python3 perfbench/worker.py MODE WORKLOAD SEED WORK_DIR [BUDGET_S]

MODE is one of
- setup:  time `import fcmreduce` plus stage_population + stage_topology;
- timed:  set up, then call the workload's entry point on input k =
          0, 1, ... (the config at workloads.instance_seed(SEED, k)),
          timing each call and checking its outputs outside the timed
          region, until the next call would end past BUDGET_S seconds
          (default: one call);
- traced: set up, run the call on input 0 with spans around the layer
          boundaries, check outputs, and compute the per-layer metrics.

Each finished call prints one JSON line with "call" set; the last line on
stdout is the worker's summary. The exit code is 0 only when every call
and its checks passed. run.py starts this script with src/ on PYTHONPATH.
Only stdlib modules are imported before set-up is timed.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

import checks
import workloads
from layers import LayerProbe, settle_counts
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def set_up(config: dict):
    """(seconds, cfg, agents, graph) for import + population + topology."""
    start = time.perf_counter()
    from fcmreduce import pipeline

    cfg = pipeline.config_from_dict(config)
    agents = pipeline.stage_population(cfg)
    graph = pipeline.stage_topology(cfg, agents)
    elapsed = time.perf_counter() - start
    source = os.path.join(ROOT, "src", "fcmreduce")
    if os.path.dirname(os.path.abspath(pipeline.__file__)) != source:
        raise RuntimeError(f"fcmreduce imported from {pipeline.__file__}, not {source}")
    return elapsed, cfg, agents, graph


def environment() -> dict:
    import importlib.util

    import networkx
    import numpy

    return {
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def timed(workload: dict, seed: int, recorded_seed: int, run_dir: str, budget_s: float) -> dict:
    """Set up once, then make calls until the next one would end past
    budget_s. A call that raises or fails its checks is recorded and the
    next input is tried."""
    start = time.monotonic()
    setup_s, _cfg, agents, graph = set_up(workloads.config_for(workload, seed))
    del agents, graph
    longest = 0.0
    calls = []
    while not calls or time.monotonic() - start + longest <= budget_s:
        call_start = time.monotonic()
        config = workloads.config_for(workload, workloads.instance_seed(seed, len(calls)))
        call = {"call": len(calls), "seed": config["seed"]}
        call_dir = os.path.join(run_dir, str(len(calls)))
        try:
            os.makedirs(call_dir)
            begin = time.perf_counter()
            out_dir = workloads.run_route(workload["route"], config, call_dir)
            call["wall_s"] = time.perf_counter() - begin
            call["digest"] = checks.check_run(
                workload["route"], config, out_dir, call_dir,
                checks.expected_digest(workload, recorded_seed, config["seed"]),
            )
            call["ok"] = True
        except Exception:  # recorded as a failed call; the run goes on
            call["ok"] = False
            call["error"] = traceback.format_exc()
        finally:
            shutil.rmtree(call_dir, ignore_errors=True)
        print(json.dumps(call), flush=True)
        calls.append(call)
        longest = max(longest, time.monotonic() - call_start)
    return {"setup_s": setup_s, "calls": len(calls), "peak_rss_mb": peak_rss_mb(),
            "ok": all(c["ok"] for c in calls), "env": environment()}


def traced(workload: dict, config: dict, expected, run_dir: str, trace_path: str) -> dict:
    _setup_s, cfg, agents, _graph = set_up(config)
    tracer = Tracer(run_id=os.path.basename(run_dir))
    probe = LayerProbe(tracer)
    probe.install()
    try:
        with tracer.span("run", "bench") as root:
            out_dir = workloads.run_route(
                workload["route"], config, run_dir,
                span=lambda stage: tracer.span(f"cli.{stage}", "cli"),
            )
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    artifact_bytes = tree_bytes(out_dir)
    digest = checks.check_run(workload["route"], config, out_dir, run_dir, expected)
    checks.check_triad_split(probe.profile_calls, agents, cfg)
    metrics = probe.metrics(
        tracer.spans, root, artifact_bytes, settle_counts(agents, cfg.settings())
    )
    return {"wall_s": root.duration, "digest": digest, "metrics": metrics,
            "env": environment()}


def main(argv) -> int:
    mode, name, seed, work_dir = argv[1], argv[2], int(argv[3]), argv[4]
    budget_s = float(argv[5]) if len(argv) > 5 else 0.0
    spec = workloads.load_spec()
    workload = spec["workloads"][name]
    config = workloads.config_for(workload, seed)
    expected = checks.expected_digest(workload, spec["recorded_seed"], seed)
    result = {"mode": mode, "workload": name, "seed": seed}
    run_dir = tempfile.mkdtemp(prefix=f"{name}-{seed}-{mode}-", dir=work_dir)
    try:
        if mode == "setup":
            result["setup_s"] = set_up(config)[0]
            result["ok"] = True
        elif mode == "timed":
            result.update(timed(workload, seed, spec["recorded_seed"], run_dir, budget_s))
        elif mode == "traced":
            trace_path = os.path.join(work_dir, f"spans-{name}-{seed}.json")
            result.update(traced(workload, config, expected, run_dir, trace_path))
            result["ok"] = True
        else:
            raise ValueError(f"unknown mode {mode!r}")
    except Exception:  # the parent counts this run as failed and shows why
        result["ok"] = False
        result["error"] = traceback.format_exc()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
