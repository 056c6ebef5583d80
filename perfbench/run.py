"""fcmreduce benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every measurement happens in a worker
process (worker.py) started fresh with the checkout's src/ on PYTHONPATH,
so set-up time and peak memory are those a user pays.

--trace 0: five set-up-only workers, then one timed worker that sets up
and calls the workload's entry point on input k = 0, 1, ... (the config
at workloads.instance_seed(N, k)) until the next call would end past S
seconds. Prints wall_s (median over the calls), setup_s (median over the
six set-ups) and peak_rss_mb (of the timed worker).

--trace 1: three untraced workers and one traced worker, each making one
call on input 0. The traced worker wraps the public layer functions with
spans and prints the per-layer metrics; its output digest must equal the
untraced ones, and trace.overhead_s is its wall time minus the untraced
median.

Every call is checked outside the timed region (see checks.py). Each call
and each other worker is one attempt; one that raises or fails a check
counts in "failed". The last stdout line is the result object; the line
before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from layers import PER_LAYER_UNITS
from workloads import load_spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_SAMPLES = 5  # set-up-only workers; the timed worker adds a sixth sample
UNTRACED_SAMPLES = 3  # untraced calls the traced call's wall time is compared with
RUN_LIMIT_S = 170.0  # a run must end within 180 s
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
    }


def parse_output(stdout: str) -> tuple:
    """(calls, summary) from a worker's stdout: the JSON lines with "call"
    set, and the last line if it is a summary (else a failed one)."""
    records = []
    for line in stdout.splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            records.append(record)
    calls = [r for r in records if "call" in r]
    summary = records[-1] if records and "call" not in records[-1] else {"ok": False}
    return calls, summary


def attempts(calls: list, summary: dict) -> list:
    """A worker's attempts: one record per call, plus its summary when it
    made no call or failed outside its calls (set-up raised, or it died)."""
    if not calls or (not summary["ok"] and all(c["ok"] for c in calls)):
        return calls + [summary]
    return calls


class Runner:
    """Starts worker processes, one at a time, and collects their results.
    attempts holds one record per call and per other worker, each with
    "ok"."""

    def __init__(self, workload: str, seed: int, work_dir: str, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.workers: list = []
        self.attempts: list = []

    def spawn(self, mode: str, budget_s: float = 0.0) -> dict:
        """Run one worker; returns its summary with its calls under "calls"."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, self.workload,
               str(self.seed), self.work_dir, repr(budget_s)]
        paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        start = time.monotonic()
        try:
            # run() kills the worker on timeout and waits for it to end
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - start),
            )
            calls, summary = parse_output(proc.stdout)
        except subprocess.TimeoutExpired:
            proc, calls, summary = None, [], {"ok": False, "error": "worker timed out"}
        if proc is not None and proc.returncode != 0:
            summary["ok"] = False
            summary.setdefault("error", proc.stderr[-2000:])
        summary.update(mode=mode, elapsed_s=time.monotonic() - start, calls=calls)
        self.workers.append(summary)
        self.attempts += attempts(calls, summary)
        for record in calls + [summary]:
            if not record["ok"] and "error" in record:
                print(f"{mode} worker failed: {record['error']}", file=sys.stderr)
        return summary

    def failed(self) -> int:
        return sum(not r["ok"] for r in self.attempts)


def timed_run(runner: Runner, seconds: float) -> dict:
    start = time.monotonic()
    setups = [runner.spawn("setup") for _ in range(SETUP_SAMPLES)]
    worker = runner.spawn("timed", seconds - (time.monotonic() - start))
    setups = [r["setup_s"] for r in setups + [worker] if "setup_s" in r]
    walls = [c["wall_s"] for c in worker["calls"] if c["ok"]]
    if not walls or not setups or "peak_rss_mb" not in worker:
        return {}
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": worker["peak_rss_mb"],
    }


def traced_run(runner: Runner) -> dict:
    untraced = [c for _ in range(UNTRACED_SAMPLES) for c in runner.spawn("timed")["calls"]
                if c["ok"]]
    traced = runner.spawn("traced")
    if not (untraced and traced["ok"]):
        return {}
    if any(c["digest"] != traced["digest"] for c in untraced):
        traced["ok"] = False
        print("traced output digest differs from the untraced one", file=sys.stderr)
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_s"] = traced["wall_s"] - statistics.median(
        c["wall_s"] for c in untraced)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "fcmreduce", "__init__.py")):
        print(f"no fcmreduce sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in spec["workloads"]:
        print(f"unknown workload {args.workload!r}; valid: {sorted(spec['workloads'])}",
              file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(work_dir, exist_ok=True)
    env = environment()
    runner = Runner(args.workload, args.seed, work_dir, start + RUN_LIMIT_S)
    if args.trace:
        values = traced_run(runner)
        units = PER_LAYER_UNITS
    else:
        values = timed_run(runner, args.seconds)
        units = END_TO_END_UNITS
    if not values:
        print("no successful measurement; no result", file=sys.stderr)
        return 1
    workers = [r for r in runner.workers if r.get("env")]
    if workers:
        env.update(workers[0]["env"])
    details = {"environment": env, "workers": [
        {k: v for k, v in r.items() if k not in ("metrics", "env")} for r in runner.workers
    ]}
    with open(os.path.join(work_dir, f"run-{args.workload}-{args.seed}-{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    print(json.dumps({"environment": env}))
    failed = runner.failed()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runner.attempts),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
