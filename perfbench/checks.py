"""Output checks run after each timed call, outside the timed region.

A run passes when:
- at the recorded seed, the sha256 of its report.json (or sweep.csv)
  equals the digest stored for the workload;
- sample 0 of the reduced model's distribution matches
  run_once_reference within 1e-12;
- the report round-trips through report_from_json with finite stats.
A sweep is checked by re-running its largest-reduced-model cell through
run_pipeline and requiring that cell's row to match the sweep's row.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

from workloads import output_name

REFERENCE_TOLERANCE = 1e-12


class CheckError(Exception):
    """A run's output failed a correctness check."""


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_digest(digest: str, expected: str | None) -> None:
    if expected is not None and digest != expected:
        raise CheckError(f"output sha256 {digest} differs from the recorded {expected}")


def check_report_text(text: str) -> None:
    """report_from_json must accept the text, re-serialize it to the same
    bytes, and every statistic must be finite."""
    from fcmreduce.analysis import report_from_json, report_to_json

    report = report_from_json(text)
    if report_to_json(report) != text:
        raise CheckError("report.json does not round-trip through report_from_json")
    stats = [report.kl_divergence, *report.original.values(), *report.simplified.values()]
    if not all(math.isfinite(v) for v in stats):
        raise CheckError(f"report holds non-finite statistics: {stats}")


def load_reduced_model(out_dir):
    """The reduced model rebuilt from the files a run wrote."""
    from fcmreduce.population import Agent, import_population, import_topology
    from fcmreduce.reduction import import_provenance

    provenance = import_provenance(os.path.join(out_dir, "provenance.json"))
    rep_ids = sorted(e["representative"] for e in provenance["communities"].values())
    fcms = import_population(os.path.join(out_dir, "reduced_population.json"))
    if len(fcms) != len(rep_ids):
        raise CheckError("reduced population and provenance disagree on size")
    agents = [Agent(i, f) for i, f in zip(rep_ids, fcms)]
    graph = import_topology(os.path.join(out_dir, "reduced_topology.csv"), rep_ids)
    return agents, graph


def check_reference_sample(config: dict, out_dir) -> None:
    """Sample 0 of distribution_reduced.csv against the slow oracle."""
    from fcmreduce.harness import import_distribution, run_once_reference
    from fcmreduce.pipeline import config_from_dict
    from fcmreduce.seeding import seed_sequence

    cfg = config_from_dict(config)
    agents, graph = load_reduced_model(out_dir)
    sample = float(import_distribution(os.path.join(out_dir, "distribution_reduced.csv")).samples[0])
    expected = run_once_reference(agents, graph, cfg.run_spec(), seed_sequence(cfg.seed, "run", 0))
    if not abs(sample - expected) <= REFERENCE_TOLERANCE:
        raise CheckError(
            f"reduced sample 0 = {sample!r}, run_once_reference gives {expected!r}"
        )


def check_pipeline_outputs(config: dict, out_dir) -> None:
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        check_report_text(fh.read())
    check_reference_sample(config, out_dir)


def read_sweep(path) -> list:
    from fcmreduce.analysis import SWEEP_HEADER
    from fcmreduce.pipeline import COMMUNITY_ALGORITHMS, METRIC_KINDS, TOPOLOGY_KINDS

    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != SWEEP_HEADER:
        raise CheckError(f"unexpected sweep header {rows[:1]}")
    cells = len(TOPOLOGY_KINDS) * len(METRIC_KINDS) * len(COMMUNITY_ALGORITHMS)
    if len(rows) - 1 != cells:
        raise CheckError(f"sweep has {len(rows) - 1} rows, expected {cells}")
    for row in rows[1:]:
        if not all(math.isfinite(float(v)) for v in row[3:]):
            raise CheckError(f"sweep row holds non-finite values: {row}")
    return rows[1:]


def check_sweep_outputs(config: dict, out_dir, cell_dir) -> None:
    """Re-run the cell with the most communities on its own and require
    its sweep row, report and reduced sample to check out."""
    from fcmreduce.analysis import SWEEP_HEADER, sweep_row
    from fcmreduce.pipeline import config_from_dict, run_pipeline

    rows = read_sweep(os.path.join(out_dir, "sweep.csv"))
    communities = SWEEP_HEADER.index("communities")
    row = max(rows, key=lambda r: int(r[communities]))
    topology, metric, algorithm = row[0], row[1], row[2]
    cell = dict(config, topology=topology, metric=metric, algorithm=algorithm)
    result = run_pipeline(config_from_dict(cell), cell_dir)
    if [str(v) for v in sweep_row(result.report, topology, metric, algorithm)] != row:
        raise CheckError(f"cell {topology}/{metric}/{algorithm} does not reproduce its sweep row")
    check_pipeline_outputs(cell, cell_dir)


def check_run(route: str, config: dict, out_dir, scratch_dir, expected_digest) -> str:
    """All checks for one run; returns the output digest."""
    digest = sha256_file(os.path.join(out_dir, output_name(route)))
    check_digest(digest, expected_digest)
    if route == "sweep":
        check_sweep_outputs(config, out_dir, os.path.join(scratch_dir, "cell"))
    else:
        check_pipeline_outputs(config, out_dir)
    return digest


def check_triad_split(calls, agents, cfg) -> None:
    """Rebuild triad_profile from degree_preserving_randomization and
    triad_census fed the same seed, and require an exact match. calls are
    (args, kwargs, profile) recorded from the traced run; when the run drew
    no profiles, the first three agents are profiled here."""
    import inspect

    import numpy as np
    from fcmreduce import similarity, triads
    from fcmreduce.seeding import int_seed

    if not calls:
        mc = cfg.metric_config()
        calls = []
        for agent in agents[:3]:
            args = (agent.fcm, mc.view, mc.tsp_ensemble, mc.tsp_swaps_per_edge,
                    int_seed(cfg.seed, "tsp", agent.id))
            calls.append((args, {}, similarity.triad_profile(*args)))
    signature = inspect.signature(similarity.triad_profile)
    for args, kwargs, profile in calls:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        rng = np.random.default_rng(a["seed"])
        adjacency = a["view"].adjacency(a["f"])
        observed = triads.triad_census(adjacency).astype(np.float64)
        ensemble = np.array([
            triads.triad_census(
                triads.degree_preserving_randomization(adjacency, a["swaps_per_edge"], rng))
            for _ in range(a["ensemble_size"])
        ], dtype=np.float64)
        mean, std = ensemble.mean(axis=0), ensemble.std(axis=0)
        z = np.zeros(16)
        varying = std > 0
        z[varying] = (observed[varying] - mean[varying]) / std[varying]
        norm = np.linalg.norm(z)
        if norm > 0:
            z = z / norm
        if not np.array_equal(z, profile):
            raise CheckError(f"triad split does not reproduce triad_profile (seed {a['seed']})")


def expected_digest(workload: dict, recorded_seed: int, seed: int):
    return workload.get("digest") if seed == recorded_seed else None
