"""Acceptance suite: one test (or test group) per release criterion, each
printing a PASS/FAIL line. Heavier fidelity checks run on a 200-agent model
by default; set FCMREDUCE_FULL_ACCEPTANCE=1 for the full 722-agent
configuration with identical assertions.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from fcmreduce.analysis import output_kl, summarize
from fcmreduce.community import (
    Partition,
    agglomerative_modularity,
    chinese_whispers,
    weighted_modularity,
)
from fcmreduce.harness import RunSpec, run_distribution
from fcmreduce.fcm import SimulationSettings
from fcmreduce.pipeline import (
    PipelineConfig,
    config_from_dict,
    run_pipeline,
    stage_cluster,
    stage_population,
    stage_reduce,
    stage_simulate,
    stage_topology,
    stage_weigh,
)
from fcmreduce.population import build_obesity_fcm
from fcmreduce.reduction import contract, select_representatives
from fcmreduce.similarity import (
    METRIC_KINDS,
    MetricConfig,
    StructuralView,
    kl_from_samples,
    ks_statistic,
    tsp_distance,
    weigh_ties,
)
from fcmreduce.triads import triad_census

from conftest import random_fcm
from test_community import brute_force_best_two_partition, two_cliques
from test_population import OBESITY_TABLE
from test_similarity import brute_force_census, brute_force_ks, pair_distance

FULL = os.environ.get("FCMREDUCE_FULL_ACCEPTANCE") == "1"
FIDELITY_AGENTS = 722 if FULL else 200


def report_line(criterion, ok, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")


# --- 1. worked tie-weight example ------------------------------------------

def test_criterion_1_worked_tie_weight_example():
    def with_n(n):
        labels = tuple(f"X{i}" for i in range(n))
        w = np.zeros((n, n))
        w[0, 1] = 0.5
        from fcmreduce.fcm import Fcm

        return Fcm(labels, w, np.zeros(n))

    from fcmreduce.similarity import concept_count_distance

    d = concept_count_distance(with_n(6), with_n(7))
    ok = abs(d - 0.076923) <= 1e-6 and abs(d - 1 / 13) <= 1e-9
    report_line(1, ok, f"concept-count (6,7) -> {d:.9f}")
    assert abs(d - 1 / 13) <= 1e-9


# --- 2. obesity golden FCM ---------------------------------------------------

def test_criterion_2_obesity_golden():
    f = build_obesity_fcm()
    view = StructuralView(epsilon=0.0)
    adj = view.adjacency(f)
    density = adj.sum() / (f.n * (f.n - 1))
    receivers = int(np.sum(adj.any(axis=0) & ~adj.any(axis=1)))
    transmitters = int(np.sum(adj.any(axis=1) & ~adj.any(axis=0)))
    triples_ok = sorted(f.edges()) == sorted(OBESITY_TABLE)
    ok = (
        f.n == 13
        and f.edge_count == 20
        and triples_ok
        and abs(density - 0.128205) <= 1e-6
        and receivers == 1
        and transmitters == 5
    )
    report_line(
        2, ok,
        f"n={f.n} edges={f.edge_count} density={density:.6f} R={receivers} T={transmitters}",
    )
    assert f.n == 13 and f.edge_count == 20
    assert triples_ok
    assert abs(density - 0.128205) <= 1e-6
    assert (receivers, transmitters) == (1, 5)


# --- 3. metric property suite ------------------------------------------------

BOUNDED_METRICS = {
    "concept_count", "density", "rt_ratio", "clustering", "tsp",
    "jaccard_edges", "ks_edges", "centrality_cosine", "compare_graphs",
}


def test_criterion_3_metric_properties_200_pairs():
    rng = np.random.default_rng(2024)
    cfg = MetricConfig(view=StructuralView(0.05), seed=17)
    checked = 0
    for pair_index in range(200):
        a = random_fcm(rng, prefix="C")
        b = random_fcm(rng, prefix="C")
        for kind in METRIC_KINDS:
            if kind == "tsp":
                d_aa = tsp_distance(a, a, cfg.view, seed=pair_index)
                d_ab = tsp_distance(a, b, cfg.view, seed=pair_index)
                d_ba = tsp_distance(b, a, cfg.view, seed=pair_index)
            else:
                d_aa = pair_distance(kind, a, a, cfg)
                d_ab = pair_distance(kind, a, b, cfg)
                d_ba = pair_distance(kind, b, a, cfg)
            assert d_aa == pytest.approx(0.0, abs=1e-9), f"identity broken: {kind}"
            assert d_ab == pytest.approx(d_ba, abs=1e-9), f"symmetry broken: {kind}"
            assert d_ab >= 0.0, f"negative distance: {kind}"
            if kind in BOUNDED_METRICS:
                assert d_ab <= 1.0 + 1e-9, f"range broken: {kind}"
            checked += 1
    report_line(3, True, f"identity/symmetry/range on {checked} metric evaluations")


def test_criterion_3_triad_census_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(3, 8))
        adj = rng.random((n, n)) < rng.uniform(0.1, 0.8)
        np.fill_diagonal(adj, False)
        census = triad_census(adj)
        assert census.sum() == math.comb(n, 3)
        oracle = brute_force_census(adj)
        assert sorted(census[census > 0].tolist()) == sorted(oracle.values())
    report_line(3, True, "triad census == brute-force triple classification (n<=7)")


def test_criterion_3_ks_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(60):
        x = rng.uniform(-1, 1, size=int(rng.integers(1, 51)))
        y = rng.uniform(-1, 1, size=int(rng.integers(1, 51)))
        assert ks_statistic(x, y) == pytest.approx(brute_force_ks(x, y), abs=1e-12)
    report_line(3, True, "two-sample KS == brute-force sup (samples <= 50)")


def test_criterion_3_kl_properties():
    rng = np.random.default_rng(9)
    edges = np.linspace(0, 1, 11)
    for _ in range(50):
        p = rng.uniform(0, 1, size=int(rng.integers(1, 40)))
        q = rng.uniform(0, 1, size=int(rng.integers(1, 40)))
        assert kl_from_samples(p, p, edges, 1e-6) == 0.0
        assert kl_from_samples(p, q, edges, 1e-6) >= 0.0
    report_line(3, True, "KL(P,P)=0 and KL>=0")


# --- 4. community sanity -----------------------------------------------------

def test_criterion_4_two_cliques():
    graph, weights = two_cliques(10, bridge_sim=0.01, clique_sim=1.0)
    cliques = {frozenset(range(10)), frozenset(range(10, 20))}

    cw = chinese_whispers(graph, weights, seed=3)
    cw_groups = {frozenset(ms) for ms in cw.members().values()}

    agg = agglomerative_modularity(graph, weights)
    agg_groups = {frozenset(ms) for ms in agg.members().values()}

    side, best_q = brute_force_best_two_partition(graph, weights)
    oracle_groups = {side, frozenset(range(20)) - side}
    agg_q = weighted_modularity(graph, weights, agg.assignment)

    ok = (
        cw_groups == cliques
        and agg_groups == cliques
        and oracle_groups == cliques
        and agg_q == pytest.approx(best_q, abs=1e-12)
    )
    report_line(
        4, ok,
        f"chinese_whispers c={cw.count}, agglomerative c={agg.count}, "
        f"brute-force best 2-partition modularity={best_q:.4f}",
    )
    assert cw_groups == cliques
    assert agg_groups == cliques
    assert oracle_groups == cliques
    assert agg_q == pytest.approx(best_q, abs=1e-12)


# --- 5. identity reduction ---------------------------------------------------

def test_criterion_5_identity_reduction():
    cfg = PipelineConfig(
        source="cmaes-style", count=50, topology="small_world", k=4,
        rounds=3, repeats=20, seed=31,
    )
    agents = stage_population(cfg)
    graph = stage_topology(cfg, agents)
    partition = Partition({a.id: a.id for a in agents})
    reps = select_representatives(agents, partition)
    model = contract(agents, graph, partition, reps, seed=cfg.seed)

    iso = (
        [a.id for a in model.agents] == [a.id for a in agents]
        and model.graph.ties == graph.ties
        and model.graph.channels == graph.channels
        and model.removed_count == 0
    )
    original = stage_simulate(cfg, agents, graph)
    reduced = stage_simulate(cfg, model.agents, model.graph)
    identical = np.array_equal(original.samples, reduced.samples)
    kl = output_kl(reduced, original)
    ok = iso and identical and kl == 0.0
    report_line(5, ok, f"isomorphic={iso} samples identical={identical} KL={kl}")
    assert iso
    assert identical
    assert kl == 0.0


# --- 6. desk-scale fidelity --------------------------------------------------

@pytest.fixture(scope="module")
def fidelity_grid():
    cfg = PipelineConfig(
        source="cmaes-style", count=FIDELITY_AGENTS, topology="small_world",
        algorithm="chinese_whispers", repeats=100, rounds=10, seed=42,
        workers=2,  # samples do not depend on workers (criterion 8); runs on up to 2 CPUs
    )
    agents = stage_population(cfg)
    graph = stage_topology(cfg, agents)
    original = stage_simulate(cfg, agents, graph)
    cells = {}
    for metric in METRIC_KINDS:
        cell = replace(cfg, metric=metric)
        weights = stage_weigh(cell, agents, graph)
        partition = stage_cluster(cell, graph, weights)
        reduced = stage_reduce(cell, agents, graph, partition)
        simplified = stage_simulate(cell, reduced.agents, reduced.graph)
        cells[metric] = {
            "communities": partition.count,
            "stats": summarize(simplified),
            "kl": output_kl(simplified, original),
        }
    return {"original": summarize(original), "cells": cells}


def test_criterion_6a_means_track(fidelity_grid):
    mean_o = fidelity_grid["original"]["mean"]
    drifts = {
        metric: abs(cell["stats"]["mean"] - mean_o)
        for metric, cell in fidelity_grid["cells"].items()
    }
    failing = {m: round(d, 4) for m, d in drifts.items() if d > 0.03}
    ok = not failing
    report_line(
        "6a", ok,
        f"n={FIDELITY_AGENTS}; |mean(simplified)-mean(original)| <= 0.03 for "
        f"{11 - len(failing)}/11 metrics"
        + (f"; over budget: {failing}" if failing else ""),
    )
    assert ok, (
        "simplified-model means drift beyond 0.03 for "
        f"{len(failing)}/11 metrics ({failing}); the drift is the frozen "
        "sampling error of collapsing bimodal per-agent attractors onto "
        "median representatives, so it does not shrink with more repeats"
    )


def test_criterion_6b_uncertainty_grows(fidelity_grid):
    std_o = fidelity_grid["original"]["std"]
    grew = [
        metric
        for metric, cell in fidelity_grid["cells"].items()
        if cell["stats"]["std"] >= std_o
    ]
    ok = std_o <= 0.02 and len(grew) >= 8
    report_line(
        "6b", ok,
        f"std(original)={std_o:.4f} <= 0.02; std(simplified) >= std(original) "
        f"for {len(grew)}/11 metrics",
    )
    assert std_o <= 0.02
    assert len(grew) >= 8


def test_criterion_6c_output_kl_small(fidelity_grid):
    kls = {m: cell["kl"] for m, cell in fidelity_grid["cells"].items()}
    passing = [m for m, kl in kls.items() if kl <= 0.05]
    ok = len(passing) >= 8
    report_line(
        "6c", ok,
        f"output KL <= 0.05 for {len(passing)}/11 metrics "
        f"(range {min(kls.values()):.3f}-{max(kls.values()):.3f})",
    )
    assert ok, (
        f"output KL <= 0.05 held for {len(passing)}/11 metrics; with 1e-6 "
        "count smoothing a single simplified sample falling in a histogram "
        "bin the original never hit already costs ~0.14, and a wider "
        "simplified distribution (which criterion 6b requires) always "
        "produces such samples"
    )


# --- 7. community structure responds to metric and topology -------------------

def test_criterion_7_community_counts_vary():
    cfg = PipelineConfig(
        source="cmaes-style", count=722, algorithm="chinese_whispers", seed=42,
    )
    agents = stage_population(cfg)
    counts = {}
    for topology in ("scale_free", "small_world"):
        top_cfg = replace(cfg, topology=topology)
        graph = stage_topology(top_cfg, agents)
        for metric in METRIC_KINDS:
            cell = replace(top_cfg, metric=metric)
            weights = stage_weigh(cell, agents, graph)
            partition = stage_cluster(cell, graph, weights)
            counts[(topology, metric)] = partition.count
    distinct = len(set(counts.values()))
    per_topology_varies = all(
        len({counts[(topo, m)] for m in METRIC_KINDS}) >= 2
        for topo in ("scale_free", "small_world")
    )
    ok = distinct >= 3 and per_topology_varies
    report_line(
        7, ok,
        f"{distinct} distinct community counts over 2 topologies x 11 metrics; "
        f"varies within each topology: {per_topology_varies}",
    )
    assert distinct >= 3
    assert per_topology_varies


# --- 8. determinism and schedule independence ---------------------------------

def test_criterion_8_determinism(tmp_path):
    cfg = config_from_dict(
        {
            "source": "cmaes-style", "count": 50, "topology": "small_world",
            "k": 4, "metric": "compare_graphs", "rounds": 3, "repeats": 30,
            "seed": 77,
        }
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_pipeline(cfg, out_dir=str(out_a))
    run_pipeline(cfg, out_dir=str(out_b))
    byte_identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in (
            "report.json", "ties.csv", "partition.csv",
            "distribution_original.csv", "distribution_reduced.csv",
        )
    )

    agents = stage_population(cfg)
    graph = stage_topology(cfg, agents)
    spec = RunSpec(
        output_concept="Awareness",
        settings=SimulationSettings("Awareness"),
        rounds=3, repeats=30, master_seed=77,
    )
    serial = run_distribution(agents, graph, spec, workers=1)
    parallel = run_distribution(agents, graph, spec, workers=4)
    schedule_independent = np.array_equal(serial.samples, parallel.samples)

    ok = byte_identical and schedule_independent
    report_line(
        8, ok,
        f"byte-identical artifacts={byte_identical}, "
        f"parallel==serial samples={schedule_independent}",
    )
    assert byte_identical
    assert schedule_independent
