"""Stochastic interaction harness for hybrid agent/FCM models.

One run initializes every agent from its FCM's initial activation, then for
a fixed number of rounds visits every social tie once in a seeded random
order. At each tie the agent with the lower value on the tie's channel
concept copies the higher agent's value into that concept and re-simulates
its FCM to stabilization; the higher agent is unchanged. The run's output
is the population mean of a designated concept after the final round.

Run i draws its own RNG stream from (master_seed, "run", i), so the original
and reduced models share per-run seeds, and no run's sample depends on the
runs made before it. run_distribution therefore splits its runs over up to
min(workers, repeats, CPUs) processes forked from this one, as many as
the runs' tie visits pay for, and its samples never depend on workers. The
run loop keeps one activation array per agent and settles it with
fcm.settle() on the agent's own Fcm.weights, the kernel and the weights
simulate() uses, so run_once equals the slow interact()-based
run_once_reference bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, ContractError, as_config_error, check_integer
from .fcm import SimulationSettings, check_unit_interval, settle, simulate
from .files import read_csv, write_csv, write_json
from .forking import forking
from .population import Agent, SocialGraph, agents_by_id, channel_index
from .seeding import seed_sequence


@dataclass(frozen=True)
class RunSpec:
    """How to run one experiment: rounds per run, repeats, what to measure."""

    output_concept: str
    settings: SimulationSettings
    rounds: int = 10
    repeats: int = 100
    master_seed: int = 0

    def __post_init__(self):
        for name, low in (("rounds", 1), ("repeats", 1), ("master_seed", None)):  # plain for JSON
            object.__setattr__(self, name, check_integer(name, getattr(self, name), ConfigError, low))


@dataclass
class OutputDistribution:
    """Per-run scalar outputs over the repeats, ordered by run index."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1 or len(s) == 0:
            raise ContractError("a distribution needs at least one sample")
        self.samples = check_unit_interval(s, "output samples")


def interact(a: Agent, b: Agent, channel: str, settings: SimulationSettings):
    """One social interaction over a shared concept.

    The agent with the lower channel value takes the higher agent's value
    into that concept and re-simulates its FCM to stabilization; the other
    agent is unchanged. Equal values are a no-op. Returns the (possibly
    updated) pair (a, b).
    """
    ia, ib = channel_index(a, b, channel)
    va = a.fcm.activation[ia]
    vb = b.fcm.activation[ib]
    if va == vb:
        return a, b
    if va < vb:
        low, idx, value = a, ia, vb
    else:
        low, idx, value = b, ib, va
    start = low.fcm.activation.copy()
    start[idx] = value
    final, _, _ = simulate(low.fcm, start, settings)
    updated = Agent(low.id, low.fcm.with_activation(final))
    return (updated, b) if va < vb else (a, updated)


def check_watched(agents, spec: RunSpec) -> None:
    """The rule that every agent's map holds the run's output and
    stabilization concepts: ConfigError naming the first concept, in that
    order, that a map lacks and the first agent, by id, whose map lacks it."""
    ordered = sorted(agents, key=lambda a: a.id)
    for which, label in (("output", spec.output_concept),
                         ("stabilization", spec.settings.stabilization_concept)):
        for agent in ordered:
            if label not in agent.fcm.concepts:
                raise ConfigError(f"{which} concept {label!r} missing from agent {agent.id}'s FCM")


class _ModelArrays:
    """Population packed into per-agent arrays and tie index tuples for the
    run loop."""

    def __init__(self, agents: list[Agent], graph: SocialGraph, spec: RunSpec):
        channels = graph.assigned_channels()
        if not graph.nodes:
            raise ConfigError("run needs at least one agent")
        # the model's population is the graph's node set
        by_id = agents_by_id(agents, graph.nodes)
        pos = {v: p for p, v in enumerate(by_id)}
        check_watched(by_id.values(), spec)
        fcms = [a.fcm for a in by_id.values()]
        self.weights = [fcm.weights for fcm in fcms]
        self.act0 = [fcm.activation for fcm in fcms]
        self.stab_idx = [fcm.index_of(spec.settings.stabilization_concept) for fcm in fcms]
        self.out_idx = [fcm.index_of(spec.output_concept) for fcm in fcms]
        # (i, j, channel index in i, channel index in j) per tie
        self.ties = [(pos[i], pos[j], *channel_index(by_id[i], by_id[j], channels[(i, j)]))
                     for i, j in graph.ties]
        self.spec = spec

    def run(self, run_seed) -> float:
        rng = np.random.default_rng(run_seed)
        settings = self.spec.settings
        ties = self.ties
        act = [a.copy() for a in self.act0]
        for _ in range(self.spec.rounds):
            for t in rng.permutation(len(ties)).tolist():
                i, j, ci, cj = ties[t]
                vi = act[i][ci]
                vj = act[j][cj]
                if vi == vj:
                    continue
                if vi < vj:
                    low, idx, value = i, ci, vj
                else:
                    low, idx, value = j, cj, vi
                act[low][idx] = value
                act[low] = settle(self.weights[low], act[low], self.stab_idx[low], settings)[0]
        return float(np.mean([a[o] for a, o in zip(act, self.out_idx)]))


def run_once(agents: list[Agent], graph: SocialGraph, spec: RunSpec, run_seed) -> float:
    """One stochastic run; the tie visiting order is drawn from run_seed."""
    return _ModelArrays(agents, graph, spec).run(run_seed)


def run_once_reference(agents: list[Agent], graph: SocialGraph, spec: RunSpec, run_seed) -> float:
    """Same semantics as run_once, composed from the public interact() and
    simulate() operations. Slow; used to cross-check the packed run loop."""
    channels = graph.assigned_channels()
    current = agents_by_id(agents, graph.nodes)
    check_watched(current.values(), spec)
    rng = np.random.default_rng(run_seed)
    ties = list(graph.ties)
    for _ in range(spec.rounds):
        for t in rng.permutation(len(ties)):
            i, j = ties[int(t)]
            a, b = interact(current[i], current[j], channels[(i, j)], spec.settings)
            current[i], current[j] = a, b
    values = [a.fcm.activation[a.fcm.index_of(spec.output_concept)] for a in current.values()]
    return float(np.mean(values))


def run_distribution(
    agents: list[Agent], graph: SocialGraph, spec: RunSpec, workers: int = 1
) -> OutputDistribution:
    """spec.repeats independent runs; run i uses the RNG stream derived from
    (master_seed, "run", i), and the samples are in run-index order.

    workers caps the processes the runs are split over: w = min(workers,
    repeats, usable CPUs, blocks of at least _MIN_BLOCK_VISITS tie
    visits). Run i is made in block i mod w, this process makes block 0 and
    a child forked from it each other block. The samples never depend on
    workers, and a run that raises reaches the caller as the error a serial
    run raises. Without os.fork the runs are serial."""
    workers = check_integer("workers", workers, ConfigError, 1)
    model = _ModelArrays(agents, graph, spec)
    seeds = [seed_sequence(spec.master_seed, "run", i) for i in range(spec.repeats)]
    w = _process_count(workers, spec.repeats, spec.rounds * len(model.ties))
    return OutputDistribution(np.array(_forked_samples(model, seeds, w)))


# A forked child costs its caller about 3 ms (fork, pipe, reaping) in the
# 36 MB process of a 200-agent run on a 2-CPU x86-64 host, and 7 ms at
# 235 MB. A tie visit took 7-18 us on the benchmark's 13- and 15-concept
# maps there, so a block of this many visits (about 20 ms) is worth a child
_MIN_BLOCK_VISITS = 2000


def _process_count(workers: int, repeats: int, run_visits: int) -> int:
    """Processes for repeats runs of run_visits tie visits each: at most
    workers, repeats and the CPUs this process may run on, and few enough
    that each block holds _MIN_BLOCK_VISITS visits."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(workers, repeats, cpus, repeats * run_visits // _MIN_BLOCK_VISITS))


def _block(model: _ModelArrays, seeds: list, runs: range) -> tuple:
    """The given runs in order: (None, samples), or (i, error) at the first
    run i that raises."""
    samples = []
    for i in runs:
        try:
            samples.append(model.run(seeds[i]))
        except Exception as exc:
            return i, exc
    return None, samples


def _forked_samples(model: _ModelArrays, seeds: list, w: int) -> list:
    """Every run's sample in run-index order: block b (runs b, b + w, ...)
    is made by a child forked for it (b >= 1) or by this process (b = 0)."""
    n = len(seeds)
    with forking() as fork:
        children = [
            fork(f"the process making runs {b}, {b + w}, ...", _block, model, seeds, range(b, n, w))
            for b in range(1, w)
        ]
        blocks = [_block(model, seeds, range(0, n, w))]
        for b, child in enumerate(children, 1):
            try:
                blocks.append(child.result())
            except ChildProcessError as exc:
                blocks.append((b, exc))
    failures = [block for block in blocks if block[0] is not None]
    if failures:
        raise min(failures, key=lambda block: block[0])[1]
    samples = [0.0] * n
    for b, (_, block_samples) in enumerate(blocks):
        samples[b::w] = block_samples
    return samples


# ---------------------------------------------------------------------------
# Distribution file I/O: CSV run_index,output_value plus a JSON sidecar
# with the run spec and master seed.

_DISTRIBUTION_HEADER = ["run_index", "output_value"]
_DISTRIBUTION_TYPES = (int, float)


def export_distribution(dist: OutputDistribution, spec: RunSpec, path, sidecar_path) -> None:
    write_csv(path, _DISTRIBUTION_HEADER, (
        [idx, repr(float(value))] for idx, value in enumerate(dist.samples)
    ))
    write_json(sidecar_path, asdict(spec))


def import_distribution(path) -> OutputDistribution:
    """Read a distribution CSV. Its run_index column must read 0..n-1 in
    file order: sample i is the run seeded from (master_seed, "run", i)."""
    samples = []
    for index, value in read_csv(path, _DISTRIBUTION_HEADER, "distribution", _DISTRIBUTION_TYPES):
        if index != len(samples):
            raise ConfigError(
                f"distribution row {index},{value!r} in {path} should have run_index {len(samples)}"
            )
        samples.append(value)
    with as_config_error(f"distribution file {path}: "):
        return OutputDistribution(np.array(samples))
