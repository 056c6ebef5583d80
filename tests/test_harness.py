import hashlib
import json
import math
import os
import threading
import time

import numpy as np
import pytest

from fcmreduce import harness
from fcmreduce.errors import ConfigError, ContractError
from fcmreduce.fcm import Fcm, SimulationSettings, simulate
from fcmreduce.harness import (
    OutputDistribution,
    _ModelArrays,
    _process_count,
    RunSpec,
    export_distribution,
    import_distribution,
    interact,
    run_distribution,
    run_once,
    run_once_reference,
)
from fcmreduce.population import (
    Agent,
    SocialGraph,
    TopologySpec,
    assign_channels,
    build_obesity_fcm,
    build_topology,
    generate_cmaes_style,
    generate_variants,
    make_agents,
    randomize_activations,
)
from fcmreduce.seeding import seed_sequence

SETTINGS = SimulationSettings(stabilization_concept="Awareness")


@pytest.fixture
def any_block_forks(monkeypatch):
    """A child for every block: the test models' runs are far smaller than
    the block a fork pays for."""
    monkeypatch.setattr(harness, "_MIN_BLOCK_VISITS", 1)


def zero_weight_agent(agent_id, value, label="Out"):
    return Agent(agent_id, Fcm((label,), [[0.0]], [value]))


class TestInteract:
    def test_lower_agent_aligned_up_then_resimulated(self):
        settings = SimulationSettings(stabilization_concept="Out")
        low = zero_weight_agent(0, 0.3)
        high = zero_weight_agent(1, 0.8)
        new_low, new_high = interact(low, high, "Out", settings)
        # low's channel becomes 0.8, then settles under a' = tanh(a)
        expected, _, _ = simulate(low.fcm, [0.8], settings)
        assert new_low.fcm.activation[0] == expected[0]
        assert new_high is high

    def test_order_of_arguments_does_not_matter(self):
        settings = SimulationSettings(stabilization_concept="Out")
        low = zero_weight_agent(0, 0.3)
        high = zero_weight_agent(1, 0.8)
        a1, b1 = interact(low, high, "Out", settings)
        b2, a2 = interact(high, low, "Out", settings)
        assert np.array_equal(a1.fcm.activation, a2.fcm.activation)
        assert np.array_equal(b1.fcm.activation, b2.fcm.activation)

    def test_equal_values_noop(self):
        settings = SimulationSettings(stabilization_concept="Out")
        a = zero_weight_agent(0, 0.5)
        b = zero_weight_agent(1, 0.5)
        new_a, new_b = interact(a, b, "Out", settings)
        assert new_a is a and new_b is b

    def test_missing_channel_is_contract_violation(self):
        settings = SimulationSettings(stabilization_concept="Out")
        a = zero_weight_agent(0, 0.5)
        b = zero_weight_agent(1, 0.6)
        with pytest.raises(ContractError):
            interact(a, b, "Elsewhere", settings)

    def test_activations_stay_in_range(self, rng):
        agents = make_agents(generate_cmaes_style(2, seed=8))
        a, b = interact(agents[0], agents[1], "Intention", SETTINGS)
        for agent in (a, b):
            assert np.all((agent.fcm.activation >= 0) & (agent.fcm.activation <= 1))


class TestRunOnce:
    def test_no_ties_returns_initial_mean(self):
        agents = [zero_weight_agent(0, 0.2), zero_weight_agent(1, 0.6)]
        graph = SocialGraph((0, 1), ())
        spec = RunSpec("Out", SimulationSettings("Out"), rounds=3, repeats=1)
        assert run_once(agents, graph, spec, 0) == pytest.approx(0.4, abs=1e-15)

    def test_identical_agents_all_noop(self):
        agents = [zero_weight_agent(i, 0.37) for i in range(4)]
        graph = SocialGraph(
            (0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)), {t: "Out" for t in ((0, 1), (1, 2), (2, 3))}
        )
        spec = RunSpec("Out", SimulationSettings("Out"), rounds=5, repeats=1)
        assert run_once(agents, graph, spec, 1) == pytest.approx(0.37, abs=1e-15)

    def test_two_agent_zero_weight_hand_trace(self):
        # Alignment sets the low agent to 0.6; its zero-weight FCM then
        # iterates v -> tanh(v): 0.6 -> 0.53705 (change 0.063, continue)
        # -> 0.49079 (change 0.046 < 0.05, stop). The observer stays 0.6.
        agents = [zero_weight_agent(0, 0.2), zero_weight_agent(1, 0.6)]
        graph = SocialGraph((0, 1), ((0, 1),), {(0, 1): "Out"})
        spec = RunSpec("Out", SimulationSettings("Out"), rounds=1, repeats=1)
        got = run_once(agents, graph, spec, 0)
        expected = (math.tanh(math.tanh(0.6)) + 0.6) / 2
        assert got == pytest.approx(expected, abs=1e-12)

    def test_kernel_matches_reference(self):
        agents = make_agents(generate_cmaes_style(10, seed=4))
        graph = build_topology(TopologySpec("small_world", n=10, k=4, beta=0.3, seed=5))
        graph = assign_channels(graph, agents, seed=6)
        spec = RunSpec("Awareness", SETTINGS, rounds=3, repeats=1)
        for seed in range(4):
            fast = run_once(agents, graph, spec, seed)
            slow = run_once_reference(agents, graph, spec, seed)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_kernel_matches_reference_heterogeneous_sizes(self):
        # agents with different concept counts sharing one channel concept
        rng = np.random.default_rng(11)

        def agent(agent_id, n):
            labels = ("Shared",) + tuple(f"P{agent_id}_{k}" for k in range(n - 1))
            w = rng.uniform(-1, 1, (n, n))
            np.fill_diagonal(w, 0.0)
            return Agent(agent_id, Fcm(labels, w, rng.uniform(0, 1, n)))

        agents = [agent(0, 3), agent(1, 5), agent(2, 4), agent(3, 6)]
        ties = ((0, 1), (1, 2), (2, 3), (0, 3))
        graph = SocialGraph((0, 1, 2, 3), ties, {t: "Shared" for t in ties})
        spec = RunSpec("Shared", SimulationSettings("Shared"), rounds=4, repeats=1)
        for seed in range(3):
            assert run_once(agents, graph, spec, seed) == pytest.approx(
                run_once_reference(agents, graph, spec, seed), abs=1e-12
            )

    @pytest.mark.parametrize("transfer", ["tanh", "sigmoid"])
    @pytest.mark.parametrize("self_memory", [True, False])
    def test_kernel_equals_reference_exactly(self, transfer, self_memory):
        # run_once and run_once_reference settle through the same kernel, so
        # they agree bit for bit, not just within a tolerance
        rng = np.random.default_rng(11)

        def agent(agent_id, n):
            labels = ("Shared",) + tuple(f"P{agent_id}_{k}" for k in range(n - 1))
            w = rng.uniform(-1, 1, (n, n))
            np.fill_diagonal(w, 0.0)
            return Agent(agent_id, Fcm(labels, w, rng.uniform(0, 1, n)))

        ties = ((0, 1), (1, 2), (2, 3), (0, 3))
        heterogeneous = (
            [agent(0, 3), agent(1, 5), agent(2, 4), agent(3, 6)],
            SocialGraph((0, 1, 2, 3), ties, {t: "Shared" for t in ties}),
            "Shared",
        )
        cmaes = make_agents(generate_cmaes_style(12, seed=4))
        graph = build_topology(TopologySpec("small_world", n=12, k=4, beta=0.3, seed=5))
        cmaes_model = (cmaes, assign_channels(graph, cmaes, seed=6), "Awareness")
        for agents, graph, concept in (heterogeneous, cmaes_model):
            settings = SimulationSettings(concept, transfer=transfer, self_memory=self_memory)
            spec = RunSpec(concept, settings, rounds=4, repeats=1)
            for seed in range(4):
                assert run_once(agents, graph, spec, seed) == run_once_reference(
                    agents, graph, spec, seed
                )

    def test_empty_graph_is_config_error(self):
        spec = RunSpec("Out", SimulationSettings("Out"), rounds=1, repeats=1)
        with pytest.raises(ConfigError, match="at least one agent"):
            run_once([], SocialGraph((), ()), spec, 0)

    def test_missing_output_concept(self):
        agents = [zero_weight_agent(0, 0.2, label="A"), zero_weight_agent(1, 0.3, label="B")]
        graph = SocialGraph((0, 1), ())
        spec = RunSpec("A", SimulationSettings("A"), rounds=1, repeats=1)
        with pytest.raises(ConfigError, match="agent 1"):
            run_once(agents, graph, spec, 0)

    @pytest.mark.parametrize("output, stabilization, message", [
        ("A", "B", "stabilization concept 'B' missing from agent 1's FCM"),
        ("B", "A", "output concept 'B' missing from agent 1's FCM"),
    ])
    def test_reference_checks_watched_concepts_as_kernel(self, output, stabilization, message):
        # agent 1 lacks B and, holding the higher value of A, is never
        # re-simulated, so only the watched-concept rule can catch it
        agents = [
            Agent(0, Fcm(("A", "B"), np.zeros((2, 2)), np.array([0.2, 0.5]))),
            Agent(1, Fcm(("A", "C"), np.zeros((2, 2)), np.array([0.9, 0.5]))),
        ]
        graph = SocialGraph((0, 1), ((0, 1),), {(0, 1): "A"})
        spec = RunSpec(output, SimulationSettings(stabilization), rounds=1, repeats=1)
        for run in (run_once, run_once_reference):
            with pytest.raises(ConfigError) as caught:
                run(agents, graph, spec, 0)
            assert str(caught.value) == message


@pytest.mark.usefixtures("any_block_forks")
class TestRunDistribution:
    def make_model(self, n=12, seed=7):
        agents = make_agents(generate_cmaes_style(n, seed=seed))
        graph = build_topology(TopologySpec("small_world", n=n, k=4, beta=0.2, seed=seed))
        graph = assign_channels(graph, agents, seed=seed)
        return agents, graph

    def test_repeats_one_equals_run_once_with_child_seed_zero(self):
        agents, graph = self.make_model()
        spec = RunSpec("Awareness", SETTINGS, rounds=2, repeats=1, master_seed=21)
        dist = run_distribution(agents, graph, spec)
        direct = run_once(agents, graph, spec, seed_sequence(21, "run", 0))
        assert dist.samples[0] == direct

    def test_same_master_seed_identical(self):
        agents, graph = self.make_model()
        spec = RunSpec("Awareness", SETTINGS, rounds=2, repeats=8, master_seed=3)
        a = run_distribution(agents, graph, spec)
        b = run_distribution(agents, graph, spec)
        assert np.array_equal(a.samples, b.samples)

    def test_parallel_equals_serial(self):
        agents, graph = self.make_model()
        spec = RunSpec("Awareness", SETTINGS, rounds=2, repeats=10, master_seed=5)
        serial = run_distribution(agents, graph, spec, workers=1)
        parallel = run_distribution(agents, graph, spec, workers=4)
        assert np.array_equal(serial.samples, parallel.samples)

    def test_workers_starts_no_thread(self, monkeypatch):
        agents, graph = self.make_model()
        spec = RunSpec("Awareness", SETTINGS, rounds=2, repeats=6, master_seed=5)
        serial = run_distribution(agents, graph, spec)

        def no_threads(self):
            raise AssertionError("run_distribution started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        dist = run_distribution(agents, graph, spec, workers=4)
        assert np.array_equal(dist.samples, serial.samples)

    def test_deterministic_model_constant_samples(self):
        agents = [zero_weight_agent(0, 0.4), zero_weight_agent(1, 0.9)]
        graph = SocialGraph((0, 1), ())
        spec = RunSpec("Out", SimulationSettings("Out"), rounds=2, repeats=6)
        dist = run_distribution(agents, graph, spec)
        assert np.all(dist.samples == dist.samples[0])
        assert dist.samples[0] == pytest.approx(0.65, abs=1e-15)

    def test_samples_in_unit_interval(self):
        agents, graph = self.make_model()
        spec = RunSpec("Awareness", SETTINGS, rounds=3, repeats=15, master_seed=8)
        dist = run_distribution(agents, graph, spec)
        assert np.all((dist.samples >= 0) & (dist.samples <= 1))

    def test_length_equals_repeats(self):
        agents, graph = self.make_model()
        spec = RunSpec("Awareness", SETTINGS, rounds=1, repeats=9, master_seed=2)
        assert len(run_distribution(agents, graph, spec).samples) == 9


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch) -> list:
    """os.fork, wrapped to append each fork's parent-side pid to the list."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def set_cpus(monkeypatch, n):
    """This process may run on n CPUs."""
    monkeypatch.setattr(os, "cpu_count", lambda: n)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def fail_runs(monkeypatch, failing):
    """_ModelArrays.run raising ConfigError for each run index in failing."""
    run = _ModelArrays.run

    def patched(model, seed):
        i = seed.entropy[-1]  # seed_sequence(master_seed, "run", i)
        if i in failing:
            raise ConfigError(f"run {i} failed")
        return run(model, seed)

    monkeypatch.setattr(_ModelArrays, "run", patched)


@pytest.mark.usefixtures("any_block_forks")
class TestForkedWorkers:
    """workers > 1 forks up to min(workers, repeats, CPUs) - 1 children;
    this process makes runs 0, w, 2w, ... and child b runs b, b + w, ..."""

    make_model = TestRunDistribution.make_model

    @pytest.mark.parametrize("repeats", [1, 3, 10])
    def test_samples_bit_identical_for_workers_one_to_four(self, monkeypatch, repeats):
        agents, graph = self.make_model()
        spec = RunSpec("Awareness", SETTINGS, rounds=2, repeats=repeats, master_seed=5)
        serial = run_distribution(agents, graph, spec)
        # as many CPUs as workers, so that blocks of 3 and 4 are made on any
        # host
        forks = count_forks(monkeypatch)
        for workers in (1, 2, 3, 4):
            set_cpus(monkeypatch, workers)
            before = len(forks)
            dist = run_distribution(agents, graph, spec, workers=workers)
            assert len(forks) - before == min(workers, repeats) - 1
            assert np.array_equal(dist.samples, serial.samples), workers
            assert_no_child_left()

    def test_this_process_makes_its_own_block_once(self, monkeypatch):
        agents, graph = self.make_model()
        spec = RunSpec("Awareness", SETTINGS, rounds=1, repeats=7, master_seed=5)
        set_cpus(monkeypatch, 3)
        made, run = [], _ModelArrays.run

        def recorded(model, seed):
            made.append(seed.entropy[-1])  # a child's list is its own copy
            return run(model, seed)

        monkeypatch.setattr(_ModelArrays, "run", recorded)
        run_distribution(agents, graph, spec, workers=3)
        assert made == [0, 3, 6]

    @pytest.mark.parametrize("failing", [{1, 3, 5}, {0, 2, 4}, {3, 4}, {2, 5}])
    def test_run_error_reaches_caller_as_in_a_serial_run(self, monkeypatch, failing):
        # odd runs are the child's block, even runs this process's; with
        # {3, 4} and {2, 5} both blocks fail and the serial run stops at
        # the lower index
        agents, graph = self.make_model()
        spec = RunSpec("Awareness", SETTINGS, rounds=1, repeats=6, master_seed=5)
        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        fail_runs(monkeypatch, failing)
        for workers in (1, 2):
            with pytest.raises(ConfigError) as caught:
                run_distribution(agents, graph, spec, workers=workers)
            assert str(caught.value) == f"run {min(failing)} failed"
            assert_no_child_left()
        assert len(forks) == 1

    def test_child_that_dies_is_an_error(self, monkeypatch):
        agents, graph = self.make_model()
        spec = RunSpec("Awareness", SETTINGS, rounds=1, repeats=4, master_seed=5)
        set_cpus(monkeypatch, 2)
        run = _ModelArrays.run
        monkeypatch.setattr(
            _ModelArrays, "run", lambda model, seed: os._exit(3) if seed.entropy[-1] % 2 else run(model, seed))
        # an OSError, so the CLI exits with 2 and a message, not a traceback
        with pytest.raises(ChildProcessError, match="runs 1, 3, ... ended without a result"):
            run_distribution(agents, graph, spec, workers=2)
        assert_no_child_left()

    def test_caller_leaving_early_ends_its_children(self, monkeypatch):
        class Interrupt(BaseException):
            pass

        agents, graph = self.make_model()
        spec = RunSpec("Awareness", SETTINGS, rounds=1, repeats=4, master_seed=5)
        set_cpus(monkeypatch, 2)

        def run(model, seed):
            if seed.entropy[-1] % 2:
                time.sleep(60)  # the child's block
            raise Interrupt

        monkeypatch.setattr(_ModelArrays, "run", run)
        start = time.monotonic()
        with pytest.raises(Interrupt):
            run_distribution(agents, graph, spec, workers=2)
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_processes_capped_at_cpu_count(self, monkeypatch):
        agents, graph = self.make_model()
        spec = RunSpec("Awareness", SETTINGS, rounds=1, repeats=8, master_seed=5)
        serial = run_distribution(agents, graph, spec)
        forks = count_forks(monkeypatch)
        for cpus, forked in ((1, 0), (2, 1)):
            set_cpus(monkeypatch, cpus)
            dist = run_distribution(agents, graph, spec, workers=64)
            assert len(forks) == forked
            assert np.array_equal(dist.samples, serial.samples)

    def test_workers_must_be_a_positive_integer(self):
        agents, graph = self.make_model()
        spec = RunSpec("Awareness", SETTINGS, rounds=1, repeats=2)
        for workers in (0, -1, 1.5, True):
            with pytest.raises(ConfigError, match="workers must be an integer >= 1"):
                run_distribution(agents, graph, spec, workers=workers)


class TestProcessCount:
    """The processes a distribution's runs are split over: workers is a
    cap, and each block must hold _MIN_BLOCK_VISITS tie visits."""

    make_model = TestRunDistribution.make_model

    def test_each_block_holds_the_minimum_of_visits(self, monkeypatch):
        set_cpus(monkeypatch, 4)
        block = harness._MIN_BLOCK_VISITS
        assert _process_count(4, 8, block // 16) == 1  # 8 runs make half a block
        assert _process_count(4, 8, block // 8) == 1
        assert _process_count(4, 8, block // 4) == 2
        assert _process_count(4, 8, block) == 4
        assert _process_count(2, 8, block) == 2
        assert _process_count(8, 3, block) == 3
        assert _process_count(4, 8, 0) == 1  # a graph without ties

    def test_cpus_are_those_this_process_may_run_on(self, monkeypatch):
        # os.cpu_count() counts the host's CPUs, not the ones taskset or a
        # container's CPU set leave this process
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        visits = harness._MIN_BLOCK_VISITS
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
            assert _process_count(8, 8, visits) == 1
        else:
            assert _process_count(8, 8, visits) == 8

    def test_without_fork_runs_are_serial(self, monkeypatch):
        set_cpus(monkeypatch, 4)
        monkeypatch.setattr(harness, "_MIN_BLOCK_VISITS", 1)
        agents, graph = self.make_model()
        spec = RunSpec("Awareness", SETTINGS, rounds=2, repeats=6, master_seed=5)
        serial = run_distribution(agents, graph, spec)
        monkeypatch.delattr(os, "fork")
        assert _process_count(4, 8, 1) == 1
        assert np.array_equal(run_distribution(agents, graph, spec, workers=4).samples, serial.samples)

    def test_small_model_forks_nothing(self, monkeypatch):
        # 10 runs of 2 rounds over a 12-agent model's 24 ties: a fork would
        # cost more than the runs it takes over
        set_cpus(monkeypatch, 4)
        agents, graph = self.make_model()
        spec = RunSpec("Awareness", SETTINGS, rounds=2, repeats=10, master_seed=5)
        assert spec.repeats * spec.rounds * len(graph.ties) < harness._MIN_BLOCK_VISITS
        serial = run_distribution(agents, graph, spec)
        forks = count_forks(monkeypatch)
        assert np.array_equal(run_distribution(agents, graph, spec, workers=4).samples, serial.samples)
        assert forks == []


class TestSpecValidation:
    def test_rounds_and_repeats_positive(self):
        with pytest.raises(ConfigError):
            RunSpec("A", SimulationSettings("A"), rounds=0)
        with pytest.raises(ConfigError):
            RunSpec("A", SimulationSettings("A"), repeats=0)

    @pytest.mark.parametrize(
        "bad",
        [{"rounds": 2.5}, {"rounds": True}, {"repeats": 2.0}, {"repeats": True}],
        ids=repr,
    )
    def test_non_integer_rounds_or_repeats_rejected(self, bad):
        with pytest.raises(ConfigError, match="must be an integer"):
            RunSpec("A", SimulationSettings("A"), **bad)

    def test_numpy_integer_rounds_accepted(self):
        spec = RunSpec("A", SimulationSettings("A"), rounds=np.int64(3), repeats=np.int32(2))
        assert (spec.rounds, spec.repeats) == (3, 2)

    def test_spec_of_numpy_scalars_exports(self, tmp_path):
        settings = SimulationSettings("A", max_iterations=np.int16(7),
                                      stabilization_tolerance=np.float32(0.05))
        spec = RunSpec("A", settings, rounds=np.int64(3), repeats=np.int32(2))
        sidecar = tmp_path / "runspec.json"
        export_distribution(OutputDistribution([0.5, 0.25]), spec, tmp_path / "d.csv", sidecar)
        meta = json.loads(sidecar.read_text())
        assert (meta["rounds"], meta["repeats"], meta["settings"]["max_iterations"]) == (3, 2, 7)
        assert meta["settings"]["stabilization_tolerance"] == float(np.float32(0.05))

    def test_numpy_master_seed_exports_as_plain_int(self, tmp_path):
        spec = RunSpec("A", SimulationSettings("A"), master_seed=np.int64(-3))
        assert type(spec.master_seed) is int
        sidecar = tmp_path / "runspec.json"
        export_distribution(OutputDistribution([0.5]), spec, tmp_path / "d.csv", sidecar)
        assert json.loads(sidecar.read_text())["master_seed"] == -3

    @pytest.mark.parametrize("bad", [2.5, "x", True], ids=repr)
    def test_non_integer_master_seed_rejected(self, bad):
        with pytest.raises(ConfigError, match="master_seed must be an integer"):
            RunSpec("A", SimulationSettings("A"), master_seed=bad)

    def test_distribution_requires_unit_interval(self):
        with pytest.raises(ContractError):
            OutputDistribution(np.array([0.5, 1.2]))
        with pytest.raises(ContractError):
            OutputDistribution(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_distribution_rejects_non_finite(self, bad):
        with pytest.raises(ContractError):
            OutputDistribution(np.array([0.5, bad]))


class TestDistributionIO:
    def test_round_trip_with_sidecar(self, tmp_path):
        dist = OutputDistribution(np.array([0.25, 0.5, 0.753123456789]))
        spec = RunSpec("Awareness", SETTINGS, rounds=2, repeats=3, master_seed=9)
        path = tmp_path / "dist.csv"
        sidecar = tmp_path / "dist.json"
        export_distribution(dist, spec, path, sidecar)
        loaded = import_distribution(path)
        assert np.array_equal(loaded.samples, dist.samples)
        import json

        meta = json.loads(sidecar.read_text())
        assert meta["master_seed"] == 9
        assert meta["settings"]["stabilization_concept"] == "Awareness"

    @pytest.mark.parametrize("row", ["0", "0,abc", "0,nan", "0,1.5", "1,0.5,extra"])
    def test_malformed_row_is_config_error(self, tmp_path, row):
        path = tmp_path / "dist.csv"
        path.write_text(f"run_index,output_value\n0,0.5\n{row}\n")
        with pytest.raises(ConfigError):
            import_distribution(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            import_distribution(tmp_path / "missing.csv")


class TestGoldenSamples:
    """sha256 of run_distribution's sample bytes for the paths the seed-42
    benchmark digests do not reach (they all run tanh with self-memory).
    Recorded before the settle kernel moved to the untransposed weights;
    any change to the kernel's arithmetic changes these hashes."""

    GOLDEN = {
        ("cmaes", "sigmoid", True): (
            "41ce855c39bfaf8ad7f51a198cb2dd226353f4b998e323a22bb1644269f26beb"
        ),
        ("cmaes", "tanh", False): (
            "5a056c906f68c43fec5e400e5fdc104b1c0eac4860646bfb5d6a38565ef989b9"
        ),
        ("obesity", "sigmoid", True): (
            "0dd4f66d763e7a58c6f3386cef62422e3c6269e046b18bcf27db3d71d81608c2"
        ),
        ("obesity", "tanh", False): (
            "308f09b056e7136791f1956ea3ee886f00e4d683ff26a4f27bdad7efc3806c97"
        ),
    }

    @staticmethod
    def model(kind):
        if kind == "cmaes":
            fcms, concept = generate_cmaes_style(16, seed=3), "Awareness"
        else:
            fcms = generate_variants(build_obesity_fcm(), 16, jitter=0.2, seed=3)
            fcms, concept = randomize_activations(fcms, seed=3), "Obesity"
        agents = make_agents(fcms)
        graph = build_topology(TopologySpec("small_world", n=16, k=4, beta=0.2, seed=3))
        return agents, assign_channels(graph, agents, seed=3), concept

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_samples_hash(self, key):
        kind, transfer, self_memory = key
        agents, graph, concept = self.model(kind)
        settings = SimulationSettings(concept, transfer=transfer, self_memory=self_memory)
        spec = RunSpec(concept, settings, rounds=3, repeats=6, master_seed=17)
        samples = run_distribution(agents, graph, spec).samples
        assert hashlib.sha256(samples.tobytes()).hexdigest() == self.GOLDEN[key]
