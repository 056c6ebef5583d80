import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmreduce.errors import ConfigError, ContractError
from fcmreduce.fcm import (
    Fcm,
    SimulationSettings,
    fcm_from_dict,
    fcm_to_dict,
    simulate,
    step,
)

SETTINGS = SimulationSettings(stabilization_concept="A")


def cumsum_oracle(w, a, transfer, self_memory):
    """The settle kernel's former update, kept as a test oracle: each
    concept's inputs summed in source order from +0.0 via a prefix sum over
    the transposed weights, then scalar math.tanh clamped with max(), or
    the scalar math.exp sigmoid."""
    x = 0.0 + np.cumsum(w.T * a, axis=1)[:, -1]
    if self_memory:
        x = x + a
    if transfer == "tanh":
        return np.array([max(math.tanh(v), 0.0) for v in x.tolist()])
    return np.array([1.0 / (1.0 + math.exp(-v)) for v in x.tolist()])


def two_concept(w01=0.0, w10=0.0, a=(0.0, 0.0)):
    return Fcm(("A", "B"), [[0.0, w01], [w10, 0.0]], list(a))


class TestFcmConstruction:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ContractError):
            Fcm(("A", "A"), np.zeros((2, 2)), np.zeros(2))

    def test_empty_label_rejected(self):
        with pytest.raises(ContractError):
            Fcm(("A", ""), np.zeros((2, 2)), np.zeros(2))

    def test_weight_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            Fcm(("A", "B"), [[0, 1.5], [0, 0]], np.zeros(2))

    def test_activation_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            Fcm(("A",), [[0.0]], [1.2])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ContractError):
            Fcm(("A", "B"), np.zeros((3, 3)), np.zeros(2))

    def test_weights_stored_in_c_order(self):
        w = np.asfortranarray([[0.0, 0.5], [-0.25, 0.0]])
        f = Fcm(("A", "B"), w, np.zeros(2))
        assert f.weights.flags.c_contiguous
        assert np.array_equal(f.weights, w)

    def test_self_loop_allowed_when_explicit(self):
        f = Fcm(("A",), [[0.7]], [0.0])
        assert f.weights[0, 0] == 0.7

    def test_edge_count_and_edges(self):
        f = two_concept(w01=0.5)
        assert f.edge_count == 1
        assert list(f.edges()) == [("A", "B", 0.5)]


class TestSettings:
    def test_zero_max_iterations_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            SimulationSettings(stabilization_concept="A", max_iterations=0)

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            SimulationSettings(stabilization_concept="A", stabilization_tolerance=0.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_iterations": 2.5},
            {"max_iterations": True},
            {"stabilization_tolerance": math.inf},
            {"stabilization_tolerance": math.nan},
        ],
        ids=repr,
    )
    def test_non_integer_cap_or_non_finite_tolerance_rejected(self, bad):
        # 2.5 used to reach range() in simulate() as a TypeError; inf made
        # every settle stop after one update
        with pytest.raises(ConfigError):
            SimulationSettings(stabilization_concept="A", **bad)

    def test_integer_tolerance_accepted(self):
        assert SimulationSettings("A", stabilization_tolerance=1).stabilization_tolerance == 1

    def test_unknown_transfer_rejected(self):
        with pytest.raises(ConfigError):
            SimulationSettings(stabilization_concept="A", transfer="relu")

    def test_settings_accept_any_concept_label(self):
        s = SimulationSettings(
            stabilization_concept="perceived intake",
            stabilization_tolerance=0.05,
            max_iterations=100,
        )
        assert s.transfer == "tanh"


class TestStep:
    def test_zero_activation_is_fixed_point(self, rng):
        w = rng.uniform(-1, 1, size=(5, 5))
        f = Fcm(tuple("ABCDE"), w, np.zeros(5))
        out = step(f, np.zeros(5), SETTINGS)
        assert np.array_equal(out, np.zeros(5))

    def test_single_concept_tanh(self):
        f = Fcm(("A",), [[0.0]], [0.5])
        out = step(f, [0.5], SETTINGS)
        assert out[0] == pytest.approx(math.tanh(0.5), abs=1e-12)
        assert out[0] == pytest.approx(0.46211715726, abs=1e-9)

    def test_two_concepts_one_edge(self):
        # A=1 feeds B through weight 1; both concepts see total input 1
        f = two_concept(w01=1.0)
        out = step(f, [1.0, 0.0], SETTINGS)
        assert out[0] == pytest.approx(math.tanh(1.0), abs=1e-12)
        assert out[1] == pytest.approx(math.tanh(1.0), abs=1e-12)

    def test_no_self_memory_variant(self):
        f = two_concept(w01=1.0)
        s = SimulationSettings(stabilization_concept="A", self_memory=False)
        out = step(f, [1.0, 0.0], s)
        assert out[0] == 0.0  # tanh(0) with no self term
        assert out[1] == pytest.approx(math.tanh(1.0), abs=1e-12)

    def test_negative_input_clamped_to_zero(self):
        f = two_concept(w01=-1.0)
        s = SimulationSettings(stabilization_concept="A", self_memory=False)
        out = step(f, [1.0, 1.0], s)
        assert out[1] == 0.0

    def test_sigmoid_transfer(self):
        f = Fcm(("A",), [[0.0]], [0.5])
        s = SimulationSettings(stabilization_concept="A", transfer="sigmoid")
        out = step(f, [0.5], s)
        assert out[0] == pytest.approx(1 / (1 + math.exp(-0.5)), abs=1e-12)

    def test_input_not_mutated(self):
        f = two_concept(w01=1.0)
        a = np.array([1.0, 0.0])
        step(f, a, SETTINGS)
        assert np.array_equal(a, [1.0, 0.0])

    def test_dimension_mismatch(self):
        f = two_concept()
        with pytest.raises(ContractError):
            step(f, [0.1, 0.2, 0.3], SETTINGS)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_range_preservation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        w = rng.uniform(-1, 1, size=(n, n))
        a = rng.uniform(0, 1, size=n)
        f = Fcm(tuple(f"C{i}" for i in range(n)), w, a)
        for transfer in ("tanh", "sigmoid"):
            s = SimulationSettings(stabilization_concept="C0", transfer=transfer)
            out = step(f, a, s)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)


    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_equals_in_order_scalar_loop(self, seed):
        # step() must give exactly the floats of a scalar loop that sums each
        # concept's inputs in source order from 0.0 and squashes with math.*;
        # the harness's stored outputs depend on that arithmetic
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 16))
        w = np.where(rng.random((n, n)) < 0.7, rng.uniform(-1, 1, (n, n)), 0.0)
        a = np.where(rng.random(n) < 0.8, rng.uniform(0, 1, n), 0.0)
        f = Fcm(tuple(f"C{i}" for i in range(n)), w, a)
        for transfer in ("tanh", "sigmoid"):
            for self_memory in (True, False):
                s = SimulationSettings("C0", transfer=transfer, self_memory=self_memory)
                expected = []
                for r in range(n):
                    x = 0.0
                    for src in range(n):
                        x += w[src, r] * a[src]
                    if self_memory:
                        x += a[r]
                    v = math.tanh(x) if transfer == "tanh" else 1.0 / (1.0 + math.exp(-x))
                    expected.append(min(max(v, 0.0), 1.0))
                assert step(f, a, s).tobytes() == np.array(expected).tobytes()

    @given(
        n=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        special=st.floats(min_value=0.0, max_value=1.0),
        fortran=st.booleans(),
        zero_column=st.integers(min_value=-1, max_value=31),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_cumsum_oracle(self, n, seed, special, fortran, zero_column):
        # step() against the expression the kernel used before it moved to
        # the untransposed weights: a cumsum over w.T whose last column is
        # kept, then max(tanh, 0). Compared as bytes, so -0.0 != +0.0.
        rng = np.random.default_rng(seed)
        w = rng.uniform(-1.0, 1.0, (n, n))
        odd_w = rng.choice(np.array([0.0, -0.0, 5e-324, -5e-324, -1.0]), (n, n))
        w = np.where(rng.random((n, n)) < special, odd_w, w)
        if zero_column < n:
            w[:, zero_column] = -0.0  # every product is -0.0; the sum must be +0.0
        a = 1.0 - rng.random(n)  # in (0, 1]
        odd_a = rng.choice(np.array([0.0, -0.0, 5e-324, 1.0]), n)
        a = np.where(rng.random(n) < special, odd_a, a)
        f = Fcm(tuple(f"C{i}" for i in range(n)), np.asfortranarray(w) if fortran else w, a)
        for transfer in ("tanh", "sigmoid"):
            for self_memory in (True, False):
                s = SimulationSettings("C0", transfer=transfer, self_memory=self_memory)
                expected = cumsum_oracle(w, a, transfer, self_memory)
                assert step(f, a, s).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.5])
    def test_activation_outside_unit_interval_rejected(self, bad):
        f = two_concept(w01=0.5)
        with pytest.raises(ContractError, match=r"\[0, 1\]"):
            step(f, [bad, 0.2], SETTINGS)
        with pytest.raises(ContractError, match=r"\[0, 1\]"):
            simulate(f, [0.2, bad], SETTINGS)


class TestSimulate:
    def test_zero_activation_stabilizes_at_iteration_one(self, rng):
        w = rng.uniform(-1, 1, size=(4, 4))
        f = Fcm(tuple("ABCD"), w, np.zeros(4))
        final, iterations, stabilized = simulate(f, np.zeros(4), SETTINGS)
        assert iterations == 1
        assert stabilized is True
        assert np.array_equal(final, np.zeros(4))

    def test_unknown_stabilization_concept(self):
        f = two_concept()
        bad = SimulationSettings(stabilization_concept="missing")
        with pytest.raises(ConfigError):
            simulate(f, [0.1, 0.2], bad)

    def test_never_exceeds_max_iterations(self):
        # tiny tolerance makes tanh's slow crawl exhaust the cap
        f = Fcm(("A",), [[0.9]], [0.9])
        s = SimulationSettings(
            stabilization_concept="A", max_iterations=5, stabilization_tolerance=1e-12
        )
        _, iterations, stabilized = simulate(f, [0.9], s)
        assert iterations == 5
        assert stabilized is False

    def test_deterministic(self, rng):
        w = rng.uniform(-1, 1, size=(6, 6))
        a = rng.uniform(0, 1, size=6)
        f = Fcm(tuple("ABCDEF"), w, a)
        r1 = simulate(f, a, SETTINGS)
        r2 = simulate(f, a, SETTINGS)
        assert np.array_equal(r1[0], r2[0])
        assert r1[1:] == r2[1:]

    def test_stabilization_watches_designated_concept_only(self):
        # A sits at its fixed point from the start while B keeps moving:
        # stabilization fires immediately anyway.
        f = Fcm(("A", "B"), [[0.0, 0.0], [0.0, 0.0]], [0.0, 0.9])
        s = SimulationSettings(stabilization_concept="A", stabilization_tolerance=0.05)
        final, iterations, stabilized = simulate(f, [0.0, 0.9], s)
        assert stabilized and iterations == 1
        assert final[1] == pytest.approx(math.tanh(0.9), abs=1e-12)


class TestFileFormat:
    def test_round_trip_identity(self, rng):
        w = np.where(rng.random((4, 4)) < 0.5, rng.uniform(-1, 1, (4, 4)), 0.0)
        a = rng.uniform(0, 1, 4)
        f = Fcm(("w x", "y", "z", "q"), w, a)
        g = fcm_from_dict(json.loads(json.dumps(fcm_to_dict(f))))
        assert g.concepts == f.concepts
        assert np.array_equal(g.weights, f.weights)
        assert np.array_equal(g.activation, f.activation)

    def test_unlisted_activation_defaults_to_zero(self):
        d = {"concepts": ["A", "B"], "edges": [], "activation": {"B": 0.4}}
        f = fcm_from_dict(d)
        assert f.activation[0] == 0.0
        assert f.activation[1] == 0.4

    def test_out_of_range_weight_rejected_on_load(self):
        d = {
            "concepts": ["A", "B"],
            "edges": [{"source": "A", "target": "B", "weight": 1.5}],
        }
        with pytest.raises(ConfigError, match="1.5"):
            fcm_from_dict(d)

    def test_unknown_edge_label_rejected(self):
        d = {"concepts": ["A"], "edges": [{"source": "A", "target": "Z", "weight": 0.1}]}
        with pytest.raises(ConfigError, match="unknown concept"):
            fcm_from_dict(d)

    def test_duplicate_concept_rejected(self):
        with pytest.raises(ConfigError):
            fcm_from_dict({"concepts": ["A", "A"], "edges": []})

    def test_duplicate_edge_rejected(self):
        # a zero weight first used to leave its cell free for the repeat
        for first in (0.1, 0.0):
            d = {
                "concepts": ["A", "B"],
                "edges": [
                    {"source": "A", "target": "B", "weight": first},
                    {"source": "A", "target": "B", "weight": 0.2},
                ],
            }
            with pytest.raises(ConfigError, match="twice"):
                fcm_from_dict(d)
