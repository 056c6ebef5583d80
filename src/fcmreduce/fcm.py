"""Fuzzy cognitive maps and their discrete-iteration simulation.

An FCM is a labeled weighted digraph plus an activation vector: node values
live in [0, 1], edge weights in [-1, 1]. A simulation repeatedly applies a
squashing transfer function to each concept's weighted input until a single
designated concept stops moving (its change between consecutive iterations
falls below a tolerance) or an iteration cap is hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, as_config_error, check_choice, check_integer, is_number, plain

TRANSFER_FUNCTIONS = ("tanh", "sigmoid")


@dataclass(frozen=True, eq=False)
class Fcm:
    """A ruleset: concept labels, causal weight matrix, initial activation.

    weights[i, j] is the causal weight of the edge i -> j; a 0 entry means
    "no edge". Self-loops are permitted only if explicitly set.
    """

    concepts: tuple[str, ...]
    weights: np.ndarray
    activation: np.ndarray

    def __post_init__(self):
        concepts = tuple(self.concepts)
        object.__setattr__(self, "concepts", concepts)
        if not concepts:
            raise ContractError("an FCM needs at least one concept")
        if any(not isinstance(c, str) or not c for c in concepts):
            raise ContractError("concept labels must be non-empty strings")
        if len(set(concepts)) != len(concepts):
            dupes = sorted({c for c in concepts if concepts.count(c) > 1})
            raise ContractError(f"duplicate concept labels: {dupes}")
        n = len(concepts)
        # C order: settle() sums over the rows of w, in source order
        w = np.array(self.weights, dtype=np.float64, order="C")
        if w.shape != (n, n):
            raise ContractError(f"weight matrix shape {w.shape} does not match {n} concepts")
        if not np.all(np.isfinite(w)) or np.any(np.abs(w) > 1.0):
            raise ContractError("edge weights must lie in [-1, 1]")
        a = _checked_activation(self.activation, n)
        w.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "activation", a)

    @property
    def n(self) -> int:
        return len(self.concepts)

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.weights))

    def index_of(self, label: str) -> int:
        try:
            return self.concepts.index(label)
        except ValueError:
            raise ConfigError(f"concept {label!r} not in FCM ({', '.join(self.concepts)})") from None

    def edges(self):
        """Yield (source_label, target_label, weight) for every nonzero entry."""
        src, tgt = np.nonzero(self.weights)
        for i, j in zip(src.tolist(), tgt.tolist()):
            yield self.concepts[i], self.concepts[j], float(self.weights[i, j])

    def with_activation(self, activation) -> "Fcm":
        return Fcm(self.concepts, self.weights, activation)

    def with_weights(self, weights) -> "Fcm":
        return Fcm(self.concepts, weights, self.activation)


@dataclass(frozen=True)
class SimulationSettings:
    """Stopping rule and transfer choice for FCM simulation.

    The stabilization check watches a single designated concept; other
    concepts may still be moving when the run is declared stable. self_memory
    controls whether a concept's own current value feeds its next value
    (update input a[j] + sum_i w[i][j] a[i]) or only the weighted sum does.
    """

    stabilization_concept: str
    max_iterations: int = 100
    stabilization_tolerance: float = 0.05
    transfer: str = "tanh"
    self_memory: bool = True

    def __post_init__(self):
        object.__setattr__(self, "max_iterations", check_integer(
            "max_iterations", self.max_iterations, ConfigError, 1))
        tolerance = self.stabilization_tolerance
        if not (is_number(tolerance) and tolerance > 0):
            raise ConfigError(f"stabilization_tolerance must be a number > 0, got {tolerance!r}")
        object.__setattr__(self, "stabilization_tolerance", plain(tolerance))
        check_choice("transfer function", self.transfer, TRANSFER_FUNCTIONS, ConfigError)


def _update(w: np.ndarray, a: np.ndarray, transfer: str, self_memory: bool) -> np.ndarray:
    """One synchronous update; w[s, r] is the weight of the edge s -> r, as
    Fcm.weights stores it.

    The arithmetic is fixed, because the harness's stored outputs depend on
    it bit for bit:

    - Concept r's input is the running sum of w[s, r] * a[s] in source order
      s = 0, 1, ..., started from +0.0 (so an all-negative-zero column sums
      to +0.0). A column reduction over the C-contiguous w adds whole rows
      one after another, which gives exactly that sum for every concept.
      With self-memory, a[r] is added last.
    - "tanh" squashes with the scalar math.tanh, clamped below at 0 so node
      values keep their [0, 1] range; "sigmoid" is 1 / (1 + math.exp(-x)),
      which already lands there.

    A BLAS matrix product (a @ w) sums in an order of its own choosing, and
    np.tanh / np.exp round differently from math.* on some inputs, so
    neither is used.
    """
    # +0.0 first, whichever value add.reduce starts its sum from
    x = 0.0 + np.add.reduce(w * a[:, None], axis=0)
    if self_memory:
        x = x + a
    if transfer == "tanh":
        tanh = math.tanh
        return np.array([tanh(v) if v >= 0.0 else 0.0 for v in x.tolist()])
    exp = math.exp
    return np.array([1.0 / (1.0 + exp(-v)) for v in x.tolist()])


def settle(w: np.ndarray, a: np.ndarray, stab: int, settings: SimulationSettings):
    """Iterate _update() from a until concept stab stabilizes or the cap hits.

    The one simulation kernel: simulate() and the interaction harness both
    call it with Fcm.weights as w. Returns (final_activation,
    iterations_taken, stabilized); a is not mutated.
    """
    transfer, self_memory = settings.transfer, settings.self_memory
    tol = settings.stabilization_tolerance
    for iteration in range(1, settings.max_iterations + 1):
        nxt = _update(w, a, transfer, self_memory)
        delta = abs(nxt[stab] - a[stab])
        a = nxt
        if delta < tol:
            return a, iteration, True
    return a, settings.max_iterations, False


def _checked_activation(activation, n: int) -> np.ndarray:
    """activation as a new float array, held to the one activation contract
    of Fcm, step() and simulate(): one finite value in [0, 1] per concept."""
    a = np.array(activation, dtype=np.float64)
    if a.shape != (n,):
        raise ContractError(f"activation length {a.shape} does not match {n} concepts")
    return check_unit_interval(a, "activation values")


def check_unit_interval(values: np.ndarray, what: str) -> np.ndarray:
    """values, held to the one rule of node values and run outputs: all in [0, 1]."""
    # NaN fails both comparisons, so it is rejected with the out-of-range
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ContractError(f"{what} must be finite and lie in [0, 1]")
    return values


def step(fcm: Fcm, activation, settings: SimulationSettings) -> np.ndarray:
    """One synchronous update of every concept. Does not mutate its input."""
    a = _checked_activation(activation, fcm.n)
    return _update(fcm.weights, a, settings.transfer, settings.self_memory)


def simulate(fcm: Fcm, activation, settings: SimulationSettings):
    """Iterate step() until the designated concept stabilizes or the cap hits.

    Returns (final_activation, iterations_taken, stabilized). Stabilization
    means the designated concept changed by less than the tolerance between
    two consecutive iterations.
    """
    si = fcm.index_of(settings.stabilization_concept)
    return settle(fcm.weights, _checked_activation(activation, fcm.n), si, settings)


# ---------------------------------------------------------------------------
# File format: {"concepts": [...], "edges": [{"source", "target", "weight"}],
# "activation": {label: value}}. Unlisted activations default to 0.

def fcm_to_dict(fcm: Fcm) -> dict:
    return {
        "concepts": list(fcm.concepts),
        "edges": [
            {"source": s, "target": t, "weight": w} for s, t, w in fcm.edges()
        ],
        "activation": {
            label: float(v)
            for label, v in zip(fcm.concepts, fcm.activation)
            if v != 0.0
        },
    }


def fcm_from_dict(data: dict) -> Fcm:
    try:
        concepts, edges = data["concepts"], data.get("edges", [])
        if not isinstance(concepts, list) or not isinstance(edges, list):
            raise TypeError("concepts and edges must be arrays")
        index = {c: i for i, c in enumerate(concepts)}
        activation_items = list(data.get("activation", {}).items())
    except (TypeError, KeyError, AttributeError) as exc:
        raise ConfigError(f"malformed FCM object: {exc}") from exc
    n = len(concepts)
    weights = np.zeros((n, n))
    seen = set()
    for e in edges:
        try:
            s, t, w = e["source"], e["target"], e["weight"]
            cell = index.get(s), index.get(t)
        except (TypeError, KeyError) as exc:
            raise ConfigError(f"malformed edge record {e!r}") from exc
        if None in cell:
            raise ConfigError(f"edge {s!r} -> {t!r} references an unknown concept")
        if not (is_number(w) and abs(w) <= 1.0):
            raise ConfigError(f"edge {s!r} -> {t!r} has weight {w!r}, not a number in [-1, 1]")
        if cell in seen:
            raise ConfigError(f"edge {s!r} -> {t!r} listed twice")
        seen.add(cell)
        weights[cell] = w
    activation = np.zeros(n)
    for label, value in activation_items:
        if label not in index:
            raise ConfigError(f"activation references unknown concept {label!r}")
        if not is_number(value):
            raise ConfigError(f"activation of {label!r} is not a number: {value!r}")
        activation[index[label]] = value
    with as_config_error():
        return Fcm(tuple(concepts), weights, activation)
