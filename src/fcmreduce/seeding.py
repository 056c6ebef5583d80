"""Deterministic RNG stream derivation.

Every stochastic stage derives its stream from (master_seed, *tags) so that
adding, removing, or reordering stages never silently shifts the randomness
consumed by another stage. String tags are hashed with SHA-256 (stable across
processes and platforms, unlike the builtin hash).
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _entropy(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    digest = hashlib.sha256(str(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def seed_sequence(master_seed: int, *tags) -> np.random.SeedSequence:
    """SeedSequence for the stream identified by (master_seed, *tags)."""
    return np.random.SeedSequence([_entropy(master_seed)] + [_entropy(t) for t in tags])


def rng_for(master_seed: int, *tags) -> np.random.Generator:
    """Fresh Generator for the stream identified by (master_seed, *tags)."""
    return np.random.default_rng(seed_sequence(master_seed, *tags))


def int_seed(master_seed: int, *tags) -> int:
    """Collapse a derived stream to a single integer seed (for generators
    seeded by an int, e.g. the random.Random the topologies draw from)."""
    return int(seed_sequence(master_seed, *tags).generate_state(1, np.uint64)[0])
