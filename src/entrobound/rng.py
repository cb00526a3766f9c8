"""Seeded, splittable random number generation.

All randomness in the package flows through a counter-based generator
(Philox) keyed by a 64-bit seed.  ``split(seed, *path)`` derives a child
seed for each integer path: trial ``t`` of an experiment draws from
``generator(split(seed, t))``, distinct paths give statistically independent
streams, and the same seed always reproduces the same stream regardless of
thread schedule.  There is no hidden global state.
"""
from __future__ import annotations

import numpy as np

__all__ = ["generator", "split"]


def generator(seed: int) -> np.random.Generator:
    """Deterministic generator for the stream of ``seed``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def split(seed: int, *path: int) -> int:
    """Derive an independent 64-bit child seed from ``seed`` and a path.

    ``split(seed, t)`` for t = 0, 1, ... yields seeds whose streams are
    mutually independent and deterministic.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])
