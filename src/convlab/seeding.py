"""Counter-based seed derivation for schedule-independent sampling.

Every stochastic computation in this package draws from a generator derived
from (master seed, *key parts) rather than from shared global state, so a
stream never depends on how many workers run or in which order.  Success
probabilities draw from (seed, "mc", the measure's token probabilities, stage),
one stream per law and stage that every world on that measure shares;
success sets from (seed, "success-set", world id, horizon).
"""

from __future__ import annotations

import numbers
import zlib
from fractions import Fraction

import numpy as np


def _as_key_word(part) -> int:
    """Map one key component to a stable non-negative integer."""
    if isinstance(part, bool):
        return int(part)
    if isinstance(part, int):
        return part & 0xFFFFFFFFFFFFFFFF
    if isinstance(part, (str, Fraction, float)):
        return zlib.crc32(str(part).encode("utf-8"))
    raise TypeError(f"unsupported seed key component: {part!r}")


def seed_sequence(master_seed: int, *parts) -> np.random.SeedSequence:
    """The seed sequence for (master_seed, *parts); the master seed is any integer (numpy's too) but a bool."""
    if isinstance(master_seed, bool) or not isinstance(master_seed, numbers.Integral):
        from .core import InputDomainError  # core imports this module

        raise InputDomainError(f"seed must be an integer, got {master_seed!r}")
    key = tuple(_as_key_word(p) for p in parts)
    return np.random.SeedSequence(int(master_seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=key)


def generator(master_seed: int, *parts) -> np.random.Generator:
    """A Philox generator for the stream identified by (master_seed, *parts)."""
    return np.random.Generator(np.random.Philox(seed_sequence(master_seed, *parts)))
