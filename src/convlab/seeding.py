"""Counter-based seed derivation for schedule-independent sampling.

Every stochastic computation in this package draws from a generator derived
from (master seed, *key parts) rather than from shared global state, so a
stream never depends on how many workers run or in which order.  Success
probabilities draw from (seed, "mc", the measure's token probabilities, stage),
one stream per law and stage that every world on that measure shares;
success sets from (seed, "success-set", world id, horizon).  numpy loads at
the first generator call; check_key needs none.
"""

from __future__ import annotations

import numbers
import zlib
from fractions import Fraction


def _as_key_word(part) -> int:
    """Map one key component to a stable non-negative integer."""
    if isinstance(part, bool):
        return int(part)
    if isinstance(part, int):
        return part & 0xFFFFFFFFFFFFFFFF
    if isinstance(part, (str, Fraction, float)):
        return zlib.crc32(str(part).encode("utf-8"))
    raise TypeError(f"unsupported seed key component: {part!r}")


def check_key(master_seed: int, *parts) -> tuple[int, tuple[int, ...]]:
    """The entropy word and spawn key of (master_seed, *parts), in pure Python.

    The master seed is any integer (numpy's too) but a bool, else InputDomainError;
    an unsupported part raises TypeError (_as_key_word).
    """
    if isinstance(master_seed, bool) or not isinstance(master_seed, numbers.Integral):
        from .core import InputDomainError  # core imports this module

        raise InputDomainError(f"seed must be an integer, got {master_seed!r}")
    return int(master_seed) & 0xFFFFFFFFFFFFFFFF, tuple(_as_key_word(p) for p in parts)


def generator(master_seed: int, *parts):
    """A Philox generator for the stream identified by (master_seed, *parts), checked as check_key checks them."""
    import numpy as np

    entropy, key = check_key(master_seed, *parts)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy, spawn_key=key)))
