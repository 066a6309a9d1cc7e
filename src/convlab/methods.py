"""The catalog inference methods.

Four rules: the enumerative raven rule, a shrinking-threshold fairness test,
the sample-frequency estimator, and empirical risk minimization over a fixed
classifier pool.  The first three are count-symmetric on binary data and are
written only as ``decide_counts(n, count of 1s)``; their ``decide`` is derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    FAIR,
    NO,
    SUSPEND,
    UNFAIR,
    YES,
    Classifier,
    InferenceMethod,
    InputDomainError,
    MethodOutput,
)


def _raven_counts(n: int, k: int) -> MethodOutput:
    return YES if k == n else NO


raven_rule = InferenceMethod("raven-rule", decide_counts=_raven_counts, locks_at_first_zero=True)


def fair_coin_threshold(n: int) -> float:
    """The shrinking acceptance radius n**(-1/4), for display and reports."""
    if n < 1:
        raise InputDomainError("threshold is defined for n >= 1")
    return n ** -0.25


def _fair_coin_counts(n: int, k: int) -> MethodOutput:
    if n == 0:
        return SUSPEND
    # |k/n - 1/2| < n**(-1/4)  <=>  |2k - n|**4 < 16 * n**3, exactly in integers.
    return FAIR if abs(2 * k - n) ** 4 < 16 * n**3 else UNFAIR


fair_coin_test = InferenceMethod("fair-coin-test", decide_counts=_fair_coin_counts)


def near_threshold(n: int, k: int, band: float = 1e-15) -> bool:
    """Whether the observed deviation sits within ``band`` of the radius.

    The decision itself is exact, but reports flag these stages because the
    float radius and the rational deviation are this close to a boundary.
    """
    deviation = abs(Fraction(2 * k - n, 2 * n))
    return abs(float(deviation) - fair_coin_threshold(n)) <= band


def _frequency_counts(n: int, k: int) -> MethodOutput:
    if n == 0:
        return SUSPEND
    return Fraction(k, n)


frequency_estimator = InferenceMethod("frequency-estimator", decide_counts=_frequency_counts)


@dataclass(frozen=True)
class ErmConfig:
    """Fixed enumeration of the classifier pool; earlier entries win ties."""

    hypothesis_order: tuple[Classifier, ...]

    def __post_init__(self):
        if len(set(self.hypothesis_order)) != len(self.hypothesis_order):
            raise InputDomainError("hypothesis order must list each classifier once")


def empirical_risk(h: Classifier, seq) -> int:
    """Number of training examples the classifier mislabels."""
    return sum(1 for x, y in seq if h(x) != y)


def erm(seq, cfg: ErmConfig) -> MethodOutput:
    """The first classifier in the declared order with minimal training error."""
    examples = tuple(seq)
    for x, y in examples:
        if y not in (0, 1):
            raise InputDomainError(f"example label must be 0/1, got {y!r}")
    best = None
    best_risk = math.inf
    for h in cfg.hypothesis_order:
        r = empirical_risk(h, examples)
        if r < best_risk:
            best, best_risk = h, r
    return best


def _erm_success_block(cfg: ErmConfig):
    """Vectorized Monte Carlo success evaluation for ERM under IID examples.

    Samples each trial's example counts (the generic path's draws, so the
    flags agree trial for trial), scores every classifier by its mistakes,
    picks per-trial argmins (first minimum = declared order), and maps the
    winner's true loss through the criterion.
    """

    def block(problem, world, n, crit, trials, rng):
        from .core import loss_of  # local import avoids a cycle at module load

        measure = world.measure
        order = cfg.hypothesis_order
        err = np.array(
            [[1 if h(x) != y else 0 for h in order] for (x, y), _ in measure.token_probs], dtype=np.int64
        )
        chosen = (measure.sample_count_block(rng, trials, n) @ err).argmin(axis=1)
        success_by_h = np.array([crit.met(loss_of(problem, h, world)) for h in order])
        return success_by_h[chosen]

    return block


def erm_method(cfg: ErmConfig) -> InferenceMethod:
    """ERM as an inference method over the configured classifier pool."""
    return InferenceMethod(
        "erm",
        lambda seq: erm(seq, cfg),
        success_block=_erm_success_block(cfg),
    )
