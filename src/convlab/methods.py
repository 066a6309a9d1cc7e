"""The catalog inference methods.

Four rules: the enumerative raven rule, a shrinking-threshold fairness test,
the sample-frequency estimator, and empirical risk minimization over a fixed
classifier pool.  The first three are count-symmetric on binary data and are
written only as ``decide_counts(n, count of 1s)``; their ``decide`` is derived.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import (
    FAIR,
    NO,
    SUSPEND,
    UNFAIR,
    YES,
    Classifier,
    CountLaws,
    InferenceMethod,
    InputDomainError,
    IntervalHypothesisSpace,
    MethodOutput,
    _integer,
    _is_label,
    absolute_error_loss,
    identification_loss,
)
from .convergence import bernoulli_bound


def _labels_vouch(problem, world, labels) -> bool:  # at every n: identification loss, truth and labels in the space
    guard = problem.loss is identification_loss() and world.truth in labels
    return guard and all(map(problem.hypothesis_space.__contains__, labels))


def _two_label_window(problem, world, n, crit, labels, first: range):
    """Success window of a rule giving labels[0] on the counts in first, labels[1] on the rest of 0..n."""
    if not _labels_vouch(problem, world, labels):
        return None
    if crit.met(1):  # a wrong label's loss meets crit too
        return [range(n + 1)]
    return [first] if world.truth == labels[0] else [range(first.start), range(first.stop, n + 1)]


def _raven_counts(n: int, k: int) -> MethodOutput:
    return YES if k == n else NO


def _raven_window(problem, world, n, crit):
    return _two_label_window(problem, world, n, crit, (YES, NO), range(n, n + 1))


raven_rule = InferenceMethod(
    "raven-rule", decide_counts=_raven_counts, locks_at_first_zero=True, laws=CountLaws(_raven_window)
)


def fair_coin_threshold(n: int) -> float:
    """The shrinking acceptance radius n**(-1/4), for display and reports."""
    return _integer(n, "n", 1) ** -0.25


def _fair_coin_counts(n: int, k: int) -> MethodOutput:
    if n == 0:
        return SUSPEND
    # |k/n - 1/2| < n**(-1/4)  <=>  |2k - n|**4 < 16 * n**3, exactly in integers.
    return FAIR if abs(2 * k - n) ** 4 < 16 * n**3 else UNFAIR


def _fair_coin_window(problem, world, n, crit):
    if n == 0:
        return []  # SUSPEND meets no criterion
    # |2k - n|**4 < 16 n**3  <=>  |2k - n| <= r, the integer fourth root of 16 n**3 - 1.
    r = math.isqrt(math.isqrt(16 * n**3 - 1))
    accepts = range(max(0, (n - r + 1) // 2), min(n, (n + r) // 2) + 1)
    return _two_label_window(problem, world, n, crit, (FAIR, UNFAIR), accepts)


def _fair_coin_bound(problem, world, n, crit):
    # Chebyshev: 1 - 1/(4 sqrt n), on the fair coin and, off it, once the acceptance radius drops strictly
    # below half the gap: n**(-1/4) < |theta - 1/2| / 2 = |2p - q| / (4q)  <=>  n |2p - q|**4 > (4q)**4.
    th = world.measure.theta
    gap = abs(2 * th.numerator - th.denominator)
    coherent = world.truth == (UNFAIR if gap else FAIR) and _labels_vouch(problem, world, (FAIR, UNFAIR))
    applies = crit.kind == "exact" and coherent and (gap == 0 or n * gap**4 > (4 * th.denominator) ** 4)
    return max(0.0, 1 - 1 / (4 * math.sqrt(n))) if applies else None


fair_coin_test = InferenceMethod(
    "fair-coin-test", decide_counts=_fair_coin_counts, laws=CountLaws(_fair_coin_window, _fair_coin_bound)
)


def _frequency_counts(n: int, k: int) -> MethodOutput:
    if n == 0:
        return SUSPEND
    return Fraction(k, n)


def _frequency_vouches(problem, world) -> bool:  # at n >= 1: each k/n in the space, loss |k/n - t|, t rational
    space, t = problem.hypothesis_space, world.truth
    interval = isinstance(space, IntervalHypothesisSpace) and space.lo <= 0 and space.hi >= 1
    return interval and problem.loss is absolute_error_loss() and isinstance(t, (int, Fraction))


def _frequency_window(problem, world, n, crit):
    if n == 0:
        return []  # SUSPEND meets no criterion
    if not _frequency_vouches(problem, world):
        return None
    a, b = world.truth.as_integer_ratio()  # floors and ceilings of rationals, read as integer floor divisions
    if crit.kind == "exact":  # k = n t
        lo, hi = -(-n * a // b), n * a // b
    else:  # |k/n - t| < eps  <=>  n (t - eps) < k < n (t + eps), over the common denominator b d
        c, d = crit.eps.as_integer_ratio()
        lo, hi = n * (a * d - c * b) // (b * d) + 1, -(-n * (a * d + c * b) // (b * d)) - 1
    return [range(max(0, lo), min(n, hi) + 1)]


def _frequency_bound(problem, world, n, crit):
    # Chebyshev on the sample frequency, when the window vouches and the truth is the coin's bias.
    coherent = world.truth == world.measure.theta and _frequency_vouches(problem, world)
    return bernoulli_bound(n, crit.eps) if crit.kind == "within" and coherent else None


frequency_estimator = InferenceMethod(
    "frequency-estimator",
    decide_counts=_frequency_counts,
    laws=CountLaws(_frequency_window, _frequency_bound),
)


def empirical_risk(h: Classifier, seq) -> int:
    """Number of training examples the classifier mislabels."""
    return sum(1 for x, y in seq if h(x) != y)


def erm(seq, order) -> MethodOutput:
    """The first classifier in order with minimal training error: earlier entries win ties."""
    examples = tuple(seq)
    for x, y in examples:
        if not _is_label(y):
            raise InputDomainError(f"example label must be 0/1, got {y!r}")
    best = min(order, key=lambda h: empirical_risk(h, examples), default=None)  # min keeps the first minimum
    if best is None:
        raise InputDomainError("erm needs at least one classifier")
    return best


def _erm_winners(order, tokens, counts):
    """Per count row, as an int array, the index of the first classifier in order with the fewest mistakes."""
    import numpy as np

    bad = [j for j, (_, y) in enumerate(tokens) if not _is_label(y)]
    if bad and counts[:, bad].any():  # erm raises on any sequence holding such a token
        raise InputDomainError(f"example label must be 0/1, got {tokens[bad[0]][1]!r}")
    err = np.array([[1 if h(x) != y else 0 for h in order] for x, y in tokens], dtype=np.int64)
    return (counts @ err).argmin(axis=1)  # argmin keeps the first minimum: the declared order


def erm_method(order) -> InferenceMethod:
    """ERM as an inference method over the classifier pool in order, which lists each classifier once."""
    order = tuple(order)
    if not order or len(set(order)) != len(order):
        raise InputDomainError("hypothesis order must list each classifier once, and at least one")
    return InferenceMethod(
        "erm",
        lambda seq: erm(seq, order),
        decide_count_block=lambda tokens, counts: (order, _erm_winners(order, tokens, counts)),
    )
