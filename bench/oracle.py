"""Independent reference values for the benchmark's output checks.

Everything here is computed from first principles with the standard library
and numpy; nothing imports convlab.  Exact values are ``Fraction``s built
from ``math.comb`` window sums; Monte Carlo truths are floats from
log-space binomial sums or an FFT of the ERM error generating function.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Monte Carlo agreement: |estimate - truth| <= Z * true stderr + SLACK / trials.
# The slack covers the discreteness of binomial counts when the true
# success probability sits within a few trials of 0 or 1.
Z = 6.0
SLACK = 3.0


# ---------------------------------------------------------------------------
# Success windows over the count of 1 tokens


def frequency_window(theta: Fraction, eps: Fraction, n: int) -> tuple[int, int]:
    """Counts k with |k/n - theta| < eps, as an inclusive range (may be empty)."""
    lo = math.floor(n * (theta - eps)) + 1
    hi = math.ceil(n * (theta + eps)) - 1
    return max(lo, 0), min(hi, n)


def fair_window(n: int) -> tuple[int, int]:
    """Counts k the fairness test accepts: |k/n - 1/2| < n**(-1/4).

    Equivalently |2k - n|**4 < 16 n**3; r below is the largest integer
    deviation |2k - n| meeting that strict inequality.
    """
    bound = 16 * n**3
    r = math.isqrt(math.isqrt(bound))
    while r**4 >= bound:
        r -= 1
    while (r + 1) ** 4 < bound:
        r += 1
    # |2k - n| <= r  <=>  (n - r)/2 <= k <= (n + r)/2
    return max(math.ceil(Fraction(n - r, 2)), 0), min(math.floor(Fraction(n + r, 2)), n)


def binomial_window(theta: Fraction, n: int, lo: int, hi: int) -> Fraction:
    """P(lo <= K <= hi) for K ~ Binomial(n, theta), exactly."""
    if lo > hi:
        return Fraction(0)
    p, q = theta.numerator, theta.denominator
    num = sum(math.comb(n, k) * p**k * (q - p) ** (n - k) for k in range(lo, hi + 1))
    return Fraction(num, q**n)


class LogFactorials:
    """log(k!) for k = 0..n_max, for float binomial probabilities."""

    def __init__(self, n_max: int):
        self.table = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n_max + 1)))))

    def window(self, theta: float, n: int, lo: int, hi: int) -> float:
        if lo > hi:
            return 0.0
        if theta in (0.0, 1.0):
            k = 0 if theta == 0.0 else n
            return 1.0 if lo <= k <= hi else 0.0
        k = np.arange(lo, hi + 1)
        t = self.table
        logp = t[n] - t[k] - t[n - k] + k * math.log(theta) + (n - k) * math.log1p(-theta)
        return float(np.exp(logp).sum())


def coin_success(kind: str, theta: Fraction, n: int, eps=None) -> tuple[int, int, bool]:
    """Success window of a coin problem: (lo, hi, complement).

    kind "coin-bias": the frequency estimator lands within eps of theta.
    kind "fair-coin": the fairness test names the right answer, which is the
    acceptance window at theta = 1/2 and its complement elsewhere.
    """
    if kind == "coin-bias":
        lo, hi = frequency_window(theta, eps, n)
        return lo, hi, False
    lo, hi = fair_window(n)
    return lo, hi, theta != Fraction(1, 2)


def coin_exact(kind: str, theta: Fraction, n: int, eps=None) -> Fraction:
    lo, hi, complement = coin_success(kind, theta, n, eps)
    p = binomial_window(theta, n, lo, hi)
    return 1 - p if complement else p


def coin_float(logf: LogFactorials, kind: str, theta: Fraction, n: int, eps=None) -> float:
    lo, hi, complement = coin_success(kind, theta, n, eps)
    p = logf.window(float(theta), n, lo, hi)
    return 1.0 - p if complement else p


# ---------------------------------------------------------------------------
# Empirical risk minimization over labelings of the features {a, b}
#
# A token is an example (x, y).  Every labeling h of {a, b} misclassifies a
# token set that is one of: the y=1 tokens (all-0), the y=0 tokens (all-1),
# the tokens with y != [x == a] (identity), or its complement (flip).  So
# the empirical errors of the whole pool are functions of two counts,
# e1 = #{y = 1} and e2 = #{y != [x == a]}, whose joint law after n draws is
# the n-th power of a two-variable generating polynomial.

TOKENS = (("a", 0), ("a", 1), ("b", 0), ("b", 1))


def _increments(x, y) -> tuple[int, int]:
    return int(y == 1), int(y != int(x == "a"))


def _error_form(labels: dict) -> tuple[int, int, int]:
    """(c1, c2, sign) with error = c1*e1 + c2*e2 read as n - e when sign is -1."""
    errs = tuple(int(labels[x] != y) for x, y in TOKENS)
    for which in (0, 1):
        base = tuple(_increments(x, y)[which] for x, y in TOKENS)
        if errs == base:
            return (1 - which, which, 1)
        if errs == tuple(1 - b for b in base):
            return (1 - which, which, -1)
    raise ValueError(f"labeling {labels} is not a labeling of the features a, b")


def _errors(forms, n, e1, e2):
    out = []
    for c1, c2, sign in forms:
        e = c1 * e1 + c2 * e2
        out.append(e if sign == 1 else n - e)
    return out


def risk(labels: dict, dist: dict) -> Fraction:
    return sum((p for (x, y), p in dist.items() if labels[x] != y), Fraction(0))


def erm_success_flags(pool, dist, eps: Fraction):
    """Per pool entry: whether its excess risk under dist is below eps."""
    risks = [risk(labels, dist) for _, labels in pool]
    best = min(risks)
    return [r - best < eps for r in risks]


def erm_exact(pool, dist: dict, eps: Fraction, n: int) -> Fraction:
    """P(ERM's pick has excess risk < eps) after n IID examples, exactly.

    ``pool`` lists (name, labels) in the declared order; the first minimum of
    empirical error wins.  Enumerates the distinct (e1, e2) outcomes by
    expanding the generating polynomial with exact coefficients.
    """
    forms = [_error_form(labels) for _, labels in pool]
    ok = erm_success_flags(pool, dist, eps)
    law = {(0, 0): Fraction(1)}
    for _ in range(n):
        nxt: dict = {}
        for (e1, e2), w in law.items():
            for (x, y) in TOKENS:
                p = dist.get((x, y), Fraction(0))
                if p:
                    d1, d2 = _increments(x, y)
                    key = (e1 + d1, e2 + d2)
                    nxt[key] = nxt.get(key, Fraction(0)) + w * p
        law = nxt
    total = Fraction(0)
    for (e1, e2), w in law.items():
        errs = _errors(forms, n, e1, e2)
        if ok[errs.index(min(errs))]:
            total += w
    return total


def erm_float(pool, dist: dict, eps: Fraction, n: int) -> float:
    """Float version of ``erm_exact`` via an FFT power of the generating polynomial."""
    forms = [_error_form(labels) for _, labels in pool]
    ok = erm_success_flags(pool, dist, eps)
    base = np.zeros((2, 2))
    for (x, y) in TOKENS:
        d1, d2 = _increments(x, y)
        base[d1, d2] += float(dist.get((x, y), 0))
    shape = (n + 1, n + 1)
    law = np.fft.irfft2(np.fft.rfft2(base, s=shape) ** n, s=shape)
    e1, e2 = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    errs = np.stack(_errors(forms, n, e1, e2))
    chosen = errs.argmin(axis=0)  # first minimum, as in the declared order
    mask = np.asarray(ok)[chosen]
    return float(np.clip(law, 0.0, None)[mask].sum())


# ---------------------------------------------------------------------------
# Lock times on raven-style streams


def raven_lock_prob(p: Fraction, n: int) -> Fraction:
    """P(the raven rule has locked onto the truth by stage n), tokens 1 with chance p.

    For p < 1 the lock is the first 0; p = 1 is the all-1 stream with truth
    Yes, which the rule outputs from stage 0 on.
    """
    return Fraction(1) if p == 1 else 1 - p**n


def scanned_lock_prob(p: Fraction, n: int, horizon: int) -> Fraction:
    """P(lock stage <= n) when locks are found by scanning a length-horizon prefix.

    A prefix with its first 0 at g <= horizon locks at g; a prefix with no 0
    has truth Yes, which the raven rule outputs from stage 0 on.
    """
    return 1 - p**n + p**horizon


def frequency_witness(depth: int) -> tuple[Fraction, set]:
    """Midpoint of the widest (lowest on ties) gap among the values k/n, n <= depth."""
    values = {Fraction(k, n) for n in range(1, depth + 1) for k in range(n + 1)}
    points = sorted(values | {Fraction(0), Fraction(1)})
    lo, hi = max(zip(points, points[1:]), key=lambda g: (g[1] - g[0], -g[0]))
    return (lo + hi) / 2, values


# ---------------------------------------------------------------------------
# Verdicts and Monte Carlo agreement


def trailing_pass_start(stages, passes) -> int | None:
    start = None
    for s, ok in zip(reversed(stages), reversed(passes)):
        if not ok:
            break
        start = s
    return start


def exact_verdict(stages, values, threshold: Fraction) -> tuple[str, int | None]:
    """World verdict on exact success values: supported from N, or refuted."""
    n0 = trailing_pass_start(stages, [v > threshold for v in values])
    return ("supported", n0) if n0 is not None else ("refuted", None)


def mc_agrees(estimate: float, truth: float, trials: int) -> bool:
    se = math.sqrt(max(truth * (1.0 - truth), 0.0) / trials)
    return abs(estimate - truth) <= Z * se + SLACK / trials


def mc_clear_status(truths, trials: int, threshold: float) -> str | None:
    """World status a sound stage test must reach, when the truth leaves no doubt.

    "supported" when the true success clears the threshold by a wide margin
    at every tested stage; "refuted" when it falls short by that margin at
    the final stage; None otherwise, so the status is not checked.
    """

    # Wide enough that an estimate passing ``mc_agrees`` also clears a
    # 3-stderr plug-in stage test.
    def margin(t):
        return 15.0 * math.sqrt(max(t * (1.0 - t), 0.0) / trials) + 15.0 / trials

    if all(t - margin(t) > threshold for t in truths):
        return "supported"
    last = truths[-1]
    if last + margin(last) < threshold:
        return "refuted"
    return None
