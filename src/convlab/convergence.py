"""Success probabilities, convergence-mode checks, and unachievability witnesses.

The engine evaluates, per world and sample size, the probability that a
method's output meets a success criterion (zero loss, or loss within
epsilon).  Probabilities are computed exactly where the budget allows -- the
indicator of a world with no measure (deterministic: the point mass on its
branch), enumeration of the evidence tree level as an integer sum of its
succeeding leaves' weights over q**n (``Measure.support``), or for an
exchangeable method (read only through its ``decide_count_block``) a binomial
sum over the count of 1s under IID-Bernoulli data off cumulative-sum cursors,
or a multinomial sum over the token-count vectors under any IID world -- and
by seeded Monte Carlo otherwise; one planner (``_plan``) names that path per
(measure, n), and Monte Carlo judges every world on a measure on one draw per
n: mc-histogram over the count vectors where they number at most the trials,
else mc-block rows, the only items the worker pool runs, or mc-generic
prefixes.  A curve's points share one private context (_Shared): success
tests, cursors, one stage's sums and count tables, and draws.  Mode checks
aggregate these into finite-horizon verdicts: a horizon-stamped verdict is
evidence about the limit behaviour, not a proof.  Analytic lower bounds are
reported per curve row; no verdict reads them yet, so none is certified
beyond its horizon.  numpy is imported inside the functions that draw or
decide count blocks, and the pool inside _map_items, so the exact coin paths,
whose sums are pure integer arithmetic, never load either.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from collections.abc import Iterable, Mapping, Set
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import seeding
from .core import (
    FAIR,
    SUSPEND,
    EmpiricalProblem,
    InferenceMethod,
    InputDomainError,
    Measure,
    PreconditionError,
    ResourceBudgetError,
    World,
    _integer,
    _is_integer,
    as_fraction,
    loss_of,
)

MODE_IDENTIFICATION = "I"
MODE_STOCHASTIC_IDENTIFICATION = "II"
MODE_STOCHASTIC_APPROXIMATION = "III"
MODES = (MODE_IDENTIFICATION, MODE_STOCHASTIC_IDENTIFICATION, MODE_STOCHASTIC_APPROXIMATION)

SUPPORTED_AT_HORIZON = "SUPPORTED_AT_HORIZON"
REFUTED_AT_HORIZON = "REFUTED_AT_HORIZON"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SuccessCriterion:
    """Success means zero loss ("exact") or loss strictly below eps ("within")."""

    kind: str
    eps: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in ("exact", "within"):
            raise InputDomainError(f"unknown criterion kind {self.kind!r}")
        if self.kind == "within" and (self.eps is None or self.eps <= 0):
            raise InputDomainError("within-criterion needs eps > 0")
        if self.kind == "within" and (self.eps > sys.float_info.max or float(self.eps) == 0):
            raise InputDomainError("within-criterion eps must neither exceed the largest float nor round to 0.0")

    def met(self, loss) -> bool:
        if self.kind == "exact":
            return loss == 0
        return loss < self.eps

    @property
    def label(self) -> str:
        if self.kind == "exact":
            return "exact"
        return f"within:{float(self.eps)}"


EXACT = SuccessCriterion("exact")


def within(eps) -> SuccessCriterion:
    return SuccessCriterion("within", as_fraction(eps))


def _check_trials(trials) -> None:
    """InputDomainError unless trials is an integer in [1, 2**63 - 1], numpy's int64 bound, which rng.multinomial takes."""
    if _integer(trials, "trials", 1) > 2**63 - 1:
        raise InputDomainError(f"trials must be at most 2**63 - 1, got {trials!r}")


@dataclass(frozen=True)
class Budget:
    """Caps on exact computation, and Monte Carlo trial/margin settings.

    strategy: "auto" picks exact where affordable and falls back to Monte
    Carlo; "exact" refuses to fall back; "mc" always samples.
    """

    strategy: str = "auto"
    exact_enum_cap: int = 2**20
    symmetric_exact_cap: int = 4096
    trials: int = 10_000
    mc_margin: float = 3.0

    def __post_init__(self):
        if self.strategy not in ("auto", "exact", "mc"):
            raise InputDomainError(f"unknown strategy {self.strategy!r}")
        _check_trials(self.trials)
        _integer(self.exact_enum_cap, "exact_enum_cap", 1)
        _integer(self.symmetric_exact_cap, "symmetric_exact_cap", 0)
        m = self.mc_margin
        if isinstance(m, bool) or not isinstance(m, numbers.Real) or not (math.isfinite(m) and m >= 0):
            raise InputDomainError(f"mc_margin must be a finite real >= 0, got {m!r}")


@dataclass(frozen=True)
class ModeParams:
    """Which convergence mode to check, at which horizon, with which margins.

    delta is the probability slack (modes II/III), epsilon the loss radius
    (mode III).  The quantifier order puts delta and epsilon before the
    world, so per-world threshold stages N are reported and no uniform N is
    required.  An epsilon, where given, is > 0 in every mode.  stages
    restricts the evaluated sample sizes of modes II/III and of a success-set
    curve (check_mode rejects them in mode I); world_ids, nonempty and
    distinct, restricts the world grid.
    """

    mode: str
    horizon: int
    delta: Optional[Fraction] = None
    epsilon: Optional[Fraction] = None
    stages: Optional[tuple[int, ...]] = None
    world_ids: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputDomainError(f"mode must be one of {MODES}, got {self.mode!r}")
        _stage_list(self.horizon, self.stages, 1)
        if self.mode in (MODE_STOCHASTIC_IDENTIFICATION, MODE_STOCHASTIC_APPROXIMATION):
            if self.delta is None or not 0 < self.delta < 1:
                raise InputDomainError("stochastic modes need delta in (0, 1)")
        eps = self.epsilon
        if eps is None:
            if self.mode == MODE_STOCHASTIC_APPROXIMATION:
                raise InputDomainError("mode III needs epsilon > 0")
        elif not eps > 0:  # in every mode
            raise InputDomainError(f"epsilon must be > 0, got {eps}")
        elif eps > sys.float_info.max:
            raise InputDomainError("epsilon must not exceed the largest float")
        elif float(eps) == 0:
            raise InputDomainError("epsilon must not round to 0.0 as a float")
        if self.stages is not None and (not self.stages or list(self.stages) != sorted(set(self.stages))):
            raise InputDomainError("stages must be nonempty and strictly increasing")
        ids = self.world_ids  # nonempty and distinct, so a verdict judges each named world once
        if ids is not None and not (
            isinstance(ids, tuple) and all(isinstance(i, str) for i in ids) and ids and len(set(ids)) == len(ids)
        ):
            raise InputDomainError(f"world_ids must be a sequence of world id strings, nonempty and distinct: {ids!r}")

    def worlds_of(self, problem) -> tuple[World, ...]:
        """The problem's worlds named by world_ids, or all of them."""
        if self.world_ids is None:
            return problem.worlds
        return tuple(problem.world(i) for i in self.world_ids)


def mode_params(mode, horizon, delta=None, epsilon=None, stages=None, world_ids=None) -> ModeParams:
    if isinstance(world_ids, Iterable) and not isinstance(world_ids, (str, Mapping, Set)):
        world_ids = tuple(world_ids)  # a string, mapping or set (no order of its own) stays, for ModeParams to reject
    return ModeParams(
        mode=mode,
        horizon=horizon,
        delta=None if delta is None else as_fraction(delta),
        epsilon=None if epsilon is None else as_fraction(epsilon),
        stages=None if stages is None else tuple(stages),
        world_ids=world_ids,
    )


class Estimate(NamedTuple):
    value: object  # Fraction on exact paths, float otherwise
    stderr: float
    exact: bool


@dataclass(frozen=True)
class CurvePoint:
    world_id: str
    n: int
    estimate: object
    stderr: float
    exact: bool
    bound: Optional[object] = None


@dataclass(frozen=True)
class SuccessCurve:
    problem: str
    method: str
    criterion_label: str
    points: tuple[CurvePoint, ...]


@dataclass(frozen=True)
class WorldVerdict:
    world_id: str
    status: str  # "supported" | "refuted" | "inconclusive"
    threshold_stage: Optional[int]
    note: str = ""


@dataclass(frozen=True)
class Verdict:
    status: str
    mode: str
    horizon: int
    worlds: tuple[WorldVerdict, ...]
    witness_world: Optional[str] = None
    curve: Optional[SuccessCurve] = None


# ---------------------------------------------------------------------------
# Analytic bounds


def bernoulli_bound(n: int, eps) -> Fraction:
    """Lower bound on the chance the sample frequency lands within eps of the bias.

    max(0, 1 - 1/(4*n*eps^2)), valid for every bias; exact rational output.
    """
    n = _integer(n, "n", 1)
    e = as_fraction(eps)
    if e.numerator <= 0:
        raise InputDomainError("bound requires eps > 0")
    c = 4 * n * e.numerator**2  # 1 - 1/(4 n e^2) = (c - d) / c, with d = e.denominator**2
    return Fraction(max(c - e.denominator**2, 0), c)


def required_sample_size(eps, delta) -> int:
    """Smallest n whose frequency-concentration bound strictly exceeds 1 - delta."""
    e = as_fraction(eps)
    d = as_fraction(delta)
    if e <= 0:
        raise InputDomainError("eps must be > 0")
    if not 0 < d < 1:
        raise InputDomainError("delta must lie in (0, 1)")
    return math.floor(Fraction(1, 1) / (4 * d * e * e)) + 1


def analytic_bound(problem, method, world, n, crit):
    """A certified lower bound on the success probability on a binary measure, where the method's laws declare one."""
    n = _integer(n, "sample size", 0)
    m = world.measure
    laws = method.laws
    if m is None or not m.binary or n < 1 or laws is None or laws.bound is None:
        return None
    return laws.bound(problem, world, n, crit)


# ---------------------------------------------------------------------------
# Evaluation paths

POINT_MASS = "point-mass"
BINOMIAL_EXACT = "binomial-exact"
ENUM_EXACT = "enum-exact"
MULTINOMIAL_EXACT = "multinomial-exact"
MC_HISTOGRAM = "mc-histogram"
MC_BLOCK = "mc-block"
MC_GENERIC = "mc-generic"
GEOMETRIC_EXACT = "geometric-exact"
GEOMETRIC_MC = "geometric-mc"
MC = "mc"


def _plan(method, world, n, budget: Budget) -> str:
    """The evaluation path of the success probability at (world, n) under the budget; it reads only the measure.

    A world with no measure is the point mass on its branch (point-mass).
    Otherwise, unless the strategy is "mc", an exact path wins where it fits
    its cap: symmetric_exact_cap on n for a count-block method's binomial sum
    on a binary measure (Measure.binary), then exact_enum_cap on the tree level's leaves, which
    also caps the multinomial sum that stands in for enumeration; past the
    caps "auto" samples and "exact" raises.  Sampling decides a count-block
    method on the trials' histogram over the C(n+t-1, t-1) count vectors of
    its t positive-probability tokens where they number at most budget.trials
    (mc-histogram), else on _sample_count_block's rows (mc-block), and
    any other on whole prefixes (mc-generic): one law, not one stream of draws.
    """
    m = world.measure
    _integer(n, "sample size", 0)
    if m is None:
        return POINT_MASS
    block = method.decide_count_block is not None
    t = len(m.support[0])
    if budget.strategy != "mc":
        if block and m.binary and n <= budget.symmetric_exact_cap:
            return BINOMIAL_EXACT
        if t**n <= budget.exact_enum_cap:
            return MULTINOMIAL_EXACT if block else ENUM_EXACT
        if budget.strategy == "exact":
            raise ResourceBudgetError(
                f"exact strategy: no exact path for world {world.id!r} at n={n}"
            )
    return _mc_path(method, m, n, budget.trials)


def _mc_path(method, measure, n: int, trials: int) -> str:
    """_plan's sampled path at (measure, n) for the trials."""
    if method.decide_count_block is None:
        return MC_GENERIC
    t = len(measure.support[0])
    return MC_HISTOGRAM if math.comb(n + t - 1, t - 1) <= trials else MC_BLOCK


# Distinct outputs an output memo holds at once.
_SUCCESS_MEMO_CAP = 256


def _output_memo(fn):
    """fn of a method output, remembered per (type(out), out) for up to _SUCCESS_MEMO_CAP outputs at once: a full
    memo empties before it takes the next, so a memo that outlives one stage keeps serving the later stages.

    An exact Fraction is keyed by its two ints, (Fraction, numerator, denominator): it is always in lowest
    terms, so equal Fractions share the key, and no lookup runs Fraction's pure-Python hash or equality.
    Threads may share it: a race evaluates an output twice, never wrongly."""
    memo = {}

    def of(out):
        key = (Fraction, out.numerator, out.denominator) if type(out) is Fraction else (type(out), out)
        try:  # one hash per lookup
            entry = memo.get(key)
        except TypeError:  # unhashable: keyed per object, which the entry holds so its id is not reused
            entry = memo.get(key := id(out))
        if entry is None:
            entry = (out, fn(out))
            if len(memo) >= _SUCCESS_MEMO_CAP:
                memo.clear()
            memo[key] = entry
        return entry[1]

    return of


class _Shared:
    """What one curve's points share, on its problem and criterion; a library call builds its own.

    tests: per id(world), the world (so its id is not reused) and its test.  cursors: _cumulative's per bias
    (p, q).  values and tables: the current stage's binomial sums, keyed (p, q, n, window), and count tables
    (_count_table).  draws: _mc_draw's per (measure, n, trials, seed).  Pool threads share tests and draws.
    """

    def __init__(self, problem, crit):
        self.problem, self.crit = problem, crit
        self.tests, self.cursors, self.values, self.tables, self.draws = {}, {}, {}, {}, {}

    def test(self, world):
        """Whether an output meets the criterion in the world, each distinct output's loss evaluated once
        (_output_memo): keyed by type and value, so equal outputs of one type need equal losses."""
        entry = self.tests.get(id(world))
        if entry is None:
            met = _output_memo(lambda out: self.crit.met(loss_of(self.problem, out, world)))
            entry = self.tests.setdefault(id(world), (world, met))
        return entry[1]


def _point_mass_exact(shared, method, world, n) -> Fraction:
    met = shared.test(world)
    return Fraction(1) if met(method.decide(world.branch.prefix(n))) else Fraction(0)


def _window(shared, method, world, n) -> Optional[list[range]]:
    """The success-count ranges at n of the declared CountLaws.window on an IID-Bernoulli world, or None."""
    laws = method.laws if world.measure.binary else None
    return None if laws is None else laws.window(shared.problem, world, n, shared.crit)


_CURSOR_CAP = 8  # cursors kept per bias, the oldest dropped first: both edges of a few windows


def _cumulative(cursors: list, p: int, q: int, n: int, k: int) -> int:
    """G(k) = sum of comb(n, j) p**j r**(n - j) over j <= k, for 0 < p < q and r = q - p: G(-1) = 0, G(n) = q**n.

    Between, walked from the nearest of the cursors (n', k', term T at k', G) with n' <= n, or a fresh one at
    k = 0 or n, by O(1) big-int steps: n + 1: G' = qG - pT, T' = T(n + 1)r / (n + 1 - k); k + 1:
    T' = T(n - k)p / ((k + 1)r), G' = G + T'; k - 1: G' = G - T, T' = Tkr / ((n - k + 1)p)."""
    if not 0 <= k < n:
        return 0 if k < 0 else q**n
    r = q - p
    start, cost = None, min(k, n - k)
    for c in cursors:
        if c[0] <= n and (steps := n - c[0] + abs(k - c[1])) <= cost:
            start, cost = c, steps
    if start is not None and cost == 0:
        return start[3]
    m, j, t, g = start or ((n, 0, r**n, r**n) if k <= n - k else (n, n, p**n, q**n))
    for m in range(m + 1, n + 1):
        g, t = q * g - p * t, t * m * r // (m - j)
    for j in range(j, k):
        t = t * (n - j) * p // ((j + 1) * r)
        g += t
    for j in range(j, k, -1):
        g, t = g - t, t * j * r // ((n - j + 1) * p)
    cursors.append((n, k, t, g))
    if len(cursors) > _CURSOR_CAP:
        del cursors[0]
    return g


def _binomial_exact(shared, method, world, n) -> Fraction:
    """The binomial mass of the success window at n, G(b - 1) - G(a - 1) per range [a, b) clipped to 0..n,
    off the shared cursors of theta = p/q and kept in the shared values by (p, q, n, window)."""
    th = world.measure.theta
    p, q = th.numerator, th.denominator  # theta's ints: hashing a Fraction is slow
    # At theta = 0 or 1 (q = 1) all mass sits on k = 0 or k = n, the one k tested.
    ks = range(n + 1) if p and q - p else (0 if p == 0 else n,)
    ranges = _window(shared, method, world, n)
    if ranges is None:  # no declared window vouches: decide the (n - k, k) rows in one block call
        import numpy as np

        k = np.arange(ks[0], ks[-1] + 1)
        decided = method.decide_count_block((0, 1), np.stack([n - k, k], axis=1))
        flags = _count_block_flags(shared, world, decided)
        # The edges of the zero-padded flags alternate between the starts and the stops of runs of hits.
        edges = (np.flatnonzero(np.diff(flags, prepend=False, append=False)) + ks[0]).tolist()
        ranges = [range(a, b) for a, b in zip(edges[::2], edges[1::2])]
    if len(ks) == 1:
        return Fraction(int(any(ks[0] in rg for rg in ranges)))
    key = (p, q, n, tuple((a, b) for rg in ranges if (a := max(rg.start, 0)) < (b := min(rg.stop, n + 1))))
    if key not in shared.values:
        cursors = shared.cursors.setdefault((p, q), [])
        G = (_cumulative(cursors, p, q, n, b - 1) - _cumulative(cursors, p, q, n, a - 1) for a, b in key[3])
        shared.values[key] = Fraction(sum(G), q**n)
    return shared.values[key]


def _enum_exact(shared, method, world, n) -> Fraction:
    # In lexicographic order, each leaf of the level weighs the product of its tokens' nums over q**n.
    met = shared.test(world)
    tokens, nums, q = world.measure.support
    leaves = zip(itertools.product(tokens, repeat=n), itertools.product(nums, repeat=n))
    return Fraction(sum(math.prod(weights) for seq, weights in leaves if met(method.decide(seq))), q**n)


def _compositions(n: int, t: int):
    """An int array of all C(n+t-1, t-1) count vectors of t nonnegative ints summing to n, one per row."""
    import numpy as np

    if t == 2:  # directly: itertools takes 150 us at n = 1000
        k = np.arange(n + 1)
        return np.stack([k, n - k], axis=1)
    # Stars and bars: the t-1 bar positions among n+t-1 slots fix the gaps between them.
    m = math.comb(n + t - 1, t - 1)
    bars = itertools.chain.from_iterable(itertools.combinations(range(n + t - 1), t - 1))
    edges = np.full((m, t + 1), n + t - 1, dtype=np.int64)
    edges[:, 0] = -1
    edges[:, 1:t] = np.fromiter(bars, dtype=np.int64, count=m * (t - 1)).reshape(m, t - 1)
    return np.diff(edges, axis=1) - 1


def _count_block_flags(shared, world, decided):
    """A bool array: per row of a count block's (outputs, index), whether its output meets the criterion in
    the world; each output some row picks is tested once, on the world's shared test."""
    import numpy as np

    outputs, index = decided
    met = shared.test(world)
    hits = np.zeros(len(outputs), dtype=bool)
    for i in np.flatnonzero(np.bincount(index, minlength=len(outputs))):
        hits[i] = met(outputs[i])
    return hits[index]


def _multinomial_exact(shared, method, world, n) -> Fraction:
    # An exchangeable method's output depends only on the token counts c, whose
    # law is multinomial: P(c) = n!/prod(c_j!) * prod(a_j**c_j) / q**n, p_j = a_j/q.
    tokens, nums, q = world.measure.support
    fact = [math.factorial(c) for c in range(n + 1)]
    counts = _compositions(n, len(tokens))
    flags = _count_block_flags(shared, world, method.decide_count_block(tokens, counts))
    num = 0
    for cs in counts[flags].tolist():
        weight = fact[n]
        for a, c in zip(nums, cs):
            weight = weight // fact[c] * a**c  # exact: each partial n!/(c_0!...c_j!) is whole
        num += weight
    return Fraction(num, q**n)


_EXACT_PATHS = {
    POINT_MASS: _point_mass_exact,
    BINOMIAL_EXACT: _binomial_exact,
    ENUM_EXACT: _enum_exact,
    MULTINOMIAL_EXACT: _multinomial_exact,
}


def exact_success_prob(problem, method, world, n, crit, budget: Optional[Budget] = None, *, _shared=None) -> Fraction:
    """Exact probability mass of length-n sequences whose output meets the criterion.

    Takes the exact path the budget plans: the point-mass indicator, the
    binomial sum over success counts, the multinomial sum over token-count
    vectors, or enumeration of the tree level.  success_curve passes its
    context (_Shared) as _shared; sharing changes no value.
    """
    path, n = _plan(method, world, n, budget or Budget()), int(n)  # numpy's integers too
    if path not in _EXACT_PATHS:
        raise ResourceBudgetError(
            f"no exact path for world {world.id!r} at n={n} within the budget; use mc_success_prob"
        )
    return _EXACT_PATHS[path](_shared or _Shared(problem, crit), method, world, n)


# ---------------------------------------------------------------------------
# Monte Carlo success probabilities


def _mc_estimate(hits: int, trials: int) -> Estimate:
    p_hat = float(hits / trials)  # a Python float for a numpy trials count too
    return Estimate(p_hat, math.sqrt(max(0.0, p_hat * (1.0 - p_hat)) / trials), False)


def _count_table(n: int, p, tables: dict):
    """The C(n+t-1, t-1) count vectors of t = len(p) tokens summing to n (_compositions) and their multinomial
    probabilities n!/prod(c_j!) * prod(p_j**c_j) under the positive floats p, from log-factorials, summing to 1.
    The vectors and their sums of log c_j!, which no probability enters, are kept in tables per (n, t)."""
    import numpy as np

    table = tables.get((n, len(p)))
    if table is None:
        vectors = _compositions(n, len(p))
        log_fact = np.concatenate(([0.0], np.log(np.arange(1, n + 1)).cumsum()))  # log c! for c = 0..n
        table = tables[n, len(p)] = vectors, log_fact[vectors].sum(axis=1)
    vectors, log_coef = table
    log_pmf = vectors @ np.log(p) - log_coef  # less the constant log n!
    pmf = np.exp(log_pmf - log_pmf.max())
    return vectors, pmf / pmf.sum()


def _sample_count_block(measure, rng, trials: int, n: int):
    """A (trials, tokens) int array: the multinomial token counts of ``trials`` IID length-n samples of the measure.

    Column j, last to first, is a binomial of the draws left at p_j / (p_0 + ... + p_j),
    undrawn at p_j = 0 (so never 0/0); column 0 takes the rest.  The first drawn column, if another
    follows and n + 1 <= trials, is one rng.multinomial(trials, Binomial(n, p_j) pmf) over its counts
    0..n, so rows come sorted by it: each is Multinomial(n, p) and their multiset is that of trials IID
    rows, all a consumer reads (flags sum weights).  A binary measure's one draw is rng.binomial(n, theta).
    """
    import numpy as np

    counts = np.zeros((trials, len(measure.token_probs)), dtype=np.int64)
    rest, mass = n, Fraction(1)
    drawn = [j for j in range(len(measure.token_probs) - 1, 0, -1) if measure.token_probs[j][1]]
    for j in drawn:
        p = measure.token_probs[j][1]
        if j == drawn[0] and len(drawn) > 1 and n + 1 <= trials:  # one histogram of Binomial(n, p_j)
            _, pmf = _count_table(n, np.array([float(p), float(1 - p)]), {})  # its own tables: pool threads call it
            counts[:, j] = np.repeat(np.arange(n + 1), rng.multinomial(trials, pmf))
        else:
            counts[:, j] = rng.binomial(rest, float(p / mass), size=trials)
        rest, mass = rest - counts[:, j], mass - p
    counts[:, 0] = rest
    return counts


def _mc_draw(method, measure, n, path: str, trials: int, rng, tables=None) -> dict:
    """The trials at (measure, n) that every world on the measure is judged on, with their weights.

    On the planned path: mc-generic decides each sampled prefix once, weight 1; mc-block draws
    _sample_count_block's trials token-count rows, weight 1, in an order no flag reads; mc-histogram
    draws the trials' histogram, one rng.multinomial(trials, P) over every count vector c with
    P(c) = n!/prod(c_j!) * prod(p_j**c_j) in floats, each drawn c once weighing its count.  Its count
    vectors and P come from _count_table, which keeps their log-factorial sums in tables (a dict) where given.
    """
    import numpy as np

    if path == MC_GENERIC:
        outputs = [method.decide(prefix) for prefix in measure.sample_prefixes(rng, trials, n)]
        return {"outputs": outputs, "weights": np.ones(trials, dtype=np.int64)}
    if path == MC_BLOCK:
        return {"rows": _sample_count_block(measure, rng, trials, n), "weights": np.ones(trials, dtype=np.int64)}
    p = np.array([float(pr) for _, pr in measure.token_probs])
    cols = np.flatnonzero(p > 0)
    vectors, pmf = _count_table(n, p[cols], {} if tables is None else tables)
    weights = rng.multinomial(trials, pmf)
    drawn = np.flatnonzero(weights)
    rows = np.zeros((len(drawn), len(p)), dtype=np.int64)
    rows[:, cols] = vectors[drawn]  # a zero-probability token's column stays 0
    return {"rows": rows, "weights": weights[drawn]}


def _mc_flags(shared, method, world, n, draw: dict):
    """A bool array: per trial (row) of the draw, whether the method's output meets the criterion in the world,
    on the world's shared test."""
    import numpy as np

    if "outputs" in draw:
        outputs = draw["outputs"]
        met = shared.test(world)
        return np.fromiter(map(met, outputs), dtype=bool, count=len(outputs))
    rows = draw["rows"]
    ranges = _window(shared, method, world, n)
    if ranges is not None:  # a declared window flags column 1 (the count of 1s) and decides nothing
        hit = np.zeros(n + 1, dtype=bool)
        for rg in ranges:
            hit[max(rg.start, 0) : max(rg.stop, 0)] = True  # a negative bound would count from the end
        return hit[rows[:, 1]]
    if "decided" not in draw:  # the block decides the positive columns, once for every world on the draw
        probs = world.measure.token_probs
        positive = [j for j, (_, pr) in enumerate(probs) if pr > 0]
        draw["decided"] = method.decide_count_block([probs[j][0] for j in positive], rows[:, positive])
    return _count_block_flags(shared, world, draw["decided"])


def mc_success_prob(problem, method, world, n, crit, trials: int, seed: int, *, _shared=None) -> Estimate:
    """Seeded Monte Carlo estimate of the success probability at sample size n.

    The generator is derived from the world's law alone -- (seed, "mc", the
    measure's probabilities in token_probs order, n) -- so the estimate is
    reproducible for fixed arguments whichever worker evaluates it, in
    whichever order: the weight of the draw's (_mc_draw) hits over trials.
    success_curve passes its context (_Shared) as _shared, so every world on
    a measure is judged on one draw, each against its own truth; sharing
    changes no estimate.  A world with no measure reports its deterministic
    indicator.  Trials are checked as Budget checks them, and the seed on
    every path.
    """
    _check_trials(trials)
    n = _integer(n, "sample size", 0)  # numpy's integers too
    seeding.check_key(seed)
    shared = _shared or _Shared(problem, crit)
    m = world.measure
    if m is None:
        return Estimate(float(_point_mass_exact(shared, method, world, n)), 0.0, True)
    key = (m, n, trials, seed)
    draw = shared.draws.get(key)
    if draw is None:
        rng = seeding.generator(seed, "mc", *(pr for _, pr in m.token_probs), n)
        draw = shared.draws[key] = _mc_draw(method, m, n, _mc_path(method, m, n, trials), trials, rng, shared.tables)
    return _mc_estimate(int(draw["weights"][_mc_flags(shared, method, world, n, draw)].sum()), trials)


# ---------------------------------------------------------------------------
# Curves


def _map_items(fn, keys, workers: int) -> dict:
    # Results land in a dict keyed by work item, so assembly order never
    # depends on the execution schedule.  One item or none needs no pool.
    if workers <= 1 or len(keys) <= 1:
        return {key: fn(key) for key in keys}
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as ex:
        futures = {key: ex.submit(fn, key) for key in keys}
        return {key: fut.result() for key, fut in futures.items()}


def _stage_list(horizon, stages, first: int) -> tuple[int, tuple[int, ...]]:
    """The horizon and the stages (first..horizon when None) as ints, or InputDomainError unless all are
    integers (numpy's too, bools not), the horizon is >= 1 and every stage lies in [first, horizon]."""
    stage_list = None if stages is None else tuple(stages)
    bad = [v for v in (horizon, *(stage_list or ())) if not _is_integer(v)]
    if bad:
        raise InputDomainError(f"horizon and stages must be integers, got {bad[0]!r}")
    horizon = int(horizon)
    stage_list = tuple(range(first, horizon + 1)) if stage_list is None else tuple(map(int, stage_list))
    if horizon < 1 or any(s < first or s > horizon for s in stage_list):
        raise InputDomainError(f"horizon must be >= 1 and stages must lie in [{first}, horizon]")
    return horizon, stage_list


def success_curve(
    problem: EmpiricalProblem,
    method: InferenceMethod,
    worlds: Sequence[World],
    crit: SuccessCriterion,
    horizon: int,
    *,
    budget: Optional[Budget] = None,
    seed: int = 0,
    stages: Optional[Sequence[int]] = None,
    workers: int = 1,
) -> SuccessCurve:
    """Success-probability estimates per (world, n), exact where affordable.

    The path is planned once per (measure, n), and the worlds on a measure
    are judged together at n, each by exact_success_prob or mc_success_prob
    on the curve's one context (_Shared), so each point equals that call
    whatever the grid.  Only the (measure, n) planned mc-block go to the
    worker pool, whose threads each hold one draw at a time, as numpy's
    binomials release the GIL; the rest are GIL-bound and judged in the
    calling thread stage by stage, holding one stage's binomial sums and
    count tables at a time.  Each measure's draw is dropped once its worlds
    are judged.  Rows carry the analytic bound where one applies.  Identical
    (arguments, seed) give identical curves at any worker count.
    """
    budget = budget or Budget()
    horizon, stage_list = _stage_list(horizon, stages, 1)
    worlds = tuple(worlds)
    workers = _integer(workers, "workers", 1)
    seeding.check_key(seed)  # checked even where every point is exact
    groups = {}  # measure -> the (index, world) pairs on it, in grid order
    for wi, w in enumerate(worlds):
        groups.setdefault(w.measure, []).append((wi, w))
    groups = list(groups.items())  # keyed by position below
    paths = {(g, n): _plan(method, ws[0][1], n, budget) for g, (_, ws) in enumerate(groups) for n in stage_list}
    shared = _Shared(problem, crit)

    def judge(key):  # every world of group g at n, as ((world index, n), point) pairs
        g, n = key
        m, ws = groups[g]
        path = paths[key]
        out = []
        for wi, w in ws:
            if path in _EXACT_PATHS:
                est = Estimate(exact_success_prob(problem, method, w, n, crit, budget, _shared=shared), 0.0, True)
            else:
                est = mc_success_prob(problem, method, w, n, crit, budget.trials, seed, _shared=shared)
            bound = analytic_bound(problem, method, w, n, crit)
            out.append(((wi, n), CurvePoint(w.id, n, est.value, est.stderr, est.exact, bound)))
        shared.draws.pop((m, n, budget.trials, seed), None)  # the worlds at (g, n) shared it
        return out

    results = _map_items(judge, [key for key, path in paths.items() if path == MC_BLOCK], workers)
    for n in stage_list:
        shared.values.clear()
        shared.tables.clear()
        results.update((key, judge(key)) for g in range(len(groups)) if (key := (g, n)) not in results)
    at = dict(pair for pairs in results.values() for pair in pairs)
    points = tuple(at[wi, n] for wi in range(len(worlds)) for n in stage_list)
    return SuccessCurve(problem.name, method.name, crit.label, points)


# ---------------------------------------------------------------------------
# Mode checks


def _trailing_pass_start(stages, statuses) -> Optional[int]:
    """First stage of the trailing all-PASS run, or None if the run is empty."""
    start = None
    for s, st in zip(reversed(stages), reversed(statuses)):
        if st == "pass":
            start = s
        else:
            break
    return start


def _stage_outputs(method, prefix, first: int = 0) -> list:
    """The outputs on prefix[:s], s = first..len(prefix); a count-block method is decided in one call
    on the running token counts, row s for prefix[:s]."""
    block = method.decide_count_block
    if block is None:
        return [method.decide(prefix[:s]) for s in range(first, len(prefix) + 1)]
    import numpy as np

    column = {tok: j for j, tok in enumerate(dict.fromkeys(prefix))}
    steps = np.zeros((len(prefix) + 1, len(column)), dtype=np.int64)
    steps[np.arange(1, len(prefix) + 1), [column[tok] for tok in prefix]] = 1
    outputs, index = block(list(column), steps.cumsum(axis=0))
    return [outputs[i] for i in index[first:].tolist()]


def _zero_loss_scan(problem, method, world, prefix) -> tuple[Optional[int], list]:
    """Start of the trailing zero-loss run of outputs on prefix[:s], s = 0..len(prefix),
    or None when the last loss is positive; and every stage's loss."""
    losses = list(map(_output_memo(lambda out: loss_of(problem, out, world)), _stage_outputs(method, prefix)))
    statuses = ["pass" if L == 0 else "fail" for L in losses]
    return _trailing_pass_start(range(len(losses)), statuses), losses


def _verdict(mode, horizon, world_verdicts, curve=None) -> Verdict:
    # The first refuted world is the witness.
    witness = next((wv.world_id for wv in world_verdicts if wv.status == "refuted"), None)
    if witness:
        status = REFUTED_AT_HORIZON
    elif any(wv.status == "inconclusive" for wv in world_verdicts):
        status = INCONCLUSIVE
    else:
        status = SUPPORTED_AT_HORIZON
    return Verdict(status, mode, horizon, tuple(world_verdicts), witness, curve)


def _world_verdict(world_id, start, last_status, refuted_note) -> WorldVerdict:
    """Every mode's rule for one world: supported from start, the first stage of the trailing run of
    passing stages; else refuted where the last stage fails, with the note refuted_note() builds; else
    inconclusive."""
    if start is not None:
        return WorldVerdict(world_id, "supported", start)
    if last_status == "fail":
        return WorldVerdict(world_id, "refuted", None, refuted_note())
    return WorldVerdict(world_id, "inconclusive", None, "final stage within sampling margin")


def _stage_status(point: CurvePoint, threshold: Fraction, margin: float) -> str:
    if point.exact:
        return "pass" if point.estimate > threshold else "fail"
    thr = float(threshold)
    if point.estimate - margin * point.stderr > thr:
        return "pass"
    if point.estimate + margin * point.stderr <= thr:
        return "fail"
    return "marginal"


def check_mode(
    problem: EmpiricalProblem,
    method: InferenceMethod,
    params: ModeParams,
    *,
    budget: Optional[Budget] = None,
    seed: int = 0,
    workers: int = 1,
) -> Verdict:
    """Finite-horizon check of one convergence mode over the world grid.

    Every mode judges a world by one rule (_world_verdict): supported from
    the first stage N of the trailing run of passing stages through the
    horizon, else refuted where the last stage fails, else inconclusive.
    Mode I's stages are the prefixes of the world's frozen branch, passing
    at zero loss; it reads only the horizon and world_ids, ignores delta
    and epsilon, and rejects stages.  Modes II and III judge a world with no
    measure as the point mass on its branch; a stage passes where its success
    probability exceeds 1 - delta, with a sampling margin (estimate -
    margin*stderr) on Monte Carlo entries, and a stage inside the margin
    neither passes nor fails.
    """
    budget = budget or Budget()
    workers = _integer(workers, "workers", 1)
    seeding.check_key(seed)  # checked in every mode, though mode I draws nothing
    worlds = params.worlds_of(problem)
    horizon = params.horizon
    world_verdicts = []
    if params.mode == MODE_IDENTIFICATION:
        if params.stages is not None:  # ModeParams keeps them for a success-set curve of the config
            raise InputDomainError("mode I scans every stage to the horizon, so it takes no stages")
        for w in worlds:
            n0, losses = _zero_loss_scan(problem, method, w, w.branch.prefix(horizon))

            def note(losses=losses):
                fails = [s for s, L in enumerate(losses) if L != 0]
                return (
                    f"positive loss at stage {horizon} (loss={losses[-1]}); "
                    f"{len(fails)} failing stages, last at {fails[-1]}"
                )

            world_verdicts.append(_world_verdict(w.id, n0, "pass" if losses[-1] == 0 else "fail", note))
        return _verdict(params.mode, horizon, world_verdicts)

    crit = EXACT if params.mode == MODE_STOCHASTIC_IDENTIFICATION else within(params.epsilon)
    curve = success_curve(
        problem, method, worlds, crit, horizon, budget=budget, seed=seed, stages=params.stages, workers=workers
    )
    threshold = 1 - params.delta
    k = len(params.stages or range(horizon))  # stages per world: curve.points is world-major
    for i, w in enumerate(worlds):
        pts = curve.points[i * k : (i + 1) * k]
        statuses = [_stage_status(p, threshold, budget.mc_margin) for p in pts]

        def note(last=pts[-1]):
            return (
                f"success probability {float(last.estimate):.6g} (stderr {last.stderr:.2g}) at stage {last.n} "
                f"does not exceed 1-delta = {float(threshold):.6g}"
            )

        n0 = _trailing_pass_start([p.n for p in pts], statuses)
        world_verdicts.append(_world_verdict(w.id, n0, statuses[-1], note))
    return _verdict(params.mode, horizon, world_verdicts, curve)


# ---------------------------------------------------------------------------
# Lock times and success sets


def lock_time(problem, method, world, horizon: int) -> Optional[int]:
    """First stage from which outputs attain zero loss through the horizon.

    Relative to the horizon: None when no such stage <= horizon exists.
    """
    horizon = _integer(horizon, "horizon", 1)
    return _zero_loss_scan(problem, method, world, world.branch.prefix(horizon))[0]


def _set_plan(problem, method, world, strategy: str) -> str:
    """The evaluation path of the success-set (lock-stage) probabilities in one world.

    A world with no measure has one branch, so its lock stage is exact under
    every strategy (point-mass).  Otherwise, unless the strategy is "mc", a
    closed form wins where one exists, or "exact" raises; lock stages are sampled, from
    the geometric first-zero law where the laws declare it on a binary measure, else by a prefix scan.
    """
    m = world.measure
    if problem.truth_of_prefix is None:
        raise PreconditionError(
            "success-set machinery needs a problem whose branches determine truths one-to-one"
        )
    if m is None:
        return POINT_MASS
    geometric = method.laws is not None and method.laws.locks_at_first_zero and m.binary
    if strategy != "mc":
        if geometric:
            return GEOMETRIC_EXACT
        if strategy == "exact":
            raise ResourceBudgetError("no exact success-set path for this method/measure")
    return GEOMETRIC_MC if geometric else MC


def _lock_stage_samples(problem, method, world, horizon, trials, seed, path: str):
    """The int-array histogram over a world's sampled branches of the stage at which the method locks onto the truth:
    cell j < horizon + 1 counts the branches locked at stage j, the last cell those unlocked by the horizon.

    On the planned path GEOMETRIC_MC, one multinomial draw over the cells of the geometric first-zero law;
    on MC, the starts of the branches' trailing zero-loss runs through the horizon, each scanned back from
    the horizon.  MC holds the branches as rows of token indices (a byte each on a small alphabet), takes
    them in lexicographic order of index (tokens need not be orderable) and keeps the outputs on the prefix
    shared with the row before, so a method with no count block decides each distinct sampled prefix once
    (decide is deterministic); a count-block method makes one block call per branch.  The sample is
    derived from (seed, world id, horizon) only, so all stages n share it and the estimated lock
    probability is nondecreasing in n.
    """
    import numpy as np

    m = world.measure
    rng = seeding.generator(seed, "success-set", world.id, horizon)
    if path == GEOMETRIC_MC:
        # The lock stage L is the first-zero position, geometric with hit chance 1 - theta: P(L <= j) =
        # 1 - theta**j.  Its law is horizon-free, with no truncation bias from scanning a finite prefix (a
        # branch with no zero by the horizon is almost surely unlocked at a later stage, not locked at 0).
        th = m.theta
        cells = np.zeros(horizon + 2)
        if th == 1:  # the all-1s branch, truth Yes, is locked from stage 0
            cells[0] = 1
        else:
            log_th = math.log1p(-float(1 - th)) if th else -math.inf
            cells[1:] = np.diff(-np.expm1(np.arange(1, horizon + 1) * log_th), prepend=0.0, append=1.0)
        return rng.multinomial(trials, cells)

    column = {tok: j for j, (tok, _) in enumerate(m.token_probs)}
    tokens, drawn = list(column), itertools.chain.from_iterable(m.sample_prefixes(rng, trials, horizon))
    keys = np.fromiter(map(column.__getitem__, drawn), np.min_scalar_type(len(tokens))).reshape(trials, horizon)
    keys = keys[np.lexsort(keys.T[::-1])]
    fresh = keys[1:] != keys[:-1]  # firsts: per sorted row, the first stage off the row before
    firsts, outs, locks = [0, *np.where(fresh.any(axis=1), fresh.argmax(axis=1) + 1, horizon + 1).tolist()], [], []
    for row, first in zip(keys, firsts):
        prefix = tuple(map(tokens.__getitem__, row.tolist()))
        outs[first:] = _stage_outputs(method, prefix, first)
        ephemeral = replace(world, truth=problem.truth_of_prefix(prefix))
        loss = _output_memo(lambda out: loss_of(problem, out, ephemeral))
        # One past the last positive loss: horizon + 1, the unlocked cell, when the last stage's loss is positive.
        locks.append(next((s + 1 for s in range(horizon, -1, -1) if loss(outs[s]) != 0), 0))
    return np.bincount(locks, minlength=horizon + 2)


def success_set_prob(
    problem,
    method,
    world,
    n: int,
    *,
    horizon: Optional[int] = None,
    trials: int = 10_000,
    seed: int = 0,
    strategy: str = "auto",
) -> Estimate:
    """Probability that the method has locked onto the truth by stage n.

    The one point of success_set_curve at (world, n), with horizon
    defaulting to max(n, 1): inputs are checked as the curve checks them,
    and a stage past the horizon is rejected on every path.
    """
    T = horizon if horizon is not None else max(n, 1) if _is_integer(n) else n  # the stage check rejects a bad n
    curve = success_set_curve(problem, method, [world], [n], horizon=T, trials=trials, seed=seed, strategy=strategy)
    (pt,) = curve.points
    return Estimate(pt.estimate, pt.stderr, pt.exact)


def success_set_curve(
    problem,
    method,
    worlds: Sequence[World],
    stages: Sequence[int],
    *,
    horizon: int,
    trials: int = 10_000,
    seed: int = 0,
    strategy: str = "auto",
) -> SuccessCurve:
    """Lock-by-stage-n probability per (world, n), along each world's one planned path.

    Exact in a world with no measure (the point mass on its branch) under every strategy, and by the closed
    form 1 - p**n + [p = 1] for first-zero-locking methods under IID-Bernoulli(p) unless strategy="mc";
    sampled otherwise, where a method with no count block decides each distinct sampled prefix once.  All
    stages of one world read the cumulative sums of one lock-stage histogram, derived from (seed, world id,
    horizon), so the sampled curve is nondecreasing.  Strategy, trials, horizon (>= 1), the integer
    stages (in [0, horizon]) and the seed are checked once per call, on every path.  Worlds are evaluated
    in the calling thread, one after another.
    """
    Budget(strategy=strategy, trials=trials)
    horizon, stage_list = _stage_list(horizon, stages, 0)
    seeding.check_key(seed)

    def evaluate(w):
        path = _set_plan(problem, method, w, strategy)
        if path == GEOMETRIC_EXACT:
            theta = w.measure.theta  # at theta = 1 the all-1s branch, truth Yes, is locked from stage 0
            ests = [Estimate(1 - theta**n + (theta == 1), 0.0, True) for n in stage_list]
        elif path == POINT_MASS:  # the world's one branch, judged against its own truth at every horizon
            lock = lock_time(problem, method, w, horizon)
            ests = [Estimate(Fraction(int(lock is not None and lock <= n)), 0.0, True) for n in stage_list]
        else:
            # locked[n]: the branches locked by stage n, one cumulative count for every stage.
            locked = _lock_stage_samples(problem, method, w, horizon, trials, seed, path).cumsum().tolist()
            ests = [_mc_estimate(locked[n], trials) for n in stage_list]
        return [CurvePoint(w.id, n, e.value, e.stderr, e.exact, None) for n, e in zip(stage_list, ests)]

    points = tuple(pt for w in worlds for pt in evaluate(w))
    return SuccessCurve(problem.name, method.name, "success-set", points)


# ---------------------------------------------------------------------------
# Unachievability witnesses


def underdetermination_witness(
    problem: EmpiricalProblem, horizon: int = 64
) -> Optional[tuple[World, World]]:
    """Two admitted worlds sharing one branch but with different truths.

    Any method outputs the same hypothesis on the shared data at every
    stage, so zero loss in one world forces positive loss in the other:
    the pair refutes nonstochastic identification, led by a fair world (truth
    Fair, or an IID-Bernoulli(1/2) measure) when the branch has one.  None
    when every branch in the family carries a single truth.
    """
    horizon = _integer(horizon, "horizon", 0)
    fair = Measure.iid_bernoulli(Fraction(1, 2))
    groups: dict[str, list[World]] = {}
    for w in problem.worlds:
        groups.setdefault(w.branch.id, []).append(w)
    for bid, members in groups.items():
        if len(members) < 2:
            continue
        ref = members[0].branch.prefix(horizon)
        if any(w.branch.prefix(horizon) != ref for w in members[1:]):
            continue
        first = next((w for w in members if w.truth == FAIR or w.measure == fair), members[0])
        partner = next((w for w in members if w.truth != first.truth), None)
        if partner is not None:
            return (first, partner)
    return None


def _enumerate_outputs(method, depth: int):
    yield method.decide(())  # first: a method whose outputs are not reals is refused before any block call
    block = method.decide_count_block
    # One budget on both paths, every binary sequence to depth 20: a block decides one (n - k, k) row per length
    # and count of 1s, decide each of the 2**(depth + 1) - 1 sequences (capped, so a huge depth compares cheaply).
    inputs = (depth + 1) * (depth + 2) // 2 if block is not None else 2 ** min(depth + 1, 22) - 1
    if inputs > 2**21 - 1:
        raise ResourceBudgetError(f"depth {depth}: enumerating its inputs exceeds the budget of 2**21 - 1")
    if block is not None:
        import numpy as np

        n = np.repeat(np.arange(depth + 1), np.arange(1, depth + 2))
        k = np.arange(len(n)) - n * (n + 1) // 2  # length n's rows start at n(n + 1)/2
        outputs, index = block((0, 1), np.stack([n - k, k], axis=1))
        yield from (outputs[i] for i in index.tolist())
    else:
        yield from (method.decide(seq) for n in range(depth + 1) for seq in itertools.product((0, 1), repeat=n))


def _output_gap(method, depth: int):
    """The widest gap (lo, hi) between the method's distinct outputs to depth, 0 and 1, the lowest of equal gaps, and
    those outputs as (numerator, denominator) pairs in lowest terms: all in integers, no Fraction arithmetic."""
    depth = _integer(depth, "depth", 0)
    values = set()

    @_output_memo  # each distinct output that is no exact Fraction is checked once
    def ratio(out):
        if isinstance(out, bool) or not isinstance(out, (int, float, Fraction)):
            raise TypeError(f"cardinality witness needs real-valued outputs, got {out!r}")
        return out.as_integer_ratio()  # lowest terms; a NaN or infinite float raises as Fraction(out) would

    for out in _enumerate_outputs(method, depth):
        if type(out) is Fraction:
            v = out.numerator, out.denominator
        elif out is SUSPEND:
            continue
        else:
            v = ratio(out)
        if v not in values:
            if not 0 <= v[0] <= v[1]:  # the denominator is positive
                raise InputDomainError(f"output {out!r} outside [0, 1]")
            values.add(v)
    # a / b is correctly rounded, so the float order is the exact order wherever no two floats tie.
    points = sorted(values | {(0, 1), (1, 1)}, key=lambda v: v[0] / v[1])
    if any(a / b == c / d for (a, b), (c, d) in zip(points, points[1:])):
        points.sort(key=lambda v: (v[0] / v[1], Fraction(*v)))
    gap = lo = hi = None
    for (a, b), (c, d) in zip(points, points[1:]):
        width = c * b - a * d, b * d  # c/d - a/b
        if gap is None or width[0] * gap[1] > gap[0] * width[1]:  # strictly wider: a tie keeps the lower gap
            gap, lo, hi = width, (a, b), (c, d)
    return Fraction(*lo), Fraction(*hi), values


def cardinality_witness(method: InferenceMethod, depth: int = 15) -> Fraction:
    """A hypothesis value in [0, 1] the method never outputs on inputs up to depth.

    Enumerates the method's outputs on all binary inputs of length <= depth,
    augments the sorted value set with the endpoints 0 and 1, and returns the
    midpoint of the widest gap (ties resolved toward the lowest interval).
    Finitely many inputs can only realise finitely many of the continuum of
    values, so the gap is always nonempty.
    """
    lo, hi, _ = _output_gap(method, depth)
    return (lo + hi) / 2


def cardinality_witness_report(method: InferenceMethod, depth: int = 15) -> dict:
    """Witness value plus the enumerated-output summary, for serialization."""
    lo, hi, values = _output_gap(method, depth)
    return {
        "witness": str((lo + hi) / 2),
        "witness_float": float((lo + hi) / 2),
        "gap": [str(lo), str(hi)],
        "depth": depth,
        "distinct_outputs": len(values),
    }
