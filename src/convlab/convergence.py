"""Success probabilities, convergence-mode checks, and unachievability witnesses.

The engine evaluates, per world and sample size, the probability that a
method's output meets a success criterion (zero loss, or loss within
epsilon).  Probabilities are computed exactly where the budget allows --
full enumeration of the evidence tree level, or for an exchangeable method
(read only through its count block, ``_count_block``) a binomial sum over
the count of 1s under IID-Bernoulli data or a multinomial sum over the
token-count vectors under any IID world -- and by seeded Monte Carlo
otherwise; one planner (``_plan``) picks that path per (world, n).
Mode checks aggregate these into finite-horizon verdicts: a
horizon-stamped verdict is evidence about the limit behaviour, not a
proof.  Analytic lower bounds are reported per curve row; no verdict
reads them yet, so none is certified beyond its horizon.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
import sys
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import seeding
from .core import (
    FAIR,
    KIND_IID_BERNOULLI,
    KIND_POINT_MASS,
    SUSPEND,
    EmpiricalProblem,
    InferenceMethod,
    InputDomainError,
    PreconditionError,
    ResourceBudgetError,
    World,
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
        for v in (self.trials, self.exact_enum_cap, self.symmetric_exact_cap):
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise InputDomainError(f"trials and budget caps must be integers, got {v!r}")
        if self.trials < 1:
            raise InputDomainError("trials must be >= 1")
        if self.exact_enum_cap < 1 or self.symmetric_exact_cap < 0:
            raise InputDomainError("budget caps must be positive")
        m = self.mc_margin
        if isinstance(m, bool) or not isinstance(m, numbers.Real) or not (math.isfinite(m) and m >= 0):
            raise InputDomainError(f"mc_margin must be a finite real >= 0, got {m!r}")


@dataclass(frozen=True)
class ModeParams:
    """Which convergence mode to check, at which horizon, with which margins.

    delta is the probability slack (modes II/III), epsilon the loss radius
    (mode III).  The quantifier order puts delta and epsilon before the
    world, so per-world threshold stages N are reported and no uniform N is
    required.  stages optionally restricts the evaluated sample sizes for
    the stochastic modes; world_ids restricts the world grid.
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
        for v in (self.horizon, *(self.stages or ())):
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise InputDomainError(f"horizon and stages must be integers, got {v!r}")
        if self.horizon < 1:
            raise InputDomainError("horizon must be >= 1")
        if self.mode in (MODE_STOCHASTIC_IDENTIFICATION, MODE_STOCHASTIC_APPROXIMATION):
            if self.delta is None or not 0 < self.delta < 1:
                raise InputDomainError("stochastic modes need delta in (0, 1)")
        if self.mode == MODE_STOCHASTIC_APPROXIMATION:
            if self.epsilon is None or self.epsilon <= 0:
                raise InputDomainError("mode III needs epsilon > 0")
        if self.epsilon is not None and self.epsilon > sys.float_info.max:
            raise InputDomainError("epsilon must not exceed the largest float")
        if self.stages is not None:
            if not self.stages or any(s < 1 or s > self.horizon for s in self.stages):
                raise InputDomainError("stages must be nonempty and lie in [1, horizon]")
            if list(self.stages) != sorted(set(self.stages)):
                raise InputDomainError("stages must be strictly increasing")
        ids = self.world_ids
        if ids is not None and not (isinstance(ids, tuple) and all(isinstance(i, str) for i in ids)):
            raise InputDomainError(f"world_ids must be a sequence of world id strings, got {ids!r}")

    def worlds_of(self, problem) -> tuple[World, ...]:
        """The problem's worlds named by world_ids, or all of them."""
        if self.world_ids is None:
            return problem.worlds
        return tuple(problem.world(i) for i in self.world_ids)


def mode_params(mode, horizon, delta=None, epsilon=None, stages=None, world_ids=None) -> ModeParams:
    if isinstance(world_ids, Iterable) and not isinstance(world_ids, str):
        world_ids = tuple(world_ids)  # a string stays whole, for ModeParams to reject
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
    if n < 1:
        raise InputDomainError("bound requires n >= 1")
    e = as_fraction(eps)
    if e <= 0:
        raise InputDomainError("bound requires eps > 0")
    return max(Fraction(0), 1 - Fraction(1, 1) / (4 * n * e * e))


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
    """A certified lower bound on the success probability, where the method's laws declare one."""
    m = world.measure
    laws = method.laws
    if m is None or m.kind != KIND_IID_BERNOULLI or n < 1 or laws is None or laws.bound is None:
        return None
    return laws.bound(problem, world, n, crit)


# ---------------------------------------------------------------------------
# Evaluation paths

POINT_MASS = "point-mass"
BINOMIAL_EXACT = "binomial-exact"
ENUM_EXACT = "enum-exact"
MULTINOMIAL_EXACT = "multinomial-exact"
MC_BLOCK = "mc-block"
MC_GENERIC = "mc-generic"
GEOMETRIC_EXACT = "geometric-exact"
MC = "mc"


def _count_block(method):
    """The method's count block: decide_count_block, else one derived from decide_counts, else None.

    The derived block reads (n, k) off either order of the tokens 0 and 1, decides each distinct (n, k)
    once, and raises as the derived decide does on a non-binary token with a positive count.  Derived
    here, not stored, so that replace(method, decide_counts=None) leaves no block behind.
    """
    if method.decide_count_block is not None or method.decide_counts is None:
        return method.decide_count_block

    def block(tokens, counts):
        for j, tok in enumerate(tokens):
            if tok not in (0, 1) and counts[:, j].any():
                raise InputDomainError(f"non-binary token {tok!r}")
        n = counts.sum(axis=1)
        k = counts[:, [j for j, tok in enumerate(tokens) if tok == 1]].sum(axis=1)
        base = int(n.max(initial=0)) + 1
        keys, index = np.unique(n * base + k, return_inverse=True)  # a 1-D key: far cheaper than unique rows
        return [method.decide_counts(*divmod(key, base)) for key in keys.tolist()], index

    return block


def _plan(method, world, n, budget: Budget) -> str:
    """The evaluation path of the success probability at (world, n) under the budget.

    Unless the strategy is "mc", an exact path wins where it fits its cap:
    symmetric_exact_cap on n for a count-block method's binomial sum on
    IID-Bernoulli data, then exact_enum_cap on the tree level's leaves, which
    also caps the multinomial sum that stands in for enumeration; past the
    caps "auto" samples and "exact" raises.  Sampling decides a count-block
    method on Measure.sample_count_block's count vectors and any other on
    whole prefixes: one law, not one stream of draws.
    """
    m = world.measure
    if m is None:
        raise PreconditionError(f"world {world.id!r} carries no measure")
    if n < 0:
        raise InputDomainError("sample size must be >= 0")
    if m.kind == KIND_POINT_MASS:
        return POINT_MASS
    block = _count_block(method) is not None
    if budget.strategy != "mc":
        if block and m.kind == KIND_IID_BERNOULLI and n <= budget.symmetric_exact_cap:
            return BINOMIAL_EXACT
        if sum(pr > 0 for _, pr in m.token_probs) ** n <= budget.exact_enum_cap:
            return MULTINOMIAL_EXACT if block else ENUM_EXACT
        if budget.strategy == "exact":
            raise ResourceBudgetError(
                f"exact strategy: no exact path for world {world.id!r} at n={n}"
            )
    return MC_BLOCK if block else MC_GENERIC


# Distinct output objects whose success one evaluation-path call remembers.
_SUCCESS_MEMO_CAP = 256


def _success_test(problem, world, crit):
    """Whether a method output meets the criterion in the world, memoised per output object.

    Catalog methods return a few shared objects (FAIR/UNFAIR, YES/NO, the
    pool's classifiers), so each one's loss is evaluated once per call.  The
    memo is keyed by identity and holds each keyed object, so its id cannot
    be reused while the memo lives; it stops growing at _SUCCESS_MEMO_CAP
    objects, so a method that builds a fresh output per input does not pin
    them all.
    """
    memo = {}

    def met(out) -> bool:
        entry = memo.get(id(out))
        if entry is not None:
            return entry[1]
        hit = crit.met(loss_of(problem, out, world))
        if len(memo) < _SUCCESS_MEMO_CAP:
            memo[id(out)] = (out, hit)
        return hit

    return met


def _point_mass_exact(problem, method, world, n, crit) -> Fraction:
    met = _success_test(problem, world, crit)
    return Fraction(1) if met(method.decide(world.measure.point.prefix(n))) else Fraction(0)


def _window(problem, method, world, n, crit) -> Optional[list[range]]:
    """The success-count ranges at n of the declared CountLaws.window on an IID-Bernoulli world, or None."""
    laws = method.laws if world.measure.kind == KIND_IID_BERNOULLI else None
    return None if laws is None else laws.window(problem, world, n, crit)


def _binomial_exact(problem, method, world, n, crit) -> Fraction:
    th = world.measure.theta
    p, q = th.numerator, th.denominator
    r = q - p
    # At theta = 0 or 1 (q = 1) all mass sits on k = 0 or k = n, the one k tested.
    ks = range(n + 1) if p and r else (0 if p == 0 else n,)
    ranges = _window(problem, method, world, n, crit)
    if ranges is None:  # no declared window vouches: decide the (n - k, k) rows in one block call
        k = np.arange(ks[0], ks[-1] + 1)
        flags = _count_block_flags(problem, method, world, crit, (0, 1), np.stack([n - k, k], axis=1))
        # The edges of the zero-padded flags alternate between the starts and the stops of runs of hits.
        edges = (np.flatnonzero(np.diff(flags, prepend=False, append=False)) + ks[0]).tolist()
        ranges = [range(a, b) for a, b in zip(edges[::2], edges[1::2])]
    if len(ks) == 1:
        return Fraction(int(any(ks[0] in rg for rg in ranges)))
    num = 0
    for rg in filter(None, ranges):  # an empty range's start may lie past n
        # term = comb(n, k) * p**k * r**(n - k), stepped in k by its ratio (n - k) p / ((k + 1) r).
        term = math.comb(n, rg.start) * p**rg.start * r ** (n - rg.start)
        for k in rg:
            num += term
            term = term * (n - k) * p // ((k + 1) * r)
    return Fraction(num, q**n)


def _enum_exact(problem, method, world, n, crit) -> Fraction:
    met = _success_test(problem, world, crit)
    support = [(tok, pr) for tok, pr in world.measure.token_probs if pr > 0]
    total = Fraction(0)

    def walk(prefix, weight):
        nonlocal total
        if len(prefix) == n:
            if met(method.decide(prefix)):
                total += weight
            return
        for tok, pr in support:
            walk(prefix + (tok,), weight * pr)

    walk((), Fraction(1))
    return total


def _compositions(n: int, t: int) -> np.ndarray:
    """All C(n+t-1, t-1) count vectors of t nonnegative ints summing to n, one per row."""
    # Stars and bars: the t-1 bar positions among n+t-1 slots fix the gaps between them.
    m = math.comb(n + t - 1, t - 1)
    bars = itertools.chain.from_iterable(itertools.combinations(range(n + t - 1), t - 1))
    edges = np.full((m, t + 1), n + t - 1, dtype=np.int64)
    edges[:, 0] = -1
    edges[:, 1:t] = np.fromiter(bars, dtype=np.int64, count=m * (t - 1)).reshape(m, t - 1)
    return np.diff(edges, axis=1) - 1


def _count_block_flags(problem, method, world, crit, tokens, counts) -> np.ndarray:
    """Per row of token counts, whether the method's output on those counts meets the criterion.

    Reads the count block's (outputs, index) and tests each output some row picks once.
    """
    outputs, index = _count_block(method)(tokens, counts)
    met = _success_test(problem, world, crit)
    hits = np.zeros(len(outputs), dtype=bool)
    for i in np.flatnonzero(np.bincount(index, minlength=len(outputs))):
        hits[i] = met(outputs[i])
    return hits[index]


def _multinomial_exact(problem, method, world, n, crit) -> Fraction:
    # An exchangeable method's output depends only on the token counts c, whose
    # law is multinomial: P(c) = n!/prod(c_j!) * prod(a_j**c_j) / q**n, p_j = a_j/q.
    support = [(tok, pr) for tok, pr in world.measure.token_probs if pr > 0]
    q = math.lcm(*(pr.denominator for _, pr in support))
    nums = [pr.numerator * (q // pr.denominator) for _, pr in support]
    fact = [math.factorial(c) for c in range(n + 1)]
    counts = _compositions(n, len(support))
    flags = _count_block_flags(problem, method, world, crit, [tok for tok, _ in support], counts)
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


def exact_success_prob(problem, method, world, n, crit, budget: Optional[Budget] = None) -> Fraction:
    """Exact probability mass of length-n sequences whose output meets the criterion.

    Takes the exact path the budget plans: the point-mass indicator, the
    binomial sum over success counts, the multinomial sum over token-count
    vectors, or enumeration of the tree level.
    """
    path = _plan(method, world, n, budget or Budget())
    if path not in _EXACT_PATHS:
        raise ResourceBudgetError(
            f"no exact path for world {world.id!r} at n={n} within the budget; use mc_success_prob"
        )
    return _EXACT_PATHS[path](problem, method, world, n, crit)


# ---------------------------------------------------------------------------
# Monte Carlo success probabilities


def _mc_estimate(flags: np.ndarray) -> Estimate:
    p_hat = float(flags.mean())
    return Estimate(p_hat, math.sqrt(max(0.0, p_hat * (1.0 - p_hat)) / flags.size), False)


def _mc_block(problem, method, world, n, crit, trials, rng) -> np.ndarray:
    # Multinomial count vectors: _mc_generic's law, not its draws.  A declared window flags column 1
    # (the count of 1s) and decides nothing; otherwise the block decides the positive columns.
    probs = world.measure.token_probs
    counts = world.measure.sample_count_block(rng, trials, n)
    ranges = _window(problem, method, world, n, crit)
    if ranges is not None:
        hit = np.zeros(n + 1, dtype=bool)
        for rg in ranges:
            hit[max(rg.start, 0) : max(rg.stop, 0)] = True  # a negative bound would count from the end
        return hit[counts[:, 1]]
    positive = [j for j, (_, pr) in enumerate(probs) if pr > 0]
    return _count_block_flags(problem, method, world, crit, [probs[j][0] for j in positive], counts[:, positive])


def _mc_generic(problem, method, world, n, crit, trials, rng) -> np.ndarray:
    met = _success_test(problem, world, crit)
    prefixes = world.measure.sample_prefixes(rng, trials, n)
    return np.array([met(method.decide(prefix)) for prefix in prefixes], dtype=bool)


_MC_PATHS = {MC_BLOCK: _mc_block, MC_GENERIC: _mc_generic}


def mc_success_prob(problem, method, world, n, crit, trials: int, seed: int) -> Estimate:
    """Seeded Monte Carlo estimate of the success probability at sample size n.

    The generator is derived from (seed, world id, n), so the estimate is
    reproducible for fixed arguments no matter which worker evaluates it or
    in which order the (world, n) work items run.  Point-mass worlds report
    their deterministic indicator.
    """
    path = _plan(method, world, n, Budget(strategy="mc", trials=trials))
    if path == POINT_MASS:
        return Estimate(float(_point_mass_exact(problem, method, world, n, crit)), 0.0, True)
    rng = seeding.generator(seed, "mc", world.id, n)
    return _mc_estimate(_MC_PATHS[path](problem, method, world, n, crit, trials, rng))


# ---------------------------------------------------------------------------
# Curves


def resolve_workers(requested: Optional[int]) -> int:
    """Worker count after applying the CONVLAB_THREADS environment cap."""
    w = 1 if requested is None else max(1, int(requested))
    env = os.environ.get("CONVLAB_THREADS")
    if env:
        try:
            w = min(w, max(1, int(env)))
        except ValueError:
            raise InputDomainError(f"CONVLAB_THREADS must be an integer, got {env!r}") from None
    return w


def _map_items(fn, keys, workers: int) -> dict:
    # Results land in a dict keyed by work item, so assembly order never
    # depends on the execution schedule.
    if workers <= 1:
        return {key: fn(key) for key in keys}
    with ThreadPoolExecutor(max_workers=workers) as ex:
        futures = {key: ex.submit(fn, key) for key in keys}
        return {key: fut.result() for key, fut in futures.items()}


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

    Rows carry the analytic lower bound when one applies.  Identical
    (arguments, seed) produce identical curves at any worker count.
    """
    budget = budget or Budget()
    if horizon < 1:
        raise InputDomainError("horizon must be >= 1")
    stage_list = tuple(stages) if stages is not None else tuple(range(1, horizon + 1))
    if any(s < 1 or s > horizon for s in stage_list):
        raise InputDomainError("stages must lie in [1, horizon]")
    worlds = tuple(worlds)
    workers = resolve_workers(workers)

    def evaluate(key):
        wi, n = key
        w = worlds[wi]
        if _plan(method, w, n, budget) in _EXACT_PATHS:
            est = Estimate(exact_success_prob(problem, method, w, n, crit, budget), 0.0, True)
        else:
            est = mc_success_prob(problem, method, w, n, crit, budget.trials, seed)
        return CurvePoint(
            world_id=w.id,
            n=n,
            estimate=est.value,
            stderr=est.stderr,
            exact=est.exact,
            bound=analytic_bound(problem, method, w, n, crit),
        )

    keys = [(wi, n) for wi in range(len(worlds)) for n in stage_list]
    results = _map_items(evaluate, keys, workers)
    points = tuple(results[k] for k in keys)
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


def _zero_loss_scan(problem, method, world, prefix) -> tuple[Optional[int], list]:
    """Start of the trailing zero-loss run of outputs on prefix[:s], s = 0..len(prefix),
    or None when the last loss is positive; and every stage's loss.

    A count-block method is decided in one call on the running token counts, row s for prefix[:s].
    """
    block = _count_block(method)
    if block is None:
        outs = [method.decide(prefix[:s]) for s in range(len(prefix) + 1)]
    else:
        column = {tok: j for j, tok in enumerate(dict.fromkeys(prefix))}
        steps = np.zeros((len(prefix) + 1, len(column)), dtype=np.int64)
        steps[np.arange(1, len(prefix) + 1), [column[tok] for tok in prefix]] = 1
        outputs, index = block(list(column), steps.cumsum(axis=0))
        outs = [outputs[i] for i in index.tolist()]
    losses = [loss_of(problem, out, world) for out in outs]
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


def _check_identification(problem, method, worlds, horizon) -> Verdict:
    world_verdicts = []
    for w in worlds:
        n0, losses = _zero_loss_scan(problem, method, w, w.branch.prefix(horizon))
        if n0 is not None:
            world_verdicts.append(WorldVerdict(w.id, "supported", n0))
        else:
            fail_stages = [s for s, L in enumerate(losses) if L != 0]
            note = (
                f"positive loss at stage {horizon} (loss={losses[-1]}); "
                f"{len(fail_stages)} failing stages, last at {fail_stages[-1]}"
            )
            world_verdicts.append(WorldVerdict(w.id, "refuted", None, note))
    return _verdict(MODE_IDENTIFICATION, horizon, world_verdicts)


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

    Mode I scans per-world losses along the frozen branch for a trailing
    zero-loss run.  Modes II and III require every grid world to carry a
    measure; their success curves must clear 1 - delta from some stage
    through the horizon, with a sampling margin (estimate - margin*stderr)
    on Monte Carlo entries.  Stages that fail the raw threshold but sit
    inside the margin yield an inconclusive world rather than a refuted one.
    """
    budget = budget or Budget()
    worlds = params.worlds_of(problem)
    if params.mode == MODE_IDENTIFICATION:
        return _check_identification(problem, method, worlds, params.horizon)

    missing = [w.id for w in worlds if w.measure is None]
    if missing:
        raise PreconditionError(
            f"stochastic mode checks need a measure in every world; missing in {missing}"
        )
    crit = EXACT if params.mode == MODE_STOCHASTIC_IDENTIFICATION else within(params.epsilon)
    curve = success_curve(
        problem,
        method,
        worlds,
        crit,
        params.horizon,
        budget=budget,
        seed=seed,
        stages=params.stages,
        workers=workers,
    )
    threshold = 1 - params.delta
    by_world: dict[str, list[CurvePoint]] = {w.id: [] for w in worlds}
    for pt in curve.points:
        by_world[pt.world_id].append(pt)

    world_verdicts = []
    for w in worlds:
        pts = by_world[w.id]
        stages = [p.n for p in pts]
        statuses = [_stage_status(p, threshold, budget.mc_margin) for p in pts]
        n0 = _trailing_pass_start(stages, statuses)
        if n0 is not None:
            world_verdicts.append(WorldVerdict(w.id, "supported", n0))
        elif statuses[-1] == "fail":
            last = pts[-1]
            note = (
                f"success probability {float(last.estimate):.6g} "
                f"(stderr {last.stderr:.2g}) at stage {last.n} "
                f"does not exceed 1-delta = {float(threshold):.6g}"
            )
            world_verdicts.append(WorldVerdict(w.id, "refuted", None, note))
        else:
            world_verdicts.append(
                WorldVerdict(w.id, "inconclusive", None, "final stage within sampling margin")
            )
    return _verdict(params.mode, params.horizon, world_verdicts, curve)


# ---------------------------------------------------------------------------
# Lock times and success sets


def lock_time(problem, method, world, horizon: int) -> Optional[int]:
    """First stage from which outputs attain zero loss through the horizon.

    Relative to the horizon: None when no such stage <= horizon exists.
    """
    if horizon < 1:
        raise InputDomainError("horizon must be >= 1")
    return _zero_loss_scan(problem, method, world, world.branch.prefix(horizon))[0]


def _set_plan(problem, method, world, strategy: str) -> str:
    """The evaluation path of the success-set (lock-stage) probabilities in one world.

    A point-mass world has one branch, so its lock stage is exact under
    every strategy.  Otherwise, unless the strategy is "mc", a closed form
    wins where one exists; lock stages are sampled, or "exact" raises.
    """
    if strategy not in ("auto", "exact", "mc"):
        raise InputDomainError(f"unknown strategy {strategy!r}")
    m = world.measure
    if m is None:
        raise PreconditionError(f"world {world.id!r} carries no measure")
    if problem.truth_of_prefix is None:
        raise PreconditionError(
            "success-set machinery needs a problem whose branches determine truths one-to-one"
        )
    if m.kind == KIND_POINT_MASS:
        return POINT_MASS
    if strategy != "mc":
        if method.locks_at_first_zero and m.kind == KIND_IID_BERNOULLI:
            return GEOMETRIC_EXACT
        if strategy == "exact":
            raise ResourceBudgetError("no exact success-set path for this method/measure")
    return MC


def _point_mass_lock(problem, method, world, horizon) -> Optional[int]:
    # Judged against the truth the point-mass branch itself determines (coherence).
    truth = problem.truth_of_prefix(world.measure.point.prefix(horizon))
    return lock_time(problem, method, replace(world, truth=truth), horizon)


def _lock_stage_samples(problem, method, world, horizon, trials, seed) -> np.ndarray:
    """Per sampled branch of an IID world: the stage at which the method locks onto the truth.

    Samples the geometric first-zero law where the method declares it;
    otherwise the start of the trailing zero-loss run through the horizon,
    with horizon+1 where none exists.  The sample is derived from
    (seed, world id, horizon) only, so all stages n share it and the
    estimated lock probability is nondecreasing in n.  Point-mass worlds
    never sample: their lock stage is exact.
    """
    m = world.measure
    rng = seeding.generator(seed, "success-set", world.id, horizon)
    if _set_plan(problem, method, world, "auto") == GEOMETRIC_EXACT:
        # The lock stage is the first-zero position, whose law is geometric
        # with hit chance 1 - theta.  Sampling it directly is horizon-free
        # and avoids the truncation bias of scanning a finite prefix (a
        # branch with no zero by the horizon is almost surely unlocked at
        # a later stage, not locked at 0).
        th = m.theta
        if th == 1:
            return np.zeros(trials, dtype=np.int64)
        return rng.geometric(float(1 - th), size=trials).astype(np.int64)

    locks = np.empty(trials, dtype=np.int64)
    for t, prefix in enumerate(m.sample_prefixes(rng, trials, horizon)):
        ephemeral = replace(world, truth=problem.truth_of_prefix(prefix))
        n0, _ = _zero_loss_scan(problem, method, ephemeral, prefix)
        locks[t] = n0 if n0 is not None else horizon + 1
    return locks


def _set_estimates(problem, method, world, stages, horizon, trials, seed, strategy) -> list:
    """Lock-by-stage-n probability per stage, along the world's planned path."""
    path = _set_plan(problem, method, world, strategy)
    if path == GEOMETRIC_EXACT:
        theta = world.measure.theta
        return [Estimate(1 - theta**n, 0.0, True) for n in stages]
    if path == POINT_MASS:
        lock = _point_mass_lock(problem, method, world, horizon)
        hits = [lock is not None and lock <= n for n in stages]
        return [Estimate(Fraction(1 if hit else 0), 0.0, True) for hit in hits]
    if any(n > horizon for n in stages):
        raise PreconditionError("horizon must be >= n")
    locks = _lock_stage_samples(problem, method, world, horizon, trials, seed)
    return [_mc_estimate(locks <= n) for n in stages]


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

    Exact under every strategy in a point-mass world: 1 when the lock
    happens on its branch by stage n, else 0.  Exact closed form for
    first-zero-locking methods under IID-Bernoulli(p): 1 - p**n (the chance
    a 0 has shown up by stage n).  Monte Carlo with an explicit horizon
    otherwise, and in every IID world under strategy="mc".
    """
    if n < 0:
        raise InputDomainError("n must be >= 0")
    T = horizon if horizon is not None else max(n, 1)
    return _set_estimates(problem, method, world, (n,), T, trials, seed, strategy)[0]


def success_set_curve(
    problem,
    method,
    worlds: Sequence[World],
    stages: Sequence[int],
    *,
    horizon: int,
    trials: int = 10_000,
    seed: int = 0,
    workers: int = 1,
    strategy: str = "auto",
) -> SuccessCurve:
    """Lock-probability curve per (world, n); exact where a closed form exists.

    All stages of one world share the branch sample derived from
    (seed, world id, horizon), so the curve is nondecreasing by construction
    on the Monte Carlo path as well.
    """
    worlds = tuple(worlds)
    stage_list = tuple(stages)
    if any(s < 0 or s > horizon for s in stage_list):
        raise InputDomainError("stages must lie in [0, horizon]")
    workers = resolve_workers(workers)

    def evaluate(wi):
        w = worlds[wi]
        ests = _set_estimates(problem, method, w, stage_list, horizon, trials, seed, strategy)
        return [CurvePoint(w.id, n, e.value, e.stderr, e.exact, None) for n, e in zip(stage_list, ests)]

    results = _map_items(evaluate, list(range(len(worlds))), workers)
    points = tuple(pt for wi in range(len(worlds)) for pt in results[wi])
    return SuccessCurve(problem.name, method.name, "success-set", points)


# ---------------------------------------------------------------------------
# Unachievability witnesses


def underdetermination_witness(
    problem: EmpiricalProblem, horizon: int = 64
) -> Optional[tuple[World, World]]:
    """Two admitted worlds sharing one branch but with different truths.

    Any method outputs the same hypothesis on the shared data at every
    stage, so zero loss in one world forces positive loss in the other:
    the pair refutes nonstochastic identification.  None when every branch
    in the family carries a single truth.
    """
    groups: dict[str, list[World]] = {}
    for w in problem.worlds:
        groups.setdefault(w.branch.id, []).append(w)
    for bid, members in groups.items():
        if len(members) < 2:
            continue
        ref = members[0].branch.prefix(horizon)
        if any(w.branch.prefix(horizon) != ref for w in members[1:]):
            continue
        first = next(
            (
                w
                for w in members
                if w.truth == FAIR or w.extras.get("theta") == Fraction(1, 2)
            ),
            members[0],
        )
        partner = next((w for w in members if w.truth != first.truth), None)
        if partner is not None:
            return (first, partner)
    return None


def _enumerate_outputs(method, depth: int):
    block = _count_block(method)
    if block is not None:  # every binary input's counts: the (n - k, k) rows on tokens (0, 1)
        outputs, index = block((0, 1), np.array([(n - k, k) for n in range(depth + 1) for k in range(n + 1)]))
        return [outputs[i] for i in index.tolist()]
    if depth > 20:
        raise ResourceBudgetError("enumerating 2**(depth+1) inputs exceeds the budget")
    return (method.decide(seq) for n in range(depth + 1) for seq in itertools.product((0, 1), repeat=n))


def _output_gap(method, depth: int):
    if depth < 0:
        raise InputDomainError("depth must be >= 0")
    values = set()
    for out in _enumerate_outputs(method, depth):
        if out is SUSPEND:
            continue
        if isinstance(out, bool) or not isinstance(out, (int, float, Fraction)):
            raise TypeError(f"cardinality witness needs real-valued outputs, got {out!r}")
        v = Fraction(out)
        if not 0 <= v <= 1:
            raise InputDomainError(f"output {out!r} outside [0, 1]")
        values.add(v)
    points = sorted(values | {Fraction(0), Fraction(1)})
    best_lo, best_hi = points[0], points[1]
    for lo, hi in zip(points, points[1:]):
        if hi - lo > best_hi - best_lo:  # strict: ties keep the lowest interval
            best_lo, best_hi = lo, hi
    return best_lo, best_hi, values


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
