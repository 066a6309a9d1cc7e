"""Domain vocabulary for inductive-inference experiments.

An empirical problem bundles four things: a hypothesis space, an evidence
alphabet (whose finite sequences form the evidence tree), a family of
admissible worlds, and a loss function with a unique zero-loss hypothesis
per world.  Inference methods map finite data sequences to a hypothesis or
to judgment suspension.  All types here are immutable after construction
and all operations are pure, so they are safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from . import seeding

Token = Hashable

# Canonical categorical hypothesis labels used by the problem catalog.
YES = "Yes"
NO = "No"
FAIR = "Fair"
UNFAIR = "Unfair"


class InputDomainError(ValueError):
    """An argument lies outside the declared domain of an operation."""


class ConfigurationError(ValueError):
    """A problem/experiment was configured with unusable parameters."""


class PreconditionError(ValueError):
    """A stated precondition of an operation does not hold."""


class ResourceBudgetError(RuntimeError):
    """An exact computation would exceed the enumeration budget."""


def as_fraction(x) -> Fraction:
    """Exact rational from a number, reading floats as the decimal they print as.

    ``as_fraction(0.1) == Fraction(1, 10)``, not the binary expansion of the
    float literal.  This keeps grid parameters like 0.05 exact on the exact
    computation paths.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InputDomainError("boolean is not a probability or parameter value")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InputDomainError(f"non-finite value: {x!r}")
        return Fraction(str(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise InputDomainError(f"cannot parse {x!r} as an exact rational") from None
    raise InputDomainError(f"cannot interpret {x!r} as an exact rational")


class _Suspend:
    """Singleton judgment-suspension marker; carries no hypothesis."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Suspend"


SUSPEND = _Suspend()

# A method output is either a hypothesis value or SUSPEND.
MethodOutput = Union[object, _Suspend]


def binary_sequence(seq) -> tuple[int, ...]:
    """Normalize ``"1101"`` or any iterable of 0/1 values to a token tuple."""
    if isinstance(seq, str):
        if not all(c in "01" for c in seq):
            raise InputDomainError(f"non-binary character in {seq!r}")
        return tuple(int(c) for c in seq)
    items = tuple(seq)
    for t in items:
        if t not in (0, 1):
            raise InputDomainError(f"non-binary token {t!r}")
    return items


@dataclass(frozen=True)
class Branch:
    """An infinite data stream, represented by a total generator on indices >= 1."""

    id: str
    token_at: Callable[[int], Token]

    def prefix(self, n: int) -> tuple[Token, ...]:
        if n < 0:
            raise InputDomainError("prefix length must be >= 0")
        return tuple(self.token_at(i) for i in range(1, n + 1))


def constant_branch(token: Token, branch_id: Optional[str] = None) -> Branch:
    bid = branch_id if branch_id is not None else f"constant-{token}"
    return Branch(bid, lambda i: token)


def alternating_branch(branch_id: str = "alternating") -> Branch:
    # 1 0 1 0 ...: odd indices are 1, even are 0.
    return Branch(branch_id, lambda i: i % 2)


def single_zero_branch(k: int, branch_id: Optional[str] = None) -> Branch:
    """All-1 branch except for a single 0 at position k (1-based)."""
    if k < 1:
        raise InputDomainError("zero position must be >= 1")
    bid = branch_id if branch_id is not None else f"first-zero-at-{k}"
    return Branch(bid, lambda i: 0 if i == k else 1)


def _cached_sampled_branch(branch_id, draw_block):
    """Branch whose tokens are drawn lazily in blocks and memoized.

    ``draw_block(start, count)`` returns tokens for indices start..start+count-1
    and must be deterministic in its arguments; repeated token_at calls then
    always agree.  A lock keeps the memo consistent under concurrent access.
    """
    cache: list[Token] = []
    guard = threading.Lock()

    def token_at(i: int) -> Token:
        if i < 1:
            raise InputDomainError("branch indices start at 1")
        if len(cache) < i:
            with guard:
                while len(cache) < i:
                    cache.extend(draw_block(len(cache) + 1, max(64, i - len(cache))))
        return cache[i - 1]

    return Branch(branch_id, token_at)


KIND_IID_BERNOULLI = "iid-bernoulli"
KIND_IID_EXAMPLES = "iid-examples"
KIND_POINT_MASS = "point-mass"
# Uniforms per chunk of IID token draws; a chunk holds whole rows.
_CHUNK_DRAWS = 1 << 16


@dataclass(frozen=True)
class Measure:
    """A tree measure over the evidence tree, of one of the catalog kinds.

    IID kinds carry an exact per-token distribution; point-mass carries the
    single branch it concentrates on.
    """

    kind: str
    token_probs: Optional[tuple[tuple[Token, Fraction], ...]] = None
    point: Optional[Branch] = None

    @staticmethod
    def iid_bernoulli(theta) -> "Measure":
        th = as_fraction(theta)
        if not 0 <= th <= 1:
            raise InputDomainError(f"bias must lie in [0, 1], got {theta}")
        return Measure(KIND_IID_BERNOULLI, token_probs=((0, 1 - th), (1, th)))

    @staticmethod
    def iid_examples(table: Mapping[Token, object]) -> "Measure":
        items = tuple((tok, as_fraction(p)) for tok, p in table.items())
        total = sum(p for _, p in items)
        if any(p < 0 for _, p in items) or total != 1:
            raise InputDomainError("example distribution must be nonnegative and sum to 1")
        return Measure(KIND_IID_EXAMPLES, token_probs=items)

    @staticmethod
    def point_mass(branch: Branch) -> "Measure":
        return Measure(KIND_POINT_MASS, point=branch)

    @property
    def theta(self) -> Fraction:
        if self.kind != KIND_IID_BERNOULLI:
            raise PreconditionError("theta is only defined for IID-Bernoulli measures")
        return dict(self.token_probs)[1]

    def token_prob(self, token: Token) -> Fraction:
        probs = dict(self.token_probs)
        if token not in probs:
            raise InputDomainError(f"token {token!r} not in measure support table")
        return probs[token]

    def prefix_prob(self, seq: Sequence[Token]) -> Fraction:
        """Probability mass of the evidence-tree node ``seq``; 1 at the root."""
        seq = tuple(seq)
        if self.kind in (KIND_IID_BERNOULLI, KIND_IID_EXAMPLES):
            p = Fraction(1)
            for tok in seq:
                p *= self.token_prob(tok)
            return p
        return Fraction(1) if seq == self.point.prefix(len(seq)) else Fraction(0)

    def sample_prefixes(self, rng, trials: int, n: int):
        """Yield ``trials`` sampled length-n prefixes: the draws of as many sample_prefix calls.

        choice maps each u of ``rng.random((trials, n))`` to ``cdf.searchsorted(u, side="right")``;
        drawing those uniforms a few whole rows at a time advances rng alike.
        """
        if self.kind not in (KIND_IID_BERNOULLI, KIND_IID_EXAMPLES):
            raise PreconditionError("IID sampling requires an IID catalog measure")
        tokens = np.fromiter((tok for tok, _ in self.token_probs), dtype=object)
        cdf = np.array([float(p) for _, p in self.token_probs]).cumsum()
        cdf /= cdf[-1]
        rows = max(1, _CHUNK_DRAWS // max(n, 1))
        for t in range(0, trials, rows):
            u = rng.random((min(rows, trials - t), n))
            yield from map(tuple, tokens[cdf.searchsorted(u, side="right")])

    def sample_prefix(self, rng, n: int) -> tuple[Token, ...]:
        if self.kind == KIND_POINT_MASS:
            return self.point.prefix(n)
        return next(self.sample_prefixes(rng, 1, n))

    def sample_count_block(self, rng, trials: int, n: int) -> np.ndarray:
        """(trials, tokens) multinomial token counts of ``trials`` IID length-n samples.

        Column j, last to first, is a binomial of the draws left at p_j / (p_0 + ... + p_j),
        undrawn at p_j = 0 (so never 0/0); column 0 takes the rest.
        A binary measure's one draw is rng.binomial(n, theta).
        """
        if self.kind not in (KIND_IID_BERNOULLI, KIND_IID_EXAMPLES):
            raise PreconditionError("IID sampling requires an IID catalog measure")
        counts = np.zeros((trials, len(self.token_probs)), dtype=np.int64)
        rest, mass = n, Fraction(1)
        for j in range(len(self.token_probs) - 1, 0, -1):
            p = self.token_probs[j][1]
            if p:
                counts[:, j] = rng.binomial(rest, float(p / mass), size=trials)
                rest, mass = rest - counts[:, j], mass - p
        counts[:, 0] = rest
        return counts

    def sample_branch(self, master_seed: int, *key, branch_id: str) -> Branch:
        """Freeze one realized branch of this measure, derived from the seed key."""
        if self.kind == KIND_POINT_MASS:
            return self.point
        rng = seeding.generator(master_seed, *key)

        def draw_block(start, count):
            # rng is consumed strictly left to right, so blocks are
            # deterministic functions of (seed key, start).
            return list(next(self.sample_prefixes(rng, 1, count)))

        return _cached_sampled_branch(branch_id, draw_block)


@dataclass(frozen=True)
class Classifier:
    """A total binary labelling of a finite feature space."""

    name: str
    labels: tuple[tuple[Hashable, int], ...]

    @staticmethod
    def from_mapping(name: str, mapping: Mapping[Hashable, int]) -> "Classifier":
        items = tuple(sorted(mapping.items(), key=lambda kv: repr(kv[0])))
        for _, y in items:
            if y not in (0, 1):
                raise InputDomainError(f"classifier labels must be 0/1, got {y!r}")
        return Classifier(name, items)

    def __call__(self, x) -> int:
        for feat, y in self.labels:
            if feat == x:
                return y
        raise InputDomainError(f"feature {x!r} outside the classifier's domain")

    @property
    def features(self) -> tuple:
        return tuple(f for f, _ in self.labels)


@dataclass(frozen=True)
class FiniteHypothesisSpace:
    values: tuple

    def __contains__(self, h) -> bool:
        return any(h == v for v in self.values)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class IntervalHypothesisSpace:
    lo: Fraction
    hi: Fraction

    def __contains__(self, h) -> bool:
        return isinstance(h, numbers.Real) and self.lo <= h <= self.hi


HypothesisSpace = Union[FiniteHypothesisSpace, IntervalHypothesisSpace]


@dataclass(frozen=True)
class World:
    """A branch plus its truth, optional generating measure, and extras tag."""

    id: str
    branch: Branch
    truth: object
    measure: Optional[Measure] = None
    extras: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
class LossFunction:
    """Nonnegative accuracy loss with a unique zero at each world's truth."""

    name: str
    eval: Callable[[object, World], object]


# One object each, so a method's declared laws can recognise them by identity.
_IDENTIFICATION_LOSS = LossFunction("identification", lambda h, w: 0 if h == w.truth else 1)
_ABSOLUTE_ERROR_LOSS = LossFunction("absolute-error", lambda h, w: abs(h - w.truth))


def identification_loss() -> LossFunction:
    """0 on the world's truth, 1 on every other hypothesis."""
    return _IDENTIFICATION_LOSS


def absolute_error_loss() -> LossFunction:
    return _ABSOLUTE_ERROR_LOSS


@dataclass(frozen=True)
class EmpiricalProblem:
    """The quadruple of hypotheses, evidence alphabet, admitted worlds, and loss.

    ``truth_of_prefix`` resolves the coherent truth of any sampled branch for
    problems where branches determine truths one-to-one; it stays None
    otherwise.
    """

    name: str
    hypothesis_space: HypothesisSpace
    alphabet: tuple[Token, ...]
    worlds: tuple[World, ...]
    loss: LossFunction
    probe_hypotheses: tuple = ()
    truth_of_prefix: Optional[Callable[[tuple], object]] = None

    def __post_init__(self):
        if not self.worlds:
            raise ConfigurationError("a problem needs at least one world")
        ids = [w.id for w in self.worlds]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("world ids must be unique")

    def world(self, world_id: str) -> World:
        for w in self.worlds:
            if w.id == world_id:
                return w
        raise InputDomainError(f"unknown world id {world_id!r}")


@dataclass(frozen=True)
class CountLaws:
    """A counts method's laws under IID-Bernoulli worlds, each a function of (problem, world, n, crit).

    ``window``: ranges holding exactly the k in 0..n whose output meets crit, or
    None where it cannot vouch.  ``bound``: a lower bound on the success
    probability at n >= 1, or None.
    """

    window: Callable[..., Optional[list[range]]]
    bound: Optional[Callable] = None


@dataclass(frozen=True)
class InferenceMethod:
    """A deterministic map from finite data sequences to a hypothesis or SUSPEND.

    A method gives ``decide``, or ``decide_counts`` when it is count-symmetric:
    on binary data its output depends only on (length, number of 1 tokens),
    and ``decide`` is derived from it.  ``decide_count_block(tokens, counts)``
    declares an exchangeable method on any finite alphabet: given distinct
    tokens and an (m, len(tokens)) int array of their counts, it returns
    ``(outputs, index)``, row i's output being ``outputs[index[i]]`` -- the
    output ``decide`` gives on any sequence with those counts.  A counts
    method is the two-token case, whose block the engine derives from
    ``decide_counts``: its exact sums, Monte Carlo and scans read every
    exchangeable method through the block.  ``laws`` declares a counts
    method's success windows and bound; ``locks_at_first_zero`` marks methods
    whose output settles permanently at the first 0 token.
    """

    name: str
    decide: Optional[Callable[[Sequence], MethodOutput]] = None
    decide_counts: Optional[Callable[[int, int], MethodOutput]] = None
    locks_at_first_zero: bool = False
    laws: Optional[CountLaws] = None
    decide_count_block: Optional[Callable[[Sequence, np.ndarray], tuple[Sequence, np.ndarray]]] = None

    def __post_init__(self):
        if self.decide is not None:
            return
        counts = self.decide_counts
        if counts is None:
            raise ConfigurationError(f"method {self.name!r} needs decide or decide_counts")

        # Closes over this counts function, so the derived decide survives
        # replace(method, decide_counts=None).
        def decide(seq) -> MethodOutput:
            tokens = binary_sequence(seq)
            return counts(len(tokens), sum(tokens))

        object.__setattr__(self, "decide", decide)

    @property
    def count_symmetric(self) -> bool:
        return self.decide_counts is not None

    @property
    def success_block(self):
        """``decide_count_block``, by the name bench/tracer.py reads it; it goes when that tracer does."""
        return self.decide_count_block

    def __call__(self, seq) -> MethodOutput:
        return self.decide(seq)


def output_at(method: InferenceMethod, world: World, n: int) -> MethodOutput:
    """The method's output after the first n observations of the world's branch."""
    if n < 0:
        raise InputDomainError("sample size must be >= 0")
    return method.decide(world.branch.prefix(n))


def loss_of(problem: EmpiricalProblem, out: MethodOutput, world: World):
    """Loss of a method output in a world; SUSPEND maps to +inf.

    The +inf sentinel makes suspension fail every success criterion, both the
    exact-zero and the within-epsilon kind.
    """
    if out is SUSPEND:
        return math.inf
    if out not in problem.hypothesis_space:
        raise InputDomainError(f"hypothesis {out!r} outside the hypothesis space")
    return problem.loss.eval(out, world)


@dataclass(frozen=True)
class WorldCheck:
    world_id: str
    truth_attains_zero: bool
    rival_zero_loss: Optional[object]
    alphabet_ok: bool

    @property
    def ok(self) -> bool:
        return self.truth_attains_zero and self.rival_zero_loss is None and self.alphabet_ok


@dataclass(frozen=True)
class ValidationReport:
    problem: str
    checks: tuple[WorldCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


def validate_problem(
    problem: EmpiricalProblem,
    witness_worlds: Optional[Iterable[World]] = None,
    probe_hypotheses: Optional[Iterable] = None,
    prefix_len: int = 32,
) -> ValidationReport:
    """Desk-scale sanity checks; violations are reported, never raised.

    Per world: does the designated truth attain loss 0, does any other probe
    hypothesis also attain 0 (uniqueness spot check), and do the first
    ``prefix_len`` branch tokens lie in the alphabet.
    """
    worlds = tuple(witness_worlds) if witness_worlds is not None else problem.worlds
    probes = tuple(probe_hypotheses) if probe_hypotheses is not None else problem.probe_hypotheses
    checks = []
    alphabet = set(problem.alphabet)
    for w in worlds:
        truth_zero = problem.loss.eval(w.truth, w) == 0
        rival = None
        for h in probes:
            if h == w.truth:
                continue
            if problem.loss.eval(h, w) == 0:
                rival = h
                break
        tokens_ok = all(t in alphabet for t in w.branch.prefix(prefix_len))
        checks.append(WorldCheck(w.id, truth_zero, rival, tokens_ok))
    return ValidationReport(problem.name, tuple(checks))
