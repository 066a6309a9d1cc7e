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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Hashable, Mapping, Optional, Sequence, Union

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


def _is_integer(v) -> bool:
    """Whether v is an integer, a numpy one too, but not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_label(y) -> bool:
    """Whether y is a binary label: the integer 0 or 1, a numpy one too, never a bool or a float."""
    return _is_integer(y) and y in (0, 1)


def _integer(value, name: str, least: int) -> int:
    """value as an int, or InputDomainError unless it is an integer (_is_integer) >= least."""
    if not _is_integer(value):
        raise InputDomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InputDomainError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


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
    if items.count(0) + items.count(1) != len(items):  # a pass in C; the loop names the bad token
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
        n = _integer(n, "prefix length", 0)
        return tuple(self.token_at(i) for i in range(1, n + 1))


def constant_branch(token: Token, branch_id: Optional[str] = None) -> Branch:
    bid = branch_id if branch_id is not None else f"constant-{token}"
    return Branch(bid, lambda i: token)


def alternating_branch(branch_id: str = "alternating") -> Branch:
    # 1 0 1 0 ...: odd indices are 1, even are 0.
    return Branch(branch_id, lambda i: i % 2)


def single_zero_branch(k: int, branch_id: Optional[str] = None) -> Branch:
    """All-1 branch except for a single 0 at position k (1-based)."""
    k = _integer(k, "zero position", 1)
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
KIND_POINT_MASS = "point-mass"  # no Measure kind: bench/tracer.py imports it, and it goes with the tracer
# Uniforms per chunk of IID token draws; a chunk holds whole rows.
_CHUNK_DRAWS = 1 << 16


@dataclass(frozen=True)
class Measure:
    """An IID tree measure over the evidence tree, of one of the two catalog kinds, with an exact per-token
    distribution.  A deterministic world carries none (World.measure is None)."""

    kind: str
    token_probs: tuple[tuple[Token, Fraction], ...]

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

    @cached_property
    def support(self) -> tuple[tuple, tuple[int, ...], int]:
        """The positive-probability tokens in token_probs order, and nums and q: token j has chance nums[j] / q.
        Computed once into the instance __dict__, no field: equality, hash and replace() skip it."""
        positive = [(tok, pr) for tok, pr in self.token_probs if pr > 0]
        q = math.lcm(*(pr.denominator for _, pr in positive))
        return tuple(tok for tok, _ in positive), tuple(pr.numerator * q // pr.denominator for _, pr in positive), q

    @property
    def theta(self) -> Fraction:
        if self.kind != KIND_IID_BERNOULLI:
            raise PreconditionError("theta is only defined for IID-Bernoulli measures")
        return self.token_probs[1][1]  # the table is ((0, 1 - theta), (1, theta))

    def token_prob(self, token: Token) -> Fraction:
        tokens, nums, q = self.support
        if token in tokens:
            return Fraction(nums[tokens.index(token)], q)
        if any(token == tok for tok, _ in self.token_probs):  # a listed zero-probability token
            return Fraction(0)
        raise InputDomainError(f"token {token!r} not in measure support table")

    def prefix_prob(self, seq: Sequence[Token]) -> Fraction:
        """Probability mass of the evidence-tree node ``seq``; 1 at the root."""
        p = Fraction(1)
        for tok in seq:
            p *= self.token_prob(tok)
        return p

    def sample_prefixes(self, rng, trials: int, n: int):
        """Yield ``trials`` sampled length-n prefixes: the rows of ``rng.choice(len(tokens), (trials, n), p=probs)``
        as tuples of the measure's own tokens, from C-level lists: the index rows where each token is its int index.

        choice maps each u of ``rng.random((trials, n))`` to ``cdf.searchsorted(u, side="right")``;
        drawing those uniforms a few whole rows at a time advances rng alike, so
        ``trials`` prefixes drawn at once equal as many drawn one at a time.
        """
        import numpy as np

        tokens = np.fromiter((tok for tok, _ in self.token_probs), dtype=object)
        cdf = np.array([float(p) for _, p in self.token_probs]).cumsum()
        cdf /= cdf[-1]
        rows = max(1, _CHUNK_DRAWS // max(n, 1))
        indices = all(type(tok) is int and tok == j for j, tok in enumerate(tokens))
        for t in range(0, trials, rows):
            idx = cdf.searchsorted(rng.random((min(rows, trials - t), n)), side="right")
            yield from map(tuple, (idx if indices else tokens[idx]).tolist())

    def sample_count_block(self, rng, trials: int, n: int):
        """A (trials, tokens) int array: the multinomial token counts of ``trials`` IID length-n samples.

        Column j, last to first, is a binomial of the draws left at p_j / (p_0 + ... + p_j),
        undrawn at p_j = 0 (so never 0/0); column 0 takes the rest.
        A binary measure's one draw is rng.binomial(n, theta).
        """
        import numpy as np

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
        """Freeze one realized branch of this measure, derived from the seed key.

        The key is checked here (seeding.check_key); the generator is built at the
        first token read, so a branch never read never loads numpy.
        """
        seeding.check_key(master_seed, *key)
        rng = None

        def draw_block(start, count):
            # Called under the branch's lock, and rng is consumed strictly left to
            # right, so blocks are deterministic functions of (seed key, start).
            nonlocal rng
            if rng is None:
                rng = seeding.generator(master_seed, *key)
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
            if not _is_label(y):
                raise InputDomainError(f"classifier labels must be the integers 0/1, got {y!r}")
        return Classifier(name, items)

    def __call__(self, x) -> int:
        for feat, y in self.labels:
            if feat == x:
                return y
        raise InputDomainError(f"feature {x!r} outside the classifier's domain")


@dataclass(frozen=True)
class FiniteHypothesisSpace:
    values: tuple

    def __contains__(self, h) -> bool:
        return h in self.values  # identity or equality, as every Python container tests

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
    """An id, the branch of data it streams, the hypothesis true in it, and the measure generating
    the branch when the world is statistical.  A world with no measure is deterministic: modes II and
    III judge it as the point mass on its branch."""

    id: str
    branch: Branch
    truth: object
    measure: Optional[Measure] = None


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

    Checks read what they need off these four (``validate_problem`` probes the
    finite space's hypotheses, else the worlds' truths).  ``truth_of_prefix``
    resolves the coherent truth of any sampled branch for problems where
    branches determine truths one-to-one; it stays None otherwise.
    """

    name: str
    hypothesis_space: HypothesisSpace
    alphabet: tuple[Token, ...]
    worlds: tuple[World, ...]
    loss: LossFunction
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
    on binary data its output depends only on (length, number of 1 tokens).
    ``decide_count_block(tokens, counts)`` declares an exchangeable method on
    any finite alphabet: given distinct tokens and an (m, len(tokens)) int
    array of their counts, it returns ``(outputs, index)``, row i's output
    being ``outputs[index[i]]`` -- the output ``decide`` gives on any sequence
    with those counts.  The engine's exact sums, Monte Carlo and scans read
    every exchangeable method through the block.  Given ``decide_counts``,
    construction derives ``decide`` and the two-token block from it and stores
    both, replacing any passed alongside, so ``replace(m, decide_counts=g)``
    re-derives both and they always agree; ``InferenceMethod(m.name,
    m.decide)`` is the same rule with no block.  ``laws`` declares a counts
    method's success windows and bound; ``locks_at_first_zero`` marks methods
    whose output settles permanently at the first 0 token.
    """

    name: str
    decide: Optional[Callable[[Sequence], MethodOutput]] = None
    decide_counts: Optional[Callable[[int, int], MethodOutput]] = None
    locks_at_first_zero: bool = False
    laws: Optional[CountLaws] = None
    decide_count_block: Optional[Callable] = None  # (tokens, counts array) -> (outputs, index array)

    def __post_init__(self):
        rule = self.decide_counts
        if rule is None:
            if self.decide is None:
                raise ConfigurationError(f"method {self.name!r} needs decide or decide_counts")
            return

        def decide(seq) -> MethodOutput:
            items = tuple(seq)
            k = items.count(1)  # checked in C below; binary_sequence reads "0101" or names a bad token
            if items.count(0) + k != len(items):
                return rule(len(items), sum(binary_sequence(seq if isinstance(seq, str) else items)))
            return rule(len(items), k)

        def block(tokens, counts):
            # (n, k) off either order of the tokens 0 and 1, each distinct (n, k) decided once; a
            # non-binary token with a positive count raises as decide does.
            import numpy as np

            for j, tok in enumerate(tokens):
                if tok not in (0, 1) and counts[:, j].any():
                    raise InputDomainError(f"non-binary token {tok!r}")
            n = counts.sum(axis=1)
            k = counts[:, [j for j, tok in enumerate(tokens) if tok == 1]].sum(axis=1)
            base = int(n.max(initial=0)) + 1
            keys, index = np.unique(n * base + k, return_inverse=True)  # a 1-D key: far cheaper than unique rows
            return [rule(*divmod(key, base)) for key in keys.tolist()], index

        object.__setattr__(self, "decide", decide)
        object.__setattr__(self, "decide_count_block", block)

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
    return method.decide(world.branch.prefix(_integer(n, "sample size", 0)))


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


def validate_problem(problem: EmpiricalProblem) -> ValidationReport:
    """Desk-scale sanity checks; violations are reported, never raised.

    Per world: does the designated truth attain loss 0, does any other probe
    hypothesis also attain 0 (uniqueness spot check), and do the first 32
    branch tokens lie in the alphabet.  The probes are a finite space's
    hypotheses, else the worlds' distinct truths.
    """
    space = problem.hypothesis_space
    probes = space.values if isinstance(space, FiniteHypothesisSpace) else dict.fromkeys(w.truth for w in problem.worlds)
    checks = []
    alphabet = set(problem.alphabet)
    for w in problem.worlds:
        truth_zero = problem.loss.eval(w.truth, w) == 0
        rival = None
        for h in probes:
            if h == w.truth:
                continue
            if problem.loss.eval(h, w) == 0:
                rival = h
                break
        tokens_ok = all(t in alphabet for t in w.branch.prefix(32))
        checks.append(WorldCheck(w.id, truth_zero, rival, tokens_ok))
    return ValidationReport(problem.name, tuple(checks))
