"""Constructors for the paradigm empirical problems.

Four families: enumerative induction over raven colors (plus its
probabilistic fine-graining), the fair-coin test problem, coin-bias
estimation, and finite binary classification under IID example streams.
Each constructor returns the EmpiricalProblem quadruple itself, a
classification problem too: its features, classifier pool and example laws
become the alphabet, hypothesis space and world measures in one call.
World families are finite grids standing in for the continuum the formal
definitions quantify over; tests treat grid membership as the desk-scale
surrogate for "every admissible world".
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .core import (
    FAIR,
    NO,
    UNFAIR,
    YES,
    Classifier,
    ConfigurationError,
    EmpiricalProblem,
    FiniteHypothesisSpace,
    InputDomainError,
    IntervalHypothesisSpace,
    LossFunction,
    Measure,
    World,
    _integer,
    _is_label,
    absolute_error_loss,
    alternating_branch,
    as_fraction,
    constant_branch,
    identification_loss,
    single_zero_branch,
)

# theta grid used when a coin problem is built without one: a coarse sweep of
# the unit interval plus two near-fair points.
DEFAULT_THETA_GRID = tuple(
    sorted(set(Fraction(k, 10) for k in range(11)) | {Fraction(9, 20), Fraction(11, 20)})
)

BINARY_ALPHABET = (0, 1)


def _num_str(x: Fraction) -> str:
    """Stable decimal rendering for ids: exact when terminating, a/b otherwise."""
    f = float(x)
    if as_fraction(f) == x:
        s = repr(f)
        return s[:-2] if s.endswith(".0") else s
    return f"{x.numerator}/{x.denominator}"


def _truth_of_binary_prefix(prefix) -> str:
    return NO if 0 in prefix else YES


def easy_raven(max_first_zero: int = 20, literal: bool = False) -> EmpiricalProblem:
    """Enumerative induction: are all observations going to be 1?

    The coherent world family pairs each branch with the single truth its
    color pattern supports: a branch whose first 0 arrives at position k
    carries the truth No, and the all-1 branch carries Yes.  The world
    mixing the all-1 branch with No is excluded by the background
    assumption.  ``literal=True`` additionally admits, for each branch with
    a 0, the incoherent twin world that still designates Yes as true; that
    reading is exposed for inspection only and breaks the branch-to-truth
    bijection.
    """
    max_first_zero = _integer(max_first_zero, "max_first_zero", 1)
    worlds = []
    for k in range(1, max_first_zero + 1):
        worlds.append(World(f"first-zero-at-{k}", single_zero_branch(k), NO))
    worlds.append(World("all-ones", constant_branch(1, "all-ones"), YES))
    if literal:
        for k in range(1, max_first_zero + 1):
            worlds.append(
                World(f"first-zero-at-{k}/literal-yes", single_zero_branch(k), YES)
            )
    return EmpiricalProblem(
        name="easy-raven",
        hypothesis_space=FiniteHypothesisSpace((YES, NO)),
        alphabet=BINARY_ALPHABET,
        worlds=tuple(worlds),
        loss=identification_loss(),
        truth_of_prefix=None if literal else _truth_of_binary_prefix,
    )


def _sampled_world(wid: str, truth, measure: Measure, seed: int) -> World:
    """The world whose branch is frozen from its measure under the seed key (seed, "branch", wid)."""
    return World(wid, measure.sample_branch(seed, "branch", wid, branch_id=f"sampled/{wid}"), truth, measure)


def fine_grained_raven(p_grid: Sequence, seed: int = 0) -> EmpiricalProblem:
    """The raven question with each world carrying an IID color measure.

    Each grid value p is the chance of observing a 1.  p = 1 yields the
    trivial extension: the deterministic all-1 world with no measure, truth
    Yes, the same world as easy-raven's all-ones.  For p < 1 the frozen
    branch is sampled from the world's measure, as in the coin problems; it
    contains a 0 with probability one, so its truth is No by coherence.
    Hypotheses and loss are unchanged from the plain raven problem.
    """
    ps = [as_fraction(p) for p in p_grid]
    if not ps:
        raise ConfigurationError("p grid must be nonempty")
    all_ones = World("p=1", constant_branch(1, "all-ones"), YES)
    worlds = [all_ones if p == 1 else _sampled_world(f"p={_num_str(p)}", NO, Measure.iid_bernoulli(p), seed) for p in ps]
    return EmpiricalProblem(
        name="fine-grained-raven",
        hypothesis_space=FiniteHypothesisSpace((YES, NO)),
        alphabet=BINARY_ALPHABET,
        worlds=tuple(worlds),
        loss=identification_loss(),
        truth_of_prefix=_truth_of_binary_prefix,
    )


def _coin_worlds(theta_grid: Optional[Sequence], seed: int, truth_of) -> tuple[World, ...]:
    """The two coin problems' worlds, as Worlds; ``truth_of(theta)`` is each one's truth.

    Per theta of the grid (DEFAULT_THETA_GRID when None; Measure.iid_bernoulli
    rejects one outside [0, 1]): one frozen sampled branch, the alternating
    1010... branch whenever both tokens have positive probability, and the
    all-1 branch at theta = 1/2 (logically possible even under a fair coin).
    At theta = 0 or 1 the one-token support fixes the stream, so the frozen
    branch is the shared constant one (all-zeros or all-ones): a world at
    theta = 1 and the fair all-ones world then share one branch.
    """
    alternating = alternating_branch()
    constant = {Fraction(0): constant_branch(0, "all-zeros"), Fraction(1): constant_branch(1, "all-ones")}
    worlds = []
    for th in map(as_fraction, DEFAULT_THETA_GRID if theta_grid is None else theta_grid):
        measure = Measure.iid_bernoulli(th)
        frozen = _sampled_world(f"theta={_num_str(th)}", truth_of(th), measure, seed)
        if th in constant:
            frozen = replace(frozen, branch=constant[th])
        worlds.append(frozen)
        if 0 < th < 1:
            worlds.append(World(f"{frozen.id}/alternating", alternating, frozen.truth, measure))
        if th == Fraction(1, 2):
            worlds.append(World(f"{frozen.id}/all-ones", constant[Fraction(1)], frozen.truth, measure))
    return tuple(worlds)


def fair_coin(theta_grid: Optional[Sequence] = None, seed: int = 0) -> EmpiricalProblem:
    """Is the coin fair?  Fair is true exactly in the theta = 1/2 worlds."""
    worlds = _coin_worlds(theta_grid, seed, lambda th: FAIR if th == Fraction(1, 2) else UNFAIR)
    if {w.truth for w in worlds} != {FAIR, UNFAIR}:
        raise ConfigurationError("theta grid must include 0.5 and at least one other bias")
    return EmpiricalProblem(
        name="fair-coin",
        hypothesis_space=FiniteHypothesisSpace((FAIR, UNFAIR)),
        alphabet=BINARY_ALPHABET,
        worlds=worlds,
        loss=identification_loss(),
    )


def coin_bias(theta_grid: Optional[Sequence] = None, seed: int = 0) -> EmpiricalProblem:
    """What is the coin's bias?  Hypotheses are the unit interval; loss |h - theta|."""
    return EmpiricalProblem(
        name="coin-bias",
        hypothesis_space=IntervalHypothesisSpace(Fraction(0), Fraction(1)),
        alphabet=BINARY_ALPHABET,
        worlds=_coin_worlds(theta_grid, seed, lambda th: th),
        loss=absolute_error_loss(),
    )


# ---------------------------------------------------------------------------
# Binary classification


def risk(h: Classifier, distribution) -> Fraction:
    """Misclassification probability of h under the example distribution."""
    items = distribution.items() if isinstance(distribution, Mapping) else distribution
    total = Fraction(0)
    for (x, y), p in items:
        if h(x) != y:
            total += as_fraction(p)
    return total


def excess_risk_loss(classifiers: tuple[Classifier, ...]) -> LossFunction:
    """Risk above the best achievable in the pool; zero for every minimizer."""

    def ev(h, w):
        table = w.measure.token_probs
        return risk(h, table) - min(risk(g, table) for g in classifiers)

    return LossFunction("excess-risk", ev)


def binary_classification(features, classifiers, distributions, seed: int = 0) -> EmpiricalProblem:
    """Which classifier in the pool is best for prediction?

    The features are distinct, and so are the classifiers' names; each
    classifier labels every feature.  The alphabet is every (feature, label)
    pair with label the integer 0 or 1.  Each distribution maps such pairs
    to probabilities; Measure.iid_examples reads them exactly and checks
    they are nonnegative and sum to 1.  One world per distribution, with a
    frozen IID example stream.  When several classifiers tie at minimum
    risk the earliest one in the pool order is designated as the
    bookkeeping truth; the excess-risk loss the convergence checks consume
    is unaffected by that designation (every minimizer has loss zero,
    which the validation report then flags as a uniqueness gap).
    """
    features, classifiers = tuple(features), tuple(classifiers)
    if not features or not classifiers:
        raise ConfigurationError("classification needs nonempty features and classifiers")
    if len(set(features)) < len(features) or len({h.name for h in classifiers}) < len(classifiers):
        raise ConfigurationError("features and classifier names must each be distinct")
    for h in classifiers:
        for x in features:
            try:
                h(x)
            except InputDomainError:
                raise ConfigurationError(f"classifier {h.name!r} is not total on the feature space") from None
    alphabet = tuple((x, y) for x in features for y in (0, 1))
    worlds = []
    for i, table in enumerate(distributions):
        for x, y in table:
            if not (_is_label(y) and (x, y) in alphabet):
                raise ConfigurationError(f"pair {(x, y)!r} outside the example space")
        measure = Measure.iid_examples(table)
        risks = [risk(h, measure.token_probs) for h in classifiers]
        worlds.append(_sampled_world(f"D{i}", classifiers[risks.index(min(risks))], measure, seed))
    return EmpiricalProblem(
        name="binary-classification",
        hypothesis_space=FiniteHypothesisSpace(classifiers),
        alphabet=alphabet,
        worlds=tuple(worlds),
        loss=excess_risk_loss(classifiers),
    )
