import itertools
import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import convlab as cl
from convlab import seeding
from convlab.core import (
    _CHUNK_DRAWS,
    KIND_IID_BERNOULLI,
    SUSPEND,
    Branch,
    Measure,
    World,
    _is_label,
    as_fraction,
    binary_sequence,
    identification_loss,
)


def test_suspend_is_a_singleton_without_payload():
    assert cl.SUSPEND is type(cl.SUSPEND)()
    assert repr(cl.SUSPEND) == "Suspend"


def test_binary_sequence_accepts_strings_and_iterables():
    assert binary_sequence("1101") == (1, 1, 0, 1)
    assert binary_sequence([1, 0]) == (1, 0)
    assert binary_sequence("") == ()
    with pytest.raises(cl.InputDomainError):
        binary_sequence("1021")
    with pytest.raises(cl.InputDomainError):
        binary_sequence([1, 2])


def test_binary_sequence_returns_binary_tokens_unchanged():
    tokens = (True, 1.0, np.int64(0), Fraction(1))
    got = binary_sequence(tokens)
    assert got == tokens and all(a is b for a, b in zip(got, tokens))
    assert binary_sequence(list(tokens)) == tokens
    assert binary_sequence("0101") == (0, 1, 0, 1) and all(type(t) is int for t in binary_sequence("0101"))


@pytest.mark.parametrize("bad", [2, -1, 0.5, None, "1", [1], math.nan], ids=repr)
@pytest.mark.parametrize("at", [0, 500, 999])
def test_binary_sequence_names_the_first_bad_token(bad, at):
    items = [1, 0] * 500
    items[at] = bad
    if at < 999:
        items[999] = 7  # a later bad token is not the one named
    with pytest.raises(cl.InputDomainError, match=re.escape(f"non-binary token {bad!r}")):
        binary_sequence(items)


def test_binary_sequence_keeps_a_token_equal_to_both_0_and_1():
    class Both:
        def __eq__(self, other):
            return other in (0, 1)

    both = Both()
    assert binary_sequence((0, both, 1))[1] is both  # counted twice by the C-level check, cleared by the loop


@given(st.lists(st.sampled_from([0, 1, True, False, 1.0, 0.0, np.int64(1), 2, -1, 0.5, None, "1", math.nan])))
def test_binary_sequence_matches_the_per_token_check(items):
    bad = [t for t in items if t not in (0, 1)]
    if not bad:
        assert binary_sequence(items) == tuple(items)
    else:
        with pytest.raises(cl.InputDomainError, match=re.escape(f"non-binary token {bad[0]!r}")):
            binary_sequence(items)

def test_as_fraction_reads_floats_as_their_decimal():
    assert as_fraction(0.1) == Fraction(1, 10)
    assert as_fraction(0.45) == Fraction(9, 20)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    assert as_fraction(2) == Fraction(2)
    with pytest.raises(cl.InputDomainError):
        as_fraction(math.inf)
    for text in ("abc", "1/0"):
        with pytest.raises(cl.InputDomainError):
            as_fraction(text)


def test_branch_constructors_and_prefixes():
    assert cl.single_zero_branch(3).prefix(5) == (1, 1, 0, 1, 1)
    assert cl.constant_branch(1).prefix(4) == (1, 1, 1, 1)
    assert cl.alternating_branch().prefix(6) == (1, 0, 1, 0, 1, 0)


@pytest.mark.parametrize("n", [2.5, True, "3", -1])
def test_a_prefix_length_is_an_integer_at_least_0(n):
    with pytest.raises(cl.InputDomainError, match="prefix length must be"):
        cl.constant_branch(1).prefix(n)
    assert cl.constant_branch(1).prefix(np.int64(2)) == (1, 1)


@pytest.mark.parametrize("k", [2.5, True, "3", 0])
def test_a_zero_position_is_an_integer_at_least_1(k):
    with pytest.raises(cl.InputDomainError, match="zero position must be"):
        cl.single_zero_branch(k)
    assert cl.single_zero_branch(np.int64(2)).prefix(3) == (1, 0, 1)


def test_worlds_are_immutable():
    w = World("w", cl.constant_branch(1), cl.YES)
    with pytest.raises(FrozenInstanceError):
        w.truth = cl.NO


def test_bernoulli_measure_prefix_probabilities_are_exact():
    m = Measure.iid_bernoulli(Fraction(1, 2))
    assert m.prefix_prob((1, 1)) == Fraction(1, 4)
    assert m.prefix_prob(()) == 1
    m3 = Measure.iid_bernoulli("0.3")
    assert m3.prefix_prob((1, 0)) == Fraction(3, 10) * Fraction(7, 10)


@pytest.mark.parametrize(
    "measure",
    [
        Measure.iid_bernoulli(Fraction(9, 20)),
        Measure.iid_bernoulli(Fraction(1)),
        Measure.iid_examples({("a", 1): Fraction(1, 3), ("b", 0): Fraction(2, 3)}),
    ],
)
def test_children_probabilities_sum_to_the_node(measure):
    # countable additivity on the tree, checked exactly on small nodes
    tokens = [tok for tok, _ in measure.token_probs]
    nodes = [(), (tokens[0],), (tokens[-1], tokens[0])]
    for node in nodes:
        children = sum(measure.prefix_prob(node + (t,)) for t in tokens)
        assert children == measure.prefix_prob(node)


class TestMeasureSupport:
    # TestEnumExact checks the support itself on such measures.
    MEASURES = [
        Measure.iid_bernoulli(0),
        Measure.iid_bernoulli(Fraction(3, 10)),
        Measure.iid_bernoulli(1),
        Measure.iid_examples({("a", 1): "1/2", ("a", 0): 0, ("b", 0): "1/4", ("b", 1): "1/4"}),  # a zero entry
    ]

    @pytest.mark.parametrize("measure", MEASURES)
    def test_token_and_prefix_probabilities_read_the_support(self, measure):
        for tok, pr in measure.token_probs:
            assert measure.token_prob(tok) == pr and measure.prefix_prob((tok, tok)) == pr * pr
        with pytest.raises(cl.InputDomainError, match="not in measure support table"):
            measure.token_prob("unlisted")

    def test_equality_hash_and_replace_do_not_see_the_support(self):
        m, twin = Measure.iid_bernoulli(Fraction(3, 10)), Measure.iid_bernoulli(0.3)
        before = hash(m)
        assert m.support == ((0, 1), (7, 3), 10) and "support" in vars(m) and "support" not in vars(twin)
        assert m.support is m.support  # computed once
        assert m == twin and hash(m) == before == hash(twin)
        assert len({m: 0, twin: 1}) == 1
        fresh = replace(m, token_probs=((0, Fraction(1, 2)), (1, Fraction(1, 2))))
        assert "support" not in vars(fresh) and fresh.support == ((0, 1), (1, 1), 2)
        assert replace(m).support == m.support


class TestFiniteHypothesisSpaceMembership:
    def test_equal_values_are_members_whatever_their_identity(self, toy_classifiers):
        space = cl.FiniteHypothesisSpace((cl.YES, cl.NO, [1, 2], *toy_classifiers))
        built = "".join(["Y", "es"])
        assert built is not cl.YES and built in space
        copy = cl.Classifier(toy_classifiers[0].name, tuple(toy_classifiers[0].labels))
        assert copy is not toy_classifiers[0] and copy in space
        assert [1, 2] in space  # an unhashable value, tested by equality
        assert "Maybe" not in space and [2, 1] not in space and cl.Classifier("other", ()) not in space

    def test_a_value_unequal_to_itself_is_a_member_only_as_the_listed_object(self):
        # Tuple membership tests identity before equality, as every Python container does; an any(h == v)
        # scan found no NaN at all.
        nan = float("nan")
        space = cl.FiniteHypothesisSpace((nan, 0.5))
        assert nan in space and float("nan") not in space


def test_a_measure_is_one_of_the_iid_kinds_with_a_token_table():
    # A deterministic world carries no measure, so no point-mass kind or branch field remains.
    assert [f.name for f in fields(Measure)] == ["kind", "token_probs"]
    assert not hasattr(Measure, "point_mass")
    with pytest.raises(TypeError):
        Measure(KIND_IID_BERNOULLI)
    assert cl.easy_raven().world("all-ones").measure is None


class TestIsLabel:
    @pytest.mark.parametrize("y", [0, 1, np.int64(0), np.uint8(1)])
    def test_the_integers_0_and_1_are_labels(self, y):
        assert _is_label(y)

    @pytest.mark.parametrize("y", [True, False, 1.0, 0.0, np.float64(1), Fraction(1), 2, -1, "1", None])
    def test_a_bool_float_or_other_value_is_no_label(self, y):
        assert not _is_label(y)


def test_sampler_frequencies_match_prefix_probabilities():
    from convlab import seeding

    m = Measure.iid_bernoulli(Fraction(3, 10))
    rng = seeding.generator(123, "freq-check")
    trials = 20_000
    hits = sum(next(m.sample_prefixes(rng, 1, 1))[0] for _ in range(trials))
    p_hat = hits / trials
    se = math.sqrt(0.3 * 0.7 / trials)
    assert abs(p_hat - 0.3) < 4 * se


def test_sampled_branch_is_frozen_and_index_stable():
    m = Measure.iid_bernoulli(Fraction(1, 2))
    b1 = m.sample_branch(99, "x", branch_id="s1")
    b2 = m.sample_branch(99, "x", branch_id="s2")
    assert b1.prefix(64) == b2.prefix(64)
    assert b1.token_at(17) == b1.token_at(17)
    # out-of-order access agrees with sequential access
    b3 = m.sample_branch(99, "x", branch_id="s3")
    late = b3.token_at(40)
    assert b3.prefix(40)[-1] == late


def test_sampled_branch_checks_its_key_when_built_and_draws_when_first_read():
    m = Measure.iid_bernoulli(Fraction(1, 2))
    with pytest.raises(cl.InputDomainError, match="seed must be an integer"):
        m.sample_branch(True, "x", branch_id="s")
    with pytest.raises(TypeError, match="unsupported seed key component"):
        m.sample_branch(99, ("x",), branch_id="s")
    # Threads racing to the first read build one generator under the branch's lock.
    want = m.sample_branch(99, "x", branch_id="s").prefix(300)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            raced = m.sample_branch(99, "x", branch_id="s")
            with ThreadPoolExecutor(max_workers=4) as ex:
                reads = list(ex.map(raced.prefix, [300, 200, 100, 300], timeout=60))
            assert reads == [want, want[:200], want[:100], want]
    finally:
        sys.setswitchinterval(interval)


class TestIidSampler:
    """The prefix sampler reproduces ``Generator.choice`` draw for draw; the
    count sampler draws those prefixes' multinomial token counts directly."""

    LAWS = {
        "theta=0": Measure.iid_bernoulli(0),
        "theta=1": Measure.iid_bernoulli(1),
        "theta=0.3": Measure.iid_bernoulli(Fraction(3, 10)),
        "examples-with-a-zero": Measure.iid_examples(
            {("a", 1): "0.45", ("a", 0): "0", ("b", 0): "0.45", ("b", 1): "0.1"}
        ),
    }
    # (trials, n): no tokens, one trial, a trial count that is no multiple
    # of a chunk's rows, and one row longer than a chunk.
    SHAPES = [(5, 0), (1, 7), (2 * (_CHUNK_DRAWS // 100) + 3, 100), (2, _CHUNK_DRAWS + 5)]
    # Count-sampler laws with zero-probability tokens first, in the middle and
    # last, and with a single token.
    COUNT_LAWS = {
        **LAWS,
        "zero-first": Measure.iid_examples({"a": "0", "b": "0.5", "c": "0.3", "d": "0.2"}),
        "zeros-first": Measure.iid_examples({"a": "0", "b": "0", "c": "0.6", "d": "0.4"}),
        "zero-last": Measure.iid_examples({"a": "0.5", "b": "0.3", "c": "0.2", "d": "0"}),
        "zeros-around-one": Measure.iid_examples({"a": "0", "b": "1", "c": "0"}),
        "one-token": Measure.iid_examples({"a": "1"}),
    }

    @staticmethod
    def _choice(law, rng, size):
        probs = [float(p) for _, p in law.token_probs]
        return rng.choice(len(probs), size=size, p=probs)

    @pytest.mark.parametrize("shape", [(7, 0), (2 * (_CHUNK_DRAWS // 40) + 11, 40)])
    @pytest.mark.parametrize(
        "law",
        [
            Measure.iid_bernoulli(Fraction(3, 10)),
            Measure.iid_examples({("a", 1): "0.2", ("a", 0): "0.3", ("b", 0): "0.5"}),
            Measure.iid_examples({0.0: "0.4", 1.0: "0.6"}),  # float tokens equal to their indices stay floats
            Measure.iid_examples({"a": "0.4", "b": "0.6"}),
        ],
        ids=["bernoulli", "tuples", "floats", "strings"],
    )
    def test_prefixes_keep_the_measures_token_values_and_types(self, law, shape):
        trials, n = shape
        prefixes = list(law.sample_prefixes(seeding.generator(6, "types"), trials, n))
        tokens = [tok for tok, _ in law.token_probs]
        want = [tuple(tokens[i] for i in row) for row in self._choice(law, seeding.generator(6, "types"), shape)]
        assert prefixes == want and len(prefixes) == trials
        typed = lambda rows: [tuple(map(type, row)) for row in rows]  # noqa: E731
        assert all(type(p) is tuple for p in prefixes) and typed(prefixes) == typed(want)

    @pytest.mark.parametrize("n", [0, 1, 50, 1000])
    @pytest.mark.parametrize("theta", ["0", "1", "3/10", "1/2", "9/20", "1/10", "7/9"])
    def test_binary_count_column_is_the_binomial_stream(self, theta, n):
        # The one draw of a binary measure is rng.binomial's, byte for byte.
        th = Fraction(theta)
        ours, theirs = seeding.generator(4, theta, n), seeding.generator(4, theta, n)
        counts = Measure.iid_bernoulli(th).sample_count_block(ours, 500, n)
        want = theirs.binomial(n, float(th), size=500)
        assert counts.dtype == np.int64 and counts.shape == (500, 2)
        assert (counts[:, 1] == want).all() and (counts[:, 0] == n - want).all()
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("shape", [(5, 0), (1, 0), (1, 7), (400, 30)])
    @pytest.mark.parametrize("law", sorted(COUNT_LAWS))
    def test_count_rows_sum_to_n_and_zero_columns_stay_0(self, law, shape):
        m = self.COUNT_LAWS[law]
        trials, n = shape
        counts = m.sample_count_block(seeding.generator(7, law), trials, n)
        assert counts.dtype == np.int64 and counts.shape == (trials, len(m.token_probs))
        assert (counts >= 0).all() and (counts.sum(axis=1) == n).all()
        zero = np.array([p == 0 for _, p in m.token_probs])
        assert not counts[:, zero].any()

    def test_count_columns_have_the_multinomial_means_and_law(self):
        probs = (Fraction(1, 2), Fraction(1, 4), Fraction(3, 20), Fraction(1, 10))
        m = Measure.iid_examples(dict(zip("abcd", probs)))
        trials = 20_000
        # Each column's mean lies within 4 standard errors of n p_j.
        for n in (1, 3, 40, 500):
            counts = m.sample_count_block(seeding.generator(8, n), trials, n)
            for j, p in enumerate(probs):
                assert abs(counts[:, j].mean() - n * p) < 4 * math.sqrt(n * p * (1 - p) / trials), (n, j)
        # At n = 3 each of the 20 count vectors' frequencies lies within 4 standard
        # errors of its multinomial probability 3!/prod(c_j!) prod(p_j**c_j).
        counts = m.sample_count_block(seeding.generator(8, "law"), trials, 3)
        vectors, seen = np.unique(counts, axis=0, return_counts=True)
        freq = dict(zip(map(tuple, vectors.tolist()), (seen / trials).tolist()))
        for c in itertools.product(range(4), repeat=4):
            if sum(c) == 3:
                p = float(math.factorial(3) * math.prod(pj**cj / math.factorial(cj) for pj, cj in zip(probs, c)))
                assert abs(freq.pop(c, 0.0) - p) < 4 * math.sqrt(p * (1 - p) / trials), c
        assert not freq

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_prefixes_are_successive_single_prefixes(self, law, shape):
        m = self.LAWS[law]
        trials, n = shape
        ours, single, theirs = (seeding.generator(5, law) for _ in range(3))
        prefixes = list(m.sample_prefixes(ours, trials, n))
        assert prefixes == [next(m.sample_prefixes(single, 1, n)) for _ in range(trials)]
        tokens = [tok for tok, _ in m.token_probs]
        assert prefixes == [tuple(tokens[i] for i in row) for row in self._choice(m, theirs, shape)]
        assert ours.random() == single.random() == theirs.random()

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_sampled_branch_reads_the_same_stream(self, law):
        m = self.LAWS[law]
        tokens = [tok for tok, _ in m.token_probs]
        # The first lookup fills the branch's memo with a block of 64 draws.
        want = tuple(tokens[i] for i in self._choice(m, seeding.generator(99, "x"), 64))
        assert m.sample_branch(99, "x", branch_id="s").prefix(64) == want

    def test_count_block_builds_no_trials_by_n_array(self):
        m = Measure.iid_examples({("a", 1): "0.45", ("a", 0): "0.05", ("b", 0): "0.45", ("b", 1): "0.05"})
        rng = seeding.generator(6, "memory")
        tracemalloc.start()
        try:
            counts = m.sample_count_block(rng, 10_000, 500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (counts.sum(axis=1) == 500).all()
        assert peak < 8 * 2**20


def test_decide_is_deterministic_and_validates_tokens():
    assert cl.raven_rule.decide("111") == cl.raven_rule.decide("111") == cl.YES
    assert cl.raven_rule.decide("") == cl.YES
    assert cl.frequency_estimator.decide("1101") == Fraction(3, 4)
    with pytest.raises(cl.InputDomainError):
        cl.raven_rule.decide("12")


def test_method_needs_decide_or_counts_and_derives_decide_from_counts():
    with pytest.raises(cl.ConfigurationError):
        cl.InferenceMethod("x")
    ones = cl.InferenceMethod("ones", decide_counts=lambda n, k: k)
    assert ones.count_symmetric and ones.decide("1101") == 3
    # the same rule with no counts and no block: the slow reference
    plain = cl.InferenceMethod(ones.name, ones.decide)
    assert not plain.count_symmetric and plain.decide_count_block is None and plain.decide([1, 1]) == 2


def test_success_block_is_a_read_only_name_for_the_count_block(toy_classifiers):
    erm = cl.erm_method(toy_classifiers)
    assert erm.success_block is erm.decide_count_block is not None
    with pytest.raises(TypeError):
        cl.InferenceMethod("x", lambda seq: 0, success_block=lambda *a: None)
    with pytest.raises(TypeError):
        replace(erm, success_block=lambda *a: None)


def test_output_at_tracks_the_branch_prefix():
    er = cl.easy_raven()
    assert cl.output_at(cl.raven_rule, er.world("all-ones"), 5) == cl.YES
    w3 = er.world("first-zero-at-3")
    assert cl.output_at(cl.raven_rule, w3, 2) == cl.YES
    assert cl.output_at(cl.raven_rule, w3, 3) == cl.NO


@pytest.mark.parametrize("n", [2.5, True, "3", -1])
def test_output_at_takes_an_integer_sample_size_at_least_0(n):
    w3 = cl.easy_raven().world("first-zero-at-3")
    with pytest.raises(cl.InputDomainError, match="sample size must be"):
        cl.output_at(cl.raven_rule, w3, n)
    assert cl.output_at(cl.raven_rule, w3, np.int64(3)) == cl.NO


def test_output_at_depends_only_on_the_prefix():
    shared = (1, 1, 0)
    w1 = World("w1", Branch("b1", lambda i: shared[i - 1] if i <= 3 else 1), cl.NO)
    w2 = World("w2", Branch("b2", lambda i: shared[i - 1] if i <= 3 else 0), cl.NO)
    for n in range(4):
        assert cl.output_at(cl.raven_rule, w1, n) == cl.output_at(cl.raven_rule, w2, n)
    with pytest.raises(cl.InputDomainError):
        cl.output_at(cl.raven_rule, w1, -1)


def test_loss_of_spec_values():
    er = cl.easy_raven()
    all_ones = er.world("all-ones")
    assert cl.loss_of(er, cl.YES, all_ones) == 0
    assert cl.loss_of(er, cl.NO, all_ones) == 1
    assert cl.loss_of(er, SUSPEND, all_ones) == math.inf

    cb = cl.coin_bias()
    w = cb.world("theta=0.5")
    assert cl.loss_of(cb, Fraction(7, 10), w) == Fraction(1, 5)
    assert cl.loss_of(cb, SUSPEND, w) == math.inf
    with pytest.raises(cl.InputDomainError):
        cl.loss_of(cb, 1.5, w)  # outside the unit interval
    with pytest.raises(cl.InputDomainError):
        cl.loss_of(er, "Maybe", all_ones)


def test_loss_nonnegative_and_zero_exactly_at_truth_on_catalog_problems():
    for problem, probes in (
        (cl.easy_raven(5), (cl.YES, cl.NO)),
        (cl.fair_coin(), (cl.FAIR, cl.UNFAIR)),
        (cl.coin_bias(), cl.DEFAULT_THETA_GRID),
    ):
        for w in problem.worlds:
            assert problem.loss.eval(w.truth, w) == 0
            for h in probes:
                loss = problem.loss.eval(h, w)
                assert loss >= 0
                if h != w.truth:
                    assert loss > 0


def test_validate_problem_passes_on_catalog_and_flags_constructed_violations():
    report = cl.validate_problem(cl.easy_raven())
    assert report.all_ok

    # a loss that grants zero to both hypotheses in some world: the space's hypotheses are the probes
    degenerate = cl.EmpiricalProblem(
        name="degenerate",
        hypothesis_space=cl.FiniteHypothesisSpace((cl.YES, cl.NO)),
        alphabet=(0, 1),
        worlds=(World("w", cl.constant_branch(1), cl.YES),),
        loss=cl.LossFunction("zero", lambda h, w: 0),
    )
    rep = cl.validate_problem(degenerate)
    assert not rep.all_ok
    assert rep.checks[0].rival_zero_loss == cl.NO

    # a world emitting a token outside the binary alphabet
    alien = cl.EmpiricalProblem(
        name="alien",
        hypothesis_space=cl.FiniteHypothesisSpace((cl.YES, cl.NO)),
        alphabet=(0, 1),
        worlds=(World("w", cl.constant_branch(2, "twos"), cl.YES),),
        loss=identification_loss(),
    )
    rep = cl.validate_problem(alien)
    assert not rep.all_ok
    assert not rep.checks[0].alphabet_ok


def test_validate_problem_probes_every_world_truth_on_an_interval_space():
    cb = cl.coin_bias()
    assert cl.validate_problem(cb).all_ok
    # A loss with a second zero at t flags t in every world whose truth is not t, so t is a probe.
    for t in cl.DEFAULT_THETA_GRID:
        twin = replace(cb, loss=cl.LossFunction("twin", lambda h, w, t=t: 0 if h in (w.truth, t) else 1))
        rivals = {c.world_id: c.rival_zero_loss for c in cl.validate_problem(twin).checks}
        assert rivals == {w.id: None if w.truth == t else t for w in cb.worlds}


def test_a_problem_needs_worlds_with_unique_ids_and_names_an_unknown_one():
    w = World("w", cl.constant_branch(1), cl.YES)

    def problem(worlds):
        return cl.EmpiricalProblem("p", cl.FiniteHypothesisSpace((cl.YES, cl.NO)), (0, 1), worlds, identification_loss())

    with pytest.raises(cl.ConfigurationError, match="at least one world"):
        problem(())
    with pytest.raises(cl.ConfigurationError, match="world ids must be unique"):
        problem((w, replace(w, truth=cl.NO)))
    with pytest.raises(cl.InputDomainError, match="unknown world id 'nope'"):
        problem((w,)).world("nope")


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=30))
def test_method_determinism_property(bits):
    seq = tuple(bits)
    for method in (cl.raven_rule, cl.fair_coin_test, cl.frequency_estimator):
        assert method(seq) == method(seq)
