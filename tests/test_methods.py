import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import convlab as cl


class TestRavenRule:
    def test_spec_values(self):
        assert cl.raven_rule("") == cl.YES
        assert cl.raven_rule("111") == cl.YES
        assert cl.raven_rule("1101") == cl.NO

    def test_rejects_non_binary_tokens(self):
        with pytest.raises(cl.InputDomainError):
            cl.raven_rule("10x")

    @given(st.lists(st.integers(0, 1), max_size=40), st.lists(st.integers(0, 1), max_size=10))
    def test_never_retracts_no(self, prefix, extension):
        # once a 0 is seen the verdict stays No on every extension
        if cl.raven_rule(prefix) == cl.NO:
            assert cl.raven_rule(tuple(prefix) + tuple(extension)) == cl.NO


class TestFairCoinTest:
    def test_spec_values(self):
        assert cl.fair_coin_test("1010") == cl.FAIR
        assert cl.fair_coin_test("1" * 16) == cl.UNFAIR
        assert cl.fair_coin_test("") is cl.SUSPEND

    def test_boundary_is_strict(self):
        # at n = 16 the radius is exactly 1/2 and the all-heads deviation is
        # exactly 1/2; the strict inequality resolves this to Unfair
        assert cl.fair_coin_test.decide_counts(16, 16) == cl.UNFAIR
        assert cl.fair_coin_test.decide_counts(15, 15) == cl.FAIR

    @pytest.mark.parametrize("n", [2.5, True, "3", 0])
    def test_threshold_takes_an_integer_n_at_least_1(self, n):
        with pytest.raises(cl.InputDomainError, match="n must be"):
            cl.fair_coin_threshold(n)
        assert cl.fair_coin_threshold(np.int64(16)) == 0.5

    def test_threshold_strictly_decreasing(self):
        samples = [1, 2, 3, 10, 100, 5_000, 123_456, 10**6]
        values = [cl.fair_coin_threshold(n) for n in samples]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(7, 10), Fraction(9, 20), Fraction(1, 20), Fraction(1)])
    def test_bound_applies_once_the_radius_is_below_half_the_gap(self, theta):
        # The integer test n |2p - q|**4 > (4q)**4 is n (|theta - 1/2| / 2)**4 > 1 in Fractions.
        fc = cl.fair_coin([Fraction(1, 2), theta] if theta != Fraction(1, 2) else [theta, Fraction(1)])
        w = fc.world(f"theta={float(theta):g}")
        gap = abs(theta - Fraction(1, 2))
        for n in [*range(1, 300), 10**4, 10**5 + 1]:
            applies = gap == 0 or n * (gap / 2) ** 4 > 1
            bound = cl.fair_coin_test.laws.bound(fc, w, n, cl.EXACT)
            assert (bound is not None) == applies, n
            assert cl.fair_coin_test.laws.bound(fc, w, n, cl.within(0.5)) is None


class TestFrequencyEstimator:
    def test_spec_values(self):
        assert cl.frequency_estimator("1101") == Fraction(3, 4)
        assert cl.frequency_estimator("0000") == 0
        assert cl.frequency_estimator("") is cl.SUSPEND

    def test_output_is_an_exact_rational(self):
        out = cl.frequency_estimator([1, 0, 1])
        assert isinstance(out, Fraction) and out == Fraction(2, 3)

    def test_composes_with_coin_bias_loss(self):
        cb = cl.coin_bias()
        w = cb.world("theta=0.3")
        out = cl.output_at(cl.frequency_estimator, w, 10)
        assert cl.loss_of(cb, out, w) == abs(out - Fraction(3, 10))


class TestIntegerLawReads:
    """The frequency window and the Chebyshev bound, read in integers, against their Fraction definitions."""

    @given(
        t=st.fractions(min_value=0, max_value=1, max_denominator=40),
        eps=st.fractions(min_value=Fraction(1, 40), max_value=Fraction(3, 2), max_denominator=40),
        n=st.integers(1, 500),
    )
    @example(t=Fraction(1, 2), eps=Fraction(1, 10), n=400)  # n (t - eps) and n (t + eps) are integers
    @example(t=Fraction(3, 20), eps=Fraction(3, 20), n=20)  # eps = t: the window's lower end is k = 1
    @example(t=Fraction(1, 10), eps=Fraction(1, 4), n=7)  # eps > t: clipped at k = 0
    @example(t=Fraction(9, 10), eps=Fraction(1, 5), n=30)  # eps > 1 - t: clipped at k = n
    @example(t=Fraction(0), eps=Fraction(3, 2), n=1)
    def test_the_frequency_window_equals_the_fraction_floors_and_the_per_k_scan(self, t, eps, n):
        cb = cl.coin_bias([Fraction(1, 2)])
        world = replace(cb.worlds[0], truth=t)  # the window reads the truth, the space and the loss
        window = cl.frequency_estimator.laws.window
        lo, hi = math.floor(n * (t - eps)) + 1, math.ceil(n * (t + eps)) - 1
        assert window(cb, world, n, cl.within(eps)) == [range(max(0, lo), min(n, hi) + 1)]
        scan = [k for k in range(n + 1) if abs(Fraction(k, n) - t) < eps]
        assert list(window(cb, world, n, cl.within(eps))[0]) == scan
        assert list(window(cb, world, n, cl.EXACT)[0]) == [k for k in range(n + 1) if Fraction(k, n) == t]

    @given(
        n=st.integers(1, 10_000),
        eps=st.fractions(min_value=Fraction(1, 10**6), max_value=10, max_denominator=10**6),
    )
    @example(n=25, eps=Fraction(1, 10))  # 4 n eps**2 = 1: the bound is exactly 0
    def test_the_bernoulli_bound_is_the_chebyshev_fraction(self, n, eps):
        assert cl.bernoulli_bound(n, eps) == max(Fraction(0), 1 - 1 / (4 * n * eps**2))

    @pytest.mark.parametrize("n, eps", [(2.5, 0.1), (3.0, 0.1), (True, 0.1), (Fraction(3), 0.1), (0, 0.1),
                                        (5, 0), (5, -0.1), (5, Fraction(-1, 3)), (5, "0")])
    def test_the_bernoulli_bound_rejects_a_non_integer_n_and_an_eps_at_or_below_0(self, n, eps):
        with pytest.raises(cl.InputDomainError):
            cl.bernoulli_bound(n, eps)


@pytest.mark.parametrize("method", [cl.raven_rule, cl.fair_coin_test, cl.frequency_estimator])
def test_count_symmetry_exhaustive_up_to_length_12(method):
    assert method.count_symmetric
    for n in range(13):
        for seq in itertools.product((0, 1), repeat=n):
            assert method.decide(seq) == method.decide_counts(n, sum(seq))


class TestDerivedDecide:
    """A counts method's derived decide reads k as count(1), checked against count(0): the rule it wraps on
    every input kind (every binary tuple to length 12: test_count_symmetry_exhaustive_up_to_length_12)."""

    METHODS = [cl.raven_rule, cl.fair_coin_test, cl.frequency_estimator]

    @pytest.mark.parametrize("method", METHODS)
    def test_lists_arrays_bools_and_strings(self, method):
        for t in [(), (1,), (0, 1, 1), (1, 1, 0, 1, 0, 0, 1), (1,) * 9, (0,) * 5]:
            want = method.decide_counts(len(t), sum(t))
            assert method.decide(list(t)) == want
            assert method.decide(np.array(t, dtype=np.int64)) == want
            assert method.decide(tuple(map(bool, t))) == want
            assert method.decide("".join(map(str, t))) == want

    @pytest.mark.parametrize("method", METHODS)
    def test_a_non_binary_token_is_named(self, method):
        for bad, shown in [((0, 1, 2), "2"), ([1, "1"], "'1'"), ((1, 0.5), "0.5"), ("0120", "'0120'")]:
            with pytest.raises(cl.InputDomainError, match=f"non-binary .*{shown}"):
                method.decide(bad)

    def test_float_tokens_give_the_rule_an_int_count(self):
        seen = []
        method = cl.InferenceMethod("spy", decide_counts=lambda n, k: seen.append((n, k)) or cl.YES)
        method.decide((1.0, 0.0, 1.0))
        method.decide(np.array([True, False, True]))
        assert seen == [(3, 2), (3, 2)] and all(type(k) is int for _, k in seen)


class TestErm:
    def test_spec_values(self, toy_classifiers):
        all0, all1, ident = toy_classifiers
        assert cl.erm([("a", 1), ("b", 0)], toy_classifiers) is ident
        assert cl.erm([("a", 1), ("a", 1), ("b", 1)], toy_classifiers) is all1
        assert cl.erm([], toy_classifiers) is all0

    def test_rejects_unknown_features_and_labels(self, toy_classifiers):
        with pytest.raises(cl.InputDomainError):
            cl.erm([("c", 1)], toy_classifiers)
        with pytest.raises(cl.InputDomainError):
            cl.erm([("a", 2)], toy_classifiers)

    @given(data=st.lists(st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 1)), max_size=25))
    def test_winner_minimizes_empirical_risk(self, toy_classifiers, data):
        winner = cl.erm(data, toy_classifiers)
        best = min(cl.empirical_risk(h, data) for h in toy_classifiers)
        assert cl.empirical_risk(winner, data) == best

    def test_tie_break_follows_declared_order(self, toy_classifiers):
        all0, all1, ident = toy_classifiers
        assert cl.erm([], (ident, all1, all0)) is ident

    def test_method_order_lists_each_classifier_once(self, toy_classifiers):
        with pytest.raises(cl.InputDomainError, match="each classifier once"):
            cl.erm_method([*toy_classifiers, toy_classifiers[0]])

    def test_method_order_lists_only_classifiers(self, toy_classifiers):
        # A name or an unhashable entry is refused at construction, not at the first decide or block.
        for order in (("all-0", "all-1", "identity"), (*toy_classifiers, "all-0"), (toy_classifiers[0], [1])):
            with pytest.raises(cl.InputDomainError, match="must list classifiers"):
                cl.erm_method(order)

    def test_an_empty_pool_is_refused(self):
        # No classifier has minimal risk, so there is no hypothesis to return.
        for data in ([("a", 1)], []):
            with pytest.raises(cl.InputDomainError, match="at least one classifier"):
                cl.erm(data, ())
            with pytest.raises(cl.InputDomainError, match="at least one classifier"):
                cl.erm(data, iter(()))

    def test_method_order_is_nonempty(self):
        # An empty pool has no first minimizer: its count block had no column to take an argmin over.
        with pytest.raises(cl.InputDomainError, match="and at least one"):
            cl.erm_method(())

    def test_a_bool_or_float_label_is_no_label(self, toy_classifiers):
        # True and 1.0 equal 1, but a label is the integer 0 or 1, as Classifier.from_mapping reads it.
        all0, all1, _ = toy_classifiers
        for data in ([("a", True), ("b", 1.0)], [("a", True)], [("b", 1.0)], [("a", np.float64(0))]):
            with pytest.raises(cl.InputDomainError, match="example label must be 0/1"):
                cl.erm(data, (all0, all1))
        assert cl.erm([("a", np.int64(1)), ("b", np.uint8(1))], (all0, all1)) is all1
        block = cl.erm_method((all0, all1)).decide_count_block
        for bad in (True, 1.0):
            with pytest.raises(cl.InputDomainError, match="example label must be 0/1"):
                block([("a", bad), ("b", 0)], np.array([[1, 0]]))
            outputs, index = block([("a", bad), ("b", 0)], np.array([[0, 2]]))  # an undrawn token decides nothing
            assert outputs[index[0]] is all0

    def test_not_count_symmetric(self, toy_classifiers):
        assert not cl.erm_method(toy_classifiers).count_symmetric

    @given(
        data=st.lists(st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 1)), max_size=25),
        order=st.permutations(range(3)),
    )
    def test_count_block_decides_as_erm(self, toy_classifiers, data, order):
        # One row per example multiset: the data's counts, and a row of zeros.
        pool = tuple(toy_classifiers[i] for i in order)
        tokens = [("a", 0), ("a", 1), ("b", 0), ("b", 1)]
        counts = np.array([[data.count(tok) for tok in tokens], [0] * 4])
        outputs, index = cl.erm_method(pool).decide_count_block(tokens, counts)
        assert outputs[index[0]] is cl.erm(data, pool) and outputs[index[1]] is cl.erm([], pool)

    def test_count_block_rejects_a_drawn_label_outside_0_1(self, toy_classifiers):
        block = cl.erm_method(toy_classifiers).decide_count_block
        tokens = [("a", 1), ("a", 2)]
        outputs, index = block(tokens, np.array([[3, 0]]))
        assert outputs[index[0]] is cl.erm([("a", 1)] * 3, toy_classifiers)
        with pytest.raises(cl.InputDomainError):
            block(tokens, np.array([[2, 1]]))
