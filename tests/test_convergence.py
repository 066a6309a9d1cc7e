import itertools
import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convlab as cl
from convlab import cli, convergence, seeding
from convlab.convergence import (
    Budget,
    _binomial_exact,
    _lock_stage_samples,
    _mc_draw,
    _mc_flags,
    _multinomial_exact,
    _plan,
)
from convlab.core import absolute_error_loss


def _mc_plan(method, world, n, trials):
    return _plan(method, world, n, Budget(strategy="mc", trials=trials))


def _shared_flags(problem, method, worlds, n, crit, trials, rng):
    """Each world's per-trial flags on one draw from the first world's measure, as success_curve shares it.

    The draw takes the path _plan gives the first world.  A drawn row's flag is repeated by its weight,
    so the flags' mean is mc_success_prob's estimate.
    """
    draw = _mc_draw(method, worlds[0].measure, n, _mc_plan(method, worlds[0], n, trials), trials, rng)
    return [np.repeat(_mc_flags(problem, method, w, n, crit, draw), draw["weights"]) for w in worlds]


def rationals(max_den=40):
    return st.fractions(
        min_value=Fraction(1, max_den), max_value=Fraction(max_den - 1, max_den),
        max_denominator=max_den,
    )


# Values that are not integers, each a library caller could pass by mistake.
NOT_INTEGERS = [2.5, 3.0, True, False, "3", Fraction(3)]


class TestBernoulliBound:
    def test_spec_values(self):
        assert cl.bernoulli_bound(25, Fraction(1, 2)) == Fraction(24, 25)
        assert cl.bernoulli_bound(1, Fraction(1, 10)) == 0
        approx = cl.bernoulli_bound(100, 100 ** -0.25)
        assert abs(float(approx) - 0.975) < 1e-6

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(cl.InputDomainError):
            cl.bernoulli_bound(0, 0.1)
        with pytest.raises(cl.InputDomainError):
            cl.bernoulli_bound(5, 0)

    @pytest.mark.parametrize("n", NOT_INTEGERS)
    def test_rejects_a_non_integer_n(self, n):
        with pytest.raises(cl.InputDomainError, match="n must be an integer"):
            cl.bernoulli_bound(n, 0.1)
        assert cl.bernoulli_bound(np.int64(25), Fraction(1, 2)) == Fraction(24, 25)

    @given(n=st.integers(1, 10_000), eps=rationals())
    def test_bound_is_a_probability_below_one(self, n, eps):
        b = cl.bernoulli_bound(n, eps)
        assert 0 <= b < 1


class TestRequiredSampleSize:
    def test_spec_values(self):
        assert cl.required_sample_size(0.1, 0.05) == 501
        assert cl.required_sample_size(0.5, 0.5) == 3

    @given(eps=rationals(), delta=rationals())
    def test_returned_n_is_the_least_that_clears_the_threshold(self, eps, delta):
        n = cl.required_sample_size(eps, delta)
        assert cl.bernoulli_bound(n, eps) > 1 - delta
        if n > 1:
            assert not cl.bernoulli_bound(n - 1, eps) > 1 - delta

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(cl.InputDomainError):
            cl.required_sample_size(0, 0.1)
        with pytest.raises(cl.InputDomainError):
            cl.required_sample_size(0.1, 1)


class TestExactSuccessProb:
    def test_spec_values(self):
        cb = cl.coin_bias()
        w = cb.world("theta=0.5")
        assert cl.exact_success_prob(
            cb, cl.frequency_estimator, w, 2, cl.within(0.3)
        ) == Fraction(1, 2)
        fc = cl.fair_coin()
        wf = fc.world("theta=0.5")
        assert cl.exact_success_prob(fc, cl.fair_coin_test, wf, 4, cl.EXACT) == 1
        assert cl.exact_success_prob(fc, cl.fair_coin_test, wf, 16, cl.EXACT) == 1 - Fraction(
            1, 2**15
        )

    @pytest.mark.parametrize("flagless", [False, True], ids=["binomial-exact", "enum-exact"])
    def test_a_numpy_integer_n_is_its_int_and_bools_and_non_integers_raise(self, flagless):
        fc = cl.fair_coin([0.5, 0.9])
        method = cl.InferenceMethod("user", cl.fair_coin_test.decide) if flagless else cl.fair_coin_test
        w = fc.world("theta=0.9")
        value = cl.exact_success_prob(fc, method, w, np.int64(5), cl.EXACT)
        assert value == cl.exact_success_prob(fc, method, w, 5, cl.EXACT) and isinstance(value, Fraction)
        for n in (2.5, 5.0, True, Fraction(5), "5"):
            with pytest.raises(cl.InputDomainError, match="sample size"):
                cl.exact_success_prob(fc, method, w, n, cl.EXACT)

    @pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(3, 10)])
    @pytest.mark.parametrize(
        "method,crit",
        [
            (cl.raven_rule, cl.EXACT),
            (cl.fair_coin_test, cl.EXACT),
            (cl.frequency_estimator, cl.within(0.25)),
        ],
    )
    def test_binomial_sum_equals_full_enumeration_up_to_length_12(self, theta, method, crit):
        companion = Fraction(1, 2) if theta != Fraction(1, 2) else Fraction(9, 10)
        problem = {
            "raven-rule": cl.fine_grained_raven([theta, 1]),
            "fair-coin-test": cl.fair_coin([theta, companion]),
            "frequency-estimator": cl.coin_bias([theta]),
        }[method.name]
        world = next(w for w in problem.worlds if w.measure == cl.Measure.iid_bernoulli(theta))
        plodding = cl.InferenceMethod(method.name, method.decide)
        for n in range(13):
            fast = cl.exact_success_prob(problem, method, world, n, crit)
            slow = cl.exact_success_prob(problem, plodding, world, n, crit)
            assert fast == slow

    @pytest.mark.parametrize("theta", [Fraction(0), Fraction(1)])
    @pytest.mark.parametrize(
        "method,crit",
        [
            (cl.raven_rule, cl.EXACT),
            (cl.fair_coin_test, cl.EXACT),
            (cl.frequency_estimator, cl.within(0.25)),
        ],
    )
    def test_degenerate_biases_agree_with_enumeration(self, theta, method, crit):
        # The coin problems' default grids hold IID worlds at both ends;
        # fine-grained-raven has one only at p = 0 (p = 1 is a point mass).
        if method is cl.raven_rule:
            problem = cl.fine_grained_raven([0])
            world = problem.world("p=0")
            if theta == 1:
                world = replace(world, truth=cl.YES, measure=cl.Measure.iid_bernoulli(theta))
        else:
            problem = cl.fair_coin() if method is cl.fair_coin_test else cl.coin_bias()
            world = problem.world(f"theta={theta}")
        plodding = cl.InferenceMethod(method.name, method.decide)
        for n in (0, 1, 7):
            assert _plan(method, world, n, Budget()) == "binomial-exact"
            assert cl.exact_success_prob(problem, method, world, n, crit) == cl.exact_success_prob(
                problem, plodding, world, n, crit
            )

    @pytest.mark.parametrize("n", [400, 500])
    @pytest.mark.parametrize("theta", [Fraction(7, 20), Fraction(1, 2)])
    def test_binomial_sum_equals_a_direct_comb_window_sum(self, n, theta):
        p, q = theta.numerator, theta.denominator

        def window_sum(ks):
            return Fraction(sum(math.comb(n, k) * p**k * (q - p) ** (n - k) for k in ks), q**n)

        eps = Fraction(1, 20)
        cb = cl.coin_bias([theta])
        w = cb.world(f"theta={float(theta)}")
        inside = [k for k in range(n + 1) if abs(Fraction(k, n) - theta) < eps]
        assert _binomial_exact(cb, cl.frequency_estimator, w, n, cl.within(eps)) == window_sum(inside)

        fc = cl.fair_coin([Fraction(7, 20), Fraction(1, 2)])
        w = fc.world(f"theta={float(theta)}")
        accept = [k for k in range(n + 1) if abs(2 * k - n) ** 4 < 16 * n**3]
        success = accept if theta == Fraction(1, 2) else sorted(set(range(n + 1)) - set(accept))
        assert _binomial_exact(fc, cl.fair_coin_test, w, n, cl.EXACT) == window_sum(success)

    def test_point_mass_is_an_indicator(self):
        fg = cl.fine_grained_raven([0.5, 1])
        w1 = fg.world("p=1")
        assert cl.exact_success_prob(fg, cl.raven_rule, w1, 9, cl.EXACT) == 1

    def test_budget_exhaustion_points_to_monte_carlo(self, toy_task, toy_classifiers):
        prob = cl.binary_classification(**toy_task)
        with pytest.raises(cl.ResourceBudgetError, match="mc_success_prob"):
            cl.exact_success_prob(
                prob, cl.erm_method(toy_classifiers), prob.world("D1"), 40, cl.within(0.05)
            )

    def test_a_world_without_a_measure_is_its_branch_indicator(self):
        # Deterministic: the point mass on the branch 11110111..., where the raven rule says No from stage 5.
        er = cl.easy_raven()
        w = er.world("first-zero-at-5")
        assert cl.exact_success_prob(er, cl.raven_rule, w, 3, cl.EXACT) == 0
        assert cl.exact_success_prob(er, cl.raven_rule, w, 5, cl.EXACT) == 1
        assert cl.mc_success_prob(er, cl.raven_rule, w, 5, cl.EXACT, 100, seed=0) == (1.0, 0.0, True)
        for strategy in ("auto", "exact", "mc"):
            assert _plan(cl.raven_rule, w, 5, Budget(strategy=strategy)) == "point-mass"


def _direct_sum(theta, n, ks) -> Fraction:
    """The binomial mass of the k in ks (each in 0..n at most once), summed term by term."""
    p, q = theta.numerator, theta.denominator
    return Fraction(sum(math.comb(n, k) * p**k * (q - p) ** (n - k) for k in ks), q**n)


class TestCumulativeCursors:
    """The binomial sum reads a window's mass off cumulative cursors shared through a sums dict."""

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]) | rationals(),
        cuts=st.lists(st.fractions(Fraction(-1, 4), Fraction(5, 4), max_denominator=8), max_size=6),
        shift=st.integers(-2, 2),
        stages=st.lists(st.integers(1, 60), min_size=1, max_size=12),
        order=st.sampled_from(["increasing", "as-drawn"]),
    )
    def test_a_declared_window_sums_to_the_direct_sum(self, theta, cuts, shift, stages, order):
        # Sorted cut points pair into disjoint increasing ranges, which may be empty or reach past 0..n.
        cuts = sorted(cuts)

        def window(problem, world, n, crit):
            edges = [math.floor(c * n) + shift for c in cuts]
            return [range(a, b) for a, b in zip(edges[::2], edges[1::2])]

        method = cl.InferenceMethod("windowed", decide_counts=lambda n, k: cl.SUSPEND, laws=cl.CountLaws(window))
        problem = cl.coin_bias([theta])
        world = problem.worlds[0]
        if order == "increasing":
            stages = sorted(set(stages))
        curve = cl.success_curve(problem, method, [world], cl.EXACT, 60, stages=stages)
        for pt, n in zip(curve.points, stages):
            ks = {k for rg in window(problem, world, n, cl.EXACT) for k in rg if 0 <= k <= n}
            assert pt.n == n and pt.exact and pt.estimate == _direct_sum(theta, n, ks)
            assert cl.exact_success_prob(problem, method, world, n, cl.EXACT) == pt.estimate

    def test_a_parity_rule_without_a_window_sums_its_many_ranges(self):
        # Output NO on an odd count: the block scan finds about n/2 one-count ranges at each n.
        parity = cl.InferenceMethod("parity", decide_counts=lambda n, k: cl.YES if k % 2 == 0 else cl.NO)
        fg = cl.fine_grained_raven([Fraction(3, 10), Fraction(1, 2)])
        worlds = [fg.world("p=0.3"), fg.world("p=0.5")]
        assert {w.truth for w in worlds} == {cl.NO}
        curve = cl.success_curve(fg, parity, worlds, cl.EXACT, 80)
        for pt in curve.points:
            theta = worlds[0].measure.theta if pt.world_id == "p=0.3" else Fraction(1, 2)
            assert pt.estimate == _direct_sum(theta, pt.n, range(1, pt.n + 1, 2))
        # At 1/2 the odd counts carry exactly half the mass.
        assert all(pt.estimate == Fraction(1, 2) for pt in curve.points if pt.world_id == "p=0.5")

    def test_a_shared_sums_changes_no_value(self):
        cb = cl.coin_bias([Fraction(7, 20), Fraction(1, 2)])
        laplace = cl.InferenceMethod("laplace", decide_counts=lambda n, k: Fraction(k + 1, n + 2))
        calls = [
            (method, w, n)
            for n in (5, 40, 12, 40, 90, 3, 91, 200)
            for method in (cl.frequency_estimator, laplace)
            for w in cb.worlds
        ]
        sums = {}
        for method, w, n in calls:
            shared = cl.exact_success_prob(cb, method, w, n, cl.within(0.1), sums=sums)
            assert shared == cl.exact_success_prob(cb, method, w, n, cl.within(0.1))
        # One entry per bias: its capped cursors, and its values at the latest stage only.
        assert sorted(sums) == [(1, 2), (7, 20)]
        for cursors, at, values in sums.values():
            assert len(cursors) <= convergence._CURSOR_CAP and at == 200 and 1 <= len(values) <= 2

    def test_worlds_on_one_measure_with_different_truths_get_their_own_values(self):
        fc = cl.fair_coin([Fraction(1, 2), Fraction(7, 10)])
        fair = fc.world("theta=0.5")
        unfair = replace(fair, id="theta=0.5/claimed-unfair", truth=cl.UNFAIR)
        curve = cl.success_curve(fc, cl.fair_coin_test, [fair, unfair, fair], cl.EXACT, 30)
        by = {}
        for pt in curve.points:
            by.setdefault(pt.world_id, []).append(pt.estimate)
        # FAIR and UNFAIR split every n >= 1 between them; the repeated world repeats its values.
        assert all(a + b == 1 for a, b in zip(by["theta=0.5"], by["theta=0.5/claimed-unfair"]))
        assert by["theta=0.5"][:30] == by["theta=0.5"][30:]
        for n, value in enumerate(by["theta=0.5/claimed-unfair"], start=1):
            assert value == cl.exact_success_prob(fc, cl.fair_coin_test, unfair, n, cl.EXACT)


class TestSuccessMemo:
    """Each distinct output's loss is evaluated once per call, keyed by type and value.

    So a loss must give equal outputs of one type equal losses: 0.5 and
    Fraction(1, 2) are two keys.  An exact Fraction is keyed by its numerator
    and denominator, so a lookup runs neither Fraction.__hash__ nor __eq__.
    Unhashable outputs are keyed per object.
    """

    @pytest.fixture
    def loss_calls(self, monkeypatch):
        calls = []
        loss_of = convergence.loss_of

        def counted(problem, out, world):
            calls.append(out)
            return loss_of(problem, out, world)

        monkeypatch.setattr(convergence, "loss_of", counted)
        return calls

    @pytest.mark.parametrize("path", ["multinomial-exact", "enum-exact", "mc-histogram", "mc-block"])
    def test_erm_paths_evaluate_each_pool_classifier_at_most_once(
        self, loss_calls, path, toy_task, toy_classifiers
    ):
        prob = cl.binary_classification(**toy_task)
        erm = cl.erm_method(toy_classifiers)
        if path == "enum-exact":
            erm = replace(erm, decide_count_block=None)
        w = prob.world("D2")
        if path.startswith("mc"):  # C(6 + 3, 3) = 84 count vectors on D2's four tokens
            trials = 2000 if path == "mc-histogram" else 80
            assert _mc_plan(erm, w, 6, trials) == path
            _shared_flags(prob, erm, [w], 6, cl.within(0.05), trials, seeding.generator(0, w.id, 6))
        else:
            assert _plan(erm, w, 6, Budget()) == path
            cl.exact_success_prob(prob, erm, w, 6, cl.within(0.05))
        assert 0 < len(loss_calls) <= len(toy_classifiers)

    def test_fair_coin_binomial_scan_evaluates_each_verdict_at_most_once(self, loss_calls):
        fc = cl.fair_coin()
        undeclared = replace(cl.fair_coin_test, laws=None)
        assert cl.exact_success_prob(fc, undeclared, fc.world("theta=0.5"), 200, cl.EXACT) > 0
        assert 0 < len(loss_calls) <= 3

    def test_a_declared_window_evaluates_no_loss(self, loss_calls):
        # Neither the binomial sum nor either Monte Carlo count path decides a count.
        decided = []

        def counted(method):
            def decide_counts(n, k):
                decided.append((n, k))
                return method.decide_counts(n, k)

            return replace(method, decide_counts=decide_counts)

        fc = cl.fair_coin()
        cb = cl.coin_bias([Fraction(7, 20)])
        cases = [
            (fc, cl.fair_coin_test, fc.world("theta=0.5"), cl.EXACT),
            (cb, cl.frequency_estimator, cb.world("theta=0.35"), cl.within(0.05)),
        ]
        for problem, method, world, crit in cases:
            method = counted(method)
            assert cl.exact_success_prob(problem, method, world, 200, crit) > 0
            for trials, path in ((2000, "mc-histogram"), (200, "mc-block")):  # 201 count vectors at n = 200
                assert _mc_plan(method, world, 200, trials) == path
                assert cl.mc_success_prob(problem, method, world, 200, crit, trials, seed=3).value > 0
        assert loss_calls == [] and decided == []

    def test_fresh_outputs_per_leaf_keep_the_memo_small(self):
        # A flagless frequency estimator builds a new Fraction at each of the
        # 2**14 leaves; the memo must not hold them all.
        user = cl.InferenceMethod("user-frequency", cl.frequency_estimator.decide)
        cb = cl.coin_bias([Fraction(3, 10)])
        w = cb.world("theta=0.3")
        assert _plan(user, w, 14, Budget()) == "enum-exact"
        tracemalloc.start()
        try:
            cl.exact_success_prob(cb, user, w, 14, cl.within(0.1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


    @staticmethod
    def _user_frequency():
        # No count block and no laws: every leaf or trial builds a fresh Fraction.
        return cl.InferenceMethod("user-frequency", cl.frequency_estimator.decide)

    @pytest.fixture
    def fraction_calls(self, monkeypatch):
        calls = []
        for name in ("__hash__", "__eq__"):

            def counted(frac, *args, _name=name, _original=getattr(Fraction, name)):
                calls.append(_name)
                return _original(frac, *args)

            monkeypatch.setattr(Fraction, name, counted)
        return calls

    def test_fresh_fraction_outputs_are_hashed_per_distinct_value_not_per_leaf(self, fraction_calls):
        cb = cl.coin_bias([Fraction(3, 10)])
        w = cb.world("theta=0.3")
        user = self._user_frequency()
        crit = cl.within(Fraction(1, 10))
        cases = [  # each with a bound on its distinct outputs
            (lambda: cl.exact_success_prob(cb, user, w, 12, crit), 13),  # 2**12 leaves
            (lambda: cl.cardinality_witness(user, 10), 34),  # 2**11 - 1 inputs: 33 values and SUSPEND
            (lambda: cl.mc_success_prob(cb, user, w, 50, crit, 1000, seed=3), 51),  # 1,000 trials
        ]
        for run, distinct in cases:
            del fraction_calls[:]
            run()
            assert len(fraction_calls) <= 2 * distinct

    def test_enum_exact_evaluates_each_distinct_fresh_output_once(self, loss_calls):
        cb = cl.coin_bias([Fraction(3, 10)])
        w = cb.world("theta=0.3")
        want = cl.exact_success_prob(cb, cl.frequency_estimator, w, 14, cl.within(0.1))  # the declared window
        assert loss_calls == []
        user = self._user_frequency()
        assert _plan(user, w, 14, Budget()) == "enum-exact"
        assert cl.exact_success_prob(cb, user, w, 14, cl.within(0.1)) == want
        assert sorted(loss_calls) == [Fraction(k, 14) for k in range(15)]  # 15 values over 2**14 leaves

    def test_mc_generic_evaluates_each_distinct_fresh_output_once(self, loss_calls):
        cb = cl.coin_bias([Fraction(3, 10)])
        w = cb.world("theta=0.3")
        user = self._user_frequency()
        assert _plan(user, w, 100, Budget(strategy="mc")) == "mc-generic"
        est = cl.mc_success_prob(cb, user, w, 100, cl.within(0.05), 2000, seed=3)
        rng = seeding.generator(3, "mc", Fraction(7, 10), Fraction(3, 10), 100)  # the measure's law, not w.id
        prefixes = w.measure.sample_prefixes(rng, 2000, 100)
        outputs = [Fraction(sum(seq), 100) for seq in prefixes]
        assert sorted(loss_calls) == sorted(set(outputs))
        assert est.value == sum(abs(h - Fraction(3, 10)) < Fraction(1, 20) for h in outputs) / 2000

    @pytest.mark.parametrize("decided", ["per-prefix", "count-block"])
    def test_the_lock_scans_evaluate_each_distinct_output_once_per_scan(self, loss_calls, decided):
        method = cl.raven_rule
        if decided == "per-prefix":
            method = cl.InferenceMethod("user-raven", cl.raven_rule.decide)
        er = cl.easy_raven(max_first_zero=3)
        for w in er.worlds:
            del loss_calls[:]
            assert cl.lock_time(er, method, w, 40) == (0 if w.truth == cl.YES else int(w.id[-1]))
            assert sorted(loss_calls, key=str) == sorted({cl.YES, w.truth}, key=str)
        # The generic success-set sampler scans each of its 50 branches once: at most YES and NO per scan.
        fg = cl.fine_grained_raven([Fraction(1, 2)])
        del loss_calls[:]
        _lock_stage_samples(fg, replace(method, locks_at_first_zero=False), fg.worlds[0], 40, 50, 2, "mc")
        assert 50 <= len(loss_calls) <= 2 * 50

    def test_equal_values_of_two_types_are_two_keys(self, monkeypatch):
        # A loss that tells a float from a Fraction: each is evaluated, and each keeps its own verdict.
        seen = []

        def typed_loss(problem, out, world):
            seen.append(out)
            return 0 if isinstance(out, float) else 1

        monkeypatch.setattr(convergence, "loss_of", typed_loss)
        cb = cl.coin_bias([Fraction(1, 2)])
        met = convergence._success_test(cb, cb.worlds[0], cl.EXACT)
        outs = [0.5, Fraction(1, 2), 0.5, Fraction(1, 2), 1, True, 1.0, True]
        assert [met(out) for out in outs] == [True, False, True, False, False, False, True, False]
        keys = [(float, 0.5), (Fraction, Fraction(1, 2)), (int, 1), (bool, True), (float, 1.0)]
        assert [(type(out), out) for out in seen] == keys

    @staticmethod
    def _list_problem():
        # Hypotheses are lists, which cannot be hashed; the method builds a fresh one per input.
        loss = cl.LossFunction("list-identification", lambda h, w: 0 if h == w.truth else 1)
        measure = cl.Measure.iid_bernoulli(Fraction(3, 10))
        world = cl.World("theta=0.3", cl.constant_branch(0), [0], measure)
        space = cl.FiniteHypothesisSpace(([0], [1]))
        problem = cl.EmpiricalProblem("list-majority", space, (0, 1), (world,), loss)
        method = cl.InferenceMethod("list-majority", lambda seq: [1] if 2 * sum(seq) > len(seq) else [0])
        return problem, method, world

    def test_fresh_unhashable_outputs_keep_the_memo_small(self):
        # Keyed per object, 2**14 fresh lists would all be held without the cap.
        problem, method, w = self._list_problem()
        assert _plan(method, w, 14, Budget()) == "enum-exact"
        tracemalloc.start()
        try:
            cl.exact_success_prob(problem, method, w, 14, cl.EXACT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_unhashable_outputs_give_the_unmemoised_values(self, loss_calls):
        problem, method, w = self._list_problem()
        met = lambda seq: problem.loss.eval(method.decide(seq), w) == 0  # noqa: E731
        leaves = itertools.product((0, 1), repeat=8)
        assert cl.exact_success_prob(problem, method, w, 8, cl.EXACT) == sum(
            w.measure.prefix_prob(seq) for seq in leaves if met(seq)
        )
        assert len(loss_calls) == 2**8  # a fresh list per leaf: no hits, but no wrong ones either
        rng = seeding.generator(5, "mc", Fraction(7, 10), Fraction(3, 10), 30)
        prefixes = w.measure.sample_prefixes(rng, 500, 30)
        est = cl.mc_success_prob(problem, method, w, 30, cl.EXACT, 500, seed=5)
        assert est.value == sum(map(met, prefixes)) / 500
        prefix = (1, 1, 0, 0, 0, 1, 0, 0)  # a majority of 1s at stages 1 to 3 only
        _, losses = convergence._zero_loss_scan(problem, method, w, prefix)
        reference = [problem.loss.eval(method.decide(prefix[:s]), w) for s in range(9)]
        assert losses == reference == [0, 1, 1, 1, 0, 0, 0, 0, 0]

    def test_the_witness_validates_each_distinct_output_once(self):
        ratios = []

        class Counted(float):  # Fraction(out) reads a float through as_integer_ratio
            def as_integer_ratio(self):
                ratios.append(float(self))
                return super().as_integer_ratio()

        def decide(seq):
            return Counted(sum(seq) / len(seq)) if seq else cl.SUSPEND

        report = cl.cardinality_witness_report(cl.InferenceMethod("float-frequency", decide), 8)
        distinct = {k / n for n in range(1, 9) for k in range(n + 1)}
        assert sorted(ratios) == sorted(distinct) and report["distinct_outputs"] == len(distinct)

    @pytest.mark.parametrize("bad", ["x", [0.5]], ids=["hashable", "unhashable"])
    def test_the_witness_still_raises_on_the_first_non_real_output(self, bad):
        def decide(seq):
            if len(seq) == 3:
                return bad if seq == (0, 0, 0) else "later"
            return Fraction(sum(seq), max(len(seq), 1))

        with pytest.raises(TypeError, match=re.escape(f"got {bad!r}")):
            cl.cardinality_witness(cl.InferenceMethod("late-non-real", decide), 4)


LAW_THETAS = [Fraction(0), Fraction(1, 10), Fraction(7, 20), Fraction(1, 2), Fraction(13, 20), Fraction(1)]
LAW_CRITS = [cl.EXACT] + [cl.within(e) for e in (Fraction(1, 20), Fraction(1, 10), Fraction(3, 20), 2)]


def _law_worlds(method):
    """(problem, world) pairs: each bias of LAW_THETAS under every truth the method's loss can meet."""
    if method is cl.frequency_estimator:
        problem = cl.coin_bias(LAW_THETAS)
        return [(problem, w) for w in problem.worlds if "/" not in w.id]  # one sampled world per bias
    problem, labels = (cl.fine_grained_raven([0]), (cl.YES, cl.NO)) if method is cl.raven_rule else (
        cl.fair_coin(), (cl.FAIR, cl.UNFAIR)
    )
    base = problem.worlds[0]
    return [
        (problem, replace(base, truth=truth, measure=cl.Measure.iid_bernoulli(th)))
        for th in LAW_THETAS
        for truth in labels
    ]


class TestCountLaws:
    """Every catalog window equals the per-k scan it stands in for; every bound sits below the sum."""

    @pytest.mark.parametrize(
        "method,n_max",
        [(cl.raven_rule, 60), (cl.fair_coin_test, 300), (cl.frequency_estimator, 60)],
        ids=["raven-rule", "fair-coin-test", "frequency-estimator"],
    )
    def test_windows_equal_the_per_k_scan(self, method, n_max):
        # The catalog losses read only the world's truth, so worlds of one
        # truth share their scans, and worlds of one bias their binomial terms.
        scans, terms = {}, {}
        for problem, world in _law_worlds(method):
            th = world.measure.theta
            p, r = th.numerator, th.denominator - th.numerator
            for n in range(n_max + 1):
                if (th, n) not in terms:
                    terms[th, n] = [math.comb(n, k) * p**k * r ** (n - k) for k in range(n + 1)]
                row = terms[th, n]
                for crit in LAW_CRITS:
                    if (world.truth, n, crit) not in scans:
                        met = convergence._success_test(problem, world, crit)
                        scans[world.truth, n, crit] = [k for k in range(n + 1) if met(method.decide_counts(n, k))]
                    scan = scans[world.truth, n, crit]
                    window = method.laws.window(problem, world, n, crit)
                    assert [k for rg in window for k in rg] == scan, (world.id, world.truth, n, crit)
                    exact = _binomial_exact(problem, method, world, n, crit)
                    assert exact == Fraction(sum(row[k] for k in scan), th.denominator**n)
                    bound = cl.analytic_bound(problem, method, world, n, crit)
                    assert bound is None or bound <= exact, (world.id, world.truth, n, crit)

    @pytest.mark.parametrize("crit", [cl.EXACT, cl.within(Fraction(1, 10))], ids=["exact", "within"])
    def test_a_declaration_that_cannot_vouch_declines(self, crit):
        fe = cl.frequency_estimator
        undeclared = replace(fe, laws=None)
        cb = cl.coin_bias([Fraction(7, 20)])
        # A loss the window does not know: the scan's Fraction, which differs from
        # the absolute-error one under within(1/10).
        squared = replace(cb, loss=cl.LossFunction("squared-error", lambda h, w: (h - w.truth) ** 2))
        w = squared.world("theta=0.35")
        for n in range(1, 41):
            assert fe.laws.window(squared, w, n, crit) is None
            assert cl.exact_success_prob(squared, fe, w, n, crit) == cl.exact_success_prob(
                squared, undeclared, w, n, crit
            )
        if crit is not cl.EXACT:
            assert cl.exact_success_prob(squared, fe, w, 40, crit) != cl.exact_success_prob(cb, fe, w, 40, crit)
        # The raven rule's and the fair-coin test's windows know the identification loss by identity only:
        # an equal loss under another object gets the scan, whose sums equal the windowed ones.
        fg = cl.fine_grained_raven([Fraction(3, 5)])
        for problem, method in ((fg, cl.raven_rule), (cl.fair_coin(), cl.fair_coin_test)):
            zero_one = replace(problem, loss=cl.LossFunction("zero-one", lambda h, w: 0 if h == w.truth else 1))
            for world in zero_one.worlds[:3]:
                for n in (1, 7, 40):
                    assert method.laws.window(zero_one, world, n, crit) is None
                    assert cl.exact_success_prob(zero_one, method, world, n, crit) == cl.exact_success_prob(
                        problem, method, world, n, crit
                    )
        # A space missing outputs: the scan's InputDomainError.
        narrow = replace(cb, hypothesis_space=cl.IntervalHypothesisSpace(Fraction(0), Fraction(1, 2)))
        assert cl.exact_success_prob(narrow, fe, w, 0, crit) == 0  # SUSPEND only
        for n in (1, 7, 40):
            assert fe.laws.window(narrow, w, n, crit) is None
            for method in (fe, undeclared):
                with pytest.raises(cl.InputDomainError, match="outside the hypothesis space"):
                    cl.exact_success_prob(narrow, method, w, n, crit)

    @pytest.mark.parametrize(
        "method", [cl.raven_rule, cl.fair_coin_test, cl.frequency_estimator],
        ids=["raven-rule", "fair-coin-test", "frequency-estimator"],
    )
    def test_mc_counts_flags_equal_with_and_without_the_window(self, method):
        # The windowed flags are the scan's, trial for trial, on one generator;
        # theta = 0 and 1 and empty windows included.
        undeclared = replace(method, laws=None)
        empty = 0
        for problem, world in _law_worlds(method):
            for n in (0, 1, 2, 7, 40):
                for crit in LAW_CRITS:
                    empty += not any(method.laws.window(problem, world, n, crit))
                    key = (11, world.id, n)
                    (declared,) = _shared_flags(problem, method, [world], n, crit, 300, seeding.generator(*key))
                    (scanned,) = _shared_flags(problem, undeclared, [world], n, crit, 300, seeding.generator(*key))
                    assert declared.tolist() == scanned.tolist(), (world.id, world.truth, n, crit)
        assert empty > 0

    @pytest.mark.parametrize("ranges", [[range(-5, -2)], [range(-2, 3)], [range(2, 4), range(9, 20)]])
    def test_mc_counts_reads_only_the_window_ks_in_0_through_n(self, ranges):
        # A declared range reaching below 0 or past n flags only its counts in 0..n.
        method = cl.InferenceMethod(
            "ranged",
            decide_counts=lambda n, k: cl.NO if any(k in rg for rg in ranges) else cl.YES,
            laws=cl.CountLaws(lambda problem, world, n, crit: ranges),
        )
        fg = cl.fine_grained_raven([Fraction(1, 2)])
        w = fg.world("p=0.5")
        (declared,) = _shared_flags(fg, method, [w], 10, cl.EXACT, 2000, seeding.generator(4))
        (scanned,) = _shared_flags(fg, replace(method, laws=None), [w], 10, cl.EXACT, 2000, seeding.generator(4))
        assert declared.tolist() == scanned.tolist()

    def test_bounds_come_from_the_laws_not_the_name(self):
        cb = cl.coin_bias([Fraction(7, 20)])
        w = cb.world("theta=0.35")
        crit = cl.within(Fraction(1, 10))
        impostor = cl.InferenceMethod("frequency-estimator", lambda seq: Fraction(0))
        assert cl.analytic_bound(cb, impostor, w, 40, crit) is None
        assert cl.analytic_bound(cb, cl.frequency_estimator, w, 40, crit) == Fraction(3, 8)
        fc = cl.fair_coin()
        impostor = cl.InferenceMethod("fair-coin-test", lambda seq: cl.UNFAIR)
        assert cl.analytic_bound(fc, impostor, fc.world("theta=0.5"), 40, cl.EXACT) is None


class TestSeedType:
    @pytest.mark.parametrize("seed", [2.5, True, "3"])
    def test_a_seed_that_is_not_an_integer_is_rejected(self, seed):
        fc, fgr = cl.fair_coin([0.5, 0.9]), cl.fine_grained_raven([0.5])
        mc = cl.Budget(strategy="mc", trials=100)
        calls = {
            "fair_coin": lambda: cl.fair_coin([0.5, 0.9], seed=seed),
            "mc_success_prob": lambda: cl.mc_success_prob(
                fc, cl.fair_coin_test, fc.worlds[0], 10, cl.EXACT, 100, seed
            ),
            "check_mode": lambda: cl.check_mode(
                fc, cl.fair_coin_test, cl.mode_params("II", 5, delta=0.1), budget=mc, seed=seed
            ),
            # Checked where nothing is drawn too: a mode I scan, and a curve that is exact throughout.
            "check_mode mode I": lambda: cl.check_mode(fc, cl.fair_coin_test, cl.mode_params("I", 5), seed=seed),
            "check_mode exact": lambda: cl.check_mode(
                fc, cl.fair_coin_test, cl.mode_params("II", 5, delta=0.1), seed=seed
            ),
            "success_set_curve": lambda: cl.success_set_curve(
                fgr, cl.raven_rule, fgr.worlds, [1, 5], horizon=5, trials=100, seed=seed, strategy="mc"
            ),
        }
        for call in calls.values():
            with pytest.raises(cl.InputDomainError, match="seed must be an integer"):
                call()

    def test_a_numpy_integer_seed_is_that_integer(self):
        def draw(seed):
            return seeding.generator(seed, "x").integers(1 << 30, size=4).tolist()

        for seed in (np.int64(3), np.int64(-1), np.uint64(2**64 - 1)):
            assert draw(seed) == draw(int(seed))
        assert cl.fair_coin([0.5, 0.9], seed=np.int64(3)).worlds[0].branch.prefix(20) == cl.fair_coin(
            [0.5, 0.9], seed=3
        ).worlds[0].branch.prefix(20)


class TestMcSuccessProb:
    def test_agrees_with_exact_within_four_standard_errors(self):
        fc = cl.fair_coin()
        cb = cl.coin_bias()
        cases = [
            (fc, cl.fair_coin_test, fc.world("theta=0.5"), cl.EXACT),
            (fc, cl.fair_coin_test, fc.world("theta=0.9"), cl.EXACT),
            (cb, cl.frequency_estimator, cb.world("theta=0.5"), cl.within(0.2)),
            (cb, cl.frequency_estimator, cb.world("theta=0.3"), cl.within(0.1)),
        ]
        for problem, method, world, crit in cases:
            for n in (1, 4, 16):
                exact = float(cl.exact_success_prob(problem, method, world, n, crit))
                est = cl.mc_success_prob(problem, method, world, n, crit, 100_000, seed=17)
                slack = 4 * est.stderr + 1e-9  # exact-zero stderr still needs headroom
                assert abs(est.value - exact) <= max(slack, 4 * math.sqrt(exact * (1 - exact) / 100_000) + 1e-9)

    def test_single_trial_is_degenerate(self):
        fc = cl.fair_coin()
        est = cl.mc_success_prob(fc, cl.fair_coin_test, fc.world("theta=0.5"), 8, cl.EXACT, 1, seed=5)
        assert est.value in (0.0, 1.0)
        assert est.stderr == 0.0

    def test_point_mass_world_reports_the_deterministic_indicator(self):
        fg = cl.fine_grained_raven([1])
        est = cl.mc_success_prob(fg, cl.raven_rule, fg.world("p=1"), 6, cl.EXACT, 100, seed=0)
        assert est == (1.0, 0.0, True)

    def test_reproducible_for_fixed_key(self):
        cb = cl.coin_bias()
        w = cb.world("theta=0.3")
        a = cl.mc_success_prob(cb, cl.frequency_estimator, w, 32, cl.within(0.1), 5000, seed=9)
        b = cl.mc_success_prob(cb, cl.frequency_estimator, w, 32, cl.within(0.1), 5000, seed=9)
        assert a == b
        c = cl.mc_success_prob(cb, cl.frequency_estimator, w, 32, cl.within(0.1), 5000, seed=10)
        assert a != c

    def test_generic_sampling_path_matches_exact(self):
        # strip the fast-path metadata so sampling walks token by token
        cb = cl.coin_bias([Fraction(3, 10)])
        w = cb.world("theta=0.3")
        plodding = cl.InferenceMethod("plodding", cl.frequency_estimator.decide)
        exact = float(cl.exact_success_prob(cb, cl.frequency_estimator, w, 6, cl.within(0.2)))
        est = cl.mc_success_prob(cb, plodding, w, 6, cl.within(0.2), 20_000, seed=3)
        assert abs(est.value - exact) <= 4 * est.stderr + 1e-9

    @pytest.mark.parametrize("crit", [cl.EXACT, cl.within(0.05)], ids=["exact", "within"])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17])
    @pytest.mark.parametrize("which", ["erm", "majority"])
    def test_mc_block_flags_decide_on_the_drawn_counts_and_estimate_the_multinomial_sum(
        self, which, n, crit, toy_task, toy_classifiers
    ):
        # On every toy world, each drawn row's flag is decide's on a sequence
        # with that row's counts, and the weighted estimate lies within 5
        # standard errors (of the exact law) of the multinomial sum.  Every
        # draw at 4000 trials is a histogram; at 300, n = 17 samples rows on
        # the four-token laws.
        prob = cl.binary_classification(**_with_a_zero_entry(toy_task))
        if which == "erm":
            method = cl.erm_method(toy_classifiers)
        else:
            method = TestMultinomialExact._majority(toy_classifiers)
        paths = set()
        for trials, w in itertools.product((4000, 300), prob.worlds):
            tokens = [tok for tok, _ in w.measure.token_probs]
            path = _mc_plan(method, w, n, trials)
            paths.add(path)
            draw = _mc_draw(method, w.measure, n, path, trials, seeding.generator(2, w.id, n))
            flags = _mc_flags(prob, method, w, n, crit, draw)
            met = convergence._success_test(prob, w, crit)
            for row, flag in zip(draw["rows"].tolist(), flags.tolist()):
                assert flag == met(method.decide([tok for tok, c in zip(tokens, row) for _ in range(c)])), (w.id, row)
            estimate = draw["weights"][flags].sum() / trials
            exact = float(_multinomial_exact(prob, method, w, n, crit))
            assert abs(estimate - exact) <= 5 * math.sqrt(exact * (1 - exact) / trials), (w.id, exact)
        assert paths == ({"mc-histogram", "mc-block"} if n == 17 else {"mc-histogram"})

    @pytest.mark.parametrize("flagless", [False, True], ids=["mc-block", "mc-generic"])
    def test_a_numpy_integer_n_is_its_int_and_bools_and_non_integers_raise(self, flagless):
        fc = cl.fair_coin([0.5, 0.9])
        method = cl.InferenceMethod("user", cl.fair_coin_test.decide) if flagless else cl.fair_coin_test
        w = fc.world("theta=0.9")
        est = cl.mc_success_prob(fc, method, w, np.int64(5), cl.EXACT, 100, 1)
        assert est == cl.mc_success_prob(fc, method, w, 5, cl.EXACT, 100, 1)
        for n in (2.5, 5.0, True, Fraction(5), "5"):
            with pytest.raises(cl.InputDomainError, match="sample size"):
                cl.mc_success_prob(fc, method, w, n, cl.EXACT, 100, 1)


class TestHistogramDraw:
    """The count-block draw where the count vectors number at most trials: one multinomial over them."""

    @staticmethod
    def _draw(measure, n, trials):
        world = cl.World("histogram", cl.constant_branch(0), 0, measure)
        assert _mc_plan(cl.frequency_estimator, world, n, trials) == "mc-histogram"
        draw = _mc_draw(None, measure, n, "mc-histogram", trials, seeding.generator(5, "histogram", n))
        return draw["rows"], draw["weights"]

    def test_each_drawn_count_vector_once_with_weights_summing_to_trials(self, toy_task):
        laws = [w.measure for w in cl.binary_classification(**_with_a_zero_entry(toy_task)).worlds]
        for m in laws + [cl.Measure.iid_bernoulli(Fraction(3, 10))]:
            zero = [j for j, (_, pr) in enumerate(m.token_probs) if pr == 0]
            for n in (1, 4, 9, 25):
                rows, weights = self._draw(m, n, 5000)
                assert weights.sum() == 5000 and (weights > 0).all()
                assert len(set(map(tuple, rows.tolist()))) == len(rows)
                assert (rows >= 0).all() and (rows.sum(axis=1) == n).all()
                assert not rows[:, zero].any(), (m, n)  # a zero-probability token's column stays 0

    @pytest.mark.parametrize("theta, n", [(0, 7), (1, 7), (Fraction(1, 2), 0)])
    def test_a_single_count_vector_takes_every_trial(self, theta, n):
        rows, weights = self._draw(cl.Measure.iid_bernoulli(theta), n, 300)
        k = n if theta == 1 else 0
        assert rows.tolist() == [[n - k, k]] and weights.tolist() == [300]

    def test_binary_estimates_agree_with_the_binomial_sum(self):
        cb = cl.coin_bias([Fraction(3, 10), Fraction(1, 2)])
        method = replace(cl.frequency_estimator, laws=None)  # flagged through the block, not a window
        for w in cb.worlds:
            for n in (3, 40, 300, 4999):
                self._draw(w.measure, n, 5000)
                exact = float(_binomial_exact(cb, method, w, n, cl.within(0.1)))
                est = cl.mc_success_prob(cb, method, w, n, cl.within(0.1), 5000, seed=13)
                assert abs(est.value - exact) <= 5 * math.sqrt(exact * (1 - exact) / 5000), (w.id, n)

    def test_four_token_estimates_agree_with_the_multinomial_sum(self, toy_task, toy_classifiers):
        prob = cl.binary_classification(**toy_task)
        erm = cl.erm_method(toy_classifiers)
        for w in prob.worlds[1:]:  # the two four-token laws
            for n in (3, 8, 20):  # C(n + 3, 3) <= 4000 count vectors
                self._draw(w.measure, n, 4000)
                exact = float(_multinomial_exact(prob, erm, w, n, cl.within(0.05)))
                est = cl.mc_success_prob(prob, erm, w, n, cl.within(0.05), 4000, seed=13)
                assert abs(est.value - exact) <= 5 * math.sqrt(exact * (1 - exact) / 4000), (w.id, n)


def _with_a_zero_entry(task):
    """The toy problem's arguments plus a law whose table lists a (feature, label) pair at probability 0."""
    law = {("a", 1): Fraction(1, 2), ("a", 0): Fraction(0), ("b", 0): Fraction(1, 2)}
    return dict(task, distributions=[*task["distributions"], law])


class TestEnumExact:
    def test_measure_support_holds_each_positive_token_over_one_denominator(self, toy_task):
        laws = [cl.Measure.iid_bernoulli(th) for th in (0, Fraction(3, 10), 1)]
        laws.append(cl.binary_classification(**_with_a_zero_entry(toy_task)).world("D3").measure)
        laws.append(cl.Measure.iid_examples({"x": "1/3", "z": 0, "y": "1/4", "v": "1/4", "w": "1/6"}))  # q = 12, not 6
        got = [m.support for m in laws]
        assert got == [
            ((0,), (1,), 1),
            ((0, 1), (7, 3), 10),
            ((1,), (1,), 1),
            ((("a", 1), ("b", 0)), (1, 1), 2),
            (("x", "y", "v", "w"), (4, 3, 3, 2), 12),
        ]
        for m, (tokens, nums, q) in zip(laws, got):
            positive = [(tok, pr) for tok, pr in m.token_probs if pr != 0]
            assert list(zip(tokens, (Fraction(a, q) for a in nums))) == positive

    def test_enumeration_sums_prefix_prob_over_the_success_set(self, toy_task, toy_classifiers):
        # The reference reads every token the law lists, zero-probability ones included (they weigh 0).
        cb = cl.coin_bias([0, Fraction(3, 10)])
        fg = cl.fine_grained_raven([Fraction(3, 5)])
        prob = cl.binary_classification(**_with_a_zero_entry(toy_task))
        cases = [
            (cb, cl.InferenceMethod("plodding", cl.frequency_estimator.decide), cb.worlds[:2], cl.within(Fraction(1, 5))),
            (fg, cl.InferenceMethod("plodding", cl.raven_rule.decide), fg.worlds, cl.EXACT),
            (prob, replace(cl.erm_method(toy_classifiers), decide_count_block=None), prob.worlds, cl.within(0.05)),
        ]
        for problem, method, worlds, crit in cases:
            for w in worlds:
                alphabet = [tok for tok, _ in w.measure.token_probs]
                for n in range(7):
                    assert _plan(method, w, n, Budget()) == "enum-exact"
                    hits = (
                        seq
                        for seq in itertools.product(alphabet, repeat=n)
                        if crit.met(cl.loss_of(problem, method.decide(seq), w))
                    )
                    want = sum((w.measure.prefix_prob(seq) for seq in hits), Fraction(0))
                    assert cl.exact_success_prob(problem, method, w, n, crit) == want, (w.id, n)


class TestMultinomialExact:
    MULTINOMIAL_CRITS = [cl.EXACT, cl.within(0.05), cl.within(0.3)]

    def test_equals_enumeration_on_every_toy_world(self, toy_task, toy_classifiers):
        # D0's table leaves two of the four pairs out and D3 lists one at
        # probability 0: supports smaller than the alphabet.
        prob = cl.binary_classification(**_with_a_zero_entry(toy_task))
        erm = cl.erm_method(toy_classifiers)
        plodding = replace(erm, decide_count_block=None)
        for w in prob.worlds:
            for crit in self.MULTINOMIAL_CRITS:
                for n in range(9):
                    assert _plan(erm, w, n, Budget()) == "multinomial-exact"
                    assert _plan(plodding, w, n, Budget()) == "enum-exact"
                    fast = cl.exact_success_prob(prob, erm, w, n, crit)
                    assert isinstance(fast, Fraction)
                    assert fast == cl.exact_success_prob(prob, plodding, w, n, crit), (w.id, crit, n)

    def test_the_block_sees_only_positive_probability_tokens(self, toy_task, toy_classifiers):
        prob = cl.binary_classification(**_with_a_zero_entry(toy_task))
        erm = cl.erm_method(toy_classifiers)
        seen = []

        def block(tokens, counts):
            seen.append((list(tokens), counts.shape))
            return erm.decide_count_block(tokens, counts)

        spy = replace(erm, decide_count_block=block)
        assert cl.exact_success_prob(prob, spy, prob.world("D3"), 3, cl.EXACT) == Fraction(3, 4)
        # 50 trials: the histogram of the 4 count vectors, all drawn; 3 trials: 3 sampled rows.
        for trials in (50, 3):
            _shared_flags(prob, spy, [prob.world("D3")], 3, cl.EXACT, trials, seeding.generator(0))
        assert seen == [([("a", 1), ("b", 0)], (4, 2))] * 2 + [([("a", 1), ("b", 0)], (3, 2))]

    def test_compositions_are_every_count_vector_once(self):
        for n, t in [(0, 1), (0, 3), (5, 1), (6, 4), (3, 2)]:
            rows = convergence._compositions(n, t).tolist()
            assert len(rows) == math.comb(n + t - 1, t - 1) == len(set(map(tuple, rows)))
            assert all(len(r) == t and sum(r) == n and min(r) >= 0 for r in rows)

    def test_curve_equals_the_enumerated_curve(self, toy_task, toy_classifiers):
        prob = cl.binary_classification(**toy_task)
        erm = cl.erm_method(toy_classifiers)
        plodding = replace(erm, decide_count_block=None)
        curves = [cl.success_curve(prob, m, prob.worlds, cl.within(0.05), 6) for m in (erm, plodding)]
        assert all(pt.exact and isinstance(pt.estimate, Fraction) for pt in curves[0].points)
        assert [pt.estimate for pt in curves[0].points] == [pt.estimate for pt in curves[1].points]
        assert cli.curve_csv(curves[0]) == cli.curve_csv(curves[1])

    @staticmethod
    def _majority(toy_classifiers, ties_to_one=True):
        """A user method: all-1 when label-1 examples are the majority (ties per the flag), else all-0."""
        all0, all1, _ = toy_classifiers

        def one_wins(ones, n):
            return 2 * ones >= n if ties_to_one else 2 * ones > n

        def block(tokens, counts):
            labels = np.array([y for _, y in tokens])
            return (all0, all1), one_wins(counts @ labels, counts.sum(axis=1)).astype(np.int64)

        decide = lambda seq: (all0, all1)[one_wins(sum(y for _, y in seq), len(seq))]  # noqa: E731
        return cl.InferenceMethod("majority", decide, decide_count_block=block)

    def test_a_user_block_method_takes_the_path(self, toy_task, toy_classifiers):
        prob = cl.binary_classification(**toy_task)
        method = self._majority(toy_classifiers)
        plodding = replace(method, decide_count_block=None)
        for w in prob.worlds:
            for n in range(7):
                assert _plan(method, w, n, Budget()) == "multinomial-exact"
                for crit in self.MULTINOMIAL_CRITS:
                    want = cl.exact_success_prob(prob, plodding, w, n, crit)
                    assert cl.exact_success_prob(prob, method, w, n, crit) == want

    def test_a_block_that_disagrees_with_decide_fails_the_comparison(self, toy_task, toy_classifiers):
        # Negative control: the block breaks ties toward all-0, decide toward
        # all-1; in D2 (best: all-0) a tied sample has positive probability.
        prob = cl.binary_classification(**toy_task)
        honest = self._majority(toy_classifiers)
        liar = replace(honest, decide_count_block=self._majority(toy_classifiers, False).decide_count_block)
        w = prob.world("D2")
        plodding = replace(honest, decide_count_block=None)
        diffs = [
            cl.exact_success_prob(prob, liar, w, n, cl.within(0.05))
            != cl.exact_success_prob(prob, plodding, w, n, cl.within(0.05))
            for n in range(7)
        ]
        assert diffs == [n % 2 == 0 for n in range(7)]
        # Monte Carlo reads the same block. On independent streams, the honest
        # block's estimate lies within 5 standard errors se of decide's exact
        # value, and the liar's is told apart from it (their difference, of
        # standard error sqrt(2) se when the exact values agree, exceeds 5 of
        # those) exactly at the even n, where a tie has positive probability.
        trials, apart = 4000, []
        for n in range(7):
            exact = float(cl.exact_success_prob(prob, plodding, w, n, cl.within(0.05)))
            se = math.sqrt(exact * (1 - exact) / trials)
            est = [
                _shared_flags(prob, method, [w], n, cl.within(0.05), trials, seeding.generator(key, w.id, n))[0].mean()
                for key, method in ((2, honest), (3, liar))
            ]
            assert abs(est[0] - exact) <= 5 * se, n
            apart.append(abs(est[1] - est[0]) > 5 * math.sqrt(2) * se)
        assert apart == [n % 2 == 0 for n in range(7)]


class TestSuccessCurve:
    @pytest.mark.parametrize("strategy", ["auto", "mc"])
    def test_worlds_without_a_measure_each_get_their_own_indicator(self, strategy):
        # success_curve groups worlds by measure, so every world here shares the key None; each point is
        # still its own world's indicator on its own branch.
        er = cl.easy_raven(max_first_zero=6, literal=True)
        curve = cl.success_curve(er, cl.raven_rule, er.worlds, cl.EXACT, 8, budget=Budget(strategy=strategy))
        assert len(curve.points) == len(er.worlds) * 8
        for pt in curve.points:
            k = int(pt.world_id.split("/")[0].removeprefix("first-zero-at-")) if pt.world_id != "all-ones" else 0
            want = int(pt.n < k) if pt.world_id.endswith("/literal-yes") else int(pt.n >= k)
            assert (pt.estimate, pt.stderr, pt.exact) == (want, 0.0, True)

    def test_exact_dominates_the_analytic_bound(self):
        cb = cl.coin_bias([Fraction(1, 2)])
        curve = cl.success_curve(
            cb,
            cl.frequency_estimator,
            [cb.world("theta=0.5")],
            cl.within(0.1),
            20,
        )
        for pt in curve.points:
            assert pt.exact
            assert pt.bound is not None
            assert pt.estimate >= pt.bound  # exact rationals on both sides

    def test_fair_coin_on_truth_curve_clears_its_bound(self):
        fc = cl.fair_coin()
        w = fc.world("theta=0.5")
        curve = cl.success_curve(fc, cl.fair_coin_test, [w], cl.EXACT, 20)
        for pt in curve.points:
            # P >= 1 - 1/(4 sqrt n), exactly: 16 n (1-P)^2 <= 1
            shortfall = 1 - pt.estimate
            assert 16 * pt.n * shortfall * shortfall <= 1

    def test_off_truth_bound_only_annotated_once_the_radius_is_small(self):
        fc = cl.fair_coin([0.5, 0.9])
        w = fc.world("theta=0.9")
        # half-gap is 0.2, so the bound needs n**-0.25 < 0.2, i.e. n > 625
        assert cl.analytic_bound(fc, cl.fair_coin_test, w, 625, cl.EXACT) is None
        assert cl.analytic_bound(fc, cl.fair_coin_test, w, 626, cl.EXACT) is not None

    def test_fine_grained_raven_curve_has_closed_form(self):
        fg = cl.fine_grained_raven([0.5])
        w = fg.world("p=0.5")
        curve = cl.success_curve(fg, cl.raven_rule, [w], cl.EXACT, 10)
        for pt in curve.points:
            assert pt.estimate == 1 - Fraction(1, 2) ** pt.n

    def test_identical_under_any_worker_count(self):
        cb = cl.coin_bias([0.3, 0.5])
        worlds = [cb.world("theta=0.3"), cb.world("theta=0.5")]
        kwargs = dict(budget=Budget(strategy="mc", trials=4000), seed=21, stages=(2, 8, 32))
        one = cl.success_curve(cb, cl.frequency_estimator, worlds, cl.within(0.2), 32, **kwargs)
        eight = cl.success_curve(
            cb, cl.frequency_estimator, worlds, cl.within(0.2), 32, workers=8, **kwargs
        )
        assert one == eight

    def test_the_pool_gets_exactly_the_keys_planned_mc_block(self, monkeypatch, toy_task, toy_classifiers):
        submitted = []
        map_items = convergence._map_items
        monkeypatch.setattr(convergence, "_map_items", lambda fn, keys, w: submitted.append(keys) or map_items(fn, keys, w))
        prob = cl.binary_classification(**toy_task)
        erm = cl.erm_method(toy_classifiers)
        stages = (1, 3, 4, 5, 9)
        budget = Budget(strategy="auto", exact_enum_cap=8, trials=50)
        cl.success_curve(prob, erm, prob.worlds, cl.within(0.05), 9, budget=budget, stages=stages, workers=2)
        (keys,) = submitted  # one world per measure: a key's group is its world's index
        planned = [(wi, n) for wi, w in enumerate(prob.worlds) for n in stages if _plan(erm, w, n, budget) == "mc-block"]
        assert keys == planned and {n for _, n in planned} == {5, 9}

    def test_exact_strategy_refuses_to_fall_back(self, toy_task, toy_classifiers):
        prob = cl.binary_classification(**toy_task)
        with pytest.raises(cl.ResourceBudgetError):
            cl.success_curve(
                prob,
                cl.erm_method(toy_classifiers),
                [prob.world("D0")],
                cl.within(0.05),
                40,
                budget=Budget(strategy="exact"),
                stages=(40,),
            )

    @staticmethod
    def _mc_curve(problem, method, worlds, crit=cl.EXACT, stages=(3, 8, 20), trials=300, seed=9, horizon=20):
        budget = Budget(strategy="mc", trials=trials)
        return cl.success_curve(problem, method, worlds, crit, horizon, budget=budget, seed=seed, stages=stages)

    def test_worlds_on_one_measure_get_one_draw(self):
        fc = cl.fair_coin([0.5, 0.9])
        curve = self._mc_curve(fc, cl.fair_coin_test, fc.worlds)
        by_world = {}
        for pt in curve.points:
            by_world.setdefault(pt.world_id, []).append((pt.estimate, pt.stderr))
        assert by_world["theta=0.9"] == by_world["theta=0.9/alternating"]
        assert any(est not in (0.0, 1.0) for est, _ in by_world["theta=0.9"])

    def test_one_count_block_draw_per_measure_and_stage(self, monkeypatch):
        draws = []
        draw = convergence._mc_draw

        def spy(method, measure, n, path, trials, rng):
            draws.append((measure.theta, n))
            return draw(method, measure, n, path, trials, rng)

        monkeypatch.setattr(convergence, "_mc_draw", spy)
        fc = cl.fair_coin([0.5, 0.9])  # five worlds on two measures
        self._mc_curve(fc, cl.fair_coin_test, fc.worlds, stages=(3, 8, 20))
        assert sorted(draws) == sorted((th, n) for th in (Fraction(1, 2), Fraction(9, 10)) for n in (3, 8, 20))

    def test_a_flagless_method_decides_each_sample_once_per_measure_and_stage(self):
        decided = []

        def decide(seq):
            decided.append(len(seq))
            return cl.fair_coin_test.decide(seq)

        fc = cl.fair_coin([0.5, 0.9])
        user = cl.InferenceMethod("user-fair-coin-test", decide)
        assert _plan(user, fc.worlds[0], 8, Budget(strategy="mc")) == "mc-generic"
        self._mc_curve(fc, user, fc.worlds, stages=(4, 9), trials=300)
        assert sorted(decided) == [4] * 600 + [9] * 600  # 2 measures x 300 trials per stage, not 5 worlds

    def _library_call_curve(self, flagless, stages, trials, block_path):
        fc = cl.fair_coin([0.5, 0.9])
        method = cl.InferenceMethod("user", cl.fair_coin_test.decide) if flagless else cl.fair_coin_test
        curve = self._mc_curve(fc, method, fc.worlds, stages=stages, trials=trials, horizon=stages[-1])
        for pt in curve.points:
            w = fc.world(pt.world_id)
            assert _mc_plan(method, w, pt.n, trials) == ("mc-generic" if flagless else block_path)
            est = cl.mc_success_prob(fc, method, w, pt.n, cl.EXACT, trials, seed=9)
            assert (pt.estimate, pt.stderr, pt.exact) == tuple(est), (pt.world_id, pt.n)
        return curve

    @pytest.mark.parametrize("flagless", [False, True], ids=["mc-histogram", "mc-generic"])
    def test_every_point_equals_the_library_call(self, flagless):
        self._library_call_curve(flagless, (1, 6, 20), 300, "mc-histogram")

    @pytest.mark.parametrize("flagless", [False, True], ids=["mc-block", "mc-generic"])
    def test_a_pooled_point_equals_the_library_call(self, flagless):
        # At 30 trials, n = 40 has 41 > 30 count vectors: a count-block method plans mc-block, the pool's path.
        curve = self._library_call_curve(flagless, (40,), 30, "mc-block")
        assert any(0 < pt.estimate < 1 for pt in curve.points)

    def test_a_many_stage_curve_drops_each_draw_once_judged(self, toy_task, toy_classifiers):
        # Stages 1..150 on the toy ERM's two four-token laws: about 140 of them sample 2000 rows each
        # (64 KB, plus the decided index).  Held until the curve returns they would take over 10 MB.
        prob = cl.binary_classification(**toy_task)
        budget = Budget(strategy="mc", trials=2000)
        tracemalloc.start()
        try:
            cl.success_curve(prob, cl.erm_method(toy_classifiers), prob.worlds, cl.within(0.05), 150,
                             budget=budget, seed=3, workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 * 1024

    def test_a_world_ids_subset_gives_the_full_grid_rows(self):
        fc = cl.fair_coin()
        kwargs = dict(budget=Budget(strategy="mc", trials=300), seed=9)
        ids = ["theta=0.9/alternating", "theta=0.5/all-ones", "theta=0.3"]
        params = [cl.mode_params("II", 20, 0.1, stages=(3, 8, 20), world_ids=w) for w in (None, ids)]
        full, subset = (cl.check_mode(fc, cl.fair_coin_test, p, **kwargs) for p in params)
        rows = {(pt.world_id, pt.n): pt for pt in full.curve.points}
        assert [pt.world_id for pt in subset.curve.points] == [i for i in ids for _ in range(3)]
        assert all(pt == rows[pt.world_id, pt.n] for pt in subset.curve.points)

    @pytest.mark.parametrize("path", ["window", "count-block", "mc-generic"])
    def test_worlds_on_one_measure_with_different_truths_keep_their_own_flags(self, path):
        # Truths 0.3 and 0.5 on one IID(0.3) measure: no estimate lies within 0.1 of both, so on one
        # draw the two worlds' flags are never both set, and each equals its own single-world call.
        cb = cl.coin_bias([Fraction(3, 10)])
        low = cb.world("theta=0.3")
        high = replace(low, id="theta=0.3/truth=0.5", truth=Fraction(1, 2))
        method = {
            "window": cl.frequency_estimator,
            "count-block": replace(cl.frequency_estimator, laws=None),
            "mc-generic": cl.InferenceMethod("user-frequency", cl.frequency_estimator.decide),
        }[path]
        crit, n, key = cl.within(0.1), 12, (4, "shared", 12)
        both = _shared_flags(cb, method, [low, high], n, crit, 2000, seeding.generator(*key))
        alone = [_shared_flags(cb, method, [w], n, crit, 2000, seeding.generator(*key))[0] for w in (low, high)]
        assert [f.tolist() for f in both] == [f.tolist() for f in alone]
        assert not (both[0] & both[1]).any() and both[0].any() and both[1].any()
        curve = self._mc_curve(cb, method, [low, high], crit=crit, stages=(n,), trials=2000)
        ests = [(pt.estimate, pt.stderr) for pt in curve.points]
        assert ests[0] != ests[1]
        assert ests == [tuple(cl.mc_success_prob(cb, method, w, n, crit, 2000, seed=9))[:2] for w in (low, high)]
        draws = {}  # one dict shared by both calls holds the one draw they are judged on
        shared = [tuple(cl.mc_success_prob(cb, method, w, n, crit, 2000, seed=9, draws=draws))[:2] for w in (low, high)]
        assert shared == ests and len(draws) == 1

    @pytest.mark.parametrize(
        "horizon, stages, match",
        [
            (5, [True], "must be integers"),
            (5, [2.5], "must be integers"),
            (5.0, None, "must be integers"),
            (True, None, "must be integers"),
            (0, None, "horizon must be >= 1"),
            (5, [0], r"\[1, horizon\]"),
            (5, [6], r"\[1, horizon\]"),
        ],
    )
    def test_bad_stages_and_horizons_raise_input_domain_error(self, horizon, stages, match):
        fc = cl.fair_coin([0.5, 0.9])
        for budget in (Budget(), Budget(strategy="mc", trials=50)):
            with pytest.raises(cl.InputDomainError, match=match):
                cl.success_curve(fc, cl.fair_coin_test, fc.worlds[:1], cl.EXACT, horizon, budget=budget,
                                 stages=stages)

    def test_numpy_integer_stages_are_kept_as_ints(self):
        fc = cl.fair_coin([0.5, 0.9])
        for budget in (Budget(), Budget(strategy="mc", trials=50)):
            kwargs = dict(budget=budget, seed=2)
            worlds = fc.worlds[:2]
            stages = np.array([1, 5])
            curve = cl.success_curve(fc, cl.fair_coin_test, worlds, cl.EXACT, np.int64(5), stages=stages, **kwargs)
            assert [type(pt.n) for pt in curve.points] == [int] * 4
            assert curve == cl.success_curve(fc, cl.fair_coin_test, worlds, cl.EXACT, 5, stages=[1, 5], **kwargs)


class TestBudget:
    @pytest.mark.parametrize("margin", [-3.0, -1e-9, math.nan, math.inf])
    def test_rejects_negative_and_non_finite_margins(self, margin):
        with pytest.raises(cl.InputDomainError, match="mc_margin"):
            Budget(mc_margin=margin)

    def test_zero_margin_is_allowed(self):
        assert Budget(mc_margin=0.0).mc_margin == 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials", 2.5),
            ("trials", True),
            ("exact_enum_cap", 2.5),
            ("symmetric_exact_cap", True),
            ("mc_margin", "3"),
            ("mc_margin", True),
        ],
    )
    def test_rejects_bools_and_non_numbers(self, field, value):
        with pytest.raises(cl.InputDomainError, match=field.split("_")[-1]):
            Budget(strategy="mc", **{field: value})

    def test_numpy_numbers_pass(self):
        assert Budget(trials=np.int64(5), exact_enum_cap=np.int32(8), mc_margin=np.float64(2)).trials == 5

    def test_trials_stop_at_numpys_int64_bound(self):
        with pytest.raises(cl.InputDomainError, match="trials must be at most 2\\*\\*63 - 1"):
            Budget(trials=2**63)
        assert Budget(trials=2**63 - 1).trials == 2**63 - 1  # built only: nothing runs at that size


# Evaluation path per case at n = 3..7 under the strategies "auto" and "mc",
# with symmetric_exact_cap = 4, exact_enum_cap = 2**6 and trials = 50: the
# binomial cap sits at n = 4, the enumeration cap at n = 6 for binary data
# and n = 3 for the four example pairs of world D1.  A count-block method
# samples the trials' histogram while the C(n + t - 1, t - 1) count vectors on
# t tokens number at most 50 (n + 1 on the coin; through n = 4 on D1), else rows.
PLAN_TABLE = {
    "bernoulli/block": {
        "auto": ("binomial-exact",) * 2 + ("multinomial-exact",) * 2 + ("mc-histogram",),
        "mc": ("mc-histogram",) * 5,
    },
    "bernoulli/counts": {
        "auto": ("binomial-exact",) * 2 + ("multinomial-exact",) * 2 + ("mc-histogram",),
        "mc": ("mc-histogram",) * 5,
    },
    "bernoulli/flagless": {"auto": ("enum-exact",) * 4 + ("mc-generic",), "mc": ("mc-generic",) * 5},
    "examples/block": {
        "auto": ("multinomial-exact", "mc-histogram") + ("mc-block",) * 3,
        "mc": ("mc-histogram",) * 2 + ("mc-block",) * 3,
    },
    "examples/flagless": {"auto": ("enum-exact",) + ("mc-generic",) * 4, "mc": ("mc-generic",) * 5},
    "point-mass/counts": {"auto": ("point-mass",) * 5, "mc": ("point-mass",) * 5},
}
EXACT_PATHS = ("point-mass", "binomial-exact", "enum-exact", "multinomial-exact")


def _frequency_block(tokens, counts):
    """The frequency estimator as a count block on the coin's tokens; every row sums to the same n."""
    n = int(counts[0].sum())
    return [cl.frequency_estimator.decide_counts(n, k) for k in range(n + 1)], counts[:, list(tokens).index(1)]


def _plan_case(case, toy_task, toy_classifiers):
    if case.startswith("bernoulli"):
        cb = cl.coin_bias([0.3])
        method = cl.frequency_estimator
        if case.endswith("flagless"):
            method = cl.InferenceMethod(method.name, method.decide)
        if case.endswith("block"):
            method = cl.InferenceMethod(method.name, method.decide, laws=method.laws, decide_count_block=_frequency_block)
        return cb, method, cb.world("theta=0.3"), cl.within(0.25)
    if case.startswith("examples"):
        prob = cl.binary_classification(**toy_task)
        method = cl.erm_method(toy_classifiers)
        if case.endswith("flagless"):
            method = replace(method, decide_count_block=None)
        return prob, method, prob.world("D1"), cl.within(0.05)
    fg = cl.fine_grained_raven([0.5, 1])
    return fg, cl.raven_rule, fg.world("p=1"), cl.EXACT


class TestPlan:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("strategy", ["auto", "exact", "mc"])
    @pytest.mark.parametrize("case", sorted(PLAN_TABLE))
    def test_path_table(self, case, strategy, n, toy_task, toy_classifiers):
        problem, method, world, crit = _plan_case(case, toy_task, toy_classifiers)
        budget = Budget(strategy=strategy, symmetric_exact_cap=4, exact_enum_cap=2**6, trials=50)
        want = PLAN_TABLE[case]["mc" if strategy == "mc" else "auto"][n - 3]

        def curve_point():
            curve = cl.success_curve(problem, method, [world], crit, n, budget=budget, stages=(n,))
            return curve.points[0]

        if strategy == "exact" and want not in EXACT_PATHS:
            for call in (
                lambda: _plan(method, world, n, budget),
                curve_point,
                lambda: cl.exact_success_prob(problem, method, world, n, crit, budget),
            ):
                with pytest.raises(cl.ResourceBudgetError):
                    call()
            return
        assert _plan(method, world, n, budget) == want
        point = curve_point()
        try:
            exact = cl.exact_success_prob(problem, method, world, n, crit, budget)
        except cl.ResourceBudgetError:
            exact = None
        assert point.exact == (exact is not None) == (want in EXACT_PATHS)
        if exact is not None:
            assert point.estimate == exact

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    @pytest.mark.parametrize("case, t", [("bernoulli/block", 2), ("examples/block", 4)])
    def test_the_histogram_ends_where_the_count_vectors_outnumber_the_trials(
        self, case, t, n, toy_task, toy_classifiers
    ):
        _, method, world, _ = _plan_case(case, toy_task, toy_classifiers)
        assert sum(pr > 0 for _, pr in world.measure.token_probs) == t
        vectors = math.comb(n + t - 1, t - 1)
        for strategy in ("auto", "mc"):  # "auto" past both exact caps
            budget = Budget(strategy=strategy, symmetric_exact_cap=0, exact_enum_cap=1, trials=vectors)
            assert _plan(method, world, n, budget) == "mc-histogram"
            assert _plan(method, world, n, replace(budget, trials=vectors - 1)) == "mc-block"

    def test_binomial_cap_is_the_budget_cap(self):
        cb = cl.coin_bias([0.3])
        w = cb.world("theta=0.3")
        n = Budget().symmetric_exact_cap + 1
        crit = cl.within(0.1)
        with pytest.raises(cl.ResourceBudgetError, match="mc_success_prob"):
            cl.exact_success_prob(cb, cl.frequency_estimator, w, n, crit)
        p = cl.exact_success_prob(
            cb, cl.frequency_estimator, w, n, crit, Budget(symmetric_exact_cap=n)
        )
        assert isinstance(p, Fraction) and cl.bernoulli_bound(n, crit.eps) <= p < 1


class TestCountBlock:
    """The engine reads every exchangeable method through one count block, derived for a counts method."""

    @pytest.mark.parametrize("tokens", [(0,), (1,), (0, 1), (1, 0)])
    @pytest.mark.parametrize(
        "method", [cl.raven_rule, cl.fair_coin_test, cl.frequency_estimator],
        ids=["raven-rule", "fair-coin-test", "frequency-estimator"],
    )
    def test_derived_block_gives_decide_on_a_sequence_per_row(self, method, tokens):
        # Rows of every n up to 9, each twice and in no sorted order, in one call.
        rows = np.concatenate([convergence._compositions(n, len(tokens)) for n in range(10)])
        rows = np.concatenate([rows, rows])[np.random.default_rng(5).permutation(2 * len(rows))]
        decided = []

        def decide_counts(n, k):
            decided.append((n, k))
            return method.decide_counts(n, k)

        outputs, index = replace(method, decide_counts=decide_counts).decide_count_block(tokens, rows)
        assert len(index) == len(rows)
        for row, i in zip(rows.tolist(), index.tolist()):
            seq = [tok for tok, c in zip(tokens, row) for _ in range(c)]
            assert outputs[i] == method.decide(seq), (tokens, row)
        assert sorted(decided) == sorted(set(decided)) and len(decided) == len(outputs)
        assert all(type(n) is int and type(k) is int for n, k in decided)

    def test_derived_block_rejects_a_non_binary_token_only_where_it_is_counted(self):
        block = cl.frequency_estimator.decide_count_block
        outputs, index = block((0, "x", 1), np.array([[3, 0, 1], [0, 0, 2], [0, 0, 0]]))
        assert [outputs[i] for i in index.tolist()] == [Fraction(1, 4), Fraction(1), cl.SUSPEND]
        for tokens, rows in [((0, "x", 1), [[3, 0, 1], [0, 1, 2]]), ((2,), [[1]]), ((1, 0.5), [[1, 1]])]:
            with pytest.raises(cl.InputDomainError, match="non-binary token"):
                block(tokens, np.array(rows))
        with pytest.raises(cl.InputDomainError, match="non-binary token"):
            cl.frequency_estimator.decide([0, "x", 1])

    def test_a_counts_method_is_one_rule_on_every_path(self):
        # replace(m, decide_counts=g) re-derives decide and the block from g, over any passed alongside.
        never = replace(cl.raven_rule, decide_counts=lambda n, k: cl.NO)
        assert never.decide((1, 1, 1)) == cl.NO
        outputs, index = never.decide_count_block((0, 1), np.array([[0, 3], [1, 2]]))
        assert [outputs[i] for i in index.tolist()] == [cl.NO, cl.NO]
        er = cl.easy_raven(max_first_zero=3)
        assert cl.exact_success_prob(er, never, er.world("all-ones"), 3, cl.EXACT) == 0
        verdict = cl.check_mode(er, never, cl.mode_params("I", 10, world_ids=["all-ones"]))
        assert [wv.status for wv in verdict.worlds] == ["refuted"]
        yes_block = lambda tokens, counts: ([cl.YES], np.zeros(len(counts), dtype=np.int64))  # noqa: E731
        passed = cl.InferenceMethod("x", lambda seq: cl.YES, decide_counts=lambda n, k: cl.NO, decide_count_block=yes_block)
        outputs, index = passed.decide_count_block((0, 1), np.array([[0, 2]]))
        assert passed.decide("11") == outputs[index[0]] == cl.NO

    def test_the_slow_reference_has_no_block_and_plans_per_sequence(self):
        cb = cl.coin_bias([Fraction(3, 10)])
        w = cb.world("theta=0.3")
        plodding = cl.InferenceMethod("plodding", cl.frequency_estimator.decide)
        assert plodding.decide_count_block is None and cl.frequency_estimator.decide_count_block is not None
        assert _plan(plodding, w, 5, Budget()) == "enum-exact"
        assert _plan(plodding, w, 5, Budget(strategy="mc")) == "mc-generic"
        assert _plan(cl.frequency_estimator, w, 5, Budget()) == "binomial-exact"

    def test_erm_scans_make_one_block_call_per_world_and_no_decide_call(self, toy_task, toy_classifiers):
        prob = cl.binary_classification(**toy_task)
        erm = cl.erm_method(toy_classifiers)
        calls = []

        def block(tokens, counts):
            calls.append(counts.shape[0])
            return erm.decide_count_block(tokens, counts)

        def decide(seq):
            raise AssertionError("the scan called decide")

        spy = replace(erm, decide=decide, decide_count_block=block)
        plodding = replace(erm, decide_count_block=None)
        horizon = 300
        verdict = cl.check_mode(prob, spy, cl.mode_params("I", horizon))
        assert calls == [horizon + 1] * len(prob.worlds)
        assert verdict == cl.check_mode(prob, plodding, cl.mode_params("I", horizon))
        assert {wv.status for wv in verdict.worlds} == {"supported"}
        calls.clear()
        for w in prob.worlds:
            for h in (1, 7, horizon):
                assert cl.lock_time(prob, spy, w, h) == cl.lock_time(prob, plodding, w, h), (w.id, h)
        assert calls == [1 + 1, 7 + 1, horizon + 1] * len(prob.worlds)

    def test_counts_method_scans_agree_with_decide_on_every_prefix(self):
        # Mode I, lock times and the generic lock sampler, on branches that start with a 1 or a 0.
        thetas = [Fraction(1, 2), Fraction(7, 10)]
        for problem, method in (
            (cl.easy_raven(max_first_zero=6), cl.raven_rule),
            (cl.fair_coin(thetas), cl.fair_coin_test),
            (cl.coin_bias(thetas), cl.frequency_estimator),
        ):
            plodding = cl.InferenceMethod(method.name, method.decide)
            params = cl.mode_params("I", 40)
            assert cl.check_mode(problem, method, params) == cl.check_mode(problem, plodding, params)
            for w in problem.worlds:
                assert cl.lock_time(problem, method, w, 40) == cl.lock_time(problem, plodding, w, 40)
        fg = cl.fine_grained_raven([Fraction(3, 10)])
        w = fg.world("p=0.3")
        first_zero_free = replace(cl.raven_rule, locks_at_first_zero=False)
        locks = _lock_stage_samples(fg, first_zero_free, w, 30, 200, 9, "mc")
        slow = _lock_stage_samples(fg, cl.InferenceMethod("plodding", cl.raven_rule.decide), w, 30, 200, 9, "mc")
        assert locks.tolist() == slow.tolist()

    def test_a_block_only_method_on_a_coin_takes_the_binomial_sum(self):
        cb = cl.coin_bias([Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(1)])
        method = cl.InferenceMethod("block-only", cl.frequency_estimator.decide, decide_count_block=_frequency_block)
        plodding = replace(method, decide_count_block=None)
        for w in (w for w in cb.worlds if "/" not in w.id):
            for crit in (cl.EXACT, cl.within(Fraction(1, 4))):
                for n in range(11):
                    assert _plan(method, w, n, Budget()) == "binomial-exact"
                    assert _plan(plodding, w, n, Budget()) == "enum-exact"
                    want = cl.exact_success_prob(cb, plodding, w, n, crit)
                    assert cl.exact_success_prob(cb, method, w, n, crit) == want, (w.id, crit, n)

    def test_a_scanned_binomial_sum_joins_hits_into_runs(self):
        # Success on k in {0, 2, 3, 7..n}: three runs, one of them a single k, summed exactly.
        hits = lambda n, k: cl.YES if k in (0, 2, 3) or 7 <= k <= n else cl.NO  # noqa: E731
        method = cl.InferenceMethod("runs", decide_counts=hits)
        fg = cl.fine_grained_raven([Fraction(2, 5)])
        w = replace(fg.world("p=0.4"), truth=cl.YES)
        th = Fraction(2, 5)
        for n in (0, 1, 5, 12):
            want = sum(math.comb(n, k) * th**k * (1 - th) ** (n - k) for k in range(n + 1) if hits(n, k) == cl.YES)
            assert _binomial_exact(fg, method, w, n, cl.EXACT) == want


class TestCheckMode:
    def test_identification_supported_with_per_world_stages(self):
        er = cl.easy_raven(max_first_zero=10)
        v = cl.check_mode(er, cl.raven_rule, cl.mode_params("I", 50))
        assert v.status == cl.SUPPORTED_AT_HORIZON
        stages = {wv.world_id: wv.threshold_stage for wv in v.worlds}
        assert stages["all-ones"] == 0
        assert all(stages[f"first-zero-at-{k}"] == k for k in range(1, 11))

    def test_identification_refuted_with_witness(self):
        fc = cl.fair_coin()
        v = cl.check_mode(fc, cl.fair_coin_test, cl.mode_params("I", 64))
        assert v.status == cl.REFUTED_AT_HORIZON
        assert v.witness_world is not None
        refuted = next(wv for wv in v.worlds if wv.world_id == "theta=0.5/all-ones")
        assert refuted.status == "refuted"
        assert refuted.note == "positive loss at stage 64 (loss=1); 50 failing stages, last at 64"
        assert all(wv.note == "" for wv in v.worlds if wv.status == "supported")

    def test_stochastic_identification_on_fine_grained_raven(self):
        fg = cl.fine_grained_raven([0.3, 0.5, 0.9, 1.0])
        v = cl.check_mode(fg, cl.raven_rule, cl.mode_params("II", 60, delta=0.05))
        assert v.status == cl.SUPPORTED_AT_HORIZON
        stages = {wv.world_id: wv.threshold_stage for wv in v.worlds}
        # 1 - p**n > 0.95 exactly from these stages on
        assert stages == {"p=0.3": 3, "p=0.5": 5, "p=0.9": 29, "p=1": 1}
        assert [wv.note for wv in v.worlds] == [""] * 4
        assert v.curve is not None

    def test_marginal_monte_carlo_yields_inconclusive_not_refuted(self):
        # true success probability at the horizon equals the threshold exactly
        fg = cl.fine_grained_raven([0.5])
        params = cl.mode_params("II", 3, delta=0.125)
        exact = cl.check_mode(fg, cl.raven_rule, params)
        assert exact.status == cl.REFUTED_AT_HORIZON  # 0.875 is not > 0.875
        assert exact.worlds[0].note == (
            "success probability 0.875 (stderr 0) at stage 3 does not exceed 1-delta = 0.875"
        )
        mc = cl.check_mode(
            fg, cl.raven_rule, params, budget=Budget(strategy="mc", trials=2000), seed=1
        )
        assert mc.status == cl.INCONCLUSIVE
        assert mc.worlds[0].status == "inconclusive"
        assert mc.worlds[0].note == "final stage within sampling margin"

    def test_approximation_mode_on_coin_bias_with_certified_stage(self):
        cb = cl.coin_bias([0.3, 0.5, 0.7])
        params = cl.mode_params(
            "III",
            600,
            delta=0.1,
            epsilon=0.1,
            stages=(50, 100, 200, 300, 400, 500, 600),
            world_ids=("theta=0.3", "theta=0.5", "theta=0.7"),
        )
        v = cl.check_mode(cb, cl.frequency_estimator, params)
        assert v.status == cl.SUPPORTED_AT_HORIZON
        certified = cl.required_sample_size(0.1, 0.1)
        for wv in v.worlds:
            assert wv.threshold_stage <= max(s for s in params.stages if s <= certified + 50)

    def test_mode_params_validation(self):
        with pytest.raises(cl.InputDomainError):
            cl.mode_params("IV", 10)
        with pytest.raises(cl.InputDomainError):
            cl.mode_params("II", 10)  # missing delta
        with pytest.raises(cl.InputDomainError):
            cl.mode_params("III", 10, delta=0.1)  # missing epsilon
        with pytest.raises(cl.InputDomainError):
            cl.mode_params("II", 0, delta=0.1)
        with pytest.raises(cl.InputDomainError):
            cl.mode_params("II", 10, delta=0.1, stages=(5, 20))

    @pytest.mark.parametrize("mode", ["I", "II", "III"])
    @pytest.mark.parametrize("eps", [-1, 0, "-1e-400", Fraction(-1, 2)])
    def test_an_epsilon_at_or_below_0_is_rejected_in_every_mode(self, mode, eps):
        with pytest.raises(cl.InputDomainError, match="epsilon must be > 0"):
            cl.mode_params(mode, 10, delta=0.1, epsilon=eps)

    def test_mode_one_rejects_stages_and_ignores_delta_and_epsilon(self):
        raven = cl.easy_raven(10)
        params = cl.mode_params("I", 50, delta=0.5, epsilon=3, stages=[40, 50])
        assert params.stages == (40, 50)  # ModeParams keeps them: a success-set curve reads them in any mode
        with pytest.raises(cl.InputDomainError, match="mode I scans every stage to the horizon"):
            cl.check_mode(raven, cl.raven_rule, params)
        plain = cl.check_mode(raven, cl.raven_rule, cl.mode_params("I", 50))
        assert cl.check_mode(raven, cl.raven_rule, cl.mode_params("I", 50, delta=0.5, epsilon=3)) == plain
        (at_8,) = [wv for wv in plain.worlds if wv.world_id == "first-zero-at-8"]
        assert (at_8.status, at_8.threshold_stage) == ("supported", 8)

    @pytest.mark.parametrize("mode", ["I", "II", "III"])
    def test_mode_params_rejects_an_epsilon_past_the_largest_float(self, mode):
        for eps in ("1e999", 10**309, Fraction(2**1024)):
            with pytest.raises(cl.InputDomainError, match="largest float"):
                cl.mode_params(mode, 10, delta=0.1, epsilon=eps)
            with pytest.raises(cl.InputDomainError, match="largest float"):
                cl.within(eps)
        params = cl.mode_params(mode, 10, delta=0.1, epsilon="1e308")
        assert cl.within(params.epsilon).label == "within:1e+308"

    @pytest.mark.parametrize("eps", ["1e-400", "1e-999", "2.4e-324", Fraction(1, 10**400)])
    def test_an_epsilon_that_rounds_to_0_is_rejected(self, eps):
        with pytest.raises(cl.InputDomainError, match="round to 0.0"):
            cl.within(eps)
        for mode in ("I", "II", "III"):
            with pytest.raises(cl.InputDomainError, match="round to 0.0"):
                cl.mode_params(mode, 5, delta=0.1, epsilon=eps)

    def test_the_smallest_float_epsilon_is_kept(self):
        for eps in ("5e-324", "2.5e-324"):  # the second rounds up to the smallest subnormal
            params = cl.mode_params("III", 5, delta=0.1, epsilon=eps)
            assert cl.within(params.epsilon).label == "within:5e-324"

    @pytest.mark.parametrize(
        "horizon,stages", [(10.9, None), (True, None), ("10", None), (10.0, None), (10, [1.9, 3]), (10, [True, 3])]
    )
    def test_mode_params_rejects_non_integer_horizons_and_stages(self, horizon, stages):
        with pytest.raises(cl.InputDomainError, match="must be integers"):
            cl.mode_params("II", horizon, delta=0.1, stages=stages)
        with pytest.raises(cl.InputDomainError, match="must be integers"):
            cl.ModeParams("II", horizon, Fraction(1, 10), stages=None if stages is None else tuple(stages))

    @pytest.mark.parametrize(
        "world_ids",
        # A mapping would stand for its keys, and a set would order the verdict rows by hash.
        ["theta=0.5", ["theta=0.5", 1], 5, {"theta=0.5": 1}, {"theta=0.5"}, {"theta=0.5": 1}.keys()],
        ids=["string", "non-string-entry", "number", "mapping", "set", "dict-keys"],
    )
    def test_mode_params_rejects_world_ids_that_are_not_id_strings(self, world_ids):
        with pytest.raises(cl.InputDomainError, match="world_ids"):
            cl.mode_params("II", 10, delta=0.1, world_ids=world_ids)

    @pytest.mark.parametrize("world_ids", [[], ["theta=0.9", "theta=0.9"]], ids=["empty", "repeated"])
    def test_mode_params_rejects_empty_and_repeated_world_ids(self, world_ids):
        # Else a verdict would judge no world, or one world twice.
        with pytest.raises(cl.InputDomainError, match="world_ids must .* nonempty and distinct"):
            cl.mode_params("II", 5, delta=0.1, world_ids=world_ids)

    def test_mode_params_keeps_world_id_sequences(self):
        for ids in (["theta=0.5"], ("theta=0.5",), (w for w in ["theta=0.5"])):
            assert cl.mode_params("II", 10, delta=0.1, world_ids=ids).world_ids == ("theta=0.5",)

    def test_mode_params_keeps_integer_horizons_and_stages(self):
        mp = cl.mode_params("II", np.int64(10), delta=0.1, stages=[1, np.int64(3)])
        assert (mp.horizon, mp.stages) == (10, (1, 3))


class TestLockTime:
    def test_spec_values(self):
        er = cl.easy_raven()
        assert cl.lock_time(er, cl.raven_rule, er.world("all-ones"), 50) == 0
        assert cl.lock_time(er, cl.raven_rule, er.world("first-zero-at-5"), 50) == 5
        fc = cl.fair_coin()
        assert cl.lock_time(fc, cl.fair_coin_test, fc.world("theta=0.5/all-ones"), 64) is None

    @pytest.mark.parametrize("horizon", NOT_INTEGERS)
    def test_rejects_a_non_integer_horizon(self, horizon):
        er = cl.easy_raven()
        w = er.world("first-zero-at-5")
        with pytest.raises(cl.InputDomainError, match="horizon must be an integer"):
            cl.lock_time(er, cl.raven_rule, w, horizon)
        assert cl.lock_time(er, cl.raven_rule, w, np.int64(50)) == 5

    @pytest.mark.parametrize(
        "problem, method",
        [
            (cl.easy_raven(max_first_zero=12), cl.raven_rule),
            (cl.easy_raven(max_first_zero=6, literal=True), cl.raven_rule),
            (cl.fair_coin(), cl.fair_coin_test),
            (cl.coin_bias(), cl.frequency_estimator),
        ],
        ids=["easy-raven", "easy-raven-literal", "fair-coin", "coin-bias"],
    )
    def test_counts_scan_agrees_with_the_per_sequence_scan(self, problem, method):
        plodding = cl.InferenceMethod(method.name, method.decide, laws=method.laws)

        def mode1(m, T):
            v = cl.check_mode(problem, m, cl.mode_params("I", T))
            return v.status, [(wv.world_id, wv.status, wv.threshold_stage, wv.note) for wv in v.worlds]

        for T in (5, 25, 60):
            assert mode1(method, T) == mode1(plodding, T)
            for w in problem.worlds:
                assert cl.lock_time(problem, method, w, T) == cl.lock_time(problem, plodding, w, T)

    def test_incoherent_world_never_locks(self):
        literal = cl.easy_raven(max_first_zero=4, literal=True)
        twin = literal.world("first-zero-at-2/literal-yes")
        assert cl.lock_time(literal, cl.raven_rule, twin, 40) is None

    @pytest.mark.parametrize("world_id", ["all-ones", "first-zero-at-5", "first-zero-at-19"])
    def test_longer_horizons_never_create_earlier_locks(self, world_id):
        er = cl.easy_raven()
        fc = cl.fair_coin()
        for problem, method, w in [
            (er, cl.raven_rule, er.world(world_id)),
            (fc, cl.fair_coin_test, fc.world("theta=0.9")),
        ]:
            locks = [cl.lock_time(problem, method, w, T) for T in (25, 50, 100)]
            for earlier, later in zip(locks, locks[1:]):
                if earlier is not None and later is not None:
                    assert later >= earlier


class TestSuccessSets:
    def test_exact_closed_form(self):
        fg = cl.fine_grained_raven([0.3, 0.5, 1.0])
        assert cl.success_set_prob(fg, cl.raven_rule, fg.world("p=0.5"), 3).value == Fraction(7, 8)
        assert cl.success_set_prob(fg, cl.raven_rule, fg.world("p=0.3"), 1).value == Fraction(7, 10)
        for strategy in ("auto", "exact", "mc"):  # a point-mass lock is exact under every strategy
            est = cl.success_set_prob(fg, cl.raven_rule, fg.world("p=1"), 12, strategy=strategy)
            assert est == (1, 0.0, True)
        curve = cl.success_set_curve(fg, cl.raven_rule, fg.worlds, [5], horizon=5, trials=200, strategy="mc")
        assert [pt.exact for pt in curve.points] == [False, False, True]  # p = 0.3, 0.5, 1

    def test_a_sure_bias_locks_at_stage_0_on_every_path(self):
        # A user-built IID world at p = 1: the branch is all 1s, truth Yes, locked from stage 0.
        fg = cl.fine_grained_raven([Fraction(1, 2)])
        w = replace(fg.worlds[0], measure=cl.Measure.iid_bernoulli(1))
        scan = replace(cl.raven_rule, locks_at_first_zero=False)
        for n in (0, 1, 5):
            assert cl.success_set_prob(fg, cl.raven_rule, w, n) == (1, 0.0, True)
            assert cl.success_set_prob(fg, cl.raven_rule, w, n, trials=200, strategy="mc").value == 1.0
            assert cl.success_set_prob(fg, scan, w, n, horizon=5, trials=200, strategy="mc").value == 1.0

    def test_a_zero_bias_locks_every_branch_at_stage_1_on_both_sampled_paths(self):
        fg = cl.fine_grained_raven([0])
        w = fg.world("p=0")
        scan = replace(cl.raven_rule, locks_at_first_zero=False)
        for method in (cl.raven_rule, scan):
            curve = cl.success_set_curve(fg, method, [w], [0, 1, 5], horizon=5, trials=200, strategy="mc")
            assert [pt.estimate for pt in curve.points] == [0.0, 1.0, 1.0]

    def test_monte_carlo_agrees_with_the_closed_form(self):
        fg = cl.fine_grained_raven([0.3, 0.9])
        for pid, p in (("p=0.3", Fraction(3, 10)), ("p=0.9", Fraction(9, 10))):
            w = fg.world(pid)
            for n in (1, 5, 20):
                est = cl.success_set_prob(
                    fg, cl.raven_rule, w, n, horizon=20, trials=50_000, seed=13, strategy="mc"
                )
                assert not est.exact
                assert abs(est.value - float(1 - p**n)) <= 4 * est.stderr + 1e-9

    def test_monotonicity_implies_nondecreasing_probabilities(self):
        fg = cl.fine_grained_raven([0.7])
        w = fg.world("p=0.7")
        values = [
            cl.success_set_prob(
                fg, cl.raven_rule, w, n, horizon=25, trials=8000, seed=4, strategy="mc"
            ).value
            for n in range(0, 26, 5)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @staticmethod
    def _lock_law_deviations(method, p, stages, horizon=12, trials=4000, seed=6):
        """Per stage: (|scan - law|, true standard error) for the generic lock scan.

        The law is the method's declared first-zero path read at the horizon:
        its closed form 1 - p**n plus p**horizon, the chance that a scanned
        prefix holds no 0 (truth Yes, locked from stage 0).
        """
        fg = cl.fine_grained_raven([p])
        w = fg.worlds[0]
        scan = cl.success_set_curve(
            fg, replace(method, locks_at_first_zero=False), [w], stages,
            horizon=horizon, trials=trials, seed=seed, strategy="mc",
        )
        out = []
        for pt in scan.points:
            declared = cl.success_set_prob(fg, method, w, pt.n)
            assert declared.exact and declared.value == 1 - p**pt.n
            law = declared.value + p**horizon
            se = max(math.sqrt(float(law * (1 - law)) / trials), pt.stderr)
            out.append((abs(pt.estimate - float(law)), se))
        return out

    @pytest.mark.parametrize(
        "p", [Fraction(3, 10), Fraction(3, 5), Fraction(9, 10)], ids=["p=0.3", "p=0.6", "p=0.9"]
    )
    def test_generic_sampling_path_matches_the_closed_form(self, p):
        for gap, se in self._lock_law_deviations(cl.raven_rule, p, (1, 4, 12)):
            assert gap <= 4 * se + 1e-12

    def test_a_wrong_first_zero_declaration_fails_the_scan_check(self):
        # Negative control: this rule locks at the second 0 but declares the
        # first-zero law, so its declared path and its scan must disagree.
        second_zero = cl.InferenceMethod(
            "second-zero-rule",
            decide_counts=lambda n, k: cl.YES if n - k < 2 else cl.NO,
            locks_at_first_zero=True,
        )
        gaps = self._lock_law_deviations(second_zero, Fraction(3, 5), (1, 4, 12))
        assert any(gap > 10 * se for gap, se in gaps)

    @pytest.mark.parametrize("trials", [0, -1, 2.5, True], ids=["0", "-1", "2.5", "True"])
    def test_trials_are_checked_on_every_path(self, trials):
        fg = cl.fine_grained_raven([Fraction(1, 2)])
        w = fg.worlds[0]
        generic = cl.InferenceMethod("user-raven", cl.raven_rule.decide)
        cases = [  # the generic scan, the geometric sampler, the closed form
            (generic, "auto", "mc"),
            (cl.raven_rule, "mc", "geometric-mc"),
            (cl.raven_rule, "auto", "geometric-exact"),
        ]
        for method, strategy, path in cases:
            assert convergence._set_plan(fg, method, w, strategy) == path
            with pytest.raises(cl.InputDomainError, match="trials"):
                cl.success_set_prob(fg, method, w, 5, horizon=5, trials=trials, strategy=strategy)
            with pytest.raises(cl.InputDomainError, match="trials"):
                cl.success_set_curve(fg, method, [w], [5], horizon=5, trials=trials, strategy=strategy)

    def test_an_empty_world_list_still_checks_strategy_and_trials(self):
        fg = cl.fine_grained_raven([Fraction(1, 2)])
        with pytest.raises(cl.InputDomainError, match="trials"):
            cl.success_set_curve(fg, cl.raven_rule, [], [5], horizon=5, trials=0)
        with pytest.raises(cl.InputDomainError, match="unknown strategy"):
            cl.success_set_curve(fg, cl.raven_rule, [], [5], horizon=5, strategy="bogus")
        assert cl.success_set_curve(fg, cl.raven_rule, [], [5], horizon=5).points == ()

    # One world per success-set path: (method, world id, strategy, planned path).
    _PATHS = [
        ("raven", "p=1", "auto", "point-mass"),
        ("raven", "p=0.5", "auto", "geometric-exact"),
        ("raven", "p=0.5", "mc", "geometric-mc"),
        ("user-raven", "p=0.5", "auto", "mc"),
    ]

    @staticmethod
    def _path_case(method_name, wid):
        fg = cl.fine_grained_raven([Fraction(1, 2), 1])
        method = cl.raven_rule if method_name == "raven" else cl.InferenceMethod("user-raven", cl.raven_rule.decide)
        return fg, method, fg.world(wid)

    @pytest.mark.parametrize("method_name, wid, strategy, path", _PATHS, ids=[c[-1] for c in _PATHS])
    def test_a_stage_past_the_horizon_is_rejected_on_every_path(self, method_name, wid, strategy, path):
        fg, method, w = self._path_case(method_name, wid)
        assert convergence._set_plan(fg, method, w, strategy) == path
        with pytest.raises(cl.InputDomainError, match=r"\[0, horizon\]"):
            cl.success_set_prob(fg, method, w, 12, horizon=5, trials=200, strategy=strategy)
        for stage in (-1, 6):
            with pytest.raises(cl.InputDomainError, match=r"\[0, horizon\]"):
                cl.success_set_curve(fg, method, [w], [stage], horizon=5, trials=200, strategy=strategy)

    @pytest.mark.parametrize("method_name, wid, strategy, path", _PATHS, ids=[c[-1] for c in _PATHS])
    def test_a_zero_horizon_or_a_non_integer_stage_is_rejected_on_every_path(self, method_name, wid, strategy, path):
        fg, method, w = self._path_case(method_name, wid)
        with pytest.raises(cl.InputDomainError, match="horizon must be >= 1"):
            cl.success_set_curve(fg, method, [w], [0], horizon=0, trials=200, strategy=strategy)
        for horizon, stages in ((5, [2.5]), (5, [True]), (5.5, [3])):
            with pytest.raises(cl.InputDomainError, match="must be integers"):
                cl.success_set_curve(fg, method, [w], stages, horizon=horizon, trials=200, strategy=strategy)

    @pytest.mark.parametrize("method_name, wid, strategy, path", _PATHS, ids=[c[-1] for c in _PATHS])
    def test_each_world_is_planned_once(self, monkeypatch, method_name, wid, strategy, path):
        fg, method, w = self._path_case(method_name, wid)
        plans = []

        def spy(problem, method, world, strategy):
            plans.append(world.id)
            return set_plan(problem, method, world, strategy)

        set_plan = convergence._set_plan
        monkeypatch.setattr(convergence, "_set_plan", spy)
        cl.success_set_curve(fg, method, [w, w], [0, 3, 5], horizon=5, trials=200, strategy=strategy)
        assert plans == [w.id, w.id]
        del plans[:]
        assert cl.success_set_prob(fg, method, w, 3, horizon=5, trials=200, strategy=strategy).exact == (
            path in ("point-mass", "geometric-exact")
        )
        assert plans == [w.id]
        if path in ("geometric-mc", "mc"):  # the sampler takes the planned path and plans nothing itself
            del plans[:]
            _lock_stage_samples(fg, method, w, 5, 200, 0, path)
            assert plans == []

    def test_numpy_integer_stages_and_horizon_are_kept_as_ints(self):
        fg = cl.fine_grained_raven([Fraction(1, 2)])
        w = fg.worlds[0]
        for strategy in ("auto", "mc"):
            kwargs = dict(trials=200, seed=3, strategy=strategy)
            curve = cl.success_set_curve(fg, cl.raven_rule, [w], np.arange(4), horizon=np.int64(3), **kwargs)
            assert [type(pt.n) for pt in curve.points] == [int] * 4
            assert curve == cl.success_set_curve(fg, cl.raven_rule, [w], [0, 1, 2, 3], horizon=3, **kwargs)

    @pytest.mark.parametrize("path", ["geometric-mc", "mc"])
    def test_the_cumulative_read_equals_the_per_stage_mean(self, path):
        # Stage 0 and n = horizon included; geometric locks run far past the horizon at p = 0.95, and the
        # scan of a method that never says No leaves every branch with a 0 unlocked (horizon + 1).
        p, horizon, trials, seed = Fraction(19, 20), 6, 3000, 5
        fg = cl.fine_grained_raven([p])
        w = fg.worlds[0]
        method = cl.raven_rule if path == "geometric-mc" else cl.InferenceMethod("always-yes", lambda seq: cl.YES)
        assert convergence._set_plan(fg, method, w, "mc") == path
        hist = _lock_stage_samples(fg, method, w, horizon, trials, seed, path)
        assert hist.shape == (horizon + 2,) and hist.sum() == trials and hist[-1] > 0  # some branches unlocked
        stages = list(range(horizon + 1))
        kwargs = dict(horizon=horizon, trials=trials, seed=seed, strategy="mc")
        curve = cl.success_set_curve(fg, method, [w], stages, **kwargs)
        for pt in curve.points:
            p_hat = int(hist[: pt.n + 1].sum()) / trials
            assert (pt.estimate, pt.stderr) == (p_hat, math.sqrt(max(0.0, p_hat * (1.0 - p_hat)) / trials))
        assert 0 < curve.points[-1].estimate < 1

    def test_the_geometric_sampler_holds_no_per_trial_array(self):
        fg = cl.fine_grained_raven([Fraction(1, 2)])
        w = fg.worlds[0]
        assert convergence._set_plan(fg, cl.raven_rule, w, "mc") == "geometric-mc"
        tracemalloc.start()
        try:
            curve = cl.success_set_curve(fg, cl.raven_rule, [w], [0, 1, 20], horizon=20, trials=10**7, strategy="mc")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024
        assert curve.points[0].estimate == 0 and abs(curve.points[1].estimate - 0.5) < 1e-3

    def test_the_exact_strategy_refuses_a_method_with_no_closed_form(self):
        fg = cl.fine_grained_raven([Fraction(1, 2)])
        w = fg.worlds[0]
        generic = cl.InferenceMethod("user-raven", cl.raven_rule.decide)
        with pytest.raises(cl.ResourceBudgetError, match="no exact success-set path"):
            cl.success_set_prob(fg, generic, w, 5, strategy="exact")
        with pytest.raises(cl.ResourceBudgetError, match="no exact success-set path"):
            cl.success_set_curve(fg, generic, [w], [5], horizon=5, strategy="exact")

    def test_integral_trials_and_a_known_strategy_are_kept(self):
        fg = cl.fine_grained_raven([Fraction(1, 2)])
        w = fg.worlds[0]
        est = cl.success_set_prob(fg, cl.raven_rule, w, 5, trials=np.int64(200), strategy="mc")
        assert est.value == cl.success_set_prob(fg, cl.raven_rule, w, 5, trials=200, strategy="mc").value
        with pytest.raises(cl.InputDomainError, match="unknown strategy"):
            cl.success_set_prob(fg, cl.raven_rule, w, 5, strategy="exactly")

    def test_requires_a_branch_unique_problem(self):
        fc = cl.fair_coin()
        with pytest.raises(cl.PreconditionError):
            cl.success_set_prob(fc, cl.fair_coin_test, fc.world("theta=0.5"), 3)
        literal = cl.easy_raven(literal=True)  # a world without a measure, in a problem with no branch-to-truth map
        with pytest.raises(cl.PreconditionError):
            cl.success_set_prob(literal, cl.raven_rule, literal.world("all-ones"), 3)

    def test_a_world_without_a_measure_is_its_lock_indicator(self):
        # Judged against the world's own truth, so first-zero-at-k reads 0 before stage k even where the
        # horizon (max(n, 1) by default) ends before its zero.
        er = cl.easy_raven(max_first_zero=6)
        for w in er.worlds:
            lock = cl.lock_time(er, cl.raven_rule, w, 6)
            assert lock == (0 if w.id == "all-ones" else int(w.id.removeprefix("first-zero-at-")))
            for n in range(8):
                for strategy in ("auto", "exact", "mc"):
                    est = cl.success_set_prob(er, cl.raven_rule, w, n, strategy=strategy)
                    assert est == (int(n >= lock), 0.0, True)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_the_generic_sampler_decides_each_distinct_sampled_prefix_once(self, seed):
        fg = cl.fine_grained_raven([Fraction(9, 10)])
        w, horizon, trials = fg.worlds[0], 40, 300
        calls = []

        def decide(seq):
            calls.append(seq)
            return cl.raven_rule.decide(seq)

        hist = _lock_stage_samples(fg, cl.InferenceMethod("spy-raven", decide), w, horizon, trials, seed, "mc")
        rng = seeding.generator(seed, "success-set", w.id, horizon)
        branches = list(w.measure.sample_prefixes(rng, trials, horizon))
        distinct = {b[:s] for b in branches for s in range(horizon + 1)}
        assert len(calls) == len(distinct) < trials * (horizon + 1) and set(calls) == distinct
        # The histogram of a per-branch scan of every stage.
        reference = np.zeros(horizon + 2, dtype=np.int64)
        for b in branches:
            n0, _ = convergence._zero_loss_scan(fg, cl.raven_rule, replace(w, truth=fg.truth_of_prefix(b)), b)
            reference[horizon + 1 if n0 is None else n0] += 1
        assert hist.tolist() == reference.tolist()


class TestUnderdeterminationWitness:
    def test_fair_coin_pair(self):
        fc = cl.fair_coin()
        w1, w2 = cl.underdetermination_witness(fc)
        assert (w1.truth, w2.truth) == (cl.FAIR, cl.UNFAIR)
        assert w1.measure.theta == Fraction(1, 2)
        assert w1.branch.prefix(64) == w2.branch.prefix(64)

    def test_coin_bias_pair_shares_the_branch_with_distinct_truths(self):
        cb = cl.coin_bias()
        w1, w2 = cl.underdetermination_witness(cb)
        assert w1.truth == Fraction(1, 2)
        assert w2.truth != w1.truth
        assert w1.branch.prefix(64) == w2.branch.prefix(64)

    def test_easy_raven_has_no_witness(self):
        assert cl.underdetermination_witness(cl.easy_raven()) is None

    def test_a_shared_branch_id_with_differing_prefixes_is_no_witness(self):
        worlds = (cl.World("ones", cl.constant_branch(1, "b"), cl.YES), cl.World("zeros", cl.constant_branch(0, "b"), cl.NO))
        problem = cl.EmpiricalProblem("p", cl.FiniteHypothesisSpace((cl.YES, cl.NO)), (0, 1), worlds, cl.identification_loss())
        assert cl.underdetermination_witness(problem, 0) == worlds  # empty prefixes agree
        assert cl.underdetermination_witness(problem, 1) is None

    def test_a_degenerate_bias_shares_the_constant_branch_and_pairs_with_the_fair_world(self):
        # theta = 1 can only stream all 1s, so it sits on the all-ones branch the fair world also has.
        fc = cl.fair_coin([0, 0.5, 1])
        assert (fc.world("theta=0").branch.id, fc.world("theta=1").branch.id) == ("all-zeros", "all-ones")
        w1, w2 = cl.underdetermination_witness(fc)
        assert (w1.id, w2.id) == ("theta=0.5/all-ones", "theta=1")
        assert (w1.truth, w2.truth) == (cl.FAIR, cl.UNFAIR)
        assert w1.branch is w2.branch

    @pytest.mark.parametrize("horizon", [0, 1, 19])
    def test_worlds_that_only_share_a_finite_prefix_are_no_witness(self, horizon):
        # first-zero-at-20 (No) and all-ones (Yes) agree through 1^19 yet are different streams.
        assert cl.underdetermination_witness(cl.easy_raven(), horizon) is None

    def test_a_bias_near_one_keeps_its_own_sampled_branch(self):
        fc = cl.fair_coin([0.5, 0.99])
        assert fc.world("theta=0.99").branch.id == "sampled/theta=0.99"
        w1, w2 = cl.underdetermination_witness(fc)
        assert w1.branch.id == w2.branch.id == "alternating"

    def test_the_pair_leads_with_the_fair_measure_world(self):
        alt = cl.alternating_branch()
        worlds = tuple(cl.World(f"w{th}", alt, th, cl.Measure.iid_bernoulli(th)) for th in (Fraction(3, 10), Fraction(1, 2)))
        problem = cl.EmpiricalProblem("p", cl.IntervalHypothesisSpace(0, 1), (0, 1), worlds, absolute_error_loss())
        assert cl.underdetermination_witness(problem) == worlds[::-1]

    @pytest.mark.parametrize("horizon", NOT_INTEGERS + [-1])
    def test_rejects_a_horizon_that_is_not_an_integer_at_least_0(self, horizon):
        fc = cl.fair_coin()
        with pytest.raises(cl.InputDomainError, match="horizon must be"):
            cl.underdetermination_witness(fc, horizon)
        assert cl.underdetermination_witness(fc, np.int64(64)) == cl.underdetermination_witness(fc)

    def test_pair_refutes_identification_stage_by_stage(self):
        for problem, method in [
            (cl.fair_coin(), cl.fair_coin_test),
            (cl.coin_bias(), cl.frequency_estimator),
        ]:
            w1, w2 = cl.underdetermination_witness(problem)
            for n in range(0, 65):
                out = cl.output_at(method, w1, n)
                assert out == cl.output_at(method, w2, n)
                hits = (cl.loss_of(problem, out, w1) == 0) + (cl.loss_of(problem, out, w2) == 0)
                assert hits <= 1


class TestCardinalityWitness:
    def test_spec_values(self):
        assert cl.cardinality_witness(cl.frequency_estimator, 4) == Fraction(1, 8)
        constant = cl.InferenceMethod("always-half", lambda seq: Fraction(1, 2))
        assert cl.cardinality_witness(constant, 3) == Fraction(1, 4)
        tenth = cl.InferenceMethod("always-tenth", lambda seq: Fraction(1, 10))
        assert cl.cardinality_witness(tenth, 3) == Fraction(11, 20)  # the widest gap, (1/10, 1)

    @pytest.mark.parametrize("depth", NOT_INTEGERS)
    def test_rejects_a_non_integer_depth(self, depth):
        for witness in (cl.cardinality_witness, cl.cardinality_witness_report):
            with pytest.raises(cl.InputDomainError, match="depth must be an integer"):
                witness(cl.frequency_estimator, depth)
        assert cl.cardinality_witness(cl.frequency_estimator, np.int64(4)) == Fraction(1, 8)
        assert cl.cardinality_witness_report(cl.frequency_estimator, np.int64(4))["depth"] == 4

    def test_a_block_method_with_non_real_outputs_is_refused_before_its_block_runs(self, toy_classifiers):
        erm = cl.erm_method(toy_classifiers)
        calls = []

        def block(tokens, counts):
            calls.append(tokens)
            return erm.decide_count_block(tokens, counts)

        spy = replace(erm, decide_count_block=block)
        with pytest.raises(TypeError, match="needs real-valued outputs, got Classifier"):
            cl.cardinality_witness(spy, 3)
        assert calls == []

    def test_one_enumeration_budget_on_both_paths(self):
        # 2**21 - 1 inputs: every binary sequence to depth 20, or every (n - k, k) row to depth 2046.
        class Reached(Exception):
            pass

        calls = []

        def block(tokens, counts):
            calls.append(len(counts))
            raise Reached

        spy = cl.InferenceMethod("spy", cl.frequency_estimator.decide, decide_count_block=block)
        for depth in (2047, 10**30):
            with pytest.raises(cl.ResourceBudgetError, match="exceeds the budget of 2\\*\\*21 - 1"):
                cl.cardinality_witness(spy, depth)
        assert calls == []
        with pytest.raises(Reached):
            cl.cardinality_witness(spy, 2046)
        assert calls == [2047 * 2048 // 2] and calls[0] <= 2**21 - 1
        flagless = cl.InferenceMethod("flagless", lambda seq: 0 if seq else cl.SUSPEND)
        for depth in (21, 10**30):
            with pytest.raises(cl.ResourceBudgetError, match="exceeds the budget of 2\\*\\*21 - 1"):
                cl.cardinality_witness(flagless, depth)

    @staticmethod
    def _plainly_sorted_report(outputs, depth):
        values = {Fraction(out) for out in outputs if out is not cl.SUSPEND}
        points = sorted(values | {Fraction(0), Fraction(1)})  # Fraction comparisons only
        lo, hi = max(zip(points, points[1:]), key=lambda gap: gap[1] - gap[0])
        mid = (lo + hi) / 2
        return dict(witness=str(mid), witness_float=float(mid), gap=[str(lo), str(hi)], depth=depth,
                    distinct_outputs=len(values))

    def test_the_report_equals_a_plainly_sorted_reference(self):
        ratios = [Fraction(k, n) for n in range(1, 61) for k in range(n + 1)]
        want = self._plainly_sorted_report(ratios, 60)
        assert cl.cardinality_witness_report(cl.frequency_estimator, 60) == want
        # Three outputs equal as floats: only the exact tie-break makes the largest, b, the low end of the widest gap.
        a = Fraction(1, 3)
        b, c = a + Fraction(1, 10**30), a - Fraction(1, 10**30)
        assert float(a) == float(b) == float(c)
        colliding = cl.InferenceMethod("colliding", lambda seq: [c, b, a][sum(seq) % 3] if seq else cl.SUSPEND)
        outputs = [colliding.decide(seq) for n in range(7) for seq in itertools.product((0, 1), repeat=n)]
        report = cl.cardinality_witness_report(colliding, 6)
        assert report == self._plainly_sorted_report(outputs, 6) and report["gap"] == [str(b), "1"]

    def test_the_block_enumerates_every_count_row_in_order(self):
        rows = []

        def block(tokens, counts):
            rows.extend(map(tuple, counts.tolist()))
            return cl.frequency_estimator.decide_count_block(tokens, counts)

        spy = cl.InferenceMethod("spy", cl.frequency_estimator.decide, decide_count_block=block)
        assert cl.cardinality_witness(spy, 6) == cl.cardinality_witness(cl.InferenceMethod("p", spy.decide), 6)
        assert rows == [(n - k, k) for n in range(7) for k in range(n + 1)]

    @given(depth=st.integers(0, 8))
    @settings(max_examples=9, deadline=None)
    def test_witness_is_never_an_output(self, depth):
        witness = cl.cardinality_witness(cl.frequency_estimator, depth)
        import itertools

        for n in range(depth + 1):
            for seq in itertools.product((0, 1), repeat=n):
                assert cl.frequency_estimator(seq) != witness

    def test_rejects_categorical_methods(self):
        with pytest.raises(TypeError):
            cl.cardinality_witness(cl.raven_rule, 3)

    @pytest.mark.parametrize("witness", [cl.cardinality_witness, cl.cardinality_witness_report])
    def test_rejects_a_negative_depth(self, witness):
        with pytest.raises(cl.InputDomainError, match="depth"):
            witness(cl.frequency_estimator, -1)

    def test_report_summarizes_the_gap(self):
        rep = cl.cardinality_witness_report(cl.frequency_estimator, 4)
        assert rep["witness_float"] == 0.125
        assert rep["gap"] == ["0", "1/4"]
        assert rep["distinct_outputs"] == 7


@pytest.mark.parametrize(
    "problem",
    [cl.fine_grained_raven([0.3, 0.5, 0.9, 1.0]), cl.easy_raven(), cl.easy_raven(literal=True)],
    ids=["fine-grained-raven", "easy-raven", "easy-raven-literal"],
)
def test_hierarchy_mode_one_implies_the_stochastic_modes(problem):
    v1 = cl.check_mode(problem, cl.raven_rule, cl.mode_params("I", 60))
    v2 = cl.check_mode(problem, cl.raven_rule, cl.mode_params("II", 60, delta=0.05))
    v3 = cl.check_mode(problem, cl.raven_rule, cl.mode_params("III", 60, delta=0.05, epsilon=0.5))
    twins = {w.id for w in problem.worlds if w.id.endswith("/literal-yes")}  # each refuted in all three modes
    for v in (v1, v2, v3):
        assert v.status == (cl.REFUTED_AT_HORIZON if twins else cl.SUPPORTED_AT_HORIZON)
        assert {wv.world_id for wv in v.worlds if wv.status == "refuted"} == twins
    # A world without a measure is the point mass on its branch, so modes II and III judge it as mode I
    # does, from stage max(N_I, 1): their stages start at 1.
    for v in (v2, v3):
        for w, one, wv in zip(problem.worlds, v1.worlds, v.worlds, strict=True):
            assert (wv.world_id, wv.status) == (w.id, one.status)
            if w.measure is None and one.threshold_stage is not None:
                assert wv.threshold_stage == max(one.threshold_stage, 1)


def test_lock_samples_share_across_stages():
    fg = cl.fine_grained_raven([0.5])
    w = fg.world("p=0.5")
    a = _lock_stage_samples(fg, cl.raven_rule, w, 20, 500, 8, "geometric-mc")
    b = _lock_stage_samples(fg, cl.raven_rule, w, 20, 500, 8, "geometric-mc")
    assert (a == b).all()
