import math
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
    _mc_block,
    _multinomial_exact,
    _plan,
)


def rationals(max_den=40):
    return st.fractions(
        min_value=Fraction(1, max_den), max_value=Fraction(max_den - 1, max_den),
        max_denominator=max_den,
    )


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
        world = next(w for w in problem.worlds if w.extras.get("theta", w.extras.get("p")) == theta)
        plodding = replace(method, decide_counts=None)
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
        plodding = replace(method, decide_counts=None)
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

    def test_budget_exhaustion_points_to_monte_carlo(self, toy_task, toy_erm_config):
        prob = cl.binary_classification(toy_task)
        with pytest.raises(cl.ResourceBudgetError, match="mc_success_prob"):
            cl.exact_success_prob(
                prob, cl.erm_method(toy_erm_config), prob.world("D1"), 40, cl.within(0.05)
            )

    def test_requires_a_measure(self):
        er = cl.easy_raven()
        with pytest.raises(cl.PreconditionError):
            cl.exact_success_prob(er, cl.raven_rule, er.world("all-ones"), 3, cl.EXACT)


class TestSuccessMemo:
    """Each distinct output object's loss is evaluated once per success-probability call."""

    @pytest.fixture
    def loss_calls(self, monkeypatch):
        calls = []
        loss_of = convergence.loss_of

        def counted(problem, out, world):
            calls.append(out)
            return loss_of(problem, out, world)

        monkeypatch.setattr(convergence, "loss_of", counted)
        return calls

    @pytest.mark.parametrize("path", ["multinomial-exact", "enum-exact", "mc-block"])
    def test_erm_paths_evaluate_each_pool_classifier_at_most_once(
        self, loss_calls, path, toy_task, toy_erm_config
    ):
        prob = cl.binary_classification(toy_task)
        erm = cl.erm_method(toy_erm_config)
        if path == "enum-exact":
            erm = replace(erm, decide_count_block=None)
        w = prob.world("D2")
        if path == "mc-block":
            assert _plan(erm, w, 6, Budget(strategy="mc")) == path
            _mc_block(prob, erm, w, 6, cl.within(0.05), 2000, seeding.generator(0, w.id, 6))
        else:
            assert _plan(erm, w, 6, Budget()) == path
            cl.exact_success_prob(prob, erm, w, 6, cl.within(0.05))
        assert 0 < len(loss_calls) <= len(toy_erm_config.hypothesis_order)

    def test_fair_coin_binomial_scan_evaluates_each_verdict_at_most_once(self, loss_calls):
        fc = cl.fair_coin()
        undeclared = replace(cl.fair_coin_test, laws=None)
        assert cl.exact_success_prob(fc, undeclared, fc.world("theta=0.5"), 200, cl.EXACT) > 0
        assert 0 < len(loss_calls) <= 3

    def test_a_declared_window_evaluates_no_loss(self, loss_calls):
        # Neither the binomial sum nor the Monte Carlo block path decides a count.
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
            assert _plan(method, world, 200, Budget(strategy="mc")) == "mc-block"
            assert cl.exact_success_prob(problem, method, world, 200, crit) > 0
            assert cl.mc_success_prob(problem, method, world, 200, crit, 2000, seed=3).value > 0
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
                    declared = _mc_block(problem, method, world, n, crit, 300, seeding.generator(*key))
                    scanned = _mc_block(problem, undeclared, world, n, crit, 300, seeding.generator(*key))
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
        declared = _mc_block(fg, method, w, 10, cl.EXACT, 2000, seeding.generator(4))
        scanned = _mc_block(fg, replace(method, laws=None), w, 10, cl.EXACT, 2000, seeding.generator(4))
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
        plodding = replace(cl.frequency_estimator, decide_counts=None)
        exact = float(cl.exact_success_prob(cb, cl.frequency_estimator, w, 6, cl.within(0.2)))
        est = cl.mc_success_prob(cb, plodding, w, 6, cl.within(0.2), 20_000, seed=3)
        assert abs(est.value - exact) <= 4 * est.stderr + 1e-9

    @pytest.mark.parametrize("crit", [cl.EXACT, cl.within(0.05)], ids=["exact", "within"])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17])
    @pytest.mark.parametrize("which", ["erm", "majority"])
    def test_mc_block_flags_decide_on_the_drawn_counts_and_estimate_the_multinomial_sum(
        self, which, n, crit, toy_task, toy_classifiers, toy_erm_config
    ):
        # On every toy world, each trial's flag is decide's on a sequence with
        # that trial's counts, and the estimate lies within 5 standard errors
        # (of the exact law) of the multinomial sum.
        prob = cl.binary_classification(_with_a_zero_entry(toy_task))
        if which == "erm":
            method = cl.erm_method(toy_erm_config)
        else:
            method = TestMultinomialExact._majority(toy_classifiers)
        trials = 4000
        for w in prob.worlds:
            tokens = [tok for tok, _ in w.measure.token_probs]
            counts = w.measure.sample_count_block(seeding.generator(2, w.id, n), trials, n).tolist()
            flags = _mc_block(prob, method, w, n, crit, trials, seeding.generator(2, w.id, n))
            met = convergence._success_test(prob, w, crit)
            decided = {}
            for row, flag in zip(map(tuple, counts), flags.tolist()):
                if row not in decided:
                    decided[row] = met(method.decide([tok for tok, c in zip(tokens, row) for _ in range(c)]))
                assert flag == decided[row], (w.id, row)
            exact = float(_multinomial_exact(prob, method, w, n, crit))
            assert abs(flags.mean() - exact) <= 5 * math.sqrt(exact * (1 - exact) / trials), (w.id, exact)


def _with_a_zero_entry(task):
    """The task plus a law whose table lists a (feature, label) pair at probability 0."""
    law = ((("a", 1), Fraction(1, 2)), (("a", 0), Fraction(0)), (("b", 0), Fraction(1, 2)))
    return replace(task, distribution_grid=task.distribution_grid + (law,))


class TestMultinomialExact:
    MULTINOMIAL_CRITS = [cl.EXACT, cl.within(0.05), cl.within(0.3)]

    def test_equals_enumeration_on_every_toy_world(self, toy_task, toy_erm_config):
        # D0's table leaves two of the four pairs out and D3 lists one at
        # probability 0: supports smaller than the alphabet.
        prob = cl.binary_classification(_with_a_zero_entry(toy_task))
        erm = cl.erm_method(toy_erm_config)
        plodding = replace(erm, decide_count_block=None)
        for w in prob.worlds:
            for crit in self.MULTINOMIAL_CRITS:
                for n in range(9):
                    assert _plan(erm, w, n, Budget()) == "multinomial-exact"
                    assert _plan(plodding, w, n, Budget()) == "enum-exact"
                    fast = cl.exact_success_prob(prob, erm, w, n, crit)
                    assert isinstance(fast, Fraction)
                    assert fast == cl.exact_success_prob(prob, plodding, w, n, crit), (w.id, crit, n)

    def test_the_block_sees_only_positive_probability_tokens(self, toy_task, toy_erm_config):
        prob = cl.binary_classification(_with_a_zero_entry(toy_task))
        erm = cl.erm_method(toy_erm_config)
        seen = []

        def block(tokens, counts):
            seen.append((list(tokens), counts.shape))
            return erm.decide_count_block(tokens, counts)

        spy = replace(erm, decide_count_block=block)
        assert cl.exact_success_prob(prob, spy, prob.world("D3"), 3, cl.EXACT) == Fraction(3, 4)
        _mc_block(prob, spy, prob.world("D3"), 3, cl.EXACT, 50, seeding.generator(0))
        assert seen == [([("a", 1), ("b", 0)], (4, 2)), ([("a", 1), ("b", 0)], (50, 2))]

    def test_compositions_are_every_count_vector_once(self):
        for n, t in [(0, 1), (0, 3), (5, 1), (6, 4), (3, 2)]:
            rows = convergence._compositions(n, t).tolist()
            assert len(rows) == math.comb(n + t - 1, t - 1) == len(set(map(tuple, rows)))
            assert all(len(r) == t and sum(r) == n and min(r) >= 0 for r in rows)

    def test_curve_equals_the_enumerated_curve(self, toy_task, toy_erm_config):
        prob = cl.binary_classification(toy_task)
        erm = cl.erm_method(toy_erm_config)
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
        prob = cl.binary_classification(toy_task)
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
        prob = cl.binary_classification(toy_task)
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
                _mc_block(prob, method, w, n, cl.within(0.05), trials, seeding.generator(key, w.id, n)).mean()
                for key, method in ((2, honest), (3, liar))
            ]
            assert abs(est[0] - exact) <= 5 * se, n
            apart.append(abs(est[1] - est[0]) > 5 * math.sqrt(2) * se)
        assert apart == [n % 2 == 0 for n in range(7)]


class TestSuccessCurve:
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

    def test_exact_strategy_refuses_to_fall_back(self, toy_task, toy_erm_config):
        prob = cl.binary_classification(toy_task)
        with pytest.raises(cl.ResourceBudgetError):
            cl.success_curve(
                prob,
                cl.erm_method(toy_erm_config),
                [prob.world("D0")],
                cl.within(0.05),
                40,
                budget=Budget(strategy="exact"),
                stages=(40,),
            )


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


# Evaluation path per case at n = 3..7 under strategy "auto", with
# symmetric_exact_cap = 4 and exact_enum_cap = 2**6: the binomial cap sits at
# n = 4, the enumeration cap at n = 6 for binary data and n = 3 for the four
# example pairs of world D1.  The last entry is the case's sampling path.
PLAN_TABLE = {
    "bernoulli/block": ("binomial-exact",) * 2 + ("multinomial-exact",) * 2 + ("mc-block",),
    "bernoulli/counts": ("binomial-exact",) * 2 + ("multinomial-exact",) * 2 + ("mc-block",),
    "bernoulli/flagless": ("enum-exact",) * 4 + ("mc-generic",),
    "examples/block": ("multinomial-exact",) + ("mc-block",) * 4,
    "examples/flagless": ("enum-exact",) + ("mc-generic",) * 4,
    "point-mass/counts": ("point-mass",) * 5,
}
EXACT_PATHS = ("point-mass", "binomial-exact", "enum-exact", "multinomial-exact")


def _frequency_block(tokens, counts):
    """The frequency estimator as a count block on the coin's tokens; every row sums to the same n."""
    n = int(counts[0].sum())
    return [cl.frequency_estimator.decide_counts(n, k) for k in range(n + 1)], counts[:, list(tokens).index(1)]


def _plan_case(case, toy_task, toy_erm_config):
    if case.startswith("bernoulli"):
        cb = cl.coin_bias([0.3])
        method = cl.frequency_estimator
        if case.endswith("flagless"):
            method = replace(method, decide_counts=None)
        if case.endswith("block"):
            method = replace(method, decide_counts=None, decide_count_block=_frequency_block)
        return cb, method, cb.world("theta=0.3"), cl.within(0.25)
    if case.startswith("examples"):
        prob = cl.binary_classification(toy_task)
        method = cl.erm_method(toy_erm_config)
        if case.endswith("flagless"):
            method = replace(method, decide_count_block=None)
        return prob, method, prob.world("D1"), cl.within(0.05)
    fg = cl.fine_grained_raven([0.5, 1])
    return fg, cl.raven_rule, fg.world("p=1"), cl.EXACT


class TestPlan:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("strategy", ["auto", "exact", "mc"])
    @pytest.mark.parametrize("case", sorted(PLAN_TABLE))
    def test_path_table(self, case, strategy, n, toy_task, toy_erm_config):
        problem, method, world, crit = _plan_case(case, toy_task, toy_erm_config)
        budget = Budget(strategy=strategy, symmetric_exact_cap=4, exact_enum_cap=2**6, trials=50)
        paths = PLAN_TABLE[case]
        want = paths[-1] if strategy == "mc" else paths[n - 3]

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

        outputs, index = convergence._count_block(replace(method, decide_counts=decide_counts))(tokens, rows)
        assert len(index) == len(rows)
        for row, i in zip(rows.tolist(), index.tolist()):
            seq = [tok for tok, c in zip(tokens, row) for _ in range(c)]
            assert outputs[i] == method.decide(seq), (tokens, row)
        assert sorted(decided) == sorted(set(decided)) and len(decided) == len(outputs)
        assert all(type(n) is int and type(k) is int for n, k in decided)

    def test_derived_block_rejects_a_non_binary_token_only_where_it_is_counted(self):
        block = convergence._count_block(cl.frequency_estimator)
        outputs, index = block((0, "x", 1), np.array([[3, 0, 1], [0, 0, 2], [0, 0, 0]]))
        assert [outputs[i] for i in index.tolist()] == [Fraction(1, 4), Fraction(1), cl.SUSPEND]
        for tokens, rows in [((0, "x", 1), [[3, 0, 1], [0, 1, 2]]), ((2,), [[1]]), ((1, 0.5), [[1, 1]])]:
            with pytest.raises(cl.InputDomainError, match="non-binary token"):
                block(tokens, np.array(rows))
        with pytest.raises(cl.InputDomainError, match="non-binary token"):
            cl.frequency_estimator.decide([0, "x", 1])

    def test_the_derived_block_is_not_stored_on_the_method(self):
        # A stored block would survive replace and put slow references on the fast path.
        assert cl.raven_rule.decide_count_block is None
        assert convergence._count_block(cl.raven_rule) is not None
        assert convergence._count_block(replace(cl.raven_rule, decide_counts=None)) is None

    def test_erm_scans_make_one_block_call_per_world_and_no_decide_call(self, toy_task, toy_erm_config):
        prob = cl.binary_classification(toy_task)
        erm = cl.erm_method(toy_erm_config)
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
            plodding = replace(method, decide_counts=None, locks_at_first_zero=False, laws=None)
            params = cl.mode_params("I", 40)
            assert cl.check_mode(problem, method, params) == cl.check_mode(problem, plodding, params)
            for w in problem.worlds:
                assert cl.lock_time(problem, method, w, 40) == cl.lock_time(problem, plodding, w, 40)
        fg = cl.fine_grained_raven([Fraction(3, 10)])
        w = fg.world("p=0.3")
        first_zero_free = replace(cl.raven_rule, locks_at_first_zero=False)
        locks = _lock_stage_samples(fg, first_zero_free, w, 30, 200, 9)
        slow = _lock_stage_samples(fg, replace(first_zero_free, decide_counts=None), w, 30, 200, 9)
        assert locks.tolist() == slow.tolist()

    def test_a_block_only_method_on_a_coin_takes_the_binomial_sum(self):
        cb = cl.coin_bias([Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(1)])
        method = replace(cl.frequency_estimator, decide_counts=None, laws=None, decide_count_block=_frequency_block)
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
        assert "stage 64" in refuted.note

    def test_stochastic_identification_on_fine_grained_raven(self):
        fg = cl.fine_grained_raven([0.3, 0.5, 0.9, 1.0])
        v = cl.check_mode(fg, cl.raven_rule, cl.mode_params("II", 60, delta=0.05))
        assert v.status == cl.SUPPORTED_AT_HORIZON
        stages = {wv.world_id: wv.threshold_stage for wv in v.worlds}
        # 1 - p**n > 0.95 exactly from these stages on
        assert stages == {"p=0.3": 3, "p=0.5": 5, "p=0.9": 29, "p=1": 1}
        assert v.curve is not None

    def test_marginal_monte_carlo_yields_inconclusive_not_refuted(self):
        # true success probability at the horizon equals the threshold exactly
        fg = cl.fine_grained_raven([0.5])
        params = cl.mode_params("II", 3, delta=0.125)
        exact = cl.check_mode(fg, cl.raven_rule, params)
        assert exact.status == cl.REFUTED_AT_HORIZON  # 0.875 is not > 0.875
        mc = cl.check_mode(
            fg, cl.raven_rule, params, budget=Budget(strategy="mc", trials=2000), seed=1
        )
        assert mc.status == cl.INCONCLUSIVE
        assert mc.worlds[0].status == "inconclusive"

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

    def test_stochastic_modes_need_measures_everywhere(self):
        er = cl.easy_raven()
        with pytest.raises(cl.PreconditionError):
            cl.check_mode(er, cl.raven_rule, cl.mode_params("II", 10, delta=0.1))

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

    @pytest.mark.parametrize("mode", ["II", "III"])
    def test_mode_params_rejects_an_epsilon_past_the_largest_float(self, mode):
        for eps in ("1e999", 10**309, Fraction(2**1024)):
            with pytest.raises(cl.InputDomainError, match="largest float"):
                cl.mode_params(mode, 10, delta=0.1, epsilon=eps)
        params = cl.mode_params(mode, 10, delta=0.1, epsilon="1e308")
        assert cl.within(params.epsilon).label == "within:1e+308"

    @pytest.mark.parametrize(
        "horizon,stages", [(10.9, None), (True, None), ("10", None), (10.0, None), (10, [1.9, 3]), (10, [True, 3])]
    )
    def test_mode_params_rejects_non_integer_horizons_and_stages(self, horizon, stages):
        with pytest.raises(cl.InputDomainError, match="must be integers"):
            cl.mode_params("II", horizon, delta=0.1, stages=stages)
        with pytest.raises(cl.InputDomainError, match="must be integers"):
            cl.ModeParams("II", horizon, Fraction(1, 10), stages=None if stages is None else tuple(stages))

    @pytest.mark.parametrize(
        "world_ids", ["theta=0.5", ["theta=0.5", 1], 5], ids=["string", "non-string-entry", "number"]
    )
    def test_mode_params_rejects_world_ids_that_are_not_id_strings(self, world_ids):
        with pytest.raises(cl.InputDomainError, match="world_ids"):
            cl.mode_params("II", 10, delta=0.1, world_ids=world_ids)

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
        plodding = replace(method, decide_counts=None, locks_at_first_zero=False)

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

    def test_requires_branch_unique_problem_and_measure(self):
        fc = cl.fair_coin()
        with pytest.raises(cl.PreconditionError):
            cl.success_set_prob(fc, cl.fair_coin_test, fc.world("theta=0.5"), 3)
        er = cl.easy_raven()
        with pytest.raises(cl.PreconditionError):
            cl.success_set_prob(er, cl.raven_rule, er.world("all-ones"), 3)


class TestUnderdeterminationWitness:
    def test_fair_coin_pair(self):
        fc = cl.fair_coin()
        w1, w2 = cl.underdetermination_witness(fc)
        assert (w1.truth, w2.truth) == (cl.FAIR, cl.UNFAIR)
        assert w1.extras["theta"] == Fraction(1, 2)
        assert w1.branch.prefix(64) == w2.branch.prefix(64)

    def test_coin_bias_pair_shares_the_branch_with_distinct_truths(self):
        cb = cl.coin_bias()
        w1, w2 = cl.underdetermination_witness(cb)
        assert w1.truth == Fraction(1, 2)
        assert w2.truth != w1.truth
        assert w1.branch.prefix(64) == w2.branch.prefix(64)

    def test_easy_raven_has_no_witness(self):
        assert cl.underdetermination_witness(cl.easy_raven()) is None

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


def test_hierarchy_mode_one_implies_the_stochastic_modes():
    fg = cl.fine_grained_raven([0.3, 0.5, 0.9, 1.0])
    v1 = cl.check_mode(fg, cl.raven_rule, cl.mode_params("I", 60))
    v2 = cl.check_mode(fg, cl.raven_rule, cl.mode_params("II", 60, delta=0.05))
    v3 = cl.check_mode(fg, cl.raven_rule, cl.mode_params("III", 60, delta=0.05, epsilon=0.5))
    assert v1.status == cl.SUPPORTED_AT_HORIZON
    assert v2.status == cl.SUPPORTED_AT_HORIZON
    assert v3.status == cl.SUPPORTED_AT_HORIZON


def test_lock_samples_share_across_stages():
    fg = cl.fine_grained_raven([0.5])
    w = fg.world("p=0.5")
    a = _lock_stage_samples(fg, cl.raven_rule, w, 20, 500, seed=8)
    b = _lock_stage_samples(fg, cl.raven_rule, w, 20, 500, seed=8)
    assert (a == b).all()
