from fractions import Fraction

import numpy as np
import pytest

import convlab as cl
from convlab.core import Classifier


class TestEasyRaven:
    def test_contains_the_all_ones_yes_world_and_not_its_no_twin(self):
        er = cl.easy_raven()
        all_ones = er.world("all-ones")
        assert all_ones.truth == cl.YES
        assert all_ones.branch.prefix(8) == (1,) * 8
        no_twins = [
            w for w in er.worlds if w.truth == cl.NO and w.branch.prefix(40) == (1,) * 40
        ]
        assert no_twins == []

    def test_zero_one_loss(self):
        er = cl.easy_raven()
        assert cl.loss_of(er, cl.NO, er.world("all-ones")) == 1
        assert cl.loss_of(er, cl.NO, er.world("first-zero-at-3")) == 0

    def test_first_zero_worlds_cover_the_declared_range(self):
        er = cl.easy_raven(max_first_zero=7)
        ks = [w.branch.prefix(8).index(0) + 1 for w in er.worlds if w.truth == cl.NO]
        assert ks == list(range(1, 8))

    @pytest.mark.parametrize("k", [2.5, True, "3", 0])
    def test_max_first_zero_is_an_integer_at_least_1(self, k):
        with pytest.raises(cl.InputDomainError, match="max_first_zero must be"):
            cl.easy_raven(max_first_zero=k)
        assert len(cl.easy_raven(max_first_zero=np.int64(2)).worlds) == 3

    def test_literal_reading_admits_incoherent_twins_behind_the_flag(self):
        literal = cl.easy_raven(max_first_zero=3, literal=True)
        twin = literal.world("first-zero-at-2/literal-yes")
        assert twin.truth == cl.YES and twin.branch.prefix(4) == (1, 0, 1, 1)
        # the literal family loses the branch-to-truth bijection
        assert literal.truth_of_prefix is None
        assert cl.underdetermination_witness(literal) is not None
        assert cl.underdetermination_witness(cl.easy_raven()) is None

    def test_validates(self):
        assert cl.validate_problem(cl.easy_raven()).all_ok


class TestFineGrainedRaven:
    def test_p_one_is_easy_ravens_deterministic_all_ones_world(self):
        fg = cl.fine_grained_raven([0.5, 1.0])
        w1 = fg.world("p=1")
        er_all_ones = cl.easy_raven().world("all-ones")
        assert w1.truth == er_all_ones.truth == cl.YES
        assert w1.measure is None and er_all_ones.measure is None
        assert w1.branch.id == er_all_ones.branch.id == "all-ones"
        assert w1.branch.prefix(60) == er_all_ones.branch.prefix(60)

    def test_bernoulli_prefix_probability(self):
        fg = cl.fine_grained_raven([0.5])
        assert fg.world("p=0.5").measure.prefix_prob((1, 1)) == Fraction(1, 4)

    def test_losses_match_the_coarse_problem(self):
        er, fg = cl.easy_raven(), cl.fine_grained_raven([0.3, 1.0])
        for h in (cl.YES, cl.NO):
            assert fg.loss.eval(h, fg.world("p=1")) == er.loss.eval(h, er.world("all-ones"))
            assert fg.loss.eval(h, fg.world("p=0.3")) == er.loss.eval(
                h, er.world("first-zero-at-1")
            )

    def test_sampled_worlds_are_coherent_and_frozen(self):
        fg1 = cl.fine_grained_raven([0.7], seed=5)
        fg2 = cl.fine_grained_raven([0.7], seed=5)
        w1, w2 = fg1.world("p=0.7"), fg2.world("p=0.7")
        assert w1.branch.prefix(50) == w2.branch.prefix(50)
        assert w1.truth == cl.NO
        assert 0 in w1.branch.prefix(200)  # the 0 that makes the truth No
        # The frozen branch is the measure's own seeded sample, as in the coin problems.
        measure = cl.Measure.iid_bernoulli(Fraction(7, 10))
        direct = measure.sample_branch(5, "branch", "p=0.7", branch_id="sampled/p=0.7")
        assert (w1.branch.id, w1.branch.prefix(300)) == (direct.id, direct.prefix(300))

    def test_p_outside_unit_interval_rejected(self):
        with pytest.raises(cl.InputDomainError):
            cl.fine_grained_raven([1.2])
        with pytest.raises(cl.InputDomainError, match=r"bias must lie in \[0, 1\], got 2"):
            cl.fine_grained_raven([0.5, 2])

    def test_empty_p_grid_rejected(self):
        with pytest.raises(cl.ConfigurationError, match="p grid must be nonempty"):
            cl.fine_grained_raven([])

    def test_validates(self):
        assert cl.validate_problem(cl.fine_grained_raven([0.3, 0.5, 0.9, 1.0])).all_ok


class TestCoinProblems:
    def test_fair_coin_admits_the_logically_possible_special_worlds(self):
        fc = cl.fair_coin()
        alt = fc.world("theta=0.5/alternating")
        assert alt.truth == cl.FAIR and alt.branch.prefix(4) == (1, 0, 1, 0)
        ones = fc.world("theta=0.5/all-ones")
        assert ones.truth == cl.FAIR and ones.branch.prefix(4) == (1, 1, 1, 1)
        assert cl.loss_of(fc, cl.UNFAIR, alt) == 1

    def test_fair_coin_grid_preconditions(self):
        with pytest.raises(cl.ConfigurationError):
            cl.fair_coin([0.3, 0.7])  # no fair bias in the grid
        with pytest.raises(cl.ConfigurationError):
            cl.fair_coin([0.5])  # nothing but the fair bias
        with pytest.raises(cl.InputDomainError):
            cl.fair_coin([0.5, 1.5])

    def test_coin_bias_outside_unit_interval_rejected(self):
        with pytest.raises(cl.InputDomainError, match=r"bias must lie in \[0, 1\], got 3/2"):
            cl.coin_bias([1.5])

    def test_coin_bias_spec_values(self):
        cb = cl.coin_bias()
        w = cb.world("theta=0.5")
        assert cl.loss_of(cb, Fraction(1, 2), w) == 0
        assert cl.loss_of(cb, Fraction(7, 10), w) == Fraction(1, 5)
        assert cb.world("theta=0.3").truth == Fraction(3, 10)

    def test_fair_coin_and_coin_bias_share_world_families(self):
        grid = [0.2, 0.5, 0.8]
        fc, cb = cl.fair_coin(grid, seed=3), cl.coin_bias(grid, seed=3)
        assert [w.id for w in fc.worlds] == [w.id for w in cb.worlds]
        for wf, wb in zip(fc.worlds, cb.worlds):
            assert wf.branch.prefix(32) == wb.branch.prefix(32)
            assert wf.measure == wb.measure
            assert wb.truth == wb.measure.theta

    def test_default_grid_includes_the_near_fair_points(self):
        assert Fraction(9, 20) in cl.DEFAULT_THETA_GRID
        assert Fraction(11, 20) in cl.DEFAULT_THETA_GRID
        assert Fraction(1, 2) in cl.DEFAULT_THETA_GRID

    def test_validate(self):
        assert cl.validate_problem(cl.fair_coin()).all_ok
        assert cl.validate_problem(cl.coin_bias()).all_ok


class TestClassification:
    def test_risk_spec_values(self, toy_classifiers):
        all0, all1, ident = toy_classifiers
        uniform = {("a", 1): Fraction(1, 2), ("b", 0): Fraction(1, 2)}
        assert cl.risk(ident, uniform) == 0
        assert cl.risk(all0, uniform) == Fraction(1, 2)
        concentrated = {("a", 0): Fraction(1)}
        assert cl.risk(all0, concentrated) == 0

    def test_risk_is_additive_over_a_partition_of_the_error_event(self, toy_classifiers):
        all0, _, _ = toy_classifiers
        d = {("a", 1): Fraction(1, 4), ("b", 1): Fraction(1, 4), ("b", 0): Fraction(1, 2)}
        parts = [{("a", 1): d[("a", 1)]}, {("b", 1): d[("b", 1)]}]
        assert cl.risk(all0, d) == sum(cl.risk(all0, part) for part in parts)

    def test_risk_stays_in_the_unit_interval(self, toy_task, toy_classifiers):
        for table in toy_task["distributions"]:
            for h in toy_classifiers:
                assert 0 <= cl.risk(h, table) <= 1

    def test_worlds_and_excess_risk(self, toy_task, toy_classifiers):
        prob = cl.binary_classification(**toy_task)
        assert [w.id for w in prob.worlds] == ["D0", "D1", "D2"]
        w0 = prob.world("D0")
        all0, all1, ident = toy_classifiers
        assert w0.truth is ident
        assert prob.loss.eval(all0, w0) == Fraction(1, 2)
        assert prob.loss.eval(ident, w0) == 0
        # excess risk has minimum exactly 0 in every world, over the whole pool
        for w in prob.worlds:
            losses = [prob.loss.eval(h, w) for h in toy_classifiers]
            assert min(losses) == 0
            assert all(x >= 0 for x in losses)
        assert cl.validate_problem(prob).all_ok

    def test_risk_ties_designate_the_lowest_index_truth(self, toy_classifiers):
        all0, all1, ident = toy_classifiers
        # uniform over the whole example space: every classifier has risk 1/2
        prob = cl.binary_classification(
            features=["a", "b"],
            classifiers=toy_classifiers,
            distributions=[
                {("a", 0): "0.25", ("a", 1): "0.25", ("b", 0): "0.25", ("b", 1): "0.25"}
            ],
        )
        assert prob.world("D0").truth is all0
        # the uniqueness spot check reports the tie instead of hiding it
        report = cl.validate_problem(prob)
        assert not report.all_ok
        assert report.checks[0].rival_zero_loss is not None

    def test_bad_distributions_rejected(self, toy_classifiers):
        # Measure.iid_examples is the one reader of the probabilities.
        with pytest.raises(cl.InputDomainError, match="sum to 1"):
            cl.binary_classification(["a", "b"], toy_classifiers, [{("a", 1): "0.7", ("b", 0): "0.7"}])
        with pytest.raises(cl.ConfigurationError, match="outside the example space"):
            cl.binary_classification(["a", "b"], toy_classifiers, [{("c", 1): "1"}])
        with pytest.raises(cl.InputDomainError, match="nonnegative"):
            cl.binary_classification(["a", "b"], toy_classifiers, [{("a", 1): "1.5", ("b", 0): "-0.5"}])

    @pytest.mark.parametrize("label", [True, 1.0, "1", 2], ids=["bool", "float", "string", "two"])
    def test_an_example_label_other_than_the_integers_0_and_1_is_outside_the_example_space(
        self, toy_classifiers, label
    ):
        with pytest.raises(cl.ConfigurationError, match="outside the example space"):
            cl.binary_classification(["a", "b"], toy_classifiers, [{("a", label): "0.5", ("b", 0): "0.5"}])

    def test_a_numpy_integer_label_is_a_label(self, toy_classifiers):
        prob = cl.binary_classification(["a", "b"], toy_classifiers, [{("a", np.int64(1)): "0.5", ("b", 0): "0.5"}])
        assert prob.world("D0").truth is toy_classifiers[2]

    def test_empty_features_rejected(self, toy_classifiers):
        with pytest.raises(cl.ConfigurationError, match="nonempty features"):
            cl.binary_classification([], toy_classifiers, [])

    def test_partial_classifier_rejected(self):
        partial = Classifier.from_mapping("partial", {"a": 1})
        with pytest.raises(cl.ConfigurationError):
            cl.binary_classification(["a", "b"], [partial], [{("a", 1): "1"}])

    def test_repeated_features_and_classifier_names_rejected(self, toy_classifiers):
        law = [{("a", 1): "0.5", ("b", 0): "0.5"}]
        with pytest.raises(cl.ConfigurationError, match="distinct"):
            cl.binary_classification(["a", "b", "a"], toy_classifiers, law)
        twin = Classifier.from_mapping("all-0", {"a": 1, "b": 0})
        with pytest.raises(cl.ConfigurationError, match="distinct"):
            cl.binary_classification(["a", "b"], [*toy_classifiers, twin], law)

    @pytest.mark.parametrize("label", [True, 1.0, 2], ids=["bool", "float", "two"])
    def test_classifier_labels_are_the_integers_0_and_1(self, label):
        with pytest.raises(cl.InputDomainError, match="integers 0/1"):
            Classifier.from_mapping("h", {"a": label, "b": 1})
        assert Classifier.from_mapping("h", {"a": np.int64(0), "b": 1})("a") == 0


def test_every_catalog_problem_passes_validation(toy_task):
    problems = [
        cl.easy_raven(),
        cl.fine_grained_raven([0.3, 0.5, 0.9, 1.0]),
        cl.fair_coin(),
        cl.coin_bias(),
        cl.binary_classification(**toy_task),
    ]
    for p in problems:
        assert cl.validate_problem(p).all_ok, p.name
