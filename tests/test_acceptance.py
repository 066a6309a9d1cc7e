"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single pass line (visible under ``pytest -s`` or in the
captured output) and asserts its runtime limit.  Expected values are either
analytic, or frozen from independent brute-force oracles computed inside the
test body.
"""

import itertools
import math
import time
from dataclasses import replace
from fractions import Fraction

import convlab as cl
from convlab import cli, convergence
from convlab.convergence import Budget


def _report(num, elapsed, limit, detail):
    assert elapsed < limit, f"criterion {num} exceeded its runtime limit: {elapsed:.1f}s"
    print(f"ACCEPTANCE C{num:02d} PASS ({elapsed:.2f}s < {limit}s) {detail}")


def _brute_force_success(theta, n, crit, method):
    """Independent oracle: enumerate all 2**n sequences with exact weights."""
    total = Fraction(0)
    for seq in itertools.product((0, 1), repeat=n):
        k = sum(seq)
        weight = theta**k * (1 - theta) ** (n - k)
        out = method.decide(seq)
        if out is cl.SUSPEND:
            continue
        loss = abs(out - theta) if isinstance(out, Fraction) else None
        if loss is not None and crit.met(loss):
            total += weight
    return total


def test_c01_bernoulli_bound_dominance():
    t0 = time.perf_counter()
    thetas = [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)]
    eps_grid = [Fraction(1, 20), Fraction(1, 10), Fraction(1, 5), Fraction(3, 10)]
    cb = cl.coin_bias(thetas)
    checked = 0
    for th in thetas:
        world = cb.world(f"theta={float(th)}")
        for n in range(1, 21):
            for eps in eps_grid:
                crit = cl.within(eps)
                exact = cl.exact_success_prob(cb, cl.frequency_estimator, world, n, crit)
                bound = cl.bernoulli_bound(n, eps)
                assert isinstance(exact, Fraction) and isinstance(bound, Fraction)
                assert exact >= bound, (th, n, eps)
                checked += 1
    # oracle spot checks: the engine's exact path equals brute-force enumeration
    for th in (Fraction(3, 10), Fraction(1, 2)):
        world = cb.world(f"theta={float(th)}")
        for n in (3, 8):
            crit = cl.within(Fraction(1, 5))
            assert cl.exact_success_prob(
                cb, cl.frequency_estimator, world, n, crit
            ) == _brute_force_success(th, n, crit, cl.frequency_estimator)
    _report(1, time.perf_counter() - t0, 5, f"{checked} exact dominance comparisons")


def test_c02_fair_coin_on_truth_curve():
    t0 = time.perf_counter()
    fc = cl.fair_coin()
    w = fc.world("theta=0.5")
    for n in range(1, 21):
        p = cl.exact_success_prob(fc, cl.fair_coin_test, w, n, cl.EXACT)
        # p >= 1 - 1/(4 sqrt n), exactly: 16 n (1-p)^2 <= 1
        shortfall = 1 - p
        assert 16 * n * shortfall * shortfall <= 1, n
    spot4 = cl.exact_success_prob(fc, cl.fair_coin_test, w, 4, cl.EXACT)
    spot16 = cl.exact_success_prob(fc, cl.fair_coin_test, w, 16, cl.EXACT)
    assert spot4 == 1
    assert spot16 == 1 - Fraction(1, 2**15)
    # independent enumeration oracle for the two spot values
    for n, expected in ((4, spot4), (16, spot16)):
        hits = sum(
            1
            for seq in itertools.product((0, 1), repeat=n)
            if cl.fair_coin_test.decide(seq) == cl.FAIR
        )
        assert Fraction(hits, 2**n) == expected
    _report(2, time.perf_counter() - t0, 5, "exact curve clears 1 - 1/(4*sqrt(n)) for n <= 20")


def test_c03_fair_coin_off_truth_consistency():
    t0 = time.perf_counter()
    fc = cl.fair_coin([0.5, 0.9])
    w = fc.world("theta=0.9")
    # at n = 1296 the acceptance radius is exactly 1/6, below half the gap 0.2
    assert cl.fair_coin_threshold(1296) == 1 / 6
    est = cl.mc_success_prob(fc, cl.fair_coin_test, w, 1296, cl.EXACT, 100_000, seed=20260809)
    floor = 1 - 1 / (4 * math.sqrt(1296)) - 4 * est.stderr
    assert est.value >= floor, (est, floor)
    _report(3, time.perf_counter() - t0, 60, f"MC estimate {est.value:.5f} >= {floor:.5f}")


def test_c04_mode_one_verdict_for_easy_raven():
    t0 = time.perf_counter()
    er = cl.easy_raven(max_first_zero=20)
    verdict = cl.check_mode(er, cl.raven_rule, cl.mode_params("I", 100))
    assert verdict.status == cl.SUPPORTED_AT_HORIZON
    stages = {wv.world_id: wv.threshold_stage for wv in verdict.worlds}
    assert stages["all-ones"] == 0
    for k in range(1, 21):
        assert stages[f"first-zero-at-{k}"] == k
    _report(4, time.perf_counter() - t0, 1, "supported with N(k)=k and N(all-ones)=0")


def test_c05_mode_one_refutation_for_fair_coin():
    t0 = time.perf_counter()
    fc = cl.fair_coin()
    assert "theta=0.5/all-ones" in [w.id for w in fc.worlds]
    verdict = cl.check_mode(fc, cl.fair_coin_test, cl.mode_params("I", 64))
    assert verdict.status == cl.REFUTED_AT_HORIZON
    assert verdict.witness_world is not None
    all_ones = next(wv for wv in verdict.worlds if wv.world_id == "theta=0.5/all-ones")
    assert all_ones.status == "refuted"

    pair = cl.underdetermination_witness(fc, horizon=64)
    assert pair is not None
    w1, w2 = pair
    assert w1.truth != w2.truth
    assert w1.branch.prefix(64) == w2.branch.prefix(64)
    _report(5, time.perf_counter() - t0, 1, f"refuted; witness pair {w1.id} / {w2.id}")


def test_c06_cardinality_witness_soundness():
    t0 = time.perf_counter()
    assert cl.cardinality_witness(cl.frequency_estimator, 4) == Fraction(1, 8)
    witness = cl.cardinality_witness(cl.frequency_estimator, 15)
    inputs = 0
    for n in range(16):
        for seq in itertools.product((0, 1), repeat=n):
            inputs += 1
            assert cl.frequency_estimator.decide(seq) != witness
    assert inputs == 2**16 - 1
    _report(6, time.perf_counter() - t0, 30, f"witness {witness} avoids all {inputs} inputs")


def test_c07_success_set_law():
    t0 = time.perf_counter()
    ps = [Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)]
    fg = cl.fine_grained_raven(ps)
    scanned = replace(cl.raven_rule, laws=replace(cl.raven_rule.laws, locks_at_first_zero=False))
    for p in ps:
        w = fg.world(f"p={float(p)}")
        for n in range(0, 31):
            got = cl.success_set_prob(fg, cl.raven_rule, w, n)
            assert got.exact
            # independent oracle: geometric sum of first-zero probabilities
            series = sum((p ** (k - 1)) * (1 - p) for k in range(1, n + 1))
            assert got.value == series == 1 - p**n
        for n in range(1, 31):
            est = cl.success_set_prob(
                fg, cl.raven_rule, w, n, horizon=30, trials=100_000, seed=31, strategy="mc"
            )
            # 4 standard errors around the known exact value; the true
            # sampling deviation, not the plug-in stderr, which degenerates
            # to 0 when every trial succeeds
            truth = 1 - p**n
            se = math.sqrt(float(truth * (1 - truth)) / 100_000)
            assert abs(est.value - float(truth)) <= 4 * max(se, est.stderr) + 1e-12, (p, n)
        # lock-law conformance: with its first-zero law switched off, the raven
        # rule's lock stages come from the generic scan of each sampled
        # length-30 prefix, which must reproduce the declared law; a prefix
        # without a 0 has truth Yes and locks at stage 0, hence the p**30 term
        scan = cl.success_set_curve(
            fg, scanned, [w], range(1, 31), horizon=30, trials=10_000, seed=31, strategy="mc"
        )
        for pt in scan.points:
            truth = 1 - p**pt.n + p**30
            se = math.sqrt(float(truth * (1 - truth)) / 10_000)
            assert abs(pt.estimate - float(truth)) <= 4 * max(se, pt.stderr) + 1e-12, (p, pt.n)
    _report(7, time.perf_counter() - t0, 60, "exact law, MC agreement, lock-law conformance")


def test_c08_hierarchy_on_fine_grained_raven():
    t0 = time.perf_counter()
    fg = cl.fine_grained_raven([0.3, 0.5, 0.9, 1.0])
    v1 = cl.check_mode(fg, cl.raven_rule, cl.mode_params("I", 60))
    assert v1.status == cl.SUPPORTED_AT_HORIZON  # antecedent holds, not vacuous
    v2 = cl.check_mode(fg, cl.raven_rule, cl.mode_params("II", 60, delta=0.05))
    v3 = cl.check_mode(fg, cl.raven_rule, cl.mode_params("III", 60, delta=0.05, epsilon=0.5))
    assert v2.status == cl.SUPPORTED_AT_HORIZON
    assert v3.status == cl.SUPPORTED_AT_HORIZON
    _report(8, time.perf_counter() - t0, 60, "mode I support carries to modes II and III")


ERM_STAGES = (1, 2, 5, 10, 20, 50, 100, 200, 350, 500)


def _erm_mode_three_verdict(toy_task, toy_classifiers, workers=1):
    problem = cl.binary_classification(**toy_task)
    params = cl.mode_params(
        "III", 500, delta=0.1, epsilon=0.05, stages=ERM_STAGES
    )
    return cl.check_mode(
        problem,
        cl.erm_method(toy_classifiers),
        params,
        budget=Budget(strategy="mc", trials=10_000),
        seed=20260809,
        workers=workers,
    )


def test_c09_erm_consistency_at_desk_scale(toy_task, toy_classifiers):
    t0 = time.perf_counter()
    # the three example laws have unique risk minimizers with gaps >= 0.1
    problem = cl.binary_classification(**toy_task)
    for w in problem.worlds:
        losses = sorted(problem.loss.eval(h, w) for h in toy_classifiers)
        assert losses[0] == 0 and losses[1] >= Fraction(1, 10)
    verdict = _erm_mode_three_verdict(toy_task, toy_classifiers)
    assert verdict.status == cl.SUPPORTED_AT_HORIZON
    stages = {wv.world_id: wv.threshold_stage for wv in verdict.worlds}
    _report(9, time.perf_counter() - t0, 120, f"supported with N per world {stages}")


def test_c10_determinism_across_worker_counts(toy_task, toy_classifiers, monkeypatch):
    t0 = time.perf_counter()
    submitted = []  # per work-item map: the items it was given
    map_items = convergence._map_items
    monkeypatch.setattr(convergence, "_map_items", lambda fn, keys, w: submitted.append(keys) or map_items(fn, keys, w))
    fc = cl.fair_coin([0.5, 0.9])

    def c3_curve(workers):
        return cl.success_curve(
            fc,
            cl.fair_coin_test,
            [fc.world("theta=0.9")],
            cl.EXACT,
            1296,
            budget=Budget(strategy="mc", trials=100_000),
            seed=20260809,
            stages=(1296,),
            workers=workers,
        )

    def c3_grid_curve(workers):  # five worlds on two measures: each draw is shared
        return cl.success_curve(
            fc,
            cl.fair_coin_test,
            fc.worlds,
            cl.EXACT,
            400,
            budget=Budget(strategy="mc", trials=20_000),
            seed=20260809,
            stages=(1, 10, 100, 400),
            workers=workers,
        )

    erm_problem = cl.binary_classification(**toy_task)

    def erm_curve(workers):  # on the two four-token laws, n = 40 and 120 sample rows; n = 10 is a histogram
        return cl.success_curve(
            erm_problem,
            cl.erm_method(toy_classifiers),
            erm_problem.worlds,
            cl.within(0.05),
            120,
            budget=Budget(strategy="mc", trials=2000),
            seed=20260809,
            stages=(10, 40, 120),
            workers=workers,
        )

    curves = (("c3", c3_curve), ("c3-grid", c3_grid_curve), ("erm", erm_curve))
    for label, build in curves:
        submitted.clear()
        assert cli.curve_csv(build(1)) == cli.curve_csv(build(8)), label
        if label.startswith("c3"):  # a binary measure's draws are histograms: the pool gets no work
            assert submitted == [[], []], label
        elif label == "erm":  # 8 workers share the four row-sampling draws
            assert [[n for _, n in keys] for keys in submitted] == [[40, 120, 40, 120]] * 2
    v1 = _erm_mode_three_verdict(toy_task, toy_classifiers, workers=1)
    submitted.clear()
    v8 = _erm_mode_three_verdict(toy_task, toy_classifiers, workers=8)
    assert len(submitted[0]) == 10  # n = 50 through 500 on the two four-token laws
    assert cli.curve_csv(v1.curve) == cli.curve_csv(v8.curve)
    assert v1 == v8
    _report(10, time.perf_counter() - t0, 300, "byte-identical curve CSVs under 1 and 8 workers")
