"""Walkthrough: empirical problems, worlds, and inference methods.

An empirical problem is a quadruple: a hypothesis space, an evidence
alphabet (finite sequences of tokens form the evidence tree), a family of
admissible worlds, and a loss function that is zero exactly at each world's
truth.  An inference method maps finite data sequences to a hypothesis, or
suspends judgment.

Run:  python demos/01_worlds_and_methods.py
"""

from fractions import Fraction

import convlab as cl

# --- The enumerative-induction problem: will every observation be a 1? ----

raven = cl.easy_raven(max_first_zero=5)
print("== problem:", raven.name)
print("hypotheses:", list(raven.hypothesis_space))
for w in raven.worlds:
    print(f"  world {w.id:18s} truth={w.truth:3s} branch starts {w.branch.prefix(6)}")

# The background assumption excludes exactly one world shape: the all-1
# branch paired with the answer No.  Every other (branch, truth) pair that
# respects the color pattern is admitted.

# --- Methods are functions of the data seen so far ------------------------

print("\n== the enumerative rule on growing evidence")
w = raven.world("first-zero-at-3")
for n in range(6):
    print(f"  after {n} observations: {cl.output_at(cl.raven_rule, w, n)}")
# The rule answers Yes until the first 0 arrives at position 3, then locks
# onto No forever: that is convergence by outright identification.

# --- Statistical problems carry probability measures ----------------------

coin = cl.fair_coin(theta_grid=[0.3, 0.5, 0.9])
print("\n== problem:", coin.name)
for w in coin.worlds:
    theta = w.measure.theta
    print(f"  world {w.id:24s} truth={w.truth:6s} theta={float(theta):.2f}")

# The shrinking-threshold test accepts Fair while the sample frequency sits
# within n**(-1/4) of one half:
print("\n== fair-coin test on sample data")
for data in ("1010", "1" * 16, ""):
    label = data if data else "(no data)"
    print(f"  {label:18s} -> {cl.fair_coin_test(data)}")

# The frequency estimator guesses the bias itself, as an exact rational:
print("\n== frequency estimator")
print("  '1101' ->", cl.frequency_estimator("1101"))
print("  loss against the theta=0.3 world:",
      cl.loss_of(cl.coin_bias([0.3]), cl.frequency_estimator("1101"),
                 cl.coin_bias([0.3]).world("theta=0.3")))

# --- Validation: the loss must single out one truth per world -------------

print("\n== validation reports")
for problem in (raven, coin, cl.coin_bias()):
    report = cl.validate_problem(problem)
    print(f"  {problem.name}: all_ok={report.all_ok} over {len(report.checks)} worlds")

# Suspension never counts as success: its loss is +infinity.
print("\nloss of suspension:", cl.loss_of(coin, cl.SUSPEND, coin.worlds[0]))
