"""Walkthrough: binary classification, predictive risk, and ERM consistency.

A classification problem is built in one call from a finite feature space,
a pool of candidate classifiers and a grid of distributions over
(feature, label) pairs: the pairs are its alphabet, the pool its hypothesis
space, and each world draws its example stream IID from one distribution.
The loss of a classifier is its excess risk: its misclassification
probability above the best achievable in the pool.
Empirical risk minimization picks the pool member with the fewest mistakes
on the data seen so far.  Its success probabilities on small samples are
exact rationals (a multinomial sum over example counts); its mode-III
consistency out to n = 500 is checked by seeded Monte Carlo.

Run:  python demos/05_erm_classification.py
"""

from fractions import Fraction

import convlab as cl
from convlab.core import Classifier

# --- A two-feature problem with three candidate classifiers ----------------

all0 = Classifier.from_mapping("all-0", {"a": 0, "b": 0})
all1 = Classifier.from_mapping("all-1", {"a": 1, "b": 1})
ident = Classifier.from_mapping("identity", {"a": 1, "b": 0})

pool = (all0, all1, ident)
problem = cl.binary_classification(
    features=["a", "b"],
    classifiers=pool,
    distributions=[
        # noise-free: label 1 iff feature a
        {("a", 1): "0.5", ("b", 0): "0.5"},
        # the same pattern with 10% label noise
        {("a", 1): "0.45", ("a", 0): "0.05", ("b", 0): "0.45", ("b", 1): "0.05"},
        # mostly label 0 everywhere
        {("a", 0): "0.4", ("b", 0): "0.4", ("a", 1): "0.1", ("b", 1): "0.1"},
    ],
)

print("== risks and excess risks per world")
for w in problem.worlds:
    table = w.measure.token_probs
    risks = {h.name: cl.risk(h, table) for h in pool}
    print(f"  {w.id}: best={w.truth.name:9s} risks="
          + "  ".join(f"{k}={float(v):.2f}" for k, v in risks.items()))

# --- ERM on small samples ---------------------------------------------------

print("\n== empirical risk minimization on hand-picked samples")
for data in ([("a", 1), ("b", 0)], [("a", 1), ("a", 1), ("b", 1)], []):
    winner = cl.erm(data, pool)
    print(f"  {data!r:40s} -> {winner.name}")
# Ties go to the earliest classifier in the declared order, which keeps the
# method a deterministic function of the data.

# --- Exact success probabilities on small samples ---------------------------

# ERM depends on the data only through how often each (feature, label)
# example was seen, so the engine sums the multinomial law of those counts:
# C(n+3, 3) count vectors at sample size n instead of 4**n sequences.
print("\n== exact P(excess risk < 0.05) for ERM in world D1 (strategy auto)")
exact = cl.success_curve(problem, cl.erm_method(pool), [problem.world("D1")], cl.within(0.05), 8)
for pt in exact.points:
    print(f"  n={pt.n}: {str(pt.estimate):>28s} = {float(pt.estimate):.6f}  exact={pt.exact}")

# --- Consistency: probably approximately best-in-class ----------------------

print("\n== mode III check (eps=0.05, delta=0.1, horizon 500, 10k trials/stage)")
params = cl.mode_params(
    "III", 500, delta=0.1, epsilon=0.05, stages=(1, 2, 5, 10, 20, 50, 100, 200, 350, 500)
)
verdict = cl.check_mode(
    problem,
    cl.erm_method(pool),
    params,
    budget=cl.Budget(strategy="mc", trials=10_000),
    seed=20260809,
)
print("  ->", verdict.status)
for wv in verdict.worlds:
    print(f"     {wv.world_id}: {wv.status} from stage {wv.threshold_stage}")

print("\nselected curve rows (estimate - 3*stderr must clear 0.9):")
for pt in verdict.curve.points:
    if pt.n in (1, 10, 100, 500):
        margin = pt.estimate - 3 * pt.stderr
        print(f"  {pt.world_id} n={pt.n:3d} est={pt.estimate:.4f} "
              f"stderr={pt.stderr:.4f} margin={margin:.4f}")
# Early stages fail or sit inside the sampling margin; past the per-world
# threshold stage the success chance stays above 1 - delta through the
# horizon.  That is consistency in the standard supervised-learning sense,
# read as stochastic approximation.
