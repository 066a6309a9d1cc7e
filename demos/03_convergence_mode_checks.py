"""Walkthrough: the three-mode hierarchy, checked mechanically.

Three increasingly weaker guarantees an inference method can give as the
evidence grows without bound:

  I    identification   -- from some stage on, the output IS the truth;
  II   stochastic        -- the chance of outputting exactly the truth
       identification       exceeds any 1 - delta from some stage on;
  III  stochastic        -- the chance of being within eps of the truth
       approximation        exceeds any 1 - delta from some stage on.

Verdicts are horizon-stamped: a finite run supports or refutes a mode AT
ITS HORIZON.  Analytic bounds, where available, are reported next to each
curve row; they are not yet read by any verdict, so no support is
certified beyond the horizon.

Run:  python demos/03_convergence_mode_checks.py
"""

import convlab as cl


def show(verdict, note=""):
    print(f"  -> {verdict.status}  {note}")
    for wv in verdict.worlds[:6]:
        stage = "-" if wv.threshold_stage is None else wv.threshold_stage
        print(f"     {wv.world_id:28s} {wv.status:12s} N={stage}")
    if len(verdict.worlds) > 6:
        print(f"     ... {len(verdict.worlds) - 6} more worlds")


# --- The raven problem achieves the top mode -------------------------------

print("== enumerative induction, mode I at horizon 100")
raven = cl.easy_raven(max_first_zero=8)
show(cl.check_mode(raven, cl.raven_rule, cl.mode_params("I", 100)))
# Per-world N equals the position of the first nonblack observation; the
# all-1 world locks immediately.

# --- The fair-coin problem cannot: underdetermination ------------------------

print("\n== fair coin, mode I at horizon 64")
coin = cl.fair_coin()
show(cl.check_mode(coin, cl.fair_coin_test, cl.mode_params("I", 64)))
# Identification fails: among the admitted worlds are pairs sharing one and
# the same data stream with opposite truths (see demo 04), and the all-1
# fair world keeps the test pinned on Unfair from stage 16 onward.

print("\n== fair coin, mode II at horizon 256 (exact binomial sums)")
coin_small = cl.fair_coin([0.1, 0.5, 0.9])
show(
    cl.check_mode(
        coin_small,
        cl.fair_coin_test,
        cl.mode_params(
            "II", 256, delta=0.05,
            world_ids=("theta=0.1", "theta=0.5", "theta=0.9"),
        ),
    ),
    "(sampled-branch worlds only)",
)
# The test is consistent: under any bias in the grid the chance of the
# correct verdict exceeds 0.95 from some world-dependent stage on.  Biases
# near 1/2 need far larger horizons -- the radius n**(-1/4) must first drop
# below the gap |theta - 1/2|.

# --- The bias-estimation problem drops to mode III ---------------------------

print("\n== coin bias, mode III (eps=0.1, delta=0.1) via the certified stage")
bias = cl.coin_bias([0.3, 0.5, 0.7])
needed = cl.required_sample_size("0.1", "0.1")
print(f"  bound certifies success beyond n = {needed}")
show(
    cl.check_mode(
        bias,
        cl.frequency_estimator,
        cl.mode_params(
            "III", 600, delta=0.1, epsilon=0.1,
            stages=(50, 100, 200, 300, 400, 500, 600),
            world_ids=("theta=0.3", "theta=0.5", "theta=0.7"),
        ),
    )
)

# --- Fine-grained worlds recover the whole hierarchy -------------------------

print("\n== fine-grained raven worlds: all three modes at horizon 60")
fg = cl.fine_grained_raven([0.3, 0.5, 0.9, 1.0])
for mode, kw in (("I", {}), ("II", {"delta": 0.05}), ("III", {"delta": 0.05, "epsilon": 0.5})):
    v = cl.check_mode(fg, cl.raven_rule, cl.mode_params(mode, 60, **kw))
    print(f"  mode {mode:3s}: {v.status}")
# Identification in the coarse problem survives probabilistic refinement,
# and then implies both stochastic modes -- the hierarchy in action.
