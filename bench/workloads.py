"""The benchmark's workloads: operations generated from a seed, with their output checks.

An operation is one ``convlab`` CLI invocation (``run`` or ``curve`` on a
generated config, called in-process through ``convlab.cli.main``) or one
library call.  ``call()`` performs it and returns canonical output bytes
(curve CSV plus verdict rows, or a JSON rendering of a library result);
``check(output)`` returns the problems the independent oracle finds.

Sizes are fixed per workload; the seed varies only parameter values (biases,
radii, confidence levels, example laws, classifier order, Monte Carlo and
world seeds), so every seed costs about the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import convlab
from convlab import cli

import oracle

# Work sizes.  "full" is what the benchmark measures; "small" is the
# self-test's reduced size.
SIZES = {
    "full": dict(
        coin_h=400, coin_step=10, fair_full_h=200, fair_h=500, fair_step=20, erm_exact_h=6,
        mc_h=1000, mc_step=50, mc_trials=5000, erm_ladder=(1, 2, 5, 10, 20, 50, 100, 200, 350, 500),
        erm_trials=10000, set_h=200, set_trials=100000,
        raven_h=1600, generic_n=100, generic_trials=2000, enum_n=14, scan_h=40, scan_trials=300,
        lock_h=600, witness_depth=14,
    ),
    "small": dict(
        coin_h=60, coin_step=10, fair_full_h=30, fair_h=60, fair_step=20, erm_exact_h=3,
        mc_h=100, mc_step=50, mc_trials=1000, erm_ladder=(1, 5, 20, 50), erm_trials=2000,
        set_h=30, set_trials=5000,
        raven_h=100, generic_n=20, generic_trials=500, enum_n=8, scan_h=12, scan_trials=100,
        lock_h=50, witness_depth=8,
    ),
}

# Biases j/20 with j coprime to 20 and j(20 - j) in {91, 99}: the exact
# sums' big integers p**k (q-p)**(n-k) then have nearly the same size for
# every bias, so the seed does not change the amount of work.
BIASES = tuple(Fraction(j, 20) for j in (7, 9, 11, 13))

# Example laws assign these twentieths to the four (feature, label) pairs in
# a seeded order: every pair positive, and the same multiset of (coprime)
# numerators, so exact enumeration costs the same for every seed.
LAW_TWENTIETHS = (1, 3, 7, 9)

LABELINGS = {
    "all-0": {"a": 0, "b": 0},
    "all-1": {"a": 1, "b": 1},
    "identity": {"a": 1, "b": 0},
    "flip": {"a": 0, "b": 1},
}


class OpError(RuntimeError):
    """An operation exited non-zero or raised."""


@dataclass
class Op:
    name: str
    call: Callable[[], bytes]
    check: Callable[[bytes], list]
    config: Path | None = None  # the config file of a CLI operation


def _dec(x: Fraction) -> float:
    """A terminating decimal as the float JSON configs carry."""
    return float(x)


def _num(x: Fraction) -> str:
    """A terminating decimal as world ids print it: 0.35, 0.5, 1."""
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def _coin_world_ids(grid) -> list[str]:
    ids = []
    for th in grid:
        wid = f"theta={_num(th)}"
        ids.append(wid)
        if 0 < th < 1:
            ids.append(f"{wid}/alternating")
        if th == Fraction(1, 2):
            ids.append(f"{wid}/all-ones")
    return ids


def _theta_of(world_id: str) -> Fraction:
    return Fraction(world_id.split("/")[0].split("=")[1])


# ---------------------------------------------------------------------------
# Output parsing


def _split(output: bytes) -> tuple[list[dict], dict | None]:
    text = output.decode()
    csv, _, verdict = text.partition("#verdict ")
    lines = csv.strip().splitlines()
    if lines and lines[0] != cli.CURVE_HEADER:
        raise ValueError("curve CSV header changed")
    names = cli.CURVE_HEADER.split(",")
    rows = [dict(zip(names, line.split(","))) for line in lines[1:]]
    return rows, (json.loads(verdict) if verdict else None)


def _row_keys_problems(rows, world_ids, stages) -> list[str]:
    got = [(r["world_id"], int(r["n"])) for r in rows]
    want = [(w, n) for w in world_ids for n in stages]
    return [] if got == want else [f"curve rows {got[:3]}... differ from expected {want[:3]}..."]


def _verdict_problems(verdict, expected: dict, overall=None) -> list[str]:
    """Compare world rows to expected {world_id: (status, stage or ...)}; ... skips the stage."""
    problems = []
    rows = {r["world_id"]: r for r in verdict["verdicts"]}
    for wid, (status, stage) in expected.items():
        row = rows.get(wid)
        if row is None:
            problems.append(f"no verdict for world {wid}")
        elif row["status"] != status or (stage is not ... and row["threshold_stage"] != stage):
            problems.append(
                f"world {wid}: got {row['status']} N={row['threshold_stage']}, want {status} N={stage}"
            )
    if overall is not None and verdict["status"] != overall:
        problems.append(f"overall status {verdict['status']}, want {overall}")
    return problems


def _exact_curve_problems(rows, truth: dict, world_ids, stages, threshold) -> tuple[list, dict]:
    """Exact rows must equal the oracle's rationals; returns (problems, expected verdicts)."""
    problems = _row_keys_problems(rows, world_ids, stages)
    for r in rows:
        value = truth[(r["world_id"], int(r["n"]))]
        if r["exact"] != "true" or float(r["estimate"]) != float(value):
            problems.append(f"{r['world_id']} n={r['n']}: {r['estimate']} != exact {value}")
        if r["bound"] and float(r["bound"]) > float(value) + 1e-12:
            problems.append(f"{r['world_id']} n={r['n']}: bound {r['bound']} above exact {value}")
    expected = {
        w: oracle.exact_verdict(stages, [truth[(w, n)] for n in stages], threshold)
        for w in world_ids
    }
    return problems, expected


def _exact_verdict_problems(verdict, world_ids, expected) -> list[str]:
    """World rows, overall status and witness world, all pinned by exact values."""
    refuted = [w for w in world_ids if expected[w][0] == "refuted"]
    overall = "REFUTED_AT_HORIZON" if refuted else "SUPPORTED_AT_HORIZON"
    problems = _verdict_problems(verdict, expected, overall)
    witness = refuted[0] if refuted else None
    if verdict["witness_world"] != witness:
        problems.append(f"witness {verdict['witness_world']}, want {witness}")
    return problems


def _mc_curve_problems(rows, truth: dict, trials, world_ids, stages) -> list[str]:
    problems = _row_keys_problems(rows, world_ids, stages)
    for r in rows:
        t = truth[(r["world_id"], int(r["n"]))]
        est = float(r["estimate"])
        if not oracle.mc_agrees(est, t, trials):
            problems.append(f"{r['world_id']} n={r['n']}: MC {est} vs truth {t:.6g} ({trials} trials)")
    return problems


def _mc_verdict_problems(verdict, truth, trials, world_ids, stages, threshold) -> list[str]:
    expected = {}
    for w in world_ids:
        status = oracle.mc_clear_status([truth[(w, n)] for n in stages], trials, threshold)
        if status is not None:
            expected[w] = (status, ...)
    overall = None
    if any(s == "refuted" for s, _ in expected.values()):
        overall = "REFUTED_AT_HORIZON"
    elif len(expected) == len(world_ids):
        overall = "SUPPORTED_AT_HORIZON"
    return _verdict_problems(verdict, expected, overall)


def _guarded(check):
    """A check that reports unparseable output as a problem instead of raising."""

    def run(output: bytes) -> list:
        try:
            return check(output)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            return [f"output not checkable: {type(e).__name__}: {e}"]

    return run


# ---------------------------------------------------------------------------
# CLI operations


def _cli_op(name: str, workdir: Path, doc: dict, argv_tail=(), check=None) -> Op:
    """A ``convlab run`` (or ``curve ...`` via argv_tail) operation on a written config."""
    cfg = workdir / f"{name}.json"
    out = workdir / name
    doc = dict(doc, name=name, output={"curve": "curve.csv", "record": "record.json"})
    cfg.write_text(json.dumps(doc, indent=1))
    command = list(argv_tail) or ["run"]
    argv = [*command, "--config", str(cfg), "--out", str(out)]

    def call() -> bytes:
        for f in ("curve.csv", "record.json"):
            (out / f).unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            rc = cli.main(argv)
        if rc != 0:
            raise OpError(f"{' '.join(command)} exited {rc}: {err.getvalue().strip()}")
        curve = (out / "curve.csv").read_bytes() if (out / "curve.csv").exists() else b""
        if command[0] != "run":
            return curve
        rec = json.loads((out / "record.json").read_text())
        verdict = {k: rec[k] for k in ("status", "witness_world", "verdicts")}
        return curve + b"#verdict " + json.dumps(verdict, sort_keys=True).encode() + b"\n"

    return Op(name, call, _guarded(check), cfg)


def _coin_exact_op(name, workdir, kind, rng, horizon, step):
    grid = sorted([Fraction(1, 2), *rng.sample(BIASES, 2)])
    delta = rng.choice([Fraction(1, 20), Fraction(1, 10)])
    eps = rng.choice([Fraction(1, 20), Fraction(1, 10), Fraction(3, 20)]) if kind == "coin-bias" else None
    stages = list(range(step, horizon + 1, step)) if step else list(range(1, horizon + 1))
    method = "frequency-estimator" if kind == "coin-bias" else "fair-coin-test"
    mode = {"mode": "III", "epsilon": _dec(eps)} if eps else {"mode": "II"}
    mode.update(delta=_dec(delta), horizon=horizon)
    if step:
        mode["stages"] = stages
    doc = {
        "problem": {"name": kind, "params": {"theta_grid": [_dec(t) for t in grid], "world_seed": rng.randrange(2**31)}},
        "method": {"name": method, "params": {}},
        "mode": mode,
        "budget": {"strategy": "auto"},
        "seed": rng.randrange(2**31),
        "workers": 1,
    }
    world_ids = _coin_world_ids(grid)

    def check(output):
        rows, verdict = _split(output)
        exact = {th: {n: oracle.coin_exact(kind, th, n, eps) for n in stages} for th in grid}
        truth = {(w, n): exact[_theta_of(w)][n] for w in world_ids for n in stages}
        problems, expected = _exact_curve_problems(rows, truth, world_ids, stages, 1 - delta)
        return problems + _exact_verdict_problems(verdict, world_ids, expected)

    return _cli_op(name, workdir, doc, check=check)


def _random_law(rng) -> dict:
    """An example law on the four (feature, label) pairs, in twentieths."""
    parts = rng.sample(LAW_TWENTIETHS, len(LAW_TWENTIETHS))
    return {tok: Fraction(c, 20) for tok, c in zip(oracle.TOKENS, parts)}


def _erm_doc(rng, horizon, stages, strategy, trials, workers):
    names = rng.sample(sorted(LABELINGS), 3)
    laws = [_random_law(rng) for _ in range(3)]
    eps = Fraction(1, 20)
    delta = Fraction(1, 10)
    mode = {"mode": "III", "delta": _dec(delta), "epsilon": _dec(eps), "horizon": horizon}
    if stages is not None:
        mode["stages"] = list(stages)
    doc = {
        "problem": {
            "name": "binary-classification",
            "params": {
                "features": ["a", "b"],
                "classifiers": [{"name": n, "labels": LABELINGS[n]} for n in names],
                "distributions": [[[x, y, _dec(p)] for (x, y), p in law.items()] for law in laws],
                "world_seed": rng.randrange(2**31),
            },
        },
        "method": {"name": "erm", "params": {}},
        "mode": mode,
        "budget": {"strategy": strategy, "trials": trials},
        "seed": rng.randrange(2**31),
        "workers": workers,
    }
    pool = [(n, LABELINGS[n]) for n in names]
    return doc, pool, laws, eps, delta


def _erm_exact_op(name, workdir, rng, horizon):
    doc, pool, laws, eps, delta = _erm_doc(rng, horizon, None, "auto", 1000, 1)
    stages = list(range(1, horizon + 1))
    world_ids = [f"D{i}" for i in range(len(laws))]

    def check(output):
        rows, verdict = _split(output)
        truth = {
            (w, n): oracle.erm_exact(pool, law, eps, n)
            for w, law in zip(world_ids, laws)
            for n in stages
        }
        problems, expected = _exact_curve_problems(rows, truth, world_ids, stages, 1 - delta)
        return problems + _exact_verdict_problems(verdict, world_ids, expected)

    return _cli_op(name, workdir, doc, check=check)


def _erm_mc_op(name, workdir, rng, ladder, trials, workers):
    horizon = ladder[-1]
    doc, pool, laws, eps, delta = _erm_doc(rng, horizon, ladder, "mc", trials, workers)
    world_ids = [f"D{i}" for i in range(len(laws))]
    stages = list(ladder)

    def check(output):
        rows, verdict = _split(output)
        truth = {
            (w, n): oracle.erm_float(pool, law, eps, n)
            for w, law in zip(world_ids, laws)
            for n in stages
        }
        return _mc_curve_problems(rows, truth, trials, world_ids, stages) + _mc_verdict_problems(
            verdict, truth, trials, world_ids, stages, float(1 - delta)
        )

    return _cli_op(name, workdir, doc, check=check)


def _fair_coin_mc_op(name, workdir, rng, horizon, step, trials):
    grid = [Fraction(k, 10) for k in range(11)] + [Fraction(9, 20), Fraction(11, 20)]
    grid.sort()  # the catalog's default grid, which the config leaves implicit
    delta = rng.choice([Fraction(1, 20), Fraction(1, 10)])
    stages = list(range(step, horizon + 1, step))
    doc = {
        "problem": {"name": "fair-coin", "params": {"world_seed": rng.randrange(2**31)}},
        "method": {"name": "fair-coin-test", "params": {}},
        "mode": {"mode": "II", "delta": _dec(delta), "horizon": horizon, "stages": stages},
        "budget": {"strategy": "mc", "trials": trials},
        "seed": rng.randrange(2**31),
        "workers": 2,
    }
    world_ids = _coin_world_ids(grid)

    def check(output):
        rows, verdict = _split(output)
        logf = oracle.LogFactorials(horizon)
        by_theta = {th: {n: oracle.coin_float(logf, "fair-coin", th, n) for n in stages} for th in grid}
        truth = {(w, n): by_theta[_theta_of(w)][n] for w in world_ids for n in stages}
        return _mc_curve_problems(rows, truth, trials, world_ids, stages) + _mc_verdict_problems(
            verdict, truth, trials, world_ids, stages, float(1 - delta)
        )

    return _cli_op(name, workdir, doc, check=check)


def _success_set_op(name, workdir, rng, horizon, trials):
    ps = sorted(rng.sample([Fraction(k, 20) for k in range(10, 20)], 4)) + [Fraction(1)]
    stages = list(range(1, horizon + 1))
    doc = {
        "problem": {"name": "fine-grained-raven", "params": {"p_grid": [_dec(p) for p in ps], "world_seed": rng.randrange(2**31)}},
        "method": {"name": "raven-rule", "params": {}},
        "mode": {"mode": "II", "delta": 0.05, "horizon": horizon, "stages": stages},
        "budget": {"strategy": "mc", "trials": trials},
        "seed": rng.randrange(2**31),
        "workers": 2,
    }
    world_ids = [f"p={_num(p)}" for p in ps]

    def check(output):
        rows, _ = _split(output)
        truth = {(w, n): float(oracle.raven_lock_prob(p, n)) for w, p in zip(world_ids, ps) for n in stages}
        return _mc_curve_problems(rows, truth, trials, world_ids, stages)

    return _cli_op(name, workdir, doc, ["curve", "--kind", "success-set"], check=check)


def _mode1_op(name, workdir, horizon, max_first_zero):
    doc = {
        "problem": {"name": "easy-raven", "params": {"max_first_zero": max_first_zero}},
        "method": {"name": "raven-rule", "params": {}},
        "mode": {"mode": "I", "horizon": horizon},
        "seed": 0,
        "workers": 1,
    }
    expected = {f"first-zero-at-{k}": ("supported", k) for k in range(1, max_first_zero + 1)}
    expected["all-ones"] = ("supported", 0)

    def check(output):
        _, verdict = _split(output)
        return _verdict_problems(verdict, expected, "SUPPORTED_AT_HORIZON")

    return _cli_op(name, workdir, doc, check=check)


# ---------------------------------------------------------------------------
# Library operations (user-defined methods: no fast-path flags declared)


def _user_method(catalog):
    """A method as a user would write it: the catalog decide function, no flags.

    Call at build time: the decide function is read before any tracing
    wrapper is installed, so a traced pass counts each decide call once.
    """
    decide = catalog.decide
    return lambda: convlab.InferenceMethod(f"user-{catalog.name}", decide)


def _json_op(name, compute, check) -> Op:
    def call() -> bytes:
        return json.dumps(compute(), sort_keys=True).encode()

    return Op(name, call, _guarded(lambda out: check(json.loads(out))))


def _generic_mc_op(name, kind, rng, n, trials):
    theta = rng.choice([Fraction(1, 2), *BIASES]) if kind == "fair-coin" else rng.choice(BIASES)
    eps = rng.choice([Fraction(1, 20), Fraction(1, 10)]) if kind == "coin-bias" else None
    seed = rng.randrange(2**31)
    user = _user_method(convlab.frequency_estimator if kind == "coin-bias" else convlab.fair_coin_test)

    def compute():
        if kind == "coin-bias":
            problem = convlab.coin_bias([theta])
            crit = convlab.within(eps)
        else:
            problem = convlab.fair_coin(sorted({theta, Fraction(1, 2), Fraction(1, 10)}))
            crit = convlab.EXACT
        world = problem.world(_coin_world_ids([theta])[0])
        est = convlab.mc_success_prob(problem, user(), world, n, crit, trials, seed)
        return {"value": est.value, "stderr": est.stderr, "exact": est.exact}

    def check(doc):
        truth = float(oracle.coin_exact(kind, theta, n, eps))
        if doc["exact"] or not oracle.mc_agrees(doc["value"], truth, trials):
            return [f"generic MC {doc['value']} vs truth {truth:.6g} ({kind}, theta={theta}, n={n})"]
        return []

    return _json_op(name, compute, check)


def _enum_exact_op(name, kind, rng, n):
    theta = rng.choice(BIASES)
    eps = rng.choice([Fraction(1, 10), Fraction(3, 20)]) if kind == "coin-bias" else None
    user = _user_method(convlab.frequency_estimator if kind == "coin-bias" else convlab.fair_coin_test)

    def compute():
        if kind == "coin-bias":
            problem = convlab.coin_bias([theta])
            crit = convlab.within(eps)
        else:
            problem = convlab.fair_coin(sorted({theta, Fraction(1, 2)}))
            crit = convlab.EXACT
        world = problem.world(_coin_world_ids([theta])[0])
        return {"value": str(convlab.exact_success_prob(problem, user(), world, n, crit))}

    def check(doc):
        want = oracle.coin_exact(kind, theta, n, eps)
        got = Fraction(doc["value"])
        return [] if got == want else [f"enum exact {got} != {want} ({kind}, theta={theta}, n={n})"]

    return _json_op(name, compute, check)


def _generic_success_set_op(name, rng, horizon, trials):
    ps = sorted(rng.sample([Fraction(k, 20) for k in (15, 17, 18, 19)], 3)) + [Fraction(1)]
    world_seed, seed = rng.randrange(2**31), rng.randrange(2**31)
    stages = list(range(1, horizon + 1))
    user = _user_method(convlab.raven_rule)

    def compute():
        problem = convlab.fine_grained_raven(ps, seed=world_seed)
        curve = convlab.success_set_curve(
            problem, user(), problem.worlds, stages, horizon=horizon, trials=trials, seed=seed
        )
        return [[pt.world_id, pt.n, float(pt.estimate), pt.exact] for pt in curve.points]

    def check(points):
        problems = []
        want_keys = [(f"p={_num(p)}", n) for p in ps for n in stages]
        if [(w, n) for w, n, _, _ in points] != want_keys:
            problems.append("success-set curve rows differ from the expected world/stage grid")
        for (w, n, est, _), p in zip(points, [p for p in ps for _ in stages]):
            truth = float(oracle.scanned_lock_prob(p, n, horizon))
            if not oracle.mc_agrees(est, truth, trials):
                problems.append(f"{w} n={n}: lock probability {est} vs truth {truth:.6g}")
        return problems

    return _json_op(name, compute, check)


def _lock_time_op(name, horizon, max_first_zero):
    user = _user_method(convlab.raven_rule)

    def compute():
        problem = convlab.easy_raven(max_first_zero=max_first_zero)
        method = user()
        return {w.id: convlab.lock_time(problem, method, w, horizon) for w in problem.worlds}

    want = {f"first-zero-at-{k}": k for k in range(1, max_first_zero + 1)} | {"all-ones": 0}
    return _json_op(name, compute, lambda got: [] if got == want else [f"lock times {got} != {want}"])


def _witness_op(name, depth):
    user = _user_method(convlab.frequency_estimator)

    def compute():
        return {"witness": str(convlab.cardinality_witness(user(), depth))}

    def check(doc):
        want, outputs = oracle.frequency_witness(depth)
        got = Fraction(doc["witness"])
        if got in outputs or got != want:
            return [f"cardinality witness {got}, want {want} (never output up to depth {depth})"]
        return []

    return _json_op(name, compute, check)


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    ops: list
    setup_config: Path  # config the set-up probe parses and builds
    # catalog-mc: (index of a workers: 2 op, the same config at workers: 1),
    # whose outputs must be byte-identical.
    twin: tuple[int, Op] | None = None


def build(workload: str, seed: int, workdir: Path, size: str = "full") -> Workload:
    """Generate a workload's operations from the seed; configs land in workdir."""
    z = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    twin = None
    if workload == "catalog-exact":
        ops = [
            _coin_exact_op("coin-bias-mode3", workdir, "coin-bias", rng, z["coin_h"], z["coin_step"]),
            _coin_exact_op("fair-coin-full", workdir, "fair-coin", rng, z["fair_full_h"], 0),
            _coin_exact_op("fair-coin-mode2", workdir, "fair-coin", rng, z["fair_h"], z["fair_step"]),
            _erm_exact_op("erm-exact", workdir, rng, z["erm_exact_h"]),
        ]
    elif workload == "catalog-mc":
        erm = _erm_mc_op("erm-ladder", workdir, rng, z["erm_ladder"], z["erm_trials"], 2)
        ops = [
            _fair_coin_mc_op("fair-coin-mc", workdir, rng, z["mc_h"], z["mc_step"], z["mc_trials"]),
            erm,
            _success_set_op("raven-success-set", workdir, rng, z["set_h"], z["set_trials"]),
        ]
        # Same config at one worker: its curve bytes must equal the 2-worker op's.
        doc = json.loads(erm.config.read_text())
        twin = (1, _cli_op("erm-ladder-1worker", workdir, dict(doc, workers=1), check=lambda out: []))
    elif workload == "per-sequence":
        ops = [
            _mode1_op("easy-raven-mode1", workdir, z["raven_h"], 4),
            *(
                _generic_mc_op(f"mc-generic-{kind}-{i}", kind, rng, z["generic_n"], z["generic_trials"])
                for i, kind in enumerate(["coin-bias", "coin-bias", "fair-coin"])
            ),
            _enum_exact_op("enum-exact-coin-bias", "coin-bias", rng, z["enum_n"]),
            _enum_exact_op("enum-exact-fair-coin", "fair-coin", rng, z["enum_n"] - 1),
            _generic_success_set_op("success-set-generic", rng, z["scan_h"], z["scan_trials"]),
            _lock_time_op("lock-time", z["lock_h"], 4),
            _witness_op("cardinality-witness", z["witness_depth"]),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Workload(ops, ops[0].config, twin)
