"""Self-test of the benchmark: reduced-size runs, and proof that the checks can fail.

    python3 bench/selftest.py

1. Runs every workload at the "small" size, untraced and traced, and
   requires every output check to pass, traced work counts to repeat
   exactly, and the traced counts to show the workload split (no binomial
   sums on catalog-mc, no Monte Carlo on catalog-exact, the mode-I scan
   and the generic Monte Carlo only on per-sequence).
2. Feeds the oracle deliberately wrong outputs -- an exact estimate one ulp
   off, a shifted threshold stage, a Monte Carlo estimate far outside its
   sampling error, a wrong enumerated rational -- and requires each to be
   rejected while the untouched output passes.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def _edit_csv(output: bytes, edit) -> bytes:
    """Apply edit(row fields) to the first data row it changes (edit returns None to skip)."""
    text = output.decode()
    csv, sep, verdict = text.partition("#verdict ")
    lines = csv.splitlines()
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        new = edit(fields)
        if new is not None:
            lines[i] = ",".join(new)
            return ("\n".join(lines) + "\n" + sep + verdict).encode()
    raise AssertionError("no row to perturb")


def _edit_verdict(output: bytes, edit) -> bytes:
    csv, sep, verdict = output.decode().partition("#verdict ")
    doc = json.loads(verdict)
    edit(doc)
    return (csv + sep + json.dumps(doc, sort_keys=True) + "\n").encode()


def small_runs():
    for name in run.WORKLOADS:
        untraced = run.run_workload(name, 7, 0, False, size="small")
        expect(untraced["result"]["correct"], f"{name}: small run passes its output checks")
        a = run.run_workload(name, 7, 0, True, size="small")["result"]["metrics"]
        b = run.run_workload(name, 7, 0, True, size="small")["result"]["metrics"]
        counts = [m for m in a if not m.endswith(".s") and not m.startswith("trace.")
                  and m != "convergence.pool.utilization"]
        expect(all(a[m] == b[m] for m in counts), f"{name}: two traced runs give identical work counts")
        yield name, a


def split_checks(traced: dict):
    exact, mc, seq = traced["catalog-exact"], traced["catalog-mc"], traced["per-sequence"]
    expect(exact["convergence.binomial_exact.calls"] > 0 and mc["convergence.binomial_exact.calls"] == 0,
           "binomial sums run on catalog-exact and not on catalog-mc")
    expect(all(mc[f"convergence.{p}.calls"] > 0 for p in ("mc_counts", "mc_block"))
           and all(exact[f"convergence.{p}.calls"] == 0 for p in ("mc_counts", "mc_block", "mc_generic")),
           "Monte Carlo runs on catalog-mc and not on catalog-exact")
    for metric in ("convergence.mode1_scan.calls", "convergence.mc_generic.calls"):
        expect(seq[metric] > 0 and exact[metric] == mc[metric] == 0, f"{metric} only on per-sequence")


def oracle_rejects():
    workdir = HERE.parent / ".bench_work" / "selftest"
    try:
        exact = workloads.build("catalog-exact", 7, workdir, "small").ops[0]
        out = exact.call()
        expect(exact.check(out) == [], "oracle accepts the engine's exact curve")

        def ulp_off(fields):
            value = float(fields[5])
            if 0 < value < 1:
                fields[5] = repr(math.nextafter(value, 2.0))
                return fields
            return None

        expect(exact.check(_edit_csv(out, ulp_off)) != [], "oracle rejects an exact estimate one ulp off")

        def shift_stage(doc):
            row = doc["verdicts"][0]
            row["threshold_stage"] = (row["threshold_stage"] or 0) + 10

        expect(exact.check(_edit_verdict(out, shift_stage)) != [], "oracle rejects a wrong threshold stage")

        mc = workloads.build("catalog-mc", 7, workdir, "small").ops[0]
        out = mc.call()
        expect(mc.check(out) == [], "oracle accepts the engine's Monte Carlo curve")

        def far_off(fields):
            value = float(fields[5])
            if value <= 0.6:
                fields[5] = repr(value + 0.3)
                return fields
            return None

        expect(mc.check(_edit_csv(out, far_off)) != [], "oracle rejects a Monte Carlo estimate 0.3 off")

        enum = next(op for op in workloads.build("per-sequence", 7, workdir, "small").ops
                    if op.name.startswith("enum-exact"))
        out = enum.call()
        expect(enum.check(out) == [], "oracle accepts the engine's enumerated rational")
        doc = json.loads(out)
        doc["value"] = str(Fraction(doc["value"]) + Fraction(1, 10**12))
        expect(enum.check(json.dumps(doc).encode()) != [], "oracle rejects an enumerated rational off by 1e-12")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    split_checks(dict(small_runs()))
    oracle_rejects()
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
