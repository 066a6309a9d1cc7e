"""convlab benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload catalog-exact --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

Workloads (see bench/README.md): catalog-exact, catalog-mc, per-sequence.
``all`` runs each in its own process, one after another.

A run generates the workload's operations from ``--seed``, times the set-up
probe, runs one warm-up pass whose outputs the oracle checks, then repeats
timed passes over the same operations for ``--seconds``.  Every pass's
outputs must hash the same as the warm-up pass's.  In a timed pass a fixed
yardstick computation runs and is timed right before each operation; the
timing metrics are pass times in units of the pass's yardstick time.  With
``--trace 1`` the timed passes alternate untraced and traced, and the
per-layer metrics come from the traced ones.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("catalog-exact", "catalog-mc", "per-sequence")
SETUP_PROBES = 3
MIN_PASSES = 3

END_TO_END = [("wall_ref", "ref"), ("cpu_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def environment() -> dict:
    """Interpreter, numpy, CPU and load of this host, read-only."""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        load = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        load = []
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": load,
    }


def time_setup(config: Path) -> float:
    """Wall time of one fresh process that imports convlab and builds one config."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(config)],
        check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
    )
    return time.perf_counter() - t0


def yardstick() -> int:
    """Fixed interpreter and numpy work (about 10 ms), timed next to every operation.

    The host this was built on runs CPU-bound code at speeds up to 2x apart,
    switching every few seconds to minutes as other tenants come and go.
    The yardstick slows with the host, not with convlab, so an operation's
    time divided by the yardstick time next to it is steady across host
    speeds.  The collector is paused so the program's heap cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = 0
        for i in range(30000):
            acc += (i * i) % 7
        harmonic = sum((Fraction(1, k) for k in range(1, 150)), Fraction(0))
        big = math.comb(600, 300) * 3**400 % (2**521 - 1)
        draws = numpy.random.default_rng(7).binomial(50, 0.3, size=40000)
        return acc + harmonic.denominator % 7 + big % 7 + int(draws.sum())
    finally:
        if enabled:
            gc.enable()


def run_pass(ops, timed=False) -> tuple[list, tuple[float, float, float]]:
    """Run every operation once; an operation that raises yields its exception.

    Returns the outputs and (operation wall s, operation CPU s, yardstick s).
    When ``timed``, the yardstick runs before each operation and after the
    last; its figure is the median sample times the number of operations,
    so one disturbed sample cannot move it.
    """
    outputs = []
    wall = cpu = 0.0
    samples = []

    def measure_yardstick():
        t0 = time.perf_counter()
        yardstick()
        samples.append(time.perf_counter() - t0)

    for op in ops:
        if timed:
            measure_yardstick()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            outputs.append(op.call())
        except Exception as e:  # a failed operation is counted, the pass goes on
            traceback.print_exc(file=sys.stderr)
            outputs.append(e)
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
    if timed:
        measure_yardstick()
    return outputs, (wall, cpu, statistics.median(samples) * len(ops) if samples else 0.0)


def digest(output) -> str | None:
    return None if isinstance(output, Exception) else hashlib.sha256(output).hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    import tracer
    import workloads

    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        env_start = environment()
        wl = workloads.build(name, seed, workdir, size)
        # Set-up probes: a few now, then one after each timed pass, so the
        # median samples the host over the whole run.
        setups = [time_setup(wl.setup_config) for _ in range(SETUP_PROBES)]
        failures = []
        attempted = 0

        # Warm-up pass: its outputs are checked by the oracle and fix the digests.
        reference, _ = run_pass(wl.ops)
        attempted += len(wl.ops)
        for op, out in zip(wl.ops, reference):
            problems = [f"failed: {out}"] if isinstance(out, Exception) else op.check(out)
            if problems:
                failures.append((op.name, problems))
        expected = [digest(out) for out in reference]

        if wl.twin is not None:
            index, twin = wl.twin
            attempted += 1
            out = run_pass([twin])[0][0]
            if digest(out) is None or digest(out) != expected[index]:
                failures.append((twin.name, [f"output differs from {wl.ops[index].name} at 2 workers"]))

        untraced, traced = [], []  # per pass: (wall s, CPU s, yardstick s[, layers])
        trc = tracer.Tracer() if trace else None
        deadline = time.perf_counter() + seconds
        i = 0
        while i < MIN_PASSES * (2 if trace else 1) or time.perf_counter() < deadline:
            traced_pass = trace and i % 2 == 1
            if traced_pass:
                trc.install()
            try:
                outputs, times = run_pass(wl.ops, timed=True)
            finally:
                layers = trc.uninstall() if traced_pass else None
            if traced_pass:
                traced.append((*times, layers))
            else:
                untraced.append(times)
            attempted += len(wl.ops)
            for op, out, want in zip(wl.ops, outputs, expected):
                if digest(out) is None or digest(out) != want:
                    failures.append((op.name, [f"pass {i + 1}: output digest differs from the warm-up pass"]))
            setups.append(time_setup(wl.setup_config))
            i += 1

        if trace:
            metrics = _layer_metrics(tracer, untraced, traced)
        else:
            metrics = {
                "wall_ref": statistics.median(w / r for w, _, r in untraced),
                "cpu_ref": statistics.median(c / r for _, c, r in untraced),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        return {
            "workload": name,
            "seed": seed,
            "passes": {"untraced": len(untraced), "traced": len(traced)},
            "raw": {  # seconds as measured, for the human-readable summary
                "wall_s": [w for w, _, _ in untraced],
                "cpu_s": [c for _, c, _ in untraced],
                "yardstick_s": [r for _, _, r in untraced],
            },
            "failures": failures,
            "env_start": env_start,
            "env_end": environment(),
            "result": {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _layer_metrics(tracer, untraced, traced) -> dict:
    """Per-layer metrics: work counts of the first traced pass, medians of times."""
    first = traced[0][-1]
    for *_, layers in traced[1:]:
        for name, value in layers.items():
            if name not in tracer.TIMES and name not in ("convergence.pool.utilization",) and value != first[name]:
                print(f"warning: {name} counted {value} on a later traced pass, {first[name]} on the first",
                      file=sys.stderr)
    metrics = {}
    for name, _, _ in tracer.METRICS:
        if name in first:
            if name in tracer.TIMES or name == "convergence.pool.utilization":
                metrics[name] = statistics.median(layers[name] for *_, layers in traced)
            else:
                metrics[name] = first[name]
    traced_wall = statistics.median(w / r for w, _, r, _ in traced)
    untraced_wall = statistics.median(w / r for w, _, r in untraced)
    metrics["trace.wall_ref"] = traced_wall
    metrics["trace.untraced_wall_ref"] = untraced_wall
    metrics["trace.overhead_ref"] = traced_wall - untraced_wall
    return metrics


def _units() -> dict:
    import tracer

    units = dict(END_TO_END)
    units.update((name, unit) for name, unit, _ in tracer.METRICS)
    return units


def report(run: dict) -> dict:
    """Print the human-readable summary of one workload run; return its result object."""
    res = run["result"]
    units = _units()
    print(f"env start {json.dumps(run['env_start'], sort_keys=True)}")
    print(
        f"{run['workload']} seed={run['seed']}: {run['passes']['untraced']} untraced and "
        f"{run['passes']['traced']} traced timed passes; {res['attempted']} operations, {res['failed']} failed"
    )
    for name, value in res["metrics"].items():
        print(f"  {name:44s} {value:>16.6g} {units[name]}")
    print(f"  {'error_rate':44s} {res['failed'] / res['attempted']:>16.6g} ratio")
    for name, values in run["raw"].items():
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"  {name + ' (raw, per pass)':44s} median {statistics.median(values):.4g}, "
              f"quartiles {q[0]:.4g}..{q[-1]:.4g}, min {min(values):.4g} s over {len(values)} passes")
    for op, problems in run["failures"]:
        for p in problems[:5]:
            print(f"  FAILED {op}: {p}")
    print(f"env end {json.dumps(run['env_end'], sort_keys=True)}")
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in res["metrics"].items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, one after another; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "convlab" / "__init__.py").is_file():
        print(f"error: no convlab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        result = run_all(args)
    else:
        result = report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
