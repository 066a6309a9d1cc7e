"""Per-layer timing and work counts for the traced benchmark run.

The wrappers sit on convlab's public functions at the names the engine
looks them up by (``convlab.convergence.exact_success_prob``,
``convlab.convergence.loss_of``, ``Branch.prefix``, ...), plus two private
seams of the convergence module (the lock-stage sampler and the work-item
map), because those are where the success-set paths and the worker pool
split.  Each wrapper labels the evaluation path from its call's arguments,
the same way the engine dispatches: measure kind, method flags, and n
against the budget.  Nothing inside ``src/`` changes; ``uninstall`` puts
every original back.

Times are inclusive (a layer's time contains the layers it calls) and add
up across worker threads, so they measure busy time, not wall time.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import convlab
from convlab import cli, convergence, core, methods, seeding
from convlab.core import (
    KIND_IID_BERNOULLI,
    KIND_IID_EXAMPLES,
    KIND_POINT_MASS,
    Branch,
    InferenceMethod,
    Measure,
)

# Every per-layer metric, in report order: (name, unit, better).
METRICS = [
    ("convergence.binomial_exact.calls", "count", "lower"),
    ("convergence.binomial_exact.s", "s", "lower"),
    ("convergence.binomial_exact.terms", "count", "lower"),
    ("core.loss_of.calls", "count", "lower"),
    ("methods.decide_counts.calls", "count", "lower"),
    ("convergence.analytic_bound.calls", "count", "lower"),
    ("convergence.analytic_bound.s", "s", "lower"),
    ("convergence.exact_share", "ratio", "higher"),
    ("convergence.enum_exact.calls", "count", "lower"),
    ("convergence.enum_exact.s", "s", "lower"),
    ("convergence.enum_exact.leaves", "count", "lower"),
    ("convergence.mc_counts.calls", "count", "lower"),
    ("convergence.mc_counts.s", "s", "lower"),
    ("convergence.mc_counts.trials", "count", "lower"),
    ("seeding.generator.calls", "count", "lower"),
    ("seeding.generator.s", "s", "lower"),
    ("convergence.mc_block.calls", "count", "lower"),
    ("convergence.mc_block.s", "s", "lower"),
    ("convergence.mc_block.draws", "count", "lower"),
    ("convergence.success_set_geometric.calls", "count", "lower"),
    ("convergence.success_set_geometric.s", "s", "lower"),
    ("convergence.success_set_geometric.trials", "count", "lower"),
    ("convergence.pool.utilization", "ratio", "higher"),
    ("convergence.mc_generic.calls", "count", "lower"),
    ("convergence.mc_generic.s", "s", "lower"),
    ("convergence.mc_generic.trials", "count", "lower"),
    ("core.sample_prefix.calls", "count", "lower"),
    ("core.sample_prefix.tokens", "count", "lower"),
    ("convergence.mode1_scan.calls", "count", "lower"),
    ("convergence.mode1_scan.s", "s", "lower"),
    ("convergence.mode1_scan.stages", "count", "lower"),
    ("convergence.lock_time.calls", "count", "lower"),
    ("convergence.lock_time.s", "s", "lower"),
    ("convergence.success_set_generic.calls", "count", "lower"),
    ("convergence.success_set_generic.s", "s", "lower"),
    ("convergence.success_set_generic.trials", "count", "lower"),
    ("convergence.witness.calls", "count", "lower"),
    ("convergence.witness.s", "s", "lower"),
    ("convergence.witness.inputs", "count", "lower"),
    ("methods.decide.calls", "count", "lower"),
    ("methods.decide.tokens", "count", "lower"),
    ("methods.decide.tokens_per_stage", "tokens", "lower"),
    ("core.branch_prefix.calls", "count", "lower"),
    ("core.branch_prefix.tokens", "count", "lower"),
    ("problems.build.calls", "count", "lower"),
    ("problems.build.s", "s", "lower"),
    ("cli.parse_config.s", "s", "lower"),
    ("cli.curve_csv.s", "s", "lower"),
    ("cli.curve_csv.bytes", "bytes", "lower"),
    ("trace.wall_ref", "ref", "lower"),
    ("trace.untraced_wall_ref", "ref", "lower"),
    ("trace.overhead_ref", "ref", "lower"),
]

# Metrics that are sums of elapsed time; all others are work counts or ratios.
TIMES = {name for name, unit, _ in METRICS if unit == "s"}


def _is_counts_method(method, measure) -> bool:
    return bool(method.count_symmetric and method.decide_counts) and measure.kind == KIND_IID_BERNOULLI


def _exact_path(problem, method, world, n, *rest, **kw):
    m = world.measure
    if m is None or m.kind == KIND_POINT_MASS:
        return None, {}
    if _is_counts_method(method, m):
        return "convergence.binomial_exact", {"terms": n + 1}
    if m.kind in (KIND_IID_BERNOULLI, KIND_IID_EXAMPLES):
        support = sum(1 for _, p in m.token_probs if p > 0)
    else:
        support = len(problem.alphabet)
    return "convergence.enum_exact", {"leaves": support**n}


def _mc_path(problem, method, world, n, crit, trials, *rest, **kw):
    m = world.measure
    if m is None or m.kind == KIND_POINT_MASS:
        return None, {}
    if method.success_block is not None and m.kind == KIND_IID_EXAMPLES:
        return "convergence.mc_block", {"draws": trials * n}
    if _is_counts_method(method, m):
        return "convergence.mc_counts", {"trials": trials}
    return "convergence.mc_generic", {"trials": trials}


def _lock_path(problem, method, world, horizon, trials, *rest, **kw):
    m = world.measure
    if m.kind == KIND_POINT_MASS:
        return None, {}
    if method.locks_at_first_zero and m.kind == KIND_IID_BERNOULLI:
        return "convergence.success_set_geometric", {"trials": trials}
    return "convergence.success_set_generic", {"trials": trials}


def _mode_path(problem, method, params, *rest, **kw):
    if params.mode != "I":
        return None, {}
    worlds = len(params.world_ids) if params.world_ids is not None else len(problem.worlds)
    return "convergence.mode1_scan", {"stages": (params.horizon + 1) * worlds}


def _witness_path(method, depth=15, *rest, **kw):
    if method.count_symmetric and method.decide_counts:
        inputs = (depth + 1) * (depth + 2) // 2
    else:
        inputs = 2 ** (depth + 1) - 1
    return "convergence.witness", {"inputs": inputs}


def _fixed(layer):
    return lambda *a, **kw: (layer, {})


class Tracer:
    """Installs the wrappers for one traced pass and collects its metrics."""

    def __init__(self):
        self._lock = threading.Lock()
        self._undo = []
        self._counts = defaultdict(int)
        self._seconds = defaultdict(float)

    # -- recording --------------------------------------------------------

    def _record(self, layer, elapsed=None, **work):
        with self._lock:
            self._counts[layer + ".calls"] += 1
            if elapsed is not None:
                self._seconds[layer + ".s"] += elapsed
            for key, value in work.items():
                self._counts[f"{layer}.{key}"] += value

    def _timed(self, path_of, fn):
        def wrapper(*args, **kwargs):
            layer, work = path_of(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if layer is not None:
                    self._record(layer, time.perf_counter() - t0, **work)

        return wrapper

    def _counted(self, layer, fn, tokens=None):
        def wrapper(*args, **kwargs):
            self._record(layer, **({"tokens": tokens(*args, **kwargs)} if tokens else {}))
            return fn(*args, **kwargs)

        return wrapper

    def _curve(self, fn):
        def wrapper(*args, **kwargs):
            curve = fn(*args, **kwargs)
            with self._lock:
                self._counts["curve.points"] += len(curve.points)
                self._counts["curve.exact_points"] += sum(1 for p in curve.points if p.exact)
            return curve

        return wrapper

    def _pool(self, fn):
        def map_items(item_fn, keys, workers):
            def busy(key):
                t0 = time.perf_counter()
                try:
                    return item_fn(key)
                finally:
                    with self._lock:
                        self._seconds["pool.busy"] += time.perf_counter() - t0

            t0 = time.perf_counter()
            try:
                return fn(busy, keys, workers)
            finally:
                with self._lock:
                    self._seconds["pool.capacity"] += (time.perf_counter() - t0) * workers

        return map_items

    def _csv(self, fn):
        def curve_csv(curve):
            t0 = time.perf_counter()
            text = fn(curve)
            self._record("cli.curve_csv", time.perf_counter() - t0, bytes=len(text.encode()))
            return text

        return curve_csv

    # -- installing -------------------------------------------------------

    def _patch(self, owner, name, make):
        original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if original is None:
            return  # the seam no longer exists; its metrics stay at 0
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def _wrap_method(self, method):
        object.__setattr__(method, "decide", self._counted("methods.decide", method.decide, lambda seq: len(seq)))
        if method.decide_counts is not None:
            object.__setattr__(method, "decide_counts", self._counted("methods.decide_counts", method.decide_counts))

    def install(self):
        self._counts.clear()
        self._seconds.clear()
        entry_points = {
            "exact_success_prob": lambda f: self._timed(_exact_path, f),
            "mc_success_prob": lambda f: self._timed(_mc_path, f),
            "lock_time": lambda f: self._timed(_fixed("convergence.lock_time"), f),
            "cardinality_witness": lambda f: self._timed(_witness_path, f),
            "check_mode": lambda f: self._timed(_mode_path, f),
            "success_curve": self._curve,
            "success_set_curve": self._curve,
        }
        for name, make in entry_points.items():
            for owner in (convergence, convlab, cli):
                self._patch(owner, name, make)
        for owner in (convergence, core):
            self._patch(owner, "loss_of", lambda f: self._counted("core.loss_of", f))
        self._patch(convergence, "analytic_bound", lambda f: self._timed(_fixed("convergence.analytic_bound"), f))
        self._patch(convergence, "_lock_stage_samples", lambda f: self._timed(_lock_path, f))
        self._patch(convergence, "_map_items", self._pool)
        self._patch(seeding, "generator", lambda f: self._timed(_fixed("seeding.generator"), f))
        self._patch(cli, "build_problem", lambda f: self._timed(_fixed("problems.build"), f))
        self._patch(cli, "parse_config", lambda f: self._timed(_fixed("cli.parse_config"), f))
        self._patch(cli, "curve_csv", self._csv)
        self._patch(Branch, "prefix", lambda f: self._counted("core.branch_prefix", f, lambda b, n: n))
        self._patch(Measure, "sample_prefix", lambda f: self._counted("core.sample_prefix", f, lambda m, rng, n: n))

        def init_wrapper(init):
            def __init__(method, *args, **kwargs):
                init(method, *args, **kwargs)
                self._wrap_method(method)

            return __init__

        self._patch(InferenceMethod, "__init__", init_wrapper)
        for method in (methods.raven_rule, methods.fair_coin_test, methods.frequency_estimator):
            for attr in ("decide", "decide_counts"):
                self._undo.append((method, attr, getattr(method, attr)))
            self._wrap_method(method)

    def uninstall(self) -> dict:
        """Restore every original and return this pass's metrics (without trace.*)."""
        for owner, name, original in reversed(self._undo):
            if isinstance(owner, InferenceMethod):
                object.__setattr__(owner, name, original)
            else:
                setattr(owner, name, original)
        self._undo.clear()
        out = {}
        for name, _, _ in METRICS:
            if name.startswith("trace."):
                continue
            out[name] = self._seconds[name] if name in TIMES else self._counts[name]
        points = self._counts["curve.points"]
        out["convergence.exact_share"] = self._counts["curve.exact_points"] / points if points else 0.0
        capacity = self._seconds["pool.capacity"]
        out["convergence.pool.utilization"] = self._seconds["pool.busy"] / capacity if capacity else 0.0
        calls = self._counts["methods.decide.calls"]
        out["methods.decide.tokens_per_stage"] = self._counts["methods.decide.tokens"] / calls if calls else 0.0
        return out
