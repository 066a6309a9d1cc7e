"""Batch front end: experiment configs, execution, and CSV/JSON persistence.

Subcommands: run, curve, verify, witness, bound.  Configs are single JSON
objects; records embed a content digest of the config so a run can be tied
back to the exact bytes that produced it.  Exit codes: 0 success, 2 config
error, 3 runtime/resource error (verify additionally exits 1 when checks
find violations).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from . import __version__
from .convergence import (
    Budget,
    ModeParams,
    SuccessCurve,
    Verdict,
    bernoulli_bound,
    cardinality_witness_report,
    check_mode,
    mode_params,
    success_set_curve,
    underdetermination_witness,
    MODE_IDENTIFICATION,
)
from .core import (
    Classifier,
    ConfigurationError,
    EmpiricalProblem,
    InferenceMethod,
    InputDomainError,
    PreconditionError,
    ResourceBudgetError,
    validate_problem,
)
from .methods import ErmConfig, erm_method, fair_coin_test, frequency_estimator, raven_rule
from .problems import (
    binary_classification,
    classification_task,
    coin_bias,
    easy_raven,
    fair_coin,
    fine_grained_raven,
)

CURVE_HEADER = "problem,method,world_id,n,criterion,estimate,stderr,exact,bound"
BOUND_HEADER = "n,eps,bound"


# ---------------------------------------------------------------------------
# Catalogs


_KIND_NAMES = {
    int: "an integer",
    (int, float): "a number",
    bool: "true or false",
    str: "a string",
    dict: "an object",
    list: "a list",
}


# JSON gives true/false, integers and other numbers their own types; strings,
# floats and booleans standing in for them are config errors, not values to coerce.
def _typed(value, key: str, kind=int):
    """value if JSON read it as kind (a key of _KIND_NAMES); a bool is never a number."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ConfigurationError(f"{key}: expected {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _world_seed(params: dict) -> int:
    return _typed(params.pop("world_seed", 0), "world_seed")


def _classification(params: dict) -> EmpiricalProblem:
    task = classification_task(
        features=params.pop("features"),
        classifiers=[
            Classifier.from_mapping(c["name"], _typed(c["labels"], "classifiers.labels", dict))
            for c in params.pop("classifiers")
        ],
        distributions=[{(x, y): p for x, y, p in table} for table in params.pop("distributions")],
    )
    return binary_classification(task, seed=_world_seed(params))


# Each builder pops the params it reads; build_problem rejects the rest.
_PROBLEM_BUILDERS = {
    "easy-raven": lambda params: easy_raven(
        max_first_zero=_typed(params.pop("max_first_zero", 20), "max_first_zero"),
        literal=_typed(params.pop("literal", False), "literal", bool),
    ),
    "fine-grained-raven": lambda params: fine_grained_raven(
        params.pop("p_grid"), seed=_world_seed(params)
    ),
    "fair-coin": lambda params: fair_coin(params.pop("theta_grid", None), seed=_world_seed(params)),
    "coin-bias": lambda params: coin_bias(params.pop("theta_grid", None), seed=_world_seed(params)),
    "binary-classification": _classification,
}

_CATALOG_METHODS = {m.name: m for m in (raven_rule, fair_coin_test, frequency_estimator)}


def _reject_unknown_keys(section: str, params: dict) -> None:
    if params:
        raise ConfigurationError(f"{section}: unknown keys {sorted(params)}")


def build_problem(name: str, params: dict) -> EmpiricalProblem:
    if name not in _PROBLEM_BUILDERS:
        raise ConfigurationError(f"problem.name: unknown problem {name!r}")
    params = dict(params or {})
    try:
        problem = _PROBLEM_BUILDERS[name](params)
    except KeyError as e:
        raise ConfigurationError(f"problem.params: missing {e.args[0]!r}") from None
    except (ValueError, TypeError) as e:
        raise ConfigurationError(f"problem.params: {e}") from None
    _reject_unknown_keys("problem.params", params)
    return problem


def build_method(name: str, params: dict, problem: EmpiricalProblem) -> InferenceMethod:
    params = dict(params or {})
    if name in _CATALOG_METHODS:
        method = _CATALOG_METHODS[name]
    elif name == "erm":
        pool = tuple(problem.hypothesis_space)
        if not pool or not all(isinstance(h, Classifier) for h in pool):
            raise ConfigurationError("method.name: erm needs a classification problem")
        order_names = params.pop("hypothesis_order", None)
        if order_names is not None:
            key = "method.params.hypothesis_order"
            by_name = {h.name: h for h in pool}
            try:
                pool = tuple(by_name[_typed(n, key, str)] for n in _typed(order_names, key, list))
            except KeyError as e:
                raise ConfigurationError(f"{key}: unknown classifier {e.args[0]!r}") from None
        method = erm_method(ErmConfig(pool))
    else:
        raise ConfigurationError(f"method.name: unknown method {name!r}")
    _reject_unknown_keys("method.params", params)
    return method


# ---------------------------------------------------------------------------
# Config parsing


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    problem_name: str
    problem_params: dict
    method_name: str
    method_params: dict
    mode: ModeParams
    budget: Budget
    seed: int
    workers: int
    curve_path: Optional[str]
    record_path: Optional[str]


def _section(doc: dict, key: str, keys: tuple, required: bool = True) -> dict:
    """The object doc[key], whose keys must all be among keys."""
    sec = doc.get(key)
    if sec is None:
        if required:
            raise ConfigurationError(f"{key}: section is required")
        return {}
    if not isinstance(sec, dict):
        raise ConfigurationError(f"{key}: expected an object")
    _reject_unknown_keys(key, set(sec) - set(keys))
    return sec


def _optional(sec: dict, section: str, key: str, kind):
    """sec[key] typed as kind, or None where it is absent or null."""
    value = sec.get(key)
    return None if value is None else _typed(value, f"{section}.{key}", kind)


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigurationError("top level: expected a single experiment object")
    top = ("name", "problem", "method", "mode", "budget", "seed", "workers", "output")
    _reject_unknown_keys("top level", set(doc) - set(top))
    problem = _section(doc, "problem", ("name", "params"))
    method = _section(doc, "method", ("name", "params"))
    mode = _section(doc, "mode", ("mode", "horizon", "delta", "epsilon", "stages", "world_ids"))
    budget_keys = ("strategy", "exact_enum_cap", "symmetric_exact_cap", "trials", "mc_margin")
    budget_doc = _section(doc, "budget", budget_keys, required=False)
    output = _section(doc, "output", ("curve", "record"), required=False)
    if "name" not in problem:
        raise ConfigurationError("problem.name: required")
    if "name" not in method:
        raise ConfigurationError("method.name: required")
    stages = mode.get("stages")
    if stages is not None and not isinstance(stages, list):
        raise ConfigurationError("mode.stages: expected a list of integers")
    try:
        mp = mode_params(
            mode=str(mode.get("mode", "")),
            horizon=_typed(mode.get("horizon", 0), "mode.horizon"),
            delta=mode.get("delta"),
            epsilon=mode.get("epsilon"),
            stages=None if stages is None else [_typed(n, "mode.stages") for n in stages],
            world_ids=mode.get("world_ids"),
        )
    except InputDomainError as e:
        raise ConfigurationError(f"mode: {e}") from None
    numbers = {
        key: _typed(budget_doc.get(key, getattr(Budget, key)), f"budget.{key}", kind)
        for key, kind in (
            ("exact_enum_cap", int),
            ("symmetric_exact_cap", int),
            ("trials", int),
            ("mc_margin", (int, float)),
        )
    }
    try:
        budget = Budget(strategy=str(budget_doc.get("strategy", "auto")), **numbers)
    except (InputDomainError, OverflowError) as e:  # an integer too large for a float margin
        raise ConfigurationError(f"budget: {e}") from None
    seed = _typed(doc.get("seed", 0), "seed")
    workers = _typed(doc.get("workers", 1), "workers")
    if workers < 1:
        raise ConfigurationError("workers: expected a positive integer")
    return ExperimentConfig(
        name=str(doc.get("name", "experiment")),
        problem_name=str(problem["name"]),
        problem_params=dict(_optional(problem, "problem", "params", dict) or {}),
        method_name=str(method["name"]),
        method_params=dict(_optional(method, "method", "params", dict) or {}),
        mode=mp,
        budget=budget,
        seed=seed,
        workers=workers,
        curve_path=_optional(output, "output", "curve", str),
        record_path=_optional(output, "output", "record", str),
    )


def config_digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def canonical_bytes(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


# ---------------------------------------------------------------------------
# Serialization


def curve_csv(curve: SuccessCurve) -> str:
    lines = [CURVE_HEADER]
    for pt in curve.points:
        bound = "" if pt.bound is None else repr(float(pt.bound))
        lines.append(
            f"{curve.problem},{curve.method},{pt.world_id},{pt.n},"
            f"{curve.criterion_label},{float(pt.estimate)!r},{float(pt.stderr)!r},"
            f"{'true' if pt.exact else 'false'},{bound}"
        )
    return "\n".join(lines) + "\n"


def emit_bound_table(eps_list, n_values) -> str:
    """CSV of the frequency-concentration lower bound over an (n, eps) grid."""
    lines = [BOUND_HEADER]
    for n in n_values:
        for eps in eps_list:
            b = bernoulli_bound(int(n), eps)
            lines.append(f"{int(n)},{float(eps)!r},{float(b)!r}")
    return "\n".join(lines) + "\n"


def verdict_rows(verdict: Verdict) -> list[dict]:
    return [
        {
            "world_id": wv.world_id,
            "status": wv.status,
            "threshold_stage": wv.threshold_stage,
            "note": wv.note,
        }
        for wv in verdict.worlds
    ]


@dataclass(frozen=True)
class RunRecord:
    config_digest: str
    seed: int
    version: str
    status: str
    mode: str
    horizon: int
    witness_world: Optional[str]
    verdicts: tuple
    curves: tuple[str, ...]
    duration_ms: int
    timestamp: str

    def to_json(self) -> dict:
        return asdict(self)


def emit_witness(
    problem: EmpiricalProblem,
    method: Optional[InferenceMethod] = None,
    *,
    depth: Optional[int] = None,
    horizon: int = 64,
) -> dict:
    """JSON-ready description of an unachievability witness.

    With a depth and a method: the never-output hypothesis value plus the
    enumerated-output summary.  Otherwise: a shared-branch world pair with
    distinct truths, or an explicit no-witness statement.
    """
    if depth is not None:
        if method is None:
            raise ConfigurationError("cardinality witness needs a method")
        try:
            rep = cardinality_witness_report(method, depth)
        except TypeError as e:
            raise ConfigurationError(f"method {method.name!r}: {e}") from None
        return {"kind": "cardinality", "problem": problem.name, "method": method.name, **rep}
    pair = underdetermination_witness(problem, horizon)
    if pair is None:
        return {
            "kind": "underdetermination",
            "problem": problem.name,
            "witness": None,
            "note": "every branch in the world family carries a single truth",
        }
    w1, w2 = pair
    return {
        "kind": "underdetermination",
        "problem": problem.name,
        "witness": {
            "world_ids": [w1.id, w2.id],
            "truths": [str(w1.truth), str(w2.truth)],
            "shared_branch": w1.branch.id,
            "prefix_equal_through": horizon,
            "prefix_sample": list(w1.branch.prefix(16)),
        },
    }


# ---------------------------------------------------------------------------
# Execution


def run(config: ExperimentConfig, digest: str, out_dir: Path) -> RunRecord:
    """Execute one experiment: mode check, curve CSV, record JSON."""
    t0 = time.perf_counter()
    problem = build_problem(config.problem_name, config.problem_params)
    method = build_method(config.method_name, config.method_params, problem)
    verdict = check_mode(
        problem,
        method,
        config.mode,
        budget=config.budget,
        seed=config.seed,
        workers=config.workers,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    curves = []
    if verdict.curve is not None:
        curve_name = config.curve_path or f"{config.name}-curve.csv"
        curve_file = out_dir / curve_name
        curve_file.write_text(curve_csv(verdict.curve))
        curves.append(curve_name)
    record = RunRecord(
        config_digest=digest,
        seed=config.seed,
        version=__version__,
        status=verdict.status,
        mode=verdict.mode,
        horizon=verdict.horizon,
        witness_world=verdict.witness_world,
        verdicts=tuple(verdict_rows(verdict)),
        curves=tuple(curves),
        duration_ms=int((time.perf_counter() - t0) * 1000),
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    record_name = config.record_path or f"{config.name}-record.json"
    (out_dir / record_name).write_text(json.dumps(record.to_json(), indent=2) + "\n")
    return record


# ---------------------------------------------------------------------------
# Command-line interface


def _load_config(args) -> tuple[ExperimentConfig, str]:
    path = Path(args.config)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise ConfigurationError(f"config: cannot read {path}: {e}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"config: invalid JSON at line {e.lineno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError("top level: expected a single experiment object")
    overridden = False
    overrides = (("seed", None), ("horizon", "mode"), ("trials", "budget"), ("workers", None))
    for flag, section in overrides:
        value = getattr(args, flag, None)
        if value is None:
            continue
        target = doc.setdefault(section, {}) if section else doc
        if isinstance(target, dict):  # parse_config rejects a section that is not an object
            target[flag] = value
            overridden = True
    digest = config_digest(canonical_bytes(doc) if overridden else raw)
    return parse_config(doc), digest


def _cmd_run(args) -> int:
    config, digest = _load_config(args)
    record = run(config, digest, Path(args.out))
    print(f"{config.name}: {record.status} (mode {record.mode}, horizon {record.horizon})")
    for row in record.verdicts:
        stage = "-" if row["threshold_stage"] is None else row["threshold_stage"]
        print(f"  {row['world_id']}: {row['status']} N={stage}")
    return 0


def _cmd_curve(args) -> int:
    config, _ = _load_config(args)
    problem = build_problem(config.problem_name, config.problem_params)
    method = build_method(config.method_name, config.method_params, problem)
    mode = config.mode
    if args.kind == "success-set":
        curve = success_set_curve(
            problem,
            method,
            mode.worlds_of(problem),
            mode.stages or range(1, mode.horizon + 1),
            horizon=mode.horizon,
            trials=config.budget.trials,
            seed=config.seed,
            strategy=config.budget.strategy,
        )
    elif mode.mode == MODE_IDENTIFICATION:
        raise ConfigurationError("mode: success curves need mode II or III")
    else:
        curve = check_mode(
            problem, method, mode, budget=config.budget, seed=config.seed, workers=config.workers
        ).curve
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / (config.curve_path or f"{config.name}-curve.csv")
    target.write_text(curve_csv(curve))
    print(f"wrote {target}")
    return 0


def _cmd_verify(args) -> int:
    if args.config:
        config, _ = _load_config(args)
        problem = build_problem(config.problem_name, config.problem_params)
    elif args.problem:
        problem = build_problem(args.problem, {})
    else:
        raise ConfigurationError("verify: needs --config or --problem")
    report = validate_problem(problem)
    for check in report.checks:
        flags = []
        if not check.truth_attains_zero:
            flags.append("truth-not-zero-loss")
        if check.rival_zero_loss is not None:
            flags.append(f"second-zero-loss-hypothesis={check.rival_zero_loss!r}")
        if not check.alphabet_ok:
            flags.append("alphabet-violation")
        print(f"{problem.name}/{check.world_id}: {'ok' if check.ok else ';'.join(flags)}")
    if report.all_ok:
        print(f"{problem.name}: all checks passed")
        return 0
    print(f"{problem.name}: violations found")
    return 1


def _cmd_witness(args) -> int:
    if args.config:
        config, _ = _load_config(args)
        problem = build_problem(config.problem_name, config.problem_params)
        method = (
            build_method(config.method_name, config.method_params, problem)
            if args.depth is not None
            else None
        )
    else:
        if not args.problem:
            raise ConfigurationError("witness: needs --config or --problem")
        problem = build_problem(args.problem, {})
        method = build_method(args.method, {}, problem) if args.method else None
    horizon = args.horizon if args.horizon is not None else 64
    doc = emit_witness(problem, method, depth=args.depth, horizon=horizon)
    text = json.dumps(doc, indent=2) + "\n"
    if args.out != ".":
        out = Path(args.out)
        if out.is_dir():
            out = out / f"{problem.name}-witness.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"wrote {out}")
    else:
        print(text, end="")
    return 0


def _cmd_bound(args) -> int:
    try:
        eps_list = [float(tok) for tok in args.eps.split(",") if tok.strip()]
    except ValueError:
        raise ConfigurationError(f"bound: bad eps list {args.eps!r}") from None
    if not eps_list:
        raise ConfigurationError("bound: eps list is empty")
    if args.n_min < 1 or args.n_max < args.n_min or args.n_step < 1:
        raise ConfigurationError("bound: need 1 <= n-min <= n-max and n-step >= 1")
    n_values = range(args.n_min, args.n_max + 1, args.n_step)
    text = emit_bound_table(eps_list, n_values)
    out = Path(args.out)
    if out.is_dir():
        out = out / "bounds.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    print(f"wrote {out}")
    return 0


_FLAGS = {  # each subcommand takes only those of these flags it reads
    "--seed": dict(type=int, help="override the config seed"),
    "--horizon": dict(type=int, help="override the mode horizon"),
    "--trials": dict(type=int, help="override Monte Carlo trials"),
    "--workers": dict(type=int, help="worker thread count"),
    "--out": dict(default=".", help="output directory (or file where noted)"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convlab",
        description="Convergence-mode experiments for inductive inference methods.",
    )
    parser.add_argument("--version", action="version", version=f"convlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, handler, help, flags=()):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler)
        return p

    p_run = subcommand("run", _cmd_run, "run a configured experiment", _FLAGS)
    p_run.add_argument("--config", required=True)

    p_curve = subcommand("curve", _cmd_curve, "emit a success curve CSV", _FLAGS)
    p_curve.add_argument("--config", required=True)
    p_curve.add_argument("--kind", choices=["success", "success-set"], default="success")

    p_verify = subcommand("verify", _cmd_verify, "validate a problem's worlds")
    p_verify.add_argument("--config")
    p_verify.add_argument("--problem")

    p_wit = subcommand("witness", _cmd_witness, "emit an unachievability witness", ("--horizon", "--out"))
    p_wit.add_argument("--config")
    p_wit.add_argument("--problem")
    p_wit.add_argument("--method")
    p_wit.add_argument("--depth", type=int, default=None)

    p_bound = subcommand("bound", _cmd_bound, "tabulate the analytic bound", ("--out",))
    p_bound.add_argument("--eps", required=True, help="comma-separated eps values")
    p_bound.add_argument("--n-min", type=int, default=1)
    p_bound.add_argument("--n-max", type=int, required=True)
    p_bound.add_argument("--n-step", type=int, default=1)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigurationError, InputDomainError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ResourceBudgetError, PreconditionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
