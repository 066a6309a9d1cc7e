"""Batch front end: experiment configs, execution, and CSV/JSON persistence.

Subcommands: run, curve, verify, witness, bound.  Configs are single JSON
objects, read along one path (``_load_config``): the flags in ``_OVERRIDES``,
which run and curve take, overwrite their config keys; ``parse_config``
checks the document, leaving the numbers of its mode and budget sections to
``ModeParams`` and ``Budget``; then the problem and method are built.
Records embed a content digest, so a run can be tied back to the config that
produced it: the SHA-256 of the file bytes, or, when an override flag is
given, of the overridden document as canonical JSON (sorted keys, compact
separators).  verify and witness read either --config or --problem (witness
also --method), never both; witness --horizon is the length of the shared
prefix it compares, never a config override.  Exit codes: 0 success, 2
config error, 3 runtime/resource error (verify additionally exits 1 when
checks find violations).
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
    FiniteHypothesisSpace,
    InferenceMethod,
    InputDomainError,
    PreconditionError,
    ResourceBudgetError,
    _integer,
    validate_problem,
)
from .methods import erm_method, fair_coin_test, frequency_estimator, raven_rule
from .problems import (
    binary_classification,
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


def _distribution(rows) -> dict:
    """A [feature, label, probability] row list as a mapping; a pair listed twice is a config error."""
    table = {}
    for x, y, p in rows:
        if (x, y) in table:
            raise ConfigurationError(f"distributions: pair {[x, y]!r} listed twice")
        table[x, y] = p
    return table


def _classification(params: dict) -> EmpiricalProblem:
    return binary_classification(
        features=params.pop("features"),
        classifiers=[
            Classifier.from_mapping(
                _typed(c["name"], "classifiers.name", str), _typed(c["labels"], "classifiers.labels", dict)
            )
            for c in params.pop("classifiers")
        ],
        distributions=[_distribution(rows) for rows in params.pop("distributions")],
        seed=_world_seed(params),
    )


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
        space = problem.hypothesis_space
        pool = tuple(space) if isinstance(space, FiniteHypothesisSpace) else ()
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
        method = erm_method(pool)
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
    curve_path: str  # file names under the output directory
    record_path: str


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


def _checked(section: str, make, **kwargs):
    """make(**kwargs), which checks its own values; its InputDomainError is a config error in section."""
    try:
        return make(**kwargs)
    except (InputDomainError, OverflowError) as e:  # an integer too large for a float margin
        raise ConfigurationError(f"{section}: {e}") from None


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
    if stages is not None and not isinstance(stages, list):  # mode_params takes tuple() of it
        raise ConfigurationError("mode.stages: expected a list of integers")
    name = str(doc.get("name", "experiment"))
    return ExperimentConfig(
        name=name,
        problem_name=str(problem["name"]),
        problem_params=dict(_optional(problem, "problem", "params", dict) or {}),
        method_name=str(method["name"]),
        method_params=dict(_optional(method, "method", "params", dict) or {}),
        mode=_checked("mode", mode_params, **{"mode": None, "horizon": None, **mode}),
        budget=_checked("budget", Budget, **budget_doc),
        seed=_typed(doc.get("seed", 0), "seed"),
        workers=_checked("top level", _integer, value=doc.get("workers", 1), name="workers", least=1),
        curve_path=_optional(output, "output", "curve", str) or f"{name}-curve.csv",
        record_path=_optional(output, "output", "record", str) or f"{name}-record.json",
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
# Command-line interface


# The flags run and curve take that overwrite a config key: dest -> (section, None at the top level; help).
_OVERRIDES = {
    "seed": (None, "override the config seed"),
    "horizon": ("mode", "override the mode horizon"),
    "trials": ("budget", "override Monte Carlo trials"),
    "workers": (None, "worker thread count"),
}


def _load_config(args, with_method: bool = True):
    """The config --config names, with the _OVERRIDES flags args carries applied.

    Returns the parsed config; its digest, of the file bytes or, when a flag
    overrode a key, of the overridden document as canonical JSON; its problem;
    and its method, or None unless with_method.
    """
    path = Path(args.config)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise ConfigurationError(f"config: cannot read {path}: {e}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"config: invalid JSON at line {e.lineno}: {e.msg}") from None
    except UnicodeDecodeError as e:
        raise ConfigurationError(f"config: not UTF-8 text: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError("top level: expected a single experiment object")
    overrides = {key: getattr(args, key) for key in _OVERRIDES if getattr(args, key, None) is not None}
    for key, value in overrides.items():
        section = _OVERRIDES[key][0]
        target = doc.setdefault(section, {}) if section else doc
        if isinstance(target, dict):  # parse_config rejects a section that is not an object
            target[key] = value
    config = parse_config(doc)
    problem = build_problem(config.problem_name, config.problem_params)
    method = build_method(config.method_name, config.method_params, problem) if with_method else None
    return config, config_digest(canonical_bytes(doc) if overrides else raw), problem, method


def _problem_and_method(args, with_method: bool):
    """verify's and witness's problem and method: from --config (the method only where with_method),
    or the catalog entries --problem and --method name, with default params."""
    method_name = getattr(args, "method", None)  # verify has no --method
    if args.config:
        if method_name:
            raise ConfigurationError(f"{args.command}: --config names its own method; --method goes with --problem")
        _, _, problem, method = _load_config(args, with_method)
        return problem, method
    if not args.problem:
        raise ConfigurationError(f"{args.command}: needs --config or --problem")
    problem = build_problem(args.problem, {})
    return problem, build_method(method_name, {}, problem) if method_name else None


def _write(out: Path, text: str, name_in_dir: Optional[str] = None) -> Path:
    """Write text to out, or to out/name_in_dir where out is a directory, making its parent directories."""
    if name_in_dir is not None and out.is_dir():
        out = out / name_in_dir
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    return out


def _cmd_run(args) -> int:
    """Execute one experiment: mode check, curve CSV, record JSON."""
    t0 = time.perf_counter()
    config, digest, problem, method = _load_config(args)
    verdict = check_mode(
        problem, method, config.mode, budget=config.budget, seed=config.seed, workers=config.workers
    )
    out_dir = Path(args.out)
    curves = [] if verdict.curve is None else [config.curve_path]
    if curves:
        _write(out_dir / config.curve_path, curve_csv(verdict.curve))
    record = {
        "config_digest": digest,
        "seed": config.seed,
        "version": __version__,
        "status": verdict.status,
        "mode": verdict.mode,
        "horizon": verdict.horizon,
        "witness_world": verdict.witness_world,
        "verdicts": [asdict(wv) for wv in verdict.worlds],
        "curves": curves,
        "duration_ms": int((time.perf_counter() - t0) * 1000),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _write(out_dir / config.record_path, json.dumps(record, indent=2) + "\n")
    print(f"{config.name}: {verdict.status} (mode {verdict.mode}, horizon {verdict.horizon})")
    for wv in verdict.worlds:
        print(f"  {wv.world_id}: {wv.status} N={'-' if wv.threshold_stage is None else wv.threshold_stage}")
    return 0


def _cmd_curve(args) -> int:
    config, _, problem, method = _load_config(args)
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
    print(f"wrote {_write(Path(args.out) / config.curve_path, curve_csv(curve))}")
    return 0


def _cmd_verify(args) -> int:
    problem, _ = _problem_and_method(args, with_method=False)
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
    problem, method = _problem_and_method(args, with_method=args.depth is not None)
    doc = emit_witness(problem, method, depth=args.depth, horizon=args.prefix_horizon)
    text = json.dumps(doc, indent=2) + "\n"
    if args.out == ".":
        print(text, end="")
    else:
        print(f"wrote {_write(Path(args.out), text, f'{problem.name}-witness.json')}")
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
    print(f"wrote {_write(Path(args.out), emit_bound_table(eps_list, n_values), 'bounds.csv')}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convlab",
        description="Convergence-mode experiments for inductive inference methods.",
    )
    parser.add_argument("--version", action="version", version=f"convlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, handler, help, out=True):
        p = sub.add_parser(name, help=help)
        if out:
            p.add_argument("--out", default=".", help="output directory (or file where noted)")
        p.set_defaults(handler=handler)
        return p

    def config_with_overrides(p):
        p.add_argument("--config", required=True)
        for key, (_, text) in _OVERRIDES.items():
            p.add_argument(f"--{key}", type=int, help=text)

    def config_or_problem(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config")
        source.add_argument("--problem")

    config_with_overrides(subcommand("run", _cmd_run, "run a configured experiment"))
    p_curve = subcommand("curve", _cmd_curve, "emit a success curve CSV")
    config_with_overrides(p_curve)
    p_curve.add_argument("--kind", choices=["success", "success-set"], default="success")

    config_or_problem(subcommand("verify", _cmd_verify, "validate a problem's worlds", out=False))

    p_wit = subcommand("witness", _cmd_witness, "emit an unachievability witness")
    config_or_problem(p_wit)
    p_wit.add_argument("--method")
    p_wit.add_argument("--depth", type=int, default=None)
    p_wit.add_argument(
        "--horizon", dest="prefix_horizon", metavar="HORIZON", type=int, default=64,
        help="length of the shared prefix compared (not a config override)",
    )

    p_bound = subcommand("bound", _cmd_bound, "tabulate the analytic bound")
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
