"""Config-driven command line for the whole pipeline.

Four subcommands cover the workflow: ``solve-alpha`` finds the root and
checks the tail-theorem conditions, ``simulate`` writes a batch and its
summary, ``analyze`` runs the tail and constant estimators over a saved
batch, and ``verify`` runs the internal cross-checks (measure
factorization, moment-bound grid, iteration convergence).

Configuration is a YAML file with nested sections; any leaf can be
overridden with ``--set section.key=value`` and a few dedicated flags,
with flag > file > default precedence.  Unknown keys are errors.

Exit codes: 0 success, 1 operational error (bad config, bad file,
solver or engine failure), 2 condition-check failure, 3 verification
failure.  Reports are JSON with a schema version and a timestamp (the
one field excluded from determinism comparisons); plot data is CSV.
"""

import argparse
import copy
import json
import math
import os
import re
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np
import yaml

from .constants import ConstantError, tail_constant_report
from .cramer import SolverError, check_conditions, solve_alpha
from .engine import (
    DEFAULT_BUDGET,
    KINDS,
    EngineError,
    _WidthError,
    _iterate_forest,
    _martingale_forest,
    read_batch_csv,
    recursion,
    run_batch,
    summary,
    truncation_bound,
    write_batch_csv,
)
from .model import ModelError, VectorModel, make_model, mean_se, verdict
from .moments import generation_moment_bound
from .renewal import (_MAX_CONVOLUTION, TEST_FUNCTIONS, TiltError,
                      factorization_checks)
from .tails import (DEFAULT_BOOTSTRAP, DEFAULT_QUANTILE_BAND, KS_THRESHOLD,
                    TailError, ks_distance, tail_report)

SCHEMA = "branchtail-report-v3"
OUTPUT_DIR_ENV = "BRANCHTAIL_OUTPUT_DIR"

DEFAULTS = {
    "model": None,
    "kind": "linear",
    "depth": 20,
    "reps": 10_000,
    "seed": 0,
    "workers": 1,
    "budget": DEFAULT_BUDGET,
    "output_dir": None,
    "truncation_beta": 0.5,
    "tails": {
        "k": None,
        "alpha": None,
        "quantile_band": list(DEFAULT_QUANTILE_BAND),
        "bootstrap": DEFAULT_BOOTSTRAP,
    },
    "verify": {
        "renewal_n": [1, 2, 3],
        "renewal_reps": 20_000,
        "moment_depths": [0, 1, 2, 3, 4, 5],
        "moment_betas": [0.5, 1.0, 1.5, 2.0],
        "moment_reps": 20_000,
        "iterate_depth": 12,
        "iterate_starts": [0.0, 100.0],
        "iterate_reps": 20_000,
    },
}


# A leaf takes the type of its default (an int passes as a float).  The
# defaults do not show which leaves may be None (mapped to the type they
# hold otherwise) and which lists have a fixed length.
_NULLABLE = {"depth": int, "output_dir": str, "tails.k": int,
             "tails.alpha": float}
_PAIRS = ("tails.quantile_band", "verify.iterate_starts")
# The largest moment order: K_beta builds every integer order below beta
# from one series of that many terms: 2^10 terms take about 0.02 s, and
# 0.01 s more per count value where the count law is bounded
_MAX_ORDER = 2 ** 10
# Ranges, judged once the types hold; every float must also be finite.
_RANGES = (
    ("seed", lambda v: 0 <= v < 2 ** 64, "in [0, 2^64)"),
    ("truncation_beta", lambda v: 0 < v <= _MAX_ORDER, "in (0, 2^10]"),
    ("tails.bootstrap", lambda v: v == 0 or v >= 2, "0 or >= 2"),
    ("verify.renewal_reps", lambda v: v >= 2, ">= 2"),
    ("verify.moment_reps", lambda v: v >= 2, ">= 2"),
    ("verify.iterate_reps", lambda v: v >= 2, ">= 2"),
    ("verify.renewal_n", lambda v: all(1 <= n <= _MAX_CONVOLUTION for n in v),
     f"in 1..{_MAX_CONVOLUTION}"),
    ("verify.moment_depths", lambda v: min(v, default=0) >= 0, ">= 0"),
    ("verify.moment_betas", lambda v: all(0 < b <= _MAX_ORDER for b in v),
     "in (0, 2^10]"),
    ("verify.iterate_starts", lambda v: min(v) >= 0, ">= 0"),
)


class ConfigError(ValueError):
    """Malformed run configuration."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 as bad input: 2 is a failed condition
        raise ConfigError(f"{self.prog}: {message}")


# libyaml, where PyYAML has it, parses a config about six times faster
# than PyYAML's Python parser; resolvers run in Python under both
_SafeLoader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class _Loader(_SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats such as 1e-12 or 1.5e3.

    PyYAML follows YAML 1.1, whose floats need a dot and a signed
    exponent, so it reads ``1e-12`` as a string.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)"
               r"[eE][-+]?[0-9]+$"),
    list("-+0123456789."))
# PyYAML's constructors raise these, not a YAMLError, on a tagged scalar
# they cannot build (!!float ., !!int x, !!timestamp x); UnicodeError,
# text that is not UTF-8, is a ValueError too
_BUILD_ERRORS = (ArithmeticError, AttributeError, LookupError, ValueError)


def _merge_into(base, incoming, path=""):
    """Recursive dict merge; keys absent from the skeleton are errors."""
    for key, value in incoming.items():
        here = f"{path}{key}"
        if key not in base:
            while isinstance(value, dict) and value:  # name its first leaf
                key, value = next(iter(value.items()))
                here += f".{key}"
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            _merge_into(base[key], value, here + ".")
        else:
            base[key] = value  # _check_leaves judges the type


def _apply_set(config, assignment):
    """One --set override, 'dotted.path=yaml-scalar'."""
    if "=" not in assignment:
        raise ConfigError(f"--set needs key=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    keys = dotted.strip().split(".")
    target = config
    for key in keys[:-1]:
        if not isinstance(target.get(key), dict):
            raise ConfigError(f"unknown config key: {dotted}")
        target = target[key]
    leaf = keys[-1]
    if keys[0] != "model" and leaf not in target:
        raise ConfigError(f"unknown config key: {dotted}")
    # a YAML mapping such as two-point values may hold integer keys
    leaf = next((key for key in target
                 if type(key) is int and str(key) == leaf), leaf)
    try:
        target[leaf] = yaml.load(raw, Loader=_Loader)
    except _BUILD_ERRORS as err:  # or a lone surrogate: argv not UTF-8
        raise ConfigError(f"--set {dotted}: {raw!r}: {err}") from None


def load_config(path, sets=(), **flag_overrides):
    """Merge defaults <- file <- --set pairs <- dedicated flags."""
    config = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path) as handle:
                loaded = yaml.load(handle, Loader=_Loader)
        except UnicodeError as err:
            raise ConfigError(f"cannot decode {path}: {err}") from None
        except _BUILD_ERRORS as err:
            raise ConfigError(f"cannot read {path}: {err}") from None
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a mapping")
        _merge_into(config, loaded)
    for assignment in sets:
        _apply_set(config, assignment)
    for key, value in flag_overrides.items():
        if value is not None:
            config[key] = value
    if config["model"] is None:
        raise ConfigError("config needs a model section")
    if config["depth"] in ("exact", "none"):
        config["depth"] = None
    _check_leaves(config)
    for dotted, holds, wanted in _RANGES:
        value = config
        for key in dotted.split("."):
            value = value[key]
        if not holds(value):
            raise ConfigError(f"{dotted} must be {wanted}, got {value!r}")
    if config["kind"] not in KINDS:
        raise ConfigError(f"kind must be one of {', '.join(KINDS)}, "
                          f"got {config['kind']!r}")
    return config


def _like(value, default):
    if isinstance(default, list):
        return (isinstance(value, list)
                and all(_like(x, default[0]) for x in value))
    return (type(value) is type(default)
            or (type(value) is int and type(default) is float))


def _check_leaves(config, defaults=DEFAULTS, path=""):
    """Reject a leaf of the wrong type or length, or a float not finite."""
    for key, default in defaults.items():
        dotted, value = path + key, config[key]
        if dotted == "model" or (value is None and dotted in _NULLABLE):
            continue  # make_model checks the model; None is allowed here
        if isinstance(default, dict):
            if not isinstance(value, dict) or value.keys() != default.keys():
                raise ConfigError(f"{dotted} must map each of its leaves")
            _check_leaves(value, default, dotted + ".")
            continue
        if dotted in _NULLABLE:
            default = _NULLABLE[dotted]()
        if _like(value, default) and (dotted not in _PAIRS or len(value) == 2):
            items = value if isinstance(value, list) else [value]
            if not all(math.isfinite(x) for x in items
                       if isinstance(x, float)):
                raise ConfigError(f"{dotted} must be finite, got {value!r}")
            continue
        wanted = type(default).__name__
        if isinstance(default, list):
            count = "2 " if dotted in _PAIRS else ""
            wanted = f"a list of {count}{type(default[0]).__name__}"
        raise ConfigError(f"{dotted} must be {wanted}, got {value!r}")


def _output_dir(config):
    out = config.get("output_dir") or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path, payload):
    payload = _jsonable(payload)
    payload["schema"] = SCHEMA
    payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    print(path)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row))
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    print(path)


def _jsonable(value):
    """A strict-JSON copy: infinities as "inf"/"-inf", NaN as null."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    value = float(value)
    if math.isnan(value):
        return None
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


# subcommands


def _solve_and_check(config, model):
    """Root and theorem-condition report; raises SolverError without a root."""
    sol = solve_alpha(model)
    return sol, check_conditions(model, sol, config["kind"])


def cmd_solve_alpha(config):
    model = make_model(config["model"])
    try:
        sol, conditions = _solve_and_check(config, model)
    except SolverError as err:
        print(f"solver failed: {err}", file=sys.stderr)
        return 1
    out = os.path.join(_output_dir(config), "alpha_solution.json")
    _write_json(out, {
        "alpha": sol.alpha,
        "mu": sol.mu,
        "residual": sol.residual,
        "root_kind": sol.root_kind,
        "kind": config["kind"],
        "conditions": [asdict(e) for e in conditions.entries],
        "passed": conditions.overall_pass,
    })
    return 0 if conditions.overall_pass else 2


def _precheck(config, model):
    """Solve and check conditions ahead of a simulation."""
    try:
        _, conditions = _solve_and_check(config, model)
    except SolverError as err:
        return f"cannot certify the model (solver: {err})"
    if not conditions.overall_pass:
        failed = [e.name for e in conditions.entries if e.status != "pass"]
        return "condition check failed: " + ", ".join(sorted(failed))
    return None


def cmd_simulate(config, force=False):
    model = make_model(config["model"])
    if (config["depth"] is None and model.n_law.prob_zero() > 0.0
            and model.n_law.mean() >= 1.0):
        # a tree that need not end grows to the node budget (10^7 nodes by
        # default); run_batch still takes such a law from a caller who
        # bounds each tree with a small budget
        raise EngineError(
            "exact mode needs E[N] < 1 so the expected tree size is finite")
    if not force:
        problem = _precheck(config, model)
        if problem is not None:
            print(problem + " (use --force to simulate anyway)",
                  file=sys.stderr)
            return 2
    batch = run_batch(model, config["kind"], config["depth"], config["reps"],
                      budget=config["budget"], seed=config["seed"],
                      workers=config["workers"])
    out_dir = _output_dir(config)
    batch_path = os.path.join(out_dir, "batch.csv")
    write_batch_csv(batch, batch_path)
    print(batch_path)
    info = summary(batch)
    bound = None
    _, toll = recursion(config["kind"])
    if config["depth"] is not None and toll is not None:
        bound = truncation_bound(model, config["truncation_beta"],
                                 config["depth"])
    info["truncation_bound"] = bound
    info["truncation_beta"] = config["truncation_beta"]
    _write_json(os.path.join(out_dir, "summary.json"), info)
    return 0


def cmd_analyze(config, batch_path):
    model = make_model(config["model"])
    try:
        batch = read_batch_csv(batch_path)
    except (OSError, ValueError) as err:  # EngineError, or bytes not UTF-8
        print(f"cannot read batch: {err}", file=sys.stderr)
        return 1
    if batch.model_fingerprint != model.fingerprint():
        print("batch was sampled from a different model than configured",
              file=sys.stderr)
        return 1
    tails_cfg = config["tails"]
    # the bootstrap keeps the seed's own stream; the MC H gets a child
    (constant_seed,) = np.random.SeedSequence(config["seed"]).spawn(1)
    try:
        report = tail_report(
            batch,
            alpha=tails_cfg["alpha"],
            k=tails_cfg["k"],
            quantile_band=tuple(tails_cfg["quantile_band"]),
            bootstrap=tails_cfg["bootstrap"],
            rng=np.random.default_rng(config["seed"]),
        )
    except TailError as err:
        print(f"tail analysis failed: {err}", file=sys.stderr)
        return 1
    out_dir = _output_dir(config)
    _write_json(os.path.join(out_dir, "tail_report.json"), report.to_dict())
    _write_csv(os.path.join(out_dir, "hill_sweep.csv"),
               ["k", "alpha_hat", "std_error"], report.sweep)
    _write_csv(os.path.join(out_dir, "survival.csv"),
               ["threshold", "survival", "std_error"], report.survival)

    constant_payload = {"available": False, "reason": None}
    try:
        sol = solve_alpha(model)
        constant = tail_constant_report(
            model, sol, batch.kind, r_batch=batch,
            rng=np.random.default_rng(constant_seed))
        constant_payload = dict(constant.to_dict(), available=True)
    except (SolverError, ConstantError) as err:
        constant_payload["reason"] = str(err)
    _write_json(os.path.join(out_dir, "constant_report.json"),
                constant_payload)
    return 0


def _over_cap(capped, err, check, **fields):
    """The one entry of a check whose forest outgrew the width cap."""
    capped.append(err)
    return dict(fields, check=check, status="precondition-unmet",
                reason=str(err), holds=None)


def _verify_renewal(config, model, rng, capped):
    """Factorization checks on one forest, up to the first n left out."""
    checks, ns = [], set()  # ns stays empty unless alpha is solved
    try:
        alpha = solve_alpha(model).alpha
        ns = set(config["verify"]["renewal_n"])
        for report in factorization_checks(
                model, alpha, ns, TEST_FUNCTIONS,
                config["verify"]["renewal_reps"], rng, config["budget"]):
            checks.append(dict(report.to_dict(),
                               check="measure-factorization"))
    except _WidthError as err:
        checks.append(_over_cap(capped, err, "measure-factorization",
                                n=min(ns - {c["n"] for c in checks})))
    except (SolverError, TiltError) as err:
        n = min(ns - {c["n"] for c in checks}, default=None)
        checks.append({"check": "measure-factorization",
                       "status": "precondition-unmet",
                       "reason": str(err) if n is None else f"n={n}: {err}",
                       "holds": None})
    return checks


def _verify_moment_grid(config, model, rng, capped, corrupt=False):
    """Generation-moment bound cells, on a forest grown from ``rng``."""
    cells = []
    depths = sorted(set(config["verify"]["moment_depths"]))
    betas = config["verify"]["moment_betas"]
    try:
        w = _martingale_forest(model, depths, config["verify"]["moment_reps"],
                               config["budget"], rng)
    except _WidthError as err:
        return [_over_cap(capped, err, "generation-moment-bound")]
    # W_n weighs generation n by marks, so the bound takes the mark law
    marked = VectorModel(model.n_law, model.c_law, model.mark_law,
                         model.c_scale)
    for n in depths:
        for beta in betas:
            cell = {"check": "generation-moment-bound", "n": n, "beta": beta}
            cells.append(cell)
            bound = generation_moment_bound(marked, beta, n)
            if math.isinf(bound.value):
                cell.update(status="precondition-unmet", holds=None)
                continue
            estimate, se = mean_se(w[n] ** beta)
            bound_value = bound.value
            cell["status"] = "checked"
            if corrupt:
                bound_value = estimate / 2.0  # self-test: must now fail
                cell["status"] = "self-test-corrupted"
            cell.update(estimate=estimate, std_error=se, bound=bound_value,
                        bound_method=bound.method,
                        holds=verdict(estimate, bound_value, se))
    return cells


def _verify_iteration(config, model, rng, capped):
    starts = config["verify"]["iterate_starts"]
    n = config["verify"]["iterate_depth"]
    children, toll = recursion(config["kind"])
    kind = config["kind"] if children is toll else "linear"
    try:
        recursion(kind, model)  # a toll fixed at 0 has no iterate
    except EngineError as err:
        return [{"check": "iteration-convergence", "n": n, "holds": None,
                 "status": "precondition-unmet", "reason": str(err)}]
    try:
        first, second = _iterate_forest(model, kind, n, starts,
                                        config["verify"]["iterate_reps"],
                                        config["budget"], rng)
    except _WidthError as err:
        return [_over_cap(capped, err, "iteration-convergence", n=n)]
    ks = ks_distance(first, second)
    return [{
        "check": "iteration-convergence",
        "n": n,
        "starts": [float(s) for s in starts],
        "ks_distance": ks,
        "threshold": KS_THRESHOLD,
        "holds": verdict(ks, KS_THRESHOLD),
    }]


def cmd_verify(config, corrupt_bound_self_test=False):
    model = make_model(config["model"])
    # one generator per use: renewal keeps the seed's own stream
    grid_rng, iterate_rng = map(
        np.random.default_rng, np.random.SeedSequence(config["seed"]).spawn(2))
    capped = []  # forests over the width cap, each ending one check
    checks = _verify_renewal(config, model,
                             np.random.default_rng(config["seed"]), capped)
    cells = _verify_moment_grid(config, model, grid_rng, capped,
                                corrupt=corrupt_bound_self_test)
    if corrupt_bound_self_test and all(
            c["status"] != "self-test-corrupted" for c in cells):
        raise ConfigError("the bound self-test found no checked moment "
                          "cell to corrupt")
    checks.extend(cells)
    checks.extend(_verify_iteration(config, model, iterate_rng, capped))
    flags = [c.get("holds", c.get("agree")) for c in checks]
    verdicts = [f for f in flags if f is not None]
    if capped and not verdicts:
        raise capped[0]  # the cap left nothing checked: an operational error
    all_ok = all(verdicts) if verdicts else False
    _write_json(os.path.join(_output_dir(config), "verification.json"), {
        "checks": checks,
        "checked": len(verdicts),
        "skipped": len(flags) - len(verdicts),
        "passed": all_ok,
    })
    return 0 if all_ok else 3


def _build_parser():
    parser = _Parser(
        prog="branchtail",
        description="simulation and tail analysis for branching fixed points")
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--set", action="append", default=[], dest="sets",
                        metavar="KEY=VALUE", help="override one config leaf")
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--kind", default=None)
    # load_config judges every spelling of a depth but digits
    parser.add_argument("--depth", help="integer depth, or 'exact'",
                        type=lambda text: int(text) if text.isdigit() else text)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve-alpha")
    simulate = sub.add_parser("simulate")
    simulate.add_argument("--force", action="store_true",
                          help="skip the condition precheck")
    analyze = sub.add_parser("analyze")
    analyze.add_argument("--batch", required=True, help="batch CSV path")
    verify = sub.add_parser("verify")
    verify.add_argument("--corrupt-bound-self-test", action="store_true",
                        help="corrupt one bound to prove failures surface")
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        config = load_config(
            args.config, sets=args.sets, output_dir=args.output_dir,
            seed=args.seed, reps=args.reps, workers=args.workers,
            kind=args.kind, depth=args.depth)
    except (ConfigError, ModelError, OSError, yaml.YAMLError) as err:
        # a YAML error spans several lines; the message must keep to one
        print("config error:", *str(err).split(), file=sys.stderr)
        return 1
    try:
        if args.command == "solve-alpha":
            return cmd_solve_alpha(config)
        if args.command == "simulate":
            return cmd_simulate(config, force=args.force)
        if args.command == "analyze":
            return cmd_analyze(config, args.batch)
        return cmd_verify(
            config, corrupt_bound_self_test=args.corrupt_bound_self_test)
    except (ModelError, EngineError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 1


def main_entry():
    sys.exit(main())
