"""Command-line front end.

Every subcommand reads an optional JSON config file, applies dotted-key
overrides and convenience flags, runs the corresponding library routine, and
writes a report (CSV or JSON) to the output path. Unknown config keys and
values of the wrong JSON type are rejected outright, randomized runs always
record their seed, and the fully-resolved configuration, seed included, is
echoed into the report: passed back as `--config`, it reproduces the report.

Each subcommand is one entry of `SUBCOMMANDS`: its help line, its config
defaults and its handler. The `persistence` and `verify-main` defaults are
the field defaults of `SweepConfig` and `MainTheoremConfig`, which their
handlers build from the resolved config as it stands.

The number of threads running trials is no config key: it never changes a
result, so it is a process setting, which `rng` reads from the environment.

Exit codes: 0 success, 2 configuration error, 3 flagged statistical failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, get_args, get_type_hints

import numpy as np

from .distributions import _GROUP_BYTES, DesignSpec, NoiseSpec, sample_design, sample_moments
from .erm import ClassSpec, solve_erm
from .experiments import MainTheoremConfig, SweepConfig, make_t0, run_counterexample, run_persistence_sweep, verify_main_theorem
from .fixed_points import alpha_star, beta_star, k_star
from .rates import RateInputs, rho_N, v1_v2
from .reports import Report, emit_report, record
from .rng import DEFAULT_SEED, WORKERS_ENV, derive_seed, trial_workers
from .smallball import check_count_inputs, choose_tau, estimate_Q, l2_l1_ratio, moment_ratio_p2, verify_empirical_smallball
from .versionspace import version_diameter

# convenience flags for config keys; a subcommand gets a flag only if its
# defaults have the key the flag sets, and the flag takes that default's type
VALUE_FLAGS = ("n", "N", "R", "sigma", "trials", "gamma", "delta", "u")

_DESIGN_DEFAULT = {"kind": "gaussian"}
_NOISE_DEFAULT = {"kind": "gaussian", "sigma": 0.5}

# the JSON types a value may take, by the type of its key's default
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), list: (list,), dict: (dict,)}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


class ConfigError(Exception):
    pass


def _nullable_types(cls) -> dict:
    """Field name -> T for each field of `cls` annotated `T | None`."""
    types = {}
    for name, hint in get_type_hints(cls).items():
        args = get_args(hint)
        if type(None) in args:
            (types[name],) = (arg for arg in args if arg is not type(None))
    return types


# key whose default is None -> the type of its other values, nested like a
# subcommand's defaults: the "design" and "noise" sub-keys p and kappa, and
# verify-main's alpha_trials and gamma_override. A top-level key is known only
# from a subcommand's defaults, so one map serves every subcommand.
_NULLABLE = {"design": _nullable_types(DesignSpec), "noise": _nullable_types(NoiseSpec), **_nullable_types(MainTheoremConfig)}


@dataclass(frozen=True)
class Subcommand:
    """One subcommand. handler: config, seed included -> (report, summary
    line, passed); routes: value flag -> the dotted config key it sets
    instead of its own name. A "design" or "noise" object accepts the
    sub-keys its default has, plus its nullable ones."""

    help: str
    defaults: dict
    handler: Callable
    routes: dict = field(default_factory=dict)


def _field_defaults(cls) -> dict:
    """Defaults of a config class's fields, tuples as lists, except `seed`,
    which has its own flag, and fields without one."""
    defaults = {}
    for f in fields(cls):
        default = f.default_factory() if f.default_factory is not MISSING else f.default
        if default is not MISSING and f.name != "seed":
            defaults[f.name] = list(default) if isinstance(default, tuple) else default
    return defaults


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _apply(config: dict, parts: list, value) -> None:
    """Set the key at the path `parts`, making objects along the way."""
    node = config
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    # an object merges into the object it replaces, so {} changes nothing
    if isinstance(value, dict) and isinstance(node.get(parts[-1]), dict):
        node[parts[-1]].update(value)
    else:
        node[parts[-1]] = value


def _check(config: dict, defaults: dict, nullable: dict, prefix: str) -> None:
    """Reject an unknown key, a value whose JSON type does not match its
    key's default, or, for a key whose default is None, is neither null nor
    of its `nullable` type, and a number that is NaN or infinite.

    A key is known if it has a default, if it is a nullable sub-key of an
    object, or if it is the top-level seed, which every report echoes."""
    for key, value in config.items():
        if not (key in defaults or (key in nullable if prefix else key == "seed")):
            raise ConfigError(f"unknown config key {prefix + key!r}")
        default = defaults.get(key)
        if default is not None:
            kind, alternative = type(default), ""
        elif key in nullable and value is not None:
            kind, alternative = nullable[key], " or null"
        else:
            continue
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
            raise ConfigError(f"config key {prefix + key!r} must be {_TYPE_NAMES[kind]}{alternative}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"config key {prefix + key!r} must be a finite number, got {value!r}")
        if kind is dict:
            _check(value, default, nullable.get(key, {}), prefix + key + ".")


def resolve_config(subcommand: str, config_path, overrides, flag_values: dict) -> dict:
    """The config a run reads: the subcommand's defaults, then the config
    file, the value flags and the --set overrides, each over the last. A
    "seed" in `flag_values`, the --seed flag, wins over all of them; without
    one, the seed is the config's or DEFAULT_SEED."""
    sub = SUBCOMMANDS[subcommand]
    config = json.loads(json.dumps(sub.defaults))  # deep copy of defaults
    if config_path is not None:
        if not os.path.exists(config_path):
            raise ConfigError(f"config file not found: {config_path}")
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: line {exc.lineno}, {exc.msg}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        for key, value in loaded.items():
            _apply(config, [key], value)
    for key, value in flag_values.items():
        if value is not None and key != "seed":
            _apply(config, sub.routes.get(key, key).split("."), value)
    for text in overrides or ():
        key, value = _parse_override(text)
        _apply(config, key.split("."), value)
    if flag_values.get("seed") is not None:
        config["seed"] = flag_values["seed"]
    _check(config, sub.defaults, _NULLABLE, "")
    seed = config.setdefault("seed", DEFAULT_SEED)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    return config


def _design_from(config: dict) -> DesignSpec:
    return DesignSpec(n=config["n"], **config["design"])


def _noise_from(config: dict) -> NoiseSpec:
    return NoiseSpec(**config["noise"])


def _class_from(config: dict) -> ClassSpec:
    n, R = config["n"], config["R"]
    t0 = make_t0(config.get("t0_shape", "zero"), config.get("t0_fraction", 0.0), n, R)
    return ClassSpec(n=n, R=R, t0=t0)


def _stats_result(kind: str, config: dict, stats: dict, summary: dict, line: str) -> tuple[Report, str, bool]:
    """A handler's result: a (statistic, value) row per entry of `stats`,
    `summary`, the summary line, and whether the summary says it passed."""
    report = Report(kind=kind, config=config, columns=("statistic", "value"))
    for stat, value in stats.items():
        report.add_row(statistic=stat, value=value)
    report.summary = summary
    return report, line, bool(summary["passed"])


def _rates(config: dict) -> tuple[Report, str, bool]:
    inputs = RateInputs(**{key: value for key, value in config.items() if key != "seed"})
    rho = rho_N(inputs)
    v1, v2, expo = v1_v2(inputs)
    stats = {"rho_N": rho, "v1": v1, "v2": v2, "v_max": max(v1, v2), "probability_exponent": expo}
    return _stats_result("rates", config, stats, {"rho_N": rho, "v1": v1, "v2": v2, "passed": True}, f"rho_N={rho:.6g} v1={v1:.6g} v2={v2:.6g}")


def _counterexample(config: dict) -> tuple[Report, str, bool]:
    report = run_counterexample(config["N"], config["trials"], seed=config["seed"])
    s = report.summary
    line = (
        f"deviation_p={s['deviation_probability']:.6g} onesided_failure_p={s['onesided_failure_probability']:.6g} "
        f"EZ2={s['empirical_EZ2']:.6g} (analytic {s['analytic_EZ2']:.6g})"
    )
    return report, line, bool(s["ez2_consistent"])


def _erm(config: dict) -> tuple[Report, str, bool]:
    cls = _class_from(config)
    moments = sample_moments(cls, _design_from(config), _noise_from(config), config["N"], config["seed"])
    result = solve_erm(moments, cls, tol=config["tol"], max_iter=config["max_iter"])
    stats = {"empirical_risk": result.empirical_risk, "iterations": result.iterations, "kkt_residual": result.kkt_residual, "error_l2": float(np.linalg.norm(result.t_hat - cls.t0))}
    return _stats_result("erm", config, stats, {"t_hat": result.t_hat.tolist(), "converged": result.converged, "passed": result.converged}, f"risk={result.empirical_risk:.6g} residual={result.kkt_residual:.3g} iters={result.iterations}")


def _fixed_point(kind: str) -> Callable:
    """The handler of the `alpha`, `beta` or `kstar` subcommand."""

    def handler(config: dict) -> tuple[Report, str, bool]:
        cls, design = _class_from(config), _design_from(config)
        if kind == "alpha":
            est = alpha_star(cls, design, _noise_from(config), config["N"], config["gamma"], config["delta"], trials=config["trials"], seed=config["seed"])
        else:
            fn = beta_star if kind == "beta" else k_star
            est = fn(cls, design, config["N"], config["gamma"], trials=config["trials"], seed=config["seed"])
        rec = record(est)
        lower, upper = rec["brackets"]
        stats = {"value": rec["value"], "lower_bracket": lower, "upper_bracket": upper, "stderr": rec["stderr"], "trials": rec["trials"]}
        return _stats_result(kind, config, stats, {"estimate": rec, "passed": True}, f"{kind}={rec['value']:.6g} bracket=[{lower:.6g},{upper:.6g}] flags={rec['flags']}")

    return handler


def _smallball(config: dict) -> tuple[Report, str, bool]:
    design, seed = _design_from(config), config["seed"]
    action = config["action"]
    if action == "estimate_q":
        (est,) = estimate_Q(design, [config["u"]], config["directions"], config["draws"], seed)
        return _stats_result("smallball", config, {"q_hat": est.q_hat, "stderr": est.stderr}, {"estimate": record(est), "passed": True}, f"Q_hat({config['u']:g})={est.q_hat:.6g} +- {est.stderr:.3g}")
    if action == "choose_tau":
        choice = choose_tau(design, config["directions"], config["draws"], seed)
        stats = {"tau": choice.tau, "q_at_2tau": choice.q_at_2tau, "gamma": choice.gamma, "gamma_beta": choice.gamma_beta}
        return _stats_result("smallball", config, stats, {"choice": record(choice), "passed": "small_ball_not_detectable" not in choice.flags}, f"tau={choice.tau:.6g} Q_hat(2tau)={choice.q_at_2tau:.6g} gamma={choice.gamma:.6g}")
    if action == "moment_ratio":
        ratio = moment_ratio_p2(design, config["p"], config["directions"], config["draws"], seed)
        return _stats_result("smallball", config, {"lp_l2_ratio": ratio}, {"lp_l2_ratio": ratio, "passed": True}, f"Lp/L2 ratio={ratio:.6g}")
    if action == "l2_l1":
        ratio = l2_l1_ratio(design, config["directions"], config["draws"], seed)
        return _stats_result("smallball", config, {"l2_l1_ratio": ratio}, {"l2_l1_ratio": ratio, "passed": True}, f"L2/L1 ratio={ratio:.6g}")
    if action == "verify_counts":
        cls = _class_from(config)
        check_count_inputs(cls, config["tau"], config["r"], config["N"], config["trials"], config["probes"])
        (est,) = estimate_Q(design, [2.0 * config["tau"]], config["directions"], config["draws"], seed)
        result = verify_empirical_smallball(design, cls, config["tau"], config["r"], config["N"], est.q_hat, config["trials"], config["probes"], seed)
        stats = {"success_fraction": result.success_fraction, "success_criterion": result.success_criterion, "count_threshold": result.count_threshold, "q_hat": result.q_hat}
        return _stats_result("smallball", config, stats, {"result": record(result), "passed": result.passed}, f"success_fraction={result.success_fraction:.6g} criterion={result.success_criterion:.6g}")
    raise ConfigError(f"unknown smallball action {action!r}")


def _version_space(config: dict) -> tuple[Report, str, bool]:
    # N = 0 is valid: with no data the null space is the whole space
    if config["N"] < 0:
        raise ValueError("sample size N must be nonnegative")
    cls = _class_from(config)
    design = _design_from(config)
    X = sample_design(design, config["N"], config["seed"]) if config["N"] > 0 else np.zeros((0, config["n"]))
    probe = version_diameter(X, cls, probes=config["probes"], seed=derive_seed(config["seed"], 1))
    stats = {"radius_lb": probe.radius_lb, "nullspace_dim": probe.nullspace_dim, "directions": probe.directions}
    return _stats_result("version_space", config, stats, {"probe": record(probe), "passed": True}, f"radius_lb={probe.radius_lb:.6g} nullspace_dim={probe.nullspace_dim}")


def _persistence(config: dict) -> tuple[Report, str, bool]:
    report = run_persistence_sweep(SweepConfig(**config))
    s = report.summary
    flags = [r["value"] for r in report.rows if r["statistic"] == "flagged"]  # one row per cell
    return report, f"cells={len(flags)} c_fit={s['c_fit']:.6g} flagged_cells={sum(flags)}", s["passed"]


def _verify_main(config: dict) -> tuple[Report, str, bool]:
    report = verify_main_theorem(MainTheoremConfig(**config))
    s = report.summary
    return report, f"frequency={s['frequency']:.6g} criterion={s['criterion']:.6g} bound={s['bound']:.6g}", bool(s["passed"])


SUBCOMMANDS = {
    "erm": Subcommand("solve one constrained least-squares instance", {"design": _DESIGN_DEFAULT, "noise": _NOISE_DEFAULT, "n": 16, "N": 128, "R": 1.0, "t0_shape": "spike", "t0_fraction": 0.5, "tol": 1e-9, "max_iter": 100000}, _erm),
    "beta": Subcommand("localized Rademacher fixed point (linear normalization)", {"design": _DESIGN_DEFAULT, "n": 16, "N": 128, "R": 1.0, "gamma": 0.05, "trials": 200}, _fixed_point("beta")),
    "alpha": Subcommand("multiplier-process quantile fixed point", {"design": _DESIGN_DEFAULT, "noise": _NOISE_DEFAULT, "n": 16, "N": 128, "R": 1.0, "gamma": 0.05, "delta": 0.1, "trials": 1000, "t0_shape": "spike", "t0_fraction": 0.5}, _fixed_point("alpha")),
    "kstar": Subcommand("localized Rademacher fixed point (quadratic normalization)", {"design": _DESIGN_DEFAULT, "n": 16, "N": 128, "R": 1.0, "gamma": 0.05, "trials": 200}, _fixed_point("kstar")),
    "smallball": Subcommand("small-ball probability estimation and diagnostics", {"design": _DESIGN_DEFAULT, "n": 16, "action": "estimate_q", "u": 0.5, "p": 4.0, "directions": 500, "draws": 10000, "tau": 0.5, "r": 0.5, "R": 1.0, "N": 256, "trials": 50, "probes": 100}, _smallball),
    "version-space": Subcommand("probe the version-space diameter", {"design": _DESIGN_DEFAULT, "n": 16, "N": 8, "R": 1.0, "t0_shape": "spike", "t0_fraction": 0.5, "probes": 1000}, _version_space),
    "rates": Subcommand("closed-form rate predictions", {"n": 100, "N": 100, "R": 1.0, "sigma": 0.5, **_field_defaults(RateInputs)}, _rates),
    "persistence": Subcommand("persistence-rate sweep comparing errors to predictions", _field_defaults(SweepConfig), _persistence),
    "counterexample": Subcommand("one-sided vs two-sided deviation demonstration", {"N": 100, "trials": 100000}, _counterexample),
    "verify-main": Subcommand("end-to-end check of the two-fixed-point error bound", _field_defaults(MainTheoremConfig), _verify_main, routes={"sigma": "noise.sigma"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ermbounds", description="Constrained least squares over l1 balls: fixed points, small-ball diagnostics, rate experiments.")
    parser.add_argument("--version", action="version", version="ermbounds 0.1.0")
    subparsers = parser.add_subparsers(dest="subcommand", metavar="{" + ",".join(SUBCOMMANDS) + "}")
    threads = f"${WORKERS_ENV} sets the threads running Monte Carlo and ERM trials: 0 or unset = every CPU this process may run on; never changes results"
    for name, sub in SUBCOMMANDS.items():
        sp = subparsers.add_parser(name, help=sub.help, epilog=threads)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE", help="dotted-key config override (repeatable)")
        sp.add_argument("--seed", type=int, default=None, help=f"master seed (default 0x{DEFAULT_SEED:X})")
        sp.add_argument("--output", default=None, help="report path (default <subcommand>_report.<fmt>)")
        sp.add_argument("--format", choices=("csv", "json"), default="json")
        for flag in VALUE_FLAGS:
            *parents, key = sub.routes.get(flag, flag).split(".")
            defaults = functools.reduce(dict.get, parents, sub.defaults)
            if key in defaults:
                sp.add_argument(f"--{flag}", type=type(defaults[key]), default=None)
    return parser


# glibc serves a block of its mmap threshold or more from a fresh mapping and
# raises the threshold to the size of each such block it frees. After one
# command, then, multi-MB arrays (a 500 x 1000 design and the QR buffers of
# `version_diameter` are 3.8 MiB each) come from the heap, where a small
# object that outlives them decides whether the next one reuses their pages:
# peak memory of repeated in-process runs stepped up by 3.7 MiB at an
# unpredictable run. Fixed thresholds keep arrays of MALLOC_MMAP_BYTES or more
# mapped and returned with each use, and trim the heap past twice that, the
# ratio glibc keeps itself. Lower thresholds map or trim the smaller blocks
# that ERM solves and trial threads reuse, and page faults then cost time.
# distributions sizes its row groups under the same threshold.
MALLOC_MMAP_BYTES = _GROUP_BYTES
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


@functools.cache
def _fix_malloc_thresholds() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc
        return
    mallopt(_M_MMAP_THRESHOLD, MALLOC_MMAP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * MALLOC_MMAP_BYTES)


def run(argv) -> int:
    _fix_malloc_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_help()
        return 2
    flag_values = {flag: getattr(args, flag) for flag in ("seed", *VALUE_FLAGS) if hasattr(args, flag)}
    output = args.output or f"{args.subcommand.replace('-', '_')}_report.{args.format}"
    try:
        trial_workers(0)  # a bad $ERMBOUNDS_WORKERS fails here, before any stage runs
        config = resolve_config(args.subcommand, args.config, args.set, flag_values)
        # a report that has nowhere to go fails before its run, not after
        if not os.path.isdir(os.path.dirname(output) or "."):
            raise ConfigError(f"output directory of {output!r} does not exist")
        if os.path.isdir(output):
            raise ConfigError(f"output {output!r} is a directory")
        report, line, ok = SUBCOMMANDS[args.subcommand].handler(config)
        emit_report(report, output, args.format)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.subcommand}: {line} -> {output}")
    return 0 if ok else 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
