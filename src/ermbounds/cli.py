"""Command-line front end.

Every subcommand reads an optional JSON config file, applies dotted-key
overrides and convenience flags, runs the corresponding library routine, and
writes a report (CSV or JSON) to the output path. Unknown config keys are
rejected outright, randomized runs always record their seed, and the
fully-resolved configuration is echoed into the report.

Exit codes: 0 success, 2 configuration error, 3 flagged statistical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .distributions import DesignSpec, NoiseSpec, make_sample
from .erm import ClassSpec, solve_erm
from .experiments import MainTheoremConfig, SweepConfig, make_t0, run_counterexample, run_persistence_sweep, verify_main_theorem
from .fixed_points import alpha_star, beta_star, k_star
from .rates import RateInputs, rho_N, v1_v2
from .reports import Report, emit_report
from .rng import derive_seed
from .smallball import choose_tau, estimate_Q, l2_l1_ratio, moment_ratio_p2, verify_empirical_smallball
from .versionspace import version_diameter

DEFAULT_SEED = 0x5EED
WORKERS_ENV = "ERMBOUNDS_WORKERS"

SUBCOMMANDS = ("erm", "beta", "alpha", "kstar", "smallball", "version-space", "rates", "persistence", "counterexample", "verify-main")


class ConfigError(Exception):
    pass


# allowed keys and defaults per subcommand; None means "required"
_DESIGN_DEFAULT = {"kind": "gaussian"}
_NOISE_DEFAULT = {"kind": "gaussian", "sigma": 0.5}

SCHEMAS = {
    "erm": {"design": _DESIGN_DEFAULT, "noise": _NOISE_DEFAULT, "n": 16, "N": 128, "R": 1.0, "t0_shape": "spike", "t0_fraction": 0.5, "tol": 1e-9, "max_iter": 100000},
    "beta": {"design": _DESIGN_DEFAULT, "n": 16, "N": 128, "R": 1.0, "gamma": 0.05, "trials": 200},
    "alpha": {"design": _DESIGN_DEFAULT, "noise": _NOISE_DEFAULT, "n": 16, "N": 128, "R": 1.0, "gamma": 0.05, "delta": 0.1, "trials": 1000, "t0_shape": "spike", "t0_fraction": 0.5},
    "kstar": {"design": _DESIGN_DEFAULT, "n": 16, "N": 128, "R": 1.0, "gamma": 0.05, "trials": 200},
    "smallball": {"design": _DESIGN_DEFAULT, "n": 16, "action": "estimate_q", "u": 0.5, "p": 4.0, "directions": 500, "draws": 10000, "tau": 0.5, "r": 0.5, "R": 1.0, "N": 256, "trials": 50, "probes": 100},
    "version-space": {"design": _DESIGN_DEFAULT, "n": 16, "N": 8, "R": 1.0, "t0_shape": "spike", "t0_fraction": 0.5, "probes": 1000},
    "rates": {"n": 100, "N": 100, "R": 1.0, "sigma": 0.5, "c1": 1.0, "c2": 1.0, "c3": 1.0},
    "persistence": {"design": {"kind": "rademacher"}, "noise": _NOISE_DEFAULT, "n_grid": [64], "N_grid": [512, 1024], "R_grid": [1.0], "sigma_grid": [0.5], "trials": 20, "tol": 1e-9, "t0_shape": "zero", "t0_fraction": 0.0},
    "counterexample": {"N": 100, "trials": 100000},
    "verify-main": {"design": _DESIGN_DEFAULT, "noise": _NOISE_DEFAULT, "n": 32, "N": 512, "R": 1.0, "delta": 0.1, "trials": 200, "t0_shape": "spike", "t0_fraction": 0.5, "alpha_trials": None, "beta_trials": 200, "tau_directions": 300, "tau_draws": 10000, "tol": 1e-8, "gamma_override": None},
}


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _apply_dotted(config: dict, key: str, value) -> None:
    parts = key.split(".")
    node = config
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def _validate_keys(config: dict, schema: dict, prefix: str = "") -> None:
    for key, value in config.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {prefix + key!r}")
        if isinstance(value, dict) and key in ("design", "noise"):
            allowed = {"kind", "sigma", "p", "kappa", "n"}
            for sub in value:
                if sub not in allowed:
                    raise ConfigError(f"unknown config key {prefix + key + '.' + sub!r}")


def resolve_config(subcommand: str, config_path, overrides, flag_values: dict) -> dict:
    schema = SCHEMAS[subcommand]
    config = json.loads(json.dumps(schema))  # deep copy of defaults
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
        _validate_keys(loaded, schema)
        for key, value in loaded.items():
            if isinstance(value, dict) and isinstance(config.get(key), dict):
                config[key].update(value)
            else:
                config[key] = value
    for key, value in flag_values.items():
        if value is None:
            continue
        if key == "sigma" and "sigma" not in schema and "noise" in schema:
            key = "noise.sigma"
        _apply_dotted(config, key, value)
    for text in overrides or ():
        key, value = _parse_override(text)
        head = key.split(".")[0]
        if head not in schema:
            raise ConfigError(f"unknown config key {key!r}")
        _apply_dotted(config, key, value)
        _validate_keys(config, schema)
    return config


def _design_from(config: dict, n: int) -> DesignSpec:
    rec = dict(config.get("design", {"kind": "gaussian"}))
    rec.pop("n", None)
    return DesignSpec(n=n, **rec)


def _noise_from(config: dict) -> NoiseSpec:
    return NoiseSpec(**config.get("noise", {"kind": "zero"}))


def _class_from(config: dict) -> ClassSpec:
    n, R = config["n"], config["R"]
    t0 = make_t0(config.get("t0_shape", "spike"), config.get("t0_fraction", 0.5), n, R)
    return ClassSpec(n=n, R=R, t0=t0)


def _fixed_point_report(kind: str, estimate, config: dict) -> tuple[Report, str, bool]:
    report = Report(kind=kind, config=config, columns=("statistic", "value"))
    rec = estimate.to_record()
    report.add_row(statistic="value", value=rec["value"])
    report.add_row(statistic="lower_bracket", value=rec["brackets"][0])
    report.add_row(statistic="upper_bracket", value=rec["brackets"][1])
    report.add_row(statistic="stderr", value=rec["stderr"])
    report.add_row(statistic="trials", value=rec["trials"])
    report.summary = {"estimate": rec, "passed": True}
    summary = f"{kind}={rec['value']:.6g} bracket=[{rec['brackets'][0]:.6g},{rec['brackets'][1]:.6g}] flags={rec['flags']}"
    return report, summary, True


def _run_subcommand(args) -> tuple[Report, str, bool]:
    sub = args.subcommand
    flag_values = {}
    for name in ("n", "N", "R", "sigma", "trials", "gamma", "delta", "u"):
        if hasattr(args, name):
            flag_values[name] = getattr(args, name)
    config = resolve_config(sub, args.config, args.set, flag_values)
    seed = args.seed if args.seed is not None else config.get("seed", DEFAULT_SEED)
    config["seed"] = seed
    # workers is a scheduling hint, deliberately kept out of the echoed
    # config so reports stay byte-identical across worker counts
    workers = args.workers

    if sub == "rates":
        inputs = RateInputs(N=config["N"], n=config["n"], R=config["R"], sigma=config["sigma"], c1=config["c1"], c2=config["c2"], c3=config["c3"])
        rho = rho_N(inputs)
        v1, v2, expo = v1_v2(inputs)
        report = Report(kind="rates", config=config, columns=("statistic", "value"))
        for stat, value in (("rho_N", rho), ("v1", v1), ("v2", v2), ("v_max", max(v1, v2)), ("probability_exponent", expo)):
            report.add_row(statistic=stat, value=value)
        report.summary = {"rho_N": rho, "v1": v1, "v2": v2, "passed": True}
        return report, f"rho_N={rho:.6g} v1={v1:.6g} v2={v2:.6g}", True

    if sub == "counterexample":
        report = run_counterexample(config["N"], config["trials"], seed=seed)
        s = report.summary
        ok = bool(s["ez2_consistent"])
        line = (
            f"deviation_p={s['deviation_probability']:.6g} onesided_failure_p={s['onesided_failure_probability']:.6g} "
            f"EZ2={s['empirical_EZ2']:.6g} (analytic {s['analytic_EZ2']:.6g})"
        )
        report.config = config
        return report, line, ok

    if sub == "erm":
        cls = _class_from(config)
        design = _design_from(config, config["n"])
        noise = _noise_from(config)
        sample = make_sample(cls, design, noise, config["N"], seed)
        result = solve_erm(sample, cls, tol=config["tol"], max_iter=config["max_iter"])
        report = Report(kind="erm", config=config, columns=("statistic", "value"))
        report.add_row(statistic="empirical_risk", value=result.empirical_risk)
        report.add_row(statistic="iterations", value=result.iterations)
        report.add_row(statistic="kkt_residual", value=result.kkt_residual)
        report.add_row(statistic="error_l2", value=float(np.linalg.norm(result.t_hat - cls.t0)))
        report.summary = {"t_hat": result.t_hat.tolist(), "converged": result.converged, "passed": result.converged}
        return report, f"risk={result.empirical_risk:.6g} residual={result.kkt_residual:.3g} iters={result.iterations}", result.converged

    if sub in ("beta", "kstar"):
        cls = ClassSpec(n=config["n"], R=config["R"], t0=np.zeros(config["n"]))
        design = _design_from(config, config["n"])
        fn = beta_star if sub == "beta" else k_star
        est = fn(cls, design, config["N"], config["gamma"], trials=config["trials"], seed=seed, workers=workers)
        return _fixed_point_report(sub, est, config)

    if sub == "alpha":
        cls = _class_from(config)
        design = _design_from(config, config["n"])
        noise = _noise_from(config)
        est = alpha_star(cls, design, noise, config["N"], config["gamma"], config["delta"], trials=config["trials"], seed=seed, workers=workers)
        return _fixed_point_report("alpha", est, config)

    if sub == "smallball":
        design = _design_from(config, config["n"])
        action = config["action"]
        report = Report(kind="smallball", config=config, columns=("statistic", "value"))
        if action == "estimate_q":
            est = estimate_Q(design, config["u"], config["directions"], config["draws"], seed)
            report.add_row(statistic="q_hat", value=est.q_hat)
            report.add_row(statistic="stderr", value=est.stderr)
            report.summary = {"estimate": est.to_record(), "passed": True}
            return report, f"Q_hat({config['u']:g})={est.q_hat:.6g} +- {est.stderr:.3g}", True
        if action == "choose_tau":
            choice = choose_tau(design, directions=config["directions"], draws=config["draws"], seed=seed)
            for stat, value in (("tau", choice.tau), ("q_at_2tau", choice.q_at_2tau), ("gamma", choice.gamma), ("gamma_beta", choice.gamma_beta)):
                report.add_row(statistic=stat, value=value)
            ok = "small_ball_not_detectable" not in choice.flags
            report.summary = {"choice": choice.to_record(), "passed": ok}
            return report, f"tau={choice.tau:.6g} Q_hat(2tau)={choice.q_at_2tau:.6g} gamma={choice.gamma:.6g}", ok
        if action == "moment_ratio":
            ratio = moment_ratio_p2(design, config["p"], config["directions"], config["draws"], seed)
            report.add_row(statistic="lp_l2_ratio", value=ratio)
            report.summary = {"lp_l2_ratio": ratio, "passed": True}
            return report, f"Lp/L2 ratio={ratio:.6g}", True
        if action == "l2_l1":
            ratio = l2_l1_ratio(design, config["directions"], config["draws"], seed)
            report.add_row(statistic="l2_l1_ratio", value=ratio)
            report.summary = {"l2_l1_ratio": ratio, "passed": True}
            return report, f"L2/L1 ratio={ratio:.6g}", True
        if action == "verify_counts":
            cls = ClassSpec(n=config["n"], R=config["R"], t0=np.zeros(config["n"]))
            result = verify_empirical_smallball(design, cls, config["tau"], config["r"], config["N"], trials=config["trials"], probes=config["probes"], seed=seed)
            for stat, value in (("success_fraction", result.success_fraction), ("success_criterion", result.success_criterion), ("count_threshold", result.count_threshold), ("q_hat", result.q_hat)):
                report.add_row(statistic=stat, value=value)
            report.summary = {"result": result.to_record(), "passed": result.passed}
            return report, f"success_fraction={result.success_fraction:.6g} criterion={result.success_criterion:.6g}", result.passed
        raise ConfigError(f"unknown smallball action {action!r}")

    if sub == "version-space":
        cls = _class_from(config)
        design_spec = _design_from(config, config["n"])
        from .distributions import sample_design

        X = sample_design(design_spec, config["N"], seed) if config["N"] > 0 else np.zeros((0, config["n"]))
        probe = version_diameter(X, cls, probes=config["probes"], seed=derive_seed(seed, 1))
        report = Report(kind="version_space", config=config, columns=("statistic", "value"))
        report.add_row(statistic="radius_lb", value=probe.radius_lb)
        report.add_row(statistic="nullspace_dim", value=probe.nullspace_dim)
        report.add_row(statistic="directions", value=probe.directions)
        report.summary = {"probe": probe.to_record(), "passed": True}
        return report, f"radius_lb={probe.radius_lb:.6g} nullspace_dim={probe.nullspace_dim}", True

    if sub == "persistence":
        sweep = SweepConfig(
            design_kind=config["design"]["kind"],
            design_p=config["design"].get("p"),
            noise_kind=config["noise"]["kind"],
            noise_p=config["noise"].get("p"),
            noise_kappa=config["noise"].get("kappa"),
            n_grid=tuple(config["n_grid"]),
            N_grid=tuple(config["N_grid"]),
            R_grid=tuple(config["R_grid"]),
            sigma_grid=tuple(config["sigma_grid"]),
            trials=config["trials"],
            tol=config["tol"],
            seed=seed,
            t0_shape=config["t0_shape"],
            t0_fraction=config["t0_fraction"],
            workers=workers,
        )
        report = run_persistence_sweep(sweep)
        flagged_rows = [r for r in report.rows if r["statistic"] == "flagged" and r["value"]]
        ok = not flagged_rows
        report.summary["passed"] = ok
        return report, f"cells={len(report.rows)//8} c_fit={report.summary['c_fit']:.6g} flagged_cells={len(flagged_rows)}", ok

    if sub == "verify-main":
        design = _design_from(config, config["n"])
        noise = _noise_from(config)
        cfg = MainTheoremConfig(
            design=design,
            noise=noise,
            R=config["R"],
            N=config["N"],
            delta=config["delta"],
            trials=config["trials"],
            t0_shape=config["t0_shape"],
            t0_fraction=config["t0_fraction"],
            alpha_trials=config["alpha_trials"],
            beta_trials=config["beta_trials"],
            tau_directions=config["tau_directions"],
            tau_draws=config["tau_draws"],
            tol=config["tol"],
            seed=seed,
            gamma_override=config["gamma_override"],
            workers=workers,
        )
        report = verify_main_theorem(cfg)
        s = report.summary
        report.config = config | {"resolved": report.config}
        return report, f"frequency={s['frequency']:.6g} criterion={s['criterion']:.6g} bound={s['bound']:.6g}", bool(s["passed"])

    raise ConfigError(f"unknown subcommand {sub!r}")


def _workers_count(text: str) -> int:
    """A `--workers` or `$ERMBOUNDS_WORKERS` value: a nonnegative integer."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ermbounds", description="Constrained least squares over l1 balls: fixed points, small-ball diagnostics, rate experiments.")
    parser.add_argument("--version", action="version", version="ermbounds 0.1.0")
    subparsers = parser.add_subparsers(dest="subcommand", metavar="{" + ",".join(SUBCOMMANDS) + "}")
    env_workers = os.environ.get(WORKERS_ENV, "")
    try:
        default_workers = _workers_count(env_workers or "0")
    except argparse.ArgumentTypeError:
        parser.error(f"{WORKERS_ENV} must be a nonnegative integer, got {env_workers!r}")

    help_lines = {
        "erm": "solve one constrained least-squares instance",
        "beta": "localized Rademacher fixed point (linear normalization)",
        "alpha": "multiplier-process quantile fixed point",
        "kstar": "localized Rademacher fixed point (quadratic normalization)",
        "smallball": "small-ball probability estimation and diagnostics",
        "version-space": "probe the version-space diameter",
        "rates": "closed-form rate predictions",
        "persistence": "persistence-rate sweep comparing errors to predictions",
        "counterexample": "one-sided vs two-sided deviation demonstration",
        "verify-main": "end-to-end check of the two-fixed-point error bound",
    }
    for sub in SUBCOMMANDS:
        sp = subparsers.add_parser(sub, help=help_lines[sub])
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE", help="dotted-key config override (repeatable)")
        sp.add_argument("--seed", type=int, default=None, help=f"master seed (default 0x{DEFAULT_SEED:X})")
        sp.add_argument("--output", default=None, help="report path (default <subcommand>_report.<fmt>)")
        sp.add_argument("--format", choices=("csv", "json"), default="json")
        sp.add_argument("--workers", type=_workers_count, default=default_workers, help=f"threads drawing Monte Carlo trials, also ${WORKERS_ENV}; 0 = every CPU this process may run on (default); never changes results")
        if sub in ("rates", "counterexample", "erm", "beta", "alpha", "kstar", "smallball", "version-space", "verify-main"):
            sp.add_argument("--n", type=int, default=None)
            sp.add_argument("--N", type=int, default=None)
        if sub in ("rates", "erm", "beta", "alpha", "kstar", "version-space", "verify-main", "smallball"):
            sp.add_argument("--R", type=float, default=None)
        if sub in ("rates", "verify-main"):
            sp.add_argument("--sigma", type=float, default=None)
        if sub in ("counterexample", "beta", "alpha", "kstar", "verify-main", "smallball"):
            sp.add_argument("--trials", type=int, default=None)
        if sub in ("beta", "alpha", "kstar"):
            sp.add_argument("--gamma", type=float, default=None)
        if sub in ("alpha", "verify-main"):
            sp.add_argument("--delta", type=float, default=None)
        if sub == "smallball":
            sp.add_argument("--u", type=float, default=None)
    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_help()
        return 2
    try:
        report, line, ok = _run_subcommand(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    output = args.output or f"{args.subcommand.replace('-', '_')}_report.{args.format}"
    emit_report(report, output, args.format)
    print(f"{args.subcommand}: {line} -> {output}")
    return 0 if ok else 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
