"""Reproducibility harness: persistence sweeps, the lower-vs-two-sided
deviation demonstration, and end-to-end verification of the main error
bound.

Error statistics are medians with 0.9 quantiles alongside (the guarantees
are high-probability statements, and medians stay meaningful under heavy
tails). Constants are fitted from the data on a log scale; only the scaling
exponents are treated as falsifiable. All probability criteria carry a 5%
slack for Monte Carlo resolution at desk-scale trial counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import CounterexampleSpec, DesignSpec, NoiseSpec, make_sample, sample_counterexample
from .erm import ClassSpec, solve_erm
from .fixed_points import alpha_star, beta_star
from .rates import RateInputs, rho_N, v1_v2
from .reports import Report, wilson_interval
from .rng import derive_seed
from .smallball import choose_tau

# stage tags for deriving independent per-stage seeds
_STAGE_TAU = 14
_STAGE_ALPHA = 11
_STAGE_BETA = 12
_STAGE_TRIALS = 13

SWEEP_COLUMNS = ("design", "noise", "n", "N", "R", "sigma", "trials", "statistic", "value")


def make_t0(shape: str, fraction: float, n: int, R: float) -> np.ndarray:
    """True parameter with ||t0||_1 = fraction*R: all mass on one coordinate
    (spike), spread evenly (flat), or zero."""
    if shape == "zero" or fraction == 0.0:
        return np.zeros(n)
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("t0 fraction must lie in [0, 1]")
    t0 = np.zeros(n)
    if shape == "spike":
        t0[0] = fraction * R
    elif shape == "flat":
        t0[:] = fraction * R / n
    else:
        raise ValueError(f"unknown t0 shape {shape!r}")
    return t0


@dataclass(frozen=True)
class SweepConfig:
    design_kind: str = "rademacher"
    design_p: float | None = None
    noise_kind: str = "gaussian"
    noise_p: float | None = None
    noise_kappa: float | None = None
    n_grid: tuple = (64,)
    N_grid: tuple = (512, 1024)
    R_grid: tuple = (1.0,)
    sigma_grid: tuple = (0.5,)
    trials: int = 20
    tol: float = 1e-9
    max_iter: int = 100000
    seed: int = 0x5EED
    t0_shape: str = "zero"
    t0_fraction: float = 0.0
    constants: RateInputs | None = None
    # accepted and never read: sweeps solve one trial at a time (see _cell_errors)
    workers: int = 1

    def __post_init__(self):
        if self.trials < 20:
            raise ValueError("sweeps need at least 20 trials per cell")
        for grid, name in ((self.n_grid, "n_grid"), (self.N_grid, "N_grid"), (self.R_grid, "R_grid"), (self.sigma_grid, "sigma_grid")):
            if len(grid) == 0:
                raise ValueError(f"{name} must be nonempty")

    def to_record(self) -> dict:
        return {
            "design_kind": self.design_kind,
            "design_p": self.design_p,
            "noise_kind": self.noise_kind,
            "noise_p": self.noise_p,
            "noise_kappa": self.noise_kappa,
            "n_grid": list(self.n_grid),
            "N_grid": list(self.N_grid),
            "R_grid": list(self.R_grid),
            "sigma_grid": list(self.sigma_grid),
            "trials": self.trials,
            "tol": self.tol,
            "max_iter": self.max_iter,
            "seed": self.seed,
            "t0_shape": self.t0_shape,
            "t0_fraction": self.t0_fraction,
        }


def _noise_spec(config: SweepConfig, sigma: float) -> NoiseSpec:
    return NoiseSpec(kind=config.noise_kind, sigma=sigma, p=config.noise_p, kappa=config.noise_kappa)


def _design_spec(config: SweepConfig, n: int) -> DesignSpec:
    return DesignSpec(kind=config.design_kind, n=n, p=config.design_p)


def _cell_errors(config: SweepConfig, n: int, N: int, R: float, sigma: float) -> tuple[np.ndarray, int]:
    """Squared errors ||t_hat - t0||_2^2 over the cell's trials, plus failures."""
    design = _design_spec(config, n)
    noise = _noise_spec(config, sigma)
    t0 = make_t0(config.t0_shape, config.t0_fraction, n, R)
    cls = ClassSpec(n=n, R=R, t0=t0)
    cell_seed = derive_seed(config.seed, n, N, int(R * 2**20), int(sigma * 2**20))
    errors = np.empty(config.trials)
    failures = 0
    # Serial on purpose: on 2 threads the persistence_regimes benchmark op
    # ran faster (4.10 -> 2.77 s) but held two n=700, N=2800 trials at once,
    # and its peak RSS rose from 151.9 to 178.6 MiB (+18%, the benchmark
    # allows 5%).
    for j in range(config.trials):
        sample = make_sample(cls, design, noise, N, cell_seed, trial=j)
        result = solve_erm(sample, cls, tol=config.tol, max_iter=config.max_iter)
        if not result.converged:
            failures += 1
        errors[j] = float(np.sum((result.t_hat - t0) ** 2))
    return errors, failures


def run_persistence_sweep(config: SweepConfig) -> Report:
    """Compare ERM squared error against the two rate predictions, cell by cell.

    Emits long-format rows (one per cell statistic), a fitted constant for
    error <= c * max(v1, v2) from the 0.9 quantiles, and log-log slopes of
    the median error in N within each (n, R, sigma, v2-branch) regime.
    """
    report = Report(kind="persistence", config=config.to_record(), columns=SWEEP_COLUMNS)
    cells = []
    for n in config.n_grid:
        for R in config.R_grid:
            for sigma in config.sigma_grid:
                for N in config.N_grid:
                    errors, failures = _cell_errors(config, n, N, R, sigma)
                    inputs = RateInputs(N=N, n=n, R=R, sigma=sigma)
                    v1, v2, _ = v1_v2(inputs)
                    rho = rho_N(inputs)
                    med = float(np.median(errors))
                    q90 = float(np.quantile(errors, 0.9))
                    branch2 = N > inputs.c2 * n * n * sigma * sigma / (R * R)
                    flagged = failures > 0.05 * config.trials
                    cell = {
                        "design": config.design_kind,
                        "noise": config.noise_kind,
                        "n": n,
                        "N": N,
                        "R": R,
                        "sigma": sigma,
                        "trials": config.trials,
                        "median_err2": med,
                        "q90_err2": q90,
                        "rho_N": rho,
                        "v1": v1,
                        "v2": v2,
                        "v_max": max(v1, v2),
                        "solver_failures": failures,
                        "flagged": flagged,
                        "branch2": branch2,
                    }
                    cells.append(cell)
                    for stat in ("median_err2", "q90_err2", "rho_N", "v1", "v2", "v_max", "solver_failures", "flagged"):
                        report.add_row(design=config.design_kind, noise=config.noise_kind, n=n, N=N, R=R, sigma=sigma, trials=config.trials, statistic=stat, value=cell[stat])

    fitted = [c["q90_err2"] / c["v_max"] for c in cells if c["v_max"] > 0]
    c_fit = float(max(fitted)) if fitted else 0.0
    slopes = {}
    groups = {}
    for c in cells:
        key = (c["n"], c["R"], c["sigma"], c["branch2"])
        groups.setdefault(key, []).append(c)
    for key, group in sorted(groups.items()):
        pts = [(math.log(c["N"]), math.log(c["median_err2"])) for c in group if c["median_err2"] > 0]
        if len(pts) >= 2:
            xs, ys = zip(*pts)
            slope = float(np.polyfit(xs, ys, 1)[0])
            name = f"n={key[0]},R={key[1]:g},sigma={key[2]:g},branch2={int(key[3])}"
            slopes[name] = slope
    report.summary = {"c_fit": c_fit, "slopes": slopes}
    return report


def run_counterexample(N: int, trials: int, seed: int = 0x5EED, block: int = 4096) -> Report:
    """Estimate the two-sided deviation and the one-sided failure probability.

    (a) Pr(|P_N Z^2 - E Z^2| > E Z^2 / 2): spoiled by a single spike, so it
        stays of order 1/N.
    (b) Pr(P_N Z^2 < E Z^2 / 2): the lower estimate, exponentially rare.
    Both come with Wilson intervals, along with an E Z^2 moment check.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    spec = CounterexampleSpec(N)
    ez2 = spec.second_moment
    deviation = 0
    onesided_failure = 0
    sum_z2 = 0.0
    sum_z4 = 0.0
    count = 0
    for start in range(0, trials, block):
        size = min(block, trials - start)
        Z = sample_counterexample(spec, size, seed, trial_offset=start)
        z2 = Z * Z
        pn = np.mean(z2, axis=1)
        deviation += int(np.sum(np.abs(pn - ez2) > ez2 / 2.0))
        onesided_failure += int(np.sum(pn < ez2 / 2.0))
        sum_z2 += float(np.sum(z2))
        sum_z4 += float(np.sum(z2 * z2))
        count += size * N
    dev_p = deviation / trials
    fail_p = onesided_failure / trials
    dev_ci = wilson_interval(deviation, trials)
    fail_ci = wilson_interval(onesided_failure, trials)
    emp_ez2 = sum_z2 / count
    ez2_stderr = math.sqrt(max(sum_z4 / count - emp_ez2**2, 0.0) / count)
    config = {"N": N, "trials": trials, "seed": seed}
    report = Report(kind="counterexample", config=config, columns=("statistic", "value", "ci_low", "ci_high"))
    report.add_row(statistic="deviation_probability", value=dev_p, ci_low=dev_ci[0], ci_high=dev_ci[1])
    report.add_row(statistic="onesided_failure_probability", value=fail_p, ci_low=fail_ci[0], ci_high=fail_ci[1])
    report.add_row(statistic="empirical_EZ2", value=emp_ez2, ci_low="", ci_high="")
    report.add_row(statistic="analytic_EZ2", value=ez2, ci_low="", ci_high="")
    report.add_row(statistic="analytic_L4_L2_ratio", value=spec.l4_l2_ratio(), ci_low="", ci_high="")
    report.summary = {
        "deviation_probability": dev_p,
        "onesided_failure_probability": fail_p,
        "empirical_EZ2": emp_ez2,
        "empirical_EZ2_stderr": ez2_stderr,
        "analytic_EZ2": ez2,
        "ez2_within_1pct": bool(abs(emp_ez2 - ez2) <= 0.01 * ez2),
        # the 1% moment check is only resolvable with enough draws; below
        # that, fall back to a 4-sigma consistency band
        "ez2_consistent": bool(abs(emp_ez2 - ez2) <= max(0.01 * ez2, 4.0 * ez2_stderr)),
    }
    return report


@dataclass(frozen=True)
class MainTheoremConfig:
    design: DesignSpec
    noise: NoiseSpec
    R: float = 1.0
    N: int = 512
    delta: float = 0.1
    trials: int = 200
    t0_shape: str = "spike"
    t0_fraction: float = 0.5
    alpha_trials: int | None = None
    beta_trials: int = 200
    tau_directions: int = 300
    tau_draws: int = 10000
    tol: float = 1e-8
    seed: int = 0x5EED
    gamma_override: float | None = None
    workers: int = 0  # threads drawing the alpha and beta trials; 0 = every CPU

    def to_record(self) -> dict:
        return {
            "design": self.design.to_record(),
            "noise": self.noise.to_record(),
            "R": self.R,
            "N": self.N,
            "delta": self.delta,
            "trials": self.trials,
            "t0_shape": self.t0_shape,
            "t0_fraction": self.t0_fraction,
            "alpha_trials": self.alpha_trials,
            "beta_trials": self.beta_trials,
            "tau_directions": self.tau_directions,
            "tau_draws": self.tau_draws,
            "tol": self.tol,
            "seed": self.seed,
            "gamma_override": self.gamma_override,
        }


def verify_main_theorem(config: MainTheoremConfig) -> Report:
    """End-to-end check of the two-fixed-point error bound.

    Picks tau by maximizing tau^2 Q_hat(2 tau), estimates the two fixed
    points at the induced levels, then measures how often fresh ERM runs land
    inside 2*max(alpha_hat, beta_hat). Success requires the frequency to
    reach 1 - delta - 2 exp(-N Q_hat^2 / 2) - 0.05.
    """
    design, noise = config.design, config.noise
    n = design.n
    t0 = make_t0(config.t0_shape, config.t0_fraction, n, config.R)
    cls = ClassSpec(n=n, R=config.R, t0=t0)

    tau_choice = choose_tau(design, directions=config.tau_directions, draws=config.tau_draws, seed=derive_seed(config.seed, _STAGE_TAU))
    q_hat = tau_choice.q_at_2tau
    gamma = config.gamma_override if config.gamma_override is not None else tau_choice.gamma
    gamma_beta = config.gamma_override if config.gamma_override is not None else tau_choice.gamma_beta

    alpha_trials = config.alpha_trials
    if alpha_trials is None:
        alpha_trials = max(1000, int(math.ceil(50.0 / (config.delta / 4.0))))
    alpha = alpha_star(cls, design, noise, config.N, gamma, config.delta / 4.0, trials=alpha_trials, seed=derive_seed(config.seed, _STAGE_ALPHA), workers=config.workers)
    beta = beta_star(cls, design, config.N, gamma_beta, trials=config.beta_trials, seed=derive_seed(config.seed, _STAGE_BETA), workers=config.workers)
    bound = 2.0 * max(alpha.value, beta.value)

    trial_seed = derive_seed(config.seed, _STAGE_TRIALS)
    errors = np.empty(config.trials)
    # Serial on purpose: the short FISTA iterations at these sizes hold the
    # interpreter lock, and on 2 threads the verify_main benchmark op got
    # slower (2.39 -> 2.99 s).
    for j in range(config.trials):
        sample = make_sample(cls, design, noise, config.N, trial_seed, trial=j)
        result = solve_erm(sample, cls, tol=config.tol)
        errors[j] = float(np.linalg.norm(result.t_hat - t0))
    successes = int(np.sum(errors <= bound))
    frequency = successes / config.trials
    criterion = 1.0 - config.delta - 2.0 * math.exp(-config.N * q_hat**2 / 2.0) - 0.05
    ci = wilson_interval(successes, config.trials)

    report = Report(kind="verify_main", config=config.to_record(), columns=("statistic", "value"))
    for stat, value in (
        ("tau", tau_choice.tau),
        ("q_hat", q_hat),
        ("gamma", gamma),
        ("gamma_beta", gamma_beta),
        ("alpha_hat", alpha.value),
        ("beta_hat", beta.value),
        ("bound", bound),
        ("median_error", float(np.median(errors))),
        ("q90_error", float(np.quantile(errors, 0.9))),
        ("frequency", frequency),
        ("frequency_ci_low", ci[0]),
        ("frequency_ci_high", ci[1]),
        ("criterion", criterion),
    ):
        report.add_row(statistic=stat, value=value)
    flags = sorted(set(alpha.flags) | set(beta.flags) | set(tau_choice.flags))
    report.summary = {
        "passed": bool(frequency >= criterion),
        "frequency": frequency,
        "criterion": criterion,
        "bound": bound,
        # every ERM error is at most the class diameter 2R, so such a bound
        # is met whatever the fixed points are
        "bound_vacuous": bool(bound >= 2.0 * config.R),
        "alpha": alpha.to_record(),
        "beta": beta.to_record(),
        "tau": tau_choice.to_record(),
        "estimator_flags": flags,
    }
    return report
