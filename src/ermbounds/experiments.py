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

import contextlib
import itertools
import math
import numbers
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from .distributions import CounterexampleSpec, DesignSpec, NoiseSpec, _moments_into
from .erm import _GATHER_MIN_N, ClassSpec, ErmResult, solve_erms
from .fixed_points import alpha_star, beta_star, quantile_trials
from .rates import RateInputs, rho_N, v1_v2
from .reports import Report, record, wilson_interval
from .rng import DEFAULT_SEED, derive_seed, map_trials, substream
from .smallball import choose_tau

# stage tags for deriving independent per-stage seeds
_STAGE_TAU = 14
_STAGE_ALPHA = 11
_STAGE_BETA = 12
_STAGE_TRIALS = 13

# numbers in one stacked solve's G's: all 200 verify-main trials at n = 32,
# one trial from n = 513 up
_ERM_BATCH = 2**19

SWEEP_COLUMNS = ("design", "noise", "n", "N", "R", "sigma", "trials", "statistic", "value")


def _seed_key(value: float) -> int:
    """A sweep cell's seed entry for a float grid value: its float64 bits,
    with -0.0 read as 0.0, so distinct values key distinct seeds."""
    return int(np.float64(float(value) + 0.0).view(np.uint64))


def make_t0(shape: str, fraction: float, n: int, R: float) -> np.ndarray:
    """True parameter with ||t0||_1 = fraction*R: all mass on one coordinate
    (spike), spread evenly (flat), or zero."""
    if n < 1:
        raise ValueError("dimension n must be positive")
    if shape not in ("zero", "spike", "flat"):
        raise ValueError(f"unknown t0 shape {shape!r}")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("t0 fraction must lie in [0, 1]")
    t0 = np.zeros(n)
    if shape == "spike":
        t0[0] = fraction * R
    elif shape == "flat":
        t0[:] = fraction * R / n
    return t0


@dataclass(frozen=True)
class SweepConfig:
    """A persistence sweep. `design` and `noise` are the keyword arguments of
    DesignSpec without n and of NoiseSpec without sigma: each cell takes n
    from n_grid and sigma from sigma_grid."""

    design: dict = field(default_factory=lambda: {"kind": "rademacher"})
    noise: dict = field(default_factory=lambda: {"kind": "gaussian"})
    n_grid: tuple = (64,)
    N_grid: tuple = (512, 1024)
    R_grid: tuple = (1.0,)
    sigma_grid: tuple = (0.5,)
    trials: int = 20
    tol: float = 1e-9
    max_iter: int = 100000
    seed: int = DEFAULT_SEED
    t0_shape: str = "zero"
    t0_fraction: float = 0.0

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.trials < 20:
            raise ValueError("sweeps need at least 20 trials per cell")
        # a cell's seed is keyed on its grid values, so two values with one
        # key would make two cells draw the same samples
        for grid, name, kind, key in ((self.n_grid, "n_grid", numbers.Integral, int), (self.N_grid, "N_grid", numbers.Integral, int), (self.R_grid, "R_grid", numbers.Real, _seed_key), (self.sigma_grid, "sigma_grid", numbers.Real, _seed_key)):
            if len(grid) == 0:
                raise ValueError(f"{name} must be nonempty")
            seen = {}
            for value in grid:
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValueError(f"{name} entries must be {'integers' if kind is numbers.Integral else 'numbers'}, got {value!r}")
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"{name} entries must be finite numbers, got {value!r}")
                k = key(value)
                if k in seen:
                    raise ValueError(f"{name} values {seen[k]!r} and {value!r} give their cells the same seed key {k}, so they would draw the same samples")
                seen[k] = value


def _erm_trials(cells: list, trials: int, **solver) -> list[list[ErmResult]]:
    """For each cell (cls, design, noise, N, seed), the `solve_erms` results
    (with the `solver` settings) of its trials 0..trials-1, each solved from
    `sample_moments`.

    A trial never holds its N x n design. Each cell's trials are solved in
    stacked batches whose G's hold at most _ERM_BATCH numbers, and the
    batches of every cell are the tasks of one `map_trials` call; none of
    this changes a result. Within each run of cells of one n the tasks take
    the cells in turn, so that one cell's moments, whose numpy calls
    release the interpreter lock, overlap another cell's solve. Each thread
    keeps one G buffer per batch position while its tasks keep their n, and
    fills it again for its next batch, once `solve_erms` has returned: a
    result copies its t_hat and holds no G. A thread drops its buffers
    before it allocates those of another n.

    Solves above n = _GATHER_MIN_N take one lock in turn. They step a row
    at a time, in numpy calls on n-vectors that each release and retake the
    interpreter lock, so two of them on two threads hand it back and forth
    on every call and finish later than they would one after the other.
    Dense stacked solves spend their time in BLAS and run side by side.
    """
    solve_lock = threading.Lock()
    buffers = threading.local()
    tasks = []
    for n, run in itertools.groupby(range(len(cells)), key=lambda c: cells[c][0].n):
        run = list(run)
        batch = max(1, _ERM_BATCH // (n * n))
        tasks += [(c, range(lo, min(trials, lo + batch)), min(batch, trials)) for lo in range(0, trials, batch) for c in run]

    def solve(task: int) -> list[ErmResult]:
        c, trial_ids, positions = tasks[task]
        cls, design, noise, N, seed = cells[c]
        if getattr(buffers, "n", None) != cls.n:
            # one array per position, not one stack: at n = 32 a 1.6 MB stack
            # grew verify-main's heap where 200 small G's reuse its free chunks
            buffers.G = None  # free the last n's buffers first
            buffers.G = [np.empty((cls.n, cls.n)) for _ in range(positions)]
            buffers.n = cls.n
        moments = [_moments_into(G, cls, design, noise, N, seed, j) for G, j in zip(buffers.G, trial_ids)]
        with solve_lock if cls.n > _GATHER_MIN_N else contextlib.nullcontext():
            return solve_erms(moments, cls, **solver)

    results = [[] for _ in cells]
    for (c, _, _), batch_results in zip(tasks, map_trials(solve, len(tasks))):
        results[c] += batch_results
    return results


def run_persistence_sweep(config: SweepConfig) -> Report:
    """Compare ERM squared error ||t_hat - t0||_2^2 against the two rate
    predictions, cell by cell; every cell's trials run in one `_erm_trials`
    call.

    Emits long-format rows (one per cell statistic), a fitted constant for
    error <= c * max(v1, v2) from the 0.9 quantiles, log-log slopes of
    the median error in N within each (n, R, sigma, v2-branch) regime, and
    `passed`: no cell flagged for solver failures.
    """
    report = Report(kind="persistence", config=asdict(config), columns=SWEEP_COLUMNS)
    grid = list(itertools.product(config.n_grid, config.R_grid, config.sigma_grid, config.N_grid))
    cells = []
    for n, R, sigma, N in grid:
        t0 = make_t0(config.t0_shape, config.t0_fraction, n, R)
        cells.append((ClassSpec(n=n, R=R, t0=t0), DesignSpec(n=n, **config.design), NoiseSpec(sigma=sigma, **config.noise), N, derive_seed(config.seed, n, N, _seed_key(R), _seed_key(sigma))))
    fitted, regimes, passed = [], {}, True
    for (n, R, sigma, N), (cls, *_), results in zip(grid, cells, _erm_trials(cells, config.trials, tol=config.tol, max_iter=config.max_iter)):
        errors = np.array([float(np.sum((result.t_hat - cls.t0) ** 2)) for result in results])
        failures = sum(not result.converged for result in results)
        inputs = RateInputs(N=N, n=n, R=R, sigma=sigma)
        v1, v2, _ = v1_v2(inputs)
        med = float(np.median(errors))
        q90 = float(np.quantile(errors, 0.9))
        v_max = max(v1, v2)
        flagged = failures > 0.05 * config.trials
        passed = passed and not flagged
        cell = {"median_err2": med, "q90_err2": q90, "rho_N": rho_N(inputs), "v1": v1, "v2": v2, "v_max": v_max, "solver_failures": failures, "flagged": flagged}
        for stat, value in cell.items():
            report.add_row(design=config.design["kind"], noise=config.noise["kind"], n=n, N=N, R=R, sigma=sigma, trials=config.trials, statistic=stat, value=value)
        if v_max > 0:
            fitted.append(q90 / v_max)
        if med > 0:
            branch2 = N > inputs.c2 * n * n * sigma * sigma / (R * R)
            regimes.setdefault((n, R, sigma, branch2), []).append((math.log(N), math.log(med)))
    slopes = {}
    for (n, R, sigma, branch2), pts in sorted(regimes.items()):
        if len(pts) >= 2:
            xs, ys = zip(*pts)
            slopes[f"n={n},R={R:g},sigma={sigma:g},branch2={int(branch2)}"] = float(np.polyfit(xs, ys, 1)[0])
    report.summary = {"c_fit": float(max(fitted)) if fitted else 0.0, "slopes": slopes, "passed": passed}
    return report


def run_counterexample(N: int, trials: int, seed: int) -> Report:
    """Estimate the two-sided deviation and the one-sided failure probability.

    (a) Pr(|P_N Z^2 - E Z^2| > E Z^2 / 2): spoiled by a single spike, so it
        stays of order 1/N.
    (b) Pr(P_N Z^2 < E Z^2 / 2): the lower estimate, exponentially rare.
    Both come with Wilson intervals, along with an E Z^2 moment check.

    Z^2 is 1 or spike^2, so each trial is described by its spike count k and
    every statistic follows from the counts: P_N Z^2 = (N - k + k spike^2)/N.
    Each of a trial's N coordinates spikes on its own with probability 1/N^2,
    so k ~ Binomial(N, 1/N^2) exactly, and the counts are drawn from that law.
    One spike already gives P_N Z^2 = 5 - 1/N, so for N >= 100 the deviation
    event is k >= 1, of probability 1 - (1 - 1/N^2)^N, reported beside its
    estimate.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    spec = CounterexampleSpec(N)
    ez2 = spec.second_moment
    s2 = spec.spike * spec.spike
    k = substream(seed).binomial(N, 1.0 / N**2, size=trials)
    pn = ((N - k) + k * s2) / N
    deviation = int(np.count_nonzero(np.abs(pn - ez2) > ez2 / 2.0))
    onesided_failure = int(np.count_nonzero(pn < ez2 / 2.0))
    count = trials * N
    spikes = int(k.sum())
    sum_z2 = float(count - spikes) + spikes * s2
    sum_z4 = float(count - spikes) + spikes * (s2 * s2)
    dev_p = deviation / trials
    exact_dev_p = float(-np.expm1(N * np.log1p(-1.0 / N**2)))
    fail_p = onesided_failure / trials
    dev_ci = wilson_interval(deviation, trials)
    fail_ci = wilson_interval(onesided_failure, trials)
    emp_ez2 = sum_z2 / count
    ez2_stderr = math.sqrt(max(sum_z4 / count - emp_ez2**2, 0.0) / count)
    config = {"N": N, "trials": trials, "seed": seed}
    report = Report(kind="counterexample", config=config, columns=("statistic", "value", "ci_low", "ci_high"))
    report.add_row(statistic="deviation_probability", value=dev_p, ci_low=dev_ci[0], ci_high=dev_ci[1])
    report.add_row(statistic="analytic_deviation_probability", value=exact_dev_p, ci_low="", ci_high="")
    report.add_row(statistic="onesided_failure_probability", value=fail_p, ci_low=fail_ci[0], ci_high=fail_ci[1])
    report.add_row(statistic="empirical_EZ2", value=emp_ez2, ci_low="", ci_high="")
    report.add_row(statistic="analytic_EZ2", value=ez2, ci_low="", ci_high="")
    report.add_row(statistic="analytic_L4_L2_ratio", value=spec.l4_l2_ratio(), ci_low="", ci_high="")
    report.summary = {
        "deviation_probability": dev_p,
        "analytic_deviation_probability": exact_dev_p,
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
    """An end-to-end check of the main theorem. `design` and `noise` are the
    keyword arguments of DesignSpec without n and of NoiseSpec: the design
    takes its dimension from n, and the noise must name its sigma."""

    design: dict = field(default_factory=lambda: {"kind": "gaussian"})
    noise: dict = field(default_factory=lambda: {"kind": "gaussian", "sigma": 0.5})
    n: int = 32
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
    seed: int = DEFAULT_SEED
    gamma_override: float | None = None

    def __post_init__(self):
        # NoiseSpec's sigma defaults to 0 and the command line's to 0.5: a
        # config without one would replay through the CLI as another run
        if "sigma" not in self.noise:
            raise ValueError("noise must name sigma")
        for name in ("N", "trials", "beta_trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
        quantile_trials(self.delta / 4.0, self.alpha_trials)


def verify_main_theorem(config: MainTheoremConfig) -> Report:
    """End-to-end check of the two-fixed-point error bound.

    Picks tau by maximizing tau^2 Q_hat(2 tau), estimates the two fixed
    points at the induced levels, then measures how often fresh ERM runs land
    inside 2*max(alpha_hat, beta_hat). Success requires the frequency to
    reach 1 - delta - 2 exp(-N Q_hat^2 / 2) - 0.05.
    """
    design, noise = DesignSpec(n=config.n, **config.design), NoiseSpec(**config.noise)
    t0 = make_t0(config.t0_shape, config.t0_fraction, config.n, config.R)
    cls = ClassSpec(n=config.n, R=config.R, t0=t0)

    tau_choice = choose_tau(design, directions=config.tau_directions, draws=config.tau_draws, seed=derive_seed(config.seed, _STAGE_TAU))
    q_hat = tau_choice.q_at_2tau
    gamma = config.gamma_override if config.gamma_override is not None else tau_choice.gamma
    gamma_beta = config.gamma_override if config.gamma_override is not None else tau_choice.gamma_beta

    alpha = alpha_star(cls, design, noise, config.N, gamma, config.delta / 4.0, trials=quantile_trials(config.delta / 4.0, config.alpha_trials), seed=derive_seed(config.seed, _STAGE_ALPHA))
    beta = beta_star(cls, design, config.N, gamma_beta, trials=config.beta_trials, seed=derive_seed(config.seed, _STAGE_BETA))
    bound = 2.0 * max(alpha.value, beta.value)

    results = _erm_trials([(cls, design, noise, config.N, derive_seed(config.seed, _STAGE_TRIALS))], config.trials, tol=config.tol)[0]
    errors = np.array([float(np.linalg.norm(result.t_hat - t0)) for result in results])
    successes = int(np.sum(errors <= bound))
    frequency = successes / config.trials
    error_q = float(np.quantile(errors, 1.0 - config.delta))
    criterion = 1.0 - config.delta - 2.0 * math.exp(-config.N * q_hat**2 / 2.0) - 0.05
    ci = wilson_interval(successes, config.trials)

    report = Report(kind="verify_main", config=asdict(config), columns=("statistic", "value"))
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
        # how loose the bound is: its ratio to the (1 - delta) error
        # quantile, which the theorem puts below it; null when that quantile is 0
        "error_q": error_q,
        "slack": bound / error_q if error_q > 0.0 else None,
        "alpha": record(alpha),
        "beta": record(beta),
        "tau": record(tau_choice),
        "estimator_flags": flags,
    }
    return report
