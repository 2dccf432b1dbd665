"""Monte Carlo estimation of localized suprema and their fixed points.

The localized sets are the symmetric supersets 2R*B1 ∩ r*B2 of the shifted
class sections, so each realized supremum is an exact support-function
evaluation. One trial draws a sample (and signs, and noise where relevant)
and reduces it to a single n-vector Z; evaluating the supremum at any radius
then only touches Z. That makes common random numbers across radii free:
the whole fixed-point search runs on one batch of Z vectors, and the
empirical criterion it bisects is a deterministic function of the radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import DesignSpec, NoiseSpec, sample_design, sample_response
from .erm import ClassSpec
from .geometry import BallIntersection, support_l1l2_batch
from .rng import SIGNS_TAG, map_trials, substream

DEFAULT_EXPECTATION_TRIALS = 200
DEFAULT_QUANTILE_TRIALS = 1000


@dataclass(frozen=True)
class LocalizedSupConfig:
    """One Monte Carlo setup: class, design, sample size, replication count,
    and the threads that draw the trials (0: every CPU; never changes results)."""

    class_spec: ClassSpec
    design: DesignSpec
    N: int
    trials: int
    seed: int
    workers: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.workers < 0:
            raise ValueError(f"workers must be a nonnegative integer, got {self.workers}")


@dataclass(frozen=True)
class FixedPointEstimate:
    """A fixed-point radius with its bracket and Monte Carlo uncertainty."""

    value: float
    lower_bracket: float
    upper_bracket: float
    trials: int
    stderr: float
    kind: str
    flags: tuple = field(default_factory=tuple)

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "brackets": [self.lower_bracket, self.upper_bracket],
            "trials": self.trials,
            "stderr": self.stderr,
            "flags": list(self.flags),
        }


def _rademacher_z_batch(config: LocalizedSupConfig) -> np.ndarray:
    """Per-trial vectors Z_j = N^{-1/2} sum_i eps_i X_i, one row per trial."""
    N, n = config.N, config.class_spec.n
    out = np.empty((config.trials, n))

    def trial(j):
        X = sample_design(config.design, N, config.seed, trial=j)
        eps = substream(config.seed, j, SIGNS_TAG).integers(0, 2, size=N) * 2.0 - 1.0
        out[j] = (eps @ X) / math.sqrt(N)

    map_trials(trial, config.trials, config.workers)
    return out


def _multiplier_z_batch(config: LocalizedSupConfig, noise: NoiseSpec) -> np.ndarray:
    """Per-trial vectors Z_j = N^{-1/2} sum_i eps_i xi_i X_i."""
    N, n = config.N, config.class_spec.n
    out = np.empty((config.trials, n))

    def trial(j):
        X = sample_design(config.design, N, config.seed, trial=j)
        Y = sample_response(config.class_spec, noise, X, config.seed, trial=j)
        xi = X @ config.class_spec.t0 - Y
        eps = substream(config.seed, j, SIGNS_TAG).integers(0, 2, size=N) * 2.0 - 1.0
        out[j] = ((eps * xi) @ X) / math.sqrt(N)

    map_trials(trial, config.trials, config.workers)
    return out


def _sup_batch(Z: np.ndarray, R: float, radius: float) -> np.ndarray:
    if radius <= 0.0:
        return np.zeros(Z.shape[0])
    return support_l1l2_batch(Z, BallIntersection(2.0 * R, radius, Z.shape[1]))


def expected_rademacher_sup(config: LocalizedSupConfig, radius: float) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the localized Rademacher supremum.

    The standard error is only meaningful from about 30 trials up.
    """
    Z = _rademacher_z_batch(config)
    sups = _sup_batch(Z, config.class_spec.R, radius)
    mean = float(sups.mean())
    stderr = float(sups.std(ddof=1) / math.sqrt(len(sups))) if len(sups) > 1 else 0.0
    return mean, stderr


def _bisect_fixed_point(Z: np.ndarray, R: float, threshold, kind: str, r_lo: float, r_hi: float, rel_width: float = 1e-2) -> FixedPointEstimate:
    """Smallest radius where mean supremum <= threshold(r), by bisection.

    Valid because mean_sup(r)/r is non-increasing in r (the localized sets
    are star-shaped), so the criterion changes sign exactly once.
    """
    trials = Z.shape[0]

    def mean_sup(r):
        return float(_sup_batch(Z, R, r).mean())

    def ok(r):
        return mean_sup(r) <= threshold(r)

    def stderr_at(r):
        sups = _sup_batch(Z, R, r)
        return float(sups.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0

    if ok(r_lo):
        return FixedPointEstimate(r_lo, r_lo, r_lo, trials, stderr_at(r_lo), kind, ("at_lower_bracket",))
    if not ok(r_hi):
        return FixedPointEstimate(r_hi, r_hi, r_hi, trials, stderr_at(r_hi), kind, ("not_satisfied_within_upper",))
    lo, hi = r_lo, r_hi
    while hi - lo > rel_width * hi:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return FixedPointEstimate(hi, lo, hi, trials, stderr_at(hi), kind)


def beta_star(class_spec: ClassSpec, design: DesignSpec, N: int, gamma: float, trials: int = DEFAULT_EXPECTATION_TRIALS, seed: int = 0, r_lo: float | None = None, workers: int = 0) -> FixedPointEstimate:
    """Fixed point where the localized Rademacher mean scales like gamma*r*sqrt(N)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if class_spec.R == 0.0:
        return FixedPointEstimate(0.0, 0.0, 0.0, trials, 0.0, "beta", ("degenerate_class",))
    r_hi = 2.0 * class_spec.R * math.sqrt(class_spec.n)
    if r_lo is None:
        r_lo = 1e-8 * r_hi
    config = LocalizedSupConfig(class_spec, design, N, trials, seed, workers)
    Z = _rademacher_z_batch(config)
    return _bisect_fixed_point(Z, class_spec.R, lambda r: gamma * r * math.sqrt(N), "beta", r_lo, r_hi)


def k_star(class_spec: ClassSpec, design: DesignSpec, N: int, gamma: float, trials: int = DEFAULT_EXPECTATION_TRIALS, seed: int = 0, r_lo: float | None = None, workers: int = 0) -> FixedPointEstimate:
    """Fixed point with the quadratic normalization gamma*r^2*sqrt(N)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if class_spec.R == 0.0:
        return FixedPointEstimate(0.0, 0.0, 0.0, trials, 0.0, "kstar", ("degenerate_class",))
    r_hi = 2.0 * class_spec.R * math.sqrt(class_spec.n)
    if r_lo is None:
        r_lo = 1e-8 * r_hi
    config = LocalizedSupConfig(class_spec, design, N, trials, seed, workers)
    Z = _rademacher_z_batch(config)
    return _bisect_fixed_point(Z, class_spec.R, lambda r: gamma * r * r * math.sqrt(N), "kstar", r_lo, r_hi)


def alpha_star(class_spec: ClassSpec, design: DesignSpec, noise: NoiseSpec, N: int, gamma: float, delta: float, trials: int = DEFAULT_QUANTILE_TRIALS, seed: int = 0, grid_ratio: float = 1.1, s_lo: float | None = None, workers: int = 0) -> FixedPointEstimate:
    """Quantile fixed point of the multiplier process.

    Scans a geometric radius grid for the smallest s whose empirical success
    probability Pr(phi_N(s) <= gamma*s^2*sqrt(N)) reaches 1 - delta. A grid
    is used instead of bisection because the success probability need not be
    monotone at Monte Carlo resolution; estimates within two standard errors
    of the target get a Wilson flag.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if trials < 50.0 / delta:
        raise ValueError(f"need at least {math.ceil(50.0 / delta)} trials to resolve the {1 - delta:.4g} quantile")
    if class_spec.R == 0.0:
        return FixedPointEstimate(0.0, 0.0, 0.0, trials, 0.0, "alpha", ("degenerate_class",))
    s_hi = 2.0 * class_spec.R * math.sqrt(class_spec.n)
    if s_lo is None:
        s_lo = 1e-6 * s_hi
    if not 0.0 < s_lo < s_hi:
        raise ValueError(f"s_lo must lie in (0, {s_hi:.6g}), the upper end of the radius grid")
    steps = int(math.ceil(math.log(s_hi / s_lo) / math.log(grid_ratio)))
    grid = s_lo * grid_ratio ** np.arange(steps + 1)
    grid[-1] = s_hi

    config = LocalizedSupConfig(class_spec, design, N, trials, seed, workers)
    Z = _multiplier_z_batch(config, noise)
    target = 1.0 - delta
    sqN = math.sqrt(N)
    prev = None
    for s in grid:
        sups = _sup_batch(Z, class_spec.R, float(s))
        p_hat = float(np.mean(sups <= gamma * s * s * sqN))
        stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
        if p_hat >= target:
            flags = []
            if p_hat - target < 2.0 * stderr:
                flags.append("wilson_marginal")
            lower = float(prev) if prev is not None else float(s)
            return FixedPointEstimate(float(s), lower, float(s), trials, stderr, "alpha", tuple(flags))
        prev = s
    sups = _sup_batch(Z, class_spec.R, float(grid[-1]))
    p_hat = float(np.mean(sups <= gamma * grid[-1] ** 2 * sqN))
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
    return FixedPointEstimate(float(grid[-1]), float(grid[-2]), float(grid[-1]), trials, stderr, "alpha", ("grid_exhausted",))
