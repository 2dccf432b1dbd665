"""Monte Carlo estimation of localized suprema and their fixed points.

The localized sets are the symmetric supersets 2R*B1 ∩ r*B2 of the shifted
class sections, so each realized supremum is an exact support-function
evaluation. One trial draws a sample (and signs, and noise where relevant)
and reduces it to a single n-vector Z; evaluating the supremum at any radius
then only touches Z. That makes common random numbers across radii free:
the whole fixed-point search runs on one batch of Z vectors, prepared once
(`SupportRows` sorts it and forms its cumulative sums), and the empirical
criterion it searches is a deterministic function of the radius.

The localized sets are star-shaped, so each trial's supremum divided by the
radius is non-increasing. Hence the mean criterion of beta* and k* changes
sign once, and each trial's success in alpha*'s quantile criterion switches
on at most once as the radius grows: one bisection (`_fixed_point`) finds
all three.

For a gaussian design Z has an exact law, so its batches are drawn from that
law instead of from N x n samples: N^{-1/2} sum_i eps_i X_i is N(0, I_n),
and given the noise w, N^{-1/2} sum_i eps_i w_i X_i is sqrt(mean w^2) N(0, I_n).
For gaussian noise N mean(w^2)/sigma^2 is chi^2_N, one draw a trial.

A student-t design is a gaussian scale mixture: a standardized t_p
coordinate is G sqrt((p - 2)/chi^2_p) with G ~ N(0, 1) independent of the
chi^2_p. So given the mixing variables and the multipliers xi, each
coordinate of Z is N(0, M_k) on its own, M_k = (1/N) sum_i xi_i^2 (p - 2)/chi^2_{p,ik},
and the signs drop out: a trial draws N x n chi-squares (2(E_1 + ... + E_{p/2})
from standard exponentials when p is 4 or 6, where that is the faster draw)
and n normals, instead of N x n t-variates and N signs.
Every other design kind draws each trial's sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import DesignSpec, NoiseSpec, random_signs, sample_design, sample_response
from .erm import ClassSpec
from .geometry import SupportRows, support_l1l2_batch
from .rng import DESIGN_TAG, LAW_TAG, NOISE_TAG, SIGNS_TAG, map_trials, substream, trial_workers

DEFAULT_QUANTILE_TRIALS = 1000
_LAW_BLOCK = 2**16  # noise values one block of the exact multiplier law draws (one whole trial if N is larger)
_CHI2_BLOCK = 2**14  # chi-squares one block of a student-t trial draws


@dataclass(frozen=True)
class FixedPointEstimate:
    """A fixed-point radius with its bracket and Monte Carlo uncertainty."""

    value: float
    brackets: tuple[float, float]
    trials: int
    stderr: float
    kind: str
    flags: tuple = field(default_factory=tuple)


def _noise_rms(N: int, trials: int, seed: int, noise: NoiseSpec) -> np.ndarray:
    """Each trial's sqrt(mean(w**2)) over N noise values, without holding them all.

    Gaussian noise draws it from its law, sigma * sqrt(chi^2_N / N): one
    chi-square a trial from one stream, so row j is the stream's j-th draw
    whatever the trial count, and the scale is linear in sigma (doubling
    sigma doubles it bit for bit). Other kinds draw their trials in blocks
    of max(1, _LAW_BLOCK // N) whole trials, one stream and one draw per
    block. Every block draws all its rows, so a trial's values do not
    depend on the trial count; blocks run on `map_trials` threads.
    """
    if noise.kind == "gaussian":
        return noise.sigma * np.sqrt(substream(seed, LAW_TAG, NOISE_TAG, 0).chisquare(N, size=trials) / N)
    rows = max(1, _LAW_BLOCK // N)
    out = np.empty(trials)

    def block(b):
        w = noise.sample(substream(seed, LAW_TAG, NOISE_TAG, b), (rows, N))
        out[b * rows : (b + 1) * rows] = np.sqrt(np.sum(w * w, axis=1) / N)[: trials - b * rows]

    map_trials(block, -(-trials // rows))
    return out


def _chisquare(rng: np.random.Generator, p: float, size: tuple) -> np.ndarray:
    """chi^2_p values: 2(E_1 + ... + E_{p/2}) for p of 4 or 6, where that sum
    of standard exponentials draws faster than rng.chisquare, else rng.chisquare."""
    if p in (4.0, 6.0):
        return 2.0 * rng.standard_exponential((int(p) // 2, *size)).sum(axis=0)
    return rng.chisquare(p, size)


def _z_batch(class_spec: ClassSpec, design: DesignSpec, N: int, trials: int, seed: int, noise: NoiseSpec | None) -> np.ndarray:
    """Per-trial vectors Z_j = N^{-1/2} sum_i eps_i xi_i X_i, one row per trial:
    the Rademacher process (xi = 1) when `noise` is None, else the multiplier
    process (xi = <t0, X> - Y = -w).

    A gaussian design draws them from their law: N(0, I_n), n normals a
    trial (row j depends only on the seed and j), times sqrt(mean w^2) given
    the noise (see _noise_rms). The scale is linear in the noise, so
    doubling sigma doubles Z bit for bit.

    A student-t design draws them from its gaussian scale-mixture law:
    trial j takes its noise w from (seed, j, NOISE_TAG), as sample_response
    does, then from (seed, j, DESIGN_TAG) the N x n chi-squares in row
    blocks of at most _CHI2_BLOCK values, summed into
    M = (1/N) sum_i xi_i^2 (p - 2)/chi^2_{p,i}, and n normals G; its row is
    sqrt(M) * G. Row j depends only on the seed and j.

    Every design reads $ERMBOUNDS_WORKERS before it draws, so a bad value
    fails here even where the law path starts no threads.
    """
    if design.n != class_spec.n:
        raise ValueError("design dimension does not match the class dimension")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    trial_workers(trials)
    n = class_spec.n
    if design.kind == "gaussian":
        Z = substream(seed, LAW_TAG, DESIGN_TAG, 0).standard_normal((trials, n))
        return Z if noise is None else _noise_rms(N, trials, seed, noise)[:, None] * Z
    out = np.empty((trials, n))
    rows = max(1, _CHI2_BLOCK // n)

    def student_t_trial(j):
        xi2 = None if noise is None else noise.sample(substream(seed, j, NOISE_TAG), N) ** 2
        rng = substream(seed, j, DESIGN_TAG)
        total = np.zeros(n)
        for lo in range(0, N, rows):
            scale = (design.p - 2.0) / _chisquare(rng, design.p, (min(rows, N - lo), n))
            if xi2 is not None:
                scale *= xi2[lo : lo + rows, None]
            total += scale.sum(axis=0)
        out[j] = np.sqrt(total / N) * rng.standard_normal(n)

    def sample_trial(j):
        X = sample_design(design, N, seed, trial=j)
        eps = random_signs(substream(seed, j, SIGNS_TAG), N)
        if noise is not None:
            eps *= X @ class_spec.t0 - sample_response(class_spec, noise, X, seed, trial=j)
        out[j] = (eps @ X) / math.sqrt(N)

    map_trials(student_t_trial if design.kind == "student_t" else sample_trial, trials)
    return out


def _fixed_point(class_spec: ClassSpec, design: DesignSpec, N: int, gamma: float, trials: int, seed: int, noise: NoiseSpec | None, kind: str, holds, stderr) -> FixedPointEstimate:
    """Smallest radius r in [1e-8 r_hi, r_hi], r_hi = 2R sqrt(n), at which
    `holds(r, sups)` is true of the trials' suprema at r, by bisection with
    arithmetic midpoints to a bracket [lo, hi] of relative width 1%.

    Valid because holds is monotone in r: each trial's supremum over r is
    non-increasing (the localized sets are star-shaped), so the criterion
    switches on once along the radii. The batch of Z (the Rademacher process
    when `noise` is None, else the multiplier process) is drawn once, and
    each radius's suprema are kept, so no radius is evaluated twice. The
    estimate is hi, with the Monte Carlo error `stderr(r, sups)` gives at
    r = hi. It is flagged at_lower_bracket when holds at 1e-8 r_hi, and
    not_satisfied_within_upper, with lo = hi = r_hi, when not at r_hi.
    """
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    if class_spec.R == 0.0:
        return FixedPointEstimate(0.0, (0.0, 0.0), trials, 0.0, kind, ("degenerate_class",))
    r_hi = 2.0 * class_spec.R * math.sqrt(class_spec.n)
    rows = SupportRows(_z_batch(class_spec, design, N, trials, seed, noise))
    sups = {}  # radius -> suprema, so no radius is scanned twice

    def sups_at(r):
        if r not in sups:
            sups[r] = support_l1l2_batch(rows, 2.0 * class_spec.R, r)
        return sups[r]

    lo, hi = 1e-8 * r_hi, r_hi
    if holds(lo, sups_at(lo)):
        hi, flags = lo, ("at_lower_bracket",)
    elif not holds(hi, sups_at(hi)):
        lo, flags = hi, ("not_satisfied_within_upper",)
    else:
        flags = ()
        while hi - lo > 1e-2 * hi:
            mid = 0.5 * (lo + hi)
            if holds(mid, sups_at(mid)):
                hi = mid
            else:
                lo = mid
    return FixedPointEstimate(hi, (lo, hi), trials, stderr(hi, sups_at(hi)), kind, flags)


def _rademacher_fixed_point(class_spec: ClassSpec, design: DesignSpec, N: int, gamma: float, trials: int, seed: int, power: int, kind: str) -> FixedPointEstimate:
    """Smallest radius where the localized Rademacher mean is at most
    gamma*r^power*sqrt(N)."""

    def holds(r, sups):
        # in this order the threshold is bit for bit gamma*r*sqrt(N) or gamma*r*r*sqrt(N)
        return float(sups.mean()) <= gamma * r * r ** (power - 1) * math.sqrt(N)

    def stderr(r, sups):
        return float(sups.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0

    return _fixed_point(class_spec, design, N, gamma, trials, seed, None, kind, holds, stderr)


def beta_star(class_spec: ClassSpec, design: DesignSpec, N: int, gamma: float, trials: int, seed: int) -> FixedPointEstimate:
    """Fixed point where the localized Rademacher mean scales like gamma*r*sqrt(N)."""
    return _rademacher_fixed_point(class_spec, design, N, gamma, trials, seed, 1, "beta")


def k_star(class_spec: ClassSpec, design: DesignSpec, N: int, gamma: float, trials: int, seed: int) -> FixedPointEstimate:
    """Fixed point with the quadratic normalization gamma*r^2*sqrt(N)."""
    return _rademacher_fixed_point(class_spec, design, N, gamma, trials, seed, 2, "kstar")


def quantile_trials(delta: float, trials: int | None) -> int:
    """Monte Carlo trials that resolve the 1 - delta quantile, which takes at
    least ceil(50/delta): `trials`, or ValueError if it is fewer; None gives
    DEFAULT_QUANTILE_TRIALS raised to that minimum."""
    need = math.ceil(50.0 / delta)
    if trials is None:
        return max(DEFAULT_QUANTILE_TRIALS, need)
    if trials < need:
        raise ValueError(f"need at least {need} trials to resolve the {1 - delta:.4g} quantile")
    return trials


def alpha_star(class_spec: ClassSpec, design: DesignSpec, noise: NoiseSpec, N: int, gamma: float, delta: float, trials: int, seed: int) -> FixedPointEstimate:
    """Quantile fixed point of the multiplier process.

    The smallest s whose empirical success probability
    p_hat(s) = Pr(phi_N(s) <= gamma*s^2*sqrt(N)) reaches 1 - delta, found by
    the same bisection as beta* and k* (see _fixed_point). Each trial's
    phi_N(s)/s is non-increasing, so once a trial succeeds it succeeds at
    every larger s, and p_hat is monotone on the common random numbers. The
    stderr is the binomial one of p_hat at the estimate.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    quantile_trials(delta, trials)
    target = 1.0 - delta
    sqN = math.sqrt(N)

    def p_hat(s, sups):
        return float(np.mean(sups <= gamma * s * s * sqN))

    def stderr(s, sups):
        p = p_hat(s, sups)
        return math.sqrt(max(p * (1.0 - p), 0.0) / trials)

    return _fixed_point(class_spec, design, N, gamma, trials, seed, noise, "alpha", lambda s, sups: p_hat(s, sups) >= target, stderr)
