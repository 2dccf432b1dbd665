"""Small-ball estimation and moment-equivalence diagnostics.

For l1-ball linear classes the difference class consists of linear
functionals, so by homogeneity every small-ball infimum runs over unit
directions. The infimum over infinitely many directions is approximated by
random sphere directions augmented with canonical and 2-sparse ones, which
are the worst cases for product measures. This is a heuristic lower-bound
estimator for the true infimum: it can only overestimate it, and the result
carries a flag whenever the structured directions strictly undercut the
random ones.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .distributions import DesignSpec, sample_design
from .erm import ClassSpec
from .rng import DIRECTIONS_TAG, map_trials, substream


@dataclass(frozen=True)
class SmallBallEstimate:
    u: float
    q_hat: float
    directions: int
    draws: int
    stderr: float
    argmin_direction: np.ndarray
    flags: tuple = field(default_factory=tuple)


MAX_PAIRS = 2048
# fewest draws a probe estimate accepts: a small-ball probability needs
# them for quantile resolution, and a moment ratio over few draws can read
# 0/0 (one rademacher draw is 0 on a 2-sparse direction with probability 1/2)
MIN_DRAWS = 1000
# the thresholds tau that `choose_tau` scans (read-only: every caller shares it)
TAU_GRID = np.geomspace(0.05, 1.0, 20)
TAU_GRID.setflags(write=False)
# rows of P = |X T^T| one threshold count reads at a time: 128 rows of a
# 1324-direction P take 1.4 MB, so a block stays in a core's cache across
# the thresholds
COUNT_BLOCK_ROWS = 128


def probe_rows(n: int, count: int) -> int:
    """Number of rows `probe_directions` returns, without drawing them."""
    return count + n + 2 * min(n * (n - 1) // 2, MAX_PAIRS)


def probe_directions(design: DesignSpec, count: int, seed: int) -> tuple[np.ndarray, int]:
    """Unit probe directions: `count` random ones plus canonical and 2-sparse
    ones, the latter on at most MAX_PAIRS coordinate pairs.

    Returns the stacked directions and the number of random rows (the
    structured rows follow them).
    """
    n = design.n
    rng = substream(seed, DIRECTIONS_TAG)
    raw = rng.standard_normal((count, n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    i, j = np.triu_indices(n, 1)  # the pairs i < j in lexicographic order
    if i.size > MAX_PAIRS:
        keep = np.sort(rng.choice(i.size, size=MAX_PAIRS, replace=False))
        i, j = i[keep], j[keep]
    rows = np.arange(i.size)
    plus = np.zeros((i.size, n))
    minus = np.zeros((i.size, n))
    plus[rows, i] = plus[rows, j] = minus[rows, i] = 1.0 / math.sqrt(2.0)
    minus[rows, j] = -1.0 / math.sqrt(2.0)
    return np.vstack([raw, np.eye(n), plus, minus]), count


def _check_probe_sizes(directions: int, draws: int) -> None:
    """Reject probe sizes `estimate_Q`, `moment_ratio_p2` and `l2_l1_ratio`
    cannot run with, before they draw."""
    if directions < 0:
        raise ValueError(f"directions must be nonnegative, got {directions}")
    if draws < MIN_DRAWS:
        raise ValueError(f"draws must be positive and at least {MIN_DRAWS}, got {draws}")


def _probe_projections(design: DesignSpec, directions: int, draws: int, seed: int, tag: int) -> tuple[np.ndarray, np.ndarray]:
    """The probe directions T, one per row, and |<X_i, t>| for `draws` fresh
    draws X_i (substream `tag`), one column per direction."""
    T, _ = probe_directions(design, directions, seed)
    X = design.sample_coords(substream(seed, DIRECTIONS_TAG, tag), (draws, design.n))
    P = X @ T.T
    np.abs(P, out=P)  # in place: P is the largest array of a choose_tau run
    return T, P


def _count_at_least(P: np.ndarray, thresholds) -> np.ndarray:
    """int32 counts #{i : P[i, d] >= v}, one row per threshold v in input
    order and one column per direction d.

    P's rows are counted in blocks of COUNT_BLOCK_ROWS on `map_trials`, each
    block against every threshold, and the block counts are added into one
    total. Integer counts add exactly in any order, and each is at most
    P.shape[0], so the result is the same for every thread count and block
    size.
    """
    total = np.zeros((len(thresholds), P.shape[1]), dtype=np.int32)
    lock = threading.Lock()

    def count_block(b: int) -> None:
        block = P[b * COUNT_BLOCK_ROWS : (b + 1) * COUNT_BLOCK_ROWS]
        counts = np.empty_like(total)
        mask = np.empty(block.shape, dtype=bool)
        for k, v in enumerate(thresholds):
            np.greater_equal(block, v, out=mask)
            np.add.reduce(mask, axis=0, dtype=np.int32, out=counts[k])
        with lock:
            np.add(total, counts, out=total)

    map_trials(count_block, -(-P.shape[0] // COUNT_BLOCK_ROWS))
    return total


def estimate_Q(design: DesignSpec, u, directions: int, draws: int, seed: int) -> tuple[SmallBallEstimate, ...]:
    """Estimate inf over unit directions t of Pr(|<X, t>| >= u), for each
    threshold u of the 1-D sequence `u`; returns one SmallBallEstimate per
    threshold, in input order, each echoing its threshold as given (a zero
    threshold as 0.0).

    Two passes over independent draw sets: the first selects the worst
    direction, the second re-estimates its probability, so the reported value
    is an unbiased binomial estimate of the selected direction's probability
    rather than a minimum dragged down by selection noise. Isotropy makes
    ||<X, t>||_L2 = 1 for unit t, so u is used as an absolute threshold.

    All thresholds share one set of probe directions and draws, so each
    entry equals the estimate a one-threshold call with the same seed
    returns.
    """
    us = np.asarray(u, dtype=np.float64)
    if us.ndim != 1:
        raise ValueError("u must be a 1-D sequence of thresholds")
    if np.any(us < 0):
        raise ValueError("u must be nonnegative")
    _check_probe_sizes(directions, draws)
    thresholds = list(u)

    positive = [v for v in thresholds if v != 0.0]
    if positive:
        T, P = _probe_projections(design, directions, draws, seed, 0)
        counts = iter(_count_at_least(P, positive))
        del P  # the counts are all the loop reads of P; free it before X2
        rng_est = substream(seed, DIRECTIONS_TAG, 1)
        X2 = design.sample_coords(rng_est, (draws, design.n))

    estimates = []
    for v in thresholds:
        if v == 0.0:
            e1 = np.zeros(design.n)
            e1[0] = 1.0
            estimates.append(SmallBallEstimate(0.0, 1.0, probe_rows(design.n, directions), draws, 0.0, e1))
            continue
        probs = next(counts) / draws
        worst = int(np.argmin(probs))
        q_hat = float(np.mean(np.abs(X2 @ T[worst]) >= v))
        stderr = math.sqrt(max(q_hat * (1.0 - q_hat), 0.0) / draws)
        flags = []
        # the first `directions` probes are the random ones
        if probs[directions:].size and probs[:directions].size:
            if probs[directions:].min() < probs[:directions].min():
                flags.append("structured_below_random")
        estimates.append(SmallBallEstimate(v, q_hat, T.shape[0], draws, stderr, T[worst].copy(), tuple(flags)))
    return tuple(estimates)


def paley_zygmund_Q(kappa2: float, p: float, u: float) -> float:
    """Small-ball lower bound ((1 - u^2)/kappa2^2)^(p/(p-2)) from an Lp/L2 ratio."""
    if p <= 2:
        raise ValueError("p must exceed 2")
    if kappa2 < 1:
        raise ValueError("kappa2 must be at least 1")
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie in (0, 1)")
    return ((1.0 - u * u) / kappa2**2) ** (p / (p - 2.0))


def moment_ratio_p2(design: DesignSpec, p: float, directions: int, draws: int, seed: int) -> float:
    """Max over probed directions of the empirical Lp/L2 ratio of <X, t>."""
    if p < 2:
        raise ValueError("p must be at least 2")
    _check_probe_sizes(directions, draws)
    _, proj = _probe_projections(design, directions, draws, seed, 2)
    lp = np.mean(proj**p, axis=0) ** (1.0 / p)
    l2 = np.sqrt(np.mean(proj**2, axis=0))
    return float(np.max(lp / l2))


def l2_l1_ratio(design: DesignSpec, directions: int, draws: int, seed: int) -> float:
    """Max over probed directions of the empirical L2/L1 ratio of <X, t>."""
    _check_probe_sizes(directions, draws)
    _, proj = _probe_projections(design, directions, draws, seed, 3)
    l2 = np.sqrt(np.mean(proj**2, axis=0))
    l1 = np.mean(proj, axis=0)
    return float(np.max(l2 / l1))


@dataclass(frozen=True)
class TauChoice:
    tau: float
    q_at_2tau: float
    gamma: float
    gamma_beta: float
    flags: tuple = field(default_factory=tuple)


def choose_tau(design: DesignSpec, directions: int, draws: int, seed: int) -> TauChoice:
    """Maximize tau^2 * Q_hat(2 tau) over TAU_GRID.

    Returns the argmax tau, its Q estimate, the induced multiplier-process
    level gamma = tau^2 Q_hat(2 tau)/16 and the quadratic-process level
    gamma_beta = tau Q_hat(2 tau)/16.
    """
    qs = np.array([est.q_hat for est in estimate_Q(design, 2.0 * TAU_GRID, directions, draws, seed)])
    scores = TAU_GRID**2 * qs
    best = int(np.argmax(scores))
    flags = ()
    if np.all(qs == 0.0):
        flags = ("small_ball_not_detectable",)
    tau = float(TAU_GRID[best])
    q = float(qs[best])
    return TauChoice(tau, q, tau * tau * q / 16.0, tau * q / 16.0, flags)


@dataclass(frozen=True)
class SmallBallCountReport:
    """Per-trial minimum counts against the theoretical count threshold."""

    tau: float
    r: float
    N: int
    q_hat: float
    count_threshold: float
    success_fraction: float
    success_criterion: float
    passed: bool
    hypothesis_certified: bool
    min_counts: np.ndarray
    flags: tuple = field(default_factory=tuple)


def check_count_inputs(class_spec: ClassSpec, tau: float, r: float, N: int, trials: int, probes: int) -> None:
    """Reject arguments `verify_empirical_smallball` cannot run with, before
    a caller spends an `estimate_Q` call on its q_hat."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if N < 1:
        raise ValueError("N must be at least 1")
    if trials < 1:
        raise ValueError("trials must be positive")
    if probes < 0:
        raise ValueError("probes must be nonnegative")
    if r > 2.0 * class_spec.R * (1.0 + 1e-12):
        raise ValueError("r exceeds the diameter of the difference class")


def verify_empirical_smallball(design: DesignSpec, class_spec: ClassSpec, tau: float, r: float, N: int, q_hat: float, trials: int, probes: int, seed: int, beta_estimate=None) -> SmallBallCountReport:
    """Statistical test of the uniform empirical small-ball count property.

    Per trial, draws a fresh design sample and probes functions h = <v, .>
    with ||v||_2 >= r and v feasible for the symmetric difference set
    2R*B1; records the minimum over probes of
    |{i : |h(X_i)| >= tau ||h||_L2}| and checks it against N*q_hat/4, where
    q_hat estimates Q(2 tau) (see `estimate_Q`).
    The count criterion is scale invariant, so probes are `probes` random
    directions plus the n canonical ones, scaled to the feasible range
    [r, 2R/||w||_1].
    Whether the sufficient condition r > beta_hat could be certified is
    reported alongside; the count test itself runs either way.
    """
    check_count_inputs(class_spec, tau, r, N, trials, probes)
    threshold = N * q_hat / 4.0
    n = design.n

    rng_dir = substream(seed, DIRECTIONS_TAG, 7)
    dirs = rng_dir.standard_normal((probes, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.vstack([dirs, np.eye(n)])
    # scale each direction to the smallest feasible norm >= r (the count
    # criterion below is invariant to this scale; feasibility is what matters)
    l1 = np.abs(dirs).sum(axis=1)
    cap = 2.0 * class_spec.R / l1
    feasible = cap >= r
    if not feasible.any():
        raise ValueError("no probe direction admits ||v||_2 >= r inside 2R*B1")
    dirs = dirs[feasible]

    min_counts = np.empty(trials)

    def count_trial(j: int) -> None:
        X = np.asarray(sample_design(design, N, seed, trial=j))
        proj = np.abs(X @ dirs.T)  # |h(X_i)| for unit-scaled h; threshold scales the same way
        counts = (proj >= tau).sum(axis=0)
        min_counts[j] = counts.min()

    map_trials(count_trial, trials)
    success_fraction = float(np.mean(min_counts >= threshold))
    criterion = 1.0 - 2.0 * math.exp(-N * q_hat**2 / 2.0) - 0.05

    hypothesis_ok = False
    flags = []
    if beta_estimate is not None:
        hypothesis_ok = (r > beta_estimate.value) and ("not_satisfied_within_upper" not in beta_estimate.flags)
        if not hypothesis_ok:
            flags.append("beta_hypothesis_not_certified")
    else:
        flags.append("beta_hypothesis_not_checked")
    return SmallBallCountReport(
        tau=tau,
        r=r,
        N=N,
        q_hat=q_hat,
        count_threshold=threshold,
        success_fraction=success_fraction,
        success_criterion=criterion,
        passed=success_fraction >= criterion,
        hypothesis_certified=hypothesis_ok,
        min_counts=min_counts,
        flags=tuple(flags),
    )
