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
    flags: tuple = field(default_factory=tuple)


MAX_PAIRS = 2048
# fewest draws a probe estimate accepts: a small-ball probability needs
# them for quantile resolution, and a moment ratio over few draws can read
# 0/0 (one rademacher draw is 0 on a 2-sparse direction with probability 1/2)
MIN_DRAWS = 1000
# the thresholds tau that `choose_tau` scans (read-only: every caller shares it)
TAU_GRID = np.geomspace(0.05, 1.0, 20)
TAU_GRID.setflags(write=False)
# rows of P = |X T^T| formed at a time: no probe estimate holds a draws x
# directions array, only X and one block of P per thread (96 rows of a
# 1324-direction P take 1.0 MB, so a block stays in a core's cache across
# the thresholds). A multiple of 24: on OpenBLAS 0.3.31 at one thread, a
# gemm over 24k rows of X starting at a multiple of 24 gives every row the
# bits of the whole X @ T.T at each probe shape measured (128-row blocks
# do not), so the blocked counts and column sums keep the whole product's
# results.
COUNT_BLOCK_ROWS = 96
# a block's count per threshold is at most its rows, COUNT_BLOCK_ROWS plus a
# joined remainder row, and `_count_at_least` keeps it in a uint8
if COUNT_BLOCK_ROWS + 1 > np.iinfo(np.uint8).max:
    raise ImportError(f"COUNT_BLOCK_ROWS = {COUNT_BLOCK_ROWS}: a block's counts overflow uint8")


def probe_directions(design: DesignSpec, count: int, seed: int) -> np.ndarray:
    """Unit probe directions, stacked: `count` random ones, then the n
    canonical ones and 2-sparse ones on at most MAX_PAIRS coordinate pairs."""
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
    return np.vstack([raw, np.eye(n), plus, minus])


def _check_probe_sizes(directions: int, draws: int) -> None:
    """Reject probe sizes `estimate_Q`, `moment_ratio_p2` and `l2_l1_ratio`
    cannot run with, before they draw."""
    if directions < 0:
        raise ValueError(f"directions must be nonnegative, got {directions}")
    if draws < MIN_DRAWS:
        raise ValueError(f"draws must be positive and at least {MIN_DRAWS}, got {draws}")


def _probe_draws(design: DesignSpec, directions: int, draws: int, seed: int, tag: int) -> tuple[np.ndarray, np.ndarray]:
    """`draws` fresh draws X (substream `tag`) and the probe directions T,
    one per row each."""
    T = probe_directions(design, directions, seed)
    return design.sample_coords(substream(seed, DIRECTIONS_TAG, tag), (draws, design.n)), T


def _row_blocks(rows: int) -> list[slice]:
    """The row blocks of P = |X T^T|: COUNT_BLOCK_ROWS rows each from row 0,
    the last one short. A one-row remainder joins the block before it, since
    numpy computes a one-row product by gemv, whose bits differ from gemm's."""
    edges = [*range(0, rows, COUNT_BLOCK_ROWS), rows]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _abs_rows(X: np.ndarray, T: np.ndarray, rows: slice) -> np.ndarray:
    """The rows `rows` of P = |X T^T|."""
    P = X[rows] @ T.T
    return np.abs(P, out=P)


def _count_at_least(X: np.ndarray, T: np.ndarray, thresholds) -> np.ndarray:
    """int32 counts #{i : |<X_i, T_d>| >= v}, one row per threshold v in
    input order and one column per direction d.

    Each `map_trials` thread forms one row block of P = |X T^T| at a time
    (see `_row_blocks`), counts it against every threshold in uint8 (a block
    has at most COUNT_BLOCK_ROWS + 1 rows) and adds the block counts into
    one int32 total. Integer counts add exactly in any order, and each is at
    most X.shape[0], so the result is the same for every thread count; no
    draws x directions array is held.
    """
    blocks = _row_blocks(X.shape[0])
    total = np.zeros((len(thresholds), T.shape[0]), dtype=np.int32)
    lock = threading.Lock()

    def count_block(b: int) -> None:
        block = _abs_rows(X, T, blocks[b])
        counts = np.empty(total.shape, dtype=np.uint8)
        mask = np.empty(block.shape, dtype=bool)
        for k, v in enumerate(thresholds):
            np.greater_equal(block, v, out=mask)
            np.add.reduce(mask.view(np.uint8), axis=0, dtype=np.uint8, out=counts[k])
        with lock:
            np.add(total, counts, out=total)

    map_trials(count_block, len(blocks))
    return total


def _column_means(X: np.ndarray, T: np.ndarray, powers) -> list[np.ndarray]:
    """np.mean(P**power, axis=0) for P = |X T^T|, one array per power in
    input order, bit for bit, without holding P.

    numpy sums axis 0 of a C-ordered array row by row, so stacking the sum
    carried so far on top of each block's rows and reducing that stack adds
    the rows in the whole array's order.
    """
    sums = np.zeros((len(powers), T.shape[0]))
    stack = np.empty((COUNT_BLOCK_ROWS + 2, T.shape[0]))  # the carried sums, a block, a joined remainder row
    for rows in _row_blocks(X.shape[0]):
        block = _abs_rows(X, T, rows)
        carried = stack[: block.shape[0] + 1]
        for total, power in zip(sums, powers):
            carried[0] = total
            np.power(block, power, out=carried[1:])
            np.add.reduce(carried, axis=0, out=total)
    return [total / X.shape[0] for total in sums]


def estimate_Q(design: DesignSpec, u, directions: int, draws: int, seed: int) -> tuple[SmallBallEstimate, ...]:
    """Estimate inf over unit directions t of Pr(|<X, t>| >= u), for each
    threshold u of the 1-D sequence `u`; returns one SmallBallEstimate per
    threshold, in input order, each echoing its threshold as a float. A zero
    threshold is counted like any other: every |<X, t>| >= 0, so its q_hat
    is 1.0.

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
    if not np.all(us >= 0):  # NaN fails this too
        raise ValueError("u must be nonnegative, not NaN")
    _check_probe_sizes(directions, draws)
    X, T = _probe_draws(design, directions, draws, seed, 0)
    counts = _count_at_least(X, T, us)
    X2 = design.sample_coords(substream(seed, DIRECTIONS_TAG, 1), (draws, design.n))

    estimates = []
    for v, count in zip(us, counts):
        probs = count / draws
        worst = int(np.argmin(probs))
        q_hat = float(np.mean(np.abs(X2 @ T[worst]) >= v))
        stderr = math.sqrt(max(q_hat * (1.0 - q_hat), 0.0) / draws)
        flags = []
        # the first `directions` probes are the random ones; the n canonical
        # ones always follow them
        if directions and probs[directions:].min() < probs[:directions].min():
            flags.append("structured_below_random")
        estimates.append(SmallBallEstimate(float(v), q_hat, T.shape[0], draws, stderr, tuple(flags)))
    return tuple(estimates)


def paley_zygmund_Q(kappa2: float, p: float, u: float) -> float:
    """Small-ball lower bound ((1 - u^2)/kappa2^2)^(p/(p-2)) from an Lp/L2 ratio."""
    if not 2 < p < math.inf:
        raise ValueError("p must be finite and exceed 2")
    if not kappa2 >= 1:
        raise ValueError("kappa2 must be at least 1")
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie in (0, 1)")
    return ((1.0 - u * u) / kappa2**2) ** (p / (p - 2.0))


def moment_ratio_p2(design: DesignSpec, p: float, directions: int, draws: int, seed: int) -> float:
    """Max over probed directions of the empirical Lp/L2 ratio of <X, t>."""
    if not 2 <= p < math.inf:
        raise ValueError("p must be finite and at least 2")
    _check_probe_sizes(directions, draws)
    mean_p, mean_2 = _column_means(*_probe_draws(design, directions, draws, seed, 2), [p, 2])
    return float(np.max(mean_p ** (1.0 / p) / np.sqrt(mean_2)))


def l2_l1_ratio(design: DesignSpec, directions: int, draws: int, seed: int) -> float:
    """Max over probed directions of the empirical L2/L1 ratio of <X, t>."""
    _check_probe_sizes(directions, draws)
    mean_2, mean_1 = _column_means(*_probe_draws(design, directions, draws, seed, 3), [2, 1])
    return float(np.max(np.sqrt(mean_2) / mean_1))


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
    if not 0 <= tau < math.inf:
        raise ValueError("tau must be nonnegative and finite")
    if N < 1:
        raise ValueError("N must be at least 1")
    if trials < 1:
        raise ValueError("trials must be positive")
    if probes < 0:
        raise ValueError("probes must be nonnegative")
    if not r <= 2.0 * class_spec.R * (1.0 + 1e-12):
        raise ValueError(f"r exceeds the diameter of the difference class, or is NaN: got {r!r}")


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
    if not 0.0 <= q_hat <= 1.0:
        raise ValueError(f"q_hat must lie in [0, 1], got {q_hat!r}")
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
        X = sample_design(design, N, seed, trial=j)
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
