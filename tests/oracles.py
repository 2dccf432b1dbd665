"""Independent oracles used across the test suite.

These deliberately avoid the code paths of the implementations they check:
the support-function oracle maximizes the linear functional iteratively
through a Lagrangian bisection on the l2 multiplier, and the 2-d oracle
enumerates the boundary of the intersection directly. The single-direction
small-ball probability draws its own sample rather than reading the probe
matrix the estimator shares across thresholds. The l1 step oracle bisects on
the float feasibility predicate instead of sorting breakpoints. The scalar
realized suprema take one sample and sign vector at a time, with no trial
loop or batch, and are compared row by row against the Z-batches. The mean
localized Rademacher supremum and the top-d rearrangement bound are checked
helpers that only the tests call. The scalar l1 projection and FISTA loop
are one-problem code, the bitwise reference for the rows of the stacked
solver. The exhaustive-grid ERM minimizer shares no step rule with that
solver. The one-shot support kernel re-sorts its batch at every call: the
bitwise reference for the prepared batch and for the criterion at the
brackets of a fixed-point search. The probe-direction builder walks a Python
list of coordinate pairs, one row at a time: the bitwise reference for the
indexed build of the 2-sparse probes, whose row count `probe_rows` gives in
closed form. The student-t scale-mixture Z is built one trial at a time in a
plain loop from the substreams the batch reads: the bitwise reference for
its rows. The moment ratios take column means of the whole draws x
directions matrix |X T^T|: the bitwise references for the row-blocked sums.
The streamed moments draw a trial's whole design, gaussian included, in row
blocks: the reference the gaussian moment law is tested against. The int32
sign sampler draws one word per sign, as the package did before it read 32
signs off each word: the reference the packed signs' law is tested against;
the shift-and-mask unpack is the bitwise reference for their bit order.
A whole (design, responses) sample (`make_sample`) and its excess loss
through the paper's decomposition (`excess_loss`) are helpers that only the
tests call: the program reads a sample through its moments alone.
"""

from __future__ import annotations

import itertools
import math
import types

import numpy as np

from ermbounds import distributions, fixed_points
from ermbounds.distributions import DesignSpec, Moments, NoiseSpec, Sample, sample_design, sample_response
from ermbounds.erm import ClassSpec
from ermbounds.fixed_points import _z_batch
from ermbounds.geometry import REL_SLACK, SupportRows, as_vector, project_l1, support_l1l2_batch
from ermbounds.rng import DESIGN_TAG, DIRECTIONS_TAG, NOISE_TAG, substream
from ermbounds.smallball import MAX_PAIRS, probe_directions

# The stream tag of the signed reference Z's Rademacher signs, which no
# program draws: each design law is symmetric, so the package drops them.
SIGNS_TAG = 2


def project_l1_reference(v: np.ndarray, radius: float) -> np.ndarray:
    """Projection onto the l1 ball via scipy bisection on the threshold."""
    from scipy.optimize import brentq

    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    if radius == 0.0:
        return np.zeros_like(v)
    f = lambda theta: np.maximum(a - theta, 0.0).sum() - radius
    theta = brentq(f, 0.0, a.max(), xtol=1e-15)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def support_oracle(z: np.ndarray, rho: float, s: float, iters: int = 200) -> float:
    """Iterative maximization of <z, t> over the l1/l2 intersection.

    Maximizes the Lagrangian <z, t> - (mu/2)(||t||_2^2 - s^2) over the l1
    ball (whose maximizer is the l1 projection of z/mu) and bisects mu until
    the l2 constraint is met. Endpoint cases where one constraint is slack
    are handled directly.
    """
    z = np.asarray(z, dtype=np.float64)
    if rho == 0.0 or s == 0.0 or not z.any():
        return 0.0
    # l2 constraint slack: the l1 face maximizer already fits
    t_face = np.zeros_like(z)
    t_face[np.argmax(np.abs(z))] = rho * np.sign(z[np.argmax(np.abs(z))])
    if np.linalg.norm(t_face) <= s * (1 + 1e-15):
        return float(rho * np.abs(z).max())
    # l1 constraint slack at the l2 maximizer
    t_sphere = s * z / np.linalg.norm(z)
    if np.abs(t_sphere).sum() <= rho * (1 + 1e-15):
        return float(s * np.linalg.norm(z))

    def t_of_mu(mu):
        return project_l1_reference(z / mu, rho)

    mu_lo, mu_hi = 1e-12, np.linalg.norm(z) / s * 2.0
    while np.linalg.norm(t_of_mu(mu_hi)) > s:
        mu_hi *= 2.0
    while np.linalg.norm(t_of_mu(mu_lo)) < s:
        mu_lo /= 2.0
        if mu_lo < 1e-300:
            break
    for _ in range(iters):
        mu = math.sqrt(mu_lo * mu_hi)
        if np.linalg.norm(t_of_mu(mu)) > s:
            mu_lo = mu
        else:
            mu_hi = mu
    t = t_of_mu(math.sqrt(mu_lo * mu_hi))
    norm = np.linalg.norm(t)
    if norm > 0:
        t = t * min(1.0, s / norm)
    return float(z @ t)


def boundary_enum_2d(z: np.ndarray, rho: float, s: float, points: int = 10000) -> float:
    """Max of <z, t> over the boundary of rho*B1 ∩ s*B2 in the plane."""
    best = 0.0
    theta = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    circ = s * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    mask = np.abs(circ).sum(axis=1) <= rho
    if mask.any():
        best = max(best, float((circ[mask] @ z).max()))
    lam = np.linspace(0.0, 1.0, points)
    corners = rho * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]])
    for a, b in zip(corners[:-1], corners[1:]):
        seg = np.outer(1.0 - lam, a) + np.outer(lam, b)
        mask = np.linalg.norm(seg, axis=1) <= s
        if mask.any():
            best = max(best, float((seg[mask] @ z).max()))
    return best


def fit_loglog_slope(xs, ys) -> float:
    xs = np.log(np.asarray(xs, dtype=np.float64))
    ys = np.log(np.asarray(ys, dtype=np.float64))
    return float(np.polyfit(xs, ys, 1)[0])


def direction_probability(design: DesignSpec, direction: np.ndarray, u: float, draws: int, seed: int, trial: int = 101) -> float:
    """Empirical Pr(|<X, t>| >= u ||<X, t>||_L2) for a single direction.

    The probe is normalized internally, so the probability only depends on
    the direction of t (isotropy gives ||<X, t>||_L2 = ||t||_2).
    """
    t = np.asarray(direction, dtype=np.float64)
    norm = np.linalg.norm(t)
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    rng = substream(seed, trial, DIRECTIONS_TAG)
    X = design.sample_coords(rng, (draws, design.n))
    return float(np.mean(np.abs(X @ (t / norm)) >= u))


def probe_rows(n: int, count: int) -> int:
    """Number of rows `probe_directions` returns, without drawing them."""
    return count + n + 2 * min(n * (n - 1) // 2, MAX_PAIRS)


def probe_directions_reference(design: DesignSpec, count: int, seed: int) -> np.ndarray:
    """`smallball.probe_directions` built from a list of its coordinate pairs,
    one row per pair: the same stream, the same pair sample and the same bytes."""
    n = design.n
    rng = substream(seed, DIRECTIONS_TAG)
    raw = rng.standard_normal((count, n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    structured = [np.eye(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(pairs) > MAX_PAIRS:
        idx = rng.choice(len(pairs), size=MAX_PAIRS, replace=False)
        pairs = [pairs[k] for k in np.sort(idx)]
    if pairs:
        plus = np.zeros((len(pairs), n))
        minus = np.zeros((len(pairs), n))
        for row, (i, j) in enumerate(pairs):
            plus[row, i] = plus[row, j] = 1.0 / math.sqrt(2.0)
            minus[row, i] = 1.0 / math.sqrt(2.0)
            minus[row, j] = -1.0 / math.sqrt(2.0)
        structured += [plus, minus]
    return np.vstack([raw] + structured)


def count_at_least_reference(P: np.ndarray, thresholds) -> np.ndarray:
    """#{i : P[i, d] >= v} per threshold v (rows) and column d, from one
    whole pass over P per threshold: the reference for the blocked count."""
    return np.stack([(P >= v).sum(axis=0, dtype=np.int32) for v in thresholds])


def int32_signs(rng: np.random.Generator, size) -> np.ndarray:
    """Fair +-1 values, one int32 draw of {0, 1} each: the sampler
    `distributions.random_signs` replaced, the reference its law is tested
    against."""
    return rng.integers(0, 2, size=size, dtype=np.int32) * 2.0 - 1.0


def packed_signs(rng: np.random.Generator, size) -> np.ndarray:
    """+-1 values read off uint32 words by shift and mask: value 32 i + j is
    +1 when bit j of word i, (w_i >> j) & 1, is set. The bitwise reference
    for `distributions.random_signs`."""
    count = int(np.prod(size))
    words = rng.integers(0, 2**32, size=-(-count // 32), dtype=np.uint32).astype(np.int64)
    bits = (words[:, None] >> np.arange(32)) & 1
    return (bits.reshape(-1)[:count] * 2.0 - 1.0).reshape(size)


def make_sample(class_spec, design_spec: DesignSpec, noise: NoiseSpec, N: int, seed: int, trial: int = 0) -> Sample:
    """Draw a full (design, responses) sample for one trial."""
    X = sample_design(design_spec, N, seed, trial)
    Y = sample_response(class_spec, noise, X, seed, trial)
    return Sample(design=X, responses=Y, seed=seed)


def streamed_moments(class_spec: ClassSpec, design: DesignSpec, noise: NoiseSpec, N: int, seed: int, trial: int = 0) -> Moments:
    """Moments of the sample the oracle `make_sample` draws for one trial,
    whatever the design kind: the noise and the design from the same
    substreams, the design drawn and summed in row blocks of about
    distributions._MOMENT_BLOCK coordinates. With one block they equal
    `make_sample(...).moments()` bit for bit."""
    n = design.n
    t0 = np.asarray(class_spec.t0, dtype=np.float64)
    w = noise.sample(substream(seed, trial, NOISE_TAG), N)
    rng = substream(seed, trial, DESIGN_TAG)
    rows = max(1, distributions._MOMENT_BLOCK // n)
    blocks = []
    for lo in range(0, N, rows):
        X = design.sample_coords(rng, (min(rows, N - lo), n))
        blocks.append((X, X @ t0 + w[lo : lo + X.shape[0]]))
    return distributions._accumulate_moments(blocks, N, np.empty((n, n)))


def max_step_l1(t0: np.ndarray, u: np.ndarray, R: float, iters: int = 60) -> float:
    """Largest s >= 0 with ||t0 + s*u||_1 <= R, for a unit direction u.

    ||t0 + s*u||_1 is convex in s and feasible at s = 0, so the feasible
    steps form an interval; bisection keeps the returned point feasible.
    """
    hi = 2.0 * R * (1.0 + 1e-6)
    if np.abs(t0 + hi * u).sum() <= R:
        return hi
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.abs(t0 + mid * u).sum() <= R:
            lo = mid
        else:
            hi = mid
    return lo


def certified_min_eigenvalue(G: np.ndarray, rel_tol: float = 0.01, max_iter: int = 2000) -> float:
    """Smallest eigenvalue of a PSD matrix by inverse power iteration.

    Returns 0.0 when the matrix is numerically singular.
    """
    import scipy.linalg as sla

    n = G.shape[0]
    try:
        chol = sla.cho_factor(G, lower=True)
    except np.linalg.LinAlgError:
        return 0.0
    v = np.full(n, 1.0 / math.sqrt(n))
    mu = 0.0
    for _ in range(max_iter):
        w = sla.cho_solve(chol, v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        mu_new = float(v @ sla.cho_solve(chol, v))
        if abs(mu_new - mu) <= rel_tol * max(mu_new, 1e-300):
            break
        mu = mu_new
    return 1.0 / mu_new


def project_l1_scalar(v: np.ndarray, radius: float) -> np.ndarray:
    """The one-vector sort-based l1 projection the package used before it
    projected row-wise; `project_l1` must keep its bytes."""
    arr = np.asarray(v, dtype=np.float64)
    if radius == 0.0:
        return np.zeros_like(arr)
    a = np.abs(arr)
    if a.sum() <= radius * (1.0 + 1e-12):
        return arr.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, arr.size + 1)
    feasible = u > (css - radius) / ks
    k = np.nonzero(feasible)[0].max()
    theta = (css[k] - radius) / (k + 1.0)
    return np.sign(arr) * np.maximum(a - theta, 0.0)


def fista_erm_scalar(G: np.ndarray, b: np.ndarray, c: float, R: float, tol: float, max_iter: int) -> tuple:
    """The one-problem FISTA loop that every row of a stacked solve must
    reproduce bit for bit.

    L starts at 2 max_i G_ii. One product G @ t per step: the extrapolated
    point y = t_next + w (t_next - t) takes G @ y = G t_next + w (G t_next -
    G t). Every projected-gradient step from a point x is checked against the
    upper model d^T G d <= (L/2) ||d||^2 (d = t_new - x, G d = G t_new - G x)
    up to a rounding allowance; a failed step doubles L and is redone.

    Returns (t_hat, risk, iterations, residual, converged, log); `log` holds
    the restart and raise counts and every accepted step as (x, t_new, L).
    """
    n = G.shape[0]
    log = types.SimpleNamespace(restarts=0, raises=0, steps=[])
    if R == 0.0:
        return np.zeros(n), c, 0, 0.0, True, log
    g = float(np.diagonal(G).max())
    L = 2.0 * g
    if L == 0.0:
        return np.zeros(n), c, 0, 0.0, True, log
    allowance = 16.0 * n * n * np.finfo(np.float64).eps * R * g

    def obj(t, Gt):
        return float(t @ Gt - 2.0 * (b @ t) + c)

    def grad(Gt):
        return 2.0 * (Gt - b)

    def step(x, Gx):
        nonlocal L
        while True:
            t_new = project_l1_scalar(x - grad(Gx) / L, R)
            Gt_new = G @ t_new
            d = t_new - x
            dd = float(d @ d)
            if float(d @ (Gt_new - Gx)) <= 0.5 * L * dd + allowance * math.sqrt(dd):
                log.steps.append((x, t_new, L))
                return t_new, Gt_new
            L *= 2.0
            log.raises += 1

    t = project_l1_scalar(np.zeros(n), R)
    Gt = G @ t
    y, Gy = t, Gt
    theta = 1.0
    f_t = obj(t, Gt)
    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        t_next, Gt_next = step(y, Gy)
        f_next = obj(t_next, Gt_next)
        if f_next > f_t:
            log.restarts += 1
            theta = 1.0
            t_next, Gt_next = step(t, Gt)
            f_next = obj(t_next, Gt_next)
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        w = (theta - 1.0) / theta_next
        y = t_next + w * (t_next - t)
        Gy = Gt_next + w * (Gt_next - Gt)
        t, Gt, f_t, theta = t_next, Gt_next, f_next, theta_next
        residual = float(np.linalg.norm(t - project_l1_scalar(t - grad(Gt) / L, R)))
        if residual <= tol:
            break
    return t, max(f_t, 0.0), iterations, residual, residual <= tol, log


def _l1_lattice_objective_min(G, b, c, R, resolution):
    """Exact minimum of the quadratic over the lattice resolution*Z^n inside R*B1."""
    n = G.shape[0]
    m = int(math.floor(R / resolution))
    axis = np.arange(-m, m + 1)
    best_val = math.inf
    best_t = np.zeros(n)
    if n == 1:
        ts = axis[:, None] * resolution
        vals = np.vecdot(ts @ G, ts) - 2.0 * ts @ b + c
        i = int(np.argmin(vals))
        return vals[i], ts[i]
    # enumerate leading n-2 coordinates, vectorize the trailing plane
    lead_ranges = [axis] * (n - 2)
    g2, g3 = np.meshgrid(axis, axis, indexing="ij")
    g2 = g2.ravel()
    g3 = g3.ravel()
    plane_abs = np.abs(g2) + np.abs(g3)
    for lead in itertools.product(*lead_ranges):
        lead_abs = sum(abs(k) for k in lead)
        if lead_abs > m:
            continue
        mask = plane_abs <= m - lead_abs
        if not mask.any():
            continue
        pts = np.empty((int(mask.sum()), n))
        for j, k in enumerate(lead):
            pts[:, j] = k * resolution
        pts[:, n - 2] = g2[mask] * resolution
        pts[:, n - 1] = g3[mask] * resolution
        vals = np.vecdot(pts @ G, pts) - 2.0 * pts @ b + c
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_t = pts[i].copy()
    return best_val, best_t


def excess_loss(t, class_spec: ClassSpec, sample: Sample) -> float:
    """Empirical excess loss of <t, .> relative to <t0, .>.

    Computed through the decomposition
    (1/N) sum <t - t0, X_i>^2 + (2/N) sum xi_i <t - t0, X_i>
    with xi_i = <t0, X_i> - Y_i, which equals the direct loss difference
    P_N l_t - P_N l_{t0} as an algebraic identity.
    """
    t = as_vector(t)
    if t.shape[0] != class_spec.n:
        raise ValueError("dimension mismatch")
    X, Y = sample.design, sample.responses
    delta = X @ (t - class_spec.t0)
    xi = X @ class_spec.t0 - Y
    return float(np.mean(delta**2) + 2.0 * np.mean(xi * delta))


def brute_force_erm(sample: Sample, class_spec: ClassSpec) -> np.ndarray:
    """Exhaustive-grid minimizer over R*B1 on the lattice of spacing 5e-3,
    polished by 100 projected-gradient steps of size 1/L, L = 2 lambda_max(G)
    from an exact eigensolver, so the oracle shares no step rule with the
    solver it checks.

    Only meant as an oracle for small problems (n <= 4).
    """
    if class_spec.n > 4:
        raise ValueError("brute_force_erm is limited to n <= 4")
    moments = sample.moments()
    G, b, c = moments.G, moments.b, moments.c
    R = class_spec.R
    if R == 0.0:
        return np.zeros(class_spec.n)
    _, t = _l1_lattice_objective_min(G, b, c, R, 5e-3)
    L = 2.0 * float(np.linalg.eigvalsh(G)[-1])
    if L <= 0.0:
        return t
    for _ in range(100):
        t = project_l1(t - 2.0 * (G @ t - b) / L, R)
    return t


def rademacher_sup(design: np.ndarray, signs: np.ndarray, class_spec: ClassSpec, radius: float) -> float:
    """Realized localized Rademacher supremum for one sample and sign vector.

    Z = N^{-1/2} sum_i eps_i X_i (with multipliers xi in place of the signs,
    the sign-free multiplier row the package draws); the supremum of <Z, t>
    over the symmetric localization set already dominates the absolute
    value, so no separate -Z evaluation is needed.
    """
    if design.shape[0] != signs.shape[0]:
        raise ValueError("signs length must match the number of rows")
    if design.shape[1] != class_spec.n:
        raise ValueError("design dimension does not match the class")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius == 0.0:
        return 0.0
    N = design.shape[0]
    z = (signs @ design) / math.sqrt(N)
    return float(support_l1l2_batch(SupportRows(z), 2.0 * class_spec.R, radius)[0])


def multiplier_sup(sample: Sample, class_spec: ClassSpec, s: float, signs: np.ndarray) -> float:
    """Realized multiplier supremum sup |N^{-1/2} sum eps_i xi_i <t - t0, X_i>|."""
    X, Y = sample.design, sample.responses
    if X.shape[1] != class_spec.n:
        raise ValueError("sample dimension does not match the class")
    if X.shape[0] != signs.shape[0]:
        raise ValueError("signs length must match N")
    if s < 0:
        raise ValueError("radius must be nonnegative")
    if s == 0.0:
        return 0.0
    N = X.shape[0]
    xi = X @ class_spec.t0 - Y
    z = ((signs * xi) @ X) / math.sqrt(N)
    return float(support_l1l2_batch(SupportRows(z), 2.0 * class_spec.R, s)[0])


def expected_rademacher_sup(class_spec: ClassSpec, design: DesignSpec, N: int, trials: int, seed: int, radius: float) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the localized Rademacher supremum.

    The standard error is only meaningful from about 30 trials up.
    """
    Z = _z_batch(class_spec, design, N, trials, seed, None)
    sups = support_l1l2_batch(SupportRows(Z), 2.0 * class_spec.R, radius)
    mean = float(sups.mean())
    stderr = float(sups.std(ddof=1) / math.sqrt(len(sups))) if len(sups) > 1 else 0.0
    return mean, stderr


def student_t_law_z(class_spec: ClassSpec, design: DesignSpec, N: int, trials: int, seed: int, noise: NoiseSpec | None = None) -> np.ndarray:
    """Student-t Z rows from the gaussian scale-mixture law, one trial at a time.

    Trial j takes its noise from (seed, j, NOISE_TAG), then from
    (seed, j, DESIGN_TAG) chi^2_p in blocks of fixed_points._CHI2_BLOCK // n
    rows (2(E_1 + ... + E_{p/2}) for p of 4 or 6) and n normals G; the row is
    sqrt(M) G with M = (1/N) sum_i w_i^2 (p - 2)/chi^2_{p,i} (w = 1 for the
    Rademacher process).
    """
    n, p = class_spec.n, design.p
    rows = max(1, fixed_points._CHI2_BLOCK // n)
    Z = np.empty((trials, n))
    for j in range(trials):
        w2 = np.ones(N) if noise is None else noise.sample(substream(seed, j, NOISE_TAG), N) ** 2
        rng = substream(seed, j, DESIGN_TAG)
        M = np.zeros(n)
        for lo in range(0, N, rows):
            hi = min(lo + rows, N)
            if p in (4.0, 6.0):
                chi2 = 2.0 * sum(rng.standard_exponential((int(p) // 2, hi - lo, n)))
            else:
                chi2 = rng.chisquare(p, (hi - lo, n))
            M += ((p - 2.0) / chi2 * w2[lo:hi, None]).sum(axis=0)
        Z[j] = np.sqrt(M / N) * rng.standard_normal(n)
    return Z


def support_l1l2_batch_oneshot(Z: np.ndarray, rho: float, s: float) -> np.ndarray:
    """The support kernel as one call that sorts its batch: what
    `support_l1l2_batch(SupportRows(Z), rho, s)` must reproduce bit for bit."""
    m, n = Z.shape
    absZ = np.abs(Z)
    if s >= rho:
        return rho * absZ.max(axis=1)
    if rho >= s * np.sqrt(n):
        return s * np.sqrt((Z * Z).sum(axis=1))

    U = -np.sort(-absZ, axis=1)
    zero_col = np.zeros((m, 1))
    P1 = np.concatenate([zero_col, np.cumsum(U, axis=1)], axis=1)
    P2 = np.concatenate([zero_col, np.cumsum(U * U, axis=1)], axis=1)

    lam_b = np.concatenate([U, zero_col], axis=1)
    j = np.arange(n + 1)
    q_b = P2 - 2.0 * lam_b * P1 + j * lam_b**2
    g_break = rho * lam_b + s * np.sqrt(np.maximum(q_b, 0.0))

    k = np.arange(1, n + 1)
    m_k = P1[:, 1:]
    Q_k = P2[:, 1:]
    D = s * s * k - rho * rho
    A = np.maximum(k * Q_k - m_k**2, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_st = (m_k - rho * np.sqrt(A / D)) / k
    seg_lo = np.concatenate([U[:, 1:], zero_col], axis=1)
    seg_hi = U
    scale = U[:, :1] + 1.0
    tol = REL_SLACK * scale
    valid = (D > 0) & np.isfinite(lam_st) & (lam_st >= seg_lo - tol) & (lam_st <= seg_hi + tol) & (lam_st >= -tol)
    lam_st = np.clip(lam_st, 0.0, None)
    q_st = Q_k - 2.0 * lam_st * m_k + k * lam_st**2
    g_st = np.where(valid, rho * lam_st + s * np.sqrt(np.maximum(q_st, 0.0)), np.inf)

    return np.minimum(g_break.min(axis=1), g_st.min(axis=1))


def lemma_dsum_bound(n: int, d: int, kappa: float, C: float = 1.0) -> float:
    """Bound C*kappa*sqrt(d log(e n / d)) on the mean top-d rearrangement norm."""
    if not 1 <= d <= n:
        raise ValueError(f"d must lie in [1, {n}]")
    if kappa < 0 or C <= 0:
        raise ValueError("kappa must be nonnegative and C positive")
    return C * kappa * math.sqrt(d * math.log(math.e * n / d))


def probe_projections(design: DesignSpec, directions: int, draws: int, seed: int, tag: int) -> tuple[np.ndarray, np.ndarray]:
    """The probe directions T and the whole P = |X T^T| for `draws` fresh
    draws X (substream `tag`), one column per direction: the draws
    x directions matrix the blocked small-ball estimates never hold."""
    T = probe_directions(design, directions, seed)
    X = design.sample_coords(substream(seed, DIRECTIONS_TAG, tag), (draws, design.n))
    return T, np.abs(X @ T.T)


def moment_ratio_p2_whole(design: DesignSpec, p: float, directions: int, draws: int, seed: int) -> float:
    """`moment_ratio_p2` from whole-matrix column means of P: its bitwise reference."""
    _, proj = probe_projections(design, directions, draws, seed, 2)
    lp = np.mean(proj**p, axis=0) ** (1.0 / p)
    l2 = np.sqrt(np.mean(proj**2, axis=0))
    return float(np.max(lp / l2))


def l2_l1_ratio_whole(design: DesignSpec, directions: int, draws: int, seed: int) -> float:
    """`l2_l1_ratio` from whole-matrix column means of P: its bitwise reference."""
    _, proj = probe_projections(design, directions, draws, seed, 3)
    l2 = np.sqrt(np.mean(proj**2, axis=0))
    l1 = np.mean(proj, axis=0)
    return float(np.max(l2 / l1))
