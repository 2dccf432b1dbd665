"""Independent oracles used across the test suite.

These deliberately avoid the code paths of the implementations they check:
the support-function oracle maximizes the linear functional iteratively
through a Lagrangian bisection on the l2 multiplier, and the 2-d oracle
enumerates the boundary of the intersection directly. The single-direction
small-ball probability draws its own sample rather than reading the probe
matrix the estimator shares across thresholds. The l1 step oracle bisects on
the float feasibility predicate instead of sorting breakpoints. The scalar
realized suprema take one sample and sign vector at a time, with no trial
loop or batch, and are compared row by row against the Z-batches.
"""

from __future__ import annotations

import math

import numpy as np

from ermbounds.distributions import DesignSpec, Sample
from ermbounds.erm import ClassSpec
from ermbounds.geometry import BallIntersection, support_l1l2
from ermbounds.rng import DIRECTIONS_TAG, substream


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


def rademacher_sup(design: np.ndarray, signs: np.ndarray, class_spec: ClassSpec, radius: float) -> float:
    """Realized localized Rademacher supremum for one sample and sign vector.

    Z = N^{-1/2} sum_i eps_i X_i; the supremum of <Z, t> over the symmetric
    localization set already dominates the absolute value, so no separate -Z
    evaluation is needed.
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
    return support_l1l2(z, BallIntersection(2.0 * class_spec.R, radius, class_spec.n))


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
    return support_l1l2(z, BallIntersection(2.0 * class_spec.R, s, class_spec.n))
