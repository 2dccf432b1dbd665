"""Reference computations the output checks compare against.

Everything here is written from the paper's definitions with plain numpy
and the standard library. Nothing is imported from ermbounds, so a fault in
the program cannot hide itself by also being in its own reference.
"""

from __future__ import annotations

import json
import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def canonical_bytes(obj) -> bytes:
    """Canonical JSON (sorted keys, no whitespace, trailing newline)."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n").encode()


def gaussian_small_ball(u: float) -> float:
    """Pr(|G| >= u) for a standard Gaussian G, i.e. 2 * Phi-bar(u)."""
    return math.erfc(u / math.sqrt(2.0))


def tau_grid(points: int = 20, lo: float = 0.05, hi: float = 1.0) -> list:
    """The geometric threshold grid tau is chosen from."""
    ratio = (hi / lo) ** (1.0 / (points - 1))
    return [lo * ratio**k for k in range(points)]


# Closed-form rates with every constant equal to 1 (the paper's expressions).


def rho_N(N: int, n: int, R: float) -> float:
    if N <= n * n:
        arg = 2.0 * n / math.sqrt(N)
        return (R * R / math.sqrt(N)) * math.sqrt(math.log(arg)) if arg > 1.0 else 0.0
    return R * R * n / N


def v1(N: int, n: int, R: float) -> float:
    if N <= n:
        arg = 2.0 * n / N
        return (R * R / N) * math.log(arg) if arg > 1.0 else 0.0
    return 0.0


def v2(N: int, n: int, R: float, sigma: float) -> float:
    if sigma == 0.0:
        return 0.0
    if N <= n * n * sigma * sigma / (R * R):
        arg = 2.0 * n * sigma / (math.sqrt(N) * R)
        return (R * sigma / math.sqrt(N)) * math.sqrt(math.log(arg)) if arg > 1.0 else 0.0
    return sigma * sigma * n / N


def frank_wolfe_gap(X: np.ndarray, Y: np.ndarray, t: np.ndarray, R: float) -> float:
    """max over ||s||_1 <= R of <grad f(t), t - s> for f(t) = mean((Xt - Y)^2).

    Zero exactly at a minimizer over the l1 ball; it bounds f(t) - min f.
    """
    grad = 2.0 * X.T @ (X @ t - Y) / X.shape[0]
    return float(grad @ t + R * np.abs(grad).max())


def support_l1l2(Z: np.ndarray, rho: float, s: float, iters: int = 48) -> np.ndarray:
    """Row-wise sup{<z, t> : ||t||_1 <= rho, ||t||_2 <= s} by golden-section search.

    Uses the dual min over lam in [0, max|z|] of rho*lam + s*||(|z| - lam)_+||_2,
    which is convex in lam; 48 golden steps shrink the bracket by 1e-10.
    """
    A = np.abs(Z)

    def h(lam):
        gap = np.clip(A - lam[:, None], 0.0, None)
        return rho * lam + s * np.sqrt(np.einsum("ij,ij->i", gap, gap))

    lo = np.zeros(A.shape[0])
    hi = A.max(axis=1)
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = h(x1), h(x2)
    for _ in range(iters):
        left = f1 <= f2
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        new = np.where(left, hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo))
        f_new = h(new)
        x2, f2, x1, f1 = (np.where(left, x1, new), np.where(left, f1, f_new), np.where(left, new, x2), np.where(left, f_new, f2))
    return np.minimum(h(lo), h(hi))


def student_t4(rng: np.random.Generator, size) -> np.ndarray:
    """Student-t with 4 degrees of freedom scaled to unit variance.

    Built as G / sqrt(V/4) with V = -2 log(U1 U2), a chi-square with 4
    degrees of freedom; the variance of t_4 is 2, hence the final 1/sqrt(2).
    """
    g = rng.standard_normal(size)
    v = rng.random(size)
    v *= rng.random(size)
    np.log(v, out=v)
    v *= -0.5  # V/4
    np.sqrt(v, out=v)
    g /= v
    g *= math.sqrt(0.5)
    return g


def pareto_noise(rng: np.random.Generator, size, sigma: float, p: float) -> np.ndarray:
    """Symmetric noise with Pr(|W| > x) = (a/x)^p for x >= a, scaled to sd sigma.

    Inverse transform: |W| = a * U^(-1/p) with a = sigma * sqrt((p - 2)/p).
    """
    a = sigma * math.sqrt((p - 2.0) / p)
    mag = a * rng.random(size) ** (-1.0 / p)
    return np.where(rng.random(size) < 0.5, -mag, mag)


def heavy_tail_z(seed: int, trials: int, n: int, N: int, sigma: float, p: float, chunk: int = 25) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial vectors for the beta and alpha processes on a t_4 design.

    Returns (Z_rad, Z_mult): rows N^{-1/2} sum_i eps_i X_i and
    N^{-1/2} sum_i eps_i W_i X_i. With t0 fixed the multiplier xi_i is -W_i
    exactly, and eps*W has the law of W, so the sign is folded into W.
    Both use the same design draws; each estimate only needs its own law.
    """
    rng = np.random.default_rng([seed, 0xB0A5])
    z_rad = np.empty((trials, n))
    z_mult = np.empty((trials, n))
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        X = student_t4(rng, (size, N, n))
        eps = np.where(rng.random((size, N)) < 0.5, -1.0, 1.0)
        w = pareto_noise(rng, (size, N), sigma, p)
        z_rad[start : start + size] = np.einsum("ti,tin->tn", eps, X) / math.sqrt(N)
        z_mult[start : start + size] = np.einsum("ti,tin->tn", w, X) / math.sqrt(N)
    return z_rad, z_mult


def _bisect(ok, lo: float, hi: float, rel: float) -> float:
    """Smallest radius in [lo, hi] where ok holds, for ok false at lo and true at hi."""
    while hi - lo > rel * hi:
        mid = math.sqrt(lo * hi) if lo > 0 else 0.5 * hi
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def beta_fixed_point(Z: np.ndarray, R: float, N: int, gamma: float, rel: float = 2e-3) -> float:
    """Smallest r with mean_j sup_r(Z_j) <= gamma * r * sqrt(N)."""
    def ok(r):
        return float(support_l1l2(Z, 2.0 * R, r).mean()) <= gamma * r * math.sqrt(N)

    return _bisect(ok, 1e-6, 2.0 * R * math.sqrt(Z.shape[1]), rel)


def alpha_fixed_point(Z: np.ndarray, R: float, N: int, gamma: float, delta: float, rel: float = 2e-3) -> float:
    """Smallest s with Pr_j(sup_s(Z_j) <= gamma * s^2 * sqrt(N)) >= 1 - delta."""
    def ok(s):
        return float(np.mean(support_l1l2(Z, 2.0 * R, s) <= gamma * s * s * math.sqrt(N))) >= 1.0 - delta

    return _bisect(ok, 1e-6, 2.0 * R * math.sqrt(Z.shape[1]), rel)
