"""Empirical risk minimization of the squared loss over a scaled l1 ball.

The solver is accelerated projected gradient (FISTA) with step 1/L and a
monotone restart; the objective is a convex quadratic and the feasible set
has a cheap exact projection, so this is both simple and fast. Each step
multiplies by G once: the extrapolated point y = t_next + w (t_next - t)
has G y = G t_next + w (G t_next - G t), from products already formed. L
starts at twice the largest diagonal entry of G, at most twice the top
eigenvalue, and every step is checked against the quadratic upper model
with that L; a failed check doubles L and redoes the step (backtracking,
Beck & Teboulle 2009).
Stopping is by the projected-gradient fixed-point residual, which certifies
optimality for a convex problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Moments, Sample
from .geometry import as_vector, project_l1_rows


@dataclass(frozen=True)
class ClassSpec:
    """An l1-ball linear class: functions <t, .> with ||t||_1 <= R.

    t0 is the true parameter generating the responses, so <t0, .> minimizes
    the population risk whenever the noise is independent and centred.
    """

    n: int
    R: float
    t0: np.ndarray

    def __post_init__(self):
        if not 0 <= self.R < math.inf:
            raise ValueError("R must be finite and nonnegative")
        t0 = as_vector(self.t0) if np.asarray(self.t0).size else None
        if t0 is None or t0.shape[0] != self.n:
            raise ValueError("t0 must be a length-n vector")
        if np.abs(t0).sum() > self.R * (1.0 + 1e-12) + 1e-300:
            raise ValueError("t0 must satisfy ||t0||_1 <= R")
        object.__setattr__(self, "t0", t0)


@dataclass(frozen=True)
class ErmResult:
    t_hat: np.ndarray
    empirical_risk: float
    iterations: int
    kkt_residual: float
    converged: bool


# above this dimension, a row of V whose support S holds fewer than n/2
# coordinates is multiplied on S alone, in gathers of at most _GATHER_BLOCK
# numbers of G
_GATHER_MIN_N = 256
_GATHER_BLOCK = 2**16


def _matvec(G: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row i is G[i] @ V[i] for a stack of symmetric G's.

    Up to n = _GATHER_MIN_N, one BLAS call forms every row, as the 2-d
    product would. Above it, each row is formed on its own: a row whose
    support S has |S| < n/2 as G[i][S]^T V[i][S], gathering the rows G[i][S]
    a block at a time, and any other by the one-row form of the stacked
    call. The rule reads only n and the row's own support, so a row's bytes
    never depend on the other rows.
    """
    n = V.shape[-1]
    if n <= _GATHER_MIN_N:
        return (G @ V[:, :, None])[:, :, 0]
    out = np.zeros_like(V)
    step = max(1, _GATHER_BLOCK // n)
    for i, v in enumerate(V):
        S = np.flatnonzero(v)
        if 2 * S.size >= n:
            out[i] = (G[i : i + 1] @ V[i : i + 1, :, None])[0, :, 0]
            continue
        for lo in range(0, S.size, step):
            s = S[lo : lo + step]
            out[i] += v[s] @ G[i, s]
    return out


def _rounding_allowance(G: np.ndarray, R: float) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix of a (k, n, n) stack, g = max_i G_ii and a bound on the
    rounding in the upper-model check d^T (G t - G x) <= (L/2) ||d||^2, per
    unit of ||d||_2.

    For a PSD G, |G_ij| <= g, and the points have ||.||_2 <= ||.||_1 <= 3R
    (extrapolated points at most 3R, the others R), so each product, the
    recurrence and the dot product err by well under 16 n^2 eps g R ||d||_2.
    The bound on a product holds for any order of its sum: entry i of G t
    sums at most n rounded terms G_ij t_j, and in any order the result errs
    by at most about n eps sum_j |G_ij t_j| <= n eps g ||t||_1. A gathered
    product (see `_matvec`) is one such order: it leaves out the terms with
    t_j = 0, which are exact zeros, and adds its blocks' partial sums, which
    is a regrouping of the same terms. The maximum is exact in any order.
    """
    n = G.shape[-1]
    g = np.diagonal(G, axis1=1, axis2=2).max(axis=1)
    return g, 16.0 * n * n * np.finfo(np.float64).eps * R * g


def _breaks_upper_model(d: np.ndarray, Gd: np.ndarray, L: np.ndarray, allowance: np.ndarray) -> np.ndarray:
    """Rows where the step d, with product Gd = G t_new - G x, breaks
    f(t_new) <= f(x) + grad f(x)^T d + (L/2) ||d||^2 by more than rounding;
    for the quadratic f the condition is d^T G d <= (L/2) ||d||^2."""
    dd = np.vecdot(d, d)
    return np.vecdot(d, Gd) > 0.5 * L[:, 0] * dd + allowance * np.sqrt(dd)


def solve_erm(data: Sample | Moments, class_spec: ClassSpec, tol: float, max_iter: int = 100000) -> ErmResult:
    """Minimize (1/N) sum (<t, X_i> - Y_i)^2 = t^T G t - 2 b^T t + c over ||t||_1 <= R.

    Reads only the moments (G, b, c) of the data; a Sample is reduced to them
    first. The one-problem case of `solve_erms`, which describes the method.
    """
    moments = data.moments() if isinstance(data, Sample) else data
    return solve_erms([moments], class_spec, tol=tol, max_iter=max_iter)[0]


def solve_erms(moments: list[Moments], class_spec: ClassSpec, tol: float, max_iter: int = 100000) -> list[ErmResult]:
    """`solve_erm` for each of a list of Moments over one class, as one stacked run.

    FISTA with step 1/L and a restart whenever the objective would increase,
    so the accepted objective sequence is non-increasing. A step takes one
    product G @ t_next; G @ y comes from the recurrence
    G t_next + w (G t_next - G t), and a restarted row (w = 0) has
    G y = G t_next exactly. L starts at 2 max_i G_ii, which for a PSD G is
    at most twice its top eigenvalue lambda_max. Every projected-gradient
    step from a point x, the restart step from t included, must meet the
    upper model d^T (G t_new - G x) <= (L/2) ||d||^2 (d = t_new - x) up to a
    rounding allowance; a row that fails doubles its L and redoes the step.
    A step fails only while (L/2) ||d||^2 < d^T G d <= lambda_max ||d||^2,
    so L stays below 4 lambda_max. Stops once the projected-gradient
    residual ||t - P(t - grad/L)||_2 drops below tol. The reported empirical
    risk is the objective at t_hat.

    The problems share each step's numpy calls, over a (k, n, n) stack of the
    G's (above n = _GATHER_MIN_N, the products are formed row by row, on
    each point's support; see `_matvec`), but every row does the arithmetic
    of a lone solve: its result has the same bytes whatever the other rows
    are. A row leaves the stack when it converges; the stack is gathered
    again only then.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if any(m.n != class_spec.n for m in moments):
        raise ValueError("sample dimension does not match the class")
    n, R = class_spec.n, class_spec.R
    results = [ErmResult(np.zeros(n), m.c, 0, 0.0, True) for m in moments]
    if R == 0.0 or not moments:
        return results
    if len(moments) == 1:
        G, b = moments[0].G[None], moments[0].b[None]
    else:
        G, b = np.stack([m.G for m in moments]), np.stack([m.b for m in moments])
    c = np.array([m.c for m in moments])

    g, allowance = _rounding_allowance(G, R)
    L = 2.0 * g
    # L = 0 means X = 0: every feasible t has the same risk, and the row
    # keeps its zero result
    rows = np.flatnonzero(L != 0.0)
    if rows.size == 0:
        return results
    if rows.size < len(moments):
        G, b, c, L, allowance = G[rows], b[rows], c[rows], L[rows], allowance[rows]
    L = L[:, None]

    def finish(done, rows, t, f_t, residual, iterations: int) -> None:
        # the risk is a sum of squares; rounding in the expanded form can
        # leave it a few ulps of c below zero
        for j in np.flatnonzero(done):
            results[rows[j]] = ErmResult(t[j].copy(), max(float(f_t[j]), 0.0), iterations, float(residual[j]), bool(residual[j] <= tol))

    def step(r, x, Gx):
        """Projected-gradient steps from the points x, with products Gx, of
        the stack rows r; a row whose step breaks the upper model doubles its
        L and steps again. Returns the new points and their products."""
        t_new = project_l1_rows(x - 2.0 * (Gx - b[r]) / L[r], R)
        Gt_new = _matvec(G[r], t_new)
        failed = _breaks_upper_model(t_new - x, Gt_new - Gx, L[r], allowance[r])
        if failed.any():
            stack_rows = np.arange(L.shape[0])[r]
            while failed.any():
                # once every row fails, r indexes them all: G[r] for a
                # slice r is a view, where an index array would copy each G
                j = slice(None) if failed.all() else np.flatnonzero(failed)
                rj = r if failed.all() else stack_rows[j]
                L[rj] *= 2.0
                t_new[j] = project_l1_rows(x[j] - 2.0 * (Gx[j] - b[rj]) / L[rj], R)
                Gt_new[j] = _matvec(G[rj], t_new[j])
                failed[j] = _breaks_upper_model(t_new[j] - x[j], Gt_new[j] - Gx[j], L[rj], allowance[rj])
        return t_new, Gt_new

    # objective and gradient take the product G @ t, formed once per point;
    # the extrapolated point's product G @ y comes from the recurrence; the
    # start t = 0 lies in every ball with R > 0
    t = np.zeros((rows.size, n))
    Gt = _matvec(G, t)
    y, Gy = t, Gt
    f_t = np.vecdot(t, Gt) - 2.0 * np.vecdot(b, t) + c
    # FISTA's momentum: each row's theta starts at 1 and restarts at 1, and a
    # step extrapolates by (theta - 1)/theta' with theta' = (1 + sqrt(1 + 4 theta^2))/2
    theta = np.ones(rows.size)
    for iterations in range(1, max_iter + 1):
        t_next, Gt_next = step(slice(None), y, Gy)
        f_next = np.vecdot(t_next, Gt_next) - 2.0 * np.vecdot(b, t_next) + c
        worse = f_next > f_t
        if worse.any():
            # restart: plain projected-gradient step from the last accepted point
            r = slice(None) if worse.all() else np.flatnonzero(worse)
            theta[r] = 1.0
            t_r, Gt_r = step(r, t[r], Gt[r])
            t_next[r], Gt_next[r] = t_r, Gt_r
            f_next[r] = np.vecdot(t_r, Gt_r) - 2.0 * np.vecdot(b[r], t_r) + c[r]
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        w = ((theta - 1.0) / theta_next)[:, None]
        y = t_next + w * (t_next - t)
        Gy = Gt_next + w * (Gt_next - Gt)
        t, Gt, f_t, theta = t_next, Gt_next, f_next, theta_next
        d = t - project_l1_rows(t - 2.0 * (Gt - b) / L, R)
        residual = np.sqrt(np.vecdot(d, d))
        done = residual <= tol
        if done.any():
            finish(done, rows, t, f_t, residual, iterations)
            if done.all():
                break
            keep = ~done
            rows, G, b, c, L, allowance, theta = rows[keep], G[keep], b[keep], c[keep], L[keep], allowance[keep], theta[keep]
            t, Gt, y, Gy, f_t, residual = t[keep], Gt[keep], y[keep], Gy[keep], f_t[keep], residual[keep]
    else:
        finish(np.ones(rows.size, dtype=bool), rows, t, f_t, residual, max_iter)
    return results
