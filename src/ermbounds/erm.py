"""Empirical risk minimization of the squared loss over a scaled l1 ball.

The solver is accelerated projected gradient with fixed step 1/L and a
monotone restart; the objective is a convex quadratic and the feasible set
has a cheap exact projection, so this is both simple and fast. Stopping is
by the projected-gradient fixed-point residual, which certifies optimality
for a convex problem.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import Moments, Sample
from .geometry import as_vector, project_l1


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
        if self.R < 0:
            raise ValueError("R must be nonnegative")
        t0 = as_vector(self.t0) if np.asarray(self.t0).size else None
        if t0 is None or t0.shape[0] != self.n:
            raise ValueError("t0 must be a length-n vector")
        if np.abs(t0).sum() > self.R * (1.0 + 1e-12) + 1e-300:
            raise ValueError("t0 must satisfy ||t0||_1 <= R")
        object.__setattr__(self, "t0", t0)

    def to_record(self) -> dict:
        return {"n": self.n, "R": self.R, "t0": self.t0.tolist()}


@dataclass(frozen=True)
class ErmResult:
    t_hat: np.ndarray
    empirical_risk: float
    iterations: int
    kkt_residual: float
    converged: bool


def _power_lambda_max(G: np.ndarray, rel_tol: float = 0.005, max_iter: int = 1000) -> float:
    """Largest eigenvalue of a PSD matrix by power iteration (about 1% accuracy).

    Two fixed random starts guard against a start vector sitting inside a
    lower eigenspace (easy to hit with small +-1 designs); the larger
    estimate wins.
    """
    n = G.shape[0]
    best = 0.0
    for start_seed in (0x9E3779B9, 0x85EBCA77):
        v = np.random.Generator(np.random.PCG64(start_seed)).standard_normal(n)
        v /= np.linalg.norm(v)
        lam = 0.0
        w = G @ v
        for _ in range(max_iter):
            norm = np.linalg.norm(w)
            if norm == 0.0:
                lam = 0.0
                break
            v = w / norm
            w = G @ v
            lam_new = float(v @ w)
            if abs(lam_new - lam) <= rel_tol * max(lam_new, 1e-300):
                lam = lam_new
                break
            lam = lam_new
        best = max(best, lam)
    return best


def _moments_of(data: Sample | Moments, class_spec: ClassSpec) -> Moments:
    moments = data if isinstance(data, Moments) else data.moments()
    if moments.n != class_spec.n:
        raise ValueError("sample dimension does not match the class")
    return moments


def solve_erm(data: Sample | Moments, class_spec: ClassSpec, tol: float = 1e-9, max_iter: int = 100000) -> ErmResult:
    """Minimize (1/N) sum (<t, X_i> - Y_i)^2 = t^T G t - 2 b^T t + c over ||t||_1 <= R.

    Reads only the moments (G, b, c) of the data; a Sample is reduced to them
    first. FISTA with step 1/L (L = twice the top eigenvalue of G, padded 5%
    for the power-iteration slack) and a restart whenever the objective would
    increase, so the accepted objective sequence is non-increasing. Stops once
    the projected-gradient residual ||t - P(t - grad/L)||_2 drops below tol.
    The reported empirical risk is the objective at t_hat.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    moments = _moments_of(data, class_spec)
    G, b, c = moments.G, moments.b, moments.c
    R = class_spec.R

    if R == 0.0:
        return ErmResult(np.zeros(class_spec.n), c, 0, 0.0, True)

    L = 2.0 * _power_lambda_max(G) * 1.05
    if L == 0.0:
        # X = 0: every feasible t has the same risk
        return ErmResult(np.zeros(class_spec.n), c, 0, 0.0, True)

    # objective and gradient take the product G @ t, formed once per point
    def obj(t, Gt):
        return float(t @ Gt - 2.0 * (b @ t) + c)

    def grad(Gt):
        return 2.0 * (Gt - b)

    t = project_l1(np.zeros(class_spec.n), R)
    Gt = G @ t
    y = t
    theta = 1.0
    f_t = obj(t, Gt)
    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        t_next = project_l1(y - grad(G @ y) / L, R)
        Gt_next = G @ t_next
        f_next = obj(t_next, Gt_next)
        if f_next > f_t:
            # restart: plain projected-gradient step from the last accepted point
            theta = 1.0
            t_next = project_l1(t - grad(Gt) / L, R)
            Gt_next = G @ t_next
            f_next = obj(t_next, Gt_next)
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        y = t_next + ((theta - 1.0) / theta_next) * (t_next - t)
        t, Gt, f_t, theta = t_next, Gt_next, f_next, theta_next
        residual = float(np.linalg.norm(t - project_l1(t - grad(Gt) / L, R)))
        if residual <= tol:
            break
    # the risk is a sum of squares; rounding in the expanded form can leave
    # it a few ulps of c below zero
    return ErmResult(t, max(f_t, 0.0), iterations, residual, residual <= tol)


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


def _l1_lattice_objective_min(G, b, c, R, resolution):
    """Exact minimum of the quadratic over the lattice resolution*Z^n inside R*B1."""
    n = G.shape[0]
    m = int(math.floor(R / resolution))
    axis = np.arange(-m, m + 1)
    best_val = math.inf
    best_t = np.zeros(n)
    if n == 1:
        ts = axis[:, None] * resolution
        vals = np.einsum("ij,jk,ik->i", ts, G, ts) - 2.0 * ts @ b + c
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
        vals = np.einsum("ij,jk,ik->i", pts, G, pts) - 2.0 * pts @ b + c
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_t = pts[i].copy()
    return best_val, best_t


def brute_force_erm(sample: Sample, class_spec: ClassSpec, resolution: float = 5e-3, refine_steps: int = 100) -> np.ndarray:
    """Exhaustive-grid minimizer over R*B1, polished by projected-gradient steps.

    Only meant as an oracle for small problems (n <= 4).
    """
    if class_spec.n > 4:
        raise ValueError("brute_force_erm is limited to n <= 4")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    moments = _moments_of(sample, class_spec)
    G, b, c = moments.G, moments.b, moments.c
    R = class_spec.R
    if R == 0.0:
        return np.zeros(class_spec.n)
    _, t = _l1_lattice_objective_min(G, b, c, R, resolution)
    L = 2.0 * _power_lambda_max(G) * 1.05
    if L == 0.0:
        return t
    for _ in range(refine_steps):
        t = project_l1(t - 2.0 * (G @ t - b) / L, R)
    return t
