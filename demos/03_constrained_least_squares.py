"""The learning procedure: squared-loss minimization over a scaled l1 ball.

Solves a small noisy instance with the accelerated projected-gradient
solver, certifies it by the Frank-Wolfe duality gap, and evaluates the
empirical excess loss, which is nonpositive at the minimizer by definition.
"""

import numpy as np

from ermbounds import ClassSpec, DesignSpec, NoiseSpec, Sample, sample_design, sample_response, solve_erm


def draw(cls, design, noise, N, seed):
    X = sample_design(design, N, seed)
    return Sample(X, sample_response(cls, noise, X, seed), seed)


def excess_loss(t, cls, sample):
    """P_N l_t - P_N l_t0, through the decomposition
    (1/N) sum <t - t0, X_i>^2 + (2/N) sum xi_i <t - t0, X_i>, xi_i = <t0, X_i> - Y_i."""
    X, Y = sample.design, sample.responses
    delta = X @ (t - cls.t0)
    xi = X @ cls.t0 - Y
    return float(np.mean(delta**2) + 2.0 * np.mean(xi * delta))


cls = ClassSpec(n=3, R=1.0, t0=np.array([0.4, 0.0, 0.0]))
sample = draw(cls, DesignSpec("rademacher", 3), NoiseSpec("gaussian", sigma=0.5), N=6, seed=42)

res = solve_erm(sample, cls, tol=1e-10)
print("solver:   t_hat =", np.round(res.t_hat, 6))
print("          risk =", res.empirical_risk, "iterations =", res.iterations, "residual =", res.kkt_residual)

# the risk t^T G t - 2 b^T t + c is convex with gradient g = 2(G t - b), so
# it exceeds its minimum over R*B1 by at most g^T t + R ||g||_inf
moments = sample.moments()
g = 2.0 * (moments.G @ res.t_hat - moments.b)
print("Frank-Wolfe gap (bounds risk - min risk):", float(g @ res.t_hat + cls.R * np.abs(g).max()))

print("\nexcess loss at t0 (zero by definition):", excess_loss(cls.t0, cls, sample))
print("excess loss at t_hat (nonpositive at the minimizer):", excess_loss(res.t_hat, cls, sample))

# noise-free case with enough rows: exact recovery
clean = draw(cls, DesignSpec("gaussian", 3), NoiseSpec("zero"), N=30, seed=43)
res_clean = solve_erm(clean, cls, tol=1e-12)
print("\nnoise-free recovery error:", float(np.linalg.norm(res_clean.t_hat - cls.t0)))
