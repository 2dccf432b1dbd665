"""The learning procedure: squared-loss minimization over a scaled l1 ball.

Solves a small noisy instance with the accelerated projected-gradient
solver, confirms it against the exhaustive grid oracle, and evaluates the
empirical excess loss, which is nonpositive at the minimizer by definition.
"""

import numpy as np

from ermbounds import ClassSpec, DesignSpec, NoiseSpec, brute_force_erm, excess_loss, make_sample, solve_erm

cls = ClassSpec(n=3, R=1.0, t0=np.array([0.4, 0.0, 0.0]))
sample = make_sample(cls, DesignSpec("rademacher", 3), NoiseSpec("gaussian", sigma=0.5), N=6, seed=42)

res = solve_erm(sample, cls, tol=1e-10)
print("solver:   t_hat =", np.round(res.t_hat, 6))
print("          risk =", res.empirical_risk, "iterations =", res.iterations, "residual =", res.kkt_residual)

t_oracle = brute_force_erm(sample, cls)
risk_oracle = float(np.mean((sample.design @ t_oracle - sample.responses) ** 2))
print("oracle:   t =", np.round(t_oracle, 6), "risk =", risk_oracle)
print("objective gap:", abs(res.empirical_risk - risk_oracle))

print("\nexcess loss at t0 (zero by definition):", excess_loss(cls.t0, cls, sample))
print("excess loss at t_hat (nonpositive at the minimizer):", excess_loss(res.t_hat, cls, sample))

# noise-free case with enough rows: exact recovery
clean = make_sample(cls, DesignSpec("gaussian", 3), NoiseSpec("zero"), N=30, seed=43)
res_clean = solve_erm(clean, cls, tol=1e-12)
print("\nnoise-free recovery error:", float(np.linalg.norm(res_clean.t_hat - cls.t0)))
