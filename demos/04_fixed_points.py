"""The three complexity fixed points, estimated by Monte Carlo.

beta* is where the localized Rademacher mean drops below gamma*r*sqrt(N)
(linear normalization, intrinsic to the class), k* uses the quadratic
normalization gamma*r^2*sqrt(N), and alpha* is the quantile fixed point of
the multiplier process, which carries the actual noise and shrinks with it.
"""

import numpy as np

from ermbounds import ClassSpec, DesignSpec, NoiseSpec, alpha_star, beta_star, k_star

cls = ClassSpec(n=32, R=1.0, t0=np.zeros(32))
design = DesignSpec("rademacher", 32)
N = 512

beta = beta_star(cls, design, N, gamma=0.1, trials=200, seed=1)
k = k_star(cls, design, N, gamma=0.1, trials=200, seed=1)
print(f"beta* = {beta.value:.4f}  bracket [{beta.brackets[0]:.4f}, {beta.brackets[1]:.4f}] flags={beta.flags}")
print(f"k*    = {k.value:.4f}  bracket [{k.brackets[0]:.4f}, {k.brackets[1]:.4f}] flags={k.flags}")

print("\nalpha* grows with the noise level (same random streams):")
for sigma in (0.0, 0.1, 0.5, 1.0):
    noise = NoiseSpec("gaussian", sigma=sigma) if sigma else NoiseSpec("zero")
    alpha = alpha_star(cls, design, noise, N, gamma=0.1, delta=0.1, trials=600, seed=2)
    print(f"  sigma={sigma:4.1f}: alpha* = {alpha.value:.6f} flags={alpha.flags}")

print("\nfixed points shrink as gamma grows (weaker criterion):")
for gamma in (0.05, 0.1, 0.2, 0.4):
    b = beta_star(cls, design, N, gamma=gamma, trials=200, seed=1)
    print(f"  gamma={gamma:.2f}: beta* = {b.value:.4f}")
