"""Small-ball diagnostics: probability floors and the empirical count test.

The small-ball function is the probability floor inf_t Pr(|<X,t>| >= u) over
unit directions. It is estimated by direction probing, lower-bounded in
closed form through the Paley-Zygmund route, and feeds the choice of the
threshold tau and the level gamma. The count test then checks that every
probed function keeps a guaranteed share of large coordinates on a fresh
sample.
"""

import numpy as np
from scipy import stats

from ermbounds import ClassSpec, DesignSpec, beta_star, choose_tau, estimate_Q, moment_ratio_p2, paley_zygmund_Q, verify_empirical_smallball

design = DesignSpec("gaussian", 16)

print("estimated small-ball floor vs the analytic gaussian value:")
thresholds = (0.25, 0.5, 1.0)
for u, est in zip(thresholds, estimate_Q(design, thresholds, directions=300, draws=20000, seed=3)):
    print(f"  u={u:4.2f}: Q_hat={est.q_hat:.4f} +- {est.stderr:.4f}   analytic {2*stats.norm.sf(u):.4f}")

kappa2 = moment_ratio_p2(design, 4.0, directions=100, draws=50000, seed=3)
print(f"\nLp/L2 moment ratio (p=4): {kappa2:.4f} (analytic 3^(1/4) = {3**0.25:.4f})")
print("Paley-Zygmund floor at u=0.5:", paley_zygmund_Q(max(kappa2, 1.0), 4.0, 0.5))

choice = choose_tau(design, directions=300, draws=20000, seed=3)
print(f"\nchosen tau = {choice.tau:.4f}, Q_hat(2 tau) = {choice.q_at_2tau:.4f}")
print(f"induced levels: gamma = {choice.gamma:.5f} (multiplier), gamma_beta = {choice.gamma_beta:.5f} (quadratic)")

cls = ClassSpec(n=16, R=1.0, t0=np.zeros(16))
beta = beta_star(cls, design, 256, choice.gamma_beta, trials=100, seed=3)
rep = verify_empirical_smallball(design, cls, tau=choice.tau, r=1.0, N=256, trials=40, probes=100, seed=3, q_hat=choice.q_at_2tau, beta_estimate=beta)
print(f"\ncount test: min count over probes >= {rep.count_threshold:.1f} in {rep.success_fraction:.0%} of trials")
print(f"criterion {rep.success_criterion:.3f}, passed={rep.passed}, sufficient condition certified={rep.hypothesis_certified}")
