"""Geometry kernel walkthrough.

Shows the three deterministic primitives: Euclidean projection onto a scaled
l1 ball, the top-d rearrangement norm, and the exact support function of an
l1/l2 ball intersection, including the factor-2 sandwich that connects the
support function to the top-d norm.
"""

import numpy as np

from ermbounds import SupportRows, project_l1, rearrangement_d, support_l1l2_batch, top_d_l2

rng = np.random.default_rng(0)


def support(z, rho, s):
    return float(support_l1l2_batch(SupportRows(z), rho, s)[0])


v = np.array([2.0, 1.0, 0.0])
print("projection of", v, "onto the unit l1 ball:", project_l1(v, 1.0))
print("a feasible point is returned untouched:", project_l1(np.array([0.3, -0.2]), 1.0))

z = rng.standard_normal(12)
print("\ntop-1 norm (max entry):", top_d_l2(z, 1))
print("top-12 norm (full l2):", top_d_l2(z, 12), "=", np.linalg.norm(z))

# the support function is exact; the top-d comparison brackets it within 2x
# whenever the radius ratio is sqrt(d)
for d in (1, 4, 9):
    s = 0.7
    rho = s * np.sqrt(d)
    sup = support(z, rho, s)
    td = s * top_d_l2(z, rearrangement_d(rho, s, 12))
    print(f"d={d}: support={sup:.4f}, sandwich [{td:.4f}, {2*td:.4f}]")

# trivial regimes: one constraint swallows the other
print("\nl2 radius >= l1 radius: support = rho * max|z| =", support(z, 0.5, 1.0))
print("l1 radius >= sqrt(n) * l2 radius: support = s * ||z||_2 =", support(z, 10.0, 1.0))
