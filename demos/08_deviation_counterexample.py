"""Why one-sided bounds survive heavy tails while two-sided ones fail.

A variable worth 1 almost always, with a rare spike of size 2*sqrt(N),
keeps its empirical second moment above half its mean essentially always:
a spike can only help a lower bound. But the same spike pushes the mean far
above its target whenever it appears, so the two-sided inequality fails
with probability of order 1/N, far from exponentially small.
"""

from ermbounds import CounterexampleSpec, run_counterexample

N = 100
spec = CounterexampleSpec(N)
print(f"N = {N}: E Z^2 = {spec.second_moment:.4f}, spike size {spec.spike:.0f}, spike probability {1/N**2:.0e}")
print(f"L4/L2 ratio = {spec.l4_l2_ratio():.3f} (comfortably bounded, yet concentration still fails)")

report = run_counterexample(N, trials=100000, seed=11)
s = report.summary
print(f"\nover 1e5 trials of size {N}:")
print(f"  two-sided deviation probability: {s['deviation_probability']:.4f}  (order 1/N = {1/N}, never exponentially small)")
print(f"  its exact value, Pr(at least one spike) = 1 - (1 - 1/N^2)^N = {s['analytic_deviation_probability']:.6f}")
print(f"  one-sided failure probability:   {s['onesided_failure_probability']:.1e}  (lower bound essentially never fails)")
print(f"  empirical E Z^2 = {s['empirical_EZ2']:.4f} vs analytic {s['analytic_EZ2']:.4f}")
