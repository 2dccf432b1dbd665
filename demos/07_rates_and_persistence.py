"""Closed-form rates against measured errors in the persistence regime.

Two predictions are compared: the noise-insensitive rate rho_N, which never
improves as the noise shrinks, and the pair (v1, v2), whose maximum tracks
the real behavior, collapsing to zero in the noise-free case and scaling
like sigma^2 n / N in the high-noise tail.
"""

from ermbounds import RateInputs, SweepConfig, rho_N, run_persistence_sweep, v1_v2

print("predictions at n=64, R=1, sigma=0.5:")
print(f"{'N':>7} {'rho_N':>10} {'v1':>8} {'v2':>10}")
for N in (512, 2048, 8192, 32768):
    inputs = RateInputs(N=N, n=64, R=1.0, sigma=0.5)
    v1, v2, _ = v1_v2(inputs)
    print(f"{N:7d} {rho_N(inputs):10.5f} {v1:8.5f} {v2:10.5f}")

print("\nnoise-free contrast: v-rates vanish, rho_N does not")
inputs = RateInputs(N=256, n=64, R=1.0, sigma=0.0)
v1, v2, _ = v1_v2(inputs)
print(f"  sigma=0, N=256: max(v1, v2) = {max(v1, v2)}, rho_N = {rho_N(inputs):.4f}")

print("\nmeasured sweep (rademacher design, gaussian noise, 20 trials/cell):")
cfg = SweepConfig(
    design={"kind": "rademacher"},
    noise={"kind": "gaussian"},
    n_grid=(64,),
    N_grid=(512, 2048, 8192),
    sigma_grid=(0.5,),
    trials=20,
    seed=9,
    t0_shape="zero",
    t0_fraction=0.0,
)
report = run_persistence_sweep(cfg)
cells = {}
for row in report.rows:
    cells.setdefault(row["N"], {})[row["statistic"]] = row["value"]
print(f"{'N':>7} {'median err^2':>14} {'max(v1,v2)':>12} {'rho_N':>10}")
for N, stats in sorted(cells.items()):
    print(f"{N:7d} {stats['median_err2']:14.6f} {stats['v_max']:12.6f} {stats['rho_N']:10.5f}")
print("fitted constant (0.9-quantile / prediction):", round(report.summary["c_fit"], 3))
print("log-log slopes per regime:", {k: round(v, 3) for k, v in report.summary["slopes"].items()})
