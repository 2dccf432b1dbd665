"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its measured quantities and pinned tolerance, and each holding a
runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from ermbounds import reports
from ermbounds.distributions import DesignSpec, NoiseSpec, sample_design
from ermbounds.erm import ClassSpec, solve_erm
from ermbounds.experiments import MainTheoremConfig, SweepConfig, run_counterexample, run_persistence_sweep, verify_main_theorem
from ermbounds.fixed_points import beta_star
from ermbounds.geometry import SupportRows, support_l1l2_batch
from ermbounds.rates import RateInputs, rho_N
from ermbounds.smallball import choose_tau, estimate_Q, moment_ratio_p2, paley_zygmund_Q, verify_empirical_smallball
from ermbounds.versionspace import version_diameter

from oracles import brute_force_erm, fit_loglog_slope, make_sample, support_oracle

SEED = 0x5EED


def record(number, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({detail}) [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget: {elapsed:.1f}s"


def objective(sample, t):
    return float(np.mean((sample.design @ t - sample.responses) ** 2))


def test_criterion_1_erm_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(20):
        n = 2 if i % 2 == 0 else 3
        N = int(rng.integers(n, 12))
        t0 = np.zeros(n)
        t0[0] = 0.4
        cls = ClassSpec(n=n, R=1.0, t0=t0)
        sample = make_sample(cls, DesignSpec("rademacher", n), NoiseSpec("gaussian", sigma=0.5), N, seed=1000 + i)
        res = solve_erm(sample, cls, tol=1e-10)
        t_oracle = brute_force_erm(sample, cls)
        worst = max(worst, abs(objective(sample, res.t_hat) - objective(sample, t_oracle)))
    elapsed = time.time() - start
    record(1, worst <= 1e-6, f"max objective gap {worst:.2e} <= 1e-6 on 20 instances", elapsed, 60)


def test_criterion_2_support_function_exactness():
    start = time.time()
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 60))
        z = rng.standard_normal(n) * rng.uniform(0.2, 3)
        s = float(rng.uniform(0.05, 2.0))
        rho = float(rng.uniform(0.05, 1.2)) * s * math.sqrt(n)
        mine = float(support_l1l2_batch(SupportRows(z), rho, s)[0])
        worst = max(worst, abs(mine - support_oracle(z, rho, s)))
    branch_exact = True
    for _ in range(20):
        z = rng.standard_normal(10)
        rho = float(rng.uniform(0.1, 2.0))
        branch_exact &= float(support_l1l2_batch(SupportRows(z), rho, 2.0 * rho)[0]) == rho * np.abs(z).max()
        s = float(rng.uniform(0.1, 2.0))
        branch_exact &= float(support_l1l2_batch(SupportRows(z), 4.0 * s * math.sqrt(10), s)[0]) == s * math.sqrt(float((z * z).sum()))
    elapsed = time.time() - start
    record(2, worst <= 1e-6 and branch_exact, f"max oracle gap {worst:.2e} <= 1e-6, trivial branches exact: {branch_exact}", elapsed, 10)


def test_criterion_3_counterexample():
    start = time.time()
    N, trials = 100, 100000
    rep = run_counterexample(N, trials, seed=SEED)
    s = rep.summary
    ok = (
        s["onesided_failure_probability"] <= 1e-3
        and s["deviation_probability"] >= 1.0 / (4.0 * N)
        and abs(s["empirical_EZ2"] - s["analytic_EZ2"]) <= 0.01 * s["analytic_EZ2"]
    )
    elapsed = time.time() - start
    record(
        3,
        ok,
        f"onesided failure {s['onesided_failure_probability']:.2e} <= 1e-3, deviation {s['deviation_probability']:.4f} >= {1/(4*N):.4f}, "
        f"EZ2 {s['empirical_EZ2']:.5f} vs {s['analytic_EZ2']:.5f} within 1%",
        elapsed,
        60,
    )


def test_criterion_4_noise_free_collapse():
    start = time.time()
    cfg = SweepConfig(
        design={"kind": "rademacher"},
        noise={"kind": "zero"},
        n_grid=(64,),
        N_grid=(128, 256),
        sigma_grid=(0.0,),
        trials=50,
        tol=1e-11,
        seed=SEED,
        t0_shape="spike",
        t0_fraction=0.5,
    )
    rep = run_persistence_sweep(cfg)
    medians = {r["N"]: r["value"] for r in rep.rows if r["statistic"] == "median_err2"}
    rhos = {N: rho_N(RateInputs(N=N, n=64, R=1.0, sigma=0.0)) for N in (128, 256)}
    ok = all(m <= 1e-8 for m in medians.values()) and all(r >= 0.05 for r in rhos.values())
    elapsed = time.time() - start
    record(
        4,
        ok,
        f"median err^2 {max(medians.values()):.2e} <= 1e-8 while the noise-insensitive rate stays at {min(rhos.values()):.3f}",
        elapsed,
        120,
    )


def test_criterion_5_high_noise_slope():
    start = time.time()
    Ns = (512, 1024, 2048, 4096, 8192, 16384)
    cfg = SweepConfig(
        design={"kind": "rademacher"},
        noise={"kind": "gaussian"},
        n_grid=(64,),
        N_grid=Ns,
        sigma_grid=(0.5,),
        trials=50,
        seed=SEED,
        t0_shape="zero",
        t0_fraction=0.0,
    )
    rep = run_persistence_sweep(cfg)
    medians = {r["N"]: r["value"] for r in rep.rows if r["statistic"] == "median_err2"}
    slope = fit_loglog_slope(list(Ns), [medians[N] for N in Ns])

    cfg2 = SweepConfig(
        design={"kind": "rademacher"},
        noise={"kind": "gaussian"},
        n_grid=(64,),
        N_grid=(8192, 16384),
        sigma_grid=(1.0,),
        trials=50,
        seed=SEED,
        t0_shape="zero",
        t0_fraction=0.0,
    )
    rep2 = run_persistence_sweep(cfg2)
    med2 = {r["N"]: r["value"] for r in rep2.rows if r["statistic"] == "median_err2"}
    factors = [med2[N] / medians[N] for N in (8192, 16384)]
    ok = -1.25 <= slope <= -0.75 and all(2.5 <= f <= 6.0 for f in factors)
    elapsed = time.time() - start
    record(
        5,
        ok,
        f"slope {slope:.3f} in [-1.25, -0.75]; sigma-doubling factors {factors[0]:.2f}, {factors[1]:.2f} in [2.5, 6] (theory 4)",
        elapsed,
        600,
    )


def test_criterion_6_main_theorem_coverage():
    start = time.time()
    freqs = {}
    criteria = {}
    vacuous = {}
    for kind, p in (("gaussian", None), ("student_t", 4.0)):
        cfg = MainTheoremConfig(
            design={"kind": kind, "p": p},
            N=512,
            delta=0.1,
            trials=200,
            t0_shape="spike",
            t0_fraction=0.5,
            seed=SEED,
        )
        rep = verify_main_theorem(cfg)
        freqs[kind] = rep.summary["frequency"]
        criteria[kind] = rep.summary["criterion"]
        vacuous[kind] = rep.summary["bound_vacuous"]
    ok = all(f >= 0.85 for f in freqs.values())
    elapsed = time.time() - start
    record(
        6,
        ok,
        f"coverage gaussian {freqs['gaussian']:.3f}, student_t(4) {freqs['student_t']:.3f}, both >= 0.85 "
        f"(theorem criteria {criteria['gaussian']:.3f}, {criteria['student_t']:.3f}; "
        f"bound_vacuous {vacuous['gaussian']}, {vacuous['student_t']}: a bound of at least 2R holds whatever the fixed points)",
        elapsed,
        900,
    )


def test_criterion_7_smallball_suite():
    start = time.time()
    exact_one = estimate_Q(DesignSpec("gaussian", 8), [0.0], 500, 10000, seed=SEED)[0].q_hat == 1.0

    expected = 2.0 * stats.norm.sf(0.5)
    (est,) = estimate_Q(DesignSpec("gaussian", 8), [0.5], directions=300, draws=20000, seed=SEED)
    gauss_ok = abs(est.q_hat - expected) <= 3.0 * est.stderr

    pz_value_ok = paley_zygmund_Q(1.0, 4.0, 0.5) == pytest.approx(0.5625, rel=1e-15)
    domination = True
    for design, p in ((DesignSpec("gaussian", 6), 4.0), (DesignSpec("rademacher", 6), 4.0), (DesignSpec("bounded_uniform", 6), 4.0), (DesignSpec("student_t", 6, p=4.0), 3.0)):
        kappa2 = max(moment_ratio_p2(design, p, directions=100, draws=50000, seed=SEED), 1.0)
        for u in (0.1, 0.25, 0.5):
            (q,) = estimate_Q(design, [u], directions=100, draws=20000, seed=SEED)
            domination &= q.q_hat + 3.0 * q.stderr >= paley_zygmund_Q(kappa2, p, u)
    ok = exact_one and gauss_ok and pz_value_ok and domination
    elapsed = time.time() - start
    record(
        7,
        ok,
        f"Q(0)=1 exact: {exact_one}; gaussian Q(0.5)={est.q_hat:.4f} within 3 stderr of {expected:.4f}; "
        f"PZ value 0.5625 exact: {pz_value_ok}; domination on all pairs: {domination}",
        elapsed,
        120,
    )


def test_criterion_8_empirical_smallball_counts():
    start = time.time()
    design = DesignSpec("gaussian", 32)
    cls = ClassSpec(n=32, R=1.0, t0=np.zeros(32))
    choice = choose_tau(design, directions=300, draws=20000, seed=SEED)
    beta = beta_star(cls, design, 256, choice.gamma_beta, trials=100, seed=SEED)
    rep = verify_empirical_smallball(design, cls, tau=choice.tau, r=1.0, N=256, trials=50, probes=100, seed=SEED, q_hat=choice.q_at_2tau, beta_estimate=beta)
    ok = rep.success_fraction >= 0.9
    elapsed = time.time() - start
    record(
        8,
        ok,
        f"success fraction {rep.success_fraction:.3f} >= 0.9 (threshold count {rep.count_threshold:.1f}, min observed {rep.min_counts.min():.0f}; "
        f"sufficient condition certified: {rep.hypothesis_certified})",
        elapsed,
        300,
    )


def test_criterion_9_version_space_beta_domination():
    start = time.time()
    design = DesignSpec("gaussian", 64)
    cls = ClassSpec(n=64, R=1.0, t0=np.zeros(64))
    choice = choose_tau(design, directions=200, draws=10000, seed=SEED)
    betas = {N: beta_star(cls, design, N, choice.gamma_beta, trials=100, seed=SEED + N) for N in (16, 64, 256)}
    hits = 0
    full_rank_zero = True
    trials = 0
    for i in range(100):
        N = (16, 64, 256)[i % 3]
        X = sample_design(design, N, seed=SEED + 7000 + i)
        probe = version_diameter(X, cls, probes=500, seed=i)
        beta = betas[N]
        width = beta.brackets[1] - beta.brackets[0]
        if probe.radius_lb <= beta.value + 2.0 * width:
            hits += 1
        if N >= 64 and probe.nullspace_dim == 0 and probe.radius_lb != 0.0:
            full_rank_zero = False
        trials += 1
    ok = hits >= 90 and full_rank_zero
    elapsed = time.time() - start
    record(9, ok, f"radius_lb <= beta + 2*width in {hits}/100 trials (need 90); full-rank radius always 0: {full_rank_zero}", elapsed, 300)


def test_criterion_10_determinism_across_worker_counts(monkeypatch):
    start = time.time()
    outputs = []
    for workers in ("1", "4"):
        # every stage below reads the thread count from the environment
        monkeypatch.setenv("ERMBOUNDS_WORKERS", workers)
        chunks = []
        rep = run_counterexample(100, 5000, seed=SEED)
        chunks.append(rep.to_csv() + rep.to_json())
        sweep = SweepConfig(design={"kind": "gaussian"}, noise={"kind": "gaussian"}, n_grid=(8,), N_grid=(32, 64), sigma_grid=(0.5,), trials=20, seed=SEED, t0_shape="zero", t0_fraction=0.0)
        rep = run_persistence_sweep(sweep)
        chunks.append(rep.to_csv() + rep.to_json())
        vm = MainTheoremConfig(n=8, N=64, delta=0.2, trials=30, alpha_trials=1000, beta_trials=50, tau_directions=50, tau_draws=2000, seed=SEED)
        rep = verify_main_theorem(vm)
        chunks.append(rep.to_csv() + rep.to_json())
        (est,) = estimate_Q(DesignSpec("gaussian", 8), [0.5], directions=100, draws=5000, seed=SEED)
        chunks.append(repr(reports.record(est)))
        beta = beta_star(ClassSpec(n=8, R=1.0, t0=np.zeros(8)), DesignSpec("gaussian", 8), 64, 0.05, trials=50, seed=SEED)
        chunks.append(repr(reports.record(beta)))
        outputs.append("".join(chunks))
    ok = outputs[0] == outputs[1]
    elapsed = time.time() - start
    record(10, ok, f"reports byte-identical across worker counts over {len(chunks)} report kinds", elapsed, 300)


def test_criterion_11_main_theorem_not_vacuous():
    # at N = 2**19 the bound falls below the class diameter 2R; beta* is 0
    # there (the criterion holds at the lower bracket), so the flags are not
    # required to be empty
    start = time.time()
    cfg = MainTheoremConfig(N=2**19, seed=SEED)
    s = verify_main_theorem(cfg).summary
    ok = not s["bound_vacuous"] and s["passed"] and s["bound"] < 2.0 * cfg.R
    elapsed = time.time() - start
    record(
        11,
        ok,
        f"N = 2^19: bound {s['bound']:.3f} < 2R = {2.0 * cfg.R:g}, coverage {s['frequency']:.3f} >= criterion {s['criterion']:.3f}, "
        f"error quantile {s['error_q']:.4f} (slack {s['slack']:.0f}x), flags {s['estimator_flags']}",
        elapsed,
        5,
    )
