"""The benchmark's workloads: the CLI calls one operation makes, and the
checks its reports must pass.

An operation is a fixed list of `ermbounds` command lines. Its inputs come
from the benchmark seed alone, through the `--seed` each command receives;
every size is passed explicitly, so a later change of a CLI default does not
silently change what is measured. Checks compare the reports against
`oracles` (closed forms and estimates made with the benchmark's own draws)
or against properties the method must have; none compares against a stored
copy of an earlier output.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from typing import Callable

import oracles

R = 1.0
SIGMA = 0.5

# verify_main: the paper's main theorem at the CLI defaults
VM_n, VM_N, VM_DELTA, VM_TAU_DRAWS = 32, 512, 0.1, 10000
# persistence_regimes: one cell on each side of N = n
PR_n, PR_N_LOW, PR_N_HIGH, PR_TRIALS = 700, 350, 2800, 20
# heavy_tail_fixed_points: alpha and beta on a t_4 design, Pareto p=3 noise
HT_n = HT_N = 256
HT_GAMMA, HT_DELTA, HT_ALPHA_TRIALS, HT_BETA_TRIALS = 0.3, 0.1, 500, 200
HT_CHECK_TRIALS = 400
# version_space_counterexample
VS_n, VS_N, VS_PROBES = 1000, 500, 1000
CE_N, CE_TRIALS = 1000, 50000

# Tolerances of the checks, fixed before looking at any output.
STDERRS_Q = 4.0  # q_hat vs 2*Phi-bar(2 tau), in binomial standard errors
MIN_FREQUENCY = 0.85
REL_FORMULA = 1e-12  # formulas recomputed from reported inputs
FW_GAP_TOL = 1e-6  # Frank-Wolfe gap of an ERM solve (the objective is about sigma^2 = 0.25)
# The program's alpha sits on a geometric grid of ratio 1.1 above the crossing;
# beta is bisected to 1%. Both then differ from an independent Monte Carlo
# estimate by sampling error; over 12 seeds the ratio stayed within 7%.
FP_REL_TOL = 0.15
FAILING_FLAGS = {"at_lower_bracket", "not_satisfied_within_upper", "grid_exhausted"}


def cli_seed(seed: int, workload: str) -> int:
    """The `--seed` handed to the CLI: a fixed function of the benchmark seed."""
    return (int(seed) * 0x9E3779B1 + zlib.crc32(workload.encode())) % (2**31)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int], list]  # cli seed -> list of (report name, argv)
    check: Callable[[int, list], list]  # cli seed, parsed reports -> failure messages


def _stat(report: dict, name: str):
    for row in report["rows"]:
        if row.get("statistic") == name:
            return row["value"]
    raise KeyError(f"report {report['kind']} has no statistic {name!r}")


def _close(a: float, b: float, rel: float = REL_FORMULA) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# --- verify_main -------------------------------------------------------------


def _verify_main_commands(seed: int) -> list:
    return [("vm", ["verify-main", "--seed", str(seed), "--n", str(VM_n), "--N", str(VM_N), "--R", str(R), "--delta", str(VM_DELTA), "--trials", "200", "--set", f"tau_draws={VM_TAU_DRAWS}", "--set", "tau_directions=300", "--set", "beta_trials=200", "--set", "design.kind=gaussian", "--set", "noise.kind=gaussian", "--set", f"noise.sigma={SIGMA}"])]


def _verify_main_check(seed: int, reports: list) -> list:
    (rep,) = reports
    bad = []
    tau, q = _stat(rep, "tau"), _stat(rep, "q_hat")
    # every unit direction of a standard Gaussian design has <X,t> ~ N(0,1)
    p = oracles.gaussian_small_ball(2.0 * tau)
    stderr = math.sqrt(p * (1.0 - p) / VM_TAU_DRAWS)
    if abs(q - p) > STDERRS_Q * stderr:
        bad.append(f"q_hat={q} differs from 2*Phi-bar(2 tau)={p} by more than {STDERRS_Q} stderr")
    grid = oracles.tau_grid()
    scores = [t * t * oracles.gaussian_small_ball(2.0 * t) for t in grid]
    best = max(range(len(grid)), key=scores.__getitem__)
    near = grid[max(best - 1, 0) : best + 2]
    if not any(_close(tau, t, 1e-9) for t in near):
        bad.append(f"tau={tau} is not within one grid step of the argmax {grid[best]}")
    alpha, beta = _stat(rep, "alpha_hat"), _stat(rep, "beta_hat")
    expect = {
        "gamma": tau * tau * q / 16.0,
        "gamma_beta": tau * q / 16.0,
        "bound": 2.0 * max(alpha, beta),
        "criterion": 1.0 - VM_DELTA - 2.0 * math.exp(-VM_N * q * q / 2.0) - 0.05,
    }
    for name, value in expect.items():
        if not _close(_stat(rep, name), value):
            bad.append(f"{name}={_stat(rep, name)} but its formula gives {value}")
    freq = _stat(rep, "frequency")
    if freq < MIN_FREQUENCY:
        bad.append(f"frequency={freq} < {MIN_FREQUENCY}")
    return bad


# --- persistence_regimes -----------------------------------------------------


def _persistence_commands(seed: int) -> list:
    return [("persistence", ["persistence", "--seed", str(seed), "--set", f"n_grid=[{PR_n}]", "--set", f"N_grid=[{PR_N_LOW},{PR_N_HIGH}]", "--set", f"R_grid=[{R}]", "--set", f"sigma_grid=[{SIGMA}]", "--set", f"trials={PR_TRIALS}", "--set", "design.kind=rademacher", "--set", "noise.kind=gaussian", "--set", "t0_shape=zero", "--set", "tol=1e-9"])]


def _own_erm_gap(seed: int, N: int) -> float:
    """Frank-Wolfe gap of solve_erm on a Rademacher sample the benchmark draws."""
    import numpy as np
    from ermbounds.distributions import Sample
    from ermbounds.erm import ClassSpec, solve_erm

    rng = np.random.default_rng([seed, N])
    X = np.where(rng.random((N, PR_n)) < 0.5, -1.0, 1.0)
    Y = SIGMA * rng.standard_normal(N)
    result = solve_erm(Sample(X, Y, seed), ClassSpec(n=PR_n, R=R, t0=np.zeros(PR_n)), tol=1e-9)
    return oracles.frank_wolfe_gap(X, Y, result.t_hat, R)


def _persistence_check(seed: int, reports: list) -> list:
    (rep,) = reports
    bad = []
    cells = {}
    for row in rep["rows"]:
        cells.setdefault(row["N"], {})[row["statistic"]] = row["value"]
    if sorted(cells) != [PR_N_LOW, PR_N_HIGH]:
        return [f"expected cells N={PR_N_LOW},{PR_N_HIGH}, got {sorted(cells)}"]
    for N, cell in cells.items():
        if cell["solver_failures"] != 0 or cell["flagged"]:
            bad.append(f"N={N}: solver_failures={cell['solver_failures']} flagged={cell['flagged']}")
        for name, value in (("rho_N", oracles.rho_N(N, PR_n, R)), ("v1", oracles.v1(N, PR_n, R)), ("v2", oracles.v2(N, PR_n, R, SIGMA))):
            if not _close(cell[name], value):
                bad.append(f"N={N}: {name}={cell[name]} but the closed form gives {value}")
        if not 0.0 < cell["median_err2"] <= cell["q90_err2"] <= 4.0 * R * R:
            bad.append(f"N={N}: median_err2={cell['median_err2']} q90_err2={cell['q90_err2']} outside (0, 4R^2]")
        gap = _own_erm_gap(seed, N)
        if not gap <= FW_GAP_TOL:
            bad.append(f"N={N}: solve_erm Frank-Wolfe gap {gap:.3g} > {FW_GAP_TOL}")
    if not cells[PR_N_HIGH]["median_err2"] < cells[PR_N_LOW]["median_err2"]:
        bad.append("the N > n cell's median error is not below the N < n cell's")
    return bad


# --- heavy_tail_fixed_points -------------------------------------------------

_HT_DESIGN = ["--set", "design.kind=student_t", "--set", "design.p=4"]


def _heavy_tail_commands(seed: int) -> list:
    shape = ["--seed", str(seed), "--n", str(HT_n), "--N", str(HT_N), "--R", str(R), "--gamma", str(HT_GAMMA)]
    return [
        ("alpha", ["alpha", *shape, "--delta", str(HT_DELTA), "--trials", str(HT_ALPHA_TRIALS), *_HT_DESIGN, "--set", "noise.kind=heavy_tailed", "--set", "noise.p=3", "--set", f"noise.sigma={SIGMA}", "--set", "t0_shape=spike", "--set", "t0_fraction=0.5"]),
        ("beta", ["beta", *shape, "--trials", str(HT_BETA_TRIALS), *_HT_DESIGN]),
    ]


def _heavy_tail_check(seed: int, reports: list) -> list:
    bad = []
    values = {}
    for rep in reports:
        est = rep["summary"]["estimate"]
        kind = est["kind"]
        lower, upper = est["brackets"]
        values[kind] = est["value"]
        # wilson_marginal only says p_hat landed within two standard errors of
        # 1 - delta; it is expected on some seeds and is not a failure
        failing = sorted(set(est["flags"]) & FAILING_FLAGS)
        if failing:
            bad.append(f"{kind}: flags {failing}")
        if not (0.0 < lower <= est["value"] == upper < 2.0 * R):
            bad.append(f"{kind}: brackets {est['brackets']} and value {est['value']} break 0 < lower <= value = upper < 2R")
    z_rad, z_mult = oracles.heavy_tail_z(seed, HT_CHECK_TRIALS, HT_n, HT_N, SIGMA, 3.0)
    own = {
        "alpha": oracles.alpha_fixed_point(z_mult, R, HT_N, HT_GAMMA, HT_DELTA),
        "beta": oracles.beta_fixed_point(z_rad, R, HT_N, HT_GAMMA),
    }
    for kind, ref in own.items():
        if abs(values[kind] / ref - 1.0) > FP_REL_TOL:
            bad.append(f"{kind}={values[kind]} but the independent estimate is {ref} (tolerance {FP_REL_TOL:.0%})")
    return bad


# --- version_space_counterexample --------------------------------------------


def _version_space_commands(seed: int) -> list:
    return [
        ("version_space", ["version-space", "--seed", str(seed), "--n", str(VS_n), "--N", str(VS_N), "--R", str(R), "--set", f"probes={VS_PROBES}", "--set", "design.kind=gaussian", "--set", "t0_shape=spike", "--set", "t0_fraction=0.5"]),
        ("counterexample", ["counterexample", "--seed", str(seed), "--N", str(CE_N), "--trials", str(CE_TRIALS)]),
    ]


def _version_space_check(seed: int, reports: list) -> list:
    vs, ce = reports
    bad = []
    probe = vs["summary"]["probe"]
    if probe["nullspace_dim"] != VS_n - VS_N:
        bad.append(f"nullspace_dim={probe['nullspace_dim']} != n - N = {VS_n - VS_N}")
    if not 0.0 < probe["radius_lb"] <= 2.0 * R:
        bad.append(f"radius_lb={probe['radius_lb']} outside (0, 2R]")
    s = ce["summary"]
    if s["onesided_failure_probability"] > 1e-3:
        bad.append(f"one-sided failure {s['onesided_failure_probability']} > 1e-3")
    if s["deviation_probability"] < 1.0 / (4.0 * CE_N):
        bad.append(f"deviation {s['deviation_probability']} < 1/(4N)")
    ez2 = 1.0 + 4.0 / CE_N - 1.0 / CE_N**2
    if abs(s["empirical_EZ2"] - ez2) > 0.01 * ez2:
        bad.append(f"empirical E Z^2 {s['empirical_EZ2']} not within 1% of {ez2}")
    return bad


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify_main", _verify_main_commands, _verify_main_check),
        Workload("persistence_regimes", _persistence_commands, _persistence_check),
        Workload("heavy_tail_fixed_points", _heavy_tail_commands, _heavy_tail_check),
        Workload("version_space_counterexample", _version_space_commands, _version_space_check),
    )
}


def check_reports(workload: Workload, seed: int, payloads: list) -> list:
    """Failure messages for one operation's report bytes (empty when all pass)."""
    reports = []
    bad = []
    for payload in payloads:
        obj = json.loads(payload)
        if oracles.canonical_bytes(obj) != payload:
            bad.append(f"{obj.get('kind')} report does not re-serialize to identical bytes")
        reports.append(obj)
    return bad + workload.check(seed, reports)
