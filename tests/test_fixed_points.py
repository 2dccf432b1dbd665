import itertools
import math
import sys

import numpy as np
import pytest
from scipy import stats

from ermbounds import fixed_points, rng
from ermbounds.distributions import DESIGN_KINDS, DesignSpec, NoiseSpec, sample_design, sample_response
from ermbounds.erm import ClassSpec
from ermbounds.experiments import make_t0
from ermbounds.fixed_points import (
    _noise_rms,
    _z_batch,
    alpha_star,
    beta_star,
    k_star,
    quantile_trials,
)
from ermbounds.geometry import SupportRows, support_l1l2_batch
from ermbounds.reports import record
from ermbounds.rng import NOISE_TAG, substream
from ermbounds.smallball import choose_tau, estimate_Q
from oracles import SIGNS_TAG, boundary_enum_2d, expected_rademacher_sup, make_sample, multiplier_sup, packed_signs, rademacher_sup, student_t_law_z, support_l1l2_batch_oneshot


def cls_zero(n, R=1.0):
    return ClassSpec(n=n, R=R, t0=np.zeros(n))


class TestRealizedSups:
    def test_zero_radius(self):
        X = sample_design(DesignSpec("rademacher", 3), 4, seed=0)
        signs = np.array([1.0, -1.0, 1.0, -1.0])
        assert rademacher_sup(X, signs, cls_zero(3), 0.0) == 0.0

    def test_zero_design(self):
        X = np.zeros((4, 3))
        signs = np.ones(4)
        assert rademacher_sup(X, signs, cls_zero(3), 0.7) == 0.0

    def test_boundary_enumeration_oracle(self):
        X = sample_design(DesignSpec("rademacher", 2), 4, seed=1)
        signs = np.array([1.0, 1.0, -1.0, 1.0])
        r = 0.8
        mine = rademacher_sup(X, signs, cls_zero(2), r)
        z = (signs @ X) / 2.0
        ref = boundary_enum_2d(z, 2.0, r, points=100000)
        assert mine == pytest.approx(ref, abs=1e-4)

    def test_multiplier_zero_noise(self):
        cls = ClassSpec(n=3, R=1.0, t0=np.array([0.3, 0.0, -0.2]))
        sample = make_sample(cls, DesignSpec("gaussian", 3), NoiseSpec("zero"), 8, seed=2)
        signs = np.ones(8)
        for s in (0.1, 0.5, 2.0):
            assert multiplier_sup(sample, cls, s, signs) == 0.0

    def test_multiplier_zero_radius(self):
        cls = cls_zero(3)
        sample = make_sample(cls, DesignSpec("gaussian", 3), NoiseSpec("gaussian", sigma=1.0), 8, seed=3)
        assert multiplier_sup(sample, cls, 0.0, np.ones(8)) == 0.0

    def test_multiplier_boundary_oracle(self):
        cls = cls_zero(2)
        sample = make_sample(cls, DesignSpec("rademacher", 2), NoiseSpec("gaussian", sigma=0.5), 4, seed=4)
        signs = np.array([1.0, -1.0, -1.0, 1.0])
        s = 0.6
        mine = multiplier_sup(sample, cls, s, signs)
        xi = sample.design @ cls.t0 - sample.responses
        z = ((signs * xi) @ sample.design) / 2.0
        ref = boundary_enum_2d(z, 2.0, s, points=100000)
        assert mine == pytest.approx(ref, abs=1e-4)


class TestExpectedSup:
    def test_degenerate_localization(self):
        mean, stderr = expected_rademacher_sup(cls_zero(3), DesignSpec("rademacher", 3), 4, 50, 5, 0.0)
        assert mean == 0.0 and stderr == 0.0

    def test_exhaustive_sign_enumeration_n1(self):
        # n=1, R large, r=1: the localized set is [-1, 1], so the supremum is
        # |Z| with Z = (1/2) sum of 4 independent signs; enumerating the 16
        # outcomes gives E|Z| = 0.75 exactly
        enumeration = [abs(sum(p)) / 2.0 for p in itertools.product([-1, 1], repeat=4)]
        exact = sum(enumeration) / 16.0
        assert exact == 0.75
        mean, stderr = expected_rademacher_sup(ClassSpec(n=1, R=10.0, t0=np.zeros(1)), DesignSpec("rademacher", 1), 4, 4000, 6, 1.0)
        assert abs(mean - exact) <= 4.0 * stderr

    def test_stderr_scaling(self):
        cls = cls_zero(8)
        design = DesignSpec("gaussian", 8)
        ratios = []
        for seed in range(4):
            _, se1 = expected_rademacher_sup(cls, design, 32, 400, seed, 0.5)
            _, se2 = expected_rademacher_sup(cls, design, 32, 800, seed, 0.5)
            ratios.append(se2 / se1)
        assert 0.6 <= float(np.median(ratios)) <= 0.85


class TestBetaStar:
    def test_huge_gamma_collapses(self):
        est = beta_star(cls_zero(8), DesignSpec("rademacher", 8), 64, gamma=1e6, trials=50, seed=7)
        assert est.value == est.brackets[0]
        assert "at_lower_bracket" in est.flags

    def test_degenerate_class(self):
        est = beta_star(cls_zero(4, R=0.0), DesignSpec("gaussian", 4), 32, gamma=0.1, trials=30, seed=8)
        assert est.value == 0.0

    def test_never_satisfied_flag(self):
        est = beta_star(cls_zero(8), DesignSpec("rademacher", 8), 16, gamma=1e-9, trials=30, seed=9)
        assert "not_satisfied_within_upper" in est.flags
        assert est.value == 2.0 * 1.0 * math.sqrt(8)

    def test_grid_scan_oracle(self):
        cls = cls_zero(64)
        design = DesignSpec("rademacher", 64)
        N, gamma, trials, seed = 512, 0.05, 150, 10
        est = beta_star(cls, design, N, gamma, trials=trials, seed=seed)
        # same Monte Carlo criterion, scanned on a 50-point geometric grid
        Z = SupportRows(_z_batch(cls, design, N, trials, seed, None))
        r_hi = 2.0 * math.sqrt(64)
        grid = np.geomspace(1e-8 * r_hi, r_hi, 50)
        step = grid[1] / grid[0]
        passing = [r for r in grid if support_l1l2_batch(Z, 2.0, float(r)).mean() <= gamma * r * math.sqrt(N)]
        first = min(passing)
        assert first / step <= est.value <= first * 1.02

    def test_each_radius_scanned_once(self, monkeypatch):
        # at the `beta` CLI defaults the bisection evaluates 9 radii; the
        # returned one's stderr comes from the suprema its test computed
        radii = []
        sup_batch = fixed_points.support_l1l2_batch
        monkeypatch.setattr(fixed_points, "support_l1l2_batch", lambda rows, rho, r: radii.append(r) or sup_batch(rows, rho, r))
        cls, design = cls_zero(16), DesignSpec("rademacher", 16)
        est = beta_star(cls, design, 128, 0.05, trials=200, seed=0)
        assert len(radii) == len(set(radii)) == 9
        Z = SupportRows(_z_batch(cls, design, 128, 200, 0, None))
        assert est.stderr == float(sup_batch(Z, 2.0, est.value).std(ddof=1) / math.sqrt(200))

    def test_monotone_in_gamma(self):
        cls = cls_zero(16)
        design = DesignSpec("gaussian", 16)
        values = [beta_star(cls, design, 128, g, trials=60, seed=11).value for g in (0.02, 0.05, 0.1, 0.2, 0.5)]
        assert all(b <= a * 1.02 for a, b in zip(values, values[1:]))

    def test_star_shaped_ratio_per_trial(self):
        cls = cls_zero(12, R=0.4)
        Z = SupportRows(_z_batch(cls, DesignSpec("gaussian", 12), 64, 100, 12, None))
        radii = [0.1, 0.2, 0.5, 1.0, 2.0]
        sups = {r: support_l1l2_batch(Z, 2.0 * cls.R, r) for r in radii}
        for r1, r2 in zip(radii, radii[1:]):
            assert np.all(sups[r1] / r1 >= sups[r2] / r2 - 1e-12)


class TestKStar:
    def test_huge_gamma_collapses(self):
        # the quadratic threshold gamma*r^2*sqrt(N) is tiny near r_lo, so the
        # collapse needs gamma large enough that the crossing drops below r_lo
        est = k_star(cls_zero(8), DesignSpec("rademacher", 8), 64, gamma=1e15, trials=50, seed=13)
        assert est.value == est.brackets[0]

    def test_grid_scan_oracle(self):
        cls = cls_zero(64)
        design = DesignSpec("rademacher", 64)
        N, gamma, trials, seed = 512, 0.05, 150, 14
        est = k_star(cls, design, N, gamma, trials=trials, seed=seed)
        Z = SupportRows(_z_batch(cls, design, N, trials, seed, None))
        r_hi = 2.0 * math.sqrt(64)
        grid = np.geomspace(1e-8 * r_hi, r_hi, 50)
        step = grid[1] / grid[0]
        passing = [r for r in grid if support_l1l2_batch(Z, 2.0, float(r)).mean() <= gamma * r * r * math.sqrt(N)]
        first = min(passing)
        assert first / step <= est.value <= first * 1.02

    def test_dominates_beta_in_unit_region(self):
        # threshold gamma*r^2 <= gamma*r below r = 1, so with the same samples
        # the quadratic fixed point can only sit higher
        cls = ClassSpec(n=16, R=0.5, t0=np.zeros(16))
        design = DesignSpec("rademacher", 16)
        beta = beta_star(cls, design, 4096, gamma=0.0547, trials=80, seed=15)
        k = k_star(cls, design, 4096, gamma=0.0547, trials=80, seed=15)
        assert beta.value < 1.0 and k.value <= 1.0  # solution region guard
        assert k.value >= beta.value - 1e-12


class TestAlphaStar:
    def test_zero_noise_at_lower_bracket(self):
        # zero noise makes every supremum 0, so the criterion holds at 1e-8 r_hi
        cls = cls_zero(4)
        est = alpha_star(cls, DesignSpec("gaussian", 4), NoiseSpec("zero"), 32, gamma=0.05, delta=0.1, trials=500, seed=16)
        r_lo = 1e-8 * 2.0 * math.sqrt(4)
        assert (est.value, est.brackets, est.flags) == (r_lo, (r_lo, r_lo), ("at_lower_bracket",))

    def test_huge_gamma_at_lower_bracket(self):
        cls = cls_zero(4)
        est = alpha_star(cls, DesignSpec("gaussian", 4), NoiseSpec("gaussian", sigma=0.5), 32, gamma=1e9, delta=0.1, trials=500, seed=17)
        r_lo = 1e-8 * 2.0 * math.sqrt(4)
        assert (est.value, est.brackets, est.flags) == (r_lo, (r_lo, r_lo), ("at_lower_bracket",))

    def test_requires_quantile_resolution(self):
        cls = cls_zero(4)
        with pytest.raises(ValueError):
            alpha_star(cls, DesignSpec("gaussian", 4), NoiseSpec("zero"), 32, gamma=0.05, delta=0.01, trials=100, seed=18)

    def test_quantile_trials_rule(self):
        # at least ceil(50/delta) trials; by default 1000, raised to that
        assert quantile_trials(0.1, None) == 1000
        assert quantile_trials(0.025, None) == 2000
        assert quantile_trials(0.1, 500) == 500
        with pytest.raises(ValueError, match="need at least 500 trials to resolve the 0.9 quantile"):
            quantile_trials(0.1, 499)

    def test_unmet_record_pinned(self):
        # the criterion fails at r_hi = 2R*sqrt(n) = 4, where the success
        # probability is 0.504, strictly between 0 and 1 - delta, so the
        # pinned stderr is that of a real estimate at r_hi
        cls = cls_zero(4)
        est = alpha_star(cls, DesignSpec("gaussian", 4), NoiseSpec("gaussian", sigma=1.0), 32, gamma=0.03, delta=0.1, trials=500, seed=31)
        assert record(est) == {
            "kind": "alpha",
            "value": 4.0,
            "brackets": [4.0, 4.0],
            "trials": 500,
            "stderr": 0.022359964221796064,
            "flags": ["not_satisfied_within_upper"],
        }

    def test_dense_scan_oracle(self):
        cls = cls_zero(32)
        design = DesignSpec("rademacher", 32)
        noise = NoiseSpec("gaussian", sigma=0.5)
        N, gamma, delta, seed = 256, 0.05, 0.1, 19
        est = alpha_star(cls, design, noise, N, gamma, delta, trials=600, seed=seed)
        # brute scan: 200-point grid over the same range with 10x the trials
        Z = SupportRows(_z_batch(cls, design, N, 6000, seed + 1, noise))
        s_hi = 2.0 * math.sqrt(32)
        grid = np.geomspace(1e-6 * s_hi, s_hi, 200)
        sqN = math.sqrt(N)
        oracle = None
        for s in grid:
            sups = support_l1l2_batch(Z, 2.0, float(s))
            if np.mean(sups <= gamma * s * s * sqN) >= 1.0 - delta:
                oracle = float(s)
                break
        assert oracle is not None
        # the bisection resolves 1%, the scan its grid step
        assert abs(math.log(est.value / oracle)) <= math.log(1.01) + math.log(grid[1] / grid[0])

    def test_bisection_scans_few_radii_once(self, monkeypatch):
        # the heavy-tailed alpha benchmark's shape: halving [1e-8 r_hi, r_hi],
        # r_hi = 32, to 1% of an estimate near 0.8 takes at most 12 midpoints
        # besides the two ends, and no radius is evaluated twice
        radii = []
        sup_batch = fixed_points.support_l1l2_batch
        monkeypatch.setattr(fixed_points, "support_l1l2_batch", lambda rows, rho, r: radii.append(r) or sup_batch(rows, rho, r))
        cls = ClassSpec(n=256, R=1.0, t0=make_t0("spike", 0.5, 256, 1.0))
        design = DesignSpec("student_t", 256, p=4.0)
        noise = NoiseSpec("heavy_tailed", sigma=0.5, p=3.0)
        est = alpha_star(cls, design, noise, 256, 0.3, 0.1, trials=500, seed=4)
        assert 0.5 < est.value < 1.0
        assert len(radii) == len(set(radii)) <= 2 + math.ceil(math.log2(32.0 / (0.01 * est.value))) == 14

    @pytest.mark.parametrize("kind, noise", [("gaussian", NoiseSpec("gaussian", sigma=0.5)), ("student_t", NoiseSpec("heavy_tailed", sigma=0.5, p=3.0))])
    def test_each_trial_switches_on_once_along_the_grid(self, kind, noise):
        # phi(s)/s is non-increasing, so each trial's success indicator
        # phi(s) <= gamma*s^2*sqrt(N) is a step function of the radius, here
        # on a geometric grid over the search range [1e-8 r_hi, r_hi]: p_hat is
        # monotone, and bisecting it finds where it first reaches 1 - delta
        cls = ClassSpec(n=12, R=1.0, t0=make_t0("spike", 0.5, 12, 1.0))
        design = DesignSpec(kind, 12, p=4.0) if kind == "student_t" else DesignSpec(kind, 12)
        rows = SupportRows(_z_batch(cls, design, 64, 300, 5, noise))
        r_hi = 2.0 * math.sqrt(12)
        grid = np.geomspace(1e-8 * r_hi, r_hi, 400)
        gamma, sqN = 0.05, math.sqrt(64)
        ok = np.array([support_l1l2_batch(rows, 2.0, float(s)) <= gamma * s * s * sqN for s in grid])
        assert np.all(ok[1:] >= ok[:-1])
        # not vacuous: the trials switch on at many different grid points
        switch = np.argmax(ok, axis=0)[ok[-1]]
        assert len(np.unique(switch)) >= 5

    def test_noise_ordering_in_sigma(self):
        cls = cls_zero(8)
        design = DesignSpec("gaussian", 8)
        values = []
        for sigma in (0.0, 0.1, 0.5, 1.0):
            noise = NoiseSpec("gaussian", sigma=sigma) if sigma > 0 else NoiseSpec("zero")
            values.append(alpha_star(cls, design, noise, 64, gamma=0.05, delta=0.1, trials=500, seed=20).value)
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_scale_covariance_exact(self):
        # phi is linear in the noise, so doubling sigma doubles every realized
        # supremum bit for bit (same streams, power-of-two scaling)
        cls = cls_zero(8)
        design = DesignSpec("gaussian", 8)
        config1 = (cls, design, 32, 50, 21)
        Z1 = _z_batch(*config1, NoiseSpec("gaussian", sigma=0.5))
        Z2 = _z_batch(*config1, NoiseSpec("gaussian", sigma=1.0))
        assert np.array_equal(Z2, 2.0 * Z1)
        for s in (0.2, 0.7, 1.9):
            phi1 = support_l1l2_batch(SupportRows(Z1), 2.0, s)
            phi2 = support_l1l2_batch(SupportRows(Z2), 2.0, s)
            assert np.array_equal(phi2, 2.0 * phi1)
        Z3 = _z_batch(*config1, NoiseSpec("gaussian", sigma=1.5))
        phi3 = support_l1l2_batch(SupportRows(Z3), 2.0, 0.7)
        assert np.allclose(phi3, 3.0 * support_l1l2_batch(SupportRows(Z1), 2.0, 0.7), rtol=1e-12, atol=0.0)


class TestInputChecks:
    @staticmethod
    def estimates(cls, design, gamma):
        noise = NoiseSpec("gaussian", sigma=0.5)
        return (
            lambda: alpha_star(cls, design, noise, 32, gamma=gamma, delta=0.1, trials=500, seed=0),
            lambda: beta_star(cls, design, 32, gamma=gamma, trials=20, seed=0),
            lambda: k_star(cls, design, 32, gamma=gamma, trials=20, seed=0),
        )

    @pytest.mark.parametrize("design", [DesignSpec("gaussian", 16), DesignSpec("student_t", 16, p=4.0), DesignSpec("rademacher", 16)], ids=["gaussian", "student_t", "rademacher"])
    def test_design_of_another_dimension_rejected(self, design):
        # the law paths take n from the class, so they would run at n = 8
        for estimate in self.estimates(cls_zero(8), design, 0.1):
            with pytest.raises(ValueError, match="design dimension does not match the class dimension"):
                estimate()

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0, -1.0])
    def test_level_outside_the_positive_reals_rejected(self, gamma):
        for estimate in self.estimates(cls_zero(4), DesignSpec("rademacher", 4), gamma):
            with pytest.raises(ValueError, match="gamma must be positive and finite"):
                estimate()


def _search_case(fixed_point, n, kind, noise, gamma, delta, N, trials, seed, flags):
    return pytest.param(fixed_point, n, kind, noise, gamma, delta, N, trials, seed, flags, id=f"{fixed_point}-{kind}-n{n}-seed{seed}")


class TestSearch:
    # alpha, beta and kstar share one bisection; alpha runs on the eight
    # shapes its radius grid was checked on, beta and kstar over the design kinds
    @pytest.mark.parametrize(
        "fixed_point, n, kind, noise, gamma, delta, N, trials, seed, flags",
        [
            _search_case("alpha", 4, "gaussian", NoiseSpec("zero"), 0.05, 0.1, 32, 500, 16, ["at_lower_bracket"]),
            _search_case("alpha", 8, "gaussian", NoiseSpec("gaussian", sigma=0.5), 0.05, 0.1, 32, 500, 8, []),
            _search_case("alpha", 8, "student_t", NoiseSpec("gaussian", sigma=0.5), 0.05, 0.1, 32, 500, 1, []),
            _search_case("alpha", 4, "gaussian", NoiseSpec("gaussian", sigma=1.0), 0.03, 0.1, 32, 500, 31, ["not_satisfied_within_upper"]),
            _search_case("alpha", 16, "rademacher", NoiseSpec("heavy_tailed", sigma=0.5, p=3.0), 0.3, 0.25, 32, 500, 2, []),
            _search_case("alpha", 16, "bounded_uniform", NoiseSpec("bounded_symmetric", sigma=0.5, kappa=2.0), 1.0, 0.1, 32, 500, 3, []),
            _search_case("alpha", 8, "gaussian", NoiseSpec("gaussian", sigma=0.5), 0.05, 0.1, 32, 500, 24, []),
            _search_case("alpha", 8, "student_t", NoiseSpec("gaussian", sigma=0.5), 0.05, 0.1, 32, 500, 4, []),
            _search_case("beta", 8, "gaussian", None, 0.3, None, 32, 60, 5, []),
            _search_case("beta", 16, "rademacher", None, 0.3, None, 64, 60, 6, []),
            _search_case("beta", 12, "student_t", None, 0.3, None, 64, 60, 7, []),
            _search_case("kstar", 16, "bounded_uniform", None, 0.05, None, 64, 60, 8, []),
            _search_case("kstar", 12, "symmetrized_pareto", None, 0.05, None, 64, 60, 9, []),
            _search_case("kstar", 8, "gaussian", None, 0.05, None, 32, 60, 10, []),
        ],
    )
    def test_brackets_the_crossing(self, fixed_point, n, kind, noise, gamma, delta, N, trials, seed, flags, monkeypatch):
        radii = []
        sup_batch = fixed_points.support_l1l2_batch
        monkeypatch.setattr(fixed_points, "support_l1l2_batch", lambda rows, rho, r: radii.append(r) or sup_batch(rows, rho, r))
        cls = ClassSpec(n=n, R=1.0, t0=make_t0("spike", 0.5, n, 1.0))
        design = DesignSpec(kind, n, p=4.0) if kind in ("student_t", "symmetrized_pareto") else DesignSpec(kind, n)
        if fixed_point == "alpha":
            est = alpha_star(cls, design, noise, N, gamma, delta, trials=trials, seed=seed)
        else:
            est = (beta_star if fixed_point == "beta" else k_star)(cls, design, N, gamma, trials=trials, seed=seed)
        # the criterion recomputed from the one-shot kernel on the same Z
        Z = _z_batch(cls, design, N, trials, seed, noise)
        sqN = math.sqrt(N)

        def holds(r):
            sups = support_l1l2_batch_oneshot(Z, 2.0, r)
            if fixed_point == "alpha":
                return float(np.mean(sups <= gamma * r * r * sqN)) >= 1.0 - delta
            return float(sups.mean()) <= (gamma * r if fixed_point == "beta" else gamma * r * r) * sqN

        r_hi = 2.0 * math.sqrt(n)
        lo, hi = est.brackets
        assert est.value == hi and list(est.flags) == flags
        if "at_lower_bracket" in flags:
            assert lo == hi == 1e-8 * r_hi and holds(hi)
        elif "not_satisfied_within_upper" in flags:
            assert lo == hi == r_hi and not holds(hi)
        else:
            assert not holds(lo) and holds(hi) and 0.0 < hi - lo <= 0.01 * hi
        # no radius twice, and no more midpoints than halving r_hi down to 1% of hi takes
        assert len(radii) == len(set(radii)) <= 2 + max(0, math.ceil(math.log2(r_hi / (0.01 * hi))))
        # the stderr at hi
        sups = support_l1l2_batch_oneshot(Z, 2.0, hi)
        if fixed_point == "alpha":
            p = float(np.mean(sups <= gamma * hi * hi * sqN))
            assert est.stderr == math.sqrt(p * (1.0 - p) / trials)
        else:
            assert est.stderr == float(sups.std(ddof=1) / math.sqrt(trials))


class TestWorkerCounts:
    # BLAS threads stay at the test-run default here; the benchmark pins them
    def test_fixed_points_identical_across_workers(self, monkeypatch):
        cls = ClassSpec(n=16, R=1.0, t0=make_t0("spike", 0.5, 16, 1.0))
        design = DesignSpec("student_t", 16, p=4.0)
        noise = NoiseSpec("heavy_tailed", sigma=0.5, p=3.0)
        records = []
        for workers in ("1", "2", "0"):
            monkeypatch.setenv("ERMBOUNDS_WORKERS", workers)
            records.append(
                (
                    record(alpha_star(cls, design, noise, 64, gamma=0.3, delta=0.1, trials=500, seed=22)),
                    record(beta_star(cls, design, 64, gamma=0.05, trials=60, seed=23)),
                    record(k_star(cls, design, 64, gamma=0.05, trials=60, seed=24)),
                    expected_rademacher_sup(cls, design, 64, 60, 25, 0.5),
                )
            )
        assert repr(records[0]) == repr(records[1]) == repr(records[2])

    def test_z_batches_identical_under_fast_switching(self, monkeypatch):
        # a thread switch every microsecond interleaves the trials as finely
        # as the interpreter allows; a row written by the wrong trial or lost
        # would break bitwise equality with the serial loop
        cls = ClassSpec(n=24, R=1.0, t0=make_t0("flat", 0.5, 24, 1.0))
        design = DesignSpec("bounded_uniform", 24)  # gaussian designs draw Z by law, without threads per trial
        noise = NoiseSpec("gaussian", sigma=0.5)
        config = (cls, design, 48, 300, 26)
        monkeypatch.setenv("ERMBOUNDS_WORKERS", "1")
        serial = [_z_batch(*config, None), _z_batch(*config, noise)]
        monkeypatch.setenv("ERMBOUNDS_WORKERS", "0")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = [_z_batch(*config, None), _z_batch(*config, noise)]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("workers", [2, 0])
    def test_threaded_rows_match_scalar_oracles(self, workers, monkeypatch):
        monkeypatch.setenv("ERMBOUNDS_WORKERS", str(workers))
        cls = ClassSpec(n=12, R=1.0, t0=make_t0("spike", 0.5, 12, 1.0))
        design = DesignSpec("symmetrized_pareto", 12, p=5.0)  # gaussian and student-t designs draw Z by law
        noise = NoiseSpec("gaussian", sigma=0.5)
        N, trials, seed, radius = 40, 16, 27, 0.6
        config = (cls, design, N, trials, seed)
        rad = support_l1l2_batch(SupportRows(_z_batch(*config, None)), 2.0 * cls.R, radius)
        mult = support_l1l2_batch(SupportRows(_z_batch(*config, noise)), 2.0 * cls.R, radius)
        # the rows weigh trial j's sample by xi = 1 and by its noise draw,
        # with no signs: rademacher_sup with xi in place of the signs
        for j in range(trials):
            X = sample_design(design, N, seed, trial=j)
            assert rad[j] == rademacher_sup(X, np.ones(N), cls, radius)
            assert mult[j] == rademacher_sup(X, noise.sample(substream(seed, j, NOISE_TAG), N), cls, radius)

    def test_negative_workers_rejected(self, monkeypatch):
        # a rademacher design draws its trials on threads; a gaussian one
        # draws beta's Z from its law and starts none
        monkeypatch.setenv("ERMBOUNDS_WORKERS", "-2")
        with pytest.raises(ValueError, match="ERMBOUNDS_WORKERS must be a nonnegative integer, got '-2'"):
            beta_star(cls_zero(4), DesignSpec("rademacher", 4), 8, gamma=0.1, trials=10, seed=0)

    @pytest.mark.parametrize("design", [DesignSpec("gaussian", 4), DesignSpec("rademacher", 4), DesignSpec("student_t", 4, p=4.0)], ids=["gaussian", "rademacher", "student_t"])
    def test_unparsable_workers_rejected_by_every_design(self, monkeypatch, design):
        # the gaussian law path starts no thread, yet it reads the variable
        # before it draws, as the threaded paths do
        monkeypatch.setenv("ERMBOUNDS_WORKERS", "abc")
        with pytest.raises(ValueError, match="ERMBOUNDS_WORKERS must be a nonnegative integer, got 'abc'"):
            beta_star(cls_zero(4), design, 8, gamma=0.1, trials=10, seed=0)

    def test_unparsable_workers_rejected_by_smallball(self, monkeypatch):
        # estimate_Q counts its thresholds on threads, so it and choose_tau
        # read the variable too
        monkeypatch.setenv("ERMBOUNDS_WORKERS", "abc")
        design = DesignSpec("gaussian", 4)
        with pytest.raises(ValueError, match="ERMBOUNDS_WORKERS must be a nonnegative integer, got 'abc'"):
            estimate_Q(design, [0.5], directions=10, draws=1000, seed=0)
        with pytest.raises(ValueError, match="ERMBOUNDS_WORKERS must be a nonnegative integer, got 'abc'"):
            choose_tau(design, directions=10, draws=1000, seed=0)

    def test_alpha_star_honours_the_variable(self, monkeypatch):
        monkeypatch.setattr(rng.os, "sched_getaffinity", lambda pid: set(range(8)))
        pools = []
        executor = rng.ThreadPoolExecutor
        monkeypatch.setattr(rng, "ThreadPoolExecutor", lambda max_workers: pools.append(max_workers) or executor(max_workers=max_workers))
        cls = ClassSpec(n=8, R=1.0, t0=make_t0("spike", 0.5, 8, 1.0))
        records = []
        # one thread runs the trials in the caller's thread, with no pool
        for workers, threads in (("1", []), ("3", [3]), ("0", [8])):
            monkeypatch.setenv("ERMBOUNDS_WORKERS", workers)
            pools.clear()
            records.append(record(alpha_star(cls, DesignSpec("student_t", 8, p=4.0), NoiseSpec("gaussian", sigma=0.5), 32, gamma=0.3, delta=0.1, trials=500, seed=28)))
            assert pools == threads
        assert records[0] == records[1] == records[2]


def per_sample_z(cls, design, N, trials, seed, noise=None):
    """Z rows built from whole samples: the design, a signs stream of the
    tests' own and the responses, with xi = <t0, X> - Y. The signed reference
    every sign-free Z batch must match in law."""
    Z = np.empty((trials, cls.n))
    for j in range(trials):
        X = sample_design(design, N, seed, trial=j)
        eps = packed_signs(substream(seed, j, SIGNS_TAG), N)
        if noise is not None:
            eps = eps * (X @ cls.t0 - sample_response(cls, noise, X, seed, trial=j))
        Z[j] = (eps @ X) / math.sqrt(N)
    return Z


class ExactLaw:
    """Gaussian and student-t designs draw Z from its exact law; that must match
    the law of the Z built from whole samples (two-sample KS, fixed seeds),
    without drawing a sample. Each subclass runs these checks on one design."""

    N, n, trials = 64, 8, 1500
    cls = ClassSpec(n=8, R=1.0, t0=make_t0("spike", 0.5, 8, 1.0))
    design: DesignSpec
    block: str  # the module constant that sets the size of the design's law blocks

    @staticmethod
    def assert_same_law(fast, slow):
        # one coordinate per trial keeps each sample iid; the sups at two
        # radii check the joint law through the statistic the fixed points read
        for a, b in ((fast[:, 0], slow[:, 0]), (fast[:, -1], slow[:, -1])):
            assert stats.ks_2samp(a, b).pvalue > 1e-3
        for radius in (0.3, 1.5):
            assert stats.ks_2samp(support_l1l2_batch(SupportRows(fast), 2.0, radius), support_l1l2_batch(SupportRows(slow), 2.0, radius)).pvalue > 1e-3

    def test_rademacher_law(self):
        fast = _z_batch(self.cls, self.design, self.N, self.trials, 41, None)
        self.assert_same_law(fast, per_sample_z(self.cls, self.design, self.N, self.trials, 42))

    @pytest.mark.parametrize("noise", [NoiseSpec("gaussian", sigma=0.5), NoiseSpec("heavy_tailed", sigma=0.5, p=3.0)], ids=["gaussian", "heavy_tailed"])
    def test_multiplier_law(self, noise):
        fast = _z_batch(self.cls, self.design, self.N, self.trials, 43, noise)
        self.assert_same_law(fast, per_sample_z(self.cls, self.design, self.N, self.trials, 44, noise))

    def test_row_law_under_sparse_noise(self):
        # kappa = 8 makes about one noise value in 64 nonzero, so a trial's
        # multipliers are dominated by one or two w_i, and the coordinates of
        # its row share those few rows of the design. The scale-free spread
        # sum Z_k^4 / (sum Z_k^2)^2 of one row reads that coupling: weighting
        # each design row by the mean w^2 instead of its own w_i^2 averages
        # the mixing variables away and shrinks it. All-zero rows (no w_i
        # drawn) are dropped on both sides.
        noise = NoiseSpec("bounded_symmetric", sigma=0.5, kappa=8.0)

        def spread(Z):
            Z2 = Z[np.any(Z != 0.0, axis=1)] ** 2
            return (Z2**2).sum(axis=1) / Z2.sum(axis=1) ** 2

        fast = _z_batch(self.cls, self.design, self.N, self.trials, 52, noise)
        slow = per_sample_z(self.cls, self.design, self.N, self.trials, 53, noise)
        assert stats.ks_2samp(spread(fast), spread(slow)).pvalue > 1e-3

    @pytest.mark.parametrize("noise", [NoiseSpec("zero"), NoiseSpec("gaussian", sigma=0.0)], ids=["zero", "sigma0"])
    def test_zero_noise_gives_zero(self, noise):
        Z = _z_batch(self.cls, self.design, self.N, 50, 46, noise)
        assert Z.shape == (50, self.n) and np.array_equal(Z, np.zeros_like(Z))

    def test_never_draws_a_sample(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an exact-law Z batch drew a sample")

        monkeypatch.setattr(fixed_points, "sample_design", refuse)
        monkeypatch.setattr(DesignSpec, "sample_coords", refuse)
        for noise in (None, NoiseSpec("gaussian", sigma=0.5), NoiseSpec("heavy_tailed", sigma=0.5, p=3.0)):
            assert _z_batch(self.cls, self.design, self.N, 20, 50, noise).shape == (20, self.n)

    @pytest.mark.parametrize("block", ["default", 16], ids=["whole_rows", "row_pieces"])
    def test_identical_across_workers(self, monkeypatch, block):
        if block != "default":
            monkeypatch.setattr(fixed_points, self.block, block)
        noise = NoiseSpec("heavy_tailed", sigma=0.5, p=3.0)
        batches = []
        for workers in ("1", "2", "0"):
            monkeypatch.setenv("ERMBOUNDS_WORKERS", workers)
            config = (self.cls, self.design, 512 if block == "default" else 40, 300, 48)
            batches.append(_z_batch(*config, None).tobytes() + _z_batch(*config, noise).tobytes())
        assert batches[0] == batches[1] == batches[2]

    @pytest.mark.parametrize("noise", [NoiseSpec("heavy_tailed", sigma=0.5, p=3.0), NoiseSpec("bounded_symmetric", sigma=0.5, kappa=2.0), NoiseSpec("gaussian", sigma=0.5)], ids=["heavy_tailed", "bounded_symmetric", "gaussian"])
    def test_rows_independent_of_trial_count(self, noise):
        # N = 512 puts 128 trials in a noise block of the gaussian design;
        # 300 trials end inside the third block, and these kinds draw a
        # block's signs apart from the rest
        def batches(trials):
            config = (self.cls, self.design, 512, trials, 49)
            return _z_batch(*config, None), _z_batch(*config, noise)

        full = batches(300)
        for k in (1, 127, 128, 200):
            for a, b in zip(batches(k), full):
                assert np.array_equal(a, b[:k])


def test_design_kinds_are_the_symmetric_laws():
    # _z_batch drops the Rademacher signs because each of these laws is
    # symmetric (eps X has the law of X); a new kind must revisit that path
    assert DESIGN_KINDS == ("rademacher", "bounded_uniform", "gaussian", "student_t", "symmetrized_pareto")


@pytest.mark.parametrize("noise", [None, NoiseSpec("heavy_tailed", sigma=0.5, p=3.0)], ids=["rademacher", "heavy_tailed"])
@pytest.mark.parametrize("design", [DesignSpec("rademacher", 8), DesignSpec("bounded_uniform", 8), DesignSpec("symmetrized_pareto", 8, p=5.0)], ids=lambda d: d.kind)
def test_sampled_designs_match_the_signed_rows_in_law(design, noise):
    # these designs sum each trial's sample without signs
    N, trials = ExactLaw.N, ExactLaw.trials
    fast = _z_batch(ExactLaw.cls, design, N, trials, 61, noise)
    ExactLaw.assert_same_law(fast, per_sample_z(ExactLaw.cls, design, N, trials, 62, noise))


class TestGaussianLaw(ExactLaw):
    design = DesignSpec("gaussian", 8)
    block = "_LAW_BLOCK"

    # a 16-value block holds less than one trial of N = 40, so the noise
    # comes in blocks of one whole trial
    @pytest.mark.parametrize("block", ["default", 16], ids=["whole_rows", "one_row_blocks"])
    def test_identical_across_workers(self, monkeypatch, block):
        super().test_identical_across_workers(monkeypatch, block)

    @pytest.mark.parametrize("block", [fixed_points._LAW_BLOCK, 16], ids=["whole_rows", "one_row_blocks"])
    def test_noise_mean_squares_chi2(self, monkeypatch, block):
        # gaussian noise: N * mean(w^2) / sigma^2 is chi^2_N, one draw a
        # trial, so the block size of the other kinds' draws changes nothing
        N, sigma = 40, 0.5
        noise = NoiseSpec("gaussian", sigma=sigma)
        whole = _noise_rms(N, 2000, 45, noise)
        monkeypatch.setattr(fixed_points, "_LAW_BLOCK", block)
        rms = _noise_rms(N, 2000, 45, noise)
        assert np.array_equal(rms, whole)
        assert stats.kstest(N * (rms / sigma) ** 2, stats.chi2(N).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("block", [fixed_points._LAW_BLOCK, 16], ids=["whole_rows", "one_row_blocks"])
    def test_noise_mean_squares_binomial(self, monkeypatch, block):
        # bounded_symmetric noise is +-kappa*sigma with probability 1/kappa^2,
        # else 0, so N * mean(w^2) / (kappa*sigma)^2 is Binomial(N, 1/kappa^2),
        # whether a block holds many rows or one (N = 40 > 16)
        monkeypatch.setattr(fixed_points, "_LAW_BLOCK", block)
        N, sigma, kappa = 40, 0.5, 2.0
        hits = N * (_noise_rms(N, 4000, 45, NoiseSpec("bounded_symmetric", sigma=sigma, kappa=kappa)) / (kappa * sigma)) ** 2
        counts = np.bincount(np.rint(hits).astype(int), minlength=N + 1)
        expected = len(hits) * stats.binom(N, 1.0 / kappa**2).pmf(np.arange(N + 1))
        keep = expected >= 5.0  # pool the thin tails into one cell
        observed = np.append(counts[keep], counts[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
        assert stats.chisquare(observed, expected * observed.sum() / expected.sum()).pvalue > 1e-3

    def test_scale_covariance_across_one_row_blocks(self, monkeypatch):
        # gaussian noise takes one chi-square a trial; scaled_sign noise
        # comes in blocks of one trial
        monkeypatch.setattr(fixed_points, "_LAW_BLOCK", 16)
        for noise in ("gaussian", "scaled_sign"):
            config = (self.cls, self.design, 40, 30, 47)
            Z1 = _z_batch(*config, NoiseSpec(noise, sigma=0.5))
            Z2 = _z_batch(*config, NoiseSpec(noise, sigma=1.0))
            assert np.array_equal(Z2, 2.0 * Z1)


class TestStudentTLaw(ExactLaw):
    """p = 4 draws its chi-squares as sums of exponentials."""

    design = DesignSpec("student_t", 8, p=4.0)
    block = "_CHI2_BLOCK"

    @pytest.mark.parametrize("noise", [None, NoiseSpec("heavy_tailed", sigma=0.5, p=3.0)], ids=["rademacher", "heavy_tailed"])
    @pytest.mark.parametrize("block", ["default", 16], ids=["whole_rows", "row_pieces"])
    def test_rows_match_law_oracle(self, monkeypatch, noise, block):
        # bitwise: the same substreams, blocks and sums, one trial at a time;
        # 16 puts 2 rows in a chi-square block, so N = 40 takes 20 blocks
        if block != "default":
            monkeypatch.setattr(fixed_points, "_CHI2_BLOCK", block)
        config = (self.cls, self.design, 40, 25, 51)
        assert _z_batch(*config, noise).tobytes() == student_t_law_z(*config, noise).tobytes()


class TestStudentT5Law(TestStudentTLaw):
    """p = 5 draws its chi-squares with rng.chisquare."""

    design = DesignSpec("student_t", 8, p=5.0)
