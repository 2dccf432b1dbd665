import itertools
import math
import sys

import numpy as np
import pytest

from ermbounds.distributions import DesignSpec, NoiseSpec, make_sample, sample_design
from ermbounds.erm import ClassSpec
from ermbounds.experiments import make_t0
from ermbounds.fixed_points import (
    LocalizedSupConfig,
    _multiplier_z_batch,
    _rademacher_z_batch,
    _sup_batch,
    alpha_star,
    beta_star,
    expected_rademacher_sup,
    k_star,
)
from ermbounds.rng import SIGNS_TAG, substream
from oracles import boundary_enum_2d, multiplier_sup, rademacher_sup


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
        config = LocalizedSupConfig(cls_zero(3), DesignSpec("rademacher", 3), 4, 50, seed=5)
        mean, stderr = expected_rademacher_sup(config, 0.0)
        assert mean == 0.0 and stderr == 0.0

    def test_exhaustive_sign_enumeration_n1(self):
        # n=1, R large, r=1: the localized set is [-1, 1], so the supremum is
        # |Z| with Z = (1/2) sum of 4 independent signs; enumerating the 16
        # outcomes gives E|Z| = 0.75 exactly
        enumeration = [abs(sum(p)) / 2.0 for p in itertools.product([-1, 1], repeat=4)]
        exact = sum(enumeration) / 16.0
        assert exact == 0.75
        config = LocalizedSupConfig(ClassSpec(n=1, R=10.0, t0=np.zeros(1)), DesignSpec("rademacher", 1), 4, 4000, seed=6)
        mean, stderr = expected_rademacher_sup(config, 1.0)
        assert abs(mean - exact) <= 4.0 * stderr

    def test_stderr_scaling(self):
        cls = cls_zero(8)
        design = DesignSpec("gaussian", 8)
        ratios = []
        for seed in range(4):
            _, se1 = expected_rademacher_sup(LocalizedSupConfig(cls, design, 32, 400, seed=seed), 0.5)
            _, se2 = expected_rademacher_sup(LocalizedSupConfig(cls, design, 32, 800, seed=seed), 0.5)
            ratios.append(se2 / se1)
        assert 0.6 <= float(np.median(ratios)) <= 0.85


class TestBetaStar:
    def test_huge_gamma_collapses(self):
        est = beta_star(cls_zero(8), DesignSpec("rademacher", 8), 64, gamma=1e6, trials=50, seed=7)
        assert est.value == est.lower_bracket
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
        Z = _rademacher_z_batch(LocalizedSupConfig(cls, design, N, trials, seed))
        r_hi = 2.0 * math.sqrt(64)
        grid = np.geomspace(1e-8 * r_hi, r_hi, 50)
        step = grid[1] / grid[0]
        passing = [r for r in grid if _sup_batch(Z, 1.0, float(r)).mean() <= gamma * r * math.sqrt(N)]
        first = min(passing)
        assert first / step <= est.value <= first * 1.02

    def test_monotone_in_gamma(self):
        cls = cls_zero(16)
        design = DesignSpec("gaussian", 16)
        values = [beta_star(cls, design, 128, g, trials=60, seed=11).value for g in (0.02, 0.05, 0.1, 0.2, 0.5)]
        assert all(b <= a * 1.02 for a, b in zip(values, values[1:]))

    def test_star_shaped_ratio_per_trial(self):
        cls = cls_zero(12, R=0.4)
        config = LocalizedSupConfig(cls, DesignSpec("gaussian", 12), 64, 100, seed=12)
        Z = _rademacher_z_batch(config)
        radii = [0.1, 0.2, 0.5, 1.0, 2.0]
        sups = {r: _sup_batch(Z, cls.R, r) for r in radii}
        for r1, r2 in zip(radii, radii[1:]):
            assert np.all(sups[r1] / r1 >= sups[r2] / r2 - 1e-12)


class TestKStar:
    def test_huge_gamma_collapses(self):
        # the quadratic threshold gamma*r^2*sqrt(N) is tiny near r_lo, so the
        # collapse needs gamma large enough that the crossing drops below r_lo
        est = k_star(cls_zero(8), DesignSpec("rademacher", 8), 64, gamma=1e15, trials=50, seed=13)
        assert est.value == est.lower_bracket

    def test_grid_scan_oracle(self):
        cls = cls_zero(64)
        design = DesignSpec("rademacher", 64)
        N, gamma, trials, seed = 512, 0.05, 150, 14
        est = k_star(cls, design, N, gamma, trials=trials, seed=seed)
        Z = _rademacher_z_batch(LocalizedSupConfig(cls, design, N, trials, seed))
        r_hi = 2.0 * math.sqrt(64)
        grid = np.geomspace(1e-8 * r_hi, r_hi, 50)
        step = grid[1] / grid[0]
        passing = [r for r in grid if _sup_batch(Z, 1.0, float(r)).mean() <= gamma * r * r * math.sqrt(N)]
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
    def test_zero_noise_grid_minimum(self):
        cls = cls_zero(4)
        est = alpha_star(cls, DesignSpec("gaussian", 4), NoiseSpec("zero"), 32, gamma=0.05, delta=0.1, trials=500, seed=16)
        assert est.value == pytest.approx(1e-6 * 2.0 * math.sqrt(4), rel=1e-12)

    def test_huge_gamma_grid_minimum(self):
        cls = cls_zero(4)
        est = alpha_star(cls, DesignSpec("gaussian", 4), NoiseSpec("gaussian", sigma=0.5), 32, gamma=1e9, delta=0.1, trials=500, seed=17)
        assert est.value == pytest.approx(1e-6 * 2.0 * math.sqrt(4), rel=1e-12)

    def test_requires_quantile_resolution(self):
        cls = cls_zero(4)
        with pytest.raises(ValueError):
            alpha_star(cls, DesignSpec("gaussian", 4), NoiseSpec("zero"), 32, gamma=0.05, delta=0.01, trials=100, seed=18)

    @pytest.mark.parametrize("s_lo", [0.0, -1.0, 4.0, 5.0], ids=["zero", "negative", "at_s_hi", "above_s_hi"])
    def test_bracket_checked_at_boundary(self, s_lo):
        # s_hi = 2R*sqrt(n) = 4 here; a bracket that is empty or reaches
        # below zero must fail before any sampling, not deep in the grid scan
        cls = cls_zero(4)
        with pytest.raises(ValueError, match="s_lo"):
            alpha_star(cls, DesignSpec("gaussian", 4), NoiseSpec("zero"), 32, gamma=0.05, delta=0.1, trials=500, seed=18, s_lo=s_lo)

    def test_dense_scan_oracle(self):
        cls = cls_zero(32)
        design = DesignSpec("rademacher", 32)
        noise = NoiseSpec("gaussian", sigma=0.5)
        N, gamma, delta, seed = 256, 0.05, 0.1, 19
        est = alpha_star(cls, design, noise, N, gamma, delta, trials=600, seed=seed)
        # brute scan: 200-point grid over the same range with 10x the trials
        Z = _multiplier_z_batch(LocalizedSupConfig(cls, design, N, 6000, seed=seed + 1), noise)
        s_hi = 2.0 * math.sqrt(32)
        grid = np.geomspace(1e-6 * s_hi, s_hi, 200)
        sqN = math.sqrt(N)
        oracle = None
        for s in grid:
            sups = _sup_batch(Z, 1.0, float(s))
            if np.mean(sups <= gamma * s * s * sqN) >= 1.0 - delta:
                oracle = float(s)
                break
        assert oracle is not None
        assert abs(math.log(est.value / oracle)) <= math.log(1.1) + math.log(grid[1] / grid[0])

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
        config1 = LocalizedSupConfig(cls, design, 32, 50, seed=21)
        Z1 = _multiplier_z_batch(config1, NoiseSpec("gaussian", sigma=0.5))
        Z2 = _multiplier_z_batch(config1, NoiseSpec("gaussian", sigma=1.0))
        assert np.array_equal(Z2, 2.0 * Z1)
        for s in (0.2, 0.7, 1.9):
            phi1 = _sup_batch(Z1, 1.0, s)
            phi2 = _sup_batch(Z2, 1.0, s)
            assert np.array_equal(phi2, 2.0 * phi1)
        Z3 = _multiplier_z_batch(config1, NoiseSpec("gaussian", sigma=1.5))
        phi3 = _sup_batch(Z3, 1.0, 0.7)
        assert np.allclose(phi3, 3.0 * _sup_batch(Z1, 1.0, 0.7), rtol=1e-12, atol=0.0)


class TestWorkerCounts:
    # BLAS threads stay at the test-run default here; the benchmark pins them
    def test_fixed_points_identical_across_workers(self):
        cls = ClassSpec(n=16, R=1.0, t0=make_t0("spike", 0.5, 16, 1.0))
        design = DesignSpec("student_t", 16, p=4.0)
        noise = NoiseSpec("heavy_tailed", sigma=0.5, p=3.0)
        records = []
        for workers in (1, 2, 0):
            records.append(
                (
                    alpha_star(cls, design, noise, 64, gamma=0.3, delta=0.1, trials=500, seed=22, workers=workers).to_record(),
                    beta_star(cls, design, 64, gamma=0.05, trials=60, seed=23, workers=workers).to_record(),
                    k_star(cls, design, 64, gamma=0.05, trials=60, seed=24, workers=workers).to_record(),
                    expected_rademacher_sup(LocalizedSupConfig(cls, design, 64, 60, seed=25, workers=workers), 0.5),
                )
            )
        assert repr(records[0]) == repr(records[1]) == repr(records[2])

    def test_z_batches_identical_under_fast_switching(self):
        # a thread switch every microsecond interleaves the trials as finely
        # as the interpreter allows; a row written by the wrong trial or lost
        # would break bitwise equality with the serial loop
        cls = ClassSpec(n=24, R=1.0, t0=make_t0("flat", 0.5, 24, 1.0))
        design = DesignSpec("gaussian", 24)
        noise = NoiseSpec("gaussian", sigma=0.5)
        serial = [_rademacher_z_batch(LocalizedSupConfig(cls, design, 48, 300, seed=26, workers=1)), _multiplier_z_batch(LocalizedSupConfig(cls, design, 48, 300, seed=26, workers=1), noise)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = [_rademacher_z_batch(LocalizedSupConfig(cls, design, 48, 300, seed=26, workers=0)), _multiplier_z_batch(LocalizedSupConfig(cls, design, 48, 300, seed=26, workers=0), noise)]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("workers", [2, 0])
    def test_threaded_rows_match_scalar_oracles(self, workers):
        cls = ClassSpec(n=12, R=1.0, t0=make_t0("spike", 0.5, 12, 1.0))
        design = DesignSpec("student_t", 12, p=5.0)
        noise = NoiseSpec("gaussian", sigma=0.5)
        N, trials, seed, radius = 40, 16, 27, 0.6
        config = LocalizedSupConfig(cls, design, N, trials, seed, workers)
        rad = _sup_batch(_rademacher_z_batch(config), cls.R, radius)
        mult = _sup_batch(_multiplier_z_batch(config, noise), cls.R, radius)
        for j in range(trials):
            signs = substream(seed, j, SIGNS_TAG).integers(0, 2, size=N) * 2.0 - 1.0
            assert rad[j] == rademacher_sup(sample_design(design, N, seed, trial=j), signs, cls, radius)
            assert mult[j] == multiplier_sup(make_sample(cls, design, noise, N, seed, trial=j), cls, radius, signs)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            LocalizedSupConfig(cls_zero(4), DesignSpec("gaussian", 4), 8, 10, seed=0, workers=-1)
        with pytest.raises(ValueError, match="workers"):
            beta_star(cls_zero(4), DesignSpec("gaussian", 4), 8, gamma=0.1, trials=10, seed=0, workers=-2)
