import hashlib

import numpy as np
import pytest

from ermbounds.distributions import DesignSpec, NoiseSpec, Sample, make_sample
from ermbounds.erm import ClassSpec, brute_force_erm, excess_loss, solve_erm
from ermbounds.experiments import make_t0
from oracles import certified_min_eigenvalue


def objective(sample, t):
    return float(np.mean((sample.design @ t - sample.responses) ** 2))


class TestSolve:
    def test_zero_radius_degenerate(self):
        cls = ClassSpec(n=3, R=0.0, t0=np.zeros(3))
        sample = make_sample(cls, DesignSpec("gaussian", 3), NoiseSpec("gaussian", sigma=1.0), 20, seed=1)
        res = solve_erm(sample, cls)
        assert np.array_equal(res.t_hat, np.zeros(3))
        assert res.empirical_risk == pytest.approx(float(np.mean(sample.responses**2)), rel=1e-15)

    def test_realizable_recovery(self):
        # noise-free with N >= n and a certified lower eigenvalue bound: the
        # minimizer is unique and the solver must land on t0
        cls = ClassSpec(n=6, R=1.0, t0=np.array([0.4, -0.3, 0.1, 0.0, 0.0, 0.0]))
        design = DesignSpec("gaussian", 6)
        found = 0
        for seed in range(10):
            sample = make_sample(cls, design, NoiseSpec("zero"), 60, seed=seed)
            G = sample.design.T @ sample.design / sample.N
            lam_min = certified_min_eigenvalue(G)
            if lam_min < 0.1:
                continue
            found += 1
            tol = 1e-10
            res = solve_erm(sample, cls, tol=tol)
            assert res.converged
            assert np.linalg.norm(res.t_hat - cls.t0) <= 10.0 * tol / np.sqrt(lam_min)
        assert found >= 5

    def test_feasibility(self):
        rng = np.random.default_rng(2)
        for seed in range(20):
            n = int(rng.integers(2, 12))
            R = float(rng.uniform(0.2, 2.0))
            cls = ClassSpec(n=n, R=R, t0=np.zeros(n))
            sample = make_sample(cls, DesignSpec("gaussian", n), NoiseSpec("gaussian", sigma=1.0), 8, seed=seed)
            res = solve_erm(sample, cls, tol=1e-8)
            assert np.abs(res.t_hat).sum() <= R * (1.0 + 1e-10)

    def test_nonfinite_rejected(self):
        cls = ClassSpec(n=2, R=1.0, t0=np.zeros(2))
        X = np.array([[1.0, np.nan], [0.0, 1.0]])
        sample = Sample(design=X, responses=np.zeros(2), seed=0)
        with pytest.raises(ValueError):
            solve_erm(sample, cls)

    def test_sample_and_its_moments_solve_alike(self):
        cls = ClassSpec(n=12, R=1.0, t0=make_t0("spike", 0.5, 12, 1.0))
        sample = make_sample(cls, DesignSpec("gaussian", 12), NoiseSpec("gaussian", sigma=0.5), 40, seed=5)
        a, b = solve_erm(sample, cls, tol=1e-9), solve_erm(sample.moments(), cls, tol=1e-9)
        assert np.array_equal(a.t_hat, b.t_hat)
        assert (a.empirical_risk, a.iterations, a.kkt_residual) == (b.empirical_risk, b.iterations, b.kkt_residual)

    def test_moments_dimension_checked(self):
        sample = make_sample(ClassSpec(n=3, R=1.0, t0=np.zeros(3)), DesignSpec("gaussian", 3), NoiseSpec("zero"), 10, seed=6)
        cls = ClassSpec(n=4, R=1.0, t0=np.zeros(4))
        for data in (sample, sample.moments()):
            with pytest.raises(ValueError, match="dimension"):
                solve_erm(data, cls)

    def test_risk_is_the_objective_at_t_hat(self):
        # noisy: within rounding of the direct mean; noise-free and
        # realizable: about zero, and never below it
        for sigma in (0.5, 0.0):
            cls = ClassSpec(n=6, R=1.0, t0=np.array([0.4, -0.3, 0.1, 0.0, 0.0, 0.0]))
            noise = NoiseSpec("gaussian", sigma=sigma) if sigma else NoiseSpec("zero")
            for seed in range(5):
                sample = make_sample(cls, DesignSpec("gaussian", 6), noise, 60, seed=seed)
                res = solve_erm(sample, cls, tol=1e-10)
                assert res.empirical_risk >= 0.0
                if sigma:
                    assert res.empirical_risk == pytest.approx(objective(sample, res.t_hat), rel=1e-12, abs=0.0)
                else:
                    assert res.empirical_risk <= 1e-12

    def test_iteration_cap_reported(self):
        cls = ClassSpec(n=8, R=1.0, t0=np.zeros(8))
        sample = make_sample(cls, DesignSpec("gaussian", 8), NoiseSpec("gaussian", sigma=1.0), 6, seed=3)
        res = solve_erm(sample, cls, tol=1e-15, max_iter=3)
        assert not res.converged
        assert res.iterations == 3

    @pytest.mark.parametrize(
        "kind, n, N, digest, iterations",
        [
            ("gaussian", 12, 40, "4f6aaaf726bd348242a2152c95b379ee35c9fcbb70a5bd3d77c1d635dcc03dae", 43),
            ("rademacher", 24, 10, "9377c7ba02b12803c2bdabf6b01b9138b02e5956506e42be404f5a62fd62ab05", 66),
        ],
    )
    def test_recorded_solution_bytes(self, kind, n, N, digest, iterations):
        # t_hat bytes and iteration counts recorded at commit 382c668, before
        # each G @ t product was shared between objective and gradient
        cls = ClassSpec(n=n, R=1.0, t0=make_t0("spike", 0.5, n, 1.0))
        sample = make_sample(cls, DesignSpec(kind, n), NoiseSpec("gaussian", sigma=0.5), N, seed=17)
        res = solve_erm(sample, cls, tol=1e-9)
        assert hashlib.sha256(res.t_hat.tobytes()).hexdigest() == digest
        assert res.iterations == iterations

    def test_monotone_descent(self):
        # re-run the solve manually tracking objectives through tiny max_iter
        # increments; accepted objective values must never increase
        cls = ClassSpec(n=10, R=0.8, t0=np.zeros(10))
        sample = make_sample(cls, DesignSpec("gaussian", 10), NoiseSpec("gaussian", sigma=1.0), 9, seed=4)
        objs = []
        for iters in range(1, 60):
            res = solve_erm(sample, cls, tol=1e-16, max_iter=iters)
            objs.append(objective(sample, res.t_hat))
        assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))


class TestBruteForce:
    def test_cross_check_20_instances(self):
        rng = np.random.default_rng(5)
        for i in range(20):
            n = 2 if i % 2 == 0 else 3
            N = int(rng.integers(n, 10))
            t0 = np.zeros(n)
            t0[0] = 0.4
            cls = ClassSpec(n=n, R=1.0, t0=t0)
            sample = make_sample(cls, DesignSpec("rademacher", n), NoiseSpec("gaussian", sigma=0.5), N, seed=100 + i)
            res = solve_erm(sample, cls, tol=1e-10)
            t_oracle = brute_force_erm(sample, cls, resolution=5e-3)
            assert objective(sample, res.t_hat) == pytest.approx(objective(sample, t_oracle), abs=1e-6)

    def test_noise_free_recovers_t0(self):
        cls = ClassSpec(n=2, R=1.0, t0=np.array([0.5, -0.4]))
        sample = make_sample(cls, DesignSpec("gaussian", 2), NoiseSpec("zero"), 10, seed=6)
        t = brute_force_erm(sample, cls, resolution=5e-3)
        assert np.linalg.norm(t - cls.t0) <= 5e-3

    def test_zero_radius(self):
        cls = ClassSpec(n=2, R=0.0, t0=np.zeros(2))
        sample = make_sample(cls, DesignSpec("gaussian", 2), NoiseSpec("gaussian", sigma=1.0), 5, seed=7)
        assert np.array_equal(brute_force_erm(sample, cls), np.zeros(2))

    def test_dimension_cap(self):
        cls = ClassSpec(n=5, R=1.0, t0=np.zeros(5))
        sample = make_sample(cls, DesignSpec("gaussian", 5), NoiseSpec("zero"), 5, seed=8)
        with pytest.raises(ValueError):
            brute_force_erm(sample, cls)


class TestExcessLoss:
    def test_zero_at_t0(self):
        cls = ClassSpec(n=3, R=1.0, t0=np.array([0.2, 0.2, -0.2]))
        sample = make_sample(cls, DesignSpec("gaussian", 3), NoiseSpec("gaussian", sigma=0.5), 50, seed=9)
        assert excess_loss(cls.t0, cls, sample) == 0.0

    def test_algebraic_identity(self):
        # decomposition equals the direct loss difference for random pairs
        rng = np.random.default_rng(10)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            t0 = rng.standard_normal(n)
            t0 *= rng.uniform(0, 1) / max(np.abs(t0).sum(), 1e-12)
            cls = ClassSpec(n=n, R=1.0, t0=t0)
            sample = make_sample(cls, DesignSpec("gaussian", n), NoiseSpec("gaussian", sigma=0.7), int(rng.integers(1, 20)), seed=int(rng.integers(0, 2**31)))
            t = rng.standard_normal(n)
            direct = objective(sample, t) - objective(sample, cls.t0)
            dec = excess_loss(t, cls, sample)
            assert dec == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_minimizer_nonpositive(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            n = int(rng.integers(2, 10))
            t0 = np.zeros(n)
            t0[0] = 0.3
            cls = ClassSpec(n=n, R=1.0, t0=t0)
            sample = make_sample(cls, DesignSpec("gaussian", n), NoiseSpec("gaussian", sigma=0.5), 15, seed=seed)
            res = solve_erm(sample, cls, tol=1e-10)
            assert excess_loss(res.t_hat, cls, sample) <= 1e-8

    def test_dimension_mismatch(self):
        cls = ClassSpec(n=3, R=1.0, t0=np.zeros(3))
        sample = make_sample(cls, DesignSpec("gaussian", 3), NoiseSpec("zero"), 5, seed=12)
        with pytest.raises(ValueError):
            excess_loss(np.zeros(2), cls, sample)
