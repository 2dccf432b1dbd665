import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from ermbounds import erm
from ermbounds.distributions import DesignSpec, Moments, NoiseSpec, Sample, sample_moments
from ermbounds.erm import ClassSpec, solve_erm, solve_erms
from ermbounds.experiments import make_t0
from oracles import brute_force_erm, certified_min_eigenvalue, excess_loss, fista_erm_scalar, make_sample


def objective(sample, t):
    return float(np.mean((sample.design @ t - sample.responses) ** 2))


@pytest.mark.parametrize("R", [-1.0, float("nan"), float("inf")])
def test_class_radius_must_be_finite_and_nonnegative(R):
    with pytest.raises(ValueError, match="R must be finite and nonnegative"):
        ClassSpec(n=3, R=R, t0=np.zeros(3))


class TestSolve:
    def test_zero_radius_degenerate(self):
        cls = ClassSpec(n=3, R=0.0, t0=np.zeros(3))
        sample = make_sample(cls, DesignSpec("gaussian", 3), NoiseSpec("gaussian", sigma=1.0), 20, seed=1)
        res = solve_erm(sample, cls, tol=1e-9)
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
            solve_erm(sample, cls, tol=1e-9)

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
                solve_erm(data, cls, tol=1e-9)

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

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_iteration_cap_below_one_rejected(self, max_iter):
        cls = ClassSpec(n=3, R=1.0, t0=np.zeros(3))
        sample = make_sample(cls, DesignSpec("gaussian", 3), NoiseSpec("gaussian", sigma=1.0), 10, seed=1)
        with pytest.raises(ValueError, match="max_iter"):
            solve_erm(sample, cls, tol=1e-9, max_iter=max_iter)
        with pytest.raises(ValueError, match="max_iter"):
            solve_erms([sample.moments()], cls, tol=1e-9, max_iter=max_iter)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_tolerance_outside_the_positive_reals_rejected(self, tol):
        # a NaN tol never stopped the solve; an infinite one stopped it after one step
        cls = ClassSpec(n=3, R=1.0, t0=np.zeros(3))
        sample = make_sample(cls, DesignSpec("gaussian", 3), NoiseSpec("gaussian", sigma=1.0), 10, seed=1)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            solve_erm(sample, cls, tol=tol, max_iter=10)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            solve_erms([sample.moments()], cls, tol=tol, max_iter=10)

    def test_iteration_cap_reported(self):
        cls = ClassSpec(n=8, R=1.0, t0=np.zeros(8))
        sample = make_sample(cls, DesignSpec("gaussian", 8), NoiseSpec("gaussian", sigma=1.0), 6, seed=3)
        res = solve_erm(sample, cls, tol=1e-15, max_iter=3)
        assert not res.converged
        assert res.iterations == 3

    @pytest.mark.parametrize(
        "kind, n, N, digest, iterations",
        [
            ("gaussian", 12, 40, "581c28d5b7f6897838eb5dc5fa2f3f3a8f96bd4e72bfe5cf74c118ecd7058c1f", 46),
            ("rademacher", 24, 10, "c330a1c7b6ba0ea405d2db108d00e941a0ac6ad7b0bee31e9887b73290f1e0f9", 139),
        ],
        ids=["gaussian", "rademacher"],
    )
    def test_recorded_solution_bytes(self, kind, n, N, digest, iterations):
        # t_hat bytes and iteration counts recorded when L came to start at
        # 2 max_i G_ii and to be raised only by the checked step, and the
        # rademacher case again when random_signs came to draw 32 signs per
        # word (a new sample, so a new count)
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


def result_key(result):
    return (result.t_hat.tobytes(), result.empirical_risk, result.iterations, result.kkt_residual, result.converged)


def reference_key(moments, cls, tol, max_iter):
    t, risk, iterations, residual, converged, _ = fista_erm_scalar(moments.G, moments.b, moments.c, cls.R, tol, max_iter)
    return (t.tobytes(), risk, iterations, residual, converged)


def trial_moments(kind, n, N, count, R=1.0, seed=23):
    cls = ClassSpec(n=n, R=R, t0=make_t0("spike", 0.5, n, R))
    design = DesignSpec(kind, n, p=4.0 if kind == "student_t" else None)
    return cls, [sample_moments(cls, design, NoiseSpec("gaussian", sigma=0.5), N, seed, trial=j) for j in range(count)]


class TestStacked:
    # every row of a stacked solve must equal its lone solve and the scalar
    # loop the stack replaced, byte for byte

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "student_t"])
    @pytest.mark.parametrize("n, N", [(24, 10), (24, 200), (300, 150)], ids=["N<n", "N>n", "gathered"])
    def test_rows_equal_lone_solves(self, kind, n, N):
        # above erm._GATHER_MIN_N the products run on each row's support,
        # which the scalar loop does not reproduce; the rows must still
        # equal their lone solves
        cls, moments = trial_moments(kind, n, N, 12 if n <= erm._GATHER_MIN_N else 4)
        stacked = solve_erms(moments, cls, tol=1e-9)
        assert len(stacked) == len(moments)
        for m, result in zip(moments, stacked):
            assert result_key(result) == result_key(solve_erm(m, cls, tol=1e-9))
            if n <= erm._GATHER_MIN_N:
                assert result_key(result) == reference_key(m, cls, 1e-9, 100000)
            assert result.converged

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "student_t"])
    def test_gathered_rows_match_the_dense_oracle(self, kind):
        # a gathered product sums in another order than the scalar loop's
        # dense one, so the paths part in their last bits; solved to 1e-12,
        # t_hat and the risk stay within the rounding allowance of the
        # oracle's (3e-10 to 2e-9 here; t_hat moved by at most 4e-11)
        cls, moments = trial_moments(kind, 300, 150, 4)
        for m, result in zip(moments, solve_erms(moments, cls, tol=1e-12)):
            t, risk, _, _, converged, _ = fista_erm_scalar(m.G, m.b, m.c, cls.R, 1e-12, 100000)
            _, allowance = erm._rounding_allowance(m.G[None], cls.R)
            assert result.converged and converged
            assert np.linalg.norm(result.t_hat - t) <= allowance[0]
            assert abs(result.empirical_risk - risk) <= allowance[0]

    def test_rows_that_restart(self):
        cls, moments = trial_moments("rademacher", 24, 10, 12)
        restarts = [fista_erm_scalar(m.G, m.b, m.c, cls.R, 1e-9, 100000)[5].restarts for m in moments]
        # every row restarts, and unequal counts mean that some restarts
        # fall on steps where other rows go on
        assert min(restarts) > 0 and len(set(restarts)) > 1
        for m, result in zip(moments, solve_erms(moments, cls, tol=1e-9)):
            assert result_key(result) == reference_key(m, cls, 1e-9, 100000)

    def test_zero_gram_row(self):
        cls, moments = trial_moments("gaussian", 12, 40, 4)
        zero = Moments(np.zeros((12, 12)), np.zeros(12), 0.75, 40)
        batch = moments[:2] + [zero] + moments[2:]
        results = solve_erms(batch, cls, tol=1e-9)
        assert result_key(results[2]) == (np.zeros(12).tobytes(), 0.75, 0, 0.0, True)
        for m, result in zip(moments, results[:2] + results[3:]):
            assert result_key(result) == result_key(solve_erm(m, cls, tol=1e-9))
        assert [result_key(r) for r in solve_erms([zero, zero], cls, tol=1e-9)] == [result_key(results[2])] * 2

    def test_zero_radius(self):
        cls, moments = trial_moments("gaussian", 6, 20, 3, R=0.0)
        for m, result in zip(moments, solve_erms(moments, cls, tol=1e-9)):
            assert result_key(result) == (np.zeros(6).tobytes(), m.c, 0, 0.0, True)

    def test_iteration_cap_splits_the_batch(self):
        cls, moments = trial_moments("gaussian", 16, 12, 10)
        free = [r.iterations for r in solve_erms(moments, cls, tol=1e-10)]
        cap = sorted(free)[len(free) // 2]
        assert min(free) < cap < max(free)
        capped = solve_erms(moments, cls, tol=1e-10, max_iter=cap)
        for m, iterations, result in zip(moments, free, capped):
            assert result.converged == (iterations <= cap)
            assert result.iterations == min(iterations, cap)
            assert result_key(result) == result_key(solve_erm(m, cls, tol=1e-10, max_iter=cap)) == reference_key(m, cls, 1e-10, cap)

    def test_row_converging_on_the_last_step(self):
        # a row that converges at exactly max_iter leaves the stack on the
        # last step, ahead of rows the cap stops; each stopped row must keep
        # its own residual
        cls, moments = trial_moments("gaussian", 16, 12, 10)
        free = [r.iterations for r in solve_erms(moments, cls, tol=1e-10)]
        order = np.argsort(free, kind="stable")
        first, later = int(order[0]), [int(j) for j in order if free[j] > free[order[0]]]
        cap = free[first]
        batch = [moments[first]] + [moments[j] for j in later]
        capped = solve_erms(batch, cls, tol=1e-10, max_iter=cap)
        assert capped[0].converged and capped[0].iterations == cap
        assert len(later) > 1 and not any(r.converged for r in capped[1:])
        for m, result in zip(batch, capped):
            assert result_key(result) == reference_key(m, cls, 1e-10, cap)

    def test_empty_and_mismatched(self):
        cls, moments = trial_moments("gaussian", 4, 8, 2)
        assert solve_erms([], cls, tol=1e-9) == []
        other = sample_moments(ClassSpec(n=5, R=1.0, t0=np.zeros(5)), DesignSpec("gaussian", 5), NoiseSpec("zero"), 8, seed=1)
        with pytest.raises(ValueError, match="dimension"):
            solve_erms([moments[0], other], cls, tol=1e-9)

    def test_lone_solve_allocates_less_than_a_gram(self):
        # a step that raises L on every row indexes the stack without
        # copying its G's, and a gathered product holds a few rows of G
        n = 700
        cls = ClassSpec(n=n, R=1.0, t0=np.zeros(n))
        m = sample_moments(cls, DesignSpec("rademacher", n), NoiseSpec("gaussian", sigma=0.5), 350, seed=7)
        tracemalloc.start()
        try:
            (result,) = solve_erms([m], cls, tol=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged
        assert peak < n * n * np.dtype(np.float64).itemsize

    def test_lone_solve_reads_g_in_place(self, monkeypatch):
        # the one-problem stack is a view of the caller's G, not a copy
        cls, (m,) = trial_moments("gaussian", 8, 20, 1)
        seen = []
        rounding_allowance = erm._rounding_allowance
        monkeypatch.setattr(erm, "_rounding_allowance", lambda G, R: seen.append(G) or rounding_allowance(G, R))
        solve_erm(m, cls, tol=1e-9)
        assert seen[0].shape == (1, 8, 8) and np.shares_memory(seen[0], m.G)


def count_matvec_rows(monkeypatch):
    """Rows that erm._matvec multiplies from now on, in a one-item list."""
    rows = [0]
    matvec = erm._matvec

    def counting(G, V):
        rows[0] += V.shape[0]
        return matvec(G, V)

    monkeypatch.setattr(erm, "_matvec", counting)
    return rows


def near_collinear_moments(n, N, seed):
    """Moments of a design whose columns are one shared column plus 1e-3
    noise: the top eigenvalue of G is about n times its largest diagonal entry."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, 1)) + 1e-3 * rng.standard_normal((N, n))
    Y = X[:, 0] * 0.5 + 0.5 * rng.standard_normal(N)
    return Moments(X.T @ X / N, X.T @ Y / N, float(Y @ Y / N), N)


class TestStep:
    def test_underestimate_raises_l(self):
        # L starts at 2 max_i G_ii <= 2 lambda_max, and a step fails only while
        # (L/2) ||d||^2 < d^T G d <= lambda_max ||d||^2, so L stays below
        # 4 lambda_max; near-collinear designs start far below and raise L
        cls, rademacher = trial_moments("rademacher", 8, 12, 4)
        student_t = trial_moments("student_t", 8, 40, 4)[1]
        collinear = [near_collinear_moments(8, 30, seed) for seed in range(4)]
        moments = rademacher + student_t + collinear
        raises = []
        for m in moments:
            lam = np.linalg.eigvalsh(m.G)[-1]
            *key, log = fista_erm_scalar(m.G, m.b, m.c, cls.R, 1e-9, 100000)
            assert key[4]
            raises.append(log.raises)
            # every accepted step meets the upper model, checked with an exact G @ d
            for x, t_new, L in log.steps:
                assert L <= 4.0 * lam
                d = t_new - x
                assert d @ (m.G @ d) <= 0.5 * L * (d @ d)
        assert min(raises[-4:]) > 0
        for m, result in zip(moments, solve_erms(moments, cls, tol=1e-9)):
            assert result_key(result) == reference_key(m, cls, 1e-9, 100000)

    def test_rounding_never_raises_l(self):
        # steps of about 1e-12 along the top eigenvector with L exactly twice
        # its eigenvalue: d^T G d = (L/2) ||d||^2 up to rounding, and the two
        # separately rounded products often put the computed side above
        rng = np.random.default_rng(0)
        n, raw = 64, 0
        for _ in range(100):
            X = rng.choice([-1.0, 1.0], size=(32, n))
            G = X.T @ X / 32
            lam, V = np.linalg.eigh(G)
            x = rng.standard_normal(n)
            x /= np.abs(x).sum()
            t = x + V[:, -1] * 1e-12 * rng.uniform(0.5, 2.0)
            d, Gd = (t - x)[None], (erm._matvec(G[None], t[None]) - erm._matvec(G[None], x[None]))
            L = np.array([[2.0 * lam[-1]]])
            raw += erm._breaks_upper_model(d, Gd, L, np.zeros(1))[0]
            assert not erm._breaks_upper_model(d, Gd, L, erm._rounding_allowance(G[None], 1.0)[1])[0]
        assert raw > 0

    @pytest.mark.parametrize("block", [2**16, 16 * 300], ids=["one_gather", "16_row_gathers"])
    def test_gathered_product_within_the_rounding_allowance(self, block, monkeypatch):
        # a row with |S| < n/2 sums the terms G_ij t_j over its support S
        # alone, in another order than the dense product; a row with a
        # wider support takes the dense product's bytes
        monkeypatch.setattr(erm, "_GATHER_BLOCK", block)
        n = 300
        cls, (m,) = trial_moments("student_t", n, 150, 1)
        _, allowance = erm._rounding_allowance(m.G[None], cls.R)
        rng = np.random.default_rng(3)
        for size in (1, 40, 149, 150, n):
            t = np.zeros(n)
            t[rng.choice(n, size, replace=False)] = rng.standard_normal(size)
            t *= cls.R / np.abs(t).sum()
            product = erm._matvec(m.G[None], t[None])[0]
            dense = (m.G[None] @ t[None, :, None])[0, :, 0]
            if 2 * size < n:
                assert np.linalg.norm(product - dense) <= allowance[0]
            else:
                assert np.array_equal(product, dense)

    def test_one_matvec_per_step(self, monkeypatch):
        # the budget: one product for the start, one per iteration, and one
        # per restart and per raised L
        cls, (m,) = trial_moments("rademacher", 64, 32, 1)
        rows = count_matvec_rows(monkeypatch)
        result = solve_erm(m, cls, tol=1e-9)
        _, _, iterations, _, converged, log = fista_erm_scalar(m.G, m.b, m.c, cls.R, 1e-9, 100000)
        assert result.converged and converged and result.iterations == iterations
        assert log.restarts > 0
        assert rows[0] == 1 + iterations + log.restarts + log.raises


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
            t_oracle = brute_force_erm(sample, cls)
            assert objective(sample, res.t_hat) == pytest.approx(objective(sample, t_oracle), abs=1e-6)

    def test_noise_free_recovers_t0(self):
        cls = ClassSpec(n=2, R=1.0, t0=np.array([0.5, -0.4]))
        sample = make_sample(cls, DesignSpec("gaussian", 2), NoiseSpec("zero"), 10, seed=6)
        t = brute_force_erm(sample, cls)
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
