import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from ermbounds import distributions
from ermbounds.distributions import (
    CounterexampleSpec,
    DesignSpec,
    Moments,
    NoiseSpec,
    l21_norm,
    psi2_norm,
    random_signs,
    sample_counterexample,
    sample_design,
    sample_moments,
    sample_response,
)
from ermbounds.erm import ClassSpec, solve_erm, solve_erms
from ermbounds.experiments import make_t0, run_counterexample
from ermbounds.rng import DESIGN_TAG, NOISE_TAG, substream

from oracles import int32_signs, make_sample, packed_signs, streamed_moments

ALL_DESIGNS = [
    DesignSpec("rademacher", 4),
    DesignSpec("bounded_uniform", 4),
    DesignSpec("gaussian", 4),
    DesignSpec("student_t", 4, p=4.0),
    DesignSpec("symmetrized_pareto", 4, p=4.0),
]


class TestRandomSigns:
    @pytest.mark.parametrize("size", [7, (1000,), (37, 5)], ids=["scalar", "1d", "2d"])
    def test_same_values_and_stream(self, size):
        # against the shift-and-mask unpack: bit j of word i is value 32 i + j
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        signs = random_signs(a, size)
        assert signs.dtype == np.float64 and signs.shape == np.empty(size).shape
        assert np.array_equal(signs, packed_signs(b, size))
        assert a.random() == b.random()

    def test_stream_continued_across_blocks(self):
        # blocks of whole words (96 values each) and a last partial one draw
        # the values of one call
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        blocks = [random_signs(a, (rows, 6)) for rows in (16, 16, 3)]
        assert np.array_equal(np.vstack(blocks), random_signs(b, (35, 6)))
        assert a.integers(0, 2**62) == b.integers(0, 2**62)

    def test_law_matches_the_int32_sampler(self):
        # the share of +1 and of equal neighbours (lag 1, across word
        # boundaries too) are Binomial(m, 1/2) proportions under fair iid
        # signs: each sampler within 5 standard errors of 1/2, and the two
        # within 5 standard errors of each other
        m = 2**20
        packed = random_signs(np.random.default_rng(5), m)
        plain = int32_signs(np.random.default_rng(6), m)
        se = 0.5 / math.sqrt(m)
        for stat in (lambda x: np.mean(x > 0), lambda x: np.mean(x[1:] == x[:-1])):
            p, q = stat(packed), stat(plain)
            assert abs(p - 0.5) <= 5.0 * se and abs(q - 0.5) <= 5.0 * se
            assert abs(p - q) <= 5.0 * math.sqrt(2.0) * se
        # every bit position of a word is fair
        positions = (packed.reshape(-1, 32) > 0).mean(axis=0)
        assert np.all(np.abs(positions - 0.5) <= 5.0 * 0.5 / math.sqrt(m // 32))


class TestDesignSampling:
    def test_rademacher_entries(self):
        X = sample_design(DesignSpec("rademacher", 5), 200, seed=1)
        assert set(np.unique(X)) == {-1.0, 1.0}

    def test_gaussian_variance(self):
        X = sample_design(DesignSpec("gaussian", 1), 100000, seed=2)
        assert np.var(X) == pytest.approx(1.0, rel=0.03)

    def test_student_t_fourth_moment_analytic(self):
        # standardized t(p): E zeta^4 = ((p-2)/p)^2 * 3 p^2 / ((p-2)(p-4)),
        # finite only for p > 4, so the check runs at p = 10 where the
        # analytic value is 3*(10-2)/(10-4) = 4
        p = 10.0
        expected = 3.0 * (p - 2.0) / (p - 4.0)
        X = sample_design(DesignSpec("student_t", 1, p=p), 1000000, seed=3)
        assert float(np.mean(X**4)) == pytest.approx(expected, rel=0.10)

    def test_student_t_p4_unit_variance(self):
        X = sample_design(DesignSpec("student_t", 1, p=4.0), 1000000, seed=4)
        assert float(np.mean(X**2)) == pytest.approx(1.0, rel=0.03)

    def test_invalid_moment_parameter(self):
        with pytest.raises(ValueError):
            DesignSpec("student_t", 4, p=2.0)
        with pytest.raises(ValueError):
            DesignSpec("symmetrized_pareto", 4, p=1.5)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["student_t", "symmetrized_pareto"])
    def test_nonfinite_moment_parameter(self, kind, p):
        with pytest.raises(ValueError, match="finite moment parameter p > 2"):
            DesignSpec(kind, 4, p=p)

    @pytest.mark.parametrize("spec", ALL_DESIGNS, ids=lambda s: s.kind)
    def test_isotropy(self, spec):
        rng = np.random.default_rng(11)
        t = rng.standard_normal(spec.n)
        X = sample_design(spec, 1000000, seed=5)
        emp = float(np.mean((X @ t) ** 2))
        assert emp == pytest.approx(float(t @ t), rel=0.03)

    def test_determinism(self):
        spec = DesignSpec("gaussian", 3)
        a = sample_design(spec, 50, seed=9, trial=4)
        b = sample_design(spec, 50, seed=9, trial=4)
        assert np.array_equal(a, b)
        c = sample_design(spec, 50, seed=9, trial=5)
        assert not np.array_equal(a, c)


class TestResponses:
    def test_zero_noise_exact(self):
        cls = ClassSpec(n=3, R=1.0, t0=np.array([0.5, -0.25, 0.0]))
        X = sample_design(DesignSpec("gaussian", 3), 100, seed=6)
        Y = sample_response(cls, NoiseSpec("zero"), X, seed=6)
        assert np.array_equal(Y, X @ cls.t0)

    def test_scaled_sign_magnitude(self):
        cls = ClassSpec(n=2, R=1.0, t0=np.zeros(2))
        X = sample_design(DesignSpec("rademacher", 2), 500, seed=7)
        Y = sample_response(cls, NoiseSpec("scaled_sign", sigma=0.7), X, seed=7)
        assert np.allclose(np.abs(Y), 0.7)

    def test_variance_additivity(self):
        cls = ClassSpec(n=2, R=1.0, t0=np.array([1.0, 0.0]))
        X = sample_design(DesignSpec("rademacher", 2), 100000, seed=8)
        Y = sample_response(cls, NoiseSpec("gaussian", sigma=1.0), X, seed=8)
        assert float(np.var(Y)) == pytest.approx(2.0, rel=0.03)

    def test_dimension_mismatch(self):
        cls = ClassSpec(n=3, R=1.0, t0=np.zeros(3))
        X = sample_design(DesignSpec("gaussian", 2), 10, seed=1)
        with pytest.raises(ValueError):
            sample_response(cls, NoiseSpec("zero"), X, seed=1)

    def test_noise_independent_of_design(self):
        cls = ClassSpec(n=2, R=1.0, t0=np.zeros(2))
        spec = DesignSpec("gaussian", 2)
        X = sample_design(spec, 1000000, seed=12)
        Y = sample_response(cls, NoiseSpec("gaussian", sigma=1.0), X, seed=12)
        u = np.array([0.6, -0.8])
        corr = np.corrcoef(Y, X @ u)[0, 1]
        assert abs(corr) < 0.01


class TestL21Norm:
    def test_zero(self):
        assert l21_norm(NoiseSpec("zero")) == 0.0

    def test_scaled_sign_exact(self):
        assert l21_norm(NoiseSpec("scaled_sign", sigma=0.37)) == 0.37

    def test_bounded_symmetric_exact(self):
        assert l21_norm(NoiseSpec("bounded_symmetric", sigma=0.5, kappa=2.0)) == 0.5

    def test_gaussian_quadrature_oracle(self):
        # oracle: high-resolution Simpson rule on [0, 12] (the tail beyond is
        # below 1e-16)
        grid = np.linspace(0.0, 12.0, 1000001)
        vals = np.sqrt(2.0 * stats.norm.sf(grid))
        expected = float(integrate.simpson(vals, x=grid))
        assert l21_norm(NoiseSpec("gaussian", sigma=1.0)) == pytest.approx(expected, rel=1e-6)
        assert l21_norm(NoiseSpec("gaussian", sigma=2.5)) == pytest.approx(2.5 * expected, rel=1e-6)

    def test_heavy_tailed_analytic(self):
        # survival 1 on [0, a), (a/t)^p beyond, a = sigma*sqrt((p-2)/p):
        # integral = a * p/(p-2) = sigma * sqrt(p/(p-2))
        for p, sigma in ((4.0, 1.0), (3.0, 0.5), (6.0, 2.0)):
            expected = sigma * math.sqrt(p / (p - 2.0))
            assert l21_norm(NoiseSpec("heavy_tailed", sigma=sigma, p=p)) == pytest.approx(expected, rel=1e-6)

    def test_divergent_tail_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec("heavy_tailed", sigma=1.0, p=2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "kind, field, message",
        [("gaussian", "sigma", "sigma must be finite"), ("heavy_tailed", "p", "finite p > 2"), ("bounded_symmetric", "kappa", "finite kappa >= 1")],
    )
    def test_nonfinite_parameter_rejected(self, kind, field, message, value):
        params = {"sigma": 1.0, "p": 3.0, "kappa": 2.0, field: value}
        with pytest.raises(ValueError, match=message):
            NoiseSpec(kind, **params)


class TestPsi2:
    def test_all_zero(self):
        assert psi2_norm(np.zeros(2000)) == 0.0

    def test_constant_magnitude_closed_form(self):
        x = np.ones(5000)
        x[::2] = -1.0
        assert psi2_norm(x) == pytest.approx(1.0 / math.sqrt(math.log(2.0)), rel=1e-8)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            psi2_norm(np.ones(999))

    def test_gaussian_analytic_expectation_oracle(self):
        # E exp(g^2/c^2) = (1 - 2/c^2)^{-1/2} for c^2 > 2; bisecting it to 2
        # gives the deterministic target
        lo, hi = math.sqrt(2.0) + 1e-9, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (1.0 - 2.0 / mid**2) ** -0.5 > 2.0:
                lo = mid
            else:
                hi = mid
        target = 0.5 * (lo + hi)
        assert target == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-9)
        rng = np.random.default_rng(13)
        est = psi2_norm(rng.standard_normal(1000000))
        assert est == pytest.approx(target, rel=0.05)


class TestCounterexample:
    def test_second_moment_formula(self):
        spec = CounterexampleSpec(100)
        assert spec.second_moment == pytest.approx(1.0399, abs=1e-12)

    def test_l4_l2_ratio_below_3(self):
        for N in (100, 1000, 10000):
            spec = CounterexampleSpec(N)
            assert spec.l4_l2_ratio() <= 3.0
            Z = sample_counterexample(spec, max(2, 10**6 // N), seed=14)
            emp = float(np.mean(Z**4)) ** 0.25 / math.sqrt(float(np.mean(Z**2)))
            assert emp <= 3.0

    def test_empirical_second_moment(self):
        spec = CounterexampleSpec(100)
        Z = sample_counterexample(spec, 10000, seed=15)  # 1e6 draws
        assert float(np.mean(Z**2)) == pytest.approx(spec.second_moment, rel=0.01)

    def test_spike_frequency(self):
        spec = CounterexampleSpec(100)
        Z = sample_counterexample(spec, 10000, seed=16)
        frac = float(np.mean(np.abs(Z) == spec.spike))
        p = 1.0 / spec.N**2
        sd = math.sqrt(p * (1 - p) / Z.size)
        assert abs(frac - p) <= 3.0 * sd

    def test_small_N_rejected(self):
        with pytest.raises(ValueError):
            CounterexampleSpec(99)


class TestSpikeCounts:
    """The law of a trial's spike count k, which is all `run_counterexample`
    reads of a trial: k ~ Binomial(N, 1/N^2), and for N >= 100 a trial
    deviates exactly when k >= 1."""

    @staticmethod
    def matrix_counts(spec, trials, seed):
        Z = sample_counterexample(spec, trials, seed=seed)
        return (np.abs(Z) > 1.0).sum(axis=1)

    def test_spikes_present(self):
        # about one trial in N carries a spike
        spec = CounterexampleSpec(100)
        k = self.matrix_counts(spec, 5000, 19)
        assert 10 <= np.count_nonzero(k) <= 100

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_counterexample(CounterexampleSpec(100), 0, seed=1)

    @pytest.mark.parametrize("N", [100, 1000])
    def test_deviation_probability_is_the_law(self, N):
        trials = 200000
        p = 1.0 - (1.0 - 1.0 / N**2) ** N
        dev_p = run_counterexample(N, trials, seed=23).summary["deviation_probability"]
        assert abs(dev_p - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials)

    @pytest.mark.parametrize("N", [100, 1000])
    def test_run_counts_match_matrix_counts(self, N):
        # the run's P(k >= 1) against the spike counts of the direct matrix,
        # a two-sample test of the two proportions; the matrix is drawn as
        # 50 independent 1000-trial matrices to bound its memory
        trials = 50000
        counts = np.concatenate([self.matrix_counts(CounterexampleSpec(N), 1000, seed) for seed in range(100, 150)])
        spiked = np.count_nonzero(counts)
        dev = round(run_counterexample(N, trials, seed=25).summary["deviation_probability"] * trials)
        pooled = (spiked + dev) / (2 * trials)
        se = math.sqrt(2.0 * pooled * (1.0 - pooled) / trials)
        assert abs(spiked - dev) / trials <= 4.0 * se


def test_make_sample_shapes():
    cls = ClassSpec(n=4, R=1.0, t0=np.zeros(4))
    sample = make_sample(cls, DesignSpec("gaussian", 4), NoiseSpec("gaussian", sigma=0.5), 32, seed=18)
    assert sample.N == 32 and sample.n == 4


def _record_blocks(monkeypatch):
    """Patch DesignSpec.sample_coords to keep every block it returns."""
    blocks = []
    draw = DesignSpec.sample_coords

    def recording(self, rng, size):
        out = draw(self, rng, size)
        blocks.append(out)
        return out

    monkeypatch.setattr(DesignSpec, "sample_coords", recording)
    return blocks


# each design with the moments it streams: a gaussian design's
# sample_moments come from their law (see TestGaussianLaw), so its case
# checks the streamed reference that law is tested against
STREAMED_DESIGNS = [
    (DesignSpec("rademacher", 7), sample_moments),
    (DesignSpec("bounded_uniform", 7), sample_moments),
    (DesignSpec("gaussian", 7), streamed_moments),
    (DesignSpec("student_t", 7, p=4.0), sample_moments),
]
STREAMED_IDS = [design.kind for design, _ in STREAMED_DESIGNS]


class TestSampleMoments:
    # 1000 coordinates per block is 142 rows of n = 7, so N = 1000 takes
    # seven whole blocks and a partial one of 6 rows
    N = 1000

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(distributions, "_MOMENT_BLOCK", 1000)

    @staticmethod
    def cls(n):
        return ClassSpec(n=n, R=1.0, t0=make_t0("spike", 0.5, n, 1.0))

    @pytest.mark.parametrize("design, moments", STREAMED_DESIGNS, ids=STREAMED_IDS)
    def test_blocks_continue_one_draw(self, design, moments, small_blocks, monkeypatch):
        # a rademacher block holds whole words of signs, 128 rows of n = 7
        # (a multiple of 32 / gcd(7, 32) = 32), so N = 1000 takes seven and a
        # partial one of 104 rows
        blocks = _record_blocks(monkeypatch)
        moments(self.cls(7), design, NoiseSpec("gaussian", sigma=0.5), self.N, seed=23, trial=4)
        assert [len(b) for b in blocks] == ([128] * 7 + [104] if design.kind == "rademacher" else [142] * 7 + [6])
        monkeypatch.undo()
        one_call = design.sample_coords(substream(23, 4, DESIGN_TAG), (self.N, 7))
        assert np.array_equal(np.vstack(blocks), one_call)

    def test_rademacher_blocks_continue_one_draw_at_the_module_budget(self, monkeypatch):
        # n = 700 at the module's budget: 187 rows round down to 184, a
        # multiple of 32 / gcd(700, 32) = 8, so N = 2800 takes fifteen blocks
        # and a partial one of 40 rows
        n, N = 700, 2800
        design = DesignSpec("rademacher", n)
        blocks = _record_blocks(monkeypatch)
        sample_moments(self.cls(n), design, NoiseSpec("gaussian", sigma=0.5), N, seed=23, trial=4)
        assert [len(b) for b in blocks] == [184] * 15 + [40]
        monkeypatch.undo()
        assert np.array_equal(np.vstack(blocks), design.sample_coords(substream(23, 4, DESIGN_TAG), (N, n)))

    @pytest.mark.parametrize("design, moments", STREAMED_DESIGNS, ids=STREAMED_IDS)
    def test_streamed_moments_match_the_sample(self, design, moments, small_blocks):
        cls = self.cls(7)
        noise = NoiseSpec("gaussian", sigma=0.5)
        sample = make_sample(cls, design, noise, self.N, seed=29, trial=2)
        X, Y = sample.design, sample.responses
        m = moments(cls, design, noise, self.N, seed=29, trial=2)
        assert m.N == self.N and m.n == 7
        G, b, c = X.T @ X / self.N, X.T @ Y / self.N, float(Y @ Y) / self.N
        if design.kind == "rademacher":
            # integer entries: every block sum is exact
            assert np.array_equal(m.G, G)
        else:
            assert np.abs(m.G - G).max() <= 1e-13 * np.abs(G).max()
        assert np.abs(m.b - b).max() <= 1e-13 * np.abs(b).max()
        assert m.c == pytest.approx(c, rel=1e-13, abs=0.0)

    def test_one_block_equals_the_sample_bit_for_bit(self):
        # the most rows of n = 700 that fit one block at the module's budget
        n = 700
        N = distributions._MOMENT_BLOCK // n
        design, noise, cls = DesignSpec("bounded_uniform", n), NoiseSpec("gaussian", sigma=0.5), self.cls(n)
        m = sample_moments(cls, design, noise, N, seed=31)
        sample = make_sample(cls, design, noise, N, seed=31)
        ref = sample.moments()
        assert np.array_equal(m.G, ref.G) and np.array_equal(m.b, ref.b) and m.c == ref.c
        # both form the Gram into a buffer through np.matmul(..., out=): the
        # plain product's bytes
        assert np.array_equal(ref.G, sample.design.T @ sample.design / N)

    def test_second_call_leaves_the_first_result(self):
        design, noise, cls = DesignSpec("rademacher", 40), NoiseSpec("gaussian", sigma=0.5), self.cls(40)
        first = sample_moments(cls, design, noise, 300, seed=33)
        G = first.G.copy()
        second = sample_moments(cls, design, noise, 300, seed=33, trial=1)
        assert second.G is not first.G and not np.shares_memory(second.G, first.G)
        assert np.array_equal(first.G, G) and not np.array_equal(second.G, G)

    def test_memory_of_one_trial(self):
        # the float64 G, one 736-row float32 group and one 184-row block
        # (6.7 MiB at n = 700), or the G and its float32 half's copy at the
        # end: never the whole 15 MiB design
        n = 700
        design, noise, cls = DesignSpec("rademacher", n), NoiseSpec("gaussian", sigma=0.5), self.cls(n)
        tracemalloc.start()
        try:
            sample_moments(cls, design, noise, 2800, seed=43)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20

    def test_rademacher_exact_across_the_module_budget(self, monkeypatch):
        # one whole block at the module's own budget and a partial one
        rows = distributions._MOMENT_BLOCK // 64
        N = rows + 808
        blocks = _record_blocks(monkeypatch)
        design, noise, cls = DesignSpec("rademacher", 64), NoiseSpec("gaussian", sigma=0.5), self.cls(64)
        m = sample_moments(cls, design, noise, N, seed=37)
        assert [len(b) for b in blocks] == [rows, 808]
        monkeypatch.undo()
        X = make_sample(cls, design, noise, N, seed=37).design
        assert np.array_equal(m.G, X.T @ X / N)

    def test_rademacher_single_precision_gram_is_exact(self, monkeypatch):
        # n = 700: 184-row blocks in 736-row float32 groups (the most whole
        # blocks under 2 MiB); N = 1573 makes two whole groups and a partial
        # one of 101 rows. The float32 Gram equals a float64 accumulation of
        # the same blocks bit for bit
        n = 700
        N = 2 * 736 + 101
        blocks = _record_blocks(monkeypatch)
        design, noise, cls = DesignSpec("rademacher", n), NoiseSpec("gaussian", sigma=0.5), self.cls(n)
        m = sample_moments(cls, design, noise, N, seed=41, trial=3)
        assert [len(X) for X in blocks] == [184] * 8 + [101]
        assert 736 * n * 4 < distributions._GROUP_BYTES <= 920 * n * 4
        w = noise.sample(substream(41, 3, NOISE_TAG), N)
        bounds = np.cumsum([0] + [len(X) for X in blocks])
        ref = distributions._accumulate_moments([(X, X @ cls.t0 + w[lo:hi]) for X, lo, hi in zip(blocks, bounds, bounds[1:])], N, np.empty((n, n)))
        assert np.array_equal(m.G, ref.G) and np.array_equal(m.b, ref.b) and m.c == ref.c

    def test_symmetrized_pareto_blocks_keep_the_law(self, small_blocks, monkeypatch):
        # a call draws all magnitudes before all signs, so blocks are not
        # the rows of one call; test their law instead
        p = 4.0
        design = DesignSpec("symmetrized_pareto", 7, p=p)
        blocks = _record_blocks(monkeypatch)
        m = sample_moments(self.cls(7), design, NoiseSpec("zero"), 20000, seed=41)
        X = np.vstack(blocks)
        assert X.shape == (20000, 7)
        assert np.abs(m.G - X.T @ X / 20000).max() <= 1e-13 * np.abs(m.G).max()
        # |X| sqrt(p/(p-2)) is Pareto(p) on [1, inf), and the sign is fair
        mags = np.abs(X).ravel() * math.sqrt(p / (p - 2.0))
        assert stats.kstest(mags, stats.pareto(b=p).cdf).pvalue > 1e-3
        positives = int(np.count_nonzero(X > 0))
        assert stats.binomtest(positives, X.size).pvalue > 1e-3
        # a sign must not depend on its magnitude
        big = np.abs(X) > np.median(np.abs(X))
        assert stats.binomtest(int(np.count_nonzero(X[big] > 0)), int(big.sum())).pvalue > 1e-3

    def test_risk_from_moments(self, small_blocks):
        for kind, seed in (("bounded_uniform", 43), ("rademacher", 44), ("student_t", 45)):
            design = DesignSpec(kind, 7, p=4.0 if kind == "student_t" else None)
            cls, noise = self.cls(7), NoiseSpec("gaussian", sigma=0.5)
            sample = make_sample(cls, design, noise, self.N, seed=seed)
            result = solve_erm(sample_moments(cls, design, noise, self.N, seed=seed), cls, tol=1e-10)
            direct = float(np.mean((sample.design @ result.t_hat - sample.responses) ** 2))
            assert result.empirical_risk >= 0.0
            assert result.empirical_risk == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_non_finite_draws_rejected(self, small_blocks, monkeypatch):
        cls = self.cls(7)
        # a NaN coordinate in the third block
        draw = DesignSpec.sample_coords
        calls = []

        def poisoned(self, rng, size):
            out = draw(self, rng, size)
            calls.append(1)
            if len(calls) == 3:
                out[5, 2] = np.nan
            return out

        monkeypatch.setattr(DesignSpec, "sample_coords", poisoned)
        with pytest.raises(ValueError, match="non-finite"):
            sample_moments(cls, DesignSpec("bounded_uniform", 7), NoiseSpec("zero"), self.N, seed=47)
        monkeypatch.undo()
        # noise that overflows to inf
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            sample_moments(cls, DesignSpec("bounded_uniform", 7), NoiseSpec("heavy_tailed", sigma=1e308, p=3.0), self.N, seed=47)

    def test_shapes_checked(self):
        cls = self.cls(7)
        with pytest.raises(ValueError):
            sample_moments(cls, DesignSpec("gaussian", 6), NoiseSpec("zero"), 10, seed=1)
        with pytest.raises(ValueError):
            sample_moments(cls, DesignSpec("gaussian", 7), NoiseSpec("zero"), 0, seed=1)
        for G, b, N in ((np.eye(3)[:2], np.zeros(3), 4), (np.eye(3), np.zeros(2), 4), (np.zeros(3), np.zeros(3), 4), (np.eye(3), np.zeros(3), 0)):
            with pytest.raises(ValueError):
                Moments(G, b, 1.0, N)
        with pytest.raises(ValueError, match="non-finite"):
            Moments(np.eye(2), np.array([0.0, np.inf]), 1.0, 4)


class _CountingGenerator:
    """A Generator that adds the size of each draw to `counts[key]`."""

    def __init__(self, rng, counts, key):
        self._rng, self._counts, self._key = rng, counts, key

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self._counts[self._key] = self._counts.get(self._key, 0) + np.size(out)
            return out

        return draw


class TestGaussianLaw:
    """sample_moments of a gaussian design, drawn from the law of
    (X^T X, X^T w), against the moments of whole streamed samples."""

    @staticmethod
    def cls(n):
        return ClassSpec(n=n, R=1.0, t0=make_t0("spike", 0.5, n, 1.0))

    @staticmethod
    def law(cls, noise, N, seed, trials):
        return [sample_moments(cls, DesignSpec("gaussian", cls.n), noise, N, seed, trial=j) for j in range(trials)]

    @pytest.mark.parametrize("noise", [NoiseSpec("gaussian", sigma=0.5), NoiseSpec("heavy_tailed", sigma=0.5, p=3.0)], ids=["gaussian", "heavy_tailed"])
    def test_erm_error_and_risk_match_streamed_samples(self, noise):
        # two-sample KS tests of what the ERM stage reads, 600 trials a side
        n, N, trials = 32, 512, 600
        cls = self.cls(n)

        def erm_stats(moments):
            results = solve_erms(moments, cls, tol=1e-8)
            return np.array([np.linalg.norm(r.t_hat - cls.t0) for r in results]), np.array([r.empirical_risk for r in results])

        law = erm_stats(self.law(cls, noise, N, 61, trials))
        ref = erm_stats([streamed_moments(cls, DesignSpec("gaussian", n), noise, N, 62, trial=j) for j in range(trials)])
        for name, a, b in zip(("error", "risk"), law, ref):
            assert stats.ks_2samp(a, b).pvalue > 1e-3, name

    @pytest.mark.parametrize("N", [20, 3], ids=["bartlett", "fewer_rows"])
    def test_monte_carlo_means(self, N):
        # E G = I, E b = t0 and E c = ||t0||^2 + sigma^2, each to 5 standard
        # errors of a sample of N gaussian rows (n = 5: N = 3 takes W = Z Z^T)
        n, sigma, trials = 5, 0.5, 4000
        t0 = np.array([0.3, -0.2, 0.0, 0.1, 0.0])
        cls = ClassSpec(n=n, R=1.0, t0=t0)
        moments = self.law(cls, NoiseSpec("gaussian", sigma=sigma), N, 59, trials)
        s2 = float(t0 @ t0) + sigma**2
        checks = (
            (np.mean([m.G for m in moments], axis=0), np.eye(n), np.sqrt((1.0 + np.eye(n)) / N)),
            (np.mean([m.b for m in moments], axis=0), t0, np.sqrt((s2 + t0**2) / N)),
            (np.mean([m.c for m in moments]), s2, math.sqrt(2.0 / N) * s2),
        )
        for mean, truth, sd in checks:
            assert np.all(np.abs(mean - truth) <= 5.0 * sd / math.sqrt(trials))

    def test_risk_at_t0_is_the_noise_mean_square(self):
        # t0^T G t0 - 2 b^T t0 + c = ||w||^2 / N, with ||w||^2 = sigma^2 chi^2_N
        # drawn once from the trial's noise stream
        n, N, sigma = 6, 40, 0.5
        cls = self.cls(n)
        for j, m in enumerate(self.law(cls, NoiseSpec("gaussian", sigma=sigma), N, 71, 50)):
            risk = float(cls.t0 @ m.G @ cls.t0 - 2.0 * m.b @ cls.t0 + m.c)
            w2 = sigma**2 * substream(71, j, NOISE_TAG).chisquare(N)
            assert risk == pytest.approx(w2 / N, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("N", [1, 3, 8, 9, 40])
    def test_moments_are_a_gram_of_N_rows(self, N):
        # n = 8: N <= 8 takes W = Z Z^T, N >= 9 Bartlett's L L^T; the Gram of
        # N rows (X_i, Y_i) is PSD of rank min(N, n + 1)
        n = 8
        (m,) = self.law(self.cls(n), NoiseSpec("gaussian", sigma=0.5), N, 67, 1)
        gram = N * np.block([[m.G, m.b[:, None]], [m.b[None, :], np.array([[m.c]])]])
        assert np.linalg.eigvalsh(gram).min() >= -1e-12 * N
        assert np.linalg.matrix_rank(gram) == min(N, n + 1)
        assert np.linalg.matrix_rank(m.G) == min(N, n)

    @pytest.mark.parametrize("noise", [NoiseSpec("heavy_tailed", sigma=1e308, p=3.0), NoiseSpec("gaussian", sigma=1e308)], ids=["heavy_tailed", "gaussian"])
    def test_non_finite_noise_rejected(self, noise):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            sample_moments(self.cls(7), DesignSpec("gaussian", 7), noise, 1000, seed=47)

    def test_draws_do_not_grow_with_N(self, monkeypatch):
        # x1, L's n(n - 1)/2 entries below the diagonal and its n chi-square
        # values; gaussian noise takes one chi-square value
        n, N = 32, 2**19
        counts = {}
        real = distributions.substream
        monkeypatch.setattr(distributions, "substream", lambda seed, *path: _CountingGenerator(real(seed, *path), counts, path))
        m = sample_moments(self.cls(n), DesignSpec("gaussian", n), NoiseSpec("gaussian", sigma=0.5), N, seed=53, trial=7)
        assert m.N == N
        assert counts == {(7, DESIGN_TAG): n * (n + 1) // 2 + n, (7, NOISE_TAG): 1}
