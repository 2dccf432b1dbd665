import math

import numpy as np
import pytest

from ermbounds.geometry import top_d_l2
from ermbounds.rates import RateInputs, rho_N, v1_v2
from oracles import lemma_dsum_bound


@pytest.mark.parametrize("field", ["R", "sigma", "c1", "c2", "c3"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_rate_inputs_must_be_finite(field, value):
    # a NaN c1 sent rho_N down its second branch; a NaN R gave NaN rates
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        RateInputs(**{"N": 100, "n": 100, "R": 1.0, "sigma": 0.5, field: value})


class TestRhoN:
    def test_second_branch(self):
        assert rho_N(RateInputs(N=10**6, n=10, R=1.0, sigma=0.0)) == pytest.approx(1e-5, rel=1e-15)

    def test_R_scaling(self):
        for N, n in ((100, 100), (10**6, 10)):
            a = rho_N(RateInputs(N=N, n=n, R=1.0, sigma=0.0))
            b = rho_N(RateInputs(N=N, n=n, R=2.0, sigma=0.0))
            assert b == pytest.approx(4.0 * a, rel=1e-12)

    def test_first_branch_value(self):
        # (R^2/sqrt(N)) sqrt(log(2 c1 n / sqrt(N))) at N=n=100, R=c1=1:
        # 0.1 * sqrt(log 20) = 0.17308...
        val = rho_N(RateInputs(N=100, n=100, R=1.0, sigma=0.5))
        assert val == pytest.approx(0.1 * math.sqrt(math.log(20.0)), rel=1e-12)
        assert val == pytest.approx(0.17308183826022855, rel=1e-12)

    def test_log_clamp_warns(self):
        # reachable only with c1 < 1: first branch with 2 c1 n / sqrt(N) <= 1
        with pytest.warns(RuntimeWarning):
            val = rho_N(RateInputs(N=500, n=100, R=1.0, sigma=0.0, c1=0.1))
        assert val == 0.0

    def test_branch_continuity_factor(self):
        # the two branch expressions at the threshold differ by less than 4x
        # for default constants (they are only matched up to constants)
        for n in (10, 100, 1000):
            N = n * n
            first = rho_N(RateInputs(N=N, n=n, R=1.0, sigma=0.0))
            second = 1.0 * n / N
            assert 0.25 <= first / second <= 4.0


class TestV1V2:
    def test_sigma_zero_collapse(self):
        # noise-free, N > n: both rates vanish (exact recovery predicted),
        # while the noise-insensitive rate stays bounded away from zero
        v1, v2, expo = v1_v2(RateInputs(N=128, n=64, R=1.0, sigma=0.0))
        assert v1 == 0.0 and v2 == 0.0 and expo == 0.0
        assert rho_N(RateInputs(N=128, n=64, R=1.0, sigma=0.0)) > 0.1
        # below N = c1 n the intrinsic rate is alive
        v1_small, _, _ = v1_v2(RateInputs(N=32, n=64, R=1.0, sigma=0.0))
        assert v1_small == pytest.approx(math.log(4.0) / 32.0, rel=1e-12)

    def test_both_second_branches(self):
        inputs = RateInputs(N=10**4, n=100, R=1.0, sigma=0.5)
        v1, v2, _ = v1_v2(inputs)
        assert v1 == 0.0
        assert v2 == pytest.approx(2.5e-3, rel=1e-15)

    def test_v1_first_branch(self):
        v1, _, _ = v1_v2(RateInputs(N=50, n=100, R=2.0, sigma=0.0))
        assert v1 == pytest.approx((4.0 / 50.0) * math.log(2.0 * 100.0 / 50.0), rel=1e-12)

    def test_exponent_form(self):
        inputs = RateInputs(N=10**4, n=100, R=1.0, sigma=0.5)
        _, v2, expo = v1_v2(inputs)
        assert expo == pytest.approx(10**4 * v2 * min(1.0 / 0.25, 1.0), rel=1e-12)

    def test_v2_monotone_in_sigma_within_branch(self):
        vals = [v1_v2(RateInputs(N=10**5, n=50, R=1.0, sigma=s))[1] for s in (0.1, 0.2, 0.4, 0.8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_v2_decreasing_in_N_within_branch(self):
        vals = [v1_v2(RateInputs(N=N, n=50, R=1.0, sigma=0.5))[1] for N in (10**4, 10**5, 10**6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_persistence_limit(self):
        # max(v1, v2) -> 0 as N grows with everything else fixed
        vals = [max(v1_v2(RateInputs(N=N, n=64, R=1.0, sigma=0.5))[:2]) for N in (10**2, 10**4, 10**6, 10**8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4


class TestDsumBound:
    def test_full_vector(self):
        assert lemma_dsum_bound(16, 16, 2.0) == pytest.approx(2.0 * 4.0, rel=1e-15)

    def test_kappa_linear(self):
        assert lemma_dsum_bound(100, 10, 3.0) == pytest.approx(3.0 * lemma_dsum_bound(100, 10, 1.0), rel=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lemma_dsum_bound(10, 0, 1.0)
        with pytest.raises(ValueError):
            lemma_dsum_bound(10, 11, 1.0)

    def test_gaussian_monte_carlo(self):
        # mean top-d norm of a standard normal vector stays below the bound
        # with C = 3
        rng = np.random.default_rng(30)
        n, d, trials = 1000, 10, 1000
        vals = [top_d_l2(rng.standard_normal(n), d) for _ in range(trials)]
        assert float(np.mean(vals)) <= lemma_dsum_bound(n, d, 1.0, C=3.0)
