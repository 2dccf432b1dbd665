import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ermbounds import rng, smallball
from ermbounds.distributions import DesignSpec, sample_design
from ermbounds.erm import ClassSpec
from ermbounds.fixed_points import beta_star
from ermbounds.reports import record
from ermbounds.smallball import (
    COUNT_BLOCK_ROWS,
    _abs_rows,
    _column_means,
    _count_at_least,
    _probe_draws,
    _row_blocks,
    choose_tau,
    estimate_Q,
    l2_l1_ratio,
    moment_ratio_p2,
    paley_zygmund_Q,
    probe_directions,
    verify_empirical_smallball,
)
from oracles import count_at_least_reference, direction_probability, l2_l1_ratio_whole, moment_ratio_p2_whole, probe_directions_reference, probe_rows

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


class TestEstimateQ:
    def test_zero_threshold_is_one(self):
        (est,) = estimate_Q(DesignSpec("gaussian", 6), [0.0], 500, 10000, seed=1)
        assert est.q_hat == 1.0 and est.stderr == 0.0

    def test_thresholds_echoed_as_floats(self):
        # each threshold is echoed as the float it is counted against, an
        # integer one included
        ests = estimate_Q(DesignSpec("gaussian", 4), [0, 1, 0.5], directions=40, draws=1000, seed=6)
        assert [(type(est.u), est.u) for est in ests] == [(float, 0.0), (float, 1.0), (float, 0.5)]

    @pytest.mark.parametrize("n", [1, 6, 16, 70])
    def test_zero_threshold_counts_probed_rows(self, n):
        # u = 0 reports the probed-row count the u > 0 path reports, with the
        # 2-sparse pairs capped at MAX_PAIRS once n(n-1)/2 exceeds it (n = 70)
        design = DesignSpec("gaussian", n)
        zero, positive = estimate_Q(design, np.array([0.0, 0.5]), directions=40, draws=1000, seed=5)
        rows = probe_directions(design, 40, seed=5).shape[0]
        assert zero.directions == positive.directions == rows == probe_rows(n, 40)
        assert estimate_Q(design, [0.0], directions=40, draws=1000, seed=5)[0].directions == rows

    @pytest.mark.parametrize("n", [8, 65, 100])
    def test_probe_directions_match_pair_list_reference(self, n):
        # n = 8 probes all 28 pairs; n = 65 and 100 sample MAX_PAIRS of theirs
        design = DesignSpec("gaussian", n)
        T = probe_directions(design, 30, seed=7)
        T_ref = probe_directions_reference(design, 30, seed=7)
        assert T.shape == T_ref.shape == (probe_rows(n, 30), n)
        assert T.tobytes() == T_ref.tobytes()

    def test_draw_floor(self):
        with pytest.raises(ValueError):
            estimate_Q(DesignSpec("gaussian", 4), [0.5], 500, draws=500, seed=0)

    def test_rademacher_basis_direction(self):
        e1 = np.zeros(5)
        e1[0] = 1.0
        q = direction_probability(DesignSpec("rademacher", 5), e1, 0.5, draws=20000, seed=2)
        assert q == 1.0

    def test_direction_scale_invariance(self):
        e1 = np.zeros(5)
        e1[0] = 1.0
        design = DesignSpec("gaussian", 5)
        a = direction_probability(design, e1, 0.5, draws=20000, seed=3)
        b = direction_probability(design, 5.0 * e1, 0.5, draws=20000, seed=3)
        assert a == b

    def test_gaussian_normal_cdf_oracle(self):
        # every direction of an isotropic gaussian has the same law, so the
        # two-pass estimate is an unbiased binomial proportion of 2(1-Phi(0.5))
        expected = 2.0 * stats.norm.sf(0.5)
        (est,) = estimate_Q(DesignSpec("gaussian", 8), [0.5], directions=300, draws=20000, seed=4)
        assert abs(est.q_hat - expected) <= 3.0 * est.stderr

    def test_monotone_in_u(self):
        design = DesignSpec("rademacher", 8)
        grid = [0.0, 0.3, 0.6, 1.01, 1.5]
        ests = [estimate_Q(design, [u], directions=200, draws=20000, seed=5)[0] for u in grid]
        for a, b in zip(ests, ests[1:]):
            assert b.q_hat <= a.q_hat + 3.0 * max(a.stderr, b.stderr)

    def test_two_sparse_flags_rademacher(self):
        # for random signs the 2-sparse directions are strict small-ball
        # minimizers, which the estimate is expected to flag
        (est,) = estimate_Q(DesignSpec("rademacher", 8), [0.5], directions=200, draws=20000, seed=6)
        assert est.q_hat == pytest.approx(0.5, abs=0.02)
        assert "structured_below_random" in est.flags


class TestEstimateQGrid:
    # zero, repeated and unsorted thresholds, all sharing one set of draws
    GRID = [0.7, 0.0, 1.3, 0.3, 0.7, 2.0, 0.0, 0.3]
    # one scalar call per threshold at commit 5f5db24, before thresholds
    # shared their draws; rademacher again when random_signs came to draw 32
    # signs per word
    RECORDED_Q = {
        "gaussian": [0.4935, 1.0, 0.187, 0.7735, 0.4935, 0.0465, 1.0, 0.7735],
        "rademacher": [0.4575, 1.0, 0.0, 0.512, 0.4575, 0.0, 1.0, 0.512],
    }

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
    def test_array_equals_scalar_calls(self, kind):
        design = DesignSpec(kind, 6)
        grid_ests = estimate_Q(design, np.array(self.GRID), directions=60, draws=2000, seed=24)
        assert isinstance(grid_ests, tuple) and len(grid_ests) == len(self.GRID)
        assert [est.q_hat for est in grid_ests] == self.RECORDED_Q[kind]
        for u, got in zip(self.GRID, grid_ests):
            (want,) = estimate_Q(design, [u], directions=60, draws=2000, seed=24)
            assert got.u == want.u
            assert got.q_hat == want.q_hat
            assert got.stderr == want.stderr
            assert got.directions == want.directions
            assert got.draws == want.draws
            assert got.flags == want.flags
        # the grid reaches both flag outcomes, so the flag is compared too
        assert {est.flags for est in grid_ests} == {(), ("structured_below_random",)}

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            estimate_Q(DesignSpec("gaussian", 4), np.array([0.5, -0.1, 1.0]), 500, draws=1000, seed=0)

    def test_nan_entry_rejected(self):
        with pytest.raises(ValueError, match="u must be nonnegative, not NaN"):
            estimate_Q(DesignSpec("gaussian", 4), [0.5, math.nan], 500, draws=1000, seed=0)

    def test_infinite_threshold_is_zero(self):
        # no finite |<X, t>| reaches an infinite threshold
        (est,) = estimate_Q(DesignSpec("gaussian", 4), [math.inf], 50, draws=1000, seed=0)
        assert (est.u, est.q_hat) == (math.inf, 0.0)

    def test_two_dimensional_grid_rejected(self):
        with pytest.raises(ValueError):
            estimate_Q(DesignSpec("gaussian", 4), np.ones((2, 2)), 500, draws=1000, seed=0)

    def test_bare_float_rejected(self):
        with pytest.raises(ValueError, match="u must be a 1-D sequence of thresholds"):
            estimate_Q(DesignSpec("gaussian", 4), 0.5, 500, draws=1000, seed=0)


class TestProbeSizes:
    @pytest.mark.parametrize(
        "directions, draws, message",
        [(500, 999, "draws must be positive and at least 1000, got 999"), (500, 0, "draws must be positive"), (-1, 1000, "directions must be nonnegative, got -1")],
    )
    def test_rejected_by_every_probe_estimate(self, directions, draws, message):
        # one rademacher draw is 0 on (e1 - e2)/sqrt(2) with probability 1/2,
        # so a ratio over few draws can read 0/0
        design = DesignSpec("rademacher", 2)
        calls = {
            "estimate_Q": lambda: estimate_Q(design, [0.5], directions, draws, seed=0),
            "estimate_Q at u = 0": lambda: estimate_Q(design, [0.0], directions, draws, seed=0),
            "choose_tau": lambda: choose_tau(design, directions, draws, seed=0),
            "moment_ratio_p2": lambda: moment_ratio_p2(design, 4.0, directions, draws, seed=0),
            "l2_l1_ratio": lambda: l2_l1_ratio(design, directions, draws, seed=0),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match=message):
                call()


def whole_p(X, T):
    """The whole draws x directions matrix |X T^T| the blocked path never holds."""
    return np.abs(X @ T.T)


class TestCountAtLeast:
    # unsorted, repeated, and 0.0, which every entry meets
    THRESHOLDS = [0.7, 0.0, 1.3, 0.3, 0.7, 2.0, 0.0, 0.05]

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    @pytest.mark.parametrize("rows", [1000, 1001, 1023, 127, 128, 129, 1024, 10000, COUNT_BLOCK_ROWS - 1, COUNT_BLOCK_ROWS, COUNT_BLOCK_ROWS + 1, 8 * COUNT_BLOCK_ROWS, 3 * COUNT_BLOCK_ROWS + 1])
    def test_equals_one_pass_count(self, rows, workers, monkeypatch):
        # fewer rows than one block, a ragged last block, a one-row
        # remainder, exact multiples; blocks count in uint8, so the last
        # case's 97-row block meets threshold 0.0 in every row and its total,
        # 289, passes uint8's 255
        monkeypatch.setenv("ERMBOUNDS_WORKERS", workers)
        X, T = _probe_draws(DesignSpec("gaussian", 6), 40, rows, 31, 0)
        got = _count_at_least(X, T, self.THRESHOLDS)
        assert got.dtype == np.int32
        assert np.array_equal(got, count_at_least_reference(whole_p(X, T), self.THRESHOLDS))
        assert np.all(got[[1, 6]] == rows)

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_threshold_ties_count(self, workers, monkeypatch):
        # |<X, e_i>| = 1 exactly on a rademacher design, so u = 1.0 ties
        # every canonical entry, which `>=` counts
        monkeypatch.setenv("ERMBOUNDS_WORKERS", workers)
        n, directions, rows = 5, 30, 1001
        X, T = _probe_draws(DesignSpec("rademacher", n), directions, rows, 32, 0)
        got = _count_at_least(X, T, [1.0, 0.5, 1.0])
        assert np.array_equal(got, count_at_least_reference(whole_p(X, T), [1.0, 0.5, 1.0]))
        assert np.all(got[0, directions : directions + n] == rows)

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        # every block adds into one total; a lost or doubled update would
        # break equality with the one-pass count
        monkeypatch.setattr(rng.os, "sched_getaffinity", lambda pid: set(range(6)))
        monkeypatch.setenv("ERMBOUNDS_WORKERS", "6")
        X, T = _probe_draws(DesignSpec("gaussian", 4), 20, 4000, 33, 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _count_at_least(X, T, self.THRESHOLDS)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, count_at_least_reference(whole_p(X, T), self.THRESHOLDS))

    @pytest.mark.parametrize(
        "rows, sizes",
        [(1, [1]), (COUNT_BLOCK_ROWS, [COUNT_BLOCK_ROWS]), (COUNT_BLOCK_ROWS + 1, [COUNT_BLOCK_ROWS + 1]), (2 * COUNT_BLOCK_ROWS + 1, [COUNT_BLOCK_ROWS, COUNT_BLOCK_ROWS + 1]), (2 * COUNT_BLOCK_ROWS + 2, [COUNT_BLOCK_ROWS, COUNT_BLOCK_ROWS, 2])],
    )
    def test_row_blocks_start_at_block_multiples(self, rows, sizes):
        # a one-row remainder would be a gemv; it joins the block before it
        blocks = _row_blocks(rows)
        assert [b.stop - b.start for b in blocks] == sizes
        assert blocks[0].start == 0 and blocks[-1].stop == rows
        assert all(b.start % COUNT_BLOCK_ROWS == 0 for b in blocks)

    def test_blocks_reproduce_whole_product(self):
        # at one BLAS thread, gemm blocks of a multiple of 24 rows get the
        # whole product's bits, at verify-main's shape (n = 32, 1324
        # directions) too, where 128-row blocks would not; a one-row block
        # would be a gemv, whose last row differs at the small shapes. A child
        # process, since the BLAS thread count is read at load time.
        shapes = [("gaussian", 4, 40, 10 * COUNT_BLOCK_ROWS + 41), ("gaussian", 4, 40, 20 * COUNT_BLOCK_ROWS + 1), ("student_t", 4, 40, 20 * COUNT_BLOCK_ROWS + 1), ("gaussian", 32, 300, 10007)]
        script = (
            "import json, sys\n"
            "import numpy as np\n"
            "from ermbounds.distributions import DesignSpec\n"
            "from ermbounds.smallball import _abs_rows, _probe_draws, _row_blocks\n"
            "for kind, n, directions, rows in json.loads(sys.argv[1]):\n"
            "    X, T = _probe_draws(DesignSpec(kind, n, p=4.0 if kind == 'student_t' else None), directions, rows, 38, 0)\n"
            "    blocks = np.vstack([_abs_rows(X, T, b) for b in _row_blocks(rows)])\n"
            "    print(int((blocks != np.abs(X @ T.T)).sum()))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(shapes)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"] * len(shapes)

    def test_probe_estimates_hold_no_draws_by_directions_array(self):
        # P is formed a block at a time, so each estimate's peak is X plus a
        # few blocks: at these sizes (P would be 106 MB) well under an
        # eighth of P
        design, directions, draws = DesignSpec("gaussian", 32), 300, 10000
        p_bytes = draws * probe_rows(design.n, directions) * np.dtype(np.float64).itemsize
        calls = {
            "estimate_Q": lambda: estimate_Q(design, np.geomspace(0.1, 2.0, 20), directions, draws, seed=34),
            "moment_ratio_p2": lambda: moment_ratio_p2(design, 4.0, directions, draws, seed=34),
            "l2_l1_ratio": lambda: l2_l1_ratio(design, directions, draws, seed=34),
        }
        for name, call in calls.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < p_bytes / 8, name


class TestPaleyZygmund:
    def test_vanishes_at_one(self):
        assert paley_zygmund_Q(1.0, 4.0, 0.999999) < 1e-11

    def test_reference_value(self):
        # kappa2=1, p=4, u=1/2: ((1 - 1/4)/1)^2 = 0.5625
        assert paley_zygmund_Q(1.0, 4.0, 0.5) == pytest.approx(0.5625, rel=1e-15)

    def test_parameter_validation(self):
        for p in (2.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="p must be finite and exceed 2"):
                paley_zygmund_Q(1.0, p, 0.5)
        for kappa2 in (0.5, math.nan):
            with pytest.raises(ValueError, match="kappa2 must be at least 1"):
                paley_zygmund_Q(kappa2, 4.0, 0.5)
        for u in (1.5, math.nan):
            with pytest.raises(ValueError, match=r"u must lie in \(0, 1\)"):
                paley_zygmund_Q(1.0, 4.0, u)

    @pytest.mark.parametrize(
        "design,p",
        [
            (DesignSpec("gaussian", 6), 4.0),
            (DesignSpec("rademacher", 6), 4.0),
            (DesignSpec("bounded_uniform", 6), 4.0),
            (DesignSpec("student_t", 6, p=4.0), 3.0),
        ],
        ids=["gaussian", "rademacher", "uniform", "student_t"],
    )
    def test_domination(self, design, p):
        # wherever the moment ratio certifies kappa2, the estimated small-ball
        # probability must dominate the closed-form bound
        kappa2 = max(moment_ratio_p2(design, p, directions=100, draws=50000, seed=7), 1.0)
        for u in (0.1, 0.25, 0.5):
            (est,) = estimate_Q(design, [u], directions=100, draws=20000, seed=8)
            assert est.q_hat + 3.0 * est.stderr >= paley_zygmund_Q(kappa2, p, u)


class TestMomentRatios:
    def test_p2_is_unity(self):
        assert moment_ratio_p2(DesignSpec("gaussian", 5), 2.0, directions=50, draws=20000, seed=9) == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_fourth_moment(self):
        # E g^4 = 3 so the L4/L2 ratio is 3^(1/4) in every direction
        ratio = moment_ratio_p2(DesignSpec("gaussian", 6), 4.0, directions=200, draws=100000, seed=10)
        assert ratio == pytest.approx(3.0**0.25, rel=0.05)

    @pytest.mark.parametrize("p", [1.5, math.nan, math.inf])
    def test_moment_order_rejected(self, p):
        # p = inf read 1.04 here, which is not the L-infinity/L2 ratio
        with pytest.raises(ValueError, match="p must be finite and at least 2"):
            moment_ratio_p2(DesignSpec("gaussian", 3), p, directions=10, draws=1000, seed=9)

    def test_rademacher_single_coordinate(self):
        # in dimension 1 every probe is +-e1 and |<X, e1>| = 1
        assert moment_ratio_p2(DesignSpec("rademacher", 1), 7.0, directions=20, draws=5000, seed=11) == 1.0

    def test_l2_l1_rademacher_single_coordinate(self):
        assert l2_l1_ratio(DesignSpec("rademacher", 1), directions=20, draws=5000, seed=12) == 1.0

    def test_l2_l1_gaussian(self):
        # E|g| = sqrt(2/pi), so the ratio is sqrt(pi/2) in every direction
        ratio = l2_l1_ratio(DesignSpec("gaussian", 6), directions=200, draws=100000, seed=13)
        assert ratio == pytest.approx(math.sqrt(math.pi / 2.0), rel=0.03)

    def test_l2_l1_bounded_uniform_envelope(self):
        ratio = l2_l1_ratio(DesignSpec("bounded_uniform", 6), directions=10, draws=50000, seed=14)
        assert ratio <= 2.0

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
    @pytest.mark.parametrize("draws", [10 * COUNT_BLOCK_ROWS + 41, 20 * COUNT_BLOCK_ROWS + 1], ids=["ragged", "one_row_remainder"])
    def test_blocked_sums_match_whole_matrix(self, kind, draws):
        # the column sums carry from block to block in row order, so the
        # ratios keep the bits of the whole-matrix means
        design = DesignSpec(kind, 4)
        for p in (2.0, 3.0, 4.0, 7.5):
            assert moment_ratio_p2(design, p, 40, draws, 35) == moment_ratio_p2_whole(design, p, 40, draws, 35)
        assert l2_l1_ratio(design, 40, draws, 36) == l2_l1_ratio_whole(design, 40, draws, 36)
        X, T = _probe_draws(design, 40, draws, 37, 2)
        P = whole_p(X, T)
        got = _column_means(X, T, [3.0, 2, 1])
        for mean, want in zip(got, (np.mean(P**3.0, axis=0), np.mean(P**2, axis=0), np.mean(P, axis=0))):
            assert mean.tobytes() == want.tobytes()


class TestChooseTau:
    def test_gaussian_analytic_scan(self):
        # analytic objective tau^2 * 2(1 - Phi(2 tau)), maximized by dense scan
        taus = np.linspace(0.05, 1.0, 20000)
        scores = taus**2 * 2.0 * stats.norm.sf(2.0 * taus)
        tau_analytic = float(taus[np.argmax(scores)])
        choice = choose_tau(DesignSpec("gaussian", 8), directions=200, draws=20000, seed=15)
        grid = smallball.TAU_GRID
        step = float(np.log(grid[1] / grid[0]))
        assert abs(math.log(choice.tau / tau_analytic)) <= step
        assert choice.gamma == pytest.approx(choice.tau**2 * choice.q_at_2tau / 16.0, rel=1e-15)
        assert choice.gamma_beta == pytest.approx(choice.tau * choice.q_at_2tau / 16.0, rel=1e-15)

    def test_rademacher_grid_max(self, monkeypatch):
        monkeypatch.setattr(smallball, "TAU_GRID", np.geomspace(0.05, 0.49, 12))
        choice = choose_tau(DesignSpec("rademacher", 16), directions=200, draws=20000, seed=16)
        assert choice.tau == pytest.approx(0.49, rel=1e-12)

    @pytest.mark.parametrize(
        "kind,tau,q_at_2tau",
        [("gaussian", 0.6231236162177701, 0.2165), ("rademacher", 0.45459398534539097, 0.2925)],
    )
    def test_recorded_choice(self, kind, tau, q_at_2tau):
        # recorded at commit 5f5db24, where choose_tau made one estimate_Q
        # call per grid point (rademacher again when random_signs came to draw
        # 32 signs per word); the shared-draw grid must reproduce them exactly
        choice = choose_tau(DesignSpec(kind, 6), directions=50, draws=2000, seed=23)
        assert choice.tau == tau
        assert choice.q_at_2tau == q_at_2tau


class TestVerifyCounts:
    def test_tau_zero_counts_everything(self):
        cls = ClassSpec(n=4, R=1.0, t0=np.zeros(4))
        q_hat = estimate_Q(DesignSpec("gaussian", 4), [0.0], 500, 10000, seed=17)[0].q_hat
        rep = verify_empirical_smallball(DesignSpec("gaussian", 4), cls, tau=0.0, r=0.5, N=64, trials=10, probes=100, seed=17, q_hat=q_hat)
        assert np.all(rep.min_counts == 64)
        assert rep.success_fraction == 1.0

    def test_rademacher_single_coordinate_counts(self):
        cls = ClassSpec(n=1, R=1.0, t0=np.zeros(1))
        q_hat = estimate_Q(DesignSpec("rademacher", 1), [1.0], 500, 10000, seed=18)[0].q_hat
        rep = verify_empirical_smallball(DesignSpec("rademacher", 1), cls, tau=0.5, r=0.5, N=128, trials=10, probes=100, seed=18, q_hat=q_hat)
        assert np.all(rep.min_counts == 128)

    def test_probe_count_is_taken_as_given(self):
        # probes=0 leaves only the n canonical directions, and the random
        # directions of a smaller count are the first of a larger one's, so
        # fewer probes can only raise each trial's minimum count
        design, cls = DesignSpec("gaussian", 4), ClassSpec(n=4, R=1.0, t0=np.zeros(4))
        reps = {p: verify_empirical_smallball(design, cls, tau=0.5, r=0.5, N=64, trials=6, probes=p, seed=22, q_hat=0.5) for p in (0, 20, 100)}
        canonical = [(np.abs(sample_design(design, 64, 22, trial=j)) >= 0.5).sum(axis=0).min() for j in range(6)]
        assert np.array_equal(reps[0].min_counts, canonical)
        assert np.all(reps[0].min_counts >= reps[20].min_counts)
        assert np.all(reps[20].min_counts >= reps[100].min_counts)
        with pytest.raises(ValueError, match="probes must be nonnegative"):
            verify_empirical_smallball(design, cls, tau=0.5, r=0.5, N=64, trials=6, probes=-1, seed=22, q_hat=0.5)

    @pytest.mark.parametrize("q_hat", [-1.0, 1.5, math.nan])
    def test_probability_outside_the_unit_interval_rejected(self, q_hat, monkeypatch):
        # q_hat = -1 gave a negative count threshold and a vacuous pass
        monkeypatch.setattr(smallball, "sample_design", None)  # fails before any draw
        design, cls = DesignSpec("gaussian", 4), ClassSpec(n=4, R=1.0, t0=np.zeros(4))
        with pytest.raises(ValueError, match=r"q_hat must lie in \[0, 1\]"):
            verify_empirical_smallball(design, cls, tau=0.5, r=0.5, N=64, trials=6, probes=10, seed=22, q_hat=q_hat)

    @pytest.mark.parametrize(
        "tau, r, message",
        [(math.nan, 0.5, "tau must be nonnegative and finite"), (math.inf, 0.5, "tau must be nonnegative and finite"), (0.5, math.nan, "r exceeds the diameter of the difference class, or is NaN")],
    )
    def test_nan_count_inputs_rejected(self, tau, r, message, monkeypatch):
        # tau = nan read success_fraction 0.0, and r = nan failed later with
        # "no probe direction admits ||v||_2 >= r"
        monkeypatch.setattr(smallball, "sample_design", None)  # fails before any draw
        design, cls = DesignSpec("gaussian", 4), ClassSpec(n=4, R=1.0, t0=np.zeros(4))
        with pytest.raises(ValueError, match=message):
            verify_empirical_smallball(design, cls, tau=tau, r=r, N=64, trials=6, probes=10, seed=22, q_hat=0.5)

    def test_identical_across_workers(self, monkeypatch):
        design, cls = DesignSpec("student_t", 6, p=4.0), ClassSpec(n=6, R=1.0, t0=np.zeros(6))
        reports = []
        for workers in ("1", "3"):
            monkeypatch.setenv("ERMBOUNDS_WORKERS", workers)
            reports.append(verify_empirical_smallball(design, cls, tau=0.4, r=0.5, N=64, trials=12, probes=10, seed=35, q_hat=0.4))
        assert reports[0].min_counts.tobytes() == reports[1].min_counts.tobytes()
        assert record(reports[0]) == record(reports[1])

    def test_infeasible_radius(self):
        cls = ClassSpec(n=4, R=1.0, t0=np.zeros(4))
        q_hat = estimate_Q(DesignSpec("gaussian", 4), [1.0], 500, 10000, seed=19)[0].q_hat
        with pytest.raises(ValueError):
            verify_empirical_smallball(DesignSpec("gaussian", 4), cls, tau=0.5, r=2.5, N=64, trials=5, probes=100, seed=19, q_hat=q_hat)

    def test_gaussian_cell_passes(self):
        design = DesignSpec("gaussian", 32)
        cls = ClassSpec(n=32, R=1.0, t0=np.zeros(32))
        choice = choose_tau(design, directions=200, draws=20000, seed=20)
        beta = beta_star(cls, design, 256, choice.gamma_beta, trials=100, seed=20)
        rep = verify_empirical_smallball(design, cls, tau=choice.tau, r=1.0, N=256, trials=40, probes=100, seed=20, q_hat=choice.q_at_2tau, beta_estimate=beta)
        assert rep.success_fraction >= 0.9
        # at this desk-scale cell the sufficient condition is out of reach
        # inside the class; the report must say so rather than hide it
        assert not rep.hypothesis_certified

    def test_nonvacuous_hypothesis_cell(self):
        # dimension 1 with a large sample: the fixed point collapses, the
        # sufficient condition holds, and the count conclusion must too.
        # Below 2R the criterion reads mean|Z| <= gamma_beta*sqrt(N), about
        # 0.798 against 0.83, so it takes thousands of trials to resolve
        # (at 60 trials it held for about two seeds in three).
        design = DesignSpec("gaussian", 1)
        cls = ClassSpec(n=1, R=1.0, t0=np.zeros(1))
        choice = choose_tau(design, directions=20, draws=20000, seed=21)
        beta = beta_star(cls, design, 10000, choice.gamma_beta, trials=5000, seed=21)
        assert "not_satisfied_within_upper" not in beta.flags
        rep = verify_empirical_smallball(design, cls, tau=choice.tau, r=0.5, N=10000, trials=30, probes=100, seed=21, q_hat=choice.q_at_2tau, beta_estimate=beta)
        assert rep.hypothesis_certified
        assert rep.success_fraction >= rep.success_criterion
        assert rep.passed
