import hashlib
import json
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict, dataclass

import numpy as np
import pytest

from ermbounds import cli, distributions, erm, experiments, rng
from ermbounds.distributions import DesignSpec, NoiseSpec, sample_moments
from ermbounds.erm import ClassSpec, solve_erm
from ermbounds.experiments import MainTheoremConfig, SweepConfig, make_t0, run_counterexample, run_persistence_sweep, verify_main_theorem
from ermbounds.reports import Report, canonical_json, emit_report, record, wilson_interval
from ermbounds.rng import NOISE_TAG


class TestMakeT0:
    def test_shapes(self):
        assert np.array_equal(make_t0("zero", 0.0, 4, 1.0), np.zeros(4))
        spike = make_t0("spike", 0.5, 4, 2.0)
        assert spike[0] == 1.0 and np.abs(spike).sum() == 1.0
        flat = make_t0("flat", 1.0, 4, 2.0)
        assert np.allclose(flat, 0.5)
        with pytest.raises(ValueError):
            make_t0("blob", 0.5, 4, 1.0)
        with pytest.raises(ValueError):
            make_t0("blob", 0.0, 4, 1.0)
        with pytest.raises(ValueError):
            make_t0("spike", 1.5, 4, 1.0)


class TestCounterexample:
    def test_probabilities_and_moment(self):
        N = 100
        rep = run_counterexample(N, 30000, seed=0x5EED)
        s = rep.summary
        # a single spike spoils the two-sided inequality: probability ~ 1/N
        assert s["deviation_probability"] >= 1.0 / (4.0 * N)
        # the one-sided lower bound fails exponentially rarely (here never,
        # since |Z| >= 1 pointwise)
        assert s["onesided_failure_probability"] <= 1e-3
        assert s["empirical_EZ2"] == pytest.approx(s["analytic_EZ2"], rel=0.01)
        stats = {r["statistic"]: r for r in rep.rows}
        assert stats["deviation_probability"]["ci_low"] <= s["deviation_probability"] <= stats["deviation_probability"]["ci_high"]

    def test_counts_are_one_draw_on_one_thread(self, monkeypatch):
        streams, draws = [], []

        class Counting:
            def __getattr__(self, name):
                draws.append(name)
                return getattr(np.random.Generator(np.random.Philox(0)), name)

        def substream(*key):
            streams.append(key)
            return Counting()

        def no_threads(fn, count):
            raise AssertionError("run_counterexample started trials on threads")

        monkeypatch.setattr(experiments, "substream", substream)
        monkeypatch.setattr(experiments, "map_trials", no_threads)
        run_counterexample(100, 5000, seed=3)
        assert streams == [(3,)] and draws == ["binomial"]

    # summaries recorded when the spike counts came to be drawn from their
    # Binomial(N, 1/N^2) law; at N = 100 and 1000, spike^2 = 4N exactly, so
    # the sums are exact integers and the fields are equal
    PINNED = {
        (100, 5000, 3): (0.0106, 0.0, 1.04389, 0.005917800886799081),
        (1000, 4000, 5): (0.0015, 0.0, 1.0059985, 0.0024488755336887656),
    }
    FIELDS = ("deviation_probability", "onesided_failure_probability", "empirical_EZ2", "empirical_EZ2_stderr")

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_pinned_summary(self, key):
        s = run_counterexample(*key[:2], seed=key[2]).summary
        assert tuple(s[f] for f in self.FIELDS) == self.PINNED[key]

    def test_pinned_summary_inexact_spike(self):
        # at N = 2000, spike^2 = 8000.000000000001, so the sums carry
        # rounding and only agreement to rounding is expected
        s = run_counterexample(2000, 20000, seed=1).summary
        pinned = (0.00045, 0.0, 1.001799775, 0.0005999249325084338)
        for field, value in zip(self.FIELDS, pinned):
            assert s[field] == pytest.approx(value, rel=1e-13, abs=0.0)


PINNED_ONE_BLOCK_DIGEST = "40883dab4fb9ae7877146ea4581ba1f40a95cddeb37ac4e4ede04e2855cadeac"


class TestPersistenceSweep:
    def test_noise_monotonicity(self):
        cfg = SweepConfig(design={"kind": "rademacher"}, noise={"kind": "gaussian"}, n_grid=(16,), N_grid=(64,), sigma_grid=(0.1, 0.5, 1.0), trials=20, seed=5, t0_shape="zero", t0_fraction=0.0)
        rep = run_persistence_sweep(cfg)
        meds = [r["value"] for r in rep.rows if r["statistic"] == "median_err2"]
        assert all(a <= b for a, b in zip(meds, meds[1:]))
        assert rep.config == asdict(cfg)

    def test_regime_separation(self):
        # straddling the branch threshold N = n^2 sigma^2 / R^2 = 4096 the
        # fitted slope must move by at least 0.3 between branches
        cfg = SweepConfig(design={"kind": "rademacher"}, noise={"kind": "gaussian"}, n_grid=(64,), N_grid=(256, 512, 1024, 2048, 4096, 8192, 16384), sigma_grid=(1.0,), trials=20, seed=11, t0_shape="zero", t0_fraction=0.0)
        rep = run_persistence_sweep(cfg)
        slopes = rep.summary["slopes"]
        s1 = slopes["n=64,R=1,sigma=1,branch2=0"]
        s2 = slopes["n=64,R=1,sigma=1,branch2=1"]
        assert abs(s2 - s1) >= 0.3

    def test_worker_count_never_changes_bytes(self, monkeypatch):
        cfg = SweepConfig(design={"kind": "gaussian"}, noise={"kind": "gaussian"}, n_grid=(8,), N_grid=(32, 64), sigma_grid=(0.5,), trials=20, seed=9, t0_shape="spike", t0_fraction=0.5)
        monkeypatch.setenv("ERMBOUNDS_WORKERS", "1")
        rep1 = run_persistence_sweep(cfg)
        monkeypatch.setenv("ERMBOUNDS_WORKERS", "4")
        rep4 = run_persistence_sweep(cfg)
        assert rep1.to_csv() == rep4.to_csv()
        assert rep1.to_json() == rep4.to_json()

    def test_threads_never_change_bytes_across_design_blocks(self, monkeypatch):
        # the large cell draws each trial's design in three blocks (a
        # gaussian design would not stream); a 1 us switch interval makes
        # the trial threads interleave
        n = 64
        big = 2 * (distributions._MOMENT_BLOCK // n) + 101
        cfg = SweepConfig(design={"kind": "bounded_uniform"}, noise={"kind": "gaussian"}, n_grid=(n,), N_grid=(256, big), sigma_grid=(0.5,), trials=20, seed=13, t0_shape="spike", t0_fraction=0.5)
        monkeypatch.setenv("ERMBOUNDS_WORKERS", "1")
        serial = run_persistence_sweep(cfg)
        threaded = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in ("2", "0"):
                monkeypatch.setenv("ERMBOUNDS_WORKERS", workers)
                threaded.append(run_persistence_sweep(cfg))
        finally:
            sys.setswitchinterval(interval)
        for rep in threaded:
            assert rep.to_csv() == serial.to_csv()
            assert rep.to_json() == serial.to_json()

    def test_one_block_cells_keep_their_bytes(self):
        # every cell's trials fit one design block, so the moments equal those
        # of the whole sample; CSV digest recorded at commit d3b9848, which
        # solved from the whole sample, and re-recorded when FISTA came to take
        # one matvec per step and cells came to be keyed on the float64 bits
        # of their grid values, again when L came to start at 2 max_i G_ii,
        # and when random_signs came to draw 32 signs per word
        cfg = SweepConfig(design={"kind": "rademacher"}, noise={"kind": "gaussian"}, n_grid=(16,), N_grid=(64, 128), sigma_grid=(0.5,), trials=20, seed=9, t0_shape="spike", t0_fraction=0.5)
        digest = hashlib.sha256(run_persistence_sweep(cfg).to_csv().encode()).hexdigest()
        assert digest == PINNED_ONE_BLOCK_DIGEST

    def test_workers_validated(self, monkeypatch):
        monkeypatch.setenv("ERMBOUNDS_WORKERS", "-1")
        with pytest.raises(ValueError, match="ERMBOUNDS_WORKERS must be a nonnegative integer, got '-1'"):
            run_persistence_sweep(SweepConfig(n_grid=(8,), N_grid=(32,)))

    @pytest.mark.parametrize("field, value", [("tol", 0.0), ("tol", -1e-9), ("tol", math.nan), ("tol", math.inf), ("max_iter", 0), ("max_iter", -5)])
    def test_solver_settings_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            SweepConfig(**{field: value})

    def test_erm_batches_never_change_bytes(self, monkeypatch):
        # 20 trials at n = 8 are one stacked solve; a budget of 3 G's splits
        # them into 7 batches, run here on more threads than cores with a
        # 1 us switch interval
        cfg = SweepConfig(design={"kind": "gaussian"}, noise={"kind": "gaussian"}, n_grid=(8,), N_grid=(6, 64), sigma_grid=(0.5,), trials=20, seed=9, t0_shape="spike", t0_fraction=0.5)
        monkeypatch.setenv("ERMBOUNDS_WORKERS", "1")
        whole = run_persistence_sweep(cfg)
        monkeypatch.setattr(experiments, "_ERM_BATCH", 3 * 8 * 8)
        monkeypatch.setenv("ERMBOUNDS_WORKERS", "4")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split = run_persistence_sweep(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert split.to_csv() == whole.to_csv()
        assert split.to_json() == whole.to_json()

    @pytest.mark.parametrize(
        "grids, message",
        [
            (dict(sigma_grid=(0.5, 0.25, 0.5)), "sigma_grid values 0.5 and 0.5"),
            (dict(sigma_grid=(0.0, -0.0)), "sigma_grid values 0.0 and -0.0"),
            (dict(N_grid=(32, 64, 32)), "N_grid values 32 and 32"),
        ],
        ids=["sigma_repeated", "sigma_signed_zero", "N_repeated"],
    )
    def test_colliding_seed_keys_rejected(self, grids, message):
        with pytest.raises(ValueError, match=message.replace(".", r"\.")):
            SweepConfig(**{"n_grid": (8,), "N_grid": (32,), **grids})

    @pytest.mark.parametrize(
        "grids",
        # keyed on int(value * 2**20), each pair once drew the same samples
        # and so had to be rejected
        [dict(R_grid=(1.0, 1.0000001)), dict(sigma_grid=(0.0, 1e-7))],
        ids=["R_close", "sigma_below_key_step"],
    )
    def test_close_values_draw_apart(self, monkeypatch, grids):
        drawn = []
        moments_into = experiments._moments_into

        def recording(G, cls, design, noise, N, seed, trial):
            moments = moments_into(G, cls, design, noise, N, seed, trial)
            drawn.append((seed, trial, moments.G.tobytes()))
            return moments

        monkeypatch.setattr(experiments, "_moments_into", recording)
        run_persistence_sweep(SweepConfig(**{"n_grid": (8,), "N_grid": (32,), "trials": 20, **grids}))
        first = [(seed, G) for seed, trial, G in drawn if trial == 0]
        assert len(first) == 2
        (seed_a, G_a), (seed_b, G_b) = first
        assert seed_a != seed_b and G_a != G_b

    def test_seed_keys_one_step_apart_accepted(self):
        cfg = SweepConfig(n_grid=(8,), N_grid=(32,), R_grid=(1.0, 1.0 + 2**-20), sigma_grid=(0.0, 2**-20))
        assert cfg.R_grid == (1.0, 1.0 + 2**-20)

    def test_seed_changes_results(self):
        base = dict(design={"kind": "gaussian"}, noise={"kind": "gaussian"}, n_grid=(8,), N_grid=(32,), sigma_grid=(0.5,), trials=20, t0_shape="zero", t0_fraction=0.0)
        rep1 = run_persistence_sweep(SweepConfig(**base, seed=1))
        rep2 = run_persistence_sweep(SweepConfig(**base, seed=2))
        assert rep1.to_csv() != rep2.to_csv()

    def test_solver_failure_flagging(self):
        cfg = SweepConfig(design={"kind": "gaussian"}, noise={"kind": "gaussian"}, n_grid=(8,), N_grid=(32,), sigma_grid=(0.5,), trials=20, seed=5, tol=1e-15, max_iter=2, t0_shape="zero", t0_fraction=0.0)
        rep = run_persistence_sweep(cfg)
        flagged = [r["value"] for r in rep.rows if r["statistic"] == "flagged"]
        assert flagged == [True]
        assert rep.summary["passed"] is False


class TestErmTrials:
    """`_erm_trials` fills each trial's G into a buffer that its thread keeps
    for its next batch of the same n (one trial at n = 700), runs a whole
    sweep's batches as the tasks of one `map_trials` call, and lets only
    one gathered-path solve run at a time."""

    n = 700
    cls = ClassSpec(n=700, R=1.0, t0=np.zeros(700))
    design, noise = DesignSpec("rademacher", 700), NoiseSpec("gaussian", sigma=0.5)

    def test_trials_allocate_one_gram(self, monkeypatch):
        # each trial, draw and solve, adds less than one n x n float64 block
        # to what is live when it starts, and that block (the G buffer) is
        # live from the first trial on; a fresh G a trial would add one each
        monkeypatch.setenv("ERMBOUNDS_WORKERS", "1")
        gram = self.n * self.n * 8
        starts, rises = [], []
        substream = distributions.substream

        def window():
            current, peak = tracemalloc.get_traced_memory()
            if starts:
                rises.append(peak - starts[-1])
            starts.append(current)
            tracemalloc.reset_peak()

        def first_draw_opens_a_window(seed, *path):
            if path[-1] == NOISE_TAG:
                window()
            return substream(seed, *path)

        # a first run imports what the draws and the solve import on first use
        experiments._erm_trials([(self.cls, self.design, self.noise, 350, 5)], 1, tol=1e-9)
        monkeypatch.setattr(distributions, "substream", first_draw_opens_a_window)
        tracemalloc.start()
        try:
            experiments._erm_trials([(self.cls, self.design, self.noise, 2800, 5)], 4, tol=1e-9)
            window()
        finally:
            tracemalloc.stop()
        assert len(rises) == 4 and max(rises) < gram
        assert min(starts[:4]) >= gram

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_results_equal_lone_solves(self, workers, monkeypatch):
        monkeypatch.setenv("ERMBOUNDS_WORKERS", workers)
        for N in (350, 2800):
            (results,) = experiments._erm_trials([(self.cls, self.design, self.noise, N, 5)], 4, tol=1e-9)
            for j, result in enumerate(results):
                lone = solve_erm(sample_moments(self.cls, self.design, self.noise, N, 5, trial=j), self.cls, tol=1e-9)
                assert result.t_hat.tobytes() == lone.t_hat.tobytes()
                assert (result.empirical_risk, result.iterations, result.kkt_residual, result.converged) == (lone.empirical_risk, lone.iterations, lone.kkt_residual, lone.converged)

    def test_reused_buffers_write_the_bytes_of_fresh_ones(self, monkeypatch, tmp_path):
        # the benchmark's persistence command; the fresh buffers hold NaN, so
        # an entry the fill leaves unwritten would fail the run
        argv = ["persistence", "--seed", "7", "--set", "n_grid=[700]", "--set", "N_grid=[350,2800]", "--set", "R_grid=[1.0]", "--set", "sigma_grid=[0.5]", "--set", "trials=20", "--set", "design.kind=rademacher", "--set", "noise.kind=gaussian", "--set", "t0_shape=zero", "--set", "tol=1e-9"]
        assert cli.run([*argv, "--output", str(tmp_path / "reused.json")]) == 0
        moments_into = experiments._moments_into
        monkeypatch.setattr(experiments, "_moments_into", lambda G, *args: moments_into(np.full_like(G, np.nan), *args))
        assert cli.run([*argv, "--output", str(tmp_path / "fresh.json")]) == 0
        assert (tmp_path / "reused.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()

    # two n's, one on each side of erm._GATHER_MIN_N, and two N's: the n = 300
    # cells are 4 batches of 5 trials each, the n = 40 cells one of 20
    TWO_N = SweepConfig(design={"kind": "rademacher"}, noise={"kind": "gaussian"}, n_grid=(300, 40), N_grid=(150, 600), sigma_grid=(0.5,), trials=20, seed=17, t0_shape="spike", t0_fraction=0.5)

    def test_two_n_sweep_bytes_at_any_worker_count_and_fresh_buffers(self, monkeypatch):
        reports = []
        for workers in ("1", "2"):
            monkeypatch.setenv("ERMBOUNDS_WORKERS", workers)
            reports.append(run_persistence_sweep(self.TWO_N))
        # fresh buffers hold NaN, so an entry the fill leaves unwritten would show
        moments_into = experiments._moments_into
        monkeypatch.setattr(experiments, "_moments_into", lambda G, *args: moments_into(np.full_like(G, np.nan), *args))
        reports.append(run_persistence_sweep(self.TWO_N))
        for rep in reports[1:]:
            assert rep.to_json() == reports[0].to_json()
            assert rep.to_csv() == reports[0].to_csv()

    def test_sweep_is_one_map_trials_call(self, monkeypatch):
        calls = []
        map_trials = experiments.map_trials
        monkeypatch.setattr(experiments, "map_trials", lambda fn, count: calls.append(count) or map_trials(fn, count))
        cfg = SweepConfig(design={"kind": "gaussian"}, noise={"kind": "gaussian"}, n_grid=(8, 16), N_grid=(32, 64), sigma_grid=(0.5,), trials=20, seed=3)
        run_persistence_sweep(cfg)
        # four cells of one batch each
        assert calls == [4]

    def _spy_solves(self, monkeypatch, cfg, before_solve):
        """The most solves of each n that ran at once, and the threads that
        solved, in a sweep on two threads whatever the CPU count."""
        monkeypatch.setattr(rng, "trial_workers", lambda count: min(2, count))
        solve_erms, guard = experiments.solve_erms, threading.Lock()
        active, most, threads = {}, {}, set()

        def spy(moments, cls, **solver):
            with guard:
                active[cls.n] = active.get(cls.n, 0) + 1
                most[cls.n] = max(most.get(cls.n, 0), active[cls.n])
                threads.add(threading.get_ident())
            try:
                before_solve()
                return solve_erms(moments, cls, **solver)
            finally:
                with guard:
                    active[cls.n] -= 1

        monkeypatch.setattr(experiments, "solve_erms", spy)
        run_persistence_sweep(cfg)
        return most, threads

    def test_gathered_solves_never_overlap(self, monkeypatch):
        # 8 batches of n = 300 > erm._GATHER_MIN_N; each solve lasts at least
        # 5 ms, so two unlocked ones on two threads would overlap
        assert 300 > erm._GATHER_MIN_N
        cfg = SweepConfig(design={"kind": "rademacher"}, noise={"kind": "gaussian"}, n_grid=(300,), N_grid=(150, 600), sigma_grid=(0.5,), trials=20, seed=5)
        most, threads = self._spy_solves(monkeypatch, cfg, lambda: time.sleep(0.005))
        assert most == {300: 1} and len(threads) == 2

    def test_dense_solves_run_side_by_side(self, monkeypatch):
        # two n = 64 cells of one batch each: each solve waits until the
        # other has started, which a lock around dense solves would not allow
        cfg = SweepConfig(design={"kind": "rademacher"}, noise={"kind": "gaussian"}, n_grid=(64,), N_grid=(128, 256), sigma_grid=(0.5,), trials=20, seed=5)
        barrier = threading.Barrier(2, timeout=10)
        most, threads = self._spy_solves(monkeypatch, cfg, barrier.wait)
        assert most == {64: 2} and len(threads) == 2

    def _traced_sweep(self, monkeypatch, cfg):
        """The traced bytes live at each `_moments_into` call, with its n,
        and the peak, both above what was live before the sweep, of a sweep
        at one worker."""
        monkeypatch.setenv("ERMBOUNDS_WORKERS", "1")
        moments_into, live = experiments._moments_into, []

        def traced(G, cls, *args):
            live.append((cls.n, tracemalloc.get_traced_memory()[0] - base))
            return moments_into(G, cls, *args)

        # a first run imports what the draws and the solve import on first use
        run_persistence_sweep(cfg)
        monkeypatch.setattr(experiments, "_moments_into", traced)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_persistence_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
            monkeypatch.setattr(experiments, "_moments_into", moments_into)
        return live, peak

    def test_two_n_sweep_never_holds_grams_of_both(self, monkeypatch):
        # the n = 300 trials hold their thread's 5 G's (3.6 MB); once the
        # n = 40 trials start, not even one of them is live
        gram = 300 * 300 * 8
        live, _ = self._traced_sweep(monkeypatch, self.TWO_N)
        assert [n for n, _ in live] == [300] * 40 + [40] * 40
        assert min(b for n, b in live if n == 300) >= 5 * gram
        assert max(b for n, b in live if n == 40) < gram

    def test_multi_n_sweep_peak_within_per_cell_pools(self, monkeypatch):
        # a pool per cell held at most its largest cell's peak, plus the rows
        # of the cells before it; one pool adds only the results it keeps to
        # the end, under 8 n + 512 bytes a trial
        cells = [SweepConfig(**{**asdict(self.TWO_N), "n_grid": (n,), "N_grid": (N,)}) for n in self.TWO_N.n_grid for N in self.TWO_N.N_grid]
        per_cell = max(self._traced_sweep(monkeypatch, cfg)[1] for cfg in cells)
        _, peak = self._traced_sweep(monkeypatch, self.TWO_N)
        kept = sum(self.TWO_N.trials * (8 * n + 512) for n in self.TWO_N.n_grid for _ in self.TWO_N.N_grid)
        assert peak <= per_cell + kept



# sha256 of verify_main_theorem's JSON and CSV at MainTheoremConfig's
# defaults, the CLI's (gaussian n = 32, sigma = 0.5), recorded at commit
# d65c029, which solved the ERM trials one at a time, and re-recorded when
# FISTA came to take one matvec per step with a checked step size and when L
# came to start at 2 max_i G_ii; the JSON again when the config echo became
# dataclasses.asdict(config), which writes the design's and noise's unset p
# and kappa as null (rows and summary unchanged); the JSON again when alpha
# came to draw gaussian noise's mean square as one chi-square a trial (only
# the alpha stderr moved); both when alpha came to bisect to 1% like beta
# instead of scanning a ratio-1.1 grid (only alpha_hat and the alpha summary
# moved); both when the gaussian ERM trials came to draw their moments from
# the law of (X^T X, X^T w) and the summary gained error_q and slack; the JSON
# again when alpha's estimate dropped the wilson_marginal flag (only the alpha
# flags moved); the JSON again when the config came to hold design, noise and
# n as the CLI writes them, so the report is the CLI's byte for byte (only the
# config moved)
PINNED_VERIFY_MAIN = ("52b967a11d894df8c3705ebc4c5b638b86d5da6817164493de9d0dffb447c206", "18c9fea169ada1616d31aada78bb5d964b065046bc3361c51970f60ed83737e1")


class TestVerifyMain:
    @pytest.mark.parametrize(
        "batch, workers",
        [(None, 1), (None, 2), (None, 0), (64, 1), (64, 0), (7, 2)],
        ids=["whole-w1", "whole-w2", "whole-w0", "b64-w1", "b64-w0", "b7-w2"],
    )
    def test_default_report_pinned(self, monkeypatch, batch, workers):
        # the 200 trials are one stacked solve at n = 32; a smaller budget
        # splits them into 4 or 29 batches
        if batch is not None:
            monkeypatch.setattr(experiments, "_ERM_BATCH", batch * 32 * 32)
        monkeypatch.setenv("ERMBOUNDS_WORKERS", str(workers))
        rep = verify_main_theorem(MainTheoremConfig())
        digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (rep.to_json(), rep.to_csv()))
        assert digests == PINNED_VERIFY_MAIN

    @pytest.mark.parametrize("field, value", [("trials", 0), ("beta_trials", 0), ("N", 0), ("tol", 0.0), ("tol", math.nan), ("tol", math.inf), ("delta", 0.0), ("delta", 1.0), ("delta", math.nan)])
    def test_config_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            MainTheoremConfig(n=4, noise={"kind": "zero", "sigma": 0.0}, **{field: value})

    @pytest.mark.parametrize("kind", ["gaussian", "zero"])
    def test_noise_must_name_sigma(self, kind):
        # NoiseSpec would take sigma = 0, and the CLI replaying the report's
        # config would merge in its own 0.5
        with pytest.raises(ValueError, match="noise must name sigma"):
            MainTheoremConfig(noise={"kind": kind})

    def test_alpha_trials_validated(self):
        # alpha runs at delta/4 = 0.025, whose quantile needs ceil(50/0.025) = 2000 trials
        def config(alpha_trials):
            return MainTheoremConfig(n=4, noise={"kind": "zero", "sigma": 0.0}, alpha_trials=alpha_trials)

        with pytest.raises(ValueError, match="need at least 2000 trials to resolve the 0.975 quantile"):
            config(1999)
        assert config(2000).alpha_trials == 2000
        assert config(None).alpha_trials is None

    def test_mini_run_structure(self):
        cfg = MainTheoremConfig(
            n=8,
            N=64,
            delta=0.2,
            trials=30,
            alpha_trials=1000,
            beta_trials=50,
            tau_directions=50,
            tau_draws=2000,
            seed=21,
        )
        rep = verify_main_theorem(cfg)
        s = rep.summary
        assert 0.0 <= s["frequency"] <= 1.0
        assert s["bound"] == pytest.approx(2.0 * max(s["alpha"]["value"], s["beta"]["value"]), rel=1e-15)
        stats = {r["statistic"] for r in rep.rows}
        assert {"tau", "q_hat", "gamma", "alpha_hat", "beta_hat", "bound", "frequency", "criterion"} <= stats
        assert isinstance(s["passed"], bool)
        assert rep.config == asdict(cfg)


class TestReports:
    def test_empty_report_header_only(self, tmp_path):
        rep = Report(kind="t", config={}, columns=("a", "b"))
        path = tmp_path / "empty.csv"
        emit_report(rep, path, "csv")
        assert path.read_text() == "a,b\n"

    def test_unknown_row_field_rejected(self):
        rep = Report(kind="t", config={}, columns=("a",))
        with pytest.raises(ValueError):
            rep.add_row(a=1, b=2)

    def test_float_17_digits(self, tmp_path):
        rep = Report(kind="t", config={}, columns=("x",))
        rep.add_row(x=1.0 / 3.0)
        path = tmp_path / "f.csv"
        emit_report(rep, path, "csv")
        assert path.read_text() == "x\n0.33333333333333331\n"

    def test_json_round_trip_byte_identical(self):
        rep = run_counterexample(100, 2000, seed=7)
        text = rep.to_json()
        parsed = json.loads(text)
        assert canonical_json(parsed) + "\n" == text

    def test_bad_format(self, tmp_path):
        rep = Report(kind="t", config={}, columns=("a",))
        with pytest.raises(ValueError):
            emit_report(rep, tmp_path / "x", "yaml")

    def test_io_error_has_path(self):
        rep = Report(kind="t", config={}, columns=("a",))
        with pytest.raises(OSError, match="/nonexistent/dir/x.csv"):
            emit_report(rep, "/nonexistent/dir/x.csv", "csv")

    def test_record_drops_arrays_and_lists_tuples(self):
        @dataclass(frozen=True)
        class Result:
            value: float
            count: int
            ok: bool
            witness: np.ndarray
            bracket: tuple
            flags: tuple = ()

        rec = record(Result(0.5, 3, True, np.ones(4), (0.25, 0.75), ("marginal",)))
        assert rec == {"value": 0.5, "count": 3, "ok": True, "bracket": [0.25, 0.75], "flags": ["marginal"]}
        assert canonical_json(rec) == '{"bracket":[0.25,0.75],"count":3,"flags":["marginal"],"ok":true,"value":0.5}'

    def test_wilson_interval(self):
        lo, hi = wilson_interval(90, 100)
        assert 0.82 < lo < 0.9 < hi < 0.95
        assert wilson_interval(0, 10)[0] == 0.0

    @pytest.mark.parametrize("N", [100, 1000, 4096])
    def test_counterexample_exact_deviation_probability(self, N):
        # one spike gives P_N Z^2 = 5 - 1/N, so the deviation event is k >= 1
        from fractions import Fraction

        rep = run_counterexample(N, 200000, seed=12)
        exact = float(1 - (1 - Fraction(1, N * N)) ** N)
        assert rep.summary["analytic_deviation_probability"] == pytest.approx(exact, rel=1e-14)
        row = next(row for row in rep.rows if row["statistic"] == "deviation_probability")
        assert row["ci_low"] <= exact <= row["ci_high"]

    def test_golden_counterexample(self, tmp_path):
        # frozen after the first verified run; byte-level regression guard
        rep = run_counterexample(100, 2000, seed=0x5EED)
        import pathlib

        golden_dir = pathlib.Path(__file__).parent / "golden"
        assert rep.to_csv() == (golden_dir / "counterexample_small.csv").read_text()
        assert rep.to_json() == (golden_dir / "counterexample_small.json").read_text()
