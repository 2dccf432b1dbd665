import ctypes
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ermbounds import fixed_points, reports
from ermbounds.cli import _NULLABLE, SUBCOMMANDS, build_parser, resolve_config, run
from ermbounds.distributions import NOISE_KINDS, DesignSpec, NoiseSpec
from ermbounds.experiments import MainTheoremConfig, SweepConfig, verify_main_theorem

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(args, cwd, **extra_env):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC)
    env.update(extra_env)
    return subprocess.run([sys.executable, "-m", "ermbounds.cli", *args], capture_output=True, text=True, cwd=cwd, env=env)


class TestHelp:
    def test_help_exits_zero_and_lists_subcommands(self, tmp_path):
        proc = run_cli(["--help"], tmp_path)
        assert proc.returncode == 0
        for sub in SUBCOMMANDS:
            assert sub in proc.stdout

    def test_workers_env_var_documented(self, tmp_path):
        proc = run_cli(["rates", "--help"], tmp_path)
        assert proc.returncode == 0
        assert "ERMBOUNDS_WORKERS" in proc.stdout


    @pytest.mark.parametrize("value", ["abc", "-2", "1.5"])
    def test_bad_workers_env_var_exits_2(self, tmp_path, value):
        # rates starts no threads; beta on a rademacher design does
        for sub, *args in (["rates"], ["beta", "--set", "design.kind=rademacher"]):
            proc = run_cli([sub, *args], tmp_path, ERMBOUNDS_WORKERS=value)
            assert proc.returncode == 2
            assert "ERMBOUNDS_WORKERS" in proc.stderr
            assert repr(value) in proc.stderr
            assert not (tmp_path / f"{sub}_report.json").exists()

    def test_workers_env_var_accepted(self, tmp_path):
        proc = run_cli(["rates", "--output", str(tmp_path / "r.json")], tmp_path, ERMBOUNDS_WORKERS="2")
        assert proc.returncode == 0, proc.stderr


class TestRates:
    def test_values_match_module_examples(self, tmp_path):
        out = tmp_path / "rates.json"
        proc = run_cli(["rates", "--n", "100", "--N", "100", "--R", "1", "--sigma", "0.5", "--output", str(out)], tmp_path)
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        stats = {r["statistic"]: r["value"] for r in payload["rows"]}
        assert stats["rho_N"] == pytest.approx(0.1 * math.sqrt(math.log(20.0)), rel=1e-12)
        assert stats["v1"] == pytest.approx(math.log(2.0) / 100.0, rel=1e-12)
        assert "rho_N" in proc.stdout

    def test_config_echo(self, tmp_path):
        out = tmp_path / "rates.json"
        run_cli(["rates", "--n", "10", "--N", "1000", "--output", str(out)], tmp_path)
        payload = json.loads(out.read_text())
        assert payload["config"]["n"] == 10
        assert payload["config"]["N"] == 1000
        assert payload["config"]["R"] == 1.0  # default echoed
        assert payload["config"]["seed"] == 0x5EED


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path):
        proc = run_cli(["rates", "--config", "does_not_exist.json"], tmp_path)
        assert proc.returncode == 2
        assert "does_not_exist.json" in proc.stderr

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10, "sigmaa": 0.5}))
        proc = run_cli(["rates", "--config", str(cfg)], tmp_path)
        assert proc.returncode == 2
        assert "sigmaa" in proc.stderr

    def test_dotted_key_in_config_file_rejected(self, tmp_path):
        # a file's keys are never split at dots: its objects are nested
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"design.kind": "rademacher"}))
        proc = run_cli(["beta", "--config", str(cfg)], tmp_path)
        assert proc.returncode == 2
        assert "unknown config key 'design.kind'" in proc.stderr

    def test_unknown_override_rejected(self, tmp_path):
        proc = run_cli(["rates", "--set", "bogus=1"], tmp_path)
        assert proc.returncode == 2
        assert "bogus" in proc.stderr

    def test_invalid_json_diagnostic(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        proc = run_cli(["rates", "--config", str(cfg)], tmp_path)
        assert proc.returncode == 2
        assert "line" in proc.stderr

    def test_dotted_override(self, tmp_path):
        out = tmp_path / "beta.json"
        proc = run_cli(
            ["beta", "--n", "4", "--N", "32", "--trials", "30", "--gamma", "1e6", "--set", "design.kind=rademacher", "--output", str(out)],
            tmp_path,
        )
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["design"]["kind"] == "rademacher"


class TestSubcommandRuns:
    def test_counterexample(self, tmp_path):
        out = tmp_path / "ce.json"
        proc = run_cli(["counterexample", "--N", "100", "--trials", "5000", "--output", str(out)], tmp_path)
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        stats = {r["statistic"]: r for r in payload["rows"]}
        assert 0.0 <= stats["deviation_probability"]["value"] <= 1.0
        assert stats["deviation_probability"]["ci_high"] >= stats["deviation_probability"]["value"]
        assert "onesided" in proc.stdout

    def test_erm_csv_output(self, tmp_path):
        out = tmp_path / "erm.csv"
        proc = run_cli(["erm", "--n", "4", "--N", "32", "--format", "csv", "--output", str(out)], tmp_path)
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "statistic,value"

    def test_smallball_estimate(self, tmp_path):
        out = tmp_path / "q.json"
        proc = run_cli(["smallball", "--n", "4", "--u", "0", "--set", "draws=2000", "--output", str(out)], tmp_path)
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        stats = {r["statistic"]: r["value"] for r in payload["rows"]}
        assert stats["q_hat"] == 1.0

    def test_version_space(self, tmp_path):
        out = tmp_path / "vs.json"
        proc = run_cli(["version-space", "--n", "4", "--N", "8", "--set", "probes=100", "--output", str(out)], tmp_path)
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        stats = {r["statistic"]: r["value"] for r in payload["rows"]}
        assert stats["radius_lb"] == 0.0  # full-rank design

    def test_alpha_trivial(self, tmp_path):
        out = tmp_path / "alpha.json"
        proc = run_cli(
            ["alpha", "--n", "4", "--N", "16", "--trials", "600", "--gamma", "1e9", "--delta", "0.1", "--set", "noise.sigma=0", "--set", "noise.kind=zero", "--output", str(out)],
            tmp_path,
        )
        assert proc.returncode == 0

    def test_verify_main_exit_3_on_violated_premise(self, tmp_path):
        # gamma far above the admissible level voids the bound, the coverage
        # criterion fails, and the run must exit 3
        out = tmp_path / "vm.json"
        proc = run_cli(
            [
                "verify-main",
                "--n", "4", "--N", "256", "--trials", "30", "--delta", "0.2",
                "--set", "gamma_override=1e9",
                "--set", "alpha_trials=1000",
                "--set", "beta_trials=30",
                "--set", "tau_draws=2000",
                "--set", "tau_directions=50",
                "--output", str(out),
            ],
            tmp_path,
        )
        assert proc.returncode == 3
        payload = json.loads(out.read_text())
        assert payload["summary"]["passed"] is False

    def test_verify_main_sigma_flag_reaches_noise(self, tmp_path):
        out = tmp_path / "vm.json"
        proc = run_cli(
            [
                "verify-main",
                "--sigma", "3",
                "--n", "4", "--N", "256", "--trials", "30", "--delta", "0.2",
                "--set", "alpha_trials=1000",
                "--set", "beta_trials=30",
                "--set", "tau_draws=2000",
                "--set", "tau_directions=50",
                "--output", str(out),
            ],
            tmp_path,
        )
        assert proc.returncode in (0, 3), proc.stderr
        config = json.loads(out.read_text())["config"]
        assert config["noise"]["sigma"] == 3.0
        assert "sigma" not in config

    def test_verify_main_defaults_flag_vacuous_bound(self, tmp_path):
        # at the defaults beta_star stops at its upper bracket, so the bound
        # exceeds the class diameter 2R; passed and the exit code are unchanged
        out = tmp_path / "vm.json"
        proc = run_cli(["verify-main", "--output", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        summary = payload["summary"]
        assert summary["bound"] >= 2.0 * payload["config"]["R"]
        assert summary["bound_vacuous"] is True
        assert summary["passed"] is True

    def test_sigma_flag_routing_without_overrides(self):
        config = resolve_config("verify-main", None, None, {"sigma": 3.0})
        assert config["noise"] == {"kind": "gaussian", "sigma": 3.0}
        assert "sigma" not in config
        # rates keeps sigma at the top level, where its schema has it
        assert resolve_config("rates", None, None, {"sigma": 3.0})["sigma"] == 3.0

    def test_seed_recorded_and_deterministic(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = run_cli(["counterexample", "--N", "100", "--trials", "2000", "--seed", "42", "--output", str(out)], tmp_path)
            assert proc.returncode == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["config"]["seed"] == 42


def test_run_function_no_subcommand():
    assert run([]) == 2


# options every subcommand takes; all others set a config key
_COMMON_OPTIONS = {"help", "config", "set", "seed", "output", "format"}


def _subparsers():
    (action,) = [a for a in build_parser()._actions if a.dest == "subcommand"]
    return action.choices


def test_every_value_flag_is_a_schema_key():
    subparsers = _subparsers()
    assert sorted(subparsers) == sorted(SUBCOMMANDS)
    for sub, sp in subparsers.items():
        for action in sp._actions:
            if not action.option_strings or action.dest in _COMMON_OPTIONS:
                continue
            # a routed flag sets a nested key of the schema instead
            head = SUBCOMMANDS[sub].routes.get(action.dest, action.dest).split(".")[0]
            assert head in SUBCOMMANDS[sub].defaults, f"{sub} --{action.dest}"


def test_counterexample_rejects_n(tmp_path, capsys):
    # the counterexample has no dimension n: the flag used to be accepted,
    # echoed into the report and ignored
    out = tmp_path / "ce.json"
    for extra in ([], ["--set", "trials=300"]):
        with pytest.raises(SystemExit) as exc:
            run(["counterexample", "--n", "5", "--trials", "200", *extra, "--output", str(out)])
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err
    assert not out.exists()


def test_persistence_trials_flag_sets_trials():
    # persistence has a trials key, so it gets the flag like every other such
    # subcommand; it sets the same key as --set trials=
    args = build_parser().parse_args(["persistence", "--trials", "3"])
    assert args.trials == 3
    assert resolve_config("persistence", None, None, {"trials": args.trials}) == resolve_config("persistence", None, ["trials=3"], {})


def test_worker_flag_never_changes_report_bytes(tmp_path):
    outs = []
    for workers, name in ((1, "w1.json"), (3, "w3.json")):
        out = tmp_path / name
        proc = run_cli(["beta", "--n", "8", "--N", "32", "--trials", "60", "--set", "design.kind=rademacher", "--output", str(out)], tmp_path, ERMBOUNDS_WORKERS=str(workers))
        assert proc.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


_SMALL_RUNS = {
    "alpha": ["--n", "8", "--N", "32", "--trials", "500", "--set", "design.kind=student_t", "--set", "design.p=4", "--set", "noise.kind=heavy_tailed", "--set", "noise.p=3"],
    "beta": ["--n", "8", "--N", "32", "--trials", "60"],
    "kstar": ["--n", "8", "--N", "32", "--trials", "60"],
    "persistence": ["--trials", "20", "--set", "n_grid=[8]", "--set", "N_grid=[32,64]", "--set", "t0_shape=spike", "--set", "t0_fraction=0.5"],
    "verify-main": ["--n", "4", "--N", "64", "--trials", "30", "--delta", "0.2", "--set", "alpha_trials=1000", "--set", "beta_trials=30", "--set", "tau_draws=2000", "--set", "tau_directions=50"],
}


@pytest.mark.parametrize("sub", sorted(_SMALL_RUNS))
def test_threaded_subcommands_identical_across_workers(sub, tmp_path, monkeypatch, capsys):
    outs = []
    for workers in ("1", "2", None):
        if workers is None:
            monkeypatch.delenv("ERMBOUNDS_WORKERS", raising=False)
        else:
            monkeypatch.setenv("ERMBOUNDS_WORKERS", workers)
        out = tmp_path / f"{sub}{len(outs)}.json"
        assert run([sub, *_SMALL_RUNS[sub], "--output", str(out)]) in (0, 3)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


# one small run of every subcommand and of every smallball action
_SMALLBALL = ["smallball", "--n", "4", "--set", "directions=40", "--set", "draws=2000"]
_GOLDEN_RUNS = {
    "erm": ["erm", "--n", "8", "--N", "40", "--set", "design.kind=student_t", "--set", "design.p=5", "--set", "noise.kind=heavy_tailed", "--set", "noise.p=3"],
    "beta": ["beta", "--n", "8", "--N", "32", "--trials", "60", "--set", "design.kind=rademacher"],
    "alpha": ["alpha", "--n", "8", "--N", "32", "--trials", "500", "--set", "noise.kind=bounded_symmetric", "--set", "noise.kappa=2"],
    "kstar": ["kstar", "--n", "8", "--N", "32", "--trials", "60", "--set", "design.kind=bounded_uniform"],
    "smallball_estimate_q": [*_SMALLBALL, "--u", "0.3"],
    "smallball_choose_tau": [*_SMALLBALL, "--set", "action=choose_tau"],
    "smallball_moment_ratio": [*_SMALLBALL, "--set", "action=moment_ratio"],
    "smallball_l2_l1": [*_SMALLBALL, "--set", "action=l2_l1"],
    "smallball_verify_counts": [*_SMALLBALL, "--set", "action=verify_counts", "--set", "N=64", "--set", "trials=10", "--set", "probes=20"],
    "version-space": ["version-space", "--n", "8", "--N", "4", "--set", "probes=100", "--set", "t0_shape=flat"],
    # no data: the version space is the whole ball
    "version-space_N0": ["version-space", "--n", "8", "--N", "0", "--set", "probes=100", "--set", "t0_shape=flat"],
    "rates": ["rates", "--n", "50", "--N", "400", "--sigma", "0.3"],
    "persistence": ["persistence", "--set", "n_grid=[8]", "--set", "N_grid=[32,64]", "--set", "sigma_grid=[0.25,0.5]", "--set", "design.kind=student_t", "--set", "design.p=5", "--set", "noise.kind=heavy_tailed", "--set", "noise.p=3"],
    "counterexample": ["counterexample", "--N", "100", "--trials", "2000"],
    "verify-main": ["verify-main", *_SMALL_RUNS["verify-main"]],
}
# sha256 of each run's report, recorded at commit 4167733; erm, persistence
# and verify-main re-recorded when FISTA came to take one matvec per step
# with a checked step size, and sweep cells came to be keyed on the float64
# bits of their grid values, and again when L came to start at 2 max_i G_ii;
# the persistence and verify-main JSON re-recorded when they came to echo the
# CLI config, which replays, in place of the library's record;
# smallball_verify_counts re-recorded when its Q estimate came to use the
# run's directions and draws, and kstar's JSON when its run stopped setting
# design.kappa, a key the bounded_uniform law never read; verify-main's JSON
# when alpha came to draw gaussian noise's mean square as one chi-square a
# trial (only the alpha stderr moved); alpha and verify-main's JSON when alpha
# came to bisect to 1% like beta and kstar instead of scanning a ratio-1.1 grid;
# version-space when its probes came to be projections of gaussians and of the
# canonical vectors on the null space, counterexample when it came to
# report its exact deviation probability, and verify-main when its gaussian
# ERM trials came to draw their moments from their law and its summary gained
# error_q and slack; alpha's JSON when its estimate dropped the
# wilson_marginal flag; erm, alpha, beta, kstar and persistence when
# random_signs came to draw 32 signs per word; version-space_N0 recorded
# when its empty design came to be drawn by sample_design; beta and kstar
# when the Z rows of their rademacher and bounded_uniform designs came to sum
# each sample without drawing Rademacher signs
_GOLDEN_DIGESTS = {
    ("erm", "json"): "7df6b3add900b32131410024179e14be8f43032f1c15d91a6acc63f875d3d1ae",
    ("erm", "csv"): "1e4253266a983ccc42852e461c39c1471c1a24397f1ef32b9b13bcf21e8dafa7",
    ("beta", "json"): "f59e4aef8df28a6bd4d5233beaaa4340192d195a81bbec598433b10efe021dd3",
    ("beta", "csv"): "b9be94a6e69d927bdf0c251c03a72bf3e792777afc859fcb6dbc3433c6bfe1c0",
    ("alpha", "json"): "5f3312273fa4ca14bc8bc0b24b42c0d5b8a8cc18ff06ce4a41fa5127047ead3e",
    ("alpha", "csv"): "919ce22ff226fa7a065d495e32dde3bde67be3f8d5e30ec9aa306e2a68e97fee",
    ("kstar", "json"): "991b5f5d6ba688264655817bac1361e0a3b5368324a503e3dd8e0731b7b726a1",
    ("kstar", "csv"): "71bc63d0ac6748280d62035bf38805945538494bd7227fba746a4d5b78dca534",
    ("smallball_estimate_q", "json"): "0ccf14563d64a0b550dc01f0b18b004dbf67f9bb938af4d2bc7c63ae605af26e",
    ("smallball_estimate_q", "csv"): "59a9c0c33872099412fd1ab0f444a3a248d4a4e7944c6f50d57f41ab967d1c9e",
    ("smallball_choose_tau", "json"): "71a5676e28aac24ee19f205715559f2d193a9bcfcd41cc9387e73d4443a7cb69",
    ("smallball_choose_tau", "csv"): "114c2c39d1a3f698d69c6013f374359341a5adcb709a008c57cabe7d34bf4a75",
    ("smallball_moment_ratio", "json"): "b75e53914a0352edf5d0f3fc6d63619842063ac61221b5708254fc114b6baf61",
    ("smallball_moment_ratio", "csv"): "8ba80145beb40ca6ec2da777ebb4b5b12eec8d4172c2a17fb8b34ec86009b4b7",
    ("smallball_l2_l1", "json"): "fbd0ed3c40dcdad8325aa1aedf0ace6c49aa35eacc317d1bee79adac850ad81c",
    ("smallball_l2_l1", "csv"): "3c876441af0e1b628c4f078d41e5a50c0402b25f44430caae5150cc187b39850",
    ("smallball_verify_counts", "json"): "8f2f82e878ca905b5fda5ed192dd40b27dc97c504c1bccd3596bcb3b756d23a5",
    ("smallball_verify_counts", "csv"): "701882a4ec06b08c7b00a8a6484a34b2678bcd7314c887f888e498d7e1192ca4",
    ("version-space", "json"): "56708884bd561d7334ca4ca11f383cec2a9efdf741074e1dab534ec67cb1adb4",
    ("version-space", "csv"): "7a6524fe885a29b6c4e3c0916b25edaaffac765c5cf11998c24a9d8572fb08b9",
    ("version-space_N0", "json"): "7d9996414425b6154207d711ba6c40cdc41367638d156aca4c1858007b625033",
    ("version-space_N0", "csv"): "a3e7321f6c9bdaae9e0239b0d75c02e0b5047b2f3b0dcb0fb09653c042f56644",
    ("rates", "json"): "7f168238d4fecae6ec34365a2837356bead303c741ae8cf8449f5bb6f28637c0",
    ("rates", "csv"): "d7563770135a369b17eb33f9227a9f17951a8e4de323c51e824103ba08b32304",
    ("persistence", "json"): "011611ada37b437b7a2074ac9b8247035aaf6a88a59982dd4cf25c0ac75089ce",
    ("persistence", "csv"): "8e05a3aaae4c49733b52001f8b4169688ac7a4b0b173e0496a399ca0c4d2b855",
    ("counterexample", "json"): "cb255f6158c6895e14a830a7d3aeeb321cf10697263edd347e0c2cd6f0b58f9b",
    ("counterexample", "csv"): "c146ec6c423a84ac00c0b23c181344bcf7cbd0954b2230c9fc6bc83e51cb91e2",
    ("verify-main", "json"): "6244738bf518c9404b668a437a5e8dcb270ead977e9d862d4a485318d6944716",
    ("verify-main", "csv"): "885bdba176d452600af975ca6a7b6bbb21b834171f9059360e2873e704598915",
}


def test_cli_runs_without_scipy(tmp_path):
    # scipy serves only the tests' reference oracles: importing the CLI,
    # running every subcommand and taking l21_norm of every noise kind must
    # leave it unloaded
    assert {argv[0] for argv in _GOLDEN_RUNS.values()} == set(SUBCOMMANDS)
    script = (
        "import json, sys\n"
        "import ermbounds\n"
        "from ermbounds import cli\n"
        "from ermbounds.distributions import NOISE_KINDS, NoiseSpec, l21_norm\n"
        "runs, out = json.loads(sys.argv[1]), sys.argv[2]\n"
        "codes = [cli.run([*argv, '--output', f'{out}/{name}.json']) for name, argv in sorted(runs.items())]\n"
        "norms = [l21_norm(NoiseSpec(kind, sigma=0.5, p=3.0, kappa=2.0)) for kind in NOISE_KINDS]\n"
        "print(json.dumps({'codes': codes, 'norms': norms, 'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(_GOLDEN_RUNS), str(tmp_path)], capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(_GOLDEN_RUNS)
    assert len(result["norms"]) == len(NOISE_KINDS) and all(math.isfinite(x) for x in result["norms"])
    assert result["scipy"] == []


@pytest.mark.parametrize("name, fmt", sorted(_GOLDEN_DIGESTS))
def test_report_bytes_match_golden_digests(name, fmt, tmp_path):
    out = tmp_path / f"report.{fmt}"
    assert run([*_GOLDEN_RUNS[name], "--format", fmt, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_DIGESTS[name, fmt]


@pytest.mark.parametrize("name", ["alpha", "beta", "kstar"])
def test_bisection_scans_each_radius_once(name, monkeypatch, tmp_path):
    # the bisection keeps each radius's suprema, and its reports keep their bytes
    radii = []
    sup_batch = fixed_points.support_l1l2_batch
    monkeypatch.setattr(fixed_points, "support_l1l2_batch", lambda rows, rho, r: radii.append(r) or sup_batch(rows, rho, r))
    out = tmp_path / "report.json"
    assert run([*_GOLDEN_RUNS[name], "--output", str(out)]) == 0
    assert len(radii) == len(set(radii)) > 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_DIGESTS[name, "json"]


def test_verify_counts_estimates_q_with_its_directions_and_draws(tmp_path):
    # verify_counts compares counts against N*Q_hat(2 tau)/4, with Q_hat the
    # estimate_q action's at u = 2 tau for the same seed, directions and draws
    common = ["smallball", "--n", "4", "--seed", "9", "--set", "directions=7", "--set", "draws=1000"]
    q_hats = {}
    for action, extra in (("verify_counts", ["--set", "tau=0.4", "--set", "N=64", "--set", "trials=5", "--set", "probes=5"]), ("estimate_q", ["--u", "0.8"])):
        out = tmp_path / f"{action}.json"
        assert run([*common, "--set", f"action={action}", *extra, "--output", str(out)]) in (0, 3)
        summary = json.loads(out.read_text())["summary"]
        q_hats[action] = (summary["result"] if action == "verify_counts" else summary["estimate"])["q_hat"]
    assert q_hats["verify_counts"] == q_hats["estimate_q"]


@pytest.mark.parametrize(
    "setting, message",
    [
        ("tau=-1", "tau must be nonnegative"),
        ("trials=0", "trials must be positive"),
        ("probes=-1", "probes must be nonnegative"),
        ("r=2.5", "r exceeds the diameter"),  # R = 1
        ("N=0", "N must be at least 1"),
    ],
)
def test_verify_counts_checks_inputs_before_estimating_q(setting, message, tmp_path, capsys, monkeypatch):
    from ermbounds import cli

    def estimate(*args, **kwargs):
        raise AssertionError("estimate_Q ran")

    monkeypatch.setattr(cli, "estimate_Q", estimate)
    out = tmp_path / "counts.json"
    assert run(["smallball", "--set", "action=verify_counts", "--set", setting, "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "sub, extra",
    [
        ("counterexample", ["--N", "100", "--trials", "2000"]),
        ("erm", ["--n", "8", "--N", "40"]),
        # every subcommand and smallball action at the golden runs' sizes; the
        # cases added last keep the earlier cases' ids
        *((_GOLDEN_RUNS[name][0], _GOLDEN_RUNS[name][1:]) for name in [*sorted(set(_GOLDEN_RUNS) - {"persistence", "verify-main", "version-space_N0"}), "persistence", "verify-main"]),
        # a sweep echoes the design and noise objects as set, null sub-keys included
        ("persistence", ["--set", "n_grid=[8]", "--set", "N_grid=[32]", "--set", "noise.kind=bounded_symmetric", "--set", "noise.kappa=2", "--set", "design.p=null"]),
        ("version-space", _GOLDEN_RUNS["version-space_N0"][1:]),
    ],
)
def test_echoed_config_reproduces_the_report(sub, extra, tmp_path):
    # a report's config, passed back as --config, names its seed too
    first = tmp_path / "first.json"
    assert run([sub, *extra, "--seed", "77", "--output", str(first)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(json.loads(first.read_text())["config"]))
    again = tmp_path / "again.json"
    assert run([sub, "--config", str(config), "--output", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


def test_library_verify_main_report_replays(tmp_path):
    # a library report's config, passed to the CLI as --config, gives the same bytes
    cfg = MainTheoremConfig(design={"kind": "student_t", "p": 5}, noise={"kind": "heavy_tailed", "sigma": 0.5, "p": 3}, n=4, N=64, trials=30, delta=0.2, alpha_trials=1000, beta_trials=30, tau_draws=2000, tau_directions=50, seed=77)
    report = verify_main_theorem(cfg)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(report.config))
    out = tmp_path / "vm.json"
    assert run(["verify-main", "--config", str(config), "--output", str(out)]) in (0, 3)
    assert out.read_text() == report.to_json()


def test_verify_main_defaults_are_the_library_defaults(tmp_path):
    report = verify_main_theorem(MainTheoremConfig())
    for fmt, text in (("json", report.to_json()), ("csv", report.to_csv())):
        out = tmp_path / f"vm.{fmt}"
        assert run(["verify-main", "--format", fmt, "--output", str(out)]) == 0
        assert out.read_text() == text


def test_seed_precedence(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 5}))

    def report(*args):
        out = tmp_path / "ce.json"
        assert run(["counterexample", "--N", "100", "--trials", "2000", *args, "--output", str(out)]) == 0
        return out.read_bytes()

    assert json.loads(report("--config", str(config)))["config"]["seed"] == 5
    assert report("--config", str(config), "--set", "seed=6") == report("--seed", "6")
    assert json.loads(report("--config", str(config), "--set", "seed=6", "--seed", "7"))["config"]["seed"] == 7


@pytest.mark.parametrize("value", ["-1", "1.5", "abc", "true"])
def test_bad_seed_in_config_exits_2(value, tmp_path, capsys):
    out = tmp_path / "ce.json"
    assert run(["counterexample", "--N", "100", "--trials", "200", "--set", f"seed={value}", "--output", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_bad_seed_flag_exits_2(tmp_path, capsys):
    # rates draws nothing, so only the config check can refuse the seed
    out = tmp_path / "rates.json"
    assert run(["rates", "--seed", "-1", "--output", str(out)]) == 2
    assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_colliding_sweep_grid_exits_2(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run(["persistence", "--set", "n_grid=[8]", "--set", "N_grid=[32]", "--set", "R_grid=[1.0,1.0]", "--output", str(out)]) == 2
    assert "R_grid values 1.0 and 1.0" in capsys.readouterr().err
    assert not out.exists()


def test_missing_output_directory_exits_2(tmp_path):
    out = tmp_path / "missing" / "r.json"
    proc = run_cli(["rates", "--output", str(out)], tmp_path)
    assert proc.returncode == 2
    assert "config error" in proc.stderr and "does not exist" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.parent.exists()


@pytest.mark.parametrize("name", ["rates", "persistence", "verify-main"])
def test_missing_output_directory_is_found_before_the_run(name, tmp_path, monkeypatch):
    # the handler, which holds the whole run, is never called
    calls = []
    monkeypatch.setitem(SUBCOMMANDS, name, dataclasses.replace(SUBCOMMANDS[name], handler=calls.append))
    out = tmp_path / "missing" / "r.json"
    assert run([name, "--output", str(out)]) == 2
    assert calls == []
    assert not out.parent.exists()
    # nor when the output names an existing directory
    assert run([name, "--output", str(tmp_path)]) == 2
    assert calls == []


def test_failed_report_write_exits_2(tmp_path, capsys, monkeypatch):
    # the path passes the pre-run checks, but opening it fails
    def refuse(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(reports, "open", refuse, raising=False)
    assert run(["rates", "--output", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "failed writing report" in err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_erm_iteration_cap_below_one_exits_2(value, tmp_path):
    out = tmp_path / "erm.json"
    proc = run_cli(["erm", "--set", f"max_iter={value}", "--output", str(out)], tmp_path)
    assert proc.returncode == 2
    assert "max_iter" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "args, field",
    [
        (["--trials", "0"], "trials"),
        (["--N", "0"], "N"),
        (["--set", "beta_trials=0"], "beta_trials"),
        (["--set", "tol=0"], "tol"),
        (["--delta", "0"], "delta"),
        # alpha runs at delta/4 = 0.025, which needs ceil(50/0.025) trials
        (["--set", "alpha_trials=10"], "need at least 2000 trials"),
        # the design and noise specs are built before any stage
        (["--set", "design.kind=bogus"], "unknown design kind 'bogus'"),
        (["--set", "noise.kind=heavy_tailed"], "heavy_tailed noise requires a finite p > 2"),
    ],
)
def test_verify_main_bad_config_exits_2_before_any_stage(args, field, tmp_path, capsys, monkeypatch):
    from ermbounds import experiments

    def stage(*args, **kwargs):
        raise AssertionError("a Monte Carlo stage ran")

    for name in ("choose_tau", "alpha_star", "beta_star", "solve_erms"):
        monkeypatch.setattr(experiments, name, stage)
    out = tmp_path / "vm.json"
    assert run(["verify-main", *args, "--output", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, key",
    [
        # a design or noise object takes only the sub-keys its spec reads
        (["erm", "--set", "design.sigma=1"], "'design.sigma'"),
        (["erm", "--set", "noise.n=3"], "'noise.n'"),
        (["persistence", "--set", "noise.sigma=3"], "'noise.sigma'"),  # its sigma comes from sigma_grid
        (["verify-main", "--set", "design.n=5"], "'design.n'"),  # n is a top-level key
        # a value takes its default's JSON type
        (["erm", "--set", "n=abc"], "'n'"),
        (["erm", "--set", "N=true"], "'N'"),
        (["erm", "--set", "N=128.0"], "'N'"),
        (["alpha", "--set", "gamma=abc"], "'gamma'"),
        (["alpha", "--set", "delta=false"], "'delta'"),
        (["erm", "--set", "t0_shape=3"], "'t0_shape'"),
        (["persistence", "--set", "N_grid=512"], "'N_grid'"),
        (["alpha", "--set", "noise=0.5"], "'noise'"),
        (["verify-main", "--set", "noise.sigma=[1]"], "'noise.sigma'"),
        (["smallball", "--set", "action=null"], "'action'"),
        # a key whose default is None takes null or its annotated type
        (["verify-main", "--set", "gamma_override=abc"], "'gamma_override'"),
        (["verify-main", "--set", "alpha_trials=true"], "'alpha_trials'"),
        (["verify-main", "--set", "alpha_trials=2000.5"], "'alpha_trials'"),
        (["erm", "--set", "noise.kind=heavy_tailed", "--set", "noise.p=abc"], "'noise.p'"),
        (["alpha", "--set", "design.kind=student_t", "--set", "design.p=abc"], "'design.p'"),
        (["kstar", "--set", "design.kind=student_t", "--set", "design.p=abc"], "'design.p'"),
        (["kstar", "--set", "design.kind=bounded_uniform", "--set", "design.kappa=true"], "'design.kappa'"),
        (["persistence", "--set", "noise.kind=bounded_symmetric", "--set", "noise.kappa=abc"], "'noise.kappa'"),
        # a number must be finite, a flag's or a nullable key's too
        (["beta", "--set", "gamma=NaN"], "config key 'gamma' must be a finite number"),
        (["alpha", "--set", "gamma=NaN"], "config key 'gamma' must be a finite number"),
        (["smallball", "--u", "nan"], "config key 'u' must be a finite number"),
        (["rates", "--sigma", "inf"], "config key 'sigma' must be a finite number"),
        (["verify-main", "--set", "gamma_override=Infinity"], "config key 'gamma_override' must be a finite number"),
        (["alpha", "--set", "design.kind=student_t", "--set", "design.p=-Infinity"], "config key 'design.p' must be a finite number"),
        (["persistence", "--set", "R_grid=[1.0,NaN]"], "R_grid entries must be finite numbers, got nan"),
        (["persistence", "--set", "sigma_grid=[Infinity]"], "sigma_grid entries must be finite numbers, got inf"),
        # a t0 shape is checked even where its fraction makes t0 zero
        (["erm", "--set", "t0_shape=bogus", "--set", "t0_fraction=0"], "unknown t0 shape 'bogus'"),
        # a nullable key is known only where its subcommand has it; the cases
        # added last keep the earlier cases' ids
        (["erm", "--set", "alpha_trials=5"], "unknown config key 'alpha_trials'"),
        (["rates", "--set", "gamma_override=1"], "unknown config key 'gamma_override'"),
    ],
)
def test_bad_config_value_exits_2(args, key, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run([*args, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["erm", "--n", "0"], "dimension n must be positive"),
        (["alpha", "--n", "0"], "dimension n must be positive"),
        (["version-space", "--n", "0"], "dimension n must be positive"),
        (["version-space", "--N", "-1"], "sample size N must be nonnegative"),
        # each would average over no samples and report a NaN
        (["smallball", "--set", "action=verify_counts", "--set", "trials=0"], "trials must be positive"),
        (["smallball", "--set", "action=moment_ratio", "--set", "draws=0"], "draws must be positive"),
        (["smallball", "--set", "action=l2_l1", "--set", "draws=0"], "draws must be positive"),
        # probes=0 is valid (the n canonical directions); a negative count is not
        (["smallball", "--set", "action=verify_counts", "--set", "probes=-1"], "probes must be nonnegative"),
        # a sweep's sizes are integers and its R and sigma numbers, not booleans
        (["persistence", "--set", "n_grid=[8.0]"], "n_grid entries must be integers, got 8.0"),
        (["persistence", "--set", "n_grid=[1.5]"], "n_grid entries must be integers, got 1.5"),
        (["persistence", "--set", "n_grid=[true]"], "n_grid entries must be integers, got True"),
        (["persistence", "--set", "n_grid=[8]", "--set", "N_grid=[16.5]"], "N_grid entries must be integers, got 16.5"),
        (["persistence", "--set", "R_grid=[true]"], "R_grid entries must be numbers, got True"),
        (["persistence", "--set", "sigma_grid=[true]"], "sigma_grid entries must be numbers, got True"),
        # a negative version-space probe count is refused like the small-ball one
        (["version-space", "--set", "probes=-5"], "probes must be nonnegative"),
    ],
)
def test_bad_size_exits_2(args, message, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run([*args, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "setting, message",
    [
        # one rademacher draw is 0 on (e1 - e2)/sqrt(2) with probability 1/2,
        # so a moment ratio over one draw can read 0/0
        ("draws=1", "draws must be positive and at least 1000, got 1"),
        ("directions=-1", "directions must be nonnegative, got -1"),
    ],
)
@pytest.mark.parametrize("action", ["estimate_q", "choose_tau", "moment_ratio", "l2_l1", "verify_counts"])
def test_probe_sizes_checked_before_drawing(action, setting, message, fmt, tmp_path, capsys):
    out = tmp_path / f"report.{fmt}"
    assert run(["smallball", "--n", "2", "--set", "design.kind=rademacher", "--set", f"action={action}", "--set", setting, "--format", fmt, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_bad_value_in_config_file_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trials": "20"}))
    out = tmp_path / "ce.json"
    assert run(["counterexample", "--config", str(config), "--output", str(out)]) == 2
    assert "'trials' must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_config_value_types_accepted():
    # a number default takes an int; a None default takes null or its annotated type
    assert resolve_config("erm", None, ["R=2"], {})["R"] == 2
    config = resolve_config("verify-main", None, ["gamma_override=1", "alpha_trials=3000", "design.p=5", "noise.kappa=2"], {})
    assert (config["gamma_override"], config["alpha_trials"]) == (1, 3000)
    assert config["design"] == {"kind": "gaussian", "p": 5}
    assert config["noise"] == {"kind": "gaussian", "sigma": 0.5, "kappa": 2}
    config = resolve_config("verify-main", None, ["gamma_override=null", "alpha_trials=null", "design.p=null"], {})
    assert config["gamma_override"] is config["alpha_trials"] is config["design"]["p"] is None


@pytest.mark.parametrize(
    "whole, dotted",
    [
        # an object given with --set merges into the current one, as in a config file
        (["--set", "design={}"], []),
        (["--set", "noise={}"], []),
        (["--set", 'design={"kind":"rademacher"}'], ["--set", "design.kind=rademacher"]),
        (["--set", 'noise={"kind":"heavy_tailed","p":3}'], ["--set", "noise.kind=heavy_tailed", "--set", "noise.p=3"]),
    ],
)
def test_object_override_merges(whole, dotted, tmp_path):
    outs = []
    for args in (whole, dotted):
        out = tmp_path / f"erm{len(outs)}.json"
        assert run(["erm", "--n", "8", "--N", "40", *args, "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_object_override_merges_like_a_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"noise": {"kind": "heavy_tailed", "p": 3}}))
    resolved = resolve_config("erm", str(config), ['noise={"sigma":0.25}'], {})
    assert resolved["noise"] == {"kind": "heavy_tailed", "sigma": 0.25, "p": 3}


def test_persistence_defaults_are_the_sweep_config_fields():
    defaults = SUBCOMMANDS["persistence"].defaults
    assert SweepConfig(**{key: tuple(value) if isinstance(value, list) else value for key, value in defaults.items()}) == SweepConfig()
    # every field but seed is a key
    assert set(defaults) == {f.name for f in dataclasses.fields(SweepConfig)} - {"seed"}
    # "design" and "noise" take every DesignSpec keyword but n and every
    # NoiseSpec keyword but sigma, which come from n_grid and sigma_grid;
    # the None ones are the nullable sub-keys
    assert set(defaults["design"]) | set(_NULLABLE["design"]) == {f.name for f in dataclasses.fields(DesignSpec)} - {"n"}
    assert set(defaults["noise"]) | set(_NULLABLE["noise"]) == {f.name for f in dataclasses.fields(NoiseSpec)} - {"sigma"}


def test_verify_main_defaults_are_the_main_theorem_config_fields():
    defaults = SUBCOMMANDS["verify-main"].defaults
    assert MainTheoremConfig(**defaults) == MainTheoremConfig()
    assert set(defaults) == {f.name for f in dataclasses.fields(MainTheoremConfig)} - {"seed"}
    # "design" takes every DesignSpec keyword but n, a top-level key, and
    # "noise" every NoiseSpec keyword
    assert set(defaults["design"]) | set(_NULLABLE["design"]) == {f.name for f in dataclasses.fields(DesignSpec)} - {"n"}
    assert set(defaults["noise"]) | set(_NULLABLE["noise"]) == {f.name for f in dataclasses.fields(NoiseSpec)}


@pytest.mark.parametrize("value", ["0", "-5"])
def test_persistence_iteration_cap_below_one_exits_2(value, tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run(["persistence", "--set", "n_grid=[8]", "--set", "N_grid=[32]", "--set", f"max_iter={value}", "--output", str(out)]) == 2
    assert "max_iter must be at least 1" in capsys.readouterr().err
    assert not out.exists()


_MAPPED_BLOCKS_AFTER_A_RUN = """
import ctypes, json, sys
import numpy as np
from ermbounds.cli import run

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Mallinfo2
code = run(["rates", "--output", sys.argv[1]])
big = np.ones(2**20)
del big
mapped = mallinfo2().hblks
block = np.ones(2**19)
with_block = mallinfo2().hblks
del block
print(json.dumps({"code": code, "mapped": mapped, "with_block": with_block, "after": mallinfo2().hblks}))
"""


def test_large_arrays_stay_mapped_after_a_run(tmp_path):
    # glibc would raise its mmap threshold past 4 MiB on freeing the 8 MiB
    # block and serve the next 4 MiB array from the heap. The check runs in
    # a fresh interpreter: in this one, heap chunks that earlier tests freed
    # could serve the block whatever the threshold
    if getattr(ctypes.CDLL(None), "mallinfo2", None) is None:
        pytest.skip("needs glibc's mallinfo2")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run([sys.executable, "-c", _MAPPED_BLOCKS_AFTER_A_RUN, str(tmp_path / "r.json")], capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    blocks = json.loads(proc.stdout.splitlines()[-1])
    assert blocks["code"] == 0
    assert blocks["with_block"] == blocks["mapped"] + 1
    assert blocks["after"] == blocks["mapped"]
