import json
import math
import os
import subprocess
import sys

import pytest

from ermbounds.cli import SUBCOMMANDS, resolve_config, run

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
        proc = run_cli(["rates"], tmp_path, ERMBOUNDS_WORKERS=value)
        assert proc.returncode == 2
        assert "ERMBOUNDS_WORKERS" in proc.stderr
        assert repr(value) in proc.stderr
        assert not (tmp_path / "rates_report.json").exists()

    def test_workers_env_var_accepted(self, tmp_path):
        proc = run_cli(["rates", "--output", str(tmp_path / "r.json")], tmp_path, ERMBOUNDS_WORKERS="2")
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("value", ["-3", "abc"])
    def test_bad_workers_flag_exits_2(self, tmp_path, value):
        proc = run_cli(["rates", "--workers", value], tmp_path)
        assert proc.returncode == 2
        assert "--workers" in proc.stderr
        assert repr(value) in proc.stderr
        assert not (tmp_path / "rates_report.json").exists()


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
        assert config["resolved"]["noise"]["sigma"] == 3.0
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


def test_worker_flag_never_changes_report_bytes(tmp_path):
    outs = []
    for workers, name in ((1, "w1.json"), (3, "w3.json")):
        out = tmp_path / name
        proc = run_cli(["counterexample", "--N", "100", "--trials", "2000", "--workers", str(workers), "--output", str(out)], tmp_path)
        assert proc.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


_SMALL_RUNS = {
    "alpha": ["--n", "8", "--N", "32", "--trials", "500", "--set", "design.kind=student_t", "--set", "design.p=4", "--set", "noise.kind=heavy_tailed", "--set", "noise.p=3"],
    "beta": ["--n", "8", "--N", "32", "--trials", "60"],
    "kstar": ["--n", "8", "--N", "32", "--trials", "60"],
    "verify-main": ["--n", "4", "--N", "64", "--trials", "30", "--delta", "0.2", "--set", "alpha_trials=1000", "--set", "beta_trials=30", "--set", "tau_draws=2000", "--set", "tau_directions=50"],
}


@pytest.mark.parametrize("sub", sorted(_SMALL_RUNS))
def test_threaded_subcommands_identical_across_workers(sub, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ERMBOUNDS_WORKERS", raising=False)
    outs = []
    for workers in (["--workers", "1"], ["--workers", "2"], []):
        out = tmp_path / f"{sub}{len(outs)}.json"
        assert run([sub, *_SMALL_RUNS[sub], *workers, "--output", str(out)]) in (0, 3)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
