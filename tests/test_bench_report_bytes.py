"""The benchmark's reports keep their bytes.

Every command of every workload in bench/workloads.py runs once at the CLI
seed of benchmark seed 1, in JSON and in CSV, and each report's sha256 must
match the table below, on every CPU (the default) and on one trial thread:
no report may depend on the number of trial threads. A change that moves a report's bytes makes the
benchmark time different work, so it must re-pin the table and say why. The
commands run in a child interpreter with cwd bench/ and one BLAS thread, as
the benchmark runs them; bench/workloads.py imports bench/oracles.py, which
shares its module name with tests/oracles.py. Nothing under bench/ is
written.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

_RUN = """
import contextlib, hashlib, io, json, os, tempfile, workloads
import ermbounds.cli
digests = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, workload in workloads.WORKLOADS.items():
        for tag, argv in workload.commands(workloads.cli_seed(1, name)):
            for fmt in ("json", "csv"):
                out = os.path.join(tmp, f"{tag}.{fmt}")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = ermbounds.cli.run([*argv, "--format", fmt, "--output", out])
                with open(out, "rb") as f:
                    digests[f"{name}/{tag}.{fmt}"] = [code, hashlib.sha256(f.read()).hexdigest()]
print(json.dumps(digests))
"""

# recorded at commit 572318f
_REPORT_DIGESTS = {
    "verify_main/vm.json": "ee47c7d04b5149f19e182caf577e6d9bae3b0590891d3f8887534750715c595a",
    "verify_main/vm.csv": "b220fcda1a71c15cd21447f31edf564488c1a546f0a738bcd5b3ef64006eeebf",
    "persistence_regimes/persistence.json": "6adedfe880402533c8dc46824aceaee72d708cf43806a2d2e147e8a08a7994ea",
    "persistence_regimes/persistence.csv": "e82800fdf8264fcead3d45a9168693b6114da5b8d99e858e6ee152808b1e0874",
    "heavy_tail_fixed_points/alpha.json": "a5c22bafcb941b7b46aef69e20b146475150d11649aabb502950da7c24dc77dc",
    "heavy_tail_fixed_points/alpha.csv": "a80dd16d54f92504f432b02886d18fce5516f57a929077215c5a74bd9b16c9b7",
    "heavy_tail_fixed_points/beta.json": "f3b9b6a379c8685bc47b31dd95c55cea3b10dc1d3f16c11eda027f30dfd3de76",
    "heavy_tail_fixed_points/beta.csv": "25e82b886765bf9fd6e92a6c7fefd39bc5096a3125cac257b52c5cd4160302f7",
    "version_space_counterexample/version_space.json": "afd0d3882a23f9906b539b41f8f4c2acfb154300633b08e0da6f132140196997",
    "version_space_counterexample/version_space.csv": "45e6aaed32cba7dcb08c0a66698a4f7874dc24a202766f5909b0e3b056e44364",
    "version_space_counterexample/counterexample.json": "c59f11fb52b0e0dd558fa6d270d1cd991bacfbd84b8cf272aa150697ac03c408",
    "version_space_counterexample/counterexample.csv": "37e4f2bedabb927d64e2a607d0c7e42f9ab4c26e252c152ac2f18f98f2b09962",
}


def _check_reports(workers: str) -> None:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", ERMBOUNDS_WORKERS=workers)
    proc = subprocess.run([sys.executable, "-c", _RUN], cwd=ROOT / "bench", env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout.splitlines()[-1])
    assert {name: code for name, (code, _) in reports.items()} == dict.fromkeys(_REPORT_DIGESTS, 0)
    assert {name: digest for name, (_, digest) in reports.items()} == _REPORT_DIGESTS


def test_bench_reports_keep_their_bytes():
    _check_reports("0")


def test_bench_reports_keep_their_bytes_on_one_worker():
    _check_reports("1")
