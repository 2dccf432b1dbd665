"""Form of BENCHMARK.json against the benchmark scripts under bench/.

Checks names and fields only; no timing is read or gated. The bench modules
are loaded in a child interpreter: bench/oracles.py shares its module name
with tests/oracles.py, and importing it here would shadow the test oracles.
The child also imports the package, so that a traced function or a call the
benchmark makes that the package no longer has fails here.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

_PROBE = """
import json, os, tempfile, tracing, workloads
import ermbounds.cli
tracer = tracing.Tracer()
tracer.install()
gap = workloads._own_erm_gap(1, workloads.PR_N_LOW)
tracer.reset()
with tempfile.TemporaryDirectory() as tmp:
    code = ermbounds.cli.run(["beta", "--n", "8", "--N", "32", "--trials", "60", "--set", "design.kind=rademacher", "--output", os.path.join(tmp, "beta.json")])
beta = tracer.snapshot()
print(json.dumps({"workloads": list(workloads.WORKLOADS), "per_layer": tracing.PER_LAYER, "missing": tracer.missing, "erm_gap": gap, "gap_tol": workloads.FW_GAP_TOL, "beta_code": code, "beta_trace": beta}))
"""


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def scripts():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")  # leave bench/ as it is
    proc = subprocess.run([sys.executable, "-c", _PROBE], cwd=BENCH, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_workload_names_match_the_scripts(spec, scripts):
    assert [w["name"] for w in spec["workloads"]] == scripts["workloads"]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and w["why"]


def test_per_layer_names_match_the_tracer(spec, scripts):
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == scripts["per_layer"]
    assert len(spec["per_layer"]) == len(scripts["per_layer"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert m["better"] in ("lower", "higher")


def test_traced_names_exist(scripts):
    assert scripts["missing"] == []


def test_benchmark_erm_call_solves(scripts):
    # _own_erm_gap builds Sample(X, Y, seed) and calls solve_erm(..., tol=)
    assert scripts["erm_gap"] <= scripts["gap_tol"]


def test_tracer_sees_the_fixed_point_searches(scripts):
    # the searches evaluate the support function through the name the tracer
    # wraps, so each evaluation they make is counted
    trace = scripts["beta_trace"]
    assert scripts["beta_code"] == 0
    assert trace["fixed_points.sup_evals"] > 0
    assert trace["fixed_points.sup_evals"] == trace["geometry.support_l1l2_batch.calls"]


def test_end_to_end_entries_are_complete(spec):
    names = [m["name"] for m in spec["end_to_end"]]
    assert names and len(names) == len(set(names))
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert isinstance(m["name"], str) and isinstance(m["unit"], str) and m["unit"]
        assert m["better"] in ("lower", "higher")
        assert isinstance(m["bound"], (int, float)) and m["bound"] > 0


def test_command_and_paths(spec):
    assert spec["command"][-1] == "bench/run.py"
    for path in spec["paths"]:
        assert (ROOT / path).is_dir()
