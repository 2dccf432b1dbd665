"""Every demo prints exactly what it printed when its golden file was recorded
(commit 4167733; demos 03 and 07 again when FISTA came to take one matvec per
step and sweep cells came to be keyed on the float64 bits of their grid
values, and demo 03 when L came to start at 2 max_i G_ii, and again when it
came to certify its solve by the Frank-Wolfe gap in place of the grid
oracle, and demo 04 when alpha* came to bisect to 1% like beta* and k*,
demo 06 when the version-space probes came to be projections of gaussians
and of the canonical vectors, demo 08 when it came to print the exact
deviation probability, and demo 04 again when alpha* dropped its
wilson_marginal flag, and demos 02, 03, 04 and 07 when Rademacher signs came
to be read 32 to a drawn word): the demos are deterministic, and their output
is the library's behaviour on the paper's examples."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    assert sorted(p.stem for p in DEMOS) == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_golden_output(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_text()


def test_readme_library_example_runs(tmp_path):
    (example,) = re.findall(r"## Library example\n\n```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", example], capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "vs bound" in proc.stdout
