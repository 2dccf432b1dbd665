"""Benchmark of the ermbounds CLI: per-operation wall time, set-up time and
peak memory, with a traced run that splits the time by module.

    python3 bench/run.py --workload verify_main --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload verify_main --seed 1 --seconds 10 --trace 1
    python3 bench/run.py --smoke

One run imports the package from `src/`, does one warm-up operation, then
repeats the workload's operation (a fixed list of in-process
`ermbounds.cli.run(argv)` calls) until `--seconds` have passed, and checks
every report. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}. The line before it records
the machine, the versions and the per-operation times.
"""

from __future__ import annotations

import os

# One BLAS thread: with OpenBLAS's default of one per core, op times spread
# several times wider on a 2-core machine. Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import io
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3  # fresh interpreters per run; setup_s is their median
IMPORTTIME_REPS = 3
CHILD_TIMEOUT_S = 60

END_TO_END = {"op_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_probe(workload: str, seed: int) -> None:
    """Body of one set-up child: import the CLI and build the workload's inputs."""
    from ermbounds import cli

    parser = cli.build_parser()
    for _, argv in workloads.WORKLOADS[workload].commands(workloads.cli_seed(seed, workload)):
        parser.parse_args(argv)


def measure_setup(workload: str, seed: int, reps: int) -> float:
    """Median seconds from spawning a fresh interpreter to its exit after `setup_probe`."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(argv, env=_child_env(), check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_imports(reps: int) -> tuple[float, float]:
    """Median total and scipy-only import seconds of `import ermbounds.cli` (-X importtime)."""
    totals, scipys = [], []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ermbounds.cli"], env=_child_env(), check=True, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True)
        total = scipy = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$", line)
            if not m:
                continue
            self_us, module = int(m.group(1)), m.group(3).strip()
            total += self_us
            if module == "scipy" or module.startswith("scipy."):
                scipy += self_us
        totals.append(total / 1e6)
        scipys.append(scipy / 1e6)
    return statistics.median(totals), statistics.median(scipys)


def run_op(cli, argvs: list, paths: list) -> tuple[float, list, list]:
    """One operation: every CLI call of the workload, timed as a whole."""
    gc.collect()
    sink = io.StringIO()
    start = time.perf_counter()
    codes = []
    with contextlib.redirect_stdout(sink):
        for argv in argvs:
            try:
                codes.append(cli.run(argv))
            except Exception:  # a crash is a failed op, not the end of the run
                traceback.print_exc()
                codes.append(-1)
    elapsed = time.perf_counter() - start
    return elapsed, codes, [p.read_bytes() if p.exists() else b"" for p in paths]


def measure(workload: str, seed: int, seconds: float, trace: bool, warmup: bool = True, setup_reps: int = SETUP_REPS) -> dict:
    wl = workloads.WORKLOADS[workload]
    cli_seed = workloads.cli_seed(seed, workload)
    workdir = BENCH_DIR / ".work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths, argvs = [], []
        for tag, argv in wl.commands(cli_seed):
            paths.append(workdir / f"{tag}.json")
            argvs.append([*argv, "--format", "json", "--output", str(paths[-1])])

        from ermbounds import cli  # also writes the bytecode caches the set-up children reuse

        metrics = {}
        if trace:
            metrics["setup.import_s"], metrics["setup.import_scipy_s"] = measure_imports(IMPORTTIME_REPS)
        else:
            metrics["setup_s"] = measure_setup(workload, seed, setup_reps)

        tracer = tracing.Tracer() if trace else None
        ops, snapshots = [], []
        if tracer:
            tracer.install()
        try:
            if warmup:
                ops.append(run_op(cli, argvs, paths))
            timed = []
            start = time.perf_counter()
            while True:
                if tracer:
                    tracer.reset()
                timed.append(run_op(cli, argvs, paths))
                if tracer:
                    snapshots.append(tracer.snapshot())
                if time.perf_counter() - start >= seconds:
                    break
        finally:
            if tracer:
                tracer.uninstall()
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops += timed

        reference = ops[0][2]
        try:
            problems = workloads.check_reports(wl, cli_seed, reference)
        except Exception as exc:  # a report the checks cannot read fails them
            traceback.print_exc()
            problems = [f"checks raised {exc!r}"]
        failed = 0
        for _, codes, payloads in ops:
            if problems or any(codes) or payloads != reference:
                failed += 1
        if any(any(codes) for _, codes, _ in ops):
            problems.append(f"exit codes {[codes for _, codes, _ in ops]}")
        if any(payloads != reference for _, _, payloads in ops):
            problems.append("reports of one seed differ between operations")

        op_seconds = [t for t, _, _ in timed]
        if tracer:
            differ = tracing.counts_differ(snapshots)
            if differ:
                problems.append(f"counters differ between operations of one seed: {differ}")
                failed = len(ops)
            metrics.update(tracing.summarize(snapshots, op_seconds))
            units = tracing.PER_LAYER
        else:
            metrics["op_s.p50"] = statistics.median(op_seconds)
            metrics["peak_rss_mb"] = peak_mib
            units = END_TO_END
        info = {
            "workload": workload,
            "seed": seed,
            "cli_seed": cli_seed,
            "trace": int(bool(trace)),
            "op_s": op_seconds,
            "warmup": warmup,
            "checks": problems,
            "missing": tracer.missing if tracer else [],
            "env": environment(),
        }
        return {
            "info": info,
            "result": {
                "correct": not problems,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded into this process."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return found
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                found[os.path.basename(lib)] = int(getattr(handle, sym)())
                break
    return found


def _git_sha():
    """The commit of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
    }


def validate_benchmark_json(path: Path) -> list:
    """Problems with BENCHMARK.json's form and with its names against this script's."""
    spec = json.loads(path.read_text())
    bad = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        bad.append(f"keys {sorted(spec)} != {sorted(keys)}")
        return bad
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        bad.append("run_seconds must be a whole number in [1, 60]")
    if not 1 <= len(spec["paths"]) <= 16 or any(not re.match(r"^[A-Za-z0-9_./-]{1,200}$", p) or p.startswith("/") or ".." in p for p in spec["paths"]):
        bad.append("paths malformed")
    if len(spec["command"]) > 32 or any(len(c) > 200 or c.startswith("/") or ".." in c for c in spec["command"]):
        bad.append("command malformed")
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"]] + [m["name"] for m in spec["per_layer"]]
    bad += [f"bad or repeated name {n!r}" for n in names if not name_re.match(n) or names.count(n) > 1]
    if not 2 <= len(spec["workloads"]) <= 8 or any(set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"] for w in spec["workloads"]):
        bad.append("workloads malformed")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not unit_re.match(m["unit"]) or m["better"] not in ("lower", "higher") or not 0 < m["bound"] <= 0.25:
            bad.append(f"end_to_end entry malformed: {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"} or not unit_re.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            bad.append(f"per_layer entry malformed: {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" or setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        bad.append("setup_s must be present, in s, lower-is-better, with the largest bound")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        bad.append("workload names differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        bad.append("end_to_end names or units differ from the script's")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != tracing.PER_LAYER:
        bad.append("per_layer names or units differ from the script's")
    if len(path.read_bytes()) > 64 * 1024:
        bad.append("BENCHMARK.json exceeds 64 KiB")
    return bad


def smoke() -> int:
    """One operation per workload, untraced and traced, with every check."""
    bad = validate_benchmark_json(ROOT / "BENCHMARK.json")
    for problem in bad:
        print(f"BENCHMARK.json: {problem}")
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            start = time.perf_counter()
            out = measure(name, seed=0, seconds=0, trace=trace, warmup=False, setup_reps=1)
            res = out["result"]
            expect = tracing.PER_LAYER if trace else END_TO_END
            if set(res["metrics"]) != set(expect):
                bad.append(f"{name} trace={int(trace)} emitted {sorted(res['metrics'])}")
            if not res["correct"] or res["failed"]:
                bad.append(f"{name} trace={int(trace)} failed checks: {out['info']['checks']}")
            if out["info"]["missing"]:
                bad.append(f"{name}: traced names missing from the package: {out['info']['missing']}")
            print(f"{name} trace={int(trace)} op_s={out['info']['op_s'][0]:.3f} correct={res['correct']} ({time.perf_counter() - start:.1f} s)", flush=True)
    for problem in bad:
        print(f"SMOKE FAIL: {problem}")
    print("smoke: ok" if not bad else f"smoke: {len(bad)} problem(s)")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one checked operation per workload and mode, and a BENCHMARK.json form check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ermbounds" / "cli.py").is_file():
        print(f"bench: no ermbounds sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": out["info"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
