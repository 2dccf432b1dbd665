"""Per-module timing of ermbounds from outside the package.

`Tracer.install` replaces each traced function under every name the
package's modules bound it to (for example `experiments.choose_tau`,
`cli.choose_tau` and `smallball.choose_tau` for one function), so calls are
caught at each import site without editing the program. Each call records
its wall time; a stack of open calls gives self time (a call's time minus
that of the traced calls it made). A traced name that the package no
longer has is listed in `missing` and its metrics read 0.

Counters that depend only on the inputs (calls, rows, bytes, iterations)
must repeat exactly between runs with the same seed.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (defining module, function): metric prefix "<module>.<function>"
SPANS = (
    ("cli", "resolve_config"),
    ("reports", "emit_report"),
    ("smallball", "choose_tau"),
    ("smallball", "estimate_Q"),
    ("fixed_points", "alpha_star"),
    ("fixed_points", "beta_star"),
    ("geometry", "support_l1l2_batch"),
    ("geometry", "project_l1"),
    ("erm", "solve_erm"),
    ("distributions", "sample_design"),
    ("distributions", "sample_response"),
    ("distributions", "sample_counterexample"),
    ("rng", "substream"),
    ("versionspace", "version_diameter"),
    ("versionspace", "nullspace_basis"),
    ("experiments", "verify_main_theorem"),
    ("experiments", "run_persistence_sweep"),
    ("experiments", "run_counterexample"),
)

PACKAGE = "ermbounds"

# name -> unit; the order is the order of the report
PER_LAYER = {
    "setup.import_s": "s",
    "setup.import_scipy_s": "s",
    "cli.resolve_config.s": "s",
    "reports.emit_report.s": "s",
    "reports.emit_report.bytes": "bytes",
    "smallball.choose_tau.s": "s",
    "smallball.estimate_Q.calls": "count",
    "smallball.estimate_Q.s": "s",
    "smallball.rows_drawn": "count",
    "fixed_points.alpha_star.s": "s",
    "fixed_points.alpha_star.self_s": "s",
    "fixed_points.beta_star.s": "s",
    "fixed_points.beta_star.self_s": "s",
    "fixed_points.sup_evals": "count",
    "geometry.support_l1l2_batch.calls": "count",
    "geometry.support_l1l2_batch.rows": "count",
    "geometry.support_l1l2_batch.s": "s",
    "geometry.project_l1.calls": "count",
    "geometry.project_l1.s": "s",
    "erm.solve_erm.calls": "count",
    "erm.solve_erm.s": "s",
    "erm.iterations": "count",
    "erm.iterations_per_solve": "count/call",
    "erm.converged_per_solve": "ratio",
    "distributions.sample_design.calls": "count",
    "distributions.sample_design.s": "s",
    "distributions.sample_response.calls": "count",
    "distributions.sample_response.s": "s",
    "distributions.coords_drawn": "count",
    "distributions.sample_counterexample.s": "s",
    "rng.substream.calls": "count",
    "rng.substream.s": "s",
    "versionspace.version_diameter.s": "s",
    "versionspace.nullspace_basis.s": "s",
    "versionspace.step_search_s": "s",
    "experiments.verify_main_theorem.self_s": "s",
    "experiments.run_persistence_sweep.self_s": "s",
    "experiments.run_counterexample.self_s": "s",
    "trace.op_s.p50": "s",
}


class Tracer:
    """Aggregated spans and counters for the traced functions of one process."""

    def __init__(self):
        self.missing = []
        self._undo = []
        self.reset()

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)  # outermost calls only, so recursion is not counted twice
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._depth = defaultdict(int)
        self._stack = []  # per open call: seconds spent in traced children

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for short, attr in SPANS:
            home = modules.get(f"{PACKAGE}.{short}")
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(f"{short}.{attr}")
                continue
            for site, mod in modules.items():
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, self._span(f"{short}.{attr}", original, site.rpartition(".")[2]))
        design_spec = getattr(modules.get(f"{PACKAGE}.distributions"), "DesignSpec", None)
        if design_spec is None or not hasattr(design_spec, "sample_coords"):
            self.missing.append("distributions.DesignSpec.sample_coords")
        else:
            self._patch(design_spec, "sample_coords", self._count_coords(design_spec.sample_coords))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn, site: str):
        tracer = self
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            tracer._stack.append(children)
            tracer._depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                tracer._depth[name] -= 1
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer.calls[name] += 1
                tracer.counts[f"{name}@{site}"] += 1
                tracer.self_s[name] += elapsed - children[0]
                if tracer._depth[name] == 0:
                    tracer.busy[name] += elapsed
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _count_coords(self, method):
        tracer = self

        @functools.wraps(method)
        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            tracer.counts["coords"] += out.size
            if tracer._depth["smallball.estimate_Q"]:
                tracer.counts["smallball.rows"] += out.shape[0] if out.ndim else 1
            return out

        return counted

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer values of the calls made since the last reset (times in s)."""
        calls, busy, self_s, counts = self.calls, self.busy, self.self_s, self.counts
        solves = calls["erm.solve_erm"]
        return {
            "cli.resolve_config.s": busy["cli.resolve_config"],
            "reports.emit_report.s": busy["reports.emit_report"],
            "reports.emit_report.bytes": counts["bytes"],
            "smallball.choose_tau.s": busy["smallball.choose_tau"],
            "smallball.estimate_Q.calls": calls["smallball.estimate_Q"],
            "smallball.estimate_Q.s": busy["smallball.estimate_Q"],
            "smallball.rows_drawn": counts["smallball.rows"],
            "fixed_points.alpha_star.s": busy["fixed_points.alpha_star"],
            "fixed_points.alpha_star.self_s": self_s["fixed_points.alpha_star"],
            "fixed_points.beta_star.s": busy["fixed_points.beta_star"],
            "fixed_points.beta_star.self_s": self_s["fixed_points.beta_star"],
            "fixed_points.sup_evals": counts["geometry.support_l1l2_batch@fixed_points"],
            "geometry.support_l1l2_batch.calls": calls["geometry.support_l1l2_batch"],
            "geometry.support_l1l2_batch.rows": counts["support_rows"],
            "geometry.support_l1l2_batch.s": busy["geometry.support_l1l2_batch"],
            "geometry.project_l1.calls": calls["geometry.project_l1"],
            "geometry.project_l1.s": busy["geometry.project_l1"],
            "erm.solve_erm.calls": solves,
            "erm.solve_erm.s": busy["erm.solve_erm"],
            "erm.iterations": counts["erm.iterations"],
            "erm.iterations_per_solve": counts["erm.iterations"] / solves if solves else 0.0,
            "erm.converged_per_solve": counts["erm.converged"] / solves if solves else 0.0,
            "distributions.sample_design.calls": calls["distributions.sample_design"],
            "distributions.sample_design.s": busy["distributions.sample_design"],
            "distributions.sample_response.calls": calls["distributions.sample_response"],
            "distributions.sample_response.s": busy["distributions.sample_response"],
            "distributions.coords_drawn": counts["coords"],
            "distributions.sample_counterexample.s": busy["distributions.sample_counterexample"],
            "rng.substream.calls": calls["rng.substream"],
            "rng.substream.s": busy["rng.substream"],
            "versionspace.version_diameter.s": busy["versionspace.version_diameter"],
            "versionspace.nullspace_basis.s": busy["versionspace.nullspace_basis"],
            # what version_diameter spends outside the null-space basis and the
            # stream set-up: the probe directions and the l1 step search
            "versionspace.step_search_s": self_s["versionspace.version_diameter"],
            "experiments.verify_main_theorem.self_s": self_s["experiments.verify_main_theorem"],
            "experiments.run_persistence_sweep.self_s": self_s["experiments.run_persistence_sweep"],
            "experiments.run_counterexample.self_s": self_s["experiments.run_counterexample"],
        }


def _after_emit(counts, args, kwargs, result) -> None:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if path is not None and os.path.exists(path):
        counts["bytes"] += os.path.getsize(path)


def _after_solve(counts, args, kwargs, result) -> None:
    counts["erm.iterations"] += int(getattr(result, "iterations", 0))
    counts["erm.converged"] += int(bool(getattr(result, "converged", False)))


def _after_support(counts, args, kwargs, result) -> None:
    counts["support_rows"] += len(result)


_AFTER = {
    "reports.emit_report": _after_emit,
    "erm.solve_erm": _after_solve,
    "geometry.support_l1l2_batch": _after_support,
}

COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "bytes", "count/call", "ratio"))


def summarize(snapshots: list, op_seconds: list) -> dict:
    """Median times over the traced operations; counts from the first one."""
    first = snapshots[0]
    out = {}
    for name, value in first.items():
        out[name] = value if name in COUNTS else statistics.median(s[name] for s in snapshots)
    out["trace.op_s.p50"] = statistics.median(op_seconds)
    return out


def counts_differ(snapshots: list) -> list:
    """Counter names whose value is not the same in every snapshot."""
    return [name for name in COUNTS if name in snapshots[0] and len({s[name] for s in snapshots}) > 1]
