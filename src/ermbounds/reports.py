"""Report objects and CSV/JSON emission.

Emission is deterministic: fixed column order, floats printed with 17
significant digits, canonical JSON (sorted keys, no whitespace), so a report
serializes to identical bytes whenever its contents are identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

SCHEMA_VERSION = 1


def format_value(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def content_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def record(result) -> dict:
    """The report record of a result dataclass: every field but its arrays,
    with tuples as lists."""
    out = {}
    for f in fields(result):
        value = getattr(result, f.name)
        if not isinstance(value, np.ndarray):
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval (z = 1.96) for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    z = 1.96
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


@dataclass
class Report:
    """Tabular results plus the fully-resolved configuration that produced them."""

    kind: str
    config: dict
    columns: tuple
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def add_row(self, **kwargs) -> None:
        unknown = set(kwargs) - set(self.columns)
        if unknown:
            raise ValueError(f"row fields {sorted(unknown)} not in columns")
        self.rows.append({col: kwargs.get(col, "") for col in self.columns})

    def to_json_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "config": self.config,
            "content_hash": content_hash(self.config),
            "columns": list(self.columns),
            "rows": self.rows,
            "summary": self.summary,
        }

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(format_value(row[col]) for col in self.columns))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj()) + "\n"


def emit_report(report: Report, path, fmt: str) -> None:
    """Write the report to path as csv or json."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    payload = report.to_csv() if fmt == "csv" else report.to_json()
    try:
        with open(path, "w", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"failed writing report to {path}: {exc}") from exc
