"""Closed-form rate calculators for the persistence problem over l1 balls.

The suppressed constants c1..c3 default to 1 and are configurable;
experiments fit an empirical constant instead of trusting these. Log
arguments at or below 1 clamp the log to 0 and mark the evaluation as a
branch mismatch, since the branch conditions only keep the arguments above 1
up to constants.

Note on v1: the printed branch condition switches constants between the
expression (c1) and the condition; a single constant c1 is used for both
here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass


@dataclass(frozen=True)
class RateInputs:
    """Problem parameters plus the configurable constants c1..c3."""

    N: int
    n: int
    R: float
    sigma: float
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0

    def __post_init__(self):
        if self.N < 1 or self.n < 1:
            raise ValueError("N and n must be positive")
        if not 0 < self.R < math.inf:
            raise ValueError("R must be finite and positive")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and nonnegative")
        for name in ("c1", "c2", "c3"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")


def _clamped_log(arg: float, context: str) -> float:
    if arg <= 1.0:
        warnings.warn(f"{context}: log argument {arg:.6g} <= 1 clamped to 0 (branch mismatch)", RuntimeWarning, stacklevel=3)
        return 0.0
    return math.log(arg)


def rho_N(inputs: RateInputs) -> float:
    """Two-sided-concentration rate: (R^2/sqrt(N)) sqrt(log(2 c1 n / sqrt(N)))
    when N <= c1 n^2, else R^2 n / N. Independent of the noise level."""
    N, n, R, c1 = inputs.N, inputs.n, inputs.R, inputs.c1
    if N <= c1 * n * n:
        arg = 2.0 * c1 * n / math.sqrt(N)
        return (R * R / math.sqrt(N)) * math.sqrt(_clamped_log(arg, "rho_N"))
    return R * R * n / N


def v1_v2(inputs: RateInputs) -> tuple[float, float, float]:
    """Noise-sensitive rate pair (v1, v2) plus the success-probability exponent.

    v1 = (R^2/N) log(2 c1 n / N) for N <= c1 n, else 0.
    v2 = (R sigma / sqrt(N)) sqrt(log(2 c2 n sigma / (sqrt(N) R))) for
         N <= c2 n^2 sigma^2 / R^2, else sigma^2 n / N.
    The exponent is c3 * N * v2 * min(1/sigma^2, 1/R); with sigma = 0 both
    v2 and the exponent are 0.
    """
    N, n, R, sigma = inputs.N, inputs.n, inputs.R, inputs.sigma
    c1, c2, c3 = inputs.c1, inputs.c2, inputs.c3
    if N <= c1 * n:
        v1 = (R * R / N) * _clamped_log(2.0 * c1 * n / N, "v1")
    else:
        v1 = 0.0
    if sigma == 0.0:
        return v1, 0.0, 0.0
    if N <= c2 * n * n * sigma * sigma / (R * R):
        arg = 2.0 * c2 * n * sigma / (math.sqrt(N) * R)
        v2 = (R * sigma / math.sqrt(N)) * math.sqrt(_clamped_log(arg, "v2"))
    else:
        v2 = sigma * sigma * n / N
    exponent = c3 * N * v2 * min(1.0 / (sigma * sigma), 1.0 / R)
    return v1, v2, exponent
