"""Samplers for the design and noise distributions, plus norm estimators.

Every design kind is standardized internally so the coordinate law has mean
zero and variance one, which makes a design matrix with iid coordinates an
isotropic random vector: E<X,t>^2 = ||t||_2^2 for every t.

Sampling is deterministic given (spec, seed, trial); see rng.substream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import DESIGN_TAG, NOISE_TAG, substream

DESIGN_KINDS = ("rademacher", "bounded_uniform", "gaussian", "student_t", "symmetrized_pareto")
NOISE_KINDS = ("zero", "scaled_sign", "gaussian", "bounded_symmetric", "heavy_tailed")
# integral_0^inf sqrt(2 Pr(G > x)) dx for a standard gaussian G, the L_{2,1}
# norm of N(0, 1) (adaptive quadrature to infinity, error estimate 6e-14)
GAUSSIAN_L21 = 1.3037853169509233


def random_signs(rng: np.random.Generator, size) -> np.ndarray:
    """Fair +-1 values of the given shape, as float64, 32 to a draw.

    Draws ceil(count/32) words with `rng.integers(0, 2**32, dtype=np.uint32)`
    and reads each word's bits least significant first, a 1 as +1 and a 0 as
    -1. The words of consecutive calls continue one stream of words, so the
    calls draw the values of one call for all of them when every call but
    the last takes a multiple of 32 values (the rest of a last word is
    dropped).
    """
    count = int(np.prod(size))
    words = rng.integers(0, 2**32, size=-(-count // 32), dtype=np.uint32)
    bits = np.unpackbits(words.astype("<u4", copy=False).view(np.uint8), count=count, bitorder="little")
    signs = np.multiply(bits, 2.0)
    signs -= 1.0
    return signs.reshape(size)


def _symmetrized_pareto(rng: np.random.Generator, p: float, size, scale: float) -> np.ndarray:
    """Symmetrized Pareto values with tail index p, scaled to sd `scale`:
    the magnitudes 1 + pareto(p) first, then their signs."""
    x = 1.0 + rng.pareto(p, size=size)
    signs = random_signs(rng, size)
    return scale * signs * x / math.sqrt(p / (p - 2.0))


@dataclass(frozen=True)
class DesignSpec:
    """Coordinate distribution of the design vector X, standardized to variance 1.

    kind            one of DESIGN_KINDS
    n               dimension of X
    p               tail/moment parameter, required (finite, > 2) for student_t and
                    symmetrized_pareto

    bounded_uniform has no parameter: the variance-1 uniform law is
    sqrt(3) U(-1, 1) whatever the width before standardization.
    """

    kind: str
    n: int
    p: float | None = None

    def __post_init__(self):
        if self.kind not in DESIGN_KINDS:
            raise ValueError(f"unknown design kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("dimension n must be positive")
        if self.kind in ("student_t", "symmetrized_pareto"):
            if self.p is None or not 2 < self.p < math.inf:
                raise ValueError(f"{self.kind} requires a finite moment parameter p > 2")

    def sample_coords(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw iid standardized coordinates of the given shape."""
        if self.kind == "rademacher":
            return random_signs(rng, size)
        if self.kind == "bounded_uniform":
            return rng.uniform(-1.0, 1.0, size=size) * math.sqrt(3.0)
        if self.kind == "gaussian":
            return rng.standard_normal(size)
        if self.kind == "student_t":
            return rng.standard_t(self.p, size=size) * math.sqrt((self.p - 2.0) / self.p)
        return _symmetrized_pareto(rng, self.p, size, 1.0)


@dataclass(frozen=True)
class NoiseSpec:
    """Law of the noise W, independent of the design.

    kind ∈ NOISE_KINDS; sigma scales every kind so that ||W||_L2 = sigma
    (for bounded_symmetric, W = sigma*xi with Pr(xi = ±kappa) = 1/(2 kappa^2),
    Pr(xi = 0) = 1 - 1/kappa^2, so the a.s. bound kappa*sigma is a real knob).
    """

    kind: str
    sigma: float = 0.0
    p: float | None = None
    kappa: float | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind != "zero" and not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and nonnegative")
        if self.kind == "heavy_tailed" and (self.p is None or not 2 < self.p < math.inf):
            raise ValueError("heavy_tailed noise requires a finite p > 2 (L_{2,1} diverges otherwise)")
        if self.kind == "bounded_symmetric":
            if self.kappa is None or not 1 <= self.kappa < math.inf:
                raise ValueError("bounded_symmetric requires a finite kappa >= 1")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "zero" or self.sigma == 0.0:
            return np.zeros(size, dtype=np.float64)
        if self.kind == "scaled_sign":
            return self.sigma * random_signs(rng, size)
        if self.kind == "gaussian":
            return self.sigma * rng.standard_normal(size)
        if self.kind == "bounded_symmetric":
            signs = random_signs(rng, size)
            hit = rng.random(size=size) < 1.0 / self.kappa**2
            return self.sigma * self.kappa * signs * hit
        return _symmetrized_pareto(rng, self.p, size, self.sigma)


@dataclass(frozen=True)
class Sample:
    """A realized data set: N design rows plus the N responses."""

    design: np.ndarray
    responses: np.ndarray
    seed: int

    def __post_init__(self):
        if self.design.ndim != 2 or self.responses.ndim != 1:
            raise ValueError("design must be N x n, responses length N")
        if self.design.shape[0] != self.responses.shape[0]:
            raise ValueError("design and responses disagree on N")

    @property
    def N(self) -> int:
        return self.design.shape[0]

    @property
    def n(self) -> int:
        return self.design.shape[1]

    def moments(self) -> Moments:
        """The sample's moments, summed as one block."""
        return _accumulate_moments([(self.design, self.responses)], self.N, np.empty((self.n, self.n)))


@dataclass(frozen=True)
class Moments:
    """Second moments of a sample: G = X^T X / N, b = X^T Y / N, c = Y^T Y / N.

    They are all that squared-loss ERM over a linear class reads, since the
    empirical risk (1/N) sum (<t, X_i> - Y_i)^2 equals t^T G t - 2 b^T t + c.
    """

    G: np.ndarray
    b: np.ndarray
    c: float
    N: int

    def __post_init__(self):
        if self.G.ndim != 2 or self.G.shape[0] != self.G.shape[1] or self.b.shape != (self.G.shape[0],):
            raise ValueError("moments need an n x n G and a length-n b")
        if self.N < 1:
            raise ValueError("N must be positive")
        # a non-finite design entry makes a diagonal entry of G non-finite,
        # and a non-finite response makes c non-finite
        if not (np.all(np.isfinite(self.G)) and np.all(np.isfinite(self.b)) and math.isfinite(self.c)):
            raise ValueError("sample contains non-finite values (or its moments overflow)")

    @property
    def n(self) -> int:
        return self.G.shape[0]


def _accumulate_moments(blocks, N: int, G: np.ndarray) -> Moments:
    """Moments of a sample given as float64 (design rows, responses) blocks,
    summed in order. The Gram is summed and divided by N in the caller's
    n x n float64 buffer G, which the result holds."""
    b = None
    c = 0.0
    # non-finite sums are rejected by Moments, not warned about here
    with np.errstate(invalid="ignore", over="ignore"):
        for X, Y in blocks:
            if b is None:
                np.matmul(X.T, X, out=G)
                b = X.T @ Y
            else:
                G += X.T @ X
                b += X.T @ Y
            c += float(Y @ Y)
        G /= N
    return Moments(G, b / N, c / N, N)


def _sign_moments(blocks, N: int, G: np.ndarray, rows: int) -> Moments:
    """`_accumulate_moments` for +-1 design blocks of `rows` rows (the last
    may be shorter), with the Gram summed in float32.

    The blocks are copied into a float32 group of as many whole blocks as
    stay under _GROUP_BYTES, and each group's Gram is one syrk. A +-1 Gram
    has integer entries of magnitude at most N, so while N <= 2**24 every
    float32 partial sum is exact and G does not depend on the grouping. The
    float32 Gram and each group's product sit in the two halves of G's
    bytes; the Gram is widened into G through one copy.
    """
    n = G.shape[0]
    halves = G.reshape(-1).view(np.float32)
    gram, product = halves[: n * n].reshape(n, n), halves[n * n :].reshape(n, n)
    blocks_per_group = max(1, (_GROUP_BYTES - 1) // (4 * rows * n))
    group = np.empty((min(blocks_per_group * rows, N), n), np.float32)
    b = None
    c = 0.0
    done = 0
    # non-finite sums are rejected by Moments, not warned about here
    with np.errstate(invalid="ignore", over="ignore"):
        for X, Y in blocks:
            if b is None:
                b = X.T @ Y
            else:
                b += X.T @ Y
            c += float(Y @ Y)
            at = done % len(group)
            group[at : at + len(X)] = X
            done += len(X)
            if done % len(group) == 0 or done == N:
                part = group[: at + len(X)]
                if done <= len(group):
                    np.matmul(part.T, part, out=gram)
                else:
                    np.matmul(part.T, part, out=product)
                    gram += product
            # the next block is drawn while this one would still be held
            del X, Y
        del group, part
        np.divide(gram.copy(), N, out=G, dtype=np.float64)
    return Moments(G, b / N, c / N, N)


def sample_design(spec: DesignSpec, N: int, seed: int, trial: int = 0) -> np.ndarray:
    """N iid rows with iid standardized coordinates, deterministic given (seed, trial)."""
    if N < 1:
        raise ValueError("N must be positive")
    rng = substream(seed, trial, DESIGN_TAG)
    return spec.sample_coords(rng, (N, spec.n))


def sample_response(class_spec, noise: NoiseSpec, design: np.ndarray, seed: int, trial: int = 0) -> np.ndarray:
    """Responses Y_i = <t0, X_i> + W_i with W drawn from its own stream."""
    t0 = np.asarray(class_spec.t0, dtype=np.float64)
    if design.shape[1] != t0.shape[0]:
        raise ValueError("design column count does not match the class dimension")
    rng = substream(seed, trial, NOISE_TAG)
    w = noise.sample(rng, design.shape[0])
    return design @ t0 + w


# the allocator's mmap threshold as the CLI fixes it (cli.MALLOC_MMAP_BYTES
# is this value): an array under it comes from the heap, where its pages are
# reused, instead of a fresh mapping. A rademacher trial's float32 group of
# design rows stays strictly under it.
_GROUP_BYTES = 2**21
# design coordinates sample_moments draws per block: a float64 block is
# 1 MiB, under _GROUP_BYTES, so the allocator serves it from its heap
_MOMENT_BLOCK = 2**17


def sample_moments(class_spec, design_spec: DesignSpec, noise: NoiseSpec, N: int, seed: int, trial: int = 0) -> Moments:
    """Moments of one trial's sample, without its whole design.

    A gaussian design draws them from their exact law (see
    `_gaussian_moments`): O(n^2) draws a trial whatever N, which depend only
    on (seed, trial). Every other kind draws the noise and the design from
    the same substreams as `sample_response` and `sample_design`, whose
    whole sample is the test oracle `make_sample` (tests/oracles.py). The
    design is drawn in row blocks of about _MOMENT_BLOCK coordinates and
    summed into (G, b, c) block by block, so a trial holds O(n^2 +
    _MOMENT_BLOCK) numbers, where the whole design would be N n. A
    rademacher design rounds its block down to whole words of signs (a
    multiple of 32 / gcd(n, 32) rows: 184 at n = 700), and while N <= 2**24
    sums its Gram in float32 groups of blocks under _GROUP_BYTES (see
    `_sign_moments`), which is exact: at n = 700, N = 2800 a trial peaks at
    6.9 MiB of arrays, its G, one 736-row float32 group and one block, where
    the whole design would be 15 MiB. Successive blocks continue one stream,
    which for every streamed kind but symmetrized_pareto gives the rows of
    one sample_coords call; symmetrized_pareto draws a call's magnitudes
    before its signs, so its blocks have the right law but other values.
    With one block (N * n <= _MOMENT_BLOCK) the moments equal the oracle's
    `make_sample(...).moments()` bit for bit; with more, the summation order
    of b and c (and, but for a rademacher design, of G) differs. The
    result's G is a fresh array.
    """
    return _moments_into(np.empty((design_spec.n, design_spec.n)), class_spec, design_spec, noise, N, seed, trial)


def _moments_into(G: np.ndarray, class_spec, design_spec: DesignSpec, noise: NoiseSpec, N: int, seed: int, trial: int) -> Moments:
    """`sample_moments`, with G written into the caller's n x n float64
    buffer G, which the result holds: the caller may reuse G once it is done
    with the result."""
    if N < 1:
        raise ValueError("N must be positive")
    n = design_spec.n
    t0 = np.asarray(class_spec.t0, dtype=np.float64)
    if t0.shape != (n,):
        raise ValueError("design dimension does not match the class dimension")
    if design_spec.kind == "gaussian":
        return _gaussian_moments(G, t0, noise, N, seed, trial)
    w = noise.sample(substream(seed, trial, NOISE_TAG), N)
    rng = substream(seed, trial, DESIGN_TAG)
    rows = max(1, _MOMENT_BLOCK // n)
    rademacher = design_spec.kind == "rademacher"
    if rademacher:
        # whole words of signs in each block but the last, so that the blocks
        # continue one random_signs draw
        whole = 32 // math.gcd(n, 32)
        rows = max(whole, rows // whole * whole)

    def block(lo):
        X = design_spec.sample_coords(rng, (min(rows, N - lo), n))
        return X, X @ t0 + w[lo : lo + X.shape[0]]

    blocks = map(block, range(0, N, rows))
    if rademacher and N <= 2**24:
        return _sign_moments(blocks, N, G, rows)
    return _accumulate_moments(blocks, N, G)


def _gaussian_moments(G: np.ndarray, t0: np.ndarray, noise: NoiseSpec, N: int, seed: int, trial: int) -> Moments:
    """A gaussian design's moments, drawn from their law.

    The noise w is independent of X, so a rotation of R^N taking w to
    ||w|| e_1 leaves the law of X unchanged, and (X^T X, X^T w) has the law
    of (x1 x1^T + W, ||w|| x1), with x1 ~ N(0, I_n) and W ~ Wishart_n(N - 1,
    I) independent. W = L L^T: by Bartlett's decomposition (Odell & Feiveson
    1966) when N - 1 >= n, with L lower-triangular, N(0, 1) below the
    diagonal and L_ii = sqrt(chi^2_{N-1-i}); else with L an n x (N - 1)
    gaussian matrix. The trial's design stream draws x1, then L's entries
    below the diagonal (row by row), then its chi-square values: n(n+1)/2 + n
    values; its noise stream gives ||w|| (see `_noise_norm`).
    c = ((x1^T t0 + ||w||)^2 + ||L^T t0||^2) / N is ||X t0 + w||^2 / N
    written as a sum of squares, so it is never negative.
    """
    n = t0.shape[0]
    rng = substream(seed, trial, DESIGN_TAG)
    x1 = rng.standard_normal(n)
    if N - 1 >= n:
        L = np.zeros((n, n))
        L[np.tri(n, k=-1, dtype=bool)] = rng.standard_normal(n * (n - 1) // 2)
        np.fill_diagonal(L, np.sqrt(rng.chisquare(N - 1 - np.arange(n))))
    else:
        L = rng.standard_normal((n, N - 1))
    # non-finite sums are rejected by Moments, not warned about here
    with np.errstate(invalid="ignore", over="ignore"):
        w_norm = _noise_norm(noise, N, seed, trial)
        S = np.outer(x1, x1) + L @ L.T
        Lt0 = L.T @ t0
        b = (S @ t0 + w_norm * x1) / N
        r = float(x1 @ t0) + w_norm
        c = (r * r + float(Lt0 @ Lt0)) / N
        np.divide(S, N, out=G)
    return Moments(G, b, c, N)


def _noise_norm(noise: NoiseSpec, N: int, seed: int, trial: int) -> float:
    """||w||_2 of the trial's N noise values, from its noise stream: sigma
    sqrt(chi^2_N), one draw, for gaussian noise; else the norm of the values
    `sample_response` adds, which the test oracle `make_sample` draws too."""
    rng = substream(seed, trial, NOISE_TAG)
    if noise.kind == "gaussian":
        return noise.sigma * math.sqrt(rng.chisquare(N))
    w = noise.sample(rng, N)
    return math.sqrt(w @ w)


def l21_norm(noise: NoiseSpec) -> float:
    """The norm integral_0^inf sqrt(Pr(|W| > t)) dt, in closed form.

    A gaussian W gives sigma*GAUSSIAN_L21 (substitute t = sigma*x). A
    heavy-tailed W has survival 1 on [0, a) and (a/t)^p after, with
    a = sigma*sqrt((p-2)/p), so the integral is a + 2a/(p-2) = sigma*sqrt(p/(p-2)).
    The piecewise-constant survivals of scaled_sign and bounded_symmetric
    (1/kappa^2 on [0, kappa*sigma)) both integrate to sigma.
    """
    sigma = noise.sigma
    if noise.kind == "zero" or sigma == 0.0:
        return 0.0
    if noise.kind == "gaussian":
        return sigma * GAUSSIAN_L21
    if noise.kind == "heavy_tailed":
        return sigma * math.sqrt(noise.p / (noise.p - 2.0))
    return float(sigma)


def psi2_norm(samples) -> float:
    """Empirical subgaussian norm: the c solving mean(exp(x^2/c^2)) = 2.

    The criterion is strictly decreasing in c, so bisection on the bracket
    [max|x|/sqrt(log 2m), max|x|/sqrt(log 2)] converges, to a relative width
    of 1e-9; the bracket also keeps every exponent below log(2m), so nothing
    overflows.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < 1000:
        raise ValueError("psi2_norm needs at least 1e3 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    peak = np.abs(x).max()
    if peak == 0.0:
        return 0.0
    x2 = x * x
    m = x.size

    def crit(c):
        return float(np.mean(np.exp(x2 / (c * c)))) - 2.0

    lo = peak / math.sqrt(math.log(2.0 * m))
    hi = peak / math.sqrt(math.log(2.0))
    # crit(lo) >= 0 and crit(hi) <= 0 by construction
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if crit(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * hi:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class CounterexampleSpec:
    """Symmetric variable with Pr(|Z| = 2 sqrt(N)) = 1/N^2 and |Z| = 1 otherwise."""

    N: int

    def __post_init__(self):
        if self.N < 100:
            raise ValueError("the counterexample regime needs N >= 100")

    @property
    def spike(self) -> float:
        return 2.0 * math.sqrt(self.N)

    @property
    def second_moment(self) -> float:
        n = self.N
        return 1.0 + 4.0 / n - 1.0 / n**2

    @property
    def fourth_moment(self) -> float:
        return 17.0 - 1.0 / self.N**2

    def l4_l2_ratio(self) -> float:
        return self.fourth_moment**0.25 / math.sqrt(self.second_moment)


def sample_counterexample(spec: CounterexampleSpec, trials: int, seed: int) -> np.ndarray:
    """(trials, N) matrix of iid draws: its uniforms, then its signs, from
    one stream."""
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = substream(seed)
    u = rng.random((trials, spec.N))
    return random_signs(rng, (trials, spec.N)) * np.where(u < 1.0 / spec.N**2, spec.spike, 1.0)
