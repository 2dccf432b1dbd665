"""Deterministic vector geometry over l1 and l2 balls.

Everything here is a pure function of its arguments: Euclidean projection
onto a scaled l1 ball, the l2 norm of the top-d entries of the decreasing
rearrangement, and the exact support function of an l1/l2 ball
intersection, `support_l1l2_batch`, which evaluates each radius pair on a
batch of rows prepared once as `SupportRows`. These are the kernels behind
every localized supremum computed elsewhere in the package.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# Relative slack used when comparing norms against ball radii.
REL_SLACK = 1e-12


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-d float64 array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    return arr


def project_l1(v, radius: float) -> np.ndarray:
    """Euclidean projection of v onto the l1 ball of the given radius.

    Sort-based thresholding, O(n log n). If v is already feasible it is
    returned unchanged (as a copy), so feasible inputs are fixed points
    bit for bit.
    """
    arr = as_vector(v)
    if not radius >= 0:
        raise ValueError("radius must be nonnegative, not NaN")
    return project_l1_rows(arr[None, :], radius)[0]


def project_l1_rows(V: np.ndarray, radius: float) -> np.ndarray:
    """`project_l1` of each row of a (k, n) array, with the same bytes per row.

    Does not validate: V must be a finite 2-d float64 array and radius
    nonnegative. Rows already in the ball are returned unchanged (copied).
    """
    if radius == 0.0:
        return np.zeros_like(V)
    A = np.abs(V)
    inside = A.sum(axis=1) <= radius * (1.0 + REL_SLACK)
    if inside.all():
        return V.copy()
    U = np.sort(A, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1)
    n = V.shape[1]
    # Largest k with u_k > (sum of top k - radius)/k; always holds at k=1.
    feasible = U > (css - radius) / np.arange(1, n + 1)
    k = (n - 1) - np.argmax(feasible[:, ::-1], axis=1)
    theta = (css[np.arange(V.shape[0]), k] - radius) / (k + 1.0)
    out = np.sign(V) * np.maximum(A - theta[:, None], 0.0)
    return np.where(inside[:, None], V, out)


def top_d_l2(z, d: int) -> float:
    """l2 norm of the d largest entries of |z| (decreasing rearrangement)."""
    arr = as_vector(z)
    if not 1 <= d <= arr.size:
        raise ValueError(f"d must lie in [1, {arr.size}], got {d}")
    a = np.sort(np.abs(arr))[::-1]
    return float(np.sqrt(np.sum(a[:d] ** 2)))


def rearrangement_d(l1_radius: float, l2_radius: float, dim: int) -> int:
    """Sparsity level matching an l1/l2 radius ratio: ceil((rho/s)^2), clamped to [1, dim].

    Ceiling keeps the associated top-d comparison an upper bound; the clamp
    handles degenerate radius ratios.
    """
    if not (0 <= l1_radius < np.inf and 0 <= l2_radius < np.inf):
        raise ValueError("radii must be finite and nonnegative")
    if l2_radius == 0:
        return dim
    raw = int(np.ceil((l1_radius / l2_radius) ** 2))
    return min(max(raw, 1), dim)


class SupportRows:
    """A batch of row vectors prepared for the support function at many radii.

    Construction checks the batch; the radius-free terms of
    `support_l1l2_batch` are formed once, on first need: max|z| and ||z||_2
    for the two closed-form branches, and for the branch between them the
    decreasing rearrangement, its breakpoint values and the segment bounds.
    `support_l1l2_batch(rows, rho, s)` then does only the work that depends
    on the radii.
    """

    def __init__(self, Z):
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        if Z.ndim != 2:
            raise ValueError("Z must be a vector or a matrix of row vectors")
        if not np.all(np.isfinite(Z)):
            raise ValueError("entries must be finite")
        self.Z = Z

    @cached_property
    def _max_abs(self) -> np.ndarray:
        return np.abs(self.Z).max(axis=1)

    @cached_property
    def _l2(self) -> np.ndarray:
        return np.sqrt((self.Z * self.Z).sum(axis=1))

    @cached_property
    def _breakpoints(self) -> tuple:
        m, n = self.Z.shape
        U = -np.sort(-np.abs(self.Z), axis=1)  # decreasing rearrangement
        zero_col = np.zeros((m, 1))
        P1 = np.concatenate([zero_col, np.cumsum(U, axis=1)], axis=1)  # P1[:, k] = sum of top k
        P2 = np.concatenate([zero_col, np.cumsum(U * U, axis=1)], axis=1)

        # Breakpoint candidates lam = U[:, j] for j < n, plus lam = 0 at j = n.
        lam_b = np.concatenate([U, zero_col], axis=1)
        j = np.arange(n + 1)
        q_b = P2 - 2.0 * lam_b * P1 + j * lam_b**2
        root_q_b = np.sqrt(np.maximum(q_b, 0.0))

        # With k coordinates active the objective is
        # rho*lam + s*sqrt(Q_k - 2*m_k*lam + k*lam^2) on the segment
        # [U[:, k], U[:, k-1]] (U[:, n] = 0), widened by a tolerance.
        k = np.arange(1, n + 1)
        m_k = P1[:, 1:]
        Q_k = P2[:, 1:]
        A = np.maximum(k * Q_k - m_k**2, 0.0)
        tol = REL_SLACK * (U[:, :1] + 1.0)
        seg_lo = np.concatenate([U[:, 1:], zero_col], axis=1) - tol
        seg_hi = U + tol
        return lam_b, root_q_b, k, m_k, Q_k, A, seg_lo, seg_hi, -tol


def support_l1l2_batch(rows: SupportRows, rho: float, s: float) -> np.ndarray:
    """Row-wise support function sup{<z,t> : ||t||_1 <= rho, ||t||_2 <= s}.

    Evaluated through the dual form min over lam >= 0 of
    rho*lam + s*||soft_threshold(z, lam)||_2, which is convex in lam. The
    candidate set is every breakpoint lam in {0} union {|z_i|} plus the
    interior stationary point of each inter-breakpoint segment (where the
    objective is rho*lam + s*sqrt(quadratic), so the stationary point has a
    closed form). The minimum over the candidates is the exact value.
    """
    rho, s = float(rho), float(s)
    if not (rho >= 0 and s >= 0):
        raise ValueError("ball radii must be nonnegative, not NaN")
    # Trivial branches. ||t||_2 <= ||t||_1 makes the l2 cap inactive when
    # s >= rho; ||t||_1 <= sqrt(n)||t||_2 makes the l1 cap inactive when
    # rho >= s*sqrt(n). Returned in closed form so these cases are exact; a
    # zero row's support is 0 even at rho = s = inf (the second has s < rho).
    if s >= rho:
        return np.multiply(rho, rows._max_abs, out=np.zeros_like(rows._max_abs), where=rows._max_abs > 0)
    if rho >= s * np.sqrt(rows.Z.shape[1]):
        return s * rows._l2

    lam_b, root_q_b, k, m_k, Q_k, A, seg_lo, seg_hi, neg_tol = rows._breakpoints
    g_break = rho * lam_b + s * root_q_b

    # Interior stationary points: the segment objective's stationary point is
    # lam = m_k/k - (rho/k)*sqrt((k*Q_k - m_k^2)/(s^2*k - rho^2)),
    # valid only when s^2*k > rho^2 and lam falls inside the segment.
    D = s * s * k - rho * rho
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_st = (m_k - rho * np.sqrt(A / D)) / k
    valid = (D > 0) & np.isfinite(lam_st) & (lam_st >= seg_lo) & (lam_st <= seg_hi) & (lam_st >= neg_tol)
    lam_st = np.clip(lam_st, 0.0, None)
    q_st = Q_k - 2.0 * lam_st * m_k + k * lam_st**2
    g_st = np.where(valid, rho * lam_st + s * np.sqrt(np.maximum(q_st, 0.0)), np.inf)

    return np.minimum(g_break.min(axis=1), g_st.min(axis=1))
