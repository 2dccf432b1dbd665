"""Lower bounds on the L2 diameter of the version space of an l1-ball class.

The version space of t0 on a realized design is every feasible t agreeing
with t0 on all sample points, i.e. t0 plus the null space of the design
intersected with the ball. Probing null-space directions (random ones and
the projections of the canonical vectors) and stepping as far as the l1
constraint allows gives a certified lower bound on the farthest
version-space point from t0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .erm import ClassSpec
from .rng import DIRECTIONS_TAG, substream

NULLSPACE_REL_TOL = 1e-10
# probes are formed, projected and stepped along this many rows at a time
PROBE_BLOCK = 128
# One projection v - Q(Qᵀv) leaves a row-space part of about eps*|v|. A result
# shorter than this fraction of v is projected again, and one that shrinks by
# the same fraction again is taken to lie in the row space, where it is zero.
REPROJECT_BELOW = 1e-3


@dataclass(frozen=True)
class VersionSpaceProbe:
    radius_lb: float
    directions: int
    nullspace_dim: int
    witness: np.ndarray


def nullspace_basis(design: np.ndarray) -> np.ndarray:
    """Orthonormal null-space basis, as columns; a singular value s counts as
    zero unless s > NULLSPACE_REL_TOL*max(s), the rank rule of
    scipy.linalg.null_space.

    `version_diameter` never forms this n x (n - rank) basis; it is the
    reference its row-space projections are tested against."""
    n = design.shape[1]
    if design.shape[0] == 0:
        return np.eye(n)
    # numpy's SVD does not return on a design holding an inf
    if not np.isfinite(design).all():
        raise ValueError("design must not contain infs or NaNs")
    _, s, vh = np.linalg.svd(design, full_matrices=True)
    rank = np.count_nonzero(s > np.max(s, initial=0.0) * NULLSPACE_REL_TOL)
    return vh[rank:].T


def max_steps_l1(t0: np.ndarray, U: np.ndarray, R: float) -> np.ndarray:
    """Largest s in [0, 2R(1 + 1e-6)] with ||t0 + s*u||_1 <= R, for every row u of U.

    f(s) = ||t0 + s*u||_1 is convex and piecewise linear in s. A coordinate
    with t0_i = 0 adds s*|u_i| throughout; one with t0_i != 0 turns at its
    breakpoint b_i = -t0_i/u_i when b_i > 0, where the intercept drops by
    2|t0_i| and the slope grows by 2|u_i|. Sorting the breakpoints of
    supp(t0) gives f on every segment, and the crossing of R is solved
    exactly on the segment where f leaves the ball. Every step is then
    checked against the float predicate ||t0 + s*u||_1 <= R and a failing
    row steps down (one ulp, then doubling) until it passes, so the returned
    points stay inside the ball.

    The temporaries are m x |supp(t0)| arrays for the m rows of U, which
    `version_diameter` hands over PROBE_BLOCK at a time.
    """
    t0 = np.asarray(t0, dtype=np.float64)
    U = np.asarray(U, dtype=np.float64)
    cap = 2.0 * R * (1.0 + 1e-6)
    support = np.flatnonzero(t0)
    t_s = t0[support]
    norm_t0 = float(np.abs(t0).sum())
    norm_u = np.abs(U).sum(axis=1)
    u_s = U[:, support]
    with np.errstate(divide="ignore", invalid="ignore"):
        b = -t_s / u_s
    turning = (b > 0.0) & np.isfinite(b)
    b = np.where(turning, b, np.inf)
    order = np.argsort(b, axis=1)
    b = np.take_along_axis(b, order, axis=1)
    w_u = np.take_along_axis(np.where(turning, np.abs(u_s), 0.0), order, axis=1)
    w_t = np.take_along_axis(np.where(turning, np.abs(t_s), 0.0), order, axis=1)
    # on segment j (past the first j breakpoints) f(s) = intercept_j + slope_j*s
    zero = np.zeros((b.shape[0], 1))
    cu = np.hstack([zero, np.cumsum(w_u, axis=1)])
    slope = (norm_u[:, None] - 2.0 * cu[:, -1:]) + 2.0 * cu
    intercept = norm_t0 - 2.0 * np.hstack([zero, np.cumsum(w_t, axis=1)])
    finite = np.isfinite(b)
    inside = finite & (intercept[:, :-1] + slope[:, :-1] * np.where(finite, b, 0.0) <= R)
    seg = np.logical_and.accumulate(inside, axis=1).sum(axis=1)[:, None]
    edges = np.hstack([zero, b, np.full_like(zero, np.inf)])
    a_j = np.take_along_axis(intercept, seg, axis=1)[:, 0]
    b_j = np.take_along_axis(slope, seg, axis=1)[:, 0]
    left = np.take_along_axis(edges, seg, axis=1)[:, 0]
    right = np.take_along_axis(edges, seg + 1, axis=1)[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(b_j > 0.0, (R - a_j) / b_j, np.inf)
    steps = np.minimum(np.clip(s, left, right), cap)
    stride = np.spacing(steps)
    bad = np.flatnonzero(np.abs(t0 + steps[:, None] * U).sum(axis=1) > R)
    while bad.size:
        steps[bad] = np.maximum(steps[bad] - stride[bad], 0.0)
        stride[bad] *= 2.0
        bad = bad[(steps[bad] > 0.0) & (np.abs(t0 + steps[bad, None] * U[bad]).sum(axis=1) > R)]
    return steps


def row_space(design: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the design's row space, as the columns of an
    n x rank matrix, by `nullspace_basis`'s rank rule.

    Xᵀ = QR is a reduced QR, and R has X's singular values. Only a
    rank-deficient design takes R's SVD with vectors, R = U_R S V_Rᵀ, and
    keeps Q U_R[:, :rank]. A design with no rows gives the n x 0 basis.
    """
    # LAPACK does not return a meaningful factor of a design holding an inf
    if not np.isfinite(design).all():
        raise ValueError("design must not contain infs or NaNs")
    q, r = np.linalg.qr(design.T)
    s = np.linalg.svd(r, compute_uv=False)
    rank = np.count_nonzero(s > np.max(s, initial=0.0) * NULLSPACE_REL_TOL)
    if rank == s.size:
        return q
    u_r = np.linalg.svd(r)[0]
    return q @ u_r[:, :rank]


def _project_out(V: np.ndarray, VQ: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """V - VQ Qᵀ, with VQ = V Q: the rows of V projected on the null space
    (see REPROJECT_BELOW)."""
    P = V - VQ @ Q.T
    short = np.flatnonzero(np.linalg.norm(P, axis=1) < REPROJECT_BELOW * np.linalg.norm(V, axis=1))
    if short.size:
        once = P[short]
        twice = once - (once @ Q) @ Q.T
        twice[np.linalg.norm(twice, axis=1) < REPROJECT_BELOW * np.linalg.norm(once, axis=1)] = 0.0
        P[short] = twice
    return P


def null_probes(Q: np.ndarray, probes: int, seed: int):
    """The probe directions of `version_diameter`, unnormalized, in row
    blocks of at most PROBE_BLOCK: `probes` isotropic gaussians, then the n
    canonical vectors, each projected on the orthogonal complement of the
    columns of Q (orthonormal, n x rank).

    A projected gaussian is a standard gaussian of the null space, whatever
    basis LAPACK returned; the projection of e_i is column i of the null
    space's projector.
    """
    n = Q.shape[0]
    rng = substream(seed, DIRECTIONS_TAG)
    for lo in range(0, probes, PROBE_BLOCK):
        g = rng.standard_normal((min(PROBE_BLOCK, probes - lo), n))
        yield _project_out(g, g @ Q, Q)
    for lo in range(0, n, PROBE_BLOCK):
        e = np.eye(min(PROBE_BLOCK, n - lo), n, k=lo)
        yield _project_out(e, Q[lo : lo + e.shape[0]], Q)


def version_diameter(design: np.ndarray, class_spec: ClassSpec, probes: int, seed: int) -> VersionSpaceProbe:
    """Probe the farthest version-space point from t0 along null-space directions.

    The null space is never formed: `row_space` gives an orthonormal basis
    Q of the row space from a thin QR, and every probe v is replaced by
    v - Q(Qᵀv) (`null_probes`), `probes` random gaussians and the n
    canonical vectors, in row blocks. Each direction u is scaled to unit
    length and stepped along with both signs, u by `max_steps_l1(t0, U)`
    and -u by `max_steps_l1(-t0, U)`, since the step set need not be
    symmetric: 2*probes + 2n directions, less two for each canonical vector
    inside the row space (its projection is zero). The best step and its
    witness are kept across blocks. The result is a lower bound on the true
    maximum, and its witness lies in the ball.
    """
    if probes < 0:
        raise ValueError("probes must be nonnegative")
    design = np.asarray(design, dtype=np.float64)
    if design.ndim != 2 or design.shape[1] != class_spec.n:
        raise ValueError("design must be an N x n matrix matching the class")
    Q = row_space(design)
    dim = class_spec.n - Q.shape[1]
    t0 = class_spec.t0
    if dim == 0:
        return VersionSpaceProbe(0.0, 0, 0, t0.copy())
    best, witness, directions = 0.0, t0.copy(), 0
    for V in null_probes(Q, probes, seed):
        norms = np.linalg.norm(V, axis=1)
        live = norms > 0.0
        if not live.any():
            continue
        U = V[live] / norms[live, None]
        directions += 2 * U.shape[0]
        for sign in (1.0, -1.0):
            steps = max_steps_l1(sign * t0, U, class_spec.R)
            i = int(np.argmax(steps))
            if steps[i] > best:
                best, witness = float(steps[i]), t0 + (sign * steps[i]) * U[i]
    return VersionSpaceProbe(best, directions, dim, witness)
