import math
import tracemalloc

import numpy as np
import pytest

from ermbounds.distributions import DesignSpec, sample_design
from ermbounds.erm import ClassSpec
from ermbounds.fixed_points import beta_star
from ermbounds.smallball import choose_tau
from ermbounds import versionspace
from ermbounds.versionspace import max_steps_l1, null_probes, nullspace_basis, row_space, version_diameter
from oracles import max_step_l1


def cls_zero(n, R=1.0):
    return ClassSpec(n=n, R=R, t0=np.zeros(n))


def feasible(t0, s, U, R):
    return np.abs(t0 + s[:, None] * U).sum(axis=1) <= R


class TestMaxSteps:
    CAP = 2.0 * (1.0 + 1e-6)

    def check_against_oracle(self, t0, U, R):
        steps = max_steps_l1(t0, U, R)
        assert steps.shape == (U.shape[0],)
        assert feasible(t0, steps, U, R).all()
        # the float predicate cannot resolve a step below a few ulps of R,
        # hence the absolute 1e-15*R next to the relative 1e-12
        cap = self.CAP * R
        for s, u in zip(steps, U):
            ref = max_step_l1(t0, u, R)
            assert abs(s - ref) <= 1e-12 * ref + 1e-15 * R
            if s < cap:
                assert np.abs(t0 + (s * (1.0 + 1e-12) + 1e-15 * R) * u).sum() > R
        return steps

    @pytest.mark.parametrize("shape", ["zero", "sparse", "dense"])
    def test_random_oracle(self, shape):
        rng = np.random.default_rng({"zero": 10, "sparse": 11, "dense": 12}[shape])
        for _ in range(25):
            n = int(rng.integers(2, 30))
            R = float(rng.uniform(0.2, 3.0))
            t0 = np.zeros(n)
            if shape != "zero":
                t0 = rng.standard_normal(n)
                if shape == "sparse":
                    t0 *= rng.random(n) < 0.3
                if np.abs(t0).any():
                    t0 *= rng.uniform(0.05, 0.95) * R / np.abs(t0).sum()
            # directions with exact zero entries, normalized to unit l2 norm
            U = rng.standard_normal((12, n)) * (rng.random((12, n)) < 0.6)
            U[:, 0] = rng.standard_normal(12)
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            self.check_against_oracle(t0, U, R)

    def test_zero_t0_closed_form(self):
        rng = np.random.default_rng(13)
        U = rng.standard_normal((30, 9))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        steps = self.check_against_oracle(np.zeros(9), U, 1.5)
        assert np.allclose(steps, 1.5 / np.abs(U).sum(axis=1), rtol=1e-14, atol=0.0)

    def test_boundary_t0(self):
        # ||t0||_1 = R exactly in floating point: a direction that adds mass
        # allows no step, one that trades mass between coordinates does
        t0 = np.array([0.5, -0.25, 0.25, 0.0])
        U = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.6, 0.0, 0.0, 0.8], [-1.0, 0.0, 1.0, 0.0], [0.0, 1.0, -1.0, 0.0]])
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        steps = self.check_against_oracle(t0, U, 1.0)
        assert np.array_equal(steps[:3], np.zeros(3))
        assert steps[3] > 0.0 and steps[4] > 0.0

    def test_nearly_flat_directions(self):
        # f rises with a tiny slope from just inside the sphere: the float
        # predicate resolves the crossing only to about eps*R/slope, so the
        # certified step may sit many ulps below the exact one but stays inside
        t0 = np.array([0.3, 0.7 - 7e-15, 0.0])
        for eps in (1e-4, 1e-8, 1e-12):
            u = np.array([1.0, -1.0 + eps, 0.0])
            u /= np.linalg.norm(u)
            s = max_steps_l1(t0, u[None, :], 1.0)
            assert feasible(t0, s, u[None, :], 1.0).all()
            slope = u[0] + u[1]
            assert abs(s[0] - max_step_l1(t0, u, 1.0)) <= 4.0 * np.finfo(float).eps / slope

    def test_rows_at_cap(self):
        # a zero row and a short row never leave the ball before the cap
        t0 = np.array([0.3, 0.0, -0.2])
        U = np.array([[0.0, 0.0, 0.0], [1e-3, 0.0, 1e-3], [0.0, 1.0, 0.0]])
        steps = self.check_against_oracle(t0, U, 1.0)
        assert steps[0] == steps[1] == self.CAP
        assert steps[2] == pytest.approx(0.5, rel=1e-15)

    def test_empty_design_basis(self):
        # the null space of an empty design is all of R^n, probed along +-e_i
        t0 = np.array([0.25, 0.0, -0.5, 0.0])
        U = np.vstack([np.eye(4), -np.eye(4)])
        steps = self.check_against_oracle(t0, U, 1.0)
        assert steps.tolist() == [0.25, 0.25, 1.25, 0.25, 0.75, 0.25, 0.25, 0.25]


def _with_singular_values(s, rows, cols, seed):
    """A rows x cols design with singular values s, between random orthogonal factors."""
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    right, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    return left[:, : len(s)] @ np.diag(s) @ right[:, : len(s)].T


_TOL = 1e-10
_NULLSPACE_DESIGNS = {
    "tall": np.random.default_rng(1).standard_normal((12, 5)),
    "wide": np.random.default_rng(2).standard_normal((5, 12)),
    "square": np.random.default_rng(3).standard_normal((8, 8)),
    "wide_gaussian_design": sample_design(DesignSpec("gaussian", 40), 25, seed=4),
    "duplicated_rows": np.vstack([np.random.default_rng(5).standard_normal((3, 10))] * 3),
    "all_zero": np.zeros((4, 6)),
    # no rows: the reduced QR of the 6 x 0 transpose is the 6 x 0 basis
    "empty": np.zeros((0, 6)),
    # the smallest singular value sits 1e-13 above or below NULLSPACE_REL_TOL*max(s) = 1e-10,
    # a hundred times the SVD's rounding error
    "just_above_tol": _with_singular_values([1.0, 0.5, _TOL * (1.0 + 1e-3)], 4, 7, seed=6),
    "just_below_tol": _with_singular_values([1.0, 0.5, _TOL * (1.0 - 1e-3)], 4, 7, seed=6),
}
_NULLSPACE_DIMS = {"tall": 0, "wide": 7, "square": 0, "wide_gaussian_design": 15, "duplicated_rows": 7, "all_zero": 6, "empty": 6, "just_above_tol": 4, "just_below_tol": 5}


class TestNullspaceBasis:
    @pytest.mark.parametrize("name", sorted(_NULLSPACE_DESIGNS))
    def test_matches_scipy_null_space_bytes(self, name):
        import scipy.linalg

        design = _NULLSPACE_DESIGNS[name]
        basis = nullspace_basis(design)
        reference = scipy.linalg.null_space(design, rcond=_TOL)
        assert basis.shape == reference.shape == (design.shape[1], _NULLSPACE_DIMS[name])
        assert basis.dtype == reference.dtype
        assert basis.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("name", sorted(_NULLSPACE_DESIGNS))
    def test_orthonormal_and_annihilated(self, name):
        design = _NULLSPACE_DESIGNS[name]
        basis = nullspace_basis(design)
        assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
        assert np.allclose(design @ basis, 0.0, atol=1e-9)

    def test_no_rows_gives_the_identity(self):
        assert np.array_equal(nullspace_basis(np.zeros((0, 5))), np.eye(5))

    def test_rejects_nonfinite_design(self):
        design = np.ones((3, 4))
        design[1, 2] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            nullspace_basis(design)


def _projector_tol(design):
    """How closely two backward-stable factorizations agree on the null
    space's projector: 1e-12, or Wedin's eps*||X||/s_min, s_min the smallest
    singular value kept (just_above_tol keeps 1e-10, which fixes its
    direction only to about 2e-6)."""
    s = np.linalg.svd(design, compute_uv=False)
    kept = s[s > np.max(s, initial=0.0) * _TOL]
    if kept.size == 0:
        return 1e-12
    return max(1e-12, 10.0 * np.finfo(float).eps * kept[0] / kept[-1])


class TestRowSpace:
    # nullspace_basis is the reference: one null-space basis B, and the
    # projector on the null space is B Bᵀ

    @pytest.mark.parametrize("name", sorted(_NULLSPACE_DESIGNS))
    def test_nullspace_dim(self, name):
        design = _NULLSPACE_DESIGNS[name]
        probe = version_diameter(design, cls_zero(design.shape[1]), probes=20, seed=0)
        assert probe.nullspace_dim == _NULLSPACE_DIMS[name]

    @pytest.mark.parametrize("name", sorted(_NULLSPACE_DESIGNS))
    def test_complements_the_null_space(self, name):
        design = _NULLSPACE_DESIGNS[name]
        n = design.shape[1]
        Q = row_space(design)
        B = nullspace_basis(design)
        assert Q.shape == (n, n - B.shape[1])
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max(initial=0.0) <= 1e-12
        assert np.abs(Q @ Q.T + B @ B.T - np.eye(n)).max() <= _projector_tol(design)

    @pytest.mark.parametrize("name", sorted(_NULLSPACE_DESIGNS))
    def test_probes_are_annihilated(self, name):
        design = _NULLSPACE_DESIGNS[name]
        n = design.shape[1]
        blocks = list(null_probes(row_space(design), 300, seed=1))
        U = np.vstack(blocks)
        assert U.shape == (300 + n, n)
        assert max(block.shape[0] for block in blocks) <= versionspace.PROBE_BLOCK
        norms = np.linalg.norm(U, axis=1)
        U = U[norms > 0.0] / norms[norms > 0.0, None]
        assert np.abs(design @ U.T).max(initial=0.0) <= 1e-9 * np.linalg.norm(design, 2)

    @pytest.mark.parametrize("name", sorted(_NULLSPACE_DESIGNS))
    def test_canonical_probes_are_the_projector(self, name):
        design = _NULLSPACE_DESIGNS[name]
        B = nullspace_basis(design)
        canonical = np.vstack(list(null_probes(row_space(design), 0, seed=1)))
        assert np.abs(canonical - B @ B.T).max() <= _projector_tol(design)

    def test_canonical_vectors_inside_the_row_space(self):
        # the rows span e_0 and e_1 through a generic basis, so projecting
        # e_0 or e_1 leaves rounding noise only: it is dropped, not
        # normalized into a direction the design does not annihilate
        design = np.random.default_rng(9).standard_normal((3, 2)) @ np.eye(2, 6)
        assert np.abs(np.vstack(list(null_probes(row_space(design), 0, seed=1)))[:2]).max() == 0.0
        t0 = np.array([0.2, -0.3, 0.0, 0.1, 0.0, 0.0])
        probe = version_diameter(design, ClassSpec(n=6, R=1.0, t0=t0), probes=50, seed=2)
        assert probe.nullspace_dim == 4
        assert probe.directions == 2 * 50 + 2 * 4
        assert np.abs(probe.witness).sum() <= 1.0
        assert np.abs(design @ (probe.witness - t0)).max() <= 1e-12
        assert 0.0 < probe.radius_lb <= 2.0

    def test_memory_of_one_call(self):
        # no null-space basis and no stack of every probe: the call holds the
        # row-space factor and one block of probes (an n x n basis alone is 7.6 MiB)
        X = sample_design(DesignSpec("gaussian", 1000), 500, seed=10)
        cls = ClassSpec(n=1000, R=1.0, t0=np.eye(1000)[0] * 0.5)
        tracemalloc.start()
        try:
            probe = version_diameter(X, cls, probes=1000, seed=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probe.nullspace_dim == 500 and probe.directions == 4000
        assert peak < 16 * 2**20


class TestVersionDiameter:
    def test_negative_probes_rejected_before_any_work(self, monkeypatch):
        monkeypatch.setattr(versionspace, "row_space", None)
        with pytest.raises(ValueError, match="probes must be nonnegative"):
            version_diameter(np.zeros((2, 4)), cls_zero(4), probes=-5, seed=0)

    def test_full_rank_design(self):
        X = sample_design(DesignSpec("gaussian", 5), 12, seed=1)
        probe = version_diameter(X, cls_zero(5), probes=200, seed=1)
        assert probe.nullspace_dim == 0
        assert probe.radius_lb == 0.0

    def test_no_constraints(self):
        # empty sample: the whole ball is the version space; the farthest
        # points from 0 are the vertices +-R e_i, hit by the basis probes
        probe = version_diameter(np.zeros((0, 4)), cls_zero(4, R=1.5), probes=50, seed=2)
        assert probe.nullspace_dim == 4
        assert probe.radius_lb == pytest.approx(1.5, rel=1e-9)

    def test_angular_grid_oracle(self):
        # 2-dimensional null space: exhaustively scan directions by angle
        X = sample_design(DesignSpec("gaussian", 3), 1, seed=3)
        cls = cls_zero(3)
        probe = version_diameter(X, cls, probes=4000, seed=3)
        basis = nullspace_basis(X)
        assert basis.shape == (3, 2)
        best = 0.0
        for theta in np.linspace(0.0, 2.0 * math.pi, 20000, endpoint=False):
            u = math.cos(theta) * basis[:, 0] + math.sin(theta) * basis[:, 1]
            best = max(best, max_step_l1(cls.t0, u, cls.R))
        assert probe.radius_lb == pytest.approx(best, abs=1e-3)

    def test_monotone_in_N(self):
        spec = DesignSpec("gaussian", 6)
        cls = cls_zero(6)
        X_full = sample_design(spec, 5, seed=4)
        values = []
        for N in (1, 2, 3, 4, 5):
            probe = version_diameter(X_full[:N], cls, probes=3000, seed=5)
            values.append(probe.radius_lb)
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(values, values[1:]))

    def test_feasibility_of_witness(self):
        rng = np.random.default_rng(6)
        for seed in range(15):
            n = int(rng.integers(3, 10))
            N = int(rng.integers(1, n))
            t0 = rng.standard_normal(n)
            t0 *= 0.6 / np.abs(t0).sum()
            cls = ClassSpec(n=n, R=1.0, t0=t0)
            X = sample_design(DesignSpec("gaussian", n), N, seed=seed)
            probe = version_diameter(X, cls, probes=300, seed=seed)
            assert np.abs(probe.witness).sum() <= cls.R * (1.0 + 1e-10)
            scale = np.abs(X).max()
            assert np.abs(X @ (probe.witness - t0)).max() <= 1e-8 * scale

    def test_both_signs_probed(self):
        # the null space is the line of w = (1, 1, 1)/sqrt(3), and every
        # canonical projection points along +w; from t0 = (0.5, 0, 0) the
        # ball reaches 0.5/sqrt(3) along +w but 0.5*sqrt(3) along -w
        X = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        t0 = np.array([0.5, 0.0, 0.0])
        w = np.ones(3) / math.sqrt(3.0)
        probe = version_diameter(X, ClassSpec(n=3, R=1.0, t0=t0), probes=0, seed=0)
        assert probe.directions == 6
        assert probe.radius_lb == pytest.approx(max_step_l1(t0, -w, 1.0), rel=1e-12)
        assert probe.radius_lb == pytest.approx(0.5 * math.sqrt(3.0), rel=1e-12)
        assert np.allclose(probe.witness, t0 - probe.radius_lb * w, atol=1e-15)

    def test_boundary_t0(self):
        # t0 on the l1 sphere: stepping away is only possible along
        # directions that trade mass, and the probe must stay feasible
        cls = ClassSpec(n=4, R=1.0, t0=np.array([1.0, 0.0, 0.0, 0.0]))
        X = sample_design(DesignSpec("gaussian", 4), 1, seed=7)
        probe = version_diameter(X, cls, probes=500, seed=7)
        assert np.abs(probe.witness).sum() <= 1.0 + 1e-10
        assert probe.radius_lb <= 2.0


class TestBetaDomination:
    def test_radius_below_beta(self):
        # the version space cannot extend past the fixed point (checked
        # statistically at the level induced by the small-ball estimate)
        design = DesignSpec("gaussian", 16)
        cls = cls_zero(16)
        choice = choose_tau(design, directions=100, draws=10000, seed=8)
        hits = 0
        trials = 20
        for trial in range(trials):
            N = (16, 64)[trial % 2]
            beta = beta_star(cls, design, N, choice.gamma_beta, trials=60, seed=100 + trial)
            X = sample_design(design, N, seed=200 + trial)
            probe = version_diameter(X, cls, probes=400, seed=trial)
            width = beta.brackets[1] - beta.brackets[0]
            if probe.radius_lb <= beta.value + 2.0 * width:
                hits += 1
        assert hits >= 0.9 * trials
