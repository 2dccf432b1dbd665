import math

import numpy as np
import pytest

from ermbounds.geometry import SupportRows, project_l1, project_l1_rows, rearrangement_d, support_l1l2_batch, top_d_l2

from oracles import boundary_enum_2d, project_l1_scalar, support_l1l2_batch_oneshot, support_oracle


class TestProjectL1:
    def test_already_feasible_returned_exactly(self):
        v = np.array([0.3, -0.2])
        out = project_l1(v, 1.0)
        assert np.array_equal(out, v)

    def test_projection_onto_vertex(self):
        out = project_l1(np.array([3.0, 0.0]), 1.0)
        assert np.allclose(out, [1.0, 0.0], atol=1e-14)

    def test_zero_radius(self):
        assert np.array_equal(project_l1(np.array([1.0, -2.0]), 0.0), np.zeros(2))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_l1(np.array([np.nan, 1.0]), 1.0)
        with pytest.raises(ValueError):
            project_l1(np.array([np.inf, 1.0]), 1.0)

    def test_grid_oracle_2_1_0(self):
        # grid search over the feasible set at resolution 1e-3; the inner two
        # coordinates are sorted by their l1 budget once so each slice is a
        # prefix-minimum lookup
        v = np.array([2.0, 1.0, 0.0])
        res = 1e-3
        m = int(round(1.0 / res))
        axis = np.arange(0, m + 1) / m  # optimal point has nonnegative coords since v does
        g2, g3 = np.meshgrid(axis, axis, indexing="ij")
        g2, g3 = g2.ravel(), g3.ravel()
        budget = g2 + g3
        d23 = (g2 - v[1]) ** 2 + (g3 - v[2]) ** 2
        order = np.argsort(budget, kind="stable")
        budget_sorted = budget[order]
        d23_sorted = d23[order]
        prefix_best = np.minimum.accumulate(d23_sorted)
        prefix_arg = np.empty(len(order), dtype=np.int64)
        best = 0
        for i in range(len(order)):
            if d23_sorted[i] <= d23_sorted[best]:
                best = i
            prefix_arg[i] = best
        best_val = np.inf
        best_point = None
        for k in range(m + 1):
            u1 = k / m
            last = np.searchsorted(budget_sorted, 1.0 - u1 + 1e-12, side="right") - 1
            if last < 0:
                continue
            val = (u1 - v[0]) ** 2 + prefix_best[last]
            if val < best_val:
                best_val = val
                j = order[prefix_arg[last]]
                best_point = np.array([u1, g2[j], g3[j]])
        ours = project_l1(v, 1.0)
        assert np.linalg.norm(ours - best_point) <= 2e-3

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 20))
            u = rng.standard_normal(n) * rng.uniform(0.1, 5)
            v = rng.standard_normal(n) * rng.uniform(0.1, 5)
            R = float(rng.uniform(0.0, 3.0))
            pu, pv = project_l1(u, R), project_l1(v, R)
            assert np.abs(pu).sum() <= R * (1 + 1e-12) + 1e-15
            assert np.array_equal(project_l1(pu, R), pu)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) * (1 + 1e-12)

    def test_rows_match_the_scalar_projection_bytes(self):
        # feasible, infeasible and tied rows mixed in one array; every row of
        # project_l1_rows, and project_l1, has the scalar projection's bytes
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            V = rng.standard_normal((int(rng.integers(1, 9)), n)) * rng.uniform(0.01, 3.0)
            V[0, : n // 2] = V[0, 0]  # ties in |v|
            V[-1, :] *= -0.0 if rng.random() < 0.1 else 1.0
            R = float(rng.choice([0.0, 0.5, 1.0, float(np.abs(V[0]).sum())]))
            rows = project_l1_rows(V, R)
            for v, row in zip(V, rows):
                expected = project_l1_scalar(v, R).tobytes()
                assert row.tobytes() == expected
                assert project_l1(v, R).tobytes() == expected


class TestTopD:
    def test_max_entry(self):
        assert top_d_l2([1.0, -2.0, 0.5], 1) == 2.0

    def test_full_vector(self):
        assert top_d_l2([1.0, -2.0, 0.5], 3) == pytest.approx(math.sqrt(5.25), rel=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            top_d_l2([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            top_d_l2([1.0, 2.0], 3)

    def test_sort_oracle(self):
        rng = np.random.default_rng(42)
        z = rng.standard_normal(100)
        srted = sorted(abs(x) for x in z)[::-1]
        expected = math.sqrt(sum(x * x for x in srted[:10]))
        assert top_d_l2(z, 10) == pytest.approx(expected, rel=1e-15)


def support(z, rho, s):
    """The support function at one vector."""
    return float(support_l1l2_batch(SupportRows(z), rho, s)[0])


class TestSupport:
    def test_l2_slack_branch_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.standard_normal(8)
            rho = float(rng.uniform(0.1, 2.0))
            s = rho * float(rng.uniform(1.0, 3.0))
            assert support(z, rho, s) == rho * np.abs(z).max()

    def test_l1_slack_branch_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.standard_normal(8)
            s = float(rng.uniform(0.1, 2.0))
            rho = s * math.sqrt(8) * float(rng.uniform(1.0, 3.0))
            assert support(z, rho, s) == s * math.sqrt((z * z).sum())

    def test_rejects_negative_radii(self):
        with pytest.raises(ValueError):
            support_l1l2_batch(SupportRows(np.ones(2)), -1.0, 1.0)
        with pytest.raises(ValueError):
            support_l1l2_batch(SupportRows(np.ones(2)), 1.0, -1.0)

    def test_iterative_maximization_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            z = rng.standard_normal(n) * rng.uniform(0.2, 3)
            s = float(rng.uniform(0.05, 2.0))
            rho = float(rng.uniform(0.5, 1.5)) * s * math.sqrt(n) * rng.uniform(0.1, 1.0)
            mine = support(z, rho, s)
            ref = support_oracle(z, rho, s)
            assert mine == pytest.approx(ref, abs=1e-6)

    def test_seeded_normal_case(self):
        rng = np.random.default_rng(50)
        z = rng.standard_normal(50)
        mine = support(z, 2.0, 0.5)
        ref = support_oracle(z, 2.0, 0.5)
        assert mine == pytest.approx(ref, abs=1e-6)

    def test_boundary_enumeration_2d(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            z = rng.standard_normal(2) * 2.0
            rho = float(rng.uniform(0.3, 2.5))
            s = float(rng.uniform(0.2, 1.5))
            mine = support(z, rho, s)
            ref = boundary_enum_2d(z, rho, s, points=100000)
            assert mine >= ref - 1e-12
            assert mine == pytest.approx(ref, abs=1e-4)

    def test_positive_homogeneity_and_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            z = rng.standard_normal(12)
            base = support(z, 1.3, 0.4)
            assert support(2.0 * z, 1.3, 0.4) == pytest.approx(2.0 * base, rel=1e-12)
            c = float(rng.uniform(0.1, 5.0))
            assert support(c * z, 1.3, 0.4) == pytest.approx(c * base, rel=1e-11)
            assert support(-z, 1.3, 0.4) == base

    def test_monotone_in_radii(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal(15)
        rhos = [0.2, 0.5, 1.0, 2.0]
        ss = [0.1, 0.3, 0.8, 1.5]
        for s in ss:
            vals = [support(z, r, s) for r in rhos]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        for r in rhos:
            vals = [support(z, r, s) for s in ss]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_top_d_sandwich(self):
        # at  rho/s = sqrt(d) exactly: s*top_d <= sup <= 2*s*top_d
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(1, n + 1))
            z = rng.standard_normal(n)
            s = float(rng.uniform(0.1, 2.0))
            rho = s * math.sqrt(d)
            sup = support(z, rho, s)
            td = s * top_d_l2(z, d)
            assert sup <= 2.0 * td + 1e-12
            assert sup >= td - 1e-12

    def test_rearrangement_d_clamps(self):
        assert rearrangement_d(2.0, 1.0, 10) == 4
        assert rearrangement_d(2.0, 1.0, 3) == 3
        assert rearrangement_d(0.5, 1.0, 10) == 1
        assert rearrangement_d(1.0, 0.0, 10) == 10

    def test_batch_matches_scalar_bitwise(self):
        rng = np.random.default_rng(6)
        Z = rng.standard_normal((50, 9))
        batch = support_l1l2_batch(SupportRows(Z), 1.1, 0.5)
        for i in range(50):
            assert batch[i] == support(Z[i], 1.1, 0.5)


def awkward_rows(rng, n):
    """Gaussian rows, a zero row, rows with tied entries and Pareto-tailed rows."""
    gaussian = rng.standard_normal((20, n))
    ties = np.round(rng.standard_normal((6, n)), 1)
    ties[0] = 0.7
    ties[1, : n // 2] = -ties[1, n // 2 : 2 * (n // 2)]
    heavy = rng.choice([-1.0, 1.0], size=(6, n)) * (rng.pareto(1.5, size=(6, n)) + 1.0) ** 3
    return np.vstack([gaussian, np.zeros((1, n)), ties, heavy])


class TestSupportRows:
    @pytest.mark.parametrize("n", [1, 2, 9, 64])
    def test_prepared_matches_oneshot_bitwise(self, n):
        # one prepared batch, radii in all three branches and in shuffled
        # order: s >= rho, rho >= s*sqrt(n), and the sorted branch between
        rng = np.random.default_rng(100 + n)
        Z = awkward_rows(rng, n)
        rows = SupportRows(Z)
        rho = 2.0
        radii = [rho, 3.0, rho / math.sqrt(n), rho / (2.0 * math.sqrt(n)), 1e-9, *rng.uniform(rho / math.sqrt(n), rho, 8)]
        for s in rng.permutation(radii):
            expected = support_l1l2_batch_oneshot(Z, rho, float(s))
            assert support_l1l2_batch(rows, rho, float(s)).tobytes() == expected.tobytes()
            assert support_l1l2_batch(SupportRows(Z), rho, float(s)).tobytes() == expected.tobytes()

    def test_prepared_batch_keeps_its_bytes_across_radii(self):
        # the cached terms are read, never written: a radius evaluated
        # before and after a sweep of others gives the same bytes
        rng = np.random.default_rng(7)
        rows = SupportRows(awkward_rows(rng, 16))
        first = support_l1l2_batch(rows, 2.0, 0.9).tobytes()
        for s in np.geomspace(1e-3, 5.0, 40):
            support_l1l2_batch(rows, 2.0, float(s))
        assert support_l1l2_batch(rows, 2.0, 0.9).tobytes() == first

    def test_closed_form_branches_never_sort(self):
        rows = SupportRows(np.random.default_rng(8).standard_normal((5, 4)))
        support_l1l2_batch(rows, 1.0, 2.0)
        support_l1l2_batch(rows, 4.0, 1.0)
        assert "_breakpoints" not in vars(rows)
        support_l1l2_batch(rows, 1.5, 1.0)
        assert "_breakpoints" in vars(rows)

    def test_rejects_nonfinite_and_bad_shape(self):
        with pytest.raises(ValueError, match="finite"):
            SupportRows(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="row vectors"):
            SupportRows(np.zeros((2, 2, 2)))
