import numpy as np
import pytest

from graft import GraftError
from graft.numerics import _row_zscores, ols_nonneg, sym_eig_topk
from testkit import finite_diff_grad


class TestSymEigTopk:
    def test_known_2x2(self):
        # [[2, 1], [1, 2]] has eigenpairs 3 with (1,1)/sqrt(2) and 1 with (1,-1)/sqrt(2)
        vals, vecs = sym_eig_topk(np.array([[2.0, 1.0], [1.0, 2.0]]), 2)
        assert np.allclose(vals, [3.0, 1.0])
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(vecs), [[s, s], [s, s]])

    def test_descending_algebraic_order(self):
        vals, _ = sym_eig_topk(np.diag([-5.0, 1.0, 2.0]), 3)
        assert np.allclose(vals, [2.0, 1.0, -5.0])

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((7, 7))
        m = a + a.T
        _, vecs = sym_eig_topk(m, 7)
        for col in vecs.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_reconstructs_matrix(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6))
        m = a + a.T
        vals, vecs = sym_eig_topk(m, 6)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, m)
        assert np.allclose(vecs.T @ vecs, np.eye(6), atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8))
        m = a + a.T
        v1 = sym_eig_topk(m, 3)
        v2 = sym_eig_topk(m.copy(), 3)
        assert np.array_equal(v1[0], v2[0]) and np.array_equal(v1[1], v2[1])

    @pytest.mark.parametrize(
        "m,k,msg",
        [
            (np.zeros((2, 3)), 1, "square"),
            (np.zeros((3, 3)), 0, "k must be"),
            (np.zeros((3, 3)), 4, "k must be"),
            (np.array([[0.0, 1.0], [0.0, 0.0]]), 1, "symmetric"),
            (np.array([[np.nan, 0.0], [0.0, 0.0]]), 1, "finite"),
        ],
    )
    def test_invalid_rejected(self, m, k, msg):
        with pytest.raises(GraftError, match=msg):
            sym_eig_topk(m, k)


class TestOlsNonneg:
    def test_exact_recovery(self):
        rng = np.random.default_rng(0)
        design = rng.standard_normal((20, 4))
        w_true = np.array([0.5, 2.0, 0.0, 1.25])
        w = ols_nonneg(design, design @ w_true)
        assert np.allclose(w, w_true, atol=1e-10)

    def test_negative_solution_clamped(self):
        design = np.eye(3)
        target = np.array([1.0, -2.0, 3.0])
        assert np.allclose(ols_nonneg(design, target), [1.0, 0.0, 3.0])

    def test_ridge_shrinks(self):
        design = np.eye(2)
        target = np.array([4.0, 4.0])
        # (I + ridge I) w = target  ->  w = target / (1 + ridge)
        assert np.allclose(ols_nonneg(design, target, ridge=1.0), [2.0, 2.0])

    def test_rank_deficient_needs_ridge(self):
        design = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(GraftError, match="ridge"):
            ols_nonneg(design, np.array([1.0, 2.0, 3.0]))
        w = ols_nonneg(design, np.array([1.0, 2.0, 3.0]), ridge=1e-6)
        assert np.all(np.isfinite(w)) and np.all(w >= 0)

    def test_fewer_rows_than_columns_solvable_with_ridge(self):
        # the normal equations (DᵀD + I) w = Dᵀt are solved by w = Dᵀ (DDᵀ + I)⁻¹ t
        design = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        target = np.array([3.0, 3.0])
        w = ols_nonneg(design, target, ridge=1.0)
        assert np.allclose(w, design.T @ np.linalg.solve(design @ design.T + np.eye(2), target))
        assert np.allclose(w, [0.75, 0.75, 1.5])

    @pytest.mark.parametrize(
        "design,target,ridge,msg",
        [
            (np.zeros(3), np.zeros(3), 0.0, "2-d"),
            (np.zeros((3, 2)), np.zeros(4), 0.0, "does not match"),
            (np.zeros((2, 3)), np.zeros(2), 0.0, "at least as many rows"),
            (np.full((3, 2), np.inf), np.zeros(3), 0.0, "finite"),
            (np.eye(2), np.zeros(2), -0.1, "nonnegative"),
        ],
    )
    def test_invalid_rejected(self, design, target, ridge, msg):
        with pytest.raises(GraftError, match=msg):
            ols_nonneg(design, target, ridge=ridge)


class TestFiniteDiffGrad:
    def test_quadratic_closed_form(self):
        # f(x) = x' A x has gradient (A + A') x
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 4))
        x = rng.standard_normal(4)
        grad = finite_diff_grad(lambda v: float(v @ a @ v), x, h=1e-5)
        assert np.allclose(grad, (a + a.T) @ x, atol=1e-6)

    def test_matrix_argument(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        grad = finite_diff_grad(lambda m: float((m * m).sum()), x, h=1e-6)
        assert np.allclose(grad, 2.0 * x, atol=1e-6)

    def test_bad_step_rejected(self):
        with pytest.raises(GraftError, match="step size"):
            finite_diff_grad(lambda v: 0.0, np.zeros(2), h=0.0)

    def test_non_finite_function_value(self):
        with pytest.raises(GraftError, match="not finite"):
            finite_diff_grad(lambda v: float("nan"), np.zeros(1), h=1e-4)


class TestRowZscores:
    def test_zero_variance_rows_are_minus_infinity(self):
        m = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0], [0.0, 0.0, 4.0]])
        z = _row_zscores(m)
        s = np.sqrt(2.0 / 3.0)
        assert np.array_equal(z[1], [-np.inf] * 3)
        assert np.allclose(z[0], [-1.0 / s, 0.0, 1.0 / s])
        assert np.allclose(z[2], [-np.sqrt(0.5), -np.sqrt(0.5), np.sqrt(2.0)])
