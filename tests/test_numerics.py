import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from graft import GraftError, mds_embed, numerics
from graft.numerics import (
    SYMMETRY_RTOL,
    _TILE,
    _check_symmetric,
    _lanczos_topk,
    _matmul,
    _row_zscores,
    ols_nonneg,
    sym_eig_topk,
)
from testkit import finite_diff_grad

SRC = str(Path(__file__).resolve().parents[1] / "src")


INVALID_EIG_INPUTS = [
    (np.zeros((2, 3)), 1, "square"),
    (np.zeros((3, 3)), 0, "k must be"),
    (np.zeros((3, 3)), 4, "k must be"),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), 1, "symmetric"),
    (np.array([[np.nan, 0.0], [0.0, 0.0]]), 1, "finite"),
]


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

    @pytest.mark.parametrize("m,k,msg", INVALID_EIG_INPUTS)
    def test_invalid_rejected(self, m, k, msg):
        with pytest.raises(GraftError, match=msg):
            sym_eig_topk(m, k)


def full_eigh_top(m, k):
    """Top k eigenpairs from a full ``np.linalg.eigh``, descending, largest-magnitude entry positive."""
    values, vectors = np.linalg.eigh(m)
    values, vectors = values[::-1][:k], vectors[:, ::-1][:, :k]
    signs = np.sign(vectors[np.abs(vectors).argmax(axis=0), np.arange(k)])
    return values, vectors * signs


def random_symmetric(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a + a.T


def dense_mds(m, k):
    """MDS through a full ``np.linalg.eigh`` of the explicitly centred B = −½·J·m·J."""
    n = len(m)
    j = np.eye(n) - 1.0 / n
    values, vectors = full_eigh_top(-0.5 * j @ m @ j, k)
    return vectors * np.sqrt(np.clip(values, 0.0, None))


def squared_distances_of_points(n, dim, seed):
    x = np.random.default_rng(seed).standard_normal((n, dim))
    return ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)


class TestSymEigTopkSubset:
    """MDS's top-d1-only solve (Lanczos, or the full solve for d1 >= n − 1) against a dense reference."""

    # n = d1 and d1 + 1 take the full solve, d1 + 2 and up the Lanczos one
    @pytest.mark.parametrize(
        "n,k", [(40, 1), (40, 16), (40, 40), (1, 1), (200, 16), (16, 16), (17, 16), (18, 16)]
    )
    def test_matches_full_eigh(self, n, k):
        m = random_symmetric(n, n + k)
        got, want = mds_embed(m, k), dense_mds(m, k)
        scale = np.abs(m).max()
        assert got.shape == (n, k)
        assert np.allclose(got @ got.T, want @ want.T, rtol=0.0, atol=1e-10 * scale)
        # clipped directions and the centring's null vector are zero up to the root of a rounding error
        kept = (want * want).sum(axis=0) > 1e-8 * scale
        assert np.allclose(got[:, kept], want[:, kept], rtol=0.0, atol=1e-8 * np.sqrt(scale))

    def test_repeated_eigenvalue_at_the_cut(self):
        # B = −½·J·D·J with eigenvalues 9, 7, 5, 5, 2, ... on the centred
        # vectors: the top 4 end on a pair, so only the pair's span is fixed
        n = 30
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, n - 1))]))
        q = q[:, 1:]
        spectrum = np.concatenate([[9.0, 7.0, 5.0, 5.0], np.linspace(2.0, -3.0, n - 5)])
        b = (q * spectrum) @ q.T
        d = np.diag(b)[:, None] + np.diag(b)[None, :] - 2.0 * b
        d = (d + d.T) / 2.0
        emb = mds_embed(d, 4)
        assert np.allclose(emb.T @ emb, np.diag(spectrum[:4]), rtol=0.0, atol=1e-12 * np.abs(d).max())
        assert np.allclose(emb @ emb.T, (q[:, :4] * spectrum[:4]) @ q[:, :4].T, atol=1e-10)
        pair = emb[:, 2:] / np.sqrt(5.0)
        assert np.allclose(pair @ pair.T, q[:, 2:4] @ q[:, 2:4].T, atol=1e-10)

    def test_deterministic(self):
        # 40 points in R³ give a B of rank 3, so 13 of the 16 directions are
        # null; 4 clusters of 10 coincident points give B the eigenvalue 20
        # three times, and Lanczos restarts from random vectors to find it
        clusters = np.arange(40) % 4
        for m in (
            random_symmetric(120, 9),
            squared_distances_of_points(40, 3, 0),
            4.0 * (clusters[:, None] != clusters[None, :]),
        ):
            assert np.array_equal(mds_embed(m, 16), mds_embed(m.copy(), 16))

    @pytest.mark.parametrize("m,k,msg", INVALID_EIG_INPUTS)
    def test_invalid_rejected(self, m, k, msg):
        # MDS rejects these before it forms or applies B (TestSymEigTopk
        # runs them through the full solve)
        with pytest.raises(GraftError, match=msg.replace("k must", "d1 must")):
            mds_embed(m, k)

    def test_inf_mix_rejected_before_centring(self):
        # row means of +inf and -inf are nan, with a RuntimeWarning CI turns into an error
        m = np.zeros((3, 3))
        m[0, 1], m[1, 0], m[0, 2], m[2, 0] = np.inf, np.inf, -np.inf, -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(GraftError, match="finite"):
                mds_embed(m, 1)

    def test_input_left_unchanged(self):
        # 4 entities take the full solve of a formed B, 20 the Lanczos solve
        for n in (4, 20):
            m = random_symmetric(n, 1)
            m[0, 1] += 1e-12  # so writing (m + mᵀ)/2 back would change it
            before = m.copy()
            sym_eig_topk(m, 3)
            mds_embed(m, 3)
            assert np.array_equal(m, before)


class TestMatmul:
    """``_matmul`` runs in scipy's BLAS pool and must give numpy's ``@`` bit for bit."""

    @pytest.mark.parametrize("n", [1, 7, 300, 1200])
    @pytest.mark.parametrize("k", [None, 1, 2, 16])
    def test_square_times_block(self, n, k):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal(n if k is None else (n, k))
        got = _matmul(a, b)
        assert got.shape == (a @ b).shape
        assert np.array_equal(got, a @ b)

    @pytest.mark.parametrize("n", [1, 9, 255, 256, 257, 300, 528, 1200])
    @pytest.mark.parametrize("r", [3, 16])
    def test_gram_rows(self, n, r):
        u = np.random.default_rng(n + r).standard_normal((n, r))
        got = _matmul(u, u.T)
        assert np.array_equal(got, u @ u.T)
        assert np.array_equal(got, got.T)

    def test_tall_times_wide_at_one_thread(self):
        # at more threads numpy's and scipy's OpenBLAS builds may split a
        # non-square dgemm differently, so its bits are pinned at one thread
        code = (
            "import numpy as np\n"
            "from graft.numerics import _matmul\n"
            "for n, r in ((9, 3), (300, 16), (600, 16), (1200, 16)):\n"
            "    rng = np.random.default_rng(n)\n"
            "    u, v = rng.standard_normal((n, r)), rng.standard_normal((r, n))\n"
            "    assert np.array_equal(_matmul(u, v), u @ v), (n, r)\n"
            "    assert np.array_equal(_matmul(v, u), v @ u), (n, r)\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": SRC}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(5)
        big = rng.standard_normal((400, 400))
        a, b, x = big[::2, ::2], big[:200, 1::2][:, :16], big[1::2, 3]
        assert not (a.flags.c_contiguous or b.flags.c_contiguous or x.flags.c_contiguous)
        c = a.copy()
        for right, same in ((b, b.copy()), (x, x.copy()), (a.T, c.T)):
            got = _matmul(a, right)
            assert np.array_equal(got, _matmul(c, same))
            assert np.array_equal(got, c @ same)
        assert np.array_equal(_matmul(np.asfortranarray(a), b), c @ b.copy())


class TestLanczosTopk:
    def test_dense_branch_is_the_full_solve(self):
        m = random_symmetric(12, 4)
        for k in (11, 12):
            got = _lanczos_topk(lambda x: m @ x, 12, k, "test")
            want = sym_eig_topk(m, k)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_matches_full_solve_and_reruns_bitwise(self):
        m = random_symmetric(80, 2)
        values, vectors = _lanczos_topk(lambda x: m @ x, 80, 5, "test")
        want_values, want_vectors = sym_eig_topk(m, 5)
        assert np.allclose(values, want_values, rtol=0.0, atol=1e-10)
        assert np.allclose(vectors, want_vectors, rtol=0.0, atol=1e-8)
        again = _lanczos_topk(lambda x: m.copy() @ x, 80, 5, "test")
        assert np.array_equal(again[0], values) and np.array_equal(again[1], vectors)

    def test_failure_names_the_solve(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ArpackNoConvergence("No convergence", [], [])

        monkeypatch.setattr(numerics, "eigsh", fail)
        with pytest.raises(GraftError, match="^start eigensolve failed: ARPACK error -1: No convergence"):
            _lanczos_topk(lambda x: x, 30, 3, "start")


# one tile short, exactly one, one over, and two tiles and one row
TILE_EDGE_SIZES = [_TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1]


def far_tile_corners(n):
    """The last cell of each off-diagonal tile; with one tile, the last cell above its diagonal."""
    starts = range(0, n, _TILE)
    corners = [(min(i + _TILE, n) - 1, min(j + _TILE, n) - 1) for i in starts for j in starts if i < j]
    return corners or [(n - 2, n - 1)]


class TestCheckSymmetric:
    @pytest.mark.parametrize("n", TILE_EDGE_SIZES)
    def test_asymmetry_under_tolerance_accepted_and_input_unchanged(self, n):
        m = random_symmetric(n, n)
        for cell in far_tile_corners(n):
            m[cell] += 0.5 * SYMMETRY_RTOL * np.abs(m).max()
        before = m.copy()
        assert _check_symmetric(m, 1) is None
        assert np.array_equal(m, before) and not np.array_equal(m, m.T)

    @pytest.mark.parametrize("n", TILE_EDGE_SIZES)
    def test_asymmetry_in_far_tile_corner_rejected(self, n):
        for i, j in far_tile_corners(n):
            for cell in ((i, j), (j, i)):
                m = random_symmetric(n, n)
                m[cell] += 1e-6 * np.abs(m).max()
                before = m.copy()
                with pytest.raises(GraftError, match="not symmetric"):
                    _check_symmetric(m, 1)
                assert np.array_equal(m, before)


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
