"""Deterministic numerical kernels: the symmetric eigensolve, clamped ridge
regression, and per-row standardization.

``sym_eig_topk`` solves for all eigenpairs with ``numpy.linalg.eigh`` (the
construction's spectral start, and MDS on inputs too small for its Lanczos
solve) and keeps the top k. ``_check_symmetric`` walks tile pairs and
writes nothing, and ``eigh`` reads one triangle of the matrix as given, so
``sym_eig_topk`` makes no copy of a float64 input; MDS runs the same check
on the matrix it embeds and orders and orients its Lanczos eigenpairs with
``_top_oriented``. All routines fix sign and ordering conventions so that
identical inputs give bit-identical outputs on a given platform.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import GraftError

SYMMETRY_RTOL = 1e-9
# side of the square tiles that symmetry checks walk in mirrored pairs, so both stay in cache
_TILE = 256


def sym_eig_topk(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of a symmetric matrix, sorted by descending eigenvalue.

    Parameters
    ----------
    m : (n, n) array, symmetric within ``SYMMETRY_RTOL`` of its largest entry.
    k : number of eigenpairs, 1 <= k <= n.

    Returns
    -------
    values : (k,) eigenvalues, descending (algebraic order, not magnitude).
    vectors : (n, k) orthonormal eigenvectors; each column is flipped so its
        largest-magnitude entry is positive, which makes the result unique.

    Solves for all n eigenpairs (``numpy.linalg.eigh``, which reads the lower
    triangle) and keeps the top k; ``m`` is left unchanged.
    """
    m = np.asarray(m, dtype=float)
    _check_symmetric(m, k)
    values, vectors = np.linalg.eigh(m)
    return _top_oriented(values, vectors, k)


def _check_symmetric(m: np.ndarray, k: int) -> None:
    """Raise ``GraftError`` unless the float64 array ``m`` is square, has at
    least k rows (k >= 1), is finite, and is symmetric within
    ``SYMMETRY_RTOL`` of its largest |entry|.

    Symmetry is checked on |A − Bᵀ| over pairs of ``_TILE`` × ``_TILE`` tiles
    A = m[I, J] and B = m[J, I], so the only temporary is one tile; ``m`` is
    never written.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GraftError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if not (1 <= k <= n):
        raise GraftError(f"k must be in [1, {n}], got {k}")
    lo, hi = m.min(), m.max()  # a nan or an inf reaches one of them
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise GraftError("matrix must be finite")
    tol = SYMMETRY_RTOL * max(hi, -lo)
    for a, b in _tile_pairs(m):
        t = np.subtract(a, b.T)
        if np.abs(t, out=t).max() > tol:
            raise GraftError("matrix is not symmetric within tolerance")


def _tile_pairs(m: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Mirrored views (m[I, J], m[J, I]) of square ``m`` over its ``_TILE``-sided tiles with I <= J."""
    for i in range(0, m.shape[0], _TILE):
        for j in range(i, m.shape[0], _TILE):
            yield m[i : i + _TILE, j : j + _TILE], m[j : j + _TILE, i : i + _TILE]


def _top_oriented(values: np.ndarray, vectors: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The top k of ascending eigenpairs, descending, each vector flipped so
    its largest-magnitude entry is positive."""
    values = values[::-1][:k].copy()
    vectors = vectors[:, ::-1][:, :k].copy()
    for col in range(k):
        v = vectors[:, col]
        if v[np.argmax(np.abs(v))] < 0:
            vectors[:, col] = -v
    return values, vectors


def ols_nonneg(design: np.ndarray, target: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Ridge least squares with negative coefficients clamped to zero.

    Solves min_w ||design @ w - target||^2 + ridge * ||w||^2 and then sets
    negative entries of w to zero, through ``solve_normal_nonneg`` and its
    rules for a zero ridge.
    """
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    if design.ndim != 2:
        raise GraftError(f"design must be 2-d, got shape {design.shape}")
    if target.shape != design.shape[:1]:
        raise GraftError(f"target shape {target.shape} does not match design rows {design.shape[0]}")
    if not (np.isfinite(design).all() and np.isfinite(target).all()):
        raise GraftError("design and target must be finite")
    return solve_normal_nonneg(design.T @ design, design.T @ target, design.shape[0], ridge)


def solve_normal_nonneg(gram: np.ndarray, moment: np.ndarray, rows: int, ridge: float) -> np.ndarray:
    """Clamped ridge solution from the normal equations of a ``rows``-row design.

    Solves (gram + ridge * I) w = moment, with gram = XᵀX and moment = Xᵀt,
    and sets negative entries of w to zero. With ridge == 0 a design with
    fewer rows than columns, or a rank-deficient gram (numerically, by
    ``matrix_rank``'s default tolerance), makes the equations singular; that
    is an error recommending a positive ridge.
    """
    k = gram.shape[0]
    if ridge == 0.0 and rows < k:
        raise GraftError(f"need at least as many rows ({rows}) as columns ({k})")
    if ridge < 0:
        raise GraftError(f"ridge must be nonnegative, got {ridge}")
    if ridge == 0.0 and np.linalg.matrix_rank(gram, hermitian=True) < k:
        raise GraftError("design matrix is rank deficient; set ridge > 0 to regularize")
    w = np.linalg.solve(gram + ridge * np.eye(k), moment)
    w[w < 0] = 0.0
    return w


def _row_zscores(m: np.ndarray) -> np.ndarray:
    """Per-row z-scores (population std); a row with zero variance is all -inf,
    so it clears no threshold and never wins a max."""
    stds = m.std(axis=1, keepdims=True)
    return np.divide(m - m.mean(axis=1, keepdims=True), stds, out=np.full(m.shape, -np.inf), where=stds > 0.0)
