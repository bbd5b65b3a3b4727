"""Deterministic numerical kernels: symmetric eigensolves, clamped ridge
regression, and per-row standardization.

All routines fix sign and ordering conventions so that identical inputs give
bit-identical outputs on a given platform.
"""

from __future__ import annotations

import numpy as np

from .errors import GraftError

SYMMETRY_RTOL = 1e-9


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
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GraftError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if not (1 <= k <= n):
        raise GraftError(f"k must be in [1, {n}], got {k}")
    if not np.isfinite(m).all():
        raise GraftError("matrix must be finite")
    scale = np.abs(m).max()
    if scale > 0 and np.abs(m - m.T).max() > SYMMETRY_RTOL * scale:
        raise GraftError("matrix is not symmetric within tolerance")
    values, vectors = np.linalg.eigh((m + m.T) / 2.0)
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
    negative entries of w to zero. With ridge == 0 a design with fewer rows
    than columns, or rank deficient, makes the normal equations singular;
    that is an error recommending a positive ridge.
    """
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    if design.ndim != 2:
        raise GraftError(f"design must be 2-d, got shape {design.shape}")
    n, k = design.shape
    if target.shape != (n,):
        raise GraftError(f"target shape {target.shape} does not match design rows {n}")
    if ridge == 0.0 and n < k:
        raise GraftError(f"need at least as many rows ({n}) as columns ({k})")
    if not (np.isfinite(design).all() and np.isfinite(target).all()):
        raise GraftError("design and target must be finite")
    if ridge < 0:
        raise GraftError(f"ridge must be nonnegative, got {ridge}")
    if ridge == 0.0 and np.linalg.matrix_rank(design) < k:
        raise GraftError("design matrix is rank deficient; set ridge > 0 to regularize")
    gram = design.T @ design + ridge * np.eye(k)
    w = np.linalg.solve(gram, design.T @ target)
    w[w < 0] = 0.0
    return w


def _row_zscores(m: np.ndarray) -> np.ndarray:
    """Per-row z-scores (population std); a row with zero variance is all -inf,
    so it clears no threshold and never wins a max."""
    stds = m.std(axis=1, keepdims=True)
    return np.divide(m - m.mean(axis=1, keepdims=True), stds, out=np.full(m.shape, -np.inf), where=stds > 0.0)
