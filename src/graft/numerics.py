"""Deterministic numerical kernels: the symmetric eigensolves, the threaded
dense and symmetric products, clamped ridge regression, the row moments of
x xᵀ, and the memory budget (``_check_memory``) the stages check first.

``_lanczos_topk`` is the one top-k eigensolve of the pipeline: ARPACK's
Lanczos iteration on a symmetric operator given as a function (MDS's double
centring and the construction's sparse spectral start), with a fixed start
vector and restart generator. Inputs too small for ARPACK go to
``sym_eig_topk``, which solves for all eigenpairs with ``numpy.linalg.eigh``
and keeps the top k. ``_check_symmetric``, the one symmetry rule, which
``sym_eig_topk``, MDS and the weight fit run on their inputs, walks tile
pairs and writes nothing; ``eigh`` reads one triangle of the matrix as
given, so ``sym_eig_topk`` makes no copy of a float64 input.

numpy and scipy each load their own OpenBLAS with its own thread pool.
ARPACK's BLAS calls run in scipy's pool; a threaded numpy product between
them runs in numpy's, and the two pools' idle workers spin against each other
(README, "One BLAS pool"). So the dense products beside the eigensolves go
through ``_matmul`` and, for a symmetric matrix such as MDS's blend,
``_symmul``, which reads one triangle of it (``dsymv``); both call
``scipy.linalg.blas`` directly. All routines fix sign and ordering
conventions so that identical inputs give bit-identical outputs on a given
platform and BLAS thread count.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np
from scipy.linalg import blas
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import GraftError

SYMMETRY_RTOL = 1e-9
# side of the square tiles that symmetry checks walk in mirrored pairs, so both stay in cache
_TILE = 256
# the process's cgroups, and the mount roots of the cgroup v2 and v1 memory hierarchies
_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_V2_ROOT = "/sys/fs/cgroup"
_CGROUP_V1_MEMORY_ROOT = "/sys/fs/cgroup/memory"


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
    _check_symmetric(m)
    if not (1 <= k <= m.shape[0]):
        raise GraftError(f"k must be in [1, {m.shape[0]}], got {k}")
    values, vectors = np.linalg.eigh(m)
    return _top_oriented(values, vectors, k)


def _lanczos_topk(
    apply: Callable[[np.ndarray], np.ndarray], n: int, k: int, what: str, tol: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of the symmetric n × n operator ``apply``, as ``sym_eig_topk`` returns them.

    ``apply`` maps an (n,) vector or an (n, j) block to its product with the
    operator. ARPACK's Lanczos iteration (``eigsh``; Lehoucq, Sorensen & Yang,
    SIAM 1998) runs to the residual tolerance ``tol`` (0 is machine
    precision). One generator seeded with 0 draws the start vector ``v0`` and
    is the restart ``rng``, so reruns are bitwise equal. With k >= n − 1, too
    many for ARPACK, the operator is applied to the identity and solved by
    ``sym_eig_topk``. ARPACK cannot start on a zero operator; callers handle
    that case. A failed solve is a ``GraftError`` naming ``what``.
    """
    if k >= n - 1:
        return sym_eig_topk(apply(np.eye(n)), k)
    rng = np.random.default_rng(0)
    op = LinearOperator((n, n), matvec=apply, matmat=apply, dtype=float)
    try:
        values, vectors = eigsh(op, k=k, which="LA", v0=rng.uniform(-1.0, 1.0, n), rng=rng, tol=tol)
    except ArpackError as exc:  # ArpackNoConvergence among them
        raise GraftError(f"{what} eigensolve failed: {exc}") from None
    return _top_oriented(values, vectors, k)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a 2-d float64 ``a`` and a 1-d or 2-d ``b``, through scipy's BLAS.

    One call: ``dgemv`` for a 1-d ``b``, else ``dgemm`` on the transposes.
    The transposes of C-contiguous inputs are Fortran-contiguous views, so
    nothing is copied; other layouts are copied by the wrapper on every call
    (for ``a @ a.T``, the n × k ``a``), so make a large reused input
    C-contiguous once. The result agrees with numpy's ``@`` to rounding, not
    bit for bit, and ``a @ a.T`` need not be exactly symmetric.
    """
    if b.ndim == 1:
        return blas.dgemv(1.0, a.T, b, trans=1)
    return blas.dgemm(1.0, b.T, a.T).T


def _symmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a symmetric C-contiguous float64 ``a`` and a 1-d or 2-d
    ``b``, through scipy's BLAS, reading one triangle of ``a``.

    One call: ``dsymv`` for a 1-d ``b``, else ``dsymm`` with ``a`` on the
    right of ``bᵀ``. ``aᵀ`` is passed, a Fortran-contiguous view whose upper
    triangle is ``a``'s lower one, so nothing is copied. A matrix–vector
    product reads n²/2 entries instead of ``dgemv``'s n², and agrees with it
    to rounding, not bit for bit.
    """
    if b.ndim == 1:
        return blas.dsymv(1.0, a.T, b)
    return blas.dsymm(1.0, a.T, b.T, side=1).T


def _check_symmetric(m: np.ndarray) -> None:
    """Raise ``GraftError`` unless ``m`` is square, finite, and symmetric
    within ``SYMMETRY_RTOL`` of its largest |entry|.

    Symmetry is checked on |A − Bᵀ| over pairs of ``_TILE`` × ``_TILE`` tiles
    A = m[I, J] and B = m[J, I], so the only temporary is one tile; ``m`` is
    never written. An unsigned ``m`` is read as given: its wrapped
    difference is nonzero wherever the tiles differ.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GraftError(f"matrix must be square, got shape {m.shape}")
    lo, hi = m.min(initial=0), m.max(initial=0)  # a nan or an inf reaches one of them
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise GraftError("matrix must be finite")
    tol = SYMMETRY_RTOL * max(hi, -lo)
    for i in range(0, m.shape[0], _TILE):
        for j in range(i, m.shape[0], _TILE):
            t = np.subtract(m[i : i + _TILE, j : j + _TILE], m[j : j + _TILE, i : i + _TILE].T)
            if np.abs(t, out=t).max() > tol:
                raise GraftError("matrix is not symmetric within tolerance")


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


def _gram_row_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of every row of ``x @ x.T``, without forming it.

    Row i has mean x_i·s/n (s the sum of x's n rows) and second moment
    x_i·(G x_i)/n (G = xᵀx), from ``_matmul`` products of n × k at most; std =
    √max(second − mean², 0) is exactly 0 for a zero row of x, about √ε·|mean|
    (cancellation) for a constant row of x xᵀ.
    """
    mean = _matmul(x, x.sum(axis=0)) / len(x)
    second = np.einsum("ij,ij->i", _matmul(x, _matmul(x.T, x)), x) / len(x)
    return mean, np.sqrt(np.maximum(second - mean * mean, 0.0))


def _check_memory(what: str, need: int) -> None:
    """Raise ``GraftError`` when ``what`` needs more than ``_physical_memory_bytes()`` bytes."""
    if (budget := _physical_memory_bytes()) is not None and need > budget:
        raise GraftError(f"{what} needs {need} bytes for its arrays, more than the {budget} bytes "
                         "of physical memory or cgroup limit")


def _physical_memory_bytes() -> int | None:
    """Memory the process may use: the smallest of physical memory (``os.sysconf``
    page size × page count) and the memory limits of the process's cgroups,
    those known; None where none is.

    The cgroup of the v2 line (``0::``) of ``_PROC_CGROUP``, and of a v1 line
    that names ``memory``, is read with each of its ancestors up to the mount
    root: ``memory.max`` under ``_CGROUP_V2_ROOT``, ``memory.limit_in_bytes``
    under ``_CGROUP_V1_MEMORY_ROOT``. A file that holds ``max``, is missing or
    cannot be read sets no limit."""
    try:
        size, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        size = pages = 0
    figures = [size * pages] if size > 0 and pages > 0 else []
    try:
        with open(_PROC_CGROUP) as f:
            lines = f.read().splitlines()
    except OSError:
        lines = []
    for line in lines:
        hierarchy, _, rest = line.partition(":")
        controllers, _, path = rest.partition(":")
        if hierarchy == "0" and not controllers:
            root, name = _CGROUP_V2_ROOT, "memory.max"
        elif "memory" in controllers.split(","):
            root, name = _CGROUP_V1_MEMORY_ROOT, "memory.limit_in_bytes"
        else:
            continue
        parts = [p for p in path.split("/") if p]
        for depth in range(len(parts) + 1):
            try:
                with open(os.path.join(root, *parts[:depth], name)) as f:
                    limit = f.read().strip()
            except OSError:
                continue
            if limit.isdigit():
                figures.append(int(limit))
    return min(figures, default=None)
