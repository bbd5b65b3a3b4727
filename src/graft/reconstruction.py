"""Low-rank reconstruction of the target adjacency under a smoothness term and
a cross-domain consistency term.

The reconstruction factors ``u`` (n x rank) score entity pairs by ``u @ u.T``.
The objective balances fitting the observed target adjacency against keeping
the discrepancy to the source adjacency at its observed level, plus ridge
regularization. It is minimized by full-batch gradient descent with an
adaptive backtracking step (Armijo, Pacific J. Math. 1966; Nesterov, Math.
Prog. 2013) from a spectral start until the relative objective change drops
below ``CONSTRUCTION_TOL``: the first iteration tries ``eta0``, each later one
starts from the step the previous iteration accepted, doubled when that step
needed no halving, and a trial that raises the objective halves the step.

The objective and gradient are evaluated in factored form (Burer & Monteiro,
Math. Prog. 2003): with ``G = u.T @ u``,
``||u u^T - A||_F^2 = ||G||_F^2 - 2 <u, A @ u> + ||A||_F^2`` and
``(u u^T - A) @ u = u @ G - A @ u``. One evaluation forms ``G`` once and one
sparse product ``A @ u`` per term of nonzero weight (none for the smoothness
term at mu = 0, none for the consistency term at mu = 1), on the graphs' cached
CSR; every scalar is a dot product (``||u||_F^2`` is ``trace(G)``), and the
gradient is assembled in the ``u @ G`` buffer. So an evaluation costs
O(nnz * rank + n * rank^2) and the descent loop never forms an n x n array.

The spectral start is Lanczos on the sparse blend ``mu * A_T + (1 - mu) * A_S``
through ``numerics._lanczos_topk``, the solve MDS uses, to the residual
tolerance ``START_TOL``, so the solve forms no n x n array.
``finalize_edges`` scores every pair densely (``numerics._matmul``, in ARPACK's BLAS
pool) and z-scores rows by moments of ``u.T @ u``: the scores are its one n x n array.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import TransferConfig
from .errors import GraftError
from .hetgraph import HeteroGraph
from .numerics import _gram_row_moments, _lanczos_topk, _matmul
from .selection import _check_memory

log = logging.getLogger(__name__)

CONSTRUCTION_TOL = 1e-6
DIVERGENCE_LIMIT = 1e12
INIT_NOISE = 1e-3
# residual tolerance of the spectral start's Lanczos solve: far below
# INIT_NOISE, the perturbation added to the start right after it
START_TOL = 1e-8
MAX_BACKTRACKS = 60


@dataclass(frozen=True, eq=False)
class ReconstructionProblem:
    """Inputs of the construction stage.

    ``target`` and ``source`` are graphs over the same entity index (the
    extended target graph); the problem reads their binary adjacencies as the
    graphs' cached CSR. ``observed_gap`` is the dynamic factor measured
    between the domains on the original target entity set; the consistency
    term holds the reconstruction at that discrepancy level.
    """

    target: HeteroGraph
    source: HeteroGraph
    observed_gap: float
    mu: float
    reg: float
    rank: int

    def __post_init__(self):
        if self.target.entity_ids != self.source.entity_ids:
            raise GraftError("target and source graphs must share one entity index")
        if self.target.n < 2:
            raise GraftError(f"reconstruction needs at least 2 entities, got {self.target.n}")
        if not 0.0 <= self.observed_gap <= 1.0:
            raise GraftError(f"observed_gap must be in [0, 1], got {self.observed_gap}")
        if not 0.0 <= self.mu <= 1.0:
            raise GraftError(f"mu must be in [0, 1], got {self.mu}")
        if self.reg < 0:
            raise GraftError(f"reg must be nonnegative, got {self.reg}")
        if not (isinstance(self.rank, int) and self.rank >= 1):
            raise GraftError(f"rank must be a positive integer, got {self.rank!r}")

    @property
    def n(self) -> int:
        return self.target.n


class _Evaluation:
    """The objective at ``u`` with the products its gradient reuses.

    ``G = u.T @ u`` and the ``A @ u`` of each term of nonzero weight are formed
    once here, so a descent step that accepts a trial point takes the gradient
    there without forming them again.
    """

    def __init__(self, u: np.ndarray, prob: ReconstructionProblem):
        u = np.asarray(u, dtype=float)
        n = prob.n
        if u.shape[0] != n:
            raise GraftError(f"u has {u.shape[0]} rows but the problem has {n} entities")
        a_t, a_s = prob.target.csr(), prob.source.csr()  # nnz is the squared norm of a 0/1 matrix
        self.u = u
        self.prob = prob
        self.gram = u.T @ u
        self.pairs = n * (n - 1)
        gram_sq = np.vdot(self.gram, self.gram)
        self.au_t = a_t @ u if prob.mu > 0.0 else None  # at mu = 0 or 1 one term weighs nothing
        self.au_s = a_s @ u if prob.mu < 1.0 else None
        smooth = 0.0 if self.au_t is None else gram_sq - 2.0 * np.vdot(u, self.au_t) + a_t.nnz
        self.gap = prob.observed_gap if self.au_s is None else (
            gram_sq - 2.0 * np.vdot(u, self.au_s) + a_s.nnz) / self.pairs
        self.value = float(
            prob.mu * smooth
            + (1.0 - prob.mu) * (self.gap - prob.observed_gap) ** 2
            + prob.reg * np.trace(self.gram)
        )

    @property
    def objective(self) -> float:
        if not np.isfinite(self.value):
            raise GraftError("reconstruction objective is not finite")
        return self.value

    def gradient(self) -> np.ndarray:
        """``u G (4 mu + c) - 4 mu A_T u - c A_S u + 2 reg u``, assembled in the
        ``u G`` buffer, with ``c = (1 - mu) 2 (gap - observed_gap) 4 / (n (n - 1))``."""
        prob = self.prob
        c = (1.0 - prob.mu) * 2.0 * (self.gap - prob.observed_gap) * (4.0 / self.pairs)
        grad = self.u @ self.gram
        grad *= 4.0 * prob.mu + c
        if self.au_t is not None:
            grad -= 4.0 * prob.mu * self.au_t
        if self.au_s is not None:
            grad -= c * self.au_s
        grad += 2.0 * prob.reg * self.u
        if not np.isfinite(grad).all():
            raise GraftError("reconstruction gradient is not finite")
        return grad


def reconstruction_objective(u: np.ndarray, prob: ReconstructionProblem) -> float:
    """mu * ||u u^T - A_T||_F^2 + (1 - mu) * (gap(u) - observed_gap)^2 + reg * ||u||_F^2."""
    return _Evaluation(u, prob).objective


def reconstruction_gradient(u: np.ndarray, prob: ReconstructionProblem) -> np.ndarray:
    """Analytic gradient of ``reconstruction_objective`` with respect to ``u``."""
    return _Evaluation(u, prob).gradient()


@dataclass
class ReconstructionSolution:
    """Optimized factors plus the accepted-objective trace (entry 0 is the start).

    ``stop_reason`` and ``backtracks`` say why ``solve_reconstruction`` stopped
    and how many step halvings it made.
    """

    factors: np.ndarray
    objective_trace: list[float]
    stop_reason: str
    backtracks: int

    @property
    def iterations(self) -> int:
        return len(self.objective_trace) - 1


def _check_diverged(value: float) -> float:
    """Reject a start objective that is not finite or beyond ``DIVERGENCE_LIMIT``:
    the ridge term ``reg * ||u||_F^2``, ``reg`` being ``config.lam``, puts it there."""
    if not np.isfinite(value) or value > DIVERGENCE_LIMIT:
        raise GraftError(
            f"reconstruction start objective {value:.3g} exceeds {DIVERGENCE_LIMIT:.0e}; "
            "lower lam, the regularization weight"
        )
    return value


def solve_reconstruction(prob: ReconstructionProblem, config: TransferConfig | None = None) -> ReconstructionSolution:
    """Gradient descent with an adaptive backtracking step from a spectral start.

    The start point (``_spectral_start``) takes the top-rank eigenpairs of
    ``mu * A_T + (1 - mu) * A_S`` by Lanczos, scaled by the square roots of
    the clipped eigenvalues, plus a small perturbation seeded by
    ``config.seed`` to break symmetry. The first iteration tries the step
    ``eta0``; each later one starts from the step the previous iteration
    accepted, doubled if it was accepted without a halving. A trial that
    raises the objective halves the step. The run stops when the relative
    change drops below ``CONSTRUCTION_TOL``, at the iteration cap, or when
    ``MAX_BACKTRACKS`` halvings find no descent. Each accepted point is
    evaluated once: its gradient comes from the products of that evaluation.
    """
    config = config or TransferConfig()
    start = _spectral_start(prob, config.seed)
    with np.errstate(over="ignore", invalid="ignore"):  # a start that overflows is _check_diverged's to name
        current = _Evaluation(start, prob)
    obj = _check_diverged(current.value)
    trace = [obj]
    backtracks = 0
    stop = "iteration cap"
    eta = config.eta0
    for _ in range(config.construction_max_iters):
        grad = current.gradient()
        for halvings in range(MAX_BACKTRACKS):
            trial = _Evaluation(current.u - eta * grad, prob)
            if trial.value <= obj:  # False for a non-finite trial
                break
            eta *= 0.5
            backtracks += 1
        else:
            stop = f"no descent after {MAX_BACKTRACKS} halvings"
            break
        if halvings == 0:  # accepted at its first trial: try twice the step next
            eta *= 2.0
        prev, current, obj = obj, trial, trial.value
        trace.append(obj)
        if abs(obj - prev) / max(abs(prev), 1e-30) < CONSTRUCTION_TOL:
            stop = "tolerance"
            break
    solution = ReconstructionSolution(current.u, trace, stop, backtracks)
    log.info(
        "reconstruction stopped by %s after %d iteration(s), %d backtrack(s), objective %.6g",
        solution.stop_reason,
        solution.iterations,
        solution.backtracks,
        obj,
    )
    return solution


def _spectral_start(prob: ReconstructionProblem, seed: int) -> np.ndarray:
    """Top-rank eigenvectors of ``mu * A_T + (1 - mu) * A_S`` scaled by the
    square roots of their clipped eigenvalues, plus ``INIT_NOISE`` times a
    normal draw seeded by ``seed``."""
    n = prob.n
    rank = min(prob.rank, n)
    blended = prob.mu * prob.target.csr() + (1.0 - prob.mu) * prob.source.csr()
    if blended.nnz == 0:  # every eigenvalue is 0, and ARPACK cannot start on a zero operator
        u = np.zeros((n, rank))
    else:
        values, vectors = _lanczos_topk(blended.dot, n, rank, "spectral start", START_TOL)
        u = vectors * np.sqrt(np.clip(values, 0.0, None))[None, :]
    return u + INIT_NOISE * np.random.default_rng(seed).standard_normal(u.shape)


def finalize_edges(u: np.ndarray, merged: HeteroGraph, z: float) -> HeteroGraph:
    """Threshold the reconstruction scores into edges, keeping all original edges.

    The score matrix ``u @ u.T`` of the n × rank factors ``u`` is standardized
    per row by moments of uᵀu; pair (i, j) becomes an edge when the larger of
    its two directed z-scores reaches ``z``. Edges already present keep their
    original weights; new edges get the raw score, clipped below at machine
    epsilon so weights stay positive. Rows with zero variance propose nothing.
    """
    n = merged.n
    if u.shape[0] != n:
        raise GraftError(f"factors have {u.shape[0]} rows but the graph has {n} entities")
    _check_memory(f"edge scoring over {n} entities", 11 * n * n)  # one float64 and three boolean n × n arrays
    scores = _matmul(u, u.T)
    mean, std = _gram_row_moments(u)
    hit = scores >= np.where(std > 0.0, mean + z * std, np.inf)[:, None]
    decision = np.triu(hit | hit.T, k=1)
    rows, cols, weights = merged.edge_arrays()
    decision[rows, cols] = False
    new_rows, new_cols = np.nonzero(decision)
    return merged._with_edges(
        np.concatenate([rows, new_rows]),
        np.concatenate([cols, new_cols]),
        np.concatenate([weights, np.maximum(scores[new_rows, new_cols], np.finfo(float).eps)]),
    )
