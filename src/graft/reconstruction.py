"""Low-rank reconstruction of the target adjacency under a smoothness term and
a cross-domain consistency term.

The reconstruction factors ``u`` (n x rank) score entity pairs by ``u @ u.T``.
The objective balances fitting the observed target adjacency against keeping
the discrepancy to the source adjacency at its observed level, plus ridge
regularization. It is minimized by full-batch gradient descent with
backtracking line search from a spectral initialization.

The objective and gradient are evaluated in factored form (Burer & Monteiro,
Math. Prog. 2003): with ``G = u.T @ u``,
``||u u^T - A||_F^2 = ||G||_F^2 - 2 sum(u * (A @ u)) + ||A||_F^2`` and
``(u u^T - A) @ u = u @ G - A @ u``. Both adjacency views are held as CSR, so
one evaluation costs O(nnz * rank + n * rank^2) and the descent loop never
forms an n x n array.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .config import TransferConfig
from .errors import GraftError
from .hetgraph import AdjacencyView, HeteroGraph
from .numerics import _row_zscores, sym_eig_topk

log = logging.getLogger(__name__)

DIVERGENCE_LIMIT = 1e12
INIT_NOISE = 1e-3
MAX_BACKTRACKS = 60


@dataclass(frozen=True, eq=False)
class ReconstructionProblem:
    """Inputs of the construction stage.

    ``target_adj`` and ``source_adj`` are binary adjacency views over the same
    entity index (the extended target graph). ``observed_gap`` is the dynamic
    factor measured between the domains on the original target entity set;
    the consistency term holds the reconstruction at that discrepancy level.
    """

    target_adj: AdjacencyView
    source_adj: AdjacencyView
    observed_gap: float
    mu: float
    reg: float
    rank: int

    def __post_init__(self):
        if self.target_adj.ids != self.source_adj.ids:
            raise GraftError("target and source adjacency views must share one entity index")
        if self.target_adj.n < 2:
            raise GraftError(f"reconstruction needs at least 2 entities, got {self.target_adj.n}")
        if not (self.target_adj.binary and self.source_adj.binary):
            raise GraftError("reconstruction expects binary adjacency views")
        if not 0.0 <= self.observed_gap <= 1.0:
            raise GraftError(f"observed_gap must be in [0, 1], got {self.observed_gap}")
        if not 0.0 <= self.mu <= 1.0:
            raise GraftError(f"mu must be in [0, 1], got {self.mu}")
        if self.reg < 0:
            raise GraftError(f"reg must be nonnegative, got {self.reg}")
        if not (isinstance(self.rank, int) and self.rank >= 1):
            raise GraftError(f"rank must be a positive integer, got {self.rank!r}")
        # the sparse forms and squared Frobenius norms every evaluation reads
        for name, view in (("_target", self.target_adj), ("_source", self.source_adj)):
            a = sp.csr_matrix(view.matrix)
            object.__setattr__(self, name, (a, float((a.data * a.data).sum())))

    @property
    def n(self) -> int:
        return self.target_adj.n


class _Evaluation:
    """The objective at ``u`` with the products its gradient reuses.

    ``G = u.T @ u`` and both ``A @ u`` are formed once here, so a descent step
    that accepts a trial point takes the gradient there without forming them
    again.
    """

    def __init__(self, u: np.ndarray, prob: ReconstructionProblem):
        u = np.asarray(u, dtype=float)
        n = prob.n
        if u.shape[0] != n:
            raise GraftError(f"u has {u.shape[0]} rows but the problem has {n} entities")
        (a_t, sq_t), (a_s, sq_s) = prob._target, prob._source
        self.u = u
        self.prob = prob
        self.gram = u.T @ u
        self.au_t = a_t @ u
        self.au_s = a_s @ u
        self.pairs = n * (n - 1)
        gram_sq = float((self.gram * self.gram).sum())
        smooth = gram_sq - 2.0 * float((u * self.au_t).sum()) + sq_t
        self.gap = (gram_sq - 2.0 * float((u * self.au_s).sum()) + sq_s) / self.pairs
        self.value = (
            prob.mu * smooth
            + (1.0 - prob.mu) * (self.gap - prob.observed_gap) ** 2
            + prob.reg * float((u * u).sum())
        )

    @property
    def objective(self) -> float:
        if not np.isfinite(self.value):
            raise GraftError("reconstruction objective is not finite")
        return self.value

    def gradient(self) -> np.ndarray:
        prob, u = self.prob, self.u
        ug = u @ self.gram
        grad = (
            4.0 * prob.mu * (ug - self.au_t)
            + (1.0 - prob.mu) * 2.0 * (self.gap - prob.observed_gap) * (4.0 / self.pairs) * (ug - self.au_s)
            + 2.0 * prob.reg * u
        )
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
    and how many step halvings it made; they stay empty for hand-built
    solutions.
    """

    factors: np.ndarray
    objective_trace: list[float]
    iterations: int
    stop_reason: str = ""
    backtracks: int = 0


def _check_diverged(value: float) -> float:
    if not np.isfinite(value) or value > DIVERGENCE_LIMIT:
        raise GraftError(
            f"reconstruction objective diverged (> {DIVERGENCE_LIMIT:.0e}); "
            "reduce the step size eta0"
        )
    return value


def solve_reconstruction(
    prob: ReconstructionProblem, seed: int, config: TransferConfig | None = None
) -> ReconstructionSolution:
    """Gradient descent with backtracking from a spectral start.

    The start point takes the top-rank eigenpairs of
    ``mu * A_T + (1 - mu) * A_S`` scaled by the square roots of the clipped
    eigenvalues, plus a small seeded perturbation to break symmetry. Each
    iteration resets the step to ``eta0`` and halves it until the objective
    does not increase; the run stops when the relative objective change drops
    below ``construction_tol``, when the iteration cap is reached, or when
    ``MAX_BACKTRACKS`` halvings find no descent. Each accepted point is
    evaluated once: its gradient comes from the products of that evaluation.
    """
    config = config or TransferConfig()
    n = prob.n
    rank = min(prob.rank, n)
    blended = prob.mu * prob.target_adj.matrix + (1.0 - prob.mu) * prob.source_adj.matrix
    values, vectors = sym_eig_topk(blended, rank)
    u = vectors * np.sqrt(np.clip(values, 0.0, None))[None, :]
    rng = np.random.default_rng(seed)
    u = u + INIT_NOISE * rng.standard_normal(u.shape)
    current = _Evaluation(u, prob)
    obj = _check_diverged(current.objective)
    trace = [obj]
    backtracks = 0
    stop = "iteration cap"
    for _ in range(config.construction_max_iters):
        grad = current.gradient()
        eta = config.eta0
        for _ in range(MAX_BACKTRACKS):
            trial = _Evaluation(current.u - eta * grad, prob)
            if trial.value <= obj:  # False for a non-finite trial
                break
            eta *= 0.5
            backtracks += 1
        else:
            stop = f"no descent after {MAX_BACKTRACKS} halvings"
            break
        prev, current, obj = obj, trial, trial.value
        trace.append(obj)
        if abs(obj - prev) / max(abs(prev), 1e-30) < config.construction_tol:
            stop = "tolerance"
            break
    solution = ReconstructionSolution(current.u, trace, len(trace) - 1, stop, backtracks)
    log.info(
        "reconstruction stopped by %s after %d iteration(s), %d backtrack(s), objective %.6g",
        solution.stop_reason,
        solution.iterations,
        solution.backtracks,
        obj,
    )
    return solution


def finalize_edges(solution: ReconstructionSolution, merged: HeteroGraph, z: float) -> HeteroGraph:
    """Threshold the reconstruction scores into edges, keeping all original edges.

    The score matrix ``u @ u.T`` is standardized per row; pair (i, j) becomes
    an edge when the larger of its two directed z-scores reaches ``z``. Edges
    already present keep their original weights; new edges get the raw score,
    clipped below at machine epsilon so weights stay positive. Rows with zero
    variance propose nothing.
    """
    n = merged.n
    u = solution.factors
    if u.shape[0] != n:
        raise GraftError(f"solution has {u.shape[0]} rows but the graph has {n} entities")
    scores = u @ u.T
    z_rows = _row_zscores(scores)
    decision = np.triu(np.maximum(z_rows, z_rows.T) >= z, k=1)
    rows, cols, weights = merged.edge_arrays()
    decision[rows, cols] = False
    new_rows, new_cols = np.nonzero(decision)
    return merged._with_edges(
        np.concatenate([rows, new_rows]),
        np.concatenate([cols, new_cols]),
        np.concatenate([weights, np.maximum(scores[new_rows, new_cols], np.finfo(float).eps)]),
    )
