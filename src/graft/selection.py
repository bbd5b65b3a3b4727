"""Source-entity embedding, distance-blend weight fitting, and transfer selection.

The selection model embeds the source graph with classical MDS of the
uniform blend of its meta-path distance matrices in one streamed pass: each
meta-path's walk-count projection, a sparse product of the path's typed
adjacency blocks, feeds the BFS of its small-integer hop matrix, which is
added into the blend's exact integer sum (``uint16`` for 24 one-byte hop
matrices) as it is computed, then dropped; the sum is scaled into the
float64 blend once. MDS takes the blend as a plain array, checks its symmetry
once, read-only, and solves for the top d1 eigenpairs of its double centring by
Lanczos iteration (``numerics._lanczos_topk``), whose matrix–vector product
reads one triangle of the blend (``numerics._symmul``), so the blend is the
fit's one n × n float64 array. The fitted ``SelectionState`` keeps the meta-paths, the embedding and
a one-entry objective trace, the objective at the uniform weights. The
objective and ``fit_weights`` (which the pipeline does not call, and which
checks each matrix's symmetry) work over row blocks, so neither forms an
n × n temporary or n(n−1)/2 × P design.
Relevance between entities is the inner product of their embeddings;
``relevance_scores`` gives each source-only entity its best relevance
z-score against the shared entities, standardized by row moments taken from
EᵀE, and the pipeline transfers those whose score clears a threshold.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import TransferConfig
from .errors import GraftError
from .hetgraph import HeteroGraph, check_shared_types, split_by_overlap
from .metapath import MetaPath, SimilarityMatrix, blend, enumerate_metapaths, path_distance_matrix, project
from .numerics import _check_symmetric, _gram_row_moments, _lanczos_topk, _matmul, _symmul, solve_normal_nonneg

log = logging.getLogger(__name__)

# matrix cells in one row block of the weight fit (per path, so its float64
# copy of the P hop matrices stays at P × 128 KiB) and of the objective
_FIT_BLOCK_CELLS = 1 << 14
# the process's cgroups, and the mount roots of the cgroup v2 and v1 memory hierarchies
_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_V2_ROOT = "/sys/fs/cgroup"
_CGROUP_V1_MEMORY_ROOT = "/sys/fs/cgroup/memory"


def mds_embed(distances: np.ndarray, d1: int) -> np.ndarray:
    """Classical multidimensional scaling of a squared-dissimilarity matrix.

    Solves for the top ``d1`` eigenpairs of B = −½·J·D·J, J = I − 11ᵀ/n,
    clips negative eigenvalues to zero (non-Euclidean input loses those
    directions), and scales eigenvectors by the square roots of the
    eigenvalues. B is never formed: ``numerics._lanczos_topk`` applies it to
    vectors as centre, multiply by D, centre, so D, left unchanged (and
    copied only when it is not a C-contiguous float64 array), is the one
    n × n array. The product with D is ``numerics._symmul``, a ``dsymv``
    that reads one triangle of D, in the BLAS pool that ARPACK's own calls
    use. Inputs with d1 >= n − 1 form B and solve it densely; an all-zero D
    embeds at the origin. A failed Lanczos solve is a ``GraftError``.

    Returns an (n, d1) embedding whose pairwise squared distances approximate
    the input.
    """
    m = np.ascontiguousarray(distances, dtype=float)
    _check_symmetric(m)  # before any mean, so an inf/-inf mix is an error, not a nan
    n = m.shape[0]
    if n == 0:
        raise GraftError("cannot embed an empty distance matrix")
    if not (1 <= d1 <= n):
        raise GraftError(f"d1 must be in [1, {n}], got {d1}")
    if not m.any():  # every point coincides: B = 0, from which ARPACK cannot start
        return np.zeros((n, d1))

    def apply_b(x: np.ndarray) -> np.ndarray:
        y = _symmul(m, x - x.mean(axis=0))
        return -0.5 * (y - y.mean(axis=0))

    values, vectors = _lanczos_topk(apply_b, n, d1, "MDS")
    values = np.clip(values, 0.0, None)
    return vectors * np.sqrt(values)[None, :]


def squared_row_distances(embedding: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Squared Euclidean distances from embedding rows ``start:stop`` (all by default) to every row."""
    norms = np.einsum("ij,ij->i", embedding, embedding)
    sq = norms[start:stop, None] + norms[None, :] - 2.0 * (embedding[start:stop] @ embedding.T)
    sq[np.arange(len(sq)), np.arange(start, start + len(sq))] = 0.0
    return np.clip(sq, 0.0, None, out=sq)


def fit_weights(embedding: np.ndarray, mats: Sequence[SimilarityMatrix], ridge: float) -> np.ndarray:
    """Blend weights regressing the matrices onto embedding distances by
    clamped ridge least squares.

    The design X has one column per matrix and one row per entity pair (the
    strict upper triangle); the target t is the upper triangle of the
    embedding's pairwise squared distances. The unconstrained ridge solution
    has its negative coefficients clamped to zero afterwards, which is not the
    nonnegative least-squares (NNLS) optimum and can fit worse. XᵀX and Xᵀt
    are summed over blocks of whole rows of the full symmetric matrices and
    halved, which equals the upper-triangle sum because both triangles are
    equal (``numerics._check_symmetric`` checks each matrix) and the diagonal
    is zero, so the n(n−1)/2 × P design is never formed. On small-integer hop
    matrices every partial sum of XᵀX is an integer below 2⁵³, so XᵀX is exact.
    """
    if len(mats) == 0:
        raise GraftError("fit_weights needs at least one matrix")
    n = embedding.shape[0]
    for m in mats:
        if m.matrix.shape != (n, n):
            raise GraftError(f"matrix shape {m.matrix.shape} does not match embedding rows {n}")
        _check_symmetric(m.matrix)
    rows = max(1, _FIT_BLOCK_CELLS // max(n, 1))
    gram = np.zeros((len(mats), len(mats)))
    moment = np.zeros(len(mats))
    for start in range(0, n, rows):
        x = np.array([m.matrix[start : start + rows].ravel() for m in mats], dtype=float)
        gram += x @ x.T
        moment += x @ squared_row_distances(embedding, start, start + rows).ravel()
    return solve_normal_nonneg(gram / 2.0, moment / 2.0, n * (n - 1) // 2, ridge)


def selection_objective(embedding: np.ndarray, mats: Sequence[SimilarityMatrix], lam: float) -> float:
    """Squared fit error between embedding distances and the uniform blend, plus regularization."""
    return _blend_objective(embedding, blend(mats), len(mats), lam)


def _blend_objective(embedding: np.ndarray, blended: np.ndarray, n_paths: int, lam: float) -> float:
    """``selection_objective`` against a formed blend of ``n_paths`` matrices, over
    row blocks, with no n × n temporary. The regularizer's weight term is that of
    the uniform weights, P·(1/P)² = 1/P."""
    n = embedding.shape[0]
    rows = max(1, _FIT_BLOCK_CELLS // max(n, 1))
    fit = 0.0
    for start in range(0, n, rows):
        diff = squared_row_distances(embedding, start, start + rows) - blended[start : start + rows]
        fit += float((diff * diff).sum())
    return fit + lam * (float((embedding * embedding).sum()) + 1.0 / n_paths)


@dataclass
class SelectionState:
    """Fitted selection model: meta-paths, embedding, objective trace."""

    metapaths: list[MetaPath]
    embedding: np.ndarray
    objective_trace: list[float]


def _path_distances(
    gs: HeteroGraph, config: TransferConfig
) -> tuple[list[MetaPath], Iterator[SimilarityMatrix]]:
    """Meta-paths of ``gs`` and a generator computing their distance matrices one at a time."""
    paths = enumerate_metapaths(gs, config.max_path_len)
    if not paths:
        raise GraftError(
            "no meta-paths can be enumerated from the source graph; raise max_path_len "
            "or check that the graph has edges"
        )
    return paths, (path_distance_matrix(project(gs, p), provenance=p) for p in paths)


def metapath_distance_matrices(gs: HeteroGraph, config: TransferConfig) -> list[SimilarityMatrix]:
    """Enumerate meta-paths on ``gs`` and compute one distance matrix per path."""
    return list(_path_distances(gs, config)[1])


def fit_selection_model(gs: HeteroGraph, config: TransferConfig | None = None) -> SelectionState:
    """Embed the uniform meta-path blend with MDS, in one streamed pass.

    Each hop matrix is added into the blend as it is computed, then dropped.
    The blend weights are uniform, 1/P for P meta-paths, and the state's
    trace holds ``selection_objective`` at them; no weights are fitted.

    The blend is the fit's one n × n float64 array, but a hop matrix and
    its BFS's working arrays sit beside the blend's integer sum (``uint16``
    for 24 one-byte hop matrices), and the sum beside the blend it is scaled
    into (the fit peaks near 1.26 float64 n × n arrays at 1200 entities), so
    it raises ``GraftError`` before the first projection when two of them,
    16·n² bytes, exceed ``_physical_memory_bytes()``.
    """
    config = config or TransferConfig()
    if gs.n == 0:
        raise GraftError("source graph has no entities")
    _check_memory(f"selection over {gs.n} entities", 16 * gs.n * gs.n)
    paths, mats = _path_distances(gs, config)
    blended = blend(mats)
    embedding = mds_embed(blended, min(config.d1, gs.n))
    obj = _blend_objective(embedding, blended, len(paths), config.lam)
    log.info("selection model fitted over %d meta-path(s)", len(paths))
    return SelectionState(paths, embedding, [obj])


def _check_memory(what: str, need: int) -> None:
    """Raise ``GraftError`` when ``what`` needs more than ``_physical_memory_bytes()`` bytes."""
    if (budget := _physical_memory_bytes()) is not None and need > budget:
        raise GraftError(f"{what} needs {need} bytes for its n × n arrays, more than the {budget} bytes "
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


def relevance_scores(state: SelectionState, gs: HeteroGraph, gt_hat: HeteroGraph) -> dict[str, float]:
    """Max relevance z-score of each source-only entity against the shared entities.

    Each shared entity's row of E Eᵀ (E the embedding) is standardized
    (population std) by moments of EᵀE (``numerics._gram_row_moments``); a
    source-only entity's score is its best z-score over the shared rows, and
    rows with zero variance are skipped. Only the shared × source-only block
    of E Eᵀ is formed, one ``dgemm`` (``numerics._matmul``, in ARPACK's
    pool). No shared entities is an error.
    """
    e = state.embedding
    if e.shape[0] != gs.n:
        raise GraftError(f"embedding rows {e.shape[0]} do not match source entities {gs.n}")
    shared, only = split_by_overlap(gs, gt_hat)
    mean, std = _gram_row_moments(e)
    rows = [i for i in shared if std[i] > 0.0]
    if not (only and rows):  # no source-only entity, or every shared row is flat
        return {}
    z = (_matmul(e[rows], e[only].T) - mean[rows, None]) / std[rows, None]
    return {gs.entity_ids[i]: float(s) for i, s in zip(only, z.max(axis=0))}


def merge_transferred_entities(
    gt_hat: HeteroGraph, gs: HeteroGraph, selected: Iterable[str]
) -> HeteroGraph:
    """Target graph extended with the selected source entities, keeping only target edges.

    Selected entities arrive isolated, with their types taken from the source
    graph; the construction stage is responsible for proposing their edges.
    """
    selected = set(selected)
    overlap = selected & set(gt_hat.entity_ids)
    if overlap:
        raise GraftError(f"selected entities already present in the target graph: {sorted(overlap)}")
    for eid in sorted(selected):
        if not gs.has_entity(eid):
            raise GraftError(f"selected entity {eid!r} is not in the source graph")
    check_shared_types(gs, gt_hat)
    return gt_hat._reindexed(sorted(gt_hat.entity_items() + tuple((e, gs.type_of(e)) for e in selected)))
