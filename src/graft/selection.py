"""Source-entity embedding, distance-blend weight fitting, and transfer selection.

The selection model embeds the source graph with classical MDS of the
uniform blend of its meta-path distance matrices, then fits nonnegative blend
weights to the embedding's pairwise squared distances. Relevance between
entities is the inner product of their embeddings; source-only entities are
selected when their relevance z-score against some shared entity clears a
threshold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import TransferConfig
from .errors import GraftError
from .hetgraph import HeteroGraph, check_shared_types, split_by_overlap
from .metapath import MetaPath, SimilarityMatrix, blend, enumerate_metapaths, path_distance_matrix, project
from .numerics import _row_zscores, ols_nonneg, sym_eig_topk

log = logging.getLogger(__name__)

# keeps the weight fit's normal equations solvable when meta-path columns are collinear
RIDGE = 1e-6


def mds_embed(distances: SimilarityMatrix | np.ndarray, d1: int) -> np.ndarray:
    """Classical multidimensional scaling of a squared-dissimilarity matrix.

    Double-centers the matrix, takes the top ``d1`` eigenpairs, clips negative
    eigenvalues to zero (non-Euclidean input loses those directions), and
    scales eigenvectors by the square roots of the eigenvalues.

    Returns an (n, d1) embedding whose pairwise squared distances approximate
    the input.
    """
    m = distances.matrix if isinstance(distances, SimilarityMatrix) else np.asarray(distances, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GraftError(f"distance matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if n == 0:
        raise GraftError("cannot embed an empty distance matrix")
    if not (1 <= d1 <= n):
        raise GraftError(f"d1 must be in [1, {n}], got {d1}")
    if not np.isfinite(m).all():
        raise GraftError("distance matrix must be finite")
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    values, vectors = sym_eig_topk(-0.5 * (centering @ m @ centering), d1)  # which symmetrises it
    values = np.clip(values, 0.0, None)
    return vectors * np.sqrt(values)[None, :]


def squared_row_distances(embedding: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between embedding rows."""
    g = embedding @ embedding.T
    sq = np.diagonal(g)[:, None] + np.diagonal(g)[None, :] - 2.0 * g
    np.fill_diagonal(sq, 0.0)
    return np.clip(sq, 0.0, None)


def fit_weights(embedding: np.ndarray, mats: Sequence[SimilarityMatrix], ridge: float) -> np.ndarray:
    """Nonnegative blend weights regressing the matrices onto embedding distances.

    The design columns are the vectorized strict upper triangles of the
    distance matrices; the target is the upper triangle of the embedding's
    pairwise squared distances. Negative coefficients are clamped to zero.
    """
    if len(mats) == 0:
        raise GraftError("fit_weights needs at least one matrix")
    n = embedding.shape[0]
    for m in mats:
        if m.matrix.shape != (n, n):
            raise GraftError(f"matrix shape {m.matrix.shape} does not match embedding rows {n}")
    iu = np.triu_indices(n, k=1)
    design = np.empty((len(iu[0]), len(mats)))
    for j, m in enumerate(mats):
        design[:, j] = m.matrix[iu]
    target = squared_row_distances(embedding)[iu]
    return ols_nonneg(design, target, ridge)


def selection_objective(
    embedding: np.ndarray,
    mats: Sequence[SimilarityMatrix],
    weights: np.ndarray,
    lam: float,
) -> float:
    """Squared fit error between embedding distances and the weighted blend, plus regularization."""
    diff = squared_row_distances(embedding) - blend(mats, weights).matrix
    fit = float((diff * diff).sum())
    reg = lam * (float((embedding * embedding).sum()) + float((np.asarray(weights) ** 2).sum()))
    return fit + reg


@dataclass
class SelectionState:
    """Fitted selection model: meta-paths, blend weights, embedding, objective trace."""

    metapaths: list[MetaPath]
    weights: np.ndarray
    embedding: np.ndarray
    objective_trace: list[float]


def metapath_distance_matrices(gs: HeteroGraph, config: TransferConfig) -> list[SimilarityMatrix]:
    """Enumerate meta-paths on ``gs`` and compute one distance matrix per path."""
    paths = enumerate_metapaths(gs, config.max_path_len)
    if not paths:
        raise GraftError(
            "no meta-paths can be enumerated from the source graph; raise max_path_len "
            "or check that the graph has edges"
        )
    return [path_distance_matrix(project(gs, p), provenance=p) for p in paths]


def fit_selection_model(gs: HeteroGraph, config: TransferConfig | None = None) -> SelectionState:
    """Embed the uniform meta-path blend with MDS, then fit blend weights to it.

    One sweep: the embedding is the MDS of the equally weighted blend, the
    weights are the nonnegative regression of the meta-path distances onto
    the embedding's squared distances, and the trace holds that sweep's
    objective. Refitting the embedding from the fitted weights does not
    descend (MDS minimizes strain on the double-centered blend, not this
    objective), so no further sweep is run.
    """
    config = config or TransferConfig()
    if gs.n == 0:
        raise GraftError("source graph has no entities")
    mats = metapath_distance_matrices(gs, config)
    paths = [m.provenance for m in mats]
    # renormalized by its own sum, which for some path counts (6, 7, ...)
    # differs from 1/P in the last bit; fitted outputs are pinned to this form
    uniform = np.full(len(mats), 1.0 / len(mats))
    embedding = mds_embed(blend(mats, uniform / uniform.sum()), min(config.d1, gs.n))
    weights = fit_weights(embedding, mats, RIDGE)
    obj = selection_objective(embedding, mats, weights, config.lam)
    log.info("selection model fitted over %d meta-path(s)", len(paths))
    return SelectionState(paths, weights, embedding, [obj])


def relevance_matrix(embedding: np.ndarray) -> np.ndarray:
    """Entity-to-entity relevance: inner products of embedding rows."""
    return embedding @ embedding.T


def relevance_scores(state: SelectionState, gs: HeteroGraph, gt_hat: HeteroGraph) -> dict[str, float]:
    """Max relevance z-score of each source-only entity against the shared entities.

    Each shared entity's relevance row over all source entities is
    standardized (population std); a source-only entity's score is its best
    standardized relevance over the shared rows. Rows with zero variance are
    skipped. No shared entities is an error.
    """
    r = relevance_matrix(state.embedding)
    if r.shape[0] != gs.n:
        raise GraftError(f"embedding rows {r.shape[0]} do not match source entities {gs.n}")
    shared, only = split_by_overlap(gs, gt_hat)
    if not only:
        return {}
    best = _row_zscores(r[shared])[:, only].max(axis=0)
    if best[0] == -np.inf:  # every shared row has zero variance
        return {}
    return {gs.entity_ids[i]: float(s) for i, s in zip(only, best)}


def select_entities(
    state: SelectionState, gs: HeteroGraph, gt_hat: HeteroGraph, z: float
) -> dict[str, float]:
    """Source-only entities whose best relevance z-score reaches ``z``, with that score."""
    return {eid: s for eid, s in relevance_scores(state, gs, gt_hat).items() if s >= z}


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
