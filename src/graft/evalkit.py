"""Evaluation metrics and reference baselines.

Scoring compares an estimated graph to a ground-truth graph: entities match by
id, edges match by unordered id pair over the global id space (counted as
integer keys over the truth's index, searched among the truth's sorted keys),
and weights are ignored. Baselines share the construction stage with the main
pipeline where they have one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import repeat

import numpy as np
import scipy.sparse as sp

from .config import TransferConfig
from .errors import GraftError
from .hetgraph import HeteroGraph, align_union_entities, split_by_overlap
from .selection import merge_transferred_entities
from .transfer import construct_dependencies

RESTART_PROB = 0.15
WALK_TOL = 1e-9
WALK_MAX_ITERS = 100


@dataclass(frozen=True)
class EvalResult:
    entity_precision: float
    entity_recall: float
    entity_f1: float
    edge_precision: float
    edge_recall: float
    edge_f1: float
    combined_f1: float
    had_zero_division: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def _prf(n_correct: int, n_estimated: int, n_truth: int) -> tuple[float, float, float, bool]:
    flagged = n_estimated == 0 or n_truth == 0
    precision = n_correct / n_estimated if n_estimated else 0.0
    recall = n_correct / n_truth if n_truth else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0, True
    return precision, recall, 2.0 * precision * recall / (precision + recall), flagged


def score(estimate: HeteroGraph, truth: HeteroGraph) -> EvalResult:
    """Entity and edge F1 against a ground truth, averaged into a combined score.

    Edges are counted as integer pair keys, not id pairs: each estimate entity
    maps to its truth index (-1 where the truth lacks it), and an edge whose
    endpoints both map keys as ``pos[row] * truth.n + pos[col]``. Both graphs
    index their ids in sorted order, so the map keeps row < col and the key is
    the one the truth gives the same pair, ``rows * n + cols``. The truth's
    edges are sorted by (row, col), so are its keys: each is found by bisection.
    """
    pos = np.fromiter(map(truth._id_index().get, estimate.entity_ids, repeat(-1)), np.intp, estimate.n)
    n_shared = int(np.count_nonzero(pos >= 0))
    ep, er, ef1, eflag = _prf(n_shared, estimate.n, truth.n)
    rows, cols, _ = estimate.edge_arrays()
    a, b = pos[rows], pos[cols]
    keys = (a * truth.n + b)[(a >= 0) & (b >= 0)]
    true_rows, true_cols, _ = truth.edge_arrays()
    true_keys = np.append(true_rows * truth.n + true_cols, truth.n * truth.n)  # a sentinel above every key
    hits = np.count_nonzero(true_keys[np.searchsorted(true_keys, keys)] == keys)
    dp, dr, df1, dflag = _prf(int(hits), estimate.edge_count, truth.edge_count)
    return EvalResult(
        entity_precision=ep,
        entity_recall=er,
        entity_f1=ef1,
        edge_precision=dp,
        edge_recall=dr,
        edge_f1=df1,
        combined_f1=(ef1 + df1) / 2.0,
        had_zero_division=eflag or dflag,
    )


def baseline_nt(gt_hat: HeteroGraph) -> HeteroGraph:
    """No transfer: the observed target graph is the estimate."""
    return gt_hat


def baseline_dt(gs: HeteroGraph, gt_hat: HeteroGraph) -> HeteroGraph:
    """Direct transfer: union of entities and edges, duplicate edge weight = max."""
    a, b = align_union_entities(gs, gt_hat)
    rows, cols, weights = (np.concatenate(pair) for pair in zip(a.edge_arrays(), b.edge_arrays()))
    key = rows * a.n + cols
    order = np.lexsort((-weights, key))  # by pair, the largest weight first
    keep = order[np.diff(key[order], prepend=-1) != 0]
    return a._with_edges(rows[keep], cols[keep], weights[keep])


def random_walk_scores(gs: HeteroGraph, restart_ids: list[str]) -> dict[str, float]:
    """Random walk with restart over the binarized source graph.

    Power iteration on p <- (1-c) * W p + c * r, c = ``RESTART_PROB``, r uniform
    over ``restart_ids``, each step one sparse product with the column-stochastic
    W; mass leaving degree-zero entities goes back to r, so p sums to one."""
    if not restart_ids:
        raise GraftError("restart set is empty")
    for eid in restart_ids:
        if not gs.has_entity(eid):
            raise GraftError(f"restart entity {eid!r} not in the source graph")
    adj = gs.csr()
    degrees = np.asarray(adj.sum(axis=0)).ravel()
    dangling = degrees == 0
    # column-stochastic transition matrix with the adjacency's sparsity; dangling columns stay empty
    w = sp.csr_matrix((adj.data / degrees[adj.indices], adj.indices, adj.indptr), shape=adj.shape)
    r = np.zeros(gs.n)
    for eid in restart_ids:
        r[gs.index_of(eid)] = 1.0
    r /= r.sum()
    p = r.copy()
    for _ in range(WALK_MAX_ITERS):
        spread = w @ p + p[dangling].sum() * r
        p_next = (1.0 - RESTART_PROB) * spread + RESTART_PROB * r
        if np.abs(p_next - p).sum() < WALK_TOL:
            p = p_next
            break
        p = p_next
    return {eid: float(p[i]) for i, eid in enumerate(gs.entity_ids)}


def _rw_select(gs: HeteroGraph, gt_hat: HeteroGraph, config: TransferConfig) -> list[str]:
    shared, only = split_by_overlap(gs, gt_hat)
    if not only:
        return []
    ids = gs.entity_ids
    scores = random_walk_scores(gs, [ids[i] for i in shared])
    p = np.array([scores[ids[i]] for i in only])
    if (std := p.std()) == 0.0:  # all scores equal: none stands out
        return []
    return [ids[i] for i, zi in zip(only, (p - p.mean()) / std) if zi >= config.z_entity]


def baseline_random_walk(
    gs: HeteroGraph, gt_hat: HeteroGraph, config: TransferConfig | None = None
) -> HeteroGraph:
    """Random-walk entity selection followed by the usual construction stage."""
    config = config or TransferConfig()
    selected = _rw_select(gs, gt_hat, config)
    merged = merge_transferred_entities(gt_hat, gs, selected)
    graph, _, _ = construct_dependencies(gs, gt_hat, merged, config.mu, config)
    return graph
