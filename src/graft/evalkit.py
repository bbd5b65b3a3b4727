"""Evaluation metrics and reference baselines.

Scoring compares an estimated graph to a ground-truth graph: entities match by
id, edges match by unordered id pair over the global id space, and weights are
ignored. Baselines share the construction stage with the main pipeline where
they have one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .config import TransferConfig
from .errors import GraftError
from .hetgraph import HeteroGraph, check_shared_types, split_by_overlap
from .numerics import _row_zscores
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
    """Entity and edge F1 against a ground truth, averaged into a combined score."""
    est_entities = set(estimate.entity_ids)
    true_entities = set(truth.entity_ids)
    ep, er, ef1, eflag = _prf(
        len(est_entities & true_entities), len(est_entities), len(true_entities)
    )
    est_edges = {(a, b) for a, b, _ in estimate.edges()}
    true_edges = {(a, b) for a, b, _ in truth.edges()}
    dp, dr, df1, dflag = _prf(len(est_edges & true_edges), len(est_edges), len(true_edges))
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
    check_shared_types(gs, gt_hat)
    weights: dict[tuple[str, str], float] = {}
    for g in (gs, gt_hat):
        for a, b, w in g.edges():
            weights[a, b] = max(weights.get((a, b), w), w)
    types = dict(gs.entity_items()) | dict(gt_hat.entity_items())
    return HeteroGraph(types.items(), ((a, b, w) for (a, b), w in weights.items()))


def random_walk_scores(
    gs: HeteroGraph,
    restart_ids: list[str],
    restart: float = RESTART_PROB,
) -> dict[str, float]:
    """Random walk with restart over the binarized source graph.

    Power iteration on p <- (1-restart) * W p + restart * r with the restart
    vector r uniform over ``restart_ids``; mass leaving degree-zero entities is
    routed back to r so the iterate stays a probability vector.
    """
    if not restart_ids:
        raise GraftError("restart set is empty")
    if not 0.0 < restart <= 1.0:
        raise GraftError("restart probability must be in (0, 1]")
    for eid in restart_ids:
        if not gs.has_entity(eid):
            raise GraftError(f"restart entity {eid!r} not in the source graph")
    adj = gs.adjacency(binary=True).matrix
    degrees = adj.sum(axis=0)
    dangling = degrees == 0
    w = adj / np.where(dangling, 1.0, degrees)  # dangling columns are zero already
    r = np.zeros(gs.n)
    for eid in restart_ids:
        r[gs.index_of(eid)] = 1.0
    r /= r.sum()
    p = r.copy()
    for _ in range(WALK_MAX_ITERS):
        spread = w @ p + p[dangling].sum() * r
        p_next = (1.0 - restart) * spread + restart * r
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
    z = _row_zscores(np.array([[scores[ids[i]] for i in only]]))[0]
    return [ids[i] for i, zi in zip(only, z) if zi >= config.z_entity]


def baseline_random_walk(
    gs: HeteroGraph, gt_hat: HeteroGraph, config: TransferConfig | None = None
) -> HeteroGraph:
    """Random-walk entity selection followed by the usual construction stage."""
    config = config or TransferConfig()
    selected = _rw_select(gs, gt_hat, config)
    merged = merge_transferred_entities(gt_hat, gs, selected)
    graph, _, _ = construct_dependencies(gs, gt_hat, merged, config.mu, config)
    return graph
