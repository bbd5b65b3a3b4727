"""Helpers used only by the tests: an edge-weight lookup, the graph text
formatter over edge records, a finite-difference
gradient check, the differentiable dynamic factor of a low-rank factor,
set-based scoring, a dense random walk with restart, a graph built from a
boolean matrix, the synthetic generator over triangle index arrays, and the
meta-path projection as a chain of n × n diagonal-mask products."""

from typing import Callable

import numpy as np
import scipy.sparse as sp

from graft import GraftError, HeteroGraph, SynthSpec
from graft.evalkit import RESTART_PROB, WALK_MAX_ITERS, WALK_TOL, EvalResult, _prf
from graft.hetgraph import FORMAT_HEADER, induced_subgraph
from graft.metapath import MetaPath


def edge_weight(g: HeteroGraph, a: str, b: str) -> float | None:
    """Weight of the edge between entities a and b of g, or None if there is none."""
    return {(x, y): w for x, y, w in g.edges()}.get(tuple(sorted((a, b))))


def reference_format_graph(g: HeteroGraph) -> str:
    """``format_graph`` from the (id, type) and (id1, id2, weight) records."""
    lines = [FORMAT_HEADER] + [f"v {eid} {etype}" for eid, etype in g.entity_items()]
    return "\n".join(lines + [f"e {a} {b} {w!r}" for a, b, w in g.edges()]) + "\n"


def uniform_weights(count: int) -> np.ndarray:
    """The blend weights of ``fit_selection_model``: 1/P for each of P meta-paths."""
    return np.full(count, 1.0 / count)


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function, entry by entry."""
    if not h > 0:
        raise GraftError(f"step size h must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        step = np.zeros_like(x)
        step[idx] = h
        fp = float(f(x + step))
        fm = float(f(x - step))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise GraftError(f"function value is not finite at perturbation of index {idx}")
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


def soft_dynamic_factor(u: np.ndarray, adj: np.ndarray) -> float:
    """Differentiable counterpart of the dynamic factor: ||u u^T - adj||_F^2 / (n (n-1))."""
    n = adj.shape[0]
    diff = u @ u.T - adj
    return float((diff * diff).sum()) / (n * (n - 1))


def graph_from_upper(ids, m: np.ndarray) -> HeteroGraph:
    """One-type graph over ``ids`` with an edge for each true entry of ``m``'s strict upper triangle."""
    rows, cols = np.nonzero(np.triu(m, 1))
    return HeteroGraph([(e, "t") for e in ids], [(ids[i], ids[j]) for i, j in zip(rows, cols)])


def reference_score(estimate: HeteroGraph, truth: HeteroGraph) -> EvalResult:
    """``evalkit.score`` over Python sets of ids and of (id1, id2) edge pairs."""
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


def dense_random_walk_scores(gs: HeteroGraph, restart_ids: list[str], restart: float = RESTART_PROB) -> dict[str, float]:
    """``evalkit.random_walk_scores`` over the dense adjacency and a dense
    transition matrix, one dense matvec per power step."""
    adj = gs.csr().toarray()
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


def reference_generate(spec: SynthSpec) -> tuple[HeteroGraph, HeteroGraph, HeteroGraph]:
    """``synthbench.generate`` over ``np.triu_indices`` pair arrays, one
    ``rng.random`` draw for all source pairs and the target's dense adjacency."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_source
    width = max(5, len(str(n - 1)))
    ids = [f"e{i:0{width}d}" for i in range(n)]
    type_idx = rng.integers(0, spec.n_types, size=n)
    entities = [(ids[i], f"t{type_idx[i]}") for i in range(n)]

    rows, cols = np.triu_indices(n, k=1)
    mask = rng.random(rows.shape[0]) < spec.edge_prob_effective
    # ids padded to one width sort in index order, so the pair indices are
    # already entity indices
    gs = HeteroGraph(entities)._with_edges(rows[mask], cols[mask], np.ones(np.count_nonzero(mask)))

    survivors = np.sort(rng.choice(n, size=spec.n_target, replace=False))
    keep_ids = [ids[i] for i in survivors]
    trimmed = induced_subgraph(gs, keep_ids)

    m = spec.n_target
    n_pairs = m * (m - 1) // 2
    k = int(round(spec.dynamic_factor * n_pairs))
    if k > n_pairs:
        raise GraftError(
            f"requested dynamic factor {spec.dynamic_factor} needs {k} toggles "
            f"but only {n_pairs} entity pairs exist"
        )
    t_rows, t_cols = np.triu_indices(m, k=1)
    pairs = trimmed.csr().toarray()[t_rows, t_cols] > 0
    pairs[rng.choice(n_pairs, size=k, replace=False)] ^= True
    gt_truth = trimmed._with_edges(t_rows[pairs], t_cols[pairs], np.ones(np.count_nonzero(pairs)))

    n_keep = max(1, int(round(spec.maturity * gt_truth.n)))
    kept = np.sort(rng.choice(gt_truth.n, size=n_keep, replace=False))
    gt_hat = induced_subgraph(gt_truth, [gt_truth.entity_ids[i] for i in kept])
    n_edges_keep = int(round(spec.maturity * gt_hat.edge_count))
    if n_edges_keep < gt_hat.edge_count:
        chosen = np.sort(rng.choice(gt_hat.edge_count, size=n_edges_keep, replace=False))
        gt_hat = gt_hat._with_edges(*(arr[chosen] for arr in gt_hat.edge_arrays()))
    return gs, gt_truth, gt_hat


def reference_project(g: HeteroGraph, p: MetaPath) -> sp.csr_matrix:
    """``metapath.project`` as n × n sparse products: a diagonal type mask on
    each side of every adjacency factor, both orientations summed for a
    non-palindrome, and the diagonal subtracted."""
    types = np.array(g.entity_types)
    adj = g.csr()

    def mask(t: str) -> sp.dia_matrix:
        return sp.diags((types == t).astype(float))

    m = mask(p.types[0]) @ adj @ mask(p.types[1])
    for t in p.types[2:]:
        m = m @ adj @ mask(t)
    w = m if p.is_palindrome() else m + m.T
    return w - sp.diags(w.diagonal())  # the CSR difference drops the zeros it leaves
