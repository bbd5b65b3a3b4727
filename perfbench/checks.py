"""Output checks made apart from the program.

Every check reads the program's outputs through their plain accessors
(``entity_items``, ``edges``, report fields) and recomputes what it expects
with its own arithmetic and data structures. Each returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

MAX_PROBLEMS = 5


def _f1(n_correct: int, n_estimated: int, n_truth: int) -> float:
    precision = n_correct / n_estimated if n_estimated else 0.0
    recall = n_correct / n_truth if n_truth else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _edge_set(g) -> set[frozenset]:
    return {frozenset((a, b)) for a, b, _ in g.edges()}


def f1_parts(estimate, truth) -> tuple[float, float]:
    """(entity F1, edge F1) from id sets and unordered edge sets."""
    est_ids, true_ids = set(estimate.entity_ids), set(truth.entity_ids)
    est_edges, true_edges = _edge_set(estimate), _edge_set(truth)
    return (
        _f1(len(est_ids & true_ids), len(est_ids), len(true_ids)),
        _f1(len(est_edges & true_edges), len(est_edges), len(true_edges)),
    )


def f1_problems(estimate, truth, result) -> list[str]:
    """The program's combined F1 must match the benchmark's own within 1e-12."""
    own = sum(f1_parts(estimate, truth)) / 2.0
    if abs(own - result.combined_f1) > 1e-12:
        return [f"combined F1 {result.combined_f1!r} differs from recomputed {own!r}"]
    return []


def estimate_problems(estimate, source, target, scores, z_entity, trace, max_iters) -> list[str]:
    """Structural checks of one constructed target graph.

    ``scores`` maps source-only entity ids to the relevance score the program
    reported for them; every grafted entity must have one of at least
    ``z_entity``. ``trace`` is the construction objective trace.
    """
    problems: list[str] = []
    est_types = dict(estimate.entity_items())
    est_weights = {}
    for a, b, w in estimate.edges():
        if a == b:
            problems.append(f"self-loop on {a!r}")
        est_weights[frozenset((a, b))] = w
    target_types = dict(target.entity_items())
    for eid, etype in target_types.items():
        if est_types.get(eid) != etype:
            problems.append(f"target entity {eid!r} ({etype}) missing or retyped")
    observed = set()
    for a, b, w in target.edges():
        key = frozenset((a, b))
        observed.add(key)
        if est_weights.get(key) != w:
            problems.append(f"observed edge {a}-{b} (weight {w!r}) lost or reweighted")
    source_types = dict(source.entity_items())
    for eid in sorted(set(est_types) - set(target_types)):
        if eid not in source_types:
            problems.append(f"grafted entity {eid!r} is not in the source")
        elif est_types[eid] != source_types[eid]:
            problems.append(f"grafted entity {eid!r} has type {est_types[eid]!r}, source says {source_types[eid]!r}")
        elif not scores.get(eid, -math.inf) >= z_entity:
            problems.append(f"grafted entity {eid!r} has score {scores.get(eid)!r} below {z_entity}")
    for key, w in est_weights.items():
        if key not in observed and not (math.isfinite(w) and w > 0.0):
            problems.append(f"new edge {sorted(key)} has weight {w!r}")
    if any(b > a for a, b in zip(trace, trace[1:])):
        problems.append("construction objective trace rises")
    if len(trace) > max_iters + 1:
        problems.append(f"construction trace has {len(trace)} entries for a cap of {max_iters}")
    return problems[:MAX_PROBLEMS]


def auto_mu_problems(estimate, target, mu_used) -> list[str]:
    """The automatic mix weight is the transferred share of the estimate's entities."""
    expected = (estimate.n - target.n) / estimate.n
    if abs(mu_used - expected) > 1e-12:
        return [f"mu_used {mu_used!r} but transferred share is {expected!r}"]
    return []


def ingest_problems(stream, n_parsed, graph, snapshots, roundtrip) -> list[str]:
    """Compare one ingest pass with the generator's own tallies."""
    problems: list[str] = []
    if n_parsed != len(stream.lines):
        problems.append(f"parsed {n_parsed} events from {len(stream.lines)} lines")
    total = sum(w for _, _, w in graph.edges())
    if total != stream.total_weight:
        problems.append(f"total edge weight {total} but the events hold {stream.total_weight} pairs")
    if dict(graph.entity_items()) != stream.entities:
        problems.append("entity set differs from the ids of events with two or more attributes")
    expected = {frozenset(pair): float(c) for pair, c in stream.pair_counts.items()}
    if {frozenset((a, b)): w for a, b, w in graph.edges()} != expected:
        problems.append("pair co-occurrence counts differ from the generator's")
    if len(snapshots) != stream.windows:
        problems.append(f"{len(snapshots)} snapshots for {stream.windows} windows")
    for k, (snap, want) in enumerate(zip(snapshots, stream.cumulative_weight)):
        got = sum(w for _, _, w in snap.edges())
        if got != want:
            problems.append(f"snapshot {k} holds weight {got}, events before its boundary hold {want}")
    counts = [s.edge_count for s in snapshots]
    if any(b < a for a, b in zip(counts, counts[1:])):
        problems.append("snapshot edge counts fall")
    for label, other in (("last snapshot", snapshots[-1] if snapshots else None), ("text round trip", roundtrip)):
        if other is None or other.entity_items() != graph.entity_items() or other.edges() != graph.edges():
            problems.append(f"{label} differs from the accumulated graph")
    return problems[:MAX_PROBLEMS]


def projection_oracle(source, types: tuple[str, ...]) -> np.ndarray:
    """Boolean adjacency of the meta-path projection, from a dense chain product.

    Builds the binary source adjacency itself, restricts each hop to the rows
    and columns of its two types, multiplies the blocks along the path, and
    symmetrizes (a walk realizes the path in either orientation).
    """
    ids = source.entity_ids
    index = {eid: i for i, eid in enumerate(ids)}
    n = len(ids)
    adj = np.zeros((n, n), dtype=np.float32)
    for a, b, _ in source.edges():
        adj[index[a], index[b]] = adj[index[b], index[a]] = 1.0
    labels = np.array(source.entity_types)
    members = [np.flatnonzero(labels == t) for t in types]
    walks = adj[np.ix_(members[0], members[1])]
    for k in range(1, len(types) - 1):
        walks = walks @ adj[np.ix_(members[k], members[k + 1])]
    proj = np.zeros((n, n), dtype=bool)
    proj[np.ix_(members[0], members[-1])] = walks > 0
    proj |= proj.T
    np.fill_diagonal(proj, False)
    return proj


def bfs_hops(adj: np.ndarray, start: int) -> np.ndarray:
    """Hop counts from ``start`` over a boolean adjacency; inf where unreachable."""
    dist = np.full(adj.shape[0], np.inf)
    dist[start] = 0.0
    frontier = np.zeros(adj.shape[0], dtype=bool)
    frontier[start] = True
    hops = 0
    while frontier.any():
        hops += 1
        frontier = adj[frontier].any(axis=0) & np.isinf(dist)
        dist[frontier] = hops
    return dist


def hop_rows_problems(source, types: tuple[str, ...], rows, program_rows) -> list[str]:
    """Compare sampled rows of a program hop matrix with the benchmark's own BFS.

    Reachable pairs must match exactly; unreachable pairs must all hold one
    cap value that exceeds every finite distance in the sample.
    """
    proj = projection_oracle(source, types)
    label = "-".join(types)
    caps = set()
    finite_max = 0.0
    problems: list[str] = []
    for r, got in zip(rows, program_rows):
        want = bfs_hops(proj, int(r))
        reach = np.isfinite(want)
        if not np.array_equal(got[reach], want[reach]):
            problems.append(f"{label}: row {r} hop counts differ from BFS")
        caps.update(np.unique(got[~reach]).tolist())
        if reach.any():
            finite_max = max(finite_max, float(want[reach].max()))
    if len(caps) > 1 or any(c <= finite_max for c in caps):
        problems.append(f"{label}: unreachable pairs hold {sorted(caps)}, longest hop {finite_max}")
    return problems
