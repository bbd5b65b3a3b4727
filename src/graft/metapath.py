"""Meta-path enumeration, projection graphs, and hop-count distance matrices.

A meta-path is a sequence of entity types. Projecting a graph along a
meta-path yields a homogeneous graph whose edge weights count the walks that
realize the type sequence between two distinct endpoints. Distance matrices
are hop counts on the projection, with unreachable pairs set to a cap.
Both work on the cached sparse binary adjacency ``HeteroGraph.csr``: a
projection's walk counts are a product of typed adjacency blocks, and its
hop counts come from a multi-source BFS that keeps one bit per source, so a
single sparse OR-gather advances every source by one hop. That costs
O(nnz·k/64) words per hop over the k non-isolated entities; the few sources
still running after 32 hops finish with per-source Dijkstra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from .errors import GraftError
from .hetgraph import HeteroGraph


@dataclass(frozen=True, order=True)
class MetaPath:
    """Type sequence of length >= 2, stored in canonical orientation.

    A meta-path and its reversal denote the same object; the canonical
    orientation is the lexicographically smaller of the two sequences.
    """

    types: tuple[str, ...]

    def __post_init__(self):
        seq = tuple(self.types)
        if len(seq) < 2:
            raise GraftError(f"meta-path needs at least 2 types, got {seq!r}")
        if not all(isinstance(t, str) and t for t in seq):
            raise GraftError(f"meta-path types must be non-empty strings, got {seq!r}")
        rev = seq[::-1]
        object.__setattr__(self, "types", min(seq, rev))

    @property
    def length(self) -> int:
        return len(self.types)

    def is_palindrome(self) -> bool:
        return self.types == self.types[::-1]

    def label(self) -> str:
        return "-".join(self.types)


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Symmetric nonnegative dissimilarity matrix with optional meta-path provenance."""

    matrix: np.ndarray
    provenance: MetaPath | None = None

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GraftError(f"similarity matrix must be square, got shape {m.shape}")
        if m.size:
            if not np.isfinite(m).all():
                raise GraftError("similarity matrix must be finite")
            if not np.array_equal(m, m.T):
                raise GraftError("similarity matrix must be symmetric")
            if np.diagonal(m).any():
                raise GraftError("similarity matrix must have a zero diagonal")
            if (m < 0).any():
                raise GraftError("similarity matrix entries must be nonnegative")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def enumerate_metapaths(g: HeteroGraph, max_len: int = 3) -> list[MetaPath]:
    """All meta-paths of length 2..max_len whose consecutive type pairs occur on some edge.

    Reversals are deduplicated; the result is sorted lexicographically.
    """
    if max_len < 2:
        raise GraftError(f"max_len must be at least 2, got {max_len}")
    types = np.array(g.entity_types, dtype=str)
    adj = g.csr().tocoo()  # holds both orientations of every edge
    succ: dict[str, set[str]] = {}
    for ta, tb in set(zip(types[adj.row].tolist(), types[adj.col].tolist())):
        succ.setdefault(ta, set()).add(tb)
    found: set[MetaPath] = set()

    def walk(seq: tuple[str, ...]) -> None:
        if len(seq) >= 2:
            found.add(MetaPath(seq))
        if len(seq) >= max_len:
            return
        for t in sorted(succ.get(seq[-1], ())):
            walk(seq + (t,))

    for t in sorted(succ):
        walk((t,))
    return sorted(found)


def project(g: HeteroGraph, p: MetaPath) -> HeteroGraph:
    """Homogeneous projection of ``g`` along ``p`` over the same entity set.

    The weight of edge (u, v) counts the walk instances whose type sequence
    matches ``p`` (in either orientation) with endpoints u != v. Entities
    whose type matches neither endpoint of ``p`` are isolated. Weights of the
    original graph are ignored; counting is over binary adjacency.
    """
    if g.n == 0:
        return HeteroGraph()
    types = np.array(g.entity_types)
    adj = g.csr()

    def mask(t: str) -> sp.dia_matrix:
        return sp.diags((types == t).astype(float))

    m = mask(p.types[0]) @ adj @ mask(p.types[1])
    for t in p.types[2:]:
        m = m @ adj @ mask(t)
    w = m if p.is_palindrome() else m + m.T
    upper = sp.triu(w, k=1).tocoo()
    keep = upper.data > 0
    return g._with_edges(upper.row[keep], upper.col[keep], upper.data[keep])


def path_distance_matrix(
    gp: HeteroGraph, cap: float | None = None, provenance: MetaPath | None = None
) -> SimilarityMatrix:
    """Pairwise hop-count distances on a projection graph.

    Unreachable pairs (including isolated entities) get ``cap``; when cap is
    None it defaults to the longest finite shortest path plus one. Edge
    weights are ignored: distance is the number of hops.

    Isolated entities are set aside first. Over the k others a bit-parallel
    BFS runs all sources at once, one hop per O(nnz·k/64)-word OR-gather;
    sources whose BFS has not ended after ``_BITSET_HOPS`` (32) hops finish
    with Dijkstra, O(nnz + k log k) each. Hop counts are exact, so the result
    equals a per-source BFS bit for bit.
    """
    if cap is not None and not cap > 0:
        raise GraftError(f"distance cap must be positive, got {cap}")
    n = gp.n
    if n == 0:
        return SimilarityMatrix(np.zeros((0, 0)), provenance)
    adj = gp.csr()
    live = np.flatnonzero(np.diff(adj.indptr))
    hops = _hop_counts(adj[live][:, live])
    finite = np.isfinite(hops)
    if cap is None:
        cap = float(hops[finite].max(initial=0.0)) + 1.0
    hops[~finite] = cap
    dist = np.full((n, n), cap)
    dist[np.ix_(live, live)] = hops
    np.fill_diagonal(dist, 0.0)
    return SimilarityMatrix(dist, provenance)


# A bitset hop touches every word of every frontier row it gathers,
# O(nnz·k/64) words for all k sources at once, while Dijkstra costs
# O(nnz + k log k) per source; on shallow projections the bitsets win by
# far, but a long chain would pay the bitset price once per hop.
_BITSET_HOPS = 32


def _hop_counts(adj: sp.csr_matrix) -> np.ndarray:
    """All-pairs hop counts (inf when unreachable) on a graph with no isolated vertex.

    Multi-source BFS with one bit per source (Then et al., VLDB 2015): row v
    of ``frontier`` holds the sources whose frontier contains v, so one
    OR-gather over the neighbour lists advances every source by one hop.
    """
    k = adj.shape[0]
    hops = np.full((k, k), np.inf)
    if k == 0:
        return hops
    src = np.arange(k)
    frontier = np.zeros((k, -(-k // 64)), dtype="<u8")
    frontier[src, src >> 6] = np.left_shift(np.uint64(1), (src & 63).astype(np.uint64))
    reach = frontier.copy()
    hops[src, src] = 0.0
    # every row has a neighbour, so reduceat sees no empty segment
    starts = adj.indptr[:-1]
    for hop in range(1, _BITSET_HOPS + 1):
        frontier = np.bitwise_or.reduceat(frontier[adj.indices], starts, axis=0)
        frontier &= ~reach
        if not frontier.any():
            return hops
        reach |= frontier
        hops[_unpack(frontier, k)] = hop
    todo = np.flatnonzero(_unpack(np.bitwise_or.reduce(frontier, axis=0, keepdims=True), k)[0])
    # a pair still open is more than _BITSET_HOPS apart, so both of its
    # entities are in todo and their rows close it
    hops[todo] = shortest_path(adj, method="D", directed=False, unweighted=True, indices=todo)
    return hops


def _unpack(bits: np.ndarray, k: int) -> np.ndarray:
    """Boolean view of packed little-endian bit rows, cut to k columns."""
    return np.unpackbits(bits.view(np.uint8), axis=1, count=k, bitorder="little").view(bool)


def blend(mats: Sequence[SimilarityMatrix], weights: Iterable[float]) -> SimilarityMatrix:
    """Weighted sum of similarity matrices; weights must be nonnegative."""
    w = np.asarray(list(weights), dtype=float)
    if len(mats) == 0:
        raise GraftError("blend needs at least one matrix")
    if len(mats) != w.size:
        raise GraftError(f"got {len(mats)} matrices but {w.size} weights")
    if not np.isfinite(w).all() or (w < 0).any():
        raise GraftError("blend weights must be finite and nonnegative")
    shape = mats[0].matrix.shape
    for m in mats[1:]:
        if m.matrix.shape != shape:
            raise GraftError(f"matrix shape mismatch: {m.matrix.shape} vs {shape}")
    out = np.zeros(shape)
    for wi, m in zip(w, mats):
        out += wi * m.matrix
    return SimilarityMatrix(out, None)
