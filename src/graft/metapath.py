"""Meta-path enumeration, projections, and hop-count distance matrices.

A meta-path is a sequence of entity types. Projecting a graph along a
meta-path yields a symmetric sparse matrix over its entity index that counts
the walks realizing the type sequence between two distinct endpoints: a
product of typed blocks of the cached binary adjacency ``HeteroGraph.csr``.
Distance matrices are hop counts on the projection, unreachable pairs one
past the longest hop, held as small unsigned integers (one byte per pair
below 255 hops). They come from a multi-source BFS over the projection's
index arrays that keeps one bit per source, so a single sparse OR-gather
advances every source by one hop. That costs O(nnz·k/64) words per hop over
the k non-isolated entities, and one ``uint8`` add of hop × the new bits
records the hop, so no float matrix is made; the few sources still running
after 32 hops finish with per-source Dijkstra.
Blending adds the weighted matrices one at a time (a generator will do) into
the float64 sum, over blocks of rows through one reused buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from .errors import GraftError
from .hetgraph import HeteroGraph
from .numerics import _tile_pairs


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

    def is_palindrome(self) -> bool:
        return self.types == self.types[::-1]


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
            if not all(np.array_equal(a, b.T) for a, b in _tile_pairs(m)):
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


def project(g: HeteroGraph, p: MetaPath) -> sp.csr_matrix:
    """Walk-count projection of ``g`` along ``p`` over its entity index.

    Entry (u, v) of the symmetric n × n matrix counts the walk instances whose
    type sequence matches ``p`` (in either orientation) from u to v; the
    diagonal is empty, and only positive counts are stored. Entities whose
    type matches neither endpoint of ``p`` have empty rows. Weights of the
    original graph are ignored; counting is over binary adjacency.
    """
    types = np.array(g.entity_types)
    adj = g.csr()

    def mask(t: str) -> sp.dia_matrix:
        return sp.diags((types == t).astype(float))

    m = mask(p.types[0]) @ adj @ mask(p.types[1])
    for t in p.types[2:]:
        m = m @ adj @ mask(t)
    w = m if p.is_palindrome() else m + m.T
    return w - sp.diags(w.diagonal())  # the CSR difference drops the zeros it leaves


def path_distance_matrix(adj: sp.csr_matrix, provenance: MetaPath | None = None) -> SimilarityMatrix:
    """Pairwise hop-count distances on a symmetric sparse adjacency, such as a projection.

    Unreachable pairs (including entities with an empty row) get the cap, the
    longest finite shortest path plus one, so they rank behind every reachable
    pair. Stored values are ignored: distance is the number of hops, and every
    stored entry is an edge. The matrix has
    the narrowest unsigned integer dtype that holds the cap (``uint8`` while
    the longest hop is below 255).

    Isolated entities are set aside first. Over the k others a bit-parallel
    BFS runs all sources at once, one hop per O(nnz·k/64)-word OR-gather,
    counting hops into a ``uint8`` k × k matrix; pairs its bits never reach
    take the cap. Sources whose BFS has not ended after ``_BITSET_HOPS`` (32)
    hops finish with Dijkstra, O(nnz + k log k) each, whose rows go into the
    chosen dtype. Hop counts are exact, so the result equals a per-source BFS
    bit for bit.
    """
    n = adj.shape[0]
    live = np.flatnonzero(np.diff(adj.indptr))
    hops, reach, todo, far = _hop_counts(adj[live][:, live])
    reached = np.isfinite(far)
    cap = int(max(hops.max(initial=0), far[reached].max(initial=0.0))) + 1
    dtype = np.min_scalar_type(cap)
    block = np.where(_unpack(reach, len(live)).view(bool), hops, dtype.type(cap))
    block[todo] = np.where(reached, far, cap)
    dist = np.full((n, n), cap, dtype=dtype)
    dist[np.ix_(live, live)] = block
    np.fill_diagonal(dist, 0)
    return SimilarityMatrix(dist, provenance)


# A bitset hop touches every word of every frontier row it gathers,
# O(nnz·k/64) words for all k sources at once, while Dijkstra costs
# O(nnz + k log k) per source; on shallow projections the bitsets win by
# far, but a long chain would pay the bitset price once per hop.
_BITSET_HOPS = 32


def _hop_counts(adj: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All-pairs hop counts on a graph with no isolated vertex.

    Multi-source BFS with one bit per source (Then et al., VLDB 2015): row v
    of ``frontier`` holds the sources whose frontier contains v, so one
    OR-gather over the neighbour lists advances every source by one hop, and
    one ``uint8`` add of ``hop`` × the new bits records it.

    Returns the k × k ``uint8`` hop counts of the pairs the bitsets reached
    (0 elsewhere), the packed bits of those pairs, the sources still running
    after ``_BITSET_HOPS`` hops, and their Dijkstra rows (float64, inf where
    unreachable).
    """
    k = adj.shape[0]
    hops = np.zeros((k, k), dtype=np.uint8)
    src = np.arange(k)
    frontier = np.zeros((k, -(-k // 64)), dtype="<u8")
    frontier[src, src >> 6] = np.left_shift(np.uint64(1), (src & 63).astype(np.uint64))
    reach = frontier.copy()
    # every row has a neighbour, so reduceat sees no empty segment
    starts = adj.indptr[:-1]
    for hop in range(1, _BITSET_HOPS + 1):
        frontier = np.bitwise_or.reduceat(frontier[adj.indices], starts, axis=0)
        frontier &= ~reach
        if not frontier.any():
            return hops, reach, src[:0], np.empty((0, k))
        reach |= frontier
        new = _unpack(frontier, k)
        new *= np.uint8(hop)
        hops += new
    todo = np.flatnonzero(_unpack(np.bitwise_or.reduce(frontier, axis=0, keepdims=True), k)[0])
    # a pair still open is more than _BITSET_HOPS apart, so both of its
    # entities are in todo and their rows close it
    return hops, reach, todo, shortest_path(adj, method="D", directed=False, unweighted=True, indices=todo)


def _unpack(bits: np.ndarray, k: int) -> np.ndarray:
    """0/1 ``uint8`` array of packed little-endian bit rows, cut to k columns."""
    return np.unpackbits(bits.view(np.uint8), axis=1, count=k, bitorder="little")


# matrix cells in one block of the blend, so its float64 buffer (256 KiB) stays in cache
_BLEND_BLOCK_CELLS = 1 << 15


def blend(mats: Iterable[SimilarityMatrix], weights: Iterable[float]) -> np.ndarray:
    """Weighted sum of similarity matrices as a float64 array; weights must be nonnegative.

    ``mats`` may be a generator; each matrix is added into the float64 sum as
    it arrives. Each cell sums w₀·M₀ + w₁·M₁ + … in matrix order.
    """
    w = np.asarray(list(weights), dtype=float)
    if not np.isfinite(w).all() or (w < 0).any():
        raise GraftError("blend weights must be finite and nonnegative")
    out = None
    for k, m in enumerate(mats):
        if k == w.size:
            raise GraftError(f"got more than {w.size} matrices for {w.size} weights")
        if out is None:
            out = np.zeros(m.matrix.shape)
            rows = max(1, _BLEND_BLOCK_CELLS // max(out.shape[1], 1))
            buf = np.empty((min(rows, out.shape[0]), out.shape[1]))
        elif m.matrix.shape != out.shape:
            raise GraftError(f"matrix shape mismatch: {m.matrix.shape} vs {out.shape}")
        for start in range(0, out.shape[0], rows):
            acc = out[start : start + rows]
            term = buf[: len(acc)]
            np.multiply(m.matrix[start : start + rows], w[k], out=term)
            acc += term
    if out is None:
        raise GraftError("blend needs at least one matrix")
    if k + 1 != w.size:
        raise GraftError(f"got {k + 1} matrices but {w.size} weights")
    return out
