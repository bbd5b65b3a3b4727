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
after 32 hops finish with per-source Dijkstra. The live block is scattered
into the n × n matrix by rows and then by columns, and pairs the bitsets
never reached are read off as hop count 0 off the diagonal.
Blending averages the matrices with equal weights, one at a time (a
generator will do): unsigned matrices are summed exactly in a ``uint32``
accumulator, and the sum is scaled by 1/P once into the float64 result.
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
        unsigned = m.dtype.kind == "u"  # finite and nonnegative by type
        if m.size:
            if not unsigned and not np.isfinite(m).all():
                raise GraftError("similarity matrix must be finite")
            if not all(np.array_equal(a, b.T) for a, b in _tile_pairs(m)):
                raise GraftError("similarity matrix must be symmetric")
            if np.diagonal(m).any():
                raise GraftError("similarity matrix must have a zero diagonal")
            if not unsigned and (m < 0).any():
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
    hops, todo, far = _hop_counts(adj[live][:, live])
    reached = np.isfinite(far)
    cap = int(max(hops.max(initial=0), far[reached].max(initial=0.0))) + 1
    dtype = np.min_scalar_type(cap)
    # a hop count of 0 off the diagonal is a pair the bitsets never reached
    block = hops.astype(dtype, copy=False)
    block[hops == 0] = cap
    block[todo] = np.where(reached, far, cap)
    # the block's columns into a strip of whole rows, then its rows: faster than one np.ix_ scatter
    rows = np.full((len(live), n), cap, dtype=dtype)
    rows[:, live] = block
    dist = np.full((n, n), cap, dtype=dtype)
    dist[live] = rows
    np.fill_diagonal(dist, 0)
    return SimilarityMatrix(dist, provenance)


# A bitset hop touches every word of every frontier row it gathers,
# O(nnz·k/64) words for all k sources at once, while Dijkstra costs
# O(nnz + k log k) per source; on shallow projections the bitsets win by
# far, but a long chain would pay the bitset price once per hop.
_BITSET_HOPS = 32


def _hop_counts(adj: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All-pairs hop counts on a graph with no isolated vertex.

    Multi-source BFS with one bit per source (Then et al., VLDB 2015): row v
    of ``frontier`` holds the sources whose frontier contains v, so one
    OR-gather over the neighbour lists advances every source by one hop, and
    one ``uint8`` add of ``hop`` × the new bits records it.

    Returns the k × k ``uint8`` hop counts of the pairs the bitsets reached
    (0 elsewhere, and on the diagonal), the sources still running after
    ``_BITSET_HOPS`` hops, and their Dijkstra rows (float64, inf where
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
            return hops, src[:0], np.empty((0, k))
        reach |= frontier
        new = _unpack(frontier, k)
        new *= np.uint8(hop)
        hops += new
    todo = np.flatnonzero(_unpack(np.bitwise_or.reduce(frontier, axis=0, keepdims=True), k)[0])
    # a pair still open is more than _BITSET_HOPS apart, so both of its
    # entities are in todo and their rows close it
    return hops, todo, shortest_path(adj, method="D", directed=False, unweighted=True, indices=todo)


def _unpack(bits: np.ndarray, k: int) -> np.ndarray:
    """0/1 ``uint8`` array of packed little-endian bit rows, cut to k columns."""
    return np.unpackbits(bits.view(np.uint8), axis=1, count=k, bitorder="little")


# the largest sum the blend's uint32 accumulator holds
_SUM_LIMIT = int(np.iinfo(np.uint32).max)


def blend(mats: Iterable[SimilarityMatrix]) -> np.ndarray:
    """Uniform mean ΣM/P of P similarity matrices as a float64 array.

    ``mats`` may be a generator; each matrix is added as it arrives.
    Unsigned integer matrices are summed exactly in a ``uint32``
    accumulator, the first read in place until a second joins it. The
    accumulator becomes float64, once, when a matrix that is not unsigned
    arrives or when the sum's bound (P × the dtype maximum) would pass
    2³² − 1. The sum is scaled by 1.0/P once at the end.
    """
    total = None
    for k, m in enumerate(mats):
        m = m.matrix
        top = int(np.iinfo(m.dtype).max) if m.dtype.kind == "u" else np.inf
        if total is None:
            total, bound = m, top
            continue
        if m.shape != total.shape:
            raise GraftError(f"matrix shape mismatch: {m.shape} vs {total.shape}")
        bound += top
        dtype = np.uint32 if bound <= _SUM_LIMIT else np.float64
        if k == 1 or total.dtype != dtype:  # the first matrix is read in place; a wider sum is a new array
            total = np.add(total, m, dtype=dtype)
        else:
            total += m
    if total is None:
        raise GraftError("blend needs at least one matrix")
    del m  # a streamed last matrix is freed before the float64 result is made
    return np.multiply(total, 1.0 / (k + 1), dtype=float)
