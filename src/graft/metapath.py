"""Meta-path enumeration, projections, and hop-count distance matrices.

A meta-path is a sequence of entity types. Projecting a graph along a
meta-path yields a symmetric sparse matrix over its entity index that counts
the walks realizing the type sequence between two distinct endpoints: the
product of the path's typed blocks A[t_i, t_{i+1}] of the cached binary
adjacency ``HeteroGraph.csr``, taken over each type's entities by their
integer type codes and written into the n × n index once.
Distance matrices are hop counts on the projection, unreachable pairs one
past the longest hop, held as small unsigned integers (one byte per pair
below 255 hops). They come from a multi-source BFS that keeps one bit per
source, so one sparse OR-gather advances every source by one hop and one
``uint8`` add records it, and no float matrix is made; the few sources
still running after 32 hops finish with per-source Dijkstra.
``path_distance_matrix`` checks that the projection's pattern is symmetric,
from which the BFS writes a symmetric matrix, so no hop matrix is walked for
symmetry; MDS and the weight fit check their inputs
(``numerics._check_symmetric``).
Blending averages the matrices with equal weights, one at a time (a
generator will do): unsigned matrices are summed exactly in the narrowest
unsigned accumulator that holds P × the dtype maximum (``uint16`` for 24
``uint8`` hop matrices), and the sum is scaled by 1/P once into the float64
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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

    def is_palindrome(self) -> bool:
        return self.types == self.types[::-1]


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Nonnegative dissimilarity matrix with optional provenance; symmetry is checked where it is relied on."""

    matrix: np.ndarray
    provenance: MetaPath | None = None

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GraftError(f"similarity matrix must be square, got shape {m.shape}")
        unsigned = m.dtype.kind == "u"  # finite and nonnegative by type
        if not unsigned and not np.isfinite(m).all():
            raise GraftError("similarity matrix must be finite")
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
    names, codes = g.type_codes()
    adj = g.csr().tocoo()  # holds both orientations of every edge
    succ: dict[str, set[str]] = {}
    for a, b in set(zip(codes[adj.row].tolist(), codes[adj.col].tolist())):
        succ.setdefault(names[a], set()).add(names[b])
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

    Only the path's typed blocks A[t_i, t_{i+1}] of ``g.csr()`` are
    multiplied, over the entities of each type (``HeteroGraph.type_codes``);
    the |t_0| × |t_k| product is written into the n × n index once.
    """
    names, codes = g.type_codes()
    code = {t: c for c, t in enumerate(names)}
    members = [np.flatnonzero(codes == code.get(t, -1)) for t in p.types]
    adj = g.csr()
    m = adj[members[0]][:, members[1]]
    for a, b in zip(members[1:-1], members[2:]):
        m = m @ adj[a][:, b]
    if p.types[0] != p.types[-1]:  # the two end types' entities are disjoint, so no diagonal
        w = _scatter(m, members[0], members[-1], g.n)
        return w + w.T
    if not p.is_palindrome():
        m = m + m.T
    # the block's diagonal is the projection's; the CSR difference drops the zeros it leaves
    return _scatter(m - sp.diags(m.diagonal()), members[0], members[0], g.n)


def _scatter(block: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray, n: int) -> sp.csr_matrix:
    """The n × n CSR holding ``block`` at the sorted index arrays ``rows`` × ``cols``."""
    indptr = np.zeros(n + 1, dtype=block.indptr.dtype)
    indptr[rows + 1] = np.diff(block.indptr)
    return sp.csr_matrix((block.data, cols[block.indices], np.cumsum(indptr, out=indptr)), shape=(n, n))


def path_distance_matrix(adj: sp.csr_matrix, provenance: MetaPath | None = None) -> SimilarityMatrix:
    """Pairwise hop-count distances on a symmetric sparse adjacency, such as a projection.

    Unreachable pairs (including entities with an empty row) get the cap, the
    longest finite shortest path plus one, so they rank behind every reachable
    pair. Stored values are ignored: distance is the number of hops, and every
    stored entry is an edge. The matrix has the narrowest unsigned integer
    dtype that holds the cap (``uint8`` while the longest hop is below 255).
    An adjacency that is not square, or whose sorted ``row·n + col`` keys
    differ from its ``col·n + row`` keys as sets, is a ``GraftError``; from
    a symmetric pattern the BFS writes a symmetric matrix, not walked again.

    Isolated entities are set aside first: the k others are relabelled
    0..k−1 through an index map over the CSR arrays. Over them a bit-parallel
    BFS runs all sources at once, one hop per O(nnz·k/64)-word OR-gather,
    counting hops into a ``uint8`` k × k matrix; pairs its bits never reach
    take the cap. Sources whose BFS has not ended after ``_BITSET_HOPS`` (32)
    hops finish with Dijkstra, O(nnz + k log k) each, whose rows go into the
    chosen dtype. Hop counts are exact, so the result equals a per-source BFS
    bit for bit. The n × n matrix is one row gather from a (k+1) × n strip:
    the k live rows, then a row of caps for every isolated entity.
    """
    n = adj.shape[0]
    rows, cols = np.repeat(np.arange(n), np.diff(adj.indptr)), adj.indices.astype(np.int64)
    keys, mirror = np.sort(rows * n + cols), np.sort(cols * n + rows)
    symmetric = np.array_equal(keys, mirror) or np.array_equal(np.unique(keys), np.unique(mirror))
    if adj.shape != (n, n) or not symmetric:
        raise GraftError(f"adjacency{f' of meta-path {provenance.types}' if provenance else ''} must be symmetric")
    live = np.flatnonzero(np.diff(adj.indptr))
    k = len(live)
    label = np.full(n, k)
    label[live] = np.arange(k)
    # an empty row stores nothing, so the live rows' extents are the indptr at their starts
    indptr = np.append(adj.indptr[live], adj.indptr[-1])
    hops, todo, far = _hop_counts(sp.csr_matrix((adj.data, label[adj.indices], indptr), shape=(k, k)))
    reached = np.isfinite(far)
    cap = int(max(hops.max(initial=0), far[reached].max(initial=0.0))) + 1
    dtype = np.min_scalar_type(cap)
    # a hop count of 0 off the diagonal is a pair the bitsets never reached
    block = hops.astype(dtype, copy=False)
    block[hops == 0] = cap
    block[todo] = np.where(reached, far, cap)
    strip = np.full((k + 1, n), cap, dtype=dtype)
    strip[:k, live] = block
    dist = strip[label]
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


def blend(mats: Iterable[SimilarityMatrix]) -> np.ndarray:
    """Uniform mean ΣM/P of P similarity matrices as a float64 array.

    ``mats`` may be a generator; each matrix is added as it arrives.
    Unsigned integer matrices are summed exactly in the narrowest unsigned
    accumulator that holds the sum's bound, P × the dtype maximum, by the
    hop matrices' rule (``np.min_scalar_type``: ``uint16`` for 24 ``uint8``
    hop matrices, 2·n² bytes), the first read in place until a second joins
    it. The accumulator widens as the bound grows, to ``uint32`` past
    2¹⁶ − 1 and to float64 past 2³² − 1 or when a matrix that is not
    unsigned arrives; each widening is one new array. The exact
    sum is scaled by 1.0/P once at the end, so the result does not depend on
    the accumulator's width.
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
        dtype = np.min_scalar_type(bound) if bound < 2**32 else np.float64
        if k == 1 or total.dtype != dtype:  # the first matrix is read in place; a wider sum is a new array
            total = np.add(total, m, dtype=dtype)
        else:
            total += m
    if total is None:
        raise GraftError("blend needs at least one matrix")
    del m  # a streamed last matrix is freed before the float64 result is made
    return np.multiply(total, 1.0 / (k + 1), dtype=float)
