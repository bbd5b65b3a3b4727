"""Typed dependency-graph data model, subgraph algebra, and text serialization.

Entities are identified by opaque string ids and carry a type label. Graphs
are undirected, weighted, and forbid self-loops and duplicate edges. The
entity order is always the lexicographic order of the ids, which fixes every
matrix index convention in the package and makes serialization deterministic.

Edges are stored column-wise: integer endpoint arrays with row < col, sorted
by (row, col), and a float64 weight array. ``HeteroGraph.csr`` is the one
place edges become a matrix (cached, graphs being immutable), and dense views
select from it. The validating constructor and the builders inside the
package end in the same array-level constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import GraftError, GraphFormatError

FORMAT_HEADER = "graphfmt 1"


def _check_token(tok: str, what: str) -> str:
    if not isinstance(tok, str) or not tok or any(ch.isspace() for ch in tok):
        raise GraftError(f"{what} must be a non-empty string without whitespace, got {tok!r}")
    return tok


@dataclass(frozen=True, eq=False)
class AdjacencyView:
    """Dense symmetric adjacency matrix over an explicit, sorted entity index.

    ``binary`` states that weights were clamped to {0, 1}. The diagonal is
    always zero because self-loops are forbidden.
    """

    ids: tuple[str, ...]
    matrix: np.ndarray
    binary: bool

    def __post_init__(self):
        n = len(self.ids)
        m = self.matrix
        if m.shape != (n, n):
            raise GraftError(f"adjacency matrix shape {m.shape} does not match {n} entities")
        if n and (not np.array_equal(m, m.T) or np.diagonal(m).any()):
            raise GraftError("adjacency matrix must be symmetric with a zero diagonal")

    @property
    def n(self) -> int:
        return len(self.ids)


class HeteroGraph:
    """Immutable undirected weighted graph over typed entities.

    Parameters
    ----------
    entities : iterable of (id, type) pairs
        Ids must be unique. Order does not matter; entities are stored sorted
        lexicographically by id.
    edges : iterable of (id1, id2, weight) or (id1, id2) tuples
        Weights must be positive and finite; omitted weights default to 1.0.
        Self-loops and duplicate (unordered) edges are rejected.
    """

    __slots__ = ("_ids", "_types", "_index", "_rows", "_cols", "_weights", "_csr", "_edge_list")

    def __init__(self, entities: Iterable[tuple[str, str]] = (), edges: Iterable[tuple] = ()):
        pairs = []
        for ent in entities:
            eid, etype = ent
            pairs.append((_check_token(eid, "entity id"), _check_token(etype, "entity type")))
        pairs.sort(key=lambda p: p[0])
        for k in range(1, len(pairs)):
            if pairs[k][0] == pairs[k - 1][0]:
                raise GraftError(f"duplicate entity id {pairs[k][0]!r}")
        ids = tuple(p[0] for p in pairs)
        index = {eid: i for i, eid in enumerate(ids)}

        weights: dict[tuple[int, int], float] = {}
        for edge in edges:
            if len(edge) not in (2, 3):
                raise GraftError(f"edge must be (id1, id2[, weight]), got {edge!r}")
            a, b, w = edge if len(edge) == 3 else (*edge, 1.0)
            try:
                i, j = index[a], index[b]
            except KeyError as exc:
                raise GraftError(f"edge endpoint {exc.args[0]!r} is not a declared entity") from None
            if i == j:
                raise GraftError(f"self-loop on entity {a!r} is not allowed")
            w = float(w)
            if not math.isfinite(w) or w <= 0.0:
                raise GraftError(f"edge ({a!r}, {b!r}) weight must be positive and finite, got {w}")
            key = (i, j) if i < j else (j, i)
            if key in weights:
                raise GraftError(f"duplicate edge between {a!r} and {b!r}")
            weights[key] = w
        ends = np.array(list(weights), dtype=np.intp).reshape(-1, 2)
        self._init(ids, tuple(p[1] for p in pairs), index, ends[:, 0], ends[:, 1], list(weights.values()))

    def _init(self, ids, types, index, rows, cols, weights) -> HeteroGraph:
        """The array-level constructor every graph ends in. It trusts that ``ids``
        are sorted and unique and that each edge rows[k] < cols[k] occurs once
        with a positive finite weight."""
        order = np.lexsort((cols, rows))
        self._ids, self._types, self._index = ids, types, index
        self._rows = np.asarray(rows, dtype=np.intp)[order]
        self._cols = np.asarray(cols, dtype=np.intp)[order]
        self._weights = np.asarray(weights, dtype=float)[order]
        for arr in (self._rows, self._cols, self._weights):
            arr.flags.writeable = False
        self._csr = {}
        self._edge_list = None
        return self

    def _with_edges(self, rows, cols, weights) -> HeteroGraph:
        """The same entities with other, already valid, edges."""
        return HeteroGraph.__new__(HeteroGraph)._init(self._ids, self._types, self._index, rows, cols, weights)

    def _reindexed(self, items: Sequence[tuple[str, str]]) -> HeteroGraph:
        """This graph over the sorted (id, type) list ``items``: edges losing an
        endpoint are dropped, and entities new to the graph arrive isolated."""
        ids = tuple(eid for eid, _ in items)
        index = {eid: i for i, eid in enumerate(ids)}
        pos = np.array([index.get(eid, -1) for eid in self._ids], dtype=np.intp)
        rows, cols = pos[self._rows], pos[self._cols]
        keep = (rows >= 0) & (cols >= 0)
        types = tuple(etype for _, etype in items)
        graph = HeteroGraph.__new__(HeteroGraph)
        return graph._init(ids, types, index, rows[keep], cols[keep], self._weights[keep])

    @property
    def n(self) -> int:
        return len(self._ids)

    @property
    def entity_ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def entity_types(self) -> tuple[str, ...]:
        return self._types

    def entity_items(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self._ids, self._types))

    def has_entity(self, eid: str) -> bool:
        return eid in self._index

    def index_of(self, eid: str) -> int:
        try:
            return self._index[eid]
        except KeyError:
            raise GraftError(f"unknown entity id {eid!r}") from None

    def type_of(self, eid: str) -> str:
        return self._types[self.index_of(eid)]

    def type_labels(self) -> frozenset[str]:
        return frozenset(self._types)

    def edges(self) -> tuple[tuple[str, str, float], ...]:
        """All edges as (id1, id2, weight) with id1 < id2, sorted."""
        if self._edge_list is None:
            name = self._ids.__getitem__
            ends = map(name, self._rows.tolist()), map(name, self._cols.tolist())
            self._edge_list = tuple(zip(*ends, self._weights.tolist()))
        return self._edge_list

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (rows, cols, weights) with rows < cols, sorted by (row, col)."""
        return self._rows, self._cols, self._weights

    @property
    def edge_count(self) -> int:
        return len(self._weights)

    def edge_weight(self, a: str, b: str) -> float | None:
        i, j = sorted((self.index_of(a), self.index_of(b)))
        lo, hi = np.searchsorted(self._rows, [i, i + 1])
        k = lo + int(np.searchsorted(self._cols[lo:hi], j))
        return float(self._weights[k]) if k < hi and self._cols[k] == j else None

    def csr(self, binary: bool = True) -> sp.csr_matrix:
        """Symmetric sparse adjacency over the entity index, cached: callers must not modify it."""
        if binary not in self._csr:
            data = np.ones(self.edge_count) if binary else self._weights
            ends = np.concatenate([self._rows, self._cols]), np.concatenate([self._cols, self._rows])
            self._csr[binary] = sp.csr_matrix((np.concatenate([data, data]), ends), shape=(self.n, self.n))
        return self._csr[binary]

    def adjacency(self, binary: bool = False, ids: Sequence[str] | None = None) -> AdjacencyView:
        """Dense adjacency over the entity index, or selected from ``csr`` over
        ``ids``: ids the graph lacks get zero rows, entities not in ``ids`` go."""
        m = self.csr(binary)
        if ids is None:
            return AdjacencyView(self._ids, m.toarray(), binary)
        ids = tuple(ids)
        pos = np.array([self._index.get(eid, -1) for eid in ids], dtype=np.intp)
        have = np.flatnonzero(pos >= 0)
        out = np.zeros((len(ids), len(ids)))
        out[np.ix_(have, have)] = m[pos[have]][:, pos[have]].toarray()
        return AdjacencyView(ids, out, binary)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeteroGraph):
            return NotImplemented
        return (self._ids, self._types) == (other._ids, other._types) and all(
            map(np.array_equal, self.edge_arrays(), other.edge_arrays())
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"HeteroGraph(n={self.n}, edges={self.edge_count})"


def check_shared_types(a: HeteroGraph, b: HeteroGraph) -> None:
    """Reject an id that the two graphs give different types."""
    for eid in sorted(set(a.entity_ids) & set(b.entity_ids)):
        ta, tb = a.type_of(eid), b.type_of(eid)
        if ta != tb:
            raise GraftError(f"entity {eid!r} has conflicting types {ta!r} and {tb!r}")


def induced_subgraph(g: HeteroGraph, keep: Iterable[str]) -> HeteroGraph:
    """Subgraph over ``keep`` with every edge whose endpoints both survive."""
    keep_set = set(keep)
    for eid in keep_set:
        if not g.has_entity(eid):
            raise GraftError(f"unknown entity id {eid!r}")
    return g._reindexed([(eid, etype) for eid, etype in g.entity_items() if eid in keep_set])


def align_union_entities(
    a: HeteroGraph, b: HeteroGraph, binary: bool = True
) -> tuple[AdjacencyView, AdjacencyView]:
    """Adjacency views for both graphs over the sorted union of their entity ids.

    Entities absent from one graph contribute zero rows and columns to its
    view. An id present in both graphs with different types is an error.
    """
    check_shared_types(a, b)
    ids = tuple(sorted(set(a.entity_ids) | set(b.entity_ids)))
    return a.adjacency(binary, ids), b.adjacency(binary, ids)


def dynamic_factor(a: AdjacencyView, b: AdjacencyView) -> float:
    """Discrepancy between two aligned adjacency views.

    Defined as the entrywise sum of squared differences divided by n(n-1).
    For binary views this is the fraction of entity pairs whose edge status
    differs, counting each unordered pair once.
    """
    if a.ids != b.ids:
        raise GraftError("adjacency views are over different entity index spaces")
    n = a.n
    if n < 2:
        raise GraftError(f"dynamic factor needs at least 2 entities, got {n}")
    diff = a.matrix - b.matrix
    return float((diff * diff).sum()) / (n * (n - 1))


def format_graph(g: HeteroGraph) -> str:
    """Canonical text form: header, sorted v-lines, sorted e-lines."""
    lines = [FORMAT_HEADER]
    for eid, etype in g.entity_items():
        lines.append(f"v {eid} {etype}")
    for a, b, w in g.edges():
        lines.append(f"e {a} {b} {w!r}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> HeteroGraph:
    """Parse the graph text format, reporting errors with 1-based line numbers."""
    header_seen = False
    entities: list[tuple[str, str]] = []
    seen_ids: dict[str, int] = {}
    raw_edges: list[tuple[int, str, str, float]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != FORMAT_HEADER:
                raise GraphFormatError(f"expected header {FORMAT_HEADER!r}, got {line!r}", lineno)
            header_seen = True
            continue
        tokens = line.split()
        if tokens[0] == "v":
            if len(tokens) != 3:
                raise GraphFormatError("v-line must be 'v <id> <type>'", lineno)
            _, eid, etype = tokens
            if eid in seen_ids:
                raise GraphFormatError(
                    f"duplicate entity id {eid!r} (first declared on line {seen_ids[eid]})", lineno
                )
            seen_ids[eid] = lineno
            entities.append((eid, etype))
        elif tokens[0] == "e":
            if len(tokens) != 4:
                raise GraphFormatError("e-line must be 'e <id1> <id2> <weight>'", lineno)
            _, a, b, wtok = tokens
            try:
                w = float(wtok)
            except ValueError:
                raise GraphFormatError(f"invalid edge weight {wtok!r}", lineno) from None
            if not math.isfinite(w) or w <= 0.0:
                raise GraphFormatError(f"edge weight must be positive and finite, got {wtok}", lineno)
            raw_edges.append((lineno, a, b, w))
        else:
            raise GraphFormatError(f"unknown record type {tokens[0]!r}", lineno)
    if not header_seen:
        raise GraphFormatError(f"missing header {FORMAT_HEADER!r}")

    # every record is checked above and below, so the graph is built at the
    # array level without a second validation pass
    entities.sort()
    ids = tuple(eid for eid, _ in entities)
    index = {eid: i for i, eid in enumerate(ids)}
    pair_lines: dict[tuple[int, int], int] = {}
    weights = []
    for lineno, a, b, w in raw_edges:
        for endpoint in (a, b):
            if endpoint not in index:
                raise GraphFormatError(f"edge endpoint {endpoint!r} is not a declared entity", lineno)
        if a == b:
            raise GraphFormatError(f"self-loop on entity {a!r} is not allowed", lineno)
        i, j = index[a], index[b]
        key = (i, j) if i < j else (j, i)
        if key in pair_lines:
            raise GraphFormatError(
                f"duplicate edge between {a!r} and {b!r} (first on line {pair_lines[key]})", lineno
            )
        pair_lines[key] = lineno
        weights.append(w)
    ends = np.array(list(pair_lines), dtype=np.intp).reshape(-1, 2)
    types = tuple(etype for _, etype in entities)
    return HeteroGraph.__new__(HeteroGraph)._init(ids, types, index, ends[:, 0], ends[:, 1], weights)


def read_graph(path: str | Path) -> HeteroGraph:
    path = Path(path)
    try:
        return parse_graph(path.read_text(encoding="utf-8"))
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


def write_graph(g: HeteroGraph, path: str | Path) -> None:
    Path(path).write_text(format_graph(g), encoding="utf-8")
