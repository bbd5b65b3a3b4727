"""Typed dependency-graph data model, subgraph algebra, and text serialization.

Entities are identified by opaque string ids and carry a type label. Graphs
are undirected, weighted, and forbid self-loops and duplicate edges. The
entity order is always the lexicographic order of the ids, which fixes every
matrix index convention in the package and makes serialization deterministic.

Edges are stored column-wise: integer endpoint arrays with row < col, sorted
by (row, col), and a float64 weight array. ``HeteroGraph.csr`` is the one
place edges become a matrix, a binary one (cached, graphs being immutable):
the construction stage reads both of its adjacencies as this cached CSR, and
a caller that needs a dense matrix takes ``csr().toarray()``. ``edges()``
builds a tuple of Python (id, id, weight) records on each call and keeps
none, since it costs about four times the arrays: a caller that reads the
edges more than once should use ``edge_arrays()``. The validating
constructor (``parse_graph`` goes through it too) and the package's own
builders end in one array-level constructor.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence, Sized
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import GraftError, GraphFormatError

FORMAT_HEADER = "graphfmt 1"


class _RecordError(GraftError):
    """A bad record: its list ("entities" or "edges"), position, and the position a repeat repeats."""

    def __init__(self, message: str, where: str, pos: int, first: int | None = None):
        super().__init__(message)
        self.where, self.pos, self.first = where, pos, first


def is_token(tok) -> bool:
    """The rule for entity ids and types: a non-empty string without whitespace."""
    return isinstance(tok, str) and tok.split() == [tok]  # split() cuts where isspace() holds


def entity_problem(eid, etype) -> str | None:
    """What is wrong with the tokens of an (id, type) record, None if nothing."""
    for tok, what in ((eid, "entity id"), (etype, "entity type")):
        if not is_token(tok):
            return f"{what} must be a non-empty string without whitespace, got {tok!r}"
    return None


def _float(w) -> float | None:
    """``w`` as a float, None if it is no number. An int beyond float range is
    ±inf, as a graph file's digits for it parse."""
    try:
        return float(w)
    except OverflowError:
        return math.inf if w > 0 else -math.inf
    except (TypeError, ValueError):
        return None


def _positions(index: dict[str, int], records: list, j: int) -> np.ndarray:
    """The index of each record's item ``j``, -1 where that is no declared id (an unhashable one too)."""
    get = index.get
    try:
        return np.fromiter((get(e[j], -1) for e in records), np.intp, len(records))
    except TypeError:
        return np.array([get(e[j], -1) if isinstance(e[j], str) else -1 for e in records], np.intp)


def _columns(entities: Iterable[tuple[str, str]], edges: Iterable[tuple]):
    """The arguments of ``HeteroGraph._init`` from (id, type) and (id1, id2[,
    weight]) records. The first bad record, entities before edges, raises
    ``_RecordError`` for its first failed check: tokens, duplicate id; arity,
    declared endpoints, self-loop, positive finite weight, duplicate pair."""
    seen: dict[str, tuple[int, str]] = {}
    for k, record in enumerate(entities):
        try:
            eid, etype = record
        except (TypeError, ValueError):
            raise _RecordError(f"entity must be (id, type), got {record!r}", "entities", k) from None
        problem = entity_problem(eid, etype)
        if problem:
            raise _RecordError(problem, "entities", k)
        first = seen.setdefault(eid, (k, etype))[0]
        if first != k:
            raise _RecordError(f"duplicate entity id {eid!r}", "entities", k, first)
    ids = tuple(sorted(seen))
    index = {eid: i for i, eid in enumerate(ids)}

    # records after the first one of the wrong arity are never reached
    edges = list(edges)
    try:
        arity = np.fromiter(map(len, edges), np.intp, len(edges))
    except TypeError:  # a record without a length has no arity
        arity = np.array([len(e) if isinstance(e, Sized) else 0 for e in edges], np.intp)
    m = int(np.flatnonzero(np.append((arity < 2) | (arity > 3), True))[0])
    head = edges[:m]
    rows, cols = _positions(index, head, 0), _positions(index, head, 1)
    raw = [e[2] if len(e) == 3 else 1.0 for e in head]
    try:
        weights = np.fromiter(raw, float, m)
    except (TypeError, ValueError, OverflowError):
        weights = np.array([_float(w) for w in raw], dtype=float)  # None, for not a number, becomes nan
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    key = lo * len(ids) + hi
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(m, dtype=bool)
    repeat[order[1:]] = np.diff(key[order]) == 0
    bad_weight = ~((weights > 0) & (weights < np.inf))
    fault = np.select([(rows < 0) | (cols < 0), rows == cols, bad_weight, repeat], [1, 2, 3, 4])
    if fault.any():
        p = int(np.argmax(fault > 0))
        a, b, w = edges[p][0], edges[p][1], _float(raw[p])
        problems = (
            f"edge endpoint {(a if rows[p] < 0 else b)!r} is not a declared entity",
            f"self-loop on entity {a!r} is not allowed",
            f"edge ({a!r}, {b!r}) weight must be "
            + (f"a number, got {raw[p]!r}" if w is None else f"positive and finite, got {w}"),
            f"duplicate edge between {a!r} and {b!r}",
        )
        first = int(np.argmax(key == key[p])) if fault[p] == 4 else None
        raise _RecordError(problems[fault[p] - 1], "edges", p, first)
    if m < len(edges):
        raise _RecordError(f"edge must be (id1, id2[, weight]), got {edges[m]!r}", "edges", m)
    return ids, tuple(seen[eid][1] for eid in ids), index, lo[order], hi[order], weights[order]


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

    __slots__ = ("_ids", "_types", "_index", "_rows", "_cols", "_weights", "_csr", "_codes")

    def __init__(self, entities: Iterable[tuple[str, str]] = (), edges: Iterable[tuple] = ()):
        self._init(*_columns(entities, edges))

    def _init(self, ids, types, index, rows, cols, weights) -> HeteroGraph:
        """The array-level constructor every graph ends in. It trusts that ``ids``
        are sorted and unique and that each edge rows[k] < cols[k] occurs once
        with a positive finite weight. Edges already in pair order are kept
        as given, and frozen, so callers hand over arrays they no longer write."""
        self._ids, self._types, self._index = ids, types, index
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        weights = np.asarray(weights, dtype=float)
        key = rows * len(ids) + cols
        if not (key[1:] > key[:-1]).all():
            order = np.argsort(key, kind="stable")
            rows, cols, weights = rows[order], cols[order], weights[order]
        self._rows, self._cols, self._weights = rows, cols, weights
        for arr in (self._rows, self._cols, self._weights):
            arr.flags.writeable = False
        self._csr = self._codes = None
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

    def edges(self) -> tuple[tuple[str, str, float], ...]:
        """All edges as (id1, id2, weight) with id1 < id2, sorted. The tuple is
        built on each call and not kept; repeated readers use ``edge_arrays()``."""
        name = self._ids.__getitem__
        ends = map(name, self._rows.tolist()), map(name, self._cols.tolist())
        return tuple(zip(*ends, self._weights.tolist()))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (rows, cols, weights) with rows < cols, sorted by (row, col)."""
        return self._rows, self._cols, self._weights

    @property
    def edge_count(self) -> int:
        return len(self._weights)

    def csr(self) -> sp.csr_matrix:
        """Symmetric sparse binary adjacency over the entity index, cached: callers must not modify it."""
        if self._csr is None:
            ends = np.concatenate([self._rows, self._cols]), np.concatenate([self._cols, self._rows])
            self._csr = sp.csr_matrix((np.ones(2 * self.edge_count), ends), shape=(self.n, self.n))
        return self._csr

    def type_codes(self) -> tuple[tuple[str, ...], np.ndarray]:
        """The sorted distinct entity types and each entity's position among them
        as a read-only integer array, cached."""
        if self._codes is None:
            names, codes = np.unique(np.array(self._types, dtype=str), return_inverse=True)
            codes.flags.writeable = False
            self._codes = tuple(names.tolist()), codes
        return self._codes

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


def split_by_overlap(source: HeteroGraph, target: HeteroGraph) -> tuple[list[int], list[int]]:
    """Source indices of the entities ``target`` shares and of the source-only
    ones, each in source order. Sharing no entity is an error."""
    shared: list[int] = []
    only: list[int] = []
    for i, eid in enumerate(source.entity_ids):
        (shared if target.has_entity(eid) else only).append(i)
    if not shared:
        raise GraftError("no overlap between domains: the source and target graphs share no entity")
    return shared, only


def induced_subgraph(g: HeteroGraph, keep: Iterable[str]) -> HeteroGraph:
    """Subgraph over ``keep`` with every edge whose endpoints both survive."""
    keep_set = set(keep)
    for eid in keep_set:
        g.index_of(eid)  # raises for an unknown id
    return g._reindexed([(eid, etype) for eid, etype in g.entity_items() if eid in keep_set])


def align_union_entities(a: HeteroGraph, b: HeteroGraph) -> tuple[HeteroGraph, HeteroGraph]:
    """Both graphs over the sorted union of their entities.

    Entities absent from one graph arrive in it isolated. An id present in
    both graphs with different types is an error.
    """
    check_shared_types(a, b)
    items = sorted(set(a.entity_items()) | set(b.entity_items()))
    return a._reindexed(items), b._reindexed(items)


def dynamic_factor(a: HeteroGraph, b: HeteroGraph) -> float:
    """Discrepancy between two graphs over the same entity ids.

    The fraction of entity pairs whose edge status differs, counting each
    unordered pair once: 2k / (n(n-1)) for k differing pairs, which is the
    entrywise sum of squared differences of the binary adjacencies divided by
    n(n-1). Weights play no part.
    """
    if a.entity_ids != b.entity_ids:
        raise GraftError("graphs are over different entity index spaces")
    n = a.n
    if n < 2:
        raise GraftError(f"dynamic factor needs at least 2 entities, got {n}")
    (ra, ca, _), (rb, cb, _) = a.edge_arrays(), b.edge_arrays()
    k = len(np.setxor1d(ra * n + ca, rb * n + cb, assume_unique=True))
    return 2 * k / (n * (n - 1))


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
    edges: list[tuple[str, str, float]] = []
    lines: dict[str, list[int]] = {"entities": [], "edges": []}
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
            entities.append((tokens[1], tokens[2]))
            lines["entities"].append(lineno)
        elif tokens[0] == "e":
            if len(tokens) != 4:
                raise GraphFormatError("e-line must be 'e <id1> <id2> <weight>'", lineno)
            w = _float(tokens[3])
            if w is None:
                raise GraphFormatError(f"invalid edge weight {tokens[3]!r}", lineno)
            edges.append((tokens[1], tokens[2], w))
            lines["edges"].append(lineno)
        else:
            raise GraphFormatError(f"unknown record type {tokens[0]!r}", lineno)
    if not header_seen:
        raise GraphFormatError(f"missing header {FORMAT_HEADER!r}")
    try:
        return HeteroGraph(entities, edges)
    except _RecordError as exc:
        at, first = lines[exc.where], {"entities": "first declared", "edges": "first"}[exc.where]
        suffix = "" if exc.first is None else f" ({first} on line {at[exc.first]})"
        raise GraphFormatError(f"{exc}{suffix}", at[exc.pos]) from None


def read_graph(path: str | Path) -> HeteroGraph:
    path = Path(path)
    try:
        return parse_graph(path.read_text(encoding="utf-8"))
    except (GraphFormatError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


def write_graph(g: HeteroGraph, path: str | Path) -> None:
    Path(path).write_text(format_graph(g), encoding="utf-8")
