"""Typed dependency-graph data model, subgraph algebra, and text serialization.

Entities are identified by opaque string ids and carry a type label. Graphs
are undirected, weighted, and forbid self-loops and duplicate edges. The
entity order is always the lexicographic order of the ids, which fixes every
matrix index convention in the package and makes serialization deterministic.

Edges are stored column-wise: integer endpoint arrays with row < col, sorted
by (row, col), and a float64 weight array. The id → index dict is built by
the first lookup and kept. ``HeteroGraph.csr`` is the one
place edges become a matrix, a binary one (cached, graphs being immutable):
the construction stage reads both of its adjacencies as this cached CSR, and
a caller that needs a dense matrix takes ``csr().toarray()``. ``edges()``
builds a tuple of Python (id, id, weight) records on each call and keeps
none, since it costs about four times the arrays: a caller that reads the
edges more than once should use ``edge_arrays()``, as the text format's
writer does. The validating constructor and ``parse_graph`` share
one column validator, and every graph ends in one array-level constructor.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence, Sized
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import GraftError, GraphFormatError

FORMAT_HEADER = "graphfmt 1"
_BLOCK = 1 << 12  # characters of text split at a time, and edges formatted at a time


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


def _positions(index: dict[str, int], records: Collection, j: int) -> np.ndarray:
    """The index of each record's item ``j``, -1 where that is no declared id (an unhashable one too)."""
    get = index.get
    try:
        return np.fromiter((get(e[j], -1) for e in records), np.intp, len(records))
    except TypeError:
        return np.array([get(e[j], -1) if isinstance(e[j], str) else -1 for e in records], np.intp)


def _entity_columns(entities: Iterable) -> tuple[tuple[str, ...], tuple[str, ...], dict[str, int]]:
    """The sorted ids, their types and the id → index dict of (id, type)
    records. The first bad record raises ``_RecordError`` for its first
    failed check: shape, tokens, duplicate id."""
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
    return ids, tuple(seen[eid][1] for eid in ids), dict(zip(ids, range(len(ids))))


def _edge_columns(n: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, record: Callable[[int], tuple]):
    """The edges rows[k]–cols[k] of weight weights[k] as ``HeteroGraph._init``
    takes them: rows < cols, sorted by pair. An endpoint is an entity index,
    -1 for an undeclared one; a weight is nan where it is no number. The first
    bad edge raises ``_RecordError`` for its first failed check: declared
    endpoints, self-loop, positive finite weight, duplicate pair. ``record(p)``
    gives edge p as written, (id1, id2, weight), for the message."""
    key = np.minimum(rows, cols)
    key *= n
    key += np.maximum(rows, cols)
    bad = (rows < 0) | (cols < 0) | (rows == cols) | ~((weights > 0) & (weights < np.inf))
    order = np.argsort(key, kind="stable")
    key = key[order]
    bad[order[1:][key[1:] == key[:-1]]] = True  # a repeat: a later edge with an earlier one's pair
    if bad.any():
        p = int(np.argmax(bad))
        a, b, raw = record(p)
        if rows[p] < 0 or cols[p] < 0:
            raise _RecordError(f"edge endpoint {(a if rows[p] < 0 else b)!r} is not a declared entity", "edges", p)
        if rows[p] == cols[p]:
            raise _RecordError(f"self-loop on entity {a!r} is not allowed", "edges", p)
        if not 0 < weights[p] < np.inf:
            w = _float(raw)
            got = f"a number, got {raw!r}" if w is None else f"positive and finite, got {w}"
            raise _RecordError(f"edge ({a!r}, {b!r}) weight must be {got}", "edges", p)
        first = int(order[np.searchsorted(key, min(rows[p], cols[p]) * n + max(rows[p], cols[p]))])
        raise _RecordError(f"duplicate edge between {a!r} and {b!r}", "edges", p, first)
    return *np.divmod(key, max(n, 1)), weights[order]


def _columns(entities: Iterable[tuple[str, str]], edges: Iterable[tuple]):
    """The arguments of ``HeteroGraph._init`` from (id, type) and (id1, id2[,
    weight]) records. The first bad record, entities before edges, raises
    ``_RecordError``; an edge of the wrong arity only once every edge before
    it has passed, since the records after it are never reached."""
    ids, types, index = _entity_columns(entities)
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
    columns = _edge_columns(len(ids), rows, cols, weights, lambda p: (*head[p][:2], raw[p]))
    if m < len(edges):
        raise _RecordError(f"edge must be (id1, id2[, weight]), got {edges[m]!r}", "edges", m)
    return ids, types, *columns


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

    def _init(self, ids, types, rows, cols, weights) -> HeteroGraph:
        """The array-level constructor every graph ends in. It trusts that ``ids``
        are sorted and unique and that each edge rows[k] < cols[k] occurs once
        with a positive finite weight. Edges already in pair order are kept
        as given, and frozen, so callers hand over arrays they no longer write."""
        self._ids, self._types = ids, types
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        weights = np.asarray(weights, dtype=float)
        key = rows * len(ids) + cols
        if not (key[1:] > key[:-1]).all():
            order = np.argsort(key, kind="stable")
            rows, cols, weights = rows[order], cols[order], weights[order]
        self._rows, self._cols, self._weights = rows, cols, weights
        for arr in (self._rows, self._cols, self._weights):
            arr.flags.writeable = False
        self._index = self._csr = self._codes = None
        return self

    def _with_edges(self, rows, cols, weights) -> HeteroGraph:
        """The same entities with other, already valid, edges."""
        return HeteroGraph.__new__(HeteroGraph)._init(self._ids, self._types, rows, cols, weights)

    def _reindexed(self, items: Sequence[tuple[str, str]]) -> HeteroGraph:
        """This graph over the sorted (id, type) list ``items``: edges losing an
        endpoint are dropped, and entities new to the graph arrive isolated."""
        ids = tuple(eid for eid, _ in items)
        index = {eid: i for i, eid in enumerate(ids)}
        pos = np.array([index.get(eid, -1) for eid in self._ids], dtype=np.intp)
        rows, cols = pos[self._rows], pos[self._cols]
        keep = (rows >= 0) & (cols >= 0)
        types = tuple(etype for _, etype in items)
        return HeteroGraph.__new__(HeteroGraph)._init(ids, types, rows[keep], cols[keep], self._weights[keep])

    def _id_index(self) -> dict[str, int]:
        """The id → index dict, built by the first lookup and kept."""
        if self._index is None:
            self._index = dict(zip(self._ids, range(len(self._ids))))
        return self._index

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
        return eid in self._id_index()

    def index_of(self, eid: str) -> int:
        try:
            return self._id_index()[eid]
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
    """Canonical text form: header, sorted v-lines, sorted e-lines. The e-lines
    are written from the edge arrays, a block at a time; a weight is written
    as its Python float's repr, so it reads back to the same float."""
    name = g.entity_ids.__getitem__
    rows, cols, weights = g.edge_arrays()
    parts = [FORMAT_HEADER, *map("v {} {}".format, g.entity_ids, g.entity_types)]
    for s in range(0, len(weights), _BLOCK):
        ends = map(name, rows[s : s + _BLOCK].tolist()), map(name, cols[s : s + _BLOCK].tolist())
        parts.append("\n".join(map("e {} {} {!r}".format, *ends, weights[s : s + _BLOCK].tolist())))
    parts.append("")  # the newline after the last line
    return "\n".join(parts)


def _records(text: str) -> Iterator[tuple[int, str]]:
    """The 1-based number and the stripped text of each line that is neither
    blank nor a comment. The lines are those of ``text.splitlines()``, split a
    block at a time: a cut just after a newline is a line boundary whatever
    line ends the text uses."""
    lineno = start = 0
    while start < len(text):
        cut = text.find("\n", start + _BLOCK)
        end = len(text) if cut < 0 else cut + 1
        for raw in text[start:end].splitlines():
            lineno += 1
            line = raw.strip()
            if line and line[0] != "#":
                yield lineno, line
        start = end


def _record_line(text: str, tag: str, k: int) -> tuple[int, list[str]]:
    """The line number and tokens of the k-th (from 0) ``tag`` record of a
    text that has been read without a format error."""
    records = _records(text)
    next(records)  # the header
    for lineno, line in records:
        tokens = line.split()
        if tokens[0] == tag:
            if k == 0:
                return lineno, tokens
            k -= 1


def parse_graph(text: str) -> HeteroGraph:
    """Parse the graph text format, reporting errors with 1-based line numbers.

    Each e-line becomes two endpoint codes and a float64 weight as it is read,
    the codes numbering ids at first sight, so a v-line may come after the
    e-lines that name it. Once the text is read the codes are resolved against
    the v-lines in sorted order and checked by the constructor's validator; an
    error's line is found by reading the text again up to its record.
    """
    records = _records(text)
    lineno, line = next(records, (None, None))
    if line is None:
        raise GraphFormatError(f"missing header {FORMAT_HEADER!r}")
    if line != FORMAT_HEADER:
        raise GraphFormatError(f"expected header {FORMAT_HEADER!r}, got {line!r}", lineno)
    ids: list[str] = []
    types: list[str] = []
    code: dict[str, int] = {}
    number = code.setdefault
    ends, weights = array("q"), array("d")
    for lineno, line in records:
        tokens = line.split()
        tag = tokens[0]
        if tag == "e":
            if len(tokens) != 4:
                raise GraphFormatError("e-line must be 'e <id1> <id2> <weight>'", lineno)
            try:
                weights.append(float(tokens[3]))
            except ValueError:
                raise GraphFormatError(f"invalid edge weight {tokens[3]!r}", lineno) from None
            ends.append(number(tokens[1], len(code)))
            ends.append(number(tokens[2], len(code)))
        elif tag == "v":
            if len(tokens) != 3:
                raise GraphFormatError("v-line must be 'v <id> <type>'", lineno)
            number(tokens[1], len(code))
            ids.append(tokens[1])
            types.append(tokens[2])
        else:
            raise GraphFormatError(f"unknown record type {tag!r}", lineno)
    try:
        ids, types, index = _entity_columns(zip(ids, types))
        # each endpoint's entity index, -1 for an undeclared id; the codes are dropped here
        ends = _positions(index, code.items(), 0)[np.frombuffer(ends, np.int64)]
        edges = _edge_columns(
            len(ids), ends[0::2], ends[1::2], np.frombuffer(weights), lambda p: _record_line(text, "e", p)[1][1:]
        )
    except _RecordError as exc:
        tag, first = {"entities": ("v", "first declared"), "edges": ("e", "first")}[exc.where]
        suffix = "" if exc.first is None else f" ({first} on line {_record_line(text, tag, exc.first)[0]})"
        raise GraphFormatError(f"{exc}{suffix}", _record_line(text, tag, exc.pos)[0]) from None
    return HeteroGraph.__new__(HeteroGraph)._init(ids, types, *edges)


def read_graph(path: str | Path) -> HeteroGraph:
    path = Path(path)
    try:
        return parse_graph(path.read_text(encoding="utf-8"))
    except (GraphFormatError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


def write_graph(g: HeteroGraph, path: str | Path) -> None:
    Path(path).write_text(format_graph(g), encoding="utf-8")
