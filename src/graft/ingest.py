"""Build dependency graphs from streams of typed categorical event records.

Each event carries an epoch-millisecond timestamp and a mapping from entity
type to entity id. Every event contributes +1 weight to each unordered pair
of its entities (clique expansion), so edge weights count co-occurrences.

``parse_events`` decodes each record with the C JSON scanner and codes it
at once into an ``EventLog``: columns of timestamps, attribute offsets, and
type and id codes into one table that holds each token string once, so no
per-record object is kept (dictionary-encoded columns). A token is checked
the first time it is seen. ``accumulate`` and ``snapshot_series`` read a
log's codes in place; any other iterable of ``Event``s is first coded into a
log by ``_fold``, which checks each entity's tokens and type as it meets
them. ``_prefix_graphs`` then checks every entity's type on the codes, ranks the ids with one sort and numbers the distinct pairs with one
``np.unique``. Each window that adds a pair costs one count update and one
array build through ``HeteroGraph._init``, so a series of snapshots costs
one pass over the codes and one sort plus its graphs, never a re-sort per
window.
"""

from __future__ import annotations

import json
import logging
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import GraftError
from .hetgraph import HeteroGraph, entity_problem, is_token
from .numerics import _check_memory

log = logging.getLogger(__name__)

_RECORD_KEYS = frozenset(("ts", "attrs"))
# bytes a snapshot series holds per window at its peak: the window's cut and
# entity-count entries, as arrays and as lists, and its slot in the graph list
# (40.5 B under tracemalloc over a 10⁶-window series of two events)
_WINDOW_BYTES = 40


@dataclass(slots=True)
class Event:
    """One event record: epoch-ms timestamp and a type -> id attribute map.

    Events with fewer than two attributes carry no pair information and are
    skipped (with a warning) during accumulation.
    """

    ts: int
    attrs: dict[str, str]


class EventLog(Sequence):
    """A read-only sequence of events held as columns.

    ``ts`` holds each event's timestamp (a Python int of any size);
    event ``k``'s attributes are positions ``offsets[k]`` to
    ``offsets[k + 1]`` of ``types`` and ``ids``, which code each attribute's
    type and id as an index into ``tokens``, a table holding each distinct
    token string once. An item is an ``Event`` built on access, a slice is
    a list of them, and a log equals any sequence of the same events.
    """

    __slots__ = ("_ts", "_offsets", "_types", "_ids", "_tokens")

    def __init__(self, ts: list[int], offsets: array, types: array, ids: array, tokens: list[str]):
        self._ts, self._offsets, self._types, self._ids, self._tokens = ts, offsets, types, ids, tokens

    def __len__(self) -> int:
        return len(self._ts)

    def _event(self, k: int) -> Event:
        a, b = self._offsets[k], self._offsets[k + 1]
        tok = self._tokens
        return Event(self._ts[k], {tok[t]: tok[i] for t, i in zip(self._types[a:b], self._ids[a:b])})

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._event(i) for i in range(*k.indices(len(self)))]
        return self._event(range(len(self))[k])  # the range raises IndexError and TypeError as a list would

    def __iter__(self):
        return map(self._event, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


def parse_events(lines: Iterable[str]) -> EventLog:
    """Parse JSON-lines event records into an ``EventLog``; malformed records
    report their index.

    Each record is decoded by the C scanner; a line it cannot decode whole
    goes to ``json.loads``, whose error names what is wrong. One dict gives
    each distinct token (type or id) its code: a token is checked the first
    time it is seen, and the log keeps one string per token.
    """
    scan = json.JSONDecoder().scan_once
    code: dict[str, int] = {}
    get = code.__getitem__
    stamps: list[int] = []
    offsets = array("q", [0])
    types: list[int] = []  # the codes are the dict's own ints, so a list holds only pointers to them
    ids: list[int] = []
    rec = 0
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        rec += 1
        try:
            obj, end = scan(line, 0)
            if end != len(line):
                raise ValueError(end)
        except (StopIteration, ValueError):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise GraftError(f"record {rec}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict) or obj.keys() != _RECORD_KEYS:
            raise GraftError(f"record {rec}: expected an object with exactly the keys 'ts' and 'attrs'")
        ts = obj["ts"]
        if isinstance(ts, bool) or not isinstance(ts, int):
            raise GraftError(f"record {rec}: 'ts' must be an integer epoch-millisecond timestamp")
        attrs = obj["attrs"]
        if not isinstance(attrs, dict):
            raise GraftError(f"record {rec}: 'attrs' must be an object mapping type to id")
        try:
            types += map(get, attrs)
            ids += map(get, attrs.values())
        except (KeyError, TypeError):  # a token not seen before, or an unhashable value
            del types[offsets[-1] :], ids[offsets[-1] :]
            for tok in (*attrs, *attrs.values()):
                if isinstance(tok, str) and tok in code:
                    continue
                if not is_token(tok):
                    msg = "attribute keys and values must be non-empty strings without whitespace"
                    raise GraftError(f"record {rec}: {msg}") from None
                code[tok] = len(code)
            types += map(get, attrs)
            ids += map(get, attrs.values())
        offsets.append(len(ids))
        stamps.append(ts)
    return EventLog(stamps, offsets, array("i", types), array("i", ids), list(code))


def read_events(path: str | Path) -> EventLog:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_events(fh)
    except (GraftError, UnicodeDecodeError) as exc:
        raise GraftError(f"{path}: {exc}") from None


def _fold(events: Iterable[Event]) -> EventLog:
    """Code hand-built events as a log, checking them as they are consumed.

    An entity's tokens are checked where its id is first seen, and each
    later sighting against its first type, so a malformed token and a type
    conflict raise in the order the events hold them. An event with fewer
    than two attributes enters with none: it adds no pair, so its tokens are
    never checked, as no graph would hold them.
    """
    code: dict[str, int] = {}
    kind: dict[str, str] = {}  # each entity id's first type
    stamps: list[int] = []
    offsets, types, ids = array("q", [0]), array("i"), array("i")
    for ev in events:
        if len(ev.attrs) > 1:
            for etype, eid in ev.attrs.items():
                try:
                    was = kind.get(eid)
                except TypeError:  # unhashable, so no token either
                    was = None
                if was is None:
                    problem = entity_problem(eid, etype)
                    if problem:
                        raise GraftError(problem)
                    kind[eid] = etype
                elif was != etype:
                    raise _conflict(eid, was, etype)
                types.append(code.setdefault(etype, len(code)))
                ids.append(code.setdefault(eid, len(code)))
        offsets.append(len(ids))
        stamps.append(ev.ts)
    return EventLog(stamps, offsets, types, ids, list(code))


def _conflict(eid: str, was: str, now: str) -> GraftError:
    return GraftError(f"entity {eid!r} appears with conflicting types {was!r} and {now!r}")


def _prefix_graphs(events: EventLog, order: list[int] | None, cuts: Iterable[int]) -> list[HeteroGraph]:
    """The graph of the first ``c`` events taken in ``order`` (stream order
    if None) for each cut ``c`` (nondecreasing, the last one all events).

    Events with fewer than two attributes are skipped, with one warning for
    all of them. The kept events' type and id codes are gathered in the order
    they are consumed; an entity's first type is its type, and the first
    attribute that gives it another raises.

    Then one sort ranks the ids and one ``np.unique`` numbers the distinct
    pairs; the cuts add their pair occurrences into one running count. A cut
    that added pairs but no entity shares the previous graph's id and type
    tables; one that added nothing shares the previous graph (graphs are
    immutable).
    """
    offsets = np.frombuffer(events._offsets, np.int64)
    starts, sizes = offsets[:-1], np.diff(offsets)
    if order is not None:
        starts, sizes = starts[order], sizes[order]
    keep = sizes > 1
    starts, sizes = starts[keep], sizes[keep]
    bounds = np.zeros(len(sizes) + 1, dtype=np.int64)  # each kept event's first position in the gathered codes
    np.cumsum(sizes, out=bounds[1:])
    at = np.repeat(starts - bounds[:-1], sizes) + np.arange(bounds[-1])
    type_codes = np.frombuffer(events._types, np.intc)[at]
    id_codes = np.frombuffer(events._ids, np.intc)[at]

    entities, first, which = np.unique(id_codes, return_index=True, return_inverse=True)
    entity_type = type_codes[first]
    tokens = events._tokens
    clash = np.flatnonzero(type_codes != entity_type[which])
    if len(clash):
        k = clash[0]
        raise _conflict(*(tokens[c] for c in (id_codes[k], entity_type[which[k]], type_codes[k])))
    if len(keep) > len(sizes):
        log.warning("skipped %d event(s) with fewer than two attributes", len(keep) - len(sizes))

    names = [tokens[c] for c in entities.tolist()]
    n = len(names)
    by_rank = np.array(sorted(range(n), key=names.__getitem__), dtype=np.int64)  # the entity at each rank
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = np.arange(n)
    first_at = first[by_rank]  # where each rank's entity is first seen
    ranked_ids = list(map(names.__getitem__, by_rank.tolist()))
    ranked_types = list(map(tokens.__getitem__, entity_type[by_rank].tolist()))
    keys, pair_bounds = _pair_keys(rank[which], sizes, n)
    pairs, occurrence = np.unique(keys, return_inverse=True)
    pair_rows, pair_cols = np.divmod(pairs, max(n, 1))

    # freed before the graphs' arrays are allocated, so those reuse the heap space
    # of these per-attribute arrays instead of growing the heap past it
    del at, type_codes, id_codes, which, keys

    kept_by = np.concatenate(([0], np.cumsum(keep)))  # kept events among the first c consumed
    ends = kept_by[np.fromiter(cuts, np.int64)]
    seen = np.searchsorted(np.sort(first), bounds[ends])  # entities first seen before each cut
    counts = np.zeros(len(pairs), dtype=np.int64)
    graphs: list[HeteroGraph] = []
    counted = known = 0
    for end, m in zip(ends.tolist(), seen.tolist()):
        if graphs and end == counted:
            graphs.append(graphs[-1])
            continue
        counts += np.bincount(occurrence[pair_bounds[counted] : pair_bounds[end]], minlength=len(pairs))
        if not graphs or m != known:
            present = first_at < bounds[end]
            local = np.cumsum(present) - 1  # global rank -> rank among this cut's entities
            mask = present.tolist()
            cut_ids, cut_types = tuple(compress(ranked_ids, mask)), tuple(compress(ranked_types, mask))
        live = np.flatnonzero(counts)
        rows, cols = local[pair_rows[live]], local[pair_cols[live]]
        graph = HeteroGraph.__new__(HeteroGraph)
        graphs.append(graph._init(cut_ids, cut_types, rows, cols, counts[live].astype(float)))
        counted, known = end, m
    return graphs


def _pair_keys(ranked: np.ndarray, sizes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The key ``min * n + max`` of every pair of ranks within each event, in
    event order, and the offset at which each event's keys start (plus the
    total). Event ``e`` holds the ``sizes[e]`` ranks after those of the events
    before it; each arity is one numpy pass over its C(a, 2) position pairs."""
    first = np.cumsum(sizes) - sizes
    bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes * (sizes - 1) // 2, out=bounds[1:])
    keys = np.empty(bounds[-1], dtype=np.int64)
    for a in np.unique(sizes).tolist():
        evs = np.flatnonzero(sizes == a)
        members = ranked[first[evs, None] + np.arange(a)]
        i, j = np.triu_indices(a, 1)
        x, y = members[:, i], members[:, j]
        keys[bounds[evs, None] + np.arange(len(i))] = np.minimum(x, y) * n + np.maximum(x, y)
    return keys, bounds


def accumulate(events: Iterable[Event]) -> HeteroGraph:
    """Aggregate all events into one graph; order of events does not matter.

    A type conflict raises at the first event, in stream order, that gives
    an entity a second type."""
    if not isinstance(events, EventLog):
        events = _fold(events)
    return _prefix_graphs(events, None, [len(events)])[0]


def snapshot_series(events: Iterable[Event], window: int) -> list[HeteroGraph]:
    """Cumulative snapshots over half-open windows of ``window`` milliseconds.

    Snapshot k aggregates every event with ts < start + k * window, where
    start is the earliest timestamp. An empty stream yields one empty graph.
    Events are consumed in stable ts order, so a type conflict raises at the
    first event in that order that gives an entity a second type. A window
    count whose series would exceed the memory budget
    (``numerics._check_memory``) raises before any cut is built.
    """
    if isinstance(window, bool) or not isinstance(window, int) or window <= 0:
        raise GraftError(f"window must be a positive integer of milliseconds, got {window!r}")
    if isinstance(events, EventLog):
        order = sorted(range(len(events)), key=events._ts.__getitem__)
        ts = list(map(events._ts.__getitem__, order))
    else:  # folded in ts order, so stream order is ts order
        events = _fold(sorted(events, key=attrgetter("ts")))
        order, ts = None, events._ts
    if not len(events):
        return [HeteroGraph()]
    n_windows = (ts[-1] - ts[0]) // window + 1
    _check_memory(f"a series of {n_windows} windows", n_windows * _WINDOW_BYTES)
    return _prefix_graphs(events, order, (bisect_left(ts, ts[0] + k * window) for k in range(1, n_windows + 1)))
