"""Build dependency graphs from streams of typed categorical event records.

Each event carries an epoch-millisecond timestamp and a mapping from entity
type to entity id. Every event contributes +1 weight to each unordered pair
of its entities (clique expansion), so edge weights count co-occurrences.

``parse_events`` checks each distinct token once. ``accumulate`` and
``snapshot_series`` read events through one loop, ``_prefix_graphs``: one
fold codes each entity as an integer at first sight (where its id and type
are checked) and appends every event's codes to one flat array; one sort
ranks the ids and one ``np.unique`` numbers the distinct pairs. Each window
that adds a pair then costs one count update and one array build through
``HeteroGraph._init``, so a series of snapshots costs one fold and one sort
plus its graphs, never a re-sort per window.
"""

from __future__ import annotations

import json
import logging
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import GraftError
from .hetgraph import HeteroGraph, entity_problem, is_token

log = logging.getLogger(__name__)


@dataclass(slots=True)
class Event:
    """One event record: epoch-ms timestamp and a type -> id attribute map.

    Events with fewer than two attributes carry no pair information and are
    skipped (with a warning) during accumulation.
    """

    ts: int
    attrs: dict[str, str]


def parse_events(lines: Iterable[str]) -> list[Event]:
    """Parse JSON-lines event records; malformed records report their index.

    One dict maps each distinct token (type or id) to itself: a token is
    checked the first time it is seen, and every event's attribute map shares
    one string per entity type and per entity id, where each decoded record
    would carry its own copies.
    """
    events: list[Event] = []
    tokens: dict[str, str] = {}
    rec = 0
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        rec += 1
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise GraftError(f"record {rec}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict) or set(obj) != {"ts", "attrs"}:
            raise GraftError(f"record {rec}: expected an object with exactly the keys 'ts' and 'attrs'")
        ts = obj["ts"]
        if isinstance(ts, bool) or not isinstance(ts, int):
            raise GraftError(f"record {rec}: 'ts' must be an integer epoch-millisecond timestamp")
        attrs = obj["attrs"]
        if not isinstance(attrs, dict):
            raise GraftError(f"record {rec}: 'attrs' must be an object mapping type to id")
        try:
            shared = {tokens[k]: tokens[v] for k, v in attrs.items()}
        except (KeyError, TypeError):  # a token not seen before, or an unhashable value
            for tok in (*attrs, *attrs.values()):
                if isinstance(tok, str) and tok in tokens:
                    continue
                if not is_token(tok):
                    msg = "attribute keys and values must be non-empty strings without whitespace"
                    raise GraftError(f"record {rec}: {msg}") from None
                tokens[tok] = tok
            shared = {tokens[k]: tokens[v] for k, v in attrs.items()}
        events.append(Event(ts, shared))
    return events


def read_events(path: str | Path) -> list[Event]:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_events(fh)
    except (GraftError, UnicodeDecodeError) as exc:
        raise GraftError(f"{path}: {exc}") from None


def _prefix_graphs(events: list[Event], cuts: Iterable[int]) -> list[HeteroGraph]:
    """The graph of ``events[:c]`` for each cut ``c`` (nondecreasing).

    One fold reads every event once. It gives each entity an integer code at
    first sight, checking then its id and type tokens, and later sightings
    against its type; it appends each event's codes to one flat array and the
    event's arity to another. Events with fewer than two attributes are
    skipped, with one warning for all of them.

    After the fold, one sort ranks the ids and one ``np.unique`` numbers the
    distinct pairs; the cuts then add their pair occurrences into one running
    count. A cut that added pairs but no entity shares the previous graph's
    id and type tables; one that added nothing shares the previous graph
    (graphs are immutable).
    """
    code: dict[str, int] = {}
    ids: list[str] = []
    types: list[str] = []
    flat, arity = array("q"), array("q")
    add_code, add_arity = flat.append, arity.append
    folded: list[int] = []  # events kept by each cut
    seen: list[int] = []  # entities coded by each cut
    skipped = done = 0
    for cut in cuts:
        for ev in events[done:cut]:
            if len(ev.attrs) < 2:
                skipped += 1
                continue
            for etype, eid in ev.attrs.items():
                try:
                    c = code.get(eid)
                except TypeError:  # unhashable, so no token either
                    c = None
                if c is None:
                    problem = entity_problem(eid, etype)
                    if problem:
                        raise GraftError(problem)
                    c = code[eid] = len(ids)
                    ids.append(eid)
                    types.append(etype)
                elif types[c] != etype:
                    raise GraftError(f"entity {eid!r} appears with conflicting types {types[c]!r} and {etype!r}")
                add_code(c)
            add_arity(len(ev.attrs))
        done = cut
        folded.append(len(arity))
        seen.append(len(ids))
    if skipped:
        log.warning("skipped %d event(s) with fewer than two attributes", skipped)

    n = len(ids)
    by_rank = np.array(sorted(range(n), key=ids.__getitem__), dtype=np.int64)  # the code at each global rank
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = np.arange(n)
    keys, bounds = _pair_keys(rank[np.frombuffer(flat, np.int64)], np.frombuffer(arity, np.int64), n)
    pairs, occurrence = np.unique(keys, return_inverse=True)
    pair_rows, pair_cols = np.divmod(pairs, max(n, 1))

    counts = np.zeros(len(pairs), dtype=np.int64)
    graphs: list[HeteroGraph] = []
    counted = known = 0
    for end, m in zip(folded, seen):
        if graphs and end == counted:
            graphs.append(graphs[-1])
            continue
        counts += np.bincount(occurrence[bounds[counted] : bounds[end]], minlength=len(pairs))
        if not graphs or m != known:
            present = by_rank < m
            local = np.cumsum(present) - 1  # global rank -> rank among this cut's entities
            kept = by_rank[present].tolist()
            cut_ids = tuple(map(ids.__getitem__, kept))
            cut_types = tuple(map(types.__getitem__, kept))
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
    """Aggregate all events into one graph; order of events does not matter."""
    events = list(events)
    return _prefix_graphs(events, [len(events)])[0]


def snapshot_series(events: Iterable[Event], window: int) -> list[HeteroGraph]:
    """Cumulative snapshots over half-open windows of ``window`` milliseconds.

    Snapshot k aggregates every event with ts < start + k * window, where
    start is the earliest timestamp. An empty stream yields one empty graph.
    """
    if isinstance(window, bool) or not isinstance(window, int) or window <= 0:
        raise GraftError(f"window must be a positive integer of milliseconds, got {window!r}")
    evs = sorted(events, key=lambda e: e.ts)
    if not evs:
        return [HeteroGraph()]
    ts = [e.ts for e in evs]
    n_windows = (ts[-1] - ts[0]) // window + 1
    return _prefix_graphs(evs, (bisect_left(ts, ts[0] + k * window) for k in range(1, n_windows + 1)))
