"""Build dependency graphs from streams of typed categorical event records.

Each event carries an epoch-millisecond timestamp and a mapping from entity
type to entity id. Every event contributes +1 weight to each unordered pair
of its entities (clique expansion), so edge weights count co-occurrences.

``accumulate`` and ``snapshot_series`` read events through one loop,
``_prefix_graphs``. It folds the events in once, coding each entity as an
integer at first sight (where its id and type are checked) and appending each
pair as two codes. Each prefix graph that gained a pair is then one array
build from those codes, through ``HeteroGraph._init``, so a series of
snapshots costs one pass over the events plus one sort-and-count per window.
"""

from __future__ import annotations

import json
import logging
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
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

    Every event's attribute map keys one shared string per entity type, where
    each decoded record would carry its own copies.
    """
    events: list[Event] = []
    type_names: dict[str, str] = {}
    shared = type_names.setdefault
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
        if not all(is_token(k) and is_token(v) for k, v in attrs.items()):
            msg = "attribute keys and values must be non-empty strings without whitespace"
            raise GraftError(f"record {rec}: {msg}")
        events.append(Event(ts, {shared(k, k): v for k, v in attrs.items()}))
    return events


def read_events(path: str | Path) -> list[Event]:
    with open(path, encoding="utf-8") as fh:
        return parse_events(fh)


def _prefix_graphs(events: list[Event], cuts: Iterable[int]) -> list[HeteroGraph]:
    """The graph of ``events[:c]`` for each cut ``c`` (nondecreasing).

    One fold reads every event once. It gives each entity an integer code at
    first sight, checking then its id and type tokens, and later sightings
    against its type; each co-occurring pair is appended as two codes. A cut
    that added a pair builds its graph from those arrays in one array-level
    construction (``_pairs_graph``); one that added none shares the previous
    cut's graph (graphs are immutable). Events with fewer than two attributes
    are skipped, with one warning for all of them.
    """
    code: dict[str, int] = {}
    ids: list[str] = []
    types: list[str] = []
    left, right = array("q"), array("q")
    add_left, add_right = left.append, right.append
    graphs: list[HeteroGraph] = []
    skipped = done = 0
    for cut in cuts:
        changed = not graphs
        for ev in events[done:cut]:
            if len(ev.attrs) < 2:
                skipped += 1
                continue
            changed = True
            codes = []
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
                codes.append(c)
            for a, b in combinations(codes, 2):
                add_left(a)
                add_right(b)
        done = cut
        graphs.append(_pairs_graph(ids, types, left, right) if changed else graphs[-1])
    if skipped:
        log.warning("skipped %d event(s) with fewer than two attributes", skipped)
    return graphs


def _pairs_graph(ids: list[str], types: list[str], left: array, right: array) -> HeteroGraph:
    """The graph over coded entities (``ids[c]`` has type ``types[c]``) whose
    edge weights count the coded pairs ``(left[k], right[k])``."""
    n = len(ids)
    order = sorted(range(n), key=ids.__getitem__)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    a, b = rank[np.frombuffer(left, np.int64)], rank[np.frombuffer(right, np.int64)]
    keys, counts = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_counts=True)
    sorted_ids = tuple(map(ids.__getitem__, order))
    sorted_types = tuple(map(types.__getitem__, order))
    index = dict(zip(sorted_ids, range(n)))
    graph = HeteroGraph.__new__(HeteroGraph)
    return graph._init(sorted_ids, sorted_types, index, keys // n, keys % n, counts.astype(float))


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
