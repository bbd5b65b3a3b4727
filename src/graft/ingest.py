"""Build dependency graphs from streams of typed categorical event records.

Each event carries an epoch-millisecond timestamp and a mapping from entity
type to entity id. Every event contributes +1 weight to each unordered pair
of its entities (clique expansion), so edge weights count co-occurrences.

``accumulate`` and ``snapshot_series`` read events through one loop,
``_prefix_graphs``, which builds the graph of each requested prefix of the
event list while folding the events in once. It is the one place a faster
(say, array-level or incremental) snapshot build would go.
"""

from __future__ import annotations

import json
import logging
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable

from .errors import GraftError
from .hetgraph import HeteroGraph, is_token

log = logging.getLogger(__name__)


@dataclass
class Event:
    """One event record: epoch-ms timestamp and a type -> id attribute map.

    Events with fewer than two attributes carry no pair information and are
    skipped (with a warning) during accumulation.
    """

    ts: int
    attrs: dict[str, str]


def parse_events(lines: Iterable[str]) -> list[Event]:
    """Parse JSON-lines event records; malformed records report their index."""
    events: list[Event] = []
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
        events.append(Event(ts, dict(attrs)))
    return events


def read_events(path: str | Path) -> list[Event]:
    with open(path, encoding="utf-8") as fh:
        return parse_events(fh)


def _prefix_graphs(events: list[Event], cuts: Iterable[int]) -> list[HeteroGraph]:
    """The graph of ``events[:c]`` for each cut ``c`` (nondecreasing), folding
    every event in once. Events with fewer than two attributes are skipped,
    with one warning for all of them. A cut that adds no pair shares the
    previous cut's graph (graphs are immutable)."""
    ents: dict[str, str] = {}
    counts: dict[tuple[str, str], float] = {}
    graphs: list[HeteroGraph] = []
    skipped = done = 0
    for cut in cuts:
        changed = not graphs
        for ev in events[done:cut]:
            items = sorted(ev.attrs.items())
            if len(items) < 2:
                skipped += 1
                continue
            changed = True
            for etype, eid in items:
                prev = ents.setdefault(eid, etype)
                if prev != etype:
                    raise GraftError(f"entity {eid!r} appears with conflicting types {prev!r} and {etype!r}")
            for pair in combinations(sorted(eid for _, eid in items), 2):
                counts[pair] = counts.get(pair, 0.0) + 1.0
        done = cut
        if changed:
            graphs.append(HeteroGraph(ents.items(), ((a, b, w) for (a, b), w in counts.items())))
        else:
            graphs.append(graphs[-1])
    if skipped:
        log.warning("skipped %d event(s) with fewer than two attributes", skipped)
    return graphs


def accumulate(events: Iterable[Event]) -> HeteroGraph:
    """Aggregate all events into one graph; order of events does not matter."""
    events = list(events)
    return _prefix_graphs(events, [len(events)])[0]


def snapshot_series(events: Iterable[Event], window: int) -> list[HeteroGraph]:
    """Cumulative snapshots over half-open windows of ``window`` milliseconds.

    Snapshot k aggregates every event with ts < start + k * window, where
    start is the earliest timestamp. An empty stream yields one empty graph.
    """
    if not isinstance(window, int) or window <= 0:
        raise GraftError(f"window must be a positive integer of milliseconds, got {window!r}")
    evs = sorted(events, key=lambda e: e.ts)
    if not evs:
        return [HeteroGraph()]
    ts = [e.ts for e in evs]
    n_windows = (ts[-1] - ts[0]) // window + 1
    return _prefix_graphs(evs, (bisect_left(ts, ts[0] + k * window) for k in range(1, n_windows + 1)))
