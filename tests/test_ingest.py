import gc
import json
import logging
import re
import sys
import tracemalloc
from collections import Counter
from collections.abc import Sequence
from itertools import combinations

import numpy as np
import pytest

from graft import GraftError, HeteroGraph, accumulate, format_graph, ingest, numerics, parse_events, score, snapshot_series
from graft.ingest import Event, EventLog
from testkit import edge_weight, reference_score


def line(ts, attrs):
    return json.dumps({"ts": ts, "attrs": attrs})


class TestParseEvents:
    def test_parses_valid_stream(self):
        evs = parse_events([line(5, {"process": "p1", "file": "f1"}), ""])
        assert evs == [Event(5, {"process": "p1", "file": "f1"})]

    @pytest.mark.parametrize(
        "text,msg",
        [
            ("{not json", "record 1: invalid JSON"),
            ('{"ts": 1, "attrs": {}} {}', "record 1: invalid JSON: Extra data"),
            ('{"ts": 1}', "exactly the keys"),
            ('{"ts": 1, "attrs": {}, "x": 2}', "exactly the keys"),
            ('{"ts": 1.5, "attrs": {}}', "integer"),
            ('{"ts": true, "attrs": {}}', "integer"),
            ('{"ts": 1, "attrs": []}', "object mapping"),
            ('{"ts": 1, "attrs": {"": "x"}}', "non-empty"),
            ('{"ts": 1, "attrs": {"t": ""}}', "non-empty"),
            ('{"ts": 1, "attrs": {"t": "a b"}}', "whitespace"),
            ('{"ts": 1, "attrs": {"t": 3}}', "non-empty strings"),
        ],
    )
    def test_malformed_records_rejected(self, text, msg):
        with pytest.raises(GraftError, match=msg):
            parse_events([text])

    @pytest.mark.parametrize(
        "tok,valid",
        [("", False), ("a b", False), ("\x1c", False), ("\u00a0", False), ("\u2028", False), (3, False),
         ("a", True), ("proc:42", True), ("\u00e9t\u00e9", True), ("a\u200bb", True)],
    )
    def test_token_verdict_matches_graph_constructor(self, tok, valid):
        def accepts(build) -> bool:
            try:
                build()
            except GraftError:
                return False
            return True

        assert accepts(lambda: HeteroGraph([(tok, "t")])) is valid
        assert accepts(lambda: HeteroGraph([("x", tok)])) is valid
        assert accepts(lambda: parse_events([line(1, {"t": tok})])) is valid
        if isinstance(tok, str):
            assert accepts(lambda: parse_events([line(1, {tok: "x"})])) is valid

    def test_error_reports_record_index(self):
        good = line(1, {"a": "x", "b": "y"})
        with pytest.raises(GraftError, match="record 3"):
            parse_events([good, good, "{bad"])

    @pytest.mark.parametrize(
        "attrs", [{"t": ["x"]}, {"t": ""}, {"a": "x", "b": ["y"]}, {"a": "x", "b": ""}, {"a": {"x": 1}}]
    )
    def test_bad_token_after_valid_records_reports_its_index(self, attrs):
        # every token of the valid records has passed by then, so only the new one is checked
        good = line(1, {"a": "x", "b": "y"})
        message = "record 3: attribute keys and values must be non-empty strings without whitespace"
        with pytest.raises(GraftError, match=f"^{re.escape(message)}$"):
            parse_events([good, good, line(2, attrs), good])


def mixed_stream(seed: int, window: int) -> list[Event]:
    """Events with 1-4 attributes; ties on window boundaries and three empty windows."""
    rng = np.random.default_rng(seed)
    types = ("host", "proc", "user", "file")
    offsets = [int(t) for t in rng.integers(0, 12 * window, size=150) if not 4 * window <= t < 7 * window]
    offsets += [0, 12 * window - 1] + [k * window for k in (1, 2, 3, 7, 10)] * 3
    events = []
    for ts in offsets:
        picked = rng.choice(len(types), size=int(rng.integers(1, 5)), replace=False)
        events.append(Event(1000 + ts, {types[i]: f"{types[i][0]}{rng.integers(14)}" for i in picked}))
    return events


def growing_stream(seed: int, windows: int, window: int) -> list[Event]:
    """Events with 1-3 attributes in every window from ts 0. Ids are random
    numbers, so a later window's new ids often sort before earlier ones, and
    every third window draws only ids seen before."""
    rng = np.random.default_rng(seed)
    types = ("host", "proc", "user")
    pools: dict[str, list[str]] = {t: [] for t in types}
    events = []
    for k in range(windows):
        for j in range(int(rng.integers(1, 4))):
            attrs = {}
            for i in rng.choice(len(types), size=int(rng.integers(1, 4)), replace=False):
                pool = pools[types[i]]
                if k % 3 != 2 and (not pool or rng.random() < 0.3):
                    pool.append(f"{types[i][0]}{int(rng.integers(10**6)):06d}")
                    attrs[types[i]] = pool[-1]
                elif pool:
                    attrs[types[i]] = pool[int(rng.integers(len(pool)))]
            events.append(Event(k * window + (j and int(rng.integers(window))), attrs))
    return events


def counter_graph(events: list[Event]) -> HeteroGraph:
    """The validating constructor over a plain Counter of each event's id pairs."""
    entities: dict[str, str] = {}
    pairs: Counter = Counter()
    for ev in events:
        if len(ev.attrs) > 1:
            entities.update((eid, etype) for etype, eid in ev.attrs.items())
            pairs.update(combinations(sorted(ev.attrs.values()), 2))
    return HeteroGraph(entities.items(), ((a, b, float(c)) for (a, b), c in pairs.items()))


def first_seen(events: list[Event]) -> list[str]:
    return list(dict.fromkeys(eid for ev in events if len(ev.attrs) > 1 for eid in ev.attrs.values()))


ENTRY_POINTS = {"accumulate": accumulate, "snapshot_series": lambda evs: snapshot_series(evs, 10)}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize(
    "events,message",
    [
        ([Event(0, {"a": 1, "b": "x"})], "entity id must be a non-empty string without whitespace, got 1"),
        ([Event(0, {"a": ["x"], "b": "y"})], "entity id must be a non-empty string without whitespace, got ['x']"),
        ([Event(0, {"a": "x y", "b": "z"})], "entity id must be a non-empty string without whitespace, got 'x y'"),
        ([Event(0, {"a b": "x", "c": "y"})], "entity type must be a non-empty string without whitespace, got 'a b'"),
        (
            [Event(1, {"a": "x", "b": "y"}), Event(2, {"c": "x", "b": "y"})],
            "entity 'x' appears with conflicting types 'a' and 'c'",
        ),
    ],
    ids=["int-id", "unhashable-id", "whitespace-id", "whitespace-type", "conflicting-type"],
)
def test_bad_entities_rejected_by_both_entry_points(entry, events, message):
    with pytest.raises(GraftError, match=f"^{re.escape(message)}$"):
        ENTRY_POINTS[entry](events)


class TestAccumulate:
    def test_counts_cooccurrences(self):
        evs = parse_events(
            [
                line(1, {"process": "p1", "file": "f1"}),
                line(2, {"process": "p1", "file": "f1"}),
                line(3, {"process": "p1", "file": "f2"}),
            ]
        )
        g = accumulate(evs)
        assert g.entity_ids == ("f1", "f2", "p1")
        assert edge_weight(g, "f1", "p1") == 2.0
        assert edge_weight(g, "f2", "p1") == 1.0

    def test_clique_expansion_per_event(self):
        g = accumulate([Event(1, {"a": "x", "b": "y", "c": "z"})])
        assert g.edge_count == 3

    def test_single_attribute_skipped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="graft.ingest"):
            g = accumulate([Event(1, {"a": "x"}), Event(2, {"a": "x", "b": "y"})])
        assert g.edge_count == 1
        assert "skipped 1" in caplog.text

    def test_type_conflict_rejected(self):
        with pytest.raises(GraftError, match="conflicting types"):
            accumulate([Event(1, {"a": "x", "b": "y"}), Event(2, {"c": "x", "b": "y"})])

    def test_empty_stream(self):
        assert accumulate([]).n == 0

    def test_event_order_does_not_matter(self):
        events = mixed_stream(3, 10)
        shuffled = [events[i] for i in np.random.default_rng(4).permutation(len(events))]
        assert first_seen(shuffled) != first_seen(events)
        assert accumulate(shuffled) == accumulate(events) == counter_graph(events)


class TestSnapshotSeries:
    def test_three_windows_monotone(self):
        day = 86_400_000
        evs = [
            Event(0 * day, {"a": "x", "b": "y"}),
            Event(1 * day, {"a": "x", "b": "z"}),
            Event(2 * day, {"a": "w", "b": "z"}),
        ]
        snaps = snapshot_series(evs, day)
        assert len(snaps) == 3
        counts = [s.edge_count for s in snaps]
        assert counts == sorted(counts)
        assert snaps[-1] == accumulate(evs)

    def test_window_larger_than_span(self):
        evs = [Event(0, {"a": "x", "b": "y"}), Event(10, {"a": "x", "b": "z"})]
        snaps = snapshot_series(evs, 1_000_000)
        assert snaps == [accumulate(evs)]

    def test_snapshots_equal_prefix_accumulation(self):
        rng = np.random.default_rng(17)
        evs = [
            Event(int(rng.integers(0, 50)), {"p": f"p{rng.integers(3)}", "f": f"f{rng.integers(4)}"})
            for _ in range(40)
        ]
        window = 9
        snaps = snapshot_series(evs, window)
        ordered = sorted(evs, key=lambda e: e.ts)
        start = ordered[0].ts
        for k, snap in enumerate(snaps, 1):
            prefix = [e for e in ordered if e.ts < start + k * window]
            assert snap == accumulate(prefix)

    def test_snapshots_match_counter_oracle(self):
        window = 10
        events = mixed_stream(11, window)
        arity = Counter(len(ev.attrs) for ev in events)
        assert set(arity) == {1, 2, 3, 4}
        assert first_seen(events) != sorted(first_seen(events))
        start = min(ev.ts for ev in events)
        snaps = snapshot_series(events, window)
        assert len(snaps) == 12
        for k, snap in enumerate(snaps, 1):
            assert snap == counter_graph([ev for ev in events if ev.ts < start + k * window]), k
        assert snaps[4] is snaps[5] is snaps[6] is snaps[3]
        assert format_graph(snaps[-1]) == format_graph(counter_graph(events))

    def test_long_series_matches_counter_oracle(self):
        window = 10
        events = growing_stream(5, 240, window)
        snaps = snapshot_series(events, window)
        assert len(snaps) == 240
        seen: set[str] = set()
        earlier_first = entity_only = 0
        for k, snap in enumerate(snaps):
            prefix = [ev for ev in events if ev.ts < (k + 1) * window]
            assert snap == counter_graph(prefix), k
            new = set(snap.entity_ids) - seen
            earlier_first += bool(new and seen and min(new) < max(seen))
            if k and not new and snap is not snaps[k - 1]:  # pairs added, no entity
                entity_only += 1
                assert snap.entity_ids is snaps[k - 1].entity_ids
                assert snap.edge_count >= snaps[k - 1].edge_count
            seen |= new
        assert earlier_first > 50 and entity_only > 20

    def test_ties_belong_to_earlier_window(self):
        evs = [Event(0, {"a": "x", "b": "y"}), Event(5, {"a": "x", "b": "z"})]
        # boundary at 5 is exclusive, so the second event lands in window 2
        snaps = snapshot_series(evs, 5)
        assert snaps[0].edge_count == 1
        assert snaps[1].edge_count == 2

    def test_empty_window_repeats_previous_snapshot(self):
        evs = [Event(0, {"a": "x", "b": "y"}), Event(250, {"a": "x", "b": "z"})]
        snaps = snapshot_series(evs, 100)
        assert len(snaps) == 3
        assert snaps[1] == snaps[0] == accumulate(evs[:1])
        assert snaps[2] == accumulate(evs)

    def test_unchanged_prefix_shares_one_graph(self):
        # a window whose events add no pair (none, or one attribute) reuses the previous graph
        evs = [Event(0, {"a": "x", "b": "y"}), Event(10_000, {"a": "w"}), Event(20_000, {"a": "x", "b": "z"})]
        snaps = snapshot_series(evs, 1)
        assert len(snaps) == 20_001
        assert len({id(s) for s in snaps}) == 2
        assert snaps[10_000] is snaps[0] == accumulate(evs[:1])
        assert snaps[-1] == accumulate(evs)

    def test_single_attribute_events_warn_once_with_total(self, caplog):
        evs = [Event(0, {"a": "x"}), Event(1, {"a": "x", "b": "y"}), Event(150, {"b": "y"}), Event(320, {"a": "w"})]
        with caplog.at_level(logging.WARNING, logger="graft.ingest"):
            snaps = snapshot_series(evs, 100)
        assert len(snaps) == 4
        assert [r.getMessage() for r in caplog.records] == ["skipped 3 event(s) with fewer than two attributes"]

    def test_empty_stream_yields_one_empty_graph(self):
        snaps = snapshot_series([], 10)
        assert len(snaps) == 1 and snaps[0].n == 0

    @pytest.mark.parametrize("window", [0, -5, 2.5, True, False])  # True is an int equal to 1
    def test_bad_window_rejected(self, window):
        evs = [Event(0, {"a": "x", "b": "y"}), Event(3, {"a": "x", "b": "z"})]
        message = f"window must be a positive integer of milliseconds, got {window!r}"
        with pytest.raises(GraftError, match=f"^{re.escape(message)}$"):
            snapshot_series(evs, window)


def as_log(events: list[Event]) -> EventLog:
    """The events written as JSONL and read back."""
    return parse_events(line(ev.ts, ev.attrs) for ev in events)


class TestEventLog:
    def test_is_a_read_only_sequence_of_events(self):
        events = [Event(3, {"a": "x", "b": "y"}), Event(1, {"a": "w"}), Event(2, {})]
        log = as_log(events)
        assert isinstance(log, Sequence) and len(log) == 3
        assert log[0] == events[0] and log[-1] == events[-1] and log[1].attrs == {"a": "w"}
        assert type(log[1:]) is list and log[1:] == events[1:] and log[::-2] == events[::-2]
        assert list(log) == events and log == events and events == log and log == as_log(events)
        assert log != events[:2] and log != [*events[:2], Event(2, {"a": "x"})] and log != "abc"
        with pytest.raises(IndexError):
            log[3]
        with pytest.raises(TypeError):
            log[0] = events[0]
        with pytest.raises(TypeError):
            hash(log)

    def test_items_keep_each_records_attribute_order(self):
        log = as_log([Event(1, {"a": "x", "b": "y"}), Event(2, {"b": "y", "a": "x"})])
        assert [list(ev.attrs.items()) for ev in log] == [[("a", "x"), ("b", "y")], [("b", "y"), ("a", "x")]]


STREAMS = {"mixed": lambda: mixed_stream(11, 10), "growing": lambda: growing_stream(5, 60, 10)}


@pytest.mark.parametrize("shift", [0, 2**63 + 3], ids=["epoch-ms", "above-int64"])
@pytest.mark.parametrize("name", STREAMS)
def test_parsed_log_builds_the_hand_built_lists_graphs(name, shift):
    window = 10
    events = [Event(ev.ts + shift, ev.attrs) for ev in STREAMS[name]()]
    log = as_log(events)
    assert log == events
    start = min(ev.ts for ev in events)
    busy = {(ev.ts - start) // window for ev in events}
    assert any(ev.ts > start and (ev.ts - start) % window == 0 for ev in events)  # ties on boundaries
    assert any(len(ev.attrs) == 1 for ev in events)
    assert (max(ev.ts for ev in events) >= 2**63) == bool(shift)
    assert format_graph(accumulate(log)) == format_graph(accumulate(events)) == format_graph(counter_graph(events))
    snaps, by_hand = snapshot_series(log, window), snapshot_series(events, window)
    assert len(snaps) == len(by_hand) == max(busy) + 1
    assert (len(busy) < len(snaps)) == (name == "mixed")  # empty windows
    for k, (snap, hand) in enumerate(zip(snaps, by_hand), 1):
        oracle = counter_graph([ev for ev in events if ev.ts < start + k * window])
        assert format_graph(snap) == format_graph(hand) == format_graph(oracle), k


SOURCES = {"log": as_log, "list": list}


@pytest.mark.parametrize("source", SOURCES)
class TestConflictOrder:
    # 'x' is retyped first in stream order, 'y' first in ts order
    EVENTS = [Event(3, {"a": "x", "b": "y"}), Event(5, {"c": "x", "b": "z"}), Event(1, {"d": "y", "b": "w"})]

    def test_accumulate_raises_the_first_in_stream_order(self, source):
        message = "entity 'x' appears with conflicting types 'a' and 'c'"
        with pytest.raises(GraftError, match=f"^{re.escape(message)}$"):
            accumulate(SOURCES[source](self.EVENTS))

    def test_snapshot_series_raises_the_first_in_ts_order(self, source):
        message = "entity 'y' appears with conflicting types 'd' and 'b'"
        with pytest.raises(GraftError, match=f"^{re.escape(message)}$"):
            snapshot_series(SOURCES[source](self.EVENTS), 10)

    def test_ties_keep_stream_order(self, source):
        tied = [Event(2, {"a": "x", "b": "y"}), Event(2, {"c": "x", "b": "y"})]
        for events, types in ((tied, "'a' and 'c'"), (tied[::-1], "'c' and 'a'")):
            with pytest.raises(GraftError, match=f"^entity 'x' appears with conflicting types {types}$"):
                snapshot_series(SOURCES[source](events), 10)

    def test_single_attribute_event_raises_nothing(self, source):
        events = [Event(1, {"a": "x", "b": "y"}), Event(2, {"c": "x"}), Event(0, {"d": "y"})]
        built = SOURCES[source](events)
        assert accumulate(built) == snapshot_series(built, 10)[-1] == counter_graph(events)


def test_parse_events_checks_no_types():
    assert as_log(TestConflictOrder.EVENTS) == TestConflictOrder.EVENTS


BAD_ID = "entity id must be a non-empty string without whitespace, got 'x y'"


@pytest.mark.parametrize(
    "events,by_stream,by_ts",
    [
        (
            [Event(1, {"a": "x", "b": "y"}), Event(2, {"c": "x", "b": "y"}), Event(3, {"a": "x y", "b": "y"})],
            "entity 'x' appears with conflicting types 'a' and 'c'",
            "entity 'x' appears with conflicting types 'a' and 'c'",
        ),
        (
            [Event(1, {"a": "x", "b": "y"}), Event(2, {"a": "x y", "b": "y"}), Event(3, {"c": "x", "b": "y"})],
            BAD_ID,
            BAD_ID,
        ),
        (
            [Event(5, {"c": "x", "b": "y"}), Event(1, {"a": "x", "b": "y"}), Event(3, {"a": "x y", "b": "y"})],
            "entity 'x' appears with conflicting types 'c' and 'a'",
            BAD_ID,
        ),
        (
            [Event(1, {"a": "x", "b": "y"}), Event(2, {"a b": "x", "c": "y"})],
            "entity 'x' appears with conflicting types 'a' and 'a b'",
            "entity 'x' appears with conflicting types 'a' and 'a b'",
        ),
    ],
    ids=["conflict-then-bad-id", "bad-id-then-conflict", "orders-differ", "known-id-with-bad-type"],
)
def test_hand_built_events_raise_the_first_problem_they_consume(events, by_stream, by_ts):
    # a known id's type is compared, not checked: a malformed type on it reads as a conflict
    with pytest.raises(GraftError, match=f"^{re.escape(by_stream)}$"):
        accumulate(events)
    with pytest.raises(GraftError, match=f"^{re.escape(by_ts)}$"):
        snapshot_series(events, 10)


def stream_lines(seed: int, n_events: int, span: int) -> list[str]:
    """JSONL records of 2-4 attributes over six types, ids drawn from skewed pools."""
    rng = np.random.default_rng(seed)
    types = ("host", "proc", "user", "file", "net", "svc")
    out = []
    for ts in np.sort(rng.integers(0, span, size=n_events)):
        picked = rng.choice(len(types), size=int(rng.integers(2, 5)), replace=False)
        attrs = {types[i]: f"{types[i][0]}{int(rng.zipf(1.3)) % 400}" for i in picked}
        out.append(line(int(ts), attrs))
    return out


class TestIngestMemory:
    def test_formatting_snapshots_keeps_no_edge_records(self):
        # a graph that cached its edges as (str, str, float) tuples kept about
        # four times its 24 B of arrays per edge alive after format_graph
        snaps = snapshot_series(parse_events(stream_lines(2, 3000, 24_000)), 1000)
        distinct = list({id(s): s for s in snaps}.values())
        array_bytes = sum(a.nbytes for s in distinct for a in s.edge_arrays())
        assert len(distinct) == 24 and array_bytes > 1_000_000
        tracemalloc.start()
        try:
            for snap in snaps:
                format_graph(snap)
            gc.collect()  # a full collection empties the tuple free lists, which tracemalloc counts as live
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert grown < 0.05 * array_bytes

    def test_snapshots_hold_only_their_arrays_and_id_tuples(self):
        # bound set before measuring: the distinct snapshots' traced live bytes stay within
        # 10% of their edge arrays plus id and type tuples. A per-window id -> index dict
        # read about 1.5 times them on this stream.
        events = parse_events(stream_lines(2, 3000, 24_000))
        gc.collect()
        tracemalloc.start()
        try:
            snaps = snapshot_series(events, 1000)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        distinct = list({id(s): s for s in snaps}.values())
        tuples = {id(t): t for s in distinct for t in (s.entity_ids, s.entity_types)}.values()
        held = sum(a.nbytes for s in distinct for a in s.edge_arrays()) + sum(map(sys.getsizeof, tuples))
        assert len(distinct) == 24 and held > 2_000_000
        assert live < 1.10 * held

    def test_lookups_agree_before_and_after_the_index_is_built(self):
        snaps = snapshot_series(parse_events(stream_lines(5, 600, 2400)), 100)
        mid, last = snaps[len(snaps) // 2], snaps[-1]
        rows, cols, weights = last.edge_arrays()
        builders = {
            "snapshot": lambda: snapshot_series(parse_events(stream_lines(5, 600, 2400)), 100)[-1],
            "_with_edges": lambda: last._with_edges(rows[::3], cols[::3], weights[::3]),
            "_reindexed": lambda: last._reindexed(mid.entity_items()),
        }
        probes = [*last.entity_ids[::7], "absent", "h0 ", ""]

        def answers(g):
            known = [e for e in probes if g.has_entity(e)]
            for eid in set(probes) - set(known):
                with pytest.raises(GraftError, match="unknown entity id"):
                    g.index_of(eid)
            return known, [g.index_of(e) for e in known], [g.type_of(e) for e in known], score(mid, g), score(g, mid)

        for name, build in builders.items():
            g = build()
            assert g._index is None, name  # built by the first lookup, not before
            first = answers(g)
            assert g._index is not None and answers(g) == first, name
            known, positions, types, truth_side, estimate_side = first
            assert known and positions == [g.entity_ids.index(e) for e in known], name
            assert types == [dict(g.entity_items())[e] for e in known], name
            assert (truth_side, estimate_side) == (reference_score(mid, g), reference_score(g, mid)), name

    def test_parsed_log_keeps_under_half_the_bytes_of_an_event_list(self):
        # bound set before measuring: a list of Event objects, each with its own
        # attribute dict, kept 275 traced live bytes per record on this stream
        lines = stream_lines(3, 20_000, 40_000)
        gc.collect()
        tracemalloc.start()
        try:
            log = parse_events(lines)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(log) == len(lines) == 20_000
        assert live < 137 * len(lines)

    def test_events_share_one_string_per_type(self):
        events = parse_events(stream_lines(3, 500, 1000))
        keys = [k for ev in events for k in ev.attrs]
        assert len(set(keys)) == 6
        assert len({id(k) for k in keys}) == 6

    def test_events_share_one_string_per_id(self):
        events = parse_events(stream_lines(3, 500, 1000))
        values = [v for ev in events for v in ev.attrs.values()]
        assert len({id(v) for v in values}) == len(set(values)) < len(values) / 2

    def test_snapshot_series_holds_no_window_by_pair_matrix(self):
        # the transient peak stays below one int64 count per window and distinct pair
        events = parse_events(stream_lines(4, 2000, 200_000))
        pairs = accumulate(events).edge_count
        tracemalloc.start()
        try:
            snaps = snapshot_series(events, 1000)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(snaps) == 200 and pairs > 2000
        assert peak - live < len(snaps) * pairs * 8

    @pytest.mark.parametrize("build", [list, as_log], ids=["list", "log"])
    def test_window_count_over_the_memory_budget_refused_before_any_cut(self, monkeypatch, build):
        events = build([Event(0, {"a": "x", "b": "y"}), Event(999, {"a": "x", "b": "z"})])
        need = 1000 * ingest._WINDOW_BYTES
        built, real = [], ingest._prefix_graphs
        monkeypatch.setattr(ingest, "_prefix_graphs", lambda *a: built.append(a) or real(*a))
        monkeypatch.setattr(numerics, "_physical_memory_bytes", lambda: need - 1)
        message = f"^a series of 1000 windows needs {need} bytes .* {need - 1} bytes of physical"
        with pytest.raises(GraftError, match=message):
            snapshot_series(events, 1)
        assert built == []
        monkeypatch.setattr(numerics, "_physical_memory_bytes", lambda: need)
        assert len(snapshot_series(events, 1)) == 1000
        monkeypatch.setattr(numerics, "_physical_memory_bytes", lambda: None)
        assert len(snapshot_series(events, 1)) == 1000
        assert len(built) == 2

    def test_events_have_no_instance_dict(self):
        (ev,) = parse_events([line(1, {"proc": "p1", "file": "f1"})])
        assert not hasattr(ev, "__dict__")
