"""Self-test of the benchmark itself.

Runs a tiny version of every workload, traced and untraced, and feeds every
output check a corrupted output to see it fail. From the root of a source
checkout:

    python3 perfbench/selftest.py

Exits 0 when every expectation holds and 1 otherwise, listing the misses.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run

TINY = dict(n_source=160, n_target=80, dynamic_factor=0.2, maturity=0.5)
# (operations, tasks) in one round
ROUND = {"transfer-1200": (4, 4), "mu-grid": (22, 2), "ingest-snapshots": (1, 1)}


class FakeGraph:
    """Graph-shaped output that HeteroGraph itself would refuse to build."""

    def __init__(self, items, edges):
        self._items = tuple(sorted(items))
        self._edges = tuple(edges)

    def entity_items(self):
        return self._items

    def edges(self):
        return self._edges

    @property
    def entity_ids(self):
        return tuple(eid for eid, _ in self._items)

    @property
    def n(self):
        return len(self._items)

    @property
    def edge_count(self):
        return len(self._edges)


def smoke_workloads(expect) -> None:
    import checks
    import workloads
    from spans import Tracer, allocation_peaks

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    tiny = (
        workloads.TransferWorkload(TINY),
        workloads.MuGridWorkload(TINY),
        workloads.IngestWorkload(events=3000),
    )
    for w in tiny:
        for tracer in (None, Tracer(seed=3)):
            st, tally, _, rounds = workloads.run(w, 3, 0.0, tracer, setup_reps=1)
            label = f"{w.name} trace={tracer is not None}"
            ops, tasks = ROUND[w.name]
            expect(rounds == 1 and tally.attempted == ops, f"{label}: ran {tally.attempted} ops")
            expect(tally.failed == 0 and tally.wrong == 0, f"{label}: {tally.problems[:3]}")
            expect(len(tally.task_s) == tasks and tally.quality, f"{label}: {len(tally.task_s)} tasks timed")
            if tracer is None:
                continue
            peaks: dict[str, float] = {}
            with allocation_peaks(peaks):
                w.alloc_pass(st)
            metrics = tracer.layer_metrics(peaks)
            expect(set(metrics) == per_layer, f"{label}: per-layer names differ from BENCHMARK.json")
            source = w.spot_source(st)
            if source is not None:
                expect(len(tracer.hop_samples) > 0, f"{label}: no hop rows captured")
                for types, rows, got in tracer.hop_samples:
                    expect(not checks.hop_rows_problems(source, types, rows, got), f"{label}: spot check {types}")
                run_, kept = metrics["selection.sweeps_run"][0], metrics["selection.sweeps_kept"][0]
                expect(run_ >= kept > 0, f"{label}: sweep counts {run_}, {kept}")
                expect(peaks.get("selection.fit_model", 0) > 0, f"{label}: no selection allocation peak")
            else:
                expect(metrics["ingest.events"][0] == 3000, f"{label}: ingest.events")


def corrupted_estimates(expect) -> None:
    import checks
    from graft import TransferConfig, evalkit, run_transfer, synthbench

    cfg = TransferConfig(eta0=0.02)
    gs, truth, gh = synthbench.generate(synthbench.SynthSpec(seed=1, **TINY))
    est, report = run_transfer(gs, gh, cfg)
    scores = report.transferred_scores
    trace = report.construction_objective_trace
    cap = cfg.construction_max_iters
    result = evalkit.score(est, truth)

    def problems(g=est, sc=scores, tr=trace, max_iters=cap):
        return checks.estimate_problems(g, gs, gh, sc, cfg.z_entity, tr, max_iters)

    expect(not problems() and not checks.auto_mu_problems(est, gh, report.mu_used)
           and not checks.f1_problems(est, truth, result), "clean transfer output fails a check")
    expect(scores, "tiny transfer grafted no entity; corruptions below need one")
    items, edges = list(est.entity_items()), list(est.edges())
    observed = gh.edges()[0]
    grafted = sorted(scores)[0]
    new = next(e for e in edges if e not in set(gh.edges()))
    corrupt = {
        "dropped observed edge": FakeGraph(items, [e for e in edges if e != observed]),
        "reweighted observed edge": FakeGraph(
            items, [(a, b, 2 * w) if (a, b, w) == observed else (a, b, w) for a, b, w in edges]),
        "entity not in the source": FakeGraph(items + [("zz_missing", "t0")], edges),
        "retyped grafted entity": FakeGraph(
            [(e, "t_other") if e == grafted else (e, t) for e, t in items], edges),
        "self-loop": FakeGraph(items, edges + [(grafted, grafted, 1.0)]),
        "zero-weight new edge": FakeGraph(
            items, [(a, b, 0.0) if (a, b, w) == new else (a, b, w) for a, b, w in edges]),
        "missing target entity": FakeGraph([it for it in items if it[0] != observed[0]], edges),
    }
    for what, g in corrupt.items():
        expect(problems(g=g), f"estimate check misses: {what}")
    expect(problems(sc={**scores, grafted: cfg.z_entity - 0.01}), "estimate check misses: low score")
    expect(problems(tr=trace + [trace[-1] * 2 + 1]), "estimate check misses: rising trace")
    expect(problems(max_iters=len(trace) - 2), "estimate check misses: trace longer than the cap")
    expect(checks.auto_mu_problems(est, gh, report.mu_used + 0.01), "mu check misses a wrong mu")
    bumped = dataclasses.replace(result, combined_f1=result.combined_f1 + 1e-9)
    expect(checks.f1_problems(est, truth, bumped), "F1 check misses a wrong combined F1")


def corrupted_ingest(expect) -> None:
    import checks
    from events import make_stream
    from graft import accumulate, format_graph, parse_events, parse_graph, snapshot_series

    stream = make_stream(5, 3000)
    events = parse_events(stream.lines)
    graph = accumulate(events)
    snaps = snapshot_series(events, stream.window)
    roundtrip = parse_graph(format_graph(graph))
    expect(not checks.ingest_problems(stream, len(events), graph, snaps, roundtrip), "clean ingest fails a check")

    last_pair = max(range(len(events)), key=lambda k: (len(events[k].attrs) >= 2, events[k].ts))
    minus_one = events[:last_pair] + events[last_pair + 1:]
    extra = FakeGraph(list(graph.entity_items()) + [("zz_single", "host")], graph.edges())
    text = format_graph(graph).replace(" 1.0\n", " 2.0\n", 1)
    corrupt = {
        "snapshots missing one event": (len(events), graph, snapshot_series(minus_one, stream.window), roundtrip),
        "graph missing one event": (len(events), accumulate(minus_one), snaps, roundtrip),
        "one line not parsed": (len(events) - 1, graph, snaps, roundtrip),
        "extra entity": (len(events), extra, snaps, roundtrip),
        "falling edge counts": (len(events), graph, snaps[::-1], roundtrip),
        "round trip altered": (len(events), graph, snaps, parse_graph(text)),
        "missing snapshot": (len(events), graph, snaps[:-1], roundtrip),
    }
    for what, args in corrupt.items():
        expect(checks.ingest_problems(stream, *args), f"ingest check misses: {what}")


def corrupted_hop_rows(expect) -> None:
    import numpy as np

    import checks
    from graft import TransferConfig, metapath_distance_matrices, synthbench

    gs, _, _ = synthbench.generate(synthbench.SynthSpec(seed=2, **TINY))
    rows = np.arange(0, gs.n, 17)
    for sim in metapath_distance_matrices(gs, TransferConfig())[:6]:
        types, got = sim.provenance.types, sim.matrix[rows].copy()
        expect(not checks.hop_rows_problems(gs, types, rows, got), f"clean hop rows fail for {types}")
        off_by_one = got.copy()
        r, c = np.argwhere((off_by_one > 0) & (off_by_one < off_by_one.max()))[0]
        off_by_one[r, c] += 1
        expect(checks.hop_rows_problems(gs, types, rows, off_by_one), f"spot check misses a wrong hop for {types}")
        capped = got.copy()
        r, c = np.argwhere(capped == capped.max())[0]
        capped[r, c] += 1
        expect(checks.hop_rows_problems(gs, types, rows, capped), f"spot check misses a wrong cap for {types}")


def main() -> int:
    if not run.load_program():
        return 2
    misses: list[str] = []

    def expect(ok, what: str) -> None:
        if not ok:
            misses.append(what)

    for test in (corrupted_estimates, corrupted_ingest, corrupted_hop_rows, smoke_workloads):
        before = len(misses)
        test(expect)
        print(f"{test.__name__}: {'ok' if len(misses) == before else 'FAILED'}", flush=True)
    for what in misses:
        print(f"  {what}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
