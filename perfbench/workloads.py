"""The benchmark's workloads: inputs made from a seed, timed tasks, output checks.

A task is the unit ``task_s`` times: one ``run_transfer`` call
(transfer-1200), one whole μ study (mu-grid), one ingest pass
(ingest-snapshots). An operation is the unit counted in ``attempted`` and
``failed``: one transfer call, one grid point, one ingest pass. A round is
the fixed list of tasks a run repeats, so ``failed`` is always the same share
of ``attempted``.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

from graft import evalkit, hetgraph, ingest, selection, synthbench, transfer
from graft.config import TransferConfig

import checks
from events import make_stream

ACCEPTANCE = dict(n_source=1200, n_target=600, dynamic_factor=0.2, maturity=0.5)
WARMUP = dict(n_source=120, n_target=60, dynamic_factor=0.2, maturity=0.5)
MU_GRID = tuple(round(0.1 * i, 1) for i in range(11))
STREAM_EVENTS = 100_000
STREAM_WINDOWS = 24


@dataclass
class Tally:
    """What one run attempted, what failed, and what it measured."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)
    task_s: list[float] = field(default_factory=list)
    quality: list[float] = field(default_factory=list)

    def operation(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += 1
            self.problems.extend(problems)

    def crashed(self, what: str) -> None:
        """An operation the program did not complete: failed, but no wrong output."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{what}: {traceback.format_exc(limit=3)}")


class Timer:
    """Wall time of one task, opened as a root span when traced."""

    def __init__(self, tracer, name: str):
        self.ctx = tracer.task(name) if tracer is not None else nullcontext()

    def __enter__(self):
        self.ctx.__enter__()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        return self.ctx.__exit__(*exc)


def _instance(seed: int, spec=ACCEPTANCE):
    return synthbench.generate(synthbench.SynthSpec(seed=seed, **spec))


def _note_quality(tracer, tally, estimate, truth, result) -> list[str]:
    tally.quality.append(result.combined_f1)
    if tracer is not None:
        ent, edge = checks.f1_parts(estimate, truth)
        tracer.note("selection.entity_f1", ent)
        tracer.note("reconstruction.edge_f1", edge)
    return checks.f1_problems(estimate, truth, result)


class TransferWorkload:
    """run_transfer on two acceptance instances, each twice.

    The repeated call must give byte-identical report JSON and graph text.
    """

    name = "transfer-1200"
    task_alias = "transfer_s"
    config = TransferConfig(eta0=0.02)

    def __init__(self, spec=ACCEPTANCE):
        self.spec = spec

    def setup(self, seed: int):
        instances = [_instance(2 * seed, self.spec), _instance(2 * seed + 1, self.spec)]
        gs, _, gh = _instance(seed, WARMUP)
        transfer.run_transfer(gs, gh, self.config)
        return {"instances": instances, "first": {}}

    def round(self, st, tally: Tally, tracer) -> None:
        for which in (0, 1, 0, 1):
            gs, truth, gh = st["instances"][which]
            try:
                with Timer(tracer, "task.transfer") as t:
                    estimate, report = transfer.run_transfer(gs, gh, self.config)
            except Exception:
                tally.crashed(f"run_transfer on instance {which}")
                continue
            tally.task_s.append(t.seconds)
            problems = checks.estimate_problems(
                estimate, gs, gh, report.transferred_scores, self.config.z_entity,
                report.construction_objective_trace, self.config.construction_max_iters,
            )
            problems += checks.auto_mu_problems(estimate, gh, report.mu_used)
            outputs = (report.to_json(), hetgraph.format_graph(estimate))
            first = st["first"].setdefault(which, outputs)
            if outputs != first:
                problems.append(f"repeated run on instance {which} is not byte-identical")
            if tracer is not None:
                tracer.note("selection.transferred", len(report.transferred_entities))
                tracer.note(
                    "reconstruction.cap_hits",
                    len(report.construction_objective_trace) - 1 >= self.config.construction_max_iters,
                )
            problems += _note_quality(tracer, tally, estimate, truth, evalkit.score(estimate, truth))
            tally.operation(problems)

    def alloc_pass(self, st) -> None:
        gs, _, gh = st["instances"][0]
        transfer.run_transfer(gs, gh, self.config)

    def spot_source(self, st):
        return st["instances"][0][0]


class MuGridWorkload:
    """One μ study on each of two instances: selection once, then construction
    and scoring at 11 fixed μ.

    Two instances per round because the iteration counts, and with them the
    study time, vary by about a tenth from instance to instance.
    """

    name = "mu-grid"
    task_alias = "grid_s"
    config = TransferConfig()

    def __init__(self, spec=ACCEPTANCE):
        self.spec = spec

    def setup(self, seed: int):
        instances = [_instance(2 * seed, self.spec), _instance(2 * seed + 1, self.spec)]
        gs, truth, gh = _instance(seed, WARMUP)
        self._study(gs, gh, truth)
        return {"instances": instances}

    def _select(self, gs, gh):
        state = selection.fit_selection_model(gs, self.config)
        scores = selection.relevance_scores(state, gs, gh)
        chosen = sorted(eid for eid, s in scores.items() if s >= self.config.z_entity)
        return scores, selection.merge_transferred_entities(gh, gs, chosen)

    def _study(self, gs, gh, truth):
        scores, merged = self._select(gs, gh)
        points = []
        for mu in MU_GRID:
            graph, solution, prob = transfer.construct_dependencies(gs, gh, merged, mu, self.config)
            points.append((mu, graph, solution, prob, evalkit.score(graph, truth)))
        return scores, merged, points

    def round(self, st, tally: Tally, tracer) -> None:
        for gs, truth, gh in st["instances"]:
            self._checked_study(gs, truth, gh, tally, tracer)

    def _checked_study(self, gs, truth, gh, tally: Tally, tracer) -> None:
        cfg = self.config
        try:
            with Timer(tracer, "task.mu_study") as t:
                scores, merged, points = self._study(gs, gh, truth)
        except Exception:
            for mu in MU_GRID:
                tally.crashed(f"μ study, grid point {mu}")
            return
        tally.task_s.append(t.seconds)
        if tracer is not None:
            tracer.note("selection.transferred", merged.n - gh.n)
        for mu, graph, solution, prob, result in points:
            problems = checks.estimate_problems(
                graph, gs, gh, scores, cfg.z_entity, solution.objective_trace, cfg.construction_max_iters
            )
            if prob.mu != mu:
                problems.append(f"grid point {mu} ran with mu {prob.mu!r}")
            if mu == MU_GRID[-1]:
                again, _, _ = transfer.construct_dependencies(gs, gh, merged, mu, cfg)
                if hetgraph.format_graph(again) != hetgraph.format_graph(graph):
                    problems.append(f"repeated construction at mu {mu} is not byte-identical")
            if tracer is not None:
                tracer.note("reconstruction.cap_hits", solution.iterations >= cfg.construction_max_iters)
            problems += _note_quality(tracer, tally, graph, truth, result)
            tally.operation(problems)

    def alloc_pass(self, st) -> None:
        gs, _, gh = st["instances"][0]
        _, merged = self._select(gs, gh)
        transfer.construct_dependencies(gs, gh, merged, MU_GRID[0], self.config)

    def spot_source(self, st):
        return st["instances"][0][0]


class IngestWorkload:
    """JSONL lines → events → one graph and 24 cumulative snapshots → text and back."""

    name = "ingest-snapshots"

    def __init__(self, events=STREAM_EVENTS):
        self.events = events

    def setup(self, seed: int):
        stream = make_stream(seed, self.events, STREAM_WINDOWS)
        truth = hetgraph.HeteroGraph(
            stream.entities.items(), ((a, b, float(c)) for (a, b), c in stream.pair_counts.items())
        )
        self._pass(make_stream(seed, 2000, STREAM_WINDOWS))
        return {"stream": stream, "truth": truth}

    @staticmethod
    def _pass(stream):
        events = ingest.parse_events(stream.lines)
        graph = ingest.accumulate(events)
        snapshots = ingest.snapshot_series(events, stream.window)
        roundtrip = hetgraph.parse_graph(hetgraph.format_graph(graph))
        return len(events), graph, snapshots, roundtrip

    def round(self, st, tally: Tally, tracer) -> None:
        stream = st["stream"]
        try:
            with Timer(tracer, "task.ingest_pass") as t:
                n_parsed, graph, snapshots, roundtrip = self._pass(stream)
        except Exception:
            tally.crashed("ingest pass")
            return
        tally.task_s.append(t.seconds)
        problems = checks.ingest_problems(stream, n_parsed, graph, snapshots, roundtrip)
        result = evalkit.score(graph, st["truth"])
        tally.quality.append(result.combined_f1)
        problems += checks.f1_problems(graph, st["truth"], result)
        tally.operation(problems)

    def alloc_pass(self, st) -> None:
        pass

    def spot_source(self, st):
        return None


WORKLOADS = {w.name: w for w in (TransferWorkload(), MuGridWorkload(), IngestWorkload())}


def run(workload, seed: int, seconds: float, tracer=None, setup_reps: int = 3):
    """Set up ``setup_reps`` times, then repeat whole rounds until ``seconds`` have passed."""
    setup_times = []
    for _ in range(setup_reps):
        start = time.perf_counter()
        st = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)
    tally = Tally()
    rounds = 0
    start = time.perf_counter()
    ctx = tracer.installed() if tracer is not None else nullcontext()
    with ctx:
        while rounds == 0 or time.perf_counter() - start < seconds:
            workload.round(st, tally, tracer)
            rounds += 1
    if tally.problems:
        print("\n".join(tally.problems), file=sys.stderr)
    return st, tally, statistics.median(setup_times), rounds
