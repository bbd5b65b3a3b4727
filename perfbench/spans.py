"""Spans around the calls into graft's public functions, recorded from outside.

``Tracer.installed()`` swaps each traced function for a wrapper in every
loaded ``graft`` module that holds a reference to it (modules import each
other's functions by name), and wraps ``HeteroGraph.__init__`` so graph
constructions are timed and counted. Spans are kept in memory as
(name, start, end, parent, task) and written out at the end. Calls made
outside a task (set-up, output checks) are not recorded.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# (module, function, span name)
TRACED = (
    ("graft.metapath", "enumerate_metapaths", "metapath.enumerate"),
    ("graft.metapath", "project", "metapath.project"),
    ("graft.metapath", "path_distance_matrix", "metapath.distance"),
    ("graft.metapath", "blend", "metapath.blend"),
    ("graft.numerics", "sym_eig_topk", "numerics.eig"),
    ("graft.numerics", "ols_nonneg", "numerics.ols"),
    ("graft.selection", "fit_selection_model", "selection.fit_model"),
    ("graft.selection", "mds_embed", "selection.mds"),
    ("graft.selection", "fit_weights", "selection.fit_weights"),
    ("graft.selection", "selection_objective", "selection.objective"),
    ("graft.selection", "relevance_scores", "selection.relevance"),
    ("graft.selection", "merge_transferred_entities", "selection.merge"),
    ("graft.reconstruction", "solve_reconstruction", "reconstruction.solve"),
    ("graft.reconstruction", "reconstruction_objective", "reconstruction.objective"),
    ("graft.reconstruction", "reconstruction_gradient", "reconstruction.gradient"),
    ("graft.reconstruction", "finalize_edges", "reconstruction.finalize"),
    ("graft.transfer", "construct_dependencies", "transfer.construct"),
    ("graft.transfer", "run_transfer", "transfer.run"),
    ("graft.hetgraph", "align_union_entities", "hetgraph.align"),
    ("graft.hetgraph", "induced_subgraph", "hetgraph.induced"),
    ("graft.hetgraph", "format_graph", "hetgraph.format"),
    ("graft.hetgraph", "parse_graph", "hetgraph.parse"),
    ("graft.ingest", "parse_events", "ingest.parse"),
    ("graft.ingest", "accumulate", "ingest.accumulate"),
    ("graft.ingest", "snapshot_series", "ingest.snapshot"),
    ("graft.evalkit", "score", "evalkit.score"),
)

# Counts read off a traced call's result.
RESULT_COUNTS = {
    "metapath.enumerate": lambda r: {"metapath.paths": len(r)},
    "metapath.distance": lambda r: {"metapath.matrix_bytes": r.matrix.nbytes},
    "selection.fit_model": lambda r: {"selection.sweeps_kept": len(r.objective_trace)},
    "reconstruction.solve": lambda r: {"reconstruction.iterations": r.iterations},
    "ingest.parse": lambda r: {"ingest.events": len(r)},
    "ingest.snapshot": lambda r: {"ingest.snapshots": len(r)},
}

MIB = 1024.0 * 1024.0
HOP_ROWS = 8  # hop-matrix rows sampled per meta-path for the spot check


def _graft_modules():
    return [m for name, m in list(sys.modules.items()) if name == "graft" or name.startswith("graft.")]


@contextmanager
def patched(wrap):
    """Replace every traced function (and ``HeteroGraph.__init__``) by ``wrap(name, fn)``."""
    from graft.hetgraph import HeteroGraph

    undo = []
    modules = _graft_modules()
    for modname, attr, span in TRACED:
        original = getattr(sys.modules[modname], attr)
        wrapper = wrap(span, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
    undo.append((HeteroGraph, "__init__", HeteroGraph.__init__))
    HeteroGraph.__init__ = wrap("hetgraph.build", HeteroGraph.__init__)
    try:
        yield
    finally:
        for obj, key, original in reversed(undo):
            setattr(obj, key, original)


class Tracer:
    """In-memory span recorder with per-layer aggregation."""

    def __init__(self, seed: int):
        self.spans: list[list] = []  # [name, start, end, parent, task]
        self.stack: list[int] = []
        self.tasks = 0
        self.counts: Counter = Counter()
        self.notes: dict[str, list[float]] = defaultdict(list)
        self.hop_samples: list[tuple[tuple[str, ...], np.ndarray, np.ndarray]] = []
        self._capture_hops = True
        self._rng = np.random.default_rng(seed)

    def _wrap(self, name, fn):
        count = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1], self.tasks])
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx][1:3] = start, end
            self.counts[name] += 1
            if count is not None:
                self.counts.update(count(result))
            if name == "metapath.distance" and self._capture_hops:
                self._sample_hops(result)
            elif name == "selection.fit_model":
                self._capture_hops = False
            return result

        return traced

    def _sample_hops(self, sim) -> None:
        rows = np.sort(self._rng.choice(sim.n, size=min(HOP_ROWS, sim.n), replace=False))
        self.hop_samples.append((sim.provenance.types, rows, sim.matrix[rows].copy()))

    @contextmanager
    def installed(self):
        with patched(self._wrap):
            yield

    @contextmanager
    def task(self, name: str):
        """Root span of one task; layer spans opened inside it get it as an ancestor."""
        self.tasks += 1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, None, self.tasks])
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][1:3] = start, time.perf_counter()
            self.stack.pop()

    def note(self, name: str, value: float) -> None:
        self.notes[name].append(float(value))

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive, self) seconds per span name, summed over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child[k]
        return inclusive, own

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "task")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
            fh.write("\n")

    def layer_metrics(self, peaks: dict[str, float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each per task (one transfer call, μ study or ingest pass)."""
        tasks = max(self.tasks, 1)
        incl, own = self.times()
        c = self.counts

        def per(x):
            return x / tasks

        def mean(name):
            vals = self.notes.get(name, [])
            return sum(vals) / len(vals) if vals else 0.0

        iterations = c["reconstruction.iterations"]
        sweeps = c["selection.mds"]
        return {
            "metapath.paths": (per(c["metapath.paths"]), "count"),
            "metapath.project_s": (per(own["metapath.project"]), "s"),
            "metapath.distance_s": (per(own["metapath.distance"]), "s"),
            "metapath.blend_s": (per(own["metapath.blend"]), "s"),
            "metapath.matrix_mb": (per(c["metapath.matrix_bytes"]) / MIB, "MiB"),
            "numerics.eig_s": (per(incl["numerics.eig"]), "s"),
            "numerics.eig_calls": (per(c["numerics.eig"]), "count"),
            "numerics.ols_s": (per(incl["numerics.ols"]), "s"),
            "selection.fit_model_s": (per(incl["selection.fit_model"]), "s"),
            "selection.mds_s": (per(own["selection.mds"]), "s"),
            "selection.fit_weights_s": (per(own["selection.fit_weights"]), "s"),
            "selection.objective_s": (per(own["selection.objective"]), "s"),
            "selection.sweeps_run": (per(sweeps), "count"),
            "selection.sweeps_kept": (per(c["selection.sweeps_kept"]), "count"),
            "selection.sweep_yield": (c["selection.sweeps_kept"] / sweeps if sweeps else 0.0, "ratio"),
            "selection.relevance_s": (per(incl["selection.relevance"]), "s"),
            "selection.merge_s": (per(incl["selection.merge"]), "s"),
            "selection.transferred": (mean("selection.transferred"), "count"),
            "selection.entity_f1": (mean("selection.entity_f1"), "ratio"),
            "selection.peak_alloc_mb": (peaks.get("selection.fit_model", 0.0), "MiB"),
            "reconstruction.solve_s": (per(incl["reconstruction.solve"]), "s"),
            "reconstruction.iterations": (per(iterations), "count"),
            "reconstruction.objective_evals": (per(c["reconstruction.objective"]), "count"),
            "reconstruction.gradient_evals": (per(c["reconstruction.gradient"]), "count"),
            "reconstruction.iter_s": (incl["reconstruction.solve"] / iterations if iterations else 0.0, "s"),
            "reconstruction.cap_hits": (per(sum(self.notes.get("reconstruction.cap_hits", []))), "count"),
            "reconstruction.finalize_s": (per(incl["reconstruction.finalize"]), "s"),
            "reconstruction.edge_f1": (mean("reconstruction.edge_f1"), "ratio"),
            "reconstruction.peak_alloc_mb": (peaks.get("reconstruction.solve", 0.0), "MiB"),
            "transfer.views_s": (per(own["transfer.construct"]), "s"),
            "hetgraph.graphs_built": (per(c["hetgraph.build"]), "count"),
            "hetgraph.build_s": (per(incl["hetgraph.build"]), "s"),
            "hetgraph.align_s": (per(incl["hetgraph.align"]), "s"),
            "hetgraph.induced_s": (per(incl["hetgraph.induced"]), "s"),
            "hetgraph.format_s": (per(incl["hetgraph.format"]), "s"),
            "hetgraph.parse_s": (per(incl["hetgraph.parse"]), "s"),
            "ingest.events": (per(c["ingest.events"]), "count"),
            "ingest.snapshots": (per(c["ingest.snapshots"]), "count"),
            "ingest.parse_s": (per(incl["ingest.parse"]), "s"),
            "ingest.accumulate_s": (per(incl["ingest.accumulate"]), "s"),
            "ingest.snapshot_s": (per(incl["ingest.snapshot"]), "s"),
            "evalkit.score_s": (per(incl["evalkit.score"]), "s"),
        }


@contextmanager
def allocation_peaks(peaks: dict[str, float]):
    """Record the tracemalloc peak above the entry level inside the two fitting layers.

    Runs apart from the timed spans because tracemalloc slows every Python
    allocation.
    """

    def wrap(name, fn):
        if name not in ("selection.fit_model", "reconstruction.solve"):
            return fn

        def measured(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                extra = (tracemalloc.get_traced_memory()[1] - base) / MIB
                peaks[name] = max(peaks.get(name, 0.0), extra)

        return measured

    tracemalloc.start()
    try:
        with patched(wrap):
            yield
    finally:
        tracemalloc.stop()
