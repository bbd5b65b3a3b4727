"""End-to-end transfer pipeline: select transferable source entities, extend the
target graph with them, and reconstruct the target dependencies.

Given the same inputs, configuration, and seed the pipeline is fully
deterministic, including the serialized report. The report (``report_v2``)
lists the meta-paths blended, the transferred entities with their relevance
scores, the mix weight used, the observed gap, the construction's objective
trace and the configuration.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .config import TransferConfig
from .errors import GraftError
from .hetgraph import HeteroGraph, check_shared_types, dynamic_factor, split_by_overlap
from .reconstruction import (
    ReconstructionProblem,
    ReconstructionSolution,
    finalize_edges,
    solve_reconstruction,
)
from .selection import fit_selection_model, merge_transferred_entities, relevance_scores

log = logging.getLogger(__name__)

REPORT_SCHEMA = "report_v2"


@dataclass
class TransferReport:
    """Diagnostics of one pipeline run.

    ``timings`` (seconds per stage) is kept in memory and logged but excluded
    from the serialized form, which must be byte-identical across reruns.
    """

    metapaths: list[list[str]] = field(default_factory=list)
    transferred_entities: list[str] = field(default_factory=list)
    transferred_scores: dict[str, float] = field(default_factory=dict)
    mu_used: float = 0.0
    observed_gap: float = 0.0
    construction_objective_trace: list[float] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = dataclasses.asdict(self)
        del out["timings"]
        out.update(
            schema=REPORT_SCHEMA,
            construction_objective_trace=[[i, v] for i, v in enumerate(self.construction_objective_trace)],
        )
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def write_report(report: TransferReport, path: str | Path) -> None:
    Path(path).write_text(report.to_json(), encoding="utf-8")


def auto_mu(merged: HeteroGraph, gt_hat: HeteroGraph) -> float:
    """Smoothness weight from entity counts: (|merged| - |observed|) / |merged|.

    The more entities arrived by transfer, the more the construction stage
    trusts the observed target structure over the source consistency level.
    """
    if merged.n == 0:
        raise GraftError("merged target graph has no entities")
    missing = [eid for eid in gt_hat.entity_ids if not merged.has_entity(eid)]
    if missing:
        raise GraftError(f"target entities missing from the merged graph: {missing[:5]!r}")
    return (merged.n - gt_hat.n) / merged.n


@contextmanager
def _stage(name: str, timings: dict[str, float]):
    start = time.perf_counter()
    try:
        yield
    except GraftError as exc:
        raise GraftError(f"{name}: {exc}") from exc
    finally:
        timings[name] = time.perf_counter() - start


def construct_dependencies(
    source: HeteroGraph,
    target_partial: HeteroGraph,
    merged: HeteroGraph,
    mu: float | None,
    config: TransferConfig,
) -> tuple[HeteroGraph, ReconstructionSolution, ReconstructionProblem]:
    """Run the construction stage against a merged target graph.

    The problem reads both adjacencies as the graphs' cached CSR over the
    merged graph's entity index: the merged graph's own and the source
    reindexed onto those entities, isolated where the source lacks one. The
    observed gap is the dynamic factor on the original target set. A ``mu``
    of None is ``auto_mu(merged, target_partial)``.
    """
    check_shared_types(merged, source)
    check_shared_types(target_partial, source)
    prob = ReconstructionProblem(
        target=merged,
        source=source._reindexed(merged.entity_items()),
        observed_gap=dynamic_factor(source._reindexed(target_partial.entity_items()), target_partial),
        mu=auto_mu(merged, target_partial) if mu is None else mu,
        reg=config.lam,
        rank=config.d2,
    )
    solution = solve_reconstruction(prob, config)
    graph = finalize_edges(solution.factors, merged, config.z_edge)
    return graph, solution, prob


def run_transfer(
    source: HeteroGraph, target_partial: HeteroGraph, config: TransferConfig | None = None
) -> tuple[HeteroGraph, TransferReport]:
    """Full transfer pipeline from a source graph to a partial target graph.

    Returns the estimated target graph and a report with the meta-paths
    blended, the transferred entities and their scores (the source-only
    entities whose relevance score reaches ``config.z_entity``), the mix
    weight actually used, and the construction's objective trace.
    """
    config = config or TransferConfig()
    timings: dict[str, float] = {}
    report = TransferReport(config=config.to_dict())

    with _stage("validate", timings):
        if source.n == 0:
            raise GraftError("source graph has no entities")
        if target_partial.n < 2:
            raise GraftError("target graph needs at least 2 entities")
        split_by_overlap(source, target_partial)
        check_shared_types(source, target_partial)

    with _stage("selection-model", timings):
        state = fit_selection_model(source, config)
        report.metapaths = [list(p.types) for p in state.metapaths]

    with _stage("entity-selection", timings):
        scores = relevance_scores(state, source, target_partial)
        selected = sorted(eid for eid, s in scores.items() if s >= config.z_entity)
        report.transferred_entities = selected
        report.transferred_scores = {eid: scores[eid] for eid in selected}

    with _stage("merge", timings):
        merged = merge_transferred_entities(target_partial, source, selected)

    with _stage("construction", timings):
        graph, solution, prob = construct_dependencies(source, target_partial, merged, config.mu, config)
        report.mu_used = float(prob.mu)
        report.observed_gap = float(prob.observed_gap)
        report.construction_objective_trace = [float(v) for v in solution.objective_trace]

    report.timings = timings
    for name, seconds in timings.items():
        log.info("stage %-16s %8.3f s", name, seconds)
    return graph, report
