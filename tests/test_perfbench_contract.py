"""The names the benchmark harness reaches into, checked from the package side.

``perfbench/spans.py`` wraps each function of its ``TRACED`` list by module
and name, and reads ``objective_trace`` off the selection model. Its
workloads, checks and self-test read the results named below. A package
change that drops one of them breaks benchmark runs; these tests make it fail
the unit suite as well. The harness files are parsed, not imported.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

from graft import HeteroGraph, SynthSpec, TransferConfig, fit_selection_model, generate, run_transfer
from graft.metapath import MetaPath, path_distance_matrix, project
from graft.selection import merge_transferred_entities
from graft.transfer import construct_dependencies

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_names():
    """The (module, function, span) triples of ``TRACED`` in perfbench/spans.py."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        names = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if isinstance(node, ast.Assign) and names == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED list in {SPANS}")


@pytest.mark.parametrize("module,name", [(m, f) for m, f, _ in traced_names()])
def test_traced_function_resolves(module, name):
    assert module == "graft" or module.startswith("graft.")
    assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name} is gone"


def test_selection_model_keeps_its_objective_trace():
    g = HeteroGraph([("a", "s"), ("b", "t"), ("c", "s")], [("a", "b"), ("b", "c")])
    state = fit_selection_model(g)
    assert len(state.objective_trace) == 1


@pytest.fixture(scope="module")
def instance():
    return generate(SynthSpec(60, 30, dynamic_factor=0.1, maturity=0.5, seed=0))


def test_hop_matrix_fields_the_spot_check_reads():
    # spans.py samples .matrix rows over .n and labels them by .provenance.types
    g = HeteroGraph([("a", "s"), ("b", "t"), ("c", "s")], [("a", "b"), ("b", "c")])
    p = MetaPath(("s", "t", "s"))
    sim = path_distance_matrix(project(g, p), provenance=p)
    assert sim.n == 3
    assert sim.matrix[:2].shape == (2, 3)
    assert sim.provenance.types == ("s", "t", "s")


def test_construction_results_the_mu_grid_reads(instance):
    gs, _, gh = instance
    merged = merge_transferred_entities(gh, gs, [])
    graph, solution, prob = construct_dependencies(gs, gh, merged, 0.3, TransferConfig())
    assert isinstance(graph, HeteroGraph)
    assert solution.iterations == len(solution.objective_trace) - 1
    assert prob.mu == 0.3


def test_report_and_config_fields_the_transfer_workload_reads(instance):
    gs, _, gh = instance
    config = TransferConfig(eta0=0.02)
    assert (config.z_entity, config.construction_max_iters, config.eta0) == (1.96, 500, 0.02)
    _, report = run_transfer(gs, gh, config)
    assert sorted(report.transferred_scores) == report.transferred_entities
    assert report.construction_objective_trace
    assert 0.0 <= report.mu_used <= 1.0
    assert json.loads(report.to_json())["mu_used"] == report.mu_used


def perfbench_imports():
    """The (module, name) pairs that the harness's files import from graft."""
    for path in sorted(SPANS.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "graft":
                yield from ((node.module, alias.name) for alias in node.names)


@pytest.mark.parametrize("module,name", sorted(set(perfbench_imports())))
def test_perfbench_import_resolves(module, name):
    # perfbench/selftest.py imports metapath_distance_matrices from the package root
    assert hasattr(importlib.import_module(module), name), f"{module}.{name} is gone"
