"""The names the benchmark harness reaches into, checked from the package side.

``perfbench/spans.py`` wraps each function of its ``TRACED`` list by module
and name, and reads ``objective_trace`` off the selection model. A package
change that drops one of them breaks traced benchmark runs; these tests make
it fail the unit suite as well. The harness file is parsed, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

from graft import HeteroGraph, fit_selection_model

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
