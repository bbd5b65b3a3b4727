"""The package's top level: exactly the names its callers import from it.

The callers are the README's Python blocks, the acceptance tests, the
benchmark harness under ``perfbench/`` and the CI workflow's ``python -c``
snippets; every kept function raises the two exception classes, so they are
exported too. Everything else imports from its own module.
"""

import ast
import pkgutil
import re
import textwrap
from pathlib import Path

import graft

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SUBMODULES = {m.name for m in pkgutil.iter_modules(graft.__path__)}


def top_level_imports(source: str) -> set[str]:
    """The names ``source`` imports from the package root, submodules aside."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "graft" and not node.level
        for alias in node.names
        if alias.name not in SUBMODULES
    }


def caller_sources() -> dict[str, str]:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    sources = {f"README.md block {k}": block for k, block in enumerate(blocks)}
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]:
        sources[str(path.relative_to(ROOT))] = path.read_text(encoding="utf-8")
    snippets = re.findall(r"python -c '(.*?)'", WORKFLOW.read_text(encoding="utf-8"), re.DOTALL)
    for k, snippet in enumerate(snippets):
        sources[f"{WORKFLOW.name} snippet {k}"] = textwrap.dedent(snippet)
    return sources


def test_all_is_what_the_callers_import():
    sources = caller_sources()
    assert any("snippet" in name for name in sources), f"no python -c snippet found in {WORKFLOW}"
    expected = {"GraftError", "GraphFormatError"}.union(*map(top_level_imports, sources.values()))
    assert len(graft.__all__) == len(set(graft.__all__))
    assert set(graft.__all__) == expected


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from graft import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(graft.__all__)


def test_no_public_attribute_outside_all():
    public = {name for name in vars(graft) if not name.startswith("_")}
    assert public - SUBMODULES == set(graft.__all__)


def test_readme_names_the_exports():
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`(\w+)`", section))
    assert named - {"graft"} == set(graft.__all__)
