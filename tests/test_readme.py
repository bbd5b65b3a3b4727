import re
import tomllib
from importlib.metadata import metadata
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README quick start has no python block"
    return match.group(1)


def test_quick_start_runs(capsys):
    code = quick_start_block()
    assert "n_source=300, n_target=150" in code
    exec(compile(code, str(README), "exec"), {})
    f1_line, report_line = capsys.readouterr().out.splitlines()
    assert 0.0 <= float(f1_line) <= 1.0
    mu, transferred = report_line.split()
    assert 0.0 <= float(mu) <= 1.0
    assert int(transferred) >= 0


def python_floor(spec: str) -> tuple[int, int]:
    """The (major, minor) of a ``>=X.Y`` Python requirement."""
    match = re.search(r">=\s*(\d+)\.(\d+)", spec)
    assert match, f"no >= floor in {spec!r}"
    return int(match.group(1)), int(match.group(2))


@pytest.mark.parametrize("dependency", ["numpy", "scipy"])
def test_python_floor_covers_dependencies(dependency):
    declared = python_floor(tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["requires-python"])
    assert declared >= python_floor(metadata(dependency)["Requires-Python"])
    assert f"Requires Python {declared[0]}.{declared[1]}+" in README.read_text(encoding="utf-8")
