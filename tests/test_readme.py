import re
import tomllib
from importlib.metadata import metadata, requires
from pathlib import Path

import pytest

import graft

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


def version_floor(spec: str) -> tuple[int, ...]:
    """The release numbers of the ``>=`` floor in a requirement, ``>=1.26.4`` read as (1, 26, 4)."""
    match = re.search(r">=\s*(\d+(?:\.\d+)*)", spec)
    assert match, f"no >= floor in {spec!r}"
    return tuple(int(part) for part in match.group(1).split("."))


def pyproject() -> dict:
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


@pytest.mark.parametrize("dependency", ["numpy", "scipy"])
def test_python_floor_covers_dependencies(dependency):
    declared = version_floor(pyproject()["requires-python"])
    assert declared >= version_floor(metadata(dependency)["Requires-Python"])
    assert f"Requires Python {declared[0]}.{declared[1]}+" in README.read_text(encoding="utf-8")


def test_numpy_floor_covers_scipys():
    def numpy_floor(requirements):
        # the unconditional numpy requirement; extras and markers follow a ';'
        (spec,) = [r for r in requirements if re.match(r"numpy\b", r) and ";" not in r]
        return version_floor(spec)

    assert numpy_floor(pyproject()["dependencies"]) >= numpy_floor(requires("scipy"))


def test_package_version_matches_pyproject():
    assert graft.__version__ == pyproject()["version"]
