import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
