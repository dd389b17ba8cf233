"""The README's code runs as printed."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading: str) -> str:
    """The first fenced python block under the README section ``heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_runs_and_its_asserts_hold(capsys):
    exec(compile(python_block("Library use"), "README.md", "exec"), {})
    weight, visited, verdicts = capsys.readouterr().out.split(" ", 2)
    assert float(weight) >= 0 and int(visited) >= 1 and "stabbed" in verdicts
