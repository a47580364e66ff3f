"""The README's examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    section = README.read_text().partition("\n## Quick start\n")[2].partition("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Quick start", "exec"), {})
