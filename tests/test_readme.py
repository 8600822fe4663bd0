"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_first_python_block_of_the_readme_runs(monkeypatch, capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"^```python\n(.*?)^```", text, re.S | re.M).group(1)
    monkeypatch.chdir(ROOT)  # its paths are relative to the repository root
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
