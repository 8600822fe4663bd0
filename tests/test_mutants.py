"""The mutation list in ``tools/mutants.py`` stays in step with the source.

Each mutant replaces exact texts; if a refactor moves or duplicates one of
them, the mutant would silently stop applying. Running the mutants is not
part of this suite (``python tools/mutants.py``)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)

SOURCES = {path.name: path.read_text(encoding="utf-8")
           for path in (ROOT / "src" / "specdec").glob("*.py")}


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_old_text_occurs_exactly_once_in_the_source(mutant):
    for old, new in mutant.edits:
        counts = {name: text.count(old) for name, text in SOURCES.items()}
        assert {name: n for name, n in counts.items() if n} == {mutant.file: 1}
        assert new != old
    assert mutant.tests
    for target in mutant.tests:
        assert (ROOT / target.split("::")[0]).is_file()
