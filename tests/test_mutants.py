"""The mutant list of tools/mutants.py must name text that is still in
the package, so a refactor that orphans a mutant fails here and not
only in the slow mutant run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mutants_module():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_text_occurs_once_in_its_module():
    def count(m):
        return (ROOT / "src" / "kwgraph" / m.module).read_text(encoding="utf-8").count(m.old)
    stale = [(m.module, m.old, count(m)) for m in _mutants_module().MUTANTS if count(m) != 1]
    assert stale == []
