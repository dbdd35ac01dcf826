"""The mutation table's plants still fit the tree they mutate.

``benchmarks/lint_mutations.py`` plants each detlint rule's bug class by
textual edits whose anchors must occur exactly once in ``src/repro``.
A refactor that rewrites an anchored line silently invalidates the
table; this is the script's own fail-fast check, with no lint or tier-1
run.  (The script ignores ``tests/test_lint*.py`` on planted copies, so
this test never "catches" a plant.)
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _plants():
    spec = importlib.util.spec_from_file_location(
        "lint_mutations", ROOT / "benchmarks" / "lint_mutations.py")
    mod = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules.
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod.PLANTS


def test_every_plant_anchor_occurs_exactly_once():
    src = ROOT / "src" / "repro"
    stale = []
    for plant in _plants():
        texts: dict[str, str] = {}
        for rel, old, new in plant.edits:
            text = texts.setdefault(rel, (src / rel).read_text())
            if text.count(old) != 1:
                stale.append(f"{plant.rule} '{plant.name}': {rel} has "
                             f"{text.count(old)} x {old!r}")
                continue
            texts[rel] = text.replace(old, new)
    assert not stale, "\n".join(stale)
