"""Perf floor for the detlint engine.

The lint gate runs on every CI push, so the whole-tree analysis —
every rule over every file in ``src/repro`` — must stay interactive.
The floor is loose (a healthy run takes 1-2 s); the gate exists to
catch an accidentally quadratic rule, not to measure the micro-cost
of one rule.  Run with ``--benchmark-only -s`` to see the
per-rule cost table.
"""

import time
from pathlib import Path

from repro.lint.engine import lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

#: Wall-clock floor for one full-tree analysis.
FULL_TREE_FLOOR_S = 5.0


def test_full_tree_lint_stays_interactive(benchmark):
    def run():
        t0 = time.perf_counter()
        report = lint_paths([SRC])
        return report, time.perf_counter() - t0

    report, wall = benchmark.pedantic(run, rounds=1, iterations=1)

    assert report.files > 100  # the walk really saw the package
    assert report.clean, "\n".join(f.format() for f in report.findings)
    top = sorted(report.rule_costs.items(), key=lambda kv: -kv[1])[:5]
    print(f"\nlint perf: {report.files} files in {wall:.2f}s "
          f"({report.files / wall:.0f} files/s)")
    for rid, cost in top:
        print(f"  {rid:9s} {cost * 1e3:7.1f}ms")
    assert wall < FULL_TREE_FLOOR_S, (
        f"full-tree lint took {wall:.2f}s, over the "
        f"{FULL_TREE_FLOOR_S}s floor — check the per-rule cost table")
