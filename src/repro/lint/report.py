"""detlint reporters: human text and machine-readable JSON.

The JSON schema is versioned and covered by
``tests/test_lint.py::test_json_report_schema_is_stable`` — a changed
key set bumps ``SCHEMA_VERSION``; existing keys never change meaning.
"""

from __future__ import annotations

import json
import typing as _t

from .engine import LintReport
from .rules import rule_catalog

__all__ = ["SCHEMA_VERSION", "render_text", "render_json"]

#: v3: the baseline and auto-fix are gone, so findings lose
#: ``fingerprint``/``baselined``, rule entries lose ``fixable`` and the
#: summary loses ``baselined``.  Findings stay globally sorted in
#: (path, line, col, rule) order with a guaranteed trailing newline;
#: run-varying data (per-rule timings) is deliberately excluded so two
#: runs over the same tree produce byte-identical documents.
SCHEMA_VERSION = 3


def render_text(report: LintReport) -> str:
    """One line per finding plus a summary tail (empty-safe)."""
    lines = [f.format() for f in report.findings]
    by_rule = report.by_rule()
    tail = (f"detlint: {len(report.findings)} finding(s) in "
            f"{report.files} file(s)")
    if by_rule:
        tail += " (" + ", ".join(f"{r}: {n}" for r, n in by_rule.items()) \
            + ")"
    if report.suppressed:
        tail += f" [{report.suppressed} suppressed inline]"
    lines.append(tail)
    return "\n".join(lines) + "\n"


def render_json(report: LintReport, *, paths: _t.Sequence[str] = ()) -> str:
    """Byte-stable machine-readable report.

    Sorted keys, findings in (path, line, col, rule) order, trailing
    newline, and no run-varying data — two runs over an unchanged tree
    are byte-identical, so CI artifact diffs mean something.
    """
    doc = {
        "tool": "detlint",
        "schema_version": SCHEMA_VERSION,
        "paths": list(paths),
        "rules": {r["id"]: {"severity": r["severity"],
                            "summary": r["summary"],
                            "scopes": r["scopes"]}
                  for r in rule_catalog()},
        "findings": [f.as_dict() for f in report.findings],
        "summary": {
            "files": report.files,
            "active": len(report.findings),
            "suppressed": report.suppressed,
            "by_rule": report.by_rule(),
            "clean": report.clean,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
