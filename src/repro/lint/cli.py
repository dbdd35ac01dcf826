"""detlint command line: ``python -m repro.lint`` / ``repro lint``.

Exit codes: 0 = clean (modulo inline suppressions), 1 = findings,
2 = usage/configuration error.

Reports go to ``out`` (stdout); diagnostics — bad paths, unknown
rules — go to ``err`` (stderr), so ``--json`` output is exactly one
parseable document with nothing interleaved.
"""

from __future__ import annotations

import argparse
import sys
import typing as _t
from pathlib import Path

from .engine import lint_paths
from .report import render_json, render_text
from .rules import RULES, rule_catalog

__all__ = ["build_parser", "main", "add_lint_arguments", "run_lint"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach detlint flags (shared by ``repro lint`` and this module)."""
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files/directories to analyze "
                             "(default: src/repro, falling back to the "
                             "installed repro package)")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable JSON report "
                             "(byte-stable: sorted findings, trailing "
                             "newline, diagnostics on stderr)")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="also write the report to FILE (useful for "
                             "CI artifacts; format follows --json)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--explain", metavar="RULE", default=None,
                        help="print the full catalog entry for RULE "
                             "and exit")
    parser.add_argument("--profile", choices=("sim", "host", "neutral"),
                        default=None,
                        help="override the path-derived scope for every "
                             "file ('host' relaxes sim-only rules — the "
                             "CI profile for tests/ and benchmarks/)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="detlint: AST-based determinism & concurrency "
                    "analyzer for the repro codebase")
    add_lint_arguments(parser)
    return parser


def _default_paths() -> list[str]:
    if Path("src/repro").is_dir():
        return ["src/repro"]
    return [str(Path(__file__).resolve().parent.parent)]


def _render_rule_catalog() -> str:
    lines = []
    for r in rule_catalog():
        lines.append(f"{r['id']} [{r['severity']}] "
                     f"(scopes: {r['scopes']}) — {r['summary']}")
        doc = r["doc"].splitlines()
        if doc:
            lines.append(f"    {doc[0].strip()}")
    return "\n".join(lines) + "\n"


def _render_explain(rule_id: str) -> str:
    entry = next(r for r in rule_catalog() if r["id"] == rule_id)
    lines = [f"{entry['id']} [{entry['severity']}] — {entry['summary']}",
             f"scopes: {entry['scopes']}", ""]
    lines.extend(entry["doc"].splitlines())
    return "\n".join(lines).rstrip() + "\n"


def run_lint(args: argparse.Namespace, out: _t.TextIO,
             err: _t.TextIO | None = None) -> int:
    """Execute one lint run from parsed arguments."""
    err = err if err is not None else out
    if args.list_rules:
        out.write(_render_rule_catalog())
        return 0
    if args.explain is not None:
        if args.explain not in RULES:
            err.write(f"error: unknown rule {args.explain!r} "
                      f"(see --list-rules)\n")
            return 2
        out.write(_render_explain(args.explain))
        return 0

    paths = args.paths or _default_paths()
    for p in paths:
        if not Path(p).exists():
            err.write(f"error: no such path: {p}\n")
            return 2

    report = lint_paths(paths, profile=args.profile)
    text = (render_json(report, paths=[str(p) for p in paths])
            if args.json else render_text(report))
    out.write(text)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    return 0 if report.clean else 1


def main(argv: _t.Sequence[str] | None = None,
         out: _t.TextIO | None = None,
         err: _t.TextIO | None = None) -> int:
    out = out or sys.stdout
    err = err if err is not None else (sys.stderr if out is sys.stdout
                                       else out)
    return run_lint(build_parser().parse_args(argv), out, err)
