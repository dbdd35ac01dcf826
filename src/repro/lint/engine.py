"""detlint engine: file walking, scope map, suppressions.

One :class:`ModuleUnderLint` is built per analyzed file (source text,
parsed AST, parent links, scope classification); every registered rule
(:mod:`repro.lint.rules`) gets a chance to emit :class:`Finding`
objects against it.  The engine then applies inline suppressions
(``# detlint: disable=DET003`` on the offending line, or
``# detlint: disable-next=DET003`` on the line above); every finding
that survives fails the run.

Scope map
---------
The determinism rules only make sense inside the simulation's
deterministic core.  Each module under ``repro`` is classified as:

* ``sim`` — code whose behaviour must be a pure function of the seed:
  ``sim/``, ``net/``, ``mpi/``, ``noise/``, ``faults/``, ``ktau/``,
  ``obs/``, ``kernel/``, ``apps/``, ``core/``, ``microbench/``,
  ``analysis/``.
* ``host`` — code that legitimately touches wall clocks, process pools
  and the filesystem: ``parallel/``, ``harness/``, ``lint/``,
  ``cli.py``, ``__main__.py``.
* ``neutral`` — glue with no simulation or host behaviour of its own:
  ``errors.py`` and package ``__init__`` re-export shims.

Rules declare which scopes they apply to; DET/SIM rules default to
``sim`` only, so host-scoped wall-clock use (e.g. sweep timings in
``parallel/executor.py``) is exempt by construction, not by
suppression.
"""

from __future__ import annotations

import ast
import dataclasses
import re
import time
import typing as _t
from pathlib import Path

__all__ = ["Finding", "ModuleUnderLint", "LintReport", "module_scope",
           "normalize_path", "lint_source", "lint_paths",
           "SIM_PACKAGES", "HOST_PACKAGES", "HOT_PATH_MODULES",
           "PARSE_ERROR_RULE"]

#: Top-level ``repro`` sub-packages whose behaviour must be
#: seed-deterministic (wall clocks, entropy, and unordered iteration
#: are hazards here).
SIM_PACKAGES = frozenset({
    "sim", "net", "mpi", "noise", "faults", "ktau", "obs",
    "kernel", "apps", "core", "microbench", "analysis",
})

#: Sub-packages that legitimately touch host facilities (wall clock,
#: process pools, filesystem); DET rules do not apply.
HOST_PACKAGES = frozenset({"parallel", "harness", "lint", "serve"})

#: Top-level single modules that are host-scoped.
_HOST_MODULES = frozenset({"cli.py", "__main__.py"})

#: Top-level single modules with no sim/host behaviour of their own.
_NEUTRAL_MODULES = frozenset({"errors.py", "__init__.py"})

#: Modules on the event-dispatch hot path; classes here must declare
#: ``__slots__`` (rule PERF001).
HOT_PATH_MODULES = frozenset({
    "repro/sim/core.py", "repro/sim/events.py", "repro/sim/process.py",
    "repro/sim/resources.py", "repro/net/message.py",
})

#: Pseudo-rule id attached to findings for unparseable files.
PARSE_ERROR_RULE = "E999"

_SUPPRESS_RE = re.compile(
    r"#\s*detlint:\s*(disable|disable-next)\s*=\s*"
    r"(all|[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str  # normalized repro-relative posix path
    line: int
    col: int
    message: str

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.message}")

    def as_dict(self) -> dict[str, _t.Any]:
        return {"rule": self.rule, "severity": self.severity,
                "path": self.path, "line": self.line, "col": self.col,
                "message": self.message}


class ModuleUnderLint:
    """Everything a rule needs to know about one analyzed file."""

    def __init__(self, source: str, path: str, scope: str) -> None:
        self.source = source
        self.path = path  # normalized (repro/...) posix path
        self.scope = scope
        self.tree = ast.parse(source)  # caller handles SyntaxError
        #: child AST node -> parent AST node (identity-keyed).
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        #: local alias -> fully qualified module/object name, built from
        #: the module's import statements (``import numpy as np`` maps
        #: ``np -> numpy``; ``from time import perf_counter`` maps
        #: ``perf_counter -> time.perf_counter``).
        self.aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    self.aliases[a.asname or a.name.split(".")[0]] = a.name
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for a in node.names:
                    if a.name != "*":
                        self.aliases[a.asname or a.name] = \
                            f"{node.module}.{a.name}"

    @property
    def is_hot_path(self) -> bool:
        return self.path in HOT_PATH_MODULES

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted name of ``node`` with import aliases expanded.

        ``Name(np)`` -> ``"numpy"``; ``Attribute(time.perf_counter)``
        -> ``"time.perf_counter"``; anything else -> ``None``.
        """
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            return None if base is None else f"{base}.{node.attr}"
        return None

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        cur: ast.AST | None = node
        while cur is not None:
            cur = self.parents.get(cur)
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return cur
        return None


@dataclasses.dataclass
class LintReport:
    """Outcome of one :func:`lint_paths` run."""

    findings: list[Finding] = dataclasses.field(default_factory=list)
    suppressed: int = 0
    files: int = 0
    #: rule id -> cumulative seconds spent in its ``check`` pass (kept
    #: out of the JSON report so it stays byte-stable across runs).
    rule_costs: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_rule(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return dict(sorted(out.items()))


def module_scope(rel_parts: _t.Sequence[str]) -> str:
    """Scope ("sim" | "host" | "neutral") for a repro-relative path.

    ``rel_parts`` are the path components *after* the ``repro`` package
    root, e.g. ``("sim", "core.py")`` or ``("cli.py",)``.
    """
    if not rel_parts:
        return "neutral"
    if len(rel_parts) == 1:
        name = rel_parts[0]
        if name in _HOST_MODULES:
            return "host"
        if name in _NEUTRAL_MODULES:
            return "neutral"
        return "sim"
    pkg = rel_parts[0]
    if pkg in HOST_PACKAGES:
        return "host"
    if pkg in SIM_PACKAGES:
        return "sim"
    return "sim"


def normalize_path(path: str | Path) -> tuple[str, tuple[str, ...]]:
    """``(display_path, rel_parts)`` for any on-disk or virtual path.

    The display path is rooted at the ``repro`` package
    (``repro/sim/core.py``) whenever a ``repro`` component is present,
    so reports are stable across checkouts and install layouts.
    ``tests/`` and ``benchmarks/`` trees root the same way (the CI
    lint gate analyzes them under the relaxed host profile).
    """
    parts = Path(path).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] in ("repro", "tests", "benchmarks"):
            rel = tuple(parts[i + 1:])
            return "/".join((parts[i],) + rel), rel
    return Path(path).name, (Path(path).name,)


def _suppressions(source: str) -> dict[int, frozenset[str] | None]:
    """line number -> suppressed rule ids (``None`` = all rules)."""
    out: dict[int, frozenset[str] | None] = {}

    def merge(lineno: int, rules: frozenset[str] | None) -> None:
        if lineno in out and out[lineno] is None:
            return
        if rules is None:
            out[lineno] = None
        else:
            prev = out.get(lineno) or frozenset()
            out[lineno] = prev | rules

    for i, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if not m:
            continue
        kind, spec = m.group(1), m.group(2)
        rules = (None if spec == "all"
                 else frozenset(r.strip() for r in spec.split(",")))
        merge(i + 1 if kind == "disable-next" else i, rules)
    return out


def _parse(source: str, norm: str, scope: str) -> ModuleUnderLint | Finding:
    """The analyzable module, or an :data:`PARSE_ERROR_RULE` finding."""
    try:
        return ModuleUnderLint(source, norm, scope)
    except SyntaxError as exc:
        return Finding(PARSE_ERROR_RULE, "error", norm, exc.lineno or 1,
                       (exc.offset or 1) - 1, f"syntax error: {exc.msg}")


def _position(f: Finding) -> tuple[str, int, int, str]:
    return (f.path, f.line, f.col, f.rule)


def _run_rules(mod: ModuleUnderLint, rules: _t.Sequence[_t.Any],
               costs: dict[str, float]) -> list[Finding]:
    """Rule pass over one module, adding per-rule time to ``costs``."""
    raw: list[Finding] = []
    for rule in rules:
        if not (mod.scope in rule.scopes or "*" in rule.scopes):
            continue
        t0 = time.perf_counter()
        raw.extend(rule.check(mod))
        costs[rule.id] = (costs.get(rule.id, 0.0)
                          + time.perf_counter() - t0)
    return raw


def _apply_suppressions(source: str, raw: list[Finding],
                        ) -> tuple[list[Finding], int]:
    suppress = _suppressions(source)
    kept: list[Finding] = []
    n_suppressed = 0
    for f in raw:
        sup = suppress.get(f.line, frozenset())
        if sup is None or f.rule in (sup or frozenset()):
            n_suppressed += 1
        else:
            kept.append(f)
    return kept, n_suppressed


def lint_source(source: str, path: str | Path = "fixture.py", *,
                scope: str | None = None,
                rules: _t.Iterable[_t.Any] | None = None,
                ) -> tuple[list[Finding], int]:
    """Analyze one source string; returns ``(findings, n_suppressed)``.

    ``scope`` overrides the path-derived scope — fixtures in tests pass
    ``scope="sim"`` explicitly.  Findings are sorted by position; inline
    suppressions have already been applied (their count is returned).

    The cross-module rules see an index containing only this one
    module, so interprocedural findings (DET007) need
    :func:`lint_paths` over the whole tree — this is exactly the
    single-function blindness the taint engine exists to fix.
    """
    from .callgraph import build_index
    from .rules import active_rules

    norm, rel = normalize_path(path)
    mod = _parse(source, norm, scope if scope is not None
                 else module_scope(rel))
    if isinstance(mod, Finding):
        return [mod], 0

    rule_list = list(rules) if rules is not None else active_rules()
    index = build_index([mod])
    for rule in rule_list:
        rule.index = index
    kept, n_suppressed = _apply_suppressions(
        source, _run_rules(mod, rule_list, {}))
    return sorted(kept, key=_position), n_suppressed


def iter_python_files(paths: _t.Iterable[str | Path]) -> list[Path]:
    """Sorted .py files under ``paths`` (files pass through verbatim)."""
    out: set[Path] = set()
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.update(f for f in p.rglob("*.py")
                       if "__pycache__" not in f.parts)
        else:
            out.add(p)
    return sorted(out)


def lint_paths(paths: _t.Iterable[str | Path], *,
               rules: _t.Iterable[_t.Any] | None = None,
               profile: str | None = None) -> LintReport:
    """Analyze every .py file under ``paths`` against the rule set.

    Two-pass: an index pass parses every file and builds the
    cross-module symbol table (:mod:`repro.lint.callgraph`), then the
    rule pass runs every applicable rule per file with the shared
    index injected — this is what lets DET007 see a host-clock helper
    defined in one module and called from another.

    ``profile`` overrides the path-derived scope for every file
    (``"host"`` relaxes sim-only rules for tests/benchmarks).
    """
    from .callgraph import build_index
    from .rules import active_rules

    rule_list = list(rules) if rules is not None else active_rules()
    parsed: list[ModuleUnderLint | Finding] = []
    for file in iter_python_files(paths):
        norm, rel = normalize_path(file)
        parsed.append(_parse(file.read_text(encoding="utf-8"), norm,
                             profile if profile is not None
                             else module_scope(rel)))

    index = build_index(m for m in parsed
                        if isinstance(m, ModuleUnderLint))
    for rule in rule_list:
        rule.index = index

    report = LintReport(files=len(parsed))
    for mod in parsed:
        if isinstance(mod, Finding):
            report.findings.append(mod)
            continue
        kept, n_sup = _apply_suppressions(
            mod.source, _run_rules(mod, rule_list, report.rule_costs))
        report.findings.extend(kept)
        report.suppressed += n_sup
    report.findings.sort(key=_position)
    return report
