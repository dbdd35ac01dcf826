"""repro.lint — "detlint", the determinism & sim-correctness analyzer.

Every result in this reproduction rests on the DES being
bit-deterministic: quiet-vs-noisy diffs measure kernel-noise effects
only because nothing else varies.  Runtime tests
(``tests/test_determinism.py``) catch a violation after the fact; this
package catches the hazard at the line that creates it, before any
experiment runs.

It is a custom AST analyzer (no third-party lint framework) with a
two-pass engine: an index pass builds a cross-module symbol table and
call graph (:mod:`repro.lint.callgraph`), then the rule pass runs the
catalog per file with that index injected — so interprocedural rules
(the :mod:`repro.lint.taint` engine) can trace host state through
function returns, module globals, and default arguments across module
boundaries.

========  ==========================================================
DET001    wall-clock/entropy calls in sim-scoped modules
DET002    global ``random`` module instead of ``sim/rng.py`` streams
DET003    unordered set/dict iteration escaping into sim state
DET004    ``id()``/object identity used for ordering or keying
DET005    float accumulation (``sum``) over unordered iterables
DET006    ``os.environ`` reads inside sim-scoped code
DET007    cross-module host-tainted value reaches sim scope
DET008    mutable module-global written from sim-scoped code
DET009    host-tainted default argument / dataclass field default
SIM001    process generator called without ``env.process(...)``
SIM002    ``yield`` of a non-Event inside a process generator
PERF001   hot-path class missing ``__slots__``
PERF002   all-pairs rank loop outside topology precompute
OBS001    telemetry call not behind the enabled-gate pattern
ASYNC001  blocking call inside a coroutine
ASYNC002  coroutine created but never awaited or stored
ASYNC003  asyncio task handle dropped (fire-and-forget)
ASYNC004  thread-shared state accessed without a lock or queue
ASYNC005  ``ContextVar.set`` without token reset in a finally
========  ==========================================================

Entry points: ``python -m repro.lint [paths]`` and ``repro lint``;
every finding fails the run unless a justified inline suppression
(``# detlint: disable=DET003 -- reason``) covers it.  See
docs/STATIC_ANALYSIS.md for the full catalog with bad/good examples,
the taint sources/sanitizers/sinks table, the scope map, and the
suppression policy.
"""

from .callgraph import ProjectIndex, build_index, module_name
from .cli import main
from .engine import (
    HOT_PATH_MODULES,
    Finding,
    LintReport,
    ModuleUnderLint,
    lint_paths,
    lint_source,
    module_scope,
)
from .report import SCHEMA_VERSION, render_json, render_text
from .rules import RULES, Rule, active_rules, rule, rule_catalog
from .taint import TaintAnalysis

__all__ = [
    "Finding", "LintReport", "ModuleUnderLint", "lint_paths",
    "lint_source", "module_scope", "HOT_PATH_MODULES",
    "Rule", "RULES", "rule", "active_rules", "rule_catalog",
    "ProjectIndex", "build_index", "module_name", "TaintAnalysis",
    "render_text", "render_json", "SCHEMA_VERSION",
    "main",
]
