"""repro.lint — "detlint", the determinism & concurrency analyzer.

Every result in this reproduction rests on the DES being
bit-deterministic: quiet-vs-noisy diffs measure kernel-noise effects
only because nothing else varies.  Runtime tests catch most violations
after the fact — the goldens under a second hash seed, the
serial-vs-pooled comparisons, ``det_check`` — so this package keeps
only the rules whose bug class those tests miss (see the mutation
table in docs/STATIC_ANALYSIS.md, reproduced by
``benchmarks/lint_mutations.py``).

It is a custom AST analyzer (no third-party lint framework): each file
is parsed once and every rule that applies to the file's scope runs
over it.

========  ==========================================================
DET001    wall-clock/entropy calls in sim-scoped modules
DET005    float accumulation (``sum``) over unordered iterables
DET006    ``os.environ`` reads inside sim-scoped code
DET008    mutable module-global written from sim-scoped code
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
(``# detlint: disable=DET001 -- reason``) covers it.  See
docs/STATIC_ANALYSIS.md for the catalog with bad/good examples, the
scope map, the suppression policy, and the mutation table.
"""

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

__all__ = [
    "Finding", "LintReport", "ModuleUnderLint", "lint_paths",
    "lint_source", "module_scope", "HOT_PATH_MODULES",
    "Rule", "RULES", "rule", "active_rules", "rule_catalog",
    "render_text", "render_json", "SCHEMA_VERSION",
    "main",
]
