"""Interprocedural host-state taint analysis (rules DET007–DET009).

DET001/DET006 catch a ``time.time()`` or ``os.environ`` read written
*directly* in sim-scoped code.  They cannot see the same host state
arriving by value: a helper in ``harness/`` that returns
``time.time()``, a module global initialised from ``os.getpid()``, or a
default argument evaluated at import time.  This module runs a
conservative whole-program fixpoint over the
:class:`~repro.lint.callgraph.ProjectIndex`:

* **Sources** — calls that read host state: the DET001 wall-clock and
  entropy set, plus process identity (``os.getpid``), host identity
  (``socket.gethostname``, ``platform.*``), environment reads, and
  filesystem enumeration (``os.listdir``, ``glob.glob``).  A source on
  a line carrying a ``# detlint: disable=...`` suppression is treated
  as sanctioned and does **not** seed taint — a justified host-clock
  epoch (e.g. the oplog timestamp) must not cascade into DET007
  findings at every caller.
* **Sanitizers** — values derived from the seed tree: anything
  resolving into :mod:`repro.sim.rng` (``RandomTree`` streams).  Calls
  into the sanitizer namespace return untainted values regardless of
  their arguments.
* **Propagation** — taint flows through arithmetic, f-strings,
  containers, ``await``, value-passthrough builtins, assignments, and
  function returns.  Unresolvable calls do *not* propagate: precision
  over recall, so every finding is actionable.

The fixpoint produces two maps — functions whose return value is
tainted, and module globals holding tainted values — that the rules
below consume:

* **DET007** — sim-scoped code calls a function *defined in another
  module* whose return value is host-tainted (or reads a tainted
  cross-module global).
* **DET008** — sim-scoped code rebinds (``global X``) or mutates a
  mutable module-level container, making results depend on call
  history rather than on (config, seed).
* **DET009** — a sim-scoped default argument or dataclass field
  default is host-tainted (evaluated once at import time, different in
  every process).
"""

from __future__ import annotations

import ast
import typing as _t

from .callgraph import ProjectIndex, module_name
from .engine import Finding, ModuleUnderLint, _suppressions
from .rules import Rule, rule, _WALL_CLOCK_CALLS, _own_nodes

__all__ = ["TaintAnalysis", "TAINT_SOURCES", "SANITIZER_PREFIXES"]

#: Fully qualified callables whose return value is host state.
TAINT_SOURCES: frozenset[str] = _WALL_CLOCK_CALLS | frozenset({
    # process / host identity
    "os.getpid", "os.getppid", "os.getlogin", "os.uname", "os.cpu_count",
    "socket.gethostname", "socket.getfqdn",
    "platform.node", "platform.platform", "platform.machine",
    "platform.system", "platform.release", "platform.python_version",
    # environment and working directory
    "os.getenv", "os.getcwd",
    # filesystem enumeration (listing order / contents are host state)
    "os.listdir", "os.scandir", "os.stat",
    "glob.glob", "glob.iglob",
})

#: Dotted-prefix sources (every name under these is a source).
TAINT_SOURCE_PREFIXES: tuple[str, ...] = ("secrets.",)

#: Attribute reads (not calls) that are sources.
TAINT_ATTRS: frozenset[str] = frozenset({"os.environ", "sys.argv"})

#: Namespaces whose values are seed-derived: calls resolving here
#: return *untainted* values (the sanctioned randomness/time plane).
SANITIZER_PREFIXES: tuple[str, ...] = ("repro.sim.rng", "repro.sim.timebase")

#: Builtins that pass their argument's value (and hence taint) through.
_PASSTHROUGH_BUILTINS = frozenset({
    "int", "float", "str", "bool", "bytes", "round", "abs", "min", "max",
    "sum", "sorted", "list", "tuple", "dict", "set", "frozenset", "len",
    "divmod", "format", "repr", "next", "iter", "enumerate", "zip",
    "math.floor", "math.ceil", "math.fsum",
})

_MAX_FIXPOINT_PASSES = 20


def _is_sanitizer(dotted: str | None) -> bool:
    if dotted is None:
        return False
    return any(dotted == p or dotted.startswith(p + ".")
               for p in SANITIZER_PREFIXES)


def _is_source_name(dotted: str | None) -> str | None:
    """Reason string when ``dotted`` names a host-state source."""
    if dotted is None:
        return None
    if dotted in TAINT_SOURCES:
        return f"reads host state via `{dotted}()`"
    if any(dotted.startswith(p) for p in TAINT_SOURCE_PREFIXES):
        return f"reads host entropy via `{dotted}()`"
    return None


class TaintAnalysis:
    """Fixpoint taint facts over one :class:`ProjectIndex`.

    ``tainted_functions`` maps fully qualified function names to a
    human-readable reason their return value carries host state;
    ``tainted_globals`` does the same for module-level names.
    """

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.tainted_functions: dict[str, str] = {}
        self.tainted_globals: dict[str, str] = {}
        #: modname -> {lineno: suppressed-rule-set or None}; sources on
        #: suppressed lines are sanctioned and seed no taint.
        self._suppressed: dict[str, dict[int, frozenset[str] | None]] = {
            name: _suppressions(mod.source)
            for name, mod in index.modules.items()
        }
        self._run()

    @classmethod
    def of(cls, index: ProjectIndex) -> "TaintAnalysis":
        """Fixpoint for ``index``, computed once and shared by every
        rule that reads it."""
        cached = getattr(index, "_taint_analysis", None)
        if cached is None:
            cached = cls(index)
            index._taint_analysis = cached  # type: ignore[attr-defined]
        return cached

    # -- fixpoint ----------------------------------------------------------
    def _run(self) -> None:
        for _ in range(_MAX_FIXPOINT_PASSES):
            changed = False
            for qual, values in self.index.global_values.items():
                if qual in self.tainted_globals:
                    continue
                modname = self.index.module_of_symbol(qual) or ""
                for value in values:
                    reason = self.expr_taint(modname, value, frozenset())
                    if reason is not None:
                        self.tainted_globals[qual] = reason
                        changed = True
                        break
            for qual, fn in self.index.functions.items():
                if qual in self.tainted_functions:
                    continue
                modname = self.index.function_module[qual]
                reason = self._return_taint(modname, fn)
                if reason is not None:
                    self.tainted_functions[qual] = reason
                    changed = True
            if not changed:
                return

    def _return_taint(self, modname: str, fn: ast.AST) -> str | None:
        """Reason the function's return value is tainted, or ``None``."""
        local: dict[str, str] = {}
        result: str | None = None
        for node in _statements_in_order(fn):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = node.value
                if value is None:
                    continue
                reason = self.expr_taint(modname, value, local)
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            if reason is not None:
                                local[name_node.id] = reason
                            else:
                                local.pop(name_node.id, None)
            elif isinstance(node, ast.Return) and node.value is not None:
                reason = self.expr_taint(modname, node.value, local)
                if reason is not None and result is None:
                    result = reason
        return result

    # -- expression taint --------------------------------------------------
    def expr_taint(self, modname: str, expr: ast.AST,
                   local: _t.Mapping[str, str] | frozenset) -> str | None:
        """Reason ``expr`` evaluates to host state, or ``None``."""
        get_local = (local.get if isinstance(local, dict)
                     else (lambda _n: None))
        if isinstance(expr, ast.Call):
            return self._call_taint(modname, expr, local)
        if isinstance(expr, ast.Name):
            reason = get_local(expr.id)
            if reason is not None:
                return reason
            return self._name_taint(modname, expr.id)
        if isinstance(expr, ast.Attribute):
            dotted = self.index.dotted(modname, expr)
            if dotted in TAINT_ATTRS:
                return f"reads host state via `{dotted}`"
            if dotted is not None:
                canon = self.index._canonical(dotted)
                if canon in self.tainted_globals:
                    return self.tainted_globals[canon]
            return None
        if isinstance(expr, ast.Await):
            return self.expr_taint(modname, expr.value, local)
        if isinstance(expr, ast.BinOp):
            return (self.expr_taint(modname, expr.left, local)
                    or self.expr_taint(modname, expr.right, local))
        if isinstance(expr, ast.UnaryOp):
            return self.expr_taint(modname, expr.operand, local)
        if isinstance(expr, ast.BoolOp):
            for v in expr.values:
                reason = self.expr_taint(modname, v, local)
                if reason is not None:
                    return reason
            return None
        if isinstance(expr, ast.IfExp):
            return (self.expr_taint(modname, expr.body, local)
                    or self.expr_taint(modname, expr.orelse, local))
        if isinstance(expr, ast.Subscript):
            return self.expr_taint(modname, expr.value, local)
        if isinstance(expr, ast.Starred):
            return self.expr_taint(modname, expr.value, local)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for elt in expr.elts:
                reason = self.expr_taint(modname, elt, local)
                if reason is not None:
                    return reason
            return None
        if isinstance(expr, ast.Dict):
            for v in expr.values:
                if v is None:
                    continue
                reason = self.expr_taint(modname, v, local)
                if reason is not None:
                    return reason
            return None
        if isinstance(expr, ast.JoinedStr):
            for v in expr.values:
                if isinstance(v, ast.FormattedValue):
                    reason = self.expr_taint(modname, v.value, local)
                    if reason is not None:
                        return reason
            return None
        if isinstance(expr, ast.NamedExpr):
            return self.expr_taint(modname, expr.value, local)
        return None

    def _call_taint(self, modname: str, call: ast.Call,
                    local: _t.Mapping[str, str] | frozenset) -> str | None:
        dotted = self.index.dotted(modname, call.func)
        if _is_sanitizer(dotted):
            return None
        source = _is_source_name(dotted)
        if source is not None:
            if self._line_suppressed(modname, call):
                return None
            return source
        if dotted in _PASSTHROUGH_BUILTINS:
            for arg in call.args:
                reason = self.expr_taint(modname, arg, local)
                if reason is not None:
                    return reason
            for kw in call.keywords:
                reason = self.expr_taint(modname, kw.value, local)
                if reason is not None:
                    return reason
            return None
        qual = self.index.resolve_call(modname, call)
        if qual is not None:
            if _is_sanitizer(qual):
                return None
            if qual in self.tainted_functions:
                return (f"`{_short(qual)}()` "
                        f"{self.tainted_functions[qual]}")
        # Unknown callable: no propagation (precision over recall).
        return None

    def _name_taint(self, modname: str, name: str) -> str | None:
        target = self.index.aliases.get(modname, {}).get(
            name, f"{modname}.{name}")
        canon = self.index._canonical(target) or target
        return self.tainted_globals.get(canon)

    def _line_suppressed(self, modname: str, node: ast.AST) -> bool:
        sup = self._suppressed.get(modname, {})
        return getattr(node, "lineno", -1) in sup


def _short(qual: str) -> str:
    """Trailing ``module.func`` of a fully qualified name, for messages."""
    parts = qual.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qual


def _statements_in_order(fn: ast.AST) -> _t.Iterator[ast.AST]:
    """Own statements of a function in source order (no nested defs)."""
    stack: list[ast.AST] = list(reversed(getattr(fn, "body", [])))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        children: list[ast.stmt] = []
        for field in ("body", "orelse", "finalbody"):
            children.extend(getattr(node, field, []))
        for handler in getattr(node, "handlers", []):
            children.extend(handler.body)
        stack.extend(reversed(children))


# -- DET007: cross-module host taint reaches sim scope ---------------------

@rule
class CrossModuleHostTaint(Rule):
    """Host-tainted value flows into sim scope from another module.

    DET001 sees a ``time.time()`` written in sim code; it cannot see a
    host-scope helper that *returns* ``time.time()`` and is called from
    ``sim/``.  The taint engine traces host-state sources through
    function returns and module globals across module boundaries and
    flags the sim-scoped call/read site.  Route the value through
    ``env.now`` / a ``sim/rng.py`` stream, or pass it in explicitly via
    ``ExperimentConfig`` so the cache key stays honest.
    """

    id = "DET007"
    summary = "cross-module host-tainted value reaches sim scope"
    requires_index = True

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        index: ProjectIndex | None = getattr(self, "index", None)
        if index is None:
            return
        taint = TaintAnalysis.of(index)
        modname = module_name(mod.path)
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call):
                qual = index.resolve_call(modname, node)
                if qual is None or qual not in taint.tainted_functions:
                    continue
                home = index.module_of_symbol(qual)
                if home is None or home == modname:
                    continue
                yield self.finding(
                    mod, node,
                    f"`{_short(qual)}()` (defined in {home}) "
                    f"{taint.tainted_functions[qual]}; its return "
                    "value enters sim scope here — use `env.now` / a "
                    "sim/rng.py stream, or plumb the value through "
                    "ExperimentConfig")
            elif isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Load):
                target = index.aliases.get(modname, {}).get(node.id)
                if target is None:
                    continue  # a local/module name, not an import
                canon = index._canonical(target) or target
                if canon not in taint.tainted_globals:
                    continue
                home = index.module_of_symbol(canon)
                if home is None or home == modname:
                    continue
                yield self.finding(
                    mod, node,
                    f"`{node.id}` (global in {home}) "
                    f"{taint.tainted_globals[canon]}; reading it in "
                    "sim scope couples results to host state — plumb "
                    "the value through ExperimentConfig instead")


# -- DET008: mutable module-global written from sim code -------------------

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "update", "setdefault", "pop",
    "popleft", "popitem", "clear", "extend", "insert", "remove",
    "discard", "sort", "reverse",
})

_MUTABLE_CTORS = frozenset({
    "dict", "list", "set", "collections.defaultdict",
    "collections.OrderedDict", "collections.deque", "collections.Counter",
})


def _mutable_globals(index: ProjectIndex, modname: str,
                     mod: ModuleUnderLint) -> set[str]:
    """Module-level names bound to mutable container literals."""
    out: set[str] = set()
    prefix = f"{modname}."
    for qual, values in index.global_values.items():
        if not qual.startswith(prefix) or "." in qual[len(prefix):]:
            continue
        for value in values:
            if isinstance(value, (ast.Dict, ast.List, ast.Set,
                                  ast.DictComp, ast.ListComp, ast.SetComp)):
                out.add(qual[len(prefix):])
            elif isinstance(value, ast.Call) \
                    and mod.resolve(value.func) in _MUTABLE_CTORS:
                out.add(qual[len(prefix):])
    return out


def _binding_names(target: ast.AST) -> _t.Iterator[str]:
    """Names a target expression *binds* (``x``, ``x, y = ...``).

    ``obj[k]`` / ``obj.attr`` targets mutate an existing object — they
    bind nothing, so they must not shadow the module global they write
    into (that write is exactly what DET008 reports).
    """
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _binding_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _binding_names(target.value)


def _bound_locals(fn: ast.AST) -> set[str]:
    """Names bound locally in a function (shadowing module globals)."""
    out: set[str] = set()
    args = fn.args
    for a in (args.posonlyargs + args.args + args.kwonlyargs):
        out.add(a.arg)
    if args.vararg:
        out.add(args.vararg.arg)
    if args.kwarg:
        out.add(args.kwarg.arg)
    declared_global: set[str] = set()
    for node in _own_nodes(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                out.update(_binding_names(t))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            out.update(_binding_names(node.target))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    out.update(_binding_names(item.optional_vars))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.add(node.name)
        elif isinstance(node, ast.NamedExpr) \
                and isinstance(node.target, ast.Name):
            out.add(node.target.id)
    return out - declared_global


@rule
class MutableGlobalFromSim(Rule):
    """Module global rebound or mutated from sim-scoped code.

    A module-level dict/list/set mutated from simulation code — or a
    ``global X`` rebinding — makes run N's result depend on runs 1..N-1
    in the same process: the run is no longer a pure function of
    (config, seed), and sweep results differ between fresh and warm
    workers.  Keep per-run state on the env/config object (or an
    explicit context), and reset any process-wide registry between
    runs.  Operational switchboards that sim decisions never read may
    be suppressed with a rationale.
    """

    id = "DET008"
    summary = "mutable module-global written from sim-scoped code"
    requires_index = True

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        index: ProjectIndex | None = getattr(self, "index", None)
        if index is None:
            return
        modname = module_name(mod.path)
        mutable = _mutable_globals(index, modname, mod)
        for fn in ast.walk(mod.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            declared: set[str] = set()
            for node in _own_nodes(fn):
                if isinstance(node, ast.Global):
                    declared.update(node.names)
            locals_ = _bound_locals(fn)
            for node in _own_nodes(fn):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (node.targets
                               if isinstance(node, ast.Assign)
                               else [node.target])
                    for t in targets:
                        if isinstance(t, ast.Name) and t.id in declared:
                            yield self.finding(
                                mod, node,
                                f"`global {t.id}` rebinding from sim "
                                "code makes results depend on call "
                                "history, not (config, seed); keep the "
                                "state on the env/config object or "
                                "reset it per run")
                        elif isinstance(t, ast.Subscript) \
                                and isinstance(t.value, ast.Name) \
                                and t.value.id in mutable \
                                and t.value.id not in locals_:
                            yield self.finding(
                                mod, node,
                                f"writing into module global "
                                f"`{t.value.id}[...]` from sim code "
                                "leaks state across runs; use per-run "
                                "state on the env/config object")
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _MUTATOR_METHODS \
                        and isinstance(node.func.value, ast.Name) \
                        and node.func.value.id in mutable \
                        and node.func.value.id not in locals_:
                    yield self.finding(
                        mod, node,
                        f"`{node.func.value.id}.{node.func.attr}(...)` "
                        "mutates a module global from sim code; runs "
                        "stop being a pure function of (config, seed) "
                        "— keep the container on the env/config object")


# -- DET009: host-tainted default argument / field default -----------------

@rule
class TaintedDefault(Rule):
    """Host-tainted default argument or dataclass field default.

    ``def f(t0=time.time())`` evaluates the default **once at import
    time** — every call shares one host timestamp that differs across
    processes, so parallel sweep workers disagree while each believes
    it is deterministic.  The same applies to dataclass field defaults
    and ``field(default_factory=<host source>)``.  Default to ``None``
    and fill from ``env.now`` / config inside the function.
    """

    id = "DET009"
    summary = "host-tainted default argument or field default"
    requires_index = True

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        index: ProjectIndex | None = getattr(self, "index", None)
        if index is None:
            return
        taint = TaintAnalysis.of(index)
        modname = module_name(mod.path)
        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None]
                for default in defaults:
                    reason = taint.expr_taint(modname, default, frozenset())
                    if reason is not None:
                        yield self.finding(
                            mod, default,
                            f"default for `{node.name}(...)` {reason}; "
                            "defaults evaluate once at import time — "
                            "default to None and fill from env/config "
                            "inside the function")
            elif isinstance(node, ast.ClassDef) and _is_dataclass(mod, node):
                for stmt in node.body:
                    value = getattr(stmt, "value", None)
                    if value is None:
                        continue
                    reason = taint.expr_taint(modname, value, frozenset())
                    if reason is None:
                        reason = _factory_taint(mod, index, taint,
                                                modname, value)
                    if reason is not None:
                        yield self.finding(
                            mod, value,
                            f"dataclass field default in `{node.name}` "
                            f"{reason}; field defaults evaluate at "
                            "import time — use "
                            "`field(default=None)` and fill from "
                            "env/config in __post_init__")


def _is_dataclass(mod: ModuleUnderLint, node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if mod.resolve(target) in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def _factory_taint(mod: ModuleUnderLint, index: ProjectIndex,
                   taint: TaintAnalysis, modname: str,
                   value: ast.AST) -> str | None:
    """Taint reason for ``field(default_factory=<host source>)``."""
    if not (isinstance(value, ast.Call)
            and mod.resolve(value.func) in ("field", "dataclasses.field")):
        return None
    for kw in value.keywords:
        if kw.arg != "default_factory":
            continue
        dotted = index.dotted(modname, kw.value)
        source = _is_source_name(dotted)
        if source is not None:
            return f"uses a default_factory that {source}"
        if dotted is not None:
            canon = index._canonical(dotted)
            if canon in taint.tainted_functions:
                return ("uses a default_factory that "
                        f"{taint.tainted_functions[canon]}")
    return None
