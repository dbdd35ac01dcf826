"""The detlint rule catalog.

Each rule is an independent plugin: a subclass of :class:`Rule` with an
id, severity, one-line summary, applicable scopes, and a ``check``
method yielding :class:`~repro.lint.engine.Finding` objects for one
:class:`~repro.lint.engine.ModuleUnderLint`.  Registration happens via
the :func:`rule` decorator; ``active_rules()`` returns one instance of
every registered rule, and the CLI's ``--list-rules`` renders this
catalog from the classes' docstrings.

Every message is actionable: it names the sanctioned alternative
(``env.now``, ``sim/rng.py`` streams, ``sorted(...)``, per-run state
on the env/config object, the telemetry gate) rather than just pointing
at the hazard.  See
docs/STATIC_ANALYSIS.md for one bad/good example per rule.
"""

from __future__ import annotations

import ast
import typing as _t

from .engine import Finding, ModuleUnderLint

__all__ = ["Rule", "rule", "active_rules", "rule_catalog", "RULES"]


class Rule:
    """Base class for one named, suppressible check."""

    id: str = ""
    severity: str = "error"
    summary: str = ""
    #: Module scopes the rule applies to ("sim", "host", "neutral",
    #: or "*" for every scope).
    scopes: tuple[str, ...] = ("sim",)

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract

    def finding(self, mod: ModuleUnderLint, node: ast.AST,
                message: str) -> Finding:
        return Finding(self.id, self.severity, mod.path,
                       getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0), message)


#: rule id -> rule class (the plugin registry).
RULES: dict[str, type[Rule]] = {}


def rule(cls: type[Rule]) -> type[Rule]:
    """Register a rule class under its id."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls
    return cls


def active_rules(ids: _t.Iterable[str] | None = None) -> list[Rule]:
    """One instance of every registered rule (or the named subset)."""
    if ids is None:
        return [cls() for _rid, cls in sorted(RULES.items())]
    return [RULES[rid]() for rid in ids]


def rule_catalog() -> list[dict[str, _t.Any]]:
    """Stable description of every rule (id, severity, summary, doc)."""
    return [{"id": rid, "severity": cls.severity, "summary": cls.summary,
             "scopes": ",".join(cls.scopes),
             "doc": (cls.__doc__ or "").strip()}
            for rid, cls in sorted(RULES.items())]


# -- shared AST helpers ----------------------------------------------------

def _is_set_expr(mod: ModuleUnderLint, node: ast.AST) -> bool:
    """True for expressions that evaluate to an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return mod.resolve(node.func) in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_set_expr(mod, node.left)
                or _is_set_expr(mod, node.right))
    return False


def _own_nodes(func: ast.AST) -> _t.Iterator[ast.AST]:
    """Walk a function body without descending into nested defs."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


_GATE_TOKENS = ("metrics", "tracer", "enabled", "_trace", "telemetry")


def _is_gated(mod: ModuleUnderLint, node: ast.AST) -> bool:
    """True if ``node`` sits under a telemetry-gate conditional.

    Recognizes both gate shapes established in the codebase: a direct
    conditional (``if self._metrics and ...:``, ``if tracer is not
    None:``) anywhere up the ancestor chain, and the early-return guard
    (``if not _obs.metrics_enabled(): return``) earlier in the
    enclosing function.
    """
    cur: ast.AST | None = node
    while cur is not None:
        parent = mod.parents.get(cur)
        if isinstance(parent, (ast.If, ast.IfExp, ast.While)) \
                and cur is not getattr(parent, "test", None):
            test_src = ast.unparse(parent.test)
            if any(tok in test_src for tok in _GATE_TOKENS):
                return True
        cur = parent
    func = mod.enclosing_function(node)
    if func is not None:
        for stmt in func.body:
            if getattr(stmt, "lineno", 10**9) >= getattr(node, "lineno", 0):
                break
            if isinstance(stmt, ast.If) \
                    and any(isinstance(s, (ast.Return, ast.Raise))
                            for s in stmt.body):
                test_src = ast.unparse(stmt.test)
                if any(tok in test_src for tok in _GATE_TOKENS):
                    return True
    return False


# -- determinism rules -----------------------------------------------------

#: Fully qualified callables that read the host clock or host entropy.
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "random.SystemRandom",
})


@rule
class WallClockOrEntropy(Rule):
    """Wall-clock or host-entropy source in sim-scoped code.

    Simulated time is ``env.now`` (integer nanoseconds from
    :mod:`repro.sim.timebase`); randomness comes from label-derived
    :mod:`repro.sim.rng` streams.  A ``time.time()`` or ``uuid4()``
    call inside ``sim/``, ``net/``, ``mpi/``, ``noise/``, ``faults/``,
    ``ktau/`` or ``obs/`` injects host state into results, breaking
    seed-reproducibility and the quiet-vs-noisy diffs built on it.
    Host-scoped modules (``parallel/``, ``harness/``, ``cli.py``) are
    exempt via the scope map.
    """

    id = "DET001"
    summary = "wall-clock/entropy call in sim-scoped module"

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            name = mod.resolve(node.func)
            if name is None:
                continue
            if name in _WALL_CLOCK_CALLS or name.startswith("secrets."):
                yield self.finding(
                    mod, node,
                    f"`{name}()` reads host time/entropy; use `env.now` "
                    "(sim.timebase) for time or a `sim/rng.py` "
                    "label-derived stream for randomness, or move this "
                    "to a host-scoped module (parallel/, harness/, "
                    "cli.py)")


@rule
class FloatSumOverUnordered(Rule):
    """Float accumulation over an unordered iterable.

    Float addition is not associative: ``sum()`` over a set (or a
    generator drawing from one) can give different low bits in
    different processes because the iteration order varies with
    element hashes.  Materialize an order first —
    ``sum(sorted(xs))`` — or accumulate over an ordered sequence.
    """

    id = "DET005"
    summary = "sum()/fsum() over a set expression (order-dependent floats)"

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            name = mod.resolve(node.func)
            if name not in ("sum", "math.fsum"):
                continue
            arg = node.args[0]
            hazard = _is_set_expr(mod, arg) or (
                isinstance(arg, (ast.GeneratorExp, ast.ListComp))
                and any(_is_set_expr(mod, gen.iter)
                        for gen in arg.generators))
            if hazard:
                yield self.finding(
                    mod, node,
                    f"`{name}()` over a set accumulates floats in "
                    "hash order; wrap the set in `sorted(...)` (or "
                    "accumulate over an ordered sequence) so the "
                    "result is bit-stable")


@rule
class EnvironRead(Rule):
    """Host environment read inside sim-scoped code.

    ``os.environ`` / ``os.getenv`` make simulation behaviour depend on
    the launching shell.  Configuration must flow through
    ``ExperimentConfig`` / ``MachineConfig`` fields so a config object
    fully determines the run (and the result cache key stays honest).
    """

    id = "DET006"
    summary = "os.environ/os.getenv read in sim-scoped module"

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        for node in ast.walk(mod.tree):
            name = None
            if isinstance(node, ast.Attribute):
                name = mod.resolve(node)
                if name != "os.environ":
                    name = None
            elif isinstance(node, ast.Call):
                name = mod.resolve(node.func)
                if name != "os.getenv":
                    name = None
            if name:
                yield self.finding(
                    mod, node,
                    f"`{name}` couples simulation behaviour to the "
                    "launching shell; plumb the value through "
                    "`ExperimentConfig`/`MachineConfig` instead")


#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "update", "setdefault", "pop",
    "popleft", "popitem", "clear", "extend", "insert", "remove",
    "discard", "sort", "reverse",
})

_MUTABLE_CTORS = frozenset({
    "dict", "list", "set", "collections.defaultdict",
    "collections.OrderedDict", "collections.deque", "collections.Counter",
})


def _module_bindings(body: list[ast.stmt]
                     ) -> _t.Iterator[tuple[str, ast.expr]]:
    """``(name, value)`` of every module-level assignment, including
    those under module-level ``if``/``try`` (TYPE_CHECKING guards,
    version fallbacks)."""
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    yield target.id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                and isinstance(stmt.target, ast.Name):
            yield stmt.target.id, stmt.value
        elif isinstance(stmt, ast.If):
            yield from _module_bindings(stmt.body + stmt.orelse)
        elif isinstance(stmt, ast.Try):
            yield from _module_bindings(
                stmt.body + stmt.orelse + stmt.finalbody
                + [s for h in stmt.handlers for s in h.body])


def _mutable_globals(mod: ModuleUnderLint) -> set[str]:
    """Module-level names bound to mutable containers."""
    return {name for name, value in _module_bindings(mod.tree.body)
            if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                  ast.ListComp, ast.SetComp))
            or (isinstance(value, ast.Call)
                and mod.resolve(value.func) in _MUTABLE_CTORS)}


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

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        mutable = _mutable_globals(mod)
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
                        and node.func.attr in MUTATOR_METHODS \
                        and isinstance(node.func.value, ast.Name) \
                        and node.func.value.id in mutable \
                        and node.func.value.id not in locals_:
                    yield self.finding(
                        mod, node,
                        f"`{node.func.value.id}.{node.func.attr}(...)` "
                        "mutates a module global from sim code; runs "
                        "stop being a pure function of (config, seed) "
                        "— keep the container on the env/config object")


# -- performance rule ------------------------------------------------------

_EXEMPT_BASE_SUFFIXES = ("Exception", "Error", "Warning")
_EXEMPT_BASES = frozenset({"Protocol", "Enum", "IntEnum", "NamedTuple",
                           "TypedDict"})


@rule
class MissingSlots(Rule):
    """Hot-path class without ``__slots__``.

    Classes in the event-dispatch hot path (``sim/core.py``,
    ``sim/events.py``, ``sim/process.py``, ``sim/resources.py``,
    ``net/message.py``) are instantiated per event/message; a
    ``__dict__`` per instance costs allocation and cache misses in the
    tightest loops.  Declare ``__slots__`` (or use
    ``@dataclass(slots=True)``).  Exception classes are exempt.
    """

    id = "PERF001"
    severity = "warning"
    summary = "hot-path class missing __slots__"
    scopes = ("sim", "host")

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        if not mod.is_hot_path:
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            base_names = [b for b in (mod.resolve(base)
                                      for base in node.bases) if b]
            if any(b.split(".")[-1] in _EXEMPT_BASES
                   or b.endswith(_EXEMPT_BASE_SUFFIXES)
                   for b in base_names):
                continue
            has_slots = any(
                isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets)
                for stmt in node.body)
            for deco in node.decorator_list:
                if isinstance(deco, ast.Call) \
                        and mod.resolve(deco.func) in (
                            "dataclass", "dataclasses.dataclass") \
                        and any(kw.arg == "slots"
                                and isinstance(kw.value, ast.Constant)
                                and kw.value.value is True
                                for kw in deco.keywords):
                    has_slots = True
            if not has_slots:
                yield self.finding(
                    mod, node,
                    f"hot-path class `{node.name}` has no __slots__; "
                    "declare `__slots__ = (...)` (or "
                    "`@dataclass(slots=True)`) to avoid a per-instance "
                    "__dict__ in the event-dispatch path")


_RANK_COUNT_TOKENS = ("n_nodes", "n_ranks", "nodes", "ranks")
_PRECOMPUTE_HINTS = ("matrix", "precompute", "diameter", "table")


def _is_rank_count_name(name: str) -> bool:
    low = name.lower()
    return low in ("p", "world_size") or any(
        tok in low for tok in _RANK_COUNT_TOKENS)


def _is_range_over_ranks(mod: ModuleUnderLint, iter_expr: ast.AST) -> bool:
    """True for ``range(...)`` whose bound mentions a rank/node count."""
    if not (isinstance(iter_expr, ast.Call)
            and mod.resolve(iter_expr.func) == "range"):
        return False
    for arg in iter_expr.args:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Name) and _is_rank_count_name(sub.id):
                return True
            if isinstance(sub, ast.Attribute) \
                    and _is_rank_count_name(sub.attr):
                return True
    return False


@rule
class AllPairsRankLoop(Rule):
    """O(n²) all-pairs loop over ranks outside the topology precompute.

    A Python loop nested ``range(n_nodes)`` × ``range(n_nodes)`` costs
    ~10¹⁰ iterations at 100k ranks — the exact cost class the
    precomputed extra-latency matrix and the vectorized
    ``extra_cost_vec`` / bulk-rank engine exist to avoid.  Express
    pair computations as numpy array operations, or route them through
    the topology's cached matrix (builders named ``*matrix*``,
    ``*precompute*``, ``*diameter*``, ``*table*`` are the sanctioned
    cache-fill exemption).
    """

    id = "PERF002"
    severity = "warning"
    summary = "all-pairs rank loop outside topology precompute"
    scopes = ("sim", "host")

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        for outer in ast.walk(mod.tree):
            if not (isinstance(outer, ast.For)
                    and _is_range_over_ranks(mod, outer.iter)):
                continue
            func = mod.enclosing_function(outer)
            fname = getattr(func, "name", "")
            if any(hint in fname.lower() for hint in _PRECOMPUTE_HINTS):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, ast.For):
                    continue
                if _is_range_over_ranks(mod, inner.iter):
                    yield self.finding(
                        mod, inner,
                        "nested range loop over the rank/node count is "
                        "O(n^2) in machine size; vectorize with numpy "
                        "(extra_cost_vec / the bulk engine) or move it "
                        "into a cached *matrix*/*table* precompute "
                        "builder")
                    break


# -- observability rule ----------------------------------------------------

_TRACER_METHODS = frozenset({
    "instant", "complete", "host_span", "flow_start", "flow_finish",
    "next_flow_id",
})


@rule
class UngatedTelemetry(Rule):
    """Metrics/trace call not behind the enabled-gate pattern.

    Instrumentation must be free when telemetry is off: every
    ``registry()`` access and tracer emission in instrumented code
    sits behind ``if self._metrics:`` / ``if not
    _obs.metrics_enabled(): return`` / ``if tracer is not None:``
    (the gate pattern PR 3 established).  An ungated call pays the
    telemetry cost on every run and can even perturb results if it
    allocates differently.  The :mod:`repro.obs` package itself (the
    implementation) is exempt.
    """

    id = "OBS001"
    severity = "warning"
    summary = "metrics/trace call not behind the enabled-gate"
    scopes = ("sim", "host")

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        # The gate discipline is for instrumented product code; the
        # obs/lint implementation and tests/benchmarks (which exercise
        # the registry directly, on purpose) are exempt.
        if mod.path.startswith(("repro/obs/", "repro/lint/")) \
                or not mod.path.startswith("repro/"):
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            name = mod.resolve(node.func)
            is_registry = name is not None and (
                name == "registry" or name.endswith(".registry"))
            if is_registry:
                # Read-outs (rendering/snapshotting at the end of a
                # command) are not instrumentation points; only feeding
                # the registry needs the gate.
                parent = mod.parents.get(node)
                if isinstance(parent, ast.Attribute) \
                        and parent.attr in ("snapshot", "render"):
                    is_registry = False
            is_tracer_op = (isinstance(node.func, ast.Attribute)
                            and node.func.attr in _TRACER_METHODS
                            and "trac" in ast.unparse(node.func.value))
            if is_tracer_op:
                # A function that *receives* the tracer as a parameter
                # is only ever called from a gated site — the caller
                # holds the gate (e.g. `_traced_collective`).
                func = mod.enclosing_function(node)
                if func is not None and any(
                        "trac" in a.arg for a in func.args.args):
                    is_tracer_op = False
            if (is_registry or is_tracer_op) and not _is_gated(mod, node):
                what = "registry()" if is_registry else \
                    f"tracer .{node.func.attr}(...)"
                yield self.finding(
                    mod, node,
                    f"{what} call is not behind a telemetry gate; "
                    "guard with `if self._metrics:` / `if not "
                    "_obs.metrics_enabled(): return` / `if tracer is "
                    "not None:` so the disabled path stays free")


# Pull in the rule-pack submodules for their registration side effect
# (they import ``Rule``/``rule`` from here, so this sits at the bottom
# of the module to keep the import cycle one-way at definition time).
from . import rules_async as _rules_async  # noqa: E402,F401
