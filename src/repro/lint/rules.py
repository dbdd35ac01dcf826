"""The detlint rule catalog.

Each rule is an independent plugin: a subclass of :class:`Rule` with an
id, severity, one-line summary, applicable scopes, and a ``check``
method yielding :class:`~repro.lint.engine.Finding` objects for one
:class:`~repro.lint.engine.ModuleUnderLint`.  Registration happens via
the :func:`rule` decorator; ``active_rules()`` returns one instance of
every registered rule, and the CLI's ``--list-rules`` renders this
catalog from the classes' docstrings.

Every message is actionable: it names the sanctioned alternative
(``env.now``, ``sim/rng.py`` streams, ``sorted(...)``, ``env.process``,
the telemetry gate) rather than just pointing at the hazard.  See
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
    #: True when the rule reads the cross-module symbol table; such
    #: rules see a single-module index under :func:`lint_source` and
    #: the full project index under :func:`lint_paths`.
    requires_index: bool = False
    #: Injected by the engine before the rule pass (a
    #: :class:`repro.lint.callgraph.ProjectIndex`).
    index: _t.Any = None

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


def _is_generator_def(func: ast.AST) -> bool:
    return any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in _own_nodes(func))


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
class GlobalRandomModule(Rule):
    """The global ``random`` module instead of seeded rng streams.

    ``random.random()`` draws from interpreter-global state whose
    sequence depends on import order and everything else that touched
    it.  Every consumer must derive its own
    ``numpy.random.Generator`` via
    ``RandomTree(seed).generator("stable/label")`` (repro/sim/rng.py)
    so streams are independent and construction-order-insensitive.
    """

    id = "DET002"
    summary = "global `random` module used instead of sim/rng.py streams"

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "random" or a.name.startswith("random."):
                        yield self.finding(
                            mod, node,
                            "stdlib `random` is interpreter-global "
                            "state; derive a stream with "
                            "`RandomTree(seed).generator(label)` from "
                            "repro.sim.rng instead")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield self.finding(
                        mod, node,
                        "stdlib `random` is interpreter-global state; "
                        "derive a stream with "
                        "`RandomTree(seed).generator(label)` from "
                        "repro.sim.rng instead")


#: Call names through which iteration order escapes into simulation
#: state (scheduling, message emission, event completion).
_ORDER_SINKS = frozenset({
    "schedule", "send", "isend", "irecv", "recv", "put", "emit",
    "process", "succeed", "fail", "push", "transfer", "inject",
    "append", "appendleft",
})


@rule
class UnorderedIterationEscapes(Rule):
    """Iteration over an unordered set feeding simulation state.

    ``set`` iteration order depends on element hashes — for strings it
    changes with ``PYTHONHASHSEED``, so the same seed can schedule
    events (or emit messages, or accumulate floats) in a different
    order in another process.  Wrap the set in ``sorted(...)`` before
    iterating, or keep an ordered container.  ``dict.values()`` /
    ``.keys()`` iteration is insertion-ordered and only flagged when
    the loop body schedules or emits (insertion order itself may
    derive from an unordered source).
    """

    id = "DET003"
    summary = "unordered set/dict iteration escapes into sim state"

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        for node in ast.walk(mod.tree):
            iters: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(mod, it):
                    yield self.finding(
                        mod, node,
                        "iterating a set is hash-order-dependent "
                        "(varies with PYTHONHASHSEED across "
                        "processes); iterate `sorted(...)` of it or "
                        "use an ordered container")
            if isinstance(node, (ast.For, ast.AsyncFor)) \
                    and isinstance(node.iter, ast.Call) \
                    and isinstance(node.iter.func, ast.Attribute) \
                    and node.iter.func.attr in ("values", "keys") \
                    and not node.iter.args:
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Call) \
                            and isinstance(inner.func, ast.Attribute) \
                            and inner.func.attr in _ORDER_SINKS:
                        yield self.finding(
                            mod, node,
                            f"loop over `.{node.iter.func.attr}()` "
                            f"calls `.{inner.func.attr}(...)`: "
                            "scheduling/emission order inherits dict "
                            "insertion order — iterate "
                            "`sorted(d.items())` to pin it")
                        break


@rule
class ObjectIdentityOrdering(Rule):
    """``id()`` used for ordering or keying simulation state.

    ``id(obj)`` is an allocation address: it differs every run, so any
    ordering, dict key, or tie-break built on it is nondeterministic.
    Key on a stable identifier instead — node id, rank, or the
    ``seq`` counters that every event and message already carry.
    ``__repr__``/``__str__`` debug output is exempt.
    """

    id = "DET004"
    summary = "id()/object identity used in ordering or as a key"

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name) \
                        and node.func.id == "id" and len(node.args) == 1:
                    func = mod.enclosing_function(node)
                    if func is not None and func.name in ("__repr__",
                                                          "__str__"):
                        continue
                    yield self.finding(
                        mod, node,
                        "`id()` is an allocation address (differs "
                        "every run); key/order by a stable id (node "
                        "id, rank, `seq`) instead")
                for kw in node.keywords:
                    if kw.arg == "key" and isinstance(kw.value, ast.Name) \
                            and kw.value.id == "id":
                        yield self.finding(
                            mod, node,
                            "`key=id` sorts by allocation address; "
                            "sort by a stable attribute (e.g. "
                            "`key=lambda x: x.seq`) instead")


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


# -- simulation-protocol rules ---------------------------------------------

@rule
class DroppedGeneratorCall(Rule):
    """Process-generator called as a statement without ``env.process``.

    Calling a generator function only *creates* the generator — as a
    bare statement the object is dropped and the process silently
    never runs (the classic DES no-op bug).  Wrap the call:
    ``env.process(worker(...))``.
    """

    id = "SIM001"
    summary = "generator called as a statement (process never spawned)"

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        # Module-level generator functions, and generator methods per
        # class.  An Attribute call only matches through `self.` within
        # the defining class, so `other.send(...)` never trips on an
        # unrelated generator that happens to share the method name.
        class_of: dict[ast.AST, ast.ClassDef] = {}
        for cls in ast.walk(mod.tree):
            if isinstance(cls, ast.ClassDef):
                for child in ast.walk(cls):
                    class_of.setdefault(child, cls)
        module_gens: set[str] = set()
        method_gens: dict[ast.ClassDef, set[str]] = {}
        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and _is_generator_def(node):
                cls = class_of.get(node)
                if cls is None:
                    module_gens.add(node.name)
                else:
                    method_gens.setdefault(cls, set()).add(node.name)
        if not module_gens and not method_gens:
            return
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            callee = None
            if isinstance(func, ast.Name) and func.id in module_gens:
                callee = func.id
            elif isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "self":
                cls = class_of.get(node)
                if cls is not None and func.attr in method_gens.get(
                        cls, ()):
                    callee = func.attr
            if callee is not None:
                yield self.finding(
                    mod, node,
                    f"calling generator `{callee}(...)` as a bare "
                    "statement creates it and throws it away — the "
                    "process never runs; wrap it: "
                    f"`env.process({callee}(...))`")


@rule
class NonEventYield(Rule):
    """``yield`` of a plain value inside a registered process generator.

    A simulation process may only yield :class:`~repro.sim.Event`
    objects (``env.timeout(...)``, receive events, conditions); a bare
    ``yield`` or a yielded literal/tuple is not waitable and fails at
    dispatch.  Only generators that the module registers via
    ``env.process(...)``/``Process(...)`` are checked, so ordinary
    data-producing generators stay exempt.
    """

    id = "SIM002"
    summary = "yield of a non-Event value inside a process generator"

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        registered: set[str] = set()
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            is_spawn = ((isinstance(node.func, ast.Attribute)
                         and node.func.attr == "process")
                        or (isinstance(node.func, ast.Name)
                            and node.func.id == "Process"))
            if not is_spawn:
                continue
            for arg in node.args:
                target = arg.func if isinstance(arg, ast.Call) else arg
                if isinstance(target, ast.Name):
                    registered.add(target.id)
                elif isinstance(target, ast.Attribute):
                    registered.add(target.attr)
        if not registered:
            return
        for node in ast.walk(mod.tree):
            if not (isinstance(node, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))
                    and node.name in registered):
                continue
            for inner in _own_nodes(node):
                if not isinstance(inner, ast.Yield):
                    continue
                value = inner.value
                if value is None or isinstance(
                        value, (ast.Constant, ast.Tuple, ast.List,
                                ast.Dict, ast.Set)):
                    yield self.finding(
                        mod, inner,
                        f"process generator `{node.name}` yields a "
                        "plain value — processes may only yield Event "
                        "objects (`env.timeout(...)`, recv events, "
                        "conditions)")


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
from . import taint as _taint  # noqa: E402,F401
