"""Async/concurrency rules (ASYNC001–ASYNC005) for the serve/obs plane.

The experiment service (PRs 7–9) mixes an asyncio event loop, a worker
pool, daemon threads (the ``repro top`` sampler, ``BackgroundServer``),
and contextvars — exactly the soup where liveness and data-race bugs
hide from per-function review.  These rules encode the concurrency
discipline the service relies on:

* **ASYNC001** — a blocking call (``time.sleep``, sync socket/file IO,
  ``subprocess``, a future's ``.result()``/``.exception()``) inside a
  coroutine stalls the whole event loop, not one request.
* **ASYNC002** — a coroutine called as a bare statement is created and
  garbage-collected without ever running (the asyncio analogue of the
  dropped-generator bug of a discrete-event process).
* **ASYNC003** — a task handle dropped on the floor: the task can be
  garbage-collected mid-flight and its exception is silently lost.
* **ASYNC004** — instance/module state touched from both a
  ``threading.Thread`` target and code outside it without a lock,
  queue, or sync primitive (the snapshot-ring / background-server
  handshake pattern).
* **ASYNC005** — ``ContextVar.set`` without a token ``reset`` in a
  ``finally``: the context leaks across requests served by the same
  task.

All five apply to **every** scope (sim, host, neutral): concurrency
hazards do not care about the determinism scope map.
"""

from __future__ import annotations

import ast
import typing as _t

from .engine import Finding, ModuleUnderLint
from .rules import MUTATOR_METHODS, Rule, rule, _own_nodes

__all__ = ["BLOCKING_CALLS"]

#: Fully qualified callables that block the calling thread.
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "os.system", "os.popen", "os.waitpid", "os.wait",
    "socket.create_connection", "socket.gethostbyname",
    "socket.getaddrinfo",
    "urllib.request.urlopen",
    "input",
})

#: Dotted prefixes that block (any call under them).
BLOCKING_PREFIXES = ("subprocess.", "requests.")

#: Attribute method names that are synchronous file IO when called
#: inside a coroutine (``Path.read_text`` and friends).
_BLOCKING_IO_METHODS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
})

#: Constructors whose instances are safe to share across threads
#: (they synchronize internally), exempting the attribute from
#: ASYNC004.
_SYNC_PRIMITIVE_CTORS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Event", "threading.Semaphore",
    "threading.BoundedSemaphore", "threading.Barrier",
    "queue.Queue", "queue.SimpleQueue", "queue.LifoQueue",
    "queue.PriorityQueue", "collections.deque",
    "asyncio.Event", "asyncio.Queue", "asyncio.Lock",
})

_LOCK_CTORS = frozenset({"threading.Lock", "threading.RLock",
                         "threading.Condition"})


#: Future methods that wait for the outcome when it is not there yet.
_FUTURE_WAITS = frozenset({"result", "exception"})


def _iter_coroutines(mod: ModuleUnderLint) -> _t.Iterator[ast.AsyncFunctionDef]:
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.AsyncFunctionDef):
            yield node


@rule
class BlockingCallInCoroutine(Rule):
    """Blocking call inside a coroutine (stalls the whole event loop).

    ``time.sleep``, ``subprocess`` calls, synchronous sockets,
    direct file IO, and a future's ``.result()`` / ``.exception()``
    inside an ``async def`` block every task on the loop, not just the
    current request.  Use ``await asyncio.sleep(...)``,
    ``loop.run_in_executor`` / ``asyncio.to_thread`` for CPU or file
    work, asyncio transports for sockets, and ``await
    asyncio.wrap_future(fut)`` for a pool future.  A future read in the
    true branch of ``if <same>.done():`` is already resolved and
    passes.
    """

    id = "ASYNC001"
    summary = "blocking call inside a coroutine"
    scopes = ("*",)

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        for coro in _iter_coroutines(mod):
            for node in _own_nodes(coro):
                if not isinstance(node, ast.Call):
                    continue
                name = mod.resolve(node.func)
                hit = None
                if name in BLOCKING_CALLS:
                    hit = name
                elif name is not None and any(
                        name.startswith(p) for p in BLOCKING_PREFIXES):
                    hit = name
                elif isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _BLOCKING_IO_METHODS:
                    hit = f"<path>.{node.func.attr}"
                elif isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _FUTURE_WAITS \
                        and not _under_done_check(mod, node, coro):
                    hit = f"<future>.{node.func.attr}"
                if hit is not None:
                    fix = ("`await asyncio.sleep(...)`"
                           if name == "time.sleep" else
                           "`await asyncio.wrap_future(...)`, or read it "
                           "under `if <future>.done():`"
                           if hit.startswith("<future>") else
                           "`await asyncio.to_thread(...)` / "
                           "`loop.run_in_executor(...)`")
                    yield self.finding(
                        mod, node,
                        f"`{hit}(...)` blocks the event loop inside "
                        f"coroutine `{coro.name}`; every task on the "
                        f"loop stalls — use {fix}")


def _under_done_check(mod: ModuleUnderLint, call: ast.Call,
                      coro: ast.AsyncFunctionDef) -> bool:
    """True when ``call`` (``<f>.result()``) sits in the true branch
    of an ``if <f>.done():`` (alone or in an ``and``) inside ``coro``."""
    target = ast.dump(call.func.value)

    def checks_done(test: ast.AST) -> bool:
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            return any(checks_done(v) for v in test.values)
        return (isinstance(test, ast.Call) and not test.args
                and isinstance(test.func, ast.Attribute)
                and test.func.attr == "done"
                and ast.dump(test.func.value) == target)

    child: ast.AST = call
    parent = mod.parents.get(call)
    while parent is not None and parent is not coro:
        if isinstance(parent, ast.If) and child in parent.body \
                and checks_done(parent.test):
            return True
        child, parent = parent, mod.parents.get(parent)
    return False


@rule
class CoroutineNeverAwaited(Rule):
    """Coroutine called as a bare statement — it never runs.

    Calling an ``async def`` only *creates* the coroutine object; as a
    bare expression statement it is dropped and garbage-collected
    without executing (Python warns at runtime only if warnings are
    enabled and the GC runs).  ``await`` it, wrap it in
    ``asyncio.create_task(...)`` and keep the handle, or hand it to
    ``asyncio.run(...)``.
    """

    id = "ASYNC002"
    summary = "coroutine created but never awaited or stored"
    scopes = ("*",)

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        # Async defs at module level and per class (self.method calls).
        class_of: dict[ast.AST, ast.ClassDef] = {}
        for cls in ast.walk(mod.tree):
            if isinstance(cls, ast.ClassDef):
                for child in ast.walk(cls):
                    class_of.setdefault(child, cls)
        module_coros: set[str] = set()
        method_coros: dict[ast.ClassDef, set[str]] = {}
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                cls = class_of.get(node)
                if cls is None:
                    module_coros.add(node.name)
                else:
                    method_coros.setdefault(cls, set()).add(node.name)
        if not module_coros and not method_coros:
            return
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            callee = None
            if isinstance(func, ast.Name) and func.id in module_coros:
                callee = func.id
            elif isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "self":
                cls = class_of.get(node)
                if cls is not None and func.attr in method_coros.get(
                        cls, ()):
                    callee = func.attr
            if callee is not None:
                yield self.finding(
                    mod, node,
                    f"calling coroutine `{callee}(...)` as a bare "
                    "statement creates it and throws it away — it "
                    f"never runs; `await {callee}(...)` or keep a "
                    "task handle")


@rule
class DroppedTaskHandle(Rule):
    """``create_task`` / ``ensure_future`` result dropped on the floor.

    A task whose only reference is the loop's weak set can be
    garbage-collected mid-flight, and its exception is swallowed when
    it is.  Keep the handle (``self._tasks.add(t)`` with a done
    callback to discard, or ``await`` it before scope exit).
    """

    id = "ASYNC003"
    severity = "warning"
    summary = "asyncio task handle dropped (fire-and-forget)"
    scopes = ("*",)

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            name = mod.resolve(func)
            is_spawn = name in ("asyncio.create_task",
                                "asyncio.ensure_future")
            if not is_spawn and isinstance(func, ast.Attribute) \
                    and func.attr in ("create_task", "ensure_future"):
                is_spawn = True
            if is_spawn:
                yield self.finding(
                    mod, node,
                    "task handle dropped: the task may be "
                    "garbage-collected mid-flight and its exception "
                    "silently lost — store the handle (and discard it "
                    "in a done callback) or await it")


def _self_attr(node: ast.AST) -> str | None:
    """``X`` for an ``self.X`` attribute expression, else ``None``."""
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def _is_guarded(mod: ModuleUnderLint, node: ast.AST,
                lock_attrs: set[str]) -> bool:
    """True when ``node`` sits under ``with self.<lock>:``."""
    cur: ast.AST | None = node
    while cur is not None:
        cur = mod.parents.get(cur)
        if isinstance(cur, (ast.With, ast.AsyncWith)):
            for item in cur.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    expr = expr.func
                attr = _self_attr(expr)
                if attr is not None and attr in lock_attrs:
                    return True
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
    return False


class _AttrAccess(_t.NamedTuple):
    attr: str
    node: ast.AST
    write: bool
    guarded: bool


def _method_accesses(mod: ModuleUnderLint, fn: ast.AST,
                     lock_attrs: set[str]) -> list[_AttrAccess]:
    out: list[_AttrAccess] = []
    for node in _own_nodes(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                attr = _self_attr(t)
                if attr is not None:
                    out.append(_AttrAccess(
                        attr, node, True,
                        _is_guarded(mod, node, lock_attrs)))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATOR_METHODS:
            attr = _self_attr(node.func.value)
            if attr is not None:
                out.append(_AttrAccess(
                    attr, node, True, _is_guarded(mod, node, lock_attrs)))
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            attr = _self_attr(node)
            if attr is not None:
                out.append(_AttrAccess(
                    attr, node, False, _is_guarded(mod, node, lock_attrs)))
    return out


@rule
class UnsynchronizedSharedState(Rule):
    """Instance/module state shared between a thread and other code
    without a lock, queue, or sync primitive.

    The ``BackgroundServer`` handshake and the ``repro top`` sampler
    both run a thread next to the event loop; any attribute written in
    the thread target and read elsewhere (or vice versa) is a data
    race unless it is a sync primitive (``Event``, ``Queue``,
    ``deque``) or every access holds a shared ``threading.Lock``.
    ``__init__`` writes are exempt — they happen-before the thread
    starts.
    """

    id = "ASYNC004"
    summary = "thread-shared state accessed without a lock or queue"
    scopes = ("*",)

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        yield from self._check_classes(mod)
        yield from self._check_module_globals(mod)

    # -- instance attributes ----------------------------------------------
    def _check_classes(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        for cls in ast.walk(mod.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {n.name: n for n in cls.body
                       if isinstance(n, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))}
            thread_roots = self._thread_target_methods(mod, cls)
            if not thread_roots:
                continue
            thread_methods = self._transitive(methods, thread_roots)
            exempt, lock_attrs = self._primitive_attrs(mod, cls)
            accesses: dict[str, list[_AttrAccess]] = {}
            for name, fn in methods.items():
                accesses[name] = _method_accesses(mod, fn, lock_attrs)
            seen: set[str] = set()
            for tname in sorted(thread_methods):
                if tname == "__init__":
                    continue
                for acc in accesses.get(tname, []):
                    if acc.attr in exempt or acc.attr in seen \
                            or acc.guarded:
                        continue
                    other = self._other_side(
                        accesses, thread_methods, acc, want_write=not
                        acc.write)
                    if other is None:
                        continue
                    other_name, other_acc = other
                    if not (acc.write or other_acc.write):
                        continue
                    seen.add(acc.attr)
                    yield self.finding(
                        mod, acc.node,
                        f"`self.{acc.attr}` is "
                        f"{'written' if acc.write else 'read'} in "
                        f"thread-target `{tname}` and "
                        f"{'written' if other_acc.write else 'read'} "
                        f"in `{other_name}` on another thread with no "
                        "lock — guard both sides with a shared "
                        "`threading.Lock` or hand the value over via "
                        "a queue/Event")

    @staticmethod
    def _other_side(accesses: dict[str, list[_AttrAccess]],
                    thread_methods: set[str], acc: _AttrAccess,
                    want_write: bool) -> tuple[str, _AttrAccess] | None:
        """An unguarded access to the same attr outside the thread
        context (prefer a write when the thread side only reads)."""
        fallback: tuple[str, _AttrAccess] | None = None
        for name, accs in sorted(accesses.items()):
            if name in thread_methods or name == "__init__":
                continue
            for other in accs:
                if other.attr != acc.attr or other.guarded:
                    continue
                if other.write or not want_write:
                    return name, other
                fallback = fallback or (name, other)
        return None if want_write else fallback

    @staticmethod
    def _transitive(methods: dict[str, ast.AST],
                    roots: set[str]) -> set[str]:
        """Thread-context methods: the targets plus every method they
        reach through ``self.x(...)`` calls."""
        out = set(roots)
        frontier = list(roots)
        while frontier:
            fn = methods.get(frontier.pop())
            if fn is None:
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    attr = _self_attr(node.func)
                    if attr in methods and attr not in out:
                        out.add(attr)
                        frontier.append(attr)
        return out

    @staticmethod
    def _thread_target_methods(mod: ModuleUnderLint,
                               cls: ast.ClassDef) -> set[str]:
        out: set[str] = set()
        for node in ast.walk(cls):
            if not isinstance(node, ast.Call):
                continue
            if mod.resolve(node.func) != "threading.Thread":
                continue
            for kw in node.keywords:
                if kw.arg == "target":
                    attr = _self_attr(kw.value)
                    if attr is not None:
                        out.add(attr)
        return out

    @staticmethod
    def _primitive_attrs(mod: ModuleUnderLint,
                         cls: ast.ClassDef) -> tuple[set[str], set[str]]:
        """(attrs bound to sync primitives, attrs bound to locks)."""
        exempt: set[str] = set()
        locks: set[str] = set()
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            ctor = mod.resolve(node.value.func)
            if ctor not in _SYNC_PRIMITIVE_CTORS:
                continue
            for t in node.targets:
                attr = _self_attr(t)
                if attr is not None:
                    exempt.add(attr)
                    if ctor in _LOCK_CTORS:
                        locks.add(attr)
        return exempt, locks

    # -- module globals ----------------------------------------------------
    def _check_module_globals(self, mod: ModuleUnderLint,
                              ) -> _t.Iterator[Finding]:
        """Global mutated in a module-level thread target and touched
        from a coroutine in the same module."""
        targets: set[str] = set()
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call) \
                    and mod.resolve(node.func) == "threading.Thread":
                for kw in node.keywords:
                    if kw.arg == "target" \
                            and isinstance(kw.value, ast.Name):
                        targets.add(kw.value.id)
        if not targets:
            return
        funcs = {n.name: n for n in mod.tree.body
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        mutated: dict[str, ast.AST] = {}
        for tname in sorted(targets & set(funcs)):
            for node in _own_nodes(funcs[tname]):
                if isinstance(node, ast.Global):
                    continue
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    tgts = (node.targets if isinstance(node, ast.Assign)
                            else [node.target])
                    for t in tgts:
                        if isinstance(t, ast.Subscript) \
                                and isinstance(t.value, ast.Name):
                            mutated.setdefault(t.value.id, node)
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in MUTATOR_METHODS \
                        and isinstance(node.func.value, ast.Name):
                    mutated.setdefault(node.func.value.id, node)
        if not mutated:
            return
        coro_reads: set[str] = set()
        for coro in _iter_coroutines(mod):
            for node in _own_nodes(coro):
                if isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Load):
                    coro_reads.add(node.id)
        for name in sorted(set(mutated) & coro_reads):
            yield self.finding(
                mod, mutated[name],
                f"module global `{name}` is mutated in thread target "
                "and touched from a coroutine with no lock — share "
                "through a queue.Queue / deque or guard both sides "
                "with one threading.Lock")


@rule
class ContextVarNoReset(Rule):
    """``ContextVar.set`` without a token reset in a ``finally``.

    A set token that is dropped — or reset outside a ``finally`` —
    leaks the new value into whatever the task runs next: request ids
    bleed across requests served by the same worker task.  Follow the
    established pattern: ``token = var.set(v); try: ...; finally:
    var.reset(token)``.
    """

    id = "ASYNC005"
    severity = "warning"
    summary = "ContextVar.set without token reset in a finally"
    scopes = ("*",)

    def check(self, mod: ModuleUnderLint) -> _t.Iterator[Finding]:
        ctxvars = self._context_var_names(mod)
        if not ctxvars:
            return
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "set"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ctxvars):
                continue
            varname = node.func.value.id
            parent = mod.parents.get(node)
            if isinstance(parent, ast.Expr):
                yield self.finding(
                    mod, node,
                    f"`{varname}.set(...)` token dropped — the old "
                    "value can never be restored; keep the token and "
                    f"`{varname}.reset(token)` in a finally")
                continue
            func = mod.enclosing_function(node)
            if func is None:
                continue
            if not self._reset_in_finally(func, varname):
                yield self.finding(
                    mod, node,
                    f"`{varname}.set(...)` has no matching "
                    f"`{varname}.reset(token)` in a finally; the "
                    "context leaks into the next thing this task "
                    "runs — wrap in try/finally")

    @staticmethod
    def _context_var_names(mod: ModuleUnderLint) -> set[str]:
        """Names bound to a ``ContextVar(...)``, annotated or not."""
        out: set[str] = set()
        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) \
                    and isinstance(node.value, ast.Call) \
                    and mod.resolve(node.value.func) in (
                        "contextvars.ContextVar", "ContextVar"):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for t in targets:
                    if isinstance(t, ast.Name):
                        out.add(t.id)
        return out

    @staticmethod
    def _reset_in_finally(func: ast.AST, varname: str) -> bool:
        for node in _own_nodes(func):
            if not isinstance(node, ast.Try) or not node.finalbody:
                continue
            for stmt in node.finalbody:
                for inner in ast.walk(stmt):
                    if isinstance(inner, ast.Call) \
                            and isinstance(inner.func, ast.Attribute) \
                            and inner.func.attr == "reset" \
                            and isinstance(inner.func.value, ast.Name) \
                            and inner.func.value.id == varname:
                        return True
        return False
