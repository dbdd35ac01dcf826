"""Per-layer tracing from outside the program.

:class:`LayerTracer` replaces public functions of the program's layers
with wrappers that count calls and time them.  Timed wrappers nest: each
keeps the time of the wrapped spans it encloses, so a span's *self* time
is its duration minus its children's.  Spans and counts stay in memory;
:meth:`LayerTracer.uninstall` puts every original function back.

Which functions are wrapped, and how their numbers become the per-layer
metrics, is decided by :func:`install_des_layers` (simulator layers,
used in the benchmark process) and :func:`install_serve_layers` (server
process, installed by ``serve_launcher.py`` before the pool forks).
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
import typing as _t
from collections import Counter, defaultdict

Hook = _t.Callable[..., _t.Any]


class LayerTracer:
    """Counts, inclusive time and self time per span name."""

    def __init__(self, *, threadsafe: bool = False) -> None:
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: Exact counts read from the program's own counters.
        self.counts: Counter[str] = Counter()
        # Open spans' accumulated child time (one thread only).
        self._stack: list[float] = []
        # Open calls per span name: a span nested in itself (a recursive
        # or layered call) adds to total_s only at its outermost level.
        self._depth: Counter[str] = Counter()
        self._undo: list[tuple[object, str, object]] = []
        #: Wrap targets the program no longer has (their metrics read 0).
        self.missing: list[str] = []
        self._lock = threading.Lock() if threadsafe else None

    def wrap(self, owner: object, attr: str, name: str, *,
             timed: bool = True, before: Hook | None = None,
             after: Hook | None = None,
             on_error: Hook | None = None) -> None:
        """Replace ``owner.attr`` by a counting (and timing) wrapper.

        ``before(args, kwargs)`` runs first; its return value is passed
        as ``after(token, result, args, kwargs)`` once the call returns,
        and ``on_error(exc)`` sees an exception before it propagates.
        """
        found = vars(owner)
        if attr not in found:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        orig = found[attr]
        calls = self.calls
        if not timed:
            def counted(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)
            wrapper = counted
        elif self._lock is not None:
            wrapper = self._threadsafe(orig, name)
        else:
            wrapper = self._nested(orig, name, before, after, on_error)
        functools.update_wrapper(wrapper, orig)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def _nested(self, orig, name: str, before: Hook | None,
                after: Hook | None, on_error: Hook | None):
        calls, total, own, stack, depth = (self.calls, self.total_s,
                                           self.self_s, self._stack,
                                           self._depth)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            depth[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                d = clock() - t0
                child = stack.pop()
                calls[name] += 1
                depth[name] -= 1
                if not depth[name]:
                    total[name] += d
                own[name] += d - child
                if stack:
                    stack[-1] += d
            if after is not None:
                after(token, result, args, kwargs)
            return result
        return timed

    def _threadsafe(self, orig, name: str):
        calls, total, lock = self.calls, self.total_s, self._lock
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                d = clock() - t0
                with lock:
                    calls[name] += 1
                    total[name] += d
        return timed

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "counts": dict(self.counts),
                "missing": list(self.missing)}


_COLLECTIVES = ("barrier", "bcast", "reduce", "allreduce", "gather",
                "scatter", "allgather", "alltoall", "scan", "exscan",
                "reduce_scatter")


def install_des_layers(tracer: LayerTracer) -> None:
    """Wrap the simulator's layers as the benchmark process uses them."""
    from repro.core.machine import Machine
    from repro.kernel.cpu import CPU
    from repro.ktau.tracer import KtauTracer
    from repro.microbench.collective_bench import CollectiveBenchmark
    from repro.mpi.collectives import bulk as coll_bulk
    from repro.mpi.comm import RankComm
    from repro.net.network import Network
    from repro.noise.base import NoiseSource, NullNoise
    from repro.obs.critpath import DependencyRecorder
    from repro.sim.bulk import BulkDivergence, BulkEngine

    counts = tracer.counts
    tracer.wrap(Machine, "__init__", "core.machine_build")

    def run_before(args, _kwargs):
        machine = args[0]
        net = machine.network
        return (machine.env.events_processed, net.messages_transferred,
                net.bytes_transferred)

    def run_after(token, _result, args, _kwargs):
        machine = args[0]
        events, msgs, nbytes = token
        net = machine.network
        counts["sim.events"] += machine.env.events_processed - events
        counts["net.messages"] += net.messages_transferred - msgs
        counts["net.bytes"] += net.bytes_transferred - nbytes

    tracer.wrap(Machine, "run_to_completion", "sim.run",
                before=run_before, after=run_after)
    tracer.wrap(Network, "inject", "net.inject")
    for cls in (NoiseSource, NullNoise):
        tracer.wrap(cls, "wall_time", "noise.wall_time")
    tracer.wrap(CPU, "compute", "kernel.compute", timed=False)
    tracer.wrap(CPU, "steal_transient", "kernel.steal", timed=False)
    for op in _COLLECTIVES:
        tracer.wrap(RankComm, op, "mpi.collective", timed=False)
    # send and sendrecv go through isend: one count per message sent.
    tracer.wrap(RankComm, "isend", "mpi.send", timed=False)
    for attr, value in list(vars(KtauTracer).items()):
        if inspect.isfunction(value) and (attr == "__init__"
                                          or not attr.startswith("__")):
            tracer.wrap(KtauTracer, attr, "ktau.observer")

    def edges_after(_token, result, _args, _kwargs):
        counts["obs.edges"] += result.n_edges

    tracer.wrap(Machine, "critical_path", "obs.critpath", after=edges_after)
    tracer.wrap(DependencyRecorder, "edge_log", "obs.critpath")

    # Engine choice: run_auto imports run_bulk at call time, so the
    # module attribute is the seam.
    def bulk_ok(_token, _result, _args, _kwargs):
        counts["engine.bulk_points"] += 1

    def bulk_failed(exc):
        if isinstance(exc, BulkDivergence):
            counts["engine.bulk_fallbacks"] += 1

    tracer.wrap(coll_bulk, "run_bulk", "bulk.run", after=bulk_ok,
                on_error=bulk_failed)

    def des_after(_token, _result, _args, _kwargs):
        counts["engine.des_points"] += 1

    tracer.wrap(CollectiveBenchmark, "run", "engine.des", after=des_after)

    def bench_after(_token, _result, args, kwargs):
        engine, barrier_rounds, coll_rounds = args[:3]
        rounds = list(barrier_rounds) + list(coll_rounds)
        reps = kwargs["repetitions"]
        counts["bulk.rounds_needed"] += reps * len(rounds)
        counts["bulk.rank_rounds"] += reps * sum(len(r.dst) for r in rounds)
        counts["bulk.fixpoint_reps"] += engine.fixpoint_reps
        counts["bulk.tie_breaks"] += engine.tie_breaks

    tracer.wrap(BulkEngine, "run_benchmark", "bulk.engine",
                after=bench_after)
    tracer.wrap(BulkEngine, "run_round", "bulk.round", timed=False)
    # Every round pass, strict or inside the arrival fixpoint, starts
    # with the send phase: the denominator of useful_round_frac.
    tracer.wrap(BulkEngine, "_send_phase", "bulk.round_pass", timed=False)


def install_serve_layers(tracer: LayerTracer) -> None:
    """Wrap the server-side planner and cache (server process only)."""
    from repro.parallel.cache import ResultCache, ShardedResultCache
    from repro.serve import app
    from repro.serve.planner import Job

    tracer.wrap(ShardedResultCache, "get", "cache.get")
    tracer.wrap(ResultCache, "put", "cache.put")
    # app.py calls parse_job through its own module global.
    tracer.wrap(app, "parse_job", "serve.parse")
    tracer.wrap(Job, "points", "serve.plan")
    tracer.wrap(Job, "assemble", "serve.assemble")
