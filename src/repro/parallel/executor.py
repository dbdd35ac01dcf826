"""Process-parallel execution of plan points.

Plan points are embarrassingly parallel: each point is one
deterministic simulation, fully described by a frozen
:class:`~repro.core.ExperimentConfig` or
:class:`~repro.microbench.CollectivePoint` (both pickle cleanly) and
producing a frozen result (ditto).

:meth:`SweepExecutor.submit` is the one way a point runs: it looks the
point up in the optional :class:`~repro.parallel.ResultCache`, runs it
on a miss (in-process for a serial executor, on a process pool
otherwise), replaces a broken pool and retries a failed point once,
and stores the result.  It returns a :class:`concurrent.futures.Future`
resolving to a :class:`PointRun`.  :meth:`SweepExecutor.run` submits
every point of a :class:`~repro.parallel.ComparisonPlan`, collects them
in plan order — never by completion order — and assembles the plan's
cells, so parallel and serial runs are bit-identical for a fixed seed;
the experiment server awaits the same futures point by point.

Per-point wall-clock timings and simulated-vs-cached counts of a
:meth:`~SweepExecutor.run` land in :attr:`SweepExecutor.last_stats`.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import typing as _t
from collections import deque
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass, field

from .. import __version__
from ..errors import ConfigError
from ..obs import oplog as _oplog
from ..obs import runtime as _obs
from ..obs.trace import SpanTracer
from .cache import MISS, ResultCache, config_key
from .plan import ComparisonPlan, PointError

__all__ = ["PointRun", "PointTiming", "SweepStats", "SweepExecutor"]

#: Categories captured for a traced point (sim-time only — the
#: per-event ``sim`` firehose and host spans stay out) and the per-point
#: ring cap.  Small enough that a traced request stays cheap; the
#: request stitcher surfaces ``dropped`` if a simulation outgrows it.
POINT_TRACE_CATEGORIES = ("net", "net.flow", "mpi", "faults")
POINT_TRACE_CAP = 50_000

#: ``result.meta`` keys a traced point ships back from its worker; they
#: move to :attr:`PointRun.shipped` before the result is cached.
SHIPPED_META = ("trace", "trace_dropped", "worker_pid")


def _run_point(config: _t.Any, det_check: bool = False,
               trace: bool = False) -> tuple[_t.Any, float, float]:
    """Worker entry point: one simulation, with true start/end stamps.

    ``config`` is a plan point; it runs through its ``run()``.
    Top-level so it pickles into pool workers.  ``det_check`` forwards
    the parent's ``obs.configure(det_check=True)`` switch explicitly
    and holds only for this point: per-process obs state is inherited
    under fork but not spawn, the serial/workers checksum comparison
    needs both paths to agree, and a pooled worker must not carry the
    switch into its next point.

    ``trace`` captures this one simulation's sim-time spans with a
    point-scoped tracer (:func:`repro.obs.runtime.scoped_point`
    restores process-wide telemetry on exit, so pooled workers carry
    no state between points) and ships them back as
    ``result.meta["trace"]`` stored tuples plus ``meta["worker_pid"]``;
    :meth:`SweepExecutor.submit` moves them to :attr:`PointRun.shipped`
    before caching, and the server stitches them into the per-request
    Perfetto document.

    Returns ``(result, start, end)`` where the timestamps are absolute
    ``time.perf_counter()`` readings.  ``perf_counter`` is
    CLOCK_MONOTONIC-backed and machine-wide on the platforms we run
    on, so worker-side stamps are directly comparable with the
    parent's and sweep trace spans show *true* worker occupancy —
    deriving a start as "collection time minus elapsed" misplaces
    spans of pooled futures that finished long before they were
    collected in plan order.
    """
    point_tracer = (SpanTracer(POINT_TRACE_CATEGORIES, cap=POINT_TRACE_CAP)
                    if trace else None)
    with _obs.scoped_point(det_check, point_tracer):
        t0 = time.perf_counter()
        result = config.run()
        t1 = time.perf_counter()
    if point_tracer is not None:
        result.meta["trace"] = point_tracer.raw_events()
        result.meta["trace_dropped"] = point_tracer.dropped
        result.meta["worker_pid"] = os.getpid()
    return result, t0, t1


if sys.version_info < (3, 12):
    class _Pool(ProcessPoolExecutor):
        """A process pool that is marked broken under its submit lock.

        Before Python 3.12 the pool's manager thread marks a pool broken
        and then fails its pending work items by iterating their dict,
        holding no lock, while ``submit`` checks the mark and inserts an
        item under ``_shutdown_lock``.  A submit from another thread
        that lands during that iteration (done callbacks run inside it,
        and a retry there forks a whole replacement pool) kills the
        manager thread with "dictionary changed size during iteration":
        the remaining futures never resolve and the surviving workers
        are never stopped, so the interpreter hangs at exit joining
        them.  Taking the lock to set the mark lets a submit already
        inside finish first; every later one raises
        ``BrokenProcessPool``.  Python 3.12 holds the lock for the
        whole teardown itself.
        """

        @property
        def _broken(self) -> _t.Any:
            return self.__dict__.get("_broken_state", False)

        @_broken.setter
        def _broken(self, value: _t.Any) -> None:
            with self._shutdown_lock:
                self.__dict__["_broken_state"] = value
else:
    _Pool = ProcessPoolExecutor


@dataclass(frozen=True)
class PointRun:
    """What a :meth:`SweepExecutor.submit` future resolves to."""

    result: _t.Any
    #: Absolute ``time.perf_counter()`` stamps of the run (0.0 when
    #: the result came from the cache).
    start: float
    end: float
    cached: bool
    #: A traced point's :data:`SHIPPED_META` entries, taken out of
    #: ``result.meta`` (empty otherwise).
    shipped: dict[str, _t.Any] = field(default_factory=dict)

    @property
    def elapsed_s(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class PointTiming:
    """Wall-clock record for one executed (or cache-served) point."""

    label: str
    elapsed_s: float
    cached: bool


@dataclass
class SweepStats:
    """What one :meth:`SweepExecutor.run` call actually did."""

    workers: int
    wall_s: float = 0.0
    timings: list[PointTiming] = field(default_factory=list)
    quiet_simulated: int = 0
    quiet_cached: int = 0
    noisy_simulated: int = 0
    noisy_cached: int = 0
    #: Points that failed after retry, in plan order (partial-failure
    #: isolation: completed points are still returned).
    errors: list[PointError] = field(default_factory=list)

    @property
    def points(self) -> int:
        return len(self.timings)

    def tally(self, key_kind: str, timing: "PointTiming") -> None:
        """Record one point under the quiet/noisy x cached/simulated grid
        (a bare point counts as quiet)."""
        self.timings.append(timing)
        if timing.cached:
            if key_kind == "quiet":
                self.quiet_cached += 1
            else:
                self.noisy_cached += 1
        elif key_kind == "quiet":
            self.quiet_simulated += 1
        else:
            self.noisy_simulated += 1

    @property
    def simulated_s(self) -> float:
        """Summed per-point simulation time (serial-equivalent cost)."""
        return sum(t.elapsed_s for t in self.timings)

    @property
    def speedup(self) -> float:
        """Serial-equivalent time over actual wall time."""
        return self.simulated_s / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def failed(self) -> int:
        """Points that ended in a :class:`PointError`."""
        return len(self.errors)

    def as_dict(self) -> dict[str, _t.Any]:
        return {"workers": self.workers, "points": self.points,
                "wall_s": self.wall_s, "simulated_s": self.simulated_s,
                "quiet_simulated": self.quiet_simulated,
                "quiet_cached": self.quiet_cached,
                "noisy_simulated": self.noisy_simulated,
                "noisy_cached": self.noisy_cached,
                "failed": self.failed,
                "errors": [e.as_dict() for e in self.errors]}


class SweepExecutor:
    """Runs the independent points of a plan, serially or in parallel.

    Parameters
    ----------
    workers:
        Process count.  ``1`` (the default) runs in-process with no
        pool; ``None`` or ``0`` means ``os.cpu_count()``.
    cache:
        ``None`` (no caching), a :class:`ResultCache`, or a directory
        path to root one at.
    persistent:
        Keep the process pool alive across :meth:`run` calls (the
        experiment server's mode; a one-worker persistent executor
        still runs its points on a pool).  Otherwise :meth:`run` shuts
        the pool down when it returns.
    """

    def __init__(self, workers: int | None = 1,
                 cache: ResultCache | str | os.PathLike[str] | None = None,
                 *, persistent: bool = False) -> None:
        if workers is None or workers == 0:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ConfigError(
                f"workers must be >= 0 (0 = one per CPU), got {workers}")
        self.workers = int(workers)
        self.cache: ResultCache | None
        if cache is None or isinstance(cache, ResultCache):
            self.cache = cache
        elif not os.fspath(cache):
            # An empty path would silently cache into ./v<version>/.
            self.cache = None
        else:
            self.cache = ResultCache(cache)
        self.persistent = bool(persistent)
        self._in_process = self.workers == 1 and not self.persistent
        #: The one pool slot, created on first use.  Pool callback
        #: threads retire a broken pool while callers submit, so every
        #: write holds ``_pool_lock``.
        self._pool: ProcessPoolExecutor | None = None
        self._pool_size = self.workers
        self._pool_lock = threading.Lock()
        #: Stats of the most recent :meth:`run` call.
        self.last_stats: SweepStats | None = None
        #: Per-point errors of the most recent :meth:`run`, keyed by
        #: point key (empty when every point succeeded).
        self.last_errors: dict[_t.Any, PointError] = {}

    # -- the pool slot -----------------------------------------------------
    @property
    def pool_ready(self) -> bool:
        """True while a usable pool exists (the server's readiness
        signal: liveness holds from bind time, readiness from
        :meth:`warm`).  A pool that lost a worker is broken for good,
        so it reads not-ready until the next point replaces it."""
        pool = self._pool
        return pool is not None and not pool._broken

    def _live_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = _Pool(max_workers=self._pool_size)
            return self._pool

    def _drop_pool(self, pool: ProcessPoolExecutor) -> None:
        """Retire ``pool`` if it still fills the slot: a pool that lost
        a worker never recovers, and the next attempt builds a fresh
        one.  The broken pool's manager thread stops its workers.  It is
        not shut down from here: this often runs inside that thread's
        teardown, which from Python 3.12 on holds the lock ``shutdown``
        takes."""
        with self._pool_lock:
            if self._pool is not pool:
                return
            self._pool = None

    def warm(self) -> None:
        """Spawn the pool's workers now (and verify they answer).
        Servers call this before going async so worker processes are
        forked from a quiet main thread."""
        self._live_pool().submit(int, 0).result()

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        self.close()

    # -- one point ---------------------------------------------------------
    def point_key(self, config: _t.Any) -> str:
        """Content key of a point: the cache's key, so in-flight dedup
        and disk reuse agree on point identity."""
        if self.cache is not None:
            return self.cache.key(config)
        return config_key(config, salt=__version__)

    def submit(self, config: _t.Any, *, trace: bool = False
               ) -> "Future[PointRun]":
        """Run one point; the future resolves to a :class:`PointRun`.

        A cache hit resolves before this returns, without running
        anything (the lookup blocks on disk: async callers submit from
        a worker thread).  A miss runs the point — in this thread for
        a serial executor, on the pool otherwise.  A failed attempt
        gets one more; a pooled retry runs on a live pool, replacing
        it first if a worker died, never in this process.  The second
        failure's exception is the future's.  A success is stored in
        the cache.  ``trace=True`` captures the point's sim-time spans
        (see :func:`_run_point`) into :attr:`PointRun.shipped`.
        """
        out: Future[PointRun] = Future()
        # Running from the start: a consumer's cancel (asyncio.wrap_future
        # on a cancelled task) is a no-op, never a half-settled point.
        out.set_running_or_notify_cancel()
        cached = (self.cache.get(config, MISS)
                  if self.cache is not None else MISS)
        if cached is not MISS:
            out.set_result(PointRun(cached, 0.0, 0.0, cached=True))
            return out
        det_check = _obs.det_check_enabled()
        args = (config, det_check, True) if trace else (config, det_check)
        self._attempt(args, out, retried=False)
        return out

    def _attempt(self, args: tuple, out: "Future[PointRun]", *,
                 retried: bool) -> None:
        """Start one run of ``args``; :meth:`_settle` resolves ``out``."""
        pool = None
        if self._in_process:
            fut: Future = Future()
            try:
                fut.set_result(_run_point(*args))
            except Exception as exc:
                fut.set_exception(exc)
        else:
            pool = self._live_pool()
            try:
                fut = pool.submit(_run_point, *args)
            except Exception as exc:  # broken (a worker died idle) or shut
                fut = Future()
                fut.set_exception(exc)
        fut.add_done_callback(
            lambda done: self._settle(args, out, pool, retried, done))

    def _settle(self, args: tuple, out: "Future[PointRun]",
                pool: ProcessPoolExecutor | None, retried: bool,
                fut: Future) -> None:
        """Done-callback of one attempt (on a pool thread, or inline for
        a serial executor): retry, store, or fail ``out``."""
        try:
            exc = fut.exception()  # CancelledError: close() cancelled it
            if exc is None:
                result, start, end = fut.result()
                meta = getattr(result, "meta", None) or {}
                shipped = {k: meta.pop(k) for k in SHIPPED_META if k in meta}
                if self.cache is not None:
                    self.cache.put(args[0], result)
                out.set_result(PointRun(result, start, end, cached=False,
                                        shipped=shipped))
                return
            if isinstance(exc, BrokenExecutor) and pool is not None:
                self._drop_pool(pool)
            if retried:
                out.set_exception(exc)
                return
            _oplog.log("exec.point_retry", level="warning",
                       point_key=self.point_key(args[0]),
                       error=type(exc).__name__)
            self._attempt(args, out, retried=True)
        except Exception as exc:
            out.set_exception(exc)

    # -- fan-out -----------------------------------------------------------
    def run(self, plan: ComparisonPlan, *,
            progress: _t.Callable[[str], None] | None = None
            ) -> dict[_t.Any, _t.Any]:
        """Run ``plan``'s points and assemble its cells.

        The one fan-out: sweeps (:func:`~repro.parallel.plan_sweep`),
        comparisons (:func:`~repro.parallel.plan_comparisons`), bare
        points (:func:`~repro.parallel.plan_points`) and the harness's
        union of experiment plans all come through here.  Every point
        goes through :meth:`submit`; results are collected in plan
        order, so the result iterates in cell order regardless of
        completion order.

        Failures are isolated, not fatal: a point that still fails
        after :meth:`submit`'s retry is recorded in :attr:`last_errors`
        (keyed by point key) and its cells are omitted, so one crashed
        simulation never discards its siblings' completed work.
        Failed points and comparisons left without a baseline are
        listed, in plan order, in ``last_stats.errors``.
        """
        t_start = time.perf_counter()
        tracer = _obs.tracer()
        if tracer is not None and not tracer.enabled("sweep"):
            tracer = None
        done: dict[_t.Any, _t.Any] = {}
        timings: dict[_t.Any, PointTiming] = {}
        errors: dict[_t.Any, PointError] = {}

        def collect(pt: _t.Any, fut: "Future[PointRun]") -> None:
            try:
                run = fut.result()
            except Exception as exc:
                errors[pt.key] = PointError(pt.label, type(exc).__name__,
                                            str(exc), retried=True)
                _oplog.log("exec.point_error", level="error",
                           point=pt.label, error=type(exc).__name__,
                           message=str(exc))
                if progress:
                    progress(f"{pt.label} failed permanently: {exc}")
                return
            done[pt.key] = run.result
            timings[pt.key] = PointTiming(pt.label, run.elapsed_s,
                                          cached=run.cached)
            if run.cached:
                if progress:
                    progress(f"{pt.label} (cached)")
                return
            _oplog.log("exec.point", level="debug", point=pt.label,
                       elapsed_s=round(run.elapsed_s, 6))
            if tracer is not None:
                # True worker-side start/end stamps: pooled futures are
                # collected in plan order, so "collection time minus
                # cost" would shift/overlap spans and misrepresent
                # worker occupancy.
                tracer.host_span("sweep", pt.label, run.start, run.elapsed_s)
            if progress:
                progress(f"{pt.label} ({run.elapsed_s:.2f}s)")

        if not self.persistent:
            self._pool_size = max(1, min(self.workers, len(plan.points)))
        # Collect the finished head of the queue while submitting, so a
        # serial run reports each point as it finishes.
        queue: deque[tuple[_t.Any, Future[PointRun]]] = deque()
        try:
            for pt in plan.points:
                queue.append((pt, self.submit(pt.config)))
                while queue and queue[0][1].done():
                    collect(*queue.popleft())
            while queue:
                collect(*queue.popleft())
        finally:
            if not self.persistent:
                self.close()

        n_cached = sum(t.cached for t in timings.values())
        _oplog.log("exec.fanout", points=len(plan.points), cached=n_cached,
                   pending=len(plan.points) - n_cached, workers=self.workers)
        self.last_errors = errors
        stats = SweepStats(workers=self.workers)
        noisy = {pt.key for _q, pt in plan.cells.values() if pt is not None}
        for key, timing in timings.items():
            stats.tally("noisy" if key in noisy else "quiet", timing)
        results, missing = plan.assemble(done, errors)
        stats.errors = [*errors.values(), *missing]
        stats.wall_s = time.perf_counter() - t_start
        self.last_stats = stats
        _obs.harvest_sweep_stats(stats, len(errors))
        return results
