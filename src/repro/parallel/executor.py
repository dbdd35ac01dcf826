"""Process-parallel execution of comparison plans.

Plan points are embarrassingly parallel: each point is one
deterministic simulation, fully described by a frozen
:class:`~repro.core.ExperimentConfig` or
:class:`~repro.microbench.CollectivePoint` (both pickle cleanly) and
producing a frozen result (ditto).  :meth:`SweepExecutor.run` fans the
points of a :class:`~repro.parallel.ComparisonPlan` out over a
:class:`concurrent.futures.ProcessPoolExecutor`, collects results
keyed by point — never by completion order — and assembles the plan's
cells, so parallel and serial runs are bit-identical for a fixed
seed.

With ``workers=1`` no pool is created at all (graceful serial
fallback); an optional :class:`~repro.parallel.ResultCache` serves
previously-simulated points — quiet baselines above all — from disk.
Per-point wall-clock timings and simulated-vs-cached counts land in
:attr:`SweepExecutor.last_stats`.
"""

from __future__ import annotations

import os
import time
import typing as _t
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field

from ..core.experiment import ExperimentConfig
from ..errors import ConfigError
from ..obs import oplog as _oplog
from ..obs import runtime as _obs
from ..obs.trace import SpanTracer
from .cache import MISS, ResultCache
from .plan import ComparisonPlan, PointError

__all__ = ["PointTiming", "SweepStats", "SweepExecutor"]

#: Categories captured for a traced point (sim-time only — the
#: per-event ``sim`` firehose and host spans stay out) and the per-point
#: ring cap.  Small enough that a traced request stays cheap; the
#: request stitcher surfaces ``dropped`` if a simulation outgrows it.
POINT_TRACE_CATEGORIES = ("net", "net.flow", "mpi", "faults")
POINT_TRACE_CAP = 50_000


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
    ``result.meta["trace"]`` stored tuples plus ``meta["worker_pid"]``; the server stitches them into the
    per-request Perfetto document and strips both keys before caching.

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
        #: Keep one process pool alive across fan-outs (the experiment
        #: server's mode): repeated small jobs stop paying pool
        #: creation, and :meth:`submit_config` becomes available.
        self.persistent = bool(persistent)
        self._pool: ProcessPoolExecutor | None = None
        #: Stats of the most recent :meth:`run` call.
        self.last_stats: SweepStats | None = None
        #: Per-point errors of the most recent fan-out, keyed by point
        #: key (empty when every point succeeded).
        self.last_errors: dict[_t.Any, PointError] = {}

    # -- persistent pool ---------------------------------------------------
    @property
    def pool_ready(self) -> bool:
        """True once the persistent pool exists (the server's readiness
        signal: liveness holds from bind time, readiness from
        :meth:`warm`)."""
        return self._pool is not None

    def ensure_pool(self) -> ProcessPoolExecutor:
        """The long-lived pool (created on first use; ``persistent``
        executors only)."""
        if not self.persistent:
            raise ConfigError(
                "ensure_pool()/submit_config() need SweepExecutor("
                "persistent=True)")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def warm(self) -> None:
        """Spawn the persistent pool's workers now (and verify they
        answer).  Servers call this before going async so worker
        processes are forked from a quiet main thread."""
        fut = self.ensure_pool().submit(int, 0)
        fut.result()

    def submit_config(self, config: ExperimentConfig, *,
                      trace: bool = False) -> "_t.Any":
        """Submit one simulation to the persistent pool.

        Returns the :class:`concurrent.futures.Future` resolving to
        ``(RunResult, start, end)`` — the async seam the experiment
        server bridges with :func:`asyncio.wrap_future`.  No cache
        interaction happens here; callers own lookup and store.
        ``trace=True`` captures the point's sim-time spans in the
        worker (see :func:`_run_point`).
        """
        return self.ensure_pool().submit(_run_point, config,
                                         _obs.det_check_enabled(), trace)

    def close(self) -> None:
        """Shut the persistent pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        self.close()

    def _collect(self, futures: _t.Mapping[_t.Any, _t.Any],
                 record: _t.Callable[[_t.Any, _t.Any, float, float], None],
                 failed: dict[_t.Any, BaseException]) -> None:
        """Drain pooled futures into ``record``/``failed``."""
        broken = False
        for key, fut in futures.items():
            try:
                result, t0, t1 = fut.result()
            except (Exception, BrokenExecutor) as exc:
                # BrokenExecutor: the worker process died (OOM,
                # segfault); every sibling future fails too and
                # each gets its serial retry in the caller.
                broken = broken or isinstance(exc, BrokenExecutor)
                failed[key] = exc
                continue
            record(key, result, t0, t1)
        if broken and self._pool is not None:
            # A broken persistent pool never recovers; drop it so the
            # next fan-out (or submit_config) builds a fresh one.
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- fan-out -----------------------------------------------------------
    def run(self, plan: ComparisonPlan, *,
            progress: _t.Callable[[str], None] | None = None
            ) -> dict[_t.Any, _t.Any]:
        """Run ``plan``'s points and assemble its cells.

        The one fan-out: sweeps (:func:`~repro.parallel.plan_sweep`),
        comparisons (:func:`~repro.parallel.plan_comparisons`), bare
        points (:func:`~repro.parallel.plan_points`) and the harness's
        union of experiment plans all come through here.  Cache hits
        never reach the pool, and the result iterates in cell order
        regardless of completion order.

        Failures are isolated, not fatal: a point that raises (in a
        worker — including a :class:`BrokenExecutor` pool collapse — or
        in-process) is retried once serially; if it fails again it is
        recorded in :attr:`last_errors` (keyed by point key) and its
        cells are omitted, so one crashed simulation never discards its
        siblings' completed work.  Failed points and comparisons left
        without a baseline are listed, in plan order, in
        ``last_stats.errors``.
        """
        t_start = time.perf_counter()
        labels = {pt.key: pt.label for pt in plan.points}
        done: dict[_t.Any, _t.Any] = {}
        timings: dict[_t.Any, PointTiming] = {}
        pending: dict[_t.Any, _t.Any] = {}
        for pt in plan.points:
            cached = (self.cache.get(pt.config, MISS)
                      if self.cache is not None else MISS)
            if cached is MISS:
                pending[pt.key] = pt.config
                continue
            done[pt.key] = cached
            timings[pt.key] = PointTiming(pt.label, 0.0, cached=True)
            if progress:
                progress(f"{pt.label} (cached)")
        _oplog.log("exec.fanout", points=len(labels), cached=len(done),
                   pending=len(pending), workers=self.workers)
        det_check = _obs.det_check_enabled()
        tracer = _obs.tracer()
        if tracer is not None and not tracer.enabled("sweep"):
            tracer = None

        def record(key: _t.Any, result: _t.Any,
                   start: float, end: float) -> None:
            elapsed = end - start
            done[key] = result
            timings[key] = PointTiming(labels[key], elapsed, cached=False)
            meta = getattr(result, "meta", None) or {}
            _oplog.log("exec.point", level="debug", point=labels[key],
                       elapsed_s=round(elapsed, 6),
                       worker_pid=meta.get("worker_pid"))
            if tracer is not None:
                # True worker-side start/end stamps: pooled futures are
                # collected in plan order, so "collection time minus
                # cost" would shift/overlap spans and misrepresent
                # worker occupancy.
                tracer.host_span("sweep", labels[key], start, elapsed)
            if progress:
                progress(f"{labels[key]} ({elapsed:.2f}s)")

        failed: dict[_t.Any, BaseException] = {}
        if pending and self.workers == 1 and not self.persistent:
            for key, cfg in pending.items():
                try:
                    result, t0, t1 = _run_point(cfg, det_check)
                except Exception as exc:
                    failed[key] = exc
                    continue
                record(key, result, t0, t1)
        elif pending:
            pool = (self.ensure_pool() if self.persistent else
                    ProcessPoolExecutor(min(self.workers, len(pending))))
            try:
                self._collect({key: pool.submit(_run_point, cfg, det_check)
                               for key, cfg in pending.items()},
                              record, failed)
            finally:
                if not self.persistent:
                    pool.shutdown()

        errors: dict[_t.Any, PointError] = {}
        for key, first_exc in failed.items():
            label = labels[key]
            if progress:
                progress(f"{label} failed "
                         f"({type(first_exc).__name__}); retrying serially")
            _oplog.log("exec.point_retry", level="warning", point=label,
                       error=type(first_exc).__name__)
            try:
                result, t0, t1 = _run_point(pending[key], det_check)
            except Exception as exc:
                errors[key] = PointError(label, type(exc).__name__,
                                         str(exc), retried=True)
                _oplog.log("exec.point_error", level="error", point=label,
                           error=type(exc).__name__, message=str(exc))
                if progress:
                    progress(f"{label} failed permanently: {exc}")
                continue
            record(key, result, t0, t1)

        if self.cache is not None:
            for key, cfg in pending.items():
                if key in done:
                    self.cache.put(cfg, done[key])

        self.last_errors = {key: errors[key] for key in labels
                            if key in errors}
        stats = SweepStats(workers=self.workers)
        noisy = {pt.key for _q, pt in plan.cells.values() if pt is not None}
        for key in labels:
            if key in timings:
                stats.tally("noisy" if key in noisy else "quiet",
                            timings[key])
        results, missing = plan.assemble(done, self.last_errors)
        stats.errors = [*self.last_errors.values(), *missing]
        stats.wall_s = time.perf_counter() - t_start
        self.last_stats = stats
        _obs.harvest_sweep_stats(stats, len(self.last_errors))
        return results
