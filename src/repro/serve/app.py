"""The asyncio experiment server: sweep-as-a-service.

:class:`ExperimentServer` turns the library's deterministic simulation
points into a shared service: it accepts compare/sweep jobs as JSON
(``POST /v1/jobs``), expands them through the executor's own sweep
plan (:func:`~repro.parallel.plan_sweep`, via
:mod:`~repro.serve.planner`), runs each point through the point path
every runner shares — :meth:`~repro.parallel.SweepExecutor.submit` on
a persistent executor (cache lookup, pool, one retry on a live pool,
cache store), one worker-thread hop per job — and streams results
back as chunked NDJSON while points finish, one chunk per wake-up.
Identical in-flight points across concurrent requests
collapse onto one simulation
(:class:`~repro.serve.inflight.InflightRegistry`).

Endpoints
---------
``GET /healthz``
    Liveness: ``{"ok": true, "version": ..., "workers": N}``.  With
    ``?ready=1`` it is a *readiness* probe instead: 503 until the
    persistent worker pool is warm.
``GET /metrics``
    Operational metrics.  JSON by default (backward compatible);
    Prometheus text exposition with ``?format=prom`` or
    ``Accept: text/plain``.  ``?window=30`` adds a ``window`` section
    of rolling rates (req/s, points/s, hit rate, latency quantiles)
    computed from an in-process snapshot ring — no external scrape
    state needed.
``GET /v1/logs``
    The structured operational log ring (:mod:`repro.obs.oplog`),
    filterable by ``level`` (floor), ``event`` (dotted prefix),
    ``since`` (sequence number), ``limit``.
``POST /v1/jobs``
    One compare/sweep job; the response streams ``point`` /
    ``record`` / ``error`` events and a terminal ``stats`` line (see
    :mod:`~repro.serve.protocol`).  With ``"trace": true`` in the job,
    a ``trace`` event carrying the stitched per-request Perfetto
    document (:mod:`repro.obs.reqtrace`) precedes ``stats``.

Correlation: every request is assigned ``request_id`` (``r-000001``,
per-server) and jobs get ``job_id`` — pushed as :mod:`repro.obs.oplog`
context so every log line emitted while serving a request carries its
ids; per-point lines add the point's ``point_key``.  All error
responses echo ``request_id``.

The server always owns a host-scope :class:`MetricsRegistry` — its
``/metrics`` documents are never empty regardless of the process-wide
:mod:`repro.obs` switchboard (which the CLI may leave off).

Determinism: every point runs through the exact
:meth:`~repro.parallel.SweepExecutor.submit` path the CLI uses, so
served records are byte-identical (as sorted JSON) to
``repro sweep`` output for the same job — the property
``tests/test_serve.py`` pins down.  The stitched request trace is
likewise deterministic: byte-identical between ``workers=1`` and
``workers=2`` servers.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
import typing as _t
from collections import Counter, deque
from concurrent.futures import Future

from .. import __version__
from ..errors import ReproError
from ..obs import oplog as _oplog
from ..obs import runtime as _obs
from ..obs.metrics import HOST, MetricsRegistry
from ..obs.prom import render as _prom_render
from ..obs.reqtrace import RequestTrace
from ..parallel import PointRun, SweepExecutor
from ..parallel.cache import ResultCache
from .inflight import InflightRegistry
from .planner import Job, parse_job
from .protocol import (
    ChunkedWriter,
    ProtocolError,
    Request,
    read_request,
    split_query,
    write_json_response,
    write_text_response,
)

__all__ = ["ExperimentServer", "BackgroundServer"]

#: Request wall-time histogram bounds (seconds).
REQUEST_WALL_BOUNDS = (0.01, 0.05, 0.25, 1.0, 5.0, 30.0)

#: Snapshot-ring length x ~1 s sampling cadence = the largest usable
#: ``?window=N`` (seconds of history held in memory).
SNAPSHOT_RING_CAP = 120
SNAPSHOT_INTERVAL_S = 1.0

_ROUTES = {"/healthz": "healthz", "/metrics": "metrics",
           "/v1/logs": "logs", "/v1/jobs": "jobs",
           "/v1/compare": "jobs", "/v1/sweep": "jobs"}


def _bucket_quantile(dbuckets: _t.Sequence[float],
                     bounds: _t.Sequence[float],
                     count: float, q: float) -> float:
    """Interpolated quantile from delta histogram buckets."""
    target = q * count
    cum = 0.0
    for i, c in enumerate(dbuckets):
        if c > 0 and cum + c >= target:
            lo = 0.0 if i == 0 else bounds[i - 1]
            hi = bounds[i] if i < len(bounds) else bounds[-1]
            return round(lo + (hi - lo) * ((target - cum) / c), 6)
        cum += c
    return round(bounds[-1], 6)


class _SnapshotRing:
    """Rolling counter snapshots so ``/metrics?window=N`` can answer
    rate questions (req/s, points/s, hit rate over the last N seconds)
    from process memory alone — cumulative counters need two readings
    to become a rate, and this ring is the second reading."""

    def __init__(self, cap: int = SNAPSHOT_RING_CAP) -> None:
        self._ring: deque[dict[str, _t.Any]] = deque(maxlen=cap)

    def sample(self, server: "ExperimentServer") -> None:
        stats = server.stats
        buckets = [0] * (len(REQUEST_WALL_BOUNDS) + 1)
        lat_count = 0
        for name, _labels, metric in server.registry.items():
            if name == "serve.http_request_seconds":
                for i, c in enumerate(metric.bucket_counts):
                    buckets[i] += c
                lat_count += metric.count
        # Host wall clock for rate denominators; operational only.
        self._ring.append({
            "ts": time.monotonic(),  # detlint: disable=DET001 -- host-scoped rate sampling
            "requests": stats["requests_total"],
            "failed": stats["requests_failed"],
            "points": stats["points_total"],
            "hits": stats["points_cached"] + stats["points_deduped"],
            "point_errors": stats["point_errors"],
            "lat_buckets": buckets,
            "lat_count": lat_count,
        })

    def rates(self, window_s: float,
              server: "ExperimentServer") -> dict[str, _t.Any]:
        """Delta rates over (up to) the trailing ``window_s`` seconds."""
        self.sample(server)  # the "now" reading
        now = self._ring[-1]
        base = self._ring[0]
        for doc in reversed(self._ring):
            if doc is now:
                continue
            if now["ts"] - doc["ts"] >= window_s:
                base = doc
                break
        dt = now["ts"] - base["ts"]
        out: dict[str, _t.Any] = {
            "window_s": round(dt, 3),
            "samples": len(self._ring),
            "requests": now["requests"] - base["requests"],
            "points": now["points"] - base["points"],
        }
        if dt <= 0:
            return out
        points = out["points"]
        out["req_per_s"] = round(out["requests"] / dt, 3)
        out["points_per_s"] = round(points / dt, 3)
        out["hit_rate"] = (round((now["hits"] - base["hits"]) / points, 4)
                           if points else None)
        out["error_rate"] = round(
            (now["failed"] - base["failed"]
             + now["point_errors"] - base["point_errors"])
            / max(out["requests"], 1), 4)
        dbuckets = [a - b for a, b in zip(now["lat_buckets"],
                                          base["lat_buckets"])]
        dcount = now["lat_count"] - base["lat_count"]
        if dcount > 0:
            out["request_p50_s"] = _bucket_quantile(
                dbuckets, REQUEST_WALL_BOUNDS, dcount, 0.5)
            out["request_p99_s"] = _bucket_quantile(
                dbuckets, REQUEST_WALL_BOUNDS, dcount, 0.99)
        return out


class ExperimentServer:
    """Shared, deduplicating experiment service over a process pool.

    Parameters
    ----------
    workers:
        Worker processes (``None``/0 = one per CPU).
    cache:
        Shared result cache: a directory path (roots a
        :class:`~repro.parallel.ResultCache`), a ready cache
        instance, or ``None`` to serve without disk reuse.
    """

    def __init__(self, *, workers: int | None = None,
                 cache: ResultCache | str | None = None) -> None:
        self.executor = SweepExecutor(workers=workers or 0, cache=cache,
                                      persistent=True)
        self.inflight = InflightRegistry()
        self.stats: dict[str, int] = {
            "requests_total": 0, "requests_failed": 0, "jobs_compare": 0,
            "jobs_sweep": 0, "points_total": 0, "points_simulated": 0,
            "points_cached": 0, "points_deduped": 0, "point_errors": 0,
        }
        self.queue_depth = 0
        self.queue_depth_peak = 0
        self.active_requests = 0
        #: Server-owned host-scope registry, fed unconditionally — the
        #: process-wide :mod:`repro.obs` switch being off must never
        #: blind the service's own ``/metrics``.
        self.registry = MetricsRegistry()
        self._snapshots = _SnapshotRing()
        self._sampler_task: asyncio.Task | None = None
        self._req_seq = 0

    # -- lifecycle ---------------------------------------------------------
    @property
    def ready(self) -> bool:
        """Readiness (vs liveness): the worker pool exists and has
        answered (:meth:`warm`), or a first job forced its creation."""
        return self.executor.pool_ready

    def warm(self) -> None:
        """Fork the pool workers now, from a quiet (single-threaded)
        context, before the event loop starts."""
        self.executor.warm()

    def close(self) -> None:
        self.executor.close()

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.Server:
        """Bind and return the listening :class:`asyncio.Server`."""
        srv = await asyncio.start_server(self._handle_connection,
                                         host, port)
        if self._sampler_task is None:
            self._sampler_task = asyncio.get_running_loop().create_task(
                self._sample_loop())
        _oplog.log("server.start", workers=self.executor.workers,
                   cached=self.executor.cache is not None)
        return srv

    async def _sample_loop(self) -> None:
        """Feed the snapshot ring ~1/s (cancelled with the loop)."""
        try:
            while True:
                self._snapshots.sample(self)
                await asyncio.sleep(SNAPSHOT_INTERVAL_S)
        except asyncio.CancelledError:  # pragma: no cover - teardown
            pass

    # -- point execution ---------------------------------------------------
    async def _submit(self, configs: list[_t.Any], trace: bool
                      ) -> list[Future[PointRun]]:
        """A job's one cache hop: :meth:`SweepExecutor.submit` for every
        point it registered, in plan order, from one worker thread (a
        cache lookup blocks on disk)."""
        if not configs:
            return []
        return await asyncio.to_thread(
            lambda: [self.executor.submit(cfg, trace=trace)
                     for cfg in configs])

    async def _simulate(self, hop: asyncio.Task[list[Future[PointRun]]],
                        i: int) -> PointRun:
        """Point ``i`` of a job's hop (the in-flight task body).

        A hit comes back resolved and is read at once (wrapping a done
        future would still cost a loop wake-up); a miss is counted in
        the queue depth until its pool future resolves.
        """
        fut = (await hop)[i]
        if fut.done():
            run = fut.result()
        else:
            self.queue_depth += 1
            self.queue_depth_peak = max(self.queue_depth_peak,
                                        self.queue_depth)
            try:
                run = await asyncio.wrap_future(fut)
            finally:
                self.queue_depth -= 1
        if not run.cached:
            self.registry.histogram(
                "serve.point_simulate_seconds", scope=HOST,
                bounds=_obs.POINT_WALL_BOUNDS).observe(
                    round(run.elapsed_s, 6))
        return run

    # -- job execution -----------------------------------------------------
    async def run_job(self, job: Job,
                      emit: _t.Callable[[list[dict[str, _t.Any]]],
                                        _t.Awaitable[None]]) -> None:
        """Execute ``job``, streaming events through ``emit``.

        Every point joins its in-flight task or registers one before the
        first ``await`` (a job arriving during this one's cache hop
        joins it); one worker thread then submits the registered points.
        Points that land in one wake-up are taken in plan order, each
        ``point`` event followed by the ``record`` of every cell it
        completes, and the wake-up's events go to ``emit`` as one batch
        (see :mod:`~repro.serve.protocol`).
        """
        t0 = time.perf_counter()
        rt = RequestTrace(job.kind) if job.trace else None
        if rt is not None:
            for phase in ("parse", "plan", "simulate"):
                rt.phase(phase)
        plans = job.points()
        request_id = _oplog.current_context().get("request_id")
        _oplog.log("job.start", kind=job.kind, points=len(plans),
                   trace=job.trace)

        fresh: list[_t.Any] = []
        # The hop's body starts at this coroutine's first await, once
        # ``fresh`` holds every point registered below.
        hop = asyncio.get_running_loop().create_task(
            self._submit(fresh, job.trace))
        keys = [self.executor.point_key(plan.config) for plan in plans]
        joined: list[bool] = []
        tasks: list[asyncio.Task] = []
        for plan, key in zip(plans, keys):
            task = self.inflight.join(key)
            joined.append(task is not None)
            if task is None:
                task = self.inflight.register(
                    key, functools.partial(self._simulate, hop, len(fresh)))
                fresh.append(plan.config)
            tasks.append(task)

        landed: asyncio.Queue[int] = asyncio.Queue()
        for i, task in enumerate(tasks):
            task.add_done_callback(lambda _task, i=i: landed.put_nowait(i))

        completed: dict[tuple, _t.Any] = {}
        point_cells = job.point_cells
        #: Points each cell still waits for; a cell's record is built
        #: when its count reaches zero.  Quiet aliases of one machine
        #: size ("quiet", "none") are distinct cells with equal records.
        waiting: Counter[tuple] = Counter(
            cell for cells in point_cells.values() for cell in cells)
        outcomes = {"simulated": 0, "cached": 0, "deduped": 0}
        point_errors: list[dict[str, _t.Any]] = []
        n_records = 0
        trace_dropped = 0
        events: list[dict[str, _t.Any]] = []
        remaining = len(plans)
        while remaining:
            batch = [await landed.get()]
            while not landed.empty():
                batch.append(landed.get_nowait())
            batch.sort()
            remaining -= len(batch)
            for i in batch:
                plan = plans[i]
                try:
                    # detlint: disable-next=ASYNC001 -- done: i came from its done callback
                    run = tasks[i].result()
                except (Exception, asyncio.CancelledError) as exc:
                    err = {"label": plan.label, "kind": type(exc).__name__,
                           "message": str(exc)}
                    point_errors.append(err)
                    self.stats["point_errors"] += 1
                    _oplog.log("point.error", level="error",
                               label=plan.label, point_key=keys[i],
                               error=type(exc).__name__, message=str(exc))
                    events.append({"event": "error",
                                   "request_id": request_id, **err})
                    continue
                outcome = ("deduped" if joined[i] else
                           "cached" if run.cached else "simulated")
                self.stats[f"points_{outcome}"] += 1
                self.stats["points_total"] += 1
                self.registry.counter("serve.points_total", scope=HOST,
                                      outcome=outcome).inc()
                _oplog.log("point.done", level="debug", point_key=keys[i],
                           outcome=outcome, label=plan.label,
                           elapsed_s=round(run.elapsed_s, 6),
                           worker_pid=run.shipped.get("worker_pid"))
                completed[plan.key] = run.result
                outcomes[outcome] += 1
                if rt is not None:
                    if outcome == "deduped" \
                            and not rt.has_phase("dedup_wait"):
                        rt.phase("dedup_wait")
                    if run.shipped.get("trace") is not None:
                        rt.add_point(plan.label, run.shipped["trace"])
                        trace_dropped += run.shipped.get("trace_dropped", 0)
                events.append({"event": "point", "key": list(plan.key),
                               "label": plan.label, "outcome": outcome,
                               "elapsed_s": round(run.elapsed_s, 6)})
                cells = point_cells[plan.key]
                waiting.subtract(cells)
                ready = [cell for cell in cells if not waiting[cell]]
                if ready:
                    records, _ = job.assemble(completed, cells=ready)
                    n_records += len(records)
                    events += [{"event": "record", "record": record}
                               for record in records]
            self.registry.gauge("serve.queue_depth_peak", scope=HOST
                                ).track_max(self.queue_depth_peak)
            if remaining:
                await emit(events)
                events = []

        # Cells still waiting lost a point: a noisy point whose quiet
        # twin failed is a MissingBaseline error.
        _, missing = job.assemble(
            completed, cells=[cell for cell, n in waiting.items() if n])
        for err in missing:
            point_errors.append(err)
            events.append({"event": "error", "request_id": request_id,
                           **err})
        if rt is not None:
            rt.phase("stream")
            events.append({"event": "trace", "request_id": request_id,
                           "points": rt.n_points,
                           "dropped_events": trace_dropped,
                           "trace": rt.to_chrome()})
        wall_s = time.perf_counter() - t0
        events.append({"event": "stats", "kind": job.kind,
                       "points": len(plans),
                       "records": n_records,
                       "simulated": outcomes["simulated"],
                       "cached": outcomes["cached"],
                       "deduped": outcomes["deduped"],
                       "errors": len(point_errors),
                       "wall_s": round(wall_s, 6)})
        await emit(events)
        self.registry.histogram("serve.job_wall_seconds", scope=HOST,
                                bounds=REQUEST_WALL_BOUNDS,
                                kind=job.kind).observe(round(wall_s, 6))
        _oplog.log("job.finished", kind=job.kind, points=len(plans),
                   records=n_records, errors=len(point_errors),
                   wall_s=round(wall_s, 6))

    # -- metrics / logs documents ------------------------------------------
    def metrics_doc(self, *, window: float | None = None
                    ) -> dict[str, _t.Any]:
        """The JSON ``/metrics`` document.

        Always carries the ``serve`` counters and the server-owned
        ``registry`` snapshot; ``window`` adds rolling rates from the
        snapshot ring.
        """
        doc: dict[str, _t.Any] = {
            "serve": {**self.stats,
                      "inflight": len(self.inflight),
                      "inflight_joined": self.inflight.joined,
                      "queue_depth": self.queue_depth,
                      "queue_depth_peak": self.queue_depth_peak,
                      "active_requests": self.active_requests,
                      "workers": self.executor.workers},
            "version": __version__,
        }
        cache = self.executor.cache
        if cache is not None:
            doc["cache"] = {**cache.stats.as_dict(),
                            "entries": len(cache)}
        doc["registry"] = self.registry.snapshot()
        if window is not None:
            doc["window"] = self._snapshots.rates(window, self)
        return doc

    def prometheus_text(self) -> str:
        """``/metrics`` in Prometheus text exposition format."""
        counters: dict[str, _t.Any] = {
            f"serve.{k}": v for k, v in self.stats.items()}
        counters["serve.inflight_joined_total"] = self.inflight.joined
        counters["serve.inflight_registered_total"] = \
            self.inflight.registered
        gauges: dict[str, _t.Any] = {
            "serve.inflight": len(self.inflight),
            "serve.queue_depth": self.queue_depth,
            "serve.queue_depth_peak": self.queue_depth_peak,
            "serve.active_requests": self.active_requests,
            "serve.workers": self.executor.workers,
            "serve.ready": 1 if self.ready else 0,
        }
        cache = self.executor.cache
        if cache is not None:
            for k, v in cache.stats.as_dict().items():
                if isinstance(v, (int, float)):
                    counters[f"serve.cache_{k}"] = v
            gauges["serve.cache_entries"] = len(cache)
        return _prom_render(self.registry, extra_counters=counters,
                            extra_gauges=gauges)

    def logs_doc(self, params: _t.Mapping[str, str]) -> dict[str, _t.Any]:
        """The ``GET /v1/logs`` document (query params pre-split)."""
        log = _oplog.get()
        since = int(params.get("since", "0") or 0)
        limit = int(params.get("limit", "") or 200)
        events = log.events(level=params.get("level") or None,
                            event=params.get("event") or None,
                            since_seq=since, limit=limit)
        return {"events": events, "count": len(events),
                "total": log.total, "dropped": log.dropped,
                "next_seq": events[-1]["seq"] if events else since}

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    write_json_response(writer, 400, {"error": str(exc)})
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away; nothing to salvage
        except asyncio.CancelledError:
            # The loop is tearing down (server stop while a keep-alive
            # connection idles in read_request): end quietly, or the
            # stream protocol logs the cancelled task as an ERROR.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # the transport is closed either way

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns keep-alive.

        Every request gets a per-server ``request_id`` pushed as oplog
        context, a route/status counter, and a latency observation; all
        error bodies echo the ``request_id``.
        """
        self._req_seq += 1
        request_id = f"r-{self._req_seq:06d}"
        self.stats["requests_total"] += 1
        self.active_requests += 1
        t0 = time.perf_counter()
        path, params = split_query(request.path)
        route = _ROUTES.get(path, "other")
        status = 200
        with _oplog.context(request_id=request_id):
            _oplog.log("request.start", method=request.method,
                       path=request.path, route=route)
            try:
                if request.method == "GET" and path == "/healthz":
                    doc: dict[str, _t.Any] = {
                        "ok": True, "version": __version__,
                        "workers": self.executor.workers}
                    if params.get("ready") not in (None, "0", "false"):
                        doc["ready"] = self.ready
                        if not self.ready:
                            doc["ok"] = False
                            doc["request_id"] = request_id
                            status = 503
                    write_json_response(writer, status, doc)
                    return True
                if request.method == "GET" and path == "/metrics":
                    accept = request.headers.get("accept", "")
                    fmt = params.get("format", "")
                    if fmt in ("prom", "prometheus", "text") or (
                            not fmt and "text/plain" in accept):
                        write_text_response(writer, 200,
                                            self.prometheus_text())
                        return True
                    window: float | None = None
                    if params.get("window"):
                        try:
                            window = float(params["window"])
                        except ValueError:
                            status = 400
                            self.stats["requests_failed"] += 1
                            write_json_response(writer, 400, {
                                "error": "window must be a number",
                                "request_id": request_id})
                            return True
                    write_json_response(writer, 200,
                                        self.metrics_doc(window=window))
                    return True
                if request.method == "GET" and path == "/v1/logs":
                    try:
                        doc = self.logs_doc(params)
                    except (ValueError, ReproError) as exc:
                        status = 400
                        self.stats["requests_failed"] += 1
                        write_json_response(writer, 400, {
                            "error": str(exc), "request_id": request_id})
                        return True
                    write_json_response(writer, 200, doc)
                    return True
                if request.method == "POST" and path in (
                        "/v1/jobs", "/v1/compare", "/v1/sweep"):
                    doc = request.json()
                    if path != "/v1/jobs" and isinstance(doc, dict):
                        doc.setdefault("kind", path.rsplit("/", 1)[-1])
                    try:
                        job = parse_job(doc)
                    except ReproError as exc:
                        status = 400
                        self.stats["requests_failed"] += 1
                        _oplog.log("request.reject", level="warning",
                                   error=str(exc))
                        write_json_response(writer, 400, {
                            "error": str(exc), "request_id": request_id})
                        return True
                    self.stats[f"jobs_{job.kind}"] += 1
                    job_id = (f"j-{self.stats['jobs_compare'] + self.stats['jobs_sweep']:06d}")
                    stream = ChunkedWriter(writer)
                    with _oplog.context(job_id=job_id):
                        await self.run_job(job, stream.send)
                    await stream.finish()
                    return True
                status = 404
                self.stats["requests_failed"] += 1
                _oplog.log("request.reject", level="warning",
                           error=f"no route for {request.method} {path}")
                write_json_response(
                    writer, 404,
                    {"error": f"no route for {request.method} "
                              f"{request.path}",
                     "request_id": request_id})
                return True
            except ProtocolError as exc:
                status = 400
                self.stats["requests_failed"] += 1
                _oplog.log("request.reject", level="warning",
                           error=str(exc))
                write_json_response(writer, 400, {
                    "error": str(exc), "request_id": request_id})
                return False
            except (ConnectionError, asyncio.IncompleteReadError):
                status = 499  # client went away mid-response
                self.stats["requests_failed"] += 1
                _oplog.log("request.aborted", level="warning")
                raise
            except Exception as exc:  # a bug, not a bad request
                status = 500
                self.stats["requests_failed"] += 1
                self.registry.counter("serve.http_exceptions_total",
                                      scope=HOST,
                                      kind=type(exc).__name__).inc()
                _oplog.log("request.error", level="error",
                           error=type(exc).__name__, message=str(exc))
                try:
                    write_json_response(writer, 500, {
                        "error": f"{type(exc).__name__}: {exc}",
                        "request_id": request_id})
                except ConnectionError:
                    pass
                return False
            finally:
                self.active_requests -= 1
                elapsed = time.perf_counter() - t0
                self.registry.counter("serve.http_requests_total",
                                      scope=HOST, route=route,
                                      status=str(status)).inc()
                self.registry.histogram("serve.http_request_seconds",
                                        scope=HOST,
                                        bounds=REQUEST_WALL_BOUNDS,
                                        route=route).observe(
                                            round(elapsed, 6))
                _oplog.log("request.end", status=status,
                           elapsed_s=round(elapsed, 6))


class BackgroundServer:
    """An :class:`ExperimentServer` on a daemon thread (tests, CLI
    load tools).

    Spawns the worker pool *before* the event loop thread starts (so
    processes fork from a quiet interpreter), binds an ephemeral port,
    and exposes it as :attr:`address`.  Use as a context manager::

        with BackgroundServer(workers=2, cache=dir) as bg:
            client = ServeClient(*bg.address)

    ``warm=False`` skips the eager pool spawn — the server starts
    not-ready (``/healthz?ready=1`` is 503) until its first job forces
    pool creation.
    """

    def __init__(self, *, workers: int | None = None,
                 cache: ResultCache | str | None = None,
                 host: str = "127.0.0.1", warm: bool = True) -> None:
        self.server = ExperimentServer(workers=workers, cache=cache)
        self.host = host
        self.port: int | None = None
        self._warm = warm
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        # Guards the loop-thread/caller-thread handshake state
        # (_loop/_stop/port): the loop thread publishes them before
        # setting _ready, but __exit__ and address can also race a
        # server that is still starting (or crashed mid-start).
        self._state_lock = threading.Lock()

    @property
    def address(self) -> tuple[str, int]:
        with self._state_lock:
            port = self.port
        if port is None:
            raise RuntimeError("server is not running")
        return self.host, port

    def __enter__(self) -> "BackgroundServer":
        if self._warm:
            self.server.warm()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        with self._state_lock:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
        srv = await self.server.start(self.host, 0)
        with self._state_lock:
            self.port = srv.sockets[0].getsockname()[1]
        self._ready.set()
        async with srv:
            await self._stop.wait()

    def __exit__(self, *exc: _t.Any) -> None:
        with self._state_lock:
            loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
        self.server.close()
