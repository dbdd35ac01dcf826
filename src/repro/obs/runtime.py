"""Process-wide observability state and machine harvesting.

Experiments and the :class:`~repro.core.Machine` stay pure, and the
CLI (or a test) flips one process-global switch::

    from repro import obs
    obs.configure(metrics=True, trace="out.json",
                  trace_categories=["net", "mpi"])
    ... run experiments ...
    print(obs.registry().render())
    obs.write_trace()

Everything is **off by default** and the instrumentation points are
gated so the disabled path costs at most one attribute test — results
are byte-identical with telemetry on or off either way, because no
metric or trace read ever feeds back into simulation decisions (the
no-op property ``tests/test_determinism.py`` asserts).

Note on process fan-out: the state is per-process.  Sweeps run with
``--workers N`` collect simulation-level metrics inside each worker;
the parent process still aggregates executor-level metrics (timings,
cache hits) and emits sweep spans, but per-sim counters from workers
are not merged back.  Serial runs (the default) see everything.
"""

from __future__ import annotations

import contextlib
import typing as _t

from ..errors import ConfigError
from . import oplog as _oplog
from .metrics import DELIVERY_LATENCY_BOUNDS, HOST, MetricsRegistry
from .trace import TRACE_CATEGORIES, SpanTracer

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.machine import Machine

__all__ = ["configure", "disable", "metrics_enabled", "det_check_enabled",
           "registry", "tracer", "scoped_point", "write_trace",
           "harvest_machine", "harvest_sweep_stats",
           "record_phase_seconds", "parse_categories"]

#: Sweep-point wall-time bounds in seconds.
POINT_WALL_BOUNDS = (0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)


class _ObsState:
    """The one per-process observability singleton."""

    def __init__(self) -> None:
        self.metrics_on = False
        self.registry = MetricsRegistry()
        self.tracer: SpanTracer | None = None
        self.trace_path: str | None = None
        #: Determinism spot-check: every machine folds its scheduled
        #: ``(time, priority, seq)`` tuples into an order-sensitive
        #: checksum attached to ``RunResult.meta["det_check"]``
        #: (asserted serial == workers by tests/test_determinism.py).
        self.det_check_on = False


_STATE = _ObsState()


def parse_categories(spec: str | None) -> list[str] | None:
    """CLI ``--trace-categories net,mpi`` -> category list.

    ``None``/empty means the tracer default (everything except the
    per-event ``sim`` firehose); the literal ``"all"`` enables every
    category including ``sim``.
    """
    if spec is None or not spec.strip():
        return None
    if spec.strip().lower() == "all":
        return list(TRACE_CATEGORIES)
    return [c.strip() for c in spec.split(",") if c.strip()]


def configure(*, metrics: bool | None = None,
              trace: str | bool | None = None,
              trace_categories: _t.Iterable[str] | str | None = None,
              trace_cap: int = 200_000,
              det_check: bool | None = None) -> None:
    """Turn telemetry on for this process.

    Parameters
    ----------
    metrics:
        Enable (or, with ``False``, disable) metrics collection.
    trace:
        Output path for Chrome trace JSON (written by
        :func:`write_trace`), or ``True`` for an in-memory-only tracer.
        Enabling tracing implicitly enables metrics.
    trace_categories:
        Categories to record (list or comma-string; ``None`` = all).
    trace_cap:
        Tracer ring-buffer capacity.
    det_check:
        Seed an order-sensitive checksum of every scheduled
        ``(time, priority, seq)`` tuple into
        ``RunResult.meta["det_check"]`` — cheap runtime evidence that
        two runs scheduled identically (sweeps forward the switch into
        worker processes, so serial and ``--workers`` runs are
        directly comparable).
    """
    if metrics is not None:
        _STATE.metrics_on = bool(metrics)
    if det_check is not None:
        _STATE.det_check_on = bool(det_check)
    if trace:
        if isinstance(trace_categories, str):
            trace_categories = parse_categories(trace_categories)
        _STATE.tracer = SpanTracer(trace_categories, cap=trace_cap)
        _STATE.trace_path = trace if isinstance(trace, str) else None
        _STATE.metrics_on = True
    elif trace is not None:  # trace=False / "" -> tracing off
        _STATE.tracer = None
        _STATE.trace_path = None


def disable() -> None:
    """Reset to the zero-telemetry default (fresh registry, no tracer,
    ring-only oplog)."""
    _STATE.metrics_on = False
    _STATE.registry = MetricsRegistry()
    _STATE.tracer = None
    _STATE.trace_path = None
    _STATE.det_check_on = False
    _oplog.reset()


def metrics_enabled() -> bool:
    return _STATE.metrics_on


def det_check_enabled() -> bool:
    """True when the scheduled-event checksum is on process-wide."""
    return _STATE.det_check_on


def registry() -> MetricsRegistry:
    """The process-wide registry (always importable; only *fed* when
    :func:`metrics_enabled`)."""
    return _STATE.registry


def tracer() -> SpanTracer | None:
    """The active tracer, or ``None`` when tracing is off."""
    return _STATE.tracer


@contextlib.contextmanager
def scoped_point(det_check: bool,
                 tr: SpanTracer | None = None) -> _t.Iterator[None]:
    """Run one sweep point under its own telemetry switches.

    Sweep workers run many points: ``det_check`` and, when given, the
    point tracer ``tr`` hold for the block only, and the previous
    tracer, metrics flag and ``det_check`` switch are restored on exit,
    so a pooled worker carries no state between points.  Machines
    capture the active tracer at build time, so the machine must be
    built inside the block.
    """
    prev = (_STATE.tracer, _STATE.metrics_on, _STATE.det_check_on)
    _STATE.det_check_on = bool(det_check)
    if tr is not None:
        _STATE.tracer = tr
    try:
        yield
    finally:
        _STATE.tracer, _STATE.metrics_on, _STATE.det_check_on = prev


def write_trace(path: str | None = None) -> tuple[str, int]:
    """Write the active tracer to ``path`` (or the configured path).

    Returns ``(path, events_written)``.
    """
    tr = _STATE.tracer
    if tr is None:
        raise ConfigError("tracing is not enabled (obs.configure(trace=...))")
    path = path or _STATE.trace_path
    if not path:
        raise ConfigError("no trace output path configured")
    return path, tr.write(path)


# -- harvesting ------------------------------------------------------------

def harvest_machine(machine: "Machine") -> None:
    """Fold one finished machine's counters into the global registry.

    Called by :func:`repro.core.run_experiment` after the simulation
    completes (a no-op unless metrics are enabled).  Everything read
    here is sim-derived, so the resulting sim-scope snapshot is as
    deterministic as the run itself.
    """
    if not _STATE.metrics_on:
        return
    reg = _STATE.registry
    env = machine.env
    reg.counter("sim.events_processed").inc(env.events_processed)
    reg.counter("sim.events_scheduled").inc(env.events_scheduled)
    reg.counter("sim.events_cancelled_discarded").inc(env.events_cancelled)
    reg.gauge("sim.heap_depth_peak").track_max(env.max_heap_depth)
    reg.gauge("sim.time_ns").track_max(env.now)
    reg.counter("sim.runs").inc()

    net = machine.network
    reg.counter("net.messages_total").inc(net.messages_transferred)
    reg.counter("net.bytes_total").inc(net.bytes_transferred)
    reg.counter("net.messages_dropped").inc(net.messages_dropped)
    reg.counter("net.duplicates_injected").inc(net.duplicates_injected)
    reg.gauge("net.inflight_peak").track_max(net.inflight_peak)
    reg.gauge("net.channel_backlog_peak").track_max(net.channel_backlog_peak)
    lat = reg.histogram("net.delivery_latency_ns",
                        bounds=DELIVERY_LATENCY_BOUNDS)
    for i, c in enumerate(net.latency_bucket_counts):
        if c:
            # Re-observing bucket-by-bucket keeps Network free of any
            # obs import; bounds here and in Network must stay in sync.
            lat.bucket_counts[i] += c
            lat.count += c
    lat.total += net.latency_total_ns

    for op, n in sorted(machine.mpi.op_totals.items()):
        reg.counter("mpi.ops_total", op=op).inc(n)
    transport = machine.mpi.transport
    if transport is not None:
        stats = transport.stats
        reg.counter("faults.retries_total").inc(stats.total_retries)
        reg.counter("faults.duplicates_suppressed_total").inc(
            stats.total_duplicates_suppressed)
        reg.counter("faults.acks_sent_total").inc(
            sum(stats.acks_sent.values()))
        reg.counter("faults.failures_total").inc(stats.failures)


def harvest_sweep_stats(stats: _t.Any, n_failures: int) -> None:
    """Fold one executor fan-out into the registry: per-point outcomes
    from a :class:`~repro.parallel.SweepStats`'s timings, ``n_failures``
    failed points, and sweep-level wall-clock gauges (host-scoped)."""
    if not _STATE.metrics_on:
        return
    reg = _STATE.registry
    hist = reg.histogram("exec.point_wall_s", scope=HOST,
                         bounds=POINT_WALL_BOUNDS)
    hits = misses = 0
    for timing in stats.timings:
        if timing.cached:
            hits += 1
        else:
            misses += 1
            hist.observe(round(timing.elapsed_s, 6))
    reg.counter("exec.points_total").inc(hits + misses)
    reg.counter("exec.cache_hits").inc(hits)
    reg.counter("exec.cache_misses").inc(misses)
    reg.counter("exec.point_failures").inc(n_failures)
    reg.gauge("exec.workers", scope=HOST).set(stats.workers)
    reg.gauge("exec.wall_s", scope=HOST).set(round(stats.wall_s, 6))
    if stats.wall_s > 0 and stats.workers:
        util = stats.simulated_s / (stats.wall_s * stats.workers)
        reg.gauge("exec.worker_utilization", scope=HOST).set(round(util, 4))


def record_phase_seconds(phase: str, seconds: float) -> None:
    """Harness phase timing (``phase`` is an experiment id or stage
    name); host-scoped wall clock."""
    if not _STATE.metrics_on:
        return
    _STATE.registry.gauge("harness.phase_s", scope=HOST,
                          phase=phase).set(round(seconds, 6))
