"""repro.obs — run-telemetry: deterministic metrics + Chrome tracing.

The simulator *models* an observer (:mod:`repro.ktau`); this package
observes the simulator itself.  Two instruments, one switchboard:

* :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — counters,
  gauges, and fixed-bucket histograms fed by instrumentation points in
  ``sim``, ``net``, ``mpi``, ``faults``, ``parallel``, and ``harness``.
  Sim-scoped metrics are seed-deterministic; wall-clock quantities are
  host-scoped and kept out of the deterministic snapshot.
* :class:`SpanTracer` (:mod:`repro.obs.trace`) — a capped ring buffer
  of Chrome ``trace_event`` spans (open the JSON in Perfetto), with
  per-category gating: ``sim``, ``net``, ``mpi``, ``faults``,
  ``sweep``, ``harness``.
* :mod:`repro.obs.runtime` — the process-wide on/off switch the CLI
  drives (``--trace``, ``--trace-categories``, ``--metrics``,
  ``repro stats``).  Everything is off by default and the disabled
  path is free; enabling telemetry never changes simulation results.
* :mod:`repro.obs.critpath` — the cross-node critical-path tracer:
  a :class:`DependencyRecorder` of causal MPI/network edges plus a
  backward walk (:func:`compute_critical_path`) that charges every
  nanosecond of the makespan to a named kernel activity, injected
  noise source, network time, retransmission stalls, or genuine
  compute — the "who stole the makespan" table E16 validates.
* :mod:`repro.obs.wavefront` — the idle-wave extractor: pairs the
  edge logs of a baseline and a one-off-delayed run, measures the
  planted delay's rank-by-rank arrival times and residual magnitude,
  and fits the propagation speed and decay length E20 validates.
* :mod:`repro.obs.oplog` — structured operational JSON logging with
  contextvars-propagated correlation ids (``request_id`` → ``job_id``
  → ``point_key`` → worker pid): ring buffer behind ``GET /v1/logs``
  plus an optional NDJSON file sink (``--log-json``).
* :mod:`repro.obs.prom` — Prometheus text exposition renderer and the
  strict parser/validator CI uses to scrape-check ``GET /metrics``.
* :mod:`repro.obs.reqtrace` — the per-request trace stitcher: server
  phase spans plus worker-shipped simulation spans, exported as one
  deterministic Perfetto document per request with flow arrows from
  request to simulation.

See docs/OBSERVABILITY.md for the metric catalogue and a Perfetto
walkthrough.
"""

from .critpath import (
    CriticalPathResult,
    DependencyRecorder,
    PathSegment,
    WaitRecord,
    compute_critical_path,
    diff_critical_paths,
    format_critical_path,
    format_diff,
)
from .metrics import (
    HOST,
    SIM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
)
from . import oplog, prom, reqtrace
from .runtime import (
    configure,
    det_check_enabled,
    disable,
    harvest_machine,
    metrics_enabled,
    parse_categories,
    registry,
    scoped_point,
    tracer,
    write_trace,
)
from .trace import DEFAULT_TRACE_CATEGORIES, TRACE_CATEGORIES, SpanTracer
from .wavefront import (
    WavefrontResult,
    extract_wavefront,
    format_wavefront,
    match_edge_logs,
    propagate_delay,
)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "diff_snapshots",
    "SIM", "HOST",
    "SpanTracer", "TRACE_CATEGORIES", "DEFAULT_TRACE_CATEGORIES",
    "DependencyRecorder", "WaitRecord", "PathSegment",
    "CriticalPathResult", "compute_critical_path", "diff_critical_paths",
    "format_critical_path", "format_diff",
    "WavefrontResult", "extract_wavefront", "format_wavefront",
    "match_edge_logs", "propagate_delay",
    "configure", "disable", "metrics_enabled", "det_check_enabled",
    "registry", "tracer", "scoped_point", "write_trace",
    "harvest_machine", "parse_categories",
    "oplog", "prom", "reqtrace",
]
