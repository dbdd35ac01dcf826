"""Unit tests for :mod:`repro.obs`: registry, tracer, runtime switch."""

import json

import pytest

from repro import obs
from repro.core import Machine, MachineConfig
from repro.errors import ConfigError
from repro.obs import (
    DEFAULT_TRACE_CATEGORIES,
    HOST,
    SIM,
    TRACE_CATEGORIES,
    MetricsRegistry,
    SpanTracer,
    diff_snapshots,
)
from repro.obs.metrics import DELIVERY_LATENCY_BOUNDS
from repro.obs.runtime import parse_categories


# -- counters / gauges ---------------------------------------------------------

def test_counter_increments_and_rejects_decrease():
    reg = MetricsRegistry()
    c = reg.counter("x.total")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ConfigError):
        c.inc(-1)


def test_gauge_set_and_track_max():
    reg = MetricsRegistry()
    g = reg.gauge("x.depth")
    g.set(7)
    g.set(3)
    assert g.value == 3
    g.track_max(10)
    g.track_max(2)
    assert g.value == 10


# -- histograms ---------------------------------------------------------------

def test_histogram_bucket_placement_and_overflow():
    reg = MetricsRegistry()
    h = reg.histogram("lat", bounds=(10, 100, 1000))
    for v in (5, 10, 11, 1000, 5000):
        h.observe(v)
    assert h.count == 5
    assert h.total == 5 + 10 + 11 + 1000 + 5000
    # <=10: {5, 10}; <=100: {11}; <=1000: {1000}; +Inf: {5000}
    assert h.bucket_counts == [2, 1, 1, 1]
    snap = h.as_value()
    assert snap["buckets"] == {"10": 2, "100": 1, "1000": 1, "+Inf": 1}


def test_histogram_rejects_unsorted_bounds():
    from repro.obs.metrics import Histogram

    reg = MetricsRegistry()
    with pytest.raises(ConfigError):
        reg.histogram("bad", bounds=(100, 10))
    with pytest.raises(ConfigError):
        Histogram("empty", (), SIM, bounds=())
    # The registry treats an empty bounds argument as "use defaults".
    h = reg.histogram("defaulted", bounds=())
    assert len(h.bounds) > 0


# -- registry -----------------------------------------------------------------

def test_registry_get_or_create_identity_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("ops", op="send")
    b = reg.counter("ops", op="send")
    c = reg.counter("ops", op="recv")
    assert a is b and a is not c
    a.inc(2)
    c.inc(1)
    snap = reg.snapshot()
    assert snap == {"ops{op=recv}": 1, "ops{op=send}": 2}
    assert list(snap) == sorted(snap)  # deterministic key order


def test_registry_type_and_scope_conflicts():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ConfigError):
        reg.gauge("x")
    reg.gauge("y", scope=SIM)
    with pytest.raises(ConfigError):
        reg.gauge("y", scope=HOST)
    with pytest.raises(ConfigError):
        reg.counter("z", scope="bogus")


def test_snapshot_sim_only_drops_host_metrics():
    reg = MetricsRegistry()
    reg.counter("sim.thing").inc()
    reg.gauge("wall.thing", scope=HOST).set(1.5)
    assert "wall.thing" in reg.snapshot()
    assert reg.snapshot(sim_only=True) == {"sim.thing": 1}


def test_registry_render_and_reset():
    reg = MetricsRegistry()
    reg.counter("a.total").inc(3)
    reg.histogram("b.lat", bounds=(10,)).observe(4)
    text = reg.render()
    assert "a.total: 3" in text
    assert "b.lat: count=1 sum=4" in text
    reg.reset()
    assert len(reg) == 0 and reg.render() == ""


def test_diff_snapshots_counters_histograms_and_new_keys():
    before = {"c": 2, "same": 5,
              "h": {"count": 1, "sum": 10, "buckets": {"10": 1, "+Inf": 0}}}
    after = {"c": 7, "same": 5, "new": 3,
             "h": {"count": 3, "sum": 40, "buckets": {"10": 2, "+Inf": 1}}}
    d = diff_snapshots(before, after)
    assert d["c"] == 5
    assert d["new"] == 3
    assert "same" not in d  # unchanged metrics dropped
    assert d["h"] == {"count": 2, "sum": 30, "buckets": {"10": 1, "+Inf": 1}}


# -- span tracer --------------------------------------------------------------

def test_tracer_rejects_unknown_categories_and_bad_cap():
    with pytest.raises(ConfigError):
        SpanTracer(["nope"])
    with pytest.raises(ConfigError):
        SpanTracer(cap=0)


def test_tracer_default_categories_exclude_sim_firehose():
    tr = SpanTracer()
    assert tr.categories == frozenset(DEFAULT_TRACE_CATEGORIES)
    assert not tr.enabled("sim")
    assert tr.enabled("net")
    assert SpanTracer(TRACE_CATEGORIES).enabled("sim")


def test_tracer_category_gating():
    tr = SpanTracer(["net"])
    assert tr.enabled("net") and not tr.enabled("mpi")


def test_tracer_ring_buffer_caps_and_keeps_newest():
    tr = SpanTracer(["sim"], cap=5)
    for i in range(8):
        tr.instant("sim", f"e{i}", i * 1000)
    assert len(tr) == 5
    assert tr.dropped == 3
    names = [e["name"] for e in tr.events()]
    assert names == ["e3", "e4", "e5", "e6", "e7"]  # oldest overwritten


def test_tracer_chrome_output_is_valid_trace_event_json(tmp_path):
    tr = SpanTracer(["net", "harness"])
    tr.complete("net", "msg", 2_000, 1_500, tid=3,
                args=("src", 1, "size", 64, "kind", "data"))
    tr.instant("net", "drop", 5_000, args={"why": "fault"})
    tr.host_span("harness", "E1", tr._t0 + 0.5, 0.25, args={"scale": "small"})
    path = tmp_path / "trace.json"
    n = tr.write(str(path))
    assert n == 3

    doc = json.loads(path.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    events = doc["traceEvents"]
    # Two metadata records name the sim / host process rows.
    meta = [e for e in events if e["ph"] == "M"]
    assert {m["pid"] for m in meta} == {1, 2}

    span = next(e for e in events if e["ph"] == "X" and e["cat"] == "net")
    assert span["ts"] == 2.0 and span["dur"] == 1.5  # ns -> us
    assert span["pid"] == 1 and span["tid"] == 3
    assert span["args"] == {"src": 1, "size": 64, "kind": "data"}

    inst = next(e for e in events if e["ph"] == "i")
    assert inst["s"] == "t" and inst["args"] == {"why": "fault"}

    host = next(e for e in events if e.get("pid") == 2 and e["ph"] == "X")
    assert host["ts"] == pytest.approx(0.5e6, rel=0.01)
    assert host["dur"] == pytest.approx(0.25e6, rel=0.01)

    other = doc["otherData"]
    assert other["dropped_events"] == 0
    assert "net" in other["categories"]


# -- runtime switchboard ------------------------------------------------------

def test_parse_categories():
    assert parse_categories(None) is None
    assert parse_categories("  ") is None
    assert parse_categories("all") == list(TRACE_CATEGORIES)
    assert parse_categories("net, mpi") == ["net", "mpi"]


def test_configure_trace_implies_metrics_and_disable_resets():
    assert not obs.metrics_enabled()
    obs.configure(trace=True)
    assert obs.metrics_enabled()
    assert obs.tracer() is not None
    obs.registry().counter("x").inc()
    obs.configure(trace=False)
    assert obs.tracer() is None
    obs.disable()
    assert not obs.metrics_enabled()
    assert len(obs.registry()) == 0  # fresh registry


def test_write_trace_requires_configuration(tmp_path):
    with pytest.raises(ConfigError):
        obs.write_trace()
    obs.configure(trace=str(tmp_path / "t.json"))
    path, n = obs.write_trace()
    assert path.endswith("t.json") and n == 0


def test_network_latency_bounds_stay_in_sync_with_registry():
    # Network keeps a private literal copy of the delivery-latency
    # bounds so it never imports repro.obs; harvest re-observes its
    # bucket counts into the registry histogram, which only works if
    # the two bound tuples are identical.
    machine = Machine(MachineConfig(n_nodes=2, seed=0))
    assert machine.network._latency_bounds == DELIVERY_LATENCY_BOUNDS


def test_harvest_populates_sim_metrics():
    obs.configure(metrics=True)
    machine = Machine(MachineConfig(n_nodes=4, seed=1))

    def prog(ctx):
        yield from ctx.allreduce(size=8, payload=1)

    procs = machine.launch(prog)
    machine.run_to_completion(procs)
    machine.finalize_telemetry()
    snap = obs.registry().snapshot(sim_only=True)
    assert snap["sim.runs"] == 1
    assert snap["sim.events_processed"] > 0
    assert snap["sim.events_scheduled"] >= snap["sim.events_processed"]
    assert snap["net.messages_total"] > 0
    assert snap["mpi.ops_total{op=allreduce}"] == 4
    lat = snap["net.delivery_latency_ns"]
    assert lat["count"] == snap["net.messages_total"]
    # finalize_telemetry is idempotent: a second call must not double.
    machine.finalize_telemetry()
    assert obs.registry().snapshot(sim_only=True)["sim.runs"] == 1


def test_configure_toggles_on_off_on_across_runs():
    """The switchboard must be re-entrant within one process: each
    flag (metrics, trace, det_check) flips on, off, and
    on again across real runs without stale state leaking through."""
    from repro.core import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(app="bsp", nodes=2, noise_pattern="quiet",
                           app_params={"work_ns": 500_000,
                                       "iterations": 5})

    # metrics: on -> fed; off -> untouched; on -> fed again (fresh).
    obs.configure(metrics=True)
    run_experiment(cfg)
    assert obs.registry().snapshot()["sim.runs"] == 1
    obs.disable()
    run_experiment(cfg)
    assert "sim.runs" not in obs.registry().snapshot()
    obs.configure(metrics=True)
    run_experiment(cfg)
    assert obs.registry().snapshot()["sim.runs"] == 1
    obs.disable()

    # det_check rides RunResult.meta.
    obs.configure(det_check=True)
    assert "det_check" in run_experiment(cfg).meta
    obs.configure(det_check=False)
    assert "det_check" not in run_experiment(cfg).meta
    obs.configure(det_check=True)
    assert "det_check" in run_experiment(cfg).meta
    obs.disable()

    # trace: machines capture the tracer at build time, so toggling
    # must swap what subsequent runs record without a restart.
    obs.configure(trace=True, trace_categories=["mpi"])
    run_experiment(cfg)
    first = len(obs.tracer().events())
    assert first > 0
    obs.configure(trace=False)
    assert obs.tracer() is None
    run_experiment(cfg)  # no tracer to feed: must not crash
    obs.configure(trace=True, trace_categories=["mpi"])
    run_experiment(cfg)
    assert len(obs.tracer().events()) == first  # fresh ring
    obs.disable()


def test_registry_snapshot_and_render_key_order_is_stable():
    """Snapshot/render keys sort by (name, labels) regardless of
    creation order — scrape diffs must not churn."""
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("z.total", op="b").inc(1)
    a.counter("z.total", op="a").inc(2)
    a.counter("a.total").inc(3)
    b.counter("a.total").inc(3)
    b.counter("z.total", op="a").inc(2)
    b.counter("z.total", op="b").inc(1)
    assert list(a.snapshot()) == list(b.snapshot()) == \
        ["a.total", "z.total{op=a}", "z.total{op=b}"]
    assert a.render() == b.render()


def test_registry_labels_with_awkward_values_render_and_escape():
    """Label values with spaces/quotes/newlines survive the plain
    render and are escaped (and round-trip) in Prometheus exposition."""
    from repro.obs import prom

    reg = MetricsRegistry()
    nasty = 'P=4 "quoted"\npattern'
    reg.counter("serve.points_total", HOST, label=nasty).inc(1)
    assert f"serve.points_total{{label={nasty}}}: 1" in reg.render()
    text = prom.render(reg)
    assert "\\n" in text and '\\"' in text
    samples, _types = prom.validate(text)
    assert dict(samples[0].labels)["label"] == nasty
