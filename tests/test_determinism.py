"""Determinism guarantees of the telemetry layer.

The observability layer (:mod:`repro.obs`) must be a strict no-op for
results: the same seed gives the same report bytes whether telemetry is
off, metrics are on, or a tracer is recording — and the *sim-scoped*
metrics themselves are as reproducible as the simulation.  Three axes:

a. two consecutive runs with the same seed;
b. serial execution vs ``--workers N`` process fan-out;
c. tracing on vs tracing off.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import ExperimentConfig, sweep_records
from repro.core import run_experiment as core_run_experiment
from repro.core.results import ComparisonResult
from repro.harness import run_experiment
from repro.parallel import SweepExecutor, plan_sweep

#: Fast experiments used as report-byte probes (sub-second at small
#: scale).  E1 drives nodes directly (no machine-level harvest); E15 is
#: the deep probe that exercises the full metrics path — sim, net, mpi
#: and faults counters.
FAST_EXPERIMENTS = ("E1", "E15")
DEEP_PROBE = "E15"

BSP_SMALL = {"work_ns": 500_000, "iterations": 10}


def _run(experiment_id, *, metrics=False, trace=False):
    """One experiment run under a fresh telemetry configuration.

    Returns ``(report_text, sim_metrics_snapshot)``; telemetry is fully
    reset afterwards so back-to-back calls are independent.
    """
    obs.disable()
    if metrics or trace:
        obs.configure(metrics=True, trace=bool(trace) or None)
    try:
        report = run_experiment(experiment_id, "small")
        text = report.render()
        snap = obs.registry().snapshot(sim_only=True)
    finally:
        obs.disable()
    return text, snap


# -- axis (a): run-to-run --------------------------------------------------

def test_same_seed_same_report_and_metrics():
    first_text, first_snap = _run(DEEP_PROBE, metrics=True)
    second_text, second_snap = _run(DEEP_PROBE, metrics=True)
    assert first_text == second_text
    assert first_snap == second_snap
    assert first_snap["sim.runs"] > 0  # the probe actually collected


@pytest.mark.parametrize("experiment_id", FAST_EXPERIMENTS)
def test_telemetry_is_invisible_in_default_report(experiment_id):
    off_text, off_snap = _run(experiment_id, metrics=False)
    on_text, _on_snap = _run(experiment_id, metrics=True)
    assert off_text == on_text  # byte-identical: telemetry never leaks
    assert off_snap == {}  # and nothing is collected while disabled


#: Tiny per-app sizes for the generated case (each run well under 0.1 s
#: at 32 nodes).
_TINY_APPS = {
    "bsp": {"work_ns": 100_000, "iterations": 3},
    "pop": {"baroclinic_ns": 200_000, "solver_iterations": 3,
            "solver_compute_ns": 20_000, "iterations": 1},
    "stencil": {"work_ns": 100_000, "iterations": 2},
    "sweep": {"block_work_ns": 20_000, "blocks_per_rank": 2,
              "iterations": 1},
    "cg": {"spmv_ns": 100_000, "iterations": 2},
    "transpose": {"work_ns": 100_000, "total_bytes": 1 << 14,
                  "iterations": 2},
}


@st.composite
def _generated_configs(draw):
    app = draw(st.sampled_from(sorted(_TINY_APPS)))
    pattern = draw(st.sampled_from(
        ("quiet", "1pct@100Hz", "2.5pct@1000Hz", "5pct@10Hz")))
    return ExperimentConfig(
        app=app, nodes=draw(st.integers(2, 32)), noise_pattern=pattern,
        alignment=draw(st.sampled_from(("random", "staggered",
                                        "synchronized"))),
        kernel=draw(st.sampled_from(("lightweight", "commodity-linux",
                                     "tuned-linux"))),
        faults=draw(st.sampled_from((None, "drop=0.02,timeout=300us"))),
        seed=draw(st.integers(0, 5)), app_params=_TINY_APPS[app])


@given(cfg=_generated_configs())
@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_generated_telemetry_changes_no_timing(cfg):
    """A dark run and a run with metrics, det_check and critical-path
    recording all on simulate the same schedule."""
    obs.disable()
    dark = core_run_experiment(cfg)
    obs.configure(metrics=True, det_check=True)
    try:
        lit = core_run_experiment(replace(cfg, critical_path=True))
    finally:
        obs.disable()
    assert lit.makespan_ns == dark.makespan_ns
    assert np.array_equal(lit.iteration_durations_ns,
                          dark.iteration_durations_ns)
    assert lit.events_processed == dark.events_processed
    assert "det_check" in lit.meta and "det_check" not in dark.meta


# -- axis (b): serial vs worker processes ----------------------------------

def test_serial_and_parallel_sweeps_agree_with_metrics_on():
    base = ExperimentConfig(app="bsp", seed=7, app_params=BSP_SMALL)
    kwargs = dict(nodes=[2, 4], patterns=["quiet", "2.5pct@100Hz"])

    obs.disable()
    obs.configure(metrics=True)
    try:
        serial = sweep_records(base, workers=1, **kwargs)
        serial_snap = obs.registry().snapshot()
        obs.disable()
        obs.configure(metrics=True)
        parallel = sweep_records(base, workers=2, **kwargs)
        parallel_snap = obs.registry().snapshot()
    finally:
        obs.disable()

    blob = lambda records: json.dumps(records, sort_keys=True)  # noqa: E731
    assert blob(serial) == blob(parallel)
    # Parent-side executor accounting is identical either way.  (Worker
    # processes keep their own sim-scope counters — see the fan-out note
    # in repro/obs/runtime.py — so only exec.* is comparable here.)
    for key in ("exec.points_total", "exec.cache_hits", "exec.cache_misses",
                "exec.point_failures"):
        assert serial_snap[key] == parallel_snap[key], key
    # 2x2 grid: the quiet column doubles as the shared baselines.
    assert serial_snap["exec.points_total"] == 4


# -- det_check: order-sensitive scheduling checksum -------------------------

def test_det_check_absent_by_default():
    obs.disable()
    cfg = ExperimentConfig(app="bsp", nodes=2, seed=3, app_params=BSP_SMALL)
    result = core_run_experiment(cfg)
    assert "det_check" not in result.meta


def test_det_check_serial_equals_workers():
    """obs.configure(det_check=True): every run carries an order-
    sensitive checksum of its scheduled (time, priority, seq) tuples,
    and serial vs --workers fan-out produces identical checksums —
    runtime evidence the event orderings themselves matched, not just
    the derived report numbers."""
    base = ExperimentConfig(app="bsp", seed=7, app_params=BSP_SMALL)
    kwargs = dict(nodes=[2, 4], patterns=["quiet", "2.5pct@100Hz"])

    def checksums(workers):
        obs.disable()
        obs.configure(det_check=True)
        try:
            results = SweepExecutor(workers=workers).run(
                plan_sweep(base, **kwargs))
            out = {}
            for key, res in results.items():
                if isinstance(res, ComparisonResult):
                    out[key] = (res.quiet.meta["det_check"],
                                res.noisy.meta["det_check"])
                else:
                    out[key] = res.meta["det_check"]
        finally:
            obs.disable()
        return out

    serial, pooled = checksums(1), checksums(2)
    assert serial == pooled
    flat = [v for entry in serial.values()
            for v in (entry if isinstance(entry, tuple) else (entry,))]
    assert flat and all(isinstance(v, int) and v != 0 for v in flat)


def test_det_check_distinguishes_different_schedules():
    obs.disable()
    obs.configure(det_check=True)
    try:
        quiet = core_run_experiment(
            ExperimentConfig(app="bsp", nodes=2, seed=3,
                             app_params=BSP_SMALL))
        # 1000Hz so the pattern actually strikes within the ~5ms run.
        noisy = core_run_experiment(
            ExperimentConfig(app="bsp", nodes=2, seed=3,
                             noise_pattern="2.5pct@1000Hz",
                             app_params=BSP_SMALL))
    finally:
        obs.disable()
    assert quiet.meta["det_check"] != noisy.meta["det_check"]


# -- axis (c): tracing on vs off -------------------------------------------

def test_tracing_does_not_perturb_results_or_metrics():
    plain_text, plain_snap = _run(DEEP_PROBE, metrics=True)
    traced_text, traced_snap = _run(DEEP_PROBE, metrics=True, trace=True)
    assert plain_text == traced_text
    assert plain_snap == traced_snap


def test_trace_output_itself_is_deterministic(tmp_path):
    """Same seed, same trace: sim-scoped span streams are replayable."""
    docs = []
    for i in range(2):
        obs.disable()
        path = tmp_path / f"t{i}.json"
        obs.configure(trace=str(path), trace_categories="net,mpi")
        try:
            run_experiment(DEEP_PROBE, "small")
            obs.write_trace()
        finally:
            obs.disable()
        doc = json.loads(path.read_text())
        # Host-scoped fields (wall timestamps) are nondeterministic;
        # strip them and compare the sim-time event stream.
        docs.append([e for e in doc["traceEvents"]
                     if e.get("pid") == 1 and e["ph"] != "M"])
    assert docs[0] == docs[1]
    assert docs[0]  # non-empty stream
