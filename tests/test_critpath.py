"""Cross-node dependency recorder and critical-path attribution tests.

Covers the E16 tentpole machinery end to end: recording is passive and
deterministic, the backward walk telescopes exactly to the makespan,
planted noise is charged to the right source on the right node,
results survive the process-pool round trip bit-identically, and the
exported trace carries structurally valid send→recv flow events.
"""

from dataclasses import replace

import pytest

from repro import obs
from repro.apps import BSPApp
from repro.core import (
    ExperimentConfig,
    Machine,
    MachineConfig,
    run_experiment,
)
from repro.errors import ConfigError
from repro.noise import PeriodicNoise
from repro.obs.critpath import (
    SOURCE_COMPUTE,
    SOURCE_NETWORK,
    SOURCE_RETRY,
    compute_critical_path,
    diff_critical_paths,
    format_critical_path,
    format_diff,
)
from repro.parallel import SweepExecutor, plan_points


def _recorded_machine(n_nodes=6, seed=9, *, kernel="lightweight",
                      ghost_node=None, iterations=8, work_ns=200_000,
                      collective="allreduce"):
    machine = Machine(MachineConfig(n_nodes=n_nodes, kernel=kernel,
                                    seed=seed, critical_path=True))
    if ghost_node is not None:
        machine.nodes[ghost_node].add_noise_source(
            PeriodicNoise(120_000, 15_000, name="ghost"))
    app = BSPApp(work_ns=work_ns, iterations=iterations,
                 collective=collective)
    machine.run_to_completion(machine.launch(app))
    return machine, app


# -- recorder basics ------------------------------------------------------------


def test_recorder_off_by_default():
    machine = Machine(MachineConfig(n_nodes=2))
    assert machine.critpath is None
    with pytest.raises(ConfigError):
        machine.critical_path()


def test_recording_is_passive():
    """Makespan, iteration timings, and event counts are identical
    with the recorder on and off."""
    cfg = ExperimentConfig(app="bsp", nodes=8, noise_pattern="2.5pct@100Hz",
                           kernel="commodity-linux", seed=4,
                           app_params={"iterations": 6, "work_ns": 150_000})
    off = run_experiment(cfg)
    on = run_experiment(replace(cfg, critical_path=True))
    assert off.makespan_ns == on.makespan_ns
    assert (off.iteration_durations_ns == on.iteration_durations_ns).all()
    assert off.events_processed == on.events_processed
    assert "critical_path" not in off.meta
    assert "critical_path" in on.meta


def test_edge_set_deterministic_across_repeats():
    sigs, dicts = [], []
    for _ in range(2):
        machine, _app = _recorded_machine(seed=13)
        sigs.append(machine.critpath.edge_signature())
        dicts.append(machine.critical_path().as_dict())
    assert sigs[0] == sigs[1]
    assert dicts[0] == dicts[1]
    assert len(sigs[0]) > 0


def test_completion_and_start_tracking():
    machine, _app = _recorded_machine(n_nodes=3, iterations=2)
    rec = machine.critpath
    assert sorted(rec.starts) == [0, 1, 2]
    assert sorted(rec.completions) == [0, 1, 2]
    assert all(rec.completions[n] >= rec.starts[n] for n in rec.starts)


# -- backward walk ---------------------------------------------------------------


def test_segments_telescope_to_makespan():
    machine, app = _recorded_machine(kernel="commodity-linux", seed=21)
    cp = machine.critical_path()
    assert cp.total_ns == cp.end_ns - cp.origin_ns == app.makespan_ns()
    # Segments are contiguous in time (walk output is time-ordered).
    for a, b in zip(cp.segments, cp.segments[1:]):
        assert a.end == b.start
    # by_source decomposes the same total (charges partition segments).
    assert sum(cp.by_source.values()) >= cp.total_ns


def test_quiet_lightweight_charges_zero_noise():
    machine, _app = _recorded_machine(kernel="lightweight")
    cp = machine.critical_path()
    assert cp.noise_ns == 0
    assert set(cp.by_source) <= {SOURCE_COMPUTE, SOURCE_NETWORK,
                                 SOURCE_RETRY}


def test_planted_ghost_charged_on_planted_node():
    quiet_machine, quiet_app = _recorded_machine(seed=5)
    noisy_machine, noisy_app = _recorded_machine(seed=5, ghost_node=2)
    quiet = quiet_machine.critical_path()
    noisy = noisy_machine.critical_path()
    gap = noisy_app.makespan_ns() - quiet_app.makespan_ns()
    assert gap > 0
    ghost = noisy.charged_ns("ghost")
    assert ghost >= 0.9 * gap
    # Localization: every ghost ns on node 2.
    assert noisy.by_node[2].get("ghost", 0) == ghost
    for node, charges in noisy.by_node.items():
        if node != 2:
            assert "ghost" not in charges


def test_fault_retries_appear_on_path():
    cfg = ExperimentConfig(app="bsp", nodes=8, noise_pattern="quiet",
                           kernel="lightweight", seed=5, critical_path=True,
                           faults="drop=0.05,timeout=200us",
                           app_params={"iterations": 8,
                                       "work_ns": 100_000})
    res = run_experiment(cfg)
    cp = res.meta["critical_path"]
    assert cp["total_ns"] == res.makespan_ns
    assert cp["n_retry_hops"] > 0
    assert cp["by_source"].get(SOURCE_RETRY, 0) > 0


def test_compute_critical_path_requires_completed_run():
    machine = Machine(MachineConfig(n_nodes=2, critical_path=True))
    with pytest.raises(ConfigError):
        compute_critical_path(machine.critpath)


# -- diff + formatting -----------------------------------------------------------


def _cp_pair(seed=5):
    quiet_machine, _ = _recorded_machine(seed=seed)
    noisy_machine, _ = _recorded_machine(seed=seed, ghost_node=2)
    return (quiet_machine.critical_path().as_dict(),
            noisy_machine.critical_path().as_dict())


def test_diff_names_the_ghost():
    quiet, noisy = _cp_pair()
    diff = diff_critical_paths(quiet, noisy)
    assert diff["top_thief"] == "ghost"
    assert diff["gap_ns"] == noisy["total_ns"] - quiet["total_ns"]
    assert diff["noise_delta_ns"] == noisy["noise_ns"]
    assert diff["noise_share_of_gap"] >= 0.9


def test_formatters_render():
    quiet, noisy = _cp_pair()
    text = format_critical_path(noisy)
    assert "critical path:" in text
    assert "ghost" in text
    diff_text = format_diff(diff_critical_paths(quiet, noisy))
    assert "top thief: ghost" in diff_text


def test_as_dict_round_trips_through_json():
    import json

    _quiet, noisy = _cp_pair()
    assert json.loads(json.dumps(noisy)) == noisy


# -- parallel execution ----------------------------------------------------------


def test_critical_path_identical_serial_vs_workers():
    cfg = ExperimentConfig(app="bsp", nodes=6,
                           noise_pattern="2.5pct@100Hz",
                           kernel="commodity-linux", seed=17,
                           critical_path=True,
                           app_params={"iterations": 5,
                                       "work_ns": 120_000})
    configs = {"pt": cfg}
    serial = SweepExecutor(workers=1).run(plan_points(configs))
    pooled = SweepExecutor(workers=2).run(plan_points(configs))
    assert serial["pt"].meta["critical_path"] == \
        pooled["pt"].meta["critical_path"]
    assert serial["pt"].meta["critical_path"]["total_ns"] == \
        serial["pt"].makespan_ns


# -- flow events -----------------------------------------------------------------


def _flow_trace(categories=("net", "net.flow")):
    obs.configure(trace=True, trace_categories=categories)
    cfg = ExperimentConfig(app="bsp", nodes=4, noise_pattern="quiet",
                           kernel="lightweight", seed=1,
                           app_params={"iterations": 3,
                                       "work_ns": 50_000})
    run_experiment(cfg)
    from repro.obs import runtime as _rt
    doc = _rt.tracer().to_chrome()
    obs.disable()
    return doc["traceEvents"]


def test_flow_events_structurally_valid():
    events = _flow_trace()
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert starts, "no flow events recorded"
    # Every flow start has exactly one matching finish; ids unique.
    sids = [e["id"] for e in starts]
    fids = [e["id"] for e in finishes]
    assert len(set(sids)) == len(sids)
    assert sorted(sids) == sorted(fids)
    by_id = {e["id"]: e for e in starts}
    for fin in finishes:
        assert fin["bp"] == "e"
        assert fin["cat"] == "net.flow"
        assert fin["ts"] >= by_id[fin["id"]]["ts"]


def test_flow_events_respect_category_gate():
    events = _flow_trace(categories=("net",))
    assert not [e for e in events if e["ph"] in ("s", "f")]


def test_per_node_thread_names_present():
    events = _flow_trace()
    names = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert {"node 0", "node 1", "node 2", "node 3"} <= names


def test_flow_trace_deterministic():
    import json

    first = json.dumps([e for e in _flow_trace()
                        if e["ph"] in ("s", "f")], sort_keys=True)
    second = json.dumps([e for e in _flow_trace()
                         if e["ph"] in ("s", "f")], sort_keys=True)
    assert first == second


def test_flow_ids_unique_across_machines_sharing_tracer():
    # A compare run traces the quiet and noisy machine into the same
    # document; ids must not restart per machine (the tracer, not the
    # network, owns the counter).
    obs.configure(trace=True, trace_categories=("net", "net.flow"))
    cfg = ExperimentConfig(app="bsp", nodes=4, noise_pattern="quiet",
                           kernel="lightweight", seed=1,
                           app_params={"iterations": 3,
                                       "work_ns": 50_000})
    run_experiment(cfg)
    run_experiment(cfg)
    from repro.obs import runtime as _rt
    events = _rt.tracer().to_chrome()["traceEvents"]
    obs.disable()
    sids = [e["id"] for e in events if e["ph"] == "s"]
    fids = [e["id"] for e in events if e["ph"] == "f"]
    assert sids and len(set(sids)) == len(sids)
    assert sorted(sids) == sorted(fids)


# -- E16 experiment ---------------------------------------------------------------


def test_e16_small_passes():
    from repro.harness import run_experiment as harness_run
    report = harness_run("E16", "small")
    assert report.passed, report.failed_checks()
    assert report.findings["ghost_share_of_gap"] >= 0.9
