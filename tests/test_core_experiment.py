"""Tests for experiment configuration, runs, baselines, and sweeps."""

import pytest

from repro.core import (
    ComparisonResult,
    ExperimentConfig,
    Machine,
    MachineConfig,
    RunResult,
    run_experiment,
    run_with_baseline,
    sweep_records,
)
from repro.errors import ConfigError
from repro.net import TorusTopology
from repro.parallel import SweepExecutor, plan_sweep

BSP_SMALL = {"work_ns": 500_000, "iterations": 10}


# -- machine config -------------------------------------------------------------

def test_machine_config_validation():
    with pytest.raises(ConfigError):
        MachineConfig(n_nodes=0)
    with pytest.raises(ConfigError):
        Machine(MachineConfig(n_nodes=4, topology="torus:2x4"))  # 8 != 4
    with pytest.raises(ConfigError):
        Machine(MachineConfig(n_nodes=4, topology="moebius"))


def test_machine_topology_specs():
    m = Machine(MachineConfig(n_nodes=8, topology="torus:2x4"))
    assert isinstance(m.network.topology, TorusTopology)
    m2 = Machine(MachineConfig(n_nodes=8, topology="fat-tree"))
    assert m2.network.topology.n_nodes == 8
    m3 = Machine(MachineConfig(n_nodes=8,
                               topology=TorusTopology((2, 4))))
    assert m3.network.topology.dims == (2, 4)


def test_machine_presets_resolve():
    m = Machine(MachineConfig(n_nodes=2, kernel="tuned-linux",
                              network="gige"))
    assert m.nodes[0].config.hz == 100
    assert m.network.params.L == 30_000


# -- experiment config ------------------------------------------------------------

def test_experiment_injected_utilization():
    assert ExperimentConfig(noise_pattern="quiet").injected_utilization() == 0
    cfg = ExperimentConfig(noise_pattern="2.5pct@100Hz")
    assert cfg.injected_utilization() == pytest.approx(0.025)


def test_quiet_twin_only_changes_pattern():
    cfg = ExperimentConfig(app="pop", nodes=32, noise_pattern="2.5pct@10Hz",
                           seed=7)
    twin = cfg.quiet_twin()
    assert twin.noise_pattern == "quiet"
    assert (twin.app, twin.nodes, twin.seed) == ("pop", 32, 7)


# -- run_experiment ------------------------------------------------------------------

def test_run_experiment_returns_result():
    res = run_experiment(ExperimentConfig(app="bsp", nodes=4,
                                          app_params=BSP_SMALL))
    assert isinstance(res, RunResult)
    assert res.n_nodes == 4
    assert res.iteration_durations_ns.shape == (4, 10)
    assert res.makespan_ns > 0
    assert res.events_processed > 0
    assert res.meta["workload"]["app"] == "bsp"


def test_run_experiment_deterministic_in_seed():
    cfg = ExperimentConfig(app="bsp", nodes=8, noise_pattern="2.5pct@100Hz",
                           seed=5, app_params=BSP_SMALL)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.makespan_ns == b.makespan_ns
    assert (a.iteration_durations_ns == b.iteration_durations_ns).all()


def test_run_experiment_seed_changes_outcome():
    def span(seed):
        return run_experiment(ExperimentConfig(
            app="bsp", nodes=8, noise_pattern="2.5pct@100Hz", seed=seed,
            app_params=BSP_SMALL)).makespan_ns

    assert span(1) != span(2)


def test_run_experiment_with_observer():
    res, tracer = run_experiment(
        ExperimentConfig(app="bsp", nodes=2, observer="trace",
                         app_params=BSP_SMALL),
        return_tracer=True)
    assert tracer.app_intervals(0, "bsp:iteration")


def test_return_tracer_requires_observer():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(app="bsp", app_params=BSP_SMALL),
                       return_tracer=True)


# -- baselines ------------------------------------------------------------------------

def test_run_with_baseline_comparison():
    # 100 Hz pattern: the short test run is guaranteed to be struck
    # (a 10 Hz event could miss a ~5 ms run entirely).
    cmp = run_with_baseline(ExperimentConfig(
        app="bsp", nodes=8, noise_pattern="2.5pct@100Hz", seed=1,
        app_params=BSP_SMALL))
    assert isinstance(cmp, ComparisonResult)
    assert cmp.noisy.makespan_ns > cmp.quiet.makespan_ns
    assert cmp.slowdown.slowdown_percent > 0
    d = cmp.as_dict()
    assert d["verdict"] in ("absorbed", "transferred", "amplified")


def test_run_with_baseline_rejects_quiet():
    with pytest.raises(ConfigError):
        run_with_baseline(ExperimentConfig(noise_pattern="quiet"))


# -- sweeps ----------------------------------------------------------------------------

def test_sweep_shares_baselines_and_shapes():
    base = ExperimentConfig(app="bsp", seed=2, app_params=BSP_SMALL)
    results = SweepExecutor().run(
        plan_sweep(base, [2, 4], ["quiet", "2.5pct@100Hz"]))
    assert set(results) == {(2, "quiet"), (2, "2.5pct@100Hz"),
                            (4, "quiet"), (4, "2.5pct@100Hz")}
    assert isinstance(results[(2, "quiet")], RunResult)
    assert isinstance(results[(2, "2.5pct@100Hz")], ComparisonResult)
    # The comparison's quiet side is the shared baseline object.
    assert results[(2, "2.5pct@100Hz")].quiet is results[(2, "quiet")]


def test_sweep_records_flat_dicts():
    base = ExperimentConfig(app="bsp", seed=2, app_params=BSP_SMALL)
    recs = sweep_records(base, nodes=[2], patterns=["quiet", "2.5pct@100Hz"])
    assert len(recs) == 2
    noisy = [r for r in recs if r["pattern"] == "2.5pct@100Hz"][0]
    assert "slowdown_pct" in noisy
    assert "amplification" in noisy


def test_sweep_validation():
    base = ExperimentConfig(app_params=BSP_SMALL)
    with pytest.raises(ConfigError):
        sweep_records(base, nodes=[], patterns=["quiet"])


def test_sweep_progress_callback():
    seen = []
    base = ExperimentConfig(app="bsp", app_params=BSP_SMALL)
    sweep_records(base, nodes=[2], patterns=["2.5pct@100Hz"],
                  progress=seen.append)
    assert any("baseline" in s for s in seen)
    assert any("2.5pct@100Hz" in s for s in seen)


# -- the headline physics -------------------------------------------------------------------

def test_coarse_noise_amplifies_fine_noise_absorbs():
    """The paper's central result, end to end in the simulator."""
    def amp(pattern):
        return run_with_baseline(ExperimentConfig(
            app="bsp", nodes=16, noise_pattern=pattern, seed=1,
            app_params={"work_ns": 1_000_000, "iterations": 20},
        )).slowdown.amplification

    coarse = amp("2.5pct@10Hz")
    fine = amp("2.5pct@1000Hz")
    assert coarse > 5.0, "coarse-grained noise must amplify"
    assert fine < 3.0, "fine-grained noise must be (near-)absorbed"
    assert coarse > 3 * fine


def test_synchronized_noise_is_absorbed():
    def slowdown_pct(alignment):
        return run_with_baseline(ExperimentConfig(
            app="bsp", nodes=16, noise_pattern="2.5pct@10Hz", seed=1,
            alignment=alignment,
            app_params={"work_ns": 1_000_000, "iterations": 20},
        )).slowdown.slowdown_percent

    unsync = slowdown_pct("random")
    sync = slowdown_pct("synchronized")
    assert sync < unsync / 2, (
        "co-scheduled noise must hurt far less than unsynchronized")
