"""Planted-ground-truth tests for the idle-wave machinery.

Everything here validates against ground truth known *by
construction*: hand-built edge logs with analytically known wave
paths, and simulated runs where a single planted one-off delay must
reappear in the measurement exactly where the dependency graph says
it must (Afzal/Hager/Wellein, arXiv:1905.10603).
"""

from dataclasses import replace

import pytest

from repro.core import ExperimentConfig, run_experiment
from repro.errors import ConfigError
from repro.faults import FaultPlan, parse_faults
from repro.harness import run_experiment as run_harness_experiment
from repro.noise import OneOffNoise
from repro.obs import extract_wavefront, match_edge_logs, propagate_delay
from repro.obs.wavefront import format_wavefront
from repro.parallel import SweepExecutor


# -- synthetic edge logs (analytic ground truth) -----------------------------------

def _wait(start, end, src, sent_at, op="recv"):
    return (start, end, src, sent_at, end, op)


def _chain_log(shift_by_rank):
    """A 3-rank chain 0 -> 1 -> 2, one message per hop, with each
    rank's wait times shifted by ``shift_by_rank[rank]``."""
    s = shift_by_rank
    return {
        "waits": {
            0: [],
            1: [_wait(100, 200 + s[1], 0, 50 + s[0])],
            2: [_wait(300, 400 + s[2], 1, 250 + s[1])],
        },
        "starts": {0: 0, 1: 0, 2: 0},
        "completions": {0: 500 + s[0], 1: 500 + s[1], 2: 500 + s[2]},
    }


def test_propagate_delay_follows_causal_sends():
    log = _chain_log({0: 0, 1: 0, 2: 0})
    arrival, hops = propagate_delay(log, 0, 40)
    # Rank 0's message left at 50 >= 40, so it carries the wave; rank
    # 1's message left at 250 >= its own arrival (200), so it carries
    # it onward.
    assert arrival == {0: 40, 1: 200, 2: 400}
    assert hops == {0: 0, 1: 1, 2: 2}


def test_propagate_delay_ignores_messages_sent_before_arrival():
    log = _chain_log({0: 0, 1: 0, 2: 0})
    # Delay planted after rank 0's only send: the wave never leaves.
    arrival, hops = propagate_delay(log, 0, 60)
    assert arrival == {0: 60}
    assert hops == {0: 0}


def test_match_edge_logs_rejects_structural_mismatch():
    base = _chain_log({0: 0, 1: 0, 2: 0})
    missing = _chain_log({0: 0, 1: 0, 2: 0})
    missing["waits"][2] = []
    with pytest.raises(ConfigError, match="baseline waits"):
        match_edge_logs(base, missing)
    other_src = _chain_log({0: 0, 1: 0, 2: 0})
    other_src["waits"][2] = [_wait(300, 400, 0, 250)]
    with pytest.raises(ConfigError, match="not the same program"):
        match_edge_logs(base, other_src)
    other_ranks = _chain_log({0: 0, 1: 0, 2: 0})
    del other_ranks["waits"][2]
    with pytest.raises(ConfigError, match="rank sets"):
        match_edge_logs(base, other_ranks)


def _absorbing_chain(rank2_shift):
    """Baseline/delayed logs for a 0 -> 1 -> 2 chain where rank 2 had
    slack (it picked the hop-2 message up late in the baseline) and
    absorbs all but ``rank2_shift`` ns of a 1000 ns wave.  Both logs
    are physically consistent: every wait ends at or after its
    message's send time."""
    base = {
        "waits": {
            0: [],
            1: [_wait(100, 200, 0, 50)],
            2: [_wait(900, 2000, 1, 250)],
        },
        "starts": {0: 0, 1: 0, 2: 0},
        "completions": {0: 500, 1: 2100, 2: 2100},
    }
    delayed = {
        "waits": {
            0: [],
            1: [_wait(100, 1200, 0, 1050)],
            2: [_wait(900, 2000 + rank2_shift, 1, 1250)],
        },
        "starts": {0: 0, 1: 0, 2: 0},
        "completions": {0: 1500, 1: 2100 + rank2_shift,
                        2: 2100 + rank2_shift},
    }
    return base, delayed


def test_extract_wavefront_reads_planted_shifts():
    base, delayed = _absorbing_chain(400)
    wave = extract_wavefront(base, delayed, source_rank=0, t0_ns=40,
                             duration_ns=1000)
    assert wave.arrival_order() == [0, 1, 2]
    assert wave.residual_ns == {0: 1000, 1: 1000, 2: 400}
    assert wave.hops == {0: 0, 1: 1, 2: 2}
    assert wave.completion_shift_ns == {0: 1000, 1: 400, 2: 400}
    assert not wave.undamped  # rank 2 absorbed most of it
    assert wave.decay_slope < 0
    assert wave.effective_decay_length < 10
    # The fully propagated variant is undamped: decay maps to inf.
    base_full = _chain_log({0: 0, 1: 0, 2: 0})
    full = extract_wavefront(base_full,
                             _chain_log({0: 1000, 1: 1000, 2: 1000}),
                             source_rank=0, t0_ns=40, duration_ns=1000)
    assert full.undamped
    assert full.decay_length_ranks is None
    assert full.effective_decay_length == float("inf")
    assert "idle wave from rank 0" in format_wavefront(full)


def test_extract_wavefront_counts_dead_ranks_in_decay_fit():
    # Wave dies before rank 2 (shift below the 5% threshold).
    base, delayed = _absorbing_chain(10)
    wave = extract_wavefront(base, delayed, source_rank=0, t0_ns=40,
                             duration_ns=1000)
    assert wave.ranks_reached == 2
    assert 2 not in wave.arrival_ns
    assert wave.peak_shift_ns[2] == 10
    assert not wave.undamped
    # The dead rank still anchors the fit at its causal hop distance:
    # decay length is finite and short.
    assert wave.hops[2] == 2
    assert wave.effective_decay_length < 5


def test_one_off_noise_contract():
    probe = OneOffNoise(1000, 500)
    assert probe.utilization == 0.0
    assert probe.event_rate_hz == 0.0
    assert probe.max_event_duration() == 500
    assert [e.duration for e in probe.events_in(0, 2000)] == [500]
    assert probe.events_in(1501, 3000) == []
    # Aggregate view agrees with the event view on any window.
    for a, b in [(0, 750), (0, 2000), (1200, 1400), (1400, 5000)]:
        assert probe.stolen_between(a, b) == max(
            0, min(b, 1500) - max(a, 1000))
    with pytest.raises(ConfigError):
        OneOffNoise(-1, 10)
    with pytest.raises(ConfigError):
        OneOffNoise(0, 0)


def test_one_off_fault_spec_validation():
    with pytest.raises(ConfigError, match="rank:start:duration"):
        parse_faults("one_off=1:2ms", seed=0)
    with pytest.raises(ConfigError):
        FaultPlan(one_off=((0, 0, 0),))
    with pytest.raises(ConfigError, match="out of range"):
        FaultPlan(one_off=((9, 0, 10),)).one_off_delays_for(4)
    plan = parse_faults("one_off=3:5ms:1ms", seed=7)
    assert plan.injects_faults and not plan.needs_protocol
    assert plan.one_off_delays_for(8) == {3: ((5_000_000, 1_000_000),)}


# -- simulated planted delays ------------------------------------------------------

_RING_SOURCE = 2
_RING_T0 = 1_000_000
_RING_DURATION = 500_000


def _ring_pair(n_nodes=8, *, seed=11, noise="quiet", faults=None):
    cfg = ExperimentConfig(
        app="bsp", nodes=n_nodes, noise_pattern=noise, seed=seed,
        collectives={"allreduce": "ring"}, record_edges=True,
        app_params=dict(iterations=20, work_ns=200_000))
    base = run_experiment(cfg)
    delayed = run_experiment(replace(cfg, faults=faults or FaultPlan(
        one_off=((_RING_SOURCE, _RING_T0, _RING_DURATION),), seed=seed)))
    return base, delayed


def test_ring_wave_arrival_order_is_exact():
    """On a quiet ring the wave must sweep the forward ring order,
    hop-exact — the planted ground truth of the dependency graph."""
    P = 8
    base, delayed = _ring_pair(P)
    wave = extract_wavefront(base.meta["edge_log"], delayed.meta["edge_log"],
                             source_rank=_RING_SOURCE, t0_ns=_RING_T0,
                             duration_ns=_RING_DURATION)
    assert wave.arrival_order() == [(_RING_SOURCE + k) % P for k in range(P)]
    assert wave.hops == {(_RING_SOURCE + k) % P: k for k in range(P)}
    assert wave.ranks_reached == P
    assert wave.speed_ns_per_hop > 0
    assert wave.speed_hops_per_s > 0


def test_quiet_run_preserves_delay_undamped():
    """Zero background noise ⇒ zero absorption: every rank receives
    the full planted delay and the makespan shifts by exactly it."""
    base, delayed = _ring_pair(8)
    wave = extract_wavefront(base.meta["edge_log"], delayed.meta["edge_log"],
                             source_rank=_RING_SOURCE, t0_ns=_RING_T0,
                             duration_ns=_RING_DURATION)
    assert wave.undamped
    assert set(wave.residual_ns.values()) == {_RING_DURATION}
    assert wave.decay_length_ranks is None
    assert delayed.makespan_ns - base.makespan_ns == _RING_DURATION


def test_zero_entry_fault_plan_is_byte_identical():
    """A FaultPlan with no one-off entries must not perturb the run at
    all — arrival extraction aside, the timelines are bit-equal."""
    cfg = ExperimentConfig(
        app="bsp", nodes=8, noise_pattern="quiet", seed=11,
        collectives={"allreduce": "ring"}, record_edges=True,
        app_params=dict(iterations=20, work_ns=200_000))
    plain = run_experiment(cfg)
    empty = run_experiment(replace(cfg, faults=FaultPlan(seed=11)))
    assert plain.makespan_ns == empty.makespan_ns
    assert plain.meta["edge_log"] == empty.meta["edge_log"]


def test_record_edges_meta_wiring():
    cfg = ExperimentConfig(app="bsp", nodes=4, noise_pattern="quiet",
                           seed=3, app_params=dict(iterations=5,
                                                   work_ns=100_000))
    assert "edge_log" not in run_experiment(cfg).meta
    recorded = run_experiment(replace(cfg, record_edges=True))
    log = recorded.meta["edge_log"]
    assert set(log) == {"waits", "starts", "completions"}
    assert sorted(log["waits"]) == [0, 1, 2, 3]
    # record_edges alone does not attach the critical-path table...
    assert "critical_path" not in recorded.meta
    # ...and recording is passive: the run itself is unchanged.
    assert recorded.makespan_ns == run_experiment(cfg).makespan_ns


def test_decay_length_decreases_with_noise_intensity():
    """The Afzal prediction: background noise absorbs the wave, and
    coarse noise (rare huge stalls) kills it faster than fine noise at
    equal utilization.  quiet > 1000 Hz > 10 Hz, strictly."""
    P = 16
    t0, dur, src = 50_000_000, 750_000, 5
    lengths = {}
    for pattern in ("quiet", "10pct@1000HzPoisson", "10pct@10HzPoisson"):
        cfg = ExperimentConfig(
            app="stencil", nodes=P, noise_pattern=pattern, seed=11,
            record_edges=True,
            app_params=dict(iterations=100, work_ns=2_000_000,
                            dt_interval=0))
        base = run_experiment(cfg)
        delayed = run_experiment(replace(cfg, faults=FaultPlan(
            one_off=((src, t0, dur),), seed=11)))
        wave = extract_wavefront(
            base.meta["edge_log"], delayed.meta["edge_log"],
            source_rank=src, t0_ns=t0, duration_ns=dur)
        lengths[pattern] = wave.effective_decay_length
    assert lengths["quiet"] == float("inf")
    assert (lengths["quiet"] > lengths["10pct@1000HzPoisson"]
            > lengths["10pct@10HzPoisson"])


def test_e20_report_serial_equals_workers():
    """The E20 report must be byte-identical between in-process serial
    execution and --workers process fan-out (edge logs ride RunResult
    meta across pickling)."""
    serial = run_harness_experiment("E20", "small").render()
    fanned = run_harness_experiment("E20", "small",
                                    SweepExecutor(workers=2)).render()
    assert serial == fanned
    assert "[PASS]" in serial and "[FAIL]" not in serial
