"""Regression tests: cache keying, FIFO delivery, executor degradation.

The cache and FIFO tests pin down two real bugs (set-token collisions
keyed by ``str()``; equal-timestamp arrivals on one channel ordered
only by heap tiebreak) — they fail on the pre-fix code.
"""

from repro.core import ExperimentConfig
from repro.faults import FaultPlan
from repro.kernel import KernelConfig, Node
from repro.net import LogGPParams, Message, Network
from repro.parallel import (
    SweepExecutor,
    plan_comparisons,
    plan_points,
    plan_sweep,
)
from repro.parallel.cache import MISS, ResultCache, config_key
from repro.parallel.executor import PointError
from repro.sim import Environment

_FAST = {"work_ns": 50_000, "iterations": 3}


def _cfg(nodes=4, **kw):
    return ExperimentConfig(app="bsp", nodes=nodes, app_params=_FAST, **kw)


#: A plan that kills node 0 instantly: every run with it raises
#: FaultError once retries are exhausted (fast, deterministic failure).
_CRASH = FaultPlan(crashes=((0, 0),), ack_timeout_ns=20_000, max_retries=1)


# -- cache keying --------------------------------------------------------------

def test_config_key_distinguishes_set_member_types():
    # str()-keyed sorting collapsed {1} and {"1"} onto one cache key.
    assert config_key({1}) != config_key({"1"})
    assert config_key(frozenset([1, "1"])) != config_key(frozenset(["1"]))
    # Same set, any construction order: same key.
    assert config_key({"b", "a", "c"}) == config_key({"c", "a", "b"})


def test_config_key_mixed_type_sets_are_stable():
    values = [1, "1", 2.5, ("x",), None, True]
    keys = {config_key(frozenset(values)) for _ in range(10)}
    assert len(keys) == 1


def test_cache_stores_none_and_falsy_values(tmp_path):
    cache = ResultCache(tmp_path)
    for marker, value in [("none", None), ("zero", 0), ("empty", "")]:
        cache.put({"point": marker}, value)
        assert cache.get({"point": marker}, MISS) == value
        assert cache.get({"point": marker}, MISS) is not MISS
    assert cache.get({"point": "absent"}, MISS) is MISS
    assert cache.get({"point": "absent"}) is None  # default default


def test_cached_none_is_a_hit(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put({"k": 1}, None)
    assert cache.get({"k": 1}, MISS) is None  # a cached None, not a miss
    assert (cache.stats.hits, cache.stats.misses) == (1, 0)


# -- per-channel FIFO ----------------------------------------------------------

def _net(params):
    env = Environment()
    nodes = [Node(env, i, KernelConfig.lightweight()) for i in range(3)]
    net = Network(env, nodes, params=params)
    return env, net


def test_zero_gap_flood_arrivals_strictly_ordered():
    # g=0: every message departs at once and lands on one timestamp —
    # pre-fix, delivery order was whatever the event heap happened to do.
    env, net = _net(LogGPParams(L=1000, o=0, g=0, G=0.0))
    log = []
    net.on_deliver(lambda m: log.append((env.now, m.tag)))
    for tag in range(8):
        net.inject(Message(src=0, dst=1, tag=tag, size=0))
    env.run()
    times = [t for t, _ in log]
    assert [tag for _, tag in log] == list(range(8))  # injection order
    assert all(a < b for a, b in zip(times, times[1:]))  # strictly


def test_smaller_message_never_overtakes_larger():
    # Big message pays G*size on the wire; with a small NIC gap the
    # later small message would land first without channel booking.
    env, net = _net(LogGPParams(L=1000, o=0, g=10, G=5.0))
    log = []
    net.on_deliver(lambda m: log.append(m.tag))
    net.inject(Message(src=0, dst=1, tag=0, size=4000))  # slow
    net.inject(Message(src=0, dst=1, tag=1, size=0))     # fast
    env.run()
    assert log == [0, 1]


def test_distinct_channels_do_not_serialize_each_other():
    env, net = _net(LogGPParams(L=1000, o=0, g=0, G=0.0))
    log = []
    net.on_deliver(lambda m: log.append((env.now, m.src, m.dst)))
    net.inject(Message(src=0, dst=1, tag=0, size=0))
    net.inject(Message(src=2, dst=1, tag=0, size=0))
    env.run()
    # Different (src, dst) channels may share a timestamp freely.
    assert [t for t, *_ in log] == [1000, 1000]


# -- executor graceful degradation ---------------------------------------------

def test_failed_point_is_isolated_and_reported():
    ex = SweepExecutor(workers=1)
    results = ex.run(plan_points({
        "ok": _cfg(seed=1),
        "doomed": _cfg(seed=2, faults=_CRASH),
        "also-ok": _cfg(seed=3),
    }))
    assert set(results) == {"ok", "also-ok"}
    assert {t.label for t in ex.last_stats.timings} == {"ok", "also-ok"}
    assert set(ex.last_errors) == {"doomed"}
    err = ex.last_errors["doomed"]
    assert isinstance(err, PointError)
    assert err.kind == "FaultError" and err.retried
    assert "label" in err.as_dict()


def test_failed_point_is_isolated_in_pool_mode():
    ex = SweepExecutor(workers=2)
    results = ex.run(plan_points({
        "ok": _cfg(seed=1),
        "doomed": _cfg(seed=2, faults=_CRASH),
    }))
    assert set(results) == {"ok"}
    assert ex.last_errors["doomed"].kind == "FaultError"


def test_failure_is_retried_once(monkeypatch):
    import repro.parallel.executor as mod
    attempts = []
    real = mod._run_point

    def flaky(cfg, det_check=False):
        attempts.append(cfg.seed)
        if cfg.seed == 99 and attempts.count(99) == 1:
            raise RuntimeError("transient worker loss")
        return real(cfg, det_check)

    monkeypatch.setattr(mod, "_run_point", flaky)
    ex = SweepExecutor(workers=1)
    results = ex.run(plan_points({"flaky": _cfg(seed=99)}))
    # First attempt failed, the serial retry succeeded: no error.
    assert attempts.count(99) == 2
    assert set(results) == {"flaky"} and not ex.last_errors


def test_failed_points_are_not_cached(tmp_path):
    ex = SweepExecutor(workers=1, cache=str(tmp_path))
    ex.run(plan_points({"doomed": _cfg(faults=_CRASH)}))
    assert ex.last_errors and len(ex.cache) == 0


def test_sweep_plan_returns_partial_results(monkeypatch):
    import repro.parallel.executor as mod
    real = mod._run_point

    def failing_noisy_p4(cfg, det_check=False):
        if cfg.nodes == 4 and cfg.noise_pattern != "quiet":
            raise RuntimeError("boom")
        return real(cfg, det_check)

    monkeypatch.setattr(mod, "_run_point", failing_noisy_p4)
    ex = SweepExecutor(workers=1)
    results = ex.run(plan_sweep(_cfg(), [4, 8], ["quiet", "2.5pct@10Hz"]))
    assert set(results) == {(4, "quiet"), (8, "quiet"), (8, "2.5pct@10Hz")}
    assert ex.last_stats.failed == 1
    assert ex.last_stats.errors[0].kind == "RuntimeError"
    assert ex.last_stats.as_dict()["failed"] == 1


def test_sweep_plan_reports_missing_baseline(monkeypatch):
    import repro.parallel.executor as mod
    real = mod._run_point

    def failing_quiet_p4(cfg, det_check=False):
        if cfg.nodes == 4 and cfg.noise_pattern == "quiet":
            raise RuntimeError("baseline gone")
        return real(cfg, det_check)

    monkeypatch.setattr(mod, "_run_point", failing_quiet_p4)
    ex = SweepExecutor(workers=1)
    results = ex.run(plan_sweep(_cfg(), [4, 8], ["quiet", "2.5pct@10Hz"]))
    # The P=4 noisy run survived but has no baseline: both P=4 keys
    # are absent and the loss is reported, P=8 is intact.
    assert set(results) == {(8, "quiet"), (8, "2.5pct@10Hz")}
    kinds = {e.kind for e in ex.last_stats.errors}
    assert kinds == {"RuntimeError", "MissingBaseline"}


def test_comparison_plan_drops_orphaned_comparison(monkeypatch):
    import repro.parallel.executor as mod
    real = mod._run_point

    def failing_quiet(cfg, det_check=False):
        if cfg.noise_pattern == "quiet":
            raise RuntimeError("no baseline for you")
        return real(cfg, det_check)

    monkeypatch.setattr(mod, "_run_point", failing_quiet)
    ex = SweepExecutor(workers=1)
    results = ex.run(plan_comparisons({
        "a": _cfg(noise_pattern="2.5pct@10Hz")}))
    assert results == {}
    kinds = {e.kind for e in ex.last_stats.errors}
    assert kinds == {"RuntimeError", "MissingBaseline"}


# -- parallel determinism with faults ------------------------------------------

def test_faulty_sweep_identical_serial_vs_parallel():
    plan = FaultPlan(drop_rate=0.02, duplicate_rate=0.01, seed=5,
                     ack_timeout_ns=200_000)
    configs = {s: _cfg(seed=s, faults=plan) for s in range(3)}
    serial = SweepExecutor(workers=1).run(plan_points(configs))
    parallel = SweepExecutor(workers=3).run(plan_points(configs))
    for s in configs:
        assert serial[s].makespan_ns == parallel[s].makespan_ns
        assert serial[s].meta == parallel[s].meta
