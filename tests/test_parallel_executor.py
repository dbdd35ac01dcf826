"""Tests for the parallel sweep executor and the on-disk result cache."""

import json
import os
import pickle
import signal
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import __version__
from repro.core import (
    ComparisonResult,
    ExperimentConfig,
    RunResult,
    run_with_baseline,
    sweep_records,
)
from repro.errors import ConfigError
from repro.parallel import (
    ResultCache,
    SweepExecutor,
    config_key,
    plan_comparisons,
    plan_points,
    plan_sweep,
)

BSP_SMALL = {"work_ns": 500_000, "iterations": 10}

#: Per-app parameters small enough that one point is tens of ms.
_DET_APPS = {
    "bsp": BSP_SMALL,
    "stencil": dict(work_ns=500_000, halo_bytes=1024, iterations=4),
    "cg": dict(spmv_ns=500_000, exchange_bytes=1024, iterations=4),
}


def records_blob(records):
    """Canonical byte encoding of sweep_records output."""
    return json.dumps(records, sort_keys=True).encode()


# -- config keys ------------------------------------------------------------

def test_config_key_stable_and_order_insensitive():
    a = ExperimentConfig(app="bsp", nodes=8, seed=3,
                         app_params={"x": 1, "y": 2.5})
    b = ExperimentConfig(app="bsp", nodes=8, seed=3,
                         app_params={"y": 2.5, "x": 1})
    assert config_key(a) == config_key(b)
    assert len(config_key(a)) == 64  # sha256 hex


def test_config_key_differs_on_any_field():
    base = ExperimentConfig(app="bsp", nodes=8, seed=3)
    assert config_key(base) != config_key(ExperimentConfig(
        app="bsp", nodes=8, seed=4))
    assert config_key(base) != config_key(ExperimentConfig(
        app="bsp", nodes=16, seed=3))
    assert config_key(base, salt="v1") != config_key(base, salt="v2")


def test_config_key_survives_hash_seed_and_wall_clock():
    """Cache keys must be content-only: identical across processes with
    different PYTHONHASHSEED values (set iteration inside the token
    builder must be sorted) and free of any wall-clock component."""
    import subprocess
    import sys

    script = (
        "from repro.core import ExperimentConfig;"
        "from repro.parallel.cache import config_key;"
        "cfg = ExperimentConfig(app='bsp', nodes=8, seed=3,"
        " app_params={'alpha': 1, 'beta': 2.5, 'gamma': 'x'});"
        "print(config_key(cfg))")
    keys = set()
    for hash_seed in ("0", "1", "42"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH="src")
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, env=env,
                             cwd=Path(__file__).resolve().parent.parent)
        assert out.returncode == 0, out.stderr
        keys.add(out.stdout.strip())
    assert len(keys) == 1  # same config -> same key, every process


def test_config_key_handles_instance_substrate():
    from repro.kernel import KernelConfig
    cfg = ExperimentConfig(kernel=KernelConfig(name="custom", hz=250))
    assert config_key(cfg) == config_key(
        ExperimentConfig(kernel=KernelConfig(name="custom", hz=250)))
    assert config_key(cfg) != config_key(
        ExperimentConfig(kernel=KernelConfig(name="custom", hz=1000)))


def test_quiet_twin_merges_alignments():
    a = ExperimentConfig(noise_pattern="2.5pct@10Hz", alignment="staggered")
    b = ExperimentConfig(noise_pattern="2.5pct@10Hz", alignment="random")
    assert config_key(a.quiet_twin()) == config_key(b.quiet_twin())


# -- the cache --------------------------------------------------------------

def test_cache_roundtrip_and_stats(tmp_path):
    cache = ResultCache(tmp_path)
    cfg = ExperimentConfig(app="bsp", app_params=BSP_SMALL)
    assert cache.get(cfg) is None
    assert cache.stats.misses == 1
    cache.put(cfg, {"makespan": 123})
    assert cache.stats.stores == 1
    assert len(cache) == 1
    assert cache.get(cfg) == {"makespan": 123}
    assert cache.stats.hits == 1


def test_cache_version_bump_invalidates(tmp_path):
    old = ResultCache(tmp_path, version="0.9.0")
    cfg = ExperimentConfig(app="bsp")
    old.put(cfg, "stale")
    new = ResultCache(tmp_path)  # current __version__
    assert new.version == __version__
    assert new.get(cfg) is None


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cfg = ExperimentConfig(app="bsp")
    cache.put(cfg, "fine")
    path = cache._path(cfg)
    path.write_bytes(b"not a pickle")
    assert cache.get(cfg) is None
    assert not path.exists()  # corrupt entry dropped


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(ExperimentConfig(app="bsp"), "v")
    assert cache.clear() == 1
    assert len(cache) == 0


def test_cached_result_roundtrips_run_result(tmp_path):
    cache = ResultCache(tmp_path)
    cfg = ExperimentConfig(app="bsp", nodes=2, app_params=BSP_SMALL)
    from repro.core import run_experiment
    fresh = run_experiment(cfg)
    cache.put(cfg, fresh)
    back = cache.get(cfg)
    assert isinstance(back, RunResult)
    assert back.as_dict() == fresh.as_dict()
    assert (back.iteration_durations_ns == fresh.iteration_durations_ns).all()


# -- executor construction --------------------------------------------------

def test_executor_worker_validation():
    assert SweepExecutor(workers=1).workers == 1
    assert SweepExecutor(workers=None).workers >= 1
    assert SweepExecutor(workers=0).workers >= 1
    with pytest.raises(ConfigError):
        SweepExecutor(workers=-2)


def test_executor_cache_coercion(tmp_path):
    assert SweepExecutor().cache is None
    ex = SweepExecutor(cache=tmp_path)
    assert isinstance(ex.cache, ResultCache)
    cache = ResultCache(tmp_path)
    assert SweepExecutor(cache=cache).cache is cache


def test_empty_sweep_rejected():
    ex = SweepExecutor()
    base = ExperimentConfig(app="bsp", app_params=BSP_SMALL)
    with pytest.raises(ConfigError):
        ex.run(plan_sweep(base, [], ["quiet"]))
    with pytest.raises(ConfigError):
        ex.run(plan_sweep(base, [2], []))


# -- determinism: parallel == serial, byte for byte -------------------------

@pytest.mark.parametrize("app", sorted(_DET_APPS))
def test_parallel_and_serial_sweeps_bit_identical(app):
    base = ExperimentConfig(app=app, seed=7, app_params=_DET_APPS[app])
    kwargs = dict(nodes=[2, 4], patterns=["quiet", "2.5pct@100Hz"])
    serial = sweep_records(base, workers=1, **kwargs)
    parallel = sweep_records(base, workers=4, **kwargs)
    assert records_blob(serial) == records_blob(parallel)


def test_parallel_sweep_structure_matches_serial():
    base = ExperimentConfig(app="bsp", seed=2, app_params=BSP_SMALL)
    results = SweepExecutor(workers=2).run(
        plan_sweep(base, [2, 4], ["quiet", "2.5pct@100Hz"]))
    assert list(results) == [(2, "quiet"), (2, "2.5pct@100Hz"),
                             (4, "quiet"), (4, "2.5pct@100Hz")]
    assert isinstance(results[(2, "quiet")], RunResult)
    cmp = results[(2, "2.5pct@100Hz")]
    assert isinstance(cmp, ComparisonResult)
    # Shared-baseline identity survives the process round-trip.
    assert cmp.quiet is results[(2, "quiet")]


def test_sweep_records_sorted_by_nodes_then_pattern():
    base = ExperimentConfig(app="bsp", seed=2, app_params=BSP_SMALL)
    # Deliberately unsorted axes.
    recs = sweep_records(base, nodes=[4, 2],
                         patterns=["2.5pct@100Hz", "quiet"])
    keys = [(r["nodes"], r["pattern"]) for r in recs]
    assert keys == sorted(keys)


def test_parallel_progress_reports_every_point():
    seen = []
    base = ExperimentConfig(app="bsp", app_params=BSP_SMALL)
    SweepExecutor(workers=2).run(plan_sweep(base, [2], ["2.5pct@100Hz"]),
                                 progress=seen.append)
    assert any("baseline" in s for s in seen)
    assert any("2.5pct@100Hz" in s for s in seen)


# -- cache-aware sweeps ------------------------------------------------------

def test_second_sweep_serves_baselines_from_cache(tmp_path):
    base = ExperimentConfig(app="bsp", seed=2, app_params=BSP_SMALL)
    kwargs = dict(nodes=[2, 4], patterns=["quiet", "2.5pct@100Hz"])

    first = SweepExecutor(workers=1, cache=tmp_path)
    first.run(plan_sweep(base, **kwargs))
    assert first.last_stats.quiet_simulated == 2
    assert first.last_stats.quiet_cached == 0

    second = SweepExecutor(workers=1, cache=tmp_path)
    second.run(plan_sweep(base, **kwargs))
    assert second.last_stats.quiet_simulated == 0
    assert second.last_stats.quiet_cached == 2
    assert second.last_stats.noisy_simulated == 0
    assert second.cache.stats.hits == 4
    assert second.cache.stats.misses == 0


def test_cached_sweep_output_identical_to_fresh(tmp_path):
    base = ExperimentConfig(app="cg", seed=5, app_params=_DET_APPS["cg"])
    kwargs = dict(nodes=[2], patterns=["quiet", "2.5pct@100Hz"])
    fresh = sweep_records(base, workers=1, **kwargs)
    primed = sweep_records(base, workers=1, cache=tmp_path, **kwargs)
    cached = sweep_records(base, workers=1, cache=tmp_path, **kwargs)
    assert records_blob(fresh) == records_blob(primed) == records_blob(cached)


def test_baselines_shared_across_different_sweeps(tmp_path):
    base = ExperimentConfig(app="bsp", seed=2, app_params=BSP_SMALL)
    SweepExecutor(workers=1, cache=tmp_path).run(
        plan_sweep(base, [2, 4], ["2.5pct@100Hz"]))
    # A different pattern set still reuses the quiet baselines.
    ex = SweepExecutor(workers=1, cache=tmp_path)
    ex.run(plan_sweep(base, [2, 4], ["2.5pct@1000Hz"]))
    assert ex.last_stats.quiet_simulated == 0
    assert ex.last_stats.quiet_cached == 2
    assert ex.last_stats.noisy_simulated == 2


# -- comparison fan-out ------------------------------------------------------

def test_comparison_plan_matches_run_with_baseline():
    cfgs = {a: ExperimentConfig(app="bsp", nodes=4,
                                noise_pattern="2.5pct@100Hz", alignment=a,
                                seed=1, app_params=BSP_SMALL)
            for a in ("random", "synchronized")}
    got = SweepExecutor(workers=1).run(plan_comparisons(cfgs))
    for a, cfg in cfgs.items():
        want = run_with_baseline(cfg)
        assert got[a].as_dict() == want.as_dict()


def test_comparison_plan_dedups_quiet_twins():
    cfgs = {a: ExperimentConfig(app="bsp", nodes=4,
                                noise_pattern="2.5pct@100Hz", alignment=a,
                                seed=1, app_params=BSP_SMALL)
            for a in ("random", "synchronized", "staggered")}
    ex = SweepExecutor(workers=1)
    got = ex.run(plan_comparisons(cfgs))
    # One shared baseline simulation for three comparisons.
    assert ex.last_stats.quiet_simulated == 1
    assert ex.last_stats.noisy_simulated == 3
    quiets = {id(cmp.quiet) for cmp in got.values()}
    assert len(quiets) == 1


def test_comparison_plan_rejects_quiet_config():
    with pytest.raises(ConfigError):
        SweepExecutor().run(plan_comparisons(
            {"x": ExperimentConfig(noise_pattern="quiet")}))


# -- stats ------------------------------------------------------------------

def test_sweep_stats_shape(tmp_path):
    ex = SweepExecutor(workers=1, cache=tmp_path)
    base = ExperimentConfig(app="bsp", seed=2, app_params=BSP_SMALL)
    ex.run(plan_sweep(base, [2], ["quiet", "2.5pct@100Hz"]))
    stats = ex.last_stats
    assert stats.points == 2
    assert stats.wall_s > 0
    assert stats.simulated_s > 0
    d = stats.as_dict()
    assert d["workers"] == 1
    assert d["quiet_simulated"] == 1
    assert d["noisy_simulated"] == 1
    assert pickle.loads(pickle.dumps(stats)).points == 2


# -- PR 7 regressions: dict-key collision, tmp litter, span starts ----------

def test_config_key_dict_int_vs_str_keys_differ():
    """{1: x} and {"1": x} dict keys must not collapse onto one cache
    key (the set-token collision PR 2 fixed, in dict form)."""
    a = ExperimentConfig(app="bsp", app_params={"table": {1: 5}})
    b = ExperimentConfig(app="bsp", app_params={"table": {"1": 5}})
    assert config_key(a) != config_key(b)


def test_config_key_dict_mixed_key_types_stable():
    """Mixed-type dict keys sort by their typed JSON token, not str()."""
    from repro.parallel import config_token

    a = config_token({1: "a", "1": "b", 2: "c"})
    b = config_token({"1": "b", 2: "c", 1: "a"})
    assert a == b
    # Both entries survive with distinct key tokens.
    keys = [k for k, _v in a[1]]
    assert 1 in keys and "1" in keys


def test_cache_sweeps_stale_tmp_litter(tmp_path):
    """Orphaned *.tmp files (worker killed between mkstemp and
    os.replace) are swept age-gated on init and clear()."""
    cache = ResultCache(tmp_path)
    cache.put({"k": 1}, "v")
    d = cache._dir
    stale = d / "deadbeef.tmp"
    stale.write_bytes(b"torn write")
    os.utime(stale, (1, 1))  # ancient
    fresh = d / "inflight.tmp"
    fresh.write_bytes(b"concurrent writer")

    # A new cache over the same root sweeps the stale file on init but
    # never touches a fresh (possibly in-flight) temp file.
    again = ResultCache(tmp_path)
    assert not stale.exists()
    assert fresh.exists()
    assert again.get({"k": 1}) == "v"

    os.utime(fresh, (1, 1))
    again.clear()
    assert not fresh.exists()
    assert len(again) == 0


def test_pooled_span_start_times_are_true_worker_stamps(monkeypatch):
    """Sweep trace spans carry the worker's real start stamp, not
    'collection time minus elapsed' (which shifts pooled spans)."""
    import repro.obs.runtime as obs_runtime
    import repro.parallel.executor as mod
    from repro import obs

    obs.configure(trace=True)
    tr = obs_runtime.tracer()
    result = object()

    def stamped(cfg, det_check=False):
        # A point that ran from t0+10s to t0+11.5s in some worker, but
        # is only *collected* now (perf_counter() >> t0 + 11.5 is not
        # required; the stamps simply are not "now").
        return result, tr._t0 + 10.0, tr._t0 + 11.5

    monkeypatch.setattr(mod, "_run_point", stamped)
    ex = SweepExecutor(workers=1)
    served = ex.run(plan_points(
        {"pt": ExperimentConfig(app="bsp", app_params=BSP_SMALL)}))
    assert served["pt"] is result
    assert ex.last_stats.timings[0].elapsed_s == pytest.approx(1.5)
    span = next(e for e in tr.events() if e["cat"] == "sweep")
    assert span["ts"] == pytest.approx(10.0 * 1e6)   # us since tracer t0
    assert span["dur"] == pytest.approx(1.5 * 1e6)


# -- sharded cache ----------------------------------------------------------

def test_sharded_cache_layout_and_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    cfg = ExperimentConfig(app="bsp", seed=9)
    cache.put(cfg, "value")
    key = cache.key(cfg)
    shard = cache._dir / key[:2] / f"{key}.pkl"
    assert shard.is_file()
    assert cache.get(cfg) == "value"
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0


def test_executor_paths_root_sharded_caches(tmp_path):
    ex = SweepExecutor(cache=tmp_path)
    assert isinstance(ex.cache, ResultCache)
    cfg = ExperimentConfig(app="bsp", seed=5)
    ex.cache.put(cfg, "value")
    key = ex.cache.key(cfg)
    assert (ex.cache._dir / key[:2] / f"{key}.pkl").is_file()


def test_sharded_cache_sweep_identical_to_flat(tmp_path):
    base = ExperimentConfig(app="bsp", seed=2, app_params=BSP_SMALL)
    kwargs = dict(nodes=[2, 4], patterns=["quiet", "2.5pct@100Hz"])
    plain = sweep_records(base, **kwargs)
    warm = SweepExecutor(workers=1, cache=tmp_path / "c")
    warm.run(plan_sweep(base, **kwargs))
    served = SweepExecutor(workers=1, cache=tmp_path / "c")
    results = served.run(plan_sweep(base, **kwargs))
    records = []
    for (p, pattern), res in sorted(results.items()):
        record = res.as_dict()
        record.setdefault("nodes", p)
        record.setdefault("pattern", pattern)
        records.append(record)
    assert records_blob(records) == records_blob(plain)
    assert served.last_stats.quiet_cached == 2
    assert served.last_stats.noisy_cached == 2


# -- persistent pool --------------------------------------------------------

def test_persistent_pool_reused_and_closed():
    base = ExperimentConfig(app="bsp", seed=2, app_params=BSP_SMALL)
    with SweepExecutor(workers=2, persistent=True) as ex:
        ex.run(plan_sweep(base, [2], ["quiet", "2.5pct@100Hz"]))
        pool = ex._pool
        assert pool is not None
        ex.run(plan_sweep(base, [4], ["quiet", "2.5pct@100Hz"]))
        assert ex._pool is pool  # same pool, not a new one per sweep
    assert ex._pool is None


def test_run_survives_a_killed_pool_worker(kill_pool_worker):
    """A pool that lost its worker is replaced, and the next run
    returns every point with no error."""
    base = ExperimentConfig(app="bsp", seed=2, app_params=BSP_SMALL)
    with SweepExecutor(workers=1, persistent=True) as ex:
        kill_pool_worker(ex)
        dead = ex._pool
        configs = {seed: replace(base, seed=seed) for seed in (3, 4, 5)}
        results = ex.run(plan_points(configs))
        assert ex._pool is not None and ex._pool is not dead
    assert set(results) == set(configs)
    assert not ex.last_errors and not ex.last_stats.errors


def test_points_in_flight_on_a_dying_pool_are_retried():
    """Stress: more workers than cores, a short switch interval, and a
    worker SIGKILLed while points are queued and running.  Pool
    callback threads replace the pool while this thread submits; every
    point still resolves to its serial result."""
    from repro.core import run_experiment

    base = ExperimentConfig(app="bsp", seed=2, app_params=BSP_SMALL)
    configs = [replace(base, seed=seed) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with SweepExecutor(workers=3, persistent=True) as ex:
            ex.warm()
            pid = ex._pool.submit(os.getpid).result(timeout=30)
            futures = [ex.submit(cfg) for cfg in configs[:4]]
            os.kill(pid, signal.SIGKILL)
            futures += [ex.submit(cfg) for cfg in configs[4:]]
            runs = [fut.result(timeout=120) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    assert records_blob([run.result.as_dict() for run in runs]) == \
        records_blob([run_experiment(cfg).as_dict() for cfg in configs])


def test_submit_matches_serial():
    cfg = ExperimentConfig(app="bsp", seed=5, app_params=BSP_SMALL)
    from repro.core import run_experiment

    with SweepExecutor(workers=1, persistent=True) as ex:
        run = ex.submit(cfg).result()
    result, t0, t1 = run.result, run.start, run.end
    assert t1 >= t0
    serial = run_experiment(cfg)
    assert records_blob([result.as_dict()]) == records_blob(
        [serial.as_dict()])


def test_persistent_sweep_identical_to_serial():
    base = ExperimentConfig(app="bsp", seed=2, app_params=BSP_SMALL)
    kwargs = dict(nodes=[2, 4], patterns=["quiet", "2.5pct@100Hz"])
    serial = sweep_records(base, workers=1, **kwargs)
    with SweepExecutor(workers=2, persistent=True) as ex:
        results = ex.run(plan_sweep(base, **kwargs))
    records = []
    for (p, pattern), res in sorted(results.items()):
        record = res.as_dict()
        record.setdefault("nodes", p)
        record.setdefault("pattern", pattern)
        records.append(record)
    assert records_blob(records) == records_blob(serial)


def test_det_check_does_not_leak_across_pooled_points():
    """The det_check switch holds for one point: a pooled worker that
    ran a checked point must not checksum the next, unchecked one."""
    from repro import obs

    cfg = ExperimentConfig(app="bsp", seed=5, app_params=BSP_SMALL)
    with SweepExecutor(workers=1, persistent=True) as ex:
        obs.configure(det_check=True)
        try:
            checked = ex.submit(cfg).result().result
        finally:
            obs.configure(det_check=False)
        unchecked = ex.submit(cfg).result().result
    assert "det_check" in checked.meta
    assert "det_check" not in unchecked.meta


# -- collective points ------------------------------------------------------

def test_collective_point_pooled_and_cached_matches_direct(tmp_path):
    """A collective point runs the same benchmark in a worker and from
    the cache as in-process, engine counters included."""
    from repro.core import MachineConfig
    from repro.microbench import CollectiveBenchmark, CollectivePoint
    from repro.noise import InjectionPlan

    machine = MachineConfig(n_nodes=16, kernel="lightweight", seed=3,
                            injection=InjectionPlan("2.5pct@1000Hz", seed=3))
    bench = CollectiveBenchmark(repetitions=5, gap_ns=500_000)
    point = CollectivePoint(machine, bench, tie_break="deterministic")
    stats = {}
    direct = bench.run_auto(machine, tie_break="deterministic",
                            stats_out=stats)
    plan = plan_points({"pt": point})
    runs = [SweepExecutor(workers=2, cache=tmp_path).run(plan)["pt"]
            for _ in range(2)]
    ex = SweepExecutor(workers=1, cache=tmp_path)
    runs.append(ex.run(plan)["pt"])
    assert ex.last_stats.quiet_cached == 1
    for res in runs:
        assert res.times_ns.tolist() == direct.times_ns.tolist()
        assert res.meta == {"fixpoint_reps": stats.get("fixpoint_reps", 0),
                            "tie_breaks": stats.get("tie_breaks", 0)}
    assert config_key(point) != config_key(CollectivePoint(machine, bench))
