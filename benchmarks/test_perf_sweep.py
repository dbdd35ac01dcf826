"""Micro-benchmarks for the sweep engine and the DES hot path.

Three measurements, printed so the perf trajectory is visible from CI
logs (run with ``--benchmark-only -s``):

* raw event-queue throughput (events/sec) of the simulator core;
* wall-clock speedup of a 4-point sweep at ``workers=4`` vs
  ``workers=1`` (skipped on machines with < 4 CPUs);
* baseline-cache effectiveness: a second identical sweep must
  re-simulate **zero** quiet baselines.

These are perf *floors*, not shape checks: thresholds are set well
below healthy values so only a real regression trips them.
"""

import json
import os
import time

import pytest

from repro.core import ExperimentConfig, sweep_records
from repro.parallel import SweepExecutor, plan_sweep
from repro.sim import Environment

#: One sweep point heavy enough to amortise process fan-out (~0.5-1 s).
_HEAVY = dict(app="bsp", seed=3,
              app_params={"work_ns": 2_000_000, "iterations": 150})
_HEAVY_NODES = [32]
_HEAVY_PATTERNS = ["quiet", "2.5pct@10Hz", "2.5pct@100Hz", "2.5pct@1000Hz"]


def _events_per_second(n_events: int) -> float:
    env = Environment()

    def ticker(env):
        for _ in range(n_events):
            yield env.timeout(10)

    env.process(ticker(env))
    t0 = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - t0
    return env.events_processed / elapsed


def test_event_queue_throughput(benchmark):
    rate = benchmark.pedantic(lambda: _events_per_second(200_000),
                              rounds=3, iterations=1)
    print(f"\nevent-queue throughput: {rate:,.0f} events/sec")
    assert rate > 100_000, (
        f"DES hot path regressed: {rate:,.0f} events/sec "
        "(healthy is ~1M on a laptop core)")


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup measurement needs >= 4 CPUs")
def test_parallel_sweep_speedup(benchmark):
    base = ExperimentConfig(**_HEAVY)
    kwargs = dict(nodes=_HEAVY_NODES, patterns=_HEAVY_PATTERNS)

    t0 = time.perf_counter()
    serial = sweep_records(base, workers=1, **kwargs)
    serial_s = time.perf_counter() - t0

    def parallel_run():
        t0 = time.perf_counter()
        records = sweep_records(base, workers=4, **kwargs)
        return records, time.perf_counter() - t0

    parallel, parallel_s = benchmark.pedantic(parallel_run,
                                              rounds=1, iterations=1)
    speedup = serial_s / parallel_s
    print(f"\n4-point sweep: serial {serial_s:.2f}s, "
          f"workers=4 {parallel_s:.2f}s -> {speedup:.2f}x")
    assert json.dumps(serial, sort_keys=True) == \
        json.dumps(parallel, sort_keys=True), (
        "parallel sweep output diverged from serial")
    assert speedup >= 2.0, (
        f"expected >= 2x wall-clock speedup with 4 workers on a 4-point "
        f"sweep, got {speedup:.2f}x")


def test_baseline_cache_hits_on_second_run(benchmark, tmp_path):
    base = ExperimentConfig(app="bsp", seed=3,
                            app_params={"work_ns": 1_000_000,
                                        "iterations": 20})
    workers = 2 if (os.cpu_count() or 1) >= 2 else 1
    kwargs = dict(nodes=[4, 8], patterns=["quiet", "2.5pct@100Hz"])

    first = SweepExecutor(workers=workers, cache=tmp_path)
    first.run(plan_sweep(base, **kwargs))
    assert first.last_stats.quiet_simulated == 2

    def second_run():
        ex = SweepExecutor(workers=workers, cache=tmp_path)
        ex.run(plan_sweep(base, **kwargs))
        return ex

    second = benchmark.pedantic(second_run, rounds=1, iterations=1)
    stats = second.last_stats
    print(f"\nsecond sweep: {stats.as_dict()}")
    assert stats.quiet_simulated == 0, (
        "quiet baselines were re-simulated despite a warm cache")
    assert stats.quiet_cached == 2
    assert second.cache.stats.hits == 4
    assert second.cache.stats.misses == 0
    assert stats.wall_s < first.last_stats.wall_s, (
        "cache-served sweep should beat the cold sweep")
