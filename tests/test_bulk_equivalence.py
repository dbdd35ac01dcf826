"""Bulk-rank fast path vs per-rank generator: byte-identity contract.

Every case runs the same benchmark twice — vectorized
(:func:`repro.mpi.collectives.bulk.run_bulk`) and through the DES
generator path — and asserts the full per-rank repetition timelines,
derived times, and timeline checksums are byte-identical.  Cases where
the engine legitimately raises :class:`BulkDivergence` (coincidental
consequential arrival ties) instead assert the ``run_auto`` fallback
returns the generator's exact result.  Beside the hand-picked
``CASES``, a derandomized ``hypothesis`` differential test generates
operation x algorithm x rank count x fabric x noise configurations.
"""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import Machine, MachineConfig
from repro.errors import ConfigError
from repro.microbench import CollectiveBenchmark
from repro.mpi.collectives.bulk import run_bulk, unsupported_reason
from repro.noise import InjectionPlan
from repro.sim.bulk import BulkDivergence, timelines_from_finish

SH = "1x4x2@fat-tree"
REPS = 5


def _config(P, pattern=None, alignment="random", shape=None,
            topology="switch", seed=31):
    injection = (InjectionPlan(pattern, alignment=alignment, seed=seed)
                 if pattern else None)
    return MachineConfig(n_nodes=P, kernel="lightweight", network="seastar",
                         topology=topology, shape=shape,
                         injection=injection, seed=seed)


def _bench(op="allreduce", algo=None, reps=REPS):
    return CollectiveBenchmark(op, repetitions=reps, message_size=8,
                               algorithm=algo, gap_ns=500_000)


def _generator_timeline(config, bench):
    finish = [{} for _ in range(bench.repetitions)]
    machine = Machine(config)
    procs = machine.launch(lambda ctx: bench._program(ctx, finish))
    machine.run_to_completion(procs)
    return timelines_from_finish(finish, config.n_nodes)


CASES = {
    "flat-rd-4": dict(P=4),
    "flat-rd-16": dict(P=16),
    "flat-rd-64": dict(P=64),
    "barrier-7": dict(P=7, op="barrier"),
    "bcast-binomial-7": dict(P=7, op="bcast", algo="binomial"),
    "noisy-fine-random": dict(P=16, pattern="2.5pct@1000Hz"),
    "noisy-coarse-staggered": dict(P=16, pattern="2.5pct@100Hz",
                                   alignment="staggered"),
    "noisy-sync-barrier": dict(P=16, op="barrier", pattern="2.5pct@1000Hz",
                               alignment="synchronized"),
    "two-level-16": dict(P=16, algo="two-level", shape=SH),
    "two-level-ring-ragged-18": dict(P=18, algo="two-level-ring", shape=SH),
    "two-level-barrier-18": dict(P=18, op="barrier", algo="two-level",
                                 shape=SH),
    "two-level-noisy": dict(P=16, algo="two-level", shape=SH,
                            pattern="2.5pct@1000Hz"),
    "hier-fabric": dict(P=16, topology="hier:1x4x2@fat-tree"),
    "torus": dict(P=16, topology="torus:4x2x2"),
    "fat-tree-noisy": dict(P=16, topology="fat-tree",
                           pattern="2.5pct@1000Hz"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bulk_matches_generator(name):
    case = dict(CASES[name])
    op = case.pop("op", "allreduce")
    algo = case.pop("algo", None)
    config = _config(**case)
    bench = _bench(op, algo)
    assert unsupported_reason(config, bench) is None

    try:
        res_b, tl_b = run_bulk(config, bench)
    except BulkDivergence:
        # A consequential exact-nanosecond tie the static gates cannot
        # rule out: the auto path must fall back to the generator.
        res_auto = bench.run_auto(config)
        res_gen = bench.run(Machine(config))
        assert np.array_equal(res_auto.times_ns, res_gen.times_ns)
        return

    tl_g = _generator_timeline(config, bench)
    assert np.array_equal(tl_b.starts, tl_g.starts)
    assert np.array_equal(tl_b.ends, tl_g.ends)
    assert tl_b.checksum() == tl_g.checksum()
    res_gen = bench.run(Machine(config))
    assert np.array_equal(res_b.times_ns, res_gen.times_ns)


# -- divergence fallback and tie policy ---------------------------------------
def test_known_tie_divergence_falls_back():
    """32 ranks under 100 Hz noise hits a full arrival tie (equal send
    instants on a release wave): strict mode must raise and run_auto
    must return the generator's exact result."""
    config = _config(32, pattern="2.5pct@100Hz")
    bench = _bench()
    with pytest.raises(BulkDivergence):
        run_bulk(config, bench, tie_break="strict")
    res_auto = bench.run_auto(config)
    res_gen = bench.run(Machine(config))
    assert np.array_equal(res_auto.times_ns, res_gen.times_ns)


def test_deterministic_tie_break_is_reproducible():
    config = _config(32, pattern="2.5pct@100Hz")
    stats_a, stats_b = {}, {}
    _res_a, tl_a = run_bulk(config, _bench(), tie_break="deterministic",
                            stats_out=stats_a)
    _res_b, tl_b = run_bulk(config, _bench(), tie_break="deterministic",
                            stats_out=stats_b)
    assert tl_a.checksum() == tl_b.checksum()
    assert stats_a == stats_b
    assert stats_a["tie_breaks"] > 0


def test_run_auto_modes():
    """``auto`` picks the engine by capability, not rank count."""
    config = _config(16)
    bench = _bench()
    engine_stats = {}
    auto = bench.run_auto(config, stats_out=engine_stats)
    assert "fixpoint_reps" in engine_stats  # 16 ranks qualify: bulk ran
    forced = bench.run_auto(config, mode="bulk")
    gen = bench.run_auto(config, mode="generator")
    assert np.array_equal(auto.times_ns, gen.times_ns)
    assert np.array_equal(forced.times_ns, gen.times_ns)

    poisson = _config(16, pattern="2.5pct@100HzPoisson")
    assert unsupported_reason(poisson, bench) is not None
    engine_stats = {}
    fallback = bench.run_auto(poisson, stats_out=engine_stats)
    assert engine_stats == {}  # not strictly periodic: generator ran
    assert np.array_equal(fallback.times_ns,
                          bench.run(Machine(poisson)).times_ns)
    with pytest.raises(ConfigError):
        bench.run_auto(poisson, mode="bulk")
    with pytest.raises(ConfigError):
        bench.run_auto(config, mode="nonsense")


# -- generated differential: DES == bulk --------------------------------------
_OPS = (("allreduce", "recursive-doubling"), ("allreduce", "two-level"),
        ("allreduce", "two-level-ring"), ("barrier", None),
        ("barrier", "two-level"), ("bcast", None), ("bcast", "two-level"))
_SHAPES = ("1x4x2@fat-tree", "2x4x4@fat-tree", "1x8x4@fat-tree")
_PATTERNS = (None, "2.5pct@10Hz", "2.5pct@100Hz", "2.5pct@1000Hz")


@st.composite
def _generated_cases(draw):
    op, algo = draw(st.sampled_from(_OPS))
    P = draw(st.one_of(st.sampled_from([2, 4, 8, 16, 32, 64, 128, 256]),
                       st.integers(2, 256)))
    # Two-level algorithms need a shape; the flat ones also run on the
    # plain switch.
    fabrics = ("shape", "hier") if algo and algo.startswith("two-level") \
        else ("switch", "shape", "hier")
    fabric = draw(st.sampled_from(fabrics))
    shape = draw(st.sampled_from(_SHAPES))
    config = _config(
        P, pattern=draw(st.sampled_from(_PATTERNS)),
        alignment=draw(st.sampled_from(("random", "staggered",
                                        "synchronized"))),
        shape=shape if fabric == "shape" else None,
        topology=f"hier:{shape}" if fabric == "hier" else "switch",
        seed=draw(st.integers(0, 3)))
    return config, _bench(op, algo, reps=2)


@given(case=_generated_cases())
@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_bulk_matches_des(case):
    """Whatever engine ``run_auto`` picks, its times are the DES's; and
    wherever the bulk engine applies, strict mode either reproduces the
    DES timeline checksum or raises :class:`BulkDivergence`."""
    config, bench = case
    des = bench.run(Machine(config))
    assert np.array_equal(bench.run_auto(config).times_ns, des.times_ns)
    if unsupported_reason(config, bench) is not None:
        return
    try:
        _res, timeline = run_bulk(config, bench, tie_break="strict")
    except BulkDivergence:
        return
    assert timeline.checksum() == _generator_timeline(config,
                                                      bench).checksum()


# -- serial vs worker processes ----------------------------------------------
def _worker_det_checksum(P, pattern):
    from repro.core import ExperimentConfig, run_experiment
    obs.disable()
    obs.configure(det_check=True)
    try:
        cfg = ExperimentConfig(app="bsp", nodes=P, noise_pattern=pattern,
                               seed=7,
                               app_params={"work_ns": 200_000,
                                           "iterations": 4})
        result = run_experiment(cfg)
        return result.meta["det_check"]
    finally:
        obs.disable()


def test_timeline_checksums_serial_vs_workers():
    """The generator timelines (and hence the bulk-equivalence
    contract) are identical whether points run in-process or in
    worker processes."""
    names = ["flat-rd-16", "noisy-fine-random", "two-level-16"]
    serial = {}
    for name in names:
        case = dict(CASES[name])
        op = case.pop("op", "allreduce")
        algo = case.pop("algo", None)
        serial[name] = _generator_timeline(_config(**case),
                                           _bench(op, algo)).checksum()
    with ProcessPoolExecutor(2) as pool:
        pooled = dict(pool.map(_pool_entry, names))
    assert serial == pooled


def _pool_entry(name):
    case = dict(CASES[name])
    op = case.pop("op", "allreduce")
    algo = case.pop("algo", None)
    return name, _generator_timeline(_config(**case),
                                     _bench(op, algo)).checksum()


def test_det_check_serial_vs_workers():
    """obs det_check checksums match between an in-process run and a
    worker-process run of the same noisy configuration."""
    args = [(4, "quiet"), (4, "2.5pct@100Hz")]
    serial = [_worker_det_checksum(*a) for a in args]
    with ProcessPoolExecutor(2) as pool:
        pooled = list(pool.map(_det_entry, args))
    assert serial == pooled
    assert all(isinstance(v, int) and v != 0 for v in serial)


def _det_entry(args):
    return _worker_det_checksum(*args)
