"""Round builders + gating for the bulk-rank fast path.

Translates the generator collectives that the bulk engine supports
into explicit :class:`~repro.sim.bulk.RoundSpec` lists — the same
messages, in the same per-rank program order, with the same reduction
costs.  Each builder is a round-for-round mirror of the corresponding
generator in :mod:`repro.mpi.collectives`; the equivalence tests pin
the two together byte-for-byte, so any change to a generator algorithm
must be replayed here.  Every operation
:class:`~repro.microbench.CollectiveBenchmark` offers has a builder
for its default algorithm (:data:`SUPPORTED_ALGORITHMS`).

:func:`unsupported_reason` is the single gate deciding whether a
``(MachineConfig, CollectiveBenchmark)`` pair may take the fast path;
it draws no per-rank noise phases, so it is cheap to ask twice.
:func:`run_bulk` executes the pair, drawing the phases once.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from ...errors import ConfigError
from ...sim.bulk import BulkEngine, BulkTimeline, RoundSpec

if _t.TYPE_CHECKING:  # pragma: no cover
    from ...core.machine import MachineConfig
    from ...microbench.collective_bench import CollectiveBenchmark

__all__ = ["rounds_for", "unsupported_reason", "run_bulk",
           "SUPPORTED_ALGORITHMS"]

#: Operation -> algorithms with a bulk round builder.
SUPPORTED_ALGORITHMS: dict[str, frozenset[str]] = {
    "barrier": frozenset({"dissemination", "two-level"}),
    "bcast": frozenset({"binomial", "two-level"}),
    "allreduce": frozenset({"recursive-doubling", "two-level",
                            "two-level-ring"}),
    "allgather": frozenset({"ring"}),
    "alltoall": frozenset({"pairwise"}),
}


def _pow2(x: int) -> bool:
    return x > 0 and not (x & (x - 1))


# -- flat building blocks ----------------------------------------------------

def _dissemination_rounds(ranks: np.ndarray, size: int = 0) -> list[RoundSpec]:
    """``barrier.dissemination`` over an explicit participant list."""
    n = len(ranks)
    rounds = []
    dist = 1
    while dist < n:
        rounds.append(RoundSpec(ranks, ranks[(np.arange(n) + dist) % n],
                                size, 0))
        dist <<= 1
    return rounds


def _binomial_bcast_rounds(ranks: np.ndarray, vroot: int, size: int
                           ) -> list[RoundSpec]:
    """``bcast.binomial`` over a participant list, rooted at logical
    index ``vroot`` — rounds by descending mask, matching each rank's
    receive-at-lsb-then-send program order."""
    n = len(ranks)
    if n <= 1:
        return []
    v = np.arange(n)
    phys = ranks[(v + vroot) % n]
    rounds = []
    mask = 1
    while mask * 2 < n:
        mask <<= 1
    while mask >= 1:
        sel = (v % (2 * mask) == 0) & (v + mask < n)
        rounds.append(RoundSpec(phys[sel], phys[v[sel] + mask], size, 0))
        mask >>= 1
    return rounds


def _rd_allreduce_rounds(ranks: np.ndarray, size: int, combine_work: int
                         ) -> list[RoundSpec]:
    """``allreduce.recursive_doubling`` (MPICH fold/exchange/unfold)
    over a participant list."""
    n = len(ranks)
    if n <= 1:
        return []
    pof2 = 1 << (n.bit_length() - 1)
    rem = n - pof2
    rounds = []
    if rem:
        evens = np.arange(0, 2 * rem, 2)
        rounds.append(RoundSpec(ranks[evens], ranks[evens + 1],
                                size, combine_work))
    new = np.arange(pof2)
    phys_of_new = ranks[np.where(new < rem, new * 2 + 1, new + rem)]
    mask = 1
    while mask < pof2:
        rounds.append(RoundSpec(phys_of_new, phys_of_new[new ^ mask],
                                size, combine_work))
        mask <<= 1
    if rem:
        odds = np.arange(1, 2 * rem, 2)
        rounds.append(RoundSpec(ranks[odds], ranks[odds - 1], size, 0))
    return rounds


def _ring_allreduce_rounds(ranks: np.ndarray, size: int,
                           reduce_cost_per_byte: float) -> list[RoundSpec]:
    """``hier._ring_over`` (scalar-path ring allreduce) over a list."""
    n = len(ranks)
    if n <= 1:
        return []
    block = max(1, size // n)
    combine_work = round(reduce_cost_per_byte * block)
    right = np.roll(ranks, -1)
    rounds = [RoundSpec(ranks, right, block, combine_work)] * (n - 1)
    rounds += [RoundSpec(ranks, right, block, 0)] * (n - 1)
    return rounds


# -- hierarchical building blocks --------------------------------------------

def _group_vectors(P: int, g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    r = np.arange(P)
    base = (r // g) * g
    v = r - base
    gsize = np.minimum(g, P - base)
    return r, v, gsize


def _intra_fanin_rounds(P: int, g: int, size: int, combine_work: int
                        ) -> list[RoundSpec]:
    """``hier._intra_fanin`` across every group at once: each rank
    sends at its in-group lsb; rounds by ascending mask."""
    r, v, _gsize = _group_vectors(P, g)
    rounds = []
    mask = 1
    while mask < g:
        sel = v % (2 * mask) == mask
        if sel.any():
            rounds.append(RoundSpec(r[sel], r[sel] - mask, size, combine_work))
        mask <<= 1
    return rounds


def _intra_bcast_rounds(P: int, g: int, size: int) -> list[RoundSpec]:
    """``hier._intra_bcast`` across every group: descending mask."""
    r, v, gsize = _group_vectors(P, g)
    rounds = []
    mask = 1
    while mask * 2 < g:
        mask <<= 1
    while mask >= 1:
        sel = (v % (2 * mask) == 0) & (v + mask < gsize)
        if sel.any():
            rounds.append(RoundSpec(r[sel], r[sel] + mask, size, 0))
        mask >>= 1
    return rounds


def _leaders(P: int, g: int) -> np.ndarray:
    n_groups = (P + g - 1) // g
    return np.arange(n_groups, dtype=np.int64) * g


# -- per-(op, algorithm) round lists ------------------------------------------

def rounds_for(operation: str, algorithm: str, P: int, *, size: int,
               reduce_cost_per_byte: float, shape=None, root: int = 0
               ) -> list[RoundSpec]:
    """The bulk round list for one collective invocation.

    Raises :class:`ConfigError` for unsupported pairs (callers gate on
    :func:`unsupported_reason` first) and for two-level algorithms
    without a shape.
    """
    if algorithm not in SUPPORTED_ALGORITHMS.get(operation, frozenset()):
        raise ConfigError(
            f"no bulk rounds for {operation}/{algorithm}")
    two_level = algorithm.startswith("two-level")
    if two_level:
        if shape is None:
            raise ConfigError("two-level collectives need a machine shape")
        g = shape.collective_group_size()
        leaders = _leaders(P, g)
    combine_work = round(reduce_cost_per_byte * size)
    world = np.arange(P, dtype=np.int64)

    if P == 1:
        return []
    if operation == "barrier":
        if algorithm == "dissemination":
            return _dissemination_rounds(world)
        return (_intra_fanin_rounds(P, g, 0, 0)
                + _dissemination_rounds(leaders)
                + _intra_bcast_rounds(P, g, 0))
    if operation == "allgather":
        # ``allgather.ring``: P-1 sendrecvs to the right neighbour.
        return [RoundSpec(world, np.roll(world, -1), size, 0)] * (P - 1)
    if operation == "alltoall":
        # ``alltoall.pairwise``: round k pairs rank r with r XOR k (P a
        # power of two), else sends to r+k and receives from r-k.
        if _pow2(P):
            return [RoundSpec(world, world ^ k, size, 0) for k in range(1, P)]
        return [RoundSpec(world, (world + k) % P, size, 0)
                for k in range(1, P)]
    if operation == "bcast":
        if algorithm == "binomial":
            return _binomial_bcast_rounds(world, root, size)
        root_gid = root // g
        root_leader = root_gid * g
        rounds = []
        if root != root_leader:
            rounds.append(RoundSpec(np.array([root], dtype=np.int64),
                                    np.array([root_leader], dtype=np.int64),
                                    size, 0))
        rounds += _binomial_bcast_rounds(leaders, root_gid, size)
        rounds += _intra_bcast_rounds(P, g, size)
        return rounds
    # allreduce
    if algorithm == "recursive-doubling":
        return _rd_allreduce_rounds(world, size, combine_work)
    rounds = _intra_fanin_rounds(P, g, size, combine_work)
    if algorithm == "two-level":
        rounds += _rd_allreduce_rounds(leaders, size, combine_work)
    else:  # two-level-ring
        rounds += _ring_allreduce_rounds(leaders, size, reduce_cost_per_byte)
    rounds += _intra_bcast_rounds(P, g, size)
    return rounds


# -- gating -------------------------------------------------------------------

def _resolved_algorithm(config: "MachineConfig", op: str,
                        override: str | None) -> str:
    from ..comm import _DEFAULT_ALGORITHMS
    if override:
        return override
    return (config.collectives or {}).get(op, _DEFAULT_ALGORITHMS[op])


def _tie_reason(op: str, algo: str, P: int, shape) -> str | None:
    """Shapes where a quiet machine produces *structural* arrival ties.

    When some ranks sit out a round while others act (the MPICH fold
    phase, a ragged binomial tree), equal-clock senders from different
    rounds hit one receiver at the same nanosecond, and the DES breaks
    that tie by event sequence number — unknowable outside the event
    simulation (:class:`repro.sim.bulk.BulkDivergence`).  Power-of-two
    trees have no idle/active asymmetry, so these shapes are excluded
    statically rather than discovered at runtime.
    """
    if P == 1:
        return None
    if algo == "recursive-doubling" and not _pow2(P):
        return ("recursive-doubling at a non-power-of-two rank count "
                "ties fold and exchange arrivals")
    if algo.startswith("two-level"):
        g = shape.collective_group_size()
        if not _pow2(g):
            return (f"two-level group size {g} is not a power of two; "
                    "the intra-group fan-in tree would be ragged")
        rem = P % g
        if rem and not _pow2(rem):
            return (f"partial group of {rem} ranks is not a power of "
                    "two; the intra-group fan-in tree would be ragged")
        n_leaders = -(-P // g)
        if op == "allreduce" and algo == "two-level" \
                and not _pow2(n_leaders):
            return (f"two-level allreduce over {n_leaders} leaders ties "
                    "in the fold phase; use two-level-ring")
    return None


def unsupported_reason(config: "MachineConfig",
                       bench: "CollectiveBenchmark") -> str | None:
    """Why this (machine, benchmark) pair cannot take the bulk path.

    ``None`` means the fast path applies and is byte-identical to the
    generator path.  Every condition here marks machine behaviour the
    engine does not model (host kernel activity, stochastic noise,
    faults, heterogeneous nodes) or telemetry that only the per-rank
    path can produce (metrics, traces, ``det_check``, critical path).
    The noise check asks only for the plan's shape: no phase is drawn.
    """
    from ...obs import runtime as _obs

    op = bench.operation
    if op not in SUPPORTED_ALGORITHMS:
        return f"no bulk round builder for operation {op!r}"
    algo = _resolved_algorithm(config, op, bench.algorithm)
    if algo not in SUPPORTED_ALGORITHMS[op]:
        return f"no bulk round builder for {op}/{algo}"
    barrier_algo = _resolved_algorithm(config, "barrier", None)
    if barrier_algo not in SUPPORTED_ALGORITHMS["barrier"]:
        return f"aligning barrier uses unsupported algorithm {barrier_algo!r}"
    needs_shape = algo.startswith("two-level") \
        or barrier_algo.startswith("two-level")
    shape = config.resolved_shape()
    if needs_shape and shape is None:
        return "two-level algorithms need a machine shape"
    reason = (_tie_reason(op, algo, config.n_nodes, shape)
              or _tie_reason("barrier", barrier_algo, config.n_nodes, shape))
    if reason is not None:
        return reason
    kcfg = config.kernel_config()
    if kcfg.hz or kcfg.daemons:
        return "kernel has intrinsic noise (tick or daemons)"
    if kcfg.nic is not None:
        return "host NIC processing couples messages to the CPU"
    if config.network_params().jitter_ns:
        return "wire jitter is not modelled in bulk"
    if config.faults is not None and config.faults.injects_faults:
        return "fault injection needs the protocol machinery"
    if config.slow_nodes:
        return "heterogeneous node speeds are not vectorized"
    if config.isolate_noise:
        return "core specialization changes the noise path"
    if config.critical_path:
        return "critical-path recording needs per-rank events"
    if _obs.metrics_enabled() or _obs.tracer() is not None \
            or _obs.det_check_enabled():
        return "telemetry (metrics/trace/det_check) needs the DES"
    if config.injection is not None \
            and not config.injection.is_strictly_periodic(config.n_nodes):
        return "injected noise is not strictly periodic"
    return None


def run_bulk(config: "MachineConfig", bench: "CollectiveBenchmark", *,
             tie_break: str = "strict",
             stats_out: dict | None = None) -> tuple["_t.Any", BulkTimeline]:
    """Run the benchmark on the fast path.

    Returns ``(CollectiveBenchResult, BulkTimeline)``; the result is
    byte-identical (times and metadata) to ``bench.run(Machine(config))``
    with the default ``tie_break="strict"``.  ``"deterministic"``
    additionally resolves exact-nanosecond arrival ties (whose DES
    order is unknowable outside the event path) in round order — still
    seed-deterministic, intended for scales the generator cannot reach.
    ``stats_out``, when given, accumulates the engine's diagnostic
    counters (``fixpoint_reps`` repetitions rescued by the arrival
    fixpoint, ``tie_breaks`` resolved ties).
    """
    from ...microbench.collective_bench import CollectiveBenchResult

    reason = unsupported_reason(config, bench)
    if reason is not None:
        raise ConfigError(f"bulk fast path unavailable: {reason}")
    P = config.n_nodes
    params = config.network_params()
    topology = config.build_topology()
    profile = (config.injection.periodic_profile(P)
               if config.injection is not None else None)
    engine = BulkEngine(P, params, topology, profile,
                        reduce_cost_per_byte=config.reduce_cost_per_byte,
                        tie_break=tie_break)
    shape = config.resolved_shape()
    barrier_rounds = rounds_for(
        "barrier", _resolved_algorithm(config, "barrier", None), P,
        size=0, reduce_cost_per_byte=config.reduce_cost_per_byte,
        shape=shape)
    coll_rounds = rounds_for(
        bench.operation, _resolved_algorithm(config, bench.operation,
                                             bench.algorithm),
        P, size=bench.message_size,
        reduce_cost_per_byte=config.reduce_cost_per_byte, shape=shape)
    timeline = engine.run_benchmark(barrier_rounds, coll_rounds,
                                    repetitions=bench.repetitions,
                                    gap_ns=bench.gap_ns)
    result = CollectiveBenchResult(bench.operation, bench.algorithm, P,
                                   bench.message_size, timeline.times_ns)
    if stats_out is not None:
        stats_out["fixpoint_reps"] = (stats_out.get("fixpoint_reps", 0)
                                      + engine.fixpoint_reps)
        stats_out["tie_breaks"] = (stats_out.get("tie_breaks", 0)
                                   + engine.tie_breaks)
    return result, timeline
