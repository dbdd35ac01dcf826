"""Collective-operation latency microbenchmark.

Times repeated executions of one collective across a machine — the
standard tool for exposing noise amplification directly: plot the
completion-time distribution against node count per noise pattern.
:class:`CollectivePoint` is one such benchmark as a frozen,
content-keyable plan point, so the executor can pool and cache it.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field, replace

import numpy as np

from ..analysis.stats import SeriesStats, summarize_series
from ..errors import ConfigError
from ..mpi import RankComm

__all__ = ["CollectiveBenchResult", "CollectiveBenchmark", "CollectivePoint"]

_OPS = ("allreduce", "barrier", "bcast", "allgather", "alltoall")


@dataclass(frozen=True)
class CollectiveBenchResult:
    """Timing of repeated collective executions on one machine."""

    operation: str
    algorithm: str | None
    n_nodes: int
    message_size: int
    #: Completion wall time of each repetition (max over ranks), ns.
    times_ns: np.ndarray
    #: Run diagnostics (a :class:`CollectivePoint` records the bulk
    #: engine's ``fixpoint_reps`` and ``tie_breaks`` here).
    meta: dict[str, _t.Any] = field(default_factory=dict, compare=False)

    def stats(self) -> SeriesStats:
        return summarize_series(self.times_ns)

    @property
    def mean_ns(self) -> float:
        return float(self.times_ns.mean())

    @property
    def p99_ns(self) -> float:
        return float(np.percentile(self.times_ns, 99))


class CollectiveBenchmark:
    """Repeatedly run one collective, timing each repetition.

    Parameters
    ----------
    operation:
        One of ``allreduce | barrier | bcast | allgather | alltoall``.
    repetitions:
        Number of timed executions.
    message_size:
        Bytes per rank (ignored by barrier).
    algorithm:
        Specific algorithm (``None`` = the operation's default).
    gap_ns:
        Idle time inserted between repetitions, so successive runs
        sample different noise phases instead of racing back-to-back.
    """

    def __init__(self, operation: str = "allreduce", *, repetitions: int = 50,
                 message_size: int = 8, algorithm: str | None = None,
                 gap_ns: int = 100_000) -> None:
        if operation not in _OPS:
            raise ConfigError(f"operation must be one of {_OPS}, got {operation!r}")
        if repetitions <= 0:
            raise ConfigError("repetitions must be > 0")
        if gap_ns < 0:
            raise ConfigError("gap_ns must be >= 0")
        self.operation = operation
        self.repetitions = repetitions
        self.message_size = message_size
        self.algorithm = algorithm
        self.gap_ns = gap_ns

    # -- rank program -----------------------------------------------------------
    def _one(self, ctx: RankComm) -> _t.Generator:
        kwargs: dict[str, _t.Any] = {}
        if self.algorithm:
            kwargs["algorithm"] = self.algorithm
        if self.operation == "barrier":
            yield from ctx.barrier(**kwargs)
        elif self.operation == "allreduce":
            yield from ctx.allreduce(size=self.message_size, payload=1,
                                     **kwargs)
        elif self.operation == "bcast":
            yield from ctx.bcast(size=self.message_size, root=0,
                                 payload=("x" if ctx.rank == 0 else None),
                                 **kwargs)
        elif self.operation == "allgather":
            yield from ctx.allgather(size=self.message_size,
                                     payload=ctx.rank, **kwargs)
        else:  # alltoall
            yield from ctx.alltoall(size=self.message_size, **kwargs)

    def _program(self, ctx: RankComm, finish_times: list) -> _t.Generator:
        env = ctx.env
        for rep in range(self.repetitions):
            # Align repetitions so the measured interval is the
            # collective itself, not skew from the previous one.
            yield from ctx.barrier()
            start = env.now
            yield from self._one(ctx)
            finish_times[rep][ctx.rank] = (start, env.now)
            if self.gap_ns:
                yield env.timeout(self.gap_ns)

    # -- driver ----------------------------------------------------------------------
    def run_auto(self, config, *, mode: str = "auto",
                 tie_break: str = "strict",
                 stats_out: dict | None = None) -> CollectiveBenchResult:
        """Run from a :class:`repro.core.MachineConfig`, choosing a path.

        ``mode="auto"`` (default) picks the engine by capability, not
        size: the bulk-rank fast path (:mod:`repro.sim.bulk`) whenever
        the workload qualifies (``unsupported_reason`` is ``None``),
        else — or when the engine raises ``BulkDivergence`` — the
        generator path; ``mode="bulk"`` requires the fast path (raising
        with the disqualifying reason otherwise); ``mode="generator"``
        forces the per-rank path.  Both paths produce byte-identical
        times for any qualifying workload.  ``tie_break`` is passed to
        the engine; the default ``"strict"`` preserves byte-identity by
        falling back to the generator on unknowable arrival ties, while
        ``"deterministic"`` keeps extreme-scale runs on the fast path
        (see :func:`repro.mpi.collectives.bulk.run_bulk`).
        """
        if mode not in ("auto", "bulk", "generator"):
            raise ConfigError(
                f"mode must be auto|bulk|generator, got {mode!r}")
        if mode != "generator":
            from ..mpi.collectives.bulk import run_bulk, unsupported_reason
            from ..sim.bulk import BulkDivergence
            reason = unsupported_reason(config, self)
            if reason is None:
                try:
                    result, _timeline = run_bulk(config, self,
                                                 tie_break=tie_break,
                                                 stats_out=stats_out)
                    return result
                except BulkDivergence:
                    if mode == "bulk":
                        raise
                    # A coincidental arrival tie the static gates could
                    # not rule out; the generator path always works.
            if mode == "bulk":
                raise ConfigError(f"bulk fast path unavailable: {reason}")
        from ..core.machine import Machine
        return self.run(Machine(config))

    def run(self, machine) -> CollectiveBenchResult:
        """Run on a :class:`repro.core.Machine`; returns per-rep times."""
        P = machine.n_nodes
        finish: list[dict[int, tuple[int, int]]] = [
            {} for _ in range(self.repetitions)]

        def program(ctx: RankComm) -> _t.Generator:
            return self._program(ctx, finish)

        procs = machine.launch(program)
        machine.run_to_completion(procs)
        machine.finalize_telemetry()
        times = np.empty(self.repetitions, dtype=np.int64)
        for rep, per_rank in enumerate(finish):
            start = min(s for s, _ in per_rank.values())
            end = max(e for _, e in per_rank.values())
            times[rep] = end - start
        return CollectiveBenchResult(self.operation, self.algorithm, P,
                                     self.message_size, times)


@dataclass(frozen=True)
class CollectivePoint:
    """One collective benchmark on one machine, as a plan point.

    Content-keyable (machine config, benchmark parameters, tie-break),
    so :class:`~repro.parallel.SweepExecutor` pools and caches it like
    an application run.  :meth:`run` is
    :meth:`CollectiveBenchmark.run_auto`; it records the bulk engine's
    ``fixpoint_reps`` and ``tie_breaks`` in the result's ``meta``, so
    they survive the pool and the cache.
    """

    machine: _t.Any
    bench: CollectiveBenchmark
    tie_break: str = "strict"

    def run(self) -> CollectiveBenchResult:
        stats = {"fixpoint_reps": 0, "tie_breaks": 0}
        result = self.bench.run_auto(self.machine, tie_break=self.tie_break,
                                     stats_out=stats)
        return replace(result, meta=stats)
