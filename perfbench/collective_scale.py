"""Workload ``collective_scale``: collective microbenchmarks from 128 to
16384 ranks, mirroring the grids of experiments E3 and E17.

One operation is one ``CollectiveBenchmark.run_auto`` call (one
simulation point).  Below 512 ranks ``run_auto`` takes the event-driven
path; above it the bulk engine, where the arrival fixpoint dominates.
Two cells (an alltoall and a Poisson pattern) are ones the bulk gate
rejects.  ``tie_break`` is passed as E3/E17 pass it: ``"deterministic"``
from 1024 ranks, ``"strict"`` below.  Each round ends with a repeat of
its last two cells: the workload's *warm* operations.

The seed draws the machine and noise-phase seed of every cell; sizes,
patterns and repetitions are fixed so every seed costs about the same.
"""

from __future__ import annotations

import random
import typing as _t

from common import digest

NAME = "collective_scale"
NOMINAL_S = 15.0
GAP_NS = 500_000
#: Cells at the end of each round that are run a second time (warm).
WARM_REPEATS = 2

FAT_TREE = {256: "32x4x2@fat-tree", 1024: "32x8x4@fat-tree",
            4096: "32x16x8@fat-tree", 16384: "32x32x16@fat-tree"}

#: (operation, algorithm, ranks, pattern, repetitions); the last two
#: cells of each round are repeated at its end.  Repetitions make every
#: cell cost about 0.9 s on the reference host, so latency percentiles do
#: not jump between cells of different cost from one run to the next.
#: 10 Hz noise stays on the event-driven cells: on the bulk engine a
#: 10 Hz cell's cost hangs on where its few noise events land, which the
#: seed decides (a two-level 4096-rank cell took 0.87-1.73 s over six
#: seeds).
ROUNDS: tuple[tuple[tuple[str, str | None, int, str, int], ...], ...] = (
    (("allreduce", "recursive-doubling", 1024, "2.5pct@1000Hz", 10),
     ("allreduce", "two-level", 4096, "2.5pct@1000Hz", 2),
     ("alltoall", None, 64, "quiet", 6),
     ("allreduce", "recursive-doubling", 128, "2.5pct@10Hz", 12)),
    (("barrier", None, 256, "2.5pct@1000Hz", 6),
     ("allreduce", "two-level", 256, "quiet", 8),
     ("allreduce", None, 128, "2.5pct@100Hzpoisson", 9),
     ("bcast", None, 16384, "quiet", 16)),
    (("bcast", None, 256, "2.5pct@10Hz", 10),
     ("allreduce", "two-level", 16384, "quiet", 6),
     ("barrier", None, 4096, "2.5pct@1000Hz", 2),
     ("allreduce", "recursive-doubling", 4096, "quiet", 50),
     ("allreduce", "two-level", 1024, "2.5pct@1000Hz", 14)),
)


def plan(seed: int, seconds: float) -> list[dict[str, _t.Any]]:
    """The operation specs of one run (pure data, no program import)."""
    rng = random.Random(f"{NAME}/{seed}")
    rounds = []
    for cells in ROUNDS:
        specs = []
        for op, algo, ranks, pattern, reps in cells:
            specs.append({
                "operation": op, "algorithm": algo, "nodes": ranks,
                "shape": FAT_TREE[ranks] if algo == "two-level" else None,
                "pattern": pattern, "repetitions": reps,
                "tie_break": "deterministic" if ranks >= 1024 else "strict",
                "seed": rng.randrange(1, 2**31)})
        rounds.append(specs + specs[-WARM_REPEATS:])
    n_rounds = max(1, round(len(ROUNDS) * seconds / NOMINAL_S))
    return [op for i in range(n_rounds) for op in rounds[i % len(rounds)]]


def imports() -> None:
    import repro.core  # noqa: F401
    import repro.microbench  # noqa: F401


def prepare(spec: dict[str, _t.Any]) -> tuple[_t.Any, _t.Any, str]:
    from repro.core import MachineConfig
    from repro.microbench import CollectiveBenchmark
    from repro.noise import InjectionPlan

    shape = spec["shape"]
    fabric = {"topology": f"hier:{shape}", "shape": shape} if shape else {}
    injection = (None if spec["pattern"] == "quiet"
                 else InjectionPlan(spec["pattern"], seed=spec["seed"]))
    config = MachineConfig(n_nodes=spec["nodes"], kernel="lightweight",
                           injection=injection, seed=spec["seed"], **fabric)
    bench = CollectiveBenchmark(spec["operation"],
                                repetitions=spec["repetitions"],
                                message_size=8, algorithm=spec["algorithm"],
                                gap_ns=GAP_NS)
    return config, bench, spec["tie_break"]


def execute(prepared: tuple[_t.Any, _t.Any, str], *, mode: str = "auto"
            ) -> tuple[int, str, dict[str, int]]:
    """Run one point: ``(points, output digest, counters)``."""
    config, bench, tie_break = prepared
    res = bench.run_auto(config, mode=mode, tie_break=tie_break)
    return 1, digest(res.times_ns.tolist()), {}


def cross_engine(prepared: tuple[_t.Any, _t.Any, str]) -> str | None:
    """Run a point on both engines when the bulk gate accepts it below
    512 ranks.  Returns ``None`` when not applicable, ``"refused"``
    when the bulk engine met an arrival tie it cannot order, else
    ``"agree"`` or ``"disagree"``."""
    from repro.mpi.collectives.bulk import unsupported_reason
    from repro.sim.bulk import BulkDivergence

    config, bench, _tie = prepared
    if config.n_nodes >= 512 or unsupported_reason(config, bench):
        return None
    generator = execute(prepared, mode="generator")[1]
    try:
        bulk = execute(prepared, mode="bulk")[1]
    except BulkDivergence:
        return "refused"
    return "agree" if bulk == generator else "disagree"
