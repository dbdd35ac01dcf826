"""E17 — Noise amplification at extreme scale (1k–131k ranks).

Extends the E3/E4 amplification and absorption curves far past the
per-rank generator's practical range using the bulk-rank fast path
(:mod:`repro.sim.bulk`) over hierarchical fat-tree machine shapes,
comparing the flat recursive-doubling allreduce against the
topology-aware two-level algorithm (intra-node fan-in → leader
recursive doubling → intra-node bcast).

Expected shape: the quiet baseline grows ~log P for both algorithms
(flat wins slightly on pure round count); injected noise is what
separates scales — fine 1000 Hz noise stays a small constant factor
while coarse 10 Hz noise is amplified by two orders of magnitude, and
the gap widens with P.  At 131072 ranks the flat algorithm's noisy
arrival cascade no longer settles outside the event path (every rank
talks to every distance class), so the hierarchy is also what keeps
the *model itself* tractable at 100k ranks: only the two-level
algorithm is carried to the top scale.
"""

from __future__ import annotations

from ...core import MachineConfig
from ...microbench import CollectiveBenchmark, CollectivePoint
from ...noise import InjectionPlan
from ...parallel import ComparisonPlan, plan_points
from ..base import ExperimentReport, Scale

EXPERIMENT_ID = "E17"
TITLE = "Extreme-scale allreduce amplification, flat vs two-level"
SEED = 31

#: (nodes, fat-tree shape, reps per quiet point).
_FULL_POINTS = (
    (1024, "32x8x4@fat-tree", 40),
    (16384, "32x32x16@fat-tree", 20),
    (131072, "32x64x64@fat-tree", 6),
)
_SMALL_POINTS = (
    (256, "32x4x2@fat-tree", 10),
    (1024, "32x8x4@fat-tree", 10),
)
_PATTERNS = ("quiet", "2.5pct@1000Hz", "2.5pct@10Hz")
#: Flat recursive doubling diverges from every slot-table prediction
#: at this scale under noise (and costs minutes per repetition), so
#: the flat column stops below it.
_FLAT_LIMIT = 16384


def _reps_for(pattern: str, nodes: int, reps: int) -> int:
    # The 131k noisy cells are the expensive ones (~10 s per
    # repetition through the arrival fixpoint); trim them so the whole
    # 100k-rank portion stays inside the CI budget.
    if nodes >= 100_000 and pattern != "quiet":
        return min(reps, 3)
    return reps


_ALGORITHMS = ("recursive-doubling", "two-level")


def plan(scale: Scale, seed: int) -> ComparisonPlan:
    points = {}
    for nodes, shape, reps in (_SMALL_POINTS if scale == "small"
                               else _FULL_POINTS):
        for algo in _ALGORITHMS:
            if algo == "recursive-doubling" and nodes > _FLAT_LIMIT:
                continue
            for pattern in _PATTERNS:
                injection = (None if pattern == "quiet"
                             else InjectionPlan(pattern, seed=seed))
                points[(nodes, algo, pattern)] = CollectivePoint(
                    MachineConfig(n_nodes=nodes, kernel="lightweight",
                                  network="seastar", topology=f"hier:{shape}",
                                  shape=shape, injection=injection, seed=seed),
                    CollectiveBenchmark(
                        "allreduce", repetitions=_reps_for(pattern, nodes,
                                                           reps),
                        message_size=8, algorithm=algo, gap_ns=500_000),
                    tie_break="deterministic")
    return plan_points(points)


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    points = _SMALL_POINTS if scale == "small" else _FULL_POINTS
    headers = ["nodes", "algorithm", "pattern", "mean us", "p99 us",
               "mean/quiet"]
    rows = []
    mean_ratio: dict[tuple[int, str, str], float] = {}
    quiet_mean: dict[tuple[int, str], float] = {}
    fixpoint_reps = tie_breaks = 0
    # Cells come in plan order: each (nodes, algorithm) quiet first.
    for (nodes, algo, pattern), res in results.items():
        fixpoint_reps += res.meta["fixpoint_reps"]
        tie_breaks += res.meta["tie_breaks"]
        if pattern == "quiet":
            quiet_mean[(nodes, algo)] = res.mean_ns
        ratio = res.mean_ns / quiet_mean[(nodes, algo)]
        mean_ratio[(nodes, algo, pattern)] = ratio
        rows.append([nodes, algo, pattern,
                     round(res.mean_ns / 1e3, 2),
                     round(res.p99_ns / 1e3, 2), round(ratio, 3)])

    p_lo = points[0][0]
    p_hi = points[-1][0]
    fine, coarse = _PATTERNS[1], _PATTERNS[2]
    checks = {
        "fine-noise amplification grows with scale (two-level)":
            mean_ratio[(p_hi, "two-level", fine)]
            > mean_ratio[(p_lo, "two-level", fine)],
        "coarse noise amplified >=10x more than fine at top scale":
            mean_ratio[(p_hi, "two-level", coarse)]
            > 10 * mean_ratio[(p_hi, "two-level", fine)],
        "coarse-noise amplification exceeds 50x at top scale":
            mean_ratio[(p_hi, "two-level", coarse)] > 50,
        "quiet two-level within 2x of flat recursive doubling":
            all(quiet_mean[(n, "two-level")] < 2 * quiet_mean[(n, "recursive-doubling")]
                for n, _s, _r in points if n <= _FLAT_LIMIT),
    }
    findings = {
        "two_level_amplification_at_top_scale": {
            pat: round(mean_ratio[(p_hi, "two-level", pat)], 2)
            for pat in _PATTERNS[1:]},
        "top_scale_nodes": p_hi,
    }
    notes = ("8-byte allreduce over hierarchical fat-tree shapes via the "
             "bulk-rank fast path with round-order tie resolution; flat "
             f"recursive doubling stops at {_FLAT_LIMIT} nodes (noisy "
             "arrival cascades only settle on the event path beyond it)")
    if fixpoint_reps or tie_breaks:
        notes += (f"; {fixpoint_reps} repetitions needed the arrival "
                  f"fixpoint, {tie_breaks} ties resolved")
    return ExperimentReport(EXPERIMENT_ID, TITLE, headers, rows,
                            checks=checks, findings=findings, notes=notes)
