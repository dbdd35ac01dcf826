"""E3 — Collective latency vs machine size under fixed-net noise.

The amplification figure for the machine's most noise-sensitive
operation: 8-byte allreduce latency as node count grows, for the same
2.5 % net injected noise delivered at three granularities.

Expected shape: quiet latency grows ~log P; the coarse 10 Hz pattern's
mean (and especially p99) latency diverges from quiet dramatically as P
grows, with a strict granularity ordering (10 Hz > 100 Hz > 1000 Hz).
Note that a *bare* collective benchmark amplifies even fine noise (a
25 µs event dwarfs an 18 µs allreduce), which is exactly why collective
microbenchmarks overstate noise impact relative to applications that
also compute — compare E4.
"""

from __future__ import annotations

from ...core import MachineConfig
from ...microbench import CollectiveBenchmark, CollectivePoint
from ...noise import CANONICAL_SWEEP, InjectionPlan
from ...parallel import ComparisonPlan, plan_points
from ..base import ExperimentReport, Scale

EXPERIMENT_ID = "E3"
TITLE = "Allreduce latency vs node count per noise granularity"
SEED = 31

_PATTERNS = ("quiet", *CANONICAL_SWEEP)
#: scale -> (node counts, repetitions per point).
_SIZES = {"small": ([4, 16, 64], 40),
          "full": ([4, 16, 64, 128, 256, 1024, 4096], 100)}


def plan(scale: Scale, seed: int) -> ComparisonPlan:
    node_counts, reps = _SIZES[scale]
    # The bulk-rank fast path (repro.sim.bulk) carries every qualifying
    # point; strict ties fall back to the event path, and beyond the
    # generator's practical range round-order tie resolution keeps the
    # noisy points on the fast path (each resolved tie deviates at most
    # one NIC gap from the DES).
    return plan_points({
        (p, pattern): CollectivePoint(
            MachineConfig(n_nodes=p, kernel="lightweight", seed=seed,
                          injection=(None if pattern == "quiet" else
                                     InjectionPlan(pattern, seed=seed))),
            CollectiveBenchmark("allreduce", repetitions=reps,
                                gap_ns=500_000),
            tie_break="deterministic" if p >= 1024 else "strict")
        for p in node_counts for pattern in _PATTERNS})


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    node_counts, reps = _SIZES[scale]
    headers = ["nodes", "pattern", "mean us", "p99 us", "mean/quiet"]
    rows = []
    mean_ratio: dict[tuple[int, str], float] = {}
    for p in node_counts:
        quiet_mean = results[(p, "quiet")].mean_ns
        for pattern in _PATTERNS:
            res = results[(p, pattern)]
            ratio = res.mean_ns / quiet_mean
            mean_ratio[(p, pattern)] = ratio
            rows.append([p, pattern, round(res.mean_ns / 1e3, 2),
                         round(res.p99_ns / 1e3, 2), round(ratio, 3)])

    p_hi = node_counts[-1]
    p_lo = node_counts[0]
    coarse, mid, fine = CANONICAL_SWEEP
    checks = {
        "coarse noise amplifies with scale":
            mean_ratio[(p_hi, coarse)] > mean_ratio[(p_lo, coarse)],
        "coarse hurts more than fine at scale":
            mean_ratio[(p_hi, coarse)] > 2 * mean_ratio[(p_hi, fine)],
        "granularity ordering at scale (10Hz >= 100Hz >= ~1000Hz)":
            mean_ratio[(p_hi, coarse)] >= mean_ratio[(p_hi, mid)]
            >= 0.8 * mean_ratio[(p_hi, fine)],
        "fine noise amplification bounded":
            mean_ratio[(p_hi, fine)] < 6.0,
    }
    findings = {
        "amplification_at_max_scale":
            {pat: round(mean_ratio[(p_hi, pat)], 2)
             for pat in CANONICAL_SWEEP},
    }
    notes = f"8-byte recursive-doubling allreduce, {reps} reps per point"
    if node_counts[-1] >= 1024:
        notes += ("; points at >=1024 nodes use the bulk-rank fast "
                  "path with round-order tie resolution")
    return ExperimentReport(EXPERIMENT_ID, TITLE, headers, rows,
                            checks=checks, findings=findings, notes=notes)
