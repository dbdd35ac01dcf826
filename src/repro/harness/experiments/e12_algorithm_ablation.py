"""E12 — Ablation: collective algorithm choice under noise.

DESIGN.md calls out that collectives are real algorithms precisely so
their dependency structures can be compared under identical noise.
Run the BSP workload with each registered allreduce algorithm, quiet
and under coarse noise, at a fixed machine size.

Expected shape: quiet, recursive doubling wins for small messages
(log P rounds vs 2·log P for reduce+bcast and 2(P−1) for ring); under
coarse noise every algorithm amplifies, and the ring's long dependency
chain makes it the most fragile in absolute time.
"""

from __future__ import annotations

from ...core import ExperimentConfig
from ...parallel import ComparisonPlan, plan_comparisons
from ..base import ExperimentReport, Scale

EXPERIMENT_ID = "E12"
TITLE = "Allreduce algorithm ablation under identical noise"
SEED = 127

_ALGORITHMS = ("recursive-doubling", "reduce-bcast", "ring")
_PATTERN = "2.5pct@10Hz"
_NODES = {"small": 32, "full": 64}


def plan(scale: Scale, seed: int) -> ComparisonPlan:
    return plan_comparisons({
        alg: ExperimentConfig(
            app="bsp", nodes=_NODES[scale], noise_pattern=_PATTERN,
            seed=seed, app_params=dict(work_ns=1_000_000, iterations=30,
                                       algorithm=alg))
        for alg in _ALGORITHMS})


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    headers = ["algorithm", "quiet ms", "noisy ms", "slowdown %"]
    rows = []
    quiet_span: dict[str, int] = {}
    noisy_span: dict[str, int] = {}
    for alg in _ALGORITHMS:
        cmp = results[alg]
        quiet_span[alg] = cmp.quiet.makespan_ns
        noisy_span[alg] = cmp.noisy.makespan_ns
        rows.append([alg, round(cmp.quiet.makespan_ns / 1e6, 3),
                     round(cmp.noisy.makespan_ns / 1e6, 3),
                     round(cmp.slowdown.slowdown_percent, 2)])

    checks = {
        "recursive doubling fastest quiet (small messages)":
            quiet_span["recursive-doubling"] == min(quiet_span.values()),
        "ring slowest quiet (2(P-1) rounds)":
            quiet_span["ring"] == max(quiet_span.values()),
        "every algorithm amplifies coarse noise":
            all(noisy_span[a] > quiet_span[a] * 1.05 for a in _ALGORITHMS),
        "ring worst absolute time under noise":
            noisy_span["ring"] == max(noisy_span.values()),
    }
    findings = {
        "quiet_ms": {a: round(v / 1e6, 3) for a, v in quiet_span.items()},
        "noisy_ms": {a: round(v / 1e6, 3) for a, v in noisy_span.items()},
    }
    return ExperimentReport(EXPERIMENT_ID, TITLE, headers, rows,
                            checks=checks, findings=findings,
                            notes=f"BSP 8-byte allreduce, P={_NODES[scale]}, "
                                  f"pattern={_PATTERN}")
