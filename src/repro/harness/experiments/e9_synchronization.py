"""E9 — Cross-node noise alignment: co-scheduling the ghost.

The same 2.5 % @ 10 Hz pattern is injected three ways: with every node
struck simultaneously (idealized gang-scheduled kernel work), with
independent random phases (reality on unsynchronized kernels), and
deliberately staggered so some node is always down (adversarial).

Expected shape: synchronized noise costs ≈ the injected share (nodes
lose the same instants, collectives don't wait extra); random phases
amplify; staggering is at least as bad as random.  This is the
experiment behind the era's co-scheduled-daemons folklore.
"""

from __future__ import annotations

from ...core import ExperimentConfig
from ...parallel import ComparisonPlan, plan_comparisons
from ..base import ExperimentReport, Scale

EXPERIMENT_ID = "E9"
TITLE = "Synchronized vs unsynchronized noise across nodes"
SEED = 97

_ALIGNMENTS = ("synchronized", "random", "staggered")
_NODES = {"small": 32, "full": 128}


def plan(scale: Scale, seed: int) -> ComparisonPlan:
    return plan_comparisons({
        alignment: ExperimentConfig(
            app="bsp", nodes=_NODES[scale], noise_pattern="2.5pct@10Hz",
            alignment=alignment, seed=seed, kernel="lightweight",
            app_params=dict(work_ns=2_000_000, iterations=40,
                            collective="allreduce"))
        for alignment in _ALIGNMENTS})


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    headers = ["alignment", "quiet ms", "noisy ms", "slowdown %",
               "amplification"]
    rows = []
    slow: dict[str, float] = {}
    for alignment in _ALIGNMENTS:
        cmp = results[alignment]
        sd = cmp.slowdown
        slow[alignment] = sd.slowdown_fraction
        rows.append([alignment, round(cmp.quiet.makespan_ns / 1e6, 2),
                     round(cmp.noisy.makespan_ns / 1e6, 2),
                     round(sd.slowdown_percent, 2),
                     round(sd.amplification, 2)])

    checks = {
        "synchronized noise ~ absorbed (amp < 2)":
            slow["synchronized"] < 2 * 0.025,
        "random phases amplify (amp > 3)":
            slow["random"] > 3 * 0.025,
        "synchronized beats random by > 2x":
            slow["random"] > 2 * slow["synchronized"],
        "staggered at least as bad as synchronized":
            slow["staggered"] >= slow["synchronized"],
    }
    findings = {"slowdown_pct": {a: round(100 * s, 2)
                                 for a, s in slow.items()}}
    return ExperimentReport(EXPERIMENT_ID, TITLE, headers, rows,
                            checks=checks, findings=findings,
                            notes=f"BSP allreduce, P={_NODES[scale]}, 2.5pct@10Hz")
