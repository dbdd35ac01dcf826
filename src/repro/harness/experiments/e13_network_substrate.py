"""E13 — Interconnect substrate vs noise cost.

A question the paper's era debated: does a slower network "hide" kernel
noise (the event is a smaller fraction of an already-slow iteration)?
The answer this experiment demonstrates is *no* for host-driven
fabrics: a slower commodity network means larger per-message CPU
overhead (LogGP ``o``) and longer collectives, i.e. **more exposure**
— more CPU on the messaging path for the kernel to steal and longer
dependency chains for a single strike to stall.  The offload-class
fabric (seastar) suffers least in both relative and absolute terms;
absolute added time *grows* toward the host-driven gigabit stack.

This is the double penalty commodity clusters paid: noisy kernels and
noise-exposed networking, compounding.
"""

from __future__ import annotations

from ...core import ExperimentConfig
from ...parallel import ComparisonPlan, plan_comparisons
from ..base import ExperimentReport, Scale

EXPERIMENT_ID = "E13"
TITLE = "Noise amplification vs interconnect speed"
SEED = 131

_NETWORKS = ("seastar", "infiniband", "gige")
_NODES = {"small": 16, "full": 64}


def plan(scale: Scale, seed: int) -> ComparisonPlan:
    return plan_comparisons({
        net: ExperimentConfig(
            app="pop", nodes=_NODES[scale], noise_pattern="2.5pct@10Hz",
            network=net, seed=seed, kernel="lightweight",
            app_params=dict(baroclinic_ns=2_000_000, solver_iterations=30,
                            solver_compute_ns=10_000, iterations=4))
        for net in _NETWORKS})


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    headers = ["network", "quiet ms", "noisy ms", "slowdown %",
               "added ms"]
    rows = []
    rel: dict[str, float] = {}
    added: dict[str, float] = {}
    for net in _NETWORKS:
        cmp = results[net]
        rel[net] = cmp.slowdown.slowdown_fraction
        added[net] = (cmp.noisy.makespan_ns - cmp.quiet.makespan_ns) / 1e6
        rows.append([net, round(cmp.quiet.makespan_ns / 1e6, 2),
                     round(cmp.noisy.makespan_ns / 1e6, 2),
                     round(cmp.slowdown.slowdown_percent, 2),
                     round(added[net], 2)])

    checks = {
        "offload-class fabric suffers least (relative)":
            rel["seastar"] == min(rel.values()),
        "offload-class fabric suffers least (absolute)":
            added["seastar"] == min(added.values()),
        "absolute noise cost grows toward host-driven fabrics":
            added["seastar"] < added["infiniband"] < added["gige"],
        "noise hurts on every fabric":
            all(v > 0 for v in rel.values()),
    }
    findings = {
        "relative_slowdown_pct": {n: round(100 * v, 2)
                                  for n, v in rel.items()},
        "absolute_added_ms": {n: round(v, 2) for n, v in added.items()},
    }
    return ExperimentReport(EXPERIMENT_ID, TITLE, headers, rows,
                            checks=checks, findings=findings,
                            notes=f"POP-like, P={_NODES[scale]}, 2.5pct@10Hz, "
                                  "random phases")
