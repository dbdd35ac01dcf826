"""E11 — Mitigation ablation: core specialization.

The era's practical fix for kernel noise: dedicate a spare core to the
kernel (interrupts, daemons, packet processing) and leave the
application core clean.  Compare three machines running the POP-like
workload: a lightweight kernel (the ideal), a commodity kernel sharing
the application core (the problem), and the same commodity kernel with
core specialization (the mitigation).

Expected shape: the shared commodity kernel is measurably slower than
lightweight; specialization recovers most of that gap (not all — the
spare core cannot hide *injected* app-core interference, and packet
processing still adds delivery latency).
"""

from __future__ import annotations

from ...core import ExperimentConfig
from ...kernel import KernelConfig, NICCostModel
from ...parallel import ComparisonPlan, plan_points
from ..base import ExperimentReport, Scale

EXPERIMENT_ID = "E11"
TITLE = "Core-specialization mitigation (kernel off the app core)"
SEED = 113

#: The achievable floor for a host-driven NIC: identical hardware and
#: NIC cost model, but zero kernel background activity.  The
#: lightweight ideal additionally enjoys an offloaded NIC, which no
#: scheduling mitigation can emulate.
_SILENT_COMMODITY = KernelConfig(
    name="commodity-silent", hz=0, tick_cost_ns=0, tick_heavy_cost_ns=0,
    tick_heavy_probability=0.0, daemons=(), syscall_ns=1000,
    nic=NICCostModel())

#: configuration -> (kernel, core specialization).
_MACHINES = {
    "lightweight ideal (offloaded NIC)": ("lightweight", False),
    "commodity floor (silent kernel)": (_SILENT_COMMODITY, False),
    "commodity shared core": ("commodity-linux", False),
    "commodity + specialization": ("commodity-linux", True),
}
_NODES = {"small": 32, "full": 128}


def plan(scale: Scale, seed: int) -> ComparisonPlan:
    return plan_points({
        name: ExperimentConfig(
            app="pop", nodes=_NODES[scale], kernel=kernel, seed=seed,
            isolate_noise=isolate,
            app_params=dict(baroclinic_ns=5_000_000, solver_iterations=30,
                            solver_compute_ns=20_000, iterations=4))
        for name, (kernel, isolate) in _MACHINES.items()})


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    spans = {name: results[name].makespan_ns for name in _MACHINES}
    ideal = spans["lightweight ideal (offloaded NIC)"]
    floor = spans["commodity floor (silent kernel)"]
    shared = spans["commodity shared core"]
    isolated = spans["commodity + specialization"]

    headers = ["configuration", "makespan ms", "vs ideal %"]
    rows = [[name, round(span / 1e6, 3),
             round(100 * (span / ideal - 1), 3)]
            for name, span in spans.items()]

    gap_kernel = shared - floor          # the part mitigation can address
    gap_after = max(0, isolated - floor)
    recovered = (1 - gap_after / gap_kernel) if gap_kernel > 0 else 0.0
    checks = {
        "shared commodity kernel slower than lightweight":
            shared > ideal * 1.001,
        "specialization helps": isolated < shared,
        "specialization recovers most of the kernel-noise gap (>60%)":
            recovered > 0.60,
        "specialization cannot beat the silent-kernel floor":
            isolated >= floor * 0.999,
        "NIC latency gap remains (floor above offloaded ideal)":
            floor > ideal,
    }
    findings = {
        "noise_cost_shared_pct": round(100 * (shared / ideal - 1), 3),
        "noise_cost_isolated_pct": round(100 * (isolated / ideal - 1), 3),
        "kernel_gap_recovered_pct": round(100 * recovered, 1),
        "nic_latency_gap_pct": round(100 * (floor / ideal - 1), 3),
    }
    return ExperimentReport(EXPERIMENT_ID, TITLE, headers, rows,
                            checks=checks, findings=findings,
                            notes=f"POP-like, P={_NODES[scale]}; specialization "
                                  "moves kernel activity + NIC rx to a "
                                  "spare core")
