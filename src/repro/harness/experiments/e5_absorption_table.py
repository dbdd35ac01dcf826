"""E5 — The absorption/amplification table.

At a fixed machine size, cross every application with every noise
pattern (plus a Poisson variant and a burst variant at the same net
utilization) and classify each cell: *absorbed* (slowdown well under
the injected share), *transferred* (≈ the injected share), or
*amplified* (a multiple of it).

Expected shape: the verdict depends far more on the (app, granularity)
pair than on the net percentage — the table's whole point.
"""

from __future__ import annotations

from ...core import ExperimentConfig
from ...parallel import ComparisonPlan, plan_comparisons
from ..base import ExperimentReport, Scale

EXPERIMENT_ID = "E5"
TITLE = "Absorption vs amplification per (application, pattern)"
SEED = 53

_PATTERNS = ["2.5pct@10Hz", "2.5pct@100Hz", "2.5pct@1000Hz",
             "2.5pct@100HzPoisson", "2.5pct@10Hzburst8"]

_APP_PARAMS = {
    "pop": dict(baroclinic_ns=5_000_000, solver_iterations=40,
                solver_compute_ns=10_000, iterations=4),
    "stencil": dict(work_ns=20_000_000, halo_bytes=8192, iterations=12,
                    dt_interval=6),
    "cg": dict(spmv_ns=5_000_000, exchange_bytes=8192, iterations=12),
    "sweep": dict(block_work_ns=500_000, blocks_per_rank=6, iterations=4),
}
_NODES = {"small": 16, "full": 64}


def plan(scale: Scale, seed: int) -> ComparisonPlan:
    return plan_comparisons({
        (app, pattern): ExperimentConfig(
            app=app, nodes=_NODES[scale], noise_pattern=pattern, seed=seed,
            kernel="lightweight", app_params=params)
        for app, params in _APP_PARAMS.items() for pattern in _PATTERNS})


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    headers = ["app", "pattern", "injected %", "slowdown %",
               "amplification", "verdict"]
    rows = []
    verdicts: dict[tuple[str, str], str] = {}
    amps: dict[tuple[str, str], float] = {}
    for app in _APP_PARAMS:
        for pattern in _PATTERNS:
            sd = results[(app, pattern)].slowdown
            verdicts[(app, pattern)] = sd.verdict
            amps[(app, pattern)] = sd.amplification
            rows.append([app, pattern,
                         round(100 * sd.injected_utilization, 2),
                         round(sd.slowdown_percent, 2),
                         round(sd.amplification, 2), sd.verdict])

    checks = {
        "pop amplifies coarse noise":
            verdicts[("pop", "2.5pct@10Hz")] == "amplified",
        "stencil does not amplify fine noise":
            verdicts[("stencil", "2.5pct@1000Hz")] in ("absorbed",
                                                       "transferred"),
        "every app: coarse amplification > fine amplification":
            all(amps[(a, "2.5pct@10Hz")] > amps[(a, "2.5pct@1000Hz")]
                for a in _APP_PARAMS),
        "Poisson ~ periodic at same rate (within 3x)":
            all(amps[(a, "2.5pct@100HzPoisson")]
                < 3 * max(amps[(a, "2.5pct@100Hz")], 1.0)
                for a in _APP_PARAMS),
        "bursty 10Hz behaves like coarse noise (amplified for pop)":
            amps[("pop", "2.5pct@10Hzburst8")] > 2.0,
        "same net % spans absorbed..amplified across the table":
            any(v == "amplified" for v in verdicts.values())
            and any(v in ("absorbed", "transferred")
                    for v in verdicts.values()),
    }
    findings = {"amplification_matrix":
                {f"{a}/{p}": round(amps[(a, p)], 2)
                 for a in _APP_PARAMS for p in _PATTERNS}}
    return ExperimentReport(EXPERIMENT_ID, TITLE, headers, rows,
                            checks=checks, findings=findings,
                            notes=f"P={_NODES[scale]}, random per-node phases")
