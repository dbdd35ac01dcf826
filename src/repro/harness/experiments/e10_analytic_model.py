"""E10 — Analytic absorption model vs discrete-event simulation.

Validates the semi-analytic order-statistics model
(:class:`repro.analysis.BSPModel`) against the simulator on the BSP
workload it describes, then uses the validated model to extrapolate the
amplification curves to machine sizes Python cannot simulate
(P up to 65 536).

Expected shape: model and simulation agree on ordering and rough
magnitude at every simulated size; extrapolation shows the coarse-noise
curve saturating at slowdown ≈ event_duration / iteration_time while
the fine-noise curve stays flat near the injected share.
"""

from __future__ import annotations

from ...analysis.absorption import BSPModel
from ...core import ExperimentConfig
from ...noise import parse_pattern
from ...parallel import ComparisonPlan, plan_comparisons
from ...sim.timebase import MICROSECOND, MILLISECOND
from ..base import ExperimentReport, Scale

EXPERIMENT_ID = "E10"
TITLE = "Analytic model vs simulation; large-P extrapolation"
SEED = 103

_WORK = 1 * MILLISECOND
#: Critical-path cost of one collective round on the seastar preset
#: (2 o + L + NIC descriptor post, small message).
_ROUND = 2 * 500 + 2 * MICROSECOND + 1000
_PATTERNS = ["2.5pct@10Hz", "2.5pct@1000Hz"]
_SIM_NODES = {"small": [4, 16, 64], "full": [4, 16, 64, 256]}


def plan(scale: Scale, seed: int) -> ComparisonPlan:
    return plan_comparisons({
        (p, pattern): ExperimentConfig(
            app="bsp", nodes=p, noise_pattern=pattern, seed=seed,
            kernel="lightweight",
            app_params=dict(work_ns=_WORK, iterations=60))
        for p in _SIM_NODES[scale] for pattern in _PATTERNS})


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    sim_nodes = _SIM_NODES[scale]
    extrapolate = [256, 4096, 65536]
    patterns = _PATTERNS
    model = BSPModel(work_ns=_WORK, round_cost_ns=_ROUND)

    headers = ["nodes", "pattern", "sim slowdown %", "model slowdown %",
               "model/sim"]
    rows = []
    agreement: list[float] = []
    sim_slow: dict[tuple[int, str], float] = {}
    for p in sim_nodes:
        for pattern in patterns:
            src = parse_pattern(pattern)
            sim = results[(p, pattern)].slowdown.slowdown_fraction
            pred = model.predict(p, src.period, src.duration)
            sim_slow[(p, pattern)] = sim
            ratio = (pred.slowdown_fraction / sim) if sim > 0 else float("nan")
            agreement.append(ratio)
            rows.append([p, pattern, round(100 * sim, 2),
                         round(100 * pred.slowdown_fraction, 2),
                         round(ratio, 2)])

    # Extrapolation rows (model only).
    for p in extrapolate:
        for pattern in patterns:
            src = parse_pattern(pattern)
            pred = model.predict(p, src.period, src.duration)
            rows.append([p, pattern, None,
                         round(100 * pred.slowdown_fraction, 2), None])

    coarse_src = parse_pattern(patterns[0])
    fine_src = parse_pattern(patterns[1])
    big_coarse = model.predict(65536, coarse_src.period, coarse_src.duration)
    big_fine = model.predict(65536, fine_src.period, fine_src.duration)

    finite = [r for r in agreement if r == r]
    checks = {
        "model within 3x of simulation everywhere":
            all(1 / 3 < r < 3 for r in finite),
        "model reproduces granularity ordering at P=64":
            (model.predict(64, coarse_src.period,
                           coarse_src.duration).slowdown_fraction
             > model.predict(64, fine_src.period,
                             fine_src.duration).slowdown_fraction)
            == (sim_slow[(64, patterns[0])] > sim_slow[(64, patterns[1])]),
        "extrapolated coarse curve saturates near D/T":
            0.5 < big_coarse.slowdown_fraction / (
                coarse_src.duration / model.quiet_iteration(65536)) < 1.5,
        "extrapolated fine curve stays near injected share":
            big_fine.slowdown_fraction < 4 * 0.025,
    }
    findings = {
        "model_over_sim_ratios": [round(r, 2) for r in finite],
        "extrapolated_slowdown_pct_P65536": {
            patterns[0]: round(100 * big_coarse.slowdown_fraction, 1),
            patterns[1]: round(100 * big_fine.slowdown_fraction, 1)},
    }
    return ExperimentReport(EXPERIMENT_ID, TITLE, headers, rows,
                            checks=checks, findings=findings,
                            notes="BSP allreduce, 1 ms grain; model rounds "
                                  "= ceil(log2 P) x (2o+L+tx)")
