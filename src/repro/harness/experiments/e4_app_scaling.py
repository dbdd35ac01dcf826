"""E4 — Application slowdown vs machine size per noise granularity.

The paper-style application figure: for three applications with very
different communication structures — the allreduce-storm ocean skeleton
(pop), the halo-exchange hydro skeleton (stencil), and the mixed CG
skeleton — measure slowdown against a quiet baseline as node count
grows, for the fixed-2.5 %-net granularity sweep.

Expected shape: pop is by far the most sensitive and its coarse-noise
slowdown grows with scale; stencil absorbs almost everything; coarse
noise hurts more than fine noise for every app.
"""

from __future__ import annotations

from ...core import ExperimentConfig
from ...noise import CANONICAL_SWEEP
from ...parallel import ComparisonPlan, plan_comparisons
from ..base import ExperimentReport, Scale

EXPERIMENT_ID = "E4"
TITLE = "Application slowdown vs node count per noise granularity"
SEED = 41

#: Per-app parameters sized so one run is seconds of wall clock.
_APP_PARAMS = {
    "pop": dict(baroclinic_ns=5_000_000, solver_iterations=40,
                solver_compute_ns=10_000, iterations=4),
    "stencil": dict(work_ns=20_000_000, halo_bytes=8192, iterations=12,
                    dt_interval=6),
    "cg": dict(spmv_ns=5_000_000, exchange_bytes=8192, iterations=12),
}
_NODES = {"small": [4, 16, 36], "full": [4, 16, 64, 121]}


def plan(scale: Scale, seed: int) -> ComparisonPlan:
    return plan_comparisons({
        (app, p, pattern): ExperimentConfig(
            app=app, nodes=p, noise_pattern=pattern, seed=seed,
            kernel="lightweight", app_params=params)
        for app, params in _APP_PARAMS.items()
        for p in _NODES[scale] for pattern in CANONICAL_SWEEP})


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    node_counts = _NODES[scale]
    patterns = list(CANONICAL_SWEEP)

    headers = ["app", "nodes", "pattern", "quiet ms", "noisy ms",
               "slowdown %", "amplification"]
    rows = []
    slow: dict[tuple[str, int, str], float] = {}
    for app in _APP_PARAMS:
        for p, pattern in sorted((p, pat) for p in node_counts
                                 for pat in patterns):
            cmp = results[(app, p, pattern)]
            sd = cmp.slowdown
            slow[(app, p, pattern)] = sd.slowdown_fraction
            rows.append([app, p, pattern,
                         round(cmp.quiet.makespan_ns / 1e6, 2),
                         round(cmp.noisy.makespan_ns / 1e6, 2),
                         round(sd.slowdown_percent, 2),
                         round(sd.amplification, 2)])

    p_hi = node_counts[-1]
    coarse, _mid, fine = CANONICAL_SWEEP
    checks = {
        "pop most sensitive to coarse noise at scale":
            slow[("pop", p_hi, coarse)]
            > max(slow[("stencil", p_hi, coarse)],
                  slow[("cg", p_hi, coarse)]),
        "stencil least sensitive to coarse noise at scale":
            slow[("stencil", p_hi, coarse)]
            <= min(slow[("pop", p_hi, coarse)],
                   slow[("cg", p_hi, coarse)]),
        "coarse > fine for pop at scale":
            slow[("pop", p_hi, coarse)] > slow[("pop", p_hi, fine)],
        "pop coarse slowdown grows with scale":
            slow[("pop", p_hi, coarse)] > slow[("pop", node_counts[0],
                                                coarse)],
        "pop coarse noise amplified (>2x injected)":
            slow[("pop", p_hi, coarse)] > 2 * 0.025,
        "stencil coarse slowdown < half of pop's":
            slow[("stencil", p_hi, coarse)]
            < 0.5 * slow[("pop", p_hi, coarse)],
        "stencil near-absorbs fine noise (<2x injected)":
            slow[("stencil", p_hi, fine)] < 2 * 0.025,
    }
    findings = {
        "slowdown_pct_at_max_scale": {
            app: {pat: round(100 * slow[(app, p_hi, pat)], 2)
                  for pat in patterns}
            for app in _APP_PARAMS},
    }
    return ExperimentReport(EXPERIMENT_ID, TITLE, headers, rows,
                            checks=checks, findings=findings,
                            notes="2.5% net injected noise, random per-node "
                                  "phases, lightweight kernel substrate")
