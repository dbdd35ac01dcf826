"""E6 — Attribution accuracy: does the observer explain app slowdown?

Run an observed application under a mix of kernel + injected noise and
score the observer three ways:

1. **accounting closure** — per interval, charged kernel time vs the
   simulator's ground truth (the observer should account for all of it);
2. **variance explanation** — correlation between interval duration and
   charged noise across intervals (slow iterations should be slow
   *because of* charged activity);
3. **slow-interval explanation** — every ≥1.5×-median interval should
   have a named thief, and the thief should be the big injected source.

This is the experiment that justifies trusting E2/E4's attributions.
"""

from __future__ import annotations

from ...analysis.correlation import score_attribution
from ...apps import BSPApp
from ...core import Machine, MachineConfig
from ...ktau import KtauTracer, attribute_intervals, explain_slow_intervals
from ...noise import InjectionPlan
from ..base import ExperimentReport, Scale, no_points

EXPERIMENT_ID = "E6"
TITLE = "Observer attribution vs ground truth"
SEED = 61
plan = no_points


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    iterations = 60 if scale == "small" else 400
    machine = Machine(MachineConfig(
        n_nodes=4, kernel="tuned-linux",
        injection=InjectionPlan("2.5pct@10Hz", seed=seed), seed=seed))
    tracer = KtauTracer(machine, level="trace", overhead="profile")
    app = BSPApp(work_ns=3_000_000, iterations=iterations,
                 collective="none").bind_tracer(tracer)
    machine.run_to_completion(machine.launch(app))

    headers = ["node", "intervals", "duration~charged r", "coverage",
               "mean abs err ns", "slow intervals", "thief==injected"]
    rows = []
    all_r, all_cov = [], []
    thief_ok_all = True
    for node in range(machine.n_nodes):
        atts = attribute_intervals(tracer, node, "bsp:iteration")
        durations = [a.duration_ns for a in atts]
        charged = [a.noise_ns for a in atts]
        # Ground truth: the simulator's own noise accounting (kernel +
        # injected, exclusive of syscalls — there are none here).
        truth = [machine.nodes[node].noise.stolen_between(
            a.interval.start, a.interval.end) for a in atts]
        score = score_attribution(durations, charged, truth)
        slow = explain_slow_intervals(atts, threshold=1.5)
        thieves_ok = all(s.thief == "2.5pct@10hz" for s in slow)
        thief_ok_all = thief_ok_all and thieves_ok
        all_r.append(score.duration_vs_charged)
        all_cov.append(score.coverage)
        rows.append([node, len(atts),
                     round(score.duration_vs_charged, 4),
                     round(score.coverage, 4),
                     round(score.mean_abs_error_ns, 1),
                     len(slow), thieves_ok])

    checks = {
        # Charged may exceed truth by the observer's own live marker
        # cost (a few tens of ns per interval) — require closure within
        # 0.01 % and sub-100 ns mean error.
        "charged time matches ground truth (within 0.01%)":
            max(abs(c - 1.0) for c in all_cov) < 1e-4
            and max(float(r[4]) for r in rows) < 100,
        "duration variance explained (r > 0.95)":
            min(all_r) > 0.95,
        "every slow interval's thief is the injected source":
            thief_ok_all,
        "slow intervals exist to explain":
            any(row[5] > 0 for row in rows),
    }
    findings = {
        "min_r": round(min(all_r), 4),
        "coverage": [round(c, 6) for c in all_cov],
    }
    return ExperimentReport(
        EXPERIMENT_ID, TITLE, headers, rows, checks=checks,
        findings=findings,
        notes="BSP (no collective) so per-node intervals isolate per-node "
              "noise; tuned-linux kernel + 2.5pct@10Hz injected")
