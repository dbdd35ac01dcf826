"""E14 — Indirect measurement vs direct observation (the thesis).

The study's core methodological argument, as one experiment:

1. **Indirect, naive** — run FTQ on a node of the noisy machine.  It
   measures the stolen CPU share faithfully (≈ the injected 2.5 %), and
   the naive reading — "we lose 2.5 % of CPU, so the application loses
   2.5 %" — is what capacity planning did before the noise literature.
2. **Indirect, model-informed** — capture per-event structure with the
   selfish benchmark, feed (period, duration) into the analytic
   order-statistics model: granularity-aware prediction.
3. **Direct** — run the application under the observer: the measured
   slowdown, with the per-iteration attribution that *names* the cause.

Expected shape: FTQ gets the utilization right; the naive prediction
underestimates the application's measured slowdown several-fold; the
model-informed prediction lands within a small factor; direct
observation both measures the real slowdown and attributes it to the
injected source.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ...analysis.absorption import BSPModel
from ...core import ExperimentConfig, Machine, MachineConfig, run_experiment
from ...ktau import attribute_intervals
from ...microbench import FTQBenchmark, SelfishBenchmark
from ...noise import InjectionPlan
from ...parallel import ComparisonPlan, plan_comparisons
from ...sim import MICROSECOND, MILLISECOND, SECOND
from ..base import ExperimentReport, Scale

EXPERIMENT_ID = "E14"
TITLE = "Indirect inference vs direct observation of noise impact"
SEED = 149

_PATTERN = "2.5pct@10Hz"
_WORK = 1 * MILLISECOND
_ROUND = 2 * 500 + 2 * MICROSECOND + 1000  # seastar critical-path round


def _direct(scale: Scale, seed: int) -> ExperimentConfig:
    """The noisy BSP run measured (and observed) directly."""
    return ExperimentConfig(
        app="bsp", nodes=32 if scale == "small" else 128,
        noise_pattern=_PATTERN, seed=seed,
        app_params=dict(work_ns=_WORK,
                        iterations=60 if scale == "small" else 200))


def plan(scale: Scale, seed: int) -> ComparisonPlan:
    return plan_comparisons({"direct": _direct(scale, seed)})


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    direct = _direct(scale, seed)
    nodes = direct.nodes

    # --- 1. Indirect: FTQ on one node of the noisy machine. -------------
    probe = Machine(MachineConfig(
        n_nodes=1, kernel="lightweight",
        injection=InjectionPlan(_PATTERN, seed=seed), seed=seed))
    ftq = FTQBenchmark(n_quanta=4096).run(probe.nodes[0], start_time=0)
    naive_prediction = ftq.noise_fraction  # "you lose what is stolen"

    # --- 2. Indirect + structure: selfish capture feeds the model. -------
    selfish = SelfishBenchmark(window_ns=2 * SECOND).run(probe.nodes[0],
                                                         start_time=0)
    if selfish.count >= 2:
        period_est = int(np.median(selfish.inter_arrival_ns()))
        duration_est = int(np.median(selfish.durations_ns()))
    else:  # pragma: no cover - pattern guarantees events
        period_est, duration_est = 100 * MILLISECOND, 2500 * MICROSECOND
    model = BSPModel(work_ns=_WORK, round_cost_ns=_ROUND)
    model_prediction = model.predict(nodes, period_est,
                                     duration_est).slowdown_fraction

    # --- 3. Direct: measured slowdown + attribution. ----------------------
    # The traced run stays here: its tracer cannot cross a process.
    measured = results["direct"].slowdown.slowdown_fraction
    _result, tracer = run_experiment(replace(direct, observer="trace"),
                                     return_tracer=True)
    atts = attribute_intervals(tracer, 0, "bsp:iteration")
    injected_name = _PATTERN.lower()
    charged = sum(a.stolen_by_source.get(injected_name, 0) for a in atts)
    total_noise = sum(a.noise_ns for a in atts)
    attribution_share = charged / total_noise if total_noise else 0.0

    headers = ["method", "predicted/measured slowdown %", "notes"]
    rows = [
        ["FTQ utilization (naive indirect)",
         round(100 * naive_prediction, 2), "stolen share == app cost?"],
        ["selfish capture + analytic model",
         round(100 * model_prediction, 2),
         f"est {period_est / 1e6:.0f} ms / {duration_est / 1e3:.0f} us"],
        ["direct measurement (DES)",
         round(100 * measured, 2), f"P={nodes} BSP"],
        ["observer attribution",
         None, f"{100 * attribution_share:.1f}% of charged noise "
               f"named '{injected_name}'"],
    ]

    checks = {
        "FTQ measures the injected share correctly":
            abs(naive_prediction - 0.025) < 0.005,
        "naive indirect underestimates impact >2x":
            measured > 2 * naive_prediction,
        "selfish capture recovers the event structure":
            abs(period_est - 100 * MILLISECOND) < 10 * MILLISECOND
            and abs(duration_est - 2500 * MICROSECOND) < 300 * MICROSECOND,
        "model-informed indirect within 3x of measured":
            measured / 3 < model_prediction < measured * 3,
        "observer attributes the slowdown to the injected source":
            attribution_share > 0.8,
    }
    findings = {
        "naive_pct": round(100 * naive_prediction, 2),
        "model_pct": round(100 * model_prediction, 2),
        "measured_pct": round(100 * measured, 2),
        "attribution_share": round(attribution_share, 3),
    }
    return ExperimentReport(EXPERIMENT_ID, TITLE, headers, rows,
                            checks=checks, findings=findings,
                            notes=f"pattern {_PATTERN}, BSP 1 ms grain, "
                                  f"P={nodes}")
