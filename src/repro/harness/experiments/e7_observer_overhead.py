"""E7 — Cost of observation.

A measurement framework that perturbs what it measures is useless for
noise studies, so the observer's own footprint must be quantified: run
the same workload with the observer off, at profile level (counters
only), and at full trace level (timestamped events + buffer flushes),
and report the slowdown each level introduces.

Expected shape: off < profile < trace, with trace well under 1 % — the
budget real kernel-instrumentation systems had to meet to be credible.
"""

from __future__ import annotations

from ...apps import StencilApp
from ...core import Machine, MachineConfig
from ...ktau import KtauTracer
from ..base import ExperimentReport, Scale, no_points

EXPERIMENT_ID = "E7"
TITLE = "Observer overhead by instrumentation level"
SEED = 71
plan = no_points


def _run(level: str | None, iterations: int, seed: int) -> tuple[int, int]:
    machine = Machine(MachineConfig(n_nodes=8, kernel="commodity-linux",
                                    seed=seed))
    tracer = None
    if level is not None:
        tracer = KtauTracer(machine, level=level, overhead=level)
    app = StencilApp(work_ns=5_000_000, halo_bytes=8192,
                     iterations=iterations)
    if tracer is not None:
        app.bind_tracer(tracer)
    machine.run_to_completion(machine.launch(app))
    charged = (sum(tracer.overhead_charged_ns.values())
               if tracer is not None else 0)
    return app.makespan_ns(), charged


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    iterations = 40 if scale == "small" else 200

    base, _ = _run(None, iterations, seed)
    results = {"off": (base, 0)}
    for level in ("profile", "trace"):
        results[level] = _run(level, iterations, seed)

    headers = ["observer", "makespan ms", "overhead %", "live charge us"]
    rows = []
    overhead_pct = {}
    for level, (span, charged) in results.items():
        pct = 100 * (span - base) / base
        overhead_pct[level] = pct
        rows.append([level, round(span / 1e6, 4), round(pct, 4),
                     round(charged / 1e3, 2)])

    checks = {
        "profile level costs something":
            overhead_pct["profile"] > 0,
        "trace level costs more than profile":
            overhead_pct["trace"] > overhead_pct["profile"],
        "trace overhead under 1%":
            overhead_pct["trace"] < 1.0,
        "profile overhead under 0.25%":
            overhead_pct["profile"] < 0.25,
    }
    findings = {"overhead_pct": {k: round(v, 4)
                                 for k, v in overhead_pct.items()}}
    return ExperimentReport(EXPERIMENT_ID, TITLE, headers, rows,
                            checks=checks, findings=findings,
                            notes="stencil app, P=8, commodity-linux; "
                                  "overhead = makespan inflation vs observer-off")
