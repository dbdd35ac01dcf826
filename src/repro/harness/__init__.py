"""The paper-experiment harness: E1–E20, one module each.

Each experiment regenerates one table/figure of the evaluation with
executable *shape checks* (DESIGN.md's reproduction criteria).  A
module declares its simulations as a plan and turns the finished
results into its report; the registry runs the plans through the
executor its caller passes::

    from repro.harness import run_experiment, run_all, render_markdown
    from repro.parallel import SweepExecutor

    report = run_experiment("E4")       # one experiment, serial
    print(report.render())

    # the whole evaluation: every plan's points as one union
    reports = run_all("small", SweepExecutor(workers=4, cache="cache"))
    open("EXPERIMENTS.md", "w").write(render_markdown(reports))
"""

from .base import ExperimentReport, Scale
from .registry import EXPERIMENTS, experiment_ids, run_all, run_experiment, run_experiments
from .report import render_markdown, render_summary

__all__ = [
    "ExperimentReport", "Scale",
    "EXPERIMENTS", "experiment_ids", "run_experiment", "run_experiments",
    "run_all",
    "render_markdown", "render_summary",
]
