"""Experiment orchestration: machine assembly, runs, sweeps, results.

Top-level entry points::

    from repro.core import ExperimentConfig, run_experiment, run_with_baseline

    cmp = run_with_baseline(ExperimentConfig(
        app="pop", nodes=64, noise_pattern="2.5pct@10Hz", seed=1))
    print(cmp.slowdown.slowdown_percent, cmp.slowdown.verdict)
"""

from .experiment import ExperimentConfig, run_experiment, run_with_baseline
from .machine import Machine, MachineConfig, RankProgram
from .results import ComparisonResult, RunResult
from .runner import flat_records, sweep_records

__all__ = [
    "Machine", "MachineConfig", "RankProgram",
    "ExperimentConfig", "run_experiment", "run_with_baseline",
    "RunResult", "ComparisonResult",
    "sweep_records", "flat_records",
]
