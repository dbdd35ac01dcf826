"""Experiment harness plumbing.

Every paper experiment (E1–E20) is one module exposing its
simulations and its analysis separately:

* ``plan(scale, seed) -> ComparisonPlan`` — the independent simulation
  points the experiment needs (:mod:`repro.parallel.plan`; empty for
  experiments that only drive single machines directly);
* ``reduce(scale, seed, results) -> ExperimentReport`` — the report,
  from the plan's assembled cells.

The registry alone runs plans, through the executor its caller passes
(:func:`repro.harness.run_experiment`, :func:`repro.harness.run_all`).
A report carries the table the experiment regenerates (headers +
rows), free-form findings, and a ``checks`` dict of named booleans
asserting the *shape* of the result (who wins, what grows, what stays
flat) — the reproduction criteria from DESIGN.md, executable.

Scales:

* ``"small"`` — CI-sized: runs in seconds, same qualitative shape.
* ``"full"`` — paper-sized curves (minutes; used for EXPERIMENTS.md).
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from ..analysis.tables import format_csv, format_table
from ..errors import ConfigError
from ..parallel import ComparisonPlan

__all__ = ["ExperimentReport", "Scale", "check_scale", "no_points"]

Scale = str
_SCALES = ("small", "full")


def check_scale(scale: Scale) -> Scale:
    if scale not in _SCALES:
        raise ConfigError(f"scale must be one of {_SCALES}, got {scale!r}")
    return scale


def no_points(scale: Scale, seed: int) -> ComparisonPlan:
    """The plan of an experiment that drives its machines directly."""
    return ComparisonPlan((), {})


@dataclass
class ExperimentReport:
    """The output of one harness experiment."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[_t.Any]]
    #: Named shape assertions; all must be True for the reproduction
    #: to count as matching the paper's qualitative result.
    checks: dict[str, bool] = field(default_factory=dict)
    #: Free-form measured quantities quoted in EXPERIMENTS.md.
    findings: dict[str, _t.Any] = field(default_factory=dict)
    notes: str = ""
    #: Telemetry attached by the registry when :mod:`repro.obs` metrics
    #: are enabled (per-experiment snapshot delta).  Rendered only when
    #: explicitly requested so default report bytes never change.
    metrics: dict[str, _t.Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def failed_checks(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]

    def table(self) -> str:
        return format_table(self.headers, self.rows,
                            title=f"{self.experiment_id}: {self.title}")

    def csv(self) -> str:
        return format_csv(self.headers, self.rows)

    def render(self, *, include_metrics: bool = False) -> str:
        """Full plain-text report.

        ``include_metrics`` appends the telemetry block (when one was
        collected); the default output is byte-identical to pre-obs
        builds.
        """
        parts = [self.table()]
        if self.findings:
            parts.append("findings:")
            for key, value in self.findings.items():
                parts.append(f"  {key}: {value}")
        parts.append("checks:")
        for name, ok in self.checks.items():
            parts.append(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        if self.notes:
            parts.append(f"notes: {self.notes}")
        if include_metrics and self.metrics:
            parts.append("metrics:")
            for key, value in self.metrics.items():
                parts.append(f"  {key}: {value}")
        return "\n".join(parts) + "\n"
