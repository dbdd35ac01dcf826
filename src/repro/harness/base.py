"""Experiment harness plumbing.

Every paper experiment (E1–E10) is one module exposing a
``run(scale) -> ExperimentReport``.  A report carries the table the
experiment regenerates (headers + rows), free-form findings, and a
``checks`` dict of named booleans asserting the *shape* of the result
(who wins, what grows, what stays flat) — the reproduction criteria
from DESIGN.md, executable.

Scales:

* ``"small"`` — CI-sized: runs in seconds, same qualitative shape.
* ``"full"`` — paper-sized curves (minutes; used for EXPERIMENTS.md).
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from ..analysis.tables import format_csv, format_table
from ..errors import ConfigError
from ..parallel import SweepExecutor

__all__ = ["ExperimentReport", "Scale", "check_scale",
           "ExecutionPolicy", "execution_policy", "set_execution_policy",
           "policy_executor"]

Scale = str
_SCALES = ("small", "full")


def check_scale(scale: Scale) -> Scale:
    if scale not in _SCALES:
        raise ConfigError(f"scale must be one of {_SCALES}, got {scale!r}")
    return scale


@dataclass
class ExecutionPolicy:
    """How harness experiments execute their sweeps.

    Experiments stay pure ``run(scale) -> report`` functions; the CLI
    (``--workers`` / ``--cache``) sets this process-wide policy and
    experiments run their points through :func:`policy_executor`.

    Attributes
    ----------
    workers:
        Process fan-out for sweep points (1 = serial in-process;
        ``None``/0 = one per CPU).
    cache:
        Optional on-disk result-cache directory (or a
        :class:`~repro.parallel.ResultCache`).
    """

    workers: int | None = 1
    cache: _t.Any = None


_POLICY = ExecutionPolicy()


def execution_policy() -> ExecutionPolicy:
    """The process-wide harness execution policy."""
    return _POLICY


def set_execution_policy(*, workers: int | None = None,
                         cache: _t.Any = None) -> ExecutionPolicy:
    """Update the process-wide policy; returns it.

    ``workers=None`` leaves the current worker setting untouched (use
    ``workers=0`` for "one per CPU"); ``cache=None`` leaves caching
    untouched and ``cache=""`` disables it.
    """
    if workers is not None:
        _POLICY.workers = workers
    if cache is not None:
        _POLICY.cache = None if cache == "" else cache
    return _POLICY


def policy_executor() -> SweepExecutor:
    """A :class:`~repro.parallel.SweepExecutor` honouring the policy."""
    return SweepExecutor(workers=_POLICY.workers, cache=_POLICY.cache)


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
