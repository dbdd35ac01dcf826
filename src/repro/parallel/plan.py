"""Comparison plans: noisy runs scored against their quiet twins.

The paper's core measurement compares a noisy run with a quiet
baseline.  A :class:`ComparisonPlan` is that comparison as data: the
independent simulation *points* it needs (quiet twins first, each
distinct twin once) and the *cells* it reports, each naming its quiet
and noisy point.  A cell with no noisy half reports its one point
bare.  :func:`plan_sweep` builds the plan of a ``nodes x patterns``
sweep, :func:`plan_comparisons` the plan of a mapping of noisy
configs, :func:`plan_points` the plan of independent bare points,
:func:`plan_union` the points of many plans keyed by content, and
:meth:`ComparisonPlan.assemble` turns finished points back into
results.

A point is an :class:`~repro.core.ExperimentConfig` (one application
run) or a :class:`~repro.microbench.CollectivePoint` (one collective
microbenchmark); both are frozen and content-keyable.

Planning and assembly are pure.  :class:`~repro.parallel.SweepExecutor`
runs plans in-process or over a pool, and the experiment server
(:mod:`repro.serve`) runs the same sweep plans point by point, so the
CLI, the harness and served jobs share one expansion and one assembly.
Quiet twins come from :meth:`~repro.core.ExperimentConfig.quiet_twin`.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, replace

from ..core.experiment import ExperimentConfig
from ..core.results import ComparisonResult
from ..errors import ConfigError
from ..noise import is_quiet
from .cache import config_key

__all__ = ["PointPlan", "PointError", "ComparisonPlan", "plan_sweep",
           "plan_comparisons", "plan_points", "plan_union"]


@dataclass(frozen=True)
class PointPlan:
    """One independent simulation a plan needs.

    Sweep keys are ``("quiet", nodes)`` and ``("noisy", nodes,
    pattern)``; they and the labels travel on the wire in the server's
    ``point`` events.
    """

    key: _t.Any
    config: _t.Any
    label: str


@dataclass(frozen=True)
class PointError:
    """One point that failed (after its retry) and was isolated.

    Attributes
    ----------
    label:
        Human-readable point label (as used in progress lines).
    kind:
        Exception class name (``"FaultError"``, ``"DeadlockError"`` ...),
        or ``"MissingBaseline"`` for a noisy point whose quiet twin
        failed.
    message:
        Stringified exception.
    retried:
        True if the point was re-run before being declared
        failed.
    """

    label: str
    kind: str
    message: str
    retried: bool = False

    def as_dict(self) -> dict[str, _t.Any]:
        return {"label": self.label, "kind": self.kind,
                "message": self.message, "retried": self.retried}


#: A cell's points: its quiet twin's key and its noisy point (``None``
#: for a cell that reports the quiet run itself).
_Cell = tuple[_t.Any, "PointPlan | None"]


@dataclass(frozen=True, eq=False)
class ComparisonPlan:
    """The points a set of comparisons needs and how to reassemble them."""

    points: tuple[PointPlan, ...]
    cells: _t.Mapping[_t.Any, _Cell]

    def assemble(self, done: _t.Mapping[_t.Any, _t.Any],
                 failed: _t.Mapping[_t.Any, PointError] | None = None
                 ) -> tuple[dict[_t.Any, _t.Any], list[PointError]]:
        """Finished points -> ``(results by cell, missing baselines)``.

        Cells iterate in plan order.  A cell whose noisy point is
        absent is skipped (its own failure is reported by whoever ran
        it); a cell whose noisy point finished but whose quiet twin did
        not becomes a ``MissingBaseline`` error, quoting the twin's
        failure from ``failed`` when known.
        """
        results: dict[_t.Any, _t.Any] = {}
        missing: list[PointError] = []
        for cell, (quiet_key, noisy_point) in self.cells.items():
            quiet = done.get(quiet_key)
            if noisy_point is None:
                if quiet is not None:
                    results[cell] = quiet
                continue
            noisy = done.get(noisy_point.key)
            if noisy is None:
                continue
            if quiet is None:
                cause = (failed or {}).get(quiet_key)
                missing.append(PointError(
                    noisy_point.label, "MissingBaseline",
                    "quiet baseline failed"
                    + (f": {cause.message}" if cause else "")))
                continue
            results[cell] = ComparisonResult(quiet=quiet, noisy=noisy)
        return results, missing


def plan_sweep(base: ExperimentConfig, nodes: _t.Sequence[int],
               patterns: _t.Sequence[str]) -> ComparisonPlan:
    """Cross ``nodes`` x ``patterns``: one quiet twin per machine size.

    Cells are ``(nodes, pattern)`` in nodes-major order; a quiet
    pattern's cell reports the bare quiet run.
    """
    if not nodes or not patterns:
        raise ConfigError("sweep needs at least one node count and pattern")
    points: dict[tuple, PointPlan] = {}
    for p in nodes:
        key = ("quiet", p)
        if key not in points:
            points[key] = PointPlan(key, replace(base, nodes=p).quiet_twin(),
                                    f"quiet baseline P={p}")
    cells: dict[tuple[int, str], _Cell] = {}
    for p in nodes:
        for pattern in patterns:
            if is_quiet(pattern):
                cells[(p, pattern)] = (("quiet", p), None)
                continue
            key = ("noisy", p, pattern)
            if key not in points:
                points[key] = PointPlan(
                    key, replace(base, nodes=p, noise_pattern=pattern),
                    f"P={p} pattern={pattern}")
            cells[(p, pattern)] = (("quiet", p), points[key])
    return ComparisonPlan(tuple(points.values()), cells)


def plan_comparisons(configs: _t.Mapping[_t.Any, ExperimentConfig]
                     ) -> ComparisonPlan:
    """Score each noisy config against its quiet twin.

    Cells are ``configs``' keys.  Twins that are the same physical run
    (same content key) are simulated once and shared.
    """
    twins: dict[tuple, PointPlan] = {}
    noisy: list[PointPlan] = []
    cells: dict[_t.Any, _Cell] = {}
    for key, cfg in configs.items():
        if is_quiet(cfg.noise_pattern):
            raise ConfigError(f"comparisons need noisy configurations; "
                              f"{key!r} is {cfg.noise_pattern!r}")
        twin = cfg.quiet_twin()
        twin_key = ("quiet", config_key(twin))
        if twin_key not in twins:
            twins[twin_key] = PointPlan(twin_key, twin,
                                        f"quiet baseline P={twin.nodes}")
        point = PointPlan(("noisy", key), cfg,
                          f"P={cfg.nodes} pattern={cfg.noise_pattern}")
        noisy.append(point)
        cells[key] = (twin_key, point)
    return ComparisonPlan((*twins.values(), *noisy), cells)


def plan_points(configs: _t.Mapping[_t.Any, _t.Any],
                labels: _t.Mapping[_t.Any, str] | None = None
                ) -> ComparisonPlan:
    """Independent bare points: each key is one cell reporting its run.

    ``labels`` name points in progress lines and errors (default:
    ``str(key)``).
    """
    labels = labels or {}
    points = tuple(PointPlan(key, cfg, labels.get(key, str(key)))
                   for key, cfg in configs.items())
    return ComparisonPlan(points, {pt.key: (pt.key, None) for pt in points})


def plan_union(plans: _t.Mapping[_t.Any, ComparisonPlan]) -> ComparisonPlan:
    """Every point of the named plans, once, as bare points.

    Points are keyed by :func:`~repro.parallel.config_key` (the cache's
    key), so a simulation several plans — or several keys of one plan —
    need runs once; labels are prefixed with the first plan's name.
    """
    points: dict[str, PointPlan] = {}
    for name, plan in plans.items():
        for pt in plan.points:
            key = config_key(pt.config)
            if key not in points:
                points[key] = PointPlan(key, pt.config, f"{name} {pt.label}")
    return ComparisonPlan(tuple(points.values()),
                          {key: (key, None) for key in points})
