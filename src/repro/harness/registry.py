"""Experiment registry: look experiments up by id, run them in bulk.

The registry alone runs experiment plans: every point of the requested
experiments goes through one :class:`~repro.parallel.SweepExecutor`
(keyed by content, so a shared point runs once), then each experiment
reduces its cells.  A failed point fails only the experiments that
need it, with a failing check naming the
:class:`~repro.parallel.PointError`.  With :mod:`repro.obs` metrics
on, the fan-out (``points``), each reduce (``E<n>.reduce``) and a whole
:func:`run_experiment` (``E<n>``) are timed as harness phases.
"""

from __future__ import annotations

import contextlib
import importlib
import pkgutil
import time
import typing as _t

from ..errors import ConfigError
from ..obs import runtime as _obs
from ..obs.metrics import diff_snapshots
from ..parallel import SweepExecutor, config_key, plan_union
from . import experiments
from .base import ExperimentReport, Scale, check_scale

__all__ = ["EXPERIMENTS", "run_experiment", "run_experiments", "run_all",
           "experiment_ids"]

#: id -> experiment module (``TITLE``, ``SEED``, ``plan``, ``reduce``):
#: every module of :mod:`repro.harness.experiments`.
EXPERIMENTS: dict[str, _t.Any] = {
    mod.EXPERIMENT_ID: mod for mod in (
        importlib.import_module(f"{experiments.__name__}.{name}")
        for _finder, name, _pkg in pkgutil.iter_modules(experiments.__path__))}


def experiment_ids() -> list[str]:
    """All experiment ids in numeric order."""
    return sorted(EXPERIMENTS, key=lambda e: int(e[1:]))


@contextlib.contextmanager
def _phase(name: str, scale: Scale) -> _t.Iterator[dict[str, float]]:
    """Time a block as harness phase ``name`` when metrics are on; the
    yielded dict receives the elapsed seconds as ``"s"``."""
    timing: dict[str, float] = {}
    if not _obs.metrics_enabled():
        yield timing
        return
    t0 = time.perf_counter()
    yield timing
    elapsed = timing["s"] = round(time.perf_counter() - t0, 6)
    _obs.record_phase_seconds(name, elapsed)
    tracer = _obs.tracer()
    if tracer is not None and tracer.enabled("harness"):
        tracer.host_span("harness", name, t0, elapsed, args={"scale": scale})


def run_experiments(ids: _t.Iterable[str], scale: Scale = "small",
                    executor: SweepExecutor | None = None,
                    progress: _t.Callable[[str], None] | None = None
                    ) -> dict[str, ExperimentReport]:
    """Run experiments ``ids``, their points as one fan-out.

    ``executor`` runs the points (``None``: serial, no cache).  Reports
    come back keyed by id, in ``ids`` order.
    """
    check_scale(scale)
    mods = {}
    for eid in ids:
        if eid not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {eid!r}; "
                              f"available: {experiment_ids()}")
        mods[eid] = EXPERIMENTS[eid]
    plans = {eid: mod.plan(scale, mod.SEED) for eid, mod in mods.items()}
    executor = executor if executor is not None else SweepExecutor()
    with _phase("points", scale):
        done = executor.run(plan_union(plans), progress=progress)

    reports = {}
    for eid, plan in plans.items():
        mod = mods[eid]
        keys = {pt.key: config_key(pt.config) for pt in plan.points}
        errors = [executor.last_errors[key] for key in keys.values()
                  if key in executor.last_errors]
        if errors:
            reports[eid] = ExperimentReport(eid, mod.TITLE, [], [], checks={
                f"point {e.label} failed ({e.kind}): {e.message}": False
                for e in errors})
            continue
        if progress:
            progress(f"running {eid}: {mod.TITLE}")
        cells, _missing = plan.assemble(
            {key: done[content] for key, content in keys.items()})
        with _phase(f"{eid}.reduce", scale):
            reports[eid] = mod.reduce(scale, mod.SEED, cells)
    return reports


def run_experiment(experiment_id: str, scale: Scale = "small",
                   executor: SweepExecutor | None = None
                   ) -> ExperimentReport:
    """Run one experiment by id; ``executor`` as in
    :func:`run_experiments`."""
    if not _obs.metrics_enabled():
        return run_experiments([experiment_id], scale,
                               executor)[experiment_id]
    before = _obs.registry().snapshot()
    with _phase(experiment_id, scale) as timing:
        report = run_experiments([experiment_id], scale,
                                 executor)[experiment_id]
    report.metrics = diff_snapshots(before, _obs.registry().snapshot())
    # A gauge set by an earlier run would be differenced; state it.
    report.metrics[f"harness.phase_s{{phase={experiment_id}}}"] = timing["s"]
    return report


def run_all(scale: Scale = "small", executor: SweepExecutor | None = None,
            progress: _t.Callable[[str], None] | None = None
            ) -> dict[str, ExperimentReport]:
    """Run every experiment, their points as one fan-out; reports by id."""
    return run_experiments(experiment_ids(), scale, executor, progress)
