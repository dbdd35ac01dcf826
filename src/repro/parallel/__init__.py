"""Parallel plan execution and on-disk result caching.

The engine behind fast reproduction runs: every experiment of the
harness (E1–E20) declares its simulations as a plan of independent,
deterministic points, so they shard cleanly across processes and
cache cleanly on disk.

* :func:`plan_sweep` / :func:`plan_comparisons` / :func:`plan_points`
  — the one pure expansion of noisy-vs-quiet comparisons (and of bare
  points) into points (quiet twins first, deduplicated; twins from
  :meth:`~repro.core.ExperimentConfig.quiet_twin`),
  :func:`plan_union` — many plans as one, keyed by content — and
  :meth:`ComparisonPlan.assemble`, the one way back from finished
  points to results.  The CLI, the harness and the experiment server
  all run these plans.
* :class:`SweepExecutor` — :meth:`SweepExecutor.submit` is the one
  point path (cache lookup, in-process or pooled run, one retry on a
  live pool, cache store) and :meth:`SweepExecutor.run` submits a
  plan's points, collects them in plan order (``workers=`` knob,
  serial fallback at ``workers=1``), and reports per-point timings
  plus simulated-vs-cached counts via :class:`SweepStats`.
* :class:`ResultCache` — content-keyed pickle cache (stable SHA-256 of
  the point, salted with :data:`repro.__version__`, stored as
  ``<root>/v<version>/<key[:2]>/<key>.pkl``) so quiet baselines are
  computed once ever and shared across sweeps, CLI invocations, the
  experiment harness and the server.

Quick taste::

    from repro.core import ExperimentConfig
    from repro.parallel import SweepExecutor, plan_sweep

    ex = SweepExecutor(workers=4, cache="~/.cache/repro-ghost")
    results = ex.run(plan_sweep(ExperimentConfig(app="pop", seed=1),
                                nodes=[16, 64], patterns=["2.5pct@10Hz"]))
    print(ex.last_stats.as_dict())

or, for flat table records, ``repro.core.sweep_records(..., workers=4,
cache=...)``.
"""

from .cache import CacheStats, ResultCache, config_key, config_token
from .executor import PointRun, PointTiming, SweepExecutor, SweepStats
from .plan import (
    ComparisonPlan,
    PointError,
    PointPlan,
    plan_comparisons,
    plan_points,
    plan_sweep,
    plan_union,
)

__all__ = [
    "SweepExecutor", "SweepStats", "PointRun", "PointTiming", "PointError",
    "ComparisonPlan", "PointPlan", "plan_sweep", "plan_comparisons",
    "plan_points", "plan_union",
    "ResultCache", "CacheStats", "config_key", "config_token",
]
