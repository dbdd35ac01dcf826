"""Parallel sweep execution and on-disk result caching.

The engine behind fast reproduction runs: every figure in E1–E14 is a
sweep over independent, deterministic ``(nodes, pattern)`` simulation
points, so they shard cleanly across processes and cache cleanly on
disk.

* :func:`plan_sweep` / :func:`plan_comparisons` — the one pure
  expansion of noisy-vs-quiet comparisons into points (quiet twins
  first, deduplicated; twins from
  :meth:`~repro.core.ExperimentConfig.quiet_twin`) and
  :meth:`ComparisonPlan.assemble`, the one way back from finished
  points to results.  The CLI, the harness and the experiment server
  all run these plans.
* :class:`SweepExecutor` — fans plan points over a process pool
  (``workers=`` knob, serial fallback at ``workers=1``), collects
  deterministically by point key, and reports per-point timings plus
  simulated-vs-cached counts via :class:`SweepStats`.
* :class:`ResultCache` — content-keyed pickle cache (stable SHA-256 of
  the config, salted with :data:`repro.__version__`, stored as
  ``<root>/v<version>/<key[:2]>/<key>.pkl``) so quiet baselines are
  computed once ever and shared across sweeps, CLI invocations, the
  experiment harness and the server.

Quick taste::

    from repro.core import ExperimentConfig
    from repro.parallel import SweepExecutor

    ex = SweepExecutor(workers=4, cache="~/.cache/repro-ghost")
    results = ex.run_sweep(ExperimentConfig(app="pop", seed=1),
                           nodes=[16, 64], patterns=["2.5pct@10Hz"])
    print(ex.last_stats.as_dict())

or simply ``repro.core.sweep(..., workers=4, cache=...)``.
"""

from .cache import CacheStats, ResultCache, config_key, config_token
from .executor import PointTiming, SweepExecutor, SweepStats
from .plan import (
    ComparisonPlan,
    PointError,
    PointPlan,
    plan_comparisons,
    plan_sweep,
)

__all__ = [
    "SweepExecutor", "SweepStats", "PointTiming", "PointError",
    "ComparisonPlan", "PointPlan", "plan_sweep", "plan_comparisons",
    "ResultCache", "CacheStats", "config_key", "config_token",
]
