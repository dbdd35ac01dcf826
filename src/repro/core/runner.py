"""Sweep records: the flat table form of a scaling sweep.

A sweep crosses machine sizes with noise patterns, reusing one quiet
baseline per machine size, and yields flat record dicts ready for
:func:`repro.analysis.format_table`.

Execution is delegated to :class:`repro.parallel.SweepExecutor`: pass
``workers=N`` to fan the independent points over N processes (results
are bit-identical to serial for a fixed seed), and ``cache=`` a
directory or :class:`~repro.parallel.ResultCache` to serve
previously-simulated points — quiet baselines above all — from disk.
"""

from __future__ import annotations

import os
import typing as _t

from .experiment import ExperimentConfig
from .results import ComparisonResult, RunResult

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..parallel import ResultCache

__all__ = ["sweep_records", "flat_records"]


def sweep_records(base: ExperimentConfig, *, nodes: _t.Sequence[int],
                  patterns: _t.Sequence[str],
                  progress: _t.Callable[[str], None] | None = None,
                  workers: int | None = 1,
                  cache: "ResultCache | str | os.PathLike[str] | None" = None
                  ) -> list[dict[str, _t.Any]]:
    """Cross ``nodes`` x ``patterns``; one flat dict per point.

    Records are sorted by ``(nodes, pattern)`` — not by execution or
    completion order — so the output is stable for any ``workers``
    setting.

    Parameters
    ----------
    workers:
        Processes to fan points over (1 = serial in-process, the
        default; ``None``/0 = one per CPU).
    cache:
        Optional on-disk result cache (directory path or
        :class:`~repro.parallel.ResultCache`).
    """
    from ..parallel import SweepExecutor, plan_sweep

    executor = SweepExecutor(workers=workers, cache=cache)
    return flat_records(executor.run(plan_sweep(base, nodes, patterns),
                                     progress=progress))


def flat_records(results: _t.Mapping[tuple[int, str],
                                     ComparisonResult | RunResult]
                 ) -> list[dict[str, _t.Any]]:
    """Sweep results -> one ``as_dict()`` record per cell, sorted by
    ``(nodes, pattern)`` (the CLI, the server and CSV export share it).
    """
    out = []
    for (p, pattern), res in sorted(results.items()):
        record = res.as_dict()
        record.setdefault("nodes", p)
        record.setdefault("pattern", pattern)
        out.append(record)
    return out
