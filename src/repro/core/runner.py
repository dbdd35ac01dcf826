"""Parameter-sweep runner: the engine behind the scaling figures.

A sweep crosses machine sizes with noise patterns (and optionally other
config axes), reusing one quiet baseline per machine size, and yields
flat record dicts ready for :func:`repro.analysis.format_table`.

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

__all__ = ["sweep", "sweep_records", "flat_records"]


def sweep(base: ExperimentConfig, *, nodes: _t.Sequence[int],
          patterns: _t.Sequence[str],
          progress: _t.Callable[[str], None] | None = None,
          workers: int | None = 1,
          cache: "ResultCache | str | os.PathLike[str] | None" = None
          ) -> dict[tuple[int, str], ComparisonResult | RunResult]:
    """Cross ``nodes`` x ``patterns``; quiet baselines are shared.

    Returns a mapping from ``(n_nodes, pattern)`` to a
    :class:`ComparisonResult` (noisy patterns) or bare
    :class:`RunResult` (the quiet point itself).

    Parameters
    ----------
    workers:
        Processes to fan points over (1 = serial in-process, the
        default; ``None``/0 = one per CPU).
    cache:
        Optional on-disk result cache (directory path or
        :class:`~repro.parallel.ResultCache`).
    """
    from ..parallel import SweepExecutor

    executor = SweepExecutor(workers=workers, cache=cache)
    return executor.run_sweep(base, nodes=nodes, patterns=patterns,
                              progress=progress)


def sweep_records(base: ExperimentConfig, *, nodes: _t.Sequence[int],
                  patterns: _t.Sequence[str],
                  progress: _t.Callable[[str], None] | None = None,
                  workers: int | None = 1,
                  cache: "ResultCache | str | os.PathLike[str] | None" = None
                  ) -> list[dict[str, _t.Any]]:
    """Flat dict-per-point records (for tables/CSV).

    Records are sorted by ``(nodes, pattern)`` — not by execution or
    completion order — so the output is stable for any ``workers``
    setting.
    """
    return flat_records(sweep(base, nodes=nodes, patterns=patterns,
                              progress=progress, workers=workers,
                              cache=cache))


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
