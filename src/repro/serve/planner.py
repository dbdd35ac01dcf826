"""Job parsing for the experiment server.

A *job* is the JSON body of one ``POST /v1/jobs`` request: either a
``compare`` (one noisy config scored against its quiet twin) or a
``sweep`` (nodes x patterns with shared quiet baselines).
:func:`parse_job` validates it into a :class:`Job`.  A job owns no
planning logic: :meth:`Job.points` and :meth:`Job.assemble` are the
executor's own :func:`~repro.parallel.plan_sweep` and
:meth:`~repro.parallel.ComparisonPlan.assemble`, flattened by
:func:`repro.core.flat_records`, so a served job is byte-identical
(as sorted JSON records) to ``repro sweep`` and shares its point keys,
labels, quiet-twin deduplication and ``MissingBaseline`` errors.
"""

from __future__ import annotations

import functools
import typing as _t
from dataclasses import dataclass, field

from ..core import ExperimentConfig, flat_records
from ..core.results import RunResult
from ..errors import ConfigError
from ..noise import is_quiet
from ..obs import oplog as _oplog
from ..parallel.plan import ComparisonPlan, PointPlan, plan_sweep

__all__ = ["Job", "parse_job", "PointPlan"]

#: Config fields a job may set directly (everything else is rejected so
#: typos fail loudly instead of silently running the default).
_CONFIG_FIELDS = ("app", "kernel", "network", "alignment", "seed",
                  "isolate_noise", "faults", "topology", "shape",
                  "app_params", "observer", "critical_path")

_JOB_KEYS = frozenset(_CONFIG_FIELDS) | {
    "kind", "nodes", "pattern", "patterns", "collectives", "trace"}


@dataclass(frozen=True)
class Job:
    """A validated compare/sweep request."""

    kind: str
    nodes: tuple[int, ...]
    patterns: tuple[str, ...]
    base: ExperimentConfig
    raw: dict[str, _t.Any] = field(default_factory=dict, compare=False)
    #: Request end-to-end tracing: workers capture each point's
    #: sim-time spans and the server streams one stitched Perfetto
    #: document as a terminal ``trace`` event (see
    #: :mod:`repro.obs.reqtrace`).
    trace: bool = False

    @functools.cached_property
    def _plan(self) -> ComparisonPlan:
        """The job's sweep plan (built once; assembly runs per cell)."""
        return plan_sweep(self.base, self.nodes, self.patterns)

    def points(self) -> list[PointPlan]:
        """The independent simulations, quiet baselines first and
        deduplicated, keyed ``("quiet", p)`` / ``("noisy", p,
        pattern)``."""
        return list(self._plan.points)

    @property
    def point_cells(self) -> dict[tuple, list[tuple[int, str]]]:
        """Point key -> the ``(nodes, pattern)`` cells that need it."""
        return self._plan.point_cells

    def assemble(self, points: _t.Mapping[tuple, RunResult], *,
                 cells: _t.Iterable[tuple[int, str]] | None = None
                 ) -> tuple[list[dict[str, _t.Any]],
                            list[dict[str, _t.Any]]]:
        """Completed points -> ``(records, errors)``.

        Records match :func:`repro.core.sweep_records` exactly; noisy
        points whose quiet baseline is missing become
        ``MissingBaseline`` errors.  ``cells`` restricts both to those
        cells (the server builds each cell's record once, when its
        last point lands).
        """
        results, missing = self._plan.assemble(points, cells=cells)
        return flat_records(results), [
            {"label": e.label, "kind": e.kind, "message": e.message}
            for e in missing]


def _expect(doc: dict[str, _t.Any], key: str, types: tuple[type, ...],
            default: _t.Any) -> _t.Any:
    value = doc.get(key, default)
    if value is not default and not isinstance(value, types):
        names = "/".join(t.__name__ for t in types)
        raise ConfigError(f"job field {key!r} must be {names}, "
                          f"got {type(value).__name__}")
    return value


def parse_job(doc: _t.Any) -> Job:
    """Validate one request body into a :class:`Job`.

    Raises :class:`~repro.errors.ConfigError` on anything malformed —
    the server maps that to a 400, never a crashed worker.
    """
    if not isinstance(doc, dict):
        raise ConfigError("job body must be a JSON object")
    unknown = set(doc) - _JOB_KEYS
    if unknown:
        raise ConfigError(f"unknown job fields: {sorted(unknown)}")
    kind = doc.get("kind")
    if kind not in ("compare", "sweep"):
        raise ConfigError(f"job kind must be 'compare' or 'sweep', "
                          f"got {kind!r}")

    if kind == "compare":
        nodes_raw: _t.Any = _expect(doc, "nodes", (int,), 16)
        nodes = [nodes_raw]
        pattern = _expect(doc, "pattern", (str,), "2.5pct@10Hz")
        if is_quiet(pattern):
            raise ConfigError("compare jobs need a noisy 'pattern'")
        patterns = [pattern]
    else:
        nodes_raw = doc.get("nodes", [4, 16])
        if isinstance(nodes_raw, int):
            nodes_raw = [nodes_raw]
        if (not isinstance(nodes_raw, list) or not nodes_raw
                or not all(isinstance(n, int) and n > 0 for n in nodes_raw)):
            raise ConfigError("sweep 'nodes' must be a non-empty list of "
                              "positive ints")
        nodes = list(nodes_raw)
        pats_raw = doc.get("patterns", ["2.5pct@10Hz"])
        if isinstance(pats_raw, str):
            pats_raw = [pats_raw]
        if (not isinstance(pats_raw, list) or not pats_raw
                or not all(isinstance(s, str) and s.strip()
                           for s in pats_raw)):
            raise ConfigError("sweep 'patterns' must be a non-empty list "
                              "of pattern strings")
        patterns = [s.strip() for s in pats_raw]

    kwargs: dict[str, _t.Any] = {}
    for name in _CONFIG_FIELDS:
        if name in doc:
            kwargs[name] = doc[name]
    collectives = doc.get("collectives")
    if collectives is not None:
        if (not isinstance(collectives, dict)
                or not all(isinstance(k, str) and isinstance(v, str)
                           for k, v in collectives.items())):
            raise ConfigError("'collectives' must map op name to algorithm")
        kwargs["collectives"] = collectives
    app_params = kwargs.get("app_params")
    if app_params is not None and not isinstance(app_params, dict):
        raise ConfigError("'app_params' must be an object")
    try:
        base = ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad job config: {exc}") from exc
    # Fail fast on unparsable patterns/faults so a broken job never
    # occupies pool workers.
    for pattern in patterns:
        ExperimentConfig(**{**kwargs, "noise_pattern": pattern}
                         ).injected_utilization()
    base.fault_plan()
    trace = bool(_expect(doc, "trace", (bool,), False))
    job = Job(kind=kind, nodes=tuple(nodes), patterns=tuple(patterns),
              base=base, raw=dict(doc), trace=trace)
    _oplog.log("job.parsed", kind=kind, nodes=list(job.nodes),
               patterns=list(job.patterns), trace=trace)
    return job
