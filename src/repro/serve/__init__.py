"""Sweep-as-a-service: the asyncio experiment server.

Turns the deterministic simulation engine into a shared service:
compare/sweep jobs arrive as JSON over HTTP, expand into independent
points, and stream results back as they finish.  Each point runs
through :meth:`repro.parallel.SweepExecutor.submit` on a persistent
executor — the CLI's own cache → pool → retry → store path, so
completed points come from the on-disk result cache the CLI shares
and a dead pool worker costs a retry, not an error.  Identical
in-flight points across concurrent requests are simulated exactly
once (content-keyed dedup).

* :class:`ExperimentServer` — the service itself (asyncio, stdlib
  HTTP/1.1, chunked NDJSON streaming).
* :class:`BackgroundServer` — the same server on a daemon thread with
  an ephemeral port (tests and load harnesses).
* :class:`ServeClient` / :func:`submit_async` — blocking and asyncio
  clients.
* :func:`parse_job` / :class:`Job` — the job JSON schema and its
  expansion into point plans.

Quick taste::

    from repro.serve import BackgroundServer, ServeClient

    with BackgroundServer(workers=4, cache="~/.cache/repro-ghost") as bg:
        client = ServeClient(*bg.address)
        records, stats = client.records({
            "kind": "sweep", "app": "bsp", "nodes": [4, 16],
            "patterns": ["quiet", "2.5pct@100Hz"], "seed": 1})

or from the command line: ``repro serve`` / ``repro submit`` (see
docs/SERVICE.md).
"""

from .app import BackgroundServer, ExperimentServer
from .client import ServeClient, ServeError, job_records, submit_async
from .inflight import InflightRegistry
from .planner import Job, PointPlan, parse_job

__all__ = [
    "ExperimentServer", "BackgroundServer", "InflightRegistry",
    "ServeClient", "ServeError", "job_records", "submit_async",
    "Job", "PointPlan", "parse_job",
]
