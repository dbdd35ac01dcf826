"""In-flight point registry: one simulation, N subscribers.

Concurrent requests routinely want the same point (every sweep at a
given machine size needs that size's quiet baseline).  The registry
maps the point's content key — the same PYTHONHASHSEED-stable
:func:`repro.parallel.config_key` the on-disk cache uses — to the
server-owned :class:`asyncio.Task` computing it.  The first request
registers the task; every later request joins it and receives the
same result object with zero extra work.  Because the task belongs to
the registry rather than to any request, a subscriber disconnecting
(its handler task getting cancelled) never tears the computation away
from the other subscribers — requests read a task's result from a
done callback and never await or cancel it.

Single-loop discipline: the registry is touched only from the server's
event loop, so plain dict operations are race-free and no locking is
needed.
"""

from __future__ import annotations

import asyncio
import typing as _t

from ..obs import oplog as _oplog

__all__ = ["InflightRegistry"]


class InflightRegistry:
    """Keyed rendezvous deduplicating concurrent identical points."""

    def __init__(self) -> None:
        self._tasks: dict[str, asyncio.Task] = {}
        #: Lifetime counters (the server folds these into /metrics).
        self.registered = 0
        self.joined = 0

    def __len__(self) -> int:
        return len(self._tasks)

    def join(self, key: str) -> asyncio.Task | None:
        """The in-flight task for ``key``, or ``None`` if nobody owns it."""
        task = self._tasks.get(key)
        if task is not None:
            self.joined += 1
            # The joiner's request context: the subscriber's request_id,
            # not the owner's, identifies who waited on the dedup.
            _oplog.log("inflight.join", level="debug", point_key=key,
                       inflight=len(self._tasks))
        return task

    def register(self, key: str,
                 factory: _t.Callable[[], _t.Coroutine]) -> asyncio.Task:
        """Create, track, and return the task computing ``key``.

        The task retires itself from the registry on completion (and
        marks any exception retrieved, so a point that fails with zero
        subscribers left never warns at garbage collection).
        """
        task = asyncio.get_running_loop().create_task(factory())
        self._tasks[key] = task
        self.registered += 1
        _oplog.log("inflight.register", level="debug", point_key=key,
                   inflight=len(self._tasks))

        def _retire(t: asyncio.Task) -> None:
            if self._tasks.get(key) is t:
                del self._tasks[key]
            if not t.cancelled():
                t.exception()  # mark retrieved

        task.add_done_callback(_retire)
        return task
