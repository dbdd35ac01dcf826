"""Non-blocking communication requests.

A :class:`Request` wraps the completion event of an ``isend``/``irecv``
plus the receiver-side CPU overhead still owed at completion.  Wait on
one with ``yield from req.wait()`` (returns the matched
:class:`~repro.net.Message` for receives, ``None`` for sends) or poll
with :meth:`Request.test`.  :func:`wait_all` completes a batch.
"""

from __future__ import annotations

import typing as _t

from ..errors import MPIError
from ..net.message import Message
from ..sim import Environment, Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..kernel.cpu import CPU

__all__ = ["Request", "wait_all"]


class Request:
    """Handle for an in-flight non-blocking operation.

    ``recorder``/``node_id``/``op`` plumb the cross-node dependency
    recorder (:class:`repro.obs.DependencyRecorder`) into the wait
    path: every completed receive is a causal edge from the sender's
    injection to this rank's resumption.  ``recorder`` is ``None``
    unless critical-path recording is enabled, so the default path
    pays one ``is None`` test.
    """

    __slots__ = ("env", "event", "_cpu", "_completion_work", "kind",
                 "_consumed", "_recorder", "_node_id")

    def __init__(self, env: Environment, event: Event, *,
                 cpu: "CPU | None" = None, completion_work: int = 0,
                 kind: str = "recv", recorder: _t.Any = None,
                 node_id: int = -1) -> None:
        self.env = env
        self.event = event
        self._cpu = cpu
        self._completion_work = completion_work
        self.kind = kind
        self._consumed = False
        self._recorder = recorder
        self._node_id = node_id

    def test(self) -> bool:
        """True if the operation has completed (wait() will not block
        on the transfer itself, only on any completion-side CPU work)."""
        return self.event.processed or self.event.triggered

    def wait(self) -> _t.Generator[Event, object, Message | None]:
        """Block until complete; pays completion-side CPU overhead.

        Returns the message for receives, ``None`` for sends.  A
        request may be waited exactly once (matching MPI semantics,
        where completion releases the request object).
        """
        if self._consumed:
            raise MPIError("request waited twice")
        self._consumed = True
        if self._recorder is not None and self.kind == "recv":
            start = self.env.now
            value = yield self.event
            self._recorder.record_wait(self._node_id, start, self.env.now,
                                       _t.cast(Message, value))
        else:
            value = yield self.event
        if self._completion_work and self._cpu is not None:
            yield from self._cpu.compute(self._completion_work)
        if self.kind == "recv":
            return _t.cast(Message, value)
        return None


def wait_all(requests: _t.Sequence[Request]) -> _t.Generator[Event, object, list[Message | None]]:
    """Complete every request, returning their results in order.

    Waits sequentially — once all events have fired the extra yields
    cost zero simulated time, so order does not affect timing beyond
    the serialized completion work, matching real ``MPI_Waitall``
    semantics where completion processing is serialized on the host.
    """
    results: list[Message | None] = []
    for req in requests:
        results.append((yield from req.wait()))
    return results
