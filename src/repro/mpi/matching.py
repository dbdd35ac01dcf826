"""Receive matching: posted-receive and unexpected-message queues.

Implements MPI matching semantics per destination node:

* an arriving message first scans the **posted queue** for the oldest
  matching receive (exact ``(comm, src_rank, tag)`` with
  ``ANY_SOURCE`` / ``ANY_TAG`` wildcards);
* a receive first scans the **unexpected queue** for the oldest
  matching already-arrived message;
* otherwise each parks in its queue.

Non-overtaking holds because both queues are FIFO and simulated
delivery between a node pair is FIFO.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..net.message import Message
from ..sim import Environment, Event
from .constants import ANY_SOURCE, ANY_TAG

__all__ = ["MessageRouter", "PostedRecv"]


@dataclass(slots=True)
class PostedRecv:
    """One outstanding receive posted at a node."""

    comm_id: int
    src_rank: int
    tag: int
    event: Event

    def matches(self, msg: Message) -> bool:
        if msg.comm_id != self.comm_id:
            return False
        if self.src_rank != ANY_SOURCE and msg.src_rank != self.src_rank:
            return False
        if self.tag != ANY_TAG and msg.tag != self.tag:
            return False
        return True


class MessageRouter:
    """Per-node matching queues for the whole machine."""

    def __init__(self, env: Environment, n_nodes: int) -> None:
        self.env = env
        self.n_nodes = n_nodes
        self._posted: list[deque[PostedRecv]] = [deque() for _ in range(n_nodes)]
        self._unexpected: list[deque[Message]] = [deque() for _ in range(n_nodes)]
        #: Diagnostics: how many arrivals found no posted receive.
        self.unexpected_arrivals = 0

    # -- network side -------------------------------------------------------
    def deliver(self, msg: Message) -> None:
        """Network handoff: complete a posted receive or park the message."""
        posted = self._posted[msg.dst]
        for i, pr in enumerate(posted):
            if pr.matches(msg):
                del posted[i]
                pr.event.succeed(msg)
                return
        self.unexpected_arrivals += 1
        self._unexpected[msg.dst].append(msg)

    # -- application side --------------------------------------------------------
    def post_recv(self, dst_node: int, comm_id: int, src_rank: int,
                  tag: int) -> Event:
        """Post a receive; the event's value is the matched Message."""
        ev = Event(self.env)
        unexpected = self._unexpected[dst_node]
        probe = PostedRecv(comm_id, src_rank, tag, ev)
        for i, msg in enumerate(unexpected):
            if probe.matches(msg):
                del unexpected[i]
                ev.succeed(msg)
                return ev
        self._posted[dst_node].append(probe)
        return ev

    # -- introspection ---------------------------------------------------------------
    def quiescent(self) -> bool:
        """True when no receive or message is parked anywhere."""
        return (all(not q for q in self._posted)
                and all(not q for q in self._unexpected))
