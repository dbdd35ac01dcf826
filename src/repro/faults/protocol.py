"""Ack/timeout/retry transport: reliability over a lossy fabric.

When a :class:`~repro.faults.FaultPlan` can lose messages
(``needs_protocol``), the machine interposes a
:class:`ReliableTransport` between the MPI layer and the network:

* every outgoing point-to-point message gets a per-channel **protocol
  id** and is tracked until acknowledged;
* the receiver acks every data arrival (acks are real wire messages —
  they occupy the NIC, steal rx CPU, and can themselves be dropped)
  and suppresses duplicate deliveries by protocol id;
* an unacked message is retransmitted after
  ``ack_timeout_ns * backoff**attempt`` (exponential backoff); after
  ``max_retries`` retransmissions the channel is declared dead and a
  :class:`~repro.errors.FaultError` aborts the run — which the sweep
  executor catches and records as a per-point failure.

Everything runs on event callbacks (no rank-process involvement), so
the protocol composes with the existing eager-send MPI semantics: a
send still completes at injection; reliability is the transport's
problem, exactly as on a real NIC with link-level retry.

Determinism: retransmissions are scheduled from plan-derived timeouts
and all drop/duplicate decisions are label-derived
(:meth:`FaultPlan.drop_message`), so a faulty run is exactly
reproducible — the property the whole library is built around.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from ..errors import FaultError
from ..net.message import Message
from .plan import FaultPlan

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..net.network import Network
    from ..sim import Environment

__all__ = ["FaultStats", "ReliableTransport", "ACK_KIND", "DATA_KIND"]

#: Wire-message kinds the transport distinguishes.
DATA_KIND = "data"
ACK_KIND = "ack"


@dataclass
class FaultStats:
    """Per-machine fault/recovery counters (reported by E15).

    ``retries``/``duplicates_suppressed``/``acks_sent`` are indexed by
    node id (the sender for retries, the receiver for the other two);
    drop counters live on the :class:`~repro.net.Network` since drops
    happen on the wire.
    """

    retries: dict[int, int] = field(default_factory=dict)
    duplicates_suppressed: dict[int, int] = field(default_factory=dict)
    acks_sent: dict[int, int] = field(default_factory=dict)
    failures: int = 0

    def count(self, counter: dict[int, int], node: int) -> None:
        counter[node] = counter.get(node, 0) + 1

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    @property
    def total_duplicates_suppressed(self) -> int:
        return sum(self.duplicates_suppressed.values())

    def as_dict(self) -> dict[str, _t.Any]:
        return {"retries": dict(sorted(self.retries.items())),
                "duplicates_suppressed":
                    dict(sorted(self.duplicates_suppressed.items())),
                "acks_sent": dict(sorted(self.acks_sent.items())),
                "total_retries": self.total_retries,
                "total_duplicates_suppressed":
                    self.total_duplicates_suppressed,
                "failures": self.failures}


class _Pending:
    """Sender-side state for one unacknowledged message."""

    __slots__ = ("msg", "attempt", "timer")

    def __init__(self, msg: Message) -> None:
        self.msg = msg
        self.attempt = 0
        self.timer: _t.Any = None


class ReliableTransport:
    """The ack/retry layer between :class:`MPIWorld` and the network.

    Install with :meth:`attach`: the transport takes over the network's
    delivery callback and forwards verified-fresh data messages to the
    downstream consumer (the MPI matching router).
    """

    def __init__(self, env: "Environment", network: "Network",
                 plan: FaultPlan, *, tracer: _t.Any = None,
                 recorder: _t.Any = None) -> None:
        self.env = env
        self.network = network
        self.plan = plan
        self.stats = FaultStats()
        #: ``faults``-category span tracer (retry/suppression instants).
        self.tracer = (tracer if tracer is not None
                       and tracer.enabled("faults") else None)
        #: Cross-node dependency recorder: first-transmission times and
        #: retransmissions, so the critical-path walk can charge retry
        #: stalls to the fault layer (``None`` = recording off).
        self.recorder = recorder
        #: Downstream consumer of fresh data messages.
        self._forward: _t.Callable[[Message], None] | None = None
        #: (src, dst) -> next protocol id for that channel.
        self._next_pid: dict[tuple[int, int], int] = {}
        #: (src, dst, pid) -> sender-side retry state.
        self._pending: dict[tuple[int, int, int], _Pending] = {}
        #: (src, dst) -> set of already-delivered pids (receiver side).
        self._seen: dict[tuple[int, int], set[int]] = {}

    # -- wiring ------------------------------------------------------------
    def attach(self, forward: _t.Callable[[Message], None]) -> None:
        """Interpose on the network; fresh data goes to ``forward``."""
        self._forward = forward
        self.network.on_deliver(self._on_network_deliver)

    # -- send path ---------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Send ``msg`` reliably (called by the MPI layer at injection)."""
        channel = (msg.src, msg.dst)
        pid = self._next_pid.get(channel, 0)
        self._next_pid[channel] = pid + 1
        msg.kind = DATA_KIND
        msg.proto_id = pid
        msg.attempt = 0
        pending = _Pending(msg)
        self._pending[(msg.src, msg.dst, pid)] = pending
        if self.recorder is not None:
            self.recorder.record_send(msg)
        self.network.inject(msg)
        self._arm_timer(pending)

    def _arm_timer(self, pending: _Pending) -> None:
        delay = self.plan.retry_timeout_ns(pending.attempt)
        timer = self.env.timeout(delay, pending)
        timer.callbacks.append(self._on_timeout)
        pending.timer = timer

    def _on_timeout(self, event: _t.Any) -> None:
        pending: _Pending = event.value
        msg = pending.msg
        key = (msg.src, msg.dst, msg.proto_id)
        if key not in self._pending:  # acked while the timer was in flight
            return
        if pending.attempt >= self.plan.max_retries:
            self.stats.failures += 1
            raise FaultError(
                f"message {msg.src}->{msg.dst} proto_id={msg.proto_id} "
                f"undeliverable after {pending.attempt} retries "
                f"(tag={msg.tag}, size={msg.size})",
                src=msg.src, dst=msg.dst)
        pending.attempt += 1
        self.stats.count(self.stats.retries, msg.src)
        if self.tracer is not None:
            self.tracer.instant(
                "faults", f"retry {msg.src}->{msg.dst}", self.env.now,
                tid=msg.src, args={"proto_id": msg.proto_id,
                                   "attempt": pending.attempt})
        retry = Message(src=msg.src, dst=msg.dst, tag=msg.tag,
                        size=msg.size, comm_id=msg.comm_id,
                        src_rank=msg.src_rank, payload=msg.payload,
                        kind=DATA_KIND, proto_id=msg.proto_id,
                        attempt=pending.attempt)
        pending.msg = retry
        if self.recorder is not None:
            self.recorder.record_retry(retry)
        self.network.inject(retry)
        self._arm_timer(pending)

    # -- receive path ------------------------------------------------------
    def _on_network_deliver(self, msg: Message) -> None:
        if msg.kind == ACK_KIND:
            self._on_ack(msg)
            return
        # Always ack — the original ack may have been the casualty.
        self._send_ack(msg)
        seen = self._seen.setdefault((msg.src, msg.dst), set())
        if msg.proto_id in seen:
            self.stats.count(self.stats.duplicates_suppressed, msg.dst)
            if self.tracer is not None:
                self.tracer.instant(
                    "faults", f"dup suppressed {msg.src}->{msg.dst}",
                    self.env.now, tid=msg.dst,
                    args={"proto_id": msg.proto_id})
            return
        seen.add(msg.proto_id)
        assert self._forward is not None
        self._forward(msg)

    def _send_ack(self, data: Message) -> None:
        self.stats.count(self.stats.acks_sent, data.dst)
        ack = Message(src=data.dst, dst=data.src, tag=0,
                      size=self.plan.ack_bytes, comm_id=-1,
                      kind=ACK_KIND, proto_id=data.proto_id,
                      attempt=data.attempt,
                      payload=(data.src, data.dst, data.proto_id))
        self.network.inject(ack)

    def _on_ack(self, ack: Message) -> None:
        src, dst, pid = ack.payload
        pending = self._pending.pop((src, dst, pid), None)
        if pending is None:  # duplicate ack (retransmit already acked)
            return
        timer = pending.timer
        if timer is not None and not timer.processed:
            timer.cancel()
