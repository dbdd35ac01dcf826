"""The wire message unit exchanged between nodes."""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field
from itertools import count

__all__ = ["Message"]

_SEQ = count()


@dataclass(slots=True)
class Message:
    """One point-to-point message.

    Attributes
    ----------
    src, dst:
        Sender and receiver node ids.
    tag:
        MPI-style match tag.
    size:
        Payload size in bytes (drives wire and NIC processing time).
    comm_id:
        Id of the communicator the message belongs to (matching scope).
    src_rank:
        Sender's rank *within that communicator* (what receives match
        on; ``src`` is the physical node id the network routes by).
    payload:
        Opaque application data carried along (not copied or sized —
        ``size`` is authoritative for costs, mirroring how a simulator
        separates *modelled* bytes from *carried* Python objects).
    seq:
        Global monotonically increasing id — used to keep matching
        deterministic and for trace correlation.
    sent_at:
        Timestamp the sender injected the message (set by the network).
    delivered_at:
        Timestamp the receiver's kernel finished rx processing (set by
        the network).
    kind:
        Wire-message class: ``"data"`` (application traffic, the
        default) or ``"ack"`` (reliable-transport control traffic; only
        present when a fault plan enables the protocol).
    proto_id:
        Reliable-transport sequence number within the ``(src, dst)``
        channel (``-1`` when the protocol is off).
    attempt:
        Retransmission attempt this copy belongs to (0 = original).
    """

    src: int
    dst: int
    tag: int
    size: int
    comm_id: int = 0
    src_rank: int = -1
    payload: _t.Any = None
    seq: int = field(default_factory=lambda: next(_SEQ))
    sent_at: int = -1
    delivered_at: int = -1
    kind: str = "data"
    proto_id: int = -1
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"message size must be >= 0, got {self.size}")
