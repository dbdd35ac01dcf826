"""The machine-wide network: message transport between nodes.

Message timeline (``Network.inject`` is called by the MPI layer from
the sender's process, *after* the sender has paid its LogGP ``o`` as
CPU work):

1. **injection** — sender NIC serializes (gap ``g``) and the message
   enters the wire;
2. **wire** — ``L + topology extra + G*size`` ns pass;
3. **arrival** — receiver NIC serializes, then receive processing
   steals receiver CPU per the kernel's NIC cost model (transient
   steal → observer record → any in-progress compute phase stretches);
4. **handoff** — the delivery callback (the MPI matching engine) gets
   the message.

The network is connectionless and enforces FIFO delivery per
(src, dst) pair — a later, smaller message never overtakes an earlier,
larger one, and two messages on one channel never even share an
arrival timestamp (real fabrics order packets within a virtual
channel, and MPI's non-overtaking guarantee depends on it).  It is
perfectly reliable by default; an optional
:class:`~repro.faults.FaultPlan` makes the wire lossy — messages can
be dropped or duplicated, links transiently degraded, and crashed
nodes unreachable — with recovery delegated to the reliable-transport
layer above (:mod:`repro.faults.protocol`).
"""

from __future__ import annotations

import typing as _t
from bisect import bisect_left

from ..errors import ConfigError
from ..kernel.node import Node
from ..sim import Environment, Timeout
from ..sim.rng import derive_seed
from .loggp import LogGPParams
from .message import Message
from .nic import NIC
from .topology import SwitchTopology, Topology

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults import FaultPlan

__all__ = ["Network"]


class Network:
    """Transport fabric connecting a machine's nodes.

    Parameters
    ----------
    env:
        Simulation environment.
    nodes:
        The machine's nodes, indexed by node id.
    params:
        LogGP cost parameters.
    topology:
        Fabric shape (defaults to a single crossbar switch).
    """

    def __init__(self, env: Environment, nodes: _t.Sequence[Node],
                 params: LogGPParams | None = None,
                 topology: Topology | None = None,
                 seed: int = 0,
                 faults: "FaultPlan | None" = None,
                 *, metrics: bool = False, tracer: _t.Any = None) -> None:
        self.env = env
        self.nodes = list(nodes)
        if not self.nodes:
            raise ConfigError("network needs at least one node")
        self.params = params or LogGPParams()
        self.topology = topology or SwitchTopology(len(self.nodes))
        if self.topology.n_nodes != len(self.nodes):
            raise ConfigError(
                f"topology is sized for {self.topology.n_nodes} nodes but the "
                f"machine has {len(self.nodes)}")
        self.seed = seed
        #: Precomputed pair-cost lookup: ``inject`` runs once per
        #: message, so the per-pair extra latency is resolved here to a
        #: dense matrix index (or skipped entirely on zero-extra
        #: fabrics) instead of a Python call chain per message.
        self._zero_extra = self.topology.zero_extra
        self._extra_mat = (None if self._zero_extra
                           else self.topology.extra_latency_matrix())
        #: Wire-level fault policy (``None`` = perfectly reliable; the
        #: zero-fault fast path must stay bit-identical, so every fault
        #: check below is gated on this being set).
        self.faults = faults if faults is not None and faults.injects_faults \
            else None
        self.nics = [NIC(env, node, self.params.g) for node in self.nodes]
        for node, nic in zip(self.nodes, self.nics):
            node.nic = nic
        #: Delivery callback installed by the message-matching layer:
        #: ``f(message)`` invoked at handoff time.
        self._deliver_cb: _t.Callable[[Message], None] | None = None
        #: Totals for reports.
        self.messages_transferred = 0
        self.bytes_transferred = 0
        #: Fault counters (all zero on a reliable fabric).
        self.messages_dropped = 0
        self.duplicates_injected = 0
        #: Drops charged to the destination node (unreachable receiver
        #: diagnostics for the E15 report).
        self.drops_by_node: dict[int, int] = {}
        #: Per-network injection counter (jitter stream index; the
        #: global Message.seq would leak state across machines built in
        #: the same process and break run-for-run determinism).
        self._injections = 0
        #: FIFO channel state: (src, dst) -> latest booked arrival time.
        self._channel_clear_at: dict[tuple[int, int], int] = {}
        #: Telemetry (all gated on ``metrics`` / ``tracer`` so the
        #: default fabric pays nothing; see :mod:`repro.obs`).  Spans
        #: (``net``) and flow arrows (``net.flow``) gate independently.
        self._metrics = bool(metrics)
        self._tracer = tracer
        self._trace_spans = tracer is not None and tracer.enabled("net")
        self._trace_flows = (tracer is not None
                             and tracer.enabled("net.flow"))
        self._inflight = 0
        #: High-water mark of messages between injection and handoff.
        self.inflight_peak = 0
        #: Per-channel pending-arrival counts and their high-water mark.
        self._channel_pending: dict[tuple[int, int], int] = {}
        self.channel_backlog_peak = 0
        #: Inline delivery-latency bucket counters (bounds from
        #: :data:`repro.obs.metrics.DELIVERY_LATENCY_BOUNDS`, kept as a
        #: literal here so the network never imports the obs package).
        self._latency_bounds = (1_000, 10_000, 100_000, 1_000_000,
                                10_000_000, 100_000_000)
        self.latency_bucket_counts = [0] * (len(self._latency_bounds) + 1)
        self.latency_total_ns = 0

    # -- wiring ------------------------------------------------------------
    def on_deliver(self, callback: _t.Callable[[Message], None]) -> None:
        """Install the handoff callback (one consumer: the MPI layer)."""
        self._deliver_cb = callback

    # -- data path -----------------------------------------------------------
    def send_overhead_work(self, src: int) -> int:
        """Sender-side CPU work per send: LogGP ``o`` + NIC descriptor cost."""
        return self.params.o + self.nics[src].tx_host_cost()

    def recv_overhead_work(self) -> int:
        """Receiver-side CPU work per completed receive: LogGP ``o``."""
        return self.params.o

    def inject(self, msg: Message) -> None:
        """Put ``msg`` on the wire now (sender ``o`` already paid)."""
        if self._deliver_cb is None:
            raise ConfigError("network has no delivery callback installed")
        if not 0 <= msg.dst < len(self.nodes):
            raise ConfigError(f"message dst {msg.dst} out of range")
        if not 0 <= msg.src < len(self.nodes):
            raise ConfigError(f"message src {msg.src} out of range")
        msg.sent_at = self.env.now
        departure = self.nics[msg.src].tx_ready_time(msg.size)
        if self._zero_extra:
            extra = 0
        elif self._extra_mat is not None:
            extra = int(self._extra_mat[msg.src, msg.dst])
        else:
            extra = self.topology.extra_cost(msg.src, msg.dst, msg.size)
        params = self.params
        wire = params.wire_time(msg.size, extra)
        self._injections += 1
        if params.jitter_ns:
            # Deterministic per-message jitter: same seed, same run.
            wire += derive_seed(self.seed, f"jitter:{self._injections}") % (
                params.jitter_ns + 1)

        faults = self.faults
        duplicate = False
        if faults is not None:
            now = self.env.now
            # A crashed endpoint silently eats the message: the sender
            # has already paid tx, recovery is the retry protocol's job.
            if (faults.node_crashed(msg.src, now)
                    or faults.node_crashed(msg.dst, now)):
                self._drop(msg)
                return
            # Stable per-transmission label: protocol id + attempt (a
            # retransmission gets a fresh coin flip, a rerun of the
            # same config gets the same flips; Message.seq would leak
            # the process-global counter into the decision).
            uid = f"{msg.kind}/{msg.proto_id}/{msg.attempt}"
            if faults.drop_message(msg.src, msg.dst, uid):
                self._drop(msg)
                return
            factor = faults.latency_factor(msg.src, msg.dst, now)
            if factor != 1.0:
                wire = round(wire * factor)
            duplicate = faults.duplicate_message(msg.src, msg.dst, uid)

        self._schedule_arrival(msg, departure + wire)
        if duplicate:
            # The ghost copy trails the original by one serialization
            # slot (a retransmit race in a real fabric); the strict
            # per-channel ordering in _schedule_arrival sequences it.
            self.duplicates_injected += 1
            self._schedule_arrival(msg, departure + wire + params.g)

    def _schedule_arrival(self, msg: Message, arrival: int) -> None:
        """Book ``msg`` onto its channel and schedule the arrival event.

        FIFO per channel, strictly: a message never arrives before —
        or at the same instant as — an earlier message on the same
        (src, dst) pair.  Equal-timestamp arrivals would otherwise be
        ordered only by the event-heap tiebreak, which nothing in the
        delivery path is entitled to rely on.
        """
        key = (msg.src, msg.dst)
        prev = self._channel_clear_at.get(key)
        if prev is not None and arrival <= prev:
            arrival = prev + 1
        self._channel_clear_at[key] = arrival
        if self._metrics:
            self._inflight += 1
            if self._inflight > self.inflight_peak:
                self.inflight_peak = self._inflight
            backlog = self._channel_pending.get(key, 0) + 1
            self._channel_pending[key] = backlog
            if backlog > self.channel_backlog_peak:
                self.channel_backlog_peak = backlog
        env = self.env
        Timeout(env, arrival - env.now, msg).callbacks.append(
            self._on_arrival)

    def _drop(self, msg: Message) -> None:
        self.messages_dropped += 1
        self.drops_by_node[msg.dst] = self.drops_by_node.get(msg.dst, 0) + 1

    def _on_arrival(self, event) -> None:
        msg: Message = event.value
        if self._metrics:
            key = (msg.src, msg.dst)
            self._channel_pending[key] -= 1
        handoff_at = self.nics[msg.dst].deliver(msg.size)
        env = self.env
        if handoff_at <= env.now:
            self._handoff(msg)
        else:
            Timeout(env, handoff_at - env.now, msg).callbacks.append(
                self._on_rx_done)

    def _on_rx_done(self, event) -> None:
        self._handoff(event.value)

    def _handoff(self, msg: Message) -> None:
        msg.delivered_at = self.env.now
        self.messages_transferred += 1
        self.bytes_transferred += msg.size
        if self._metrics:
            self._inflight -= 1
            latency = msg.delivered_at - msg.sent_at
            self.latency_total_ns += latency
            # bisect_left(bounds, x) is the first i with x <= bounds[i]
            # (== len(bounds) -> the +Inf overflow slot), in C.
            self.latency_bucket_counts[
                bisect_left(self._latency_bounds, latency)] += 1
        if self._trace_spans:
            # Static span name: Perfetto aggregates all deliveries into
            # one row per dst node; src/size live in args.  This runs
            # once per message, so it allocates the bare minimum: a
            # single flat args tuple, no f-string, no dict.
            self._tracer.complete(
                "net", "msg", msg.sent_at,
                msg.delivered_at - msg.sent_at, tid=msg.dst,
                args=("src", msg.src, "size", msg.size, "kind", msg.kind))
        if self._trace_flows:
            # One arrow per handoff, sender track -> receiver track —
            # deliberately *not* keyed on Message.seq: a duplicated
            # wire copy hands the same Message off twice, and each
            # handoff needs a unique arrow.  The finish binds to the
            # end of the enclosing delivery span (bp:"e"), so in
            # Perfetto the arrow lands on the "msg" slice emitted just
            # above.
            fid = self._tracer.next_flow_id()
            self._tracer.flow_start("net.flow", "msg", msg.sent_at, fid,
                                    tid=msg.src)
            self._tracer.flow_finish("net.flow", "msg", msg.delivered_at,
                                     fid, tid=msg.dst)
        self._deliver_cb(msg)  # type: ignore[misc]
