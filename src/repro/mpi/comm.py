"""Communicators and the per-rank messaging API.

The shape mirrors mpi4py (lower-case object-passing API), adapted to the
simulator's generator style: every potentially blocking call is a
generator you drive with ``yield from``::

    def rank_program(ctx):                 # ctx: RankComm
        yield from ctx.compute(work_ns=1_000_000)
        msg = yield from ctx.sendrecv(dest=right, source=left, size=8192)
        total = yield from ctx.allreduce(size=8)

Costs charged per operation:

* send: LogGP ``o`` + NIC descriptor post, as sender CPU work;
* recv: LogGP ``o`` at completion, as receiver CPU work;
* wire and receiver packet processing: handled by :mod:`repro.net`;
* reductions: ``reduce_cost_per_byte`` ns of CPU per combined byte.

All of that CPU work runs on the node CPU and is therefore stretched by
kernel noise — which is how noise gets *into* the communication path.

Every message, from ``send``, ``sendrecv`` or a collective, goes through
:meth:`RankComm.isend`, which returns a request whose completion event is
already triggered.  ``send`` and ``sendrecv`` yield that event directly;
``sendrecv`` then completes its receive through ``Request.wait``.  Each
yield is an event whose same-instant position can decide whether a
kernel steal lands inside a compute phase, so none may be dropped or
reordered without re-recording the pinned schedule
(``tests/test_event_order.py``; ``docs/PERFORMANCE.md``, "message path").
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from ..errors import MPIError
from ..kernel.node import Node
from ..net.message import Message
from ..net.network import Network
from ..sim import Environment, Event
from .constants import (
    ANY_SOURCE,
    ANY_TAG,
    COLLECTIVE_OPS,
    COLLECTIVE_TAG_BASE,
    COLLECTIVE_TAG_WINDOW,
)
from .matching import MessageRouter
from .request import Request

__all__ = ["Communicator", "MPIWorld", "RankComm"]

#: Stable per-operation offsets inside the collective tag space (the
#: table lives in :mod:`repro.mpi.constants` so tag consumers — the
#: critical-path recorder's :func:`~repro.mpi.constants.op_from_tag` —
#: can invert the layout without importing this module).
_COLL_OPS = COLLECTIVE_OPS
#: Tag sub-slots one collective invocation may use for internal phases.
_PHASES_PER_CALL = 8

#: Machine-wide default algorithm per collective operation.  A
#: :class:`MPIWorld` built with ``collectives={op: name}`` overrides
#: entries; a per-call ``algorithm=`` argument overrides both.
_DEFAULT_ALGORITHMS: dict[str, str] = {
    "barrier": "dissemination",
    "bcast": "binomial",
    "reduce": "binomial",
    "allreduce": "recursive-doubling",
    "gather": "binomial",
    "scatter": "binomial",
    "allgather": "ring",
    "alltoall": "pairwise",
    "scan": "binomial",
    "exscan": "binomial",
    "reduce_scatter": "pairwise",
}


@dataclass(frozen=True)
class Communicator:
    """A process group: mapping from rank to physical node id."""

    comm_id: int
    node_of_rank: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.node_of_rank:
            raise MPIError("communicator must contain at least one rank")
        if len(set(self.node_of_rank)) != len(self.node_of_rank):
            raise MPIError("a node may appear at most once per communicator")

    @property
    def size(self) -> int:
        return len(self.node_of_rank)

    def node(self, rank: int) -> int:
        if not 0 <= rank < len(self.node_of_rank):
            raise MPIError(f"rank {rank} out of range [0, {self.size})")
        return self.node_of_rank[rank]


class MPIWorld:
    """Machine-wide MPI state: router, communicator registry, defaults.

    When ``faults`` is a plan that can lose messages, point-to-point
    traffic is routed through a
    :class:`~repro.faults.ReliableTransport` (ack/timeout/retry with
    exponential backoff) instead of straight onto the wire; otherwise
    the classic zero-overhead connectionless path is wired, bit-
    identical to a fault-free build.
    """

    def __init__(self, env: Environment, network: Network, *,
                 reduce_cost_per_byte: float = 0.25,
                 faults: _t.Any = None, metrics: bool = False,
                 tracer: _t.Any = None, critpath: _t.Any = None,
                 shape: _t.Any = None,
                 collectives: _t.Mapping[str, str] | None = None) -> None:
        self.env = env
        self.network = network
        self.nodes: list[Node] = network.nodes
        self.router = MessageRouter(env, len(self.nodes))
        #: Telemetry gate for :attr:`op_totals` (set from
        #: :mod:`repro.obs` by the machine builder).
        self.metrics = bool(metrics)
        #: Machine-wide op counts (send/recv/collectives by name),
        #: harvested into ``mpi.ops_total`` by :mod:`repro.obs`.
        self.op_totals: dict[str, int] = {}
        #: Span tracer for collective phases (``mpi`` category).
        self.tracer = (tracer if tracer is not None
                       and tracer.enabled("mpi") else None)
        #: Cross-node dependency recorder
        #: (:class:`repro.obs.DependencyRecorder`) — ``None`` unless
        #: critical-path recording is enabled for this machine.
        self.critpath = critpath
        self.transport = None
        if faults is not None and faults.needs_protocol:
            from ..faults import ReliableTransport
            self.transport = ReliableTransport(
                env, network, faults,
                tracer=(tracer if tracer is not None
                        and tracer.enabled("faults") else None),
                recorder=critpath)
            self.transport.attach(self.router.deliver)
        else:
            network.on_deliver(self.router.deliver)
        if reduce_cost_per_byte < 0:
            raise MPIError("reduce_cost_per_byte must be >= 0")
        self.reduce_cost_per_byte = reduce_cost_per_byte
        #: Machine packaging hierarchy (:class:`repro.net.MachineShape`
        #: or ``None``); the two-level collective algorithms group
        #: ranks by it.
        self.shape = shape
        #: Per-operation algorithm overrides (validated eagerly so a
        #: typo fails at machine build, not mid-run).
        self.collectives = dict(collectives) if collectives else {}
        if self.collectives:
            from .collectives import ALGORITHMS, algorithms_for
            for op, name in self.collectives.items():
                if op not in _DEFAULT_ALGORITHMS:
                    raise MPIError(
                        f"unknown collective operation {op!r}; expected one "
                        f"of {sorted(_DEFAULT_ALGORITHMS)}")
                if (op, name) not in ALGORITHMS:
                    raise MPIError(
                        f"unknown {op} algorithm {name!r}; available: "
                        f"{algorithms_for(op)}")
        self._next_comm_id = 1
        #: COMM_WORLD: rank i lives on node i.
        self.world = Communicator(0, tuple(range(len(self.nodes))))

    def algorithm_for(self, op: str) -> str:
        """The algorithm ``op`` runs with when the call site names none."""
        try:
            default = _DEFAULT_ALGORITHMS[op]
        except KeyError:
            raise MPIError(f"unknown collective operation {op!r}") from None
        return self.collectives.get(op, default)

    def send_message(self, msg: Message) -> None:
        """Put one point-to-point message on the wire (via the reliable
        transport when faults demand it)."""
        if self.transport is not None:
            self.transport.send(msg)
        else:
            self.network.inject(msg)

    # -- communicator management ------------------------------------------------
    def create_comm(self, node_ids: _t.Sequence[int]) -> Communicator:
        """A new communicator over the given nodes (rank = list order)."""
        for nid in node_ids:
            if not 0 <= nid < len(self.nodes):
                raise MPIError(f"node id {nid} out of range")
        comm = Communicator(self._next_comm_id, tuple(node_ids))
        self._next_comm_id += 1
        return comm

    def split(self, comm: Communicator, colors: _t.Sequence[int],
              keys: _t.Sequence[int] | None = None) -> dict[int, Communicator]:
        """MPI_Comm_split semantics: one new communicator per color.

        ``colors[r]`` assigns rank ``r`` of ``comm`` to a group
        (negative = rank excluded, as with ``MPI_UNDEFINED``); within a
        group ranks order by ``(keys[r], r)``.  Returns
        ``color -> Communicator``.
        """
        if len(colors) != comm.size:
            raise MPIError(f"need one color per rank ({comm.size}), "
                           f"got {len(colors)}")
        if keys is not None and len(keys) != comm.size:
            raise MPIError("keys must match communicator size")
        groups: dict[int, list[tuple[int, int]]] = {}
        for rank, color in enumerate(colors):
            if color < 0:
                continue
            key = keys[rank] if keys is not None else rank
            groups.setdefault(color, []).append((key, rank))
        out = {}
        for color, members in groups.items():
            members.sort()
            out[color] = self.create_comm(
                [comm.node(rank) for _key, rank in members])
        return out

    def dup(self, comm: Communicator) -> Communicator:
        """A new communicator with the same group but a fresh matching
        scope (messages never cross between the two)."""
        return self.create_comm(list(comm.node_of_rank))

    def rank_context(self, rank: int, comm: Communicator | None = None) -> "RankComm":
        """The messaging handle rank ``rank`` of ``comm`` programs against."""
        comm = comm or self.world
        return RankComm(self, comm, rank)


class RankComm:
    """One rank's view of a communicator (the object rank code uses)."""

    def __init__(self, world: MPIWorld, comm: Communicator, rank: int) -> None:
        if not 0 <= rank < comm.size:
            raise MPIError(f"rank {rank} out of range [0, {comm.size})")
        self.world = world
        self.comm = comm
        self.rank = rank
        #: Ranks in the communicator (fixed: a communicator is immutable).
        self.size = comm.size
        self.node_id = comm.node(rank)
        self.node: Node = world.nodes[self.node_id]
        self._coll_counts: dict[str, int] = {}
        #: Per-rank op statistics (sends, recvs, collectives by name).
        self.op_counts: dict[str, int] = {}

    # -- conveniences ------------------------------------------------------------
    @property
    def env(self) -> Environment:
        return self.world.env

    def compute(self, work_ns: int) -> _t.Generator[Event, object, None]:
        """Application CPU work on this rank's node."""
        return self.node.cpu.compute(work_ns)

    def _count(self, op: str) -> None:
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        if self.world.metrics:
            totals = self.world.op_totals
            totals[op] = totals.get(op, 0) + 1

    # -- point-to-point -------------------------------------------------------------
    def send(self, dest: int, size: int, *, tag: int = 0,
             payload: _t.Any = None) -> _t.Generator[Event, object, None]:
        """Blocking-but-eager send: returns once the message is injected."""
        req = yield from self.isend(dest, size, tag=tag, payload=payload)
        yield req.event

    def isend(self, dest: int, size: int, *, tag: int = 0,
              payload: _t.Any = None) -> _t.Generator[Event, object, Request]:
        """Non-blocking send; the returned request is already complete
        (eager protocol — the simulator models no rendezvous)."""
        self._validate_tag(tag)
        dst_node = self.comm.node(dest)
        self._count("send")
        world = self.world
        yield from self.node.cpu.compute(
            world.network.send_overhead_work(self.node_id))
        world.send_message(Message(src=self.node_id, dst=dst_node, tag=tag,
                                   size=size, comm_id=self.comm.comm_id,
                                   src_rank=self.rank, payload=payload))
        env = world.env
        done = Event(env)
        done.succeed(None)
        return Request(env, done, kind="send")

    def recv(self, source: int = ANY_SOURCE, *,
             tag: int = ANY_TAG) -> _t.Generator[Event, object, Message]:
        """Blocking receive; returns the matched message."""
        req = self.irecv(source, tag=tag)
        msg = yield from req.wait()
        return _t.cast(Message, msg)

    def irecv(self, source: int = ANY_SOURCE, *, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive (posts immediately, no CPU cost yet)."""
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise MPIError(f"recv source {source} out of range")
        self._validate_tag(tag, wildcard=True)
        self._count("recv")
        world = self.world
        ev = world.router.post_recv(self.node_id, self.comm.comm_id,
                                    source, tag)
        return Request(world.env, ev, cpu=self.node.cpu,
                       completion_work=world.network.recv_overhead_work(),
                       kind="recv", recorder=world.critpath,
                       node_id=self.node_id)

    def sendrecv(self, dest: int, source: int, size: int, *,
                 recv_size: int | None = None, tag: int = 0,
                 payload: _t.Any = None) -> _t.Generator[Event, object, Message]:
        """Simultaneous exchange: post the receive, send, then complete."""
        del recv_size  # symmetry hint only; the sender's size governs
        rreq = self.irecv(source, tag=tag)
        sreq = yield from self.isend(dest, size, tag=tag, payload=payload)
        yield sreq.event
        msg = yield from rreq.wait()
        return _t.cast(Message, msg)

    # -- collectives (dispatch into repro.mpi.collectives) ---------------------------
    def _collective(self, opname: str, algorithm: str | None,
                    **kwargs: _t.Any):
        """Count, tag, and dispatch one collective invocation.

        ``algorithm=None`` (every call site's default) resolves through
        the machine-wide table: per-op ``MachineConfig.collectives``
        overrides, else the built-in default.

        When an ``mpi``-category tracer is active the returned
        generator is wrapped so the invocation appears as one span per
        rank (entry to completion, in simulated time) in the Chrome
        trace.
        """
        from . import collectives
        if algorithm is None:
            algorithm = self.world.algorithm_for(opname)
        self._count(opname)
        gen = collectives.run(opname, algorithm, self,
                              self._coll_tag(opname), **kwargs)
        tracer = self.world.tracer
        if tracer is None:
            return gen
        return self._traced_collective(tracer, opname, gen)

    def _traced_collective(self, tracer: _t.Any, opname: str, gen):
        start = self.env.now
        result = yield from gen
        tracer.complete("mpi", opname, start, self.env.now - start,
                        tid=self.node_id, args=("rank", self.rank))
        return result

    def barrier(self, *, algorithm: str | None = None):
        """Synchronize all ranks of the communicator."""
        return self._collective("barrier", algorithm)

    def bcast(self, size: int, *, root: int = 0, payload: _t.Any = None,
              algorithm: str | None = None):
        """Broadcast ``size`` bytes from ``root``; returns the payload."""
        return self._collective("bcast", algorithm, size=size, root=root,
                                payload=payload)

    def reduce(self, size: int, *, root: int = 0, payload: _t.Any = None,
               op: _t.Callable[[_t.Any, _t.Any], _t.Any] | None = None,
               algorithm: str | None = None):
        """Reduce to ``root``; non-roots return ``None``."""
        return self._collective("reduce", algorithm, size=size, root=root,
                                payload=payload, op=op)

    def allreduce(self, size: int, *, payload: _t.Any = None,
                  op: _t.Callable[[_t.Any, _t.Any], _t.Any] | None = None,
                  algorithm: str | None = None):
        """Reduce + distribute; every rank returns the combined payload."""
        return self._collective("allreduce", algorithm, size=size,
                                payload=payload, op=op)

    def gather(self, size: int, *, root: int = 0, payload: _t.Any = None,
               algorithm: str | None = None):
        """Gather per-rank payloads to ``root`` (rank-ordered list)."""
        return self._collective("gather", algorithm, size=size, root=root,
                                payload=payload)

    def scatter(self, size: int, *, root: int = 0,
                payloads: _t.Sequence[_t.Any] | None = None,
                algorithm: str | None = None):
        """Scatter one ``size``-byte block from ``root`` to each rank."""
        return self._collective("scatter", algorithm, size=size, root=root,
                                payloads=payloads)

    def allgather(self, size: int, *, payload: _t.Any = None,
                  algorithm: str | None = None):
        """All ranks end with every rank's block (rank-ordered list)."""
        return self._collective("allgather", algorithm, size=size,
                                payload=payload)

    def alltoall(self, size: int, *, payloads: _t.Sequence[_t.Any] | None = None,
                 algorithm: str | None = None):
        """Personalized exchange: block ``i`` goes to rank ``i``."""
        return self._collective("alltoall", algorithm, size=size,
                                payloads=payloads)

    def scan(self, size: int, *, payload: _t.Any = None,
             op: _t.Callable[[_t.Any, _t.Any], _t.Any] | None = None,
             algorithm: str | None = None):
        """Inclusive prefix reduction: rank r returns op over ranks 0..r."""
        return self._collective("scan", algorithm, size=size,
                                payload=payload, op=op)

    def exscan(self, size: int, *, payload: _t.Any = None,
               op: _t.Callable[[_t.Any, _t.Any], _t.Any] | None = None,
               algorithm: str | None = None):
        """Exclusive prefix reduction (rank 0 returns ``None``)."""
        return self._collective("exscan", algorithm, size=size,
                                payload=payload, op=op)

    def reduce_scatter(self, size: int, *,
                       payloads: _t.Sequence[_t.Any] | None = None,
                       op: _t.Callable[[_t.Any, _t.Any], _t.Any] | None = None,
                       algorithm: str | None = None):
        """Equal-block reduce-scatter: rank i returns the reduction of
        everyone's block i (``size`` = bytes per block)."""
        return self._collective("reduce_scatter", algorithm, size=size,
                                payloads=payloads, op=op)

    # -- internals -----------------------------------------------------------------------
    def _coll_tag(self, op: str) -> int:
        """Base tag for this invocation (each call gets a block of
        :data:`_PHASES_PER_CALL` tags for its internal phases).

        Correct because MPI requires every rank to invoke collectives
        on a communicator in the same order, so per-rank counters agree.
        """
        count = self._coll_counts.get(op, 0)
        self._coll_counts[op] = count + 1
        slot = count % (COLLECTIVE_TAG_WINDOW // _PHASES_PER_CALL)
        op_base = _COLL_OPS.index(op) * COLLECTIVE_TAG_WINDOW
        return COLLECTIVE_TAG_BASE + op_base + slot * _PHASES_PER_CALL

    def _validate_tag(self, tag: int, *, wildcard: bool = False) -> None:
        # Tags at/above COLLECTIVE_TAG_BASE are reserved for collective
        # internals (which reuse this same send path); application code
        # must stay below it, but that is a documented convention — the
        # only hard error is a negative tag, which would collide with
        # the ANY_TAG wildcard.  A receive (``wildcard``) may name
        # ANY_TAG itself; any other negative receive tag could never
        # match a send and would surface only as a distant deadlock.
        if tag < 0 and not (wildcard and tag == ANY_TAG):
            side = "recv" if wildcard else "send"
            raise MPIError(f"{side} tags must be >= 0, got {tag}")

    def reduce_work(self, size: int) -> int:
        """CPU ns to combine two ``size``-byte buffers."""
        return round(self.world.reduce_cost_per_byte * size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RankComm rank={self.rank}/{self.size} comm={self.comm.comm_id}>"
