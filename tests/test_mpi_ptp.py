"""Tests for MPI point-to-point semantics: matching, requests, ordering."""

import pytest

from repro.core import Machine, MachineConfig
from repro.errors import MPIError
from repro.mpi import ANY_SOURCE, ANY_TAG, wait_all


def _machine(n=2, **kw):
    return Machine(MachineConfig(n_nodes=n, **kw))


def _run(machine, *programs):
    """Launch program i on rank i; returns list of return values."""
    procs = []
    for rank, prog in enumerate(programs):
        ctx = machine.mpi.rank_context(rank)
        procs.append(machine.env.process(prog(ctx), name=f"rank{rank}"))
    machine.run_to_completion(procs)
    return [p.value for p in procs]


def test_send_recv_payload_roundtrip():
    m = _machine()

    def sender(ctx):
        yield from ctx.send(1, size=64, tag=5, payload={"x": 42})

    def receiver(ctx):
        msg = yield from ctx.recv(0, tag=5)
        return (msg.payload, msg.src_rank, msg.tag, msg.size)

    _, got = _run(m, sender, receiver)
    assert got == ({"x": 42}, 0, 5, 64)


def test_recv_blocks_until_message():
    m = _machine()

    def sender(ctx):
        yield from ctx.compute(50_000)
        yield from ctx.send(1, size=0)

    def receiver(ctx):
        msg = yield from ctx.recv(0)
        return ctx.env.now

    _, t = _run(m, sender, receiver)
    assert t > 50_000


def test_unexpected_message_queued_until_recv():
    m = _machine()

    def sender(ctx):
        yield from ctx.send(1, size=0, tag=9)

    def receiver(ctx):
        yield from ctx.compute(100_000)  # message arrives while computing
        msg = yield from ctx.recv(0, tag=9)
        return msg.tag

    _, tag = _run(m, sender, receiver)
    assert tag == 9
    assert m.mpi.router.unexpected_arrivals == 1


def test_wildcard_source_and_tag():
    m = _machine(3)

    def sender(ctx):
        yield from ctx.compute(1000 * (ctx.rank + 1))
        yield from ctx.send(2, size=0, tag=ctx.rank + 10)

    def receiver(ctx):
        a = yield from ctx.recv(ANY_SOURCE, tag=ANY_TAG)
        b = yield from ctx.recv(ANY_SOURCE, tag=ANY_TAG)
        return {a.src_rank, b.src_rank}

    got = _run(m, sender, sender, receiver)
    assert got[2] == {0, 1}


def test_tag_selectivity():
    m = _machine()

    def sender(ctx):
        yield from ctx.send(1, size=0, tag=1, payload="first")
        yield from ctx.send(1, size=0, tag=2, payload="second")

    def receiver(ctx):
        msg2 = yield from ctx.recv(0, tag=2)
        msg1 = yield from ctx.recv(0, tag=1)
        return (msg1.payload, msg2.payload)

    _, got = _run(m, sender, receiver)
    assert got == ("first", "second")


def test_non_overtaking_same_tag():
    m = _machine()

    def sender(ctx):
        for i in range(5):
            yield from ctx.send(1, size=0, tag=0, payload=i)

    def receiver(ctx):
        seen = []
        for _ in range(5):
            msg = yield from ctx.recv(0, tag=0)
            seen.append(msg.payload)
        return seen

    _, seen = _run(m, sender, receiver)
    assert seen == [0, 1, 2, 3, 4]


def test_isend_irecv_with_waitall():
    m = _machine()

    def sender(ctx):
        reqs = []
        for i in range(3):
            req = yield from ctx.isend(1, size=8, tag=i, payload=i * 11)
            reqs.append(req)
        yield from wait_all(reqs)

    def receiver(ctx):
        reqs = [ctx.irecv(0, tag=i) for i in range(3)]
        msgs = yield from wait_all(reqs)
        return [m.payload for m in msgs]

    _, got = _run(m, sender, receiver)
    assert got == [0, 11, 22]


def test_request_double_wait_rejected():
    m = _machine()

    def sender(ctx):
        yield from ctx.send(1, size=0)

    def receiver(ctx):
        req = ctx.irecv(0)
        yield from req.wait()
        try:
            yield from req.wait()
        except MPIError:
            return "caught"
        return "no error"

    _, got = _run(m, sender, receiver)
    assert got == "caught"


def test_request_test_polls_without_blocking():
    m = _machine()

    def sender(ctx):
        yield from ctx.compute(10_000)
        yield from ctx.send(1, size=0)

    def receiver(ctx):
        req = ctx.irecv(0)
        early = req.test()
        yield from ctx.compute(100_000)
        late = req.test()
        yield from req.wait()
        return (early, late)

    _, got = _run(m, sender, receiver)
    assert got == (False, True)


def test_sendrecv_exchanges_simultaneously():
    m = _machine()

    def prog(ctx):
        other = 1 - ctx.rank
        msg = yield from ctx.sendrecv(other, other, size=8,
                                      payload=f"from{ctx.rank}")
        return msg.payload

    got = _run(m, prog, prog)
    assert got == ["from1", "from0"]


def test_send_pays_loggp_overhead():
    m = _machine(2, network="gige")  # o = 5 us
    o = m.mpi.network.params.o

    def sender(ctx):
        t0 = ctx.env.now
        yield from ctx.send(1, size=0)
        return ctx.env.now - t0

    def receiver(ctx):
        yield from ctx.recv(0)

    elapsed, _ = _run(m, sender, receiver)
    assert elapsed >= o


def test_invalid_ranks_and_tags_rejected():
    m = _machine()
    ctx = m.mpi.rank_context(0)
    with pytest.raises(MPIError):
        ctx.irecv(source=5)
    with pytest.raises(MPIError):
        m.mpi.rank_context(9)
    # A negative receive tag other than ANY_TAG could never match a send.
    with pytest.raises(MPIError, match="recv tags must be >= 0"):
        ctx.irecv(1, tag=-2)
    with pytest.raises(MPIError, match="recv tags must be >= 0"):
        next(ctx.sendrecv(1, 1, size=0, tag=-5))
    ctx.irecv(1, tag=ANY_TAG)  # the wildcard stays legal

    def bad_send(ctx):
        yield from ctx.send(1, size=0, tag=-2)

    m2 = _machine()
    m2.env.process(bad_send(m2.mpi.rank_context(0)))
    with pytest.raises(MPIError):
        m2.run()


def test_negative_receive_tag_fails_at_the_call_not_as_deadlock():
    m = _machine()

    def sender(ctx):
        yield from ctx.send(1, size=0, tag=3)

    def receiver(ctx):
        yield from ctx.recv(0, tag=-3)

    procs = [m.env.process(sender(m.mpi.rank_context(0))),
             m.env.process(receiver(m.mpi.rank_context(1)))]
    with pytest.raises(MPIError, match="recv tags must be >= 0"):
        m.run_to_completion(procs)


def test_every_message_goes_through_isend(monkeypatch):
    """Traced runs count sends by wrapping ``RankComm.isend``: on a
    fault-free fabric each call is exactly one delivered message, for
    ``send``, ``sendrecv`` and collectives alike."""
    from repro.mpi.comm import RankComm

    calls = []
    isend = RankComm.isend

    def counting_isend(self, *args, **kwargs):
        calls.append(self.rank)
        return isend(self, *args, **kwargs)

    monkeypatch.setattr(RankComm, "isend", counting_isend)
    n = 4
    m = _machine(n)

    def prog(ctx):
        right, left = (ctx.rank + 1) % n, (ctx.rank - 1) % n
        if ctx.rank % 2 == 0:
            yield from ctx.send(right, size=64, tag=1)
            yield from ctx.recv(left, tag=1)
        else:
            yield from ctx.recv(left, tag=1)
            yield from ctx.send(right, size=64, tag=1)
        yield from ctx.sendrecv(right, left, size=128, tag=2)
        yield from ctx.allreduce(8, payload=ctx.rank)
        yield from ctx.bcast(32, root=1, payload="x")

    _run(m, *[prog] * n)
    transferred = m.mpi.network.messages_transferred
    assert transferred > 3 * n  # ring + exchange + collective traffic
    assert len(calls) == transferred


def test_deadlock_detected_for_unmatched_recv():
    from repro.errors import DeadlockError
    m = _machine()

    def receiver(ctx):
        yield from ctx.recv(0)  # nobody ever sends

    m.env.process(receiver(m.mpi.rank_context(1)))
    with pytest.raises(DeadlockError):
        m.run()


def test_communicator_subsets():
    m = _machine(4)
    comm = m.mpi.create_comm([2, 3])
    assert comm.size == 2
    assert comm.node(0) == 2

    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, size=0, payload="sub")
            return None
        msg = yield from ctx.recv(0)
        return msg.payload

    procs = m.launch(prog, comm=comm)
    m.run_to_completion(procs)
    assert procs[1].value == "sub"


def test_communicator_validation():
    m = _machine(4)
    with pytest.raises(MPIError):
        m.mpi.create_comm([0, 0])
    with pytest.raises(MPIError):
        m.mpi.create_comm([9])
    with pytest.raises(MPIError):
        m.mpi.create_comm([])


def test_messages_between_comms_do_not_cross():
    m = _machine(2)
    sub = m.mpi.create_comm([0, 1])

    def sender(ctx_world, ctx_sub):
        yield from ctx_world.send(1, size=0, tag=0, payload="world")
        yield from ctx_sub.send(1, size=0, tag=0, payload="sub")

    def receiver(ctx_world, ctx_sub):
        sub_msg = yield from ctx_sub.recv(0, tag=0)
        world_msg = yield from ctx_world.recv(0, tag=0)
        return (sub_msg.payload, world_msg.payload)

    w0, s0 = m.mpi.rank_context(0), m.mpi.rank_context(0, sub)
    w1, s1 = m.mpi.rank_context(1), m.mpi.rank_context(1, sub)
    m.env.process(sender(w0, s0))
    p = m.env.process(receiver(w1, s1))
    m.run_to_completion([p])
    assert p.value == ("sub", "world")
