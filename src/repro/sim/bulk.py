"""Bulk-rank fast path: advance homogeneous ranks as numpy arrays.

The per-rank generator path costs O(P) Python frames *per round* of a
collective, which caps noise-amplification experiments near a few
hundred ranks.  When every rank runs the same program (the collective
microbenchmark), the machine is lightweight (no intrinsic kernel
activity, no host NIC processing), and the injected noise is strictly
periodic, the whole simulation state per rank collapses to a handful
of int64 scalars:

* ``t``          — the rank's CPU clock;
* ``tx_free``    — its NIC's next free transmit slot;
* ``rx_free``    — its NIC's next free receive slot;
* per-(src, dst) channel clearance for the FIFO guarantee.

:class:`BulkEngine` advances those arrays over an explicit *round
list* (the collective's dependency structure, built by
:mod:`repro.mpi.collectives.bulk`), replaying exactly the arithmetic
of the generator path — LogGP costs, NIC serialization, per-channel
FIFO bumps, the in-frame resume rule, and the noise wall-time
inverse — so results are **byte-identical** to the per-rank simulation
wherever both run.  The equivalence tests enforce this; any change to
the message timeline in :mod:`repro.net` or :mod:`repro.mpi` must be
mirrored here.

The engine schedules no DES events, so an order-sensitive ``det_check``
checksum cannot exist for it; instead it emits a deterministic
timeline checksum over every rank's per-repetition start/end clocks
(:func:`timeline_checksum`), which the generator path can reproduce
from its recorded finish times for cross-path comparison.
"""

from __future__ import annotations

import hashlib
import typing as _t
from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError

__all__ = ["BulkDivergence", "RoundSpec", "BulkEngine", "BulkTimeline",
           "timeline_checksum", "timelines_from_finish"]

#: Receive-slot history depth per rank.  An out-of-order arrival can
#: only be reconciled against slots still in the window; the deepest
#: realistic reorder spans the rounds of one repetition (noise delays a
#: subtree by at most a few events), far below this.
_HISTORY = 32

#: Fields of one booked receive slot (rows of the slot history).
_ARR, _START, _RESUME, _TS, _SSTART = range(5)

#: Iteration cap for the per-repetition arrival fixpoint.  Collision
#: cascades settle in 2–4 iterations in practice; hitting the cap means
#: the timing equations oscillate, which only the DES can resolve.
_MAX_FIXPOINT = 32

#: Per-receiver-group offset for the segmented running-max trick in the
#: slot sweep (large enough to dominate any clock value, small enough
#: that n_ranks * _BIG stays inside int64).
_BIG = 1 << 40


class BulkDivergence(SimulationError):
    """The bulk path's ordering assumptions broke for this workload.

    The one piece of DES state the engine cannot always reconstruct is
    the receive-NIC serialization order: the DES serves arrivals at a
    rank in *global time* order, the engine in *round* order.
    Out-of-order arrivals (a delayed subtree's message landing after a
    later round's) are handled exactly through the per-rank slot
    history — unless two arrivals at one rank either coincide to the
    nanosecond (the DES breaks that tie by event sequence number,
    which only the event simulation knows) or their NIC slots collide.
    Then this is raised; rerun with the generator path
    (``mode="generator"``).  The static shape gates in
    :func:`repro.mpi.collectives.bulk.unsupported_reason` exclude the
    configurations where such ties are structural.
    """


@dataclass(frozen=True)
class RoundSpec:
    """One dependency round of a collective.

    Every listed sender posts its receive (free), pays send overhead,
    and injects one message to its destination; every destination then
    completes its receive (at most one message per destination per
    round), pays receive overhead, and optionally the reduction cost.
    A rank appearing in both ``senders`` and ``dst`` models a
    ``sendrecv`` (send before receive, the generator's program order).
    """

    #: Ranks sending this round (int64, no duplicates).
    senders: np.ndarray
    #: senders[i] sends to dst[i] (int64; no rank appears twice).
    dst: np.ndarray
    #: Message size in bytes.
    size: int
    #: Reduction CPU ns each receiver pays after recv overhead (0 = none).
    combine_work: int = 0


@dataclass(frozen=True)
class BulkTimeline:
    """Per-rank clocks around each timed repetition."""

    #: (reps, P) rank clock when the rep's aligning barrier finished.
    starts: np.ndarray
    #: (reps, P) rank clock when the rep's collective finished.
    ends: np.ndarray

    @property
    def times_ns(self) -> np.ndarray:
        """Per-rep completion time: max end minus min start (ns)."""
        return (self.ends.max(axis=1) - self.starts.min(axis=1)).astype(np.int64)

    def checksum(self) -> int:
        return timeline_checksum(self.starts, self.ends)


def timeline_checksum(starts: np.ndarray, ends: np.ndarray) -> int:
    """Deterministic checksum of the full (reps, P) timeline pair."""
    h = hashlib.sha256()
    for arr in (starts, ends):
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return int.from_bytes(h.digest()[:8], "little")


def timelines_from_finish(finish: _t.Sequence[_t.Mapping[int, tuple[int, int]]],
                          n_ranks: int) -> BulkTimeline:
    """Adapt the generator path's recorded finish times to arrays.

    ``finish[rep][rank] == (start, end)`` as the collective
    microbenchmark records it; used by the equivalence tests to
    compare both paths element-for-element.
    """
    reps = len(finish)
    starts = np.empty((reps, n_ranks), dtype=np.int64)
    ends = np.empty((reps, n_ranks), dtype=np.int64)
    for rep, per_rank in enumerate(finish):
        for rank in range(n_ranks):
            starts[rep, rank], ends[rep, rank] = per_rank[rank]
    return BulkTimeline(starts, ends)


def _unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` by sorting: numpy 2's default hash path is ~25x
    slower on a large round list's int64 edge keys."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


@dataclass
class _CompiledRound:
    """A :class:`RoundSpec` bound to one engine's channel table."""

    spec: RoundSpec
    #: src * P + dst per message — stable identity of each channel.
    key: np.ndarray
    #: Positions of ``key`` in the engine's edge table, valid while
    #: ``version`` matches the engine's; rebound lazily after merges.
    eidx: np.ndarray
    version: int
    #: Wire time plus the per-pair topology cost of each message.
    wire: np.ndarray


class _BulkNoise:
    """Vectorized mirror of the per-node noise sources.

    ``period == 0`` models the quiet machine (every node NullNoise);
    otherwise node ``i`` runs ``PeriodicNoise(period, duration,
    phase=phases[i])``.  :meth:`wall` is
    :meth:`repro.noise.PeriodicNoise.wall_time`'s closed-form inverse of
    the idle clock, element for element.
    """

    def __init__(self, period: int, duration: int,
                 phases: np.ndarray | None) -> None:
        self.period = int(period)
        self.duration = int(duration)
        self.phases = phases

    def wall_cached(self, start: np.ndarray, work: int,
                    lanes: np.ndarray, cache: dict) -> np.ndarray:
        """:meth:`wall`, memoized on the previous call's inputs.

        The per-repetition fixpoint re-evaluates the same rounds with
        mostly-identical clocks; only lanes whose ``start`` changed
        since the cached evaluation are recomputed.
        """
        prev = cache.get(work)
        if prev is None or len(prev[0]) != len(start):
            out = self.wall(start, work, lanes)
            cache[work] = (start.copy(), out.copy())
            return out
        p_start, p_out = prev
        diff = p_start != start
        if not diff.any():
            return p_out.copy()
        out = p_out.copy()
        out[diff] = self.wall(start[diff], work, lanes[diff])
        p_start[:] = start
        p_out[:] = out
        return out

    def wall(self, start: np.ndarray, work: int,
             lanes: np.ndarray) -> np.ndarray:
        """Wall-clock ns for ``work`` ns of CPU on ranks ``lanes``
        starting at ``start`` (parallel arrays)."""
        if work == 0 or self.phases is None:
            return np.full(start.shape, work, dtype=np.int64)
        # int64 floor division matches Python's for negative operands,
        # so every intermediate is bit-equal to the scalar path.
        period, duration = self.period, self.duration
        gap = period - duration
        phase = self.phases[lanes]
        k, r = np.divmod(start - phase, period)
        k, rem = np.divmod(k * gap + np.maximum(r - duration, 0) + work, gap)
        end = phase + k * period + np.where(rem > 0, duration + rem, 0)
        return end - start


class BulkEngine:
    """Array-at-a-time executor for homogeneous collective rounds.

    Parameters
    ----------
    n_ranks:
        World size (rank ``i`` lives on node ``i`` — COMM_WORLD only).
    params:
        :class:`repro.net.LogGPParams` (``jitter_ns`` must be 0).
    topology:
        Pair extra-cost provider (:meth:`Topology.extra_cost_vec`).
    noise:
        ``(period, duration, phases)`` from
        :meth:`repro.noise.InjectionPlan.periodic_profile`, or ``None``
        for a quiet machine.  A periodic profile without its phases
        raises :class:`SimulationError`.
    reduce_cost_per_byte:
        As on :class:`repro.core.MachineConfig`.
    """

    def __init__(self, n_ranks: int, params, topology,
                 noise: tuple | None = None, *,
                 reduce_cost_per_byte: float = 0.25,
                 tie_break: str = "strict") -> None:
        if n_ranks <= 0:
            raise SimulationError("bulk engine needs n_ranks > 0")
        if params.jitter_ns:
            raise SimulationError("bulk engine does not model wire jitter")
        if tie_break not in ("strict", "deterministic"):
            raise SimulationError(
                f"tie_break must be strict|deterministic, got {tie_break!r}")
        self.P = n_ranks
        #: ``"strict"`` raises on exact-nanosecond arrival ties whose
        #: DES order is unknowable; ``"deterministic"`` resolves them in
        #: round order (deterministic, but may deviate from the event
        #: path by up to ``g`` ns per tie — for scales the generator
        #: cannot reach).  :attr:`tie_breaks` counts such resolutions.
        self.tie_break = tie_break
        self.tie_breaks = 0
        #: Repetitions that needed the arrival-fixpoint rescue.
        self.fixpoint_reps = 0
        self._sticky_fixpoint = False
        self.params = params
        self.topology = topology
        self.reduce_cost_per_byte = reduce_cost_per_byte
        period, duration, phases = noise or (0, 0, None)
        if period and phases is None:
            # _BulkNoise would run it as a quiet machine.
            raise SimulationError(
                "periodic noise profile carries no per-rank phases; "
                "draw it with InjectionPlan.periodic_profile")
        self.noise = _BulkNoise(period, duration, phases)
        #: Rank CPU clocks.
        self.t = np.zeros(n_ranks, dtype=np.int64)
        #: NIC serialization state (NIC._tx_free_at / _rx_free_at).
        self.tx_free = np.zeros(n_ranks, dtype=np.int64)
        self.rx_free = np.zeros(n_ranks, dtype=np.int64)
        #: Latest (time-max) booked arrival per rank.
        self.rx_last = np.full(n_ranks, -1, dtype=np.int64)
        #: Recent receive slots per rank (circular, booking order):
        #: field ``f`` (``_ARR`` ... ``_SSTART``) of rank ``r``'s slot
        #: ``c`` sits at ``_hist[f, c * n_ranks + r]``, so a round whose
        #: receivers share a cursor writes contiguous runs.  Empty
        #: entries read as an arrival of -1 with slot end 0 — exactly
        #: the NIC's initial free time — so they act as the "no
        #: predecessor yet" boundary.  Only the strict pass reads it,
        #: so it goes stale (unrestored) at the first divergence.
        self._hist = np.zeros((5, _HISTORY * n_ranks), dtype=np.int64)
        self._hist[_ARR] = -1
        self._hist[_START] = -params.g
        self._hist_cur = np.zeros(n_ranks, dtype=np.intp)
        #: Scratch for prepare()'s duplicate-destination check.
        self._mark = np.empty(n_ranks, dtype=np.intp)
        #: Channel FIFO clearance, keyed by compacted edge index.
        self._edge_keys: np.ndarray | None = None
        self._chan: np.ndarray | None = None
        #: Bumped whenever a prepare() merge re-indexes _edge_keys, so
        #: earlier compiled rounds rebind their edge slots before use.
        self._edge_version = 0

    # -- round preparation -------------------------------------------------
    def prepare(self, rounds: _t.Sequence[RoundSpec]) -> list["_CompiledRound"]:
        """Precompute per-round constants for a round list.

        Per round: the sender→edge-slot mapping for the FIFO state and
        each message's wire time plus per-pair extra cost.  The compiled
        form is reusable across repetitions (the rounds repeat; only the
        clocks move) and across later ``prepare`` calls — new edges
        re-index the channel table, and previously compiled rounds
        rebind lazily.
        """
        keys = [r.senders * self.P + r.dst for r in rounds]
        all_keys = _unique(np.concatenate(keys) if keys
                           else np.empty(0, dtype=np.int64))
        if self._edge_keys is None:
            self._edge_keys = all_keys
            self._chan = np.full(len(all_keys), -1, dtype=np.int64)
        else:
            merged = _unique(np.concatenate([self._edge_keys, all_keys]))
            if len(merged) != len(self._edge_keys):
                # Merge newly seen edges, carrying existing clearances
                # over.  Slot positions shift, so older compiled rounds
                # must rebind.
                chan = np.full(len(merged), -1, dtype=np.int64)
                chan[np.searchsorted(merged, self._edge_keys)] = self._chan
                self._edge_keys = merged
                self._chan = chan
                self._edge_version += 1
        compiled = []
        for r, key in zip(rounds, keys):
            # O(messages) duplicate check: a repeated destination keeps
            # only one of its message indices in the scratch array.
            idx = np.arange(len(r.dst))
            self._mark[r.dst] = idx
            if not np.array_equal(self._mark[r.dst], idx):
                raise SimulationError(
                    "bulk round has multiple messages to one destination")
            compiled.append(_CompiledRound(
                spec=r,
                key=key,
                eidx=np.searchsorted(self._edge_keys, key),
                version=self._edge_version,
                wire=(self.params.wire_time(r.size, 0)
                      + self.topology.extra_cost_vec(r.senders, r.dst,
                                                     r.size))))
        return compiled

    # -- execution ----------------------------------------------------------
    def _send_phase(self, cr: "_CompiledRound", wall_cache: dict | None = None):
        """Pay send overhead and inject every message of one round.

        Returns ``(arrival, ts, start)`` per message: wire arrival at
        the destination, the send instant (post-overhead clock), and
        the sender's pre-overhead clock — the two tie-break keys the
        receive side needs.
        """
        if cr.version != self._edge_version:
            cr.eidx = np.searchsorted(self._edge_keys, cr.key)
            cr.version = self._edge_version
        eidx = cr.eidx
        o = self.params.o
        t, noise = self.t, self.noise
        s = cr.spec.senders

        # Pay LogGP o as CPU work (noise-stretched), then inject
        # through the tx NIC and the wire.
        start = t[s]
        if wall_cache is None:
            ts = start + noise.wall(start, o, s)
        else:
            ts = start + noise.wall_cached(start, o, s, wall_cache)
        departure = np.maximum(ts, self.tx_free[s])
        self.tx_free[s] = departure + self.params.g
        # FIFO per channel: strictly increasing arrivals (the DES bumps
        # a would-be tie to prev+1; max() is identical since clearances
        # only ever grow).
        arrival = np.maximum(departure + cr.wire, self._chan[eidx] + 1)
        self._chan[eidx] = arrival
        t[s] = ts
        return arrival, ts, start

    def run_round(self, compiled_round: "_CompiledRound") -> None:
        """Advance the machine through one compiled round.

        Strict pass only: the slot history it reads is not kept once
        a repetition has diverged into the arrival fixpoint, so a call
        after that raises :class:`SimulationError`.
        """
        if self._sticky_fixpoint:
            raise SimulationError(
                "run_round after the arrival fixpoint took over: the "
                "strict pass's slot history is stale")
        r = compiled_round.spec
        o = self.params.o
        t, noise = self.t, self.noise
        d = r.dst

        arrival, ts, start = self._send_phase(compiled_round)

        # Receive side.  The DES serializes each rank's rx NIC in
        # *global arrival* order; this engine books slots in *round*
        # order.  The two agree directly while arrivals at a rank are
        # increasing (the common case — fully vectorized); an
        # out-of-order arrival (a noise-delayed subtree's message
        # landing after a later round's) is reconciled against the
        # rank's slot history, which either reproduces the DES slot
        # exactly or raises BulkDivergence when it genuinely depends on
        # the DES tie-break.  Destinations are unique within a round,
        # so message order does not matter.
        rx_start = np.maximum(arrival, self.rx_free[d])
        fresh = arrival > self.rx_last[d]
        in_order = fresh.all()
        if not in_order:
            late = np.nonzero(~fresh)[0]
            rx_start[late] = self._late_slots(d[late], arrival[late],
                                              ts[late], start[late])
        # Handoff == rx_start (no host NIC processing on the machines
        # the bulk path admits); the receiver resumes at
        # max(own clock, handoff) — the in-frame resume rule — then
        # pays LogGP o, then any reduction work.
        resume = np.maximum(t[d], rx_start)
        self._book(d, arrival, rx_start, resume, ts, start)
        if in_order:
            self.rx_last[d] = arrival
            self.rx_free[d] = rx_start + self.params.g
        else:
            # Late slots leave rx_last and rx_free as they are (a tie
            # with the latest arrival already moved rx_free).
            self.rx_last[d[fresh]] = arrival[fresh]
            self.rx_free[d[fresh]] = rx_start[fresh] + self.params.g
        done = resume + noise.wall(resume, o, d)
        if r.combine_work:
            done = done + noise.wall(done, r.combine_work, d)
        t[d] = done

    # -- rx NIC slot bookkeeping -------------------------------------------
    def _book(self, ranks: np.ndarray, arr: np.ndarray, rx_start: np.ndarray,
              resume: np.ndarray, ts: np.ndarray,
              sstart: np.ndarray) -> None:
        """Record one round's slots in the circular history (ranks are
        unique within a round, so the writes never collide)."""
        cur = self._hist_cur[ranks]
        flat = cur * self.P + ranks
        for field, values in zip(self._hist,
                                 (arr, rx_start, resume, ts, sstart)):
            field[flat] = values
        self._hist_cur[ranks] = (cur + 1) % _HISTORY

    def _late_slots(self, dd: np.ndarray, a: np.ndarray, ts: np.ndarray,
                    sstart: np.ndarray) -> np.ndarray:
        """DES-exact rx slots for arrivals at or before ``rx_last[dd]``.

        In global time order each message slots between a predecessor
        and a successor that the engine has already booked.  Its slot
        start is ``max(a, predecessor end)`` — bit-equal to what the
        DES computed when it served this arrival — *provided* inserting
        it does not move any already-booked slot, i.e. the slot ends at
        or before the nearest successor's *arrival*.  An arrival equal
        to a booked one goes to :meth:`_tied_slot`; anything the
        history cannot settle raises :class:`BulkDivergence`.
        """
        g = self.params.g
        ha = self._hist[_ARR].reshape(_HISTORY, self.P)[:, dd]
        hs = self._hist[_START].reshape(_HISTORY, self.P)[:, dd]
        tied = (ha == a).any(axis=0)
        if (~tied & (a == self.rx_last[dd])).any():
            raise BulkDivergence(
                "arrival ties a slot evicted from the rank's history; "
                "rerun with the per-rank generator path")
        pred = ha < a
        real = ha >= 0
        if (~tied & real.all(axis=0) & ~(real & pred).any(axis=0)).any():
            raise BulkDivergence(
                "arrival reordered past the rank's retained slot "
                "history; rerun with the per-rank generator path")
        # Empty entries are predecessors (-1 < a), so every column has one.
        pred_end = np.where(pred, hs, np.iinfo(np.int64).min).max(axis=0) + g
        succ = ha > a
        succ_arr = np.where(
            succ.any(axis=0),
            np.where(succ, ha, np.iinfo(np.int64).max).min(axis=0),
            self.rx_last[dd])
        handoff = np.maximum(a, pred_end)
        if (~tied & (handoff + g > succ_arr)).any():
            raise BulkDivergence(
                "receive-NIC slot collision between reordered arrivals; "
                "rerun with the per-rank generator path")
        for i in np.nonzero(tied)[0]:
            handoff[i] = self._tied_slot(int(dd[i]), int(a[i]), int(ts[i]),
                                         int(sstart[i]))
        return handoff

    def _tied_slot(self, dd: int, a: int, ts: int, sstart: int) -> int:
        """Rx slot for an arrival equal to one already booked at ``dd``.

        An exact-nanosecond tie with a booked arrival is served in DES
        event-sequence order, which equals arrival-event *creation*
        order: the chronological order of the two ``inject`` calls, a
        thing the engine knows (the send instants).  A tie is therefore
        resolvable when the partner was sent strictly first (the
        engine's booking order already matches the DES) — and even with
        the send order unknown or inverted it is still benign when
        neither resume depends on the slot assignment, because the slot
        *set* ``{s, s+g}`` is the same either way.  An inverted
        consequential tie arrives too late to fix (the partner's resume
        already propagated), and an equal-instant consequential tie is
        unknowable; both raise.
        """
        hist = self._hist[:, dd::self.P]
        ha = hist[_ARR]
        g = self.params.g
        tie = np.nonzero(ha == a)[0]
        if len(tie) > 1:
            raise BulkDivergence(
                "three-way simultaneous arrival at one rank; the DES "
                "tie-break is only reproducible on the generator path")
        _a1, s1, r1, ts1, sst1 = (int(v) for v in hist[:, tie[0]])
        t_now = int(self.t[dd])
        # Benign iff swapping the two slots changes neither resume:
        # the partner's (r1) and this rank's clock (t_now) must both
        # already sit at/after the later slot s1 + g.
        benign = g == 0 or (r1 >= s1 + g and t_now >= s1 + g)
        # DES order for equal arrivals = arrival-event creation order:
        # the send instants, or — when those also tie — the creation
        # instants of the send-overhead compute events (each sender's
        # pre-overhead clock).
        des_first = ts1 < ts or (ts1 == ts and sst1 < sstart)
        if not (benign or des_first):
            raise BulkDivergence(
                "consequential simultaneous arrivals at one rank "
                "with no earlier-send order to break the tie; the "
                "per-rank generator path reproduces the DES order")
        handoff = s1 + g
        succ = ha > a
        if succ.any() and handoff + g > int(ha[succ].min()):
            raise BulkDivergence(
                "receive-NIC slot collision behind a tied arrival; "
                "rerun with the per-rank generator path")
        if a == self.rx_last[dd]:
            # The partner held the latest slot; this one now does.
            self.rx_free[dd] = max(int(self.rx_free[dd]), handoff + g)
        return handoff

    # -- repetition-level arrival fixpoint -----------------------------------
    def _snapshot(self) -> tuple:
        """The state a repetition's rounds move, except the strict
        pass's slot history and ``rx_last``: a restore happens only on
        the way into the fixpoint, which never reads them."""
        return (self.t.copy(), self.tx_free.copy(), self.rx_free.copy(),
                self._chan.copy())

    def _restore(self, snap: tuple) -> None:
        for dst, src in zip((self.t, self.tx_free, self.rx_free,
                             self._chan), snap):
            dst[:] = src

    def _sweep(self, m_recv: np.ndarray, table: np.ndarray,
               rx_free0: np.ndarray):
        """Serve a repetition's predicted arrivals in DES NIC order.

        Sorts every message by (receiver, arrival, send instant, send
        start) — the DES's receive-serialization order, with lexsort
        stability supplying round order for full ties — and computes
        each message's slot start ``h_i = max(a_i, h_{i-1} + g)`` per
        receiver via a segmented running max, seeded with the NIC's
        free time at repetition start.
        """
        a, ts, ss = table
        g = self.params.g
        if int(a.max()) < (1 << 44):
            # Pack (receiver, arrival) into one 63-bit key so a single
            # stable argsort replaces the 4-key lexsort (the dominant
            # fixpoint cost at 100k ranks); only the rare equal-arrival
            # runs then need the (ts, ss) refinement.
            comp = (m_recv << 44) + a
            order = np.argsort(comp, kind="stable")
            cs = comp[order]
            eq = cs[1:] == cs[:-1]
            if eq.any():
                dup = np.zeros(len(cs), dtype=bool)
                dup[1:] = eq
                dup[:-1] |= eq
                pos = np.nonzero(dup)[0]
                sel = order[pos]
                # Stable: equal (ts, ss) within a run keeps round order.
                sub = np.lexsort((ss[sel], ts[sel], cs[pos]))
                order[pos] = sel[sub]
                sel = order[pos]
                run = cs[pos][1:] == cs[pos][:-1]
                self._note_full_ties(run & (ts[sel][1:] == ts[sel][:-1])
                                     & (ss[sel][1:] == ss[sel][:-1]))
            ra = a[order]
            recv = m_recv[order]
            same = recv[1:] == recv[:-1]
        else:
            order = np.lexsort((ss, ts, a, m_recv))
            ra = a[order]
            recv = m_recv[order]
            same = recv[1:] == recv[:-1]
            self._note_full_ties(same & (ra[1:] == ra[:-1])
                                 & (ts[order][1:] == ts[order][:-1])
                                 & (ss[order][1:] == ss[order][:-1]))
        new_grp = np.empty(len(ra), dtype=bool)
        new_grp[0] = True
        new_grp[1:] = ~same
        gstart = np.nonzero(new_grp)[0]
        gid = np.cumsum(new_grp) - 1
        idx_in_g = np.arange(len(ra)) - gstart[gid]
        v = ra - idx_in_g * g
        v[gstart] = np.maximum(v[gstart], rx_free0[recv[gstart]])
        u = np.maximum.accumulate(v + gid * _BIG) - gid * _BIG
        h = u + idx_in_g * g
        return order, recv, h, gstart

    def _note_full_ties(self, full_tie: np.ndarray) -> None:
        if full_tie.any():
            if self.tie_break == "strict":
                raise BulkDivergence(
                    "exact-nanosecond arrival tie with equal send "
                    "instants; the DES order is unknowable outside the "
                    "event path (tie_break='deterministic' resolves in "
                    "round order)")
            self.tie_breaks += int(full_tie.sum())

    def _rep_fixpoint(self, barrier_c: list, coll_c: list,
                      snap: tuple) -> np.ndarray:
        """Run one repetition exactly by iterating arrivals to fixpoint.

        The strict pass books receive slots in round order and raises
        when the DES's *time*-order serving would differ in a way it
        cannot reconstruct (sub-``g`` slot collisions between reordered
        arrivals, reorders past the history window, three-way ties).
        This rescue path restarts the repetition from ``snap`` with the
        full arrival table of the previous attempt as a *prediction*:
        every receive slot is assigned by serving the predicted
        arrivals in global time order (:meth:`_sweep`), the repetition
        is re-run against those slots, and the produced arrivals are
        compared to the prediction.  When they agree the slot table is
        self-consistent with the true arrivals — byte-identical to the
        DES — and each receiver's last slot sets its NIC free time.
        Returns the per-rank clocks after the aligning barrier (the
        repetition's start stamps).
        """
        rounds = list(barrier_c) + list(coll_c)
        n_barrier = len(barrier_c)
        o = self.params.o
        g = self.params.g
        rx_free0 = snap[2]
        m_recv = np.concatenate([cr.spec.dst for cr in rounds])
        sizes = [len(cr.spec.dst) for cr in rounds]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        n_msg = int(offsets[-1])
        predicted = None
        slot_h = None
        caches = [({}, {}) for _ in rounds]
        for _ in range(_MAX_FIXPOINT):
            self._restore(snap)
            actual = np.empty((3, n_msg), dtype=np.int64)
            mid = self.t.copy()
            for ri, cr in enumerate(rounds):
                send_cache, recv_cache = caches[ri]
                arrival, ts, start = self._send_phase(cr, send_cache)
                lo, hi = int(offsets[ri]), int(offsets[ri + 1])
                actual[0, lo:hi] = arrival
                actual[1, lo:hi] = ts
                actual[2, lo:hi] = start
                d = cr.spec.dst
                if slot_h is None:
                    # Seed iteration: crude round-order booking, only
                    # to produce a first arrival prediction.
                    rx_start = np.maximum(arrival, self.rx_free[d])
                    self.rx_free[d] = rx_start + g
                else:
                    rx_start = slot_h[lo:hi]
                resume = np.maximum(self.t[d], rx_start)
                done = resume + self.noise.wall_cached(resume, o, d,
                                                       recv_cache)
                if cr.spec.combine_work:
                    done = done + self.noise.wall_cached(
                        done, cr.spec.combine_work, d, recv_cache)
                self.t[d] = done
                if ri == n_barrier - 1:
                    mid = self.t.copy()
            if (slot_h is not None
                    and np.array_equal(actual, predicted)):
                last = np.append(gstart[1:], len(recv)) - 1
                self.rx_free[recv[last]] = h[last] + g
                # tie_breaks counts the converged table's ties twice,
                # once as the prediction and once as the committed
                # table: the figure E17 reports.
                self.tie_breaks += served_ties
                return mid
            predicted = actual
            ties = self.tie_breaks
            order, recv, h, gstart = self._sweep(m_recv, predicted, rx_free0)
            served_ties = self.tie_breaks - ties
            slot_h = np.empty(n_msg, dtype=np.int64)
            slot_h[order] = h
        raise BulkDivergence(
            "arrival times failed to reach a fixpoint; the collision "
            "cascade only settles on the event path")

    def run_benchmark(self, barrier_rounds: _t.Sequence[RoundSpec],
                      coll_rounds: _t.Sequence[RoundSpec], *,
                      repetitions: int, gap_ns: int) -> BulkTimeline:
        """The collective microbenchmark's rank program, vectorized.

        Per repetition: aligning barrier, timestamp, the collective,
        timestamp, idle gap — mirroring
        :meth:`repro.microbench.CollectiveBenchmark._program`.  A
        repetition whose strict round-order pass cannot reproduce the
        DES receive serialization is re-run through the exact arrival
        fixpoint (:meth:`_rep_fixpoint`); once one repetition needs it,
        later ones skip the doomed strict attempt.
        """
        barrier_c = self.prepare(barrier_rounds)
        coll_c = self.prepare(coll_rounds)
        starts = np.empty((repetitions, self.P), dtype=np.int64)
        ends = np.empty((repetitions, self.P), dtype=np.int64)
        for rep in range(repetitions):
            snap = self._snapshot()
            diverged = self._sticky_fixpoint
            if not diverged:
                try:
                    for rnd in barrier_c:
                        self.run_round(rnd)
                    starts[rep] = self.t
                    for rnd in coll_c:
                        self.run_round(rnd)
                except BulkDivergence:
                    diverged = True
                    self._restore(snap)
            if diverged:
                self._sticky_fixpoint = True
                self.fixpoint_reps += 1
                starts[rep] = self._rep_fixpoint(barrier_c, coll_c, snap)
            ends[rep] = self.t
            if gap_ns:
                self.t += gap_ns
        return BulkTimeline(starts, ends)
