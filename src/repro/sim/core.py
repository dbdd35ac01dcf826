"""The discrete-event simulation environment.

:class:`Environment` owns the event queue and the clock.  Time is an
integer nanosecond counter (:mod:`repro.sim.timebase`); the queue is a
binary heap keyed by ``(time, priority, sequence)`` so simultaneous
events process in a deterministic order: priority first, then FIFO by
scheduling order.

The environment is single-threaded and purpose-built: one simulation
run is one ``Environment``.  The main loop is the hottest code in the
whole reproduction — every simulated compute block, message hop, and
kernel interruption flows through it — so :meth:`run` trades a little
readability for speed: the heap, ``heappop``, and stop conditions are
hoisted into locals, the common callback dispatch is inlined instead of
calling :meth:`~repro.sim.events.Event._run_callbacks`, and
``events_processed`` is accumulated locally and written back in one
batch (read it between ``run()`` calls, not from inside a callback).

Telemetry (:mod:`repro.obs`) hooks in two ways, both free when off:

* ``metrics=True`` counts scheduled events and tracks the heap's
  high-water mark (one predictable branch per :meth:`_push`, the
  single entry onto the heap);
  cancelled-event discards are counted unconditionally because the
  cost lands only on the rare cancelled pop.
* ``tracer`` (a :class:`~repro.obs.SpanTracer`) routes :meth:`run`
  through a separate instrumented loop emitting one trace instant per
  processed event — the three fast loops are untouched when it is
  ``None``.
"""

from __future__ import annotations

import typing as _t
from heapq import heappop, heappush
from itertools import count

from ..errors import DeadlockError, SimulationError
from .events import PRIORITY_NORMAL, AllOf, AnyOf, Event, Timeout
from .process import Process

__all__ = ["Environment"]


class Environment:
    """Owns simulated time and the pending-event queue.

    Parameters
    ----------
    initial_time:
        Starting clock value in nanoseconds (default 0).
    """

    __slots__ = ("now", "_queue", "_seq", "events_processed",
                 "_live_processes", "_metrics",
                 "events_cancelled", "max_heap_depth", "tracer",
                 "_det_check", "det_checksum")

    def __init__(self, initial_time: int = 0, *, metrics: bool = False,
                 tracer: _t.Any = None, det_check: bool = False) -> None:
        if initial_time < 0:
            raise ValueError("initial_time must be >= 0")
        #: Current simulation time in integer nanoseconds.  A plain
        #: attribute, not a property: it is read several times per
        #: event.  Only the run loops advance it; everything else
        #: reads it.
        self.now: int = int(initial_time)
        self._queue: list[tuple[int, int, int, Event]] = []
        self._seq = count()
        #: Number of events processed so far (profiling/diagnostics).
        #: Updated in one batch at the end of each ``run()`` call.
        self.events_processed: int = 0
        #: Count of live (spawned, not yet terminated) processes.
        self._live_processes: int = 0
        #: Telemetry gate for the per-schedule counters below.
        self._metrics = bool(metrics)
        #: Cancelled events discarded by the pop paths (always counted;
        #: the increment only runs on the rare cancelled branch).
        self.events_cancelled: int = 0
        #: Heap-depth high-water mark (only when ``metrics``).
        self.max_heap_depth: int = 0
        #: Optional :class:`~repro.obs.SpanTracer`; when set, ``run()``
        #: uses an instrumented loop emitting one instant per event.
        self.tracer = tracer
        #: Determinism spot-check (``obs.configure(det_check=True)``):
        #: fold every scheduled ``(time, priority, seq)`` tuple into an
        #: order-sensitive FNV-1a checksum.  Two runs schedule the same
        #: events in the same order iff the checksums match — the
        #: runtime counterpart to the static DET rules, catching
        #: dynamic ordering divergence the linter cannot see.
        self._det_check = bool(det_check)
        self.det_checksum: int = 0

    @property
    def events_scheduled(self) -> int:
        """Total events ever pushed onto the queue.

        Every scheduled event is eventually popped (processed or
        discarded as cancelled) or still sits in the heap, so the total
        is derived rather than counted — :meth:`_push` stays free of a
        per-push increment.  Exact once a ``run()`` has returned (the
        processed count is written back in one batch).
        """
        return (self.events_processed + self.events_cancelled
                + len(self._queue))

    # -- scheduling ------------------------------------------------------
    def schedule(self, event: Event, *, delay: int = 0,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Insert ``event`` into the queue ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._push(self.now + delay, priority, event)

    def _push(self, when: int, priority: int, event: Event) -> None:
        """Queue ``event`` at absolute time ``when`` (callers ensure
        ``when >= now``).

        The one way onto the heap, so the heap high-water mark and the
        ``det_check`` fold see every scheduled tuple.
        """
        seq = next(self._seq)
        queue = self._queue
        heappush(queue, (when, priority, seq, event))
        if self._metrics and len(queue) > self.max_heap_depth:
            self.max_heap_depth = len(queue)
        if self._det_check:
            # Order-sensitive 64-bit FNV-1a over the tuple stream; int
            # arithmetic only, so it is identical across processes and
            # unaffected by PYTHONHASHSEED.
            h = self.det_checksum
            for v in (when, priority, seq):
                h = ((h ^ (v & 0xFFFFFFFFFFFFFFFF)) * 0x100000001B3) \
                    & 0xFFFFFFFFFFFFFFFF
            self.det_checksum = h

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: object = None) -> Timeout:
        """An event that fires ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def process(self, generator: _t.Generator[Event, object, object],
                *, name: str | None = None) -> Process:
        """Spawn ``generator`` as a simulation process.

        The generator yields :class:`Event` objects to wait on them and
        may ``return`` a value, which becomes the process event's value.
        """
        return Process(self, generator, name=name)

    def all_of(self, events: _t.Sequence[Event]) -> AllOf:
        """Event firing once all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: _t.Sequence[Event]) -> AnyOf:
        """Event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- main loop ---------------------------------------------------------
    def step(self) -> None:
        """Process the single next live (non-cancelled) event.

        Cancelled events encountered on the way are discarded without
        running callbacks or counting as processed.

        Raises
        ------
        SimulationError
            If no live event remains in the queue.
        """
        queue = self._queue
        while queue:
            when, _prio, _seq, event = heappop(queue)
            if event._cancelled:
                self.events_cancelled += 1
                continue
            self.now = when
            self.events_processed += 1
            event._run_callbacks()
            return
        raise SimulationError("step() on an empty event queue")

    def peek(self) -> int | None:
        """Timestamp of the next queued live event, or ``None`` if drained.

        Discards any cancelled events sitting at the head of the heap.
        """
        queue = self._queue
        while queue and queue[0][3]._cancelled:
            heappop(queue)
            self.events_cancelled += 1
        return queue[0][0] if queue else None

    def run(self, until: int | Event | None = None) -> object:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the queue drains.  If live processes
              remain blocked at that point, raise :class:`DeadlockError`.
            * ``int`` — run until the clock reaches that absolute time.
              Events at exactly ``until`` are *not* processed — they
              stay queued for a later ``run()`` call.  This holds even
              on the edge ``until == now``: ``run(until=env.now)`` is a
              no-op that leaves same-instant events pending.  If the
              queue drains before ``until``, the clock jumps straight
              to ``until`` (and :meth:`peek` then reports ``None``).
            * :class:`Event` — run until that event is processed and
              return its value (re-raising its exception if it failed).
        """
        stop_event: Event | None = None
        stop_time: int | None = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = int(until)
            if stop_time < self.now:
                raise SimulationError(f"run(until={stop_time}) is in the past (now={self.now})")

        # Hot loop: locals for the heap and heappop, inlined callback
        # dispatch (the body of Event._run_callbacks), and batched
        # events_processed / events_cancelled updates.  Three
        # specialisations so the run-to-drain case — the common one —
        # tests nothing per event beyond the pop itself; a fourth,
        # instrumented loop takes over only when a tracer is attached.
        queue = self._queue
        pop = heappop
        processed = 0
        discarded = 0
        try:
            if self.tracer is not None:
                tr = self.tracer
                emit = tr.instant
                while queue:
                    if stop_time is not None and queue[0][0] >= stop_time:
                        break
                    if stop_event is not None and stop_event._processed:
                        break
                    when, _prio, _seq, event = pop(queue)
                    if event._cancelled:
                        discarded += 1
                        continue
                    self.now = when
                    processed += 1
                    emit("sim", type(event).__name__, when)
                    callbacks, event.callbacks = event.callbacks, None
                    event._processed = True
                    if callbacks:
                        for cb in callbacks:
                            cb(event)
            elif stop_event is None and stop_time is None:
                while queue:
                    when, _prio, _seq, event = pop(queue)
                    if event._cancelled:
                        discarded += 1
                        continue
                    self.now = when
                    processed += 1
                    callbacks, event.callbacks = event.callbacks, None
                    event._processed = True
                    if callbacks:
                        for cb in callbacks:
                            cb(event)
            elif stop_time is not None:
                while queue:
                    if queue[0][0] >= stop_time:
                        self.now = stop_time
                        return None
                    when, _prio, _seq, event = pop(queue)
                    if event._cancelled:
                        discarded += 1
                        continue
                    self.now = when
                    processed += 1
                    callbacks, event.callbacks = event.callbacks, None
                    event._processed = True
                    if callbacks:
                        for cb in callbacks:
                            cb(event)
            else:
                stop = _t.cast(Event, stop_event)
                while queue and not stop._processed:
                    when, _prio, _seq, event = pop(queue)
                    if event._cancelled:
                        discarded += 1
                        continue
                    self.now = when
                    processed += 1
                    callbacks, event.callbacks = event.callbacks, None
                    event._processed = True
                    if callbacks:
                        for cb in callbacks:
                            cb(event)
        finally:
            self.events_processed += processed
            self.events_cancelled += discarded

        if stop_event is not None:
            if not stop_event.processed:
                raise DeadlockError(
                    "event queue drained before the awaited event fired "
                    f"({self._live_processes} live process(es) blocked)")
            if not stop_event.ok:
                raise _t.cast(BaseException, stop_event._value)
            return stop_event.value

        if stop_time is not None:
            # Queue drained before reaching stop_time: clock jumps ahead.
            self.now = stop_time
            return None

        if self._live_processes:
            raise DeadlockError(
                f"simulation ended with {self._live_processes} process(es) "
                "still waiting on events that can never fire")
        return None

    def run_until_empty(self, *, max_events: int | None = None) -> None:
        """Run until the queue drains, bounded by ``max_events``.

        A safety harness around ``run()``: identical drain semantics
        (including the :class:`DeadlockError` check for blocked
        processes), but if more than ``max_events`` live events process
        before the queue empties, raise :class:`SimulationError` so a
        runaway workload fails fast instead of spinning forever in CI.

        Parameters
        ----------
        max_events:
            Cap on events processed by this call (``None`` = no cap).
        """
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")

        queue = self._queue
        pop = heappop
        processed = 0
        discarded = 0
        try:
            while queue:
                if max_events is not None and processed >= max_events:
                    raise SimulationError(
                        f"run_until_empty() exceeded max_events={max_events} "
                        f"with {len(queue)} event(s) still queued at "
                        f"t={self.now}ns — runaway workload?")
                when, _prio, _seq, event = pop(queue)
                if event._cancelled:
                    discarded += 1
                    continue
                self.now = when
                processed += 1
                callbacks, event.callbacks = event.callbacks, None
                event._processed = True
                if callbacks:
                    for cb in callbacks:
                        cb(event)
        finally:
            self.events_processed += processed
            self.events_cancelled += discarded

        if self._live_processes:
            raise DeadlockError(
                f"simulation ended with {self._live_processes} process(es) "
                "still waiting on events that can never fire")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Environment t={self.now}ns queued={len(self._queue)} "
                f"processed={self.events_processed}>")
