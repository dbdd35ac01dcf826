"""Event primitives for the discrete-event simulation core.

The design follows the classic SimPy model: an :class:`Event` is a
one-shot object that is *triggered* (scheduled into the event queue),
then *processed* (its callbacks run at its scheduled time).  Processes
(:mod:`repro.sim.process`) suspend by yielding events and are resumed by
an event callback.

Only the pieces the repro library needs are implemented — this is a
purpose-built kernel, not a general framework — but each piece follows
the standard semantics so the code reads familiarly.
"""

from __future__ import annotations

import typing as _t

from ..errors import SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Environment

__all__ = [
    "PENDING",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LAZY",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
]

#: Sentinel for an event that has not yet been given a value.
PENDING = object()

#: Events that must run before ordinary events at the same timestamp
#: (e.g. interrupt delivery).
PRIORITY_URGENT = 0
#: Default scheduling priority.
PRIORITY_NORMAL = 1
#: Events that run after ordinary events at the same timestamp
#: (e.g. bookkeeping flushes).
PRIORITY_LAZY = 2


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting.

    Attributes
    ----------
    cause:
        Arbitrary object describing why the process was interrupted.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence inside an :class:`~repro.sim.core.Environment`.

    Lifecycle: *created* -> ``succeed()``/``fail()`` (becomes
    *triggered*, i.e. sits in the event queue) -> callbacks run
    (*processed*).  A processed event keeps its value forever so late
    inspectors can read ``event.value``.

    A triggered-but-unprocessed event may be :meth:`cancel`-led: it
    stays in the event queue (no O(n) heap surgery) but the main loop
    discards it without running callbacks or counting it as processed.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed",
                 "_cancelled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables ``f(event)`` invoked when the event is processed.
        #: Set to ``None`` once processed (guards double-trigger bugs).
        self.callbacks: list[_t.Callable[["Event"], None]] | None = []
        self._value: object = PENDING
        self._ok: bool = True
        self._processed = False
        self._cancelled = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled (has a value)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._cancelled

    @property
    def value(self) -> object:
        """The event's value; raises if the event is still pending."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: object = None, *, priority: int = PRIORITY_NORMAL) -> "Event":
        """Schedule this event to fire *now* with ``value``.

        Returns ``self`` so calls can be chained.
        """
        if self._cancelled:
            raise SimulationError(f"{self!r} was cancelled")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._push(env.now, priority, self)
        return self

    def fail(self, exception: BaseException, *, priority: int = PRIORITY_NORMAL) -> "Event":
        """Schedule this event to fire *now*, failing with ``exception``.

        A waiting process receives the exception thrown at its yield
        point.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._cancelled:
            raise SimulationError(f"{self!r} was cancelled")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._push(env.now, priority, self)
        return self

    def cancel(self) -> "Event":
        """Lazily cancel this event.

        The event is *not* removed from the environment's heap (that
        would be O(n)); instead the main loop drops it when popped, so
        its callbacks never run and it never counts as processed.
        Typical use: abandoning the losing :class:`Timeout` of a
        timeout-vs-completion race.  Cancelling an already-processed
        event is an error; cancelling twice is a no-op.
        """
        if self._processed:
            raise SimulationError(f"cannot cancel already-processed {self!r}")
        self._cancelled = True
        self.callbacks = []
        return self

    # -- internal --------------------------------------------------------
    def _run_callbacks(self) -> None:
        """Invoked by the environment when the event is popped."""
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for cb in callbacks:
                cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = ("cancelled" if self._cancelled else
                 "processed" if self._processed else
                 "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at 0x{id(self):x}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: int, value: object = None) -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0 ns, got {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._push(env.now + delay, PRIORITY_NORMAL, self)


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, env: "Environment", events: _t.Sequence[Event]) -> None:
        super().__init__(env)
        self.events = tuple(events)
        self._n_fired = 0
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("condition mixes events from different environments")
            if ev.callbacks is None:  # already processed
                self._on_fire(ev)
            else:
                ev.callbacks.append(self._on_fire)

    def _on_fire(self, event: Event) -> None:
        if self._value is not PENDING:
            return  # condition already decided
        if not event._ok:
            self.fail(_t.cast(BaseException, event._value))
            return
        self._n_fired += 1
        if self._decided():
            self.succeed(self._result())

    # hooks -------------------------------------------------------------
    def _decided(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _result(self) -> object:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once every component event has fired; value is their values."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: _t.Sequence[Event]) -> None:
        super().__init__(env, events)
        if not self.events and self._value is PENDING:
            self.succeed([])

    def _decided(self) -> bool:
        return self._n_fired == len(self.events)

    def _result(self) -> object:
        return [ev.value for ev in self.events]


class AnyOf(_Condition):
    """Fires as soon as one component event fires; value is that value."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: _t.Sequence[Event]) -> None:
        if not events:
            raise ValueError("AnyOf needs at least one event")
        super().__init__(env, events)

    def _decided(self) -> bool:
        return self._n_fired >= 1

    def _result(self) -> object:
        for ev in self.events:
            if ev.processed:
                return ev.value
        raise SimulationError("AnyOf decided with no processed event")  # pragma: no cover
