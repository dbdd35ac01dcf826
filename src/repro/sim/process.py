"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each ``yield`` hands back
an :class:`~repro.sim.events.Event` the process wants to wait on, and
the process resumes (with the event's value) when that event fires.
A process is itself an event that fires when the generator returns,
so processes can wait on each other and ``env.run(until=proc)`` works.
"""

from __future__ import annotations

import typing as _t

from ..errors import SimulationError
from .events import PRIORITY_URGENT, Event, Interrupt

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Environment

__all__ = ["Process"]


class Process(Event):
    """A running simulation process (and the event of its termination)."""

    __slots__ = ("name", "_generator", "_waiting_on", "_wake")

    def __init__(self, env: "Environment",
                 generator: _t.Generator[Event, object, object],
                 *, name: str | None = None) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process needs a generator, got {type(generator).__name__}")
        super().__init__(env)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Event | None = None
        #: ``self._resume`` bound once: every wait appends it to the
        #: awaited event's callbacks.
        self._wake = self._resume
        env._live_processes += 1
        # Kick the generator off at the current simulation instant via an
        # initialisation event so spawning is itself deterministic.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._wake)
        env._push(env.now, PRIORITY_URGENT, init)

    # -- public ------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        The event the process was waiting on is abandoned (its callback
        is detached); the process decides how to proceed by catching the
        interrupt.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt terminated process {self.name!r}")
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._wake)
            except ValueError:  # pragma: no cover - callback already detached
                pass
        self._waiting_on = None
        # Deliver the interrupt through an urgent event so ordering stays
        # deterministic with respect to other same-instant events.
        env = self.env
        kick = Event(env)
        kick._ok = False
        kick._value = Interrupt(cause)
        kick.callbacks.append(self._wake)
        env._push(env.now, PRIORITY_URGENT, kick)

    # -- engine ------------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the fired event's value."""
        self._waiting_on = None
        gen = self._generator
        env = self.env
        while True:
            try:
                if trigger._ok:
                    target = gen.send(trigger._value)
                else:
                    target = gen.throw(_t.cast(BaseException, trigger._value))
            except StopIteration as stop:
                env._live_processes -= 1
                self.succeed(stop.value)
                return
            except BaseException as exc:
                env._live_processes -= 1
                # A crashing process fails its termination event; if nobody
                # is waiting on it, re-raise so bugs don't vanish silently.
                if self.callbacks:
                    self.fail(exc)
                    return
                self.fail(exc)
                raise

            if not isinstance(target, Event):
                err = SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes "
                    "must yield Event objects")
                env._live_processes -= 1
                self.fail(err)
                raise err
            if target.env is not env:
                err = SimulationError(
                    f"process {self.name!r} yielded an event from a different environment")
                env._live_processes -= 1
                self.fail(err)
                raise err

            callbacks = target.callbacks
            if callbacks is None:
                # Already processed: resume immediately with its value in
                # this same call frame (no extra queue round-trip).
                trigger = target
                continue
            self._waiting_on = target
            callbacks.append(self._wake)
            return

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
