"""The node CPU: application work under kernel preemption.

The CPU executes application *work* (pure CPU nanoseconds) while the
kernel's noise stream steals cycles.  Two kinds of stealing exist:

* **background noise** — the static/pseudo-random streams built from
  the :class:`~repro.kernel.config.KernelConfig` plus injected
  patterns.  These are pure functions of time, so a compute phase of
  ``W`` ns starting at ``t`` completes exactly at
  ``t + noise.wall_time(t, W)``.
* **transient steals** — dynamic kernel work triggered by the
  simulation itself, chiefly NIC receive processing.  These arrive at
  arbitrary instants via :meth:`CPU.steal_transient` and extend any
  in-progress compute phase by their cost.

Modelling note: a transient steal is added to the phase deadline at
face value; background noise that would overlap the steal itself is not
re-inflated (a second-order effect, well under 1 % for the utilizations
studied here).
"""

from __future__ import annotations

import typing as _t

from ..errors import SimulationError
from ..noise import CompositeNoise, NoiseSource, NullNoise
from ..sim import Environment, Event, Timeout

__all__ = ["CPU"]


class CPU:
    """One node's processor, shared by the application and the kernel.

    Parameters
    ----------
    env:
        The simulation environment.
    noise:
        The node's merged CPU-stealing stream (see
        :func:`repro.kernel.activities.build_kernel_noise`).
    node_id:
        Owning node's id (for error messages and records).
    """

    def __init__(self, env: Environment, noise: NoiseSource, node_id: int = 0,
                 *, speed: float = 1.0) -> None:
        if speed <= 0:
            raise ValueError(f"cpu speed must be > 0, got {speed}")
        self.env = env
        self.noise = noise
        self.node_id = node_id
        #: Relative clock rate: work takes ``work/speed`` ns of wall CPU.
        #: Below 1.0 models a degraded ("sick") node — thermal
        #: throttling, a failing DIMM in slow-retrain mode — whose
        #: effect on the machine resembles permanently-synchronized
        #: noise and which PSNAP-style censuses exist to find.
        self.speed = float(speed)
        #: Total application work executed (ns of pure CPU).
        self.work_executed_ns: int = 0
        #: Total transient (dynamic) kernel steals, ns.
        self.transient_stolen_ns: int = 0
        #: Deadline of the in-progress compute phase, or None when idle.
        self._deadline: int | None = None
        #: Observers notified on each transient steal: f(start, duration, source).
        self._steal_listeners: list[_t.Callable[[int, int, str], None]] = []

    # -- application side ---------------------------------------------------
    def compute(self, work: int) -> _t.Generator[Event, object, None]:
        """Execute ``work`` ns of application CPU work (a process sub-generator).

        Use from a rank process as ``yield from cpu.compute(work)``.
        Completion time accounts for background noise exactly and is
        pushed back by any transient steals that land mid-phase.
        """
        if work < 0:
            raise ValueError(f"work must be >= 0 ns, got {work}")
        if self._deadline is not None:
            raise SimulationError(
                f"node {self.node_id}: nested compute() — the model has one "
                "application context per CPU")
        if work == 0:
            return
        cycles = work if self.speed == 1.0 else round(work / self.speed)
        env = self.env
        start = env.now
        self._deadline = start + self.noise.wall_time(start, cycles)
        try:
            # A transient steal landing mid-phase moves the deadline, so
            # re-arm until the clock has really reached it.
            while env.now < self._deadline:
                yield Timeout(env, self._deadline - env.now)
        finally:
            self._deadline = None
        self.work_executed_ns += work

    @property
    def computing(self) -> bool:
        """True while an application compute phase is in progress."""
        return self._deadline is not None

    # -- kernel side --------------------------------------------------------------
    def steal_transient(self, cost: int, source: str) -> int:
        """Dynamic kernel work (e.g. NIC rx processing) starting *now*.

        Extends an in-progress compute phase by ``cost`` and notifies
        steal listeners (the observer).  Returns the completion
        timestamp of the kernel work itself — callers that gate on the
        processing (message delivery) should wait until then.
        """
        if cost < 0:
            raise ValueError(f"steal cost must be >= 0 ns, got {cost}")
        now = self.env.now
        if cost == 0:
            return now
        self.transient_stolen_ns += cost
        if self._deadline is not None:
            self._deadline += cost
        for listener in self._steal_listeners:
            listener(now, cost, source)
        return now + cost

    def add_steal_listener(self, listener: _t.Callable[[int, int, str], None]) -> None:
        """Register ``f(start, duration, source)`` for transient steals."""
        self._steal_listeners.append(listener)

    # -- accounting -----------------------------------------------------------------
    def stolen_breakdown(self, start: int, end: int) -> dict[str, int]:
        """Background-noise CPU stolen per source name in ``[start, end)``.

        Per-source totals; simultaneous steals from different sources
        are each charged in full (attribution is per-activity, and
        overlap is negligible at the utilizations modelled).
        """
        noise = self.noise
        if isinstance(noise, NullNoise):
            return {}
        if isinstance(noise, CompositeNoise):
            out: dict[str, int] = {}
            for src in noise.sources:
                stolen = src.stolen_between(start, end)
                if stolen:
                    out[src.name] = stolen
            return out
        stolen = noise.stolen_between(start, end)
        return {noise.name: stolen} if stolen else {}
