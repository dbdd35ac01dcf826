"""Strictly periodic noise — the canonical injected pattern.

The OS-noise literature parameterizes injected noise as a (frequency,
duration) pair at fixed *net utilization*: e.g. 2.5 % of the CPU taken
as 2.5 ms every 100 ms (10 Hz), 250 µs every 10 ms (100 Hz), or 25 µs
every 1 ms (1000 Hz).  :class:`PeriodicNoise` models exactly that, with
a per-node ``phase`` so nodes can be aligned (co-scheduled noise) or
deliberately misaligned.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..sim.timebase import SECOND
from .base import NoiseEvent, NoiseSource

__all__ = ["PeriodicNoise"]


class PeriodicNoise(NoiseSource):
    """Events of fixed ``duration`` every ``period`` ns, offset by ``phase``.

    Parameters
    ----------
    period:
        Interval between event starts, ns.
    duration:
        CPU stolen per event, ns.  Must be < ``period``.
    phase:
        Timestamp of event 0 (events also occur at every
        ``phase + k*period`` for integer ``k``, including negative
        ``k`` — the source has always been running).
    name:
        Source label for traces and reports.
    """

    def __init__(self, period: int, duration: int, *, phase: int = 0,
                 name: str = "periodic") -> None:
        super().__init__(name)
        if period <= 0:
            raise ConfigError(f"period must be > 0 ns, got {period}")
        if duration <= 0:
            raise ConfigError(f"duration must be > 0 ns, got {duration}")
        if duration >= period:
            raise ConfigError(
                f"duration ({duration} ns) must be < period ({period} ns); "
                "utilization would reach 100%")
        self.period = int(period)
        self.duration = int(duration)
        self.phase = int(phase)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_frequency(cls, hz: float, duration: int, *, phase: int = 0,
                       name: str = "periodic") -> "PeriodicNoise":
        """Build from a frequency in Hz instead of a period in ns."""
        if hz <= 0:
            raise ConfigError(f"frequency must be > 0 Hz, got {hz}")
        return cls(round(SECOND / hz), duration, phase=phase, name=name)

    @classmethod
    def from_utilization(cls, utilization: float, hz: float, *, phase: int = 0,
                         name: str = "periodic") -> "PeriodicNoise":
        """Build from a net utilization fraction and frequency.

        ``utilization=0.025, hz=100`` gives 250 µs every 10 ms.
        """
        if not 0 < utilization < 1:
            raise ConfigError(f"utilization must be in (0, 1), got {utilization}")
        period = round(SECOND / hz)
        duration = round(period * utilization)
        if duration == 0:
            raise ConfigError(
                f"utilization {utilization} at {hz} Hz rounds to a 0 ns event")
        return cls(period, duration, phase=phase, name=name)

    # -- frequency/utilization view ------------------------------------------
    @property
    def frequency_hz(self) -> float:
        """Event rate in Hz."""
        return SECOND / self.period

    @property
    def utilization(self) -> float:
        return self.duration / self.period

    @property
    def event_rate_hz(self) -> float:
        return self.frequency_hz

    # -- event view ----------------------------------------------------------
    def events_in(self, start: int, end: int) -> list[NoiseEvent]:
        if end <= start:
            return []
        first_k = -((self.phase - start) // self.period)  # integer ceil
        out = []
        t = self.phase + first_k * self.period
        while t < end:
            out.append(NoiseEvent(t, self.duration, self.name))
            t += self.period
        return out

    def max_event_duration(self) -> int:
        return self.duration

    # -- closed-form aggregate view --------------------------------------------
    def stolen_between(self, start: int, end: int) -> int:
        """Exact stolen time in ``[start, end)`` in O(1).

        Counts full events inside the window plus the truncated head
        (an event straddling ``start``) and tail (one straddling
        ``end``).  Valid because ``duration < period`` means events
        never overlap each other.
        """
        if end <= start:
            return 0
        period, duration, phase = self.period, self.duration, self.phase
        # Index of first event starting at or after `start`, and of the
        # last event starting strictly before `end`.
        k_lo = -((phase - start) // period)  # ceil((start-phase)/period)
        k_hi = -((phase - end) // period) - 1  # last start strictly < end
        total = 0
        if k_hi >= k_lo:
            n = k_hi - k_lo + 1
            # All but possibly the last event end inside the window.
            total += (n - 1) * duration
            last_start = phase + k_hi * period
            total += min(duration, end - last_start)
        # Head: the event just before `start` may still be running.
        prev_start = phase + (k_lo - 1) * period
        prev_end = prev_start + duration
        if prev_end > start:
            total += min(prev_end, end) - start
        return total

    def _wall_time(self, start: int, work: int) -> int:
        """Exact wall time in O(1) by inverting the idle clock.

        Counted from ``phase``, the idle clock at ``phase + k*period +
        r`` is ``k*(period - duration) + max(r - duration, 0)``; the
        end is the least instant where it has advanced by ``work``.
        """
        period, duration, phase = self.period, self.duration, self.phase
        gap = period - duration
        k, r = divmod(start - phase, period)
        k, rem = divmod(k * gap + max(r - duration, 0) + work, gap)
        end = phase + k * period + (duration + rem if rem else 0)
        return end - start

    def describe(self) -> dict[str, object]:
        d = super().describe()
        d.update(period_ns=self.period, duration_ns=self.duration,
                 frequency_hz=self.frequency_hz, phase_ns=self.phase)
        return d
