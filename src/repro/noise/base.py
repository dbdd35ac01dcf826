"""Noise-source abstraction.

A *noise source* models one stream of kernel activity that steals CPU
from the application: timer interrupts, scheduler ticks, kernel
daemons, softirq processing, or an injected synthetic pattern.

The contract has two views of the same stream:

* **event view** — :meth:`NoiseSource.events_in` enumerates individual
  ``NoiseEvent`` occurrences.  Used by trace-fidelity simulation and by
  the ktau observer, which records every occurrence.
* **aggregate view** — :meth:`NoiseSource.stolen_between` gives the
  total CPU time stolen in a window, and :meth:`NoiseSource.wall_time`
  gives the wall clock time a compute phase of ``W`` ns of work takes
  when started at ``t``: the least ``T`` with
  ``T - stolen(t, t+T) == W``.  Used by sampled-fidelity simulation for
  scaling studies.

The aggregate view is answered from the *idle clock*
``idle(x) = x - busy(x)``, which never decreases and rises by at most
1 ns per ns, so ``wall_time`` is an exact inverse: the least ``x`` with
``idle(x) = idle(t) + W``.  Sources without a closed form share one
**busy-time index** over aligned ``2**20`` ns chunks of time.  Each
chunk holds the merged intervals of :meth:`NoiseSource.busy_intervals`
with their prefix busy sums and the idle clock at every interval start;
a bounded LRU keeps the most recent chunks.  ``stolen_between`` is then
two bisections and ``wall_time`` a walk over chunks plus one bisection
of the idle array.  :class:`~repro.noise.PeriodicNoise` inverts its
idle clock in O(1) instead.

Both views are **pure functions of the window** (randomized sources
freeze their randomness per time chunk), so the two fidelity modes are
guaranteed to agree — a property the test suite checks.
"""

from __future__ import annotations

import typing as _t
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache

from ..errors import ConfigError

__all__ = ["NoiseEvent", "NoiseSource", "NullNoise", "merge_busy_time",
           "merged_intervals", "merge_interval_lists"]

#: log2 of the busy-time index chunk width (ns): 2**20 ns ~ 1 ms.
_CHUNK_SHIFT = 20
_CHUNK_NS = 1 << _CHUNK_SHIFT
#: Index chunks each source keeps (least recently used dropped first).
_INDEX_CHUNKS = 64


class _Chunk(_t.NamedTuple):
    """Busy-time index of one aligned chunk ``[origin, origin + _CHUNK_NS)``."""

    #: Merged busy intervals, clipped to the chunk (parallel lists).
    starts: list[int]
    ends: list[int]
    #: ``busy[i]`` = busy ns before ``starts[i]``; ``busy[-1]`` is the total.
    busy: list[int]
    #: Idle ns between the chunk origin and ``starts[i]``.
    idle: list[int]

    def busy_before(self, x: int) -> int:
        """Busy ns between the chunk origin and ``x`` (inside the chunk)."""
        i = bisect_right(self.starts, x)
        if i == 0:
            return 0
        tail = self.ends[i - 1] - x
        return self.busy[i] - tail if tail > 0 else self.busy[i]


@dataclass(frozen=True, slots=True)
class NoiseEvent:
    """One occurrence of kernel activity.

    Attributes
    ----------
    start:
        Timestamp (ns) the activity begins stealing the CPU.
    duration:
        CPU time stolen, in ns.
    source:
        Name of the generating noise source (e.g. ``"timer-irq"``).
    """

    start: int
    duration: int
    source: str

    @property
    def end(self) -> int:
        """First instant after the activity (``start + duration``)."""
        return self.start + self.duration


def merged_intervals(events: _t.Iterable[NoiseEvent],
                     window_start: int, window_end: int) -> list[tuple[int, int]]:
    """Merge event busy intervals, clipped to ``[window_start, window_end)``.

    Overlapping events (e.g. a daemon firing during interrupt
    processing) must not double-count stolen time: a CPU can only be
    stolen once per instant.
    """
    clipped = []
    for ev in events:
        lo = max(ev.start, window_start)
        hi = min(ev.end, window_end)
        if hi > lo:
            clipped.append((lo, hi))
    if not clipped:
        return []
    clipped.sort()
    merged = [clipped[0]]
    for lo, hi in clipped[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi:
            if hi > last_hi:
                merged[-1] = (last_lo, hi)
        else:
            merged.append((lo, hi))
    return merged


def merge_busy_time(events: _t.Iterable[NoiseEvent],
                    window_start: int, window_end: int) -> int:
    """Total CPU ns stolen in the window by possibly-overlapping events."""
    return sum(hi - lo for lo, hi in merged_intervals(events, window_start, window_end))


def merge_interval_lists(lists: _t.Sequence[list[tuple[int, int]]]
                         ) -> list[tuple[int, int]]:
    """Merge several already-sorted ``(lo, hi)`` interval lists."""
    flat: list[tuple[int, int]] = []
    for lst in lists:
        flat.extend(lst)
    if not flat:
        return []
    flat.sort()
    merged = [flat[0]]
    for lo, hi in flat[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi:
            if hi > last_hi:
                merged[-1] = (last_lo, hi)
        else:
            merged.append((lo, hi))
    return merged


class NoiseSource(ABC):
    """One stream of CPU-stealing kernel activity.

    Subclasses must implement :meth:`events_in`,
    :meth:`max_event_duration`, and :attr:`utilization`; the aggregate
    view is derived from the busy-time index (subclasses may override
    ``stolen_between`` or ``_wall_time`` with a closed form —
    :class:`repro.noise.PeriodicNoise` overrides both).
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ConfigError("noise source needs a non-empty name")
        self.name = name
        # Per-instance memo of the busy-time index (dies with the instance).
        self._index = lru_cache(maxsize=_INDEX_CHUNKS)(self._build_index_chunk)

    # -- event view --------------------------------------------------------
    @abstractmethod
    def events_in(self, start: int, end: int) -> list[NoiseEvent]:
        """All events whose *start* lies in ``[start, end)``, in time order."""

    @abstractmethod
    def max_event_duration(self) -> int:
        """Upper bound on any single event's duration (for window widening)."""

    # -- aggregate view ------------------------------------------------------
    @property
    @abstractmethod
    def utilization(self) -> float:
        """Long-run fraction of CPU stolen (must be < 1)."""

    @property
    def event_rate_hz(self) -> float:
        """Long-run events per second (observer-overhead sizing).

        Default derives from utilization and the maximum event
        duration (a lower bound); concrete sources override with the
        exact rate.
        """
        max_dur = self.max_event_duration()
        if max_dur <= 0:
            return 0.0
        return self.utilization * 1e9 / max_dur

    def busy_intervals(self, start: int, end: int) -> list[tuple[int, int]]:
        """Merged CPU-busy intervals clipped to ``[start, end)``.

        Widens the event query only by *this* source's maximum event
        duration, so composites never force short-event sources to
        enumerate a long-event source's look-back window.
        """
        if end <= start:
            return []
        widened = start - self.max_event_duration()
        return merged_intervals(self.events_in(widened, end), start, end)

    def _build_index_chunk(self, index: int) -> _Chunk:
        origin = index << _CHUNK_SHIFT
        starts: list[int] = []
        ends: list[int] = []
        busy = [0]
        idle: list[int] = []
        total = 0
        for lo, hi in self.busy_intervals(origin, origin + _CHUNK_NS):
            starts.append(lo)
            ends.append(hi)
            idle.append(lo - origin - total)
            total += hi - lo
            busy.append(total)
        return _Chunk(starts, ends, busy, idle)

    def stolen_between(self, start: int, end: int) -> int:
        """Total CPU ns stolen in ``[start, end)``.

        Includes the tail of events that started before ``start`` but
        are still running at ``start``.
        """
        if end <= start:
            return 0
        first = start >> _CHUNK_SHIFT
        last = (end - 1) >> _CHUNK_SHIFT
        chunk = self._index(first)
        if first == last:
            return chunk.busy_before(end) - chunk.busy_before(start)
        total = chunk.busy[-1] - chunk.busy_before(start)
        for index in range(first + 1, last):
            total += self._index(index).busy[-1]
        return total + self._index(last).busy_before(end)

    def wall_time(self, start: int, work: int) -> int:
        """Wall-clock ns for ``work`` ns of CPU work begun at ``start``.

        The least ``T`` with ``T - stolen_between(start, start + T) ==
        work``.
        """
        if work < 0:
            raise ValueError(f"work must be >= 0 ns, got {work}")
        if work == 0:
            # Zero work needs no CPU, so nothing can be stolen from it.
            return 0
        return self._wall_time(start, work)

    def _wall_time(self, start: int, work: int) -> int:
        """:meth:`wall_time` for ``work > 0`` from the busy-time index:
        walk chunks until the idle clock has advanced by ``work``, then
        invert it inside the last chunk.  Closed forms override this."""
        index = start >> _CHUNK_SHIFT
        origin = index << _CHUNK_SHIFT
        chunk = self._index(index)
        # Idle ns still to pass, counted from the chunk origin.
        target = start - origin - chunk.busy_before(start) + work
        while True:
            chunk_idle = _CHUNK_NS - chunk.busy[-1]
            if target <= chunk_idle:
                break
            target -= chunk_idle
            index += 1
            origin += _CHUNK_NS
            chunk = self._index(index)
        # The first busy interval whose start the idle clock reaches at
        # `target` or later; the answer lies in the gap before it.
        i = bisect_left(chunk.idle, target)
        if i == 0:
            return origin + target - start
        return chunk.ends[i - 1] + target - chunk.idle[i - 1] - start

    # -- introspection -------------------------------------------------------
    def describe(self) -> dict[str, object]:
        """Human-readable parameter summary (used in reports)."""
        return {"name": self.name, "type": type(self).__name__,
                "utilization": self.utilization}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r} util={self.utilization:.4%}>"


class NullNoise(NoiseSource):
    """A silent source: the quiet, noiseless kernel baseline."""

    def __init__(self, name: str = "null") -> None:
        super().__init__(name)

    def events_in(self, start: int, end: int) -> list[NoiseEvent]:
        return []

    def max_event_duration(self) -> int:
        return 0

    @property
    def utilization(self) -> float:
        return 0.0

    @property
    def event_rate_hz(self) -> float:
        return 0.0

    def stolen_between(self, start: int, end: int) -> int:
        return 0

    def wall_time(self, start: int, work: int) -> int:
        if work < 0:
            raise ValueError(f"work must be >= 0 ns, got {work}")
        return work
