"""Composition of noise sources.

A node's kernel runs *many* activities at once — timer interrupts plus
daemons plus softirqs.  :class:`CompositeNoise` merges any number of
sources into one, taking care that simultaneous/overlapping events do
not double-count stolen CPU (the event view keeps every component event
for attribution; the aggregate view merges busy intervals).
"""

from __future__ import annotations

import typing as _t

from ..errors import ConfigError
from .base import NoiseEvent, NoiseSource, merge_interval_lists

__all__ = ["CompositeNoise"]


class CompositeNoise(NoiseSource):
    """The union of several noise sources on one CPU."""

    def __init__(self, sources: _t.Sequence[NoiseSource],
                 *, name: str = "composite") -> None:
        super().__init__(name)
        flat: list[NoiseSource] = []
        for src in sources:
            # Flatten nested composites so describe()/attribution see leaves.
            if isinstance(src, CompositeNoise):
                flat.extend(src.sources)
            else:
                flat.append(src)
        self.sources: tuple[NoiseSource, ...] = tuple(flat)
        seen: set[str] = set()
        for src in self.sources:
            if src.name in seen:
                raise ConfigError(
                    f"duplicate noise source name {src.name!r} in composite; "
                    "attribution needs unique names")
            seen.add(src.name)
        total = sum(src.utilization for src in self.sources)
        if total >= 1.0:
            raise ConfigError(
                f"composite noise utilization {total:.2f} >= 1; the CPU "
                "would never run the application")

    @property
    def utilization(self) -> float:
        # Upper bound: overlapping events make the true busy fraction
        # slightly smaller, but components are typically sparse.
        return sum(src.utilization for src in self.sources)

    @property
    def event_rate_hz(self) -> float:
        return sum(src.event_rate_hz for src in self.sources)

    def max_event_duration(self) -> int:
        return max((src.max_event_duration() for src in self.sources), default=0)

    def events_in(self, start: int, end: int) -> list[NoiseEvent]:
        out: list[NoiseEvent] = []
        for src in self.sources:
            out.extend(src.events_in(start, end))
        out.sort(key=lambda ev: (ev.start, ev.duration, ev.source))
        return out

    def busy_intervals(self, start: int, end: int) -> list[tuple[int, int]]:
        # Each source clips with its own look-back window, so a rare
        # long-event daemon doesn't force the 1 kHz tick to enumerate a
        # 20 ms history on every query.
        return merge_interval_lists(
            [src.busy_intervals(start, end) for src in self.sources])

    def describe(self) -> dict[str, object]:
        d = super().describe()
        d["sources"] = [src.describe() for src in self.sources]
        return d
