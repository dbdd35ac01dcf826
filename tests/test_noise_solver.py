"""Differential tests of the noise wall-time solver.

:meth:`NoiseSource.wall_time` and :meth:`NoiseSource.stolen_between`
answer from a chunked busy-time index (and :class:`PeriodicNoise` from a
closed form).  The oracle below is the original algorithm, kept here
only as a reference: merge the enumerated events of the window, iterate
``T <- W + stolen(t, t+T)`` up to 8 times, then finish with doubling and
bisection on the monotone idle time.  Both must agree bit for bit on
every source type, including starts inside events, windows straddling
an index chunk edge and events longer than a chunk.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.noise import (
    BernoulliTickNoise,
    BurstNoise,
    CompositeNoise,
    NoiseSource,
    OneOffNoise,
    PeriodicNoise,
    PoissonNoise,
    TraceNoise,
    merge_interval_lists,
    merged_intervals,
)
from repro.noise.base import _CHUNK_NS
from repro.sim.bulk import _BulkNoise

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])


# -- the oracle: event merge + fixed-point iteration + bisection -------------

def _oracle_intervals(src: NoiseSource, start: int,
                      end: int) -> list[tuple[int, int]]:
    if isinstance(src, CompositeNoise):
        return merge_interval_lists(
            [_oracle_intervals(s, start, end) for s in src.sources])
    widened = start - src.max_event_duration()
    return merged_intervals(src.events_in(widened, end), start, end)


def oracle_stolen(src: NoiseSource, start: int, end: int) -> int:
    if end <= start:
        return 0
    return sum(hi - lo for lo, hi in _oracle_intervals(src, start, end))


def oracle_wall(src: NoiseSource, start: int, work: int) -> int:
    if work == 0:
        return 0
    t = work
    for _ in range(8):
        new_t = work + oracle_stolen(src, start, start + t)
        if new_t == t:
            return t
        t = new_t
    hi = t
    while hi - oracle_stolen(src, start, start + hi) < work:
        hi *= 2
    lo = work
    while lo < hi:
        mid = (lo + hi) // 2
        if mid - oracle_stolen(src, start, start + mid) >= work:
            hi = mid
        else:
            lo = mid + 1
    return lo


# -- source strategies ---------------------------------------------------------

@st.composite
def periodic(draw, name: str = "periodic") -> PeriodicNoise:
    period = draw(st.integers(2_000, 3 * _CHUNK_NS))
    duration = draw(st.integers(1, period - 1))
    phase = draw(st.integers(-4 * _CHUNK_NS, 4 * _CHUNK_NS))
    return PeriodicNoise(period, duration, phase=phase, name=name)


@st.composite
def poisson(draw, name: str = "poisson") -> PoissonNoise:
    mean = draw(st.integers(1_000, 400_000))
    rate = draw(st.floats(50.0, min(50_000.0, 0.5e9 / mean)))
    dist = draw(st.sampled_from(["constant", "exponential"]))
    cap = draw(st.sampled_from([None, 3 * _CHUNK_NS]))
    return PoissonNoise(rate, mean, seed=draw(st.integers(0, 2**16)),
                        duration_dist=dist, name=name,
                        max_duration=cap if dist == "exponential" else None)


@st.composite
def tick(draw, name: str = "tick") -> BernoulliTickNoise:
    period = draw(st.integers(10_000, 2 * _CHUNK_NS))
    heavy = draw(st.integers(2, period - 1))
    base = draw(st.integers(0, heavy - 1))
    return BernoulliTickNoise(period, base, heavy,
                              draw(st.floats(0.0, 1.0)),
                              phase=draw(st.integers(0, period)),
                              seed=draw(st.integers(0, 2**16)), name=name)


@st.composite
def burst(draw, name: str = "burst") -> BurstNoise:
    duration = draw(st.integers(1_000, 200_000))
    count = draw(st.integers(1, 6))
    gap = draw(st.integers(0, 100_000))
    train = count * duration + (count - 1) * gap
    period = draw(st.integers(train + 1, train + 3 * _CHUNK_NS))
    return BurstNoise(period, duration, count, gap,
                      phase=draw(st.integers(-_CHUNK_NS, _CHUNK_NS)),
                      name=name)


@st.composite
def one_off(draw, name: str = "one-off") -> OneOffNoise:
    return OneOffNoise(draw(st.integers(0, 4 * _CHUNK_NS)),
                       draw(st.integers(1, 3 * _CHUNK_NS)), name=name)


@st.composite
def trace(draw, name: str = "trace") -> TraceNoise:
    events = draw(st.lists(
        st.tuples(st.integers(0, 3 * _CHUNK_NS),
                  st.integers(1, 2 * _CHUNK_NS)), min_size=1, max_size=12))
    last_end = max(s + d for s, d in events)
    repeat = draw(st.sampled_from([None, last_end, 2 * last_end + 7]))
    src = TraceNoise(events, repeat_every=repeat, name=name)
    if repeat is not None and src.utilization > 0.9:
        # A tiling that (nearly) never idles has no finite wall time.
        src = TraceNoise(events, repeat_every=2 * last_end + 7, name=name)
    return src


LEAVES = [periodic, poisson, tick, burst, one_off, trace]


@st.composite
def composite(draw) -> CompositeNoise:
    kinds = draw(st.lists(st.sampled_from(LEAVES), min_size=2, max_size=4))
    sources = [kind(name=f"s{i}") for i, kind in enumerate(kinds)]
    # Keep the bound on total utilization that CompositeNoise enforces.
    kept: list[NoiseSource] = []
    for src in (draw(s) for s in sources):
        if sum(k.utilization for k in kept) + src.utilization < 0.95:
            kept.append(src)
    while len(kept) < 2:
        kept.append(OneOffNoise(len(kept) * 1_000, 10, name=f"pad{len(kept)}"))
    return CompositeNoise(kept)


any_source = st.one_of(*(kind() for kind in LEAVES), composite())

#: Starts near chunk edges, plus arbitrary ones.
starts = st.one_of(
    st.integers(-2 * _CHUNK_NS, 8 * _CHUNK_NS),
    st.builds(lambda k, d: k * _CHUNK_NS + d,
              st.integers(-1, 8), st.integers(-50, 50)))
works = st.one_of(st.integers(0, 2_000), st.integers(0, 4 * _CHUNK_NS))


def _event_starts(src: NoiseSource) -> list[int]:
    return [ev.start for ev in src.events_in(-_CHUNK_NS, 6 * _CHUNK_NS)]


# -- differential properties ---------------------------------------------------------

@_SETTINGS
@given(src=any_source, start=starts, work=works)
def test_wall_time_matches_iterative_oracle(src, start, work):
    assert src.wall_time(start, work) == oracle_wall(src, start, work)


@_SETTINGS
@given(src=any_source, start=starts, span=works)
def test_stolen_between_matches_event_merge(src, start, span):
    end = start + span
    assert src.stolen_between(start, end) == oracle_stolen(src, start, end)


@_SETTINGS
@given(src=any_source, data=st.data())
def test_wall_time_from_inside_an_event(src, data):
    """Starts inside (or at the edges of) an event take the slow path
    of the old solver; the index must land on the same instant."""
    evs = _event_starts(src)
    if not evs:
        return
    ev_start = data.draw(st.sampled_from(evs))
    start = ev_start + data.draw(st.integers(-1, 2 * _CHUNK_NS))
    work = data.draw(works)
    assert src.wall_time(start, work) == oracle_wall(src, start, work)


def test_event_longer_than_several_chunks():
    src = CompositeNoise([OneOffNoise(_CHUNK_NS - 3, 5 * _CHUNK_NS, name="a"),
                          PeriodicNoise(1_000_000, 25_000, phase=-7, name="b")])
    for start in (0, _CHUNK_NS - 4, _CHUNK_NS - 3, 2 * _CHUNK_NS + 1,
                  6 * _CHUNK_NS - 4, 6 * _CHUNK_NS):
        for work in (1, 977, _CHUNK_NS, 3 * _CHUNK_NS + 5):
            assert src.wall_time(start, work) == oracle_wall(src, start, work)
            assert (src.stolen_between(start, start + work)
                    == oracle_stolen(src, start, start + work))


# -- the bulk engine's vectorized periodic inverse ---------------------------------

@_SETTINGS
@given(src=periodic(), data=st.data())
def test_bulk_wall_equals_scalar_periodic(src, data):
    n = data.draw(st.integers(1, 16))
    phases = np.array(data.draw(st.lists(
        st.integers(-4 * _CHUNK_NS, 4 * _CHUNK_NS), min_size=n, max_size=n)),
        dtype=np.int64)
    start = np.array(data.draw(st.lists(starts, min_size=n, max_size=n)),
                     dtype=np.int64)
    lanes = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                        min_size=n, max_size=n)),
                     dtype=np.int64)
    work = data.draw(works)
    bulk = _BulkNoise(src.period, src.duration, phases)
    got = bulk.wall(start, work, lanes)
    want = [PeriodicNoise(src.period, src.duration,
                          phase=int(phases[lane])).wall_time(int(t), work)
            for t, lane in zip(start, lanes)]
    assert got.dtype == np.int64
    assert got.tolist() == want
