"""Noise generation and injection framework.

Everything that steals CPU from the application is a
:class:`NoiseSource`: strictly periodic patterns
(:class:`PeriodicNoise`), stochastic arrivals (:class:`PoissonNoise`,
:class:`BernoulliTickNoise`), bursts (:class:`BurstNoise`), recorded
traces (:class:`TraceNoise`), and unions of all of those
(:class:`CompositeNoise`).  Each source exposes both an *event view*
(for trace-fidelity simulation and observer attribution) and an exact
*aggregate view* (for fast sampled-fidelity scaling runs); the two are
consistent by construction.

:func:`parse_pattern` turns compact strings like ``"2.5pct@100Hz"``
into sources, and :class:`InjectionPlan` distributes a pattern over the
machine with a chosen cross-node alignment policy.
"""

from .base import (
    NoiseEvent,
    NoiseSource,
    NullNoise,
    merge_busy_time,
    merge_interval_lists,
    merged_intervals,
)
from .burst import BurstNoise
from .composite import CompositeNoise
from .injection import InjectionPlan
from .oneoff import ONE_OFF_SOURCE, OneOffNoise
from .patterns import (
    CANONICAL_SWEEP,
    canonical_patterns,
    is_quiet,
    parse_pattern,
    pattern_names,
)
from .periodic import PeriodicNoise
from .playback import TraceNoise
from .random_noise import BernoulliTickNoise, ChunkedRandomNoise, PoissonNoise

__all__ = [
    "NoiseEvent", "NoiseSource", "NullNoise",
    "merge_busy_time", "merged_intervals", "merge_interval_lists",
    "PeriodicNoise", "PoissonNoise", "BernoulliTickNoise",
    "ChunkedRandomNoise", "BurstNoise", "TraceNoise", "CompositeNoise",
    "OneOffNoise", "ONE_OFF_SOURCE",
    "InjectionPlan",
    "parse_pattern", "pattern_names", "canonical_patterns", "CANONICAL_SWEEP",
    "is_quiet",
]
