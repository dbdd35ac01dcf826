"""Canonical injected-noise patterns.

The noise literature's standard experiment holds *net* CPU utilization
fixed while sweeping granularity: the same 2.5 % of every node's CPU
taken as rare long interruptions or frequent short ones.  This module
names those patterns and parses compact spec strings so experiment
configs stay declarative:

    >>> parse_pattern("2.5pct@100Hz").duration
    250000

Spec grammar (case-insensitive)::

    "<pct>pct@<freq>Hz"          periodic, e.g. "2.5pct@10Hz"
    "<pct>pct@<freq>Hzpoisson"   Poisson arrivals, same mean rate/size
    "<pct>pct@<freq>HzburstN"    each activation split into N slices
                                 separated by short gaps (interrupt
                                 trains), same net utilization
    "quiet"                      no injected noise

The classic sweep triple used throughout the benchmarks is
:data:`CANONICAL_SWEEP`: 2.5 % net at 10 Hz (2.5 ms events), 100 Hz
(250 µs), and 1000 Hz (25 µs).
"""

from __future__ import annotations

import re

from ..errors import ConfigError
from ..sim.timebase import SECOND
from .base import NoiseSource, NullNoise
from .burst import BurstNoise
from .periodic import PeriodicNoise
from .random_noise import PoissonNoise

__all__ = ["parse_pattern", "pattern_names", "CANONICAL_SWEEP",
           "canonical_patterns", "is_quiet"]

#: The standard fixed-utilization granularity sweep (2.5 % net).
CANONICAL_SWEEP: tuple[str, ...] = (
    "2.5pct@10Hz", "2.5pct@100Hz", "2.5pct@1000Hz",
)

#: Spellings (case-insensitive, surrounding blanks ignored) that mean
#: "no injected noise".
QUIET_ALIASES = ("quiet", "none", "off")

_SPEC_RE = re.compile(
    r"^(?P<pct>\d+(?:\.\d+)?)pct@(?P<freq>\d+(?:\.\d+)?)hz"
    r"(?P<kind>poisson|burst(?P<burst_n>\d+))?$",
    re.IGNORECASE)


def is_quiet(spec: str) -> bool:
    """True if ``spec`` names the quiet (noise-free) pattern."""
    return spec.strip().lower() in QUIET_ALIASES


def parse_pattern(spec: str, *, phase: int = 0, seed: int = 0) -> NoiseSource:
    """Build a noise source from a compact spec string.

    Parameters
    ----------
    spec:
        Pattern string (see module docstring), or ``"quiet"``.
    phase:
        Phase offset in ns for periodic patterns (per-node alignment).
    seed:
        RNG seed for stochastic patterns (ignored for periodic).
    """
    if is_quiet(spec):
        return NullNoise(name="quiet")
    text = spec.strip()
    m = _SPEC_RE.match(text)
    if not m:
        raise ConfigError(
            f"unrecognized noise pattern {spec!r}; expected e.g. "
            "'2.5pct@100Hz', '1pct@10HzPoisson', or 'quiet'")
    pct = float(m.group("pct"))
    freq = float(m.group("freq"))
    if not 0 < pct < 100:
        raise ConfigError(f"pattern percentage must be in (0, 100), got {pct}")
    if freq <= 0:
        raise ConfigError(f"pattern frequency must be > 0 Hz, got {freq}")
    utilization = pct / 100.0
    kind = (m.group("kind") or "").lower()
    if kind == "poisson":
        mean_duration = round(utilization * SECOND / freq)
        if mean_duration <= 0:
            raise ConfigError(f"pattern {spec!r} rounds to a 0 ns event")
        return PoissonNoise(freq, mean_duration, seed=seed,
                            name=text.lower())
    if kind.startswith("burst"):
        n = int(m.group("burst_n"))
        if n < 1:
            raise ConfigError(f"burst count must be >= 1 in {spec!r}")
        period = round(SECOND / freq)
        slice_ns = round(period * utilization / n)
        if slice_ns <= 0:
            raise ConfigError(f"pattern {spec!r} rounds to a 0 ns slice")
        gap = max(1, slice_ns // 10)
        return BurstNoise(period, slice_ns, n, gap, phase=phase,
                          name=text.lower())
    return PeriodicNoise.from_utilization(utilization, freq, phase=phase,
                                          name=text.lower())


def pattern_names(sweep: tuple[str, ...] = CANONICAL_SWEEP) -> list[str]:
    """The quiet baseline plus the given sweep, in reporting order."""
    return ["quiet", *sweep]


def canonical_patterns(*, phase: int = 0, seed: int = 0) -> dict[str, NoiseSource]:
    """Instantiate the quiet baseline and the canonical sweep."""
    return {name: parse_pattern(name, phase=phase, seed=seed)
            for name in pattern_names()}
