"""Spectral analysis of noise-measurement series.

The FTQ benchmark's headline analysis: take the per-quantum work (or
per-iteration duration) series, compute its periodogram, and read the
noise's frequency signature off the peaks — a 10 Hz daemon shows up as
a 10 Hz spectral line regardless of how small its duty cycle is.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

import numpy as np
from scipy import signal as _signal

__all__ = ["Spectrum", "SpectralPeak", "periodogram", "find_peaks",
           "dominant_frequencies", "lomb_scargle"]


@dataclass(frozen=True, slots=True)
class Spectrum:
    """One-sided power spectrum of a uniformly sampled series."""

    frequencies_hz: np.ndarray
    power: np.ndarray
    sample_rate_hz: float


@dataclass(frozen=True, slots=True)
class SpectralPeak:
    """A local maximum of the spectrum."""

    frequency_hz: float
    power: float
    prominence: float


def periodogram(series: _t.Sequence[float] | np.ndarray,
                sample_interval_ns: int) -> Spectrum:
    """Detrended one-sided periodogram of a uniformly sampled series.

    Parameters
    ----------
    series:
        Samples (e.g. FTQ work counts per quantum), uniformly spaced.
    sample_interval_ns:
        Spacing between samples, ns (the FTQ quantum).
    """
    arr = np.asarray(series, dtype=float)
    if arr.size < 8:
        raise ValueError(f"need at least 8 samples for a spectrum, got {arr.size}")
    if sample_interval_ns <= 0:
        raise ValueError("sample_interval_ns must be > 0")
    fs = 1e9 / sample_interval_ns
    freqs, power = _signal.periodogram(arr, fs=fs, detrend="constant",
                                       scaling="spectrum")
    # Drop the DC bin: detrended anyway, and it swamps peak pickers.
    return Spectrum(frequencies_hz=freqs[1:], power=power[1:],
                    sample_rate_hz=fs)


def find_peaks(spectrum: Spectrum, *, top: int = 8,
               min_prominence_ratio: float = 0.05) -> list[SpectralPeak]:
    """The most prominent spectral peaks, strongest first.

    ``min_prominence_ratio`` filters peaks whose prominence is below
    that fraction of the maximum power (noise-floor wiggle).
    """
    if top <= 0:
        raise ValueError("top must be > 0")
    power = spectrum.power
    if power.size == 0 or float(power.max()) == 0.0:
        return []
    idx, props = _signal.find_peaks(
        power, prominence=min_prominence_ratio * float(power.max()))
    peaks = [SpectralPeak(float(spectrum.frequencies_hz[i]), float(power[i]),
                          float(p))
             for i, p in zip(idx, props["prominences"])]
    peaks.sort(key=lambda p: p.power, reverse=True)
    return peaks[:top]


def lomb_scargle(times_ns: _t.Sequence[int] | np.ndarray,
                 values: _t.Sequence[float] | np.ndarray,
                 freqs_hz: _t.Sequence[float] | np.ndarray | None = None
                 ) -> Spectrum:
    """Lomb–Scargle spectrum for *non-uniformly* sampled series.

    The FWQ benchmark's samples are irregularly spaced (each struck
    sample stretches), so a plain periodogram is formally invalid for
    them; Lomb–Scargle handles arbitrary sample instants.

    Parameters
    ----------
    times_ns:
        Sample instants, ns (need not be uniform).
    values:
        Sample values (e.g. per-sample detour).
    freqs_hz:
        Analysis frequencies; default is a linear grid from ~1 cycle
        per record up to the mean-Nyquist rate.
    """
    t = np.asarray(times_ns, dtype=float) / 1e9
    y = np.asarray(values, dtype=float)
    if t.size != y.size or t.size < 8:
        raise ValueError("need >= 8 aligned samples")
    span = float(t.max() - t.min())
    if span <= 0:
        raise ValueError("sample instants must span a nonzero window")
    y = y - y.mean()
    if freqs_hz is None:
        mean_dt = span / (t.size - 1)
        nyquist = 0.5 / mean_dt
        freqs_hz = np.linspace(1.0 / span, nyquist, min(2000, 4 * t.size))
    freqs_hz = np.asarray(freqs_hz, dtype=float)
    if (freqs_hz <= 0).any():
        raise ValueError("analysis frequencies must be > 0")
    power = _signal.lombscargle(t, y, 2 * np.pi * freqs_hz, normalize=True)
    sample_rate = (t.size - 1) / span
    return Spectrum(frequencies_hz=freqs_hz, power=power,
                    sample_rate_hz=sample_rate)


def dominant_frequencies(series: _t.Sequence[float] | np.ndarray,
                         sample_interval_ns: int, *, top: int = 4) -> list[float]:
    """Convenience: the ``top`` peak frequencies of a series' spectrum."""
    spec = periodogram(series, sample_interval_ns)
    return [p.frequency_hz for p in find_peaks(spec, top=top)]
