"""E1 — FTQ traces and spectra: quiet kernel vs noisy kernels.

Regenerates the classic noise-signature figure: per-quantum FTQ counts
on (a) a lightweight kernel, (b) a commodity Linux kernel, and (c) a
lightweight kernel with an injected 10 Hz pattern; the spectrum of each
series exposes the periodic structure the time series hides.

Expected shape: the quiet kernel is perfectly flat (zero lost work, no
spectral peaks); the commodity kernel shows its timer-tick line; the
injected pattern shows a sharp line at the injection frequency.
"""

from __future__ import annotations

from ...analysis.spectral import find_peaks
from ...core import Machine, MachineConfig
from ...microbench import FTQBenchmark
from ...noise import InjectionPlan
from ..base import ExperimentReport, Scale, no_points

EXPERIMENT_ID = "E1"
TITLE = "FTQ noise signatures and spectra per kernel"
SEED = 11
plan = no_points


def _node(kernel: str, injection: InjectionPlan | None, seed: int):
    machine = Machine(MachineConfig(n_nodes=1, kernel=kernel,
                                    injection=injection, seed=seed))
    return machine.nodes[0]


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    n_quanta = 2048 if scale == "small" else 16384
    bench = FTQBenchmark(n_quanta=n_quanta)

    configs = [
        ("lightweight (quiet)", _node("lightweight", None, seed)),
        ("commodity-linux", _node("commodity-linux", None, seed)),
        ("tuned-linux", _node("tuned-linux", None, seed)),
        ("lightweight + 2.5pct@10Hz",
         _node("lightweight",
               InjectionPlan("2.5pct@10Hz", alignment="synchronized",
                             seed=seed), seed)),
    ]

    headers = ["kernel", "noise %", "min count", "mean count", "cov",
               "peak1 Hz", "peak2 Hz"]
    rows = []
    peaks_by_name = {}
    results = {}
    for name, node in configs:
        res = bench.run(node, start_time=0)
        stats = res.stats()
        peaks = find_peaks(res.spectrum(), top=2)
        peaks_by_name[name] = [p.frequency_hz for p in peaks]
        results[name] = res
        rows.append([name, round(100 * res.noise_fraction, 3),
                     int(stats.minimum), round(stats.mean, 1),
                     round(stats.cov, 5),
                     round(peaks[0].frequency_hz, 1) if peaks else None,
                     round(peaks[1].frequency_hz, 1) if len(peaks) > 1 else None])

    quiet = results["lightweight (quiet)"]
    injected_peaks = peaks_by_name["lightweight + 2.5pct@10Hz"]
    commodity = results["commodity-linux"]

    checks = {
        "quiet kernel is flat (zero noise)": quiet.noise_fraction == 0.0,
        "quiet kernel has no spectral peaks":
            not peaks_by_name["lightweight (quiet)"],
        "injected 10 Hz line detected (fundamental or harmonic)":
            any(abs(f / 10.0 - round(f / 10.0)) < 0.05 and f <= 50
                for f in injected_peaks),
        "commodity kernel loses CPU": commodity.noise_fraction > 0,
        "commodity kernel noisier than tuned":
            commodity.noise_fraction
            > results["tuned-linux"].noise_fraction,
        "injected net utilization ≈ 2.5%":
            abs(results["lightweight + 2.5pct@10Hz"].noise_fraction - 0.025)
            < 0.005,
    }
    findings = {
        "commodity_noise_pct": round(100 * commodity.noise_fraction, 3),
        "injected_detected_peaks_hz":
            [round(f, 1) for f in injected_peaks],
    }
    return ExperimentReport(EXPERIMENT_ID, TITLE, headers, rows,
                            checks=checks, findings=findings,
                            notes=f"{n_quanta} quanta of 1 ms FTQ per kernel")
