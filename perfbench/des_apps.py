"""Workload ``des_apps``: noisy-vs-quiet comparisons of every app skeleton.

One operation is one :func:`repro.core.run_with_baseline` call (two
simulation points).  A *round* covers one app: its comparison under each
kernel preset, then a repeat of its ``lightweight`` and
``commodity-linux`` comparisons.  The repeats are the workload's *warm*
operations: nothing in the program caches across calls, so today they
cost what the first run cost.

Machine size is fixed per app and ``app_params`` per cell, sized so
that the six rounds take about :data:`NOMINAL_S` seconds on a 2-core
Xeon box.
The seed draws only the noise amplitude (0.5-2.5 %), its alignment and
the sim seed; each app meets each frequency (10/100/1000 Hz) once, and
which kernel meets which frequency is fixed, so every seed costs about
the same.
"""

from __future__ import annotations

import random
import typing as _t

from common import digest

NAME = "des_apps"
NOMINAL_S = 15.0

#: (app, nodes, app_params per kernel in :data:`KERNELS` order): 16-64
#: nodes.  ``app_params`` are set per kernel so that every comparison
#: costs about 0.5 s on the reference host: with costs from 0.4 to 1.5 s
#: the latency percentiles sat between cells of different cost and
#: jumped with the order the host's noise gave them.
APPS: tuple[tuple[str, int, tuple[dict[str, int], ...]], ...] = (
    ("bsp", 64, ({"iterations": 13}, {"iterations": 5},
                 {"iterations": 7})),
    ("pop", 16, ({"iterations": 6, "solver_iterations": 12},
                 {"iterations": 3, "solver_iterations": 12},
                 {"iterations": 4, "solver_iterations": 12})),
    ("stencil", 64, ({"iterations": 9}, {"iterations": 4},
                     {"iterations": 4})),
    ("sweep", 32, ({"iterations": 4, "blocks_per_rank": 6},
                   {"iterations": 2, "blocks_per_rank": 5},
                   {"iterations": 2, "blocks_per_rank": 5})),
    ("cg", 32, ({"iterations": 13}, {"iterations": 5}, {"iterations": 7})),
    ("transpose", 16, ({"iterations": 14}, {"iterations": 7},
                       {"iterations": 9})),
)
KERNELS = ("lightweight", "commodity-linux", "tuned-linux")
#: Comparisons of each round that are run a second time (warm).
WARM_REPEATS = 2
FREQS_HZ = (10, 100, 1000)
ALIGNMENTS = ("random", "staggered", "synchronized")

#: Cells that switch on the observer, critical-path recording or the
#: lossy fabric, so those layers carry work on this workload.
TELEMETRY: dict[tuple[str, str], dict[str, _t.Any]] = {
    ("bsp", "commodity-linux"): {"observer": "profile"},
    ("stencil", "tuned-linux"): {"observer": "trace"},
    ("pop", "lightweight"): {"critical_path": True},
    ("cg", "commodity-linux"): {"critical_path": True},
    ("sweep", "tuned-linux"): {"faults": "drop=0.01,timeout=300us"},
}


def plan(seed: int, seconds: float) -> list[dict[str, _t.Any]]:
    """The operation specs of one run (pure data, no program import)."""
    rng = random.Random(f"{NAME}/{seed}")
    rounds = []
    for i, (app, nodes, kernel_params) in enumerate(APPS):
        # Kernel k of app i meets frequency (i + k) mod 3 for every
        # seed: a cell's cost depends on its frequency and kernel far
        # more than on anything the seed draws.
        freqs = FREQS_HZ[i % 3:] + FREQS_HZ[:i % 3]
        cells = []
        for kernel, freq, params in zip(KERNELS, freqs, kernel_params):
            pct = round(rng.uniform(0.5, 2.5), 2)
            spec = {"app": app, "nodes": nodes, "kernel": kernel,
                    "noise_pattern": f"{pct}pct@{freq}Hz",
                    "alignment": rng.choice(ALIGNMENTS),
                    "seed": rng.randrange(1, 2**31),
                    "app_params": dict(params),
                    **TELEMETRY.get((app, kernel), {})}
            cells.append(spec)
        rounds.append(cells + cells[:WARM_REPEATS])
    n_rounds = max(1, round(len(APPS) * seconds / NOMINAL_S))
    return [op for i in range(n_rounds) for op in rounds[i % len(rounds)]]


def imports() -> None:
    import repro.core  # noqa: F401


def prepare(spec: dict[str, _t.Any]) -> _t.Any:
    from repro.core import ExperimentConfig

    return ExperimentConfig(**spec)


def execute(config: _t.Any) -> tuple[int, str, dict[str, int]]:
    """Run one comparison: ``(points, output digest, counters)``."""
    from repro.core import run_with_baseline

    cmp = run_with_baseline(config)
    out = [[r.makespan_ns, r.iteration_durations_ns.tolist()]
           for r in (cmp.quiet, cmp.noisy)]
    retries = sum(r.meta.get("faults", {}).get("total_retries", 0)
                  for r in (cmp.quiet, cmp.noisy))
    return 2, digest(out), {"faults.retransmits": retries}
