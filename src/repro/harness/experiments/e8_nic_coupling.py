"""E8 — Communication *generates* kernel noise: NIC coupling.

On a host-driven network stack, every received message costs interrupt
plus softirq CPU on the destination — so a communication-heavy phase
manufactures its own interference.  Sweep the halo-exchange message
size on (a) a host-driven NIC (commodity kernel) and (b) an offloaded
NIC (lightweight kernel), and attribute the rx-processing share with
the observer.

Expected shape: observed nic-rx kernel share grows with message volume
on the host-driven stack and is exactly zero when offloaded; the
host-driven runs are correspondingly slower.
"""

from __future__ import annotations

from ...apps import StencilApp
from ...core import Machine, MachineConfig
from ...ktau import KtauTracer
from ..base import ExperimentReport, Scale, no_points

EXPERIMENT_ID = "E8"
TITLE = "NIC receive processing as observed kernel noise"
SEED = 83
plan = no_points

_SIZES = [1_024, 16_384, 131_072]


def _run(kernel: str, halo_bytes: int, iterations: int, seed: int):
    machine = Machine(MachineConfig(n_nodes=9, kernel=kernel, seed=seed))
    tracer = KtauTracer(machine, level="trace")
    app = StencilApp(work_ns=2_000_000, halo_bytes=halo_bytes,
                     iterations=iterations, dt_interval=0).bind_tracer(tracer)
    machine.run_to_completion(machine.launch(app))
    # Centre node of the 3x3 grid receives from 4 neighbours.
    centre = 4
    breakdown = tracer.stolen_breakdown(centre, 0, machine.env.now)
    rx = breakdown.get("nic-rx", 0)
    return app.makespan_ns(), rx, machine.env.now


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    iterations = 30 if scale == "small" else 150

    headers = ["kernel", "halo bytes", "makespan ms", "nic-rx ms",
               "nic-rx % of run"]
    rows = []
    rx_share: dict[tuple[str, int], float] = {}
    spans: dict[tuple[str, int], int] = {}
    for kernel in ("commodity-linux", "lightweight"):
        for size in _SIZES:
            span, rx, total = _run(kernel, size, iterations, seed)
            share = 100 * rx / total
            rx_share[(kernel, size)] = share
            spans[(kernel, size)] = span
            rows.append([kernel, size, round(span / 1e6, 3),
                         round(rx / 1e6, 4), round(share, 4)])

    host = "commodity-linux"
    checks = {
        "rx share grows with message size (host-driven)":
            rx_share[(host, _SIZES[0])] < rx_share[(host, _SIZES[1])]
            < rx_share[(host, _SIZES[2])],
        "offloaded NIC shows zero rx noise":
            all(rx_share[("lightweight", s)] == 0 for s in _SIZES),
        "host-driven runs slower than offloaded at large messages":
            spans[(host, _SIZES[-1])] > spans[("lightweight", _SIZES[-1])],
        "rx noise significant at large messages (>0.5% of run)":
            rx_share[(host, _SIZES[-1])] > 0.5,
    }
    findings = {"rx_share_pct": {f"{k}/{s}": round(v, 4)
                                 for (k, s), v in rx_share.items()}}
    return ExperimentReport(EXPERIMENT_ID, TITLE, headers, rows,
                            checks=checks, findings=findings,
                            notes="3x3 stencil, centre node attributed; "
                                  "host-driven vs offloaded NIC")
