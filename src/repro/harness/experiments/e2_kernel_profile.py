"""E2 — Direct kernel-activity attribution profile.

The observation framework's bread and butter: run a real application on
an observed commodity-kernel node and produce the TAU-style per-activity
kernel profile — which kernel operations ran, how often, how long, and
what share of the application's window they stole.  This is the table
indirect benchmarks (E1) cannot produce: FTQ sees *that* CPU vanished,
the observer sees *who took it*.
"""

from __future__ import annotations

from ...core import Machine, MachineConfig
from ...apps import StencilApp
from ...ktau import EventKind, KtauTracer, build_kernel_profile
from ..base import ExperimentReport, Scale, no_points

EXPERIMENT_ID = "E2"
TITLE = "Per-activity kernel profile under a running application"
SEED = 23
plan = no_points


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    # The window must cover multiple activations of the slowest daemon
    # (kswapd at 1 Hz), so the simulated run spans a few seconds.
    iterations = 150 if scale == "small" else 600
    machine = Machine(MachineConfig(n_nodes=4, kernel="commodity-linux",
                                    seed=seed))
    tracer = KtauTracer(machine, level="trace", overhead="profile")
    app = StencilApp(work_ns=20_000_000, halo_bytes=8192,
                     iterations=iterations).bind_tracer(tracer)
    machine.run_to_completion(machine.launch(app))

    profile = build_kernel_profile(tracer, 0, 0, machine.env.now)
    headers = ["source", "kind", "count", "total", "mean ns", "max ns",
               "% of window"]
    rows = []
    for entry in sorted(profile.entries, key=lambda e: e.total_ns,
                        reverse=True):
        rows.append([entry.source, entry.kind, entry.count,
                     f"{entry.total_ns / 1e6:.3f} ms",
                     round(entry.mean_ns, 1), entry.max_ns,
                     round(100 * entry.total_ns / profile.window_ns, 4)])

    kinds = profile.by_kind()
    sources = {e.source for e in profile.entries}
    timer = profile.entry("timer-irq")
    checks = {
        "timer interrupt observed": "timer-irq" in sources,
        "NIC softirq observed (halo traffic)": "nic-rx" in sources,
        "daemon activity observed":
            kinds.get(EventKind.DAEMON, 0) > 0,
        "observer cost visible and small":
            0 <= kinds.get(EventKind.OBSERVER, 0) < kinds.get(
                EventKind.INTERRUPT, 1),
        "timer dominates kernel event count":
            timer.count == max(e.count for e in profile.entries
                               if e.kind != EventKind.OBSERVER),
        "total kernel share plausible (<5%)":
            0 < profile.utilization < 0.05,
    }
    findings = {
        "window_ms": round(profile.window_ns / 1e6, 2),
        "kernel_share_pct": round(100 * profile.utilization, 3),
        "by_kind_pct": {k: round(100 * v / profile.window_ns, 4)
                        for k, v in kinds.items()},
    }
    return ExperimentReport(EXPERIMENT_ID, TITLE, headers, rows,
                            checks=checks, findings=findings,
                            notes="node 0 of 4, stencil app, "
                                  "commodity-linux kernel, trace observer")
