"""E16 — Critical-path attribution vs ground truth.

The cross-node dependency recorder (:mod:`repro.obs.critpath`) claims
it can walk backwards from the last rank's completion, reconstruct the
run's critical path, and charge every nanosecond of it to a named
cause.  This experiment validates that claim against a scenario whose
ground truth is known by construction:

* a **quiet** machine — lightweight kernel (tickless, daemonless, no
  NIC rx steals), no injected noise — whose critical path must contain
  *zero* noise charge;
* the same machine with a single ``"ghost"`` periodic source planted
  on **one** node; every extra nanosecond of makespan must be charged
  to that source, on that node, because nothing else changed.

BSP + allreduce couples every rank each iteration, so the one slow
node drags the whole machine — the paper's core amplification
mechanism — and the critical path must route through it.

Checks
------
1. **accounting closure** — critical-path segments sum exactly to the
   makespan (the backward walk telescopes; anything else is a bug);
2. **attribution** — ≥90 % of the quiet-vs-noisy makespan gap is
   charged to the ghost (the rest is collective re-timing slop);
3. **no false positives** — the quiet run charges 0 ns to noise;
4. **localization** — every ghost nanosecond lands on the planted node.
"""

from __future__ import annotations

from ...apps import BSPApp
from ...core import Machine, MachineConfig
from ...noise import PeriodicNoise
from ...obs.critpath import diff_critical_paths
from ..base import ExperimentReport, Scale, no_points

EXPERIMENT_ID = "E16"
TITLE = "Critical-path attribution vs planted ground truth"
SEED = 161
plan = no_points

#: The planted source: 25 us stolen every 250 us (10 % of one node).
_GHOST_PERIOD = 250_000
_GHOST_DURATION = 25_000
_GHOST_NAME = "ghost"


def _run_once(n_nodes: int, iterations: int, seed: int,
              *, ghost_node: int | None) -> tuple[int, dict]:
    """One recorded run; returns (makespan_ns, critical-path dict)."""
    machine = Machine(MachineConfig(
        n_nodes=n_nodes, kernel="lightweight", seed=seed,
        critical_path=True))
    if ghost_node is not None:
        machine.nodes[ghost_node].add_noise_source(
            PeriodicNoise(_GHOST_PERIOD, _GHOST_DURATION, name=_GHOST_NAME))
    app = BSPApp(work_ns=400_000, iterations=iterations,
                 collective="allreduce")
    machine.run_to_completion(machine.launch(app))
    return app.makespan_ns(), machine.critical_path().as_dict()


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    n_nodes = 8 if scale == "small" else 32
    iterations = 20 if scale == "small" else 80
    ghost_node = n_nodes // 2

    quiet_span, quiet_cp = _run_once(n_nodes, iterations, seed,
                                     ghost_node=None)
    noisy_span, noisy_cp = _run_once(n_nodes, iterations, seed,
                                     ghost_node=ghost_node)
    diff = diff_critical_paths(quiet_cp, noisy_cp)

    gap = noisy_span - quiet_span
    ghost_total = noisy_cp["by_source"].get(_GHOST_NAME, 0)
    ghost_on_planted = (noisy_cp["by_node"]
                        .get(str(ghost_node), {}).get(_GHOST_NAME, 0))

    headers = ["node", "source", "charged ms", "% of path"]
    rows = []
    total = noisy_cp["total_ns"]
    for node, charges in sorted(noisy_cp["by_node"].items(),
                                key=lambda kv: int(kv[0])):
        for source, ns in sorted(charges.items()):
            rows.append([int(node), source, round(ns / 1e6, 3),
                         round(100 * ns / total, 2)])

    checks = {
        "segments sum to makespan (quiet and noisy, exact)":
            quiet_cp["total_ns"] == quiet_span
            and noisy_cp["total_ns"] == noisy_span,
        "quiet critical path charges 0 ns to noise":
            quiet_cp["noise_ns"] == 0,
        ">=90% of the makespan gap is charged to the ghost":
            gap > 0 and ghost_total >= 0.9 * gap,
        "every ghost ns lands on the planted node":
            ghost_total > 0 and ghost_on_planted == ghost_total,
        "diff names the ghost as top thief":
            diff["top_thief"] == _GHOST_NAME,
    }
    findings = {
        "quiet_makespan_ms": round(quiet_span / 1e6, 3),
        "noisy_makespan_ms": round(noisy_span / 1e6, 3),
        "gap_ms": round(gap / 1e6, 3),
        "ghost_charged_ms": round(ghost_total / 1e6, 3),
        "ghost_share_of_gap": round(ghost_total / gap, 4) if gap else 0.0,
        "net_hops": noisy_cp["n_net_hops"],
        "end_node": noisy_cp["end_node"],
    }
    return ExperimentReport(
        EXPERIMENT_ID, TITLE, headers, rows, checks=checks,
        findings=findings,
        notes=f"lightweight kernel, BSP+allreduce x{iterations}; "
              f"ghost = {_GHOST_DURATION / 1e3:.0f}us every "
              f"{_GHOST_PERIOD / 1e3:.0f}us planted on node {ghost_node} "
              f"of {n_nodes}")
