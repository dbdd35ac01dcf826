"""E15 — Fault resilience: the cost of recovering from a lossy fabric.

The reliable machine of E1–E14 never loses a byte; this experiment
turns on the :mod:`repro.faults` layer and measures what message loss
costs once the MPI point-to-point layer has to detect it (ack
timeouts) and repair it (retransmission with exponential backoff).  A
drop-rate × ack-timeout grid is swept against the fault-free baseline;
one extra row exercises duplicate delivery to show the suppression
path.

Expected shape: slowdown grows monotonically with drop rate at fixed
timeout (the seed-derived drop decisions are superset-stable: raising
the rate only adds drops); a timeout much longer than the network RTT
pays more per loss than a tight one; the drop=0 grid point is
bit-identical to the fault-free machine (the protocol engages only
when faults can occur); and duplicate delivery alone is nearly free —
receivers suppress replays by protocol id without retransmission.
"""

from __future__ import annotations

from dataclasses import replace

from ...core import ExperimentConfig
from ...faults import FaultPlan
from ...parallel import ComparisonPlan, plan_points
from ..base import ExperimentReport, Scale

EXPERIMENT_ID = "E15"
TITLE = "Fault resilience: drop-rate x ack-timeout recovery cost"
SEED = 151

_DROP_RATES = (0.0, 0.01, 0.03, 0.08)
_TIMEOUTS_NS = (200_000, 1_000_000)  # 200 us (tight), 1 ms (lazy)
_DUP_RATE = 0.05
_DUP_KEY = ("dup", _DUP_RATE)
_NODES = {"small": 8, "full": 32}


def _label(timeout_ns: int) -> str:
    return f"{timeout_ns // 1000}us"


def plan(scale: Scale, seed: int) -> ComparisonPlan:
    base = ExperimentConfig(
        app="bsp", nodes=_NODES[scale], noise_pattern="quiet", seed=seed,
        kernel="lightweight",
        app_params=dict(work_ns=500_000,
                        iterations=20 if scale == "small" else 60,
                        collective="allreduce"))

    def faults(drop: float, timeout_ns: int, dup: float = 0.0) -> FaultPlan:
        return FaultPlan(drop_rate=drop, duplicate_rate=dup, seed=seed,
                         ack_timeout_ns=timeout_ns)

    configs: dict[tuple, ExperimentConfig] = {("base",): base}
    labels = {("base",): "fault-free baseline"}
    for timeout_ns in _TIMEOUTS_NS:
        for drop in _DROP_RATES:
            key = ("fault", drop, timeout_ns)
            configs[key] = replace(base, faults=faults(drop, timeout_ns))
            labels[key] = f"drop={drop} timeout={_label(timeout_ns)}"
    configs[_DUP_KEY] = replace(base, faults=faults(0.0, _TIMEOUTS_NS[0],
                                                 dup=_DUP_RATE))
    labels[_DUP_KEY] = f"dup={_DUP_RATE}"
    return plan_points(configs, labels)


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    base_ns = results[("base",)].makespan_ns

    headers = ["drop rate", "ack timeout", "makespan ms", "slowdown %",
               "retries", "dropped", "dup suppressed"]
    rows = []
    slowdowns: dict[int, list[float]] = {t: [] for t in _TIMEOUTS_NS}
    retries: dict[int, list[int]] = {t: [] for t in _TIMEOUTS_NS}
    per_node: dict[str, dict[str, int]] = {}
    for timeout_ns in _TIMEOUTS_NS:
        for drop in _DROP_RATES:
            res = results[("fault", drop, timeout_ns)]
            sd = res.makespan_ns / base_ns - 1.0
            fs = res.meta.get("faults") or {}
            slowdowns[timeout_ns].append(sd)
            retries[timeout_ns].append(fs.get("total_retries", 0))
            if drop > 0:
                per_node[f"drop={drop}@{_label(timeout_ns)}"] = {
                    "retries_by_node": fs.get("retries", {}),
                    "drops_by_node": fs.get("drops_by_node", {}),
                }
            rows.append([drop, _label(timeout_ns),
                         round(res.makespan_ns / 1e6, 3),
                         round(100 * sd, 2),
                         fs.get("total_retries", 0),
                         fs.get("messages_dropped", 0),
                         fs.get("total_duplicates_suppressed", 0)])
    dup_res = results[_DUP_KEY]
    dup_fs = dup_res.meta.get("faults") or {}
    rows.append([f"0 (dup={_DUP_RATE})", _label(_TIMEOUTS_NS[0]),
                 round(dup_res.makespan_ns / 1e6, 3),
                 round(100 * (dup_res.makespan_ns / base_ns - 1.0), 2),
                 dup_fs.get("total_retries", 0),
                 dup_fs.get("messages_dropped", 0),
                 dup_fs.get("total_duplicates_suppressed", 0)])

    tight, lazy = _TIMEOUTS_NS
    checks = {
        "drop=0 is bit-identical to the fault-free machine": all(
            results[("fault", 0.0, t)].makespan_ns == base_ns
            for t in _TIMEOUTS_NS),
        "slowdown non-decreasing in drop rate (tight timeout)":
            all(a <= b for a, b in zip(slowdowns[tight],
                                       slowdowns[tight][1:])),
        "slowdown non-decreasing in drop rate (lazy timeout)":
            all(a <= b for a, b in zip(slowdowns[lazy],
                                       slowdowns[lazy][1:])),
        "losses trigger retransmissions":
            all(r > 0 for r in retries[tight][1:] + retries[lazy][1:]),
        "lazy timeout pays more at the highest drop rate":
            slowdowns[lazy][-1] >= slowdowns[tight][-1],
        "duplicates are suppressed without retransmission cost":
            dup_fs.get("total_duplicates_suppressed", 0) > 0
            and dup_res.makespan_ns < results[
                ("fault", _DROP_RATES[-1], tight)].makespan_ns,
    }
    findings = {
        "slowdown_pct_by_timeout": {
            _label(t): [round(100 * s, 2) for s in slowdowns[t]]
            for t in _TIMEOUTS_NS},
        "per_node_counters": per_node,
        "duplicates_suppressed": dup_fs.get(
            "total_duplicates_suppressed", 0),
    }
    return ExperimentReport(
        EXPERIMENT_ID, TITLE, headers, rows, checks=checks,
        findings=findings,
        notes=(f"BSP allreduce, P={_NODES[scale]}, quiet noise; drop rates "
               f"{list(_DROP_RATES)} x ack timeouts "
               f"{[_label(t) for t in _TIMEOUTS_NS]}, seed={seed}"))
