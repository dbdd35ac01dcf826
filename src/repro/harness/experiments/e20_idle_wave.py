"""E20 — Idle-wave propagation & decay from a planted one-off delay.

Afzal, Hager & Wellein (arXiv:1905.10603) turned the paper's causal
story — kernel noise does its damage by *propagating* through
communication dependencies — into a sharp, testable prediction.  Delay
one rank, once, and the delay does not stay put: it travels through
the program as an *idle wave* whose speed is set by the communication
pattern and whose decay length shrinks as background noise supplies
the slack that absorbs it.  This experiment plants exactly that probe
(:attr:`repro.faults.FaultPlan.one_off`) and measures the wave with
:mod:`repro.obs.wavefront` on two axes:

* **speed axis** — a tightly coupled BSP + allreduce program on a
  quiet machine, once with the ``ring`` algorithm and once with the
  topology-aware ``two-level`` algorithm.  The ring serializes the
  wave through P−1 forward hops (arrival order *is* the forward ring
  order); the two-level tree crosses the machine in O(tree-depth)
  hops, so the same delay sweeps the machine far faster.  Same
  machine, same delay — only the collective's dependency structure
  differs, and the wave speed follows it.
* **decay axis** — a loosely coupled halo-exchange stencil (no global
  collective), where the wave creeps neighbour-to-neighbour and
  background noise gets many iterations to act on it.  Quiet: the
  wave is undamped — every rank receives the full planted delay.
  Fine-grained Poisson noise (1000 Hz): each hop absorbs a little,
  finite decay length.  Coarse-grained Poisson noise (10 Hz, same
  utilization): rare-but-huge stalls create rank-sized slack pools
  that swallow the wave within a hop or two.  Decay length must
  *strictly decrease* from quiet → 1000 Hz → 10 Hz.  (Poisson
  arrivals, because damping is driven by cross-rank *variance* in
  stolen time — strictly periodic noise steals nearly equally from
  every rank per iteration and can leave the wave untouched.)

Every run is a plan point run by :class:`~repro.parallel.SweepExecutor`,
so ``--workers`` fan-out must reproduce the serial report
byte-for-byte (the wavefront extractor is pure arithmetic over edge
logs that ride home in ``RunResult.meta``).

Checks
------
1. ring arrival order matches the forward ring order exactly, and the
   measured hop count of every rank equals its forward ring distance;
2. the wave reaches every rank under both collective algorithms;
3. the collective pattern sets the speed: the ring wave needs more
   hops and takes strictly longer to cross the machine;
4. quiet runs preserve the delay undamped (full residual everywhere,
   and the BSP makespan shifts by exactly the planted duration);
5. effective decay length strictly decreases quiet → 1000 Hz → 10 Hz;
6. background noise damps the wave: both noisy decay lengths are
   finite.
"""

from __future__ import annotations

import math
from dataclasses import replace

from ...core import ExperimentConfig
from ...faults import FaultPlan
from ...obs.wavefront import WavefrontResult, extract_wavefront
from ...parallel import ComparisonPlan, plan_points
from ..base import ExperimentReport, Scale

EXPERIMENT_ID = "E20"
TITLE = "Idle-wave propagation & decay from a planted one-off delay"
SEED = 201

#: Speed axis: BSP + allreduce, quiet machine.
_SPEED_T0_NS = 2_000_000
_SPEED_DURATION_NS = 500_000
_SPEED_SOURCE = 2
_SPEED_WORK_NS = 200_000

#: Decay axis: halo-exchange stencil, no global collective.
_DECAY_T0_NS = 50_000_000
_DECAY_DURATION_NS = 750_000
_DECAY_WORK_NS = 2_000_000
#: Decay-axis noise ladder per scale: coarse 10 Hz events are rare, so
#: the small 16-rank box needs a higher utilization for the handful of
#: events to reliably intersect the wave's transit cone; at 32 ranks
#: the canonical 2.5 % is plenty.
_DECAY_UTIL = {"small": "10pct", "full": "2.5pct"}


def _decay_patterns(scale: Scale) -> tuple[str, str, str]:
    util = _DECAY_UTIL[scale]
    return ("quiet", f"{util}@1000HzPoisson", f"{util}@10HzPoisson")


def _grid_interior_rank(n_nodes: int) -> int:
    """Rank at grid coordinate (1, 1) — an interior wave source."""
    from ...apps.base import grid_dims
    px, _py = grid_dims(n_nodes)
    return px + 1

def _crossing_ns(wave: WavefrontResult) -> int:
    """Time for the wave to sweep from its first to its last arrival
    (source excluded: the interval that measures hop serialization)."""
    others = [t for r, t in wave.arrival_ns.items()
              if r != wave.source_rank]
    return max(others) - min(others) if others else 0


def _fmt_decay(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.2f}"


#: scale -> (ranks, two-level machine shape).
_SIZES = {"small": (16, "4x2x2@fat-tree"), "full": (32, "4x4x2@fat-tree")}


def plan(scale: Scale, seed: int) -> ComparisonPlan:
    nodes, shape = _SIZES[scale]
    speed_base = ExperimentConfig(
        app="bsp", nodes=nodes, noise_pattern="quiet", seed=seed,
        kernel="lightweight", record_edges=True,
        app_params=dict(work_ns=_SPEED_WORK_NS,
                        iterations=30 if scale == "small" else 40))
    speed_delay = FaultPlan(
        one_off=((_SPEED_SOURCE, _SPEED_T0_NS, _SPEED_DURATION_NS),),
        seed=seed)
    decay_base = ExperimentConfig(
        app="stencil", nodes=nodes, noise_pattern="quiet", seed=seed,
        kernel="lightweight", record_edges=True,
        app_params=dict(work_ns=_DECAY_WORK_NS,
                        iterations=100 if scale == "small" else 140,
                        dt_interval=0))
    decay_delay = FaultPlan(
        one_off=((_grid_interior_rank(nodes), _DECAY_T0_NS,
                  _DECAY_DURATION_NS),),
        seed=seed)

    configs: dict[tuple, ExperimentConfig] = {}
    for algo in ("ring", "two-level"):
        cfg = replace(speed_base, collectives={"allreduce": algo},
                      shape=shape if algo == "two-level" else None)
        configs[("speed", algo, "base")] = cfg
        configs[("speed", algo, "delayed")] = replace(cfg,
                                                      faults=speed_delay)
    for pattern in _decay_patterns(scale):
        cfg = replace(decay_base, noise_pattern=pattern)
        configs[("decay", pattern, "base")] = cfg
        configs[("decay", pattern, "delayed")] = replace(cfg,
                                                         faults=decay_delay)
    return plan_points(configs, {key: " ".join(key) for key in configs})


def reduce(scale: Scale, seed: int, results: dict) -> ExperimentReport:
    nodes, shape = _SIZES[scale]
    decay_source = _grid_interior_rank(nodes)
    decay_patterns = _decay_patterns(scale)

    speed_waves: dict[str, WavefrontResult] = {}
    for algo in ("ring", "two-level"):
        speed_waves[algo] = extract_wavefront(
            results[("speed", algo, "base")].meta["edge_log"],
            results[("speed", algo, "delayed")].meta["edge_log"],
            source_rank=_SPEED_SOURCE, t0_ns=_SPEED_T0_NS,
            duration_ns=_SPEED_DURATION_NS)
    decay_waves: dict[str, WavefrontResult] = {}
    for pattern in decay_patterns:
        decay_waves[pattern] = extract_wavefront(
            results[("decay", pattern, "base")].meta["edge_log"],
            results[("decay", pattern, "delayed")].meta["edge_log"],
            source_rank=decay_source, t0_ns=_DECAY_T0_NS,
            duration_ns=_DECAY_DURATION_NS)

    headers = ["axis", "cell", "reached", "max hops", "ns/hop",
               "crossing us", "decay length", "undamped"]
    rows = []
    for algo, wave in speed_waves.items():
        per_hop = wave.speed_ns_per_hop
        rows.append(["speed", f"bsp/{algo}",
                     f"{wave.ranks_reached}/{wave.n_ranks}",
                     max(wave.hops.values()),
                     round(per_hop, 1) if per_hop is not None else "-",
                     round(_crossing_ns(wave) / 1e3, 3),
                     _fmt_decay(wave.effective_decay_length),
                     wave.undamped])
    for pattern, wave in decay_waves.items():
        per_hop = wave.speed_ns_per_hop
        rows.append(["decay", f"stencil/{pattern}",
                     f"{wave.ranks_reached}/{wave.n_ranks}",
                     max(wave.hops.values()),
                     round(per_hop, 1) if per_hop is not None else "-",
                     round(_crossing_ns(wave) / 1e3, 3),
                     _fmt_decay(wave.effective_decay_length),
                     wave.undamped])

    ring = speed_waves["ring"]
    two_level = speed_waves["two-level"]
    ring_order = [(_SPEED_SOURCE + k) % nodes for k in range(nodes)]
    ring_makespan_shift = (
        results[("speed", "ring", "delayed")].makespan_ns
        - results[("speed", "ring", "base")].makespan_ns)
    decay_lengths = [decay_waves[p].effective_decay_length
                     for p in decay_patterns]

    checks = {
        "ring arrival order is the forward ring order, hop-exact":
            ring.arrival_order() == ring_order
            and all(ring.hops.get(r) == (r - _SPEED_SOURCE) % nodes
                    for r in ring_order),
        "wave reaches every rank under both collective algorithms":
            ring.ranks_reached == nodes
            and two_level.ranks_reached == nodes,
        "collective pattern sets the speed (ring slower than two-level)":
            max(ring.hops.values()) > max(two_level.hops.values())
            and _crossing_ns(ring) > _crossing_ns(two_level),
        "quiet runs preserve the delay undamped":
            ring.undamped and two_level.undamped
            and decay_waves["quiet"].undamped
            and ring_makespan_shift == _SPEED_DURATION_NS,
        "decay length strictly decreases quiet -> 1000Hz -> 10Hz":
            decay_lengths[0] > decay_lengths[1] > decay_lengths[2],
        "background noise damps the wave (finite decay lengths)":
            all(math.isfinite(d) for d in decay_lengths[1:]),
    }
    findings = {
        "ring_crossing_us": round(_crossing_ns(ring) / 1e3, 3),
        "two_level_crossing_us": round(_crossing_ns(two_level) / 1e3, 3),
        "ring_max_hops": max(ring.hops.values()),
        "two_level_max_hops": max(two_level.hops.values()),
        "ring_makespan_shift_ns": ring_makespan_shift,
        "decay_length_quiet": _fmt_decay(decay_lengths[0]),
        "decay_length_1000Hz": _fmt_decay(decay_lengths[1]),
        "decay_length_10Hz": _fmt_decay(decay_lengths[2]),
        "decay_ranks_reached": {
            p: decay_waves[p].ranks_reached for p in decay_patterns},
    }
    return ExperimentReport(
        EXPERIMENT_ID, TITLE, headers, rows, checks=checks,
        findings=findings,
        notes=f"one-off delay {_SPEED_DURATION_NS / 1e3:.0f}us on rank "
              f"{_SPEED_SOURCE} (bsp) / {_DECAY_DURATION_NS / 1e3:.0f}us "
              f"on rank {decay_source} (stencil), {nodes} ranks; "
              f"speed axis quiet ring vs two-level@{shape}, decay axis "
              f"stencil dt_interval=0 under "
              f"{', '.join(decay_patterns)}")
