"""Per-node noise assignment policies.

The *same* noise pattern hurts differently depending on how it is
aligned across nodes: co-scheduled (gang-scheduled) noise hits every
node simultaneously and is absorbed like a global slowdown, while
independently phased noise hits different nodes at different instants
and is amplified by synchronizing collectives.  An
:class:`InjectionPlan` captures that policy and materializes one noise
source per node.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..sim.rng import RandomTree, node_seed
from .base import NoiseSource, NullNoise
from .burst import BurstNoise
from .patterns import parse_pattern
from .periodic import PeriodicNoise

__all__ = ["InjectionPlan", "SourceFactory"]

#: Callable building one node's source: ``factory(node_id, phase, seed)``.
SourceFactory = _t.Callable[[int, int, int], NoiseSource]


@dataclass(frozen=True)
class InjectionPlan:
    """How one noise pattern is distributed over the machine's nodes.

    Parameters
    ----------
    pattern:
        Compact pattern spec (see :mod:`repro.noise.patterns`) or a
        custom :data:`SourceFactory`.
    alignment:
        * ``"synchronized"`` — every node gets phase 0: noise strikes
          all nodes at the same instants (idealized gang scheduling).
        * ``"random"`` — each node gets an independent uniform-random
          phase within the pattern period (the realistic default; what
          unsynchronized kernels do).
        * ``"staggered"`` — node ``i`` of ``P`` gets phase
          ``i * period / P``: the adversarial worst case where some
          node is always in the way.
    seed:
        Root seed for phase draws and stochastic sources.
    """

    pattern: str | SourceFactory
    alignment: str = "random"
    seed: int = 0
    _valid_alignments: _t.ClassVar[tuple[str, ...]] = (
        "synchronized", "random", "staggered")
    # Cached per-plan RNG tree (not part of identity/equality).
    _tree: RandomTree = field(init=False, repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.alignment not in self._valid_alignments:
            raise ConfigError(
                f"alignment must be one of {self._valid_alignments}, "
                f"got {self.alignment!r}")
        object.__setattr__(self, "_tree", RandomTree(self.seed))

    # -- materialization -----------------------------------------------------
    def source_for(self, node_id: int, n_nodes: int) -> NoiseSource:
        """The noise source node ``node_id`` (of ``n_nodes``) runs."""
        if not 0 <= node_id < n_nodes:
            raise ConfigError(f"node_id {node_id} out of range [0, {n_nodes})")
        seed = node_seed(self.seed, node_id)
        if callable(self.pattern):
            phase = self._phase_for(node_id, n_nodes, self._probe_period())
            return self.pattern(node_id, phase, seed)
        probe = parse_pattern(self.pattern, seed=seed)
        if isinstance(probe, NullNoise):
            return probe
        if isinstance(probe, (PeriodicNoise, BurstNoise)):
            phase = self._phase_for(node_id, n_nodes, probe.period)
            return parse_pattern(self.pattern, phase=phase, seed=seed)
        # Stochastic patterns: independence comes from the seed; the
        # alignment knob is meaningless and "synchronized" would be a
        # silent lie, so reject it.
        if self.alignment == "synchronized":
            raise ConfigError(
                "synchronized alignment requires a periodic pattern; "
                f"{self.pattern!r} is stochastic")
        return probe

    def sources(self, n_nodes: int) -> list[NoiseSource]:
        """Materialize all ``n_nodes`` per-node sources."""
        if n_nodes <= 0:
            raise ConfigError(f"n_nodes must be > 0, got {n_nodes}")
        return [self.source_for(i, n_nodes) for i in range(n_nodes)]

    def is_strictly_periodic(self, n_nodes: int) -> bool:
        """Whether :meth:`periodic_profile` has a profile to return
        (quiet counts), decided without drawing any per-node phase."""
        return self._periodic_probe(n_nodes) is not None

    def periodic_profile(self, n_nodes: int):
        """The plan's strictly-periodic form, when it has one.

        Returns ``(period, duration, phases)`` — shared period/duration
        in ns plus an int64 array of per-node phases, drawn with the
        exact streams :meth:`source_for` uses — when every node's
        source is a :class:`PeriodicNoise`; ``(0, 0, None)`` for a
        quiet (null) pattern; ``None`` for stochastic, burst, or
        custom-factory patterns.  This is the contract the bulk-rank
        fast path (:mod:`repro.sim.bulk`) vectorizes over.
        """
        probe = self._periodic_probe(n_nodes)
        if probe is None:
            return None
        if isinstance(probe, NullNoise):
            return (0, 0, None)
        import numpy as np
        phases = np.fromiter(
            (self._phase_for(i, n_nodes, probe.period)
             for i in range(n_nodes)),
            dtype=np.int64, count=n_nodes)
        return (probe.period, probe.duration, phases)

    # -- internals -------------------------------------------------------------
    def _periodic_probe(self, n_nodes: int):
        """Node 0's source when every node runs the same periodic (or
        null) pattern, else ``None``; draws no phase."""
        if n_nodes <= 0:
            raise ConfigError(f"n_nodes must be > 0, got {n_nodes}")
        if callable(self.pattern):
            return None
        probe = parse_pattern(self.pattern, seed=node_seed(self.seed, 0))
        return probe if isinstance(probe, (NullNoise, PeriodicNoise)) else None

    def _phase_for(self, node_id: int, n_nodes: int, period: int) -> int:
        if period <= 0 or self.alignment == "synchronized":
            return 0
        if self.alignment == "staggered":
            return (node_id * period) // n_nodes
        rng = self._tree.generator(f"phase/{node_id}")
        return int(rng.integers(0, period))

    def _probe_period(self) -> int:
        return 0  # custom factories handle their own phase semantics

    def describe(self) -> dict[str, object]:
        """Reporting summary."""
        pattern = self.pattern if isinstance(self.pattern, str) else "<custom>"
        return {"pattern": pattern, "alignment": self.alignment, "seed": self.seed}
