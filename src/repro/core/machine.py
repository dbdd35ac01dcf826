"""Machine assembly: nodes + kernels + noise + network + MPI in one call.

:class:`MachineConfig` is the single declarative description of the
simulated system; :class:`Machine` materializes it and launches rank
programs.  This is the main entry point applications and experiments
build on::

    machine = Machine(MachineConfig(n_nodes=64, kernel="commodity-linux",
                                    injection=InjectionPlan("2.5pct@10Hz"),
                                    seed=7))
    procs = machine.launch(my_rank_program)
    machine.run()
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from ..errors import ConfigError
from ..faults import FaultPlan
from ..kernel import KernelConfig, Node
from ..mpi import Communicator, MPIWorld, RankComm
from ..net import (
    GraphTopology,
    HierarchicalTopology,
    LogGPParams,
    MachineShape,
    Network,
    SwitchTopology,
    Topology,
    TorusTopology,
)
from ..noise import InjectionPlan, NoiseSource, OneOffNoise
from ..sim import Environment, Process

__all__ = ["MachineConfig", "Machine", "RankProgram"]

#: A rank program: called with the rank's messaging context, returns the
#: generator the simulator drives.
RankProgram = _t.Callable[[RankComm], _t.Generator]


@dataclass(frozen=True)
class MachineConfig:
    """Declarative description of the simulated machine.

    Attributes
    ----------
    n_nodes:
        Machine size (one rank per node).
    kernel:
        :class:`KernelConfig` or preset name
        (``lightweight`` / ``commodity-linux`` / ``tuned-linux``).
    network:
        :class:`LogGPParams` or preset name
        (``seastar`` / ``infiniband`` / ``gige``).
    topology:
        ``"switch"``, ``"torus:AxBxC"``, ``"fat-tree"``,
        ``"hier:CxNxS[@kind]"`` (a :class:`MachineShape`-driven
        hierarchy), or a :class:`Topology` instance.
    shape:
        Optional :class:`MachineShape` (or its ``"CxNxS[@kind]"`` spec
        string) describing the packaging hierarchy.  Setting it with
        the default ``"switch"`` topology switches the fabric to a
        :class:`HierarchicalTopology` of that shape, and it is what
        the two-level collective algorithms group ranks by.
    collectives:
        Optional per-operation collective algorithm overrides, e.g.
        ``{"allreduce": "two-level", "bcast": "binomial"}``.  Unlisted
        operations keep their defaults.
    injection:
        Synthetic noise to inject on top of the kernel's own activity
        (``None`` = only the kernel's intrinsic noise).
    seed:
        Root seed for every stochastic stream in the machine.
    reduce_cost_per_byte:
        CPU ns per byte for reduction arithmetic.
    isolate_noise:
        Core specialization on every node: kernel background activity
        and NIC rx processing run on a spare core instead of preempting
        the application (injected patterns still strike the app core).
    slow_nodes:
        Optional mapping ``node id -> relative clock rate`` marking
        degraded nodes (e.g. ``{17: 0.9}`` = node 17 runs at 90%).
    faults:
        Optional :class:`~repro.faults.FaultPlan` making the machine
        unreliable: lossy/degradable links, duplicated messages,
        slowed or crashed nodes, with ack/retry recovery at the MPI
        point-to-point layer.  ``None`` (the default) is the perfectly
        reliable machine, bit-identical to pre-fault builds.
    critical_path:
        Record cross-node dependency edges (receive waits, transient
        steals, retransmissions, rank start/finish) so
        :meth:`Machine.critical_path` can reconstruct and attribute
        the makespan's critical path.  Off by default; recording is
        passive and never changes simulation results.
    """

    n_nodes: int = 4
    kernel: KernelConfig | str = "lightweight"
    network: LogGPParams | str = "seastar"
    topology: Topology | str = "switch"
    shape: MachineShape | str | None = None
    collectives: _t.Mapping[str, str] | None = None
    injection: InjectionPlan | None = None
    seed: int = 0
    reduce_cost_per_byte: float = 0.25
    isolate_noise: bool = False
    #: node id -> relative clock rate for degraded ("sick") nodes.
    slow_nodes: _t.Mapping[int, float] | None = None
    faults: FaultPlan | None = None
    critical_path: bool = False

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ConfigError(f"n_nodes must be > 0, got {self.n_nodes}")
        if self.shape is not None:
            MachineShape.parse(self.shape)  # fail fast on bad specs
        for nid, speed in (self.slow_nodes or {}).items():
            if not 0 <= nid < self.n_nodes:
                raise ConfigError(f"slow_nodes id {nid} out of range")
            if speed <= 0:
                raise ConfigError(f"slow_nodes speed must be > 0, got {speed}")

    # -- resolution helpers -------------------------------------------------
    def kernel_config(self) -> KernelConfig:
        if isinstance(self.kernel, KernelConfig):
            return self.kernel
        return KernelConfig.preset(self.kernel)

    def network_params(self) -> LogGPParams:
        if isinstance(self.network, LogGPParams):
            return self.network
        return LogGPParams.preset(self.network)

    def resolved_shape(self) -> MachineShape | None:
        """The machine's packaging hierarchy, if one is configured.

        Comes from the ``shape`` field, a ``"hier:..."`` topology spec,
        or an explicit :class:`HierarchicalTopology` instance.
        """
        if self.shape is not None:
            return MachineShape.parse(self.shape)
        if isinstance(self.topology, HierarchicalTopology):
            return self.topology.shape
        if isinstance(self.topology, str) and self.topology.startswith("hier:"):
            return MachineShape.parse(self.topology[len("hier:"):])
        return None

    def build_topology(self) -> Topology:
        if isinstance(self.topology, Topology):
            if self.topology.n_nodes != self.n_nodes:
                raise ConfigError("topology size does not match n_nodes")
            return self.topology
        if self.topology.startswith("hier:"):
            return HierarchicalTopology(
                self.n_nodes, MachineShape.parse(self.topology[len("hier:"):]))
        if self.topology == "switch":
            if self.shape is not None:
                # A shape on the default fabric means "model the
                # hierarchy": pair costs follow the shape's levels.
                return HierarchicalTopology(self.n_nodes,
                                            MachineShape.parse(self.shape))
            return SwitchTopology(self.n_nodes)
        if self.topology == "fat-tree":
            return GraphTopology.fat_tree_like(self.n_nodes)
        if self.topology.startswith("torus:"):
            dims = tuple(int(d) for d in self.topology[len("torus:"):].split("x"))
            topo = TorusTopology(dims)
            if topo.n_nodes != self.n_nodes:
                raise ConfigError(
                    f"torus {dims} has {topo.n_nodes} nodes, config says "
                    f"{self.n_nodes}")
            return topo
        raise ConfigError(f"unknown topology spec {self.topology!r}")


class Machine:
    """A fully wired simulated machine ready to run rank programs."""

    def __init__(self, config: MachineConfig) -> None:
        from ..obs import runtime as _obs

        self.config = config
        #: Process-wide telemetry switches, captured at build time (the
        #: machine itself stays pure: nothing here feeds back into
        #: simulation decisions, so results are identical with
        #: telemetry on or off).
        self._obs_metrics = _obs.metrics_enabled()
        tracer = _obs.tracer()
        self.tracer = tracer
        self.env = Environment(
            metrics=self._obs_metrics,
            tracer=(tracer if tracer is not None
                    and tracer.enabled("sim") else None),
            det_check=_obs.det_check_enabled())
        kernel_cfg = config.kernel_config()
        plan = config.injection
        faults = config.faults
        fault_slow = (faults.slow_nodes_for(config.n_nodes)
                      if faults is not None else {})
        fault_one_off = (faults.one_off_delays_for(config.n_nodes)
                         if faults is not None else {})
        self.nodes: list[Node] = []
        for i in range(config.n_nodes):
            sources: list[NoiseSource] = []
            if plan is not None:
                sources.append(plan.source_for(i, config.n_nodes))
            # Planted one-off delays ride the injected-noise channel:
            # they strike the application core even under isolate_noise
            # (the experimenter imposed them) and are attributed by
            # name in the critical-path / wavefront layers.
            for start, duration in fault_one_off.get(i, ()):
                sources.append(OneOffNoise(start, duration))
            injected = sources or None
            speed = (config.slow_nodes or {}).get(i, 1.0)
            speed *= fault_slow.get(i, 1.0)
            self.nodes.append(Node(self.env, i, kernel_cfg,
                                   injected=injected, seed=config.seed,
                                   isolate_noise=config.isolate_noise,
                                   cpu_speed=speed))
        self.network = Network(self.env, self.nodes,
                               params=config.network_params(),
                               topology=config.build_topology(),
                               seed=config.seed, faults=faults,
                               metrics=self._obs_metrics,
                               tracer=(tracer if tracer is not None
                                       and (tracer.enabled("net")
                                            or tracer.enabled("net.flow"))
                                       else None))
        #: Cross-node dependency recorder for critical-path
        #: attribution; built only when the config asks for it, so the
        #: default machine stays free.
        self.critpath = None
        if config.critical_path:
            from ..obs.critpath import DependencyRecorder
            self.critpath = DependencyRecorder(self.env, self.nodes)
        self.mpi = MPIWorld(self.env, self.network,
                            reduce_cost_per_byte=config.reduce_cost_per_byte,
                            faults=faults, metrics=self._obs_metrics,
                            tracer=tracer, critpath=self.critpath,
                            shape=config.resolved_shape(),
                            collectives=config.collectives)

    # -- convenience accessors ------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    def context(self, rank: int, comm: Communicator | None = None) -> RankComm:
        """Messaging context for one rank (mostly for tests/probes)."""
        return self.mpi.rank_context(rank, comm)

    def fault_stats(self) -> dict[str, _t.Any] | None:
        """Fault/recovery counters, or ``None`` on a reliable machine.

        Combines the wire-level drop counters (network) with the
        transport's retry/duplicate-suppression/ack counters; see
        :class:`~repro.faults.FaultStats`.
        """
        if self.config.faults is None or not self.config.faults.injects_faults:
            return None
        stats: dict[str, _t.Any] = {
            "plan": self.config.faults.describe(),
            "messages_dropped": self.network.messages_dropped,
            "duplicates_injected": self.network.duplicates_injected,
            "drops_by_node": dict(sorted(self.network.drops_by_node.items())),
        }
        if self.mpi.transport is not None:
            stats.update(self.mpi.transport.stats.as_dict())
        return stats

    # -- execution ----------------------------------------------------------------
    def launch(self, program: RankProgram,
               comm: Communicator | None = None,
               ranks: _t.Iterable[int] | None = None) -> list[Process]:
        """Spawn ``program`` on every rank (or the given subset)."""
        comm = comm or self.mpi.world
        which = range(comm.size) if ranks is None else ranks
        recorder = self.critpath
        procs = []
        for rank in which:
            ctx = self.mpi.rank_context(rank, comm)
            proc = self.env.process(program(ctx), name=f"rank{rank}")
            if recorder is not None:
                node_id = comm.node(rank)
                recorder.note_start(node_id)
                proc.callbacks.append(
                    lambda _e, n=node_id: recorder.note_completion(n))
            procs.append(proc)
        return procs

    def run(self, until: int | Process | None = None) -> object:
        """Drive the simulation (see :meth:`repro.sim.Environment.run`)."""
        return self.env.run(until=until)

    def critical_path(self):
        """Reconstruct the completed run's critical path.

        Returns a :class:`repro.obs.CriticalPathResult`; requires the
        machine to have been built with ``critical_path=True`` and run
        to completion.
        """
        if self.critpath is None:
            raise ConfigError(
                "critical-path recording is off; build the machine with "
                "MachineConfig(critical_path=True)")
        from ..obs.critpath import compute_critical_path
        return compute_critical_path(self.critpath)

    def run_to_completion(self, procs: _t.Sequence[Process]) -> int:
        """Run until every given process finishes; returns finish time."""
        done = self.env.all_of(list(procs))
        self.env.run(until=done)
        return self.env.now

    def finalize_telemetry(self) -> None:
        """Fold this machine's counters into the global obs registry.

        Idempotent and a no-op unless telemetry is enabled; called by
        the end-of-run paths (:func:`repro.core.run_experiment`, the
        collective microbenchmark) once the simulation is done.
        """
        if not self._obs_metrics or getattr(self, "_obs_harvested", False):
            return
        from ..obs import runtime as _obs

        self._obs_harvested = True
        _obs.harvest_machine(self)
