"""Mutation table for detlint: does each rule guard something tier-1 misses?

For every detlint rule this script plants two or three defects of the
rule's bug class into a scratch copy of a real module, and records for
each plant:

1. **real** — whether the plant is a defect at all.  Determinism plants
   need a differential run: the same report differs between two
   processes, between ``PYTHONHASHSEED=0`` and ``999``, between two
   runs in one process, or (for environment reads) with one variable
   set.  Other plants need a probe: a crash, lost work, a measured
   slowdown or leak against the unplanted copy.
2. **detlint** — which rules flag the planted tree
   (``python -m repro.lint src/repro``; the unplanted tree is clean).
3. **tier-1** — whether ``pytest -x -q`` fails on the planted tree,
   with ``PYTHONHASHSEED=0`` and the detlint tests ignored (they lint
   the live tree and would "catch" every plant), and which test fails
   first.

Run from the repository root (one tier-1 run per plant, about an hour
serially on two cores)::

    python benchmarks/lint_mutations.py --json lint_mutations.json \
        --write-doc docs/STATIC_ANALYSIS.md

``--rules DET003,SIM001`` restricts the run; results accumulate in the
``--json`` file, so an interrupted run resumes where it stopped
(delete the file to start over).  ``--lint-tree DIR`` also runs
detlint from another checkout's ``src`` (for example the revision
before rules were deleted) on the same planted copies, as a second
column; ``--relint`` recomputes only the detlint columns of stored
results; ``--skip-tier1`` checks the plants without tier-1.  The
script is not a test: tier-1 never collects it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Markers around the generated table in the docs file.
DOC_BEGIN = "<!-- mutation-table:begin -->"
DOC_END = "<!-- mutation-table:end -->"

TIER1_TIMEOUT_S = 900
EVIDENCE_TIMEOUT_S = 300
#: Second hash seeds tried, in order, against ``PYTHONHASHSEED=0``
#: until one changes the report (a set of a few strings can keep its
#: order under one seed and not another).
HASH_SEEDS = ("999", "1", "2", "3")


@dataclasses.dataclass(frozen=True)
class Plant:
    """One planted defect: textual edits to modules under ``src/repro``."""

    rule: str
    name: str
    #: ``(path under src/repro, old text, new text)``; ``old`` must
    #: occur exactly once in the file.
    edits: tuple[tuple[str, str, str], ...]
    #: ``"det"`` (differential runs of the report program),
    #: ``"behaviour"`` (report program vs the unplanted copy) or
    #: ``"probe:<name>"`` (see :data:`PROBES`).
    evidence: str = "det"
    #: Environment variable set for the ``det`` env differential.
    env: tuple[str, str] | None = None

    @property
    def module(self) -> str:
        return ", ".join(dict.fromkeys(e[0] for e in self.edits))

    @property
    def digest(self) -> str:
        blob = json.dumps([self.rule, self.name, self.edits, self.evidence,
                           self.env])
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _e(path: str, old: str, new: str) -> tuple[str, str, str]:
    return (path, old, new)


_IMPORT_TYPING = "import typing as _t\n"

PLANTS: tuple[Plant, ...] = (
    # -- DET001 wall clock / entropy ---------------------------------------
    Plant("DET001", "host clock added to every message's wire time", (
        _e("net/network.py", _IMPORT_TYPING, _IMPORT_TYPING + "import time\n"),
        _e("net/network.py",
           "        wire = params.wire_time(msg.size, extra)\n",
           "        wire = params.wire_time(msg.size, extra) + "
           "time.perf_counter_ns() % 1000\n"),
    )),
    Plant("DET001", "jitter stream indexed by time.time_ns()", (
        _e("net/network.py", _IMPORT_TYPING, _IMPORT_TYPING + "import time\n"),
        _e("net/network.py", 'f"jitter:{self._injections}"',
           'f"jitter:{time.time_ns()}"'),
    )),
    # -- DET002 global random ----------------------------------------------
    Plant("DET002", "noise phase drawn from the global random module", (
        _e("noise/injection.py", "from __future__ import annotations\n",
           "from __future__ import annotations\n\nimport random\n"),
        _e("noise/injection.py",
           "        return int(rng.integers(0, period))\n",
           "        return random.randrange(period)\n"),
    )),
    Plant("DET002", "random-noise event starts from random.randrange", (
        _e("noise/random_noise.py", "from __future__ import annotations\n",
           "from __future__ import annotations\n\nimport random\n"),
        _e("noise/random_noise.py",
           "np.sort(rng.integers(0, span, size=n))",
           "np.sort([random.randrange(span) for _ in range(n)])"),
    )),
    Plant("DET002", "fault drop coin flipped with random.random()", (
        _e("faults/plan.py", "from __future__ import annotations\n",
           "from __future__ import annotations\n\nimport random\n"),
        _e("faults/plan.py",
           "        return derive_fraction(\n"
           '            self.seed, f"fault/drop/{src}/{dst}/{uid}") '
           "< self.drop_rate\n",
           "        return random.random() < self.drop_rate\n"),
    )),
    # -- DET003 unordered iteration ----------------------------------------
    Plant("DET003", "linear barrier releases peers from a string set", (
        _e("mpi/collectives/barrier.py",
           "        for r in range(1, size):\n"
           "            yield from ctx.send(r, size=0, tag=tag + 1)\n",
           "        for peer in {str(r) for r in range(1, size)}:\n"
           "            yield from ctx.send(int(peer), size=0, tag=tag + 1)\n"),
    )),
    Plant("DET003", "same release order, the set wrapped in map(int, ...)", (
        _e("mpi/collectives/barrier.py",
           "        for r in range(1, size):\n",
           "        for r in map(int, {str(r) for r in range(1, size)}):\n"),
    )),
    Plant("DET003", "kernel-profile kinds reported in string-set order", (
        _e("ktau/profile.py",
           "        return {k: out[k] for k in EventKind.ORDER if k in out}\n",
           "        return {k: out[k] for k in set(out)}\n"),
    )),
    # -- DET004 object identity --------------------------------------------
    Plant("DET004", "event-heap tie-break on id(event) instead of seq", (
        _e("sim/core.py",
           "        heappush(queue, (when, priority, seq, event))\n",
           "        heappush(queue, (when, priority, id(event), event))\n"),
    )),
    Plant("DET004", "rank processes launched in id() order", (
        _e("core/machine.py",
           "        for rank in which:\n"
           "            ctx = self.mpi.rank_context(rank, comm)\n",
           "        for ctx in sorted((self.mpi.rank_context(r, comm) "
           "for r in which),\n"
           "                          key=id):\n"
           "            rank = ctx.rank\n"),
    )),
    # -- DET005 float sum over unordered -----------------------------------
    Plant("DET005", "composite utilization summed over a set of names", (
        _e("noise/composite.py",
           "        return sum(src.utilization for src in self.sources)\n",
           "        util = {src.name: src.utilization for src in self.sources}\n"
           "        return sum(util[name] for name in "
           "{src.name for src in self.sources})\n"),
    )),
    Plant("DET005", "kernel daemon utilization summed over a set of names", (
        _e("kernel/config.py",
           "        total = sum(d.utilization for d in self.daemons)\n",
           "        util = {d.name: d.utilization for d in self.daemons}\n"
           "        total = sum(util[name] for name in "
           "{d.name for d in self.daemons})\n"),
    )),
    Plant("DET005", "composite utilization summed over a set of objects", (
        _e("noise/composite.py",
           "        return sum(src.utilization for src in self.sources)\n",
           "        return sum(src.utilization for src in set(self.sources))\n"),
    )),
    # -- DET006 environment reads ------------------------------------------
    Plant("DET006", "timer HZ overridable from the environment", (
        _e("kernel/config.py", _IMPORT_TYPING, "import os\n" + _IMPORT_TYPING),
        _e("kernel/config.py",
           "        if self.hz < 0:\n",
           "        if os.environ.get(\"REPRO_HZ\"):\n"
           "            object.__setattr__(self, \"hz\", "
           "int(os.environ[\"REPRO_HZ\"]))\n"
           "        if self.hz < 0:\n"),
    ), env=("REPRO_HZ", "250")),
    Plant("DET006", "fault seed offset read with os.getenv", (
        _e("faults/plan.py", "from __future__ import annotations\n",
           "from __future__ import annotations\n\nimport os\n"),
        _e("faults/plan.py",
           "        return derive_fraction(\n"
           '            self.seed, f"fault/drop/{src}/{dst}/{uid}") '
           "< self.drop_rate\n",
           "        return derive_fraction(\n"
           '            self.seed + int(os.getenv("REPRO_FAULT_SALT", "0")),\n'
           '            f"fault/drop/{src}/{dst}/{uid}") < self.drop_rate\n'),
    ), env=("REPRO_FAULT_SALT", "7")),
    # -- DET007 cross-module taint -----------------------------------------
    Plant("DET007", "host-clock helper in serve/ used as a wire latency", (
        _e("serve/protocol.py", "import typing as _t\n",
           "import time\nimport typing as _t\n"),
        _e("serve/protocol.py", "\nasync def read_request(",
           "\ndef host_ns() -> int:\n"
           "    return time.perf_counter_ns() % 1000\n\n"
           "\nasync def read_request("),
        _e("net/network.py", "        wire = params.wire_time(msg.size, extra)\n",
           "        from ..serve.protocol import host_ns\n"
           "        wire = params.wire_time(msg.size, extra) + host_ns()\n"),
    )),
    Plant("DET007", "process id global in serve/ salts the jitter stream", (
        _e("serve/protocol.py", "import typing as _t\n",
           "import os\nimport typing as _t\n"),
        _e("serve/protocol.py", "\nasync def read_request(",
           "\nSESSION = os.getpid()\n\n\nasync def read_request("),
        _e("net/network.py", "        self._injections += 1\n",
           "        from ..serve.protocol import SESSION\n"
           "        self._injections += 1\n"),
        _e("net/network.py", 'f"jitter:{self._injections}"',
           'f"jitter:{self._injections}:{SESSION}"'),
    )),
    # -- DET008 module-global state ----------------------------------------
    Plant("DET008", "jitter counter moved to a module global", (
        _e("net/network.py", '__all__ = ["Network"]\n',
           '__all__ = ["Network"]\n\n_INJ = [0]\n'),
        _e("net/network.py", "        self._injections += 1\n",
           "        _INJ[0] += 1\n"),
        _e("net/network.py", 'f"jitter:{self._injections}"',
           'f"jitter:{_INJ[0]}"'),
    )),
    Plant("DET008", "retry-protocol ids kept in a module-global dict", (
        _e("faults/protocol.py", '"DATA_KIND"]\n',
           '"DATA_KIND"]\n\n_NEXT_PID: dict = {}\n'),
        _e("faults/protocol.py",
           "        pid = self._next_pid.get(channel, 0)\n"
           "        self._next_pid[channel] = pid + 1\n",
           "        pid = _NEXT_PID.get(channel, 0)\n"
           "        _NEXT_PID[channel] = pid + 1\n"),
    )),
    # -- DET009 tainted defaults -------------------------------------------
    Plant("DET009", "jitter salt defaulted to the import-time pid", (
        _e("net/network.py", _IMPORT_TYPING, "import os\n" + _IMPORT_TYPING),
        _e("net/network.py",
           "    def inject(self, msg: Message) -> None:\n",
           "    def inject(self, msg: Message, salt: int = os.getpid()) "
           "-> None:\n"),
        _e("net/network.py", 'f"jitter:{self._injections}"',
           'f"jitter:{self._injections}:{salt}"'),
    )),
    Plant("DET009", "fault-plan seed field defaulted from time.time_ns", (
        _e("faults/plan.py", "from __future__ import annotations\n",
           "from __future__ import annotations\n\nimport time\n"),
        _e("faults/plan.py", "    seed: int = 0\n",
           "    seed: int = time.time_ns() % 1000\n"),
        _e("faults/plan.py", '    kwargs: dict[str, _t.Any] = {"seed": seed}\n',
           "    kwargs: dict[str, _t.Any] = {}\n"),
    )),
    # -- SIM001 dropped generator ------------------------------------------
    Plant("SIM001", "two-level barrier drops its fan-in generator", (
        _e("mpi/collectives/hier.py",
           "    yield from _intra_fanin(ctx, tag, base, gsize, size=0, "
           "acc=None,\n",
           "    _intra_fanin(ctx, tag, base, gsize, size=0, acc=None,\n"),
    ), evidence="behaviour"),
    Plant("SIM001", "collective benchmark drops the measured collective", (
        _e("microbench/collective_bench.py",
           "            yield from self._one(ctx)\n",
           "            self._one(ctx)\n"),
    ), evidence="behaviour"),
    Plant("SIM001", "isend drops the sender's CPU overhead generator", (
        _e("mpi/comm.py",
           "        yield from self.node.cpu.compute(\n"
           "            world.network.send_overhead_work(self.node_id))\n",
           "        self.node.cpu.compute(\n"
           "            world.network.send_overhead_work(self.node_id))\n"),
    ), evidence="behaviour"),
    # -- SIM002 non-Event yield --------------------------------------------
    Plant("SIM002", "ping-pong gap yields a bare int", (
        _e("microbench/pingpong.py",
           "                yield ctx.env.timeout(self.gap_ns)\n",
           "                yield self.gap_ns\n"),
    ), evidence="behaviour"),
    Plant("SIM002", "ping-pong gap yields None", (
        _e("microbench/pingpong.py",
           "                yield ctx.env.timeout(self.gap_ns)\n",
           "                yield\n"),
    ), evidence="behaviour"),
    Plant("SIM002", "CPU compute yields a delay, not a Timeout", (
        _e("kernel/cpu.py",
           "                yield Timeout(env, self._deadline - env.now)\n",
           "                yield self._deadline - env.now\n"),
    ), evidence="behaviour"),
    # -- PERF001 missing __slots__ -----------------------------------------
    Plant("PERF001", "Message loses slots=True", (
        _e("net/message.py", "@dataclass(slots=True)\nclass Message:",
           "@dataclass\nclass Message:"),
    ), evidence="probe:message_bytes"),
    Plant("PERF001", "Timeout loses __slots__", (
        _e("sim/events.py", '    __slots__ = ("delay",)\n', ""),
    ), evidence="probe:timeout_bytes"),
    # -- PERF002 all-pairs rank loops --------------------------------------
    Plant("PERF002", "torus hop matrix built by a nested rank loop", (
        _e("net/topology.py",
           "    def _build_extra_matrix(self) -> np.ndarray:\n"
           "        nodes = np.arange(self.n_nodes)\n",
           "    def _build_extra_matrix(self) -> np.ndarray:\n"
           "        return self._pairwise_extra()\n\n"
           "    def _pairwise_extra(self) -> np.ndarray:\n"
           "        out = np.zeros((self.n_nodes, self.n_nodes), "
           "dtype=np.int32)\n"
           "        for a in range(self.n_nodes):\n"
           "            for b in range(self.n_nodes):\n"
           "                out[a, b] = self.extra_latency(a, b)\n"
           "        return out\n\n"
           "    def _unused_vectorized(self) -> np.ndarray:\n"
           "        nodes = np.arange(self.n_nodes)\n"),
    ), evidence="probe:torus_matrix_s"),
    Plant("PERF002", "generic O(n^2) matrix builder cap raised 16x", (
        _e("net/topology.py", "_GENERIC_MATRIX_MAX_NODES = 1024\n",
           "_GENERIC_MATRIX_MAX_NODES = 16384\n"),
    ), evidence="probe:graph_first_send_s"),
    # -- OBS001 ungated telemetry ------------------------------------------
    Plant("OBS001", "per-send registry counter fed with telemetry off", (
        _e("mpi/comm.py",
           "        self.op_counts[op] = self.op_counts.get(op, 0) + 1\n",
           "        self.op_counts[op] = self.op_counts.get(op, 0) + 1\n"
           "        from ..obs import registry\n"
           '        registry().counter(f"mpi.{op}").inc()\n'),
    ), evidence="probe:registry_fed_off"),
    Plant("OBS001", "per-send counter handle fetched before the gate", (
        _e("mpi/comm.py",
           "        if self.world.metrics:\n"
           "            totals = self.world.op_totals\n",
           "        from ..obs import registry\n"
           '        counter = registry().counter(f"mpi.{op}")\n'
           "        if self.world.metrics:\n"
           "            counter.inc()\n"
           "            totals = self.world.op_totals\n"),
    ), evidence="probe:registry_series_off"),
    Plant("OBS001", "delivery span emitted without the tracer gate", (
        _e("net/network.py",
           "        if self._trace_spans:\n"
           "            # Static span name",
           "        if msg.size >= 0:\n"
           "            # Static span name"),
    ), evidence="behaviour"),
    # -- ASYNC001 blocking call in a coroutine -----------------------------
    Plant("ASYNC001", "snapshot sampler sleeps with time.sleep", (
        _e("serve/app.py",
           "                await asyncio.sleep(SNAPSHOT_INTERVAL_S)\n",
           "                time.sleep(SNAPSHOT_INTERVAL_S)\n"
           "                await asyncio.sleep(0)\n"),
    ), evidence="probe:healthz_stall_ms"),
    Plant("ASYNC001", "point future awaited with a blocking .result()", (
        _e("serve/app.py",
           "                run = await asyncio.wrap_future(fut)\n",
           "                run = fut.result()\n"),
    ), evidence="probe:healthz_stall_ms"),
    # -- ASYNC002 coroutine never awaited ----------------------------------
    Plant("ASYNC002", "job coroutine called without await", (
        _e("serve/app.py",
           "                        await self.run_job(job, stream.send)\n",
           "                        self.run_job(job, stream.send)\n"),
    ), evidence="probe:served_records"),
    Plant("ASYNC002", "chunked stream finish() never awaited", (
        _e("serve/app.py", "                    await stream.finish()\n",
           "                    stream.finish()\n"),
    ), evidence="probe:served_records"),
    # -- ASYNC003 dropped task handle --------------------------------------
    Plant("ASYNC003", "snapshot sampler task handle dropped", (
        _e("serve/app.py",
           "            self._sampler_task = asyncio.get_running_loop()"
           ".create_task(\n                self._sample_loop())\n",
           "            asyncio.get_running_loop().create_task(\n"
           "                self._sample_loop())\n"),
    ), evidence="probe:stop_errors"),
    Plant("ASYNC003", "job started fire-and-forget instead of awaited", (
        _e("serve/app.py",
           "                        await self.run_job(job, stream.send)\n",
           "                        asyncio.get_running_loop().create_task(\n"
           "                            self.run_job(job, stream.send))\n"),
    ), evidence="probe:served_records"),
    # -- ASYNC004 unlocked thread-shared state -----------------------------
    Plant("ASYNC004", "BackgroundServer publishes its port without the lock", (
        _e("serve/app.py",
           "        with self._state_lock:\n"
           "            self.port = srv.sockets[0].getsockname()[1]\n",
           "        self.port = srv.sockets[0].getsockname()[1]\n"),
        _e("serve/app.py",
           "        with self._state_lock:\n            port = self.port\n",
           "        port = self.port\n"),
    ), evidence="probe:served_records"),
    Plant("ASYNC004", "pool slot retired by callback threads without the lock", (
        _e("parallel/executor.py",
           "        with self._pool_lock:\n"
           "            if self._pool is not pool:\n"
           "                return\n"
           "            self._pool = None\n",
           "        if self._pool is not pool:\n"
           "            return\n"
           "        self._pool = None\n"),
    ), evidence="probe:dying_pool_errors"),
    # -- ASYNC005 ContextVar without reset ---------------------------------
    Plant("ASYNC005", "oplog context reset outside a finally", (
        _e("obs/oplog.py",
           "    try:\n        yield\n    finally:\n        _CTX.reset(token)\n",
           "    yield\n    _CTX.reset(token)\n"),
    ), evidence="probe:context_leak"),
    Plant("ASYNC005", "oplog context token dropped", (
        _e("obs/oplog.py",
           "    token = _CTX.set(_CTX.get() + tuple(flat))\n"
           "    try:\n        yield\n    finally:\n        _CTX.reset(token)\n",
           "    _CTX.set(_CTX.get() + tuple(flat))\n    yield\n"),
    ), evidence="probe:context_leak"),
)

RULE_ORDER = ("DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
              "DET007", "DET008", "DET009", "SIM001", "SIM002", "PERF001",
              "PERF002", "OBS001", "ASYNC001", "ASYNC002", "ASYNC003",
              "ASYNC004", "ASYNC005")

#: The report program behind ``det`` and ``behaviour`` evidence: the
#: cheap DES-backed goldens plus comparisons that reach the planted
#: modules (jitter, faults, barriers, ping-pong, collectives), run
#: twice in one process.
REPORT_PROG = r'''
import json
import sys

def block():
    from repro.core import (ExperimentConfig, Machine, MachineConfig,
                            run_with_baseline)
    from repro.harness import run_experiment
    from repro.microbench import CollectiveBenchmark, PingPongBenchmark
    from repro.net.loggp import LogGPParams
    out = []

    def item(label, fn):
        try:
            out.append(f"== {label}\n{fn()}")
        except Exception as exc:
            out.append(f"== {label}\nERROR {type(exc).__name__}: {exc}")

    for eid in ("E1", "E2", "E6", "E15", "E16"):
        item(eid, lambda eid=eid: run_experiment(eid, "small").render())
    params = {"work_ns": 500_000, "iterations": 10}
    configs = {
        "bsp": dict(),
        "jitter": dict(network=LogGPParams(jitter_ns=2000)),
        "faults": dict(faults="drop=0.02,timeout=300us"),
        "cg": dict(app="cg", app_params={}),
    }
    for label, kw in configs.items():
        kw = dict(dict(app="bsp", nodes=8, noise_pattern="2.5pct@100Hz",
                       app_params=params, seed=3), **kw)
        item(label, lambda kw=kw: json.dumps(
            run_with_baseline(ExperimentConfig(**kw)).as_dict(),
            sort_keys=True, default=str))

    def machine(n, kernel="tuned-linux", topology="switch"):
        return Machine(MachineConfig(n_nodes=n, kernel=kernel,
                                     topology=topology, seed=4))

    from repro.kernel.config import KernelConfig
    linux = KernelConfig.commodity_linux()
    item("kernel", lambda: repr(linux.background_utilization))
    item("kernel-noise", lambda: json.dumps(
        machine(2, "commodity-linux").nodes[0].cpu.noise.describe(),
        sort_keys=True,
        default=str))
    item("pingpong", lambda: PingPongBenchmark(repetitions=20).run(
        machine(2)).rtt_ns.tolist())
    for op, alg in (("barrier", "linear"), ("barrier", "two-level"),
                    ("allreduce", None)):
        item(f"{op}/{alg}", lambda op=op, alg=alg: CollectiveBenchmark(
            op, repetitions=5, algorithm=alg).run(
                machine(8, topology="hier:2x2x2")).times_ns.tolist())
    return "\n".join(out)

print(block())
print("=== second run in this process ===")
print(block())
'''

#: Probe programs: each prints ``METRIC <float>`` (the planted copy's
#: value is compared against the unplanted copy's by the plant's
#: :data:`PROBE_RULES` entry).
PROBES = {
    "message_bytes": r'''
import tracemalloc
from repro.net.message import Message
tracemalloc.start()
keep = [Message(src=0, dst=1, tag=0, size=8) for _ in range(20000)]
print("METRIC", tracemalloc.get_traced_memory()[0] / len(keep))
''',
    "timeout_bytes": r'''
import tracemalloc
from repro.sim import Environment, Timeout
env = Environment()
tracemalloc.start()
keep = [Timeout(env, 5) for _ in range(20000)]
print("METRIC", tracemalloc.get_traced_memory()[0] / len(keep))
''',
    "torus_matrix_s": r'''
import time
from repro.net.topology import TorusTopology
t = TorusTopology((16, 16, 4))
t0 = time.perf_counter()
t.extra_latency_matrix()
print("METRIC", time.perf_counter() - t0)
''',
    "graph_first_send_s": r'''
import time
import networkx as nx
from repro.net.topology import GraphTopology
t = GraphTopology(nx.convert_node_labels_to_integers(
    nx.grid_2d_graph(48, 48)))
t0 = time.perf_counter()
t.extra_latency_matrix()
t.extra_cost(0, t.n_nodes - 1, 8)
print("METRIC", time.perf_counter() - t0)
''',
    "registry_fed_off": r'''
from repro import obs
from repro.core import ExperimentConfig, run_experiment
obs.disable()
run_experiment(ExperimentConfig(app="bsp", nodes=8, seed=3,
               app_params={"work_ns": 500_000, "iterations": 10}))
snap = obs.registry().snapshot()
print("METRIC", sum(1 for v in snap.values() if v))
''',
    "registry_series_off": r'''
from repro import obs
from repro.core import ExperimentConfig, run_experiment
obs.disable()
run_experiment(ExperimentConfig(app="bsp", nodes=8, seed=3,
               app_params={"work_ns": 500_000, "iterations": 10}))
print("METRIC", len(obs.registry().snapshot()))
''',
    "healthz_stall_ms": r'''
import json, threading, time, tempfile
from repro.serve import BackgroundServer, ServeClient
job = {"kind": "sweep", "app": "bsp", "nodes": [8, 16],
       "patterns": ["quiet", "2.5pct@100Hz", "2.5pct@10Hz"], "seed": 11,
       "app_params": {"work_ns": 2_000_000, "iterations": 40}}
with BackgroundServer(workers=1, cache=tempfile.mkdtemp()) as bg:
    client = ServeClient(*bg.address)
    worst = 0.0
    t = threading.Thread(target=lambda: client.records(job))
    t.start()
    deadline = time.monotonic() + 3.0
    while time.monotonic() < deadline:
        t0 = time.perf_counter()
        ServeClient(*bg.address).health()
        worst = max(worst, time.perf_counter() - t0)
        time.sleep(0.02)
    t.join(timeout=120)
print("METRIC", worst * 1e3)
''',
    "served_records": r'''
import tempfile
from repro.serve import BackgroundServer, ServeClient
job = {"kind": "sweep", "app": "bsp", "nodes": [2, 4],
       "patterns": ["quiet", "2.5pct@100Hz"], "seed": 12,
       "app_params": {"work_ns": 500_000, "iterations": 10}}
missing = 4
try:
    with BackgroundServer(workers=1, cache=tempfile.mkdtemp()) as bg:
        client = ServeClient(*bg.address, timeout=20)
        records, stats = client.records(job)
        missing = 4 - len(records) + stats["errors"]
except Exception as exc:
    print("error:", type(exc).__name__, exc)
print("METRIC", missing)
''',
    "stop_errors": r'''
import logging
from repro.serve import BackgroundServer, ServeClient
seen = []
class H(logging.Handler):
    def emit(self, record):
        if record.levelno >= logging.WARNING:
            seen.append(record.getMessage())
logging.getLogger("asyncio").addHandler(H())
for _ in range(3):
    with BackgroundServer(workers=1, warm=False) as bg:
        ServeClient(*bg.address).health()
import gc; gc.collect()
print("METRIC", len(seen))
''',
    "dying_pool_errors": r'''
import os, signal, sys
from dataclasses import replace
from repro.core import ExperimentConfig
from repro.parallel import SweepExecutor
sys.setswitchinterval(1e-5)
base = ExperimentConfig(app="bsp", nodes=4, seed=2,
                        app_params={"work_ns": 500_000, "iterations": 10})
bad = 0
for round_ in range(3):
    with SweepExecutor(workers=3, persistent=True) as ex:
        ex.warm()
        pid = ex._pool.submit(os.getpid).result(timeout=30)
        futs = [ex.submit(replace(base, seed=s)) for s in range(4)]
        os.kill(pid, signal.SIGKILL)
        futs += [ex.submit(replace(base, seed=s)) for s in range(4, 8)]
        for f in futs:
            try:
                f.result(timeout=120)
            except Exception:
                bad += 1
print("METRIC", bad)
''',
    "context_leak": r'''
from repro.obs import oplog
for _ in range(3):
    try:
        with oplog.context(request_id="r-1"):
            raise ValueError("request failed")
    except ValueError:
        pass
    with oplog.context(request_id="r-2"):
        pass
print("METRIC", len(oplog.current_context()))
''',
}

#: probe -> (comparison, threshold): ``ratio`` counts a plant real when
#: planted / unplanted exceeds the threshold; ``excess`` when planted -
#: unplanted does.
PROBE_RULES = {
    "message_bytes": ("excess", 16.0),
    "timeout_bytes": ("excess", 16.0),
    "torus_matrix_s": ("ratio", 3.0),
    "graph_first_send_s": ("ratio", 3.0),
    "registry_fed_off": ("excess", 0.0),
    "registry_series_off": ("excess", 0.0),
    "healthz_stall_ms": ("excess", 250.0),
    "served_records": ("excess", 0.0),
    "stop_errors": ("excess", 0.0),
    "dying_pool_errors": ("excess", 0.0),
    "context_leak": ("excess", 0.0),
}


# -- scratch copies ---------------------------------------------------------

def _snapshot(dest: Path) -> Path:
    """Copy the sources and tests this script needs into ``dest``."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(REPO / part, dest / part, ignore=ignore)
    shutil.copy2(REPO / "pyproject.toml", dest / "pyproject.toml")
    return dest


def _plant(base: Path, dest: Path, plant: Plant) -> None:
    if dest.exists():
        shutil.rmtree(dest)
    shutil.copytree(base, dest)
    for rel, old, new in plant.edits:
        path = dest / "src" / "repro" / rel
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(
                f"{plant.rule} '{plant.name}': anchor occurs "
                f"{text.count(old)} times in {rel}: {old!r}")
        path.write_text(text.replace(old, new), encoding="utf-8")


def _run(cmd: list[str], cwd: Path, *, env: dict[str, str] | None = None,
         timeout: float) -> tuple[int, str, float]:
    full = dict(os.environ, PYTHONPATH=str(cwd / "src"),
                PYTHONDONTWRITEBYTECODE="1", **(env or {}))
    full.setdefault("PYTHONHASHSEED", "0")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=full, capture_output=True,
                              text=True, timeout=timeout)
        return proc.returncode, proc.stdout + proc.stderr, \
            time.perf_counter() - t0
    except subprocess.TimeoutExpired as exc:
        out = (exc.stdout or b"")
        out = out.decode() if isinstance(out, bytes) else out
        return -1, out + f"\nTIMEOUT after {timeout}s", \
            time.perf_counter() - t0


def _report(tree: Path, **env: str) -> tuple[int, str]:
    rc, out, _ = _run([sys.executable, "-c", REPORT_PROG], tree, env=env,
                      timeout=EVIDENCE_TIMEOUT_S)
    return rc, out


def _probe(tree: Path, name: str) -> float | None:
    rc, out, _ = _run([sys.executable, "-c", PROBES[name]], tree,
                      timeout=EVIDENCE_TIMEOUT_S)
    m = re.search(r"^METRIC (\S+)$", out, re.M)
    return float(m.group(1)) if rc == 0 and m else None


# -- the three questions ----------------------------------------------------

def evidence(plant: Plant, tree: Path, base: Path,
             baseline: dict[str, object]) -> tuple[bool, str]:
    """(real defect?, the differential that shows it)."""
    if plant.evidence.startswith("probe:"):
        name = plant.evidence.split(":", 1)[1]
        if name not in baseline:
            baseline[name] = _probe(base, name)
        ref, got = baseline[name], _probe(tree, name)
        kind, limit = PROBE_RULES[name]
        if got is None:
            return True, f"{name}: probe crashed on the planted copy"
        if ref is None:
            return False, f"{name}: probe crashed on the unplanted copy"
        real = (got / ref > limit if kind == "ratio" and ref
                else got - ref > limit)
        return real, f"{name} {ref:.4g} -> {got:.4g}"
    rc_a, out_a = _report(tree)
    if plant.evidence == "behaviour":
        if "base_report" not in baseline:
            baseline["base_report"] = _report(base)[1]
        if rc_a != 0:
            return True, f"report program exits {rc_a}"
        if out_a == baseline["base_report"]:
            return False, "report identical to the unplanted copy"
        errors = sorted(set(re.findall(r"^ERROR (\w+)", out_a, re.M))
                        - set(re.findall(r"^ERROR (\w+)",
                                         baseline["base_report"], re.M)))
        if errors:
            return True, "report raises " + ", ".join(errors)
        return True, "report differs from the unplanted copy"
    found = []
    if rc_a != 0:
        return True, f"report program exits {rc_a}"
    first, _, second = out_a.partition("=== second run in this process ===")
    if first.strip() != second.strip():
        found.append("2 runs in 1 process differ")
    _, out_b = _report(tree)
    if out_b != out_a:
        found.append("2 processes differ")
    for seed in HASH_SEEDS:
        if _report(tree, PYTHONHASHSEED=seed)[1] != out_a:
            found.append(f"PYTHONHASHSEED 0 vs {seed} differ")
            break
    if plant.env is not None:
        _, out_d = _report(tree, **{plant.env[0]: plant.env[1]})
        if out_d != out_a:
            found.append(f"{plant.env[0]}={plant.env[1]} vs unset differ")
    if found:
        return True, "; ".join(found)
    return False, "no differential changes the report"


def detlint(tree: Path, runner: Path) -> list[str]:
    """Rule ids that detlint from ``runner/src`` reports on the planted
    copy."""
    env = {"PYTHONPATH": str(runner / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(tree / "src" / "repro"),
         "--json"], cwd=tree, env=dict(os.environ, **env),
        capture_output=True, text=True, timeout=EVIDENCE_TIMEOUT_S)
    doc = json.loads(proc.stdout)
    return sorted({f["rule"] for f in doc["findings"]})


def tier1(tree: Path) -> tuple[str | None, float, str]:
    """(first failing test or None, wall seconds, tail of the output)."""
    rc, out, wall = _run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--ignore-glob=tests/test_lint*.py"], tree,
        env={"PYTHONHASHSEED": "0"}, timeout=TIER1_TIMEOUT_S)
    if rc == 0:
        return None, wall, ""
    m = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.M)
    first = m.group(1) if m else ("TIMEOUT" if rc == -1 else f"exit {rc}")
    return first, wall, "\n".join(out.splitlines()[-15:])


# -- rendering --------------------------------------------------------------

def render(results: dict[str, dict], ref: str | None = None) -> str:
    plants = {p.digest: p for p in PLANTS}
    rows = [results[d] | {"plant": plants[d]} for d in plants
            if d in results]
    rows.sort(key=lambda r: RULE_ORDER.index(r["plant"].rule))
    ref_head = f" detlint at {ref} |" if ref else ""
    lines = [
        "| Rule | Plant | Module | Real defect (evidence) | detlint flags "
        f"|{ref_head} Tier-1 (first failing test) |",
        "|---|---|---|---|---|" + ("---|" if ref else "") + "---|",
    ]
    for r in rows:
        p = r["plant"]
        real = ("yes" if r["real"] else "no") + f": {r['evidence']}"
        flags = ", ".join(r["flags"]) or "none"
        if ref:
            flags += " | " + (", ".join(r.get("flags_ref", [])) or "none")
        if not r["real"]:
            t1 = "not run (no defect to catch)"
        elif r["first_fail"]:
            t1 = f"caught: `{r['first_fail']}` ({r['tier1_s']:.0f} s)"
        else:
            t1 = f"passes ({r['tier1_s']:.0f} s)"
        lines.append(f"| {p.rule} | {p.name} | `{p.module}` | {real} "
                     f"| {flags} | {t1} |")
    kept = _live_rules()
    at = f" at {ref}" if ref else ""
    lines += ["", f"| Rule | Real plants | Flagged by own rule{at} "
              "| Real plants caught by tier-1 | Rule today |",
              "|---|---|---|---|---|"]
    for rid in RULE_ORDER:
        mine = [r for r in rows if r["plant"].rule == rid]
        if not mine:
            continue
        real = [r for r in mine if r["real"]]
        lines.append(
            f"| {rid} | {len(real)}/{len(mine)} "
            f"| {sum(rid in r.get('flags_ref', r['flags']) for r in mine)}"
            f"/{len(mine)} "
            f"| {sum(bool(r['first_fail']) for r in real)}/{len(real)} "
            f"| {'kept' if rid in kept else 'deleted'} |")
    return "\n".join(lines) + "\n"


def _live_rules() -> set[str]:
    """Rule ids registered in this checkout's detlint."""
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.lint import RULES; print(' '.join(RULES))"],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True, text=True, check=True).stdout
    return set(out.split())


def write_doc(path: Path, table: str) -> None:
    text = path.read_text(encoding="utf-8")
    start, end = text.index(DOC_BEGIN), text.index(DOC_END)
    path.write_text(text[:start + len(DOC_BEGIN)] + "\n\n" + table + "\n"
                    + text[end:], encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rules", default=None,
                    help="comma-separated rule ids (default: all)")
    ap.add_argument("--json", default=None, metavar="FILE",
                    help="accumulate results here (resumes a stopped run)")
    ap.add_argument("--workdir", default=None,
                    help="scratch directory (default: a new temp dir)")
    ap.add_argument("--lint-tree", default=None, metavar="DIR",
                    help="also run detlint from DIR/src (another "
                         "checkout) and report its flags in a column "
                         "named after DIR")
    ap.add_argument("--skip-tier1", action="store_true",
                    help="only evidence and detlint (for checking plants)")
    ap.add_argument("--relint", action="store_true",
                    help="only recompute the detlint columns of the "
                         "results already in --json (after a rule change)")
    ap.add_argument("--write-doc", default=None, metavar="MD",
                    help=f"replace the table between {DOC_BEGIN} markers")
    args = ap.parse_args(argv)

    wanted = set(args.rules.split(",")) if args.rules else set(RULE_ORDER)
    store = Path(args.json) if args.json else None
    results: dict[str, dict] = {}
    if store is not None and store.exists():
        results = json.loads(store.read_text())
    work = Path(args.workdir or tempfile.mkdtemp(prefix="lint-mut-"))
    work.mkdir(parents=True, exist_ok=True)
    base = work / "base"
    if base.exists():
        shutil.rmtree(base)
    _snapshot(base)
    for plant in PLANTS:  # fail fast on a stale anchor, before any run
        _plant(base, work / "planted", plant)
    lint_tree = Path(args.lint_tree).absolute() if args.lint_tree else None
    baseline: dict[str, object] = {}
    for plant in PLANTS:
        if plant.rule not in wanted:
            continue
        if args.relint:
            if plant.digest in results:
                tree = work / "planted"
                _plant(base, tree, plant)
                row = results[plant.digest]
                row["flags"] = detlint(tree, tree)
                if lint_tree is not None:
                    row["flags_ref"] = detlint(tree, lint_tree)
            continue
        if plant.digest in results and not args.skip_tier1:
            continue
        tree = work / "planted"
        _plant(base, tree, plant)
        real, why = evidence(plant, tree, base, baseline)
        row = {"rule": plant.rule, "name": plant.name, "real": real,
               "evidence": why, "flags": detlint(tree, tree),
               "first_fail": None, "tier1_s": 0.0}
        if lint_tree is not None:
            row["flags_ref"] = detlint(tree, lint_tree)
        if real and not args.skip_tier1:
            first, wall, tail = tier1(tree)
            row.update(first_fail=first, tier1_s=round(wall, 1))
            if first and not first.startswith("tests/"):
                row["tier1_tail"] = tail
        print(f"{plant.rule:8s} {plant.name}: real={real} ({why}); "
              f"flags={row['flags']} {row.get('flags_ref', '')}; "
              f"tier1={row['first_fail']} "
              f"{row['tier1_s']}s", flush=True)
        if args.skip_tier1:
            continue
        results[plant.digest] = row
        if store is not None:
            store.write_text(json.dumps(results, indent=1, sort_keys=True))
    if store is not None:
        store.write_text(json.dumps(results, indent=1, sort_keys=True))
    table = render(results, lint_tree.name if lint_tree else None)
    print(table)
    if args.write_doc:
        write_doc(Path(args.write_doc), table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
