"""Shared helpers of the benchmark: paths, statistics, hashing, host facts.

Nothing here imports ``repro``; the entry point (``run.py``) stays importable
in a directory that holds only the benchmark, where it must fail cleanly.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import os
import platform
import resource
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Working space for result files and serve caches (ignored by git).
OUT = os.path.join(HERE, ".out")
REFS = os.path.join(HERE, "refs")


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def require_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` or fail."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program to measure: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50)


def digest(obj: object) -> str:
    """First 64 bits of the SHA-256 of ``obj``'s canonical JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def self_peak_mb() -> float:
    """Peak RSS of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of a live process in MB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def proc_children(pid: int) -> list[int]:
    """Direct children of a live process, started by any of its threads
    (empty if the process is gone)."""
    children: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return children
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                children += [int(x) for x in f.read().split()]
        except OSError:
            pass
    return children


#: Steps of one calibration sample, and the sample's typical time on the
#: reference host (2-vCPU Intel Xeon VM, Python 3.11.7).
CALIBRATION_STEPS = 10_000
REFERENCE_SAMPLE_S = 0.03


class _Entry:
    __slots__ = ("t", "seq", "tag")

    def __init__(self, t: int, seq: int, tag: int) -> None:
        self.t, self.seq, self.tag = t, seq, tag

    def __lt__(self, other: "_Entry") -> bool:
        return (self.t, self.seq) < (other.t, other.seq)


def reference_work(steps: int) -> int:
    """A fixed pure-Python event loop: a heap of small objects and dict
    updates, the kind of work the simulator does, none of its code."""
    heap = [_Entry(i, i, i) for i in range(64)]
    seq, acc, last = len(heap), 0, {}
    for _ in range(steps):
        entry = heapq.heappop(heap)
        acc = (acc * 31 + entry.t) & 0xFFFFFFF
        last[entry.tag] = acc
        seq += 1
        heapq.heappush(heap, _Entry(entry.t + (acc & 1023) + 1, seq,
                                    entry.tag))
    return acc


class HostSpeed:
    """How fast the host runs :func:`reference_work` now, relative to the
    reference host: 1.0 there, 1.25 when everything runs 25 % faster.

    Shared hosts drift: the same collective_scale work took 9.4 s in one
    run and 15.8 s in another a few minutes later.  The calibration
    tracks that drift (over 20-second blocks its time correlated 0.96
    with a simulator comparison's), so time metrics scaled by the factor
    compare runs made at different moments.  The factor uses the mean of
    the samples: their times are bimodal, which makes the median jump.
    Samples taken back to back run faster than one taken right after a
    simulation, so a run takes all its samples in one of the two ways.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> float:
        """Take ``n`` samples; returns the seconds they took."""
        enabled = gc.isenabled()
        gc.disable()  # the loop frees by refcount; no collector pauses
        t_start = time.perf_counter()
        try:
            for _ in range(n):
                t0 = time.perf_counter()
                reference_work(CALIBRATION_STEPS)
                self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return time.perf_counter() - t_start

    @property
    def factor(self) -> float:
        return REFERENCE_SAMPLE_S * len(self.samples) / sum(self.samples)

    def window_factor(self, i: int, half: int) -> float:
        """The factor from samples ``i - half`` to ``i + half`` only."""
        window = self.samples[max(0, i - half):i + half + 1]
        return REFERENCE_SAMPLE_S * len(window) / sum(window)


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def host_fingerprint() -> dict[str, object]:
    """Facts that make two result files comparable (arXiv:1811.01412)."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "loadavg_1m": os.getloadavg()[0],
        "platform": platform.platform(),
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_refs(workload: str) -> dict[str, str]:
    """Stored output hashes of ``workload``: operation key -> digest."""
    path = os.path.join(REFS, f"{workload}.json")
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}
