"""Noise-measurement microbenchmarks.

The indirect tool suite the noise literature used before direct kernel
observation existed — reimplemented inside the simulation so the paper's
"indirect inference vs direct observation" comparison can be made:

* :class:`FTQBenchmark` — fixed time quantum (spectral analysis input);
* :class:`FWQBenchmark` — fixed work quantum (duration-sensitive);
* :class:`SelfishBenchmark` — per-event detour detection;
* :class:`PSNAPBenchmark` — machine-wide fixed-work census;
* :class:`CollectiveBenchmark` — collective latency under noise
  (:class:`CollectivePoint`: one benchmark as a plan point);
* :class:`PingPongBenchmark` — point-to-point RTT distributions
  (netgauge-style tail analysis).
"""

from .collective_bench import CollectiveBenchmark, CollectiveBenchResult, CollectivePoint
from .ftq import FTQBenchmark, FTQResult
from .fwq import FWQBenchmark, FWQResult
from .pingpong import PingPongBenchmark, PingPongResult
from .psnap import PSNAPBenchmark, PSNAPResult
from .selfish import Detour, SelfishBenchmark, SelfishResult

__all__ = [
    "FTQBenchmark", "FTQResult",
    "FWQBenchmark", "FWQResult",
    "SelfishBenchmark", "SelfishResult", "Detour",
    "PSNAPBenchmark", "PSNAPResult",
    "PingPongBenchmark", "PingPongResult",
    "CollectiveBenchmark", "CollectiveBenchResult", "CollectivePoint",
]
