"""The event schedule of every app skeleton, pinned.

Whether a kernel steal stretches a compute phase can hang on the order
of events that share an instant, so a change to the simulator's hot
path must leave the heap's ``(time, priority, seq)`` stream exactly as
it was: not one event added, dropped or reordered.  Each case below
pins, for the six app skeletons at tiny sizes:

* ``meta["det_check"]``, the order-sensitive checksum of every
  scheduled tuple (the push path with ``det_check`` on);
* ``events_processed`` and the makespan, both from that run and from a
  dark run (the push path with every telemetry switch off).

The four cases cover the quiet machine, periodic noise on a commodity
kernel (NIC receive steals that extend a running compute phase), a
lossy fabric (the reliable-transport path) and critical-path recording
(the recorder's receive path).  The values were recorded before the
send and push paths were flattened; a change that moves an event must
say so and record them again.
"""

import pytest

from repro import obs
from repro.core import ExperimentConfig, run_experiment

APPS = {
    "bsp": {"work_ns": 200_000, "iterations": 4},
    "pop": {"baroclinic_ns": 400_000, "solver_iterations": 4,
            "solver_compute_ns": 20_000, "iterations": 2},
    "stencil": {"work_ns": 300_000, "iterations": 3},
    "sweep": {"block_work_ns": 50_000, "blocks_per_rank": 3,
              "iterations": 1},
    "cg": {"spmv_ns": 300_000, "iterations": 3},
    "transpose": {"work_ns": 300_000, "total_bytes": 1 << 16,
                  "iterations": 3},
}

CASES = {
    "quiet": {"kernel": "lightweight"},
    "noisy": {"kernel": "commodity-linux", "noise_pattern": "2.5pct@1000Hz",
              "alignment": "random"},
    "lossy": {"kernel": "lightweight", "noise_pattern": "1pct@100Hz",
              "faults": "drop=0.01,timeout=300us"},
    "critpath": {"kernel": "commodity-linux", "noise_pattern": "2pct@1000Hz",
                 "alignment": "staggered", "critical_path": True},
}

#: (case, app) -> (det_check, events_processed, makespan_ns) at 8 nodes,
#: seed 11.
PINNED = {
    ("quiet", "bsp"): (10700626878010918233, 625, 836072),
    ("quiet", "pop"): (12387514824015200481, 1249, 1032288),
    ("quiet", "stencil"): (1201759999477227071, 785, 952842),
    ("quiet", "sweep"): (5031194700023859952, 727, 1169680),
    ("quiet", "cg"): (10416376090836286397, 1265, 1054836),
    ("quiet", "transpose"): (943357759452931841, 1745, 1947504),
    ("noisy", "bsp"): (3501371490094563432, 740, 1038185),
    ("noisy", "pop"): (4409209190264338690, 1493, 1358416),
    ("noisy", "stencil"): (1060776639065624106, 927, 1223756),
    ("noisy", "sweep"): (12621007336843188930, 892, 1572454),
    ("noisy", "cg"): (4633809103692374957, 1505, 1554138),
    ("noisy", "transpose"): (6814244480924271615, 2108, 2606490),
    ("lossy", "bsp"): (5366939990867068066, 735, 1432168),
    ("lossy", "pop"): (15064942024140845325, 1445, 1928872),
    ("lossy", "stencil"): (8860569942133944664, 925, 1324025),
    ("lossy", "sweep"): (13692770591138907772, 844, 1169680),
    ("lossy", "cg"): (3130469884385163448, 1529, 1986073),
    ("lossy", "transpose"): (8431377648054127284, 2088, 3020147),
    ("critpath", "bsp"): (7463218515318153469, 741, 1035583),
    ("critpath", "pop"): (9364664436694779910, 1475, 1320910),
    ("critpath", "stencil"): (13601635529557321344, 927, 1188152),
    ("critpath", "sweep"): (7771496667479032406, 895, 1570692),
    ("critpath", "cg"): (14994776311969141933, 1514, 1414639),
    ("critpath", "transpose"): (13513274878127663601, 2121, 2622596),
}


def _config(case, app):
    return ExperimentConfig(app=app, nodes=8, seed=11,
                            app_params=APPS[app], **CASES[case])


@pytest.mark.parametrize("case,app", sorted(PINNED))
def test_schedule_stream_is_pinned(case, app):
    checksum, events, makespan = PINNED[(case, app)]
    cfg = _config(case, app)

    obs.configure(det_check=True)
    checked = run_experiment(cfg)
    obs.disable()
    assert (checked.meta["det_check"], checked.events_processed,
            checked.makespan_ns) == (checksum, events, makespan)

    dark = run_experiment(cfg)
    assert "det_check" not in dark.meta
    assert (dark.events_processed, dark.makespan_ns) == (events, makespan)


def test_lossy_case_retransmits():
    """The lossy case really takes the reliable transport's retry path."""
    retries = sum(run_experiment(_config("lossy", app))
                  .meta["faults"]["total_retries"] for app in APPS)
    assert retries > 0
