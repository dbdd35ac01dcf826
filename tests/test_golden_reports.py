"""Golden-report regression tests.

Each golden file under ``tests/golden/`` is the exact ``render()``
output of one experiment at small scale with telemetry off.  Any
byte-level drift — a reordered row, a rounding change, telemetry
leaking into the default report — fails with a unified diff.

When a change is *intentional*, regenerate the goldens::

    PYTHONPATH=src python -m pytest tests/test_golden_reports.py --regen-golden
"""

import difflib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.harness import run_experiment, run_experiments
from repro.parallel import ResultCache, SweepExecutor

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: golden file stem -> (experiment id, scale).
GOLDENS = {
    "e1_small": ("E1", "small"),
    "e2_small": ("E2", "small"),
    "e3_small": ("E3", "small"),
    "e5_small": ("E5", "small"),
    "e6_small": ("E6", "small"),
    "e15_small": ("E15", "small"),
    "e16_small": ("E16", "small"),
    "e17_small": ("E17", "small"),
    "e20_small": ("E20", "small"),
}


@pytest.mark.parametrize("stem", sorted(GOLDENS))
def test_report_matches_golden(stem, request):
    experiment_id, scale = GOLDENS[stem]
    actual = run_experiment(experiment_id, scale).render()
    path = GOLDEN_DIR / f"{stem}.txt"

    if request.config.getoption("--regen-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(actual)
        return

    if not path.exists():
        pytest.fail(f"golden file {path} is missing; generate it with "
                    f"--regen-golden")
    expected = path.read_text()
    if actual != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"golden/{stem}.txt", tofile="current output"))
        pytest.fail(
            f"{experiment_id} ({scale}) report drifted from its golden "
            f"copy.\n{diff}\nIf this change is intentional, rerun with "
            f"--regen-golden to update the golden files.")


#: The cheapest DES-backed goldens (well under a second together), rerun
#: in a fresh interpreter under a second string-hash seed.
HASH_SEED_GOLDENS = ("e1_small", "e2_small", "e6_small", "e15_small",
                     "e16_small")


def collective_timings():
    """Per-repetition times of every benchmarkable collective algorithm
    on a small shaped, jittered, noisy machine.

    The goldens run the default algorithms on a jitter-free fabric;
    this covers the rest of the collectives package and the LogGP
    jitter stream, which no experiment enables.
    """
    from repro.core import Machine, MachineConfig
    from repro.microbench import CollectiveBenchmark
    from repro.microbench.collective_bench import _OPS
    from repro.mpi.collectives import ALGORITHMS
    from repro.net.loggp import LogGPParams

    out = {}
    for op, alg in sorted(ALGORITHMS):
        if op in _OPS:
            machine = Machine(MachineConfig(
                n_nodes=8, kernel="commodity-linux", topology="hier:2x2x2",
                network=LogGPParams(jitter_ns=500), seed=4))
            out[f"{op}/{alg}"] = CollectiveBenchmark(
                op, repetitions=3, algorithm=alg).run(machine).times_ns.tolist()
    return out


def test_goldens_and_collectives_identical_under_a_second_hash_seed():
    """A run is a pure function of (config, seed): neither string
    hashing nor anything else about the process may reach a result.
    A second interpreter under ``PYTHONHASHSEED=999`` reproduces the
    cheap goldens byte for byte and this process's collective timings
    exactly; set iteration over strings, a host clock, a process id or
    a module-global counter shows up here as a difference."""
    root = pathlib.Path(__file__).resolve().parent.parent
    prog = ("import json, sys\n"
            "from repro.harness import run_experiment\n"
            "from tests.test_golden_reports import collective_timings\n"
            "print(json.dumps({\n"
            "    'goldens': {stem: run_experiment(eid, 'small').render()\n"
            "                for stem, eid in json.loads(sys.argv[1])},\n"
            "    'collectives': collective_timings()}))\n")
    todo = [(stem, GOLDENS[stem][0]) for stem in HASH_SEED_GOLDENS]
    src = pathlib.Path(repro.__file__).parent.parent
    env = dict(os.environ, PYTHONHASHSEED="999",
               PYTHONPATH=os.pathsep.join([str(src), str(root)]))
    out = subprocess.run([sys.executable, "-c", prog, json.dumps(todo)],
                         env=env, capture_output=True, text=True,
                         check=True)
    child = json.loads(out.stdout)
    for stem in HASH_SEED_GOLDENS:
        expected = (GOLDEN_DIR / f"{stem}.txt").read_text()
        assert child["goldens"][stem] == expected, (
            f"{stem} differs under PYTHONHASHSEED=999")
    assert child["collectives"] == collective_timings()


def test_e5_golden_from_cold_and_warm_cache(tmp_path):
    """E5 runs its comparisons through the executor: its 20 comparisons
    share 4 quiet baselines, and both a cold and a warm result cache
    reproduce the golden report byte for byte."""
    cache = ResultCache(tmp_path)
    executor = SweepExecutor(cache=cache)
    cold = run_experiment("E5", "small", executor).render()
    stored = cache.stats.stores
    warm = run_experiment("E5", "small", executor).render()
    expected = (GOLDEN_DIR / "e5_small.txt").read_text()
    assert cold == expected
    assert warm == expected
    assert stored == 4 + 20
    assert cache.stats.hits == stored and cache.stats.stores == stored


def test_goldens_through_one_pooled_union_cold_and_warm(tmp_path):
    """Every golden experiment in one union of plans on a two-worker
    executor with a result cache: the cold pass and the warm pass both
    reproduce each golden byte for byte, and the warm pass simulates
    no point at all."""
    ids = sorted({eid for eid, _scale in GOLDENS.values()},
                 key=lambda e: int(e[1:]))
    expected = {eid: (GOLDEN_DIR / f"{stem}.txt").read_text()
                for stem, (eid, _scale) in GOLDENS.items()}
    cache = ResultCache(tmp_path)
    executor = SweepExecutor(workers=2, cache=cache)
    for _pass in ("cold", "warm"):
        reports = run_experiments(ids, "small", executor)
        assert {eid: rep.render() for eid, rep in reports.items()} == expected
    stats = executor.last_stats
    assert stats.points > 0
    assert stats.quiet_simulated == stats.noisy_simulated == 0
    assert cache.stats.stores == stats.points
