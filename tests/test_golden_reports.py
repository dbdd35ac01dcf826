"""Golden-report regression tests.

Each golden file under ``tests/golden/`` is the exact ``render()``
output of one experiment at small scale with telemetry off.  Any
byte-level drift — a reordered row, a rounding change, telemetry
leaking into the default report — fails with a unified diff.

When a change is *intentional*, regenerate the goldens::

    PYTHONPATH=src python -m pytest tests/test_golden_reports.py --regen-golden
"""

import difflib
import pathlib

import pytest

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
