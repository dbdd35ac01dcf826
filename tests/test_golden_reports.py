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

from repro.harness import execution_policy, run_experiment, set_execution_policy
from repro.parallel import ResultCache

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
    policy = execution_policy()
    saved = (policy.workers, policy.cache)
    cache = ResultCache(tmp_path)
    set_execution_policy(cache=cache)
    try:
        cold = run_experiment("E5", "small").render()
        stored = cache.stats.stores
        warm = run_experiment("E5", "small").render()
    finally:
        policy.workers, policy.cache = saved
    expected = (GOLDEN_DIR / "e5_small.txt").read_text()
    assert cold == expected
    assert warm == expected
    assert stored == 4 + 20
    assert cache.stats.hits == stored and cache.stats.stores == stored
