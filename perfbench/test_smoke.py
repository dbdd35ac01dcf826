"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs with ``--seconds 1`` (one round, a few jobs), untraced
and traced.  The test checks that the last line names every metric of
``BENCHMARK.json`` with its unit, that nothing failed, and that the
benchmark refuses to run where the program is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _run(args: list[str], cwd: str, results: str
         ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args, "--results", results], cwd=cwd,
        capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload: str, trace: int,
                                      tmp_path) -> None:
    proc = _run(["--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace)], ROOT, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert f"{m['name']} = " in proc.stdout
    assert "error_frac = 0 " in proc.stdout
    (saved,) = list(tmp_path.glob(f"{workload}-t{trace}-*.json"))
    host = json.loads(saved.read_text())["host"]
    assert {"nproc", "cpu_model", "python", "numpy", "scipy",
            "loadavg_1m"} <= set(host)


def test_refuses_without_the_program(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "des_apps",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_reports_verdicts(tmp_path) -> None:
    before, after = tmp_path / "before", tmp_path / "after"
    for side in (before, after):
        for seed in (0, 1):
            proc = _run(["--workload", "des_apps", "--seed", str(seed),
                         "--seconds", "1"], ROOT, str(side))
            assert proc.returncode == 0, proc.stderr
    proc = subprocess.run([sys.executable, RUN, "--compare", str(before),
                           str(after)], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert "== des_apps (untraced; 2 before, 2 after)" in proc.stdout
    for m in SPEC["end_to_end"]:
        assert m["name"] in proc.stdout
