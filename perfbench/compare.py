"""Compare two sets of benchmark runs (``run.py --compare BEFORE AFTER``).

Each side is a directory of result files written by ``run.py``.  Per
workload and metric this prints both sides' medians and quartiles, the
share of pairs the AFTER side wins, and a verdict:

* ``better``: AFTER wins at least 9 of 10 pairs and the medians differ by
  more than BEFORE's own spread (the distance between its quartiles);
* ``REGRESSION``: AFTER's median is worse than BEFORE's by more than the
  metric's bound in ``BENCHMARK.json`` (end-to-end metrics only);
* ``unresolved``: BEFORE's spread is wider than the bound and AFTER does
  not beat every BEFORE run;
* ``same``: none of the above.

Runs are paired in the order they were made (run *i* of each side), so
make them alternately, parent first on even pairs and change first on
odd ones.  Exit status 1 means at least one regression.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import typing as _t


def _load(directory: str) -> dict[tuple[str, int], list[dict[str, _t.Any]]]:
    runs: dict[tuple[str, int], list[dict[str, _t.Any]]] = {}
    paths = glob.glob(os.path.join(directory, "*.json"))
    # File names end in the run's start time in ns: sort by it.
    paths.sort(key=lambda p: int(p.rsplit("-", 1)[1].split(".")[0]))
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        runs.setdefault((doc["workload"], doc["trace"]), []).append(doc)
    return runs


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(before: list[float], after: list[float], better: str,
            bound: float | None) -> tuple[str, float]:
    """``(verdict, share of pairs AFTER wins)`` for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(before, after))
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    share = wins / len(pairs) if pairs else 0.0
    q1, med_a, q3 = _quartiles(before)
    med_b = statistics.median(after)
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3 - q1:
        return "better", share
    if bound is None:
        return ("worse" if pairs and (len(pairs) - wins) >= 0.9 * len(pairs)
                and abs(med_b - med_a) > q3 - q1 else "same"), share
    scale = abs(med_a) or 1.0
    if sign * (med_a - med_b) / scale > bound:
        return "REGRESSION", share
    every_better = all(sign * (b - a) > 0 for a in before for b in after)
    if (q3 - q1) / scale > bound and not every_better:
        return "unresolved", share
    return "same", share


def main(before_dir: str, after_dir: str, spec: dict[str, _t.Any]) -> int:
    before, after = _load(before_dir), _load(after_dir)
    regressions = 0
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        a_runs, b_runs = before[key], after[key]
        print(f"== {workload} ({'traced' if trace else 'untraced'}; "
              f"{len(a_runs)} before, {len(b_runs)} after)")
        print(f"{'metric':28} {'before q1/med/q3':>32} "
              f"{'after q1/med/q3':>32} {'wins':>5}  verdict")
        for m in metrics:
            xs = [r["metrics"][m["name"]]["value"] for r in a_runs]
            ys = [r["metrics"][m["name"]]["value"] for r in b_runs]
            v, share = verdict(xs, ys, m["better"], m.get("bound"))
            regressions += v == "REGRESSION"
            qa = "/".join(f"{x:.4g}" for x in _quartiles(xs))
            qb = "/".join(f"{y:.4g}" for y in _quartiles(ys))
            print(f"{m['name']:28} {qa:>32} {qb:>32} {share:5.0%}  {v}"
                  f"  [{m['unit']}]")
        hosts = {json.dumps({k: r['host'][k] for k in
                             ('nproc', 'cpu_model', 'python', 'numpy')},
                            sort_keys=True) for r in a_runs + b_runs}
        if len(hosts) > 1:
            print("warning: the runs come from different hosts")
    for key in sorted(set(before) ^ set(after)):
        print(f"note: {key[0]} (trace={key[1]}) has runs on one side only")
    return 1 if regressions else 0
