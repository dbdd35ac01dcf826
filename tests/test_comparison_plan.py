"""The one comparison plan: sweep/comparison expansion and assembly.

The executor (CLI and harness) and the experiment server run the same
:func:`repro.parallel.plan_sweep` / :func:`repro.parallel.plan_comparisons`
plans.  The differential test below checks every way of running them
— serial, two pooled workers, a cold then warm result cache, and the
experiment server — against the direct in-process primitive,
:func:`repro.core.run_with_baseline`, on generated configurations.
"""

import json
import math
import tempfile
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ExperimentConfig,
    run_experiment,
    run_with_baseline,
    sweep_records,
)
from repro.noise import is_quiet
from repro.parallel import (
    ResultCache,
    SweepExecutor,
    plan_comparisons,
    plan_points,
    plan_sweep,
)
from repro.serve import BackgroundServer, ServeClient, parse_job

#: Per-app parameters small enough that one point is a few ms.
_APP_PARAMS = {
    "bsp": {"work_ns": 200_000, "iterations": 3},
    "stencil": {"work_ns": 200_000, "halo_bytes": 512, "iterations": 2},
    "cg": {"spmv_ns": 200_000, "exchange_bytes": 512, "iterations": 2},
}

#: Periodic and burst patterns accept every alignment (stochastic
#: patterns reject ``synchronized``).
_NOISY = ("2.5pct@1000Hz", "5pct@2000Hz", "2.5pct@1000Hzburst2")
_QUIET = ("quiet", "none", " Quiet ")

#: Fault plans that slow a run down without failing it: loss with
#: retransmission, duplicate suppression, a planted one-off delay.
_FAULTS = (None, "drop=0.02,timeout=200us", "dup=0.05",
           "one_off=1:100us:50us")


def _run_blob(result):
    return (json.dumps(result.as_dict(), sort_keys=True),
            result.iteration_durations_ns.tolist(),
            json.dumps(result.meta, sort_keys=True, default=str))


def _cmp_blob(cmp):
    return _run_blob(cmp.quiet), _run_blob(cmp.noisy)


def _cells_blob(results):
    return {cell: (_run_blob(res) if hasattr(res, "makespan_ns")
                   else _cmp_blob(res))
            for cell, res in results.items()}


def _records_blob(records):
    return json.dumps(records, sort_keys=True)


@pytest.fixture(scope="module")
def pooled():
    """One persistent two-worker executor shared by every example."""
    with SweepExecutor(workers=2, persistent=True) as ex:
        yield ex


@pytest.fixture(scope="module")
def served():
    """One experiment server shared by every example."""
    with BackgroundServer(workers=1) as bg:
        yield ServeClient(*bg.address, timeout=60.0)


@st.composite
def _shapes(draw, max_nodes):
    """``None`` or a ``CxNxS@kind`` shape with room for ``max_nodes``."""
    if not draw(st.booleans()):
        return None
    cores = draw(st.integers(1, 2))
    per_switch = draw(st.integers(1, 4))
    switches = math.ceil(max_nodes / (cores * per_switch))
    kind = draw(st.sampled_from(("fat-tree", "dragonfly")))
    return f"{cores}x{per_switch}x{switches}@{kind}"


@st.composite
def _sweeps(draw):
    nodes = draw(st.lists(st.integers(2, 8), min_size=1, max_size=3))
    return dict(
        app=draw(st.sampled_from(sorted(_APP_PARAMS))),
        nodes=nodes,
        patterns=draw(st.lists(st.sampled_from(_NOISY + _QUIET),
                               min_size=1, max_size=3)),
        alignment=draw(st.sampled_from(("random", "staggered",
                                        "synchronized"))),
        seed=draw(st.integers(0, 3)),
        shape=draw(_shapes(max(nodes))),
        faults=draw(st.sampled_from(_FAULTS)))


@given(sweep=_sweeps())
@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_plans_match_direct_comparisons(sweep, pooled, served):
    app, nodes, patterns = sweep["app"], sweep["nodes"], sweep["patterns"]
    base = ExperimentConfig(app=app, alignment=sweep["alignment"],
                            seed=sweep["seed"], shape=sweep["shape"],
                            faults=sweep["faults"],
                            app_params=_APP_PARAMS[app])
    noisy = {(p, pattern): replace(base, nodes=p, noise_pattern=pattern)
             for p in nodes for pattern in patterns if not is_quiet(pattern)}
    direct = {key: run_with_baseline(cfg) for key, cfg in noisy.items()}

    # A comparison plan == run_with_baseline, config by config.
    if noisy:
        ex = SweepExecutor()
        got = ex.run(plan_comparisons(noisy))
        assert not ex.last_stats.errors
        assert {k: _cmp_blob(v) for k, v in got.items()} == {
            k: _cmp_blob(v) for k, v in direct.items()}

    # A sweep plan: noisy cells == run_with_baseline, quiet-alias cells
    # == the bare quiet twin, repeated node counts collapse.
    plan = plan_sweep(base, nodes, patterns)
    swept = SweepExecutor().run(plan)
    assert list(swept) == list(dict.fromkeys(
        (p, pattern) for p in nodes for pattern in patterns))
    for (p, pattern), res in swept.items():
        if is_quiet(pattern):
            quiet = run_experiment(replace(base, nodes=p).quiet_twin())
            assert _run_blob(res) == _run_blob(quiet)
        else:
            assert _cmp_blob(res) == _cmp_blob(direct[(p, pattern)])
    expected = _cells_blob(swept)

    # Two pooled workers, and a cold then warm result cache.
    assert _cells_blob(pooled.run(plan)) == expected
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        assert _cells_blob(SweepExecutor(cache=cache).run(plan)) == expected
        stored = cache.stats.stores
        assert stored == len(plan.points)
        assert _cells_blob(SweepExecutor(cache=cache).run(plan)) == expected
        assert cache.stats.stores == stored  # the warm pass stores nothing

    # Served: assembly on executor-run points and a real server round
    # trip both == sweep_records.
    doc = {"kind": "sweep", "app": app, "nodes": nodes,
           "patterns": patterns, "alignment": sweep["alignment"],
           "seed": sweep["seed"], "app_params": _APP_PARAMS[app]}
    for field in ("shape", "faults"):
        if sweep[field] is not None:
            doc[field] = sweep[field]
    job = parse_job(doc)
    records = _records_blob(sweep_records(
        job.base, nodes=job.nodes, patterns=job.patterns))
    assembled, errors = job.assemble(SweepExecutor().run(
        plan_points({pt.key: pt.config for pt in job.points()})))
    assert errors == []
    assert _records_blob(assembled) == records
    served_records, stats = served.records(doc)
    assert not stats.get("errors")
    assert _records_blob(served_records) == records


def test_plan_sweep_quiet_first_and_deduplicated():
    plan = plan_sweep(ExperimentConfig(alignment="staggered"),
                      [4, 2, 4], ["2.5pct@10Hz", "OFF", "2.5pct@10Hz"])
    assert [pt.key for pt in plan.points] == [
        ("quiet", 4), ("quiet", 2),
        ("noisy", 4, "2.5pct@10Hz"), ("noisy", 2, "2.5pct@10Hz")]
    assert [pt.label for pt in plan.points] == [
        "quiet baseline P=4", "quiet baseline P=2",
        "P=4 pattern=2.5pct@10Hz", "P=2 pattern=2.5pct@10Hz"]
    twin = plan.points[0].config
    assert (twin.noise_pattern, twin.alignment) == ("quiet", "random")
    assert list(plan.cells) == [(4, "2.5pct@10Hz"), (4, "OFF"),
                                (2, "2.5pct@10Hz"), (2, "OFF")]


def test_plan_comparisons_shares_twins_across_alignments():
    configs = {a: ExperimentConfig(noise_pattern="2.5pct@10Hz", alignment=a)
               for a in ("random", "staggered", "synchronized")}
    plan = plan_comparisons(configs)
    assert [pt.key[0] for pt in plan.points] == ["quiet"] + ["noisy"] * 3


def test_assemble_reports_missing_baseline_with_cause():
    from repro.parallel import PointError

    plan = plan_sweep(ExperimentConfig(app="bsp", app_params=_APP_PARAMS["bsp"]),
                      [2], ["quiet", "2.5pct@1000Hz"])
    quiet_pt, noisy_pt = plan.points
    noisy = run_experiment(noisy_pt.config)
    results, missing = plan.assemble(
        {noisy_pt.key: noisy},
        {quiet_pt.key: PointError(quiet_pt.label, "FaultError", "boom")})
    assert results == {}
    assert [(e.label, e.kind, e.message) for e in missing] == [
        ("P=2 pattern=2.5pct@1000Hz", "MissingBaseline",
         "quiet baseline failed: boom")]
