"""The one comparison plan: sweep/comparison expansion and assembly.

The executor (CLI and harness) and the experiment server run the same
:func:`repro.parallel.plan_sweep` / :func:`repro.parallel.plan_comparisons`
plans.  The differential test below checks them against the direct
in-process primitive, :func:`repro.core.run_with_baseline`.
"""

import json
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ExperimentConfig,
    run_experiment,
    run_with_baseline,
    sweep_records,
)
from repro.noise import is_quiet
from repro.parallel import SweepExecutor, plan_comparisons, plan_sweep
from repro.serve import parse_job

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


def _run_blob(result):
    return (json.dumps(result.as_dict(), sort_keys=True),
            result.iteration_durations_ns.tolist(),
            json.dumps(result.meta, sort_keys=True, default=str))


def _cmp_blob(cmp):
    return _run_blob(cmp.quiet), _run_blob(cmp.noisy)


def _records_blob(records):
    return json.dumps(records, sort_keys=True)


@given(app=st.sampled_from(sorted(_APP_PARAMS)),
       nodes=st.lists(st.integers(2, 8), min_size=1, max_size=3),
       patterns=st.lists(st.sampled_from(_NOISY + _QUIET), min_size=1,
                         max_size=3),
       alignment=st.sampled_from(("random", "staggered", "synchronized")),
       seed=st.integers(0, 3))
@settings(max_examples=20, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_plans_match_direct_comparisons(app, nodes, patterns,
                                                 alignment, seed):
    base = ExperimentConfig(app=app, alignment=alignment, seed=seed,
                            app_params=_APP_PARAMS[app])
    noisy = {(p, pattern): replace(base, nodes=p, noise_pattern=pattern)
             for p in nodes for pattern in patterns if not is_quiet(pattern)}
    direct = {key: run_with_baseline(cfg) for key, cfg in noisy.items()}

    # run_comparisons == run_with_baseline, config by config.
    if noisy:
        ex = SweepExecutor()
        got = ex.run_comparisons(noisy)
        assert not ex.last_stats.errors
        assert {k: _cmp_blob(v) for k, v in got.items()} == {
            k: _cmp_blob(v) for k, v in direct.items()}

    # run_sweep: noisy cells == run_with_baseline, quiet-alias cells ==
    # the bare quiet twin, repeated node counts collapse.
    swept = SweepExecutor().run_sweep(base, nodes=nodes, patterns=patterns)
    assert list(swept) == list(dict.fromkeys(
        (p, pattern) for p in nodes for pattern in patterns))
    for (p, pattern), res in swept.items():
        if is_quiet(pattern):
            quiet = run_experiment(replace(base, nodes=p).quiet_twin())
            assert _run_blob(res) == _run_blob(quiet)
        else:
            assert _cmp_blob(res) == _cmp_blob(direct[(p, pattern)])

    # Served assembly on executor-run points == sweep_records.
    job = parse_job({"kind": "sweep", "app": app, "nodes": nodes,
                     "patterns": patterns, "alignment": alignment,
                     "seed": seed, "app_params": _APP_PARAMS[app]})
    points, _ = SweepExecutor().run_configs(
        {pt.key: pt.config for pt in job.points()})
    records, errors = job.assemble(points)
    assert errors == []
    assert _records_blob(records) == _records_blob(sweep_records(
        job.base, nodes=job.nodes, patterns=job.patterns))


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
