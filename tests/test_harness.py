"""Tests for the experiment harness plumbing (fast experiments only —
the full E1–E10 suite runs under benchmarks/)."""

import pytest

from repro.errors import ConfigError
from repro.harness import (
    EXPERIMENTS,
    ExperimentReport,
    experiment_ids,
    render_markdown,
    render_summary,
    run_experiment,
    run_experiments,
)


def test_registry_is_complete():
    assert experiment_ids() == [f"E{i}" for i in range(1, 18)] + ["E20"]
    for eid, mod in EXPERIMENTS.items():
        assert mod.EXPERIMENT_ID == eid and mod.TITLE
        assert callable(mod.plan) and callable(mod.reduce)
        assert not hasattr(mod, "run")  # the registry alone runs plans


def test_failed_point_fails_only_the_experiments_that_need_it(monkeypatch):
    import repro.parallel.executor as mod

    real = mod._run_point

    def no_fault_free_baseline(cfg, det_check=False):
        if getattr(cfg, "faults", "n/a") is None and cfg.app == "bsp":
            raise RuntimeError("boom")
        return real(cfg, det_check)

    monkeypatch.setattr(mod, "_run_point", no_fault_free_baseline)
    reports = run_experiments(["E1", "E13", "E15"], "small")
    assert reports["E1"].passed and reports["E13"].passed
    assert not reports["E15"].passed
    assert reports["E15"].failed_checks() == [
        "point E15 fault-free baseline failed (RuntimeError): boom"]


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        run_experiment("E99")


def test_invalid_scale_rejected():
    with pytest.raises(ConfigError):
        run_experiment("E1", "enormous")


def test_report_rendering_roundtrip():
    rep = ExperimentReport("EX", "demo", ["a", "b"], [[1, 2], [3, 4]],
                           checks={"ok": True, "bad": False},
                           findings={"k": 7}, notes="note")
    assert not rep.passed
    assert rep.failed_checks() == ["bad"]
    text = rep.render()
    assert "EX: demo" in text
    assert "[PASS] ok" in text
    assert "[FAIL] bad" in text
    assert "k: 7" in text
    assert "a,b" in rep.csv()


def test_e6_runs_and_passes_small():
    rep = run_experiment("E6", "small")
    assert rep.passed, rep.failed_checks()
    assert rep.experiment_id == "E6"
    assert rep.rows


def test_e1_runs_and_passes_small():
    rep = run_experiment("E1", "small")
    assert rep.passed, rep.failed_checks()


def test_render_summary_and_markdown():
    reps = {"E1": ExperimentReport("E1", "one", ["h"], [[1]],
                                   checks={"c": True}),
            "E2": ExperimentReport("E2", "two", ["h"], [[2]],
                                   checks={"c": False})}
    summary = render_summary(reps)
    assert "E1" in summary and "PASS" in summary and "FAIL" in summary
    md = render_markdown(reps)
    assert "## E1 — one" in md
    assert "- [x] c" in md
    assert "- [ ] c" in md
