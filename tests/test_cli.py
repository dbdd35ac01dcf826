"""CLI tests: argument parsing round-trips, error paths, and the
telemetry flag surface (``--metrics`` / ``--trace`` / ``stats``)."""

import io
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import EXIT_BROKEN_PIPE, build_parser, main
from repro.harness import execution_policy


@pytest.fixture(autouse=True)
def _restore_execution_policy():
    """CLI commands mutate the process-wide policy; undo after each test."""
    policy = execution_policy()
    saved = (policy.workers, policy.cache)
    yield
    policy.workers, policy.cache = saved


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# -- parsing round-trips -----------------------------------------------------

def test_run_flags_round_trip():
    args = build_parser().parse_args(
        ["run", "E4", "--scale", "full", "--workers", "3", "--cache", "d",
         "--trace", "t.json", "--trace-categories", "net,mpi", "--metrics"])
    assert args.command == "run"
    assert args.experiment == "E4"
    assert args.scale == "full"
    assert args.workers == 3
    assert args.cache == "d"
    assert args.trace == "t.json"
    assert args.trace_categories == "net,mpi"
    assert args.metrics is True


def test_run_defaults_leave_telemetry_off():
    args = build_parser().parse_args(["run", "E1"])
    assert args.scale == "small"
    assert args.workers == 1
    assert args.cache is None
    assert args.metrics is False
    assert args.trace is None
    assert args.trace_categories is None


def test_compare_and_sweep_fault_specs_parse():
    args = build_parser().parse_args(
        ["compare", "--app", "bsp", "--nodes", "8",
         "--faults", "drop=0.01,timeout=1ms"])
    assert args.faults == "drop=0.01,timeout=1ms"
    args = build_parser().parse_args(
        ["sweep", "--nodes", "2,4", "--patterns", "quiet,2.5pct@10Hz",
         "--faults", "dup=0.002"])
    assert args.nodes == "2,4"
    assert args.patterns == "quiet,2.5pct@10Hz"
    assert args.faults == "dup=0.002"


def test_topology_flags_round_trip():
    from repro.cli import _parse_collectives

    args = build_parser().parse_args(
        ["compare", "--nodes", "8",
         "--topology", "hier:2x2x2@fat-tree", "--shape", "2x2x2@fat-tree",
         "--collectives", "allreduce=two-level,barrier=two-level"])
    assert args.topology == "hier:2x2x2@fat-tree"
    assert args.shape == "2x2x2@fat-tree"
    assert _parse_collectives(args.collectives) == {
        "allreduce": "two-level", "barrier": "two-level"}
    args = build_parser().parse_args(["sweep", "--nodes", "2,4"])
    assert args.topology == "switch"
    assert args.shape is None
    assert _parse_collectives(args.collectives) is None


def test_stats_defaults_to_metrics_on():
    args = build_parser().parse_args(["stats", "--nodes", "4"])
    assert args.command == "stats"
    assert args.metrics is True
    assert args.sim_only is False
    assert args.trace is None


def test_unknown_command_and_missing_experiment_exit_nonzero():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run"])  # experiment id is required


# -- error paths (ReproError -> exit code 2 with a message) ------------------

def test_trace_categories_without_trace_is_an_error():
    code, text = run_cli(["compare", "--nodes", "2",
                          "--trace-categories", "net"])
    assert code == 2
    assert "error: --trace-categories requires --trace PATH" in text


def test_unknown_experiment_is_an_error():
    code, text = run_cli(["run", "E99"])
    assert code == 2
    assert "error:" in text and "unknown experiment" in text


def test_malformed_pattern_grammar_is_an_error():
    code, text = run_cli(["compare", "--nodes", "2", "--pattern", "bogus"])
    assert code == 2
    assert "error:" in text


def test_malformed_faults_spec_is_an_error():
    code, text = run_cli(["compare", "--nodes", "2", "--faults", "zorp=1"])
    assert code == 2
    assert "error:" in text


def test_malformed_collectives_spec_is_an_error():
    code, text = run_cli(["compare", "--nodes", "2",
                          "--collectives", "allreduce"])
    assert code == 2
    assert "error:" in text and "op=algorithm" in text


def test_unknown_collective_algorithm_is_an_error():
    code, text = run_cli(["compare", "--nodes", "2",
                          "--collectives", "allreduce=zorp"])
    assert code == 2
    assert "error:" in text


# -- commands end to end -----------------------------------------------------

def test_list_shows_catalogue():
    code, text = run_cli(["list"])
    assert code == 0
    assert "experiments: E1 E2" in text
    assert "workloads:" in text
    assert "patterns:" in text


def test_run_default_output_has_no_metrics_block():
    code, text = run_cli(["run", "E1"])
    assert code == 0
    assert "E1:" in text
    assert "metrics:" not in text


def test_run_metrics_flag_appends_metrics_block():
    code, text = run_cli(["run", "E15", "--metrics"])
    assert code == 0
    assert "metrics:" in text
    assert "harness.phase_s{phase=E15}" in text


def test_compare_trace_writes_chrome_json(tmp_path):
    path = tmp_path / "trace.json"
    code, text = run_cli(["compare", "--nodes", "4", "--trace", str(path),
                          "--trace-categories", "net,mpi"])
    assert code == 0
    assert f"events written to {path}" in text
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]
    assert {e["ph"] for e in doc["traceEvents"]} >= {"M", "X"}


def test_stats_prints_registry():
    code, text = run_cli(["stats", "--nodes", "4", "--seed", "3"])
    assert code == 0
    assert "slowdown" in text
    assert "sim.events_processed:" in text
    assert "net.messages_total:" in text


def test_stats_sim_only_hides_host_metrics():
    code, text = run_cli(["stats", "--nodes", "4", "--sim-only"])
    assert code == 0
    assert "sim.events_processed:" in text
    assert "exec." not in text and "harness." not in text


# -- stdout closed early ---------------------------------------------------------

def test_closed_stdout_exits_quietly():
    """`repro list | head -1`: a reader that goes away early stops the
    command with the documented exit code and no traceback.  Closing
    our read end before the child writes makes the EPIPE certain."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "repro", "list"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 141
    assert err == ""
