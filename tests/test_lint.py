"""detlint self-tests.

Each rule gets at least one positive fixture (the hazard, caught) and
one negative (the sanctioned alternative, silent); on top of that:
inline-suppression handling, JSON schema stability, CLI exit codes,
and the meta-test that the live ``src/repro`` tree itself is
detlint-clean.
"""

import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.engine import (
    HOT_PATH_MODULES,
    PARSE_ERROR_RULE,
    lint_paths,
    lint_source,
    module_scope,
    normalize_path,
)
from repro.lint.report import SCHEMA_VERSION, render_json
from repro.lint.rules import RULES, rule_catalog

REPO_ROOT = Path(__file__).resolve().parent.parent


def findings(src, *, scope="sim", path="repro/sim/fixture.py"):
    found, _n = lint_source(textwrap.dedent(src), path, scope=scope)
    return found


def rule_ids(src, **kw):
    return [f.rule for f in findings(src, **kw)]


# -- scope map --------------------------------------------------------------

@pytest.mark.parametrize("parts,scope", [
    (("sim", "core.py"), "sim"),
    (("noise", "patterns.py"), "sim"),
    (("obs", "trace.py"), "sim"),
    (("parallel", "executor.py"), "host"),
    (("harness", "registry.py"), "host"),
    (("lint", "engine.py"), "host"),
    (("cli.py",), "host"),
    (("__main__.py",), "host"),
    (("errors.py",), "neutral"),
    (("__init__.py",), "neutral"),
])
def test_module_scope(parts, scope):
    assert module_scope(parts) == scope


def test_normalize_path_roots_at_repro():
    disp, rel = normalize_path("/home/x/src/repro/sim/core.py")
    assert disp == "repro/sim/core.py"
    assert rel == ("sim", "core.py")
    disp, rel = normalize_path("fixture.py")
    assert disp == "fixture.py"


# -- DET001: wall clock / entropy -------------------------------------------

DET001_BAD = """
    import time
    def stamp():
        return time.time()
"""


def test_det001_flags_wall_clock():
    assert rule_ids(DET001_BAD) == ["DET001"]


def test_det001_resolves_import_aliases():
    src = """
        from time import perf_counter as pc
        import datetime
        def f():
            return pc(), datetime.datetime.now()
    """
    assert rule_ids(src) == ["DET001", "DET001"]


def test_det001_flags_entropy_sources():
    src = """
        import os, uuid, secrets
        def f():
            return os.urandom(8), uuid.uuid4(), secrets.token_hex(4)
    """
    assert rule_ids(src) == ["DET001"] * 3


def test_det001_silent_on_env_now_and_in_host_scope():
    good = """
        def stamp(env):
            return env.now
    """
    assert rule_ids(good) == []
    # Host-scoped modules may read the wall clock (sweep timings).
    assert rule_ids(DET001_BAD, scope="host",
                    path="repro/parallel/fixture.py") == []


# -- DET005: float sum over unordered ---------------------------------------

def test_det005_flags_sum_over_sets():
    src = """
        import math
        def total(xs):
            return sum(set(xs)) + math.fsum(x * 2.0 for x in set(xs))
    """
    assert rule_ids(src) == ["DET005", "DET005"]


def test_det005_silent_on_ordered_accumulation():
    src = """
        def total(xs):
            return sum(sorted(set(xs))) + sum([1.0, 2.0])
    """
    assert rule_ids(src) == []


# -- DET006: environment reads ----------------------------------------------

def test_det006_flags_environ_and_getenv():
    src = """
        import os
        def knobs():
            return os.environ["SCALE"], os.getenv("SEED", "0")
    """
    assert rule_ids(src) == ["DET006", "DET006"]


def test_det006_exempt_in_host_scope():
    src = "import os\nw = os.getenv('WORKERS')\n"
    assert rule_ids(src, scope="host",
                    path="repro/harness/fixture.py") == []


# -- PERF001: hot-path __slots__ --------------------------------------------

HOT_PATH = sorted(HOT_PATH_MODULES)[0]


def test_perf001_flags_hot_path_class_without_slots():
    found = findings("class Event:\n    pass\n", path=HOT_PATH)
    assert [f.rule for f in found] == ["PERF001"]
    assert found[0].severity == "warning"


def test_perf001_satisfied_by_slots_or_dataclass_slots():
    src = """
        from dataclasses import dataclass
        class Event:
            __slots__ = ("env", "value")
        @dataclass(slots=True)
        class Message:
            size: int
        class SimError(Exception):
            pass
    """
    assert rule_ids(src, path=HOT_PATH) == []


def test_perf001_only_applies_to_hot_path_modules():
    assert rule_ids("class Lazy:\n    pass\n",
                    path="repro/analysis/fixture.py") == []


# -- PERF002: all-pairs rank loops -------------------------------------------

def test_perf002_flags_nested_rank_range_loops():
    src = """
        def all_pair_costs(topo, n_nodes):
            out = []
            for a in range(n_nodes):
                for b in range(n_nodes):
                    out.append(topo.extra_latency(a, b))
            return out
    """
    found = findings(src, path="repro/net/fixture.py")
    assert [f.rule for f in found] == ["PERF002"]
    assert found[0].severity == "warning"


def test_perf002_sees_attribute_bounds_and_host_scope():
    src = """
        def audit(self):
            for a in range(self.n_nodes):
                for b in range(self.n_nodes):
                    self.check(a, b)
    """
    assert rule_ids(src, scope="host",
                    path="repro/harness/fixture.py") == ["PERF002"]


def test_perf002_exempts_precompute_builders():
    src = """
        def _build_extra_matrix(self):
            for a in range(self.n_nodes):
                for b in range(self.n_nodes):
                    self.mat[a][b] = self.extra_latency(a, b)

        def _pair_table(self, n_ranks):
            for a in range(n_ranks):
                for b in range(n_ranks):
                    yield a, b
    """
    assert rule_ids(src, path="repro/net/fixture.py") == []


def test_perf002_silent_on_single_loops_and_other_bounds():
    src = """
        def fine(n_nodes, phases):
            for a in range(n_nodes):
                total = a * 2
            for p in range(len(phases)):
                for q in range(4):
                    total += p * q
            return total
    """
    assert rule_ids(src, path="repro/net/fixture.py") == []


# -- OBS001: ungated telemetry ----------------------------------------------

def test_obs001_flags_ungated_registry_and_tracer():
    src = """
        def record(self, reg):
            registry().counter("sim.runs").inc()
            self.tracer.instant("sim", "tick", 0)
    """
    assert rule_ids(src) == ["OBS001", "OBS001"]


def test_obs001_accepts_both_gate_shapes():
    src = """
        def direct(self):
            if self._metrics:
                registry().counter("sim.runs").inc()
        def early_return(_obs):
            if not _obs.metrics_enabled():
                return
            registry().counter("sim.runs").inc()
        def borrowed_gate(self, tracer):
            tracer.complete("mpi", "bcast", 0, 5)
        def readout(out, _obs):
            out.write(_obs.registry().render())
    """
    assert rule_ids(src) == []


# -- suppressions ------------------------------------------------------------

def test_inline_suppression_same_line():
    src = ("import time\n"
           "t0 = time.time()  # detlint: disable=DET001\n")
    found, n_sup = lint_source(src, "repro/sim/f.py", scope="sim")
    assert found == [] and n_sup == 1


def test_inline_suppression_next_line_and_all():
    src = ("import time\n"
           "# detlint: disable-next=DET001\n"
           "t0 = time.time()\n"
           "t1 = time.time()  # detlint: disable=all\n")
    found, n_sup = lint_source(src, "repro/sim/f.py", scope="sim")
    assert found == [] and n_sup == 2


def test_suppression_is_rule_specific():
    src = ("import time\n"
           "t0 = time.time()  # detlint: disable=DET006\n")
    found, n_sup = lint_source(src, "repro/sim/f.py", scope="sim")
    assert [f.rule for f in found] == ["DET001"] and n_sup == 0


# -- parse errors ------------------------------------------------------------

def test_syntax_error_becomes_a_finding():
    found, _ = lint_source("def broken(:\n", "repro/sim/f.py", scope="sim")
    assert [f.rule for f in found] == [PARSE_ERROR_RULE]


# -- JSON report schema ------------------------------------------------------

def test_json_report_schema_is_stable(tmp_path):
    bad = tmp_path / "repro" / "sim" / "m.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nt0 = time.time()\n")
    doc = json.loads(render_json(lint_paths([bad]), paths=[str(bad)]))

    assert doc["tool"] == "detlint"
    assert doc["schema_version"] == SCHEMA_VERSION
    assert set(doc) == {"tool", "schema_version", "paths", "rules",
                        "findings", "summary"}
    assert set(doc["summary"]) == {"files", "active", "suppressed",
                                   "by_rule", "clean"}
    (finding,) = doc["findings"]
    assert set(finding) == {"rule", "severity", "path", "line", "col",
                            "message"}
    assert all(set(entry) == {"severity", "summary", "scopes"}
               for entry in doc["rules"].values())
    assert doc["summary"]["by_rule"] == {"DET001": 1}
    assert set(doc["rules"]) == set(RULES)


def test_json_report_is_byte_stable(tmp_path):
    """Two runs over the same tree render the identical byte string:
    globally sorted findings, one trailing newline — what CI artifact
    diffing relies on."""
    for name, src in [("b.py", "import os\nseed = os.getenv('SEED')\n"),
                      ("a.py", "import time\nt = time.time()\n")]:
        target = tmp_path / "repro" / "sim" / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(src)
    def render():
        return render_json(lint_paths([tmp_path]), paths=[str(tmp_path)])

    first, second = render(), render()
    assert first == second
    assert first.endswith("}\n") and not first.endswith("\n\n")
    doc = json.loads(first)
    order = [(f["path"], f["line"], f["col"], f["rule"])
             for f in doc["findings"]]
    assert order == sorted(order)
    # per-rule timing stays out: wall-clock noise would break
    # byte-stability.
    assert "rule_costs" not in doc


def test_rule_catalog_is_complete():
    cat = rule_catalog()
    assert {r["id"] for r in cat} == set(RULES)
    assert all(r["summary"] and r["doc"] for r in cat)
    assert set(RULES) == {
        "DET001", "DET005", "DET006", "DET008", "PERF001", "PERF002",
        "OBS001", "ASYNC001", "ASYNC002", "ASYNC003", "ASYNC004",
        "ASYNC005"}


# -- CLI ---------------------------------------------------------------------

def _cli(*argv):
    out = io.StringIO()
    code = lint_main(list(argv), out)
    return code, out.getvalue()


def test_cli_exit_codes(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("def f(env):\n    return env.now\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt0 = time.time()\n")

    assert _cli(str(clean))[0] == 0
    code, text = _cli(str(dirty))
    assert code == 1 and "DET001" in text
    assert _cli(str(tmp_path / "missing.py"))[0] == 2


def test_cli_json_output_and_artifact(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt0 = time.time()\n")
    artifact = tmp_path / "report.json"
    code, text = _cli(str(dirty), "--json",
                      "--output", str(artifact))
    assert code == 1
    assert json.loads(text) == json.loads(artifact.read_text())


def test_cli_list_rules():
    code, text = _cli("--list-rules")
    assert code == 0
    for rid in RULES:
        assert rid in text


def test_cli_explain():
    code, text = _cli("--explain", "DET008")
    assert code == 0
    assert "DET008" in text and "module-level" in text.lower()
    code, text = _cli("--explain", "NOPE42")
    assert code == 2 and "unknown rule" in text


def test_cli_profile_overrides_path_scope(tmp_path):
    probe = tmp_path / "repro" / "sim" / "timing.py"
    probe.parent.mkdir(parents=True)
    probe.write_text("import time\nt0 = time.time()\n")
    assert _cli(str(probe))[0] == 1
    # The CI profile for tests/ and benchmarks/: host rules only.
    assert _cli(str(probe), "--profile", "host")[0] == 0


def test_cli_options_are_the_ci_gate():
    from repro.lint.cli import build_parser

    options = {o for a in build_parser()._actions for o in a.option_strings}
    assert options == {"-h", "--help", "--json", "--output", "--profile",
                       "--list-rules", "--explain"}


def test_cli_json_runs_are_byte_identical(tmp_path):
    for i in range(6):
        target = tmp_path / "repro" / "sim" / f"m{i}.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("import os\nimport time\n"
                          f"t{i} = time.time(), os.getenv('T{i}')\n")
    first = _cli(str(tmp_path), "--json")
    assert first == _cli(str(tmp_path), "--json") and first[0] == 1


# -- the live tree ----------------------------------------------------------

def test_live_source_tree_is_clean():
    """src/repro must stay detlint-clean (modulo justified inline
    suppressions) — the same invariant CI enforces."""
    report = lint_paths([REPO_ROOT / "src" / "repro"])
    assert report.files > 100  # the walk really saw the package
    assert report.clean, "\n".join(f.format() for f in report.findings)


def test_detlint_catches_a_planted_wall_clock(tmp_path):
    """Acceptance probe: a time.time() dropped into a copy of
    sim/core.py is caught (what the CI gate relies on)."""
    core = (REPO_ROOT / "src" / "repro" / "sim" / "core.py").read_text()
    planted = tmp_path / "repro" / "sim" / "core.py"
    planted.parent.mkdir(parents=True)
    planted.write_text(core + "\n\nimport time\n_T0 = time.time()\n")
    report = lint_paths([planted])
    assert any(f.rule == "DET001" for f in report.findings)
