"""DET008 tests: a mutable module global written from sim code.

The state DET008 watches lives in one module, so the rule needs no
cross-module index: a module-level container (or a ``global``
rebinding) written from a sim-scoped function makes run N depend on
runs 1..N-1 in the same process.
"""

import textwrap

from repro.lint.engine import lint_source


# -- DET008: mutable module global written from sim code --------------------

def sim_findings(src):
    found, _ = lint_source(textwrap.dedent(src),
                           "repro/sim/fixture.py", scope="sim")
    return sorted(f.rule for f in found)


def test_det008_flags_global_rebind_and_container_writes():
    src = """
        _CACHE = {}
        _LOG = []
        _EPOCH = 0

        def remember(key, value):
            _CACHE[key] = value

        def record(event):
            _LOG.append(event)

        def advance():
            global _EPOCH
            _EPOCH = _EPOCH + 1
    """
    assert sim_findings(src) == ["DET008", "DET008", "DET008"]


def test_det008_silent_on_locals_shadows_and_host_scope():
    src = """
        _CACHE = {}

        def pure(key, value):
            _CACHE = {}
            _CACHE[key] = value
            return _CACHE

        def reader(key):
            return _CACHE.get(key)
    """
    assert sim_findings(src) == []
    dirty = "_JOBS = {}\n\ndef track(k, v):\n    _JOBS[k] = v\n"
    found, _ = lint_source(dirty, "repro/harness/fixture.py", scope="host")
    assert [f.rule for f in found] == []
