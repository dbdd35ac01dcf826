"""Start ``repro serve`` with the server-side layer wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py STATS.json [serve args...]``

The wrappers go in before the server forks its pool, so workers inherit
them.  When the server shuts down (SIGTERM), the launcher writes the
tracer's counts and times, plus its own import time, to ``STATS.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import require_program  # noqa: E402
from layers import LayerTracer, install_serve_layers  # noqa: E402


def main(argv: list[str]) -> int:
    stats_path, serve_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    require_program()
    from repro import cli, serve  # noqa: F401

    import_s = time.perf_counter() - t0
    tracer = LayerTracer(threadsafe=True)
    install_serve_layers(tracer)
    code = cli.main(["serve", *serve_args])
    doc = {**tracer.snapshot(), "import_s": import_s}
    with open(stats_path, "w") as f:
        json.dump(doc, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
