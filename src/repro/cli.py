"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show available experiments, workloads, kernel/network presets, and
    noise patterns.
``run E4 [--scale small|full] [--csv out.csv]``
    Run one harness experiment and print its report (optionally dump
    the table as CSV).
``all [--scale ...] [--markdown EXPERIMENTS.md]``
    Run the whole evaluation; print the pass/fail summary (optionally
    write the full markdown report).
``compare --app pop --nodes 32 --pattern 2.5pct@10Hz [--seed N] ...``
    One noisy-vs-quiet comparison, printed as a one-row table.
``characterize --kernel commodity-linux [--nodes N] [--seconds S]``
    Measure a kernel's noise signature with the indirect tool suite
    (FTQ spectrum, selfish detours, PSNAP fleet census).
``sweep --app pop --nodes 4,16,64 --patterns 2.5pct@10Hz,2.5pct@1000Hz``
    Scaling sweep with shared quiet baselines; prints the slowdown
    table (optionally ``--csv out.csv``).
``lint [PATHS] [--json] [--baseline FILE]``
    Run detlint, the project's AST-based determinism / sim-protocol
    static analyzer, over a source tree (defaults to ``src/repro``).
    Same engine as ``python -m repro.lint``; see
    docs/STATIC_ANALYSIS.md for the rule catalog.
``serve [--port 8750] [--workers N] [--cache DIR]``
    Run the asyncio experiment server: compare/sweep jobs over HTTP
    with streamed results, in-flight dedup, and a sharded shared
    result cache (see docs/SERVICE.md).
``submit [--compare] --app pop --nodes 4,16 --patterns ...``
    Submit a job to a running server and print the same table
    ``sweep`` prints (results are byte-identical for equal configs).
    ``--trace out.json`` requests an end-to-end request trace: the
    server stitches its pipeline phases with the workers' simulation
    spans into one Perfetto document (see docs/SERVICE.md).
``top [--port 8750] [--interval 2] [--once]``
    Live terminal dashboard for a running server: polls
    ``/metrics?window=N`` and ``/v1/logs`` and redraws throughput,
    latency quantiles, hit rate, worker utilization, and recent
    errors (with request ids) every interval.

``compare`` and ``sweep`` accept ``--faults SPEC`` to run on an
unreliable machine (``drop=0.01,dup=0.002,timeout=1ms,...`` — see
:func:`repro.faults.parse_faults` and docs/ROBUSTNESS.md); the E15
harness experiment sweeps this axis systematically.  The same spec
plants one-off idle-wave probes (``one_off=rank:start:duration``,
e.g. ``one_off=3:5ms:1ms``) — the E20 experiment and
docs/OBSERVABILITY.md cover the wavefront analysis built on them.

``compare`` and ``sweep`` also accept the topology flags:
``--topology switch|torus:AxBxC|fat-tree|dragonfly|hier:CxNxS[@kind]``
selects the fabric, ``--shape CxNxS[@kind]`` declares the machine's
packaging (cores per node x nodes per switch x switches) so
node-aware collectives know the hierarchy, and
``--collectives allreduce=two-level,barrier=two-level`` overrides the
per-operation algorithm table (see docs/USAGE.md and the E17 recipe).

``run``, ``all``, and ``sweep`` accept ``--workers N`` to fan
independent simulation points over N processes (``--workers 0`` = one
per CPU; results are bit-identical to serial) and ``--cache DIR`` to
reuse previously-simulated points — quiet baselines above all — from
an on-disk result cache (see docs/PERFORMANCE.md).

``run``, ``all``, ``compare``, and ``sweep`` also accept the
:mod:`repro.obs` telemetry flags: ``--metrics`` collects run counters
and appends a metrics block to the output, ``--metrics-json PATH``
dumps the registry as machine-readable JSON, ``--trace out.json``
additionally records a Chrome trace-event file (open in
https://ui.perfetto.dev; the ``net.flow`` category draws send→recv
flow arrows), and ``--trace-categories sim,net,mpi`` restricts which
spans are recorded.  ``stats`` is the quick entry point: one
comparison with telemetry forced on, printing the full registry
(``--json`` for the machine-readable form; see docs/OBSERVABILITY.md).

``compare --critical-path`` additionally records cross-node dependency
edges, reconstructs both runs' critical paths, and prints the
per-node/per-source attribution table plus the quiet-vs-noisy diff —
"who stole the makespan" (E16 validates the attribution against
planted ground truth).

Exit status: ``0`` success; ``1`` findings (``lint``) or a failed
experiment; ``2`` a clean one-line ``error:`` (bad configuration,
unreachable server); ``141`` (128 + SIGPIPE, as a shell tool killed by
the signal reports) when the reader of stdout goes away early, e.g.
``repro list | head -1`` — the command stops quietly, no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
import typing as _t

from .analysis import format_table
from .apps import workload_names
from .core import ExperimentConfig, run_with_baseline
from .errors import ReproError
from .harness import experiment_ids, render_markdown, render_summary
from .harness import run_all as harness_run_all
from .harness import run_experiment as harness_run_experiment

__all__ = ["main", "build_parser", "EXIT_BROKEN_PIPE"]

#: Exit status when stdout's reader closes the pipe early.
EXIT_BROKEN_PIPE = 128 + 13


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ghost in the Machine: kernel-noise observation "
                    "framework (SC'07 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_execution_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="processes for independent sweep points "
                            "(default 1 = serial; 0 = one per CPU)")
        p.add_argument("--cache", metavar="DIR", default=None,
                       help="on-disk result cache directory (reuses "
                            "quiet baselines across invocations)")

    def add_obs_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--metrics", action="store_true",
                       help="collect run telemetry and append a metrics "
                            "block to the output")
        p.add_argument("--trace", metavar="PATH", default=None,
                       help="write a Chrome trace-event JSON to PATH "
                            "(view in ui.perfetto.dev; implies --metrics)")
        p.add_argument("--trace-categories", metavar="CATS", default=None,
                       help="comma-separated trace categories to record "
                            "(sim,net,net.flow,mpi,faults,sweep,harness; "
                            "default: all but the per-event 'sim' "
                            "firehose; 'all' enables everything)")
        p.add_argument("--metrics-json", metavar="PATH", default=None,
                       help="write the metrics registry as JSON to PATH "
                            "(implies --metrics)")
        p.add_argument("--log-json", metavar="PATH", default=None,
                       help="append structured JSON operation logs "
                            "(one NDJSON doc per event) to PATH")

    def add_topology_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--topology", default="switch", metavar="SPEC",
                       help="fabric: switch | torus:AxBxC | fat-tree | "
                            "dragonfly | hier:CxNxS[@kind] (default "
                            "switch; hier: uses per-level latencies from "
                            "the machine shape)")
        p.add_argument("--shape", default=None, metavar="CxNxS[@kind]",
                       help="machine packaging shape, e.g. "
                            "32x8x4@fat-tree (cores-per-node x "
                            "nodes-per-switch x switches); required for "
                            "two-level collectives")
        p.add_argument("--collectives", default=None, metavar="OP=ALG,...",
                       help="per-operation collective algorithms, e.g. "
                            "allreduce=two-level,barrier=two-level "
                            "(see 'repro list' for the registry)")

    sub.add_parser("list", help="show experiments, workloads, presets")

    p_run = sub.add_parser("run", help="run one harness experiment")
    p_run.add_argument("experiment", help="experiment id, e.g. E4")
    p_run.add_argument("--scale", default="small", choices=["small", "full"])
    p_run.add_argument("--csv", metavar="PATH",
                       help="also write the table as CSV")
    add_execution_flags(p_run)
    add_obs_flags(p_run)

    p_all = sub.add_parser("all", help="run the whole evaluation")
    p_all.add_argument("--scale", default="small", choices=["small", "full"])
    p_all.add_argument("--markdown", metavar="PATH",
                       help="write the full report (EXPERIMENTS.md style)")
    add_execution_flags(p_all)
    add_obs_flags(p_all)

    p_cmp = sub.add_parser("compare", help="one noisy-vs-quiet comparison")
    p_cmp.add_argument("--app", default="bsp", choices=workload_names())
    p_cmp.add_argument("--nodes", type=int, default=16)
    p_cmp.add_argument("--pattern", default="2.5pct@10Hz")
    p_cmp.add_argument("--alignment", default="random",
                       choices=["random", "synchronized", "staggered"])
    p_cmp.add_argument("--kernel", default="lightweight")
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--isolate-noise", action="store_true")
    p_cmp.add_argument("--faults", metavar="SPEC", default=None,
                       help="fault-injection spec, e.g. "
                            "'drop=0.01,timeout=1ms' or a planted "
                            "one-off delay 'one_off=3:5ms:1ms' "
                            "(rank:start:duration; 'none' = reliable)")
    p_cmp.add_argument("--critical-path", action="store_true",
                       help="record dependency edges and print the "
                            "critical-path attribution + quiet-vs-noisy "
                            "diff (who stole the makespan)")
    add_topology_flags(p_cmp)
    add_obs_flags(p_cmp)

    p_sts = sub.add_parser(
        "stats", help="one comparison with telemetry on; print the "
                      "metrics registry")
    p_sts.add_argument("--app", default="bsp", choices=workload_names())
    p_sts.add_argument("--nodes", type=int, default=16)
    p_sts.add_argument("--pattern", default="2.5pct@10Hz")
    p_sts.add_argument("--kernel", default="lightweight")
    p_sts.add_argument("--seed", type=int, default=0)
    p_sts.add_argument("--faults", metavar="SPEC", default=None)
    p_sts.add_argument("--sim-only", action="store_true",
                       help="print only the deterministic sim-scoped "
                            "metrics (no wall-clock values)")
    p_sts.add_argument("--json", action="store_true",
                       help="emit the stats as machine-readable JSON "
                            "(config, slowdown, metrics snapshot)")
    p_sts.add_argument("--trace", metavar="PATH", default=None,
                       help="also write a Chrome trace-event JSON")
    p_sts.add_argument("--trace-categories", metavar="CATS", default=None)
    p_sts.set_defaults(metrics=True)

    p_chr = sub.add_parser("characterize",
                           help="measure a kernel's noise signature")
    p_chr.add_argument("--kernel", default="commodity-linux")
    p_chr.add_argument("--pattern", default="quiet",
                       help="extra injected noise (default none)")
    p_chr.add_argument("--nodes", type=int, default=8)
    p_chr.add_argument("--seconds", type=float, default=2.0)
    p_chr.add_argument("--seed", type=int, default=0)

    p_lnt = sub.add_parser(
        "lint", help="run detlint, the determinism/sim-protocol "
                     "static analyzer, over a source tree")
    from .lint.cli import add_lint_arguments

    add_lint_arguments(p_lnt)

    p_srv = sub.add_parser(
        "serve", help="run the experiment server (sweep-as-a-service)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8750,
                       help="listen port (0 = ephemeral)")
    p_srv.add_argument("--workers", type=int, default=0, metavar="N",
                       help="worker processes (default 0 = one per CPU)")
    p_srv.add_argument("--cache", metavar="DIR", default=None,
                       help="shared sharded result cache directory "
                            "(safe to share with CLI sweeps)")
    p_srv.add_argument("--metrics-json", metavar="PATH", default=None,
                       help="write the /metrics document here on shutdown")
    p_srv.add_argument("--log-json", metavar="PATH", default=None,
                       help="append structured JSON operation logs "
                            "(request/job/point events with correlation "
                            "ids) to PATH")

    p_sub = sub.add_parser(
        "submit", help="submit a compare/sweep job to a running server")
    p_sub.add_argument("--host", default="127.0.0.1")
    p_sub.add_argument("--port", type=int, default=8750)
    p_sub.add_argument("--compare", action="store_true",
                       help="submit a single comparison instead of a sweep "
                            "(uses the first --nodes / --patterns entry)")
    p_sub.add_argument("--app", default="bsp", choices=workload_names())
    p_sub.add_argument("--nodes", default="4,16,64",
                       help="comma-separated node counts")
    p_sub.add_argument("--patterns", default="2.5pct@10Hz,2.5pct@1000Hz",
                       help="comma-separated noise patterns")
    p_sub.add_argument("--kernel", default="lightweight")
    p_sub.add_argument("--seed", type=int, default=0)
    p_sub.add_argument("--faults", metavar="SPEC", default=None)
    p_sub.add_argument("--csv", metavar="PATH")
    p_sub.add_argument("--trace", metavar="PATH", default=None,
                       help="request an end-to-end request trace and "
                            "write the stitched Perfetto document "
                            "(server phases + worker sim spans) to PATH")

    p_top = sub.add_parser(
        "top", help="live dashboard for a running experiment server")
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, default=8750)
    p_top.add_argument("--window", type=float, default=30.0, metavar="S",
                       help="rolling-rate window in seconds (default 30)")
    p_top.add_argument("--interval", type=float, default=2.0, metavar="S",
                       help="refresh interval in seconds (default 2)")
    p_top.add_argument("--iterations", type=int, default=0, metavar="N",
                       help="stop after N frames (default 0 = forever)")
    p_top.add_argument("--once", action="store_true",
                       help="print a single frame and exit "
                            "(same as --iterations 1)")

    p_swp = sub.add_parser("sweep", help="scaling sweep with baselines")
    p_swp.add_argument("--app", default="bsp", choices=workload_names())
    p_swp.add_argument("--nodes", default="4,16,64",
                       help="comma-separated node counts")
    p_swp.add_argument("--patterns", default="2.5pct@10Hz,2.5pct@1000Hz",
                       help="comma-separated noise patterns")
    p_swp.add_argument("--kernel", default="lightweight")
    p_swp.add_argument("--seed", type=int, default=0)
    p_swp.add_argument("--faults", metavar="SPEC", default=None,
                       help="fault-injection spec applied to every point")
    p_swp.add_argument("--csv", metavar="PATH")
    add_topology_flags(p_swp)
    add_execution_flags(p_swp)
    add_obs_flags(p_swp)
    return parser


def _apply_execution_flags(args: argparse.Namespace) -> None:
    """Point the harness execution policy at the CLI's --workers/--cache."""
    from .harness import set_execution_policy

    set_execution_policy(workers=args.workers, cache=args.cache)


def _apply_obs_flags(args: argparse.Namespace) -> None:
    """Configure process-wide telemetry from --metrics/--trace flags."""
    from .errors import ConfigError
    from .obs import runtime as _obs

    trace = getattr(args, "trace", None)
    categories = getattr(args, "trace_categories", None)
    if categories and not trace:
        raise ConfigError("--trace-categories requires --trace PATH")
    metrics_json = getattr(args, "metrics_json", None)
    if getattr(args, "metrics", False) or trace or metrics_json:
        _obs.configure(metrics=True, trace=trace or None,
                       trace_categories=categories)
    log_json = getattr(args, "log_json", None)
    if log_json:
        from .obs import oplog as _oplog

        _oplog.configure(path=log_json)


def _finish_obs(args: argparse.Namespace, out: _t.TextIO) -> None:
    """Flush trace / metrics-JSON files (if requested) with receipts."""
    if getattr(args, "trace", None):
        from .obs import runtime as _obs

        path, n = _obs.write_trace()
        out.write(f"trace: {n} events written to {path}\n")
    metrics_json = getattr(args, "metrics_json", None)
    if metrics_json:
        import json

        from .obs import runtime as _obs

        snap = _obs.registry().snapshot()
        with open(metrics_json, "w") as f:
            json.dump(snap, f, indent=2, sort_keys=True)
            f.write("\n")
        out.write(f"metrics: {len(snap)} series written to "
                  f"{metrics_json}\n")


def _cmd_list(out: _t.TextIO) -> int:
    from .noise import pattern_names

    out.write("experiments: " + " ".join(experiment_ids()) + "\n")
    out.write("workloads:   " + " ".join(workload_names()) + "\n")
    out.write("kernels:     lightweight commodity-linux tuned-linux\n")
    out.write("networks:    seastar infiniband gige\n")
    out.write("patterns:    " + " ".join(pattern_names())
              + "  (grammar: <pct>pct@<freq>Hz[poisson])\n")
    return 0


def _cmd_run(args: argparse.Namespace, out: _t.TextIO) -> int:
    _apply_execution_flags(args)
    _apply_obs_flags(args)
    report = harness_run_experiment(args.experiment.upper(), args.scale)
    out.write(report.render(include_metrics=args.metrics))
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(report.csv())
        out.write(f"csv written to {args.csv}\n")
    _finish_obs(args, out)
    return 0 if report.passed else 1


def _cmd_all(args: argparse.Namespace, out: _t.TextIO) -> int:
    _apply_execution_flags(args)
    _apply_obs_flags(args)
    reports = harness_run_all(args.scale,
                              progress=lambda s: out.write(s + "\n"))
    out.write("\n" + render_summary(reports))
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(render_markdown(reports, scale=args.scale))
        out.write(f"report written to {args.markdown}\n")
    if args.metrics:
        from .obs import runtime as _obs

        out.write("\nmetrics:\n" + _obs.registry().render())
    _finish_obs(args, out)
    return 0 if all(r.passed for r in reports.values()) else 1


def _parse_collectives(spec: str | None) -> dict[str, str] | None:
    """Parse ``--collectives allreduce=two-level,barrier=two-level``."""
    if spec is None:
        return None
    from .errors import ConfigError

    table: dict[str, str] = {}
    for item in spec.split(","):
        op, eq, alg = item.strip().partition("=")
        if not eq or not op or not alg:
            raise ConfigError(
                f"bad --collectives entry {item!r}: expected op=algorithm, "
                "e.g. allreduce=two-level")
        table[op] = alg
    return table


def _cmd_compare(args: argparse.Namespace, out: _t.TextIO) -> int:
    _apply_obs_flags(args)
    cmp = run_with_baseline(ExperimentConfig(
        app=args.app, nodes=args.nodes, noise_pattern=args.pattern,
        alignment=args.alignment, kernel=args.kernel, seed=args.seed,
        isolate_noise=args.isolate_noise, faults=args.faults,
        critical_path=args.critical_path, topology=args.topology,
        shape=args.shape, collectives=_parse_collectives(args.collectives)))
    sd = cmp.slowdown
    out.write(format_table(
        ["app", "nodes", "pattern", "quiet ms", "noisy ms", "slowdown %",
         "amplification", "verdict"],
        [[args.app, args.nodes, args.pattern,
          round(cmp.quiet.makespan_ns / 1e6, 3),
          round(cmp.noisy.makespan_ns / 1e6, 3),
          round(sd.slowdown_percent, 2), round(sd.amplification, 2),
          sd.verdict]]))
    faults = cmp.noisy.meta.get("faults")
    if faults:
        out.write(f"faults ({faults['plan']}): "
                  f"{faults['messages_dropped']} dropped, "
                  f"{faults.get('total_retries', 0)} retries, "
                  f"{faults['duplicates_injected']} duplicated, "
                  f"{faults.get('total_duplicates_suppressed', 0)} "
                  "suppressed\n")
    if args.critical_path:
        from .obs.critpath import (
            diff_critical_paths,
            format_critical_path,
            format_diff,
        )

        noisy_cp = cmp.noisy.meta["critical_path"]
        diff = diff_critical_paths(cmp.quiet.meta["critical_path"],
                                   noisy_cp)
        out.write("\n" + format_critical_path(noisy_cp) + "\n")
        out.write("\n" + format_diff(diff) + "\n")
    if args.metrics:
        from .obs import runtime as _obs

        out.write("\nmetrics:\n" + _obs.registry().render())
    _finish_obs(args, out)
    return 0


def _cmd_stats(args: argparse.Namespace, out: _t.TextIO) -> int:
    from .obs import runtime as _obs

    _apply_obs_flags(args)  # metrics defaults to True for `stats`
    cmp = run_with_baseline(ExperimentConfig(
        app=args.app, nodes=args.nodes, noise_pattern=args.pattern,
        kernel=args.kernel, seed=args.seed, faults=args.faults))
    if args.json:
        import json

        doc = {
            "config": {"app": args.app, "nodes": args.nodes,
                       "pattern": args.pattern, "kernel": args.kernel,
                       "seed": args.seed, "faults": args.faults},
            "quiet_makespan_ns": cmp.quiet.makespan_ns,
            "noisy_makespan_ns": cmp.noisy.makespan_ns,
            "slowdown_percent": cmp.slowdown.slowdown_percent,
            "amplification": cmp.slowdown.amplification,
            "metrics": _obs.registry().snapshot(sim_only=args.sim_only),
        }
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        out.write(f"{args.app} x{args.nodes} pattern={args.pattern} "
                  f"kernel={args.kernel} seed={args.seed}: "
                  f"slowdown {cmp.slowdown.slowdown_percent:.2f}%\n\n")
        out.write(_obs.registry().render(sim_only=args.sim_only))
    _finish_obs(args, out)
    return 0


def _cmd_characterize(args: argparse.Namespace, out: _t.TextIO) -> int:
    import numpy as np

    from .analysis import find_peaks
    from .core import Machine, MachineConfig
    from .microbench import FTQBenchmark, PSNAPBenchmark, SelfishBenchmark
    from .noise import InjectionPlan
    from .sim import MS, ns_from_s

    injection = (None if args.pattern.strip().lower() in ("quiet", "none")
                 else InjectionPlan(args.pattern, seed=args.seed))
    machine = Machine(MachineConfig(n_nodes=args.nodes, kernel=args.kernel,
                                    injection=injection, seed=args.seed))
    window = ns_from_s(args.seconds)
    node = machine.nodes[0]

    ftq = FTQBenchmark(n_quanta=max(64, window // MS)).run(node, start_time=0)
    peaks = find_peaks(ftq.spectrum(), top=4)
    selfish = SelfishBenchmark(window_ns=window).run(node, start_time=0)
    psnap = PSNAPBenchmark(n_samples=512).run(machine)

    out.write(f"kernel {args.kernel!r}, {args.nodes} nodes, "
              f"{args.seconds:.1f} s window, pattern={args.pattern}\n\n")
    out.write(f"FTQ (node 0): {100 * ftq.noise_fraction:.3f}% CPU lost, "
              f"count CoV {ftq.stats().cov:.5f}\n")
    from .analysis import sparkline
    counts = ftq.counts
    if counts.size > 72:
        edges = np.linspace(0, counts.size, 73).astype(int)
        counts = np.array([counts[a:b].min()
                           for a, b in zip(edges, edges[1:]) if b > a])
    out.write("  counts (dips = noise): " + sparkline(counts) + "\n")
    if peaks:
        out.write("  spectral peaks: "
                  + ", ".join(f"{p.frequency_hz:.1f} Hz" for p in peaks)
                  + "\n")
    else:
        out.write("  spectral peaks: none (flat)\n")
    durs = selfish.durations_ns()
    out.write(f"selfish (node 0): {selfish.count} detours >= 1 us; ")
    if selfish.count:
        out.write(f"median {float(np.median(durs)) / 1e3:.1f} us, "
                  f"max {int(durs.max()) / 1e3:.1f} us\n")
    else:
        out.write("none detected\n")
    stats = psnap.machine_stats()
    out.write(f"PSNAP fleet: per-node noise {100 * stats.minimum:.3f}% .. "
              f"{100 * stats.maximum:.3f}% "
              f"(imbalance {psnap.imbalance_ratio():.2f}x)\n")
    worst = psnap.noisiest_nodes(3)
    out.write("  noisiest nodes: "
              + ", ".join(f"{n} ({100 * f:.3f}%)" for n, f in worst) + "\n")
    return 0



def _cmd_serve(args: argparse.Namespace, out: _t.TextIO) -> int:
    import asyncio
    import json
    import signal

    from .obs import runtime as _obs
    from .serve import ExperimentServer

    server = ExperimentServer(workers=args.workers, cache=args.cache)
    server.warm()  # fork workers before the event loop starts
    _obs.configure(metrics=True)
    if args.log_json:
        from .obs import oplog as _oplog

        _oplog.configure(path=args.log_json)
        out.write(f"logging JSON events to {args.log_json}\n")

    # Graceful shutdown on SIGTERM too: non-interactive shells start
    # background jobs with SIGINT ignored (POSIX), so a CI step's plain
    # `kill` must also take the metrics-dump path.  The event loop owns
    # the signal (a handler raising from an arbitrary frame loses the
    # signal whenever that frame is an object finaliser); until the
    # loop runs, a plain handler only records the request.
    early_stop: list[int] = []
    signal.signal(signal.SIGTERM, lambda signum, frame: early_stop.append(signum))

    async def _main() -> None:
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        if early_stop:
            stop.set()
        srv = await server.start(args.host, args.port)
        addr = srv.sockets[0].getsockname()
        out.write(f"serving on http://{addr[0]}:{addr[1]} "
                  f"(workers={server.executor.workers}, "
                  f"cache={args.cache or 'off'})\n")
        try:
            await stop.wait()
        finally:
            # Not `async with srv`: Server.wait_closed() waits for open
            # client connections on newer Pythons; asyncio.run cancels
            # their handlers on the way out instead.
            srv.close()
        out.write("shutting down\n")

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        out.write("shutting down\n")
    finally:
        server.close()
        if args.metrics_json:
            with open(args.metrics_json, "w") as f:
                json.dump(server.metrics_doc(), f, indent=2, sort_keys=True)
                f.write("\n")
            out.write(f"metrics written to {args.metrics_json}\n")
    return 0


def _sweep_table(records: list[dict[str, _t.Any]], app: str,
                 out: _t.TextIO, csv: str | None) -> None:
    """The sweep result table (shared by ``sweep`` and ``submit``)."""
    from .analysis import format_csv

    headers = ["app", "nodes", "pattern", "makespan ms", "slowdown %",
               "amplification"]
    rows = []
    for r in records:
        rows.append([r["app"], r["nodes"], r["pattern"],
                     round(r["makespan_ns"] / 1e6, 3),
                     round(r.get("slowdown_pct", 0.0), 2),
                     round(r["amplification"], 2)
                     if "amplification" in r else None])
    out.write(format_table(headers, rows, title=f"sweep: {app}"))
    if csv:
        keys = sorted({k for r in records for k in r})
        with open(csv, "w") as f:
            f.write(format_csv(keys, [[r.get(k) for k in keys]
                                      for r in records]))
        out.write(f"csv written to {csv}\n")


def _cmd_submit(args: argparse.Namespace, out: _t.TextIO) -> int:
    from .serve import ServeClient, job_records

    nodes = [int(x) for x in args.nodes.split(",") if x]
    patterns = [x.strip() for x in args.patterns.split(",") if x.strip()]
    job: dict[str, _t.Any] = {"app": args.app, "kernel": args.kernel,
                              "seed": args.seed}
    if args.faults:
        job["faults"] = args.faults
    if args.compare:
        job.update(kind="compare", nodes=nodes[0], pattern=patterns[0])
    else:
        job.update(kind="sweep", nodes=nodes, patterns=patterns)
    if args.trace:
        job["trace"] = True

    client = ServeClient(args.host, args.port)
    records = []
    stats = {}

    def _events() -> _t.Iterator[dict[str, _t.Any]]:
        for event in client.submit(job):
            if event.get("event") == "point":
                out.write(f"{event['label']} ({event['outcome']}, "
                          f"{event['elapsed_s']:.2f}s)\n")
            elif event.get("event") == "error":
                out.write(f"{event['label']} failed ({event['kind']}): "
                          f"{event['message']}\n")
            elif event.get("event") == "trace" and args.trace:
                import json

                with open(args.trace, "w") as f:
                    json.dump(event["trace"], f, sort_keys=True)
                    f.write("\n")
                out.write(f"trace: {event['points']} points "
                          f"(request {event.get('request_id', '?')}) "
                          f"written to {args.trace}\n")
            yield event

    records, stats = job_records(_events())
    _sweep_table(records, args.app, out, args.csv)
    out.write(f"server: {stats.get('simulated', 0)} simulated, "
              f"{stats.get('cached', 0)} cached, "
              f"{stats.get('deduped', 0)} deduped, "
              f"{stats.get('errors', 0)} errors "
              f"in {stats.get('wall_s', 0.0):.2f}s\n")
    return 1 if stats.get("errors") else 0


def _cmd_top(args: argparse.Namespace, out: _t.TextIO) -> int:
    from .serve import ServeClient
    from .serve.top import run_top

    iterations: int | None = 1 if args.once else (args.iterations or None)
    clear = hasattr(out, "isatty") and out.isatty()
    return run_top(ServeClient(args.host, args.port, timeout=10.0), out,
                   window=args.window, interval=args.interval,
                   iterations=iterations, clear=clear)


def _cmd_sweep(args: argparse.Namespace, out: _t.TextIO) -> int:
    from .core import sweep_records

    _apply_obs_flags(args)

    nodes = [int(x) for x in args.nodes.split(",") if x]
    patterns = [x.strip() for x in args.patterns.split(",") if x.strip()]
    base = ExperimentConfig(app=args.app, kernel=args.kernel, seed=args.seed,
                            faults=args.faults, topology=args.topology,
                            shape=args.shape,
                            collectives=_parse_collectives(args.collectives))
    records = sweep_records(base, nodes=nodes, patterns=patterns,
                            progress=lambda s: out.write(s + "\n"),
                            workers=args.workers, cache=args.cache)
    _sweep_table(records, args.app, out, args.csv)
    if args.metrics:
        from .obs import runtime as _obs

        out.write("\nmetrics:\n" + _obs.registry().render())
    _finish_obs(args, out)
    return 0


def main(argv: _t.Sequence[str] | None = None,
         out: _t.TextIO | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    try:
        try:
            return _dispatch(build_parser().parse_args(argv), out)
        finally:
            out.flush()  # a closed pipe surfaces here, not at exit
    except BrokenPipeError:
        # The reader went away (`repro list | head -1`).  Point stdout
        # at /dev/null so the interpreter's final flush stays quiet.
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except (OSError, ValueError):
            pass
        return EXIT_BROKEN_PIPE


def _dispatch(args: argparse.Namespace, out: _t.TextIO) -> int:
    try:
        if args.command == "list":
            return _cmd_list(out)
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "all":
            return _cmd_all(args, out)
        if args.command == "compare":
            return _cmd_compare(args, out)
        if args.command == "stats":
            return _cmd_stats(args, out)
        if args.command == "characterize":
            return _cmd_characterize(args, out)
        if args.command == "sweep":
            return _cmd_sweep(args, out)
        if args.command == "serve":
            return _cmd_serve(args, out)
        if args.command == "submit":
            try:
                return _cmd_submit(args, out)
            except ConnectionError as exc:
                out.write(f"error: cannot reach server at "
                          f"{args.host}:{args.port}: {exc}\n")
                return 2
        if args.command == "top":
            try:
                return _cmd_top(args, out)
            except KeyboardInterrupt:
                return 0
        if args.command == "lint":
            from .lint.cli import run_lint

            # Diagnostics go to stderr only when the report goes to
            # the real stdout, so `repro lint --json | jq` sees one
            # clean document; a captured `out` (tests) keeps both.
            err = sys.stderr if out is sys.stdout else out
            return run_lint(args, out, err)
    except ReproError as exc:
        out.write(f"error: {exc}\n")
        return 2
    raise AssertionError("unreachable")  # pragma: no cover
