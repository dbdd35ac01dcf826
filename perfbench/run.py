"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload des_apps --seed 0 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced and prints
every per-layer metric, including the tracing overhead.  The last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); every run also writes a result file with the
host fingerprint under ``perfbench/.out/results``.  ``--compare A B``
compares two directories of result files.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import typing as _t

from common import (OUT, REFS, ROOT, BenchError, HostSpeed, digest,
                    host_fingerprint, load_refs, load_spec, median,
                    percentile, proc_peak_mb, require_program, self_peak_mb)

WORKLOADS = ("des_apps", "collective_scale", "serve_mix")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: End-to-end metrics that are rates or durations of the measured work:
#: reported at the reference host speed (see :class:`common.HostSpeed`).
#: ``setup_s`` stays wall-clock: import time did not follow the
#: calibration loop.
RATES = ("points_per_s", "req_per_s")
DURATIONS = ("warm_p50_ms", "warm_p90_ms", "cold_p50_ms", "cold_p90_ms")
#: ``serve_mix`` scales each job by the samples at most this many pauses
#: from it (about 10 jobs or 1 s either side): its jobs follow the host's
#: speed over seconds, which a factor for the whole run misses (for ten
#: runs recomputed, the spread of the warm p90 fell from 0.14 to 0.06).  An
#: in-process operation lasts about a second, and a factor from the few
#: samples around it spread the latencies more, not less.
SERVE_WINDOW = 2


def _module(workload: str):
    return __import__(workload)


# -- operations and their checks ------------------------------------------

class Pass:
    """The replies of one pass over a run's operations, checked."""

    def __init__(self, refs: dict[str, str],
                 expect: list[str | None] | None = None) -> None:
        self.refs = refs
        self.expect = expect
        self.seen: dict[str, str] = {}
        self.ops: list[dict[str, _t.Any]] = []
        self.wall_s = 0.0
        self.counters: dict[str, float] = {}

    def record(self, key: str, latency_s: float, points: int,
               out: str | None, error: str | None,
               outcomes: list[str] | None = None) -> None:
        i = len(self.ops)
        warm = key in self.seen
        if error is None:
            if key in self.refs and self.refs[key] != out:
                error = "output differs from the stored reference"
            elif warm and self.seen[key] != out:
                error = "a repeated operation returned another output"
            elif self.expect is not None and self.expect[i] != out:
                error = "tracing changed the output"
        if out is not None and error is None:
            self.seen.setdefault(key, out)
        if outcomes is not None:
            warm = bool(outcomes) and all(o == "cached" for o in outcomes)
        self.ops.append({"key": key, "warm": warm, "latency_s": latency_s,
                         "points": points, "digest": out, "error": error,
                         "referenced": key in self.refs})

    @property
    def failed(self) -> int:
        return sum(op["error"] is not None for op in self.ops)

    def digests(self) -> list[str | None]:
        return [op["digest"] for op in self.ops]

    def end_to_end(self) -> dict[str, float]:
        ok = [op for op in self.ops if op["error"] is None]
        out = {"points_per_s": sum(op["points"] for op in ok) / self.wall_s,
               "req_per_s": len(ok) / self.wall_s}
        for cls, warm in (("warm", True), ("cold", False)):
            lat = [op["latency_s"] * 1e3 for op in ok if op["warm"] == warm]
            out[f"{cls}_p50_ms"] = percentile(lat, 50) if lat else 0.0
            out[f"{cls}_p90_ms"] = percentile(lat, 90) if lat else 0.0
        return out


def run_pass(mod, specs: list[dict[str, _t.Any]], refs: dict[str, str],
             expect: list[str | None] | None = None,
             speed: HostSpeed | None = None) -> Pass:
    """Run every operation in-process, timing each one (and sampling the
    host speed before each, outside the pass's wall time)."""
    result = Pass(refs, expect)
    calibrating = 0.0
    t_start = time.perf_counter()
    for spec in specs:
        if speed is not None:
            calibrating += speed.sample(2)
        key = digest(spec)
        prepared = mod.prepare(spec)
        t0 = time.perf_counter()
        try:
            points, out, counters = mod.execute(prepared)
            error = None
        except Exception as exc:  # a failed operation is a result
            points, out, counters = 0, None, {}
            error = f"{type(exc).__name__}: {exc}"
        result.record(key, time.perf_counter() - t0, points, out, error)
        for name, value in counters.items():
            result.counters[name] = result.counters.get(name, 0) + value
    result.wall_s = time.perf_counter() - t_start - calibrating
    return result


# -- set-up ----------------------------------------------------------------

def setup_probe(args: argparse.Namespace) -> int:
    """Child side of a set-up sample: import, build inputs, say ready."""
    mod = _module(args.workload)
    mod.imports()
    for spec in mod.plan(args.seed, args.seconds):
        mod.prepare(spec)
    print("ready", flush=True)
    return 0


def setup_samples(args: argparse.Namespace) -> list[float]:
    """Fresh interpreter to first operation, :data:`SETUP_SAMPLES` times."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise BenchError("set-up probe failed")
        samples.append(elapsed)
    return samples


# -- in-process workloads --------------------------------------------------

def at_reference_speed(raw: dict[str, float], speed: HostSpeed
                       ) -> dict[str, float]:
    """Rates divided and durations multiplied by the host speed."""
    factor = speed.factor
    return {name: value / factor if name in RATES
            else value * factor if name in DURATIONS else value
            for name, value in raw.items()}


def run_inprocess(args: argparse.Namespace) -> dict[str, _t.Any]:
    mod = _module(args.workload)
    speed = HostSpeed()
    setup = setup_samples(args)
    t0 = time.perf_counter()
    mod.imports()
    import_s = time.perf_counter() - t0
    specs = mod.plan(args.seed, args.seconds)
    refs = {} if args.record_refs else load_refs(mod.NAME)
    plain = run_pass(mod, specs, refs, speed=speed)
    wall = {**plain.end_to_end(), "setup_s": median(setup),
            "peak_rss_mb": self_peak_mb()}
    metrics = at_reference_speed(wall, speed)
    passes = [plain]
    extra: dict[str, _t.Any] = {"setup_samples": setup, "wall_clock": wall,
                                "host_speed": speed.factor,
                                "calibration_s": speed.samples}
    if args.trace:
        from layers import LayerTracer, install_des_layers

        tracer = LayerTracer()
        install_des_layers(tracer)
        try:
            # Calibrates like the untraced pass, so both run alike.
            traced = run_pass(mod, specs, refs, expect=plain.digests(),
                              speed=HostSpeed())
        finally:
            tracer.uninstall()
        passes.append(traced)
        cross = _cross_engine(mod, specs, plain)
        passes.append(cross)
        metrics = des_layers(tracer, traced, import_s)
        metrics.update(overhead(plain, traced))
        metrics["engine.cross_checked"] = float(len(cross.ops))
        extra["trace"] = tracer.snapshot()
    return {"metrics": metrics, "passes": passes, "extra": extra}


def _cross_engine(mod, specs: list[dict[str, _t.Any]], plain: Pass) -> Pass:
    """Both engines on every bulk-eligible point below 512 ranks."""
    cross = Pass({})
    if not hasattr(mod, "cross_engine"):
        return cross
    done = set()
    for spec, op in zip(specs, plain.ops):
        if op["key"] in done:
            continue
        done.add(op["key"])
        t0 = time.perf_counter()
        verdict = mod.cross_engine(mod.prepare(spec))
        if verdict in (None, "refused"):
            continue
        error = None if verdict == "agree" else (
            "bulk and event-driven engines disagree")
        cross.record(op["key"], time.perf_counter() - t0, 0, op["digest"],
                     error)
    return cross


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def overhead(plain: Pass, traced: Pass) -> dict[str, float]:
    untraced = len(plain.ops) / plain.wall_s
    with_trace = len(traced.ops) / traced.wall_s
    return {"trace.untraced_ops_per_s": untraced,
            "trace.traced_ops_per_s": with_trace,
            "trace.overhead_frac": _ratio(untraced, with_trace) - 1.0}


def des_layers(tracer, traced: Pass, import_s: float) -> dict[str, float]:
    calls, total, own, counts = (tracer.calls, tracer.total_s,
                                 tracer.self_s, tracer.counts)
    events = counts["sim.events"]
    return {
        "core.import_s": import_s,
        "core.machine_build_s": total["core.machine_build"],
        "sim.events": float(events),
        "sim.run_s": total["sim.run"],
        "sim.self_s": own["sim.run"],
        "sim.events_per_s": _ratio(events, total["sim.run"]),
        "sim.events_per_message": _ratio(events, counts["net.messages"]),
        "net.messages": float(counts["net.messages"]),
        "net.bytes": float(counts["net.bytes"]),
        "net.inject_s": total["net.inject"],
        "noise.wall_time_calls": float(calls["noise.wall_time"]),
        "noise.wall_time_s": total["noise.wall_time"],
        "kernel.computes": float(calls["kernel.compute"]),
        "kernel.steals": float(calls["kernel.steal"]),
        "mpi.collectives": float(calls["mpi.collective"]),
        "mpi.sends": float(calls["mpi.send"]),
        "ktau.observer_s": total["ktau.observer"],
        "obs.critpath_s": total["obs.critpath"],
        "obs.edges": float(counts["obs.edges"]),
        "faults.retransmits": float(
            traced.counters.get("faults.retransmits", 0)),
        "engine.bulk_points": float(counts["engine.bulk_points"]),
        "engine.des_points": float(counts["engine.des_points"]),
        "engine.bulk_fallbacks": float(counts["engine.bulk_fallbacks"]),
        "engine.des_s": total["engine.des"],
        "bulk.run_s": total["bulk.run"],
        "bulk.rank_rounds": float(counts["bulk.rank_rounds"]),
        "bulk.rank_rounds_per_s": _ratio(counts["bulk.rank_rounds"],
                                         total["bulk.run"]),
        "bulk.fixpoint_reps": float(counts["bulk.fixpoint_reps"]),
        "bulk.tie_breaks": float(counts["bulk.tie_breaks"]),
        "bulk.round_calls": float(calls["bulk.round"]),
        "bulk.useful_round_frac": _ratio(counts["bulk.rounds_needed"],
                                         calls["bulk.round_pass"]),
        **dict.fromkeys(SERVE_LAYERS, 0.0),
    }


# -- serve_mix ---------------------------------------------------------------

SERVE_LAYERS = ("parallel.points_simulated", "parallel.points_cached",
                "parallel.points_deduped", "parallel.hit_ratio",
                "parallel.point_s", "parallel.wait_ms", "cache.get_ms",
                "cache.put_ms", "cache.misses", "serve.parse_s",
                "serve.plan_s", "serve.assemble_s",
                "serve.queue_depth_peak")


def serve_pass(server, stream: list[dict[str, _t.Any]], refs: dict[str, str],
               expect: list[str | None] | None = None,
               speed: HostSpeed | None = None
               ) -> tuple[Pass, dict[str, _t.Any], list[dict[str, _t.Any]]]:
    import serve_mix

    pause = None if speed is None else speed.sample
    replies, wall = serve_mix.closed_loop(server.port, stream, pause)
    _, doc = server.get("/metrics")
    result = Pass(refs, expect)
    result.wall_s = wall
    for job, reply in zip(stream, replies):
        result.record(digest(job), reply["latency_s"], reply.get("points", 0),
                      reply.get("digest"), reply.get("error"),
                      outcomes=reply.get("outcomes", []))
    return result, doc, replies


def serve_at_reference_speed(plain: Pass, speed: HostSpeed
                             ) -> dict[str, float]:
    """``serve_mix``'s rates and latencies at the reference host speed,
    each job scaled by the samples taken around it."""
    import serve_mix

    scaled = Pass(plain.refs)
    scaled.ops = [dict(op, latency_s=op["latency_s"] * speed.window_factor(
        i // serve_mix.PAUSE_EVERY, SERVE_WINDOW))
        for i, op in enumerate(plain.ops)]
    busy = sum(op["latency_s"] for op in plain.ops)
    scaled.wall_s = plain.wall_s * sum(
        op["latency_s"] for op in scaled.ops) / busy
    return scaled.end_to_end()


def run_serve(args: argparse.Namespace) -> dict[str, _t.Any]:
    import serve_mix

    t0 = time.perf_counter()
    stream = serve_mix.plan(args.seed, args.seconds)
    gen_s = time.perf_counter() - t0
    refs = {} if args.record_refs else load_refs(serve_mix.NAME)
    speed = HostSpeed()
    setup = []
    for i in range(SETUP_SAMPLES - 1):
        server = serve_mix.Server(serve_mix.fresh_cache_dir(f"probe{i}"))
        setup.append(gen_s + server.start_s)
        server.stop()
    server = serve_mix.Server(serve_mix.fresh_cache_dir("run"))
    setup.append(gen_s + server.start_s)
    try:
        plain, _doc, _ = serve_pass(server, stream, refs, speed=speed)
        rss = self_peak_mb() + sum(proc_peak_mb(pid)
                                   for pid in server.processes())
    finally:
        server.stop()
    wall = {**plain.end_to_end(), "setup_s": median(setup),
            "peak_rss_mb": rss}
    metrics = {**wall, **serve_at_reference_speed(plain, speed)}
    passes = [plain]
    extra: dict[str, _t.Any] = {"setup_samples": setup, "wall_clock": wall,
                                "host_speed": speed.factor,
                                "calibration_s": speed.samples}
    if args.trace:
        stats_path = os.path.join(OUT, f"serve-trace-{os.getpid()}.json")
        server = serve_mix.Server(serve_mix.fresh_cache_dir("traced"),
                                  stats_path=stats_path)
        try:
            traced, doc, replies = serve_pass(server, stream, refs,
                                              expect=plain.digests(),
                                              speed=HostSpeed())
        finally:
            server.stop()
        with open(stats_path) as f:
            stats = json.load(f)
        os.unlink(stats_path)
        passes.append(traced)
        metrics = serve_layers(stats, doc, traced, replies)
        metrics.update(overhead(plain, traced))
        metrics["engine.cross_checked"] = 0.0
        extra["trace"] = stats
    return {"metrics": metrics, "passes": passes, "extra": extra}


def serve_layers(stats: dict[str, _t.Any], doc: dict[str, _t.Any],
                 traced: Pass, replies: list[dict[str, _t.Any]]
                 ) -> dict[str, float]:
    calls, total = stats["calls"], stats["total_s"]
    srv = doc["serve"]
    hist = doc["registry"].get("serve.point_simulate_seconds",
                               {"count": 0, "sum": 0.0})
    served = srv["points_total"]
    waits = [(r["latency_s"] - r["longest_point_s"]) * 1e3
             for r, op in zip(replies, traced.ops)
             if op["error"] is None and not op["warm"]]
    metrics = dict.fromkeys(DES_LAYER_NAMES, 0.0)
    metrics.update({
        "core.import_s": stats["import_s"],
        "parallel.points_simulated": float(srv["points_simulated"]),
        "parallel.points_cached": float(srv["points_cached"]),
        "parallel.points_deduped": float(srv["points_deduped"]),
        "parallel.hit_ratio": _ratio(srv["points_cached"]
                                     + srv["points_deduped"], served),
        "parallel.point_s": _ratio(hist["sum"], hist["count"]),
        "parallel.wait_ms": median(waits) if waits else 0.0,
        "cache.get_ms": _ratio(total.get("cache.get", 0.0),
                               calls.get("cache.get", 0)) * 1e3,
        "cache.put_ms": _ratio(total.get("cache.put", 0.0),
                               calls.get("cache.put", 0)) * 1e3,
        "cache.misses": float(doc.get("cache", {}).get("misses", 0)),
        "serve.parse_s": total.get("serve.parse", 0.0),
        "serve.plan_s": total.get("serve.plan", 0.0),
        "serve.assemble_s": total.get("serve.assemble", 0.0),
        "serve.queue_depth_peak": float(srv["queue_depth_peak"]),
    })
    return metrics


DES_LAYER_NAMES = (
    "core.machine_build_s", "sim.events", "sim.run_s", "sim.self_s",
    "sim.events_per_s", "sim.events_per_message", "net.messages",
    "net.bytes", "net.inject_s", "noise.wall_time_calls",
    "noise.wall_time_s", "kernel.computes", "kernel.steals",
    "mpi.collectives", "mpi.sends", "ktau.observer_s", "obs.critpath_s",
    "obs.edges", "faults.retransmits", "engine.bulk_points",
    "engine.des_points", "engine.bulk_fallbacks", "engine.des_s",
    "bulk.run_s", "bulk.rank_rounds", "bulk.rank_rounds_per_s",
    "bulk.fixpoint_reps", "bulk.tie_breaks", "bulk.round_calls",
    "bulk.useful_round_frac")


# -- output ------------------------------------------------------------------

def record_refs(workload: str, passes: list[Pass]) -> None:
    """Add this run's output digests to the stored references."""
    refs = load_refs(workload)
    for p in passes:
        for op in p.ops:
            if op["error"] is None and op["digest"] is not None:
                refs.setdefault(op["key"], op["digest"])
    os.makedirs(REFS, exist_ok=True)
    with open(os.path.join(REFS, f"{workload}.json"), "w") as f:
        json.dump(refs, f, indent=0, sort_keys=True)
        f.write("\n")


def emit(args: argparse.Namespace, run: dict[str, _t.Any],
         fingerprint: dict[str, _t.Any]) -> int:
    spec = load_spec()
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    computed = run["metrics"]
    missing = [m["name"] for m in section if m["name"] not in computed]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": float(computed[m["name"]]),
                           "unit": m["unit"]} for m in section}
    passes = run["passes"]
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [op for p in passes for op in p.ops if op["error"]]
    unreferenced = sum(not op["referenced"] for op in passes[0].ops)
    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    doc = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "host": fingerprint, "error_frac": failed / attempted,
           "unreferenced_ops": unreferenced, "errors": errors[:20],
           "ops": [[[op["key"][:12], op["warm"], op["latency_s"]]
                    for op in p.ops] for p in passes],
           **summary, "extra": run["extra"]}
    os.makedirs(args.results, exist_ok=True)
    name = (f"{args.workload}-t{args.trace}-s{args.seed}-"
            f"{time.time_ns()}.json")
    with open(os.path.join(args.results, name), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    for op in errors[:5]:
        print(f"error: {op['error']}")
    for target in run["extra"].get("trace", {}).get("missing", []):
        print(f"warning: not traced, {target} is gone")
    wall = run["extra"]["wall_clock"]
    for key, m in metrics.items():
        note = (f" (wall clock {wall[key]:.6g})"
                if key in RATES + DURATIONS and key in wall else "")
        print(f"{key} = {m['value']:.6g} {m['unit']}{note}")
    print(f"host_speed = {run['extra']['host_speed']:.4g} "
          f"(reference host = 1)")
    print(f"error_frac = {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} operations; {unreferenced} without "
          f"a stored reference)")
    print(json.dumps(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=os.path.join(OUT, "results"),
                   help="directory for result files")
    p.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                   help="compare two directories of result files")
    p.add_argument("--record-refs", action="store_true",
                   help="store this run's output digests as references")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, load_spec())
    if args.workload is None:
        raise BenchError("--workload is required")
    if args.seconds <= 0:
        raise BenchError("--seconds must be > 0")
    require_program()
    if args.setup_probe:
        return setup_probe(args)
    fingerprint = host_fingerprint()
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "serve_mix":
        run = run_serve(args)
    else:
        run = run_inprocess(args)
    if args.record_refs:
        record_refs(args.workload, run["passes"])
    return emit(args, run, fingerprint)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
