"""Workload ``serve_mix``: a closed loop of compare/sweep jobs against
``python -m repro serve``.

The server runs as its own process with a pool of :data:`WORKERS`
worker and a fresh ``--cache`` directory.  One client connection sends
its next job only after the previous reply has ended, as callers of
``repro submit`` do.  One worker and one connection keep
the server, a simulation and the client within the two CPUs of a small
host; more measured the scheduler.  The seeded stream (see
:func:`plan`) is half cold jobs, which simulate fresh points, and half
warm ones, served from the cache.  This module is stdlib only: the
client never imports the program.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
import typing as _t

from common import HERE, OUT, ROOT, child_env, digest, proc_children

NAME = "serve_mix"
WORKERS = 1
#: Jobs per second of ``--seconds`` (the stream length is fixed by the
#: arguments, never by how fast the server answers).
JOBS_PER_S = 20
APPS = ("bsp", "stencil")
NODES = (4, 8, 12, 16)
APP_PARAMS = {"iterations": 10}
START_TIMEOUT_S = 60.0
#: SIGTERMs sent before the server is killed, and the seconds each waits.
TERM_ATTEMPTS = 4
TERM_WAIT_S = 5.0
FREQS_HZ = (10, 100, 1000)
#: Apps of the cold sweeps, once each per block.  A cold stencil sweep
#: takes about 1.5 times as long as a bsp one; with the apps at half and
#: half the cold median would sit on the step between them.
COLD_APPS = ("bsp", "bsp", "stencil")
#: Earlier patterns a warm sweep asks for again, once each per block and
#: app.  Warm latency grows about 2.5 ms per pattern; the sizes are
#: chosen so the warm p50 and p90 fall inside a size, not between two.
WARM_SIZES = (2, 3, 4, 4, 5, 6, 8, 8)
#: Jobs between two pauses of the closed loop (see :func:`closed_loop`).
PAUSE_EVERY = 5


def plan(seed: int, seconds: float) -> list[dict[str, _t.Any]]:
    """The job stream of one run.

    Half the jobs are cold: a sweep of one new noise pattern over every
    node count of one app (four fresh points; the app's quiet baselines
    are simulated by its first sweep and shared from then on).  The
    other half are warm and read only points an earlier job computed:
    one in four is a compare of one such point, the rest sweep some of
    the app's earlier patterns over every node count (12-36 points, so a
    warm request lasts long enough that a few-millisecond stall of the
    host does not decide its latency).  Every third warm sweep repeats
    an earlier one exactly, which must return the same records.  All
    jobs share one sim seed.

    Apps, kinds and sizes come in balanced blocks (:data:`COLD_APPS`,
    :data:`WARM_SIZES`), so the mix is the same for every seed; the seed
    draws the order, the amplitudes and which patterns are asked for
    again.
    """
    rng = random.Random(f"{NAME}/{seed}")
    base = {"seed": rng.randrange(1, 2**31),
            "app_params": dict(APP_PARAMS)}
    n_jobs = max(4, round(JOBS_PER_S * seconds))
    n_new = (n_jobs + 1) // 2
    patterns: dict[str, list[str]] = {app: [] for app in APPS}

    def balanced(values: _t.Sequence[_t.Any]) -> _t.Iterator[_t.Any]:
        """Every value once per block, in a seeded order."""
        while True:
            yield from rng.sample(values, len(values))

    colds = balanced(list(itertools.product(COLD_APPS, FREQS_HZ)))
    compares = balanced(list(itertools.product(APPS, NODES)))
    sweeps = balanced(list(itertools.product(APPS, WARM_SIZES)))
    warm_kinds = itertools.cycle(("compare", "sweep", "sweep", "again"))
    # Cold sweeps open the stream until every app has patterns enough
    # for the largest warm sweep.
    opening = min(n_new, max(WARM_SIZES) * len(APPS))
    slots = [True] * opening + rng.sample(
        [True] * (n_new - opening) + [False] * (n_jobs - n_new),
        n_jobs - opening)
    warm_sweeps: dict[tuple[str, int], dict[str, _t.Any]] = {}
    stream: list[dict[str, _t.Any]] = []
    for i, is_new in enumerate(slots):
        if is_new:
            app, freq = ((APPS[i % len(APPS)], FREQS_HZ[i % len(FREQS_HZ)])
                         if i < opening else next(colds))
            while True:
                name = f"{round(rng.uniform(0.5, 2.5), 2)}pct@{freq}Hz"
                if name not in patterns[app]:
                    break
            patterns[app].append(name)
            stream.append({"kind": "sweep", "app": app, "nodes": list(NODES),
                           "patterns": [name], **base})
            continue
        kind = next(warm_kinds)
        if kind == "compare":
            app, nodes = next(compares)
            stream.append({"kind": "compare", "app": app, "nodes": nodes,
                           "pattern": rng.choice(patterns[app]), **base})
            continue
        app, k = next(sweeps)
        k = min(k, len(patterns[app]))
        if kind == "sweep" or (app, k) not in warm_sweeps:
            warm_sweeps[app, k] = {
                "kind": "sweep", "app": app, "nodes": list(NODES),
                "patterns": sorted(rng.sample(patterns[app], k)), **base}
        stream.append(warm_sweeps[app, k])
    return stream


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, cache_dir: str, *, stats_path: str | None = None
                 ) -> None:
        self.cache_dir = cache_dir
        if stats_path is None:
            argv = [sys.executable, "-m", "repro", "serve"]
        else:
            argv = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                    stats_path]
        argv += ["--port", "0", "--workers", str(WORKERS),
                 "--cache", cache_dir]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        self.port = self._read_port()
        self._wait_ready()
        self.start_s = time.perf_counter() - t0

    def _read_port(self) -> int:
        line = self.proc.stdout.readline()
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not start: {line.strip()!r}")
        return int(line.split()[2].rsplit(":", 1)[1])

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                status, _ = self.get("/healthz?ready=1")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server never became ready")
            time.sleep(0.01)

    def get(self, path: str) -> tuple[int, _t.Any]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def processes(self) -> list[int]:
        return [self.proc.pid, *proc_children(self.proc.pid)]

    def stop(self) -> None:
        """SIGTERM (the server's graceful path), then wait for the
        server and its pool workers to be gone.

        The server turns SIGTERM into a ``KeyboardInterrupt``; about one
        signal in ten lands in an object finaliser, where Python ignores
        the exception and the server keeps serving.  So the signal is
        repeated a few times before the server is killed.
        """
        pids = self.processes()
        for _ in range(TERM_ATTEMPTS):
            if self.proc.poll() is not None:
                break
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=TERM_WAIT_S)
            except subprocess.TimeoutExpired:
                pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        deadline = time.monotonic() + TERM_WAIT_S
        for pid in pids[1:]:
            while _alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                time.sleep(0.01)
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def fresh_cache_dir(tag: str) -> str:
    path = os.path.join(OUT, f"cache-{os.getpid()}-{tag}")
    shutil.rmtree(path, ignore_errors=True)
    return path


def submit(conn: http.client.HTTPConnection, job: dict[str, _t.Any]
           ) -> dict[str, _t.Any]:
    """One job over a kept-alive connection; latency runs from the send
    to the terminal ``stats`` line."""
    body = json.dumps(job).encode()
    t0 = time.perf_counter()
    conn.request("POST", "/v1/jobs", body=body,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    if resp.status != 200:
        resp.read()
        return {"error": f"HTTP {resp.status}",
                "latency_s": time.perf_counter() - t0}
    records, points, errors, stats = [], [], [], None
    while stats is None:
        line = resp.readline()
        if not line:
            errors.append("stream ended before the stats line")
            break
        event = json.loads(line)
        kind = event.get("event")
        if kind == "record":
            records.append(event["record"])
        elif kind == "point":
            points.append(event)
        elif kind == "error":
            errors.append(event.get("message", "error"))
        elif kind == "stats":
            stats = event
    latency = time.perf_counter() - t0
    resp.read()
    records.sort(key=lambda r: (r["nodes"], r["pattern"]))
    outcomes = [p["outcome"] for p in points]
    return {"latency_s": latency, "digest": digest(records),
            "points": len(points), "outcomes": outcomes,
            "longest_point_s": max((p["elapsed_s"] for p in points
                                    if p["outcome"] != "cached"),
                                   default=0.0),
            "error": "; ".join(errors) or None}


def closed_loop(port: int, stream: list[dict[str, _t.Any]],
                pause: _t.Callable[[], float] | None = None
                ) -> tuple[list[dict[str, _t.Any]], float]:
    """Replay ``stream`` over one connection, each job sent when the
    last reply has ended; returns the replies in stream order and the
    wall time.

    After every :data:`PAUSE_EVERY` jobs, and after the last, ``pause``
    runs while the server is idle; the seconds it returns are not part
    of the wall time.
    """
    replies: list[dict[str, _t.Any]] = []
    paused = 0.0
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    t0 = time.perf_counter()
    try:
        for i, job in enumerate(stream, 1):
            try:
                replies.append(submit(conn, job))
            except (OSError, http.client.HTTPException, ValueError) as exc:
                replies.append({"error": f"{type(exc).__name__}: {exc}",
                                "latency_s": 0.0})
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=120)
            if pause is not None and (i % PAUSE_EVERY == 0
                                      or i == len(stream)):
                paused += pause()
    finally:
        conn.close()
    return replies, time.perf_counter() - t0 - paused
