"""Tests for the experiment server: planning, dedup, determinism.

The heavyweight properties the service must hold:

* served records are byte-identical to the ``repro sweep`` CLI path
  (serial and ``--workers``) for equal configs;
* N identical concurrent submissions cause exactly one simulation per
  distinct point (in-flight dedup);
* the sharded on-disk cache is shared between server and CLI.
"""

import asyncio
import json

import pytest

from repro.core import ExperimentConfig, run_with_baseline, sweep_records
from repro.errors import ConfigError
from repro.serve import (
    BackgroundServer,
    InflightRegistry,
    ServeClient,
    ServeError,
    job_records,
    parse_job,
    submit_async,
)

#: Small enough that a point is tens of milliseconds.
_PARAMS = {"work_ns": 500_000, "iterations": 10}


def _blob(records):
    return json.dumps(records, sort_keys=True).encode()


# -- planner ----------------------------------------------------------------

def test_parse_job_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_job(["not", "an", "object"])
    with pytest.raises(ConfigError):
        parse_job({"kind": "destroy"})
    with pytest.raises(ConfigError):
        parse_job({"kind": "sweep", "typo_field": 1})
    with pytest.raises(ConfigError):
        parse_job({"kind": "compare", "pattern": "quiet"})
    with pytest.raises(ConfigError):
        parse_job({"kind": "sweep", "nodes": []})
    with pytest.raises(ConfigError):
        parse_job({"kind": "sweep", "nodes": [0]})
    with pytest.raises(ConfigError):
        parse_job({"kind": "sweep", "patterns": [""]})
    with pytest.raises(ConfigError):
        parse_job({"kind": "sweep", "patterns": ["no-such-grammar!!"]})
    with pytest.raises(ConfigError):
        parse_job({"kind": "sweep", "collectives": {"allreduce": 3}})


def test_parse_job_compare_and_sweep_shapes():
    cmp_job = parse_job({"kind": "compare", "nodes": 8,
                         "pattern": "2.5pct@100Hz", "seed": 3})
    assert cmp_job.nodes == (8,)
    assert cmp_job.patterns == ("2.5pct@100Hz",)
    assert cmp_job.base.seed == 3

    swp = parse_job({"kind": "sweep", "nodes": [4, 8],
                     "patterns": ["quiet", "2.5pct@100Hz"]})
    keys = [p.key for p in swp.points()]
    # Quiet baselines first (deduplicated), then noisy points.
    assert keys == [("quiet", 4), ("quiet", 8),
                    ("noisy", 4, "2.5pct@100Hz"),
                    ("noisy", 8, "2.5pct@100Hz")]


def test_job_points_share_quiet_baselines():
    swp = parse_job({"kind": "sweep", "nodes": [4, 4, 4],
                     "patterns": ["2.5pct@10Hz", "2.5pct@100Hz"]})
    quiet = [p for p in swp.points() if p.key[0] == "quiet"]
    assert len(quiet) == 1


def test_job_assemble_matches_sweep_records_shape():
    job = parse_job({"kind": "sweep", "app": "bsp", "nodes": [2],
                     "patterns": ["quiet", "2.5pct@100Hz"], "seed": 2,
                     "app_params": _PARAMS})
    from repro.core import run_experiment

    points = {p.key: run_experiment(p.config) for p in job.points()}
    records, errors = job.assemble(points)
    assert errors == []
    expected = sweep_records(
        ExperimentConfig(app="bsp", seed=2, app_params=_PARAMS),
        nodes=[2], patterns=["quiet", "2.5pct@100Hz"])
    assert _blob(records) == _blob(expected)


def test_job_assemble_reports_missing_baseline():
    job = parse_job({"kind": "sweep", "nodes": [2],
                     "patterns": ["2.5pct@100Hz"]})
    noisy_key = ("noisy", 2, "2.5pct@100Hz")
    from repro.core import run_experiment

    noisy = run_experiment(
        next(p for p in job.points() if p.key == noisy_key).config)
    records, errors = job.assemble({noisy_key: noisy})
    assert records == []
    assert errors and errors[0]["kind"] == "MissingBaseline"


# -- in-flight registry -----------------------------------------------------

def test_inflight_registry_dedups_and_retires():
    async def main():
        reg = InflightRegistry()
        calls = []

        async def work():
            calls.append(1)
            await asyncio.sleep(0)
            return "r"

        assert reg.join("k") is None
        task = reg.register("k", work)
        assert reg.join("k") is task and reg.joined == 1
        assert await asyncio.shield(task) == "r"
        await asyncio.sleep(0)  # let the done callback retire the key
        assert len(reg) == 0 and reg.join("k") is None
        assert calls == [1]

    asyncio.run(main())


def test_inflight_registry_failure_not_pinned():
    async def main():
        reg = InflightRegistry()

        async def boom():
            raise RuntimeError("sim failed")

        task = reg.register("k", boom)
        with pytest.raises(RuntimeError):
            await asyncio.shield(task)
        await asyncio.sleep(0)
        assert reg.join("k") is None  # next request starts fresh

    asyncio.run(main())


# -- the server -------------------------------------------------------------

@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    with BackgroundServer(workers=2, cache=str(cache_dir)) as bg:
        yield bg


def _sweep_job(**over):
    job = {"kind": "sweep", "app": "bsp", "nodes": [2, 4],
           "patterns": ["quiet", "2.5pct@100Hz"], "seed": 2,
           "app_params": _PARAMS}
    job.update(over)
    return job


def test_health_and_metrics(server):
    client = ServeClient(*server.address)
    health = client.health()
    assert health["ok"] and health["workers"] == 2
    doc = client.metrics()
    assert "serve" in doc and "cache" in doc
    assert doc["serve"]["workers"] == 2


def test_unknown_route_404(server):
    client = ServeClient(*server.address)
    with pytest.raises(ServeError, match="404"):
        client._get_json("/nope")


def test_bad_job_is_a_400_not_a_crash(server):
    client = ServeClient(*server.address)
    with pytest.raises(ServeError, match="rejected"):
        list(client.submit({"kind": "destroy"}))
    with pytest.raises(ServeError, match="rejected"):
        list(client.submit({"kind": "sweep", "patterns": ["zzz!"]}))
    assert client.health()["ok"]  # server survived


def test_served_sweep_byte_identical_to_cli(server):
    client = ServeClient(*server.address)
    records, stats = client.records(_sweep_job(seed=21))
    assert stats["errors"] == 0
    base = ExperimentConfig(app="bsp", seed=21, app_params=_PARAMS)
    kwargs = dict(nodes=[2, 4], patterns=["quiet", "2.5pct@100Hz"])
    assert _blob(records) == _blob(sweep_records(base, workers=1, **kwargs))
    assert _blob(records) == _blob(sweep_records(base, workers=2, **kwargs))


def test_served_compare_matches_run_with_baseline(server):
    client = ServeClient(*server.address)
    job = {"kind": "compare", "app": "bsp", "nodes": 4,
           "pattern": "2.5pct@100Hz", "seed": 22, "app_params": _PARAMS}
    records, stats = client.records(job)
    assert len(records) == 1 and stats["errors"] == 0
    cmp = run_with_baseline(ExperimentConfig(
        app="bsp", nodes=4, noise_pattern="2.5pct@100Hz", seed=22,
        app_params=_PARAMS))
    expected = cmp.as_dict()
    expected.setdefault("pattern", "2.5pct@100Hz")
    assert _blob(records) == _blob([expected])


def test_stream_has_point_record_stats_events(server):
    client = ServeClient(*server.address)
    events = list(client.submit(_sweep_job(seed=23)))
    kinds = [e["event"] for e in events]
    assert kinds[-1] == "stats"
    assert kinds.count("point") == 4
    assert kinds.count("record") == 4
    outcomes = {e["outcome"] for e in events if e["event"] == "point"}
    assert outcomes <= {"simulated", "cached", "deduped"}
    # Every record cell appears exactly once.
    cells = [(e["record"]["nodes"], e["record"]["pattern"])
             for e in events if e["event"] == "record"]
    assert sorted(cells) == [(2, "2.5pct@100Hz"), (2, "quiet"),
                             (4, "2.5pct@100Hz"), (4, "quiet")]


def test_repeat_submission_served_from_cache(server):
    client = ServeClient(*server.address)
    _records, first = client.records(_sweep_job(seed=24))
    assert first["simulated"] == 4
    records, again = client.records(_sweep_job(seed=24))
    assert again["simulated"] == 0
    assert again["cached"] == 4
    assert _blob(records) == _blob(_records)


def test_identical_concurrent_jobs_simulate_once(server):
    """The headline dedup property: N identical in-flight jobs ->
    exactly one simulation per distinct point."""
    client = ServeClient(*server.address)
    before = client.metrics()["serve"]
    job = {"kind": "compare", "app": "bsp", "nodes": 4,
           "pattern": "2.5pct@10Hz", "seed": 25, "app_params": _PARAMS}

    async def burst():
        host, port = server.address
        return await asyncio.gather(
            *[submit_async(host, port, job) for _ in range(8)])

    results = asyncio.run(burst())
    blobs = set()
    for events in results:
        records, stats = job_records(events)
        assert stats["errors"] == 0
        blobs.add(_blob(records))
    assert len(blobs) == 1  # every subscriber saw the identical result

    after = client.metrics()["serve"]
    simulated = after["points_simulated"] - before["points_simulated"]
    deduped = after["points_deduped"] - before["points_deduped"]
    cached = after["points_cached"] - before["points_cached"]
    # 8 jobs x 2 points each = 16 consumptions; exactly 2 simulations
    # (noisy + its quiet baseline), everything else dedup/cache.
    assert simulated == 2
    assert deduped + cached == 14


def test_cache_shared_between_cli_and_server(server, tmp_path):
    """A sweep the CLI ran into the shared directory is served without
    simulating; and vice versa the server's points warm the CLI."""
    from repro.parallel import SweepExecutor

    # The server's cache dir, already warmed by earlier tests:
    cache = server.server.executor.cache
    base = ExperimentConfig(app="bsp", seed=24, app_params=_PARAMS)
    ex = SweepExecutor(workers=1, cache=cache)
    ex.run_sweep(base, nodes=[2, 4], patterns=["quiet", "2.5pct@100Hz"])
    stats = ex.last_stats
    assert stats.quiet_simulated == 0 and stats.noisy_simulated == 0


def test_point_failure_streams_error_event(server):
    client = ServeClient(*server.address)
    job = {"kind": "compare", "app": "bsp", "nodes": 4,
           "pattern": "2.5pct@100Hz", "seed": 26,
           "app_params": {"work_ns": -5}}
    events = list(client.submit(job))
    kinds = [e["event"] for e in events]
    assert "error" in kinds
    assert events[-1]["event"] == "stats"
    assert events[-1]["errors"] >= 1
    assert client.health()["ok"]


def test_cli_submit_against_server(server):
    from repro.cli import main
    import io

    host, port = server.address
    out = io.StringIO()
    rc = main(["submit", "--host", host, "--port", str(port),
               "--app", "bsp", "--nodes", "2,4",
               "--patterns", "quiet,2.5pct@100Hz", "--seed", "2"],
              out=out)
    text = out.getvalue()
    assert rc == 0
    assert "sweep: bsp" in text
    assert "server:" in text


def test_cli_submit_connection_refused():
    from repro.cli import main
    import io

    out = io.StringIO()
    rc = main(["submit", "--port", "1", "--app", "bsp"], out=out)
    assert rc == 2
    assert "cannot reach server" in out.getvalue()


# -- observability plane ----------------------------------------------------

def test_metrics_json_backward_compatible_shape(server):
    """PR-7 clients keep working: `/metrics` defaults to JSON with the
    `serve` / `cache` / `version` keys; `registry` is now always
    present (the server owns a host-scope registry even when the
    global telemetry switchboard is off)."""
    client = ServeClient(*server.address)
    doc = client.metrics()
    assert set(doc) >= {"serve", "cache", "version", "registry"}
    serve = doc["serve"]
    for key in ("requests_total", "points_simulated", "points_cached",
                "points_deduped", "point_errors", "workers", "inflight"):
        assert key in serve
    assert any(k.startswith("serve.http_requests_total")
               for k in doc["registry"])


def test_metrics_prometheus_exposition_validates(server):
    from repro.obs import prom

    client = ServeClient(*server.address)
    client.records(_sweep_job(seed=27))
    text = client.metrics_text()
    samples, types = prom.validate(text)
    names = {s.name for s in samples}
    assert "repro_serve_requests_total" in names
    assert "repro_serve_points_simulated" in names
    assert types["repro_serve_http_request_seconds"] == "histogram"
    # Content negotiation: an Accept header is enough, no query param.
    import http.client

    conn = http.client.HTTPConnection(*server.address, timeout=30)
    try:
        conn.request("GET", "/metrics", headers={"Accept": "text/plain"})
        resp = conn.getresponse()
        assert resp.status == 200
        assert "version=0.0.4" in resp.getheader("Content-Type", "")
        prom.validate(resp.read().decode())
    finally:
        conn.close()


def test_metrics_window_reports_rolling_rates(server):
    client = ServeClient(*server.address)
    client.records(_sweep_job(seed=28))
    doc = client.metrics(window=30)
    win = doc["window"]
    assert win["window_s"] > 0 and win["samples"] >= 1
    assert win["requests"] >= 1 and win["req_per_s"] > 0
    assert 0.0 <= win["error_rate"] <= 1.0
    with pytest.raises(ServeError, match="400"):
        client._get_json("/metrics?window=bogus")


def test_every_request_logged_with_request_id(server):
    client = ServeClient(*server.address)
    client.records(_sweep_job(seed=29))
    logs = client.logs(event="request")
    assert logs["count"] >= 2
    assert all(d["request_id"].startswith("r-") for d in logs["events"])
    ends = [d for d in logs["events"] if d["event"] == "request.end"]
    assert ends and all("status" in d and "elapsed_s" in d for d in ends)
    # Job/point events inherit the submitting request's correlation ids.
    job_logs = client.logs(event="job.finished")
    assert job_logs["events"]
    assert job_logs["events"][-1]["request_id"].startswith("r-")
    assert job_logs["events"][-1]["job_id"].startswith("j-")
    # The since/limit cursor pages without duplication.
    page = client.logs(since=logs["next_seq"])
    assert all(d["seq"] > logs["next_seq"] for d in page["events"])


def test_rejected_job_logged_and_carries_request_id(server):
    client = ServeClient(*server.address)
    with pytest.raises(ServeError, match="rejected"):
        list(client.submit({"kind": "destroy"}))
    rejects = client.logs(event="request.reject", level="warning")
    assert rejects["events"]
    assert rejects["events"][-1]["request_id"].startswith("r-")


def test_unhandled_exception_is_counted_logged_and_returns_request_id(
        server, monkeypatch):
    """Satellite: the 500 path must not be silent — the error body
    carries the request id, the oplog records it, and the exception
    counter increments."""
    client = ServeClient(*server.address)

    def boom(**_kw):
        raise RuntimeError("synthetic metrics failure")

    monkeypatch.setattr(server.server, "metrics_doc", boom)
    import http.client

    conn = http.client.HTTPConnection(*server.address, timeout=30)
    try:
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        body = json.loads(resp.read())
    finally:
        conn.close()
    monkeypatch.undo()
    assert resp.status == 500
    assert body["request_id"].startswith("r-")
    assert "RuntimeError" in body["error"]
    errors = client.logs(event="request.error", level="error")
    assert errors["events"]
    last = errors["events"][-1]
    assert last["request_id"].startswith("r-")
    assert "RuntimeError" in last["error"]
    snap = client.metrics()["registry"]
    assert snap.get('serve.http_exceptions_total{kind=RuntimeError}', 0) >= 1
    assert client.health()["ok"]  # server survived


def test_readiness_distinct_from_liveness(tmp_path):
    """`/healthz` is liveness (always 200 while the loop runs);
    `/healthz?ready=1` is readiness — 503 until the worker pool
    exists."""
    with BackgroundServer(workers=1, cache=str(tmp_path / "c"),
                          warm=False) as bg:
        client = ServeClient(*bg.address)
        assert client.health()["ok"]          # alive
        with pytest.raises(ServeError, match="503"):
            client.health(ready=True)         # not ready yet
        import http.client

        conn = http.client.HTTPConnection(*bg.address, timeout=30)
        try:
            conn.request("GET", "/healthz?ready=1")
            resp = conn.getresponse()
            body = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 503
        assert body["ready"] is False and body["request_id"].startswith("r-")
        job = {"kind": "compare", "app": "bsp", "nodes": 2,
               "pattern": "2.5pct@100Hz", "seed": 30,
               "app_params": _PARAMS}
        _records, stats = client.records(job)
        assert stats["errors"] == 0           # first job forced the pool
        assert client.health(ready=True)["ready"] is True


def test_traced_job_streams_one_trace_event(server):
    client = ServeClient(*server.address)
    events = list(client.submit(_sweep_job(seed=32, trace=True)))
    traces = [e for e in events if e["event"] == "trace"]
    assert len(traces) == 1
    tr = traces[0]
    assert tr["points"] == 4 and tr["request_id"].startswith("r-")
    assert tr["trace"]["traceEvents"]
    # Untraced jobs don't pay for (or stream) a trace.
    events = list(client.submit(_sweep_job(seed=32)))
    assert not any(e["event"] == "trace" for e in events)


def test_cli_submit_trace_writes_perfetto_file(server, tmp_path):
    from repro.cli import main
    import io

    host, port = server.address
    path = tmp_path / "req.json"
    out = io.StringIO()
    rc = main(["submit", "--host", host, "--port", str(port),
               "--app", "bsp", "--nodes", "2",
               "--patterns", "quiet,2.5pct@100Hz",
               "--trace", str(path)], out=out)
    assert rc == 0
    assert "trace:" in out.getvalue()
    doc = json.loads(path.read_text())
    assert doc["otherData"]["generator"] == "repro.obs.reqtrace"


def test_cli_top_renders_a_frame(server):
    from repro.cli import main
    import io

    host, port = server.address
    out = io.StringIO()
    rc = main(["top", "--host", host, "--port", str(port), "--once"], out=out)
    assert rc == 0
    text = out.getvalue()
    assert "repro top" in text
    assert "rates (" in text and "latency:" in text
    assert "workers:" in text
    assert "\x1b[" not in text  # no ANSI control codes off-tty


def test_cli_top_unreachable_server_is_rc2():
    from repro.cli import main
    import io

    out = io.StringIO()
    rc = main(["top", "--port", "1", "--once"], out=out)
    assert rc == 2
    assert "unreachable" in out.getvalue()


def test_top_render_frame_handles_empty_documents():
    from repro.serve.top import render_frame

    text = render_frame({}, None)
    assert "repro top" in text and "--" in text


# -- mid-stream disconnect regression ---------------------------------------

def _truncating_server(chunks):
    """A one-shot fake server: accept and read one request, stream the
    given pre-encoded chunked-transfer byte strings, then close the
    socket without ever sending the terminal ``stats`` event."""
    import socket
    import threading

    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    port = srv.getsockname()[1]

    def serve():
        conn, _addr = srv.accept()
        try:
            conn.settimeout(5)
            data = b""
            while b"\r\n\r\n" not in data:
                data += conn.recv(65536)
            # Drain the body too: closing a socket with unread input
            # sends RST, which can overtake the chunks sent below.
            head, _, body = data.partition(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            while len(body) < length:
                body += conn.recv(65536)
            conn.sendall(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Type: application/x-ndjson\r\n"
                         b"Transfer-Encoding: chunked\r\n\r\n")
            for chunk in chunks:
                conn.sendall(f"{len(chunk):x}\r\n".encode()
                             + chunk + b"\r\n")
        finally:
            conn.close()
            srv.close()

    threading.Thread(target=serve, daemon=True).start()
    return port


def _ndjson(event):
    return (json.dumps(event) + "\n").encode()


def test_submit_raises_clean_error_when_stream_dies_early():
    """A server that disappears after streaming some events (but
    before the terminal 'stats' line) must surface as ServeError, not
    a StopIteration/JSONDecodeError traceback."""
    record = {"event": "record",
              "record": {"nodes": 2, "pattern": "quiet", "makespan_ms": 1.0}}
    port = _truncating_server([_ndjson(record)])
    client = ServeClient("127.0.0.1", port, timeout=5)
    events = []
    with pytest.raises(ServeError, match="before the terminal 'stats'"):
        for event in client.submit({"kind": "sweep"}):
            events.append(event)
    assert events == [record]  # everything before the cut still streamed


def test_submit_reset_after_streamed_events_is_a_cut_stream(monkeypatch):
    """A reset that lands after some events is the same failure as an
    orderly close: the client must not report it differently."""
    record = {"event": "record",
              "record": {"nodes": 2, "pattern": "quiet", "makespan_ms": 1.0}}

    class Response:
        status = 200

        def __init__(self):
            self.lines = [_ndjson(record)]

        def readline(self):
            if self.lines:
                return self.lines.pop(0)
            raise ConnectionResetError(104, "Connection reset by peer")

    class Connection:
        def request(self, *args, **kwargs):
            pass

        def getresponse(self):
            return Response()

        def close(self):
            pass

    client = ServeClient("127.0.0.1", 1, timeout=5)
    monkeypatch.setattr(client, "_connection", Connection)
    events = []
    with pytest.raises(ServeError, match="before the terminal 'stats'"):
        for event in client.submit({"kind": "sweep"}):
            events.append(event)
    assert events == [record]


def test_submit_raises_clean_error_on_partial_ndjson_line():
    """A connection cut mid-line (truncated NDJSON) is a ServeError
    too — whichever of the read/decode layers sees it first."""
    port = _truncating_server([b'{"event": "rec'])
    client = ServeClient("127.0.0.1", port, timeout=5)
    with pytest.raises(ServeError):
        list(client.submit({"kind": "sweep"}))


def test_cli_submit_midstream_close_is_rc2():
    """`repro submit` against a server that dies mid-stream: clean
    one-line error on stdout and exit code 2."""
    from repro.cli import main
    import io

    record = {"event": "record",
              "record": {"nodes": 2, "pattern": "quiet", "makespan_ms": 1.0}}
    port = _truncating_server([_ndjson(record)])
    out = io.StringIO()
    rc = main(["submit", "--port", str(port), "--app", "bsp",
               "--nodes", "2", "--patterns", "quiet"], out=out)
    assert rc == 2
    assert "error:" in out.getvalue()
    assert "Traceback" not in out.getvalue()


# -- graceful shutdown of the `repro serve` process -----------------------------

def test_serve_exits_on_first_sigterm(tmp_path):
    """The event loop owns SIGTERM, so the first signal always takes the
    graceful path: close the server, dump the metrics, exit 0."""
    import os
    import signal
    import subprocess
    import sys

    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    metrics = tmp_path / "metrics.json"
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--metrics-json", str(metrics)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    try:
        assert proc.stdout.readline().startswith("serving on http://")
        proc.send_signal(signal.SIGTERM)
        rest = proc.communicate(timeout=30)[0]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, rest
    assert "shutting down" in rest and "Traceback" not in rest
    assert json.loads(metrics.read_text())["serve"]["workers"] == 1
