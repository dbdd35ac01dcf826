"""Clients for the experiment server (stdlib only).

:class:`ServeClient` is the synchronous client behind ``repro
submit``: it POSTs a job with :mod:`http.client` (which transparently
de-chunks the response) and yields the streamed NDJSON events as they
arrive.  :func:`submit_async` is the asyncio twin used by the
load-test harness to hold a thousand requests open concurrently from
one thread.
"""

from __future__ import annotations

import http.client
import json
import typing as _t

from ..errors import ReproError
from .protocol import read_chunked_lines

__all__ = ["ServeClient", "ServeError", "submit_async", "job_records"]


class ServeError(ReproError):
    """The server answered with an error (or not with valid NDJSON)."""


class ServeClient:
    """Blocking HTTP client for one server address."""

    def __init__(self, host: str, port: int, *,
                 timeout: float = 600.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def _connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    def _get_json(self, path: str) -> dict[str, _t.Any]:
        conn = self._connection()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            doc = json.loads(resp.read().decode())
            if resp.status != 200:
                raise ServeError(f"GET {path} -> {resp.status}: "
                                 f"{doc.get('error', doc)}")
            return doc
        finally:
            conn.close()

    def health(self, *, ready: bool = False) -> dict[str, _t.Any]:
        return self._get_json("/healthz?ready=1" if ready else "/healthz")

    def metrics(self, *, window: float | None = None) -> dict[str, _t.Any]:
        path = "/metrics"
        if window is not None:
            path += f"?window={window:g}"
        return self._get_json(path)

    def metrics_text(self) -> str:
        """``/metrics`` in Prometheus text exposition format."""
        conn = self._connection()
        try:
            conn.request("GET", "/metrics?format=prom")
            resp = conn.getresponse()
            body = resp.read().decode()
            if resp.status != 200:
                raise ServeError(f"GET /metrics?format=prom -> "
                                 f"{resp.status}: {body[:200]}")
            return body
        finally:
            conn.close()

    def logs(self, *, level: str | None = None, event: str | None = None,
             since: int = 0, limit: int = 200) -> dict[str, _t.Any]:
        """The server's operational log ring (``GET /v1/logs``)."""
        params = [f"since={since}", f"limit={limit}"]
        if level:
            params.append(f"level={level}")
        if event:
            params.append(f"event={event}")
        return self._get_json("/v1/logs?" + "&".join(params))

    def submit(self, job: dict[str, _t.Any]
               ) -> _t.Iterator[dict[str, _t.Any]]:
        """POST one job; yield streamed events until the ``stats`` line.

        ``http.client`` decodes the chunked transfer coding, so
        ``readline`` returns complete NDJSON lines as the server
        flushes them.  A stream that dies before the terminal
        ``stats`` event — a killed server, a dropped connection, a
        truncated NDJSON line — surfaces as :class:`ServeError`
        (never a raw traceback): partial results must not be mistaken
        for a complete job.
        """
        conn = self._connection()
        try:
            body = json.dumps(job).encode()
            conn.request("POST", "/v1/jobs", body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            if resp.status != 200:
                doc = json.loads(resp.read().decode() or "{}")
                raise ServeError(f"job rejected ({resp.status}): "
                                 f"{doc.get('error', doc)}")
            cut = ("server closed the stream before the terminal "
                   "'stats' event; partial results discarded")
            streamed = False
            while True:
                try:
                    line = resp.readline()
                except (http.client.HTTPException, ConnectionError,
                        OSError) as exc:
                    # Once events have streamed, a reset and an orderly
                    # close are the same failure: the job was cut short.
                    # Which one the client sees is a race in the kernel.
                    if streamed:
                        raise ServeError(f"{cut} ({exc})") from exc
                    raise ServeError(
                        f"connection lost mid-stream: {exc}") from exc
                if not line:
                    raise ServeError(cut)
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ServeError(
                        "server closed mid-line (partial NDJSON: "
                        f"{line[:80]!r})") from exc
                streamed = True
                yield event
                if event.get("event") == "stats":
                    break
        finally:
            conn.close()

    def records(self, job: dict[str, _t.Any]
                ) -> tuple[list[dict[str, _t.Any]], dict[str, _t.Any]]:
        """Submit and collect: ``(sorted records, stats event)``."""
        return job_records(self.submit(job))


def job_records(events: _t.Iterable[dict[str, _t.Any]]
                ) -> tuple[list[dict[str, _t.Any]], dict[str, _t.Any]]:
    """Fold a job's event stream into ``(sorted records, stats)``.

    Records stream in completion order; sorting by ``(nodes,
    pattern)`` restores exactly the :func:`repro.core.sweep_records`
    order, which is what makes served output comparable to the CLI
    byte-for-byte.
    """
    records: list[dict[str, _t.Any]] = []
    stats: dict[str, _t.Any] = {}
    for event in events:
        kind = event.get("event")
        if kind == "record":
            records.append(event["record"])
        elif kind == "stats":
            stats = event
    records.sort(key=lambda r: (r["nodes"], r["pattern"]))
    return records, stats


async def submit_async(host: str, port: int, job: dict[str, _t.Any]
                       ) -> list[dict[str, _t.Any]]:
    """Async submit: POST the job and return the full event list.

    Used by the load-test harness, where a thousand of these run
    concurrently on one event loop.
    """
    import asyncio

    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps(job).encode()
        head = (f"POST /v1/jobs HTTP/1.1\r\nHost: {host}:{port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        writer.write(head + body)
        await writer.drain()
        status_line = await reader.readline()
        parts = status_line.decode("latin-1").split()
        if len(parts) < 2:
            raise ServeError(f"bad status line: {status_line!r}")
        status = int(parts[1])
        chunked = False
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            value = value.strip()
            if name == "transfer-encoding" and "chunked" in value:
                chunked = True
            elif name == "content-length":
                length = int(value)
        if status != 200:
            payload = await reader.readexactly(length) if length else b""
            doc = json.loads(payload or b"{}")
            raise ServeError(f"job rejected ({status}): "
                             f"{doc.get('error', doc)}")
        events: list[dict[str, _t.Any]] = []
        if chunked:
            async for line in read_chunked_lines(reader):
                events.append(json.loads(line))
        else:
            payload = await reader.readexactly(length) if length else b""
            for raw in payload.splitlines():
                if raw:
                    events.append(json.loads(raw))
        return events
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
