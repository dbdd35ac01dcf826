"""Minimal HTTP/1.1 plumbing for the experiment server (stdlib only).

The server speaks just enough HTTP for its own API: request line +
headers + ``Content-Length`` bodies in, fixed JSON responses or
``Transfer-Encoding: chunked`` NDJSON streams out.  ``aiohttp`` is not
a dependency of this repository, and nothing here needs more than
``asyncio`` streams.

Streaming protocol
------------------
A job response is a chunked ``application/x-ndjson`` body: one JSON
object per line, streamed as the underlying points finish.  The events
of one server wake-up (every point that landed together, the records
they complete) share one chunk, so a chunk may carry several lines.

``{"event": "point", ...}``
    A point completed: ``key``, ``label``, ``outcome``
    (``simulated`` | ``cached`` | ``deduped``), ``elapsed_s``.
``{"event": "record", ...}``
    A result row became computable (both halves of a comparison are
    done): ``record`` is exactly one :func:`repro.core.sweep_records`
    record.
``{"event": "error", ...}``
    A point failed: ``label``, ``kind``, ``message``.
``{"event": "stats", ...}``
    Terminal line: job-level counters (points, simulated/cached/
    deduped, wall seconds, errors).

Clients treat the ``stats`` line as end-of-job; the chunked
zero-length terminator ends the body.
"""

from __future__ import annotations

import asyncio
import json
import typing as _t

from ..errors import ReproError

__all__ = ["Request", "ProtocolError", "read_request", "read_chunked_lines",
           "write_json_response", "write_text_response", "split_query",
           "ChunkedWriter", "encode_event"]

#: Hard ceilings so a malformed or hostile peer cannot balloon memory.
MAX_HEAD_BYTES = 16 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ProtocolError(ReproError):
    """Malformed HTTP from a peer (maps to 400, never a traceback)."""


class Request(_t.NamedTuple):
    method: str
    path: str
    headers: dict[str, str]
    body: bytes

    def json(self) -> _t.Any:
        try:
            return json.loads(self.body or b"null")
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}")


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request; ``None`` on a cleanly closed connection."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-request-head")
    except asyncio.LimitOverrunError:
        raise ProtocolError("request head exceeds limit")
    if len(head) > MAX_HEAD_BYTES:
        raise ProtocolError("request head exceeds limit")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, path, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_s = headers.get("content-length", "0")
    try:
        length = int(length_s)
    except ValueError:
        raise ProtocolError(f"bad Content-Length: {length_s!r}")
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(f"unacceptable Content-Length: {length}")
    body = await reader.readexactly(length) if length else b""
    return Request(method.upper(), path, headers, body)


def _head(status: int, content_type: str,
          extra: _t.Sequence[tuple[str, str]] = ()) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
             f"Content-Type: {content_type}",
             "Connection: keep-alive"]
    lines += [f"{k}: {v}" for k, v in extra]
    return ("\r\n".join(lines) + "\r\n").encode("latin-1")


def write_json_response(writer: asyncio.StreamWriter, status: int,
                        doc: _t.Any) -> None:
    """One complete (non-streaming) JSON response."""
    body = (json.dumps(doc, sort_keys=True) + "\n").encode()
    writer.write(_head(status, "application/json",
                       [("Content-Length", str(len(body)))])
                 + b"\r\n" + body)


def write_text_response(writer: asyncio.StreamWriter, status: int,
                        text: str, *,
                        content_type: str = PROMETHEUS_CONTENT_TYPE) -> None:
    """One complete plain-text response (the ``/metrics`` Prometheus
    form)."""
    body = text.encode()
    writer.write(_head(status, content_type,
                       [("Content-Length", str(len(body)))])
                 + b"\r\n" + body)


def split_query(path: str) -> tuple[str, dict[str, str]]:
    """``/metrics?window=30&format=prom`` -> ``("/metrics",
    {"window": "30", "format": "prom"})``.

    Just enough query parsing for this API: ``&``-separated ``k=v``
    pairs, no percent-decoding (none of our parameters need it), last
    duplicate wins, bare keys map to ``""``.
    """
    path, _, query = path.partition("?")
    params: dict[str, str] = {}
    for pair in query.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        params[key] = value
    return path, params


def encode_event(doc: dict[str, _t.Any]) -> bytes:
    """One NDJSON stream line."""
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


class ChunkedWriter:
    """Chunked-transfer NDJSON response stream."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._started = False

    async def send(self, docs: _t.Sequence[dict[str, _t.Any]]) -> None:
        """Stream event lines as one chunk, one write and one drain
        (the first call carries the response head in the same write)."""
        if not docs:
            return
        head = b""
        if not self._started:
            head = _head(200, "application/x-ndjson",
                         [("Transfer-Encoding", "chunked")]) + b"\r\n"
            self._started = True
        payload = b"".join(map(encode_event, docs))
        self._writer.write(head + f"{len(payload):x}\r\n".encode()
                           + payload + b"\r\n")
        await self._writer.drain()

    async def finish(self) -> None:
        """Terminate the chunked body (idempotent head handling)."""
        if not self._started:
            # Nothing was streamed; still emit a valid empty stream.
            self._writer.write(_head(200, "application/x-ndjson",
                                     [("Transfer-Encoding", "chunked")])
                               + b"\r\n")
            self._started = True
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()


async def read_chunked_lines(reader: asyncio.StreamReader
                             ) -> _t.AsyncIterator[bytes]:
    """Decode a chunked body into NDJSON lines (async client side)."""
    buf = b""
    while True:
        size_line = await reader.readline()
        if not size_line:
            raise ProtocolError("connection closed mid-chunked-body")
        try:
            size = int(size_line.strip().split(b";")[0], 16)
        except ValueError:
            raise ProtocolError(f"bad chunk size line: {size_line!r}")
        if size == 0:
            await reader.readline()  # trailing CRLF after last chunk
            break
        chunk = await reader.readexactly(size)
        await reader.readexactly(2)  # chunk CRLF
        buf += chunk
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            if line:
                yield line
    if buf:
        yield buf
