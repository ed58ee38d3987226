"""A dependency-free asyncio HTTP front end for the live gateway.

Pure stdlib (``asyncio.start_server`` + hand-rolled HTTP/1.1 parsing), so
the live subsystem adds no third-party requirements.  One connection per
request (``Connection: close``), JSON in and out:

* ``POST /v1/requests`` -- ingest one request.  Body: ``{"length": int,
  "output_len"?: int, "slo_ms"?: float, "class"?: str, "wait"?: bool}``.
  ``"class"`` names a registered request class (multi-tenant SLO tiers);
  unknown names are a ``400``, as are lengths that are not integers >= 1
  and an ``slo_ms`` that is not a finite number >= 0.  ``200`` with the
  admission verdict (or, with ``"wait": true``, the completion record once
  the batch actually finishes); ``429`` when admission control or the
  predicted-miss gate sheds it (bounded-queue backpressure); ``503`` while
  draining.
* ``POST /v1/stream`` -- streaming ingest: newline-delimited JSON request
  objects (same schema, no ``wait``), submitted as each line arrives; a
  blank line or EOF ends the stream and the summary comes back.
* ``GET /healthz`` -- liveness: ``{"status": "ok" | "draining", ...}``.
* ``GET /stats`` -- the gateway's :meth:`~repro.live.gateway.LiveGateway.
  stats` (the simulator's ``to_dict()`` metrics plus the ``"live"`` block).
* ``POST /shutdown`` -- graceful shutdown (body ``{"abort_in_flight":
  bool}`` optional): drains, then responds with the *final* stats payload,
  after which the listener closes.
"""

from __future__ import annotations

import asyncio
import json
import math

from .gateway import LiveGateway

__all__ = ["LiveServer"]

#: Refuse absurd ingest bodies outright (the schema is a handful of scalars).
_MAX_BODY_BYTES = 1 << 20

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    503: "Service Unavailable",
}


class _BadRequest(Exception):
    """Client error: reported as a 400 with the message in the body."""


def _positive_int(body: dict, key: str, default: int | None = None) -> int:
    """``body[key]`` (absent or null: ``default``) as an integer >= 1, else a 400."""
    value = body.get(key)
    if value is None:
        if default is None:
            raise _BadRequest(f"'{key}' is required")
        return default
    try:
        number = int(value)
        if isinstance(value, float) and number != value:
            raise ValueError  # 2.5 tokens
    except (TypeError, ValueError, OverflowError):  # "x", NaN, Infinity
        raise _BadRequest(f"'{key}' must be an integer") from None
    if number < 1:
        raise _BadRequest(f"'{key}' must be >= 1")
    return number


class LiveServer:
    """HTTP front end bound to one :class:`~repro.live.gateway.LiveGateway`."""

    def __init__(self, gateway: LiveGateway, host: str = "127.0.0.1", port: int = 0):
        self.gateway = gateway
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._closed = asyncio.Event()

    async def start(self) -> None:
        """Start the gateway (if needed) and bind the listener.

        ``port=0`` binds an ephemeral port; :attr:`port` is updated to the
        actual one either way.
        """
        if not self.gateway._started:
            await self.gateway.start()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> dict:
        """Block until ``POST /shutdown`` completed; returns the final stats."""
        await self._closed.wait()
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        return self.gateway.stats()

    async def close(self) -> None:
        """Close the listener without draining (tests' cleanup path)."""
        self._closed.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            request_line = (await reader.readline()).decode("latin-1").strip()
            if not request_line:
                return
            try:
                method, path, _ = request_line.split(" ", 2)
            except ValueError:
                await self._respond(writer, 400, {"error": "malformed request line"})
                return
            headers = await self._read_headers(reader)
            try:
                await self._route(method.upper(), path, headers, reader, writer)
            except _BadRequest as error:
                await self._respond(writer, 400, {"error": str(error)})
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _read_headers(reader: asyncio.StreamReader) -> dict[str, str]:
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

    @staticmethod
    async def _read_body(reader: asyncio.StreamReader, headers: dict[str, str]) -> dict:
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise _BadRequest("request body too large")
        if length == 0:
            return {}
        raw = await reader.readexactly(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as error:
            raise _BadRequest(f"invalid JSON body: {error}") from error
        if not isinstance(body, dict):
            raise _BadRequest("request body must be a JSON object")
        return body

    async def _respond(self, writer: asyncio.StreamWriter, status: int, payload: dict):
        body = (json.dumps(payload, indent=2) + "\n").encode()
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _route(self, method, path, headers, reader, writer) -> None:
        gateway = self.gateway
        if path == "/healthz" and method == "GET":
            await self._respond(
                writer,
                200,
                {
                    "status": "draining" if gateway.draining else "ok",
                    "uptime_seconds": gateway.clock.now(),
                    "devices": len(gateway.fleet),
                },
            )
        elif path == "/stats" and method == "GET":
            await self._respond(writer, 200, gateway.stats())
        elif path == "/v1/requests" and method == "POST":
            body = await self._read_body(reader, headers)
            await self._ingest_one(writer, body)
        elif path == "/v1/stream" and method == "POST":
            await self._ingest_stream(reader, writer)
        elif path == "/shutdown" and method == "POST":
            body = await self._read_body(reader, headers)
            stats = await gateway.shutdown(
                abort_in_flight=bool(body.get("abort_in_flight", False))
            )
            await self._respond(writer, 200, stats)
            self._closed.set()
        elif path in ("/healthz", "/stats", "/v1/requests", "/v1/stream", "/shutdown"):
            await self._respond(writer, 405, {"error": f"{method} not allowed on {path}"})
        else:
            await self._respond(writer, 404, {"error": f"unknown path {path}"})

    @staticmethod
    def _parse_entry(body: dict) -> dict:
        slo_ms = body.get("slo_ms")
        if slo_ms is not None:
            try:
                slo_ms = float(slo_ms)
            except (TypeError, ValueError):
                raise _BadRequest("'slo_ms' must be a number") from None
            # json.loads accepts NaN and Infinity: neither is a deadline.
            if not math.isfinite(slo_ms) or slo_ms < 0:
                raise _BadRequest("'slo_ms' must be a finite number >= 0")
        request_class = body.get("class")
        if request_class is not None and not isinstance(request_class, str):
            raise _BadRequest("'class' must be a registered request-class name")
        return {
            "length": _positive_int(body, "length"),
            "output_len": _positive_int(body, "output_len", default=1),
            "slo_ms": slo_ms,
            "request_class": request_class,
        }

    def _submit_entry(self, entry: dict):
        try:
            return self.gateway.submit(
                entry["length"],
                output_len=entry["output_len"],
                slo_ms=entry["slo_ms"],
                request_class=entry["request_class"],
            )
        except KeyError as error:
            # An unknown request-class name is the client's mistake, not a
            # server fault: surface the registry's message as a 400.
            raise _BadRequest(str(error)) from None

    async def _ingest_one(self, writer: asyncio.StreamWriter, body: dict) -> None:
        entry = self._parse_entry(body)
        result = self._submit_entry(entry)
        if result.status == "draining":
            await self._respond(writer, 503, {"status": "draining"})
            return
        request_id = result.request.request_id
        if result.status in ("shed", "shed-predicted"):
            # Bounded-queue backpressure: the client should slow down (or, for
            # a predicted miss, stop offering work the SLO already forfeited).
            await self._respond(
                writer, 429, {"request_id": request_id, "status": result.status}
            )
            return
        if body.get("wait"):
            record = await self.gateway.wait_for(request_id)
            await self._respond(
                writer,
                200,
                {
                    "request_id": request_id,
                    "status": "completed",
                    "latency_ms": record.latency * 1e3,
                    "completion_time": record.completion_time,
                    "device_index": record.device_index,
                    "batch_id": record.batch_id,
                    "on_time": record.on_time if record.deadline is not None else None,
                },
            )
            return
        await self._respond(writer, 200, {"request_id": request_id, "status": "queued"})

    async def _ingest_stream(self, reader, writer) -> None:
        """NDJSON ingest: one request object per line, submitted on receipt.

        The stream is raw newline-delimited JSON after the headers (no
        chunked framing); a blank line or EOF terminates it.  Each line is
        admitted the moment it arrives, so a slow producer gets the same
        iteration-level treatment as paced ``/v1/requests`` calls.
        """
        counts = {"submitted": 0, "queued": 0, "shed": 0, "draining": 0}
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            try:
                body = json.loads(line)
                if not isinstance(body, dict):
                    raise _BadRequest("stream lines must be JSON objects")
                entry = self._parse_entry(body)
            except json.JSONDecodeError as error:
                raise _BadRequest(f"invalid NDJSON line: {error}") from None
            counts["submitted"] += 1
            result = self._submit_entry(entry)
            if result.status == "queued":
                counts["queued"] += 1
            elif result.status == "draining":
                counts["draining"] += 1
            else:
                counts["shed"] += 1
        await self._respond(writer, 200, counts)
