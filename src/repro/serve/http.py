"""Minimal JSON-over-HTTP/1.1 front end for :class:`EvalService`.

Hand-rolled on ``asyncio.start_server`` — the stdlib has no async HTTP
server and this repo adds no dependencies.  The subset implemented is
exactly what the service API needs: one request per connection
(``Connection: close``), a parsed request line, headers, and a
``Content-Length``-delimited body.

Routes::

    POST /v1/eval                submit; 202 + ticket, 400 invalid,
                                 429 + Retry-After overloaded, 503 closing
    GET  /v1/requests/{id}       status snapshot (404 unknown)
    GET  /v1/requests/{id}/result    full EvalRun JSON + X-Run-Digest
                                     (409 until terminal, 410 if expired/failed)
    GET  /v1/requests/{id}/csv       aggregate CSV of the result
    GET  /v1/requests/{id}/profile   profile CSV of the result
    GET  /metrics                service metrics JSON
    GET  /metrics.csv            same, flat CSV (analysis/export)
    GET  /healthz                liveness + state
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from ..analysis.export import profile_csv, service_metrics_csv, to_csv
from .service import (
    DONE,
    EvalRequest,
    EvalService,
    Overloaded,
    ServiceClosed,
    TERMINAL,
)

MAX_BODY = 1 << 20              # 1 MiB request-body cap
REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
           405: "Method Not Allowed", 409: "Conflict", 410: "Gone",
           413: "Payload Too Large", 429: "Too Many Requests",
           500: "Internal Server Error", 503: "Service Unavailable"}


class HttpError(Exception):
    """Terminate the request with a status and a JSON error body."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


def _response(status: int, body: bytes, content_type: str,
              headers: Optional[Dict[str, str]] = None) -> bytes:
    lines = [f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}",
             "Connection: close"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def json_response(status: int, payload: object,
                  headers: Optional[Dict[str, str]] = None) -> bytes:
    body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    return _response(status, body, "application/json", headers)


def text_response(status: int, text: str, content_type: str = "text/csv",
                  headers: Optional[Dict[str, str]] = None) -> bytes:
    return _response(status, text.encode("utf-8"), content_type, headers)


async def _read_request(reader: asyncio.StreamReader
                        ) -> Tuple[str, str, Dict[str, str], bytes]:
    request_line = (await reader.readline()).decode("latin-1").strip()
    if not request_line:
        raise HttpError(400, "empty request")
    parts = request_line.split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {request_line!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    while True:
        line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY:
        raise HttpError(413, f"body exceeds {MAX_BODY} bytes")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


class HttpServer:
    """The service's HTTP face; owns nothing but routing."""

    def __init__(self, service: EvalService, host: str = "127.0.0.1",
                 port: int = 8752):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def address(self) -> Tuple[str, int]:
        """Actual bound (host, port) — resolves ``port=0`` ephemerals."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, _headers, body = await _read_request(reader)
                payload = self._route(method, path, body)
            except HttpError as err:
                payload = json_response(err.status, {"error": err.message},
                                        headers=err.headers)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except Exception as exc:    # noqa: BLE001 - malformed input
                payload = json_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"})
            writer.write(payload)
            await writer.drain()
            # end the response with a FIN now: a pool worker forked while
            # this connection was open holds a copy of the socket, so
            # close() alone would not reach the client until it exits
            if writer.can_write_eof():
                writer.write_eof()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    # -- routing -------------------------------------------------------------

    def _route(self, method: str, path: str, body: bytes) -> bytes:
        path = path.split("?", 1)[0]
        if path == "/v1/eval":
            if method != "POST":
                raise HttpError(405, "POST only")
            return self._submit(body)
        if path.startswith("/v1/requests/"):
            if method != "GET":
                raise HttpError(405, "GET only")
            return self._request_view(path[len("/v1/requests/"):])
        if method != "GET":
            raise HttpError(405, "GET only")
        if path == "/metrics":
            return json_response(200, self.service.metrics_snapshot())
        if path == "/metrics.csv":
            return text_response(
                200, service_metrics_csv(self.service.metrics_snapshot()))
        if path == "/healthz":
            return json_response(200, {"ok": True,
                                       "state": self.service.state})
        raise HttpError(404, f"no route for {path}")

    def _submit(self, body: bytes) -> bytes:
        try:
            raw = json.loads(body.decode("utf-8") or "null")
            request = EvalRequest.from_dict(raw)
        except ValueError as err:
            raise HttpError(400, str(err)) from err
        try:
            ticket = self.service.submit(request)
        except Overloaded as err:
            raise HttpError(429, str(err), headers={
                "Retry-After": str(err.retry_after)}) from err
        except ServiceClosed as err:
            raise HttpError(503, str(err)) from err
        return json_response(202, ticket.snapshot())

    def _request_view(self, tail: str) -> bytes:
        request_id, _, view = tail.partition("/")
        ticket = self.service.get(request_id)
        if ticket is None:
            raise HttpError(404, f"unknown request {request_id!r}")
        if view == "":
            return json_response(200, ticket.snapshot())
        if view not in ("result", "csv", "profile"):
            raise HttpError(404, f"unknown view {view!r}")
        if ticket.status not in TERMINAL:
            raise HttpError(409, f"request is {ticket.status}; "
                                 "poll until done")
        if ticket.status != DONE or ticket.run is None:
            raise HttpError(410, f"request {ticket.status}: "
                                 f"{ticket.error or 'no result'}")
        if view == "result":
            return text_response(
                200, ticket.run.to_json(), content_type="application/json",
                headers={"X-Run-Digest": ticket.run.digest()})
        if view == "csv":
            return text_response(200, to_csv(ticket.run))
        return text_response(200, profile_csv(ticket.run))


async def serve_forever(service: EvalService, host: str, port: int) -> None:
    """Run the HTTP server until cancelled (the CLI entry point)."""
    server = HttpServer(service, host, port)
    await service.start()
    await server.start()
    try:
        await asyncio.Event().wait()
    finally:
        await server.stop()
        await service.shutdown(drain=True)


__all__ = ["HttpError", "HttpServer", "json_response", "serve_forever",
           "text_response"]
