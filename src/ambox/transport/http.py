"""Plain HTTP with JSON bodies over real sockets: the node's control API and
the operator's heartbeat sink (`HttpServer`), and the client that calls them
(`HttpJsonClient`). Only the roles that serve or call HTTP load this module.

`HttpServer` is a `transport.tcp._Listener`, so a stopped server answers no
request, as every TCP server here does.
"""

from __future__ import annotations

import http.client
import logging
import socket
from http.server import BaseHTTPRequestHandler
from typing import Any, Optional

from ..canonical import CanonicalError, wire_dumps, wire_loads
from . import Router, TransportError
from .tcp import MAX_FRAME, _Listener, _transport_error, parse_hostport

logger = logging.getLogger(__name__)


class HttpServer(_Listener):
    def __init__(self, host: str, port: int, router: Router) -> None:
        self._router = router
        super().__init__(host, port, "http-server")

    def _serve(self, sock: socket.socket, peer: tuple[str, int]) -> None:
        _HttpHandler(sock, peer, self)


class _HttpHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def _dispatch(self, method: str) -> None:
        body = None
        length = self.headers.get("Content-Length", "0")
        try:
            # ASCII digits only, capped: `int()` also takes "-1" (which reads
            # to the end of the stream), " 1_0 " and other scripts' digits.
            if not (length.isascii() and length.isdigit()) or int(length) > MAX_FRAME:
                raise CanonicalError(f"bad Content-Length {length!r}")
            if int(length):
                body = wire_loads(self.rfile.read(int(length)))
        except CanonicalError:
            self.close_connection = True
            self._reply(400, {"error": "malformed-request"})
            return
        try:
            status, obj = self.server._router(method, self.path, body)
        except Exception:
            logger.exception("router failed for %s %s", method, self.path)
            status, obj = 500, {"error": "internal"}
        self._reply(status, obj)

    def _reply(self, status: int, obj: dict) -> None:
        data = wire_dumps(obj)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def log_message(self, fmt: str, *args: Any) -> None:
        logger.debug("http %s", fmt % args)


class HttpJsonClient:
    """Minimal JSON-over-HTTP client matching the sim shim's interface; an
    answer that is not HTTP, or not empty or an object, is a TransportError."""

    def call(self, dest: str, method: str, path: str, body: Optional[dict],
             timeout_ms: int = 10_000, label: str = "") -> tuple[int, dict]:
        host, port = parse_hostport(dest)
        conn = http.client.HTTPConnection(host, port, timeout=max(timeout_ms, 1) / 1000.0)
        try:
            data = wire_dumps(body) if body is not None else None
            headers = {"Content-Type": "application/json"} if data else {}
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            return response.status, wire_loads(raw) if raw else {}
        except OSError as exc:
            raise _transport_error(exc, f"{method} {path} to {dest}") from exc
        except (CanonicalError, http.client.HTTPException) as exc:
            raise TransportError(f"{method} {path} to {dest}: {exc}") from exc
        finally:
            conn.close()
