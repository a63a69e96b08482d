"""JSON control-plane calls that ride either transport backend.

Under real sockets the control API and heartbeat sink are plain HTTP. Under
the simulated network the same method/path/body exchange is tunneled through
one wide-area request frame, so fault windows and latency apply identically.
Agents see a single `call(dest, method, path, body)` interface either way.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from .canonical import wire_dumps, wire_loads
from .model import _require
from .transport import RequestClient, Router, TransportError


class JsonCaller(Protocol):
    def call(self, dest: str, method: str, path: str, body: Optional[dict],
             timeout_ms: int = 10_000, label: str = "") -> tuple[int, dict]: ...


class ShimHttpClient:
    """HTTP-shaped exchanges over a framed RequestClient (sim or TCP); an
    answer without an integer status and an object body is a TransportError."""

    def __init__(self, requester: RequestClient) -> None:
        self._requester = requester

    def call(self, dest: str, method: str, path: str, body: Optional[dict],
             timeout_ms: int = 10_000, label: str = "") -> tuple[int, dict]:
        payload = wire_dumps({"method": method, "path": path, "body": body})
        response = self._requester.request(
            dest, payload, timeout_ms, label=label or f"{method} {path}"
        )
        try:
            obj = wire_loads(response)
            status, answer = _require(obj, "status", int), _require(obj, "body", dict)
        except ValueError as exc:
            raise TransportError(f"{method} {path} to {dest}: misshapen answer: {exc}") from exc
        return status, answer


def shim_server_handler(router: Router) -> Callable[[str, bytes], bytes]:
    """Adapt a router to the framed-transport server side."""

    def handle(src: str, payload: bytes) -> bytes:
        try:
            obj = wire_loads(payload)
            method, path = _require(obj, "method", str), _require(obj, "path", str)
            body = None if obj.get("body") is None else _require(obj, "body", dict)
        except ValueError:
            return wire_dumps({"status": 400, "body": {"error": "malformed-request"}})
        status, response = router(method, path, body)
        return wire_dumps({"status": status, "body": response})

    return handle
