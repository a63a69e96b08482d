"""JSON control-plane calls that ride either transport backend.

Under real sockets the control API and heartbeat sink are plain HTTP. Under
the simulated network the same method/path/body exchange is tunneled through
one wide-area request frame, so fault windows and latency apply identically.
Agents see a single `call(dest, method, path, body)` interface either way.
"""

from __future__ import annotations

import json
from typing import Callable, Optional, Protocol

from .transport import RequestClient

# A router maps (method, path, body) to (status, response object).
Router = Callable[[str, str, Optional[dict]], tuple[int, dict]]


class JsonCaller(Protocol):
    def call(self, dest: str, method: str, path: str, body: Optional[dict],
             timeout_ms: int = 10_000, label: str = "") -> tuple[int, dict]: ...


class ShimHttpClient:
    """HTTP-shaped exchanges over a framed RequestClient (sim or TCP)."""

    def __init__(self, requester: RequestClient) -> None:
        self._requester = requester

    def call(self, dest: str, method: str, path: str, body: Optional[dict],
             timeout_ms: int = 10_000, label: str = "") -> tuple[int, dict]:
        payload = json.dumps(
            {"method": method, "path": path, "body": body}, sort_keys=True
        ).encode("utf-8")
        response = self._requester.request(
            dest, payload, timeout_ms, label=label or f"{method} {path}"
        )
        obj = json.loads(response.decode("utf-8"))
        return int(obj["status"]), obj.get("body") or {}


def shim_server_handler(router: Router) -> Callable[[str, bytes], bytes]:
    """Adapt a router to the framed-transport server side."""

    def handle(src: str, payload: bytes) -> bytes:
        try:
            obj = json.loads(payload.decode("utf-8"))
            if not isinstance(obj, dict):
                raise ValueError("request must be an object")
            method = str(obj["method"])
            path = str(obj["path"])
            body = obj.get("body")
            if body is not None and not isinstance(body, dict):
                raise ValueError("body must be an object")
        except (ValueError, KeyError, RecursionError):
            return json.dumps({"status": 400, "body": {"error": "malformed-request"}}).encode()
        status, response = router(method, path, body)
        return json.dumps({"status": status, "body": response}, sort_keys=True).encode("utf-8")

    return handle
