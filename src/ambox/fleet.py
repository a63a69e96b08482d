"""Operator control plane: heartbeat sink, fleet liveness view, and the
commissioning/decommissioning flows driven over the device control API.

The operator holds no secrets. Device keys are generated on-device; only the
public key flows through the operator to the ledger, and it is registered
before the device is touched, so a dead ledger leaves the device untouched.
The fleet view folds heartbeats into one fixed-size record per device as
they arrive and keeps no heartbeat, so it grows with the fleet, not with
time. Missed deadlines are evaluated against the clock when it is read.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .ledger import LedgerClient, LedgerClientError
from .model import DeviceIdentity, HeartbeatMessage, ModelError, NodeState, _require
from .transport import TransportError

logger = logging.getLogger(__name__)

DEFAULT_HEARTBEAT_TIMEOUT_MS = 30_000


class OperatorError(Exception):
    pass


class DeviceUnreachable(OperatorError):
    pass


class DeviceIllegalState(OperatorError):
    pass


class LedgerUnreachable(OperatorError):
    pass


class MalformedMessage(OperatorError):
    pass


@dataclass
class DeviceView:
    last_heartbeat_at: int
    reported_state: str
    sequence: int
    buffer_alarm: bool
    consecutive_submit_failures: int
    timeout_ms: int
    missed_deadline: bool = False
    # Not part of the /fleet answer: the liveness check's inputs.
    beats: int = 1
    max_gap_ms: Optional[int] = None

    def to_obj(self) -> dict[str, Any]:
        return {
            "last_heartbeat_at": self.last_heartbeat_at,
            "reported_state": self.reported_state,
            "sequence": self.sequence,
            "buffer_alarm": self.buffer_alarm,
            "consecutive_submit_failures": self.consecutive_submit_failures,
            "timeout_ms": self.timeout_ms,
            "missed_deadline": self.missed_deadline,
        }


@dataclass
class FleetStats:
    heartbeats_accepted: int = 0
    heartbeats_ignored: int = 0
    heartbeats_malformed: int = 0


class OperatorCore:
    """Heartbeat ingestion and the materialized fleet view."""

    def __init__(self, clock: Callable[[], int],
                 default_timeout_ms: int = DEFAULT_HEARTBEAT_TIMEOUT_MS) -> None:
        self._clock = clock
        self._default_timeout_ms = default_timeout_ms
        self._lock = threading.Lock()
        self._devices: dict[str, DeviceView] = {}
        self._timeouts: dict[str, int] = {}
        self.stats = FleetStats()

    def set_device_timeout(self, device_id: str, timeout_ms: int) -> None:
        with self._lock:
            self._timeouts[device_id] = timeout_ms
            view = self._devices.get(device_id)
            if view is not None:
                view.timeout_ms = timeout_ms

    def ingest_heartbeat(self, obj: Any) -> None:
        try:
            message = HeartbeatMessage.from_obj(obj)
        except ModelError as exc:
            self.stats.heartbeats_malformed += 1
            raise MalformedMessage(str(exc)) from exc
        with self._lock:
            view = self._devices.get(message.device_id)
            if view is not None and message.sequence <= view.sequence:
                self.stats.heartbeats_ignored += 1
                return
            self.stats.heartbeats_accepted += 1
            beats, max_gap = 1, None
            if view is not None:
                gap = message.sent_at - view.last_heartbeat_at
                beats = view.beats + 1
                max_gap = gap if view.max_gap_ms is None else max(view.max_gap_ms, gap)
            self._devices[message.device_id] = DeviceView(
                last_heartbeat_at=message.sent_at,
                reported_state=message.state.value,
                sequence=message.sequence,
                buffer_alarm=message.buffer_alarm,
                consecutive_submit_failures=message.consecutive_submit_failures,
                timeout_ms=self._timeouts.get(message.device_id, self._default_timeout_ms),
                beats=beats,
                max_gap_ms=max_gap,
            )

    def fleet(self, now_ms: Optional[int] = None) -> dict[str, DeviceView]:
        """Snapshot with missed-deadline flags evaluated at query time."""
        now = self._clock() if now_ms is None else now_ms
        with self._lock:
            out: dict[str, DeviceView] = {}
            for device_id, view in sorted(self._devices.items()):
                missed = now - view.last_heartbeat_at > view.timeout_ms
                out[device_id] = DeviceView(**{**view.__dict__, "missed_deadline": missed})
            return out

    # -- HTTP-ish router --------------------------------------------------------

    def router(self, method: str, path: str, body: Optional[dict]) -> tuple[int, dict]:
        if method == "POST" and path == "/heartbeat":
            try:
                self.ingest_heartbeat(body)
            except MalformedMessage as exc:
                return 400, {"error": "malformed-message", "detail": str(exc)}
            return 200, {"status": "ok"}
        if method == "GET" and path == "/fleet":
            view = self.fleet()
            return 200, {device_id: v.to_obj() for device_id, v in view.items()}
        return 404, {"error": "unknown-endpoint"}


# -- commissioning / decommissioning flows ------------------------------------


@dataclass
class CommissionPlan:
    device_dest: str              # transport destination of the device control API
    heartbeat_address: str        # where the device should send heartbeats
    heartbeat_port: int
    heartbeat_timeout_ms: int
    ledger_address: str           # where the device should submit reports
    ledger_port: int
    channel_name: str = "ambox"
    chaincode_name: str = "events"


def fetch_identity(control_caller, device_dest: str,
                   timeout_ms: int = 5000) -> tuple[DeviceIdentity, dict]:
    """The device's identity and its whole /identity answer, in which each
    drain depth field, if given, is an integer; MalformedMessage otherwise."""
    try:
        status, body = control_caller.call(device_dest, "GET", "/identity", None,
                                           timeout_ms=timeout_ms, label="GET /identity")
    except TransportError as exc:
        raise DeviceUnreachable(f"{device_dest}: {exc}") from exc
    if status != 200:
        raise DeviceUnreachable(f"{device_dest}: /identity returned {status}")
    try:
        for key in ("buffer_depth", "window_size"):
            _require(body, key, int, 0)
        return DeviceIdentity.from_obj(body), body
    except ModelError as exc:
        raise MalformedMessage(f"{device_dest}: /identity: {exc}") from exc


def _post(control_caller, device_dest: str, path: str, body: dict) -> None:
    try:
        status, response = control_caller.call(device_dest, "POST", path, body,
                                               label=f"POST {path}")
    except TransportError as exc:
        raise DeviceUnreachable(f"{device_dest}: {exc}") from exc
    if status != 200:
        raise DeviceIllegalState(f"{path} -> {status}: {response}")


def commission(control_caller, ledger_client: LedgerClient, plan: CommissionPlan,
               operator: Optional[OperatorCore] = None) -> dict:
    """Configure, register, and activate a device; idempotent end to end.

    Order matters: the public key is registered at the ledger before any
    device mutation, so a ledger failure leaves the device untouched.
    """
    identity, identity_obj = fetch_identity(control_caller, plan.device_dest)
    state = identity_obj.get("state")
    if state == NodeState.MONITORING.value:
        raise DeviceIllegalState(f"{identity.device_id} is monitoring")
    try:
        ledger_client.register_device(identity)
    except TransportError as exc:
        raise LedgerUnreachable(str(exc)) from exc
    except LedgerClientError as exc:
        raise OperatorError(f"ledger refused {identity.device_id}: {exc}") from exc

    _post(control_caller, plan.device_dest, "/configHeartbeat", {
        "ipaddr": plan.heartbeat_address,
        "port": plan.heartbeat_port,
        "heartbeat_timeout_ms": plan.heartbeat_timeout_ms,
    })
    _post(control_caller, plan.device_dest, "/configBlockchain", {
        "ipaddr": plan.ledger_address,
        "port": plan.ledger_port,
        "channel_name": plan.channel_name,
        "chaincode_name": plan.chaincode_name,
    })
    if state == NodeState.IDLE.value:
        _post(control_caller, plan.device_dest, "/init", {})
    if operator is not None:
        operator.set_device_timeout(identity.device_id, plan.heartbeat_timeout_ms)
    return identity_obj


def start_monitoring(control_caller, device_dest: str, job_body: dict) -> None:
    _post(control_caller, device_dest, "/startMonitoring", job_body)


def stop_monitoring(control_caller, device_dest: str) -> None:
    _post(control_caller, device_dest, "/stopMonitoring", {})


def decommission(control_caller, device_dest: str, runtime,
                 ledger_client: Optional[LedgerClient] = None,
                 drain_poll_ms: int = 10_000, drain_wait_ms: int = 600_000) -> dict:
    """Stop monitoring and confirm the device drained its buffer.

    Returns a summary including the device's latest ledger report id when a
    ledger client is available.
    """
    identity, identity_obj = fetch_identity(control_caller, device_dest)
    if identity_obj.get("state") == NodeState.MONITORING.value:
        stop_monitoring(control_caller, device_dest)
    deadline = runtime.now_ms() + drain_wait_ms
    depth = None
    while runtime.now_ms() < deadline:
        _, info = fetch_identity(control_caller, device_dest)
        depth = info.get("buffer_depth", 0) + info.get("window_size", 0)
        if depth == 0:
            break
        runtime.sleep(drain_poll_ms)
    summary: dict[str, Any] = {
        "device_id": identity.device_id,
        "drained": depth == 0,
    }
    if ledger_client is not None:
        try:
            recent = ledger_client.get_recent(device_id=identity.device_id, limit=1)
            summary["latest_report_id"] = recent[0].report_id if recent else None
        except TransportError as exc:
            summary["latest_report_id"] = None
            summary["ledger_error"] = str(exc)
    return summary
