"""Shared domain vocabulary: identities, readings, reports, lifecycle states.

All types here are immutable values; they can be copied freely between
concurrent activities. Timestamps are integer epoch milliseconds (UTC) taken
from a clock handle, never from an OS call inside domain logic, so the same
code runs identically under the wall clock and the harness virtual clock.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Optional

from . import canonical

# The quantities the reference hardware measures. Reports may carry any
# quantity name; these three are the ones the sensor presets know.
TEMPERATURE = "temperature"
HUMIDITY = "humidity"
PRESSURE = "pressure"


class DeviceKind(str, Enum):
    NODE = "node"
    MOTE = "mote"


class NodeState(str, Enum):
    IDLE = "idle"
    HEARTBEAT = "heartbeat"
    MONITORING = "monitoring"


# The only legal lifecycle edges. Reflexive transitions are illegal; Idle is
# reachable from anywhere in at most two hops (Monitoring -> Heartbeat -> Idle).
_LEGAL_TRANSITIONS = frozenset(
    {
        (NodeState.IDLE, NodeState.HEARTBEAT),
        (NodeState.HEARTBEAT, NodeState.MONITORING),
        (NodeState.MONITORING, NodeState.HEARTBEAT),
        (NodeState.HEARTBEAT, NodeState.IDLE),
    }
)


def legal_transition(current: NodeState, target: NodeState) -> bool:
    return (current, target) in _LEGAL_TRANSITIONS


class ModelError(ValueError):
    """Raised when wire or file data cannot be parsed into a domain value."""


@dataclass(frozen=True)
class DeviceIdentity:
    """A device as the rest of the system sees it: id, role, public key."""

    device_id: str
    kind: DeviceKind
    public_key_pem: str

    def __post_init__(self) -> None:
        if not self.device_id:
            raise ModelError("device_id must be non-empty")

    def to_obj(self) -> dict[str, Any]:
        return {
            "device_id": self.device_id,
            "kind": self.kind.value,
            "public_key_pem": self.public_key_pem,
        }

    @classmethod
    def from_obj(cls, obj: Any) -> "DeviceIdentity":
        _require_keys(obj, ("device_id", "kind", "public_key_pem"), "DeviceIdentity")
        try:
            kind = DeviceKind(obj["kind"])
        except ValueError as exc:
            raise ModelError(f"unknown device kind {obj['kind']!r}") from exc
        return cls(_require_str(obj, "device_id"), kind, _require_str(obj, "public_key_pem"))


@dataclass(frozen=True)
class SensorReading:
    """One timestamped measurement of one quantity from one device.

    `signature_b64`, when present, is the sampling device's detached
    signature over the reading's canonical bytes (signature field excluded).
    Mote readings carry it so the audit path survives relaying.
    """

    quantity: str
    value: float
    sampled_at: int
    source_device: str
    signature_b64: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))

    def dedup_key(self) -> tuple[str, str, int]:
        return (self.source_device, self.quantity, self.sampled_at)

    def core_obj(self) -> dict[str, Any]:
        """Reading without its signature; this is what the sampler signs."""
        return {
            "quantity": self.quantity,
            "sampled_at": canonical.format_millis(self.sampled_at),
            "source_device": self.source_device,
            "value": self.value,
        }

    def to_obj(self) -> dict[str, Any]:
        obj = self.core_obj()
        if self.signature_b64 is not None:
            obj["signature_b64"] = self.signature_b64
        return obj

    @classmethod
    def from_obj(cls, obj: Any) -> "SensorReading":
        _require_keys(obj, ("quantity", "sampled_at", "source_device", "value"), "SensorReading")
        value = obj["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ModelError(f"reading value must be numeric, got {value!r}")
        signature = obj.get("signature_b64")
        if signature is not None and not isinstance(signature, str):
            raise ModelError("signature_b64 must be a string when present")
        return cls(
            quantity=_require_str(obj, "quantity"),
            value=float(value),
            sampled_at=canonical.parse_millis(obj["sampled_at"]),
            source_device=_require_str(obj, "source_device"),
            signature_b64=signature,
        )


@dataclass(frozen=True)
class EventReport:
    """The ledger asset: who measured what, for which product batch, when."""

    report_id: str
    device_id: str
    product_id: str
    batch_no: str
    created_at: int
    readings: tuple[SensorReading, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "readings", tuple(self.readings))

    def to_obj(self) -> dict[str, Any]:
        return {
            "report_id": self.report_id,
            "device_id": self.device_id,
            "product_id": self.product_id,
            "batch_no": self.batch_no,
            "created_at": canonical.format_millis(self.created_at),
            "readings": [r.to_obj() for r in self.readings],
        }

    @classmethod
    def from_obj(cls, obj: Any) -> "EventReport":
        _require_keys(
            obj,
            ("report_id", "device_id", "product_id", "batch_no", "created_at", "readings"),
            "EventReport",
        )
        readings = obj["readings"]
        if not isinstance(readings, list):
            raise ModelError("readings must be a list")
        return cls(
            report_id=_require_str(obj, "report_id"),
            device_id=_require_str(obj, "device_id"),
            product_id=_require_str(obj, "product_id"),
            batch_no=_require_str(obj, "batch_no"),
            created_at=canonical.parse_millis(obj["created_at"]),
            readings=tuple(SensorReading.from_obj(r) for r in readings),
        )


def validate_report(report: EventReport) -> list[str]:
    """Evaluate every report invariant; returns the violated ones by name.

    Total function: an empty list means the report is acceptable. Uniqueness
    of report_id is ledger-wide and enforced at ingest, not here.
    """
    violations: list[str] = []
    if not report.report_id:
        violations.append("report_id non-empty")
    if not report.device_id:
        violations.append("device_id non-empty")
    if not report.readings:
        violations.append("readings non-empty")
    else:
        times = [r.sampled_at for r in report.readings]
        if any(b < a for a, b in zip(times, times[1:])):
            violations.append("readings sorted")
        if any(t > report.created_at for t in times):
            violations.append("readings within created_at")
        last_per_stream: dict[tuple[str, str], int] = {}
        strict_ok = True
        for r in report.readings:
            key = (r.source_device, r.quantity)
            prev = last_per_stream.get(key)
            if prev is not None and r.sampled_at <= prev:
                strict_ok = False
            last_per_stream[key] = r.sampled_at
        if not strict_ok:
            violations.append("readings strictly increasing per source and quantity")
        if any(not math.isfinite(r.value) for r in report.readings):
            violations.append("reading values finite")
    return violations


def new_report_id(device_id: str, created_at: int, counter: int) -> str:
    """Collision-free without coordination and sortable for debugging."""
    digest = hashlib.sha256(f"{device_id}:{counter}".encode("utf-8")).hexdigest()[:8]
    return f"{device_id}-{created_at}-{digest}"


@dataclass(frozen=True)
class MonitoringJob:
    """What to monitor and how often to sample and to report."""

    product_id: str
    batch_no: str
    sample_interval_ms: int
    report_interval_ms: int
    sensor_params: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sample_interval_ms <= 0:
            raise ModelError("sample_interval must be positive")
        if self.report_interval_ms < self.sample_interval_ms:
            raise ModelError("report_interval must be >= sample_interval")

    def enabled_quantities(self) -> tuple[str, ...]:
        return tuple(q for q, p in sorted(self.sensor_params.items()) if p.get("enabled"))

    def to_obj(self) -> dict[str, Any]:
        return {
            "product_id": self.product_id,
            "batch_no": self.batch_no,
            "sample_interval_ms": self.sample_interval_ms,
            "report_interval_ms": self.report_interval_ms,
            "sensor_params": {q: dict(p) for q, p in sorted(self.sensor_params.items())},
        }

    @classmethod
    def from_obj(cls, obj: Any) -> "MonitoringJob":
        _require_keys(
            obj,
            ("product_id", "batch_no", "sample_interval_ms", "report_interval_ms", "sensor_params"),
            "MonitoringJob",
        )
        params = obj["sensor_params"]
        if not isinstance(params, dict):
            raise ModelError("sensor_params must be an object")
        for q, p in params.items():
            if not isinstance(p, dict) or not isinstance(p.get("enabled", False), bool):
                raise ModelError(f"sensor_params[{q!r}] must carry a boolean 'enabled'")
        return cls(
            product_id=_require_str(obj, "product_id"),
            batch_no=_require_str(obj, "batch_no"),
            sample_interval_ms=_require_int(obj, "sample_interval_ms"),
            report_interval_ms=_require_int(obj, "report_interval_ms"),
            sensor_params={q: dict(p) for q, p in params.items()},
        )


@dataclass(frozen=True)
class HeartbeatMessage:
    """Periodic liveness/status beat; sequence survives restarts."""

    device_id: str
    state: NodeState
    sent_at: int
    sequence: int
    buffer_alarm: bool = False
    consecutive_submit_failures: int = 0

    def to_obj(self) -> dict[str, Any]:
        return {
            "device_id": self.device_id,
            "state": self.state.value,
            "sent_at": canonical.format_millis(self.sent_at),
            "sequence": self.sequence,
            "health": {
                "buffer_alarm": self.buffer_alarm,
                "consecutive_submit_failures": self.consecutive_submit_failures,
            },
        }

    def to_bytes(self) -> bytes:
        return canonical.dumps(self.to_obj())

    @classmethod
    def from_obj(cls, obj: Any) -> "HeartbeatMessage":
        _require_keys(obj, ("device_id", "state", "sent_at", "sequence", "health"), "HeartbeatMessage")
        health = obj["health"]
        if not isinstance(health, dict):
            raise ModelError("health must be an object")
        try:
            state = NodeState(obj["state"])
        except ValueError as exc:
            raise ModelError(f"unknown state {obj['state']!r}") from exc
        return cls(
            device_id=_require_str(obj, "device_id"),
            state=state,
            sent_at=canonical.parse_millis(obj["sent_at"]),
            sequence=_require_int(obj, "sequence"),
            buffer_alarm=bool(health.get("buffer_alarm", False)),
            consecutive_submit_failures=int(health.get("consecutive_submit_failures", 0)),
        )


def _require_keys(obj: Any, keys: Iterable[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise ModelError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ModelError(f"{what} missing fields: {', '.join(missing)}")


def _require_str(obj: dict[str, Any], key: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise ModelError(f"{key} must be a string, got {type(value).__name__}")
    return value


def _require_int(obj: dict[str, Any], key: str) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelError(f"{key} must be an integer, got {value!r}")
    return value


__all__ = [
    "TEMPERATURE",
    "HUMIDITY",
    "PRESSURE",
    "DeviceKind",
    "NodeState",
    "legal_transition",
    "ModelError",
    "DeviceIdentity",
    "SensorReading",
    "EventReport",
    "validate_report",
    "new_report_id",
    "MonitoringJob",
    "HeartbeatMessage",
]
