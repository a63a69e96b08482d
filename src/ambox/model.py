"""Shared domain vocabulary: identities, readings, reports, lifecycle states.

All types here are immutable values; they can be copied freely between
concurrent activities. Timestamps are integer epoch milliseconds (UTC) taken
from a clock handle, never from an OS call inside domain logic, so the same
code runs identically under the wall clock and the harness virtual clock.

Readings and reports are tuple records (`typing.NamedTuple`s whose
constructor and `_replace` make `value` a float and `readings` a tuple), so
they cannot be changed after they are built. Every reading, alone or in a
report, is decoded by one function and encoded by one; within a report each
distinct timestamp is parsed or formatted once. The one decoder takes a
report's fields and its whole readings list in one pass, reading in place a
report or reading whose fields have their exact JSON types, and builds each
record with one C-level tuple construction, no Python call per reading. The
ledger judges a signed payload with `judge_report`, which applies the
decoder's rules and `validate_report`'s invariants to the decoder's untyped
rows, building no record, and one rule that only a payload can break: no
value in it nests deeper than `MAX_NESTING` levels. The ledger encodes no
report: it serves each one as the payload it committed.

One reader rule: every field AmBox takes in from a file, a peer or an
operator is typed by `_require` where it enters, never converted to fit. A
bool is never an integer or a number, a number is a finite int or float,
and every refusal is a ModelError, which each caller answers its own way.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
from dataclasses import dataclass, field
from enum import Enum, EnumMeta
from typing import Any, Iterable, NamedTuple, Optional, Sequence

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
        return cls(_require(obj, "device_id", str), _require(obj, "kind", DeviceKind),
                   _require(obj, "public_key_pem", str))


class _ReadingFields(NamedTuple):
    quantity: str
    value: float
    sampled_at: int
    source_device: str
    signature_b64: Optional[str] = None


class SensorReading(_ReadingFields):
    """One timestamped measurement of one quantity from one device.

    `signature_b64`, when present, is the sampling device's detached
    signature over the reading's canonical bytes (signature field excluded).
    Mote readings carry it so the audit path survives relaying.
    """

    __slots__ = ()

    def __new__(cls, quantity: str, value: float, sampled_at: int, source_device: str,
                signature_b64: Optional[str] = None) -> "SensorReading":
        return _new_record(cls, (quantity, float(value), sampled_at, source_device,
                                 signature_b64))

    @classmethod
    def _make(cls, fields: Iterable[Any]) -> "SensorReading":
        # `_replace` builds through here: a replaced value is a float too.
        return cls(*fields)

    def core_obj(self) -> dict[str, Any]:
        """Reading without its signature; this is what the sampler signs."""
        return _encode_reading(self, {}, signed=False)

    def to_obj(self) -> dict[str, Any]:
        return _encode_reading(self, {}, signed=True)

    @classmethod
    def from_obj(cls, obj: Any, signature_b64: Optional[str] = None) -> "SensorReading":
        """A given `signature_b64` (a relayed reading's) replaces the one in `obj`."""
        (row,) = _decode_readings([obj], {})
        if signature_b64 is not None:
            row = row[:4] + (signature_b64,)
        return _new_record(cls, row)


class _ReportFields(NamedTuple):
    report_id: str
    device_id: str
    product_id: str
    batch_no: str
    created_at: int
    readings: tuple[SensorReading, ...]


class EventReport(_ReportFields):
    """The ledger asset: who measured what, for which product batch, when."""

    __slots__ = ()

    def __new__(cls, report_id: str, device_id: str, product_id: str, batch_no: str,
                created_at: int, readings: Iterable[SensorReading]) -> "EventReport":
        return _new_record(cls, (report_id, device_id, product_id, batch_no, created_at,
                                 tuple(readings)))

    @classmethod
    def _make(cls, fields: Iterable[Any]) -> "EventReport":
        # `_replace` builds through here: replaced readings are a tuple too.
        return cls(*fields)

    def to_obj(self) -> dict[str, Any]:
        stamps: dict[int, str] = {}
        return {
            "report_id": self.report_id,
            "device_id": self.device_id,
            "product_id": self.product_id,
            "batch_no": self.batch_no,
            "created_at": _format_instant(self.created_at, stamps),
            "readings": [_encode_reading(r, stamps, signed=True) for r in self.readings],
        }

    @classmethod
    def from_obj(cls, obj: Any) -> "EventReport":
        """The report a parsed report object holds, or ModelError."""
        report_id, device_id, product_id, batch_no, created_at, rows = _decode_report(obj)
        return _new_record(cls, (report_id, device_id, product_id, batch_no, created_at,
                                 tuple(map(_typed_reading, rows))))


# A record's fields, taken as they are: what the decoder builds records with,
# once its checks have typed each field. The constructors convert, then call it.
_new_record = tuple.__new__
_typed_reading = functools.partial(_new_record, SensorReading)

_READING_FIELDS = ("quantity", "sampled_at", "source_device", "value")
_REPORT_FIELDS = ("report_id", "device_id", "product_id", "batch_no", "created_at", "readings")


def _decode_report(obj: Any) -> tuple[str, str, str, str, int, list[tuple]]:
    """A report object's id, device, product, batch, `created_at` and its
    readings' rows (see `_decode_readings`), or ModelError: the one report
    decoder, which `EventReport.from_obj` and `judge_report` share. Each
    distinct instant in the report is parsed once.

    A report whose six fields have their exact JSON types is read in place,
    as `_decode_readings` reads a reading. Any other is checked field by
    field, so a refusal keeps its message and precedence."""
    if type(obj) is dict:
        try:
            report_id, device_id, product_id = obj["report_id"], obj["device_id"], obj["product_id"]
            batch_no, stamp, readings = obj["batch_no"], obj["created_at"], obj["readings"]
        except KeyError:
            pass                                # refused below, naming each missing field
        else:
            if (type(readings) is list and type(report_id) is str and type(device_id) is str
                    and type(product_id) is str and type(batch_no) is str and type(stamp) is str):
                instants = {stamp: canonical.parse_millis(stamp)}
                return (report_id, device_id, product_id, batch_no, instants[stamp],
                        _decode_readings(readings, instants))
    _require_keys(obj, _REPORT_FIELDS, "EventReport")
    readings = obj["readings"]
    if not isinstance(readings, list):
        raise ModelError("readings must be a list")
    instants: dict[str, int] = {}
    return (_require(obj, "report_id", str), _require(obj, "device_id", str),
            _require(obj, "product_id", str), _require(obj, "batch_no", str),
            _parse_instant(obj["created_at"], instants), _decode_readings(readings, instants))


def _decode_readings(readings: list, instants: dict[str, int]) -> list[tuple]:
    """The one reading decoder: each reading object's row, its quantity,
    value, instant, source and signature in `SensorReading`'s field order,
    in list order; or ModelError. `instants` memoizes timestamps.

    A reading whose fields all have their exact JSON types is read in place.
    Any other goes through `_reading_fields`, so a refusal keeps its
    exception, message and precedence. The rows are plain tuples, so the
    ledger's judge reads a report's readings without typing them."""
    rows: list[tuple] = []
    append = rows.append
    for obj in readings:
        if type(obj) is dict:
            try:
                quantity, stamp = obj["quantity"], obj["sampled_at"]
                source_device, value = obj["source_device"], obj["value"]
            except KeyError:
                pass                            # refused below, naming each missing field
            else:
                signature = None if len(obj) == 4 else obj.get("signature_b64")
                if (type(value) is float and type(quantity) is str and type(source_device) is str
                        and type(stamp) is str and (signature is None or type(signature) is str)):
                    # The field checks would pass up to the instant, so its
                    # refusal, if any, is theirs too.
                    sampled_at = instants.get(stamp)
                    if sampled_at is None:
                        sampled_at = instants[stamp] = canonical.parse_millis(stamp)
                    append((quantity, value, sampled_at, source_device, signature))
                    continue
        append(_reading_fields(obj, instants))
    return rows


def _reading_fields(obj: Any, instants: dict[str, int]) -> tuple:
    """A reading object's quantity, value, instant, source and signature, or
    ModelError, checked field by field: the path of any reading that
    `_decode_readings` cannot read in place."""
    if not isinstance(obj, dict):
        raise ModelError(f"SensorReading must be a JSON object, got {type(obj).__name__}")
    try:
        quantity, stamp = obj["quantity"], obj["sampled_at"]
        source_device, value = obj["source_device"], obj["value"]
    except KeyError:
        _require_keys(obj, _READING_FIELDS, "SensorReading")  # raises, naming each one
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"reading value must be numeric, got {value!r}")
    signature = obj.get("signature_b64")
    if signature is not None and not isinstance(signature, str):
        raise ModelError("signature_b64 must be a string when present")
    # This order decides which error a reading with several faults raises.
    if not isinstance(quantity, str):
        _require(obj, "quantity", str)
    value = float(value)
    sampled_at = _parse_instant(stamp, instants)
    if not isinstance(source_device, str):
        _require(obj, "source_device", str)
    return quantity, value, sampled_at, source_device, signature


def _encode_reading(reading: SensorReading, stamps: dict[int, str],
                    signed: bool) -> dict[str, Any]:
    """The one reading encoder; `stamps` memoizes instants across a report."""
    obj = {
        "quantity": reading.quantity,
        "sampled_at": _format_instant(reading.sampled_at, stamps),
        "source_device": reading.source_device,
        "value": reading.value,
    }
    if signed and reading.signature_b64 is not None:
        obj["signature_b64"] = reading.signature_b64
    return obj


def _parse_instant(text: Any, instants: dict[str, int]) -> int:
    # Only a string is a memo key; parse_millis refuses anything else unhashed.
    ms = instants.get(text) if isinstance(text, str) else None
    if ms is None:
        ms = instants[text] = canonical.parse_millis(text)
    return ms


def _format_instant(ms: int, stamps: dict[int, str]) -> str:
    # Only an int is a memo key: True or 1.0 would find 1's string, not an error.
    text = stamps.get(ms) if type(ms) is int else None
    if text is None:
        text = stamps[ms] = canonical.format_millis(ms)
    return text


def decode_report(payload: bytes) -> EventReport:
    """The report in a signed payload, or a ModelError; whether it is
    acceptable is `validate_report`'s answer, asked at each trust boundary."""
    try:
        return EventReport.from_obj(canonical.loads(payload))
    except (ValueError, OverflowError) as exc:
        raise ModelError(str(exc)) from exc


class JudgedReport(NamedTuple):
    """What `judge_report` finds in a signed payload without building it."""

    report_id: str
    device_id: str
    batch_no: str
    created_at: int
    violations: list[str]


def judge_report(payload: bytes) -> JudgedReport:
    """`validate_report(decode_report(payload))` and the report's index
    fields, in one pass over the parsed payload through the report decoder,
    over its untyped rows: ModelError for exactly the payloads
    `decode_report` refuses. One more rule holds for a payload, which a
    record cannot break, as it keeps no key beyond its fields: no value in
    it nests deeper than `MAX_NESTING` levels."""
    try:
        obj = canonical.loads(payload)
        report_id, device_id, _, batch_no, created_at, rows = _decode_report(obj)
    except (ValueError, OverflowError) as exc:
        raise ModelError(str(exc)) from exc
    violations = _violations(report_id, device_id, created_at, rows)
    if _nests_too_deep(obj):
        violations.append(_TOO_DEEP)
    return JudgedReport(report_id, device_id, batch_no, created_at, violations)


# How deep the values of a signed payload may nest, the report object being
# the first level: far below the parser's limit, so a committed report can
# be sent inside any answer and parsed again.
MAX_NESTING = 32
_TOO_DEEP = f"values nested at most {MAX_NESTING} levels deep"
_READING_KEYS = frozenset(_READING_FIELDS + ("signature_b64",))


def _nests_too_deep(report: dict) -> bool:
    """Whether a value in a report object the decoder read nests deeper
    than `MAX_NESTING` levels. Its fields and its readings' fields have
    scalar types, so only values under other keys are walked; a reading
    without such a key costs a length check."""
    if len(report) > len(_REPORT_FIELDS) and any(
            _deeper(value, MAX_NESTING - 1)             # the report
            for key, value in report.items() if key not in _REPORT_FIELDS):
        return True
    readings = report["readings"]
    if not readings or max(map(len, readings)) <= len(_READING_FIELDS):
        return False
    return any(_deeper(value, MAX_NESTING - 3)     # the report, its readings, the reading
               for reading in readings
               if len(reading) > len(_READING_FIELDS) + ("signature_b64" in reading)
               for key, value in reading.items() if key not in _READING_KEYS)


def _deeper(value: Any, levels: int) -> bool:
    """Whether `value` is an array or object nested more than `levels`
    levels deep, itself being the first; it is walked no deeper than that."""
    if type(value) is dict:
        value = value.values()
    elif type(value) is not list:
        return False
    return levels <= 0 or any(_deeper(item, levels - 1) for item in value)


def validate_report(report: EventReport) -> list[str]:
    """Evaluate every report invariant; returns the violated ones by name.

    Total function: an empty list means the report is acceptable. Uniqueness
    of report_id is ledger-wide and enforced at ingest, not here.
    """
    return _violations(report.report_id, report.device_id, report.created_at, report.readings)


def _violations(report_id: str, device_id: str, created_at: int,
                readings: Sequence[tuple]) -> list[str]:
    """The report invariants over its readings in report order, each a
    `SensorReading` or the decoder's row of the same fields: the one
    definition that both `validate_report` and `judge_report` apply."""
    violations: list[str] = []
    if not report_id:
        violations.append("report_id non-empty")
    if not device_id:
        violations.append("device_id non-empty")
    if not readings:
        violations.append("readings non-empty")
    else:
        quantities, values, times, sources, _ = zip(*readings)
        ordered = sorted(times)
        in_order = list(times) == ordered
        if not in_order:
            violations.append("readings sorted")
        if ordered[-1] > created_at:
            violations.append("readings within created_at")
        if ordered[0] < 0:
            violations.append("readings at or after 1970-01-01")
        if in_order:
            # In time order, a stream's times increase strictly unless one repeats.
            strict_ok = len(set(zip(sources, quantities, times))) == len(times)
        else:
            last_per_stream: dict[tuple[str, str], int] = {}
            strict_ok = True
            for stream, t in zip(zip(sources, quantities), times):
                prev = last_per_stream.get(stream)
                if prev is not None and t <= prev:
                    strict_ok = False
                last_per_stream[stream] = t
        if not strict_ok:
            violations.append("readings strictly increasing per source and quantity")
        if not all(map(math.isfinite, values)):
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
        return cls(
            product_id=_require(obj, "product_id", str),
            batch_no=_require(obj, "batch_no", str),
            sample_interval_ms=_require(obj, "sample_interval_ms", int),
            report_interval_ms=_require(obj, "report_interval_ms", int),
            sensor_params=_check_sensor_params(obj["sensor_params"]),
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

    @classmethod
    def from_obj(cls, obj: Any) -> "HeartbeatMessage":
        """An absent health field keeps its default."""
        _require_keys(obj, ("device_id", "state", "sent_at", "sequence", "health"), "HeartbeatMessage")
        health = _require(obj, "health", dict)
        try:
            sent_at = canonical.parse_millis(_require(obj, "sent_at", str))
        except canonical.CanonicalError as exc:
            raise ModelError(f"sent_at: {exc}") from exc
        return cls(
            device_id=_require(obj, "device_id", str),
            state=_require(obj, "state", NodeState),
            sent_at=sent_at,
            sequence=_require(obj, "sequence", int),
            buffer_alarm=_require(health, "buffer_alarm", bool, False),
            consecutive_submit_failures=_require(health, "consecutive_submit_failures", int, 0),
        )


def _check_sensor_params(params: Any) -> dict[str, dict[str, Any]]:
    """A copy of a job's `sensor_params`, an object of objects, each
    `enabled`, if given, a bool; or ModelError."""
    return _objects_of(params, "sensor_params", {"enabled": bool})


def _check_sensor_overrides(sensors: Any) -> dict[str, dict[str, Any]]:
    """A copy of a device's sensor overrides, an object of objects, each
    field `sensors.merged_spec` reads, if given, a finite number; or
    ModelError. The rule is here because a ledger process loads no `sensors`."""
    return _objects_of(sensors, "sensors", dict.fromkeys(
        ("range_min", "range_max", "accuracy", "noise_amplitude", "bias_constant"), _NUMBER))


def _objects_of(obj: Any, what: str, fields: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """A copy of `obj`, an object of objects, each of its `fields`, if
    given, of its kind (see `_require`); or ModelError."""
    _require_keys(obj, (), what)
    for name, entry in obj.items():
        _require_keys(entry, (), f"{what}[{name!r}]")
        try:
            for key, kind in fields.items():
                _require(entry, key, kind, None)
        except ModelError as exc:
            raise ModelError(f"{what}[{name!r}]: {exc}") from None
    return {name: dict(entry) for name, entry in obj.items()}


def _require_keys(obj: Any, keys: Iterable[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise ModelError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ModelError(f"{what} missing fields: {', '.join(missing)}")


# The kind of a number field: an int or a float, finite, and never a bool.
_NUMBER = (int, float)
_KIND_NAMES = {str: "a string", int: "an integer", bool: "a boolean", dict: "an object",
               list: "an array", _NUMBER: "a finite number"}
_ABSENT = object()


def _require(obj: dict[str, Any], key: str, kind: Any, default: Any = _ABSENT) -> Any:
    """`obj[key]` if it is of `kind` (a key of `_KIND_NAMES`), or the member
    of `kind`, an Enum, that it is the value of; `default` if `obj` has no
    `key` and a default is given; ModelError otherwise, never a conversion."""
    value = obj.get(key, _ABSENT)
    if type(value) is kind:
        return value
    if value is _ABSENT:
        if default is _ABSENT:
            raise ModelError(f"missing field {key}")
        return default
    if isinstance(kind, EnumMeta):
        if type(value) is str:
            try:
                return kind(value)
            except ValueError:
                pass
        raise ModelError(f"{key} must be one of {', '.join(m.value for m in kind)}, got {value!r}")
    if kind is _NUMBER:
        # A NaN fails the comparison; an int too large for a float passes no float bound.
        if type(value) in _NUMBER and abs(value) <= sys.float_info.max:
            return value
    elif isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ModelError(f"{key} must be {_KIND_NAMES[kind]}, got {type(value).__name__}")


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
    "decode_report",
    "JudgedReport",
    "judge_report",
    "validate_report",
    "new_report_id",
    "MonitoringJob",
    "HeartbeatMessage",
]
