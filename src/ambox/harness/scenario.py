"""Scenario files: declarative topology, faults, job, and named checks.

Durations in a scenario file may be written with an `_ms`, `_s`, or `_min`
suffix; everything is normalized to virtual milliseconds at load time.
`time_scale` is real seconds per virtual second: 0 runs the scheduler as
fast as possible, the CI default of one virtual minute per 50 real
milliseconds is 0.05/60.

A scenario file is checked whole at load by `model`'s reader rule, sensor
overrides and each assertion's parameters included, and any refusal is a
ScenarioError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Optional

from .. import canonical
from ..model import (_NUMBER, ModelError, _check_sensor_overrides, _check_sensor_params,
                     _require, _require_keys)
from ..transport import LinkClass
from ..transport.faults import FaultSchedule, FaultWindow
from .checks import CHECK_PARAMS, DURATION, REQUIRED

SCENARIO_SCHEMA = 1


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class DeviceSpec:
    device_id: str
    kind: str                       # "node" | "mote"
    paired_node: Optional[str] = None
    sensors: dict[str, dict] = field(default_factory=dict)


@dataclass(frozen=True)
class LinkSpec:
    name: str
    a: str
    b: str
    link_class: LinkClass = LinkClass.WIDE_AREA
    base_latency_ms: int = 0


@dataclass(frozen=True)
class Scenario:
    name: str
    span_ms: int
    devices: tuple[DeviceSpec, ...]
    links: tuple[LinkSpec, ...]
    faults: FaultSchedule
    job: Optional[dict] = None      # /startMonitoring body (ms-normalized)
    assertions: tuple[dict, ...] = ()   # each as `_assertion` types it
    time_scale: float = 0.0
    drain_margin_ms: int = 180_000
    heartbeat_timeout_ms: int = 30_000
    trace_path: Optional[str] = None

    def validate(self) -> None:
        ids = [d.device_id for d in self.devices]
        if len(set(ids)) != len(ids):
            raise ScenarioError("duplicate device ids")
        link_names = {l.name for l in self.links}
        for window in self.faults.windows():
            if window.link not in link_names:
                raise ScenarioError(f"fault window targets unknown link {window.link!r}")
        for device in self.devices:
            if device.kind == "mote" and device.paired_node not in ids:
                raise ScenarioError(f"mote {device.device_id!r} has no valid paired_node")
        if self.span_ms <= 0:
            raise ScenarioError("span must be positive")


_DUR_UNITS = (("_ms", 1), ("_s", 1000), ("_min", 60_000))


def _dur(obj: dict, base: str, default: Optional[int] = None) -> int:
    """The duration `base` in whole milliseconds, from whichever unit's key
    `obj` holds, or `default`; ModelError if none and no default."""
    for suffix, factor in _DUR_UNITS:
        key = base + suffix
        if key in obj:
            return int(_require(obj, key, _NUMBER) * factor)
    if default is None:
        raise ModelError(f"missing duration {base}_ms|_s|_min")
    return default


def _objects(obj: dict, key: str) -> list[dict]:
    """The array `obj[key]` (empty if absent), each of whose items is an object."""
    items = _require(obj, key, list, [])
    for item in items:
        _require_keys(item, (), f"each of {key}")
    return items


def _job_body(obj: Any) -> dict:
    _require_keys(obj, ("prod_id", "batch_no", "sensor_params"), "job")
    return {
        "prod_id": _require(obj, "prod_id", str),
        "batch_no": _require(obj, "batch_no", str),
        "sample_interval_ms": _dur(obj, "sample_interval"),
        "report_interval_ms": _dur(obj, "report_interval"),
        "sensor_params": _check_sensor_params(obj["sensor_params"]),
    }


def _fault_windows(raw: list[dict]) -> FaultSchedule:
    return FaultSchedule([
        FaultWindow(
            link=_require(obj, "link", str),
            start_ms=_dur(obj, "start"),
            end_ms=_dur(obj, "end"),
            mode=_require(obj, "mode", str, "down"),
            latency_ms=_require(obj, "latency_ms", int, 0),
        )
        for obj in raw
    ])


def _assertion(obj: dict) -> dict:
    """The assertion `obj`: its check's name, and each parameter the check
    declares, typed, with its default if `obj` does not give it. An unknown
    check or parameter is refused."""
    name = _require(obj, "check", str)
    if name not in CHECK_PARAMS:
        raise ModelError(f"unknown check {name!r}")
    typed: dict[str, Any] = {"check": name}
    keys = {"check"}
    for param in CHECK_PARAMS[name]:
        if param.kind is DURATION:
            keys.update(param.name + suffix for suffix, _ in _DUR_UNITS)
            typed[param.name + "_ms"] = _dur(obj, param.name,
                                             None if param.default is REQUIRED else param.default)
        else:
            keys.add(param.name)
            typed[param.name] = _require(obj, param.name, param.kind, param.default)
    unknown = sorted(obj.keys() - keys)
    if unknown:
        raise ModelError(f"check {name} has no parameter {', '.join(unknown)}")
    return typed


def _link(obj: dict) -> LinkSpec:
    between = _require(obj, "between", list)
    if len(between) != 2 or not all(isinstance(end, str) for end in between):
        raise ModelError("between must be an array of two strings")
    return LinkSpec(
        name=_require(obj, "name", str),
        a=between[0],
        b=between[1],
        link_class=_require(obj, "class", LinkClass, LinkClass.WIDE_AREA),
        base_latency_ms=_require(obj, "base_latency_ms", int, 0),
    )


def scenario_from_obj(obj: Any, base_dir: Optional[Path] = None) -> Scenario:
    """The scenario `obj` describes, checked whole; ScenarioError otherwise."""
    if not isinstance(obj, dict):
        raise ScenarioError("scenario root must be an object")
    try:
        if _require(obj, "schema_version", int) != SCENARIO_SCHEMA:
            raise ModelError(f"unsupported scenario schema {obj['schema_version']!r}")
        trace = _require(obj, "trace", str, None)
        scenario = Scenario(
            name=_require(obj, "name", str, "unnamed"),
            span_ms=_dur(obj, "span"),
            devices=tuple(DeviceSpec(_require(d, "id", str), _require(d, "kind", str),
                                     _require(d, "paired_node", str, None),
                                     _check_sensor_overrides(d.get("sensors", {})))
                          for d in _objects(obj, "devices")),
            links=tuple(map(_link, _objects(obj, "links"))),
            faults=_fault_windows(_objects(obj, "faults")),
            job=None if obj.get("job") is None else _job_body(obj["job"]),
            assertions=tuple(map(_assertion, _objects(obj, "assertions"))),
            time_scale=_require(obj, "time_scale", _NUMBER, 0.0),
            drain_margin_ms=_dur(obj, "drain_margin", 180_000),
            heartbeat_timeout_ms=_dur(obj, "heartbeat_timeout", 30_000),
            trace_path=trace if trace is None or base_dir is None else str(base_dir / trace),
        )
    except ValueError as exc:    # ModelError, or FaultScheduleError for a fault window
        raise ScenarioError(str(exc)) from exc
    scenario.validate()
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        obj = canonical.loads(path.read_bytes())
    except (OSError, canonical.CanonicalError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_obj(obj, base_dir=path.parent)


def scenario_path(name: str) -> Path:
    """Path of a scenario file shipped with the package (setup1, setup2, bus_trip)."""
    root = resources.files("ambox.harness") / "scenarios" / f"{name}.json"
    return Path(str(root))
