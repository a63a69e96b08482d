"""Synthetic sensor drivers: trace playback plus bias, noise, and clamping.

A driver turns an environment truth trace into what real hardware would
report: value = clamp(truth + bias + noise, range). Bias is a constant
offset, such as a warm CPU adds to an onboard temperature sensor. Noise is
uniform in [-amplitude, +amplitude], derived from a hash of (seed, quantity,
t) so a read is a pure function of its inputs and identical across runs.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .model import HUMIDITY, PRESSURE, TEMPERATURE


class SensorError(Exception):
    pass


class TraceError(SensorError):
    pass


class TraceExhausted(SensorError):
    """Requested time lies outside the trace span."""


@dataclass(frozen=True)
class SensorSpec:
    quantity: str
    range_min: float
    range_max: float
    accuracy: float
    noise_amplitude: Optional[float] = None   # defaults to accuracy
    bias_constant: float = 0.0

    @property
    def noise(self) -> float:
        return self.accuracy if self.noise_amplitude is None else self.noise_amplitude


# Hardware figures for the reference devices. The node's onboard package
# reads 0..65 degC at +/-2; the mote's external probes are tighter on
# temperature but narrower on humidity.
NODE_SENSOR_SPECS: dict[str, SensorSpec] = {
    TEMPERATURE: SensorSpec(TEMPERATURE, 0.0, 65.0, accuracy=2.0),
    HUMIDITY: SensorSpec(HUMIDITY, 0.0, 100.0, accuracy=4.5),
    PRESSURE: SensorSpec(PRESSURE, 260.0, 1260.0, accuracy=1.0),
}

MOTE_SENSOR_SPECS: dict[str, SensorSpec] = {
    TEMPERATURE: SensorSpec(TEMPERATURE, -55.0, 125.0, accuracy=0.5),
    HUMIDITY: SensorSpec(HUMIDITY, 20.0, 90.0, accuracy=5.0),
}

def merged_spec(quantity: str, defaults: dict[str, SensorSpec],
                overrides: dict) -> Optional[SensorSpec]:
    """The preset for `quantity` with a device's per-field overrides applied.

    A quantity with no preset takes the overrides over an unbounded,
    noiseless spec; one with neither preset nor overrides has no sensor.
    """
    base = defaults.get(quantity)
    if base is None and not overrides:
        return None
    base = base or SensorSpec(quantity, -1e9, 1e9, accuracy=0.0)
    return SensorSpec(
        quantity=quantity,
        range_min=float(overrides.get("range_min", base.range_min)),
        range_max=float(overrides.get("range_max", base.range_max)),
        accuracy=float(overrides.get("accuracy", base.accuracy)),
        noise_amplitude=float(overrides["noise_amplitude"])
        if "noise_amplitude" in overrides else base.noise_amplitude,
        bias_constant=float(overrides.get("bias_constant", base.bias_constant)),
    )


_TRACE_COLUMNS = {"temp_c": TEMPERATURE, "hum_pct": HUMIDITY, "press_hpa": PRESSURE}


def _reportable(driver, value: float) -> bool:
    """Whether a value read from `driver` can go into a report: finite, and
    inside the range of the driver's spec when it has one."""
    spec = getattr(driver, "spec", None)
    return math.isfinite(value) and (spec is None or spec.range_min <= value <= spec.range_max)


@dataclass(frozen=True)
class EnvironmentTrace:
    """Piecewise-linear ground truth for each quantity."""

    offsets_ms: tuple[int, ...]
    series: dict[str, tuple[float, ...]]

    def __post_init__(self) -> None:
        if not self.offsets_ms:
            raise TraceError("trace must contain at least one sample")
        if any(b <= a for a, b in zip(self.offsets_ms, self.offsets_ms[1:])):
            raise TraceError("trace offsets must be strictly increasing")
        for quantity, values in self.series.items():
            if len(values) != len(self.offsets_ms):
                raise TraceError(f"series {quantity!r} length mismatch")

    @property
    def span_ms(self) -> tuple[int, int]:
        return self.offsets_ms[0], self.offsets_ms[-1]

    def value_at(self, quantity: str, offset_ms: int) -> float:
        lo, hi = self.span_ms
        if offset_ms < lo or offset_ms > hi:
            raise TraceExhausted(f"t={offset_ms}ms outside trace span [{lo}, {hi}]")
        values = self.series.get(quantity)
        if values is None:
            raise TraceError(f"trace has no series for {quantity!r}")
        idx = bisect_right(self.offsets_ms, offset_ms) - 1
        if idx == len(self.offsets_ms) - 1:
            return values[idx]
        t0, t1 = self.offsets_ms[idx], self.offsets_ms[idx + 1]
        v0, v1 = values[idx], values[idx + 1]
        return v0 + (v1 - v0) * (offset_ms - t0) / (t1 - t0)


def load_trace(path: str | Path) -> EnvironmentTrace:
    """Read a CSV trace with header offset_s,temp_c,hum_pct,press_hpa."""
    path = Path(path)
    try:
        text = path.read_text("utf-8")
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise TraceError(f"trace {path.name} is empty")
    header = [h.strip() for h in rows[0]]
    if header[:1] != ["offset_s"] or not set(header[1:]) <= set(_TRACE_COLUMNS):
        raise TraceError(f"trace {path.name} has unexpected header {header!r}")
    offsets: list[int] = []
    columns: dict[str, list[float]] = {name: [] for name in header[1:]}
    for row_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise TraceError(f"trace {path.name} row {row_no} has {len(row)} cells")
        try:
            offsets.append(int(float(row[0]) * 1000))
            for name, cell in zip(header[1:], row[1:]):
                columns[name].append(float(cell))
        except ValueError as exc:
            raise TraceError(f"trace {path.name} row {row_no}: {exc}") from exc
    if not offsets:
        raise TraceError(f"trace {path.name} has no data rows")
    if any(b <= a for a, b in zip(offsets, offsets[1:])):
        raise TraceError(f"trace {path.name} offsets are not strictly increasing")
    series = {
        _TRACE_COLUMNS[name]: tuple(values) for name, values in columns.items()
    }
    return EnvironmentTrace(offsets_ms=tuple(offsets), series=series)


def _noise(seed: int, quantity: str, t_ms: int, amplitude: float) -> float:
    if amplitude == 0:
        return 0.0
    digest = hashlib.sha256(f"{seed}:{quantity}:{t_ms}".encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    return rng.uniform(-amplitude, amplitude)


class SimulatedSensor:
    """A driver instance owned by one sampling loop.

    `trace_origin_ms` anchors the trace's offset 0 on the runtime clock.
    """

    def __init__(
        self,
        spec: SensorSpec,
        trace: EnvironmentTrace,
        seed: int,
        trace_origin_ms: int = 0,
    ) -> None:
        self.spec = spec
        self.trace = trace
        self.seed = seed
        self.trace_origin_ms = trace_origin_ms

    def truth(self, t_ms: int) -> float:
        return self.trace.value_at(self.spec.quantity, t_ms - self.trace_origin_ms)

    def read(self, t_ms: int) -> float:
        value = self.truth(t_ms)
        value += self.spec.bias_constant
        value += _noise(self.seed, self.spec.quantity, t_ms, self.spec.noise)
        return max(self.spec.range_min, min(self.spec.range_max, value))


class SyntheticAmbient:
    """Infinite-span driver for real-clock runs: a slow daily swing plus noise."""

    PERIOD_MS = 24 * 3600 * 1000

    def __init__(self, spec: SensorSpec, seed: int, base: Optional[float] = None,
                 swing: float = 2.0) -> None:
        self.spec = spec
        self.seed = seed
        self.base = base if base is not None else (spec.range_min + spec.range_max) / 2
        self.swing = swing

    def truth(self, t_ms: int) -> float:
        phase = (t_ms % self.PERIOD_MS) / self.PERIOD_MS
        return self.base + self.swing * math.sin(2 * math.pi * phase)

    def read(self, t_ms: int) -> float:
        value = self.truth(t_ms) + self.spec.bias_constant
        value += _noise(self.seed, self.spec.quantity, t_ms, self.spec.noise)
        return max(self.spec.range_min, min(self.spec.range_max, value))
