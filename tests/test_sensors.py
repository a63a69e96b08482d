import math
import statistics

import pytest

from ambox.model import HUMIDITY, PRESSURE, TEMPERATURE
from ambox.sensors import (
    EnvironmentTrace,
    MOTE_SENSOR_SPECS,
    NODE_SENSOR_SPECS,
    SensorSpec,
    SimulatedSensor,
    SyntheticAmbient,
    TraceError,
    TraceExhausted,
    load_trace,
)


def flat_trace(value_t=20.0, span_min=400):
    offsets = tuple(i * 60_000 for i in range(span_min + 1))
    return EnvironmentTrace(
        offsets_ms=offsets,
        series={
            TEMPERATURE: tuple(value_t for _ in offsets),
            HUMIDITY: tuple(55.0 for _ in offsets),
            PRESSURE: tuple(1013.0 for _ in offsets),
        },
    )


def test_zero_bias_zero_noise_identity():
    spec = SensorSpec(TEMPERATURE, 0.0, 65.0, accuracy=2.0, noise_amplitude=0.0)
    sensor = SimulatedSensor(spec, flat_trace(20.0), seed=1)
    assert sensor.read(60_000) == 20.0


def test_constant_bias_exact():
    # Thermal interference: read - truth equals the bias exactly with noise off.
    spec = SensorSpec(TEMPERATURE, 0.0, 65.0, accuracy=2.0,
                      noise_amplitude=0.0, bias_constant=3.0)
    sensor = SimulatedSensor(spec, flat_trace(20.0), seed=1)
    assert sensor.read(120_000) - sensor.truth(120_000) == 3.0


def test_clamp_to_hardware_range():
    # 70 degC truth against the node package's 0..65 range clamps to 65.
    spec = SensorSpec(TEMPERATURE, 0.0, 65.0, accuracy=2.0, noise_amplitude=0.0)
    sensor = SimulatedSensor(spec, flat_trace(70.0), seed=1)
    assert sensor.read(60_000) == 65.0


def test_linear_interpolation():
    trace = EnvironmentTrace(
        offsets_ms=(0, 100_000),
        series={TEMPERATURE: (10.0, 20.0)},
    )
    spec = SensorSpec(TEMPERATURE, -50.0, 100.0, accuracy=0.0, noise_amplitude=0.0)
    sensor = SimulatedSensor(spec, trace, seed=0)
    assert sensor.read(50_000) == pytest.approx(15.0)
    assert sensor.read(0) == 10.0
    assert sensor.read(100_000) == 20.0


def test_trace_exhausted():
    sensor = SimulatedSensor(NODE_SENSOR_SPECS[TEMPERATURE], flat_trace(span_min=10), seed=0)
    with pytest.raises(TraceExhausted):
        sensor.read(11 * 60_000)
    with pytest.raises(TraceExhausted):
        sensor.read(-1)


def test_determinism_same_seed():
    spec = NODE_SENSOR_SPECS[TEMPERATURE]
    a = SimulatedSensor(spec, flat_trace(), seed=42)
    b = SimulatedSensor(spec, flat_trace(), seed=42)
    times = [i * 60_000 for i in range(1, 200)]
    assert [a.read(t) for t in times] == [b.read(t) for t in times]
    c = SimulatedSensor(spec, flat_trace(), seed=43)
    assert [a.read(t) for t in times] != [c.read(t) for t in times]


def test_bias_observable_through_noise():
    # With noise amplitude eps and constant bias b, the mean of (read - truth)
    # over N >= 100 samples lies within b +/- 3*eps/sqrt(N).
    for bias, eps in ((3.0, 0.5), (1.0, 2.0), (0.0, 0.5)):
        spec = SensorSpec(TEMPERATURE, -100.0, 200.0, accuracy=eps,
                          noise_amplitude=eps, bias_constant=bias)
        sensor = SimulatedSensor(spec, flat_trace(20.0), seed=7)
        n = 400
        errors = [sensor.read(t * 60_000) - sensor.truth(t * 60_000) for t in range(1, n + 1)]
        assert abs(statistics.mean(errors) - bias) <= 3 * eps / math.sqrt(n)


def test_hardware_presets_match_figures():
    node_t = NODE_SENSOR_SPECS[TEMPERATURE]
    assert (node_t.range_min, node_t.range_max, node_t.accuracy) == (0.0, 65.0, 2.0)
    node_p = NODE_SENSOR_SPECS[PRESSURE]
    assert (node_p.range_min, node_p.range_max) == (260.0, 1260.0)
    mote_t = MOTE_SENSOR_SPECS[TEMPERATURE]
    assert (mote_t.range_min, mote_t.range_max, mote_t.accuracy) == (-55.0, 125.0, 0.5)
    mote_h = MOTE_SENSOR_SPECS[HUMIDITY]
    assert (mote_h.range_min, mote_h.range_max, mote_h.accuracy) == (20.0, 90.0, 5.0)


# -- trace files ----------------------------------------------------------------


def test_load_trace_roundtrip(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "offset_s,temp_c,hum_pct,press_hpa\n"
        "0,18.0,60.0,1013.0\n"
        "300,19.5,58.0,1012.5\n"
        "600,21.0,57.0,1012.0\n"
    )
    trace = load_trace(path)
    assert trace.span_ms == (0, 600_000)
    assert trace.value_at(TEMPERATURE, 150_000) == pytest.approx(18.75)
    assert trace.value_at(HUMIDITY, 600_000) == 57.0


def test_load_trace_duplicate_offsets(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("offset_s,temp_c\n0,1.0\n0,2.0\n")
    with pytest.raises(TraceError, match="strictly increasing"):
        load_trace(path)


def test_load_trace_empty_file(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("")
    with pytest.raises(TraceError):
        load_trace(path)
    path.write_text("offset_s,temp_c\n")
    with pytest.raises(TraceError, match="no data rows"):
        load_trace(path)


def test_load_trace_bad_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("time,temperature\n0,1\n")
    with pytest.raises(TraceError, match="header"):
        load_trace(path)


def test_synthetic_ambient_stays_in_range():
    spec = MOTE_SENSOR_SPECS[TEMPERATURE]
    driver = SyntheticAmbient(spec, seed=3, base=20.0, swing=5.0)
    for t in range(0, 48 * 3600 * 1000, 3600 * 1000):
        value = driver.read(t)
        assert spec.range_min <= value <= spec.range_max
