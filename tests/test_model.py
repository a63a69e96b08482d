import ast
import collections
import copy
import gc
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ambox
from ambox import canonical
from ambox.model import (
    HUMIDITY,
    MAX_NESTING,
    PRESSURE,
    TEMPERATURE,
    EventReport,
    HeartbeatMessage,
    JudgedReport,
    ModelError,
    MonitoringJob,
    NodeState,
    SensorReading,
    decode_report,
    judge_report,
    legal_transition,
    new_report_id,
    validate_report,
)

from ambox.envelope import canonicalize

from conftest import T0, make_reading, make_report

STATES = [NodeState.IDLE, NodeState.HEARTBEAT, NodeState.MONITORING]

# Independent oracle: the transition table transcribed directly from the
# lifecycle contract, not derived from the implementation under test.
ALLOWED = {
    ("idle", "heartbeat"),
    ("heartbeat", "monitoring"),
    ("monitoring", "heartbeat"),
    ("heartbeat", "idle"),
}


def test_legal_transition_examples():
    assert legal_transition(NodeState.IDLE, NodeState.HEARTBEAT) is True
    assert legal_transition(NodeState.IDLE, NodeState.MONITORING) is False
    assert legal_transition(NodeState.MONITORING, NodeState.MONITORING) is False


def test_legal_transition_all_nine_pairs():
    for a, b in itertools.product(STATES, repeat=2):
        assert legal_transition(a, b) == ((a.value, b.value) in ALLOWED)


def test_transition_graph_shape():
    # Heartbeat<->Monitoring is the only cycle among operating states
    # (the other back edge, Heartbeat->Idle, is power-off); Idle is reachable
    # from every state in at most two hops.
    edges = {(a, b) for a in STATES for b in STATES if legal_transition(a, b)}
    assert (NodeState.HEARTBEAT, NodeState.MONITORING) in edges
    assert (NodeState.MONITORING, NodeState.HEARTBEAT) in edges
    operating = {(a, b) for (a, b) in edges if NodeState.IDLE not in (a, b)}
    cycles = {(a, b) for (a, b) in operating if (b, a) in operating}
    assert cycles == {
        (NodeState.HEARTBEAT, NodeState.MONITORING),
        (NodeState.MONITORING, NodeState.HEARTBEAT),
    }
    for start in STATES:
        hops1 = {b for (a, b) in edges if a == start}
        hops2 = hops1 | {c for b in hops1 for (a, c) in edges if a == b}
        assert start is NodeState.IDLE or NodeState.IDLE in hops2


def brute_force_violations(report: EventReport) -> set[str]:
    """Straight-line re-evaluation of every report invariant."""
    out = set()
    if not report.report_id:
        out.add("report_id non-empty")
    if not report.device_id:
        out.add("device_id non-empty")
    if len(report.readings) == 0:
        out.add("readings non-empty")
        return out
    for i in range(len(report.readings) - 1):
        if report.readings[i + 1].sampled_at < report.readings[i].sampled_at:
            out.add("readings sorted")
    for r in report.readings:
        if r.sampled_at > report.created_at:
            out.add("readings within created_at")
        if r.sampled_at < 0:
            out.add("readings at or after 1970-01-01")
    streams = {}
    for r in report.readings:
        streams.setdefault((r.source_device, r.quantity), []).append(r.sampled_at)
    for times in streams.values():
        if any(b <= a for a, b in zip(times, times[1:])):
            out.add("readings strictly increasing per source and quantity")
    return out


def test_validate_empty_readings():
    report = make_report(n_readings=3)
    empty = EventReport(report.report_id, report.device_id, report.product_id,
                        report.batch_no, report.created_at, ())
    assert "readings non-empty" in validate_report(empty)


def test_validate_unsorted_readings():
    r1 = make_reading(at=T0 + 120_000)
    r2 = make_reading(at=T0 + 60_000)
    report = EventReport("id-1", "node-1", "p", "b", T0 + 600_000, (r1, r2))
    assert "readings sorted" in validate_report(report)


def test_validate_good_report_ok():
    report = make_report(n_readings=5)
    assert validate_report(report) == []


@st.composite
def arbitrary_reports(draw):
    device = draw(st.sampled_from(["node-1", "node-2", ""]))
    created = draw(st.integers(min_value=-10**6, max_value=10**12))
    n = draw(st.integers(min_value=0, max_value=6))
    readings = []
    for _ in range(n):
        readings.append(
            SensorReading(
                quantity=draw(st.sampled_from([TEMPERATURE, HUMIDITY, PRESSURE])),
                value=draw(st.floats(allow_nan=False, allow_infinity=False,
                                     min_value=-1000, max_value=2000)),
                sampled_at=draw(st.integers(min_value=-10**6, max_value=10**12)),
                source_device=draw(st.sampled_from(["node-1", "mote-1"])),
            )
        )
    maybe_sort = draw(st.booleans())
    if maybe_sort:
        readings.sort(key=lambda r: r.sampled_at)
    return EventReport(
        report_id=draw(st.sampled_from(["rid-1", ""])),
        device_id=device,
        product_id="p",
        batch_no="b",
        created_at=created,
        readings=tuple(readings),
    )


@given(arbitrary_reports())
def test_validate_matches_brute_force(report):
    assert set(validate_report(report)) == brute_force_violations(report)


@given(arbitrary_reports())
def test_roundtrip_stability(report):
    # Valid reports survive serialize/parse and stay valid; the parsed value
    # is the same report.
    if validate_report(report):
        return
    parsed = EventReport.from_obj(canonical.loads(canonical.dumps(report.to_obj())))
    assert parsed == report
    assert validate_report(parsed) == []


def test_report_parse_rejects_missing_fields():
    obj = make_report().to_obj()
    del obj["batch_no"]
    with pytest.raises(ModelError):
        EventReport.from_obj(obj)


def test_report_parse_rejects_bad_types():
    obj = make_report().to_obj()
    obj["readings"][0]["value"] = "warm"
    with pytest.raises(ModelError):
        EventReport.from_obj(obj)


def test_decode_report_roundtrip():
    report = make_report()
    assert decode_report(canonical.dumps(report.to_obj())) == report


def _with_first_value(raw: str) -> bytes:
    obj = make_report().to_obj()
    obj["readings"][0]["value"] = 0.5
    return canonical.dumps(obj).replace(b'"value":0.5', raw.encode(), 1)


@pytest.mark.parametrize("payload", [
    b"{not json",
    b"\xff\xfe",
    b"[]",
    b"[" * 100_000,
    canonical.dumps({"report_id": "r"}),
    _with_first_value('"value":"warm"'),
    _with_first_value('"value":1' + "0" * 400),     # too large for a float
    _with_first_value('"value":1' + "0" * 5_000),   # too long for an int
    canonical.dumps({**make_report().to_obj(), "created_at": "2024-13-01T00:00:00.000Z"}),
], ids=["not-json", "not-utf8", "not-an-object", "deeply-nested", "missing-fields",
        "string-value", "overflowing-value", "overlong-value", "bad-timestamp"])
def test_decode_report_raises_only_model_error(payload):
    with pytest.raises(ModelError):
        decode_report(payload)


# Oracle for the one-pass codec: a field-by-field decoder and encoder that
# check each reading on its own and parse or format each timestamp at every
# use, with no memo.

def _reference_require_keys(obj, keys, what):
    if not isinstance(obj, dict):
        raise ModelError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ModelError(f"{what} missing fields: {', '.join(missing)}")


def _reference_require_str(obj, key):
    value = obj[key]
    if not isinstance(value, str):
        raise ModelError(f"{key} must be a string, got {type(value).__name__}")
    return value


def _reference_reading_from_obj(obj):
    _reference_require_keys(obj, ("quantity", "sampled_at", "source_device", "value"),
                            "SensorReading")
    value = obj["value"]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"reading value must be numeric, got {value!r}")
    signature = obj.get("signature_b64")
    if signature is not None and not isinstance(signature, str):
        raise ModelError("signature_b64 must be a string when present")
    return SensorReading(
        quantity=_reference_require_str(obj, "quantity"),
        value=float(value),
        sampled_at=canonical.parse_millis(obj["sampled_at"]),
        source_device=_reference_require_str(obj, "source_device"),
        signature_b64=signature,
    )


def _reference_report_from_obj(obj):
    _reference_require_keys(
        obj,
        ("report_id", "device_id", "product_id", "batch_no", "created_at", "readings"),
        "EventReport",
    )
    readings = obj["readings"]
    if not isinstance(readings, list):
        raise ModelError("readings must be a list")
    return EventReport(
        report_id=_reference_require_str(obj, "report_id"),
        device_id=_reference_require_str(obj, "device_id"),
        product_id=_reference_require_str(obj, "product_id"),
        batch_no=_reference_require_str(obj, "batch_no"),
        created_at=canonical.parse_millis(obj["created_at"]),
        readings=tuple(_reference_reading_from_obj(r) for r in readings),
    )


def _reference_decode_report(payload):
    try:
        return _reference_report_from_obj(canonical.loads(payload))
    except (ValueError, OverflowError, RecursionError) as exc:
        raise ModelError(str(exc)) from exc


def _reference_reading_to_obj(reading):
    obj = {
        "quantity": reading.quantity,
        "sampled_at": canonical.format_millis(reading.sampled_at),
        "source_device": reading.source_device,
        "value": reading.value,
    }
    if reading.signature_b64 is not None:
        obj["signature_b64"] = reading.signature_b64
    return obj


def _reference_report_to_obj(report):
    return {
        "report_id": report.report_id,
        "device_id": report.device_id,
        "product_id": report.product_id,
        "batch_no": report.batch_no,
        "created_at": canonical.format_millis(report.created_at),
        "readings": [_reference_reading_to_obj(r) for r in report.readings],
    }


def _outcome(call, *args):
    """The call's result, or the class of the data error it raised."""
    try:
        return call(*args)
    except (ModelError, canonical.CanonicalError, OverflowError) as exc:
        return type(exc)


# A few instants, so that readings share them, in and out of order.
_INSTANTS = [canonical.format_millis(T0 + 60_000 * i) for i in range(4)]
_TIMESTAMPS = st.one_of(
    st.sampled_from(_INSTANTS),
    st.sampled_from(["2024-13-01T00:00:00.000Z", "1969-12-31T23:59:59.999Z",
                     "2024-01-01T00:00:00Z", ""]),
    st.integers(), st.none(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_STRINGS = st.one_of(st.sampled_from(["node-1", "mote-1", TEMPERATURE, ""]),
                     st.integers(), st.none(), st.lists(st.text(max_size=2), max_size=1))
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(), st.booleans(),
    st.sampled_from([10 ** 400, -(10 ** 400)]), st.text(max_size=3), st.none(),
)
_EXTRA = st.dictionaries(st.sampled_from(["note", "extra", "x"]), st.integers(), max_size=2)


@st.composite
def _json_object(draw, fields):
    """`fields` drawn, some dropped, and unknown keys added."""
    obj = {name: draw(strategy) for name, strategy in fields.items()}
    for name in draw(st.sets(st.sampled_from(sorted(fields)), max_size=2)):
        if draw(st.integers(0, 3)) == 0:
            del obj[name]
    return {**draw(_EXTRA), **obj}


_READING_OBJECTS = _json_object({
    "quantity": _STRINGS,
    "sampled_at": _TIMESTAMPS,
    "source_device": _STRINGS,
    "value": _VALUES,
    "signature_b64": st.one_of(st.just("c2ln"), st.none(), st.integers(),
                               st.lists(st.integers(), max_size=1)),
})
_REPORT_OBJECTS = _json_object({
    "report_id": _STRINGS,
    "device_id": _STRINGS,
    "product_id": _STRINGS,
    "batch_no": _STRINGS,
    "created_at": _TIMESTAMPS,
    "readings": st.one_of(st.lists(st.one_of(_READING_OBJECTS, _STRINGS), max_size=8),
                          _STRINGS),
})


@settings(max_examples=400)
@given(_REPORT_OBJECTS)
def test_codec_matches_the_field_by_field_reference(obj):
    payload = canonical.dumps(obj)
    expected = _outcome(_reference_decode_report, payload)
    decoded = _outcome(decode_report, payload)  # any other exception fails the test
    assert decoded == expected
    if expected is not ModelError:  # instants before 1970 decode, but neither encodes them
        assert (_outcome(lambda: json.dumps(decoded.to_obj()))
                == _outcome(lambda: json.dumps(_reference_report_to_obj(expected))))


def _assert_judged_as_decoded(payload):
    """`judge_report` refuses what `decode_report` refuses, and finds what
    `validate_report` of the decoded report finds."""
    decoded = _outcome(decode_report, payload)
    judged = _outcome(judge_report, payload)  # any other exception fails the test
    if decoded is ModelError:
        assert judged is ModelError
        return
    assert isinstance(judged, JudgedReport)
    assert judged[:4] == (decoded.report_id, decoded.device_id, decoded.batch_no,
                          decoded.created_at)
    assert judged.violations == validate_report(decoded)


@settings(max_examples=400)
@given(_REPORT_OBJECTS)
def test_the_judge_matches_the_decoder_on_any_object(obj):
    _assert_judged_as_decoded(canonical.dumps(obj))


@st.composite
def valid_reports(draw):
    """Reports that `validate_report` accepts: shared instants across
    streams, relayed readings with and without a signature."""
    device = draw(st.sampled_from(["node-1", "node-2"]))
    at = draw(st.integers(0, 10 ** 12))
    readings, seen = [], set()
    for _ in range(draw(st.integers(1, 6))):
        at += draw(st.sampled_from([0, 0, 1, 60_000]))
        source = draw(st.sampled_from([device, "mote-1"]))
        quantity = draw(st.sampled_from([TEMPERATURE, HUMIDITY, PRESSURE]))
        if (source, quantity, at) in seen:
            continue
        seen.add((source, quantity, at))
        readings.append(SensorReading(
            quantity=quantity,
            value=draw(st.floats(allow_nan=False, allow_infinity=False)),
            sampled_at=at,
            source_device=source,
            signature_b64=draw(st.none() | st.sampled_from(["c2ln", "YQ=="]))
            if source != device else None,
        ))
    return EventReport(f"{device}-{at}-{len(readings)}", device, "p", "b",
                       at + draw(st.integers(0, 10 ** 6)), tuple(readings))


_WRONG_TYPES = [None, 5, 1.5, True, "x", [], {}, [1], {"a": 1}]
_ODD_INSTANTS = [
    "2024-01-01T00:00:00Z", "2024-01-01T00:00:00.000+00:00", "2024-13-01T00:00:00.000Z",
    "2024-02-30T00:00:00.000Z", "2024-01-01T24:00:00.000Z", "2024-01-01T00:00:00.000Z\n",
    "\uff12024-01-01T00:00:00.000Z", "1969-12-31T23:59:59.999Z", "0001-01-01T00:00:00.000Z",
]
_MUTATIONS = ["none", "missing-key", "wrong-type", "value", "non-finite", "instant",
              "extra-key", "signature", "reading-not-object", "instants"]


def _mutate(data, obj):
    """`obj` with one mutation of one kind, drawn from `data`."""
    kind = data.draw(st.sampled_from(_MUTATIONS), label="mutation")
    readings = obj["readings"]
    reading = data.draw(st.sampled_from(readings))
    target = data.draw(st.sampled_from([obj, reading]))
    if kind == "missing-key":
        del target[data.draw(st.sampled_from(sorted(target)))]
    elif kind == "wrong-type":
        target[data.draw(st.sampled_from(sorted(target)))] = data.draw(st.sampled_from(_WRONG_TYPES))
    elif kind == "value":
        reading["value"] = data.draw(st.sampled_from(
            [True, False, 0, 7, -3, 10 ** 20, 10 ** 400, -(10 ** 400)]))
    elif kind == "non-finite":
        reading["value"] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "instant":
        key = "created_at" if target is obj else "sampled_at"
        target[key] = data.draw(st.sampled_from(_ODD_INSTANTS))
    elif kind == "extra-key":
        target[data.draw(st.sampled_from(["note", "signature_b64" if target is obj else "x"]))] = \
            data.draw(st.sampled_from(_WRONG_TYPES))
    elif kind == "signature":
        reading["signature_b64"] = data.draw(st.sampled_from([None, 5, 1.5, True, [], {}]))
    elif kind == "reading-not-object":
        readings[readings.index(reading)] = data.draw(st.sampled_from(_WRONG_TYPES[:6]))
    elif kind == "instants":
        other = data.draw(st.sampled_from(readings))
        if data.draw(st.booleans()):          # unsorted
            reading["sampled_at"], other["sampled_at"] = other["sampled_at"], reading["sampled_at"]
        else:                                 # repeated
            reading["sampled_at"] = other["sampled_at"]
    return obj


@settings(max_examples=600, deadline=None)
@given(valid_reports(), st.data())
def test_the_judge_matches_the_decoder_on_each_mutation_of_a_valid_report(report, data):
    obj = _mutate(data, report.to_obj())
    _assert_judged_as_decoded(json.dumps(obj).encode("utf-8"))


@pytest.mark.parametrize("where", ["report", "reading", "signed-reading"])
def test_the_judge_refuses_a_value_nested_past_the_bound(where):
    for levels in (MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 900):
        obj = make_report().to_obj()
        holder, held = (obj, 1) if where == "report" else (obj["readings"][1], 3)
        if where == "signed-reading":
            holder["signature_b64"] = "c2ln"
        value = 0
        for level in range(levels - held):          # arrays and objects alike
            value = [value] if level % 2 else {"k": value}
        holder["note"] = value
        payload = canonical.dumps(obj)
        judged = judge_report(payload)
        assert judged.violations == ([] if levels <= MAX_NESTING
                                     else [f"values nested at most {MAX_NESTING} levels deep"])
        # A record keeps no key beyond its fields, so it cannot break the rule.
        assert validate_report(decode_report(payload)) == []


# Values each reading field can take beside its valid ones; some are valid
# too (an integer value, an empty quantity, a carried signature).
_FIELD_VALUES = {
    "quantity": [None, 5, 1.5, True, [], {}, ""],
    "sampled_at": [None, 5, 1.5, [], {}, *_ODD_INSTANTS],
    "source_device": [None, 5, 1.5, True, [], {}],
    "value": [None, True, False, "21.5", [], {}, 7, 10 ** 400, -(10 ** 400)],
    "signature_b64": [None, 5, 1.5, True, [], {}, "c2ln"],
}


@st.composite
def _faulty_reading(draw, obj):
    """The reading object `obj` with one to three faults, possibly of
    several kinds, so that the field checks' precedence decides."""
    obj = dict(obj)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["missing", "field", "field", "extra", "not-object"]))
        if kind == "not-object":
            return draw(st.sampled_from([None, 5, 1.5, "x", [], [1]]))
        if kind == "missing" and obj:
            del obj[draw(st.sampled_from(sorted(obj)))]
        elif kind == "field":
            key = draw(st.sampled_from(sorted(_FIELD_VALUES)))
            obj[key] = draw(st.sampled_from(_FIELD_VALUES[key]))
        elif kind == "extra":
            obj["note"] = draw(st.integers())
    return obj


def _raised(call, *args):
    """The call's result, or the class and message of the data error it raised."""
    try:
        return call(*args)
    except (ModelError, canonical.CanonicalError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(valid_reports(), st.data())
def test_the_bulk_decoder_refuses_the_first_faulty_reading_as_the_field_checks_do(report, data):
    obj = report.to_obj()
    readings = obj["readings"]
    for position in data.draw(st.sets(st.integers(0, len(readings) - 1), min_size=1,
                                      max_size=2), label="faulty positions"):
        readings[position] = data.draw(_faulty_reading(readings[position]))
    # As objects, an overflowing integer value raises OverflowError itself.
    assert (_raised(EventReport.from_obj, obj)
            == _raised(_reference_report_from_obj, copy.deepcopy(obj)))
    payload = json.dumps(obj).encode("utf-8")
    expected = _raised(_reference_decode_report, payload)
    assert _raised(decode_report, payload) == expected
    judged = _raised(judge_report, payload)
    if isinstance(expected, EventReport):
        assert isinstance(judged, JudgedReport)
    else:
        assert judged == expected


@given(valid_reports())
def test_every_signed_payload_is_judged_valid(report):
    judged = judge_report(canonicalize(report))
    assert judged == (report.report_id, report.device_id, report.batch_no, report.created_at,
                      [])


@given(_READING_OBJECTS)
def test_reading_codec_matches_the_field_by_field_reference(obj):
    expected = _outcome(_reference_reading_from_obj, obj)
    assert _outcome(SensorReading.from_obj, obj) == expected
    if isinstance(expected, SensorReading):
        assert (_outcome(lambda: json.dumps(expected.to_obj()))
                == _outcome(lambda: json.dumps(_reference_reading_to_obj(expected))))


@given(arbitrary_reports())
def test_encoder_matches_the_field_by_field_reference(report):
    # Instants before 1970 are refused by both, as a CanonicalError.
    assert (_outcome(lambda: json.dumps(report.to_obj()))
            == _outcome(lambda: json.dumps(_reference_report_to_obj(report))))


def test_a_detached_signature_replaces_the_carried_one():
    reading = make_reading(value=21.5)
    core = reading.core_obj()
    assert "signature_b64" not in core
    relayed = SensorReading.from_obj({**core, "signature_b64": "b2xk"}, signature_b64="c2ln")
    assert relayed == reading._replace(signature_b64="c2ln")
    assert relayed.to_obj() == {**core, "signature_b64": "c2ln"}
    with pytest.raises(ModelError):  # the carried field is still checked
        SensorReading.from_obj({**core, "signature_b64": 5}, signature_b64="c2ln")


def test_a_constructed_record_equals_and_hashes_as_the_decoded_one():
    report = make_report(n_readings=15)
    signed = report._replace(readings=(report.readings[0]._replace(signature_b64="c2ln"),)
                             + report.readings[1:])
    for built in (report, signed):
        decoded = decode_report(canonical.dumps(built.to_obj()))
        assert decoded == built and hash(decoded) == hash(built)
        assert type(decoded) is EventReport
        assert all(type(r) is SensorReading for r in decoded.readings)
    reading = signed.readings[0]
    relayed = SensorReading.from_obj(reading.to_obj())
    assert relayed == reading and hash(relayed) == hash(reading)
    assert type(relayed) is SensorReading


def test_a_record_constructor_and_replace_convert_value_and_readings():
    reading = SensorReading(TEMPERATURE, value=3, sampled_at=T0, source_device="node-1")
    assert reading.value == 3.0 and type(reading.value) is float
    replaced = make_reading(value=21.5)._replace(value=3)
    assert replaced.value == 3.0 and type(replaced.value) is float
    report = EventReport("id-1", "node-1", "p", "b", T0 + 600_000, readings=[reading])
    assert report.readings == (reading,) and type(report.readings) is tuple
    assert type(report._replace(readings=[reading, reading]).readings) is tuple


def test_a_record_field_cannot_be_assigned():
    reading = make_reading()
    report = make_report()
    with pytest.raises(AttributeError):
        reading.value = 1.0
    with pytest.raises(AttributeError):
        report.readings = ()
    with pytest.raises(AttributeError):
        reading.note = "x"                   # no instance dict to put it in
    assert reading == make_reading() and report == make_report()


def test_a_decoded_report_retains_little_memory():
    # A GetRecent answer's reports are decoded from parsed objects, whose
    # strings and floats the records share.
    obj = canonical.loads(canonical.dumps(make_report(n_readings=15).to_obj()))
    EventReport.from_obj(obj)
    gc.collect()
    tracemalloc.start()
    try:
        report = EventReport.from_obj(obj)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(report.readings) == 15
    assert retained <= 4_600, retained


def test_each_distinct_instant_is_parsed_and_formatted_once(monkeypatch):
    report = make_report(n_readings=15)
    assert len({r.sampled_at for r in report.readings}) == 5
    payload = canonical.dumps(report.to_obj())
    calls = collections.Counter()

    def counted(name):
        real = getattr(canonical, name)

        def wrapper(arg):
            calls[name] += 1
            return real(arg)
        return wrapper

    for name in ("parse_millis", "format_millis"):
        monkeypatch.setattr(canonical, name, counted(name))
    assert decode_report(payload) == report
    assert report.to_obj()["created_at"] == "2024-01-01T00:10:00.000Z"
    assert calls == {"parse_millis": 6, "format_millis": 6}


def test_reports_are_decoded_in_one_place():
    # Every signed payload becomes a report through decode_report; only the
    # query client builds reports from objects, as GetRecent sends them.
    package = Path(ambox.__file__).parent
    callers = []

    def visit(node: ast.AST, module: str, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Attribute) and child.attr == "from_obj"
                  and isinstance(child.value, ast.Name) and child.value.id == "EventReport"):
                callers.append(f"{module}:{'.'.join(scope)}")
            visit(child, module, inner)

    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).with_suffix("").as_posix()
        visit(ast.parse(path.read_text("utf-8")), module, ())
    assert sorted(callers) == ["ledger:LedgerClient.get_recent", "model:decode_report"]


def test_no_module_bypasses_a_constructor():
    # Records are built by their constructors or by the decoder's tuple
    # construction; no module fills an object behind its class's back.
    package = Path(ambox.__file__).parent
    found = []

    def is_dict_of(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "__dict__"

    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).with_suffix("").as_posix()
        tree = ast.parse(path.read_text("utf-8"))
        # Names bound to an instance's __dict__, whose items are then written.
        aliases = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                   and is_dict_of(node.value)
                   for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("__new__", "__setattr__")
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"):
                found.append(f"{module}:{node.lineno}: object.{node.func.attr}")
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            for target in targets:
                if isinstance(target, ast.Subscript) and (
                        is_dict_of(target.value) or (isinstance(target.value, ast.Name)
                                                     and target.value.id in aliases)):
                    found.append(f"{module}:{node.lineno}: __dict__ item assigned")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and is_dict_of(node.func.value)
                    and node.func.attr in ("update", "setdefault", "__setitem__")):
                found.append(f"{module}:{node.lineno}: __dict__.{node.func.attr}")
    assert found == []


def test_report_id_format():
    rid = new_report_id("node-1", 1_704_067_800_000, 7)
    device, millis, suffix = rid.rsplit("-", 2)
    assert device == "node-1"
    assert int(millis) == 1_704_067_800_000
    assert len(suffix) == 8
    assert new_report_id("node-1", 1_704_067_800_000, 7) == rid
    assert new_report_id("node-1", 1_704_067_800_000, 8) != rid


def test_monitoring_job_invariants():
    with pytest.raises(ModelError):
        MonitoringJob("p", "b", 0, 60_000)
    with pytest.raises(ModelError):
        MonitoringJob("p", "b", 60_000, 30_000)
    job = MonitoringJob("p", "b", 60_000, 300_000,
                        {TEMPERATURE: {"enabled": True}, HUMIDITY: {"enabled": False}})
    assert job.enabled_quantities() == (TEMPERATURE,)
    assert MonitoringJob.from_obj(job.to_obj()) == job


def test_heartbeat_roundtrip():
    msg = HeartbeatMessage("node-1", NodeState.MONITORING, T0, 42,
                           buffer_alarm=True, consecutive_submit_failures=2)
    parsed = HeartbeatMessage.from_obj(canonical.loads(canonical.dumps(msg.to_obj())))
    assert parsed == msg
