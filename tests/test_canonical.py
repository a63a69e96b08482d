import ast
import base64
import json
import math
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import ambox
from ambox import canonical

from conftest import make_reading, make_report


def test_sorted_keys_and_compact():
    assert canonical.dumps({"b": 1, "a": 2}) == b'{"a":2,"b":1}'


def test_float_shortest_roundtrip():
    # 23.50 and 23.5 are the same float and must share canonical bytes.
    assert canonical.dumps(23.50) == canonical.dumps(23.5) == b"23.5"


def test_non_finite_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(canonical.CanonicalError):
            canonical.dumps({"v": bad})


def test_non_string_keys_rejected():
    with pytest.raises(canonical.CanonicalError):
        canonical.dumps({1: "x"})


def test_a_record_has_no_canonical_form():
    # A reading or a report reaches JSON through its to_obj, never as an array.
    reading, report = make_reading(), make_report()
    for record in (reading, report):
        with pytest.raises(canonical.CanonicalError):
            canonical.dumps({"r": record})
    assert canonical.dumps({"r": (1, 2)}) == b'{"r":[1,2]}'
    assert canonical.loads(canonical.dumps({"r": report.to_obj()})) == {"r": report.to_obj()}


def test_loads_rejects_garbage():
    with pytest.raises(canonical.CanonicalError):
        canonical.loads(b"{not json")
    with pytest.raises(canonical.CanonicalError):
        canonical.loads(b"\xff\xfe")
    with pytest.raises(canonical.CanonicalError):
        canonical.loads(b"[" * 100_000)
    with pytest.raises(canonical.CanonicalError):
        canonical.loads_exact("[" * 100_000)


def test_wire_text_is_sorted_with_default_separators():
    obj = {"b": [1, 2.5, None], "a": {"\u00e9": True}}
    assert canonical.wire_text(obj) == '{"a": {"\\u00e9": true}, "b": [1, 2.5, null]}'
    assert canonical.wire_dumps(obj) == canonical.wire_text(obj).encode("utf-8")
    assert canonical.wire_loads(canonical.wire_dumps(obj)) == obj


_WIRE_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=25,
)


@given(_WIRE_VALUES)
def test_wire_text_is_json_dumps_with_sorted_keys(value):
    # The wire encoder is kept and skips the cycle check; neither changes a byte.
    assert canonical.wire_text(value) == json.dumps(value, sort_keys=True)


# Signers with quotes, backslashes, control characters and non-ASCII text;
# no lone surrogate, which has no UTF-8 and so no canonical form.
_SIGNERS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=24) | \
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "n\u0153ud-\u2603", "\U0001f600\u2028"])


@given(payload=st.binary(min_size=1, max_size=600), signature=st.binary(min_size=1, max_size=300),
       signer=_SIGNERS)
def test_envelope_spellings_are_the_dumps_and_wire_text_of_the_object(payload, signature, signer):
    obj = {"payload_b64": base64.b64encode(payload).decode("ascii"),
           "signature_b64": base64.b64encode(signature).decode("ascii"),
           "signer": signer}
    assert canonical.envelope_text(**obj) == canonical.dumps(obj).decode("utf-8")
    assert canonical.envelope_wire_text(**obj) == canonical.wire_text(obj)


@pytest.mark.parametrize("data", [
    b"", b"not json", b"\xff\xfe", b"[1]", b'"x"', b"null", b"[" * 100_000,
    b'{"v": ' + b"1" * 5_000 + b"}",
], ids=["empty", "not-json", "not-utf8", "array", "string", "null", "deep", "overlong-int"])
def test_wire_loads_refuses_anything_but_one_object(data):
    with pytest.raises(canonical.CanonicalError):
        canonical.wire_loads(data)


@pytest.mark.parametrize("text", [
    '{"a":[1,2.5,"x",null,true]}', "[]", '"s"', "0", '{"a":1} ', '{"a":1}\t', ' {"a":1}',
    '{"a":1}x', '{"a":1}{}', '{"a":1', "", "\ufeff{}", "NaN",
])
def test_loads_exact_answers_as_loads_or_refuses_what_surrounds_a_value(text):
    try:
        exact = canonical.loads_exact(text)
    except ValueError:
        # Refused: `loads` parses it only with whitespace around its value.
        if text.strip() == text:
            with pytest.raises(canonical.CanonicalError):
                canonical.loads(text.encode())
        return
    assert text.strip() == text
    assert repr(exact) == repr(canonical.loads(text.encode()))  # NaN is not equal to itself


def test_only_canonical_cli_and_scenario_use_json():
    # The wire's spelling and refusal rule live in canonical.py; cli.py
    # writes its human output.
    package = Path(ambox.__file__).parent
    allowed = {"canonical.py", "cli.py"}
    found = []
    for path in sorted(package.rglob("*.py")):
        name = path.relative_to(package).as_posix()
        if name in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                found.extend(f"{name}:{node.lineno} import {alias.name}"
                             for alias in node.names if alias.name.split(".")[0] == "json")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
                found.append(f"{name}:{node.lineno} from {node.module}")
            elif (isinstance(node, ast.Attribute) and node.attr in ("dumps", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                found.append(f"{name}:{node.lineno} json.{node.attr}")
    assert found == []


def test_only_canonical_parses_json():
    # One parse: every file, message and answer AmBox reads goes through
    # canonical.py, which refuses what it cannot parse with CanonicalError.
    package = Path(ambox.__file__).parent
    parsers = {"loads", "load", "JSONDecoder"}
    found = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "canonical.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in parsers
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                found.append(f"{path.relative_to(package)}:{node.lineno} json.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                found.extend(f"{path.relative_to(package)}:{node.lineno} {alias.name}"
                             for alias in node.names if alias.name in parsers)
    assert found == []


def test_timestamp_format_parse_roundtrip():
    assert canonical.format_millis(0) == "1970-01-01T00:00:00.000Z"
    assert canonical.format_millis(1_704_067_200_123) == "2024-01-01T00:00:00.123Z"
    assert canonical.parse_millis("2024-01-01T00:00:00.123Z") == 1_704_067_200_123


@pytest.mark.parametrize(
    "text",
    [
        "2024-01-01T00:00:00Z",          # missing millis
        "2024-01-01T00:00:00.1234Z",     # too many digits
        "2024-01-01 00:00:00.000Z",      # wrong separator
        "2024-13-01T00:00:00.000Z",      # bad month
        "2024-01-01T00:00:00.000+00:00", # offset form not canonical
        "not a time",
        "\u0662\u0660\u0662\u0664-01-01T00:00:00.000Z",  # Arabic-Indic digits
        "2024-01-01T00:00:00.000Z\n",   # trailing newline
        "1900-02-29T00:00:00.000Z",      # 1900 is not a leap year
        "2100-02-29T00:00:00.000Z",      # nor is 2100
    ],
)
def test_timestamp_parse_strict(text):
    with pytest.raises(canonical.CanonicalError):
        canonical.parse_millis(text)


def test_timestamp_leap_day_2000():
    assert canonical.parse_millis("2000-02-29T00:00:00.000Z") == 951_782_400_000
    assert canonical.format_millis(951_782_400_000) == "2000-02-29T00:00:00.000Z"


def test_timestamp_year_9999_boundary():
    last = 253_402_300_799_999
    assert canonical.format_millis(last) == "9999-12-31T23:59:59.999Z"
    assert canonical.parse_millis("9999-12-31T23:59:59.999Z") == last
    with pytest.raises(canonical.CanonicalError):
        canonical.format_millis(last + 1)


@given(st.integers(min_value=0, max_value=4_102_444_800_000))
def test_timestamp_roundtrip_property(ms):
    assert canonical.parse_millis(canonical.format_millis(ms)) == ms


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


@given(st.integers(min_value=0, max_value=253_402_300_799_999))
def test_timestamp_matches_datetime_reference(ms):
    text = (_EPOCH + timedelta(milliseconds=ms)).strftime("%Y-%m-%dT%H:%M:%S") + f".{ms % 1000:03d}Z"
    assert canonical.format_millis(ms) == text
    assert canonical.parse_millis(text) == ms


@given(st.integers(1, 9999), st.integers(0, 13), st.integers(0, 32), st.integers(0, 24),
       st.integers(0, 60), st.integers(0, 60), st.integers(0, 999))
def test_timestamp_calendar_validity_matches_datetime(year, month, day, hour, minute, second,
                                                      millis):
    text = f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}.{millis:03d}Z"
    try:
        reference = datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)
    except ValueError:
        with pytest.raises(canonical.CanonicalError):
            canonical.parse_millis(text)
        return
    expected = int((reference - _EPOCH).total_seconds()) * 1000 + millis
    assert canonical.parse_millis(text) == expected


@given(
    st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-(10**12), max_value=10**12),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.text(max_size=20),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=20,
    )
)
def test_dumps_loads_roundtrip(obj):
    assert canonical.loads(canonical.dumps(obj)) == obj
