"""Two JSON spellings: canonical, for what is signed, hashed or stored, and
wire, for what is sent.

Canonical bytes are UTF-8 JSON with sorted keys, no insignificant whitespace,
shortest round-trip floats and RFC 3339 UTC millisecond timestamps, so equal
values give identical bytes and signatures and block hashes stay stable.
Wire text is `json.dumps(obj, sort_keys=True)`, but a signed payload is sent
as it was signed: a `GetRecent` answer holds each report as its payload's
text, never spelled again as wire text. This module holds the one JSON
parse: every file and message AmBox reads is parsed here, and every refusal,
nesting too deep included, is a CanonicalError. `wire_loads` also refuses a
message that is not one JSON object, and each receiver answers that refusal
its own way. What the parsed value must hold is `model`'s rule.

A signed envelope `{"payload_b64", "signature_b64", "signer"}` has both
spellings written from a template (`envelope_text`, `envelope_wire_text`):
base64 text needs no JSON escaping, so only the signer goes through a string
encoder, and a ledger block or an `AddEvents` request is joined from the
envelopes' texts instead of encoding their kilobytes of base64 again.
"""

from __future__ import annotations

import json
import math
import re
from datetime import datetime, timedelta


class CanonicalError(ValueError):
    """Value cannot be represented canonically (NaN, bad timestamp, ...)."""


# ASCII digits only, matched over the whole string (`fullmatch`): `\d`
# would admit other scripts' digits and `$` a trailing newline, giving one
# instant several spellings. The clock's ranges are checked here (no hour
# 24, no leap second); the calendar's by `datetime`.
_RFC3339_MS = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]\.[0-9]{3}Z"
)
_EPOCH = datetime(1970, 1, 1)
_MILLISECOND = timedelta(milliseconds=1)

# 9999-12-31T23:59:59.999Z, the last instant with a four-digit year.
_MAX_MILLIS = 253_402_300_799_999
# Kept for every call: `json.dumps(obj, sort_keys=True)` builds an encoder per call.
# No cycle check: everything sent is parsed JSON or a `to_obj` tree, neither
# of which can hold a cycle, so the check would only add cost; it changes no
# byte of the output.
_WIRE_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)
_DECODER = json.JSONDecoder()


# The string encoders `dumps` (`ensure_ascii=False`) and `wire_text` use.
_CANONICAL_STR = json.encoder.encode_basestring
_WIRE_STR = json.encoder.encode_basestring_ascii


def dumps(obj) -> bytes:
    """Encode `obj` as canonical JSON bytes."""
    _reject_non_finite(obj)
    text = json.dumps(
        obj,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        allow_nan=False,
    )
    return text.encode("utf-8")


def loads(data: bytes | memoryview):
    """Parse JSON bytes (or a view of them, decoded without a copy of the
    bytes); raises CanonicalError on anything unparseable."""
    try:
        return json.loads(str(data, "utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CanonicalError(f"not valid JSON: {exc}") from exc


# `wire_loads`' name for the same parse, which a tracer that wraps `loads`
# does not see: it sees stored documents and signed payloads only.
_parse = loads


def loads_exact(text: str):
    """The JSON value that is the whole of `text`, found in one scan, for
    text with nothing around its value, as canonical text has. Raises
    CanonicalError for any other text (not JSON, nested too deep, or JSON
    with whitespace or more after its value), which `loads` may still
    parse, or refuse with its own message."""
    try:
        obj, end = _DECODER.raw_decode(text)
    except (ValueError, RecursionError) as exc:
        raise CanonicalError(f"not valid JSON: {exc}") from exc
    if end != len(text):
        raise CanonicalError(f"more text after the JSON value, at {end}")
    return obj


def wire_text(obj) -> str:
    """The wire's JSON text of `obj`: `json.dumps(obj, sort_keys=True)`."""
    return _WIRE_ENCODER.encode(obj)


def wire_dumps(obj) -> bytes:
    """The wire's bytes of `obj`: `wire_text` as UTF-8."""
    return wire_text(obj).encode("utf-8")


def envelope_text(payload_b64: str, signature_b64: str, signer: str) -> str:
    """`dumps(obj).decode()` of the envelope object with these three fields.

    Both base64 fields must hold standard-alphabet base64 (as `b64encode`
    writes it, or as `SignedEnvelope.from_wire_obj` validated it): they go
    into the text unescaped."""
    return (f'{{"payload_b64":"{payload_b64}","signature_b64":"{signature_b64}",'
            f'"signer":{_CANONICAL_STR(signer)}}}')


def envelope_wire_text(payload_b64: str, signature_b64: str, signer: str) -> str:
    """`wire_text(obj)` of the envelope object with these three fields, under
    `envelope_text`'s condition on the base64 fields."""
    return (f'{{"payload_b64": "{payload_b64}", "signature_b64": "{signature_b64}", '
            f'"signer": {_WIRE_STR(signer)}}}')


def wire_loads(data: bytes) -> dict:
    """One received message's JSON object; CanonicalError for bytes that
    `loads` refuses, or that are not an object."""
    obj = _parse(data)
    if not isinstance(obj, dict):
        raise CanonicalError(f"message is a {type(obj).__name__}, not an object")
    return obj


def _reject_non_finite(obj) -> None:
    if isinstance(obj, float) and not math.isfinite(obj):
        raise CanonicalError("non-finite float has no canonical form")
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                raise CanonicalError("canonical objects use string keys only")
            _reject_non_finite(value)
    elif isinstance(obj, (list, tuple)):
        if isinstance(obj, tuple) and type(obj) is not tuple:
            # A record (a reading, a report) reaches JSON through its
            # `to_obj`, never as the array of its fields.
            raise CanonicalError(f"a {type(obj).__name__} record has no canonical form")
        for value in obj:
            _reject_non_finite(value)


def format_millis(ms: int) -> str:
    """Epoch milliseconds (UTC) -> RFC 3339 string with exactly 3 decimals."""
    if not isinstance(ms, int) or isinstance(ms, bool):
        raise CanonicalError(f"timestamp must be integer milliseconds, got {ms!r}")
    if ms < 0:
        raise CanonicalError("timestamps before the epoch are not supported")
    if ms > _MAX_MILLIS:
        raise CanonicalError(f"timestamp {ms} is past year 9999")
    return (_EPOCH + ms * _MILLISECOND).isoformat(timespec="milliseconds") + "Z"


def parse_millis(text: str) -> int:
    """Strict inverse of format_millis.

    Years 0001-1969 parse to negative milliseconds, which format_millis
    refuses.
    """
    if not isinstance(text, str):
        raise CanonicalError(f"timestamp must be a string, got {type(text).__name__}")
    if _RFC3339_MS.fullmatch(text) is None:
        raise CanonicalError(f"timestamp not in canonical RFC 3339 form: {text!r}")
    try:
        instant = datetime.fromisoformat(text[:-1])
    except ValueError as exc:
        raise CanonicalError(f"invalid calendar timestamp: {text!r}") from exc
    return (instant - _EPOCH) // _MILLISECOND
