"""Canonical JSON encoding shared by signing, hashing, storage, and the wire.

Everything that crosses a trust boundary is encoded exactly one way: UTF-8
JSON with lexicographically sorted keys, no insignificant whitespace, floats
in shortest round-trip form, and timestamps as RFC 3339 UTC with millisecond
precision. Equal values therefore always produce identical bytes, which is
what makes detached signatures and block hashes stable.
"""

from __future__ import annotations

import json
import math
import re


class CanonicalError(ValueError):
    """Value cannot be represented canonically (NaN, bad timestamp, ...)."""


# ASCII digits only, matched over the whole string (`fullmatch`): `\d`
# would admit other scripts' digits and `$` a trailing newline, giving one
# instant several spellings.
_RFC3339_MS = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})\.([0-9]{3})Z"
)

_MS_PER_DAY = 86_400_000
# 9999-12-31T23:59:59.999Z, the last instant with a four-digit year.
_MAX_MILLIS = 253_402_300_799_999
_DAYS_IN_MONTH = (0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


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


def loads(data: bytes):
    """Parse JSON bytes; raises CanonicalError on anything unparseable."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CanonicalError(f"not valid JSON: {exc}") from exc


def _reject_non_finite(obj) -> None:
    if isinstance(obj, float) and not math.isfinite(obj):
        raise CanonicalError("non-finite float has no canonical form")
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                raise CanonicalError("canonical objects use string keys only")
            _reject_non_finite(value)
    elif isinstance(obj, (list, tuple)):
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
    days, ms_of_day = divmod(ms, _MS_PER_DAY)
    year, month, day = _civil_from_days(days)
    seconds, millis = divmod(ms_of_day, 1000)
    minutes, second = divmod(seconds, 60)
    hour, minute = divmod(minutes, 60)
    return "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" % (year, month, day, hour, minute, second, millis)


def parse_millis(text: str) -> int:
    """Strict inverse of format_millis.

    Years 0001-1969 parse to negative milliseconds, which format_millis
    refuses.
    """
    if not isinstance(text, str):
        raise CanonicalError(f"timestamp must be a string, got {type(text).__name__}")
    match = _RFC3339_MS.fullmatch(text)
    if match is None:
        raise CanonicalError(f"timestamp not in canonical RFC 3339 form: {text!r}")
    year, month, day, hour, minute, second, millis = map(int, match.groups())
    if not (year >= 1 and 1 <= month <= 12 and 1 <= day <= _days_in_month(year, month)
            and hour <= 23 and minute <= 59 and second <= 59):
        raise CanonicalError(f"invalid calendar timestamp: {text!r}")
    seconds = (_days_from_civil(year, month, day) * 24 + hour) * 3600 + minute * 60 + second
    return seconds * 1000 + millis


def _days_in_month(year: int, month: int) -> int:
    if month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0):
        return 29
    return _DAYS_IN_MONTH[month]


# Proleptic Gregorian calendar <-> days since 1970-01-01, counted in 400-year
# eras of 146,097 days whose years start on March 1, so the leap day ends a
# year (H. Hinnant, "chrono-Compatible Low-Level Date Algorithms").

def _days_from_civil(year: int, month: int, day: int) -> int:
    y = year - 1 if month <= 2 else year
    era, yoe = divmod(y, 400)
    doy = (153 * (month - 3 if month > 2 else month + 9) + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146_097 + doe - 719_468


def _civil_from_days(days: int) -> tuple[int, int, int]:
    era, doe = divmod(days + 719_468, 146_097)
    yoe = (doe - doe // 1460 + doe // 36_524 - doe // 146_096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = mp + 3 if mp < 10 else mp - 9
    year = yoe + era * 400 + (1 if month <= 2 else 0)
    return year, month, day
