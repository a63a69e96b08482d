"""Independent checks of what the ledger stored and answered.

None of these use AmBox code or a stored copy of an earlier output: the
block log is re-hashed with hashlib and the standard json module, signatures
are verified with `cryptography` against the benchmark's own copies of the
public keys, and query answers are compared with the benchmark's own top-k
over the parsed block log. Every failure is attributed to one operation (a
reading or a query) so the run can count it as failed.
"""

from __future__ import annotations

import base64
import hashlib
import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding
from cryptography.hazmat.primitives.asymmetric.rsa import RSAPublicKey

ZERO_HASH = "0" * 64


class ChainError(Exception):
    """The block log itself is broken: nothing read from it can be trusted."""


def canonical_bytes(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False).encode("utf-8")


def rfc3339_ms(ms: int) -> str:
    seconds, millis = divmod(ms, 1000)
    stamp = datetime.fromtimestamp(seconds, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
    return f"{stamp}.{millis:03d}Z"


def parse_rfc3339_ms(text: str) -> int:
    stamp = datetime.strptime(text[:19], "%Y-%m-%dT%H:%M:%S").replace(tzinfo=timezone.utc)
    return int(stamp.timestamp()) * 1000 + int(text[20:23])


@dataclass(frozen=True)
class StoredReport:
    height: int
    payload: bytes
    signature: bytes
    signer: str
    obj: dict

    @property
    def report_id(self) -> str:
        return self.obj["report_id"]

    @property
    def sort_key(self) -> tuple[int, str]:
        return (-parse_rfc3339_ms(self.obj["created_at"]), self.obj["report_id"])


def read_chain(path: Path) -> list[StoredReport]:
    """Re-hash every block, check heights and prev_hash links, and return
    every stored report in log order. Raises ChainError on any break."""
    reports: list[StoredReport] = []
    prev_hash = ZERO_HASH
    for height, line in enumerate(Path(path).read_bytes().splitlines()):
        try:
            block = json.loads(line)
            core = {k: block[k] for k in ("height", "prev_hash", "transactions", "committed_at")}
        except (ValueError, KeyError, TypeError) as exc:
            raise ChainError(f"block {height}: unreadable ({exc})") from exc
        if block["height"] != height:
            raise ChainError(f"block {height}: stored height {block['height']}")
        if block["prev_hash"] != prev_hash:
            raise ChainError(f"block {height}: prev_hash does not link to block {height - 1}")
        if hashlib.sha256(canonical_bytes(core)).hexdigest() != block.get("block_hash"):
            raise ChainError(f"block {height}: block_hash does not match its content")
        prev_hash = block["block_hash"]
        for tx in block["transactions"]:
            try:
                payload = base64.b64decode(tx["payload_b64"], validate=True)
                reports.append(StoredReport(
                    height=height,
                    payload=payload,
                    signature=base64.b64decode(tx["signature_b64"], validate=True),
                    signer=tx["signer"],
                    obj=json.loads(payload),
                ))
            except (ValueError, KeyError, TypeError) as exc:
                raise ChainError(f"block {height}: unreadable transaction ({exc})") from exc
    if not reports and prev_hash == ZERO_HASH:
        raise ChainError("block log is empty")
    return reports


def signature_ok(key: Optional[RSAPublicKey], payload: bytes, signature: bytes) -> bool:
    if key is None:
        return False
    try:
        key.verify(signature, payload, padding.PKCS1v15(), hashes.SHA256())
        return True
    except InvalidSignature:
        return False


def reading_key(reading: dict) -> tuple:
    """A stored reading, as the multiset check compares it."""
    return (reading["source_device"], reading["quantity"], reading["sampled_at"],
            float(reading["value"]))


def sample_key(device: str, quantity: str, t_ms: int, value: float) -> tuple:
    """A generated or sampled reading, in the form reading_key gives."""
    return (device, quantity, rfc3339_ms(t_ms), float(value))


@dataclass
class Outcome:
    """Failed operations by kind, and problems no single operation explains."""

    failed_readings: int = 0
    failed_queries: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.failed_readings + self.failed_queries

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)


def check_reports(stored: list[StoredReport], first_height: int, expected_readings: Counter,
                  public_keys: dict[str, RSAPublicKey], outcome: Outcome,
                  expected_payloads: Optional[dict[str, bytes]] = None) -> list[StoredReport]:
    """Check the reports committed from `first_height` on against what was
    generated or sampled; returns those reports.

    A reading fails when it is missing, committed more than once, or carried
    by a report whose signature (or, for a relayed reading, its own
    signature) does not verify. Report ids must be unique across the log.
    """
    ids = Counter(s.report_id for s in stored)
    duplicated = {rid for rid, n in ids.items() if n > 1}
    if duplicated:
        outcome.note(f"report ids committed more than once: {sorted(duplicated)[:3]}")
    run = [s for s in stored if s.height >= first_height]
    committed: Counter = Counter()
    for s in run:
        report_ok = (
            s.signer == s.obj.get("device_id")
            and s.report_id not in duplicated
            and signature_ok(public_keys.get(s.signer), s.payload, s.signature)
            and (expected_payloads is None or expected_payloads.get(s.report_id) == s.payload)
        )
        if not report_ok:
            outcome.note(f"report {s.report_id} at height {s.height} fails its checks")
        for reading in s.obj["readings"]:
            ok = report_ok
            relayed = reading.get("signature_b64")
            if ok and relayed is not None:
                core = {k: v for k, v in reading.items() if k != "signature_b64"}
                ok = signature_ok(public_keys.get(reading["source_device"]), canonical_bytes(core),
                                  base64.b64decode(relayed))
            if ok:
                committed[reading_key(reading)] += 1
    missing = expected_readings - committed
    extra = committed - expected_readings
    twice = sum(n for key, n in extra.items() if key in expected_readings)
    outcome.failed_readings += sum(missing.values()) + twice
    if twice:
        outcome.note(f"{twice} readings were committed more than once")
    if twice < sum(extra.values()):
        outcome.note("committed readings that were never generated, e.g. "
                     f"{next(k for k in extra if k not in expected_readings)}")
    return run


@dataclass(frozen=True)
class Committed:
    """What a run phase added to the log."""

    reports: int = 0
    readings: int = 0
    relayed_readings: int = 0        # sampled by a mote, carried by a node

    @classmethod
    def of(cls, run: list[StoredReport]) -> "Committed":
        readings = [r for s in run for r in s.obj["readings"]]
        return cls(len(run), len(readings), sum(1 for r in readings if "signature_b64" in r))


class TopK:
    """The benchmark's own GetRecent: newest first, ties by report id, over
    the reports committed up to a given height."""

    def __init__(self, stored: list[StoredReport]) -> None:
        self._by_device: dict[str, list[StoredReport]] = defaultdict(list)
        self._by_batch: dict[str, list[StoredReport]] = defaultdict(list)
        for s in stored:
            self._by_device[s.obj["device_id"]].append(s)
            self._by_batch[s.obj["batch_no"]].append(s)
        for groups in (self._by_device, self._by_batch):
            for group in groups.values():
                group.sort(key=lambda s: s.sort_key)

    def expected(self, device_id: Optional[str], batch_no: Optional[str], limit: int,
                 height: int) -> list[dict]:
        if device_id is not None:
            group = self._by_device.get(device_id, [])
        else:
            group = self._by_batch.get(batch_no, [])
        out = []
        for s in group:
            if s.height <= height:
                out.append(s.obj)
                if len(out) == limit:
                    break
        return out


@dataclass
class QueryRecord:
    """One auditor query with its raw answer and the heights it may have seen."""

    op: str                          # "recent" | "event"
    args: dict
    response: bytes
    height_lo: int
    height_hi: int


def check_queries(records: list[QueryRecord], stored: list[StoredReport],
                  signed_payloads: dict[str, bytes], outcome: Outcome) -> None:
    """GetEvent must return the signed bytes exactly (the benchmark's own copy
    where it signed them, else the logged payload whose signature
    check_reports verified); GetRecent must equal TopK at a height the query
    could have seen."""
    topk = TopK(stored)
    by_id = {s.report_id: s for s in stored}
    for record in records:
        if not _query_ok(record, topk, by_id, signed_payloads):
            outcome.failed_queries += 1
            outcome.note(f"query {record.op} {record.args} got a wrong answer")


def _query_ok(record: QueryRecord, topk: TopK, by_id: dict[str, StoredReport],
              signed_payloads: dict[str, bytes]) -> bool:
    try:
        answer = json.loads(record.response)
        result = answer["result"]
    except (ValueError, KeyError, TypeError):
        return False
    if not answer.get("ok"):
        return False
    if record.op == "event":
        stored = by_id.get(record.args["report_id"])
        if stored is None or stored.height > record.height_hi or not result.get("found"):
            return False
        signed = signed_payloads.get(stored.report_id, stored.payload)
        return base64.b64decode(result["payload_b64"]) == signed
    reports = result.get("reports")
    return any(
        reports == topk.expected(record.args.get("device_id"), record.args.get("batch_no"),
                                 record.args["limit"], height)
        for height in range(record.height_lo, record.height_hi + 1)
    )
