"""Single-process verifiable ledger: signed-event ingestion, hash-chained
blocks, world state, and queries.

Ingest rules per envelope: the signer must be registered, the signature must
verify over the payload bytes, the payload must parse into a valid report,
and the report id must be new. A batch of accepted envelopes becomes one
block; resubmitting a committed report id is an idempotent success (flagged
as a replay) so at-least-once senders converge on exactly-once ledger state.

Blocks live in an append-only file of canonical JSON lines. Each block stores
the hash of its own core and the hash of its predecessor. One walker,
`_walk_blocks`, checks every block's height, `prev_hash` link and hash; replay
at startup, `verify_chain` and `Ledger.blocks` all read the log through it,
so any single flipped byte in the stored log is detected at exactly the
height it damaged, and a log that does not link does not open. World state
is rebuilt by replaying the block log at startup, which doubles as the safety
check that state is a pure function of the log.

The ledger keeps no record of its verdicts beyond the reply to each
`AddEvents`: what was committed, in which order and when is the chain
itself, read back through `blocks`.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from . import canonical
from .envelope import (
    MalformedEnvelope,
    MalformedKey,
    SignedEnvelope,
    load_public_key,
    verify,
)
from .model import DeviceIdentity, EventReport, ModelError, validate_report
from .storage import SCHEMA_VERSION, _atomic_write
from .transport import RequestClient

logger = logging.getLogger(__name__)

ZERO_HASH = "0" * 64
BLOCKS_FILE = "blocks.journal"
REGISTRY_FILE = "registry.json"

REASON_MALFORMED = "malformed-envelope"
REASON_UNKNOWN_SIGNER = "unknown-signer"
REASON_BAD_SIGNATURE = "signature-invalid"
REASON_INVALID_REPORT = "invalid-report"


class LedgerError(Exception):
    pass


class AlreadyRegistered(LedgerError):
    """Same device id presented with a different public key."""


class CorruptLedger(LedgerError):
    """The stored ledger is unreadable; `height` names the first bad block."""

    def __init__(self, message: str, height: Optional[int] = None) -> None:
        super().__init__(message)
        self.height = height


@dataclass(frozen=True)
class LedgerBlock:
    height: int
    prev_hash: str
    transactions: tuple[dict, ...]
    committed_at: int
    block_hash: str

    @staticmethod
    def core_obj(height: int, prev_hash: str, transactions: tuple[dict, ...],
                 committed_at: int) -> dict[str, Any]:
        return {
            "height": height,
            "prev_hash": prev_hash,
            "transactions": list(transactions),
            "committed_at": canonical.format_millis(committed_at),
        }

    @classmethod
    def build(cls, height: int, prev_hash: str, transactions: tuple[dict, ...],
              committed_at: int) -> "LedgerBlock":
        core = cls.core_obj(height, prev_hash, transactions, committed_at)
        block_hash = hashlib.sha256(canonical.dumps(core)).hexdigest()
        return cls(height, prev_hash, transactions, committed_at, block_hash)

    def to_obj(self) -> dict[str, Any]:
        obj = self.core_obj(self.height, self.prev_hash, self.transactions, self.committed_at)
        obj["block_hash"] = self.block_hash
        return obj


@dataclass(frozen=True)
class Verdict:
    status: str                      # "committed" | "rejected"
    report_id: Optional[str] = None
    reason: Optional[str] = None
    replay: bool = False

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {"status": self.status}
        if self.report_id is not None:
            obj["report_id"] = self.report_id
        if self.reason is not None:
            obj["reason"] = self.reason
        if self.replay:
            obj["replay"] = True
        return obj

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "Verdict":
        return cls(
            status=str(obj["status"]),
            report_id=obj.get("report_id"),
            reason=obj.get("reason"),
            replay=bool(obj.get("replay", False)),
        )


@dataclass
class _StoredReport:
    payload_b64: str
    report: EventReport
    height: int


class Ledger:
    """The authoritative event store. One commit point, concurrent queries."""

    def __init__(self, directory: str | Path, genesis_at_ms: int = 0) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._blocks_path = self._dir / BLOCKS_FILE
        self._registry_path = self._dir / REGISTRY_FILE
        self._lock = threading.Lock()
        self._keys: dict[str, str] = {}
        self._kinds: dict[str, str] = {}
        self._reports: dict[str, _StoredReport] = {}
        self._tip_hash = ZERO_HASH
        self._height = -1
        self._load_registry()
        self._replay_blocks()
        if self._height < 0:
            self._append_block((), genesis_at_ms)

    # -- persistence --------------------------------------------------------

    def _load_registry(self) -> None:
        if not self._registry_path.exists():
            return
        try:
            obj = json.loads(self._registry_path.read_text("utf-8"))
            self._keys = {str(k): str(v["public_key_pem"]) for k, v in obj["devices"].items()}
            self._kinds = {str(k): str(v.get("kind", "node")) for k, v in obj["devices"].items()}
        except (ValueError, KeyError, TypeError) as exc:
            raise CorruptLedger(f"registry unreadable: {exc}") from exc

    def _save_registry(self) -> None:
        obj = {
            "schema_version": SCHEMA_VERSION,
            "devices": {
                device_id: {"public_key_pem": pem, "kind": self._kinds.get(device_id, "node")}
                for device_id, pem in sorted(self._keys.items())
            },
        }
        _atomic_write(self._registry_path, json.dumps(obj, indent=2, sort_keys=True).encode())

    def _replay_blocks(self) -> None:
        if not self._blocks_path.exists():
            self._blocks_path.touch()
            return
        for block in _walk_blocks(self._blocks_path.read_bytes()):
            self._apply_block(block)

    def _apply_block(self, block: LedgerBlock) -> None:
        self._height = block.height
        self._tip_hash = block.block_hash
        for tx in block.transactions:
            envelope = SignedEnvelope.from_wire_obj(tx)
            report = EventReport.from_obj(canonical.loads(envelope.payload))
            self._reports[report.report_id] = _StoredReport(
                payload_b64=tx["payload_b64"],
                report=report,
                height=block.height,
            )

    def _append_block(self, transactions: tuple[dict, ...], committed_at: int) -> LedgerBlock:
        block = LedgerBlock.build(self._height + 1, self._tip_hash, transactions, committed_at)
        with open(self._blocks_path, "ab") as f:
            f.write(canonical.dumps(block.to_obj()) + b"\n")
            f.flush()
            os.fsync(f.fileno())
        self._apply_block(block)
        return block

    # -- operations -----------------------------------------------------------

    def register_device(self, identity: DeviceIdentity) -> str:
        """Returns "ok" or "already-registered" (same key). A different key
        for a known id raises AlreadyRegistered; a bad key raises MalformedKey."""
        load_public_key(identity.public_key_pem)  # MalformedKey if undecodable
        with self._lock:
            existing = self._keys.get(identity.device_id)
            if existing is not None:
                if existing == identity.public_key_pem:
                    return "already-registered"
                raise AlreadyRegistered(
                    f"{identity.device_id} already registered with a different key"
                )
            self._keys[identity.device_id] = identity.public_key_pem
            self._kinds[identity.device_id] = identity.kind.value
            self._save_registry()
            return "ok"

    def registered_key(self, device_id: str) -> Optional[str]:
        with self._lock:
            return self._keys.get(device_id)

    def add_events(self, envelopes: list[Any], received_at: int) -> list[Verdict]:
        """Verify each envelope; commit the acceptable ones as one block."""
        with self._lock:
            verdicts: list[Verdict] = []
            accepted: list[dict] = []
            batch_ids: set[str] = set()
            for raw in envelopes:
                verdict = self._judge(raw, batch_ids)
                verdicts.append(verdict)
                if verdict.status == "committed" and not verdict.replay:
                    envelope = raw if isinstance(raw, dict) else raw.to_wire_obj()
                    accepted.append(envelope)
                    batch_ids.add(verdict.report_id or "")
            if accepted:
                self._append_block(tuple(accepted), received_at)
            return verdicts

    def _judge(self, raw: Any, batch_ids: set[str]) -> Verdict:
        try:
            envelope = raw if isinstance(raw, SignedEnvelope) else SignedEnvelope.from_wire_obj(raw)
        except MalformedEnvelope:
            return Verdict("rejected", reason=REASON_MALFORMED)
        pem = self._keys.get(envelope.signer)
        if pem is None:
            return Verdict("rejected", reason=REASON_UNKNOWN_SIGNER)
        try:
            if not verify(pem, envelope):
                return Verdict("rejected", reason=REASON_BAD_SIGNATURE)
        except (MalformedEnvelope, MalformedKey):
            return Verdict("rejected", reason=REASON_MALFORMED)
        try:
            report = EventReport.from_obj(canonical.loads(envelope.payload))
        except (canonical.CanonicalError, ModelError):
            return Verdict("rejected", reason=REASON_INVALID_REPORT)
        if validate_report(report):
            return Verdict("rejected", report_id=report.report_id, reason=REASON_INVALID_REPORT)
        if report.device_id != envelope.signer:
            return Verdict("rejected", report_id=report.report_id, reason=REASON_BAD_SIGNATURE)
        if report.report_id in self._reports or report.report_id in batch_ids:
            return Verdict("committed", report_id=report.report_id, replay=True)
        return Verdict("committed", report_id=report.report_id)

    def get_event(self, report_id: str) -> Optional[EventReport]:
        with self._lock:
            stored = self._reports.get(report_id)
            return stored.report if stored else None

    def get_event_payload(self, report_id: str) -> Optional[str]:
        """Base64 of the exact signed bytes, byte-identical to submission."""
        with self._lock:
            stored = self._reports.get(report_id)
            return stored.payload_b64 if stored else None

    def get_recent(self, device_id: Optional[str] = None, batch_no: Optional[str] = None,
                   limit: int = 10) -> list[EventReport]:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        with self._lock:
            matches = [
                s.report
                for s in self._reports.values()
                if (device_id is None or s.report.device_id == device_id)
                and (batch_no is None or s.report.batch_no == batch_no)
            ]
        matches.sort(key=lambda r: (-r.created_at, r.report_id))
        return matches[:limit]

    def all_reports(self) -> list[EventReport]:
        with self._lock:
            return [self._reports[rid].report for rid in sorted(self._reports)]

    @property
    def height(self) -> int:
        with self._lock:
            return self._height

    def blocks(self) -> list[LedgerBlock]:
        """The stored chain in commit order, checked as replay checks it."""
        with self._lock:
            return list(_walk_blocks(self._blocks_path.read_bytes()))

    def verify_chain(self) -> Optional[int]:
        """None when intact; otherwise the height of the first broken block."""
        with self._lock:
            try:
                raw = self._blocks_path.read_bytes()
            except OSError:
                return 0
            try:
                walked = sum(1 for _ in _walk_blocks(raw))
            except CorruptLedger as exc:
                return exc.height
            return None if walked else 0

    # Tests compare these two as the oracle that state is a pure function of
    # the block log.
    def world_state_bytes(self) -> bytes:
        """Canonical serialization of the whole world state."""
        with self._lock:
            obj = {
                "reports": {
                    rid: {"payload_b64": s.payload_b64, "height": s.height}
                    for rid, s in sorted(self._reports.items())
                },
                "devices": {
                    device_id: {"public_key_pem": pem, "kind": self._kinds.get(device_id, "node")}
                    for device_id, pem in sorted(self._keys.items())
                },
                "height": self._height,
                "tip_hash": self._tip_hash,
            }
        return canonical.dumps(obj)

    @classmethod
    def replayed_world_state(cls, directory: str | Path) -> bytes:
        """Rebuild state from the on-disk log alone and serialize it."""
        return cls(directory).world_state_bytes()


def _walk_blocks(raw: bytes) -> Iterator[LedgerBlock]:
    """Yield the blocks of a stored block log in order.

    Each line must parse, carry its line number as height, link to the
    previous block's hash and hash to its stored `block_hash`. The first that
    does not raises CorruptLedger carrying its height.
    """
    prev_hash = ZERO_HASH
    for height, line in enumerate(raw.splitlines()):
        try:
            block = _parse_block_line(line)
        except CorruptLedger as exc:
            raise CorruptLedger(f"block {height}: {exc}", height) from exc
        if block.height != height:
            raise CorruptLedger(f"block {height} has height {block.height}", height)
        if block.prev_hash != prev_hash:
            raise CorruptLedger(f"block {height} does not link to block {height - 1}", height)
        prev_hash = block.block_hash
        yield block


def _parse_block_line(line: bytes) -> LedgerBlock:
    try:
        obj = json.loads(line.decode("utf-8"))
        stored_hash = str(obj["block_hash"])
        transactions = tuple(obj["transactions"])
        block = LedgerBlock(
            height=int(obj["height"]),
            prev_hash=str(obj["prev_hash"]),
            transactions=transactions,
            committed_at=canonical.parse_millis(obj["committed_at"]),
            block_hash=stored_hash,
        )
    except (ValueError, KeyError, TypeError, canonical.CanonicalError) as exc:
        raise CorruptLedger(f"unparseable block: {exc}") from exc
    core = LedgerBlock.core_obj(block.height, block.prev_hash, block.transactions,
                                block.committed_at)
    recomputed = hashlib.sha256(canonical.dumps(core)).hexdigest()
    if recomputed != stored_hash:
        raise CorruptLedger("block hash mismatch")
    return block


# -- wire service -------------------------------------------------------------

OP_ADD_EVENTS = "AddEvents"
OP_GET_EVENT = "GetEvent"
OP_GET_RECENT = "GetRecent"
OP_REGISTER_DEVICE = "RegisterDevice"
OP_VERIFY_CHAIN = "VerifyChain"


class LedgerService:
    """Request/response front end over the framed transport protocol.

    Channel and chaincode names are accepted and echoed for interface
    fidelity; they all route to the single ledger instance.
    """

    def __init__(self, ledger: Ledger, clock: Callable[[], int]) -> None:
        self.ledger = ledger
        self._clock = clock

    def handle(self, src: str, payload: bytes) -> bytes:
        try:
            obj = json.loads(payload.decode("utf-8"))
            op = str(obj["op"])
            args = obj.get("args") or {}
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError) as exc:
            return self._error(f"malformed request: {exc}")
        try:
            result = self._dispatch(op, args)
        except AlreadyRegistered as exc:
            return self._error(str(exc), code="already-registered", obj=obj)
        except MalformedKey as exc:
            return self._error(str(exc), code="malformed-key", obj=obj)
        except (ValueError, ModelError) as exc:
            return self._error(str(exc), code="bad-args", obj=obj)
        response = {"ok": True, "result": result}
        for echo in ("channel_name", "chaincode_name"):
            if echo in obj:
                response[echo] = obj[echo]
        return json.dumps(response, sort_keys=True).encode("utf-8")

    def _dispatch(self, op: str, args: dict) -> Any:
        if op == OP_ADD_EVENTS:
            verdicts = self.ledger.add_events(list(args["envelopes"]), self._clock())
            return {"verdicts": [v.to_obj() for v in verdicts]}
        if op == OP_GET_EVENT:
            payload_b64 = self.ledger.get_event_payload(str(args["report_id"]))
            if payload_b64 is None:
                return {"found": False}
            return {"found": True, "payload_b64": payload_b64}
        if op == OP_GET_RECENT:
            reports = self.ledger.get_recent(
                device_id=args.get("device_id"),
                batch_no=args.get("batch_no"),
                limit=int(args.get("limit", 10)),
            )
            return {"reports": [r.to_obj() for r in reports]}
        if op == OP_REGISTER_DEVICE:
            identity = DeviceIdentity.from_obj(args["identity"])
            return {"registration": self.ledger.register_device(identity)}
        if op == OP_VERIFY_CHAIN:
            broken = self.ledger.verify_chain()
            return {"intact": broken is None, "first_broken_height": broken}
        raise ValueError(f"unknown op {op!r}")

    @staticmethod
    def _error(message: str, code: str = "malformed-request", obj: Optional[dict] = None) -> bytes:
        response: dict[str, Any] = {"ok": False, "error": code, "message": message}
        if obj:
            for echo in ("channel_name", "chaincode_name"):
                if echo in obj:
                    response[echo] = obj[echo]
        return json.dumps(response, sort_keys=True).encode("utf-8")


class LedgerClientError(LedgerError):
    """The service answered, but with an application-level error."""


class LedgerClient:
    """Typed client over any RequestClient (simulated or TCP)."""

    def __init__(self, requester: RequestClient, dest: str,
                 channel_name: str = "ambox", chaincode_name: str = "events",
                 timeout_ms: int = 10_000) -> None:
        self._requester = requester
        self.dest = dest
        self.channel_name = channel_name
        self.chaincode_name = chaincode_name
        self.timeout_ms = timeout_ms

    def _call(self, op: str, args: dict) -> dict:
        payload = json.dumps(
            {
                "op": op,
                "args": args,
                "channel_name": self.channel_name,
                "chaincode_name": self.chaincode_name,
            },
            sort_keys=True,
        ).encode("utf-8")
        raw = self._requester.request(self.dest, payload, self.timeout_ms, label=f"ledger:{op}")
        obj = json.loads(raw.decode("utf-8"))
        if not obj.get("ok"):
            raise LedgerClientError(f"{obj.get('error')}: {obj.get('message')}")
        return obj["result"]

    def register_device(self, identity: DeviceIdentity) -> str:
        return self._call(OP_REGISTER_DEVICE, {"identity": identity.to_obj()})["registration"]

    def add_events(self, envelopes: list[SignedEnvelope]) -> list[Verdict]:
        result = self._call(OP_ADD_EVENTS, {"envelopes": [e.to_wire_obj() for e in envelopes]})
        return [Verdict.from_obj(v) for v in result["verdicts"]]

    def get_event(self, report_id: str) -> Optional[EventReport]:
        result = self._call(OP_GET_EVENT, {"report_id": report_id})
        if not result["found"]:
            return None
        payload = base64.b64decode(result["payload_b64"])
        return EventReport.from_obj(canonical.loads(payload))

    def get_recent(self, device_id: Optional[str] = None, batch_no: Optional[str] = None,
                   limit: int = 10) -> list[EventReport]:
        args: dict[str, Any] = {"limit": limit}
        if device_id is not None:
            args["device_id"] = device_id
        if batch_no is not None:
            args["batch_no"] = batch_no
        result = self._call(OP_GET_RECENT, args)
        return [EventReport.from_obj(r) for r in result["reports"]]

    def verify_chain(self) -> Optional[int]:
        result = self._call(OP_VERIFY_CHAIN, {})
        return None if result["intact"] else int(result["first_broken_height"])
