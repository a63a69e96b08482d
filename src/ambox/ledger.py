"""Single-process verifiable ledger: signed-event ingestion, hash-chained
blocks, world state, and queries.

Ingest rules per envelope: the signer must be registered, the signature must
verify over the payload bytes, the payload must parse into a valid report,
and the report id must be new. A batch of accepted envelopes becomes one
block; resubmitting a committed report id is an idempotent success (flagged
as a replay) so at-least-once senders converge on exactly-once ledger state.
A block holds only signed envelope fields, as the client sent the envelope
the ledger verified (base64 has one accepted spelling, so these are the
bytes `to_wire_obj` would write); anything a client sent beside them is
dropped. Each transaction's canonical text is spelled once, from those
validated base64 strings (`canonical.envelope_text`), and the block is
joined from these texts, never encoded as a whole.

Blocks live in an append-only file of canonical JSON lines (a
`storage.AppendLog`: a block exists once its line and newline are fsynced,
a torn final block is dropped when the ledger opens, and a failed append is
cut back off the file, if need be by the next append before it writes). A
line is the canonical JSON of a block's core with the core's hash spliced in
front. One walker, `_walk_blocks`, checks every block: replay at startup,
`verify_chain` and `Ledger.blocks` all read the log through it. It hashes
each stored line's own bytes, so any edited byte, whitespace included, is
detected at exactly the height it damaged. Then it parses the line once,
takes `height` only as a JSON integer and `transactions` only as an array,
and checks the timestamp, the height and the `prev_hash` link, so a log
that does not link does not open. A block costs that hash and that parse:
it is built as a tuple, with no per-line copy. The walk does not decode
transactions; replay does, so a block whose transaction does not decode
passes an audit and stops replay. World state is rebuilt by replaying the
block log at startup, which doubles as the safety check that state is a
pure function of the log.

A block line has one spelling, the one the ledger writes: `_core` joins a
block's core from its fields and its transactions' canonical texts, for
the writer and for replay alike. A line replay judges must be that core
byte for byte, spelled from the fields its transactions decode to, or the
log is corrupt at its height; so replay places each payload by the same
arithmetic as the commit that wrote it (`_joined_spans`), and every
committed report has its place in the log. A line that parses to the same
block in another spelling, re-hashed by hand, still passes an audit, which
neither decodes nor re-joins transactions.

The walker reads the log in place: replay walks the bytes `AppendLog.read`
returns, and an audit (`verify_chain`, `blocks`) walks a read-only map of
the file. Lines are views of those bytes, never copies, so an audit's
memory is bounded by the longest block, not the log. An audit takes the
lock only to read the log's length and walks that prefix without it:
commits and queries go on meanwhile, and the prefix cannot change under
the walk because the log only grows, under the lock.

Beside the block log lies the index log, `blocks.index` (a
`storage.CheckedLog`): one record per block, its height, hash,
`committed_at` and where its line ends in the block log, and per report its
id, device, batch, `created_at` and where its `payload_b64` lies in the
line. A block's record is appended, unsynced, just after the block, under
the lock. The index log is a cache derived from the chain and never trusted
over it: replay still hashes every line and checks every link. A line is
vouched for when its hash is the one its record names, it ends where the
record says, and it links to the block before it at the place a canonical
line holds `prev_hash`. For such a line the walk skips the JSON parse and
the re-check of its `height` and `committed_at`, and replay skips judging
and decoding its payloads: it takes each report's place from its record,
which must be the whole value after a `"payload_b64":"` key: the key before
it, a `"` after it and none inside. That is sound because the hash is the
one recorded when these very bytes were committed, or judged by an earlier
replay: the same bytes hold the same fields and get the same verdicts, and
every such value in a committed line is base64 its ingest validated. The
first record that fails a check ends the index's use, and from that height
on every line is walked and judged as if there were no index log, so a
corrupt block log is refused at the same height with the same
message. Replay then cuts the index log back to the records it used and
appends the judged blocks' records in one write. Deleting the index log is
always safe and costs one full replay. A valid record for a height past the
block log's last block means the block log lost blocks it had made durable;
the ledger warns, naming both heights, and opens all the same.

Memory holds an index, not reports. Each committed report is one
`StoredReport` of atomic values: the block height, device, batch,
`created_at` and the place of its `payload_b64` in the block log, an offset
and a length, which is what its index record names. Its signed bytes stay
in the log. The per-device and per-batch `GetRecent` lists hold
`(-created_at, report_id)` pairs, kept oldest first so that a report newer
than the rest, as an in-order commit is, is appended; a query reads them
from the end. A commit inserts each report into its two lists; replay
appends every report it applies and sorts each list once at the end. The
newest `RECENT_WINDOW` reports of each list are its window, whose signed
bytes the ledger keeps: `GetRecent`'s default `limit`, so a query with it
reads nothing from the log. Replay decodes only the windows' payloads, and
a commit keeps the bytes of a report that lands in a window and drops those
of one it pushes out of both of its windows.

Everything else is read from its place. Committed bytes never change and
the log only grows, so reading a committed place is safe without the lock:
`world_state_bytes` and `all_reports` read their places from a map of the
log, as an audit does, and `GetEvent` answers with the base64 read from its
place, as it was committed. `GetEvent` and a `GetRecent` entry out of every
window read their place with `os.pread` under the lock all the same, as
that is what keeps `close` from taking the descriptor from under them; a
`GetRecent` entry is then decoded outside it, and not kept.

Ingest runs in two steps, one batch at a time (`_ingest_lock`). `_prepare`
runs without the ledger lock: it parses each envelope, looks up its
signer's key (parsed once, when the device registers or the registry
loads), verifies the signature and judges the payload; no commit can change
any of these answers. An envelope's fields are read with one lookup each,
and a report whose fields have their exact JSON types is read in place,
with no field-by-field check. `_commit` holds the lock: it checks each
report id against the stored ones and the batch's earlier ones, then
encodes, appends and applies the block, taking each payload's place from
the lengths of the texts it joined, with no search of the line. It stamps
the block with the instant the request came in, or with its predecessor's
if that is later, so block times never go backwards, whatever the clock
does or however requests overtake each other on their way to the lock. So
a query waits for a block's append, never for a batch's judging; a second
batch waits for the first, as concurrent judging would only contend for the
interpreter lock. Replay judges each stored payload the index does not
vouch for the same way: one that does not decode makes the log corrupt, one
that breaks a report rule was committed all the same.

A signed payload is sent as it was signed. A `GetRecent` answer holds each
report as the JSON text of its committed payload, which the judge parsed as
one JSON object, so the answer is joined from the payloads' bytes, with no
parse, encode or cache per report; a client decodes each through
`EventReport.from_obj` as it would decode the payload itself. A `GetEvent`
answer is written from a template around the payload's base64, which needs
no escaping, and an `AddEvents` answer is written from each verdict's
fields (`_verdict_text`). `LedgerService` writes each ok answer from its
result's text, so the bytes of any answer other than `GetRecent` are what
`canonical.wire_text` of the whole answer would be. A client reads a
committed verdict of its two fields in place.

The ledger keeps no record of its verdicts beyond the reply to each
`AddEvents`: what was committed, in which order and when is the chain
itself, read back through `blocks`.
"""

from __future__ import annotations

import base64
import hashlib
import heapq
import itertools
import logging
import mmap
import os
import threading
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import (Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence,
                    TypeVar)

from cryptography.hazmat.primitives.asymmetric.rsa import RSAPublicKey

from . import canonical
from .canonical import _CANONICAL_STR, _WIRE_STR, wire_dumps, wire_loads, wire_text
from .envelope import (
    MalformedEnvelope,
    MalformedKey,
    SignedEnvelope,
    load_public_key,
    verify,
)
from .model import (
    DeviceIdentity,
    EventReport,
    JudgedReport,
    ModelError,
    _require,
    _require_keys,
    decode_report,
    judge_report,
)
from .storage import SCHEMA_VERSION, AppendLog, CheckedLog, read_document, write_document
from .transport import RequestClient

logger = logging.getLogger(__name__)

ZERO_HASH = "0" * 64
BLOCKS_FILE = "blocks.journal"
INDEX_FILE = "blocks.index"
REGISTRY_FILE = "registry.json"

REASON_MALFORMED = "malformed-envelope"
REASON_UNKNOWN_SIGNER = "unknown-signer"
REASON_BAD_SIGNATURE = "signature-invalid"
REASON_INVALID_REPORT = "invalid-report"

_T = TypeVar("_T")


class LedgerError(Exception):
    pass


class AlreadyRegistered(LedgerError):
    """Same device id presented with a different public key."""


class CorruptLedger(LedgerError):
    """The stored ledger is unreadable; `height` names the first bad block."""

    def __init__(self, message: str, height: Optional[int] = None) -> None:
        super().__init__(message)
        self.height = height


# A stored block line is `{"block_hash":"<64 hex digits>",` followed by the
# hashed core without its opening brace.
_HASH_PREFIX = b'{"block_hash":"'
_CORE_START = len(_HASH_PREFIX) + 64 + len(b'",')
# Then `"committed_at":"<24 characters>","height":<height>,` and the link,
# so in a canonical line the link starts here plus the width of the height.
_LINK_AT = _CORE_START + len(b'"committed_at":"') + 24 + len(b'","height":,')
# The first transaction's text starts here plus the width of the height.
_TRANSACTIONS_AT = _LINK_AT + len(b'"prev_hash":"') + 64 + len(b'","transactions":[')
_PAYLOAD_KEY = b'"payload_b64":"'

# The newest reports of each GetRecent list whose signed bytes the ledger
# keeps: GetRecent's default `limit`, so a query with it reads no payload
# from the log.
RECENT_WINDOW = 10


class LedgerBlock(NamedTuple):
    """A block as the walk reads it back: its stored fields, with
    `committed_at` in epoch milliseconds."""

    height: int
    prev_hash: str
    transactions: tuple[dict, ...]
    committed_at: int
    block_hash: str

    @staticmethod
    def encode(height: int, prev_hash: str, transactions: Iterable[str],
               committed_at: int) -> tuple[str, bytes]:
        """The block's hash and stored line, joined from its transactions'
        canonical texts (`canonical.envelope_text`).

        `block_hash` sorts before every core key, so splicing it in after the
        core's opening brace gives the canonical dump of the whole block.
        """
        core = _core(height, prev_hash, transactions, committed_at)
        block_hash = hashlib.sha256(core).hexdigest()
        with memoryview(core) as view:
            line = b"".join((_HASH_PREFIX, block_hash.encode("ascii"), b'",', view[1:], b"\n"))
        return block_hash, line


def _core(height: int, prev_hash: str, texts: Iterable[str], committed_at: int) -> bytes:
    """The hashed core of the block line the ledger writes at `height`,
    joined from its transactions' canonical texts: the one spelling of a
    block, which replay holds every line it judges to. `prev_hash` is a hex
    digest, so no field of the core needs escaping here."""
    return (f'{{"committed_at":"{canonical.format_millis(committed_at)}","height":{height},'
            f'"prev_hash":"{prev_hash}","transactions":[{",".join(texts)}]}}').encode("utf-8")


class Verdict(NamedTuple):
    """The answer to one envelope of an `AddEvents`: a tuple record, as
    readings and reports are."""

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
    def from_obj(cls, obj: Any) -> "Verdict":
        """Raises ModelError for a verdict of another shape than `to_obj`
        writes. A committed verdict of its two fields, the report id a
        string, is read in place; any other is checked field by field."""
        if type(obj) is dict and len(obj) == 2 and obj.get("status") == "committed":
            report_id = obj.get("report_id")
            if type(report_id) is str:
                return cls("committed", report_id)
        _require_keys(obj, ("status",), "Verdict")
        verdict = cls(
            status=_require(obj, "status", str),
            report_id=_require(obj, "report_id", str, None),
            reason=_require(obj, "reason", str, None),
            replay=_require(obj, "replay", bool, False),
        )
        if verdict.status not in ("committed", "rejected"):
            raise ModelError(f"unknown verdict status {verdict.status!r}")
        return verdict


def _verdict_text(verdict: Verdict) -> str:
    """`wire_text(verdict.to_obj())`, spelled from the verdict's fields in
    their keys' sorted order: reason, replay, report_id, status."""
    status, report_id, reason, replay = verdict
    text = "" if reason is None else f'"reason": {_WIRE_STR(reason)}, '
    if replay:
        text += '"replay": true, '
    if report_id is not None:
        text += f'"report_id": {_WIRE_STR(report_id)}, '
    return f'{{{text}"status": {_WIRE_STR(status)}}}'


class StoredReport(NamedTuple):
    """A committed report as the ledger keeps it: one object holding atomic
    values only, so a report adds one object for the garbage collector to
    track. Its signed bytes stay in the block log, where its `payload_b64`
    is the `length` bytes at `offset`."""

    report_id: str
    height: int
    device_id: str
    batch_no: str
    created_at: int
    offset: int
    length: int


class SignedReport(NamedTuple):
    """A report as a query serves it: its id and signed bytes, as committed."""

    report_id: str
    payload: bytes

    @property
    def report(self) -> EventReport:
        """The report, decoded from its signed bytes on each use."""
        return decode_report(self.payload)


class _Prepared(NamedTuple):
    """An envelope `_prepare` accepted: its block transaction's canonical
    text, its signed payload, the payload's base64 and the payload, judged."""

    text: str
    payload: bytes
    payload_b64: str
    report: JudgedReport


class _IndexRecord(NamedTuple):
    """One block's line in the index log, as it was written when the block
    was committed or judged on replay."""

    height: int
    block_hash: str
    end: int                    # where the block's line ends in the log, past its newline
    committed_at: int
    # Per report: [report_id, device_id, batch_no, created_at, offset,
    # length], the last two placing its `payload_b64` in the line.
    reports: list[list]


class _Walked(NamedTuple):
    """A block replay walked: the block and where its line ends in the log,
    past its newline."""

    block: LedgerBlock
    end: int


# The types of an index record's fields and of its report rows, checked as
# `_require` checks a field: by type, so a bool is no integer.
_RECORD_KINDS = (int, str, int, int, list)
_ROW_KINDS = (str, str, str, int, int, int)


def _index_records(texts: Sequence[bytes]) -> list[_IndexRecord]:
    """The index log's records from genesis on, typed, up to the first that
    is not a record of the next height. The texts are parsed in one scan,
    as one JSON array, when that gives one value per text; else one by one,
    so a text that is not JSON ends the records where it stands."""
    try:
        objs = canonical.loads_exact("[" + str(b",".join(texts), "utf-8") + "]")
    except ValueError:
        objs = None
    if objs is None or len(objs) != len(texts):
        objs = _each_parsed(texts)
    records: list[_IndexRecord] = []
    for obj in objs:
        if type(obj) is not dict:
            break
        record = _IndexRecord(obj.get("height"), obj.get("hash"), obj.get("end"),
                              obj.get("committed_at"), obj.get("reports"))
        if tuple(map(type, record)) != _RECORD_KINDS or record.height != len(records) or not all(
                type(row) is list and tuple(map(type, row)) == _ROW_KINDS
                for row in record.reports):
            break
        records.append(record)
    return records


def _each_parsed(texts: Iterable[bytes]) -> Iterator[Any]:
    """The JSON value of each text, up to the first that is not UTF-8 JSON."""
    for text in texts:
        try:
            yield canonical.loads_exact(str(text, "utf-8"))
        except ValueError:      # not UTF-8, or CanonicalError
            return


def _index_text(height: int, block_hash: str, end: int, committed_at: int,
                reports: Sequence[StoredReport], spans: Sequence[tuple[int, int]]) -> bytes:
    """`canonical.dumps` of a block's index record, written from a template:
    its strings go through canonical's string encoder, its other values are
    integers."""
    string = _CANONICAL_STR
    rows = ",".join([
        f'[{string(s.report_id)},{string(s.device_id)},{string(s.batch_no)},{s.created_at},'
        f'{offset},{length}]'
        for s, (offset, length) in zip(reports, spans)])
    return (f'{{"committed_at":{committed_at},"end":{end},"hash":"{block_hash}",'
            f'"height":{height},"reports":[{rows}]}}').encode("utf-8")


class Ledger:
    """The authoritative event store. One commit point, concurrent queries."""

    def __init__(self, directory: str | Path, genesis_at_ms: int = 0) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._blocks_path = self._dir / BLOCKS_FILE
        self._registry_path = self._dir / REGISTRY_FILE
        self._lock = threading.Lock()
        # Batches prepare one at a time. Prepares in parallel only contend
        # for the interpreter lock: four committers on two CPUs drained a
        # backlog about 40% slower than one batch at a time.
        self._ingest_lock = threading.Lock()
        # The registry's devices: id -> {"kind", "public_key_pem"}.
        self._devices: dict[str, dict[str, str]] = {}
        # Parsed once per device; None for a stored PEM that does not parse.
        self._public_keys: dict[str, Optional[RSAPublicKey]] = {}
        self._reports: dict[str, StoredReport] = {}
        # GetRecent indexes: (-created_at, report_id) in descending order, so
        # read from the end they give newest first with ties broken by report
        # id (see `_insert_descending`).
        self._recent_by_device: dict[str, list[tuple[int, str]]] = defaultdict(list)
        self._recent_by_batch: dict[str, list[tuple[int, str]]] = defaultdict(list)
        # Each report in a GetRecent window, with its signed bytes, as
        # GetRecent serves it.
        self._kept: dict[str, SignedReport] = {}
        self._tip_hash = ZERO_HASH
        self._tip_committed_at = 0
        self._height = -1
        self._load_registry()
        with ExitStack() as opened:
            self._index = CheckedLog(self._dir / INDEX_FILE)
            opened.callback(self._index.close)
            self._replay_blocks()
            self._log = AppendLog(self._blocks_path)
            opened.callback(self._log.close)
            # Where queries read the places of committed payloads.
            self._reader = opened.enter_context(open(self._blocks_path, "rb", buffering=0))
            if self._height < 0:
                self._append_block((), genesis_at_ms)
            opened.pop_all()

    # -- persistence --------------------------------------------------------

    def _load_registry(self) -> None:
        # A registry written before devices had kinds holds only nodes.
        self._devices = read_document(self._registry_path, CorruptLedger, lambda obj: {
            device_id: {"kind": _require(entry, "kind", str, "node"),
                        "public_key_pem": _require(entry, "public_key_pem", str)}
            for device_id, entry in _require(obj, "devices", dict).items()
        }) or {}
        for device_id, device in self._devices.items():
            try:
                self._public_keys[device_id] = load_public_key(device["public_key_pem"])
            except MalformedKey:
                self._public_keys[device_id] = None

    def _replay_blocks(self) -> None:
        """Rebuild the index from the log, taking each block the index log
        vouches for from its record and judging the rest. A transaction
        whose payload does not decode makes the log corrupt; one that
        breaks a report rule was still committed, and is indexed like any
        other. A judged line that is not what `_core` joins from its decoded
        fields makes the log corrupt too, so its payloads lie where
        `_joined_spans` places them. The index log is then cut back to the
        records used, and the judged blocks' records are appended in one
        write. The GetRecent lists are built last, with their windows."""
        raw = AppendLog.read(self._blocks_path)
        records = _index_records(self._index.records())
        used, judged = 0, []
        start = 0       # where the next line starts in the log
        for item in _walk_blocks(raw, records):
            if type(item) is _IndexRecord:
                height = item.height
                self._apply_block(height, item.block_hash, item.committed_at, [
                    StoredReport(report_id, height, device_id, batch_no, created_at,
                                 start + offset, length)
                    for report_id, device_id, batch_no, created_at, offset, length
                    in item.reports])
                used += 1
                start = item.end
                continue
            block = item.block
            try:
                payloads = [SignedEnvelope.from_wire_obj(tx).payload for tx in block.transactions]
                reports = [judge_report(payload) for payload in payloads]
            except (MalformedEnvelope, ModelError) as exc:
                raise CorruptLedger(f"block {block.height}: unreadable transaction: {exc}",
                                    block.height) from exc
            # Each transaction decoded, so its fields are strings and its
            # base64 is as validated: the line must be the one they join to.
            # A lone surrogate or a time before 1970 joins to none: no line
            # the ledger writes holds either.
            payloads_b64 = [tx["payload_b64"] for tx in block.transactions]
            texts = [canonical.envelope_text(payload_b64, tx["signature_b64"], tx["signer"])
                     for payload_b64, tx in zip(payloads_b64, block.transactions)]
            try:
                spelled = (_core(block.height, block.prev_hash, texts, block.committed_at)[1:]
                           == raw[start + _CORE_START:item.end - 1])
            except ValueError:
                spelled = False
            if not spelled:
                raise CorruptLedger(f"block {block.height}: not spelled as the ledger writes it",
                                    block.height)
            spans = _joined_spans(block.height, texts, payloads_b64)
            stored = self._placed(block.height, reports, start, spans)
            self._apply_block(block.height, block.block_hash, block.committed_at, stored)
            judged.append(_index_text(block.height, block.block_hash, item.end,
                                      block.committed_at, stored, spans))
            start = item.end
        self._build_recent(raw)
        if len(records) > self._height + 1:
            logger.warning("the index log records block %d but the block log ends at block %d: "
                           "the block log lost blocks it had made durable",
                           records[-1].height, self._height)
        self._write_index(judged, keep=used)

    def _write_index(self, texts: list[bytes], keep: Optional[int] = None) -> None:
        """Append records to the index log, after cutting it back to its
        first `keep` records if `keep` is given. The block log holds all the
        index log would, so a failure to write it fails nothing: the next
        open judges the blocks it lacks."""
        try:
            if keep is not None:
                self._index.keep(keep)
            self._index.append(texts)
        except OSError as exc:
            logger.warning("index log not written from block %d on: %s", self._height, exc)

    @staticmethod
    def _placed(height: int, reports: Sequence[JudgedReport], start: int,
                spans: Sequence[tuple[int, int]]) -> list[StoredReport]:
        """The stored form of the reports of the block at `height`, whose
        line starts at `start` in the log and holds their payloads at
        `spans`, as `_joined_spans` places them at commit and on replay."""
        return [StoredReport(r.report_id, height, r.device_id, r.batch_no, r.created_at,
                             start + offset, length)
                for r, (offset, length) in zip(reports, spans)]

    def _apply_block(self, height: int, block_hash: str, committed_at: int,
                     stored: Iterable[StoredReport]) -> None:
        """Make the block `block_hash` at `height` the tip, holding the
        reports `stored`."""
        self._height = height
        self._tip_hash = block_hash
        self._tip_committed_at = committed_at
        for report in stored:
            self._reports[report.report_id] = report

    def _build_recent(self, raw: bytes) -> None:
        """Fill the GetRecent lists with the replayed reports in the log
        `raw`, sorting each list once, and keep the signed bytes of each
        list's window."""
        for report in self._reports.values():
            entry = (-report.created_at, report.report_id)
            self._recent_by_device[report.device_id].append(entry)
            self._recent_by_batch[report.batch_no].append(entry)
        for entries in itertools.chain(self._recent_by_device.values(),
                                       self._recent_by_batch.values()):
            entries.sort(reverse=True)
            for _, report_id in entries[-RECENT_WINDOW:]:
                if report_id not in self._kept:
                    self._kept[report_id] = SignedReport(report_id, base64.b64decode(
                        self._committed_b64(self._reports[report_id], raw), validate=True))

    def _insert_recent(self, report: StoredReport, payload: bytes) -> None:
        """Insert a committed report into its GetRecent lists. Its signed
        bytes are kept if it lands in a window, and a report it pushes out
        of a window drops its bytes unless it is still in its other one."""
        entry = (-report.created_at, report.report_id)
        kept = False
        for entries in (self._recent_by_device[report.device_id],
                        self._recent_by_batch[report.batch_no]):
            if _insert_descending(entries, entry) >= len(entries) - RECENT_WINDOW:
                kept = True
                if len(entries) > RECENT_WINDOW:
                    self._left_window(entries[-RECENT_WINDOW - 1])
        if kept:
            self._kept[report.report_id] = SignedReport(report.report_id, payload)

    def _left_window(self, entry: tuple[int, str]) -> None:
        """Drop the signed bytes of the report of `entry`, which has just
        left a window, unless it is in a window still: a list's window is
        its entries from its `RECENT_WINDOW`th last on."""
        report = self._reports[entry[1]]
        by_device = self._recent_by_device[report.device_id]
        by_batch = self._recent_by_batch[report.batch_no]
        if not (len(by_device) <= RECENT_WINDOW or entry <= by_device[-RECENT_WINDOW]
                or len(by_batch) <= RECENT_WINDOW or entry <= by_batch[-RECENT_WINDOW]):
            self._kept.pop(report.report_id, None)

    def _append_block(self, prepared: Sequence[_Prepared], committed_at: int) -> None:
        """Append the block, make it the tip, index its reports, then append
        its index record."""
        height = self._height + 1
        texts = [p.text for p in prepared]
        block_hash, line = LedgerBlock.encode(height, self._tip_hash, texts, committed_at)
        start = self._log.size
        self._log.append(line)
        # Each payload's span, for both its place and its index row.
        spans = _joined_spans(height, texts, [p.payload_b64 for p in prepared])
        stored = self._placed(height, [p.report for p in prepared], start, spans)
        self._apply_block(height, block_hash, committed_at, stored)
        for report, item in zip(stored, prepared):
            self._insert_recent(report, item.payload)
        self._write_index([_index_text(height, block_hash, self._log.size, committed_at,
                                       stored, spans)])

    # -- operations -----------------------------------------------------------

    def register_device(self, identity: DeviceIdentity) -> str:
        """Returns "ok" or "already-registered" (same key). A different key
        for a known id raises AlreadyRegistered; a bad key raises MalformedKey."""
        public_key = load_public_key(identity.public_key_pem)  # MalformedKey if undecodable
        with self._lock:
            existing = self._devices.get(identity.device_id)
            if existing is not None:
                if existing["public_key_pem"] == identity.public_key_pem:
                    return "already-registered"
                raise AlreadyRegistered(
                    f"{identity.device_id} already registered with a different key"
                )
            devices = {**self._devices, identity.device_id: {
                "kind": identity.kind.value, "public_key_pem": identity.public_key_pem}}
            # Stored first: a registry that cannot be written registers nobody.
            write_document(self._registry_path,
                           {"schema_version": SCHEMA_VERSION, "devices": devices})
            self._devices = devices
            self._public_keys[identity.device_id] = public_key
            return "ok"

    def registered_key(self, device_id: str) -> Optional[str]:
        with self._lock:
            device = self._devices.get(device_id)
            return device["public_key_pem"] if device else None

    def add_events(self, envelopes: list[Any], received_at: int) -> list[Verdict]:
        """Verify each envelope; commit the signed fields of the acceptable
        ones as one block."""
        with self._ingest_lock:
            return self._commit([self._prepare(raw) for raw in envelopes], received_at)

    def _prepare(self, raw: Any) -> Verdict | _Prepared:
        """Everything about one envelope that no commit can change, judged
        without `_lock`: its rejection, or what to commit. A wire envelope's
        transaction is its signed fields as received, spelled once from the
        base64 strings `from_wire_obj` validated: it accepts base64 in one
        spelling only, the one `b64encode` writes for an in-process envelope.

        The registry only grows, and a registered device's key never
        changes, so the key lookup needs no lock either."""
        try:
            envelope = raw if isinstance(raw, SignedEnvelope) else SignedEnvelope.from_wire_obj(raw)
        except MalformedEnvelope:
            return Verdict("rejected", reason=REASON_MALFORMED)
        if envelope.signer not in self._public_keys:
            return Verdict("rejected", reason=REASON_UNKNOWN_SIGNER)
        public_key = self._public_keys[envelope.signer]
        if public_key is None:
            return Verdict("rejected", reason=REASON_MALFORMED)
        try:
            if not verify(public_key, envelope):
                return Verdict("rejected", reason=REASON_BAD_SIGNATURE)
        except MalformedEnvelope:
            return Verdict("rejected", reason=REASON_MALFORMED)
        try:
            report = judge_report(envelope.payload)
        except ModelError:
            return Verdict("rejected", reason=REASON_INVALID_REPORT)
        if report.violations:
            return Verdict("rejected", report_id=report.report_id, reason=REASON_INVALID_REPORT)
        if report.device_id != envelope.signer:
            return Verdict("rejected", report_id=report.report_id, reason=REASON_BAD_SIGNATURE)
        wire = envelope.to_wire_obj() if raw is envelope else raw
        text = canonical.envelope_text(wire["payload_b64"], wire["signature_b64"], envelope.signer)
        return _Prepared(text, envelope.payload, wire["payload_b64"], report)

    def _commit(self, prepared: list[Verdict | _Prepared], received_at: int) -> list[Verdict]:
        """Under the lock: each prepared report whose id is neither stored
        nor earlier in the batch is committed, in one block; the others are
        answered as replays."""
        verdicts: list[Verdict] = []
        accepted: list[_Prepared] = []
        with self._lock:
            batch_ids: set[str] = set()
            for item in prepared:
                if isinstance(item, Verdict):
                    verdicts.append(item)
                    continue
                report_id = item.report.report_id
                if report_id in self._reports or report_id in batch_ids:
                    verdicts.append(Verdict("committed", report_id, replay=True))
                    continue
                verdicts.append(Verdict("committed", report_id))
                batch_ids.add(report_id)
                accepted.append(item)
            if accepted:
                # A block is never stamped before its predecessor, however
                # the clock read when the request came in.
                self._append_block(accepted, max(received_at, self._tip_committed_at))
        return verdicts

    def get_event_payload(self, report_id: str) -> Optional[str]:
        """Base64 of the exact signed bytes, byte-identical to submission:
        the base64 that was committed, read from its place in the log."""
        with self._lock:
            stored = self._reports.get(report_id)
            if stored is None:
                return None
            text = self._committed_b64(stored)
        return str(text, "ascii")

    def get_recent(self, device_id: Optional[str] = None, batch_no: Optional[str] = None,
                   limit: int = RECENT_WINDOW) -> list[SignedReport]:
        """The newest `limit` stored reports matching both filters (None
        matches any), newest first, ties broken by report id. A report in
        a window is served from the bytes kept for it; any other is read
        from its place and decoded, and its bytes are not kept."""
        if limit < 1:
            raise ValueError("limit must be >= 1")
        filters = [(device_id, self._recent_by_device), (batch_no, self._recent_by_batch)]
        if any(value is not None and not isinstance(value, str) for value, _ in filters):
            return []  # no report's id or batch is anything but a string
        with self._lock:
            indexes = [index.get(value, []) for value, index in filters if value is not None]
            if indexes:
                entries: Iterable[tuple[int, str]] = reversed(min(indexes, key=len))
            else:
                entries = heapq.merge(*map(reversed, self._recent_by_device.values()))
            stored = (self._reports[report_id] for _, report_id in entries)
            matches = (s for s in stored
                       if (device_id is None or s.device_id == device_id)
                       and (batch_no is None or s.batch_no == batch_no))
            found = list(itertools.islice(matches, limit))
            served = [self._kept.get(s.report_id) for s in found]
            cold = [(at, self._committed_b64(found[at]))
                    for at, kept in enumerate(served) if kept is None]
        for at, text in cold:
            served[at] = SignedReport(found[at].report_id, base64.b64decode(text, validate=True))
        return served

    def all_reports(self) -> list[EventReport]:
        """Every stored report, decoded, in report id order."""
        with self._lock:
            stored = [self._reports[rid] for rid in sorted(self._reports)]
        with self._mapped_log() as raw:
            return [decode_report(base64.b64decode(self._committed_b64(s, raw), validate=True))
                    for s in stored]

    def _committed_b64(self, report: StoredReport,
                       mapped: Optional[bytes | mmap.mmap] = None) -> bytes:
        """The base64 `report`'s payload was committed in: sliced from its
        place in `mapped`, the log's bytes, which needs no lock, or else
        read from its place with `pread`, under the lock, which `close`
        takes."""
        if mapped is None:
            return os.pread(self._reader.fileno(), report.length, report.offset)
        return mapped[report.offset:report.offset + report.length]

    @property
    def height(self) -> int:
        with self._lock:
            return self._height

    def blocks(self) -> list[LedgerBlock]:
        """The stored chain in commit order, each block checked as
        `verify_chain` checks it: hash, fields, height and link. Replay
        checks more: it decodes each transaction and holds the line to the
        one spelling the ledger writes (`_core`), which this does not, so a
        block whose transaction does not decode, or one re-hashed in another
        spelling, is returned all the same.
        Like `verify_chain`, it walks without the lock and works after
        `close`."""
        with self._mapped_log() as raw:
            return list(_walk_blocks(raw))

    def verify_chain(self) -> Optional[int]:
        """None when intact; otherwise the height of the first broken block.
        The audit holds the lock only to read the log's length, then walks
        that much of the log while commits and queries go on."""
        try:
            with self._mapped_log() as raw:
                walked = sum(1 for _ in _walk_blocks(raw))
        except OSError:
            return 0
        except CorruptLedger as exc:
            return exc.height
        return None if walked else 0

    @contextmanager
    def _mapped_log(self) -> Iterator[bytes | mmap.mmap]:
        """A read-only map of the block log as long as it is now.

        Only the length is read under the lock. The log only grows under it,
        and a failed append cuts the file back to the log's end, never below
        a length read before it, so the mapped bytes stay as they are while a
        walk runs without the lock. That length is the file's, so an audit
        reads what is on disk, unless the log holds torn bytes past its end
        (a failed append whose cut-back failed too): the next append cuts
        those, so only the log's end is mapped. Out of scope: another
        process truncating the file during a walk (reading a page past the
        new end faults).
        """
        with self._lock:
            size = self._log.size if self._log.torn else self._blocks_path.stat().st_size
        if not size:
            yield b""  # an empty file cannot be mapped
            return
        with open(self._blocks_path, "rb", buffering=0) as file, \
                mmap.mmap(file.fileno(), size, access=mmap.ACCESS_READ) as mapped:
            yield mapped

    # Tests compare these two as the oracle that state is a pure function of
    # the block log.
    def world_state_bytes(self) -> bytes:
        """Canonical serialization of the whole world state."""
        with self._lock:
            stored = sorted(self._reports.items())
            obj = {"devices": self._devices, "height": self._height, "tip_hash": self._tip_hash}
        with self._mapped_log() as raw:
            obj["reports"] = {rid: {"payload_b64": str(self._committed_b64(s, raw), "ascii"),
                                    "height": s.height} for rid, s in stored}
        return canonical.dumps(obj)

    def close(self) -> None:
        with self._lock:
            self._log.close()
            self._index.close()
            self._reader.close()


def _insert_descending(entries: list[tuple[int, str]], entry: tuple[int, str]) -> int:
    """Insert `entry` into `entries`, kept in descending order, and return
    where it went. A report newer than every indexed one is appended; only
    an older one, committed out of order, is searched for and moves the
    entries after it."""
    low, high = 0, len(entries)
    if not high or entry < entries[-1]:
        entries.append(entry)
        return high
    while low < high:
        middle = (low + high) // 2
        if entries[middle] > entry:
            low = middle + 1
        else:
            high = middle
    entries.insert(low, entry)
    return low


def _walk_blocks(raw: bytes | mmap.mmap, index: Optional[Sequence[_IndexRecord]] = None
                 ) -> Iterator[LedgerBlock | _IndexRecord | _Walked]:
    """Yield the blocks of a stored block log in order: each as a
    `LedgerBlock`, or, for replay, which passes the index log's records as
    `index`, as the `_IndexRecord` that vouches for it or as `_Walked`.

    `raw` is walked in place: each line is found with `find(b"\n")` and
    read through views of `raw` that live only for the call they are made
    for, so the walk holds one block at a time and copies no line. Only
    `\n` ends a line; an unterminated last line is walked like the others,
    so a torn one is caught at its height. The one view the walk keeps is
    released when it ends or raises, so a map of `raw` can close after it.

    Each line must hash to its stored `block_hash`, checked byte for byte
    before it is parsed, so any edit fails, even one that parses to the same
    block. The line is the canonical dump of the whole block, so it is
    parsed as it is stored, in one scan of its text
    (`canonical.loads_exact`); a line that is not UTF-8 or JSON, or that its
    object does not end, gets the answer and message of `canonical.loads`.
    Its `height` must be a JSON integer equal to its line number, its
    `transactions` an array, its `committed_at` a canonical timestamp and
    its `prev_hash` the previous block's hash. The first line that fails a
    check raises CorruptLedger carrying its height.

    With `index`, a line its record vouches for (`_vouches`) is not
    parsed: it yields the record, which places its payloads. From the
    first line that no record vouches for on, each line is walked as above
    and yields a `_Walked`, which replay judges.
    """
    prev_hash = ZERO_HASH
    height = start = 0
    size = len(raw)
    vouching = index is not None
    with memoryview(raw) as view:
        while start < size:
            end = raw.find(b"\n", start)
            if end < 0:
                end = size
            digest = hashlib.sha256(b"{")
            digest.update(view[start + _CORE_START:end])
            block_hash = digest.hexdigest()
            # On a line shorter than the hash prefix this slice takes in its
            # `\n`, or is cut short at the log's end: either way no match.
            if raw[start:start + _CORE_START] != b"".join(
                    (_HASH_PREFIX, block_hash.encode("ascii"), b'",')):
                raise CorruptLedger(f"block {height}: block hash mismatch", height)
            if vouching and _vouches(raw, start, end, height, prev_hash, block_hash, index):
                yield index[height]
            else:
                vouching = False
                block = _parse_block(view, start, end, height, prev_hash, block_hash)
                yield block if index is None else _Walked(block, end + 1)
            prev_hash = block_hash
            height += 1
            start = end + 1


def _parse_block(view: memoryview, start: int, end: int, height: int, prev_hash: str,
                 block_hash: str) -> LedgerBlock:
    """The block on the line `view[start:end]` at `height`, whose hash is
    checked, after `prev_hash`; CorruptLedger if its fields or its link do
    not hold."""
    try:
        try:
            obj = canonical.loads_exact(str(view[start:end], "utf-8"))
            exact = True
        except ValueError:
            exact = False
        if not exact:
            # Outside the handler, so no error chains to the one it
            # caught, and released on the way out: a traceback that
            # keeps the parser's frame must not keep `raw` mapped.
            with view[start:end] as line:
                obj = canonical.loads(line)
        stored_height = obj["height"]
        if type(stored_height) is not int:
            raise TypeError(f"height must be an integer, "
                            f"got {type(stored_height).__name__}")
        stored_prev = obj["prev_hash"]
        transactions = obj["transactions"]
        if type(transactions) is not list:
            raise TypeError(f"transactions must be an array, "
                            f"got {type(transactions).__name__}")
        committed_at = canonical.parse_millis(obj["committed_at"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptLedger(f"block {height}: unparseable block: {exc}", height) from exc
    if stored_height != height:
        raise CorruptLedger(f"block {height} has height {stored_height}", height)
    if stored_prev != prev_hash:
        raise CorruptLedger(f"block {height} does not link to block {height - 1}", height)
    return LedgerBlock(height, prev_hash, tuple(transactions), committed_at, block_hash)


def _vouches(raw: bytes | mmap.mmap, start: int, end: int, height: int, prev_hash: str,
             block_hash: str, index: Sequence[_IndexRecord]) -> bool:
    """Whether the index vouches for the line `raw[start:end]` at `height`,
    which hashes to `block_hash`.

    Its record must name that hash and where the line ends, and the line
    must link to `prev_hash` at the place a canonical line holds its link.
    Each payload's slice, as its record names it, must be the whole value
    after a `"payload_b64":"` key in the line: the key before it, a `"`
    after it and none inside.
    """
    if height >= len(index) or end >= len(raw):
        return False
    record = index[height]
    if record.block_hash != block_hash or record.end != end + 1:
        return False
    link = start + _LINK_AT + len(str(height))
    expected = b'"prev_hash":"%s"' % prev_hash.encode("ascii")
    if raw[link:link + len(expected)] != expected:
        return False
    for row in record.reports:
        at, length = start + row[4], row[5]
        if (at - len(_PAYLOAD_KEY) < start or length < 0 or at + length >= end
                or raw[at - len(_PAYLOAD_KEY):at] != _PAYLOAD_KEY or raw[at + length] != 0x22
                or raw.find(b'"', at, at + length) >= 0):
            return False
    return True


def _joined_spans(height: int, texts: Sequence[str],
                  payloads_b64: Sequence[str]) -> list[tuple[int, int]]:
    """The (offset, length) of each payload's base64 in the line that
    `LedgerBlock.encode` joins at `height` from the transactions' texts,
    known without a search: the texts follow the core's head one comma
    apart, and each starts with `{"payload_b64":"`. Offsets count bytes,
    and a signer's text may hold more bytes than characters."""
    spans = []
    at = _TRANSACTIONS_AT + len(str(height)) + 1 + len(_PAYLOAD_KEY)
    for text, payload_b64 in zip(texts, payloads_b64):
        spans.append((at, len(payload_b64)))
        at += (len(text) if text.isascii() else len(text.encode("utf-8"))) + 1
    return spans


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
            obj = wire_loads(payload)
            op = _require(obj, "op", str)
            args = {} if obj.get("args") is None else _require(obj, "args", dict)
        except ValueError as exc:
            return self._error(f"malformed request: {exc}")
        try:
            result = self._dispatch(op, args)
        except AlreadyRegistered as exc:
            return self._error(str(exc), code="already-registered", obj=obj)
        except MalformedKey as exc:
            return self._error(str(exc), code="malformed-key", obj=obj)
        except (ValueError, KeyError) as exc:
            return self._error(str(exc), code="bad-args", obj=obj)
        return self._ok(result, obj)

    @staticmethod
    def _ok(result: str, obj: dict) -> bytes:
        """The ok answer, written around the result's JSON text: "result"
        sorts after every other key, so it ends the answer. For a result that
        is `wire_text` of an object, these are the bytes of
        `wire_dumps({"ok": True, "result": ..., echoes})`."""
        head = wire_text({"ok": True, **_echoes(obj)})
        return f'{head[:-1]}, "result": {result}}}'.encode("utf-8")

    def _dispatch(self, op: str, args: dict) -> str:
        """The op's result as JSON text."""
        if op == OP_ADD_EVENTS:
            verdicts = self.ledger.add_events(_require(args, "envelopes", list), self._clock())
            return f'{{"verdicts": [{", ".join(map(_verdict_text, verdicts))}]}}'
        if op == OP_GET_EVENT:
            payload_b64 = self.ledger.get_event_payload(_require(args, "report_id", str))
            if payload_b64 is None:
                return wire_text({"found": False})
            # wire_text({"found": True, "payload_b64": ...}): base64 needs no escaping.
            return f'{{"found": true, "payload_b64": "{payload_b64}"}}'
        if op == OP_GET_RECENT:
            recent = self.ledger.get_recent(
                device_id=args.get("device_id"),
                batch_no=args.get("batch_no"),
                limit=_require(args, "limit", int, RECENT_WINDOW),
            )
            # Each report as the JSON text it was signed in.
            return '{"reports": [' + str(b", ".join([r.payload for r in recent]), "utf-8") + "]}"
        if op == OP_REGISTER_DEVICE:
            identity = DeviceIdentity.from_obj(args["identity"])
            return wire_text({"registration": self.ledger.register_device(identity)})
        if op == OP_VERIFY_CHAIN:
            broken = self.ledger.verify_chain()
            return wire_text({"intact": broken is None, "first_broken_height": broken})
        raise ValueError(f"unknown op {op!r}")

    @staticmethod
    def _error(message: str, code: str = "malformed-request", obj: Optional[dict] = None) -> bytes:
        response = {"ok": False, "error": code, "message": message, **_echoes(obj or {})}
        return wire_dumps(response)


def _echoes(obj: dict) -> dict:
    """The request's channel and chaincode names, which every answer echoes."""
    return {echo: obj[echo] for echo in ("channel_name", "chaincode_name") if echo in obj}


class LedgerClientError(LedgerError):
    """The service answered, but with an application-level error or with an
    answer of the wrong shape."""


class LedgerClient:
    """Typed client over any RequestClient (simulated or TCP).

    Every answer is checked in `_call`: one that is not JSON, not an object,
    not `ok`, or whose result does not have the shape its operation needs
    raises LedgerClientError. Report content that does not decode raises
    ModelError. Transport failures pass through as TransportError.
    """

    def __init__(self, requester: RequestClient, dest: str,
                 channel_name: str = "ambox", chaincode_name: str = "events",
                 timeout_ms: int = 10_000) -> None:
        self._requester = requester
        self.dest = dest
        self.channel_name = channel_name
        self.chaincode_name = chaincode_name
        self.timeout_ms = timeout_ms

    def _call(self, op: str, args: str, parse: Callable[[dict], _T]) -> _T:
        """Send `op` with `args`, the wire text of its arguments object. The
        request's bytes are those of `wire_dumps` of the whole request, written
        from that text: "args" sorts before every other key."""
        tail = wire_text({"chaincode_name": self.chaincode_name,
                          "channel_name": self.channel_name, "op": op})
        payload = f'{{"args": {args}, {tail[1:]}'.encode("utf-8")
        raw = self._requester.request(self.dest, payload, self.timeout_ms, label=f"ledger:{op}")
        try:
            answer = wire_loads(raw)
            if answer.get("ok") is not True:
                raise LedgerClientError(f"{answer.get('error')}: {answer.get('message')}")
            return parse(_require(answer, "result", dict))
        except LedgerClientError:
            raise
        except (ValueError, TypeError, KeyError) as exc:
            raise LedgerClientError(f"misshapen {op} answer: {exc!r}") from exc

    def register_device(self, identity: DeviceIdentity) -> str:
        return self._call(OP_REGISTER_DEVICE, wire_text({"identity": identity.to_obj()}),
                          lambda result: _require(result, "registration", str))

    def add_events(self, envelopes: list[SignedEnvelope]) -> list[Verdict]:
        """One verdict per envelope, in order. Raises LedgerClientError if the
        answer holds another number of verdicts, or a verdict that names a
        report other than its envelope's: a caller acks what it is told."""
        def parse(result: dict) -> list[Verdict]:
            verdicts = list(map(Verdict.from_obj, _require(result, "verdicts", list)))
            if len(verdicts) != len(envelopes):
                raise LedgerClientError(
                    f"{len(verdicts)} verdicts for {len(envelopes)} envelopes")
            for envelope, verdict in zip(envelopes, verdicts):
                if verdict.report_id is None and verdict.status == "rejected":
                    continue        # refused before its payload was read
                if verdict.report_id is None or not _holds_report(envelope, verdict.report_id):
                    raise LedgerClientError(f"verdict for {verdict.report_id!r} answers "
                                            f"envelope {report_id_of(envelope)!r}")
            return verdicts

        # The text of wire_text({"envelopes": [e.to_wire_obj() for e in envelopes]}).
        b64 = base64.b64encode
        texts = [canonical.envelope_wire_text(str(b64(e.payload), "ascii"),
                                              str(b64(e.signature), "ascii"), e.signer)
                 for e in envelopes]
        # Not `a + text + b`: resizing the first sum in place costs far more
        # than a copy when the request runs to hundreds of kilobytes.
        return self._call(OP_ADD_EVENTS, f'{{"envelopes": [{", ".join(texts)}]}}', parse)

    def get_event(self, report_id: str) -> Optional[EventReport]:
        def parse(result: dict) -> Optional[bytes]:
            if not _require(result, "found", bool):
                return None
            return base64.b64decode(_require(result, "payload_b64", str), validate=True)

        payload = self._call(OP_GET_EVENT, wire_text({"report_id": report_id}), parse)
        return None if payload is None else decode_report(payload)

    def get_recent(self, device_id: Optional[str] = None, batch_no: Optional[str] = None,
                   limit: int = RECENT_WINDOW) -> list[EventReport]:
        """Raises ModelError, as `get_event` does, for a report in the
        answer that does not decode."""
        args: dict[str, Any] = {"limit": limit}
        if device_id is not None:
            args["device_id"] = device_id
        if batch_no is not None:
            args["batch_no"] = batch_no
        reports = self._call(OP_GET_RECENT, wire_text(args),
                             lambda result: _require(result, "reports", list))
        try:
            return [EventReport.from_obj(r) for r in reports]
        except (ValueError, OverflowError) as exc:
            raise ModelError(str(exc)) from exc

    def verify_chain(self) -> Optional[int]:
        def parse(result: dict) -> Optional[int]:
            if _require(result, "intact", bool):
                return None
            return _require(result, "first_broken_height", int)

        return self._call(OP_VERIFY_CHAIN, "{}", parse)


def _holds_report(envelope: SignedEnvelope, report_id: str) -> bool:
    """Whether the envelope's payload carries `report_id`. A canonical
    report ends with it, its last key in sorted order, spelled by canonical's
    string encoder, so only a payload in another form is parsed."""
    tail = b',"report_id":' + _CANONICAL_STR(report_id).encode("utf-8") + b"}"
    return envelope.payload.endswith(tail) or report_id_of(envelope) == report_id


def report_id_of(envelope: SignedEnvelope) -> Optional[str]:
    """The report id in an envelope's payload, or None if it has none."""
    try:
        obj = canonical.loads(envelope.payload)
    except canonical.CanonicalError:
        return None
    return obj.get("report_id") if isinstance(obj, dict) else None
