"""Crash-safe local persistence: every file AmBox writes goes through here.

Three primitives:

- `write_document` (over `write_atomic`): canonical JSON bytes go to a temp
  file, which is fsynced, renamed over the target, and the directory is
  fsynced, so a reader finds the old file or the new one, never a mix.
- `read_document`: a missing file is None. Anything else that is not a JSON
  object of `SCHEMA_VERSION` with the fields its parser needs (an unreadable
  file, bytes that are not UTF-8, text that is not JSON, another root or
  schema, a missing or malformed field) raises the caller's corruption
  error naming the file.
- `AppendLog`: a file of newline-terminated lines. A line exists only once
  its newline is on disk. Opening drops an unterminated tail, because that
  append never returned; `append` is fsynced before it returns, and on any
  OSError cuts the file back to where it was before re-raising. Should that
  cut fail too, the next append makes it before writing, or writes nothing.
  That is the only recovery rule; a log is never cleared, only replaced
  whole.
- `CheckedLog`: a file of checksummed lines that caches what another file
  holds, so losing any of it costs work, never data. Nothing in it is
  fsynced. Opening reads the leading lines whose checksum holds and ignores
  the first that does not, with everything after it; the owner then keeps
  as many of those records as it can use, cutting the rest, and appends
  its own. The ledger's index log is one.

Built on them here: the submission buffer (one journal of entry records,
which may carry high-water marks, and ack records), the node config and the
device key file; the ledger and the mote use the primitives directly. A
buffer serializes its file access, so one writer and one drainer may share it.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, TypeVar, Union

from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.rsa import RSAPrivateKey

from . import canonical
from .envelope import KeyPair, KeyUnavailable, MalformedEnvelope, SignedEnvelope
from .model import ModelError, MonitoringJob, NodeState, _require, _require_keys

SCHEMA_VERSION = 1
DEFAULT_CAP = 1_000_000
COMPACT_FLOOR = 512   # acked records a buffer journal holds before it may compact

CONFIG_FILE = "ambox_config.json"
JOURNAL_FILE = "buffer.journal"
ACK_FILE = "buffer.ack"     # written by older versions; read once, then removed
KEY_FILE = "device_key.pem"

T = TypeVar("T")


class StorageError(Exception):
    pass


class StorageFull(StorageError):
    """Buffer is at its configured cap; caller should pause and raise an alarm."""


class CorruptJournal(StorageError):
    pass


class CorruptConfig(StorageError):
    pass


# -- primitives ---------------------------------------------------------------


def write_atomic(path: Path, data: bytes, mode: int = 0o666) -> None:
    """Replace `path` with `data`; the temp file is created with `mode`."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, mode), "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass


def write_document(path: Path, obj: dict[str, Any]) -> None:
    write_atomic(path, canonical.dumps(obj))


def read_document(path: Path, corrupt: type[Exception],
                  parse: Callable[[dict[str, Any]], T]) -> Optional[T]:
    """`parse` of the object stored at `path`, or None when there is no file.
    A field `parse` finds missing or malformed raises `corrupt` too."""
    try:
        obj = canonical.loads(path.read_bytes())
    except FileNotFoundError:
        return None
    except (OSError, canonical.CanonicalError) as exc:
        raise corrupt(f"cannot read {path.name}: {exc}") from exc
    try:
        _require_keys(obj, (), "root")
        if _require(obj, "schema_version", int) != SCHEMA_VERSION:
            raise ModelError(f"unsupported schema {obj['schema_version']!r}")
        return parse(obj)
    except (KeyError, ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise corrupt(f"{path.name} invalid: {exc}") from exc


class AppendLog:
    """A file of newline-terminated lines, each made durable as it is appended.

    The log keeps in memory where its last whole line ends. Bytes past that
    end are torn: left by a failed append whose cut-back failed too. The
    next append cuts them off first, and writes nothing if it cannot, so no
    line is ever glued behind torn bytes."""

    def __init__(self, path: Path) -> None:
        self._file = open(path, "ab", buffering=0)
        self._end = os.fstat(self._file.fileno()).st_size
        self._torn = False

    @staticmethod
    def read(path: Path) -> bytes:
        """The complete lines of the log at `path` (created if missing), after
        cutting an unterminated tail off the file."""
        with open(path, "a+b", buffering=0) as file:
            file.seek(0)
            raw = file.read()
            keep = raw.rfind(b"\n") + 1
            if keep < len(raw):
                os.ftruncate(file.fileno(), keep)
                os.fsync(file.fileno())
        return raw[:keep]

    @property
    def size(self) -> int:
        """Where the last whole line appended (or found at open) ends."""
        return self._end

    @property
    def torn(self) -> bool:
        """Whether the file may hold torn bytes past `size`."""
        return self._torn

    def append(self, lines: bytes) -> None:
        """Durably append `lines`, one or more whole lines, each ending with
        its newline, in one write and one fsync. Torn bytes are cut off
        first; if that fails, the OSError is raised and nothing is written.
        On an OSError from the write or fsync the file is cut back to its
        end before the call; the next successful append's fsync makes that
        cut durable."""
        fd = self._file.fileno()
        if self._torn:
            os.ftruncate(fd, self._end)
            self._torn = False
        try:
            view = memoryview(lines)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
        except OSError:
            self._torn = True
            with contextlib.suppress(OSError):  # the next append cuts them
                os.ftruncate(fd, self._end)
                self._torn = False
            raise
        self._end += len(lines)

    def close(self) -> None:
        self._file.close()


class CheckedLog:
    """A file of checksummed lines, each `<crc32 of its text as 8 hex digits>
    <text>`, kept as a cache of what another file holds: a line may be lost,
    torn or damaged, and its owner rebuilds what is missing from that file.

    Nothing is fsynced, so a crash leaves any prefix of the appends, the
    last one possibly torn. Opening reads the leading lines whose checksum
    holds (`records`); a torn or damaged line, and every line after it, is
    not read. The owner then `keep`s as many of those records as it can
    use, which cuts the others off the file, and appends after them. An
    append or cut that fails stops the log: later appends write nothing,
    since the file may no longer hold every record before them. A text
    holds no newline."""

    def __init__(self, path: Path) -> None:
        self._file = open(path, "a+b", buffering=0)
        self._file.seek(0)
        raw = self._file.read()
        self._size = len(raw)
        self._records: list[bytes] = []
        self._ends: list[int] = []
        self._stopped = False
        start = 0
        while (end := raw.find(b"\n", start)) >= 0:
            text = raw[start + 9:end]
            if raw[start:start + 9] != b"%08x " % zlib.crc32(text):
                break
            self._records.append(text)
            self._ends.append(end + 1)
            start = end + 1

    def records(self) -> list[bytes]:
        """The texts of the leading lines whose checksum holds, in order."""
        return self._records

    def keep(self, count: int) -> None:
        """Cut the file back to its first `count` records."""
        end = self._ends[count - 1] if count else 0
        self._records, self._ends = [], []
        if end != self._size:
            try:
                os.ftruncate(self._file.fileno(), end)
            except OSError:
                self._stopped = True
                raise
            self._size = end

    def append(self, texts: Iterable[bytes]) -> None:
        """Append a record per text in one write, unsynced; nothing once the
        log has stopped."""
        if self._stopped:
            return
        lines = b"".join([b"%08x %s\n" % (zlib.crc32(text), text) for text in texts])
        try:
            view = memoryview(lines)
            while view:
                view = view[os.write(self._file.fileno(), view):]
        except OSError:
            self._stopped = True
            raise
        self._size += len(lines)

    def close(self) -> None:
        self._file.close()


# -- submission buffer ----------------------------------------------------------


@dataclass(frozen=True)
class BufferEntry:
    entry_id: int
    envelope: SignedEnvelope
    enqueued_at: int


class DurableBuffer:
    """FIFO of signed envelopes awaiting submission. Survives process kills.

    `buffer.journal` is the only file a buffer writes: an `AppendLog` of a
    schema header that may carry the `next_id` to issue, `{"seq",
    "enqueued_at", "envelope"}` records (one append per enqueue) and
    `{"ack": n}` records, each acking every entry with id <= n. Ids are
    consecutive; one taken by a failed append is issued again. No ack
    document, no clear: once acked records reach `COMPACT_FLOOR` and
    outnumber the pending ones, an ack atomically rewrites the journal as a
    header and the pending records.

    The last record of an append may carry the writer's high-water mark per
    source, `"marks": {source: n}`, durable exactly when that append is.
    `marks()` folds in every record's, acked ones too, and a compacted
    header keeps them. Without marks, records and header keep their bytes.
    """

    def __init__(self, directory: str | Path, cap: int = DEFAULT_CAP) -> None:
        self._path = Path(directory) / JOURNAL_FILE
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._cap = cap
        self._lock = threading.Lock()
        self._pending: dict[int, BufferEntry] = {}   # in id order
        self._records = 0                            # entry records in the journal
        self._next_id = 1
        self._marks: dict[str, int] = {}
        acked = 0
        for number, line in enumerate(AppendLog.read(self._path).splitlines(), 1):
            try:
                obj = canonical.loads(line)
                self._fold_marks(obj.pop("marks", {}))
                if number == 1:
                    self._next_id = _require(obj, "next_id", int, 1)
                    if (_require(obj, "schema_version", int) != SCHEMA_VERSION
                            or obj.keys() - {"next_id"} != {"schema_version"}):
                        raise CorruptJournal(f"unsupported journal schema: {obj!r}")
                    continue
                if "ack" in obj:
                    acked = max(acked, _require(obj, "ack", int))  # later entries have larger ids
                    continue
                entry = BufferEntry(_require(obj, "seq", int),
                                    SignedEnvelope.from_wire_obj(obj["envelope"]),
                                    _require(obj, "enqueued_at", int))
            except (KeyError, ValueError, TypeError, AttributeError, OverflowError,
                    MalformedEnvelope) as exc:
                raise CorruptJournal(f"journal line {number} invalid: {exc}") from exc
            self._next_id = max(self._next_id, entry.entry_id + 1)
            self._pending[entry.entry_id] = entry
            self._records += 1
        self._pending = {i: e for i, e in self._pending.items() if i > acked}
        legacy = self._path.with_name(ACK_FILE)
        old = read_document(legacy, CorruptJournal, lambda obj: (
            _require(obj, "watermark", int),
            {_require({"acked": i}, "acked", int) for i in _require(obj, "acked", list)},
            _require(obj, "next_id", int, 0)))
        # Opened once nothing can refuse the buffer, so a refused one leaves no file open.
        self._journal = AppendLog(self._path)
        if old is not None:
            watermark, above, next_id = old
            self._pending = {i: e for i, e in self._pending.items()
                             if i > watermark and i not in above}
            self._next_id = max(self._next_id, next_id, watermark + 1)
            self._compact()
            os.unlink(legacy)

    @staticmethod
    def _record(e: BufferEntry, marks: Optional[dict[str, int]] = None) -> bytes:
        obj = {"seq": e.entry_id, "enqueued_at": e.enqueued_at, "envelope": e.envelope.to_wire_obj()}
        return canonical.dumps(dict(obj, marks=marks) if marks else obj)

    def _compact(self) -> None:
        header = {"schema_version": SCHEMA_VERSION, "next_id": self._next_id}
        lines = [canonical.dumps(dict(header, marks=self._marks) if self._marks else header)]
        lines += [self._record(e) for e in self._pending.values()]
        write_atomic(self._path, b"\n".join(lines) + b"\n")
        self._journal.close()
        self._journal = AppendLog(self._path)
        self._records = len(self._pending)

    # -- operations -------------------------------------------------------

    def enqueue(self, envelopes: list[SignedEnvelope], now_ms: int,
                marks: Optional[dict[str, int]] = None) -> list[int]:
        """Store `envelopes` under consecutive new ids, and `marks` in the last
        one's record, in one append and one fsync. A group that would pass
        the cap is refused whole."""
        if not envelopes:
            raise ValueError("nothing to enqueue")
        with self._lock:
            if len(self._pending) + len(envelopes) > self._cap:
                raise StorageFull(f"buffer at cap ({self._cap} entries)")
            entries = [BufferEntry(i, e, now_ms) for i, e in enumerate(envelopes, self._next_id)]
            lines = [self._record(e, marks if e is entries[-1] else None) for e in entries]
            if self._journal.size == 0:
                lines.insert(0, canonical.dumps({"schema_version": SCHEMA_VERSION}))
            self._journal.append(b"\n".join(lines) + b"\n")
            self._fold_marks(marks or {})
            self._next_id = entries[-1].entry_id + 1
            self._records += len(entries)
            self._pending.update((entry.entry_id, entry) for entry in entries)
            return [entry.entry_id for entry in entries]

    def peek_batch(self, n: int) -> list[BufferEntry]:
        """Up to n oldest unacknowledged entries, non-destructively."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return self.peek_after(0, n)

    def peek_after(self, entry_id: int, n: int) -> list[BufferEntry]:
        """Oldest-first pending entries with id greater than entry_id."""
        with self._lock:
            return list(itertools.islice((e for i, e in self._pending.items() if i > entry_id), n))

    def ack(self, upto: int) -> int:
        """Ack every pending entry with id <= upto, in one append and one fsync
        before any compaction, and say how many; nothing to ack writes nothing."""
        with self._lock:
            ids = list(itertools.takewhile(lambda i: i <= upto, self._pending))
            if not ids:
                return 0
            # The record names the last id acked, so replay never acks a later entry.
            self._journal.append(canonical.dumps({"ack": ids[-1]}) + b"\n")
            for entry_id in ids:
                del self._pending[entry_id]
            dead = self._records - len(self._pending)
            if dead >= COMPACT_FLOOR and dead > len(self._pending):
                with contextlib.suppress(OSError):  # the ack is durable; a later one compacts
                    self._compact()
            return len(ids)

    def depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def marks(self) -> dict[str, int]:
        """The highest mark stored for each source, acked records included."""
        with self._lock:
            return dict(self._marks)

    def _fold_marks(self, marks: Any) -> None:
        if not isinstance(marks, dict) or any(type(n) is not int or n < 1 for n in marks.values()):
            raise ValueError(f"malformed marks {marks!r}")
        for source, high in marks.items():
            self._marks[source] = max(self._marks.get(source, 0), high)

    def pending_entries(self) -> list[BufferEntry]:
        with self._lock:
            return list(self._pending.values())

    def close(self) -> None:
        with self._lock:
            self._journal.close()


# -- device key -------------------------------------------------------------------


def save_private_key(path: Union[str, Path], keypair: KeyPair) -> None:
    """Write the PEM private key readable only by the owning process user."""
    pem = keypair.private_key.private_bytes(
        encoding=serialization.Encoding.PEM,
        format=serialization.PrivateFormat.PKCS8,
        encryption_algorithm=serialization.NoEncryption(),
    )
    write_atomic(Path(path), pem, mode=0o600)


def load_private_key(path: Union[str, Path], device_id: str) -> KeyPair:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise KeyUnavailable(f"cannot read key file {path}: {exc}") from exc
    try:
        key = serialization.load_pem_private_key(data, password=None)
    except Exception as exc:
        raise KeyUnavailable(f"cannot parse key file {path}: {exc}") from exc
    if not isinstance(key, RSAPrivateKey):
        raise KeyUnavailable(f"expected an RSA private key in {path}")
    return KeyPair(device_id=device_id, private_key=key)


# -- persisted device configuration ---------------------------------------


@dataclass(frozen=True)
class HeartbeatTarget:
    address: str
    port: int
    timeout_ms: int

    @classmethod
    def from_obj(cls, obj: Any) -> "HeartbeatTarget":
        _require_keys(obj, (), "heartbeat")
        return cls(_require(obj, "address", str), _require(obj, "port", int),
                   _require(obj, "timeout_ms", int))


@dataclass(frozen=True)
class LedgerTarget:
    address: str
    port: int
    channel_name: str
    chaincode_name: str

    @classmethod
    def from_obj(cls, obj: Any) -> "LedgerTarget":
        _require_keys(obj, (), "ledger")
        return cls(
            _require(obj, "address", str),
            _require(obj, "port", int),
            _require(obj, "channel_name", str),
            _require(obj, "chaincode_name", str),
        )


@dataclass(frozen=True)
class PersistedConfig:
    """Everything a device needs to restore its pre-crash behavior exactly.

    `heartbeat_sequence` is a ceiling: no heartbeat above it was ever sent.
    The node reserves sequences in blocks, raising the ceiling before the
    first beat above it, lowers it to the last beat sent when it stops
    cleanly, and counts on from it after a restart. A file that holds the
    last sequence sent is a valid ceiling too.
    """

    state: NodeState = NodeState.IDLE
    job: Optional[MonitoringJob] = None
    heartbeat: Optional[HeartbeatTarget] = None
    ledger: Optional[LedgerTarget] = None
    heartbeat_sequence: int = 0

    def to_obj(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "state": self.state.value,
            "job": self.job.to_obj() if self.job else None,
            "heartbeat": asdict(self.heartbeat) if self.heartbeat else None,
            "ledger": asdict(self.ledger) if self.ledger else None,
            "heartbeat_sequence": self.heartbeat_sequence,
        }

    @classmethod
    def from_obj(cls, obj: Any) -> "PersistedConfig":
        """Unknown fields are ignored, so older files that still carry
        `since` and `transitions` load; a null job or target is none."""
        _require_keys(obj, ("state", "heartbeat_sequence"), "PersistedConfig")
        job, heartbeat, ledger = (obj.get(key) for key in ("job", "heartbeat", "ledger"))
        cfg = cls(
            state=_require(obj, "state", NodeState),
            job=None if job is None else MonitoringJob.from_obj(job),
            heartbeat=None if heartbeat is None else HeartbeatTarget.from_obj(heartbeat),
            ledger=None if ledger is None else LedgerTarget.from_obj(ledger),
            heartbeat_sequence=_require(obj, "heartbeat_sequence", int),
        )
        if (cfg.state is NodeState.MONITORING) != (cfg.job is not None):
            raise ModelError("job must be present iff state is monitoring")
        return cfg


class ConfigStore:
    """Load/save PersistedConfig with atomic replacement.

    A node saves on every control-state change and, for heartbeats, once per
    block of reserved sequence numbers (see `PersistedConfig`), not per beat.

    A missing file yields the documented default (Idle, no targets). A file
    that exists but does not parse raises CorruptConfig; it is never silently
    replaced by defaults.
    """

    def __init__(self, directory: str | Path) -> None:
        self._path = Path(directory) / CONFIG_FILE
        self._path.parent.mkdir(parents=True, exist_ok=True)

    @property
    def path(self) -> Path:
        return self._path

    def load(self) -> PersistedConfig:
        config = read_document(self._path, CorruptConfig, PersistedConfig.from_obj)
        return PersistedConfig() if config is None else config

    def save(self, config: PersistedConfig) -> None:
        write_document(self._path, config.to_obj())
