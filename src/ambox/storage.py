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
  OSError cuts the file back to where it was before re-raising; `clear`
  empties the file durably.

Built on them here: the submission buffer (a journal log plus an ack
document), the node config and the device key file; the ledger and the mote
use the primitives directly. A buffer serializes its file access, so one
writer and one drainer may share it.
"""

from __future__ import annotations

import os
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, TypeVar, Union

from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.rsa import RSAPrivateKey

from . import canonical
from .envelope import KeyPair, KeyUnavailable, MalformedEnvelope, SignedEnvelope
from .model import MonitoringJob, NodeState

SCHEMA_VERSION = 1
DEFAULT_CAP = 1_000_000

CONFIG_FILE = "ambox_config.json"
JOURNAL_FILE = "buffer.journal"
ACK_FILE = "buffer.ack"
KEY_FILE = "device_key.pem"

T = TypeVar("T")


class StorageError(Exception):
    pass


class StorageFull(StorageError):
    """Buffer is at its configured cap; caller should pause and raise an alarm."""


class UnknownEntry(StorageError):
    """Ack for an id that is not pending (already acked or never issued)."""


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
    if not isinstance(obj, dict):
        raise corrupt(f"{path.name}: root must be an object")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise corrupt(f"{path.name}: unsupported schema {obj.get('schema_version')!r}")
    try:
        return parse(obj)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise corrupt(f"{path.name} invalid: {exc}") from exc


class AppendLog:
    """A file of newline-terminated lines, each made durable as it is appended."""

    def __init__(self, path: Path) -> None:
        self._file = open(path, "ab", buffering=0)

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
        return os.lseek(self._file.fileno(), 0, os.SEEK_END)

    def append(self, lines: bytes) -> None:
        """Durably append `lines`, one or more whole lines, each ending with
        its newline, in one write and one fsync. On OSError the file is cut
        back to its size before the call; the next successful append's fsync
        makes that cut durable."""
        fd = self._file.fileno()
        start = self.size
        try:
            view = memoryview(lines)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
        except OSError:
            os.ftruncate(fd, start)
            raise

    def clear(self) -> None:
        os.ftruncate(self._file.fileno(), 0)
        os.fsync(self._file.fileno())

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

    The journal is an `AppendLog` of canonical JSON lines: a schema header,
    then one record per envelope, each enqueue's records in one append. Ids
    are consecutive; one taken by a failed append is issued again. Acks
    rewrite a small watermark document;
    once nothing is pending the journal is cleared.
    """

    def __init__(self, directory: str | Path, cap: int = DEFAULT_CAP) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._ack_path = self._dir / ACK_FILE
        self._cap = cap
        self._lock = threading.Lock()
        self._pending: dict[int, BufferEntry] = {}
        self._watermark = 0          # every id <= watermark is acked
        self._acked_above: set[int] = set()
        self._next_id = 1
        journal_path = self._dir / JOURNAL_FILE
        self._recover(AppendLog.read(journal_path))
        self._journal = AppendLog(journal_path)

    def _recover(self, raw: bytes) -> None:
        ack = read_document(self._ack_path, CorruptJournal, lambda obj: (
            int(obj["watermark"]),
            {int(i) for i in obj["acked"]},
            int(obj.get("next_id", int(obj["watermark"]) + 1)),
        ))
        if ack is not None:
            self._watermark, self._acked_above, self._next_id = ack
        for number, line in enumerate(raw.splitlines(), 1):
            try:
                obj = canonical.loads(line)
                if number == 1:
                    if obj != {"schema_version": SCHEMA_VERSION}:
                        raise CorruptJournal(f"unsupported journal schema: {obj!r}")
                    continue
                entry = BufferEntry(
                    entry_id=int(obj["seq"]),
                    envelope=SignedEnvelope.from_wire_obj(obj["envelope"]),
                    enqueued_at=int(obj["enqueued_at"]),
                )
            except (KeyError, ValueError, TypeError, MalformedEnvelope) as exc:
                raise CorruptJournal(f"journal line {number} invalid: {exc}") from exc
            self._next_id = max(self._next_id, entry.entry_id + 1)
            if entry.entry_id > self._watermark and entry.entry_id not in self._acked_above:
                self._pending[entry.entry_id] = entry

    # -- operations -------------------------------------------------------

    def enqueue(self, envelopes: list[SignedEnvelope], now_ms: int) -> list[int]:
        """Store `envelopes` under consecutive new ids, in one append and one
        fsync. A group that would pass the cap is refused whole."""
        if not envelopes:
            raise ValueError("nothing to enqueue")
        with self._lock:
            if len(self._pending) + len(envelopes) > self._cap:
                raise StorageFull(f"buffer at cap ({self._cap} entries)")
            ids = list(range(self._next_id, self._next_id + len(envelopes)))
            lines = [canonical.dumps({
                "seq": entry_id,
                "enqueued_at": now_ms,
                "envelope": envelope.to_wire_obj(),
            }) for entry_id, envelope in zip(ids, envelopes)]
            if self._journal.size == 0:
                lines.insert(0, canonical.dumps({"schema_version": SCHEMA_VERSION}))
            self._journal.append(b"\n".join(lines) + b"\n")
            self._next_id = ids[-1] + 1
            for entry_id, envelope in zip(ids, envelopes):
                self._pending[entry_id] = BufferEntry(entry_id, envelope, now_ms)
            return ids

    def peek_batch(self, n: int) -> list[BufferEntry]:
        """Up to n oldest unacknowledged entries, non-destructively."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return self.peek_after(0, n)

    def peek_after(self, entry_id: int, n: int) -> list[BufferEntry]:
        """Oldest-first pending entries with id greater than entry_id."""
        with self._lock:
            ids = sorted(i for i in self._pending if i > entry_id)[:n]
            return [self._pending[i] for i in ids]

    def ack(self, entry_ids: Iterable[int]) -> None:
        with self._lock:
            ids = list(entry_ids)
            for entry_id in ids:
                if entry_id not in self._pending:
                    raise UnknownEntry(f"entry {entry_id} is not pending")
            for entry_id in ids:
                del self._pending[entry_id]
                self._acked_above.add(entry_id)
            while self._watermark + 1 in self._acked_above:
                self._watermark += 1
                self._acked_above.discard(self._watermark)
            write_document(self._ack_path, {
                "schema_version": SCHEMA_VERSION,
                "watermark": self._watermark,
                "acked": sorted(self._acked_above),
                "next_id": self._next_id,
            })
            # The ack document already marks everything acked, so a crash
            # before the clear replays into an empty pending set.
            if not self._pending and self._journal.size > 0:
                self._journal.clear()

    def depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def pending_entries(self) -> list[BufferEntry]:
        with self._lock:
            return [self._pending[i] for i in sorted(self._pending)]

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
    def from_obj(cls, obj: dict[str, Any]) -> "HeartbeatTarget":
        return cls(str(obj["address"]), int(obj["port"]), int(obj["timeout_ms"]))


@dataclass(frozen=True)
class LedgerTarget:
    address: str
    port: int
    channel_name: str
    chaincode_name: str

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "LedgerTarget":
        return cls(
            str(obj["address"]),
            int(obj["port"]),
            str(obj["channel_name"]),
            str(obj["chaincode_name"]),
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
    def from_obj(cls, obj: dict[str, Any]) -> "PersistedConfig":
        """Unknown fields are ignored, so older files that still carry
        `since` and `transitions` load."""
        cfg = cls(
            state=NodeState(obj["state"]),
            job=MonitoringJob.from_obj(obj["job"]) if obj.get("job") else None,
            heartbeat=HeartbeatTarget.from_obj(obj["heartbeat"]) if obj.get("heartbeat") else None,
            ledger=LedgerTarget.from_obj(obj["ledger"]) if obj.get("ledger") else None,
            heartbeat_sequence=int(obj["heartbeat_sequence"]),
        )
        if (cfg.state is NodeState.MONITORING) != (cfg.job is not None):
            raise CorruptConfig("job must be present iff state is monitoring")
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
