"""Crash-safe local persistence: the submission journal and device config.

The buffer is an append-only journal of JSON lines plus a compacted ack file.
Every enqueue is flushed and fsynced before it returns, so an entry that was
acknowledged to the caller survives any process kill. Acks rewrite a small
watermark file atomically (write-temp, fsync, rename). One writer and one
drainer may operate concurrently; all file access is serialized internally.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Optional

from .envelope import MalformedEnvelope, SignedEnvelope
from .model import ModelError, MonitoringJob, NodeState

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
DEFAULT_CAP = 1_000_000

CONFIG_FILE = "ambox_config.json"
JOURNAL_FILE = "buffer.journal"
ACK_FILE = "buffer.ack"


class StorageError(Exception):
    pass


class StorageFull(StorageError):
    """Buffer is at its configured cap; caller should pause and raise an alarm."""


class UnknownEntry(StorageError):
    """Ack or nack for an id that is not pending (already acked or never issued)."""


class CorruptJournal(StorageError):
    pass


class CorruptConfig(StorageError):
    pass


@dataclass(frozen=True)
class BufferEntry:
    entry_id: int
    envelope: SignedEnvelope
    enqueued_at: int
    attempts: int = 0


class DurableBuffer:
    """FIFO of signed envelopes awaiting submission. Survives process kills."""

    def __init__(self, directory: str | Path, cap: int = DEFAULT_CAP) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._journal_path = self._dir / JOURNAL_FILE
        self._ack_path = self._dir / ACK_FILE
        self._cap = cap
        self._lock = threading.Lock()
        self._pending: dict[int, BufferEntry] = {}
        self._watermark = 0          # every id <= watermark is acked
        self._acked_above: set[int] = set()
        self._next_id = 1
        self._recover()
        self._journal = open(self._journal_path, "ab")

    # -- recovery ---------------------------------------------------------

    def _recover(self) -> None:
        if self._ack_path.exists():
            try:
                ack = json.loads(self._ack_path.read_text("utf-8"))
                self._watermark = int(ack["watermark"])
                self._acked_above = {int(i) for i in ack["acked"]}
                self._next_id = int(ack.get("next_id", self._watermark + 1))
            except (ValueError, KeyError, TypeError) as exc:
                raise CorruptJournal(f"ack file unreadable: {exc}") from exc
        if not self._journal_path.exists():
            self._journal_path.touch()
            return
        raw = self._journal_path.read_bytes()
        keep = len(raw)
        lines = raw.split(b"\n")
        # A partial trailing line is a crash artifact from an interrupted
        # enqueue (never acknowledged to the writer) and is dropped. Anything
        # malformed before that is real corruption and must surface.
        trailing_partial = lines and lines[-1] != b""
        if not trailing_partial:
            lines = lines[:-1]
        for index, line in enumerate(lines):
            is_last = index == len(lines) - 1
            try:
                obj = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                if is_last and trailing_partial:
                    keep = raw.rfind(b"\n") + 1
                    break
                raise CorruptJournal(f"journal line {index + 1} unreadable: {exc}") from exc
            if index == 0:
                if obj.get("schema_version") != SCHEMA_VERSION:
                    raise CorruptJournal(f"unsupported journal schema: {obj!r}")
                continue
            try:
                entry_id = int(obj["seq"])
                entry = BufferEntry(
                    entry_id=entry_id,
                    envelope=SignedEnvelope.from_wire_obj(obj["envelope"]),
                    enqueued_at=int(obj["enqueued_at"]),
                )
            except (KeyError, ValueError, TypeError, MalformedEnvelope) as exc:
                if is_last and trailing_partial:
                    keep = raw.rfind(b"\n") + 1
                    break
                raise CorruptJournal(f"journal line {index + 1} invalid: {exc}") from exc
            self._next_id = max(self._next_id, entry_id + 1)
            if entry_id <= self._watermark or entry_id in self._acked_above:
                continue
            self._pending[entry_id] = entry
        if keep < len(raw):
            with open(self._journal_path, "r+b") as f:
                f.truncate(keep)

    # -- operations -------------------------------------------------------

    def enqueue(self, envelope: SignedEnvelope, now_ms: int) -> int:
        with self._lock:
            if len(self._pending) >= self._cap:
                raise StorageFull(f"buffer at cap ({self._cap} entries)")
            entry_id = self._next_id
            self._next_id += 1
            record = {
                "seq": entry_id,
                "enqueued_at": now_ms,
                "envelope": envelope.to_wire_obj(),
            }
            if self._journal.tell() == 0:
                self._write_line({"schema_version": SCHEMA_VERSION})
            self._write_line(record)
            self._pending[entry_id] = BufferEntry(entry_id, envelope, now_ms)
            return entry_id

    def peek_batch(self, n: int) -> list[BufferEntry]:
        """Up to n oldest unacknowledged entries, non-destructively."""
        if n < 1:
            raise ValueError("n must be >= 1")
        with self._lock:
            ids = sorted(self._pending)[:n]
            return [self._pending[i] for i in ids]

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
            self._compact_watermark()
            self._write_ack_file()
            if not self._pending and self._journal.tell() > 0:
                self._truncate_journal()

    def nack(self, entry_ids: Iterable[int]) -> None:
        """Failure notice: entries stay, in order, with attempts incremented."""
        with self._lock:
            for entry_id in entry_ids:
                entry = self._pending.get(entry_id)
                if entry is None:
                    raise UnknownEntry(f"entry {entry_id} is not pending")
                self._pending[entry_id] = replace(entry, attempts=entry.attempts + 1)

    def depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def pending_entries(self) -> list[BufferEntry]:
        with self._lock:
            return [self._pending[i] for i in sorted(self._pending)]

    def close(self) -> None:
        with self._lock:
            self._journal.close()

    # -- internals --------------------------------------------------------

    def _write_line(self, obj: dict[str, Any]) -> None:
        self._journal.write(json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n")
        self._journal.flush()
        os.fsync(self._journal.fileno())

    def _compact_watermark(self) -> None:
        while self._watermark + 1 in self._acked_above:
            self._watermark += 1
            self._acked_above.discard(self._watermark)

    def _write_ack_file(self) -> None:
        payload = json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "watermark": self._watermark,
                "acked": sorted(self._acked_above),
                "next_id": self._next_id,
            },
            sort_keys=True,
        )
        _atomic_write(self._ack_path, payload.encode("utf-8"))

    def _truncate_journal(self) -> None:
        # Safe ordering: the ack file already marks everything acked, so a
        # crash between these two steps replays into an empty pending set.
        self._journal.truncate(0)
        self._journal.seek(0)
        self._journal.flush()
        os.fsync(self._journal.fileno())


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as f:
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


# -- persisted device configuration ---------------------------------------


@dataclass(frozen=True)
class HeartbeatTarget:
    address: str
    port: int
    timeout_ms: int

    def to_obj(self) -> dict[str, Any]:
        return {"address": self.address, "port": self.port, "timeout_ms": self.timeout_ms}

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "HeartbeatTarget":
        return cls(str(obj["address"]), int(obj["port"]), int(obj["timeout_ms"]))


@dataclass(frozen=True)
class LedgerTarget:
    address: str
    port: int
    channel_name: str
    chaincode_name: str

    def to_obj(self) -> dict[str, Any]:
        return {
            "address": self.address,
            "port": self.port,
            "channel_name": self.channel_name,
            "chaincode_name": self.chaincode_name,
        }

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
    """Everything a device needs to restore its pre-crash behavior exactly."""

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
            "heartbeat": self.heartbeat.to_obj() if self.heartbeat else None,
            "ledger": self.ledger.to_obj() if self.ledger else None,
            "heartbeat_sequence": self.heartbeat_sequence,
        }

    @classmethod
    def from_obj(cls, obj: Any) -> "PersistedConfig":
        """Unknown fields are ignored, so older files that still carry
        `since` and `transitions` load."""
        if not isinstance(obj, dict):
            raise CorruptConfig("config root must be an object")
        if obj.get("schema_version") != SCHEMA_VERSION:
            raise CorruptConfig(f"unsupported config schema: {obj.get('schema_version')!r}")
        try:
            state = NodeState(obj["state"])
            job = MonitoringJob.from_obj(obj["job"]) if obj.get("job") else None
            heartbeat = HeartbeatTarget.from_obj(obj["heartbeat"]) if obj.get("heartbeat") else None
            ledger = LedgerTarget.from_obj(obj["ledger"]) if obj.get("ledger") else None
            cfg = cls(
                state=state,
                job=job,
                heartbeat=heartbeat,
                ledger=ledger,
                heartbeat_sequence=int(obj["heartbeat_sequence"]),
            )
        except (KeyError, ValueError, TypeError, ModelError) as exc:
            raise CorruptConfig(f"config contents invalid: {exc}") from exc
        if (cfg.state is NodeState.MONITORING) != (cfg.job is not None):
            raise CorruptConfig("job must be present iff state is monitoring")
        return cfg


class ConfigStore:
    """Load/save PersistedConfig with atomic replacement.

    A missing file yields the documented default (Idle, no targets). A file
    that exists but does not parse raises CorruptConfig; it is never silently
    replaced by defaults.
    """

    def __init__(self, directory: str | Path, filename: str = CONFIG_FILE) -> None:
        self._path = Path(directory) / filename
        self._path.parent.mkdir(parents=True, exist_ok=True)

    @property
    def path(self) -> Path:
        return self._path

    def load(self) -> PersistedConfig:
        if not self._path.exists():
            return PersistedConfig()
        try:
            text = self._path.read_text("utf-8")
            obj = json.loads(text)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptConfig(f"cannot read {self._path.name}: {exc}") from exc
        return PersistedConfig.from_obj(obj)

    def save(self, config: PersistedConfig) -> None:
        data = json.dumps(config.to_obj(), indent=2, sort_keys=True).encode("utf-8")
        _atomic_write(self._path, data)
