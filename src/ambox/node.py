"""Node agent: lifecycle state machine, control API, sampling, mote
aggregation, heartbeats, and signed batched submission with retry.

Concurrent activities: one sampler per enabled sensor, one manager per
paired mote, a packer that cuts one signed report per report interval, a
retry loop that drains the durable buffer, and a heartbeat loop. State
changes happen only through the control API and are persisted before they
take effect, so a restart resumes exactly where the process died.

Submission is at-least-once: entries leave the buffer only after the ledger
answered each of them with its own verdict, and the ledger deduplicates by
report id, which yields exactly-once observable delivery across crashes and
partitions. After a failed submit the next attempt sends only the oldest
envelope; once the ledger answers it, the same drain goes on in full batches.

A relayed mote reading is taken once, by two watermarks per paired mote (see
`_ingest_mote_notification`). The journaled one is a journal mark, durable with
the report that carries it, so opening a node decodes no journal entry.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional

from . import canonical
from .envelope import InvalidReport, KeyPair, MalformedEnvelope, sign
from .ledger import LedgerClient, LedgerClientError, report_id_of
from .model import (
    DeviceKind,
    EventReport,
    HeartbeatMessage,
    ModelError,
    MonitoringJob,
    NodeState,
    SensorReading,
    legal_transition,
    _check_sensor_params,
    _require,
    new_report_id,
)
from .mote import CHAR_ACK, CHAR_CONFIG, CHAR_READINGS, decode_reading_notification
from .runtime import Runtime
from .sensors import _reportable
from .storage import (
    ConfigStore,
    DurableBuffer,
    HeartbeatTarget,
    LedgerTarget,
    StorageFull,
)
from .transport import (
    DISCONNECTED,
    CentralPort,
    RequestClient,
    SessionClosed,
    TransportError,
    spawn_reconnect,
)

logger = logging.getLogger(__name__)

HEARTBEAT_DIVISOR = 3            # emit at timeout/3: two losses tolerated
HEARTBEAT_RESERVE = 1024         # heartbeat sequences reserved per config write
RETRY_INTERVAL_MS = 30_000
MOTE_RETRY_MS = 2_000
SUBMIT_BATCH_MAX = 500
PACK_STAGGER_MS = 500            # keeps pack ticks off the exact sample ticks


class ControlError(Exception):
    def __init__(self, status: int, error: str) -> None:
        super().__init__(error)
        self.status = status
        self.error = error


def illegal_state(detail: str) -> ControlError:
    return ControlError(409, detail)


def invalid_argument(detail: str) -> ControlError:
    return ControlError(400, detail)


@dataclass
class _WindowItem:
    reading: SensorReading
    mote_id: Optional[str] = None
    mote_entry_id: Optional[int] = None


class NodeAgent:
    def __init__(
        self,
        keypair: KeyPair,
        data_dir: str | Path,
        runtime: Runtime,
        *,
        heartbeat_caller,                       # JsonCaller for POST /heartbeat
        ledger_requester: RequestClient,
        make_dest: Callable[[str, int], str],   # (address, port) -> transport dest
        sensor_factory: Callable[[str], Any],
        central: Optional[CentralPort] = None,
        allowed_motes: tuple[str, ...] = (),
        crash_hook: Optional[Callable[[str], None]] = None,
        on_shutdown: Optional[Callable[[], None]] = None,
    ) -> None:
        self.device_id = keypair.device_id
        self.keypair = keypair
        self.data_dir = Path(data_dir)
        self.runtime = runtime
        self.heartbeat_caller = heartbeat_caller
        self.ledger_requester = ledger_requester
        self.make_dest = make_dest
        self.sensor_factory = sensor_factory
        self.central = central
        self.allowed_motes = tuple(allowed_motes)
        self.crash_hook = crash_hook or (lambda point: None)
        self.on_shutdown = on_shutdown

        self.config_store = ConfigStore(self.data_dir)
        self.config = self.config_store.load()
        self.buffer = DurableBuffer(self.data_dir)

        # Serializes whole control operations; safe to hold across parks.
        self._control_lock = runtime.new_mutex()
        # Guards read-modify-write of self.config; never held across a park.
        self._config_lock = threading.Lock()
        self._drain_guard = threading.Lock()
        self._window_lock = threading.Lock()
        self._window: list[_WindowItem] = []
        # Relay watermarks per paired mote; see _ingest_mote_notification.
        self._journaled: dict[str, int] = self.buffer.marks()
        self._windowed: dict[str, int] = {}
        self._report_counter = 0
        self._last_job: Optional[MonitoringJob] = self.config.job
        self._drain_kick = runtime.new_signal()
        self._storage_alarm = False
        self._sessions: dict[str, Any] = {}
        self._tasks: dict[str, Any] = {}
        self._sampler_tasks: dict[str, Any] = {}
        self._packer_task = None
        self._drivers: dict[str, Any] = {}
        self._crashed = False
        # Last heartbeat sequence put on the wire. The config holds a ceiling
        # no beat ever exceeded, so counting on from it after a restart keeps
        # the sequence strictly increasing.
        self._heartbeat_sequence = self.config.heartbeat_sequence

        self.stats: dict[str, int] = {
            "samples": 0,
            "sample_errors": 0,
            "out_of_range_drops": 0,
            "pack_drops": 0,
            "packs": 0,
            "heartbeats_sent": 0,
            "heartbeat_failures": 0,
            "submit_failures": 0,
            "consecutive_submit_failures": 0,
            "committed": 0,
            "replays": 0,
            "rejected": 0,
            "mote_readings": 0,
            "mote_duplicates": 0,
            "mote_gaps": 0,
            "storage_full_events": 0,
        }

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Resume activities appropriate to the persisted state."""
        state = self.config.state
        if state in (NodeState.HEARTBEAT, NodeState.MONITORING):
            self._start_heartbeat()
            self._start_retry_loop()
            self._start_mote_managers()
        if state is NodeState.MONITORING:
            assert self.config.job is not None
            self._start_sampling(self.config.job)

    def crash(self) -> None:
        """Abandon all in-memory state as a kill would; files stay as they are."""
        self._crashed = True
        self._cancel_tasks()
        self.buffer.close()

    def stop(self) -> None:
        self._cancel_tasks()
        self._release_heartbeat_reserve()
        self.buffer.close()

    @property
    def window_size(self) -> int:
        """Readings taken but not yet packed into a buffered report."""
        return len(self._window)

    def _cancel_tasks(self) -> None:
        """Cancel every activity, the calling one included: it unwinds at its
        next blocking point, or at once if it raises TaskCancelled itself."""
        tasks = list(self._tasks.values()) + list(self._sampler_tasks.values())
        if self._packer_task is not None:
            tasks.append(self._packer_task)
        for task in tasks:
            if task is not None and task.alive:
                task.cancel()

    # -- control API ------------------------------------------------------------

    def router(self, method: str, path: str, body: Optional[dict]) -> tuple[int, dict]:
        try:
            if method == "GET" and path == "/identity":
                return 200, self._identity_obj()
            if method != "POST":
                return 405, {"error": "method-not-allowed"}
            with self._control_lock:
                handler = {
                    "/init": self._control_init,
                    "/configHeartbeat": self._control_config_heartbeat,
                    "/configBlockchain": self._control_config_blockchain,
                    "/startMonitoring": self._control_start_monitoring,
                    "/stopMonitoring": self._control_stop_monitoring,
                    "/turnOff": self._control_turn_off,
                }.get(path)
                if handler is None:
                    return 404, {"error": "unknown-endpoint"}
                handler(body or {})
            return 200, {"status": "ok"}
        except ControlError as exc:
            return exc.status, {"error": exc.error}
        except OSError as exc:
            logger.error("%s: %s %s failed in storage: %s", self.device_id, method, path, exc)
            return 503, {"error": "storage-failed"}

    def _identity_obj(self) -> dict[str, Any]:
        return {
            "device_id": self.device_id,
            "kind": DeviceKind.NODE.value,
            "public_key_pem": self.keypair.public_pem,
            "state": self.config.state.value,
            "buffer_depth": self.buffer.depth(),
            "window_size": self.window_size,
            "heartbeat_sequence": self._heartbeat_sequence,
        }

    def _transition(self, target: NodeState, job: Optional[MonitoringJob]) -> None:
        current = self.config.state
        if not legal_transition(current, target):
            raise illegal_state(f"illegal-transition:{current.value}->{target.value}")
        with self._config_lock:
            self._save_config(state=target, job=job)

    def _save_config(self, **changes: Any) -> None:
        """Store the config with `changes`, then run on it, with
        `_config_lock` held: a change takes effect only once it is on disk,
        and an OSError from the write leaves the config as it was."""
        config = replace(self.config, **changes)
        self.config_store.save(config)
        self.config = config

    def _control_init(self, body: dict) -> None:
        if self.config.state is not NodeState.IDLE:
            raise illegal_state(f"illegal-state:{self.config.state.value}")
        self._transition(NodeState.HEARTBEAT, None)
        self._start_heartbeat()
        self._start_retry_loop()
        self._start_mote_managers()

    def _control_config_heartbeat(self, body: dict) -> None:
        target = HeartbeatTarget(
            address=_argument(body, "ipaddr", str),
            port=_argument(body, "port", int, 1, 65535),
            timeout_ms=_argument(body, "heartbeat_timeout_ms", int, least=1),
        )
        with self._config_lock:
            self._save_config(heartbeat=target)

    def _control_config_blockchain(self, body: dict) -> None:
        target = LedgerTarget(
            address=_argument(body, "ipaddr", str),
            port=_argument(body, "port", int, 1, 65535),
            channel_name=_argument(body, "channel_name", str),
            chaincode_name=_argument(body, "chaincode_name", str),
        )
        with self._config_lock:
            self._save_config(ledger=target)
        self._drain_kick.set()

    def _control_start_monitoring(self, body: dict) -> None:
        if self.config.state is not NodeState.HEARTBEAT:
            raise illegal_state(f"illegal-state:{self.config.state.value}")
        if self.config.ledger is None:
            raise illegal_state("ledger-not-configured")
        job = _job_from_body(body)
        self._transition(NodeState.MONITORING, job)
        self._last_job = job
        self._start_sampling(job)
        self._push_mote_config(job)

    def _control_stop_monitoring(self, body: dict) -> None:
        if self.config.state is not NodeState.MONITORING:
            raise illegal_state(f"illegal-state:{self.config.state.value}")
        self._stop_sampling()
        self._push_mote_config(None)
        self._pack_window()
        self._transition(NodeState.HEARTBEAT, None)
        self._drain_kick.set()

    def _control_turn_off(self, body: dict) -> None:
        if self.config.state is not NodeState.HEARTBEAT:
            raise illegal_state(f"illegal-state:{self.config.state.value}")
        if self.buffer.depth() > 0 or self._window:
            raise illegal_state("buffer-not-drained")
        self._transition(NodeState.IDLE, None)

        def shutdown() -> None:
            self.runtime.sleep(10)
            self.stop()
            if self.on_shutdown is not None:
                self.on_shutdown()

        self.runtime.spawn(f"{self.device_id}:shutdown", shutdown)

    # -- heartbeat -----------------------------------------------------------------

    def _start_heartbeat(self) -> None:
        if "heartbeat" not in self._tasks or not self._tasks["heartbeat"].alive:
            self._tasks["heartbeat"] = self.runtime.spawn(
                f"{self.device_id}:heartbeat", self._heartbeat_loop
            )

    def _heartbeat_loop(self) -> None:
        while True:
            config = self.config
            if config.state not in (NodeState.HEARTBEAT, NodeState.MONITORING):
                return
            target = config.heartbeat
            interval = target.timeout_ms // HEARTBEAT_DIVISOR if target else 10_000
            if target is not None:
                sequence = self._next_heartbeat_sequence()
                if sequence is None:
                    self.stats["heartbeat_failures"] += 1
                    self.runtime.sleep(max(interval, 1))
                    continue
                message = HeartbeatMessage(
                    device_id=self.device_id,
                    state=self.config.state,
                    sent_at=self.runtime.now_ms(),
                    sequence=sequence,
                    buffer_alarm=self._storage_alarm,
                    consecutive_submit_failures=self.stats["consecutive_submit_failures"],
                )
                try:
                    self.heartbeat_caller.call(
                        self.make_dest(target.address, target.port),
                        "POST",
                        "/heartbeat",
                        message.to_obj(),
                        timeout_ms=min(interval, 5000),
                        label="POST /heartbeat",
                    )
                    self.stats["heartbeats_sent"] += 1
                except TransportError:
                    self.stats["heartbeat_failures"] += 1
            self.runtime.sleep(max(interval, 1))

    def _next_heartbeat_sequence(self) -> Optional[int]:
        """The next beat's sequence. One above the persisted ceiling first
        raises the ceiling to cover HEARTBEAT_RESERVE beats; None if that
        write failed."""
        with self._config_lock:
            sequence = self._heartbeat_sequence + 1
            reserved = sequence > self.config.heartbeat_sequence
            if reserved and not self._save_heartbeat_ceiling(sequence + HEARTBEAT_RESERVE - 1):
                return None
            self._heartbeat_sequence = sequence
        if reserved:
            self.crash_hook("post_ceiling")
        return sequence

    def _release_heartbeat_reserve(self) -> None:
        """On a clean stop, lower the ceiling to the last beat sent, so the
        next start goes on from it rather than from the end of the block."""
        with self._config_lock:
            if not self._crashed and self._heartbeat_sequence < self.config.heartbeat_sequence:
                self._save_heartbeat_ceiling(self._heartbeat_sequence)

    def _save_heartbeat_ceiling(self, ceiling: int) -> bool:
        """Persist `ceiling`, with `_config_lock` held; False, leaving the
        config as it was, if the write failed."""
        try:
            self._save_config(heartbeat_sequence=ceiling)
        except OSError as exc:
            logger.warning("%s: cannot save heartbeat ceiling %d: %s",
                           self.device_id, ceiling, exc)
            return False
        return True

    # -- sampling -------------------------------------------------------------------

    def _start_sampling(self, job: MonitoringJob) -> None:
        for quantity in job.enabled_quantities():
            driver = self._drivers.get(quantity)
            if driver is None:
                driver = self.sensor_factory(quantity)
                self._drivers[quantity] = driver
            if driver is None:
                logger.warning("%s: no driver for %s; skipping", self.device_id, quantity)
                continue
            self._sampler_tasks[quantity] = self.runtime.spawn(
                f"{self.device_id}:sample:{quantity}",
                lambda q=quantity, d=driver: self._sampler_loop(q, d, job.sample_interval_ms),
            )
        self._packer_task = self.runtime.spawn(
            f"{self.device_id}:packer", lambda: self._packer_loop(job.report_interval_ms)
        )

    def _stop_sampling(self) -> None:
        for task in self._sampler_tasks.values():
            if task.alive:
                task.cancel()
        self._sampler_tasks.clear()
        if self._packer_task is not None and self._packer_task.alive:
            self._packer_task.cancel()
        self._packer_task = None

    def _sampler_loop(self, quantity: str, driver, interval_ms: int) -> None:
        while True:
            self.runtime.sleep(interval_ms)
            if self._storage_alarm:
                continue  # sampling pauses while the buffer is full
            t = self.runtime.now_ms()
            try:
                value = driver.read(t)
            except Exception:
                self.stats["sample_errors"] += 1
                logger.exception("%s: %s driver failed", self.device_id, quantity)
                continue
            if not _reportable(driver, value):
                self.stats["out_of_range_drops"] += 1
                continue
            reading = SensorReading(
                quantity=quantity, value=value, sampled_at=t, source_device=self.device_id
            )
            with self._window_lock:
                self._window.append(_WindowItem(reading))
            self.stats["samples"] += 1

    # -- packing and submission ---------------------------------------------------------

    def _packer_loop(self, report_interval_ms: int) -> None:
        self.runtime.sleep(report_interval_ms + PACK_STAGGER_MS)
        while True:
            self._pack_window()
            self._drain_once()
            self.runtime.sleep(report_interval_ms)

    def _pack_window(self) -> None:
        with self._window_lock:
            items = list(self._window)
            self._window.clear()
        if not items:
            return
        items.sort(key=lambda i: (i.reading.sampled_at, i.reading.source_device,
                                  i.reading.quantity))
        # A reading no report can carry (a repeat of an instant taken for its source
        # and quantity, or a non-finite value) would hold every later pack back, so
        # it is dropped; its mote entry id still goes into the marks and is acked.
        marks: dict[str, int] = {}
        taken: set[tuple[str, str, int]] = set()
        kept: list[_WindowItem] = []
        for item in items:
            if item.mote_id is not None:
                marks[item.mote_id] = max(marks.get(item.mote_id, 0), item.mote_entry_id)
            r = item.reading
            instant = (r.source_device, r.quantity, r.sampled_at)
            if instant in taken or not math.isfinite(r.value):
                self.stats["pack_drops"] += 1
                logger.warning("%s: dropped a reading no report can carry: %s %s at %d = %r",
                               self.device_id, *instant, r.value)
                continue
            taken.add(instant)
            kept.append(item)
        if not kept:
            return
        job = self.config.job or self._last_job
        created_at = self.runtime.now_ms()
        self._report_counter += 1
        report = EventReport(
            report_id=new_report_id(self.device_id, created_at, self._report_counter),
            device_id=self.device_id,
            product_id=job.product_id if job else "unconfigured",
            batch_no=job.batch_no if job else "unconfigured",
            created_at=created_at,
            readings=tuple(i.reading for i in kept),
        )
        try:
            envelope = sign(self.keypair, report)
        except InvalidReport as exc:
            # Never enqueue junk; put the readings back and surface loudly.
            with self._window_lock:
                self._window = items + self._window
            logger.error("%s: refusing to pack invalid report: %s", self.device_id, exc)
            return
        self.crash_hook("pre_enqueue")
        try:
            self.buffer.enqueue([envelope], created_at, marks)
        except (StorageFull, OSError) as exc:
            # The readings go back to the window for the next pack.
            if isinstance(exc, StorageFull):
                self.stats["storage_full_events"] += 1
            else:
                logger.error("%s: cannot store report: %s", self.device_id, exc)
            self._storage_alarm = True
            with self._window_lock:
                self._window = items + self._window
            return
        self.crash_hook("post_enqueue")
        self.stats["packs"] += 1
        self._storage_alarm = False
        # The relayed readings are durable now; acknowledge them to the motes.
        for mote_id, upto in marks.items():
            self._journaled[mote_id] = max(self._journaled.get(mote_id, 0), upto)
            self._send_ack(mote_id, upto)

    def _send_ack(self, mote_id: str, upto: int) -> None:
        session = self._sessions.get(mote_id)
        if session is None:
            return
        try:
            session.write(CHAR_ACK, canonical.wire_dumps({"upto": upto}))
        except SessionClosed:
            pass

    def _ledger_client(self) -> Optional[LedgerClient]:
        target = self.config.ledger
        if target is None:
            return None
        return LedgerClient(
            self.ledger_requester,
            self.make_dest(target.address, target.port),
            channel_name=target.channel_name,
            chaincode_name=target.chaincode_name,
        )

    def _start_retry_loop(self) -> None:
        if "retry" not in self._tasks or not self._tasks["retry"].alive:
            self._tasks["retry"] = self.runtime.spawn(
                f"{self.device_id}:retry", self._retry_loop
            )

    def _retry_loop(self) -> None:
        while True:
            self._drain_kick.wait(timeout_ms=RETRY_INTERVAL_MS)
            self._drain_kick.clear()
            if self.config.state is not NodeState.MONITORING and self._window:
                # Stragglers relayed after monitoring stopped still get shipped.
                self._pack_window()
            if self.buffer.depth() > 0:
                self._drain_once()

    def _drain_once(self) -> None:
        client = self._ledger_client()
        if client is None:
            return
        if not self._drain_guard.acquire(blocking=False):
            return  # another activity is already draining
        try:
            while True:
                # After a failed submit the next one sends only the oldest envelope,
                # so a dead link costs one envelope per attempt, not a full batch.
                probe = self.stats["consecutive_submit_failures"] > 0
                batch = self.buffer.peek_batch(1 if probe else SUBMIT_BATCH_MAX)
                if not batch:
                    self._storage_alarm = False
                    return
                envelopes = [entry.envelope for entry in batch]
                self.crash_hook("pre_submit")
                try:
                    verdicts = client.add_events(envelopes)
                except (TransportError, LedgerClientError) as exc:
                    # Nothing in the batch can be acked; it stays queued for
                    # the next interval.
                    if isinstance(exc, LedgerClientError):
                        logger.warning("%s: unusable ledger answer: %s", self.device_id, exc)
                    self.stats["submit_failures"] += 1
                    self.stats["consecutive_submit_failures"] += 1
                    return
                self.crash_hook("post_submit")
                self.stats["consecutive_submit_failures"] = 0
                for envelope, verdict in zip(envelopes, verdicts, strict=True):
                    if verdict.status == "committed":
                        self.stats["replays" if verdict.replay else "committed"] += 1
                    else:
                        self.stats["rejected"] += 1
                        logger.warning("%s: ledger rejected %s (%s)", self.device_id,
                                       report_id_of(envelope), verdict.reason)
                # Rejections are final (signature or validity); keeping them
                # queued would wedge everything behind them.
                try:
                    self.buffer.ack(batch[-1].entry_id)
                except OSError as exc:
                    # Still pending; sent again, they are answered as replays.
                    logger.error("%s: cannot store ack: %s", self.device_id, exc)
                    return
                self.crash_hook("post_ack")
        finally:
            self._drain_guard.release()

    # -- mote management -----------------------------------------------------------

    def _start_mote_managers(self) -> None:
        if self.central is None:
            return
        for mote_id in self.allowed_motes:
            key = f"mote:{mote_id}"
            if key in self._tasks and self._tasks[key].alive:
                continue
            self._tasks[key] = spawn_reconnect(
                self.runtime,
                self.central,
                mote_id,
                MOTE_RETRY_MS,
                lambda session, m=mote_id: self._serve_mote_session(m, session),
            )

    def _current_job_config_payload(self, job: Optional[MonitoringJob]) -> bytes:
        if job is None:
            obj: dict[str, Any] = {"enabled": False}
        else:
            obj = {
                "enabled": True,
                "sample_interval_ms": job.sample_interval_ms,
                "sensor_params": job.sensor_params,
            }
        return canonical.wire_dumps(obj)

    def _push_mote_config(self, job: Optional[MonitoringJob]) -> None:
        for mote_id, session in list(self._sessions.items()):
            try:
                session.write(CHAR_CONFIG, self._current_job_config_payload(job))
            except SessionClosed:
                pass

    def _serve_mote_session(self, mote_id: str, session) -> None:
        self._sessions[mote_id] = session
        try:
            stream = session.subscribe(CHAR_READINGS)
            session.write(CHAR_CONFIG, self._current_job_config_payload(self.config.job))
            if mote_id in self._journaled:
                self._send_ack(mote_id, self._journaled[mote_id])
            while True:
                item = stream.get()
                if item is DISCONNECTED:
                    return
                self._ingest_mote_notification(mote_id, session, item.payload)
        except SessionClosed:
            return
        finally:
            if self._sessions.get(mote_id) is session:
                del self._sessions[mote_id]

    def _ingest_mote_notification(self, mote_id: str, session, payload: bytes) -> None:
        try:
            entry_id, envelope, signature_b64 = decode_reading_notification(payload)
            reading = SensorReading.from_obj(canonical.loads(envelope.payload),
                                             signature_b64=signature_b64)
        except (ValueError, OverflowError, MalformedEnvelope):
            # What the decoders raise (ValueError covers CanonicalError and
            # ModelError); any other exception is a fault, not a bad notification.
            logger.exception("%s: undecodable mote notification", self.device_id)
            return
        if envelope.signer != mote_id or reading.source_device != mote_id:
            logger.warning("%s: notification from %r signed by %r for %r", self.device_id,
                           mote_id, envelope.signer, reading.source_device)
            return
        # `journaled` is the highest entry id in the journal, `windowed` the highest
        # taken into the window. A mote's entry ids are consecutive and only grow
        # (DurableBuffer reissues only the ids of failed appends; compaction keeps
        # next_id), and _streamer_loop sends them in id order from the oldest unacked
        # one, so an id not above both is a redelivery, and the next reading is the
        # one right above both. The id is not signed and the ack is cumulative, so
        # an id that skips ahead is dropped unacked: taking it would ack away
        # readings never delivered. The first id from a mote with no mark is taken.
        journaled = self._journaled.get(mote_id, 0)
        taken = max(journaled, self._windowed.get(mote_id, 0))
        first_contact = mote_id not in self._journaled and mote_id not in self._windowed
        if entry_id == taken + 1 or (first_contact and entry_id > 0):
            with self._window_lock:
                self._window.append(_WindowItem(reading, mote_id, entry_id))
            self._windowed[mote_id] = entry_id
            self.stats["mote_readings"] += 1
            return
        if entry_id > taken:
            self.stats["mote_gaps"] += 1
            logger.warning("%s: dropped entry %d from %s, expected %d", self.device_id,
                           entry_id, mote_id, taken + 1)
            return
        self.stats["mote_duplicates"] += 1
        if entry_id <= journaled:
            # Already journaled; the earlier ack was lost, so re-ack.
            self._send_ack(mote_id, entry_id)



def _argument(body: dict, key: str, kind: type, least: Optional[int] = None,
              most: Optional[int] = None) -> Any:
    """`model._require(body, key, kind)`: a non-empty string that the config
    file can store as UTF-8, or an integer within any bound given; or invalid-argument."""
    try:
        value = _require(body, key, kind)
        if kind is str:
            value.encode("utf-8")
    except (ModelError, UnicodeEncodeError) as exc:
        raise invalid_argument(f"invalid-argument:{key}") from exc
    if value == "" or (least is not None and value < least) or (most is not None and value > most):
        raise invalid_argument(f"invalid-argument:{key}")
    return value


def _job_from_body(body: dict) -> MonitoringJob:
    """The job a `/startMonitoring` body asks for, held to the rules its
    config file is read back with (`MonitoringJob.from_obj`)."""
    product_id = _argument(body, "prod_id", str)
    batch_no = _argument(body, "batch_no", str)
    report_key = "report_interval_ms" if "report_interval_ms" in body else "interval_ms"
    if body.get(report_key) is None:
        raise invalid_argument("invalid-argument:report_interval_ms")
    report_interval = _argument(body, report_key, int)
    sample_interval = (_argument(body, "sample_interval_ms", int)
                       if "sample_interval_ms" in body else report_interval)
    try:
        params = _check_sensor_params(body.get("sensor_params"))
    except ModelError as exc:
        raise invalid_argument("invalid-argument:sensor_params") from exc
    if not params:
        raise invalid_argument("invalid-argument:sensor_params")
    try:
        job = MonitoringJob(
            product_id=product_id,
            batch_no=batch_no,
            sample_interval_ms=sample_interval,
            report_interval_ms=report_interval,
            sensor_params=params,
        )
    except Exception as exc:
        raise invalid_argument(f"invalid-argument:{exc}") from exc
    try:
        canonical.dumps(job.to_obj())  # the config file has no NaN, Infinity or lone surrogate
    except ValueError as exc:
        raise invalid_argument("invalid-argument:sensor_params") from exc
    return job

