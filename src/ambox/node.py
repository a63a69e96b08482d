"""Node agent: lifecycle state machine, control API, sampling, mote
aggregation, heartbeats, and signed batched submission with retry.

Concurrent activities: one sampler per enabled sensor, one manager per
paired mote, a packer that cuts one signed report per report interval, a
retry loop that drains the durable buffer, and a heartbeat loop. State
changes happen only through the control API and are persisted before they
take effect, so a restart resumes exactly where the process died.

Submission is at-least-once: entries leave the buffer only after the ledger
answered, and the ledger deduplicates by report id, which yields exactly-once
observable delivery across crashes and partitions.
"""

from __future__ import annotations

import base64
import json
import logging
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional

from . import canonical
from .envelope import KeyPair, sign
from .ledger import LedgerClient
from .model import (
    DeviceKind,
    EventReport,
    HeartbeatMessage,
    MonitoringJob,
    NodeState,
    SensorReading,
    legal_transition,
    new_report_id,
    validate_report,
)
from .mote import CHAR_ACK, CHAR_CONFIG, CHAR_READINGS, decode_reading_notification
from .runtime import Runtime
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
DEFAULT_RETRY_INTERVAL_MS = 30_000
DEFAULT_MOTE_RETRY_MS = 2_000
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
        sensor_factory: Callable[[str, dict], Any],
        central: Optional[CentralPort] = None,
        allowed_motes: tuple[str, ...] = (),
        crash_hook: Optional[Callable[[str], None]] = None,
        on_shutdown: Optional[Callable[[], None]] = None,
        buffer_cap: int = 1_000_000,
        retry_interval_ms: int = DEFAULT_RETRY_INTERVAL_MS,
        mote_retry_ms: int = DEFAULT_MOTE_RETRY_MS,
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
        self.retry_interval_ms = retry_interval_ms
        self.mote_retry_ms = mote_retry_ms

        self.config_store = ConfigStore(self.data_dir)
        self.config = self.config_store.load()
        self.buffer = DurableBuffer(self.data_dir, cap=buffer_cap)

        # Serializes whole control operations; safe to hold across parks.
        self._control_lock = runtime.new_mutex()
        # Guards read-modify-write of self.config; never held across a park.
        self._config_lock = threading.Lock()
        self._drain_guard = threading.Lock()
        self._window_lock = threading.Lock()
        self._window: list[_WindowItem] = []
        # Dedup index for relayed readings: key -> durable? (False = still in window)
        self._seen: dict[tuple[str, str, int], bool] = {}
        self._report_counter = 0
        self._last_job: Optional[MonitoringJob] = self.config.job
        self._drain_kick = runtime.new_signal()
        self._storage_alarm = False
        self._sessions: dict[str, Any] = {}
        self._mote_ack_floor: dict[str, int] = {}
        self._tasks: dict[str, Any] = {}
        self._sampler_tasks: dict[str, Any] = {}
        self._packer_task = None
        self._drivers: dict[str, Any] = {}
        self._crashed = False

        self.stats: dict[str, int] = {
            "samples": 0,
            "sample_errors": 0,
            "out_of_range_drops": 0,
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
            "storage_full_events": 0,
        }
        self._rebuild_dedup_from_journal()

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
        current = getattr(self.runtime, "scheduler", None)
        current_task = current.current_task() if current else None
        for task in self._all_tasks():
            if task is not None and task.alive and task is not current_task:
                task.cancel()
        self.buffer.close()

    def stop(self) -> None:
        for task in self._all_tasks():
            if task is not None and task.alive:
                task.cancel()
        self.buffer.close()

    def _all_tasks(self) -> list[Any]:
        tasks = list(self._tasks.values()) + list(self._sampler_tasks.values())
        if self._packer_task is not None:
            tasks.append(self._packer_task)
        return tasks

    def _rebuild_dedup_from_journal(self) -> None:
        for entry in self.buffer.pending_entries():
            try:
                report = EventReport.from_obj(canonical.loads(entry.envelope.payload))
            except Exception:
                continue
            for reading in report.readings:
                self._seen[reading.dedup_key()] = True

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

    def _identity_obj(self) -> dict[str, Any]:
        return {
            "device_id": self.device_id,
            "kind": DeviceKind.NODE.value,
            "public_key_pem": self.keypair.public_pem,
            "state": self.config.state.value,
            "buffer_depth": self.buffer.depth(),
            "window_size": len(self._window),
            "heartbeat_sequence": self.config.heartbeat_sequence,
        }

    def _transition(self, target: NodeState, job: Optional[MonitoringJob]) -> None:
        current = self.config.state
        if not legal_transition(current, target):
            raise illegal_state(f"illegal-transition:{current.value}->{target.value}")
        with self._config_lock:
            self.config = replace(self.config, state=target, job=job)
            self.config_store.save(self.config)

    def _control_init(self, body: dict) -> None:
        if self.config.state is not NodeState.IDLE:
            raise illegal_state(f"illegal-state:{self.config.state.value}")
        self._transition(NodeState.HEARTBEAT, None)
        self._start_heartbeat()
        self._start_retry_loop()
        self._start_mote_managers()

    def _control_config_heartbeat(self, body: dict) -> None:
        target = HeartbeatTarget(
            address=_required_str(body, "ipaddr"),
            port=_required_port(body, "port"),
            timeout_ms=_required_positive(body, "heartbeat_timeout_ms"),
        )
        with self._config_lock:
            self.config = replace(self.config, heartbeat=target)
            self.config_store.save(self.config)

    def _control_config_blockchain(self, body: dict) -> None:
        target = LedgerTarget(
            address=_required_str(body, "ipaddr"),
            port=_required_port(body, "port"),
            channel_name=_required_str(body, "channel_name"),
            chaincode_name=_required_str(body, "chaincode_name"),
        )
        with self._config_lock:
            self.config = replace(self.config, ledger=target)
            self.config_store.save(self.config)
        self._drain_kick.set()

    def _control_start_monitoring(self, body: dict) -> None:
        if self.config.state is not NodeState.HEARTBEAT:
            raise illegal_state(f"illegal-state:{self.config.state.value}")
        if self.config.ledger is None:
            raise illegal_state("ledger-not-configured")
        job = _job_from_body(body)
        self._last_job = job
        self._transition(NodeState.MONITORING, job)
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
                with self._config_lock:
                    sequence = self.config.heartbeat_sequence + 1
                    self.config = replace(self.config, heartbeat_sequence=sequence)
                    self.config_store.save(self.config)
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

    # -- sampling -------------------------------------------------------------------

    def _start_sampling(self, job: MonitoringJob) -> None:
        for quantity in job.enabled_quantities():
            driver = self._drivers.get(quantity)
            if driver is None:
                driver = self.sensor_factory(quantity, job.sensor_params.get(quantity, {}))
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
            spec = getattr(driver, "spec", None)
            if spec is not None and not (spec.range_min <= value <= spec.range_max):
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
        job = self.config.job or self._last_job
        created_at = self.runtime.now_ms()
        self._report_counter += 1
        report = EventReport(
            report_id=new_report_id(self.device_id, created_at, self._report_counter),
            device_id=self.device_id,
            product_id=job.product_id if job else "unconfigured",
            batch_no=job.batch_no if job else "unconfigured",
            created_at=created_at,
            readings=tuple(i.reading for i in items),
        )
        violations = validate_report(report)
        if violations:
            # Never enqueue junk; put the readings back and surface loudly.
            with self._window_lock:
                self._window = items + self._window
            logger.error("%s: refusing to pack invalid report: %s", self.device_id, violations)
            return
        envelope = sign(self.keypair, report)
        self.crash_hook("pre_enqueue")
        try:
            self.buffer.enqueue(envelope, created_at)
        except StorageFull:
            self._storage_alarm = True
            self.stats["storage_full_events"] += 1
            with self._window_lock:
                self._window = items + self._window
            return
        self.crash_hook("post_enqueue")
        self.stats["packs"] += 1
        self._storage_alarm = False
        # The relayed readings are durable now; acknowledge them to the motes.
        ack_high: dict[str, int] = {}
        for item in items:
            self._seen[item.reading.dedup_key()] = True
            if item.mote_id is not None and item.mote_entry_id is not None:
                ack_high[item.mote_id] = max(ack_high.get(item.mote_id, 0), item.mote_entry_id)
        for mote_id, upto in ack_high.items():
            self._mote_ack_floor[mote_id] = max(self._mote_ack_floor.get(mote_id, 0), upto)
            self._send_ack(mote_id, upto)

    def _send_ack(self, mote_id: str, upto: int) -> None:
        session = self._sessions.get(mote_id)
        if session is None:
            return
        try:
            session.write(CHAR_ACK, json.dumps({"upto": upto}).encode("utf-8"))
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
            self._drain_kick.wait(timeout_ms=self.retry_interval_ms)
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
                batch = self.buffer.peek_batch(SUBMIT_BATCH_MAX)
                if not batch:
                    self._storage_alarm = False
                    return
                ids = [entry.entry_id for entry in batch]
                envelopes = [entry.envelope for entry in batch]
                self.crash_hook("pre_submit")
                try:
                    verdicts = client.add_events(envelopes)
                except TransportError:
                    self.stats["submit_failures"] += 1
                    self.stats["consecutive_submit_failures"] += 1
                    self.buffer.nack(ids)
                    return
                self.crash_hook("post_submit")
                self.stats["consecutive_submit_failures"] = 0
                for verdict in verdicts:
                    if verdict.status == "committed":
                        self.stats["replays" if verdict.replay else "committed"] += 1
                    else:
                        self.stats["rejected"] += 1
                        logger.warning("%s: ledger rejected %s (%s)", self.device_id,
                                       verdict.report_id, verdict.reason)
                # Rejections are final (signature or validity); keeping them
                # queued would wedge everything behind them.
                self.buffer.ack(ids)
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
                self.mote_retry_ms,
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
        return json.dumps(obj, sort_keys=True).encode("utf-8")

    def _push_mote_config(self, job: Optional[MonitoringJob]) -> None:
        for mote_id, session in list(self._sessions.items()):
            try:
                session.write(CHAR_CONFIG, self._current_job_config_payload(job))
            except SessionClosed:
                pass

    def _serve_mote_session(self, mote_id: str, session) -> None:
        self._sessions[mote_id] = session
        stream = session.subscribe(CHAR_READINGS)
        try:
            session.write(CHAR_CONFIG, self._current_job_config_payload(self.config.job))
            floor = self._mote_ack_floor.get(mote_id, 0)
            if floor:
                session.write(CHAR_ACK, json.dumps({"upto": floor}).encode("utf-8"))
        except SessionClosed:
            if self._sessions.get(mote_id) is session:
                del self._sessions[mote_id]
            return
        try:
            while True:
                item = stream.get()
                if item is DISCONNECTED:
                    return
                self._ingest_mote_notification(mote_id, session, item.payload)
        finally:
            if self._sessions.get(mote_id) is session:
                del self._sessions[mote_id]

    def _ingest_mote_notification(self, mote_id: str, session, payload: bytes) -> None:
        try:
            entry_id, envelope = decode_reading_notification(payload)
            if envelope.signer != mote_id:
                logger.warning("%s: notification signed by %r, expected %r",
                               self.device_id, envelope.signer, mote_id)
                return
            reading_obj = canonical.loads(envelope.payload)
            reading = SensorReading.from_obj(reading_obj)
            reading = SensorReading(
                quantity=reading.quantity,
                value=reading.value,
                sampled_at=reading.sampled_at,
                source_device=reading.source_device,
                signature_b64=base64.b64encode(envelope.signature).decode("ascii"),
            )
        except Exception:
            logger.exception("%s: undecodable mote notification", self.device_id)
            return
        key = reading.dedup_key()
        durable = self._seen.get(key)
        if durable is None:
            self._seen[key] = False
            with self._window_lock:
                self._window.append(_WindowItem(reading, mote_id, entry_id))
            self.stats["mote_readings"] += 1
        else:
            self.stats["mote_duplicates"] += 1
            if durable:
                # Already journaled; the earlier ack was lost, so re-ack.
                self._mote_ack_floor[mote_id] = max(self._mote_ack_floor.get(mote_id, 0), entry_id)
                self._send_ack(mote_id, entry_id)



def _required_str(body: dict, key: str) -> str:
    value = body.get(key)
    if not isinstance(value, str) or not value:
        raise invalid_argument(f"invalid-argument:{key}")
    return value


def _required_port(body: dict, key: str) -> int:
    value = body.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or not (1 <= value <= 65535):
        raise invalid_argument(f"invalid-argument:{key}")
    return value


def _required_positive(body: dict, key: str) -> int:
    value = body.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise invalid_argument(f"invalid-argument:{key}")
    return value


def _job_from_body(body: dict) -> MonitoringJob:
    product_id = _required_str(body, "prod_id")
    batch_no = _required_str(body, "batch_no")
    report_interval = body.get("report_interval_ms", body.get("interval_ms"))
    if report_interval is None:
        raise invalid_argument("invalid-argument:report_interval_ms")
    sample_interval = body.get("sample_interval_ms", report_interval)
    params = body.get("sensor_params")
    if not isinstance(params, dict) or not params:
        raise invalid_argument("invalid-argument:sensor_params")
    try:
        job = MonitoringJob(
            product_id=product_id,
            batch_no=batch_no,
            sample_interval_ms=int(sample_interval),
            report_interval_ms=int(report_interval),
            sensor_params={str(q): dict(p) for q, p in params.items()},
        )
    except Exception as exc:
        raise invalid_argument(f"invalid-argument:{exc}") from exc
    return job
