"""Mote agent: a short-range peripheral that samples, signs, and buffers.

A mote never talks to the ledger or the operator. It signs every reading
with its own key, appends the readings of one sample instant to a durable
journal in one write and one fsync, and streams the journal
to its paired node whenever a session exists: backlog first, oldest first,
then live readings. Entries leave the mote's buffer only after the node has
acknowledged them over the ack characteristic, so any outage pattern ends
with the node holding exactly what the mote sampled.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from .canonical import wire_dumps, wire_loads
from .envelope import KeyPair, SignedEnvelope, sign_reading_envelope
from .model import ModelError, SensorReading, _check_sensor_params, _require, _require_keys
from .runtime import Runtime
from .sensors import _reportable
from .storage import (
    SCHEMA_VERSION,
    CorruptConfig,
    DurableBuffer,
    StorageFull,
    read_document,
    write_document,
)
from .transport import SessionClosed

logger = logging.getLogger(__name__)

# Characteristics of the mote's short-range service.
CHAR_READINGS = "readings"   # mote -> node, one signed reading per notification
CHAR_CONFIG = "config"       # node -> mote, job parameters
CHAR_ACK = "ack"             # node -> mote, cumulative receipt acknowledgment

MOTE_CONFIG_FILE = "mote_config.json"


@dataclass(frozen=True)
class MoteConfig:
    enabled: bool = False
    sample_interval_ms: int = 60_000
    sensor_params: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sample_interval_ms <= 0:
            raise ModelError("sample_interval must be positive")

    def enabled_quantities(self) -> tuple[str, ...]:
        return tuple(q for q, p in sorted(self.sensor_params.items()) if p.get("enabled"))

    def to_obj(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "enabled": self.enabled,
            "sample_interval_ms": self.sample_interval_ms,
            "sensor_params": {q: dict(p) for q, p in sorted(self.sensor_params.items())},
        }

    @classmethod
    def from_obj(cls, obj: Any) -> "MoteConfig":
        """The one reader of a config, from a node's write and from
        `mote_config.json` alike. An absent interval or sensor_params keeps
        its default, since a node disables a mote with `{"enabled": false}`."""
        _require_keys(obj, ("enabled",), "MoteConfig")
        return cls(_require(obj, "enabled", bool),
                   _require(obj, "sample_interval_ms", int, cls.sample_interval_ms),
                   _check_sensor_params(obj.get("sensor_params", {})))


def load_mote_config(directory: str | Path) -> MoteConfig:
    config = read_document(Path(directory) / MOTE_CONFIG_FILE, CorruptConfig, MoteConfig.from_obj)
    return MoteConfig() if config is None else config


def save_mote_config(directory: str | Path, config: MoteConfig) -> None:
    write_document(Path(directory) / MOTE_CONFIG_FILE, config.to_obj())


def encode_reading_notification(entry_id: int, envelope: SignedEnvelope) -> bytes:
    obj = envelope.to_wire_obj()
    obj["entry_id"] = entry_id
    return wire_dumps(obj)


def decode_reading_notification(payload: bytes) -> tuple[int, SignedEnvelope, str]:
    """The entry id, the envelope, and its signature's base64 as received."""
    obj = wire_loads(payload)
    return _require(obj, "entry_id", int), SignedEnvelope.from_wire_obj(obj), obj["signature_b64"]


class MoteAgent:
    """Two activities: a sampler writing the buffer, a streamer draining it."""

    def __init__(
        self,
        keypair: KeyPair,
        paired_node: str,
        data_dir: str | Path,
        runtime: Runtime,
        driver_factory: Callable[[str], Any],
    ) -> None:
        self.device_id = keypair.device_id
        self.keypair = keypair
        self.paired_node = paired_node
        self.data_dir = Path(data_dir)
        self.runtime = runtime
        self.driver_factory = driver_factory
        self.buffer = DurableBuffer(self.data_dir)
        self.config = load_mote_config(self.data_dir)
        self.stats: dict[str, int] = {
            "samples": 0,
            "sample_errors": 0,
            "out_of_range_drops": 0,
            "dropped_full": 0,
            "notified": 0,
            "acked": 0,
            "storage_errors": 0,    # journal writes that raised OSError
        }
        self._config_lock = threading.Lock()
        self._config_changed = runtime.new_signal()
        self._drivers: dict[str, Any] = {}
        self._new_data = runtime.new_signal()
        self._streamer_task = None
        self._sampler_task = None
        self._stopped = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self._sampler_task = self.runtime.spawn(f"{self.device_id}:sampler", self._sampler_loop)

    def stop(self) -> None:
        """End both activities and close the buffer. A stopped agent starts no
        streamer and ignores writes."""
        self._stopped = True
        for task in (self._sampler_task, self._streamer_task):
            if task is not None and task.alive:
                task.cancel()
        self.buffer.close()

    # -- peripheral delegate --------------------------------------------------

    def on_connect(self, session) -> None:
        if self._stopped:
            return
        self._streamer_task = self.runtime.spawn(
            f"{self.device_id}:streamer", lambda: self._streamer_loop(session)
        )

    def on_write(self, session, characteristic: str, payload: bytes) -> None:
        if self._stopped:
            return
        if characteristic == CHAR_CONFIG:
            self._apply_config(payload)
        elif characteristic == CHAR_ACK:
            self._apply_ack(payload)
        else:
            logger.warning("%s: write to unknown characteristic %r", self.device_id, characteristic)

    def on_disconnect(self, session) -> None:
        if self._streamer_task is not None and self._streamer_task.alive:
            self._streamer_task.cancel()
            self._streamer_task = None

    # -- configuration ----------------------------------------------------------

    def _apply_config(self, payload: bytes) -> None:
        try:
            config = MoteConfig.from_obj(wire_loads(payload))
        except ValueError as exc:
            logger.warning("%s: rejected config write: %s", self.device_id, exc)
            return
        with self._config_lock:
            try:
                save_mote_config(self.data_dir, config)
            except ValueError as exc:  # NaN or a lone surrogate has no canonical form
                logger.warning("%s: cannot store config write: %s", self.device_id, exc)
                return
            self.config = config
        self._config_changed.set()
        logger.info("%s: config applied (enabled=%s, interval=%sms)",
                    self.device_id, config.enabled, config.sample_interval_ms)

    def _apply_ack(self, payload: bytes) -> None:
        try:
            upto = _require(wire_loads(payload), "upto", int)
        except ValueError as exc:
            logger.warning("%s: rejected ack write: %s", self.device_id, exc)
            return
        try:
            self.stats["acked"] += self.buffer.ack(upto)
        except OSError as exc:
            self.stats["storage_errors"] += 1
            logger.error("%s: cannot store ack up to %d: %s", self.device_id, upto, exc)

    # -- sampling -----------------------------------------------------------------

    def _driver(self, quantity: str):
        driver = self._drivers.get(quantity)
        if driver is None:
            driver = self.driver_factory(quantity)
            self._drivers[quantity] = driver
        return driver

    def _sampler_loop(self) -> None:
        envelopes: list[SignedEnvelope] = []   # kept when an append fails
        while True:
            with self._config_lock:
                config = self.config
            # A config write interrupts the wait so a new cadence (or a
            # disable) takes effect immediately rather than one old interval
            # later.
            if self._config_changed.wait(timeout_ms=config.sample_interval_ms):
                self._config_changed.clear()
                continue
            with self._config_lock:
                config = self.config
            if not config.enabled:
                continue
            t = self.runtime.now_ms()
            for quantity in config.enabled_quantities():
                driver = self._driver(quantity)
                if driver is None:
                    continue
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
                envelopes.append(sign_reading_envelope(self.keypair, reading))
            if not envelopes:
                continue
            # The readings of one instant are ready together: one append. A
            # failed one is retried with the next instant's; the cap bounds both.
            try:
                self.buffer.enqueue(envelopes, t)
            except StorageFull:
                self.stats["dropped_full"] += len(envelopes)
                envelopes = []
                continue
            except OSError as exc:
                self.stats["storage_errors"] += 1
                logger.error("%s: cannot store %d readings: %s", self.device_id,
                             len(envelopes), exc)
                continue
            self.stats["samples"] += len(envelopes)
            envelopes = []
            self._new_data.set()

    # -- streaming ------------------------------------------------------------------

    def _streamer_loop(self, session) -> None:
        # In id order from the oldest unacked entry: the node's relay watermarks rely on it.
        last_sent = 0
        while session.open:
            entries = self.buffer.peek_after(last_sent, 100)
            if entries:
                for entry in entries:
                    payload = encode_reading_notification(entry.entry_id, entry.envelope)
                    try:
                        session.notify(CHAR_READINGS, payload)
                    except SessionClosed:
                        return
                    last_sent = entry.entry_id
                    self.stats["notified"] += 1
                continue
            self._new_data.clear()
            if self.buffer.peek_after(last_sent, 1):
                continue
            self._new_data.wait()

