"""Mote agent behavior: config persistence, backlog recovery, ack dedup."""

import json
import logging
import math
import threading
from collections import Counter
from dataclasses import replace

import pytest

from ambox import canonical, storage
from ambox.envelope import KeyPair, SignedEnvelope, sign_reading_envelope
from ambox.fleet import CommissionPlan, commission, start_monitoring, stop_monitoring
from ambox.model import HUMIDITY, PRESSURE, TEMPERATURE, ModelError, SensorReading
from ambox.mote import (
    CHAR_ACK,
    CHAR_CONFIG,
    MoteAgent,
    MoteConfig,
    decode_reading_notification,
    encode_reading_notification,
    load_mote_config,
    save_mote_config,
)
from ambox.runtime import SIM_EPOCH_MS, SimScheduler
from ambox.storage import CorruptConfig, DurableBuffer
from ambox.transport.faults import MODE_DOWN, FaultSchedule, FaultWindow

from conftest import make_reading
from simworld import JOB_BODY, build_world, mini_scenario


def drive(world, fn):
    world.run(director=fn)
    if world.director_error is not None:
        raise world.director_error


def commission_and_start(world, caller=None):
    caller = caller or world.operator_caller()
    plan = CommissionPlan("node1", "operator", 1, 30_000, "ledger", 1)
    commission(caller, world.operator_ledger_client(), plan, world.operator)
    start_monitoring(caller, "node1", JOB_BODY)
    return caller


def mote_committed_keys(world):
    return [
        (s, q, t) for s, q, t, _v, _sig, _d in world.committed_readings() if s == "mote1"
    ]


def test_config_propagates_before_first_sample():
    world = build_world(mini_scenario(with_mote=True))
    out = {}

    def director():
        commission_and_start(world)
        mote = world.motes["mote1"]
        out["enabled_at_start"] = mote.config.enabled
        world.runtime.sleep(3 * 60_000 + 2000)
        out["mote_samples"] = mote.stats["samples"]
        out["config_enabled"] = mote.config.enabled
        out["persisted"] = load_mote_config(mote.data_dir).enabled

    drive(world, director)
    world.teardown()
    assert out["enabled_at_start"] is False     # idle until configured
    assert out["config_enabled"] is True
    assert out["persisted"] is True
    assert out["mote_samples"] == 6             # temperature + humidity, 3 minutes


def test_a_torn_down_mote_world_leaves_no_activity_thread():
    before = set(threading.enumerate())
    world = build_world(mini_scenario(with_mote=True))

    def director():
        commission_and_start(world)
        world.runtime.sleep(3 * 60_000)

    drive(world, director)
    world.teardown()
    world.cleanup_dirs()
    started = [t for t in threading.enumerate() if t not in before and t.name.startswith("sim:")]
    for thread in started:
        thread.join(2.0)
    assert [t.name for t in started if t.is_alive()] == []


def test_mote_restart_resumes_cadence():
    world = build_world(mini_scenario(with_mote=True))
    out = {}

    def director():
        commission_and_start(world)
        world.runtime.sleep(3 * 60_000 + 1000)
        mote = world.motes["mote1"]
        before = mote.stats["samples"]
        mote.stop()
        world.runtime.sleep(2 * 60_000)
        # Same data dir: config and buffer must be where the old process left
        # them. Advertising the id again supersedes the stopped mote's session.
        restarted = world._build_mote(
            next(d for d in world.scenario.devices if d.device_id == "mote1"),
            world.data_root / "mote1",
            world.keys["mote1"],
        )
        agent = world.motes["mote1"]
        agent.start()
        out["resumed_enabled"] = agent.config.enabled
        world.runtime.sleep(3 * 60_000 + 1000)
        out["new_samples"] = agent.stats["samples"]
        out["before"] = before

    drive(world, director)
    world.teardown()
    assert out["resumed_enabled"] is True
    assert out["new_samples"] >= 4   # sampling resumed at the persisted cadence


def test_backlog_delivered_before_live_readings():
    # Down for 15 minutes mid-run; backlog must arrive ordered, before live data.
    faults = FaultSchedule([FaultWindow("ble1", 5 * 60_000, 20 * 60_000, MODE_DOWN)])
    world = build_world(mini_scenario(with_mote=True, faults=faults))
    received = []
    node = world.nodes["node1"]
    original = node._ingest_mote_notification

    def spying_ingest(mote_id, session, payload):
        obj = json.loads(payload.decode())
        received.append(obj["entry_id"])
        return original(mote_id, session, payload)

    node._ingest_mote_notification = spying_ingest

    def director():
        commission_and_start(world)
        world.runtime.sleep(40 * 60_000)

    drive(world, director)
    world.teardown()
    # Entry ids are assigned in sampling order; the node must observe them in
    # nondecreasing order (backlog first, then live), modulo redeliveries.
    deduped = sorted(set(received))
    assert deduped == list(range(min(received), max(received) + 1))
    assert received == sorted(received)


def test_outage_recovery_no_loss_no_dups():
    faults = FaultSchedule([
        FaultWindow("ble1", 10 * 60_000, 12 * 60_000, MODE_DOWN),
        FaultWindow("ble1", 20 * 60_000, 35 * 60_000, MODE_DOWN),
    ])
    world = build_world(mini_scenario(with_mote=True, faults=faults, span_min=60))

    def director():
        commission_and_start(world)
        world.runtime.sleep(50 * 60_000)
        while not world.buffers_empty():
            world.runtime.sleep(10_000)

    drive(world, director)
    sampled = [
        (s["device"], s["quantity"], s["t"]) for s in world.metrics.samples
        if s["device"] == "mote1"
    ]
    committed = mote_committed_keys(world)
    world.teardown()
    assert sorted(committed) == sorted(sampled)
    assert len(set(committed)) == len(committed)


def test_lost_ack_redelivery_deduped():
    world = build_world(mini_scenario(with_mote=True))
    node = world.nodes["node1"]
    # Drop every ack write so the mote keeps redelivering on reconnect.
    dropped = {"n": 0}
    original_send_ack = node._send_ack

    def dropping_ack(mote_id, upto):
        dropped["n"] += 1

    node._send_ack = dropping_ack
    faults_added = {"done": False}

    def director():
        commission_and_start(world)
        world.runtime.sleep(7 * 60_000)
        # Cut and restore the session to force a resend of unacked entries.
        for session in list(world.network._sessions.values()):
            session.kill("test-cut")
        world.runtime.sleep(10 * 60_000)

    drive(world, director)
    duplicates = node.stats["mote_duplicates"]
    committed = mote_committed_keys(world)
    world.teardown()
    assert dropped["n"] >= 1
    assert duplicates >= 1                      # redelivery actually happened
    assert len(set(committed)) == len(committed)  # exactly one copy each


def test_relayed_readings_commit_once_across_a_node_restart():
    # The mote hears no ack before the crash, so once the node is back it
    # resends every reading the node journaled, the committed ones included.
    world = build_world(mini_scenario(with_mote=True))
    world.nodes["node1"]._send_ack = lambda mote_id, upto: None

    def director():
        commission_and_start(world)
        world.runtime.sleep(12 * 60_000)
        world.crash_node("node1")
        world.runtime.sleep(10_000)
        world.restart_node("node1")
        world.runtime.sleep(12 * 60_000)

    drive(world, director)
    committed = mote_committed_keys(world)
    world.teardown()
    assert len(committed) == 44
    assert len(set(committed)) == len(committed)


def test_an_entry_id_that_skips_ahead_acks_nothing_away():
    # The entry id is not signed and the node's ack is cumulative: one genuine
    # reading relayed under id 10000 would ack away every reading the mote had
    # not delivered yet.
    world = build_world(mini_scenario(with_mote=True))
    node = world.nodes["node1"]

    def director():
        caller = commission_and_start(world)
        world.runtime.sleep(6 * 60_000)
        reading = make_reading(PRESSURE, 1000.0, world.runtime.now_ms() - 1, "mote1")
        envelope = sign_reading_envelope(world.keys["mote1"], reading)
        node._ingest_mote_notification("mote1", None,
                                       encode_reading_notification(10_000, envelope))
        world.runtime.sleep(36 * 60_000)
        stop_monitoring(caller, "node1")
        while not world.buffers_empty():
            world.runtime.sleep(10_000)

    drive(world, director)
    committed = Counter(mote_committed_keys(world))
    sampled = Counter(k for k in world.metrics.sample_keys().elements() if k[0] == "mote1")
    world.teardown()
    assert len(sampled) >= 60
    assert committed == sampled
    assert node.stats["mote_gaps"] == 1


def test_a_mote_reading_in_another_devices_name_is_refused(caplog):
    world = build_world(mini_scenario(with_mote=True))
    node = world.nodes["node1"]
    # A genuine mote1 signature over a reading that names node1 as its source.
    as_node = KeyPair("node1", world.keys["mote1"].private_key)
    forged = replace(sign_reading_envelope(as_node, make_reading(device="node1")), signer="mote1")
    with caplog.at_level(logging.WARNING, logger="ambox.node"):
        node._ingest_mote_notification("mote1", None, encode_reading_notification(1, forged))
    world.teardown()
    assert [r.getMessage() for r in caplog.records] == [
        "node1: notification from 'mote1' signed by 'mote1' for 'node1'"]
    assert node.window_size == 0
    assert node.stats["mote_readings"] == 0


def test_a_repeated_relayed_reading_commits_once_and_packing_goes_on():
    # One signed reading relayed under two entry ids: a report holding both
    # copies is invalid, so at the parent every later pack was refused. The
    # ids are the next two the node takes; the mote's own readings under
    # them then arrive as redeliveries.
    world = build_world(mini_scenario(with_mote=True))
    node = world.nodes["node1"]
    out = {}

    def director():
        commission_and_start(world)
        world.runtime.sleep(6 * 60_000)
        reading = make_reading(PRESSURE, 1000.0, world.runtime.now_ms() - 1, "mote1")
        envelope = sign_reading_envelope(world.keys["mote1"], reading)
        taken = max(node._journaled.get("mote1", 0), node._windowed.get("mote1", 0))
        for entry_id in (taken + 1, taken + 2):
            node._ingest_mote_notification("mote1", None,
                                           encode_reading_notification(entry_id, envelope))
        out["before"] = len(world.ledger.all_reports())
        world.runtime.sleep(40 * 60_000)
        out["after"] = len(world.ledger.all_reports())

    drive(world, director)
    relayed = [r for r in world.committed_readings() if r[:2] == ("mote1", PRESSURE)]
    world.teardown()
    assert out["after"] >= out["before"] + 7
    assert len(relayed) == 1
    assert node.stats["pack_drops"] == 1
    assert node.window_size < 20


def test_a_mote_driver_that_reads_nan_does_not_stop_its_sampler():
    world = build_world(mini_scenario(with_mote=True))
    mote = world.motes["mote1"]

    class NanDriver:
        def read(self, t_ms):
            return math.nan

    mote._drivers[HUMIDITY] = NanDriver()

    def director():
        commission_and_start(world)
        world.runtime.sleep(20 * 60_000)
        while not world.buffers_empty():
            world.runtime.sleep(10_000)

    drive(world, director)
    committed = mote_committed_keys(world)
    drops = mote.stats["out_of_range_drops"]
    world.teardown()
    assert drops >= 19
    assert {q for _, q, _ in committed} == {TEMPERATURE}
    assert len(committed) >= 19


class _RecordingSession:
    open = True

    def __init__(self):
        self.notified = []

    def notify(self, characteristic, payload):
        self.notified.append(payload)


def test_a_stopped_mote_ignores_writes_and_connects(tmp_path, mote_key):
    mote = MoteAgent(mote_key, "node1", tmp_path, SimScheduler(), driver_factory=lambda q: None)
    mote.buffer.enqueue([sign_reading_envelope(mote_key, make_reading(device="mote-1"))],
                        SIM_EPOCH_MS)
    mote.start()
    mote.stop()
    mote.on_write(None, CHAR_ACK, b'{"upto": 1}')
    session = _RecordingSession()
    mote.on_connect(session)
    mote.runtime.run_until(SIM_EPOCH_MS + 60_000)
    mote.runtime.shutdown()
    assert session.notified == []
    reopened = DurableBuffer(tmp_path)
    assert reopened.depth() == 1
    reopened.close()


def test_mote_config_file_roundtrip(tmp_path):
    config = MoteConfig(enabled=True, sample_interval_ms=30_000,
                        sensor_params={"temperature": {"enabled": True}})
    save_mote_config(tmp_path, config)
    assert load_mote_config(tmp_path) == config


def test_mote_config_corrupt_detected(tmp_path):
    config = MoteConfig(enabled=True, sample_interval_ms=30_000, sensor_params={})
    save_mote_config(tmp_path, config)
    path = tmp_path / "mote_config.json"
    path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
    try:
        load_mote_config(tmp_path)
        raised = False
    except CorruptConfig:
        raised = True
    assert raised


def test_unpaired_central_cannot_configure():
    world = build_world(mini_scenario(with_mote=True))
    out = {}

    def director():
        intruder = world.network.central("intruder", {"mote1"})
        try:
            intruder.connect("mote1")
            out["connected"] = True
        except Exception as exc:
            out["connected"] = False
            out["error"] = type(exc).__name__
        world.runtime.sleep(1000)
        out["mote_enabled"] = world.motes["mote1"].config.enabled

    drive(world, director)
    world.teardown()
    assert out["connected"] is False
    assert out["error"] == "Unauthorized"
    assert out["mote_enabled"] is False


def test_two_motes_receive_job_before_first_sample():
    from ambox.harness.scenario import DeviceSpec, LinkSpec, Scenario
    from ambox.transport import LinkClass
    from ambox.transport.faults import FaultSchedule
    from simworld import TRACE, build_world

    scenario = Scenario(
        name="two-motes",
        span_ms=60 * 60_000,
        devices=(
            DeviceSpec("node1", "node"),
            DeviceSpec("mote1", "mote", paired_node="node1"),
            DeviceSpec("mote2", "mote", paired_node="node1"),
        ),
        links=(
            LinkSpec("wifi", "node1", "ledger"),
            LinkSpec("oplink", "node1", "operator"),
            LinkSpec("ble1", "node1", "mote1", link_class=LinkClass.SHORT_RANGE),
            LinkSpec("ble2", "node1", "mote2", link_class=LinkClass.SHORT_RANGE),
        ),
        faults=FaultSchedule(),
        job=dict(JOB_BODY),
        trace_path=TRACE,
    )
    world = build_world(scenario)
    out = {}

    def director():
        commission_and_start(world)
        world.runtime.sleep(1000)  # let the managers connect and push config
        out["configured_early"] = {
            m: world.motes[m].config.enabled for m in ("mote1", "mote2")
        }
        out["samples_early"] = {
            m: world.motes[m].stats["samples"] for m in ("mote1", "mote2")
        }
        world.runtime.sleep(5 * 60_000 + 2000)
        out["samples_later"] = {
            m: world.motes[m].stats["samples"] for m in ("mote1", "mote2")
        }

    drive(world, director)
    world.teardown()
    # Both motes held the job well before their first sample was due: config
    # present within a second, zero samples yet, full cadence afterwards.
    assert out["configured_early"] == {"mote1": True, "mote2": True}
    assert out["samples_early"] == {"mote1": 0, "mote2": 0}
    assert out["samples_later"] == {"mote1": 10, "mote2": 10}


def test_config_write_that_cannot_be_stored_is_ignored(tmp_path, mote_key):
    mote = MoteAgent(mote_key, "node1", tmp_path, SimScheduler(), driver_factory=lambda q: None)
    unstorable = {"enabled": True, "sample_interval_ms": 30_000,
                  "sensor_params": {"temperature": {"enabled": True, "offset": float("nan")}}}
    mote.on_write(None, CHAR_CONFIG, json.dumps(unstorable).encode())
    assert mote.config == MoteConfig()
    assert load_mote_config(tmp_path) == MoteConfig()
    unstorable["sensor_params"]["temperature"]["offset"] = 0.5
    mote.on_write(None, CHAR_CONFIG, json.dumps(unstorable).encode())
    assert mote.config.enabled is True
    assert load_mote_config(tmp_path) == mote.config
    mote.buffer.close()


BAD_CONFIG_WRITES = [
    {"enabled": "false"},
    {"enabled": 1},
    {"enabled": True, "sample_interval_ms": 1.5},
    {"enabled": True, "sample_interval_ms": "60000"},
    {"enabled": True, "sample_interval_ms": True},
    {"enabled": True, "sensor_params": [["temperature", {"enabled": True}]]},
    {"enabled": True, "sensor_params": {"temperature": [["enabled", True]]}},
]


@pytest.mark.parametrize("write", BAD_CONFIG_WRITES, ids=json.dumps)
def test_a_config_write_of_the_wrong_types_is_refused(tmp_path, mote_key, caplog, write):
    mote = MoteAgent(mote_key, "node1", tmp_path, SimScheduler(), driver_factory=lambda q: None)
    mote.on_write(None, CHAR_CONFIG, json.dumps(TWO_QUANTITIES).encode())
    applied = mote.config
    with caplog.at_level(logging.WARNING, logger="ambox.mote"):
        mote.on_write(None, CHAR_CONFIG, json.dumps(write).encode())
    assert len(caplog.records) == 1
    assert caplog.records[0].getMessage().startswith("mote-1: rejected config write:")
    assert mote.config == applied
    assert load_mote_config(tmp_path) == applied
    mote.on_write(None, CHAR_CONFIG, b'{"enabled": false}')
    assert mote.config == MoteConfig()
    mote.buffer.close()


class _SteadyDriver:
    def read(self, t):
        return 21.5


TWO_QUANTITIES = {"enabled": True, "sample_interval_ms": 60_000,
                  "sensor_params": {"temperature": {"enabled": True},
                                    "humidity": {"enabled": True}}}


def lone_mote(directory, key, cap=None):
    """A mote with no node, set to sample two quantities a minute."""
    mote = MoteAgent(key, "node1", directory, SimScheduler(),
                     driver_factory=lambda q: _SteadyDriver())
    mote.on_write(None, CHAR_CONFIG, json.dumps(TWO_QUANTITIES).encode())
    if cap is not None:
        mote.buffer.close()
        mote.buffer = DurableBuffer(directory, cap=cap)
    return mote


def run_for(mote, minutes):
    mote.start()
    mote.runtime.run_until(SIM_EPOCH_MS + minutes * 60_000)
    mote.runtime.shutdown()
    mote.buffer.close()


def test_one_append_and_one_fsync_per_sample_instant(tmp_path, mote_key, monkeypatch):
    mote = lone_mote(tmp_path, mote_key)
    journal = mote.buffer._journal
    journal_fd = journal._file.fileno()
    appends, syncs = [], []
    append, fsync = journal.append, storage.os.fsync
    monkeypatch.setattr(journal, "append", lambda lines: (appends.append(lines), append(lines)))
    monkeypatch.setattr(storage.os, "fsync", lambda fd: (syncs.append(fd), fsync(fd)))
    run_for(mote, minutes=5)
    assert mote.stats["samples"] == 10
    # The first append also carries the journal's schema header.
    assert [lines.count(b"\n") for lines in appends] == [3, 2, 2, 2, 2]
    assert syncs == [journal_fd] * 5
    reopened = DurableBuffer(tmp_path)
    assert [e.entry_id for e in reopened.pending_entries()] == list(range(1, 11))
    reopened.close()


def test_a_failed_append_is_retried_with_the_next_instant(tmp_path, mote_key,
                                                          fail_next_fsync, caplog):
    mote = lone_mote(tmp_path, mote_key)
    fail_next_fsync()                # the first instant's append
    with caplog.at_level(logging.ERROR, logger="ambox.mote"):
        run_for(mote, minutes=5)
    assert [r.getMessage() for r in caplog.records] == [
        "mote-1: cannot store 2 readings: [Errno 5] injected fsync failure"]
    assert mote.stats["samples"] == 10
    reopened = DurableBuffer(tmp_path)
    entries = reopened.pending_entries()
    assert [e.entry_id for e in entries] == list(range(1, 11))
    sampled = [canonical.loads(e.envelope.payload)["sampled_at"] for e in entries]
    assert sampled == sorted(sampled) and len(set(sampled)) == 5
    reopened.close()


def test_an_ack_that_cannot_be_stored_keeps_its_entries(tmp_path, mote_key,
                                                        fail_next_fsync, caplog):
    mote = MoteAgent(mote_key, "node1", tmp_path, SimScheduler(), driver_factory=lambda q: None)
    envelopes = [sign_reading_envelope(mote_key, make_reading(at=t, device="mote-1"))
                 for t in (SIM_EPOCH_MS + 60_000, SIM_EPOCH_MS + 120_000)]
    mote.buffer.enqueue(envelopes, SIM_EPOCH_MS)
    fail_next_fsync()
    with caplog.at_level(logging.ERROR, logger="ambox.mote"):
        mote.on_write(None, CHAR_ACK, b'{"upto": 2}')
    assert [r.getMessage() for r in caplog.records] == [
        "mote-1: cannot store ack up to 2: [Errno 5] injected fsync failure"]
    assert mote.buffer.depth() == 2 and mote.stats["acked"] == 0
    assert mote.stats["storage_errors"] == 1
    mote.on_write(None, CHAR_ACK, b'{"upto": 2}')
    assert mote.buffer.depth() == 0 and mote.stats["acked"] == 2
    mote.buffer.close()


def test_an_instant_past_the_cap_is_dropped_whole(tmp_path, mote_key):
    mote = lone_mote(tmp_path, mote_key, cap=3)
    run_for(mote, minutes=3)
    assert mote.stats["samples"] == 2
    assert mote.stats["dropped_full"] == 4


NOT_AN_INTEGER = [b"1e400", b"true", b'"3"', b"2.9", b"null"]


@pytest.mark.parametrize("value", NOT_AN_INTEGER, ids=lambda v: v.decode())
def test_an_ack_watermark_must_be_an_integer(tmp_path, mote_key, caplog, value):
    mote = MoteAgent(mote_key, "node1", tmp_path, SimScheduler(), driver_factory=lambda q: None)
    envelopes = [sign_reading_envelope(mote_key, make_reading(at=t, device="mote-1"))
                 for t in (SIM_EPOCH_MS + 60_000, SIM_EPOCH_MS + 120_000)]
    mote.buffer.enqueue(envelopes, SIM_EPOCH_MS)
    with caplog.at_level(logging.WARNING, logger="ambox.mote"):
        mote.on_write(None, CHAR_ACK, b'{"upto": ' + value + b"}")
    assert len(caplog.records) == 1
    assert caplog.records[0].getMessage().startswith("mote-1: rejected ack write:")
    assert mote.buffer.depth() == 2
    mote.on_write(None, CHAR_ACK, b'{"upto": 1}')
    assert [e.entry_id for e in mote.buffer.pending_entries()] == [2]
    mote.buffer.close()


@pytest.mark.parametrize("value", NOT_AN_INTEGER, ids=lambda v: v.decode())
def test_a_notification_entry_id_must_be_an_integer(mote_key, caplog, value):
    envelope = sign_reading_envelope(mote_key, make_reading(device="mote-1"))
    payload = encode_reading_notification(7, envelope)
    assert decode_reading_notification(payload) == (7, envelope,
                                                    envelope.to_wire_obj()["signature_b64"])
    bad = payload.replace(b'"entry_id": 7', b'"entry_id": ' + value)
    with pytest.raises(ModelError):
        decode_reading_notification(bad)
    world = build_world(mini_scenario(with_mote=True))
    node = world.nodes["node1"]
    with caplog.at_level(logging.WARNING, logger="ambox.node"):
        node._ingest_mote_notification("mote-1", None, bad)
    world.teardown()
    assert [r.getMessage() for r in caplog.records] == ["node1: undecodable mote notification"]
    assert node.window_size == 0
    assert node.stats["mote_readings"] == 0


def _undecodable_notification(mote_key, fault):
    reading = make_reading(device="mote-1")
    good = encode_reading_notification(7, sign_reading_envelope(mote_key, reading))
    if fault == "not-json":
        return b"{not json"
    if fault == "bad-base64":
        return good.replace(b'"payload_b64": "', b'"payload_b64": "!')
    # Signed by no one: the relay decodes a reading before anything checks it.
    huge = canonical.dumps({**reading.core_obj(), "value": 10 ** 400})
    return encode_reading_notification(7, SignedEnvelope(huge, b"signature", "mote-1"))


# A non-integer entry id: test_a_notification_entry_id_must_be_an_integer.
@pytest.mark.parametrize("fault", ["not-json", "bad-base64", "400-digit-value"])
def test_an_undecodable_mote_notification_is_dropped_and_logged(mote_key, caplog, fault):
    bad = _undecodable_notification(mote_key, fault)
    world = build_world(mini_scenario(with_mote=True))
    node = world.nodes["node1"]
    with caplog.at_level(logging.WARNING, logger="ambox.node"):
        node._ingest_mote_notification("mote-1", None, bad)
    world.teardown()
    assert [r.getMessage() for r in caplog.records] == ["node1: undecodable mote notification"]
    assert node.window_size == 0
    assert node.stats["mote_readings"] == 0


def test_a_fault_in_the_relay_is_not_taken_for_a_bad_notification(mote_key, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a fault in the reading decoder")

    monkeypatch.setattr(SensorReading, "from_obj", broken)
    notification = encode_reading_notification(
        7, sign_reading_envelope(mote_key, make_reading(device="mote-1")))
    world = build_world(mini_scenario(with_mote=True))
    try:
        with pytest.raises(TypeError, match="a fault in the reading decoder"):
            world.nodes["node1"]._ingest_mote_notification("mote-1", None, notification)
    finally:
        world.teardown()


def test_mote_journal_fsyncs_stay_one_per_sample_instant(monkeypatch):
    # An hour of a mote sampling two quantities: one fsync per instant for
    # its readings, and one per ack for its appended ack record. One fsync
    # per reading, or any further file an ack writes, would exceed this bound.
    world = build_world(mini_scenario(with_mote=True, span_min=60))
    buffer = world.motes["mote1"].buffer
    calls = {"enqueue": 0, "ack": 0}
    inside, syncs = [], []
    fsync = storage.os.fsync
    monkeypatch.setattr(storage.os, "fsync",
                        lambda fd: (inside and syncs.append(fd), fsync(fd)))

    def counted(name):
        method = getattr(buffer, name)

        def call(*args):
            calls[name] += 1
            inside.append(name)
            try:
                return method(*args)
            finally:
                inside.pop()
        return call

    for name in calls:
        monkeypatch.setattr(buffer, name, counted(name))

    def director():
        commission_and_start(world)
        world.runtime.sleep(60 * 60_000)

    drive(world, director)
    world.teardown()
    instants = {s["t"] for s in world.metrics.samples if s["device"] == "mote1"}
    assert len(instants) >= 59
    assert calls["ack"] >= 10
    assert len(syncs) <= len(instants) + calls["ack"]
    assert calls["enqueue"] == len(instants)


def test_a_journal_write_that_fails_is_counted_and_sampling_goes_on(fail_next_fsync):
    world = build_world(mini_scenario(with_mote=True))
    out = {}

    def director():
        commission_and_start(world)
        mote = world.motes["mote1"]
        world.runtime.sleep(3 * 60_000 + 1000)
        out["before"] = dict(mote.stats)
        fail_next_fsync()            # the next instant's append
        world.runtime.sleep(60_000)
        out["failed"] = dict(mote.stats)
        world.runtime.sleep(3 * 60_000)
        out["after"] = dict(mote.stats)

    drive(world, director)
    world.teardown()
    assert out["before"]["storage_errors"] == 0
    # The failed append stored nothing and was counted ...
    assert out["failed"]["storage_errors"] == 1
    assert out["failed"]["samples"] == out["before"]["samples"]
    # ... and its readings went with the next instant's: two a minute, none lost.
    assert out["after"]["storage_errors"] == 1
    assert out["after"]["samples"] == out["before"]["samples"] + 4 * 2
