import ast
import http.server
import json
import os
import random
import socketserver
import zlib
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ambox
from ambox import canonical
from ambox.envelope import generate_keypair, sign
from ambox.ledger import CorruptLedger, Ledger
from ambox.model import DeviceIdentity, DeviceKind, NodeState, MonitoringJob
from ambox.mote import MoteConfig, load_mote_config, save_mote_config
from ambox.storage import (
    ACK_FILE,
    AppendLog,
    CheckedLog,
    COMPACT_FLOOR,
    CONFIG_FILE,
    KEY_FILE,
    ConfigStore,
    CorruptConfig,
    CorruptJournal,
    DurableBuffer,
    HeartbeatTarget,
    LedgerTarget,
    PersistedConfig,
    StorageFull,
    load_private_key,
    save_private_key,
)

from conftest import T0, make_report


@pytest.fixture()
def envelopes(node_key):
    out = []
    for i in range(12):
        report = make_report(report_id=f"node-1-{T0 + i}-{i:08x}",
                             created_at=T0 + 600_000 + i)
        out.append(sign(node_key, report))
    return out


def test_enqueue_peek_identity(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    buf.enqueue([envelopes[0]], T0)
    batch = buf.peek_batch(5)
    assert len(batch) == 1
    assert batch[0].envelope == envelopes[0]


def test_fifo_order_and_nondestructive_peek(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    for e in envelopes[:5]:
        buf.enqueue([e], T0)
    first = buf.peek_batch(3)
    second = buf.peek_batch(3)
    assert [b.entry_id for b in first] == [b.entry_id for b in second]
    assert [b.envelope for b in first] == envelopes[:3]
    assert [b.envelope for b in buf.peek_batch(10)] == envelopes[:5]


def test_empty_peek(tmp_path):
    assert DurableBuffer(tmp_path).peek_batch(3) == []


def test_crash_recovery_same_order(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    for e in envelopes[:3]:
        buf.enqueue([e], T0)
    # Simulated kill: drop the handle without any orderly shutdown.
    del buf
    recovered = DurableBuffer(tmp_path)
    assert [b.envelope for b in recovered.peek_batch(10)] == envelopes[:3]


def test_recovery_drops_partial_trailing_line(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    for e in envelopes[:3]:
        buf.enqueue([e], T0)
    buf.close()
    journal = tmp_path / "buffer.journal"
    raw = journal.read_bytes()
    journal.write_bytes(raw + b'{"seq": 4, "enqueued')  # torn write, no newline
    recovered = DurableBuffer(tmp_path)
    assert len(recovered.peek_batch(10)) == 3
    # The torn bytes are gone; a fresh enqueue keeps the file parseable.
    recovered.enqueue([envelopes[3]], T0)
    recovered.close()
    reopened = DurableBuffer(tmp_path)
    assert [b.envelope for b in reopened.peek_batch(10)] == envelopes[:4]


def test_recovery_rejects_midfile_corruption(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    for e in envelopes[:3]:
        buf.enqueue([e], T0)
    buf.close()
    journal = tmp_path / "buffer.journal"
    lines = journal.read_bytes().split(b"\n")
    lines[2] = b"garbage not json"
    journal.write_bytes(b"\n".join(lines))
    with pytest.raises(CorruptJournal):
        DurableBuffer(tmp_path)


def test_storage_full(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path, cap=2)
    buf.enqueue([envelopes[0]], T0)
    buf.enqueue([envelopes[1]], T0)
    with pytest.raises(StorageFull):
        buf.enqueue([envelopes[2]], T0)
    buf.ack(1)
    buf.enqueue([envelopes[2]], T0)  # space freed


def test_a_group_past_the_cap_is_refused_whole(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path, cap=3)
    assert buf.enqueue(envelopes[:2], T0) == [1, 2]
    journal = (tmp_path / "buffer.journal").read_bytes()
    with pytest.raises(StorageFull):
        buf.enqueue(envelopes[2:4], T0)
    assert [e.envelope for e in buf.pending_entries()] == envelopes[:2]
    assert (tmp_path / "buffer.journal").read_bytes() == journal
    assert buf.enqueue(envelopes[2:3], T0) == [3]
    with pytest.raises(ValueError):
        buf.enqueue([], T0)
    buf.close()


def test_ack_then_next_oldest(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    for e in envelopes[:5]:
        buf.enqueue([e], T0)
    batch = buf.peek_batch(2)
    assert buf.ack(batch[-1].entry_id) == 2
    assert [b.envelope for b in buf.peek_batch(2)] == envelopes[2:4]


def test_an_ack_with_nothing_to_ack_writes_nothing(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    ids = buf.enqueue(envelopes[:2], T0)
    journal = tmp_path / "buffer.journal"
    before = journal.read_bytes()
    assert buf.ack(0) == 0
    assert journal.read_bytes() == before
    assert buf.ack(ids[0]) == 1
    after = journal.read_bytes()
    assert after == before + b'{"ack":%d}\n' % ids[0]
    assert buf.ack(ids[0]) == 0
    assert journal.read_bytes() == after
    assert buf.ack(ids[1] + 100) == 1   # past the last id: acks what is there
    assert buf.depth() == 0
    buf.close()


def test_an_ack_names_the_last_id_it_acked(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    buf.enqueue(envelopes[:2], T0)
    assert buf.ack(10) == 2
    [later] = buf.enqueue(envelopes[2:3], T0)
    assert later == 3
    buf.close()
    recovered = DurableBuffer(tmp_path)
    assert [e.entry_id for e in recovered.pending_entries()] == [later]
    recovered.close()


def test_acked_entries_stay_gone_after_restart(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    ids = buf.enqueue(envelopes[:4], T0)
    buf.ack(ids[1])
    buf.close()
    recovered = DurableBuffer(tmp_path)
    assert [b.envelope for b in recovered.peek_batch(10)] == envelopes[2:4]


def test_entry_ids_monotone_across_full_drain_and_restart(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    ids = buf.enqueue(envelopes[:3], T0)
    buf.ack(ids[-1])  # nothing pending; the journal keeps its records
    buf.close()
    recovered = DurableBuffer(tmp_path)
    [new_id] = recovered.enqueue(envelopes[3:4], T0)
    assert new_id > max(ids)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(st.sampled_from(["enqueue", "peek", "ack_first", "reopen"]),
                    min_size=1, max_size=40),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_reference_queue_equivalence(tmp_path_factory, node_key, ops, seed):
    """Random op sequences against an in-memory reference deque."""
    tmp = tmp_path_factory.mktemp("buf")
    buf = DurableBuffer(tmp)
    reference: deque = deque()  # (entry_id, report_id)
    rng = random.Random(seed)
    counter = 0
    for op in ops:
        if op == "enqueue":
            counter += 1
            report = make_report(report_id=f"node-1-{T0 + counter}-{counter:08x}",
                                 created_at=T0 + 600_000 + counter)
            envelope = sign(node_key, report)
            [eid] = buf.enqueue([envelope], T0)
            reference.append((eid, report.report_id))
        elif op == "peek":
            n = rng.randrange(1, 6)
            got = [b.entry_id for b in buf.peek_batch(n)]
            want = [eid for eid, _ in list(reference)[:n]]
            assert got == want
        elif op == "ack_first" and reference:
            eid, _ = reference.popleft()
            assert buf.ack(eid) == 1
        elif op == "reopen":
            buf.close()
            buf = DurableBuffer(tmp)
    got = [b.entry_id for b in buf.peek_batch(1000)]
    want = [eid for eid, _ in reference]
    assert got == want
    buf.close()


# -- persisted config ---------------------------------------------------------


def full_config() -> PersistedConfig:
    job = MonitoringJob("cherries", "B-18", 60_000, 300_000,
                        {"temperature": {"enabled": True}})
    return PersistedConfig(
        state=NodeState.MONITORING,
        job=job,
        heartbeat=HeartbeatTarget("operator", 1, 30_000),
        ledger=LedgerTarget("ledger", 1, "ambox", "events"),
        heartbeat_sequence=17,
    )


def test_config_roundtrip(tmp_path):
    store = ConfigStore(tmp_path)
    config = full_config()
    store.save(config)
    assert store.load() == config


def test_config_with_retired_fields_loads(tmp_path):
    store = ConfigStore(tmp_path)
    obj = full_config().to_obj()
    obj["since"] = T0
    obj["transitions"] = [["idle", "heartbeat", T0 - 10], ["heartbeat", "monitoring", T0]]
    store.path.write_text(json.dumps(obj, indent=2, sort_keys=True))
    assert store.load() == full_config()


def test_fresh_device_default(tmp_path):
    store = ConfigStore(tmp_path)
    config = store.load()
    assert config.state is NodeState.IDLE
    assert config.heartbeat is None
    assert config.ledger is None
    assert config.heartbeat_sequence == 0


def test_truncation_at_every_offset_is_corrupt(tmp_path):
    store = ConfigStore(tmp_path)
    store.save(full_config())
    raw = store.path.read_bytes()
    for cut in range(len(raw)):
        store.path.write_bytes(raw[:cut])
        with pytest.raises(CorruptConfig):
            store.load()
    store.path.write_bytes(raw)
    assert store.load() == full_config()


def test_state_job_consistency_enforced(tmp_path):
    store = ConfigStore(tmp_path)
    obj = full_config().to_obj()
    obj["job"] = None  # monitoring without a job is inconsistent
    store.path.write_text(json.dumps(obj))
    with pytest.raises(CorruptConfig):
        store.load()


@pytest.mark.parametrize("sequence", [b"Infinity", b"-Infinity", b"1e400", b"NaN"])
def test_a_non_finite_heartbeat_sequence_is_a_corrupt_config(tmp_path, sequence):
    store = ConfigStore(tmp_path)
    store.save(full_config())
    raw = store.path.read_bytes()
    store.path.write_bytes(raw.replace(b'"heartbeat_sequence":17',
                                       b'"heartbeat_sequence":' + sequence))
    with pytest.raises(CorruptConfig, match=f"{CONFIG_FILE} invalid"):
        store.load()


# -- the journal on disk ----------------------------------------------------------


def test_failed_enqueue_leaves_the_journal_as_it_was(tmp_path, envelopes, fail_next_fsync):
    buf = DurableBuffer(tmp_path)
    buf.enqueue([envelopes[0]], T0)
    fail_next_fsync()
    with pytest.raises(OSError):
        buf.enqueue([envelopes[1]], T0)
    buf.enqueue([envelopes[2]], T0)
    acknowledged = [envelopes[0], envelopes[2]]
    assert [e.envelope for e in buf.pending_entries()] == acknowledged
    buf.close()
    reopened = DurableBuffer(tmp_path)
    assert [e.envelope for e in reopened.pending_entries()] == acknowledged
    reopened.close()


def test_no_append_lands_behind_torn_bytes(tmp_path, tear_next_write, monkeypatch):
    path = tmp_path / "log"
    log = AppendLog(path)
    log.append(b"one\n")
    # Half the line is written before EIO, and cutting it back fails too.
    tear_next_write()
    with pytest.raises(OSError):
        log.append(b"two, torn\n")
    assert path.read_bytes() == b"one\ntwo, "
    log.append(b"three\n")
    assert AppendLog.read(path) == b"one\nthree\n"
    assert log.size == len(b"one\nthree\n")
    # Torn bytes that cannot be cut: the append writes nothing and raises.
    tear_next_write(failed_cuts=2)
    for line in (b"four, torn\n", b"five\n"):
        with pytest.raises(OSError):
            log.append(line)
    assert path.read_bytes() == b"one\nthree\nfour,"
    log.append(b"six\n")
    log.close()
    assert AppendLog.read(path) == b"one\nthree\nsix\n"


def test_a_checked_log_reads_up_to_its_first_line_whose_checksum_fails(tmp_path, monkeypatch):
    path = tmp_path / "index"
    log = CheckedLog(path)
    assert log.records() == []
    synced = []
    monkeypatch.setattr(os, "fsync", synced.append)
    log.append([b"one", b"two"])
    log.append([b"three"])
    log.close()
    raw = path.read_bytes()
    assert raw == b"".join(b"%08x %s\n" % (zlib.crc32(t), t) for t in (b"one", b"two", b"three"))
    assert synced == []
    second = raw.index(b"\n") + 1
    for at in range(second, raw.index(b"\n", second) + 1):
        # A flipped byte anywhere in the second line, or the log cut there.
        damaged = bytearray(raw)
        damaged[at] ^= 0x20
        for content in (bytes(damaged), raw[:at]):
            path.write_bytes(content)
            log = CheckedLog(path)
            assert log.records() == [b"one"]
            log.keep(1)
            log.append([b"four"])
            log.close()
            assert CheckedLog(path).records() == [b"one", b"four"]


def test_a_checked_log_that_fails_to_append_stops(tmp_path, tear_next_write):
    path = tmp_path / "index"
    log = CheckedLog(path)
    log.append([b"one"])
    tear_next_write()
    with pytest.raises(OSError):
        log.append([b"two"])
    log.append([b"three"])      # not behind a record that may be missing
    log.close()
    assert CheckedLog(path).records() == [b"one"]


def test_torn_journal_tail_is_dropped_at_every_offset(tmp_path, envelopes, monkeypatch):
    buf = DurableBuffer(tmp_path)
    for e in envelopes[:3]:
        buf.enqueue([e], T0)
    buf.close()
    journal = tmp_path / "buffer.journal"
    pristine = journal.read_bytes()
    last_start = pristine.rstrip(b"\n").rfind(b"\n") + 1
    # Every cut of the last line, down to the one that loses only its newline.
    for cut in range(last_start, len(pristine)):
        journal.write_bytes(pristine[:cut])
        recovered = DurableBuffer(tmp_path)
        assert [e.envelope for e in recovered.pending_entries()] == envelopes[:2]
        assert journal.read_bytes() == pristine[:last_start]
        recovered.enqueue([envelopes[3]], T0)
        recovered.close()
        reopened = DurableBuffer(tmp_path)
        assert [e.envelope for e in reopened.pending_entries()] == envelopes[:2] + [envelopes[3]]
        reopened.close()

    # Into an empty journal the schema header and the first record go down
    # in one write and one fsync. Every cut of that write recovers to no
    # entry or to the one complete record, never to a corrupt journal.
    fresh = tmp_path / "fresh"
    syncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (syncs.append(fd), real_fsync(fd)))
    buf = DurableBuffer(fresh)
    buf.enqueue([envelopes[0]], T0)
    buf.close()
    monkeypatch.undo()
    assert len(syncs) == 1
    journal = fresh / "buffer.journal"
    pristine = journal.read_bytes()
    assert pristine.count(b"\n") == 2
    for cut in range(len(pristine) + 1):
        journal.write_bytes(pristine[:cut])
        recovered = DurableBuffer(fresh)
        pending = [e.envelope for e in recovered.pending_entries()]
        assert pending == (envelopes[:1] if cut == len(pristine) else [])
        recovered.enqueue([envelopes[1]], T0)
        recovered.close()
        reopened = DurableBuffer(fresh)
        assert [e.envelope for e in reopened.pending_entries()] == pending + [envelopes[1]]
        reopened.close()

    # A group's records go down in one write and one fsync. Every cut of
    # that write keeps the records whose newline is on disk, and the next
    # id follows the last one kept.
    grouped = tmp_path / "grouped"
    buf = DurableBuffer(grouped)
    buf.enqueue(envelopes[:1], T0)
    before = (grouped / "buffer.journal").read_bytes()
    assert buf.enqueue(envelopes[1:3], T0) == [2, 3]
    buf.close()
    journal = grouped / "buffer.journal"
    pristine = journal.read_bytes()
    assert pristine.count(b"\n") == before.count(b"\n") + 2
    for cut in range(len(before), len(pristine) + 1):
        journal.write_bytes(pristine[:cut])
        recovered = DurableBuffer(grouped)
        kept = recovered.pending_entries()
        whole = pristine[:cut].count(b"\n") - before.count(b"\n")
        assert [e.envelope for e in kept] == envelopes[:1 + whole]
        assert journal.read_bytes() == pristine[:pristine.rfind(b"\n", 0, cut) + 1]
        assert recovered.enqueue(envelopes[3:4], T0) == [kept[-1].entry_id + 1]
        recovered.close()

    # An ack is one record in one append. Every cut of it recovers to the
    # entries it did not ack yet, and the same ack can then be made again.
    acked = tmp_path / "acked"
    buf = DurableBuffer(acked)
    buf.enqueue(envelopes[:3], T0)
    journal = acked / "buffer.journal"
    before = journal.read_bytes()
    assert buf.ack(2) == 2
    buf.close()
    pristine = journal.read_bytes()
    assert pristine.count(b"\n") == before.count(b"\n") + 1
    for cut in range(len(before), len(pristine) + 1):
        journal.write_bytes(pristine[:cut])
        whole = cut == len(pristine)
        recovered = DurableBuffer(acked)
        assert [e.envelope for e in recovered.pending_entries()] == envelopes[2 if whole else 0:3]
        assert journal.read_bytes() == (pristine if whole else before)
        assert recovered.ack(2) == (0 if whole else 2)
        assert recovered.enqueue(envelopes[3:4], T0) == [4]
        recovered.close()
        reopened = DurableBuffer(acked)
        assert [e.envelope for e in reopened.pending_entries()] == envelopes[2:4]
        reopened.close()


def test_acked_records_past_the_floor_that_outnumber_the_pending_compact(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    n = 2 * COMPACT_FLOOR + 1
    assert buf.enqueue(envelopes[:1] * n, T0) == list(range(1, n + 1))
    journal = tmp_path / "buffer.journal"
    assert buf.ack(COMPACT_FLOOR) == COMPACT_FLOOR   # at the floor, but fewer than pending
    assert journal.read_bytes().count(b"\n") == 1 + n + 1
    assert buf.ack(COMPACT_FLOOR + 1) == 1           # now they outnumber the pending
    lines = journal.read_bytes().splitlines()
    assert lines[0] == b'{"next_id":%d,"schema_version":1}' % (n + 1)
    assert [canonical.loads(line)["seq"] for line in lines[1:]] == list(
        range(COMPACT_FLOOR + 2, n + 1))
    # Below the floor again, an ack is an appended record once more.
    assert buf.ack(n - 1) == COMPACT_FLOOR - 1
    assert journal.read_bytes() == b"\n".join(lines) + b'\n{"ack":%d}\n' % (n - 1)
    buf.close()
    reopened = DurableBuffer(tmp_path)
    assert [e.entry_id for e in reopened.pending_entries()] == [n]
    assert reopened.enqueue(envelopes[1:2], T0) == [n + 1]
    reopened.close()


class _Crash(BaseException):
    """The process dies where this is raised."""


@pytest.mark.parametrize("renamed", [False, True], ids=["before-rename", "after-rename"])
def test_a_crash_at_the_compaction_rename_recovers_the_same_buffer(tmp_path, envelopes,
                                                                   monkeypatch, renamed):
    buf = DurableBuffer(tmp_path)
    n = COMPACT_FLOOR + 2
    buf.enqueue(envelopes[:1] * n, T0)
    real_replace = os.replace

    def replace(src, dst):
        if renamed:
            real_replace(src, dst)
        raise _Crash

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(_Crash):
        buf.ack(COMPACT_FLOOR)
    monkeypatch.undo()
    buf.close()
    header = (tmp_path / "buffer.journal").read_bytes().split(b"\n", 1)[0]
    assert canonical.loads(header) == ({"schema_version": 1, "next_id": n + 1} if renamed
                                       else {"schema_version": 1})
    recovered = DurableBuffer(tmp_path)
    assert [e.entry_id for e in recovered.pending_entries()] == [n - 1, n]
    assert recovered.enqueue(envelopes[1:2], T0) == [n + 1]
    recovered.close()


# -- high-water marks -----------------------------------------------------------------


def test_marks_ride_in_the_last_record_of_their_append(tmp_path, envelopes, monkeypatch):
    buf = DurableBuffer(tmp_path)
    appends = []
    append = buf._journal.append
    monkeypatch.setattr(buf._journal, "append", lambda lines: (appends.append(lines),
                                                               append(lines)))
    buf.enqueue(envelopes[:2], T0, {"mote-1": 7, "mote-2": 3})
    buf.enqueue(envelopes[2:3], T0, {"mote-1": 9})
    assert len(appends) == 2
    records = [canonical.loads(line) for line in b"".join(appends).splitlines()[1:]]
    assert ["marks" in record for record in records] == [False, True, True]
    assert records[1]["marks"] == {"mote-1": 7, "mote-2": 3}
    assert buf.marks() == {"mote-1": 9, "mote-2": 3}
    buf.close()


def test_a_torn_records_marks_do_not_count(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    buf.enqueue(envelopes[:1], T0, {"mote-1": 4})
    buf.close()
    journal = tmp_path / "buffer.journal"
    before = journal.read_bytes()
    buf = DurableBuffer(tmp_path)
    buf.enqueue(envelopes[1:2], T0, {"mote-1": 6, "mote-2": 1})
    buf.close()
    pristine = journal.read_bytes()
    for cut in range(len(before), len(pristine) + 1):
        journal.write_bytes(pristine[:cut])
        recovered = DurableBuffer(tmp_path)
        whole = cut == len(pristine)
        assert recovered.marks() == ({"mote-1": 6, "mote-2": 1} if whole else {"mote-1": 4})
        recovered.close()


def test_marks_survive_acks_reopen_and_compaction(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    n = COMPACT_FLOOR + 2
    for i in range(1, n - 1):
        buf.enqueue(envelopes[:1], T0, {"mote-1": 10 * i} if i % 2 else {"mote-2": i})
    buf.enqueue(envelopes[:2], T0)
    marks = {"mote-1": 10 * (n - 3), "mote-2": n - 2}
    assert buf.ack(COMPACT_FLOOR - 1) == COMPACT_FLOOR - 1
    buf.close()
    reopened = DurableBuffer(tmp_path)
    assert reopened.marks() == marks
    assert reopened.ack(n - 2) == 1    # compacts: only the two records without marks stay
    journal = tmp_path / "buffer.journal"
    header, *records = journal.read_bytes().splitlines()
    assert header == b'{"marks":{"mote-1":%d,"mote-2":%d},"next_id":%d,"schema_version":1}' % (
        marks["mote-1"], marks["mote-2"], n + 1)
    assert [canonical.loads(line)["seq"] for line in records] == [n - 1, n]
    reopened.close()
    compacted = DurableBuffer(tmp_path)
    assert compacted.marks() == marks
    assert compacted.enqueue(envelopes[1:2], T0, {"mote-3": 1}) == [n + 1]
    assert compacted.marks() == dict(marks, **{"mote-3": 1})
    compacted.close()


def test_a_journal_without_marks_keeps_its_bytes(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    buf.enqueue(envelopes[:2], T0)
    buf.enqueue(envelopes[2:3], T0 + 1, {})
    buf.ack(1)
    assert buf.marks() == {}
    buf.close()
    expected = [b'{"schema_version":1}'] + [
        canonical.dumps({"seq": i + 1, "enqueued_at": at,
                         "envelope": envelopes[i].to_wire_obj()})
        for i, at in ((0, T0), (1, T0), (2, T0 + 1))] + [b'{"ack":1}']
    assert (tmp_path / "buffer.journal").read_bytes() == b"\n".join(expected) + b"\n"


@pytest.mark.parametrize("section, field, value", [
    ("heartbeat", "address", 7),
    ("heartbeat", "port", "8080"),
    ("heartbeat", "timeout_ms", True),
    ("ledger", "port", 1.0),
    ("ledger", "channel_name", ["ambox"]),
    ("ledger", "chaincode_name", None),
    (None, "heartbeat_sequence", 17.9),
])
def test_a_config_field_of_another_type_is_a_corrupt_config(tmp_path, section, field, value):
    store = ConfigStore(tmp_path)
    obj = full_config().to_obj()
    (obj[section] if section else obj)[field] = value
    store.path.write_text(json.dumps(obj))
    with pytest.raises(CorruptConfig, match=f"{CONFIG_FILE} invalid: {field} must be"):
        store.load()


MALFORMED_MARKS = ['[]', '{"mote-1":"3"}', '{"mote-1":true}', '{"mote-1":0}',
                   '{"mote-1":1.5}', 'null']


@pytest.mark.parametrize("marks", MALFORMED_MARKS)
@pytest.mark.parametrize("where", ["header", "record"])
def test_malformed_marks_are_a_corrupt_journal(tmp_path, envelopes, where, marks):
    buf = DurableBuffer(tmp_path)
    buf.enqueue(envelopes[:1], T0, {"mote-1": 2})
    buf.close()
    journal = tmp_path / "buffer.journal"
    header, record = journal.read_bytes().splitlines()
    if where == "header":
        header = b'{"marks":%s,"schema_version":1}' % marks.encode()
    else:
        record = record.replace(b'"marks":{"mote-1":2}', b'"marks":' + marks.encode())
    journal.write_bytes(header + b"\n" + record + b"\n")
    with pytest.raises(CorruptJournal):
        DurableBuffer(tmp_path)


@pytest.mark.parametrize("ack", [b"Infinity", b"-Infinity", b"1e400", b"NaN"])
def test_a_non_finite_ack_is_a_corrupt_journal(tmp_path, envelopes, ack):
    buf = DurableBuffer(tmp_path)
    buf.enqueue(envelopes[:1], T0)
    buf.close()
    journal = tmp_path / "buffer.journal"
    journal.write_bytes(journal.read_bytes() + b'{"ack":%s}\n' % ack)
    with pytest.raises(CorruptJournal, match="journal line 3"):
        DurableBuffer(tmp_path)


def test_a_deeply_nested_journal_line_is_a_corrupt_journal(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    buf.enqueue(envelopes[:1], T0)
    buf.close()
    journal = tmp_path / "buffer.journal"
    journal.write_bytes(journal.read_bytes() + b"[" * 100_000 + b"\n")
    with pytest.raises(CorruptJournal, match="journal line 3"):
        DurableBuffer(tmp_path)


@pytest.mark.parametrize("field", ["ack", "seq", "enqueued_at"])
def test_a_journal_number_of_another_type_is_a_corrupt_journal(tmp_path, envelopes, field):
    buf = DurableBuffer(tmp_path)
    buf.enqueue(envelopes[:2], T0)
    buf.close()
    journal = tmp_path / "buffer.journal"
    raw = journal.read_bytes()
    damaged = {
        "ack": raw + b'{"ack":true}\n',
        "seq": raw.replace(b'"seq":2}', b'"seq":2.0}'),
        "enqueued_at": raw.replace(b'"enqueued_at":%d' % T0, b'"enqueued_at":"%d"' % T0),
    }[field]
    assert damaged != raw
    journal.write_bytes(damaged)
    with pytest.raises(CorruptJournal, match=f"{field} must be an integer"):
        DurableBuffer(tmp_path)


# -- documents ----------------------------------------------------------------------


def _node_config(directory, envelopes, key):
    ConfigStore(directory).save(full_config())
    return directory / CONFIG_FILE, CorruptConfig, lambda: ConfigStore(directory).load()


def _mote_config(directory, envelopes, key):
    save_mote_config(directory, MoteConfig(True, 30_000, {"temperature": {"enabled": True}}))
    return directory / "mote_config.json", CorruptConfig, lambda: load_mote_config(directory)


def _ack_file(directory, envelopes, key):
    # Only older versions wrote an ack document, so this one is written by hand.
    buf = DurableBuffer(directory)
    buf.enqueue(envelopes[:3], T0)
    buf.close()
    path = directory / ACK_FILE
    path.write_bytes(canonical.dumps({"schema_version": 1, "watermark": 1, "acked": [3],
                                      "next_id": 4}))
    return path, CorruptJournal, lambda: DurableBuffer(directory).close()


def _registry(directory, envelopes, key):
    ledger = Ledger(directory)
    ledger.register_device(DeviceIdentity("node-1", DeviceKind.NODE, key.public_pem))
    ledger.close()
    return directory / "registry.json", CorruptLedger, lambda: Ledger(directory).close()


def _wrong_schema(raw):
    obj = canonical.loads(raw)
    obj["schema_version"] = 2
    return [canonical.dumps(obj)]


DAMAGE = {
    "bad-utf8": lambda raw: [b"\xff\xfe"],
    "deeply-nested": lambda raw: [b"[" * 100_000, b'{"a":' * 100_000],
    "non-object-root": lambda raw: [b"[]", b'"text"', b"1"],
    "wrong-schema": _wrong_schema,
    "truncated": lambda raw: [raw[:cut] for cut in range(len(raw))],
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("document", [_node_config, _mote_config, _ack_file, _registry],
                         ids=["node-config", "mote-config", "ack-file", "registry"])
def test_damaged_document_raises_its_corruption_error(tmp_path, envelopes, node_key,
                                                      document, damage):
    path, error, load = document(tmp_path, envelopes, node_key)
    raw = path.read_bytes()
    load()
    for data in DAMAGE[damage](raw):
        path.write_bytes(data)
        with pytest.raises(error, match=path.name):
            load()
    path.write_bytes(raw)
    load()


INDENTED_NODE_CONFIG = b"""{
  "heartbeat": {
    "address": "operator",
    "port": 1,
    "timeout_ms": 30000
  },
  "heartbeat_sequence": 17,
  "job": {
    "batch_no": "B-18",
    "product_id": "cherries",
    "report_interval_ms": 300000,
    "sample_interval_ms": 60000,
    "sensor_params": {
      "temperature": {
        "enabled": true
      }
    }
  },
  "ledger": {
    "address": "ledger",
    "chaincode_name": "events",
    "channel_name": "ambox",
    "port": 1
  },
  "schema_version": 1,
  "state": "monitoring"
}"""

INDENTED_MOTE_CONFIG = b"""{
  "enabled": true,
  "sample_interval_ms": 30000,
  "schema_version": 1,
  "sensor_params": {
    "temperature": {
      "enabled": true
    }
  }
}"""

INDENTED_REGISTRY = b"""{
  "devices": {
    "node-1": {
      "kind": "node",
      "public_key_pem": PEM
    }
  },
  "schema_version": 1
}"""

SPACED_JOURNAL = b"""{"schema_version": 1}
{"enqueued_at": 1704067200000, "envelope": {"payload_b64": "P0", "signature_b64": "S0", \
"signer": "node-1"}, "seq": 1}
{"enqueued_at": 1704067200000, "envelope": {"payload_b64": "P1", "signature_b64": "S1", \
"signer": "node-1"}, "seq": 2}
"""

SPACED_ACK = b'{"acked": [], "next_id": 3, "schema_version": 1, "watermark": 1}'


def test_indented_and_spaced_files_of_older_versions_still_load(tmp_path, envelopes, node_key):
    (tmp_path / CONFIG_FILE).write_bytes(INDENTED_NODE_CONFIG)
    assert ConfigStore(tmp_path).load() == full_config()
    (tmp_path / "mote_config.json").write_bytes(INDENTED_MOTE_CONFIG)
    mote_config = MoteConfig(True, 30_000, {"temperature": {"enabled": True}})
    assert load_mote_config(tmp_path) == mote_config
    journal = SPACED_JOURNAL
    for i in range(2):
        wire = envelopes[i].to_wire_obj()
        journal = journal.replace(b'"P%d"' % i, json.dumps(wire["payload_b64"]).encode())
        journal = journal.replace(b'"S%d"' % i, json.dumps(wire["signature_b64"]).encode())
    (tmp_path / "buffer.journal").write_bytes(journal)
    (tmp_path / ACK_FILE).write_bytes(SPACED_ACK)
    buf = DurableBuffer(tmp_path)
    assert [e.envelope for e in buf.pending_entries()] == [envelopes[1]]
    buf.close()
    # The ack document is folded into the journal and removed. Should its
    # removal be lost in a crash, folding it in again changes nothing.
    assert not (tmp_path / ACK_FILE).exists()
    for _ in range(2):
        buf = DurableBuffer(tmp_path)
        assert [e.envelope for e in buf.pending_entries()] == [envelopes[1]]
        buf.close()
        (tmp_path / ACK_FILE).write_bytes(SPACED_ACK)
    buf = DurableBuffer(tmp_path)
    assert buf.enqueue(envelopes[2:3], T0) == [3]
    buf.close()
    ledger_dir = tmp_path / "ledger"
    ledger_dir.mkdir()
    pem = json.dumps(node_key.public_pem).encode()
    (ledger_dir / "registry.json").write_bytes(INDENTED_REGISTRY.replace(b"PEM", pem))
    ledger = Ledger(ledger_dir)
    assert ledger.registered_key("node-1") == node_key.public_pem
    ledger.close()


# -- the device key -------------------------------------------------------------------


def test_key_file_is_replaced_atomically(tmp_path, node_key, monkeypatch):
    path = tmp_path / KEY_FILE
    real_fsync, real_replace = os.fsync, os.replace
    synced = set()

    def fsync(fd):
        real_fsync(fd)
        st = os.fstat(fd)
        synced.add((st.st_ino, st.st_size, st.st_mode & 0o777))

    def replace(src, dst):
        st = os.stat(src)
        assert (st.st_ino, st.st_size, 0o600) in synced  # bytes on disk before the path appears
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    save_private_key(path, node_key)
    assert load_private_key(path, "node-1").public_pem == node_key.public_pem

    def fail(src, dst):
        raise OSError("injected failure before the rename")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        save_private_key(path, generate_keypair("node-1"))
    assert load_private_key(path, "node-1").public_pem == node_key.public_pem
    fresh = tmp_path / "fresh" / KEY_FILE
    fresh.parent.mkdir()
    with pytest.raises(OSError):
        save_private_key(fresh, node_key)
    assert not fresh.exists()


# -- one owner for durable writes -------------------------------------------------------


def test_only_storage_syncs_renames_or_truncates():
    package = Path(ambox.__file__).parent
    calls = {"fsync", "replace", "ftruncate", "rename", "unlink", "remove"}
    found = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "storage.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in calls
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{path.relative_to(package)}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found.extend(f"{path.relative_to(package)}:{node.lineno} {alias.name}"
                             for alias in node.names if alias.name in calls)
    assert found == []


def test_only_the_listener_runs_a_socket_server():
    # One lifecycle for every TCP server: anything else that runs a
    # socketserver would decide on its own what a stopped server answers.
    package = Path(ambox.__file__).parent
    servers = {name for module in (socketserver, http.server)
               for name, obj in vars(module).items()
               if isinstance(obj, type) and issubclass(obj, socketserver.BaseServer)}
    found, listeners = [], 0
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "_Listener":
                listeners += 1
                inside.update(id(child) for child in ast.walk(node))
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if isinstance(node, ast.ClassDef):
                bases = {getattr(base, "attr", getattr(base, "id", "")) for base in node.bases}
                found.extend(f"{path.relative_to(package)}:{node.lineno} {node.name}({base})"
                             for base in sorted(bases & servers))
            elif isinstance(node, ast.Attribute) and node.attr == "serve_forever":
                found.append(f"{path.relative_to(package)}:{node.lineno} serve_forever")
    assert listeners == 1
    assert found == []
