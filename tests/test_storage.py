import json
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from ambox.envelope import sign
from ambox.model import NodeState, MonitoringJob
from ambox.storage import (
    ConfigStore,
    CorruptConfig,
    CorruptJournal,
    DurableBuffer,
    HeartbeatTarget,
    LedgerTarget,
    PersistedConfig,
    StorageFull,
    UnknownEntry,
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
    buf.enqueue(envelopes[0], T0)
    batch = buf.peek_batch(5)
    assert len(batch) == 1
    assert batch[0].envelope == envelopes[0]
    assert batch[0].attempts == 0


def test_fifo_order_and_nondestructive_peek(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    for e in envelopes[:5]:
        buf.enqueue(e, T0)
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
        buf.enqueue(e, T0)
    # Simulated kill: drop the handle without any orderly shutdown.
    del buf
    recovered = DurableBuffer(tmp_path)
    assert [b.envelope for b in recovered.peek_batch(10)] == envelopes[:3]


def test_recovery_drops_partial_trailing_line(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    for e in envelopes[:3]:
        buf.enqueue(e, T0)
    buf.close()
    journal = tmp_path / "buffer.journal"
    raw = journal.read_bytes()
    journal.write_bytes(raw + b'{"seq": 4, "enqueued')  # torn write, no newline
    recovered = DurableBuffer(tmp_path)
    assert len(recovered.peek_batch(10)) == 3
    # The torn bytes are gone; a fresh enqueue keeps the file parseable.
    recovered.enqueue(envelopes[3], T0)
    recovered.close()
    reopened = DurableBuffer(tmp_path)
    assert [b.envelope for b in reopened.peek_batch(10)] == envelopes[:4]


def test_recovery_rejects_midfile_corruption(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    for e in envelopes[:3]:
        buf.enqueue(e, T0)
    buf.close()
    journal = tmp_path / "buffer.journal"
    lines = journal.read_bytes().split(b"\n")
    lines[2] = b"garbage not json"
    journal.write_bytes(b"\n".join(lines))
    with pytest.raises(CorruptJournal):
        DurableBuffer(tmp_path)


def test_storage_full(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path, cap=2)
    buf.enqueue(envelopes[0], T0)
    buf.enqueue(envelopes[1], T0)
    with pytest.raises(StorageFull):
        buf.enqueue(envelopes[2], T0)
    buf.ack([1])
    buf.enqueue(envelopes[2], T0)  # space freed


def test_ack_subset_keeps_order(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    ids = [buf.enqueue(e, T0) for e in envelopes[:3]]
    buf.ack([ids[1]])
    remaining = [b.envelope for b in buf.peek_batch(10)]
    assert remaining == [envelopes[0], envelopes[2]]


def test_ack_then_next_oldest(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    for e in envelopes[:5]:
        buf.enqueue(e, T0)
    batch = buf.peek_batch(2)
    buf.ack([b.entry_id for b in batch])
    assert [b.envelope for b in buf.peek_batch(2)] == envelopes[2:4]


def test_double_ack_unknown(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    eid = buf.enqueue(envelopes[0], T0)
    buf.ack([eid])
    with pytest.raises(UnknownEntry):
        buf.ack([eid])


def test_nack_increments_attempts(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    eid = buf.enqueue(envelopes[0], T0)
    buf.nack([eid])
    buf.nack([eid])
    assert buf.peek_batch(1)[0].attempts == 2


def test_acked_entries_stay_gone_after_restart(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    ids = [buf.enqueue(e, T0) for e in envelopes[:4]]
    buf.ack([ids[0], ids[2]])
    buf.close()
    recovered = DurableBuffer(tmp_path)
    assert [b.envelope for b in recovered.peek_batch(10)] == [envelopes[1], envelopes[3]]


def test_entry_ids_monotone_across_full_drain_and_restart(tmp_path, envelopes):
    buf = DurableBuffer(tmp_path)
    ids = [buf.enqueue(e, T0) for e in envelopes[:3]]
    buf.ack(ids)  # journal compacts to empty
    buf.close()
    recovered = DurableBuffer(tmp_path)
    new_id = recovered.enqueue(envelopes[3], T0)
    assert new_id > max(ids)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(st.sampled_from(["enqueue", "peek", "ack_first", "ack_second", "nack"]),
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
            eid = buf.enqueue(envelope, T0)
            reference.append((eid, report.report_id))
        elif op == "peek":
            n = rng.randrange(1, 6)
            got = [b.entry_id for b in buf.peek_batch(n)]
            want = [eid for eid, _ in list(reference)[:n]]
            assert got == want
        elif op == "ack_first" and reference:
            eid, _ = reference.popleft()
            buf.ack([eid])
        elif op == "ack_second" and len(reference) >= 2:
            items = list(reference)
            eid, _ = items.pop(1)
            reference.clear()
            reference.extend(items)
            buf.ack([eid])
        elif op == "nack" and reference:
            buf.nack([reference[0][0]])
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
