import base64
import random

import pytest

from ambox import canonical
from ambox.envelope import MalformedKey, SignedEnvelope, sign
from ambox.ledger import (
    AlreadyRegistered,
    CorruptLedger,
    Ledger,
    LedgerBlock,
    LedgerClient,
    LedgerService,
    REASON_BAD_SIGNATURE,
    REASON_INVALID_REPORT,
    REASON_MALFORMED,
    REASON_UNKNOWN_SIGNER,
    ZERO_HASH,
)
from ambox.model import DeviceIdentity, DeviceKind, EventReport

from conftest import T0, make_report


def identity_of(key, kind=DeviceKind.NODE) -> DeviceIdentity:
    return DeviceIdentity(key.device_id, kind, key.public_pem)


@pytest.fixture()
def ledger(tmp_path):
    return Ledger(tmp_path / "ledger", genesis_at_ms=T0)


@pytest.fixture()
def registered(ledger, node_key):
    ledger.register_device(identity_of(node_key))
    return ledger


def env_for(key, i, created=None, n=3):
    report = make_report(
        device=key.device_id,
        report_id=f"{key.device_id}-{T0 + i}-{i:08x}",
        created_at=created if created is not None else T0 + 600_000 + i * 1000,
        n_readings=n,
    )
    return sign(key, report), report


def test_register_then_same_key_already(ledger, node_key):
    assert ledger.register_device(identity_of(node_key)) == "ok"
    assert ledger.register_device(identity_of(node_key)) == "already-registered"


def test_register_different_key_rejected(ledger, node_key, other_key):
    ledger.register_device(identity_of(node_key))
    conflicting = DeviceIdentity("node-1", DeviceKind.NODE, other_key.public_pem)
    with pytest.raises(AlreadyRegistered):
        ledger.register_device(conflicting)


def test_register_malformed_key(ledger):
    with pytest.raises(MalformedKey):
        ledger.register_device(DeviceIdentity("x", DeviceKind.NODE, "garbage"))


def test_batch_commit_one_block(registered, node_key):
    envelopes = [env_for(node_key, i)[0] for i in range(3)]
    before = registered.height
    verdicts = registered.add_events(envelopes, T0 + 1000)
    assert [v.status for v in verdicts] == ["committed"] * 3
    assert registered.height == before + 1
    assert len(registered.all_reports()) == 3


def test_unregistered_signer_rejected(ledger, node_key):
    envelope, _ = env_for(node_key, 0)
    verdicts = ledger.add_events([envelope], T0)
    assert verdicts[0].status == "rejected"
    assert verdicts[0].reason == REASON_UNKNOWN_SIGNER


def test_tampered_value_rejected_signature_invalid(registered, node_key):
    envelope, _ = env_for(node_key, 0)
    obj = canonical.loads(envelope.payload)
    obj["readings"][0]["value"] += 2.5
    tampered = SignedEnvelope(canonical.dumps(obj), envelope.signature, envelope.signer)
    verdicts = registered.add_events([tampered], T0)
    assert verdicts[0].status == "rejected"
    assert verdicts[0].reason == REASON_BAD_SIGNATURE
    assert registered.get_event(obj["report_id"]) is None


def test_malformed_envelope_rejected(registered):
    verdicts = registered.add_events([{"payload_b64": "!", "signature_b64": "!", "signer": "node-1"}], T0)
    assert verdicts[0].reason == REASON_MALFORMED


def test_invalid_report_rejected(registered, node_key):
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import padding

    report = make_report(device="node-1")
    bad = EventReport(report.report_id, report.device_id, report.product_id,
                      report.batch_no, report.created_at, ())
    payload = canonical.dumps(bad.to_obj())
    signature = node_key.private_key.sign(payload, padding.PKCS1v15(), hashes.SHA256())
    envelope = SignedEnvelope(payload, signature, "node-1")
    verdicts = registered.add_events([envelope], T0)
    assert verdicts[0].reason == REASON_INVALID_REPORT


def test_replay_idempotent(registered, node_key):
    envelope, report = env_for(node_key, 0)
    registered.add_events([envelope], T0)
    height = registered.height
    verdicts = registered.add_events([envelope], T0 + 10)
    assert verdicts[0].status == "committed"
    assert verdicts[0].replay is True
    assert registered.height == height          # no new block
    assert len(registered.all_reports()) == 1


def test_n_resubmissions_single_entry(registered, node_key):
    envelope, report = env_for(node_key, 0)
    for _ in range(5):
        registered.add_events([envelope], T0)
    assert len(registered.all_reports()) == 1
    assert registered.get_event(report.report_id) == report


def test_get_event_byte_identical(registered, node_key):
    envelope, report = env_for(node_key, 0)
    registered.add_events([envelope], T0)
    payload_b64 = registered.get_event_payload(report.report_id)
    assert base64.b64decode(payload_b64) == envelope.payload
    assert registered.get_event_payload("nope") is None


def test_get_recent_order_and_limit(registered, node_key):
    for i in range(10):
        envelope, _ = env_for(registered_key_for(node_key), i)
        registered.add_events([envelope], T0)
    recent = registered.get_recent(batch_no="B-2024-018", limit=5)
    assert len(recent) == 5
    created = [r.created_at for r in recent]
    assert created == sorted(created, reverse=True)


def registered_key_for(key):
    return key


def test_get_recent_tie_break_oracle(registered, node_key):
    # Equal created_at; brute-force oracle sorts (-created_at, report_id).
    envelopes = []
    for i in range(6):
        envelope, _ = env_for(node_key, i, created=T0 + 999_000)
        envelopes.append(envelope)
    rng = random.Random(3)
    rng.shuffle(envelopes)
    registered.add_events(envelopes, T0)
    reports = registered.get_recent(device_id="node-1", limit=100)
    oracle = sorted(reports, key=lambda r: (-r.created_at, r.report_id))
    assert reports == oracle
    assert [r.report_id for r in reports] == sorted(r.report_id for r in reports)


def test_get_recent_no_match_empty(registered):
    assert registered.get_recent(device_id="ghost", limit=3) == []


def test_world_state_replay_matches(registered, node_key, tmp_path):
    for i in range(4):
        envelope, _ = env_for(node_key, i)
        registered.add_events([envelope], T0 + i)
    live = registered.world_state_bytes()
    replayed = Ledger.replayed_world_state(tmp_path / "ledger")
    assert replayed == live


def test_verify_chain_ok_and_genesis(ledger):
    assert ledger.verify_chain() is None
    assert ledger.height == 0  # genesis only


def test_verify_chain_detects_flip_at_each_height(registered, node_key, tmp_path):
    for i in range(6):
        envelope, _ = env_for(node_key, i)
        registered.add_events([envelope], T0 + i)
    path = tmp_path / "ledger" / "blocks.journal"
    pristine = path.read_bytes()
    lines = pristine.split(b"\n")
    rng = random.Random(5)
    n_blocks = registered.height + 1
    for height in range(n_blocks):
        line = bytearray(lines[height])
        pos = rng.randrange(len(line))
        line[pos] ^= 0x01
        mutated = lines[:height] + [bytes(line)] + lines[height + 1:]
        path.write_bytes(b"\n".join(mutated))
        assert registered.verify_chain() == height
    path.write_bytes(pristine)
    assert registered.verify_chain() is None


def test_blocks_survive_restart(registered, node_key, tmp_path):
    for i in range(3):
        envelope, _ = env_for(node_key, i)
        registered.add_events([envelope], T0 + i)
    reopened = Ledger(tmp_path / "ledger")
    assert reopened.height == registered.height
    assert reopened.world_state_bytes() == registered.world_state_bytes()
    assert reopened.verify_chain() is None


def test_replay_refuses_a_block_that_does_not_link(registered, node_key, tmp_path):
    for i in range(3):
        envelope, _ = env_for(node_key, i)
        registered.add_events([envelope], T0 + i)
    assert registered.height == 3
    # Block 2 points at a wrong predecessor but carries a recomputed,
    # self-consistent hash: only the prev_hash link exposes it.
    path = tmp_path / "ledger" / "blocks.journal"
    lines = path.read_bytes().split(b"\n")
    stored = canonical.loads(lines[2])
    forged = LedgerBlock.build(2, "1" * 64, tuple(stored["transactions"]),
                               canonical.parse_millis(stored["committed_at"]))
    lines[2] = canonical.dumps(forged.to_obj())
    path.write_bytes(b"\n".join(lines))
    assert registered.verify_chain() == 2
    with pytest.raises(CorruptLedger, match="block 2") as caught:
        Ledger(tmp_path / "ledger")
    assert caught.value.height == 2


# -- wire service --------------------------------------------------------------


class DirectRequester:
    """RequestClient that calls the service handler in-process."""

    def __init__(self, service):
        self.service = service

    def request(self, dest, payload, timeout_ms=10_000, label=""):
        return self.service.handle("test", payload)


def test_service_roundtrip(tmp_path, node_key):
    ledger = Ledger(tmp_path / "ledger", genesis_at_ms=T0)
    service = LedgerService(ledger, clock=lambda: T0 + 5)
    client = LedgerClient(DirectRequester(service), "ledger",
                          channel_name="chan-1", chaincode_name="cc-1")
    assert client.register_device(identity_of(node_key)) == "ok"
    envelope, report = env_for(node_key, 0)
    verdicts = client.add_events([envelope])
    assert verdicts[0].status == "committed"
    assert verdicts[0].report_id == report.report_id
    assert client.get_event(report.report_id) == report
    assert client.get_event("missing") is None
    assert [r.report_id for r in client.get_recent(device_id="node-1")] == [report.report_id]
    assert client.verify_chain() is None


def test_service_echoes_channel_names(tmp_path, node_key):
    import json

    ledger = Ledger(tmp_path / "ledger", genesis_at_ms=T0)
    service = LedgerService(ledger, clock=lambda: T0)
    request = json.dumps({
        "op": "VerifyChain", "args": {},
        "channel_name": "my-channel", "chaincode_name": "my-cc",
    }).encode()
    response = json.loads(service.handle("x", request).decode())
    assert response["ok"] is True
    assert response["channel_name"] == "my-channel"
    assert response["chaincode_name"] == "my-cc"


def test_zero_hash_genesis_chain(tmp_path):
    ledger = Ledger(tmp_path / "l", genesis_at_ms=T0)
    raw = (tmp_path / "l" / "blocks.journal").read_bytes()
    first = canonical.loads(raw.split(b"\n")[0])
    assert first["prev_hash"] == ZERO_HASH
    assert first["height"] == 0
