import base64
import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ambox import canonical
from ambox.envelope import (
    InvalidReport,
    KeyMismatch,
    MalformedEnvelope,
    MalformedKey,
    SignedEnvelope,
    canonicalize,
    canonicalize_reading,
    sign,
    sign_reading_envelope,
    verify,
    verify_reading_signature,
)
from ambox.model import EventReport, SensorReading
from ambox.storage import load_private_key, save_private_key

from conftest import T0, make_reading, make_report


def test_canonicalize_field_order_independent():
    report = make_report()
    obj_a = report.to_obj()
    obj_b = {k: obj_a[k] for k in reversed(list(obj_a))}
    assert canonical.dumps(obj_a) == canonical.dumps(obj_b)


def test_canonicalize_roundtrip():
    report = make_report(n_readings=5)
    parsed = EventReport.from_obj(canonical.loads(canonicalize(report)))
    assert parsed == report


def test_canonicalize_numeric_normalization():
    r1 = make_report()
    readings = tuple(
        SensorReading(r.quantity, float(f"{r.value:.2f}"), r.sampled_at, r.source_device)
        for r in r1.readings
    )
    r2 = EventReport(r1.report_id, r1.device_id, r1.product_id, r1.batch_no,
                     r1.created_at, readings)
    # 20.00 parses to the same float as 20.0; canonical bytes must agree.
    assert canonicalize(r1) == canonicalize(r2)


def test_canonicalize_rejects_invalid_report():
    report = make_report()
    bad = EventReport(report.report_id, report.device_id, report.product_id,
                      report.batch_no, report.created_at, ())
    with pytest.raises(InvalidReport):
        canonicalize(bad)


def test_canonicalize_injective_over_corpus():
    # No two distinct reports may share canonical bytes.
    rng = random.Random(7)
    seen = {}
    for i in range(300):
        report = make_report(
            report_id=f"node-1-{T0 + i}-{i:08x}",
            created_at=T0 + 600_000 + i * 1000,
            n_readings=1 + rng.randrange(4),
        )
        digest = hashlib.sha256(canonicalize(report)).hexdigest()
        assert digest not in seen or seen[digest] == report
        seen[digest] = report
    assert len(seen) == 300


def test_sign_verify_roundtrip(node_key):
    report = make_report()
    envelope = sign(node_key, report)
    assert verify(node_key.public_pem, envelope) is True


def test_verify_wrong_key_false(node_key, other_key):
    envelope = sign(node_key, make_report())
    assert verify(other_key.public_pem, envelope) is False


def test_sign_requires_matching_device(node_key):
    report = make_report(device="node-2", report_id="node-2-1-aa")
    with pytest.raises(KeyMismatch):
        sign(node_key, report)


def test_tampered_field_fails_verification(node_key):
    report = make_report()
    envelope = sign(node_key, report)
    obj = canonical.loads(envelope.payload)
    obj["readings"][0]["value"] += 1.0
    tampered = SignedEnvelope(canonical.dumps(obj), envelope.signature, envelope.signer)
    assert verify(node_key.public_pem, tampered) is False


def test_single_byte_mutation_oracle(node_key):
    # Exhaustive over byte positions across a 100-report corpus: flip one bit
    # at every position; verification must fail at each.
    pub = node_key.public_key
    for i in range(100):
        report = make_report(report_id=f"node-1-{T0+i}-{i:08x}", n_readings=2,
                             created_at=T0 + 600_000 + i)
        envelope = sign(node_key, report)
        payload = envelope.payload
        for pos in range(len(payload)):
            mutated = payload[:pos] + bytes([payload[pos] ^ 0x01]) + payload[pos + 1:]
            assert verify(pub, SignedEnvelope(mutated, envelope.signature, envelope.signer)) is False


def test_random_byte_substitution_oracle(node_key):
    rng = random.Random(99)
    report = make_report()
    envelope = sign(node_key, report)
    pub = node_key.public_key
    for _ in range(200):
        pos = rng.randrange(len(envelope.payload))
        new = rng.randrange(256)
        if new == envelope.payload[pos]:
            continue
        mutated = envelope.payload[:pos] + bytes([new]) + envelope.payload[pos + 1:]
        assert verify(pub, SignedEnvelope(mutated, envelope.signature, envelope.signer)) is False


def test_truncated_envelope_is_malformed(node_key):
    wire = sign(node_key, make_report()).to_wire_obj()
    # A truncated field or a missing one must surface as malformation,
    # never as a (false) verification verdict.
    for field in ("payload_b64", "signature_b64"):
        for cut in (0, 1, len(wire[field]) - 1):
            with pytest.raises(MalformedEnvelope):
                SignedEnvelope.from_wire_obj({**wire, field: wire[field][:cut]})
    for field in wire:
        with pytest.raises(MalformedEnvelope):
            SignedEnvelope.from_wire_obj({k: v for k, v in wire.items() if k != field})
    with pytest.raises(MalformedEnvelope, match="signer must be a non-empty string"):
        SignedEnvelope.from_wire_obj({**wire, "signer": ""})


def test_empty_payload_is_malformed(node_key):
    envelope = sign(node_key, make_report())
    with pytest.raises(MalformedEnvelope):
        verify(node_key.public_pem, SignedEnvelope(b"", envelope.signature, envelope.signer))
    with pytest.raises(MalformedEnvelope):
        verify(node_key.public_pem, SignedEnvelope(envelope.payload, b"", envelope.signer))


def test_malformed_key_distinct(node_key):
    envelope = sign(node_key, make_report())
    with pytest.raises(MalformedKey):
        verify("not a pem", envelope)


def test_envelope_wire_roundtrip(node_key):
    envelope = sign(node_key, make_report())
    again = SignedEnvelope.from_wire_obj(json.loads(json.dumps(envelope.to_wire_obj())))
    assert again == envelope


def test_envelope_wire_rejects_bad_base64():
    with pytest.raises(MalformedEnvelope):
        SignedEnvelope.from_wire_obj(
            {"payload_b64": "!!!", "signature_b64": "AAAA", "signer": "x"}
        )


@settings(max_examples=200, deadline=None)
@given(data=st.binary(min_size=1, max_size=8), low_bits=st.integers(0, 15))
def test_envelope_wire_takes_base64_in_its_one_spelling(data, low_bits):
    # Strict decoding ignores the unused bits of the digit before the
    # padding ("AB==" reads as "AA=="); only b64encode's spelling is taken.
    spelled = base64.b64encode(data).decode("ascii")
    wire = {"payload_b64": spelled, "signature_b64": spelled, "signer": "x"}
    assert SignedEnvelope.from_wire_obj(wire).payload == data
    padding = len(spelled) - len(spelled.rstrip("="))
    if padding == 0:
        return
    digits = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    at = len(spelled) - padding - 1
    unused = low_bits & (0x0F if padding == 2 else 0x03)
    respelled = spelled[:at] + digits[digits.index(spelled[at]) | unused] + spelled[at + 1:]
    assert base64.b64decode(respelled, validate=True) == data
    for field in ("payload_b64", "signature_b64"):
        if unused:
            with pytest.raises(MalformedEnvelope, match="canonical spelling"):
                SignedEnvelope.from_wire_obj({**wire, field: respelled})
        else:
            assert SignedEnvelope.from_wire_obj({**wire, field: respelled}).payload == data


def test_envelope_wire_takes_base64_only_as_a_string():
    with pytest.raises(MalformedEnvelope, match="must be a string"):
        SignedEnvelope.from_wire_obj({"payload_b64": b"AA==", "signature_b64": "AA==",
                                      "signer": "x"})


def signed_reading(keypair, reading):
    """The reading with its sampler's signature attached, as a node relays it."""
    envelope = sign_reading_envelope(keypair, reading)
    return reading._replace(signature_b64=base64.b64encode(envelope.signature).decode("ascii"))


def test_reading_signature_roundtrip(mote_key):
    reading = make_reading(device="mote-1")
    # The signature covers the core fields only.
    assert sign_reading_envelope(mote_key, reading).payload == canonicalize_reading(reading)
    signed = signed_reading(mote_key, reading)
    assert verify_reading_signature(mote_key.public_pem, signed) is True


def test_reading_signature_detects_change(mote_key):
    signed = signed_reading(mote_key, make_reading(device="mote-1"))
    bumped = SensorReading(signed.quantity, signed.value + 0.5, signed.sampled_at,
                           signed.source_device, signed.signature_b64)
    assert verify_reading_signature(mote_key.public_pem, bumped) is False


def test_key_file_roundtrip(tmp_path, node_key):
    path = tmp_path / "key.pem"
    save_private_key(path, node_key)
    assert (path.stat().st_mode & 0o777) == 0o600
    loaded = load_private_key(path, "node-1")
    envelope = sign(loaded, make_report())
    assert verify(node_key.public_pem, envelope) is True
