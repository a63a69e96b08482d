import ast
import base64
import gc
import hashlib
import http.client
import itertools
import json
import logging
import mmap
import os
import random
import re
import sys
import tempfile
import threading
import tracemalloc
import zlib
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding
from hypothesis import given, settings, strategies as st

from ambox import canonical
from ambox import ledger as ledger_module
from ambox import model as model_module
from ambox.envelope import KeyPair, MalformedKey, SignedEnvelope, sign
from ambox.http_api import shim_server_handler
from ambox.ledger import (
    BLOCKS_FILE,
    AlreadyRegistered,
    CorruptLedger,
    Ledger,
    LedgerBlock,
    LedgerClient,
    LedgerClientError,
    LedgerService,
    REASON_BAD_SIGNATURE,
    REASON_INVALID_REPORT,
    REASON_MALFORMED,
    REASON_UNKNOWN_SIGNER,
    ZERO_HASH,
    report_id_of,
)
from ambox.model import DeviceIdentity, DeviceKind, EventReport, ModelError, decode_report
from ambox.node import NodeAgent
from ambox.runtime import RealRuntime
from ambox.storage import CheckedLog
from ambox.transport.http import HttpServer
from ambox.transport.tcp import FrameServer, TcpRequestClient

from conftest import T0, make_report

# A file, ledger or buffer left open fails its test, not just warns: a leak
# is reported while the object is collected, as an unraisable exception.
pytestmark = pytest.mark.filterwarnings("error::ResourceWarning",
                                        "error::pytest.PytestUnraisableExceptionWarning")


def identity_of(key, kind=DeviceKind.NODE) -> DeviceIdentity:
    return DeviceIdentity(key.device_id, kind, key.public_pem)


@pytest.fixture()
def opened():
    """`opened(directory, ...)` is `Ledger(directory, ...)`, closed when the test ends."""
    ledgers = []

    def open_ledger(directory, **kwargs):
        ledgers.append(Ledger(directory, **kwargs))
        return ledgers[-1]

    yield open_ledger
    for ledger in ledgers:
        ledger.close()


@pytest.fixture()
def ledger(opened, tmp_path):
    return opened(tmp_path / "ledger", genesis_at_ms=T0)


@pytest.fixture()
def registered(ledger, node_key):
    ledger.register_device(identity_of(node_key))
    return ledger


def stored_report(ledger, report_id):
    """The report stored under `report_id`, decoded from its signed bytes."""
    payload_b64 = ledger.get_event_payload(report_id)
    return None if payload_b64 is None else decode_report(base64.b64decode(payload_b64))


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
    assert stored_report(registered, obj["report_id"]) is None


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
    assert stored_report(registered, report.report_id) == report


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
    created = [s.report.created_at for s in recent]
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
    reports = [s.report for s in registered.get_recent(device_id="node-1", limit=100)]
    oracle = sorted(reports, key=lambda r: (-r.created_at, r.report_id))
    assert reports == oracle
    assert [r.report_id for r in reports] == sorted(r.report_id for r in reports)


def test_get_recent_no_match_empty(registered):
    assert registered.get_recent(device_id="ghost", limit=3) == []


_ORACLE_BATCHES = ("B-1", "B-2", "B-3")


def _brute_force_recent(reports, device, batch, limit):
    return sorted(
        (r for r in reports
         if (device is None or r.device_id == device) and (batch is None or r.batch_no == batch)),
        key=lambda r: (-r.created_at, r.report_id),
    )[:limit]


def windows(reports) -> set[str]:
    """The ids of the reports in some GetRecent window: the newest
    `RECENT_WINDOW` of a device's reports or of a batch's."""
    lists = {(r.device_id, None) for r in reports} | {(None, r.batch_no) for r in reports}
    return {r.report_id for device, batch in lists
            for r in _brute_force_recent(reports, device, batch, ledger_module.RECENT_WINDOW)}


def held(ledger) -> set[str]:
    """The ids of the reports whose signed bytes `ledger` holds, read off
    its GetRecent lists, where only the last `RECENT_WINDOW` entries of a
    list, or all of a shorter one, carry them, each the bytes of its own
    report as committed."""
    ids = set()
    for lists in (ledger._recent_by_device, ledger._recent_by_batch):
        for entries in lists.values():
            window = max(len(entries) - ledger_module.RECENT_WINDOW, 0)
            assert [len(entry) for entry in entries] == [2] * window + [3] * (len(entries) - window)
            for _, report_id, signed in entries[window:]:
                assert signed == (report_id, base64.b64decode(ledger.get_event_payload(report_id)))
                ids.add(report_id)
    return ids


@settings(max_examples=25, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from(_ORACLE_BATCHES), st.integers(0, 9),
                  st.integers(0, 10_000)),
        min_size=3 * ledger_module.RECENT_WINDOW + 1, max_size=4 * ledger_module.RECENT_WINDOW,
        unique_by=lambda spec: spec[3],
    ),
    cuts=st.lists(st.integers(1, 6), min_size=1, max_size=4),
)
def test_get_recent_matches_brute_force(node_key, other_key, specs, cuts):
    # created_at takes few values, so ties broken by report id are common;
    # reports arrive out of created_at order over several blocks, more than
    # three windows' worth over two devices and three batches, so lists
    # outgrow their windows and entries are pushed out of them. 1-2 s on a
    # 2-vCPU machine.
    keys = (node_key, other_key)
    envelopes, reports = [], []
    for device, batch, created, serial in specs:
        key = keys[device]
        base = make_report(device=key.device_id, report_id=f"r-{serial:05d}",
                           created_at=T0 + 600_000 + created * 1000, n_readings=1)
        report = EventReport(base.report_id, base.device_id, base.product_id, batch,
                             base.created_at, base.readings)
        envelopes.append(sign(key, report))
        reports.append(report)
    queries = [(device, batch, limit)
               for device in (None, "node-1", "node-2", "ghost")
               for batch in (None,) + _ORACLE_BATCHES
               for limit in (1, 5, ledger_module.RECENT_WINDOW, ledger_module.RECENT_WINDOW + 1,
                             100)]
    with tempfile.TemporaryDirectory() as directory:
        ledger = Ledger(directory, genesis_at_ms=T0)
        for key in keys:
            ledger.register_device(identity_of(key))
        start = 0
        for cut in cuts * len(envelopes):
            if start >= len(envelopes):
                break
            ledger.add_events(envelopes[start:start + cut], T0 + start)
            start += cut
            assert held(ledger) == windows(reports[:start])
        reopened = Ledger(directory)
        assert held(reopened) == windows(reports)
        for device, batch, limit in queries:
            expected = _brute_force_recent(reports, device, batch, limit)
            for answering in (ledger, reopened):
                stored = answering.get_recent(device_id=device, batch_no=batch, limit=limit)
                assert [s.report for s in stored] == expected
        reopened.close()
        ledger.close()


def test_get_recent_non_string_filter_matches_nothing(registered, node_key):
    registered.add_events([env_for(node_key, 0)[0]], T0)
    service = LedgerService(registered, clock=lambda: T0)
    request = json.dumps({"op": "GetRecent", "args": {"device_id": ["node-1"]}}).encode()
    assert json.loads(service.handle("x", request)) == {"ok": True, "result": {"reports": []}}


def _one_dump_answer(payloads, echoes) -> bytes:
    """A GetRecent answer as one `json.dumps` of the whole answer, its
    reports array written as the texts of the signed payloads."""
    text = json.dumps({"ok": True, "result": {"reports": None}, **echoes}, sort_keys=True)
    head, _, tail = text.rpartition("null")         # "result" is the last key
    reports = ", ".join(payload.decode("utf-8") for payload in payloads)
    return f"{head}[{reports}]{tail}".encode("utf-8")


def _get_recent_request(device, batch, limit, echoes=None) -> bytes:
    args = {key: value for key, value in
            (("device_id", device), ("batch_no", batch), ("limit", limit)) if value is not None}
    return json.dumps({"op": "GetRecent", "args": args, **(echoes or {})}).encode("utf-8")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=25, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from(_ORACLE_BATCHES), st.integers(0, 4),
                  st.integers(0, 10_000), st.floats(-1e9, 1e9, allow_nan=False),
                  st.text(min_size=1, max_size=6)),
        min_size=1, max_size=8, unique_by=lambda spec: spec[3],
    ),
    cuts=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    queries=st.lists(
        st.tuples(st.sampled_from((None, "node-1", "node-2", "ghost")),
                  st.sampled_from((None,) + _ORACLE_BATCHES), st.none() | st.integers(1, 12),
                  st.fixed_dictionaries({}, optional={"channel_name": _JSON_VALUES,
                                                      "chaincode_name": _JSON_VALUES})),
        min_size=1, max_size=5,
    ),
)
def test_get_recent_answers_are_the_bytes_of_one_dump(node_key, other_key, specs, cuts, queries):
    keys = (node_key, other_key)
    envelopes, reports = [], []
    for device, batch, created, serial, value, product in specs:
        key = keys[device]
        base = make_report(device=key.device_id, report_id=f"r-{serial:05d}",
                           created_at=T0 + 600_000 + created * 1000, n_readings=2)
        readings = (base.readings[0]._replace(value=value),) + base.readings[1:]
        report = EventReport(base.report_id, base.device_id, product, batch,
                             base.created_at, readings)
        envelopes.append(sign(key, report))
        reports.append(report)
    with tempfile.TemporaryDirectory() as directory:
        ledger = Ledger(directory, genesis_at_ms=T0)
        for key in keys:
            ledger.register_device(identity_of(key))
        start = 0
        for cut in cuts * len(envelopes):
            if start >= len(envelopes):
                break
            ledger.add_events(envelopes[start:start + cut], T0 + start)
            start += cut
        service = LedgerService(ledger, clock=lambda: T0)
        reopened = LedgerService(Ledger(directory), clock=lambda: T0)
        payloads = {r.report_id: e.payload for r, e in zip(reports, envelopes)}
        for device, batch, limit, echoes in queries:
            request = _get_recent_request(device, batch, limit, echoes)
            expected = _one_dump_answer(
                [payloads[r.report_id] for r in
                 _brute_force_recent(reports, device, batch, 10 if limit is None else limit)],
                {name: json.loads(request)[name] for name in echoes})
            # First ask, repeated ask, and first ask of the reopened ledger.
            assert service.handle("x", request) == expected
            assert service.handle("x", request) == expected
            assert reopened.handle("x", request) == expected
        ledger.close()
        reopened.ledger.close()


def test_get_recent_over_tcp_beside_add_events_matches_a_height(tmp_path, node_key, other_key):
    keys = (node_key, other_key)
    reports, envelopes = [], []
    for i in range(30):
        key = keys[i % 2]
        # created_at runs against commit order now and then, so a new block
        # can land in the middle of an answer's order.
        base = make_report(device=key.device_id, report_id=f"r-{i:03d}",
                           created_at=T0 + 600_000 + (i * 7 % 11) * 1000, n_readings=3)
        report = EventReport(base.report_id, base.device_id, base.product_id,
                             _ORACLE_BATCHES[i % 3], base.created_at, base.readings)
        reports.append(report)
        envelopes.append(sign(key, report))
    ledger = Ledger(tmp_path / "ledger", genesis_at_ms=T0)
    for key in keys:
        ledger.register_device(identity_of(key))
    base_height = ledger.height
    server = FrameServer("127.0.0.1", 0, LedgerService(ledger, clock=lambda: T0).handle)
    dest = f"127.0.0.1:{server.port}"
    writer_client, reader = TcpRequestClient(), TcpRequestClient()
    queries = [(device, batch, limit) for device in (None, "node-1", "node-2")
               for batch in (None, "B-2") for limit in (1, 3, 40)]
    payloads = {r.report_id: e.payload for r, e in zip(reports, envelopes)}
    errors = []

    def write():
        try:
            client = LedgerClient(writer_client, dest)
            for envelope in envelopes:
                assert client.add_events([envelope])[0].status == "committed"
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    writer = threading.Thread(target=write)
    try:
        writer.start()
        asked = 0
        while writer.is_alive() or asked < len(queries):
            device, batch, limit = queries[asked % len(queries)]
            asked += 1
            low = ledger.height - base_height
            answer = reader.request(dest, _get_recent_request(device, batch, limit), 5000)
            high = ledger.height - base_height
            # One report per block: at height base + h the first h are committed.
            assert answer in {_one_dump_answer(
                [payloads[r.report_id] for r in _brute_force_recent(reports[:h], device, batch,
                                                                    limit)], {})
                for h in range(low, high + 1)}
        writer.join(timeout=30)
        assert not writer.is_alive() and errors == []
    finally:
        sys.setswitchinterval(switch_interval)
        writer_client.close()
        reader.close()
        server.shutdown()
        ledger.close()
    assert ledger.height - base_height == len(envelopes)


def out_of_form_envelopes(key) -> dict[str, SignedEnvelope]:
    """Payloads the judge accepts that are not `canonical.dumps(report.to_obj())`,
    by the way each differs from it."""
    forms = {}
    for i, form in enumerate(("extra-key", "integer-value", "null-signature", "nan-extra-key",
                              "spaced")):
        obj = make_report(device=key.device_id, report_id=f"{key.device_id}-{form}",
                          created_at=T0 + 700_000 + i * 1000).to_obj()
        if form == "extra-key":
            obj["note"] = "x"
        elif form == "integer-value":
            obj["readings"][0]["value"] = 21
        elif form == "null-signature":
            obj["readings"][0]["signature_b64"] = None
        elif form == "nan-extra-key":
            obj["note"] = float("nan")
        # `json.dumps` writes NaN, and spaces the keys in the order given.
        payload = (json.dumps(obj).encode("utf-8") if form in ("nan-extra-key", "spaced")
                   else canonical.dumps(obj))
        forms[form] = signed_payload(key, payload)
    return forms


def test_each_get_recent_report_is_the_payload_get_event_returns(registered, node_key,
                                                                 tmp_path, opened):
    out_of_form = out_of_form_envelopes(node_key)
    registered.add_events([env_for(node_key, i)[0] for i in range(3)], T0)
    registered.add_events(list(out_of_form.values()), T0 + 1)
    requests = [_get_recent_request(device, batch, limit) for device in (None, "node-1")
                for batch in (None, "B-2024-018") for limit in (2, 10)]
    answered = set()

    def assert_signed(ask):
        for request in requests:
            answer = ask(request)
            ids = [r["report_id"] for r in json.loads(answer)["result"]["reports"]]
            events = [json.loads(ask(json.dumps({"op": "GetEvent", "args": {"report_id": i}})
                                     .encode()))["result"] for i in ids]
            payloads = [base64.b64decode(event["payload_b64"]) for event in events]
            assert ids and answer == _one_dump_answer(payloads, {})
            answered.update(payloads)

    service = LedgerService(registered, clock=lambda: T0)
    assert_signed(lambda request: service.handle("x", request))        # first ask
    assert_signed(lambda request: service.handle("x", request))        # repeated ask
    server = FrameServer("127.0.0.1", 0, service.handle)
    client = TcpRequestClient()
    try:
        assert_signed(lambda request: client.request(f"127.0.0.1:{server.port}", request, 5000))
    finally:
        client.close()
        server.shutdown()
    reopened = LedgerService(opened(tmp_path / "ledger"), clock=lambda: T0)
    assert_signed(lambda request: reopened.handle("x", request))
    assert {e.payload for e in out_of_form.values()} <= answered


def test_a_get_recent_answer_parses_no_payload(registered, node_key, monkeypatch):
    registered.add_events([env_for(node_key, i)[0] for i in range(3)], T0)
    registered.add_events(list(out_of_form_envelopes(node_key).values()), T0 + 1)
    parsed = []

    def recording(parse):
        def recorded(data):
            parsed.append(data)
            return parse(data)
        return recorded

    monkeypatch.setattr(canonical, "loads", recording(canonical.loads))
    monkeypatch.setattr(ledger_module, "decode_report", recording(decode_report))
    monkeypatch.setattr(model_module, "decode_report", recording(decode_report))
    service = LedgerService(registered, clock=lambda: T0)
    for _ in range(2):
        answer = service.handle("x", _get_recent_request(None, None, 10))
        assert len(json.loads(answer)["result"]["reports"]) == 8
    assert parsed == []


def test_the_client_decodes_an_out_of_form_report_as_its_payload(registered, node_key,
                                                                 tmp_path, opened):
    forms = out_of_form_envelopes(node_key)
    registered.add_events(list(forms.values()), T0)
    expected = [decode_report(forms[form].payload) for form in reversed(list(forms))]
    for ledger in (registered, opened(tmp_path / "ledger")):
        client = LedgerClient(DirectRequester(LedgerService(ledger, clock=lambda: T0)), "ledger")
        assert client.get_recent(device_id="node-1", limit=10) == expected


@pytest.mark.parametrize("report_id", [5, None, [1]], ids=["number", "null", "list"])
def test_get_event_refuses_a_non_string_report_id(registered, node_key, report_id):
    envelope, _ = env_for(node_key, 5)
    registered.add_events([envelope], T0)
    service = LedgerService(registered, clock=lambda: T0)
    request = json.dumps({"op": "GetEvent", "args": {"report_id": report_id}}).encode()
    answer = json.loads(service.handle("x", request))
    assert (answer["ok"], answer["error"]) == (False, "bad-args")


def test_get_event_answers_a_string_report_id(registered, node_key):
    envelope, report = env_for(node_key, 5)
    registered.add_events([envelope], T0)
    service = LedgerService(registered, clock=lambda: T0)

    def get_event(report_id):
        request = json.dumps({"op": "GetEvent", "args": {"report_id": report_id}}).encode()
        return json.loads(service.handle("x", request))

    assert get_event(report.report_id) == {"ok": True, "result": {
        "found": True, "payload_b64": base64.b64encode(envelope.payload).decode("ascii")}}
    assert get_event("5") == {"ok": True, "result": {"found": False}}


def test_get_event_answers_are_the_bytes_of_one_dump_live_and_reopened(
        registered, node_key, tmp_path):
    sent = [env_for(node_key, i)[0] for i in range(3)]
    registered.add_events([sent[0], sent[1].to_wire_obj()], T0)
    registered.add_events([sent[2]], T0 + 1)
    live = LedgerService(registered, clock=lambda: T0)
    reopened = LedgerService(Ledger(tmp_path / "ledger"), clock=lambda: T0)
    for envelope in sent:
        request = {"op": "GetEvent", "args": {"report_id": report_id_of(envelope)},
                   "channel_name": "ch\u00e9", "chaincode_name": "cc"}
        expected = canonical.wire_dumps({
            "ok": True, "channel_name": "ch\u00e9", "chaincode_name": "cc",
            "result": {"found": True, "payload_b64": envelope.to_wire_obj()["payload_b64"]}})
        raw = json.dumps(request).encode()
        assert live.handle("x", raw) == reopened.handle("x", raw) == expected
    reopened.ledger.close()


def test_world_state_replay_matches(registered, node_key, tmp_path):
    for i in range(4):
        envelope, _ = env_for(node_key, i)
        registered.add_events([envelope], T0 + i)
    live = registered.world_state_bytes()
    replayed = Ledger(tmp_path / "ledger")
    assert replayed.world_state_bytes() == live
    replayed.close()


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


def block_obj(block: LedgerBlock) -> dict:
    return {
        "block_hash": block.block_hash,
        "height": block.height,
        "prev_hash": block.prev_hash,
        "transactions": list(block.transactions),
        "committed_at": canonical.format_millis(block.committed_at),
    }


def test_stored_lines_are_the_canonical_block_encoding(registered, node_key, tmp_path):
    for i in range(3):
        registered.add_events([env_for(node_key, j)[0] for j in range(i, 2 * i + 1)], T0 + i)
    raw = (tmp_path / "ledger" / "blocks.journal").read_bytes()
    lines = raw.splitlines(keepends=True)
    blocks = registered.blocks()
    assert len(lines) == len(blocks) == 4
    for line, block in zip(lines, blocks):
        assert line == canonical.dumps(block_obj(block)) + b"\n"
    # Non-ASCII text in a transaction goes into the line as UTF-8.
    tx = {"signer": "n\u0153ud-\u2603"}
    block_hash, line = LedgerBlock.encode(7, ZERO_HASH, (canonical.dumps(tx).decode(),), T0)
    block = LedgerBlock(7, ZERO_HASH, (tx,), T0, block_hash)
    assert line == canonical.dumps(block_obj(block)) + b"\n"


def test_whitespace_edit_is_caught_at_its_height(registered, node_key, tmp_path, opened):
    for i in range(4):
        registered.add_events([env_for(node_key, i)[0]], T0 + i)
    registered.close()
    path = tmp_path / "ledger" / "blocks.journal"
    pristine = path.read_bytes()
    lines = pristine.split(b"\n")
    for height in range(registered.height + 1):
        # One space after a key's colon: the line parses to the same block.
        edited = lines[height].replace(b'"height":', b'"height": ', 1)
        assert canonical.loads(edited) == canonical.loads(lines[height])
        path.write_bytes(b"\n".join(lines[:height] + [edited] + lines[height + 1:]))
        assert registered.verify_chain() == height
        with pytest.raises(CorruptLedger) as caught:
            opened(tmp_path / "ledger")
        assert caught.value.height == height
    path.write_bytes(pristine)
    assert opened(tmp_path / "ledger").verify_chain() is None


def test_unsigned_envelope_fields_are_not_committed(registered, node_key, tmp_path, opened):
    envelope, report = env_for(node_key, 0)
    verdicts = registered.add_events([{**envelope.to_wire_obj(), "note": "x" * 1000}], T0)
    assert verdicts[0].status == "committed" and not verdicts[0].replay
    assert registered.blocks()[-1].transactions == (envelope.to_wire_obj(),)
    raw = (tmp_path / "ledger" / "blocks.journal").read_bytes()
    assert b"note" not in raw and b"x" * 1000 not in raw
    assert stored_report(opened(tmp_path / "ledger"), report.report_id) == report


def test_a_wire_envelope_is_committed_as_received_in_its_one_spelling(
        registered, node_key, monkeypatch):
    envelope, report = env_for(node_key, 0)
    wire = envelope.to_wire_obj()
    # A 256-byte signature ends in "==": its last digit has 4 unused bits.
    digits = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    signature = wire["signature_b64"]
    respelled = signature[:-3] + digits[digits.index(signature[-3]) | 1] + "=="
    assert base64.b64decode(respelled, validate=True) == envelope.signature
    monkeypatch.setattr(SignedEnvelope, "to_wire_obj", None)  # nothing is encoded again
    verdicts = registered.add_events([{**wire, "signature_b64": respelled}, wire], T0)
    assert [(v.status, v.reason) for v in verdicts] == [("rejected", REASON_MALFORMED),
                                                        ("committed", None)]
    assert registered.blocks()[-1].transactions == (wire,)
    assert registered.get_event_payload(report.report_id) == wire["payload_b64"]


def test_an_unsigned_nan_does_not_sink_its_batch(registered, node_key):
    service = LedgerService(registered, clock=lambda: T0)
    (first, first_report), (second, second_report) = env_for(node_key, 0), env_for(node_key, 1)
    envelopes = [{**first.to_wire_obj(), "note": float("nan")}, second.to_wire_obj()]
    request = json.dumps({"op": "AddEvents", "args": {"envelopes": envelopes}}).encode()
    answer = json.loads(service.handle("x", request))
    assert answer["ok"] is True
    assert [v["status"] for v in answer["result"]["verdicts"]] == ["committed", "committed"]
    assert registered.height == 1
    assert registered.blocks()[-1].transactions == (first.to_wire_obj(), second.to_wire_obj())
    assert {r.report_id for r in registered.all_reports()} == {first_report.report_id,
                                                                second_report.report_id}


def signed_payload(key, payload: bytes) -> SignedEnvelope:
    """An envelope over arbitrary bytes, as only a hostile signer would make."""
    signature = key.private_key.sign(payload, padding.PKCS1v15(), hashes.SHA256())
    return SignedEnvelope(payload, signature, key.device_id)


# The last two give the first reading a huge integer value and move its old
# value to a key nothing reads.
@pytest.mark.parametrize("payload", [
    b"[" * 100_000,
    canonical.dumps(make_report(device="node-1").to_obj()).replace(
        b'"value":', b'"value":1' + b"0" * 400 + b',"was":', 1),
    canonical.dumps(make_report(device="node-1").to_obj()).replace(
        b'"value":', b'"value":1' + b"0" * 5_000 + b',"was":', 1),
], ids=["deeply-nested", "overflowing-value", "overlong-value"])
def test_an_undecodable_signed_payload_is_an_invalid_report(registered, node_key, payload):
    good, good_report = env_for(node_key, 0)
    verdicts = registered.add_events([signed_payload(node_key, payload), good], T0)
    assert [(v.status, v.reason) for v in verdicts] == [
        ("rejected", REASON_INVALID_REPORT), ("committed", None)]
    assert stored_report(registered, good_report.report_id) == good_report


def _dict_router(method, path, body):
    return 200, {"keys": sorted((body or {}).keys())}


@pytest.mark.parametrize("server, request_bytes, error", [
    ("ledger", b"[]", "malformed-request"),
    ("ledger", b"[" * 100_000, "malformed-request"),
    ("ledger", b'{"op": "GetRecent", "args": [1]}', "malformed-request"),
    ("ledger", b'{"op": "VerifyChain", "args": []}', "malformed-request"),
    ("ledger", b'{"op": "VerifyChain", "args": 0}', "malformed-request"),
    ("ledger", b'{"op": "VerifyChain", "args": false}', "malformed-request"),
    ("ledger", b'{"op": "VerifyChain", "args": ""}', "malformed-request"),
    ("ledger", b'{"op": "AddEvents", "args": {"envelopes": 5}}', "bad-args"),
    ("ledger", b'{"op": "AddEvents", "args": {}}', "bad-args"),
    ("ledger", b'{"op": "GetRecent", "args": {"limit": 1e400}}', "bad-args"),
    ("ledger", b'{"op": "GetRecent", "args": {"limit": null}}', "bad-args"),
    ("shim", b"[]", "malformed-request"),
    ("shim", b'"x"', "malformed-request"),
    ("shim", b'{"method": "POST", "path": "/x", "body": [1]}', "malformed-request"),
    ("http", b"[1]", "malformed-request"),
    ("http", b"not json", "malformed-request"),
    ("http", b"\xff\xfe", "malformed-request"),
    ("http", b"[" * 100_000, "malformed-request"),
], ids=["ledger-root-array", "ledger-deeply-nested", "ledger-args-array",
        "ledger-args-empty-array", "ledger-args-zero", "ledger-args-false", "ledger-args-empty-string",
        "ledger-envelopes-number", "ledger-envelopes-missing", "ledger-limit-infinite",
        "ledger-limit-null", "shim-root-array", "shim-root-string", "shim-body-array",
        "http-root-array", "http-not-json", "http-not-utf8", "http-deeply-nested"])
def test_malformed_requests_get_an_error_answer(ledger, tmp_path, node_key, server,
                                                request_bytes, error):
    if server == "ledger":
        answer = json.loads(LedgerService(ledger, clock=lambda: T0).handle("x", request_bytes))
        assert (answer["ok"], answer["error"]) == (False, error)
    elif server == "shim":
        answer = json.loads(shim_server_handler(_dict_router)("x", request_bytes))
        assert (answer["status"], answer["body"]["error"]) == (400, error)
    else:
        node = NodeAgent(node_key, tmp_path / "node", RealRuntime(), heartbeat_caller=None,
                         ledger_requester=None, make_dest=None, sensor_factory=None)
        http_server = HttpServer("127.0.0.1", 0, node.router)
        conn = http.client.HTTPConnection("127.0.0.1", http_server.port, timeout=10)
        try:
            conn.request("POST", "/configHeartbeat", body=request_bytes)
            response = conn.getresponse()
            answer = json.loads(response.read())
        finally:
            conn.close()
            http_server.shutdown()
            node.buffer.close()
        assert (response.status, answer) == (400, {"error": error})


@pytest.mark.parametrize("request_bytes", [b'{"op": "VerifyChain"}',
                                           b'{"op": "VerifyChain", "args": null}'],
                         ids=["missing", "null"])
def test_missing_or_null_args_mean_no_arguments(ledger, request_bytes):
    answer = json.loads(LedgerService(ledger, clock=lambda: T0).handle("x", request_bytes))
    assert answer == {"ok": True, "result": {"intact": True, "first_broken_height": None}}


def test_blocks_survive_restart(registered, node_key, tmp_path, opened):
    for i in range(3):
        envelope, _ = env_for(node_key, i)
        registered.add_events([envelope], T0 + i)
    reopened = opened(tmp_path / "ledger")
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
    _, forged = LedgerBlock.encode(2, "1" * 64,
                                   [canonical.dumps(tx).decode() for tx in stored["transactions"]],
                                   canonical.parse_millis(stored["committed_at"]))
    lines[2] = forged.rstrip(b"\n")
    path.write_bytes(b"\n".join(lines))
    assert registered.verify_chain() == 2
    with pytest.raises(CorruptLedger, match="block 2") as caught:
        Ledger(tmp_path / "ledger")
    assert caught.value.height == 2


def test_replay_refuses_a_linked_block_with_an_unreadable_transaction(ledger, tmp_path):
    # Hash and link are right, so only decoding the transaction exposes it.
    ledger.close()
    genesis = ledger.blocks()[0]
    _, line = LedgerBlock.encode(1, genesis.block_hash,
                                 (canonical.dumps({"signer": "node-1"}).decode(),), T0)
    path = tmp_path / "ledger" / "blocks.journal"
    path.write_bytes(path.read_bytes() + line)
    with pytest.raises(CorruptLedger, match="block 1") as caught:
        Ledger(tmp_path / "ledger")
    assert caught.value.height == 1


def rehashed(line: bytes) -> bytes:
    """A stored line, without its newline, with its `block_hash` made the hash
    of its core as it now stands: an edit of the core then reaches the parse."""
    core = line[ledger_module._CORE_START:]
    block_hash = hashlib.sha256(b"{" + core).hexdigest().encode("ascii")
    return ledger_module._HASH_PREFIX + block_hash + b'",' + core


@pytest.mark.parametrize("field, value", [
    ("height", b"Infinity"), ("height", b"-Infinity"), ("height", b"1e400"),
    ("height", b"true"), ("height", b"1.0"), ("height", b'"1"'),
    ("transactions", b'"ab"'), ("transactions", b"{}"), ("transactions", b"null"),
])
def test_a_linked_block_with_a_field_of_the_wrong_type_is_corrupt(ledger, tmp_path, field,
                                                                 value):
    # Hash and link are right, so only the field's JSON type exposes it.
    genesis = ledger.blocks()[0]
    _, line = LedgerBlock.encode(1, genesis.block_hash, (), T0)
    stored = {"height": b"1", "transactions": b"[]"}[field]
    edited = rehashed(line.rstrip(b"\n").replace(b'"%s":%s' % (field.encode(), stored),
                                                  b'"%s":%s' % (field.encode(), value)))
    path = tmp_path / "ledger" / BLOCKS_FILE
    path.write_bytes(path.read_bytes() + edited + b"\n")
    assert ledger.verify_chain() == 1
    request = json.dumps({"op": "VerifyChain"}).encode()
    answer = json.loads(LedgerService(ledger, clock=lambda: T0).handle("x", request))
    assert answer["result"] == {"intact": False, "first_broken_height": 1}
    message = f"block 1: unparseable block: {field} must be"
    with pytest.raises(CorruptLedger, match=message):
        ledger.blocks()
    ledger.close()
    with pytest.raises(CorruptLedger, match=message) as caught:
        Ledger(tmp_path / "ledger")
    assert caught.value.height == 1


# -- wire service --------------------------------------------------------------


class DirectRequester:
    """RequestClient that calls the service handler in-process."""

    def __init__(self, service):
        self.service = service

    def request(self, dest, payload, timeout_ms=10_000, label=""):
        return self.service.handle("test", payload)


def test_service_roundtrip(tmp_path, node_key, opened):
    ledger = opened(tmp_path / "ledger", genesis_at_ms=T0)
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


class RecordingRequester:
    """RequestClient that keeps every request's bytes and answers none of
    them well, so the call raises after sending."""

    def __init__(self):
        self.sent = []

    def request(self, dest, payload, timeout_ms=10_000, label=""):
        self.sent.append(payload)
        return b"{}"


@settings(max_examples=60, deadline=None)
@given(channel=st.text(max_size=12), chaincode=st.text(max_size=12),
       envelopes=st.lists(st.builds(SignedEnvelope, st.binary(min_size=1, max_size=300),
                                    st.binary(min_size=1, max_size=64),
                                    st.text(min_size=1, max_size=12)), max_size=4),
       report_id=st.text(max_size=12))
def test_requests_are_the_wire_dumps_of_the_request_object(channel, chaincode, envelopes,
                                                           report_id):
    requester = RecordingRequester()
    client = LedgerClient(requester, "ledger", channel_name=channel, chaincode_name=chaincode)
    for call in (lambda: client.add_events(envelopes), lambda: client.get_event(report_id)):
        with pytest.raises(LedgerClientError):
            call()
    names = {"channel_name": channel, "chaincode_name": chaincode}
    assert requester.sent == [
        canonical.wire_dumps({"op": "AddEvents", **names,
                              "args": {"envelopes": [e.to_wire_obj() for e in envelopes]}}),
        canonical.wire_dumps({"op": "GetEvent", **names, "args": {"report_id": report_id}}),
    ]


class CannedRequester:
    """RequestClient that answers every request with one fixed result, or
    with the bytes of `raw`."""

    def __init__(self, result=None, raw=None):
        self.answer = raw if raw is not None else _ok(result)

    def request(self, dest, payload, timeout_ms=10_000, label=""):
        return self.answer


def _ok(result) -> bytes:
    return json.dumps({"ok": True, "result": result}).encode("utf-8")


_REPORT = make_report()
_ENVELOPE = SignedEnvelope(payload=canonical.dumps(_REPORT.to_obj()), signature=b"sig",
                           signer="node-1")
_CALLS = {
    "register_device": lambda c: c.register_device(
        DeviceIdentity("node-1", DeviceKind.NODE, "pem")),
    "add_events": lambda c: c.add_events([_ENVELOPE]),
    "get_event": lambda c: c.get_event(_REPORT.report_id),
    "get_recent": lambda c: c.get_recent(device_id="node-1"),
    "verify_chain": lambda c: c.verify_chain(),
}


@pytest.mark.parametrize("op", sorted(_CALLS))
@pytest.mark.parametrize("raw", [
    b"not json", b"\xff\xfe", b"[1, 2]", b"null", b'{"ok": true}', b'{"ok": 1, "result": {}}',
    b'{"ok": true, "result": [1]}', b'{"ok": false, "error": "internal"}', _ok({}),
], ids=repr)
def test_client_refuses_a_misshapen_answer_to_any_op(op, raw):
    with pytest.raises(LedgerClientError):
        _CALLS[op](LedgerClient(CannedRequester(raw=raw), "ledger"))


@pytest.mark.parametrize("op,result", [
    ("register_device", {"registration": None}),
    ("get_event", {"found": True, "payload_b64": "abc"}),
    ("get_event", {"found": True, "payload_b64": 5}),
    ("get_event", {"found": True, "payload_b64": "@@@@"}),
    ("get_event", {"found": "no"}),
    ("get_recent", {"reports": None}),
    ("get_recent", {"reports": {"a": 1}}),
    ("verify_chain", {"intact": False, "first_broken_height": "3"}),
    ("verify_chain", {"intact": False, "first_broken_height": True}),
    ("verify_chain", {"intact": 0}),
    ("add_events", {"verdicts": None}),
    ("add_events", {"verdicts": [5]}),
    ("add_events", {"verdicts": [{"status": "maybe"}]}),
    ("add_events", {"verdicts": [{"status": "rejected", "reason": 5}]}),
    ("add_events", {"verdicts": [{"status": "committed", "report_id": _REPORT.report_id,
                                  "replay": "no"}]}),
], ids=repr)
def test_client_refuses_a_result_of_the_wrong_shape(op, result):
    with pytest.raises(LedgerClientError):
        _CALLS[op](LedgerClient(CannedRequester(result), "ledger"))


@pytest.mark.parametrize("verdicts", [
    [],
    [{"status": "committed", "report_id": _REPORT.report_id}] * 2,
    [{"status": "committed"}],
    [{"status": "committed", "report_id": "node-1-other"}],
    [{"status": "committed", "report_id": _REPORT.report_id[-8:]}],
    [{"status": "rejected", "report_id": "node-1-other", "reason": "invalid-report"}],
], ids=repr)
def test_add_events_needs_one_verdict_per_envelope_naming_its_report(verdicts):
    client = LedgerClient(CannedRequester({"verdicts": verdicts}), "ledger")
    with pytest.raises(LedgerClientError):
        client.add_events([_ENVELOPE])


@pytest.mark.parametrize("verdict", [
    {"status": "committed", "report_id": _REPORT.report_id},
    {"status": "committed", "report_id": _REPORT.report_id, "replay": True},
    {"status": "rejected", "reason": "signature-invalid"},
    {"status": "rejected", "report_id": _REPORT.report_id, "reason": "invalid-report"},
], ids=repr)
def test_add_events_takes_each_verdict_that_answers_its_envelope(verdict):
    client = LedgerClient(CannedRequester({"verdicts": [verdict]}), "ledger")
    assert [v.to_obj() for v in client.add_events([_ENVELOPE])] == [verdict]


def _parse_forbidden(envelope):
    raise AssertionError("the payload was parsed to find its report id")


@pytest.mark.parametrize("form", ["reordered", "non-ascii-id"])
def test_add_events_reads_the_report_id_of_a_payload_in_any_form(form, monkeypatch):
    obj = _REPORT.to_obj()
    if form == "reordered":
        report_id = obj.pop("report_id")
        payload = json.dumps({"report_id": report_id, **obj}, indent=1).encode()
    else:
        report_id = obj["report_id"] = "node-1-\u00e9t\u00e9-\"q\""
        payload = canonical.dumps(obj)
    envelope = SignedEnvelope(payload=payload, signature=b"sig", signer="node-1")
    named = {"status": "committed", "report_id": report_id}
    with monkeypatch.context() as patched:
        if form == "non-ascii-id":
            # A canonical payload ends with its id as canonical JSON spells
            # it, so its verdict is matched without a parse.
            patched.setattr(ledger_module, "report_id_of", _parse_forbidden)
        assert LedgerClient(CannedRequester({"verdicts": [named]}),
                            "ledger").add_events([envelope])
    other = LedgerClient(CannedRequester({"verdicts": [dict(named, report_id="node-1-other")]}),
                         "ledger")
    with pytest.raises(LedgerClientError):
        other.add_events([envelope])


def test_add_events_answers_with_the_wire_bytes_of_its_verdicts(registered, node_key, other_key,
                                                                 monkeypatch):
    ids = {"ascii": "node-1-plain", "non-ascii": "node-1-été-☃-\"q\""}
    committed, _ = env_for(node_key, 0)
    earlier, _ = env_for(node_key, 1)
    registered.add_events([earlier], T0)
    unicode = sign(node_key, make_report(report_id=ids["non-ascii"]))
    foreign, _ = env_for(other_key, 2)                       # its signer is not registered
    forged = SignedEnvelope(committed.payload, unicode.signature, "node-1")
    # Created before their readings were sampled: a broken report rule.
    late = {name: make_report(report_id=report_id, created_at=T0).to_obj()
            for name, report_id in ids.items()}
    envelopes = [
        committed, committed, earlier, unicode, unicode,
        {"signer": "node-1"}, foreign, forged,
        signed_payload(node_key, canonical.dumps(make_report(
            device="node-2", report_id="node-2-x").to_obj())),
        signed_payload(node_key, b"[1]"),
        signed_payload(node_key, canonical.dumps(late["ascii"])),
        signed_payload(node_key, canonical.dumps(late["non-ascii"])),
    ]
    told = []

    def recording(envelopes, received_at):
        verdicts = Ledger.add_events(registered, envelopes, received_at)
        told.extend(verdicts)
        return verdicts

    monkeypatch.setattr(registered, "add_events", recording)
    names = {"channel_name": "ch", "chaincode_name": "cc"}
    request = json.dumps({"op": "AddEvents", **names, "args": {"envelopes": [
        e if isinstance(e, dict) else e.to_wire_obj() for e in envelopes]}}).encode()
    answer = LedgerService(registered, clock=lambda: T0).handle("x", request)
    # The reference: the answer encoded as a whole, from each verdict's object.
    assert answer == canonical.wire_dumps(
        {"ok": True, **names, "result": {"verdicts": [v.to_obj() for v in told]}})
    assert [(v.status, v.reason, v.replay, v.report_id) for v in told] == [
        ("committed", None, False, committed_id := report_id_of(committed)),
        ("committed", None, True, committed_id),
        ("committed", None, True, report_id_of(earlier)),
        ("committed", None, False, ids["non-ascii"]),
        ("committed", None, True, ids["non-ascii"]),
        ("rejected", REASON_MALFORMED, False, None),
        ("rejected", REASON_UNKNOWN_SIGNER, False, None),
        ("rejected", REASON_BAD_SIGNATURE, False, None),
        ("rejected", REASON_BAD_SIGNATURE, False, "node-2-x"),
        ("rejected", REASON_INVALID_REPORT, False, None),
        ("rejected", REASON_INVALID_REPORT, False, ids["ascii"]),
        ("rejected", REASON_INVALID_REPORT, False, ids["non-ascii"]),
    ]


def reference_payload_spans(raw, start, end, payloads_b64):
    """The (offset, length) in the line `raw[start:end]` of each of its
    transactions' `payload_b64`, found by a search of the line: the value of
    the next `"payload_b64"` key. The oracle for the places the ledger
    knows without a search."""
    key = b'"payload_b64":"'
    spans = []
    at = start
    for payload_b64 in payloads_b64:
        text = payload_b64.encode("utf-8")
        at = raw.index(key, at, end) + len(key)
        assert raw.startswith(text + b'"', at, end)
        spans.append((at - start, len(text)))
        at += len(text)
    return spans


def test_the_payload_places_known_at_commit_are_where_a_search_finds_them(registered, node_key,
                                                                          tmp_path, opened):
    # A signer beyond ASCII takes more bytes in the line than characters.
    snowman = KeyPair("nœud-☃", node_key.private_key)
    registered.register_device(identity_of(snowman))
    for i in range(12):                       # heights of one and of two digits
        keys = [snowman, node_key, snowman][:1 + i % 3]
        registered.add_events([env_for(key, 10 * i + j)[0] for j, key in enumerate(keys)],
                              T0 + i)
    raw = registered._blocks_path.read_bytes()
    index_path = tmp_path / "ledger" / ledger_module.INDEX_FILE

    def placed_as_searched(ledger):
        index = CheckedLog(index_path)
        records = ledger_module._index_records(index.records())
        index.close()
        start = 0
        for block, record in zip(ledger.blocks(), records, strict=True):
            end = raw.index(b"\n", start)
            searched = reference_payload_spans(
                raw, start, end, [tx["payload_b64"] for tx in block.transactions])
            assert [tuple(row[4:]) for row in record.reports] == searched
            stored = [ledger._reports[report_id_of(SignedEnvelope.from_wire_obj(tx))]
                      for tx in block.transactions]
            assert [(s.offset - start, s.length) for s in stored] == searched
            start = end + 1
        assert ledger.height == 12 and start == len(raw)

    placed_as_searched(registered)            # at commit
    index_path.unlink()
    placed_as_searched(opened(tmp_path / "ledger"))   # on a replay that judges every line


def _nested(report: EventReport, levels: int, where: str) -> bytes:
    """The canonical payload of `report` with one more key, in the report or
    in its second reading, whose value is arrays nested so deep that the
    payload's value nests `levels` levels, the report object being the
    first."""
    obj = report.to_obj()
    holder, held = (obj, 1) if where == "report" else (obj["readings"][1], 3)
    value = 0
    for _ in range(levels - held):
        value = [value]
    holder["note"] = value
    return canonical.dumps(obj)


@pytest.mark.parametrize("where", ["report", "reading"])
def test_a_report_nested_past_the_bound_is_refused(registered, node_key, where):
    envelopes = [signed_payload(node_key, _nested(make_report(report_id=f"node-1-{levels}"),
                                                  levels, where))
                 for levels in (model_module.MAX_NESTING, model_module.MAX_NESTING + 1, 900)]
    verdicts = registered.add_events(envelopes, T0)
    assert [(v.status, v.reason, v.report_id) for v in verdicts] == [
        ("committed", None, "node-1-32"),
        ("rejected", REASON_INVALID_REPORT, "node-1-33"),
        ("rejected", REASON_INVALID_REPORT, "node-1-900"),
    ]


def test_a_committed_report_nested_past_the_bound_still_reopens(registered, node_key, tmp_path,
                                                                 opened):
    # Written by hand, as a ledger without the rule would have committed it.
    payload = _nested(make_report(report_id="node-1-deep"), 900, "report")
    envelope = signed_payload(node_key, payload)
    wire = envelope.to_wire_obj()
    registered.close()
    tip = registered.blocks()[-1]
    _, line = LedgerBlock.encode(tip.height + 1, tip.block_hash, (canonical.envelope_text(
        wire["payload_b64"], wire["signature_b64"], "node-1"),), T0)
    path = tmp_path / "ledger" / BLOCKS_FILE
    path.write_bytes(path.read_bytes() + line)
    reopened = opened(tmp_path / "ledger")
    assert reopened.height == tip.height + 1
    assert reopened.verify_chain() is None
    assert reopened.get_event_payload("node-1-deep") == wire["payload_b64"]


@pytest.mark.parametrize("fault", ["huge-value", "bad-timestamp"])
def test_client_raises_model_error_for_a_malformed_report(fault):
    obj = make_report().to_obj()
    if fault == "huge-value":
        obj["readings"][0]["value"] = 10**400        # no float holds it
    else:
        obj["created_at"] = "2024-13-01T00:00:00.000Z"
    recent = LedgerClient(CannedRequester({"reports": [obj]}), "ledger")
    with pytest.raises(ModelError):
        recent.get_recent(device_id="node-1")
    payload = json.dumps(obj, sort_keys=True).encode("utf-8")
    event = LedgerClient(CannedRequester(
        {"found": True, "payload_b64": base64.b64encode(payload).decode("ascii")}), "ledger")
    with pytest.raises(ModelError):
        event.get_event(obj["report_id"])


def test_service_echoes_channel_names(tmp_path, node_key, opened):
    import json

    ledger = opened(tmp_path / "ledger", genesis_at_ms=T0)
    service = LedgerService(ledger, clock=lambda: T0)
    request = json.dumps({
        "op": "VerifyChain", "args": {},
        "channel_name": "my-channel", "chaincode_name": "my-cc",
    }).encode()
    response = json.loads(service.handle("x", request).decode())
    assert response["ok"] is True
    assert response["channel_name"] == "my-channel"
    assert response["chaincode_name"] == "my-cc"


def test_zero_hash_genesis_chain(tmp_path, opened):
    ledger = opened(tmp_path / "l", genesis_at_ms=T0)
    raw = (tmp_path / "l" / "blocks.journal").read_bytes()
    first = canonical.loads(raw.split(b"\n")[0])
    assert first["prev_hash"] == ZERO_HASH
    assert first["height"] == 0


# -- the block log on disk ---------------------------------------------------------


def test_failed_block_append_leaves_the_log_as_it_was(registered, node_key, tmp_path,
                                                      fail_next_fsync, opened):
    registered.add_events([env_for(node_key, 0)[0]], T0)
    lost, lost_report = env_for(node_key, 1)
    fail_next_fsync()
    with pytest.raises(OSError):
        registered.add_events([lost], T0 + 1)
    assert registered.add_events([env_for(node_key, 2)[0]], T0 + 2)[0].status == "committed"
    assert registered.height == 2
    assert stored_report(registered, lost_report.report_id) is None
    assert registered.verify_chain() is None
    reopened = opened(tmp_path / "ledger")
    assert reopened.height == 2
    assert reopened.verify_chain() is None
    assert reopened.world_state_bytes() == registered.world_state_bytes()


def test_a_refused_genesis_append_leaves_no_file_open(tmp_path, fail_next_fsync, opened):
    # The block log, the index log and the reader are closed as the error
    # leaves the constructor; one left open fails the test as it is collected.
    fail_next_fsync()
    with pytest.raises(OSError, match="injected fsync failure"):
        Ledger(tmp_path / "ledger", genesis_at_ms=T0)
    gc.collect()
    ledger = opened(tmp_path / "ledger", genesis_at_ms=T0)
    assert ledger.height == 0 and ledger.verify_chain() is None


def test_a_block_is_never_appended_behind_a_torn_one(registered, node_key, tmp_path,
                                                    tear_next_write):
    registered.add_events([env_for(node_key, 0)[0]], T0)
    tear_next_write()
    with pytest.raises(OSError):
        registered.add_events([env_for(node_key, 1)[0]], T0 + 1)
    # The torn bytes stay on disk until the next append, and no audit reads them.
    assert registered.verify_chain() is None
    assert len(registered.blocks()) == 2
    assert registered.add_events([env_for(node_key, 2)[0]], T0 + 2)[0].status == "committed"
    assert registered.verify_chain() is None
    reopened = Ledger(tmp_path / "ledger")
    assert reopened.height == 2
    assert reopened.world_state_bytes() == registered.world_state_bytes()
    reopened.close()


def test_torn_final_block_is_dropped_at_open(registered, node_key, tmp_path):
    for i in range(2):
        registered.add_events([env_for(node_key, i)[0]], T0 + i)
    registered.close()
    path = tmp_path / "ledger" / "blocks.journal"
    pristine = path.read_bytes()
    last_start = pristine.rstrip(b"\n").rfind(b"\n") + 1
    extra = env_for(node_key, 7)[0]
    # Every cut of the last line, down to the one that loses only its newline.
    for cut in range(last_start, len(pristine)):
        path.write_bytes(pristine[:cut])
        ledger = Ledger(tmp_path / "ledger")
        assert ledger.height == 1
        assert path.read_bytes() == pristine[:last_start]
        assert ledger.add_events([extra], T0 + 7)[0].replay is False
        ledger.close()
        reopened = Ledger(tmp_path / "ledger")
        assert reopened.height == 2
        assert reopened.verify_chain() is None
        reopened.close()


def test_reports_from_before_1970_are_refused(registered, node_key):
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import padding

    service = LedgerService(registered, clock=lambda: T0)

    def call(op, args):
        return json.loads(service.handle("x", json.dumps({"op": op, "args": args}).encode()))

    good, good_report = env_for(node_key, 0)
    early = make_report(device="node-1", report_id="node-1-early").to_obj()
    early["created_at"] = "1969-12-31T23:59:59.000Z"
    for reading in early["readings"]:
        reading["sampled_at"] = "1969-12-31T23:59:00.000Z"
    payload = canonical.dumps(early)
    signature = node_key.private_key.sign(payload, padding.PKCS1v15(), hashes.SHA256())
    envelopes = [good.to_wire_obj(), SignedEnvelope(payload, signature, "node-1").to_wire_obj()]
    answer = call("AddEvents", {"envelopes": envelopes})
    assert [v["status"] for v in answer["result"]["verdicts"]] == ["committed", "rejected"]
    assert answer["result"]["verdicts"][1]["reason"] == REASON_INVALID_REPORT
    recent = call("GetRecent", {"device_id": "node-1"})
    assert recent["ok"] is True
    assert [r["report_id"] for r in recent["result"]["reports"]] == [good_report.report_id]


# -- auditing the block log in place --------------------------------------------------


@pytest.mark.parametrize("audit", ["verify_chain", "blocks"])
def test_an_audit_holds_no_lock_while_it_walks(registered, node_key, monkeypatch, audit):
    registered.add_events([env_for(node_key, 0)[0]], T0)
    walked_one, resume = threading.Event(), threading.Event()
    walk = ledger_module._walk_blocks

    def paused_walk(raw):
        blocks = walk(raw)
        yield next(blocks)
        walked_one.set()
        resume.wait(10)
        yield from blocks

    monkeypatch.setattr(ledger_module, "_walk_blocks", paused_walk)
    answers, committed = [], threading.Event()
    auditor = threading.Thread(target=lambda: answers.append(getattr(registered, audit)()))
    auditor.start()
    try:
        assert walked_one.wait(10)
        envelope, report = env_for(node_key, 1)
        committer = threading.Thread(target=lambda: (
            registered.add_events([envelope], T0 + 1), committed.set()))
        committer.start()
        assert committed.wait(5), "add_events waited for the audit"
        assert stored_report(registered, report.report_id) == report
    finally:
        resume.set()
        auditor.join(10)
    committer.join(10)
    assert not auditor.is_alive() and not committer.is_alive()
    # The audit covers the log as it was when it began: genesis and block 1.
    if audit == "verify_chain":
        assert answers == [None]
    else:
        assert [len(blocks) for blocks in answers] == [2]
    assert registered.height == 2 and registered.verify_chain() is None


def test_audits_beside_commits_walk_whole_linked_prefixes(registered, node_key):
    envelopes = [env_for(node_key, i)[0] for i in range(40)]
    verdicts, walks, errors = [], [], []
    committed = threading.Event()

    def commit(part):
        for envelope in part:
            registered.add_events([envelope], T0)

    def audit():
        try:
            while not committed.is_set():
                verdicts.append(registered.verify_chain())
                walks.append([block.height for block in registered.blocks()])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    committers = [threading.Thread(target=commit, args=(envelopes[i::4],)) for i in range(4)]
    auditors = [threading.Thread(target=audit) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in auditors + committers:
            thread.start()
        for thread in committers:
            thread.join(60)
        committed.set()
        for thread in auditors:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in committers + auditors)
    assert errors == []
    assert verdicts and set(verdicts) == {None}
    assert all(heights == list(range(len(heights))) for heights in walks)
    assert registered.height == 40 and len(registered.blocks()) == 41


def test_a_batch_being_prepared_blocks_no_query(registered, node_key, monkeypatch):
    # Queries go on while a batch is verified and judged. A second batch
    # waits for it: batches prepare one at a time, and commit in that order.
    stored_env, stored = env_for(node_key, 0)
    registered.add_events([stored_env], T0)
    paused_env, paused = env_for(node_key, 1)
    second_env, second = env_for(node_key, 2)
    verifying, resume = threading.Event(), threading.Event()
    real_verify = ledger_module.verify

    def paused_verify(public_key, envelope):
        if envelope is paused_env:
            verifying.set()
            resume.wait(10)
        return real_verify(public_key, envelope)

    monkeypatch.setattr(ledger_module, "verify", paused_verify)
    answers, queries_done = {}, threading.Event()

    def queries():
        answers["payload"] = registered.get_event_payload(stored.report_id)
        answers["recent"] = registered.get_recent(limit=5)
        queries_done.set()

    first = threading.Thread(target=lambda: answers.setdefault(
        "first", registered.add_events([paused_env], T0 + 1)))
    later = threading.Thread(target=lambda: answers.setdefault(
        "second", registered.add_events([second_env], T0 + 2)))
    first.start()
    try:
        assert verifying.wait(10)
        threading.Thread(target=queries, daemon=True).start()
        assert queries_done.wait(5), "a query waited for a batch being verified"
        later.start()
        later.join(0.2)
        assert later.is_alive(), "a second batch was prepared beside the first"
    finally:
        resume.set()
        first.join(10)
        if later.ident is not None:
            later.join(10)
    assert not first.is_alive() and not later.is_alive()
    assert answers["payload"] == stored_env.to_wire_obj()["payload_b64"]
    assert [s.report_id for s in answers["recent"]] == [stored.report_id]
    assert [(v.status, v.replay) for v in answers["first"] + answers["second"]] == [
        ("committed", False)] * 2
    assert [block.transactions[0]["payload_b64"] for block in registered.blocks()[2:]] == [
        e.to_wire_obj()["payload_b64"] for e in (paused_env, second_env)]
    assert registered.verify_chain() is None
    assert {r.report_id for r in registered.all_reports()} == {
        stored.report_id, paused.report_id, second.report_id}


@pytest.fixture(scope="module")
def shared_envelopes(node_key, other_key):
    """Signed reports from two devices, for batches that share report ids."""
    return [env_for((node_key, other_key)[i % 2], i)[0] for i in range(8)]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=4),
                         min_size=1, max_size=3),
                min_size=2, max_size=4))
def test_concurrent_batches_commit_each_report_once(node_key, other_key, shared_envelopes,
                                                    plans):
    # Each thread submits its batches in turn; all threads start together.
    ids = [canonical.loads(e.payload)["report_id"] for e in shared_envelopes]
    with tempfile.TemporaryDirectory() as directory:
        ledger = Ledger(directory, genesis_at_ms=T0)
        for key in (node_key, other_key):
            ledger.register_device(identity_of(key))
        start = threading.Barrier(len(plans))
        answers = []

        def submit(batches):
            start.wait(10)
            for batch in batches:
                verdicts = ledger.add_events([shared_envelopes[i] for i in batch], T0)
                answers.extend(zip(batch, verdicts))

        threads = [threading.Thread(target=submit, args=(batches,)) for batches in plans]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        submitted = Counter(i for batches in plans for batch in batches for i in batch)
        assert len(answers) == sum(submitted.values())
        assert all(v.status == "committed" and v.report_id == ids[i] for i, v in answers)
        firsts = Counter(i for i, v in answers if not v.replay)
        assert firsts == Counter(set(submitted))     # once each, the rest replays
        assert ledger.verify_chain() is None
        assert sorted(r.report_id for r in ledger.all_reports()) == sorted(ids[i] for i in firsts)
        reopened = Ledger(directory)
        assert reopened.world_state_bytes() == ledger.world_state_bytes()
        reopened.close()
        ledger.close()


# Reports in the bench-shaped history: 15 readings each, in blocks of 100.
HISTORY_REPORTS = 500


@pytest.fixture(scope="module")
def bench_shaped_history(node_key, tmp_path_factory):
    """The directory of a closed ledger of `HISTORY_REPORTS` bench-shaped reports."""
    directory = tmp_path_factory.mktemp("history") / "ledger"
    ledger = Ledger(directory, genesis_at_ms=T0)
    ledger.register_device(identity_of(node_key))
    for first in range(0, HISTORY_REPORTS, 100):
        ledger.add_events([env_for(node_key, i, n=15)[0] for i in range(first, first + 100)],
                          T0 + first)
    ledger.close()
    return directory


def test_a_replayed_report_is_kept_as_an_index_record(bench_shaped_history, opened):
    # A replayed 15-reading report keeps a few atomic values, its payload's
    # place in the block log among them, not its payload: one report of 15
    # readings as objects took 9 KB and 18 objects the garbage collector
    # tracks, and its signed bytes about 1.7 KB (2,220 B per report were
    # retained while every report kept them). Only the GetRecent windows,
    # 10 reports here, keep their bytes. About 565 B per report are
    # retained here.
    n = HISTORY_REPORTS
    gc.collect()
    tracked_before = len(gc.get_objects())
    tracemalloc.start()
    try:
        reopened = opened(bench_shaped_history)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
        tracked = len(gc.get_objects()) - tracked_before
    finally:
        tracemalloc.stop()
    assert reopened.height == n // 100 and len(reopened.all_reports()) == n
    assert retained <= 1_024 * n, retained / n
    assert tracked <= 2 * n, tracked / n


@pytest.fixture(scope="module")
def window_history(node_key, other_key):
    """60 signed reports from two devices in three batches, each created
    at an instant that runs against commit order now and then, with ties,
    and the block sizes to commit them in: more than a window's worth per
    list, entering windows in the middle and pushing others out of them.
    One device has 12 reports and the other 48, so a report can leave
    either of its windows while still in the other."""
    reports, envelopes = [], []
    for serial in range(60):
        key = (node_key, other_key)[serial % 5 == 0]
        base = make_report(device=key.device_id, report_id=f"r-{serial:02d}",
                           created_at=T0 + 600_000 + (serial * 7 % 23) * 1000, n_readings=2)
        report = base._replace(batch_no=_ORACLE_BATCHES[serial % 3])
        reports.append(report)
        envelopes.append(sign(key, report))
    return reports, envelopes, [1, 4, 2, 7, 1, 1, 3, 10, 2, 5, 1, 8, 6, 9]


def test_an_open_decodes_only_the_payloads_of_the_windows(node_key, other_key, window_history,
                                                          tmp_path, monkeypatch, opened):
    reports, envelopes, cuts = window_history
    history_ledger(tmp_path, (node_key, other_key), envelopes, cuts)
    decoded = []
    decode = base64.b64decode

    def counted(text, *args, **kwargs):
        decoded.append(decode(text, *args, **kwargs))
        return decoded[-1]

    monkeypatch.setattr(base64, "b64decode", counted)
    judged = counting_judge(monkeypatch)
    reopened = opened(tmp_path)
    assert judged == []         # the index log vouched for every block
    by_payload = {e.payload: r.report_id for r, e in zip(reports, envelopes)}
    assert sorted(by_payload[payload] for payload in decoded) == sorted(windows(reports))
    # Two device lists and three batch lists: at most a window's worth each.
    assert len(decoded) <= 5 * ledger_module.RECENT_WINDOW < len(reports)
    assert held(reopened) == windows(reports)


def test_hot_and_cold_entries_are_answered_alike_live_and_reopened(node_key, other_key,
                                                                   window_history, tmp_path,
                                                                   opened):
    reports, envelopes, cuts = window_history
    live = opened(tmp_path, genesis_at_ms=T0)
    for key in (node_key, other_key):
        live.register_device(identity_of(key))
    payloads = {r.report_id: e.payload for r, e in zip(reports, envelopes)}
    requests = [_get_recent_request(device, batch, limit)
                for device in (None, "node-1", "node-2") for batch in (None,) + _ORACLE_BATCHES
                for limit in (1, 10, 11, 100)]
    start = 0
    for k, cut in enumerate(cuts):
        live.add_events(envelopes[start:start + cut], T0 + k)
        start += cut
        committed = reports[:start]
        # The windows follow every commit: a report pushed out of both of
        # its windows keeps nothing.
        assert held(live) == windows(committed)
    reopened = opened(tmp_path)
    assert held(reopened) == windows(reports)
    for ledger in (live, reopened):
        service = LedgerService(ledger, clock=lambda: T0)
        for request in requests:
            args = json.loads(request)["args"]
            expected = _one_dump_answer([payloads[r.report_id] for r in _brute_force_recent(
                reports, args.get("device_id"), args.get("batch_no"), args["limit"])], {})
            assert service.handle("x", request) == expected, args
        for report, envelope in zip(reports, envelopes):
            request = json.dumps({"op": "GetEvent", "args": {"report_id": report.report_id}})
            assert service.handle("x", request.encode()) == canonical.wire_dumps({
                "ok": True,
                "result": {"found": True, "payload_b64": envelope.to_wire_obj()["payload_b64"]}})
    assert reopened.world_state_bytes() == live.world_state_bytes()
    assert reopened.all_reports() == live.all_reports() == sorted(reports,
                                                                   key=lambda r: r.report_id)
    # Answering kept nothing more.
    assert held(live) == held(reopened) == windows(reports)


def test_a_default_get_recent_reads_nothing_from_the_log(node_key, other_key, window_history,
                                                         tmp_path, monkeypatch, opened):
    # Lists of 48 and 12 reports by device and of 20 by batch: a query with
    # the default limit is answered from the window of the list it walks,
    # live after every commit and after a reopen; one more entry is read
    # from the log.
    reports, envelopes, cuts = window_history
    reads = []
    pread = os.pread

    def counted(fd, length, offset):
        reads.append(offset)
        return pread(fd, length, offset)

    monkeypatch.setattr(os, "pread", counted)
    filters = ([("node-1", None), ("node-2", None)]
               + [(None, batch) for batch in _ORACLE_BATCHES] + [(None, None)])
    window = ledger_module.RECENT_WINDOW

    def answered(ledger, committed, device, batch, limit=window):
        answer = ledger.get_recent(device_id=device, batch_no=batch, limit=limit)
        expected = _brute_force_recent(committed, device, batch, limit)
        return [s.report for s in answer] == expected

    live = opened(tmp_path, genesis_at_ms=T0)
    for key in (node_key, other_key):
        live.register_device(identity_of(key))
    start = 0
    for k, cut in enumerate(cuts):
        live.add_events(envelopes[start:start + cut], T0 + k)
        start += cut
        assert all(answered(live, reports[:start], *query) for query in filters)
        assert reads == []
    for ledger in (live, opened(tmp_path)):
        for device, batch in filters:
            assert answered(ledger, reports, device, batch)
            assert reads == [], (device, batch)
            if device or batch:
                assert answered(ledger, reports, device, batch, window + 1)
                assert len(reads) == 1, (device, batch)
                reads.clear()


def respelled(core: bytes, how: str) -> bytes:
    """The core of a stored line, as the line holds it, edited as `how`
    says: spelled another way that parses to the same block, or to the same
    block with one more key or with a value the ledger never writes."""
    if how == "spaces after colons":
        return core.replace(b'":', b'": ')
    if how == "committed before 1970":
        return re.sub(rb'"committed_at":"[^"]*"', b'"committed_at":"1969-12-31T23:59:59.999Z"',
                      core)
    # The rest edit the first transaction.
    tx = canonical.loads(b"{" + core)["transactions"][0]
    text = canonical.envelope_text(tx["payload_b64"], tx["signature_b64"],
                                   tx["signer"]).encode("utf-8")
    if how == "keys reordered":
        edited = json.dumps(dict(reversed(tx.items())), separators=(",", ":"),
                            ensure_ascii=False).encode("utf-8")
    elif how == "extra key":
        edited = canonical.dumps({**tx, "trace": "x"})
    elif how == "base64 digit escaped":
        at = text.index(b"A")
        assert at < text.index(b'","signature_b64"')      # in the payload's base64
        edited = text[:at] + b"\\u0041" + text[at + 1:]
    else:
        escaped = {"signer escaped": b"\\u006eode-1", "signer a lone surrogate": b"\\ud800"}[how]
        edited = text.replace(b'"signer":"node-1"', b'"signer":"%s"' % escaped)
    assert edited != text
    return core.replace(text, edited)


@pytest.mark.parametrize("how", ["spaces after colons", "keys reordered", "extra key",
                                 "base64 digit escaped", "signer escaped",
                                 "signer a lone surrogate", "committed before 1970"])
def test_a_replayed_line_the_ledger_would_not_write_is_refused(registered, node_key, tmp_path,
                                                               how):
    registered.add_events([env_for(node_key, i)[0] for i in range(2)], T0)
    registered.add_events([env_for(node_key, i)[0] for i in range(2, 5)], T0 + 1)
    path = tmp_path / "ledger" / BLOCKS_FILE
    lines = path.read_bytes().split(b"\n")[:-1]
    # The last line edited and hashed again, so that only replay's check
    # of its spelling can expose it.
    head, core = lines[-1][:ledger_module._CORE_START], lines[-1][ledger_module._CORE_START:]
    lines[-1] = rehashed(head + respelled(core, how))
    path.write_bytes(b"\n".join(lines) + b"\n")
    if how == "committed before 1970":
        # The walk refuses a time the ledger never writes, so the audit
        # and replay refuse the line alike.
        assert registered.verify_chain() == 2
        refusal = "block 2 is stamped before 1970"
    else:
        # The audit neither decodes nor re-joins transactions, so it still
        # answers intact for a line replay refuses (ROADMAP item 2(b)).
        assert registered.verify_chain() is None
        refusal = "block 2: not spelled as the ledger writes it"
    for keep_index in (True, False):
        if not keep_index:
            (tmp_path / "ledger" / INDEX).unlink()
        with pytest.raises(CorruptLedger, match=refusal) as caught:
            Ledger(tmp_path / "ledger")
        assert caught.value.height == 2


def test_answering_get_recent_keeps_nothing_per_report(bench_shaped_history, opened):
    # A report is answered as its stored payload: once every report has been
    # answered, the ledger holds what it held after replay.
    n = HISTORY_REPORTS
    gc.collect()
    tracemalloc.start()
    try:
        service = LedgerService(opened(bench_shaped_history), clock=lambda: T0)
        gc.collect()
        replayed = tracemalloc.get_traced_memory()[0]
        answered = set()
        for device, limit in ((None, n), ("node-1", n), (None, 10)):
            answer = json.loads(service.handle("x", _get_recent_request(device, None, limit)))
            answered.update(r["report_id"] for r in answer["result"]["reports"])
        n_answered = len(answered)
        del answer, answered
        gc.collect()
        queried = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n_answered == n
    assert queried - replayed <= 64 * n, (queried - replayed) / n


@pytest.fixture(scope="module")
def tamper_log(node_key, tmp_path_factory):
    """A block log of five blocks holding 0, 1, 3, 1 and 2 transactions."""
    directory = tmp_path_factory.mktemp("tamper")
    ledger = Ledger(directory, genesis_at_ms=T0)
    ledger.register_device(identity_of(node_key))
    serial = itertools.count()
    for size in (1, 3, 1, 2):
        ledger.add_events([env_for(node_key, next(serial))[0] for _ in range(size)], T0)
    ledger.close()
    return (directory / BLOCKS_FILE).read_bytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_an_edited_byte_is_caught_where_replay_refuses_the_log(tamper_log, data):
    # Any byte of any line, its newline included, replaced by any other,
    # `\n` and `\r` most of all; on a log with or without its final newline.
    log = tamper_log if data.draw(st.booleans(), "terminated") else tamper_log[:-1]
    starts = [0] + [i + 1 for i, byte in enumerate(log) if byte == ord("\n")]
    starts = starts[:-1] if log.endswith(b"\n") else starts
    height = data.draw(st.integers(0, len(starts) - 1), "height")
    end = log.find(b"\n", starts[height])
    end = len(log) - 1 if end < 0 else end
    at = starts[height] + data.draw(st.integers(0, end - starts[height]), "offset")
    byte = data.draw((st.sampled_from(b"\n\r") | st.integers(0, 255))
                     .filter(lambda b: b != log[at]), "new byte")
    edited = log[:at] + bytes([byte]) + log[at + 1:]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / BLOCKS_FILE
        path.write_bytes(log)
        live = Ledger(directory)
        path.write_bytes(edited)
        assert live.verify_chain() == height
        with pytest.raises(CorruptLedger) as caught:
            live.blocks()
        assert caught.value.height == height
        live.close()
        if edited.find(b"\n", starts[height]) >= 0:
            with pytest.raises(CorruptLedger) as caught:
                Ledger(directory)
            assert caught.value.height == height
        else:
            # The broken line is an unterminated tail: replay cuts it as torn.
            reopened = Ledger(directory)
            assert reopened.height == height - 1
            reopened.close()


def test_a_log_without_its_final_newline_or_empty_audits_as_before(tamper_log, tmp_path):
    path = tmp_path / BLOCKS_FILE
    path.write_bytes(tamper_log)
    live = Ledger(tmp_path)
    # The last line is walked though nothing ends it, and it is whole.
    path.write_bytes(tamper_log[:-1])
    assert live.verify_chain() is None
    assert len(live.blocks()) == 5
    # Cut inside the last line, it is caught at its height.
    path.write_bytes(tamper_log[:-2])
    assert live.verify_chain() == 4
    path.write_bytes(b"")
    assert live.verify_chain() == 0
    assert live.blocks() == []
    live.close()


def reference_walk(raw):
    """The block walk as it was before it read each line in one pass, with
    two type rules added: `height` must be a JSON integer and `transactions`
    a JSON array. The oracle `_walk_blocks` must agree with."""
    prev_hash = ZERO_HASH
    start = 0
    with memoryview(raw) as view:
        for height in itertools.count():
            if start >= len(view):
                return
            end = raw.find(b"\n", start)
            if end < 0:
                end = len(view)
            with view[start:end] as line:
                try:
                    block = reference_parse(line)
                except CorruptLedger as exc:
                    raise CorruptLedger(f"block {height}: {exc}", height) from exc
            if block.height != height:
                raise CorruptLedger(f"block {height} has height {block.height}", height)
            if block.prev_hash != prev_hash:
                raise CorruptLedger(f"block {height} does not link to block {height - 1}", height)
            prev_hash = block.block_hash
            yield block
            start = end + 1


def reference_parse(line):
    digest = hashlib.sha256(b"{")
    digest.update(line[ledger_module._CORE_START:])
    stored_hash = digest.hexdigest()
    if line[:ledger_module._CORE_START] != (
            ledger_module._HASH_PREFIX + stored_hash.encode("ascii") + b'",'):
        raise CorruptLedger("block hash mismatch")
    try:
        obj = canonical.loads(line)
        height = obj["height"]
        if type(height) is not int:
            raise TypeError(f"height must be an integer, got {type(height).__name__}")
        prev_hash = str(obj["prev_hash"])
        transactions = obj["transactions"]
        if type(transactions) is not list:
            raise TypeError(f"transactions must be an array, got {type(transactions).__name__}")
        return LedgerBlock(
            height=height,
            prev_hash=prev_hash,
            transactions=tuple(transactions),
            committed_at=canonical.parse_millis(obj["committed_at"]),
            block_hash=stored_hash,
        )
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CorruptLedger(f"unparseable block: {exc}") from exc


def walked(walk, raw):
    """The blocks `walk` yields from `raw` and the CorruptLedger that ends it,
    if one does."""
    blocks = []
    try:
        for block in walk(raw):
            blocks.append(block)
    except CorruptLedger as exc:
        return blocks, exc
    return blocks, None


BLOCK_FIELDS = (b"committed_at", b"height", b"prev_hash", b"transactions")
# JSON text an edit may put in place of a field's value.
FIELD_VALUES = [
    b"Infinity", b"-Infinity", b"NaN", b"1e400", b"-0", b"0", b"2", b"-1", b"3.0", b"true",
    b"null", b'"3"', b'"ab"', b"[]", b"{}", b'[1,"x",null]', b"[{}]", b"9" * 5000,
    b'"2024-01-01T00:00:00.000Z"', b'"2024-02-30T00:00:00.000Z"', b'"2024-01-01T00:00:00Z"',
    b'"' + ZERO_HASH.encode() + b'"', b'"\\ud800"',
]


@st.composite
def edited_lines(draw, line):
    """`line` edited, and re-hashed where the edit should reach the parse."""
    core = line[ledger_module._CORE_START:]
    edit = draw(st.sampled_from(["none", "trailing-whitespace", "extra-data", "invalid-utf8",
                                 "not-an-object", "fields", "deep", "byte", "spacing"]))
    if edit == "none":
        return line
    if edit == "trailing-whitespace":
        return rehashed(line + draw(st.sampled_from([b" ", b"\t", b"\r", b" \t\r "])))
    if edit == "extra-data":
        return rehashed(line + draw(st.sampled_from([b"x", b"{}", b" 1", b",", b"}", b"\x00"])))
    if edit == "invalid-utf8":
        at = ledger_module._CORE_START + draw(st.integers(0, len(core)))
        bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf8\x88"]))
        return rehashed(line[:at] + bad + line[at:])
    if edit == "not-an-object":
        return draw(st.sampled_from([b"[]", b'"text"', b"1", b"null", b"{}"]))
    if edit == "byte":
        at = ledger_module._CORE_START + draw(st.integers(0, len(core) - 1))
        byte = draw(st.integers(0, 255).filter(lambda b: b not in (line[at], ord("\n"))))
        return rehashed(line[:at] + bytes([byte]) + line[at + 1:])
    if edit == "spacing":
        return rehashed(line.replace(b'":', b'": ', draw(st.integers(1, 3))))
    # The core rebuilt field by field: each kept, dropped, replaced or nested deep.
    values = dict(zip(BLOCK_FIELDS, (canonical.dumps(value) for _, value in
                                      sorted(canonical.loads(b"{" + core).items()))))
    fields = []
    for key in BLOCK_FIELDS:
        if edit == "deep" and key == b"transactions":
            depth = draw(st.sampled_from([3, 50, 100_000]))
            opener, closer = draw(st.sampled_from([(b"[", b"]"), (b'{"a":', b"}")]))
            fields.append((key, opener * depth + b"[]" + closer * depth))
            continue
        kind = draw(st.sampled_from(["keep", "keep", "drop", "replace"]))
        if kind == "keep":
            fields.append((key, values[key]))
        elif kind == "replace":
            fields.append((key, draw(st.sampled_from(FIELD_VALUES))))
    if draw(st.booleans()):
        fields.append((b"other", draw(st.sampled_from(FIELD_VALUES))))
    fields = draw(st.permutations(fields))
    body = b",".join(b'"%s":%s' % field for field in fields)
    return rehashed(ledger_module._HASH_PREFIX + ZERO_HASH.encode() + b'",' + body + b"}")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_walk_agrees_with_the_reference_walk_on_any_edited_line(tamper_log, data):
    # The edited log is walked in place through a map that is closed while
    # the walk's error is still held: no view of it may outlive the walk.
    lines = tamper_log.split(b"\n")[:-1]
    height = data.draw(st.integers(0, len(lines) - 1), "height")
    lines[height] = data.draw(edited_lines(lines[height]), "edited line")
    log = b"\n".join(lines) + b"\n"
    if height == len(lines) - 1:
        ending = data.draw(st.sampled_from(["whole", "no newline", "torn"]), "ending")
        if ending == "no newline":
            log = log[:-1]
        elif ending == "torn":
            log = log[:data.draw(st.integers(len(log) - len(lines[height]) - 1, len(log) - 1),
                                 "cut")]
    expected_blocks, expected = walked(reference_walk, log)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / BLOCKS_FILE
        path.write_bytes(log)
        with open(path, "rb") as file, \
                mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            blocks, error = walked(ledger_module._walk_blocks, mapped)
    assert blocks == expected_blocks
    if expected is None:
        assert error is None
    else:
        assert error is not None
        assert (error.height, str(error)) == (expected.height, str(expected))


def test_an_audit_holds_one_block_in_memory_not_the_log(registered, node_key, tmp_path):
    for i in range(300):
        registered.add_events([env_for(node_key, i)[0]], T0 + i)
    log = (tmp_path / "ledger" / BLOCKS_FILE).read_bytes()
    longest = max(len(line) for line in log.split(b"\n"))
    assert len(log) > 100 * longest
    tracemalloc.start()
    try:
        assert registered.verify_chain() is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # About 7x at this size: the line's text, its parsed block, the walk's frames.
    assert peak < 16 * longest, (peak, longest, len(log))


def test_the_block_log_is_read_only_through_the_walker():
    # Replay walks what AppendLog.read returns and audits walk the map that
    # _mapped_log makes; beside them, ledger.py only reads committed
    # payloads' places, through that map or the reader `__init__` opens.
    # Nothing else opens, reads or splits the log.
    scopes: dict[str, set[str]] = defaultdict(set)
    splits = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Name) and child.id in ("BLOCKS_FILE", "_walk_blocks"):
                scopes[child.id].add(".".join(scope))
            elif isinstance(child, ast.Attribute) and child.attr == "_blocks_path":
                scopes[child.attr].add(".".join(scope))
            elif isinstance(child, ast.Attribute) and child.attr in (
                    "splitlines", "read_bytes", "read_text", "readlines", "readline"):
                splits.append(f"{'.'.join(scope)}:{child.lineno} .{child.attr}")
            visit(child, inner)

    visit(ast.parse(Path(ledger_module.__file__).read_text("utf-8")), ())
    assert splits == []
    assert scopes == {
        "BLOCKS_FILE": {"", "Ledger.__init__"},
        "_blocks_path": {"Ledger.__init__", "Ledger._replay_blocks", "Ledger._mapped_log"},
        "_walk_blocks": {"Ledger._replay_blocks", "Ledger.blocks", "Ledger.verify_chain"},
    }


def test_a_block_line_is_spelled_and_placed_in_one_place():
    # The writer and replay's check join a line through `_core`, and commit
    # and replay place its payloads through `_joined_spans`: nothing else
    # spells a block line or searches one for a payload.
    callers: dict[str, set[str]] = defaultdict(set)

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Name) and child.id in ("_core", "_joined_spans"):
                callers[child.id].add(".".join(scope))
            visit(child, inner)

    visit(ast.parse(Path(ledger_module.__file__).read_text("utf-8")), ())
    assert callers == {
        "_core": {"LedgerBlock.encode", "Ledger._replay_blocks"},
        "_joined_spans": {"Ledger._append_block", "Ledger._replay_blocks"},
    }


# -- the index log ------------------------------------------------------------------


INDEX = ledger_module.INDEX_FILE


def counting_judge(monkeypatch):
    """Count the payloads the ledger judges from now on."""
    calls = []
    judge = ledger_module.judge_report

    def counted(payload):
        calls.append(payload)
        return judge(payload)

    monkeypatch.setattr(ledger_module, "judge_report", counted)
    return calls


def test_an_index_record_is_the_canonical_dump_of_its_fields(registered, node_key, tmp_path):
    envelopes = [env_for(node_key, i)[0] for i in range(3)]
    registered.add_events(envelopes, T0 + 1)
    log = (tmp_path / "ledger" / BLOCKS_FILE).read_bytes()
    lines = (tmp_path / "ledger" / INDEX).read_bytes().split(b"\n")
    assert lines[-1] == b"" and len(lines) == 3
    checksum, _, text = lines[1].partition(b" ")
    assert checksum == b"%08x" % zlib.crc32(text)
    record = canonical.loads(text)
    assert canonical.dumps(record) == text
    assert record["height"] == 1 and record["end"] == len(log)
    assert record["committed_at"] == T0 + 1
    assert record["hash"] == registered.blocks()[1].block_hash
    start = log.rstrip(b"\n").rfind(b"\n") + 1
    for envelope, row in zip(envelopes, record["reports"]):
        report = decode_report(envelope.payload)
        offset, length = row[4:]
        assert row[:4] == [report.report_id, report.device_id, report.batch_no,
                           report.created_at]
        assert log[start + offset:start + offset + length].decode() == \
            envelope.to_wire_obj()["payload_b64"]


def test_an_open_judges_only_the_blocks_the_index_log_does_not_vouch_for(
        registered, node_key, tmp_path, monkeypatch):
    for i in range(6):
        registered.add_events([env_for(node_key, 2 * i)[0], env_for(node_key, 2 * i + 1)[0]],
                              T0 + i)
    registered.close()
    directory = tmp_path / "ledger"
    index = directory / INDEX
    whole = index.read_bytes()
    judged = counting_judge(monkeypatch)

    def reopened_judging() -> int:
        del judged[:]
        reopened = Ledger(directory)
        assert reopened.world_state_bytes() == registered.world_state_bytes()
        reopened.close()
        assert index.read_bytes() == whole     # rebuilt as it was
        return len(judged)

    assert reopened_judging() == 0
    index.unlink()
    assert reopened_judging() == 12
    for cut in (1, 2, 5):
        index.write_bytes(b"".join(whole.splitlines(keepends=True)[:-cut]))
        assert reopened_judging() == 2 * cut


@pytest.fixture(scope="module")
def filler(node_key):
    """98 signed one-reading reports, one per block, to commit before the
    blocks a test is about so that these reach heights of three digits."""
    return [sign(node_key, make_report(report_id=f"filler-{i:03d}", n_readings=1))
            for i in range(98)]


# A signer's characters in each of the ways canonical JSON spells them:
# as themselves, escaped (`"`, `\`, the controls), in more than one UTF-8
# byte, and beyond the BMP. No lone surrogate: it has no UTF-8 spelling, so
# no registry, and no block, can hold one.
SIGNERS = st.text(st.sampled_from('"\\\x00\x1f\x7f é☃\U0001F600\U0010FFFF')
                  | st.characters(exclude_categories=("Cs",)), min_size=1, max_size=6)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_line_the_ledger_writes_reopens_without_its_index(node_key, filler, data):
    names = data.draw(st.lists(SIGNERS, min_size=1, max_size=3, unique=True), "signers")
    keys = [KeyPair(name, node_key.private_key) for name in names]
    # Two blocks at least, at heights 1 and 2, 9 and 10, or 99 and 100 on.
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=4), "block sizes")
    lead = data.draw(st.sampled_from([0, 8, 98]), "blocks before them")
    with tempfile.TemporaryDirectory() as directory:
        live = Ledger(directory, genesis_at_ms=T0)
        for key in [node_key, *keys]:
            live.register_device(identity_of(key))
        for i in range(lead):
            live.add_events([filler[i]], T0 + i)
        serial = itertools.count()
        for size in sizes:
            batch = [sign(key, make_report(device=key.device_id, report_id=f"{key.device_id}"
                                           f"-{next(serial)}", n_readings=2))
                     for key in data.draw(st.lists(st.sampled_from(keys), min_size=size,
                                                   max_size=size), "signed by")]
            verdicts = live.add_events(batch, T0 + lead)
            assert [v.status for v in verdicts] == ["committed"] * size
        index = Path(directory) / INDEX
        written = index.read_bytes()
        index.unlink()
        reopened = Ledger(directory)
        assert reopened.world_state_bytes() == live.world_state_bytes()
        reopened.close()
        live.close()
        assert index.read_bytes() == written


def checked_lines(texts) -> bytes:
    """Index log lines holding `texts`, each under its own good checksum."""
    return b"".join(b"%08x %s\n" % (zlib.crc32(text), text) for text in texts)


@pytest.mark.parametrize("text", [b"{", b"\xff", b"[]", b"1,2", b"records 3 and 4"],
                         ids=["not JSON", "not UTF-8", "not an object", "two values",
                              "two records"])
def test_a_record_that_is_not_one_json_object_ends_the_index_where_it_stands(
        registered, node_key, tmp_path, monkeypatch, opened, text):
    for i in range(5):
        registered.add_events([env_for(node_key, i)[0]], T0 + i)
    registered.close()
    index = tmp_path / "ledger" / INDEX
    whole = index.read_bytes()
    texts = [line[9:] for line in whole.splitlines()]
    if text == b"records 3 and 4":
        # Both in one line, so that the records, joined, still parse to
        # one record per height.
        texts[3:5] = [texts[3] + b"," + texts[4]]
    else:
        texts[3] = text
    index.write_bytes(checked_lines(texts))
    judged = counting_judge(monkeypatch)
    assert opened(tmp_path / "ledger").world_state_bytes() == registered.world_state_bytes()
    assert len(judged) == 3         # blocks 3, 4 and 5, one report each
    assert index.read_bytes() == whole


def test_a_payload_slice_that_holds_a_quote_vouches_for_nothing(registered, node_key, tmp_path,
                                                                monkeypatch, opened):
    registered.add_events([env_for(node_key, i)[0] for i in range(2)], T0)
    registered.add_events([env_for(node_key, 2)[0]], T0 + 1)
    registered.close()
    index = tmp_path / "ledger" / INDEX
    whole = index.read_bytes()
    line = (tmp_path / "ledger" / BLOCKS_FILE).read_bytes().split(b"\n")[1]
    records = [canonical.loads(text[9:]) for text in whole.splitlines()]
    # Block 1's first slice stretched to the end of the envelope's
    # signature: the payload key before it and a `"` after it, as a payload
    # has, but the rest of the envelope inside.
    row = records[1]["reports"][0]
    row[5] = line.index(b'","signer"', row[4]) - row[4]
    assert line[row[4] - len(b'"payload_b64":"'):row[4]] == b'"payload_b64":"'
    assert line[row[4] + row[5]] == ord('"')
    index.write_bytes(checked_lines(canonical.dumps(record) for record in records))
    judged = counting_judge(monkeypatch)
    reopened = opened(tmp_path / "ledger")
    assert len(judged) == 3         # blocks 1 and 2, judged as if there were no index
    assert reopened.world_state_bytes() == registered.world_state_bytes()
    assert index.read_bytes() == whole


def test_an_index_log_of_seven_column_rows_is_judged_and_rewritten(
        registered, node_key, tmp_path, monkeypatch, opened):
    for i in range(3):
        registered.add_events([env_for(node_key, 2 * i)[0], env_for(node_key, 2 * i + 1)[0]],
                              T0 + i)
    registered.close()
    directory = tmp_path / "ledger"
    index = directory / INDEX
    whole = index.read_bytes()
    records = [canonical.loads(line[9:]) for line in whole.splitlines()]
    assert [len(row) for record in records for row in record["reports"]] == [6] * 6
    # The rows as an earlier format wrote them, with an in-form flag after
    # `created_at`, each record under its own good checksum.
    texts = []
    for record in records:
        for row in record["reports"]:
            row.insert(4, True)
        texts.append(canonical.dumps(record))
    index.write_bytes(b"".join(b"%08x %s\n" % (zlib.crc32(text), text) for text in texts))
    judged = counting_judge(monkeypatch)
    state = opened(directory).world_state_bytes()
    assert len(judged) == 6
    assert index.read_bytes() == whole
    index.unlink()
    assert opened(directory).world_state_bytes() == state == registered.world_state_bytes()


def test_an_index_ahead_of_the_block_log_is_warned_of(registered, node_key, tmp_path, caplog):
    # Six committed blocks after genesis, then the block log loses the last two.
    for i in range(6):
        registered.add_events([env_for(node_key, i)[0]], T0 + i)
    registered.close()
    path = tmp_path / "ledger" / BLOCKS_FILE
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:5]))
    with caplog.at_level(logging.WARNING, logger="ambox.ledger"):
        reopened = Ledger(tmp_path / "ledger")
    assert reopened.height == 4
    assert reopened.verify_chain() is None
    assert [r.getMessage() for r in caplog.records] == [
        "the index log records block 6 but the block log ends at block 4: "
        "the block log lost blocks it had made durable"]
    reopened.close()


def test_block_times_never_go_backwards_however_the_clock_steps(registered, node_key, tmp_path,
                                                                opened):
    instants = iter([T0 + 500, T0 + 100, T0 + 900, T0 + 300, T0 + 50, T0 + 200])
    service = LedgerService(registered, clock=lambda: next(instants))
    serial = itertools.count()

    def add_one(service):
        envelope = env_for(node_key, next(serial))[0]
        request = {"op": "AddEvents", "args": {"envelopes": [envelope.to_wire_obj()]}}
        assert json.loads(service.handle("x", json.dumps(request).encode()))["ok"] is True

    for _ in range(4):
        add_one(service)
    registered.close()
    for keep_index in (True, False):
        if not keep_index:
            (tmp_path / "ledger" / INDEX).unlink()
        reopened = opened(tmp_path / "ledger")
        add_one(LedgerService(reopened, clock=lambda: next(instants)))
        reopened.close()
    times = [block.committed_at for block in opened(tmp_path / "ledger").blocks()]
    assert times == [T0, T0 + 500, T0 + 500, T0 + 900, T0 + 900, T0 + 900, T0 + 900]


@pytest.fixture(scope="module")
def index_pool(node_key, other_key):
    """Signed reports for random histories: two devices, three batches,
    created out of order, with ties."""
    envelopes = []
    for serial in range(10):
        key = (node_key, other_key)[serial % 2]
        base = make_report(device=key.device_id, report_id=f"r-{serial:02d}",
                           created_at=T0 + 600_000 + (serial * 7 % 4) * 1000, n_readings=2)
        envelopes.append(sign(key, base._replace(batch_no=f"B-{serial % 3}")))
    return envelopes


def history_ledger(directory, keys, envelopes, cuts, clock_at=0):
    """A closed ledger in `directory` holding `envelopes` in blocks of `cuts` sizes."""
    ledger = Ledger(directory, genesis_at_ms=T0)
    for key in keys:
        ledger.register_device(identity_of(key))
    start = 0
    for k, cut in enumerate(cuts):
        ledger.add_events(envelopes[start:start + cut], T0 + clock_at + k)
        start += cut
    ledger.close()


def opened_state(directory, report_ids):
    """What a ledger opened on `directory` holds and answers, or how it refuses to open."""
    try:
        ledger = Ledger(directory)
    except CorruptLedger as exc:
        return ("corrupt", exc.height, str(exc))
    service = LedgerService(ledger, clock=lambda: T0)
    requests = [{"op": "GetEvent", "args": {"report_id": rid}} for rid in report_ids]
    requests += [{"op": "GetRecent", "args": {field: value, "limit": limit}}
                 for field, values in (("device_id", ("node-1", "node-2")),
                                       ("batch_no", ("B-0", "B-1", "B-2")))
                 for value in values for limit in (1, 3, 100)]
    requests.append({"op": "GetRecent", "args": {"limit": 100}})
    answers = [service.handle("x", json.dumps(request).encode()) for request in requests]
    state = ledger.world_state_bytes()
    ledger.close()
    return (state, answers)


@pytest.mark.parametrize("damage", ["truncated", "flipped", "dropped", "foreign", "spliced",
                                    "moved slice", "log cut", "log replaced", "log edited"])
@settings(max_examples=15, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_damaged_index_log_never_changes_what_the_ledger_opens_to(
        node_key, other_key, index_pool, damage, data):
    keys = (node_key, other_key)
    reports = data.draw(st.permutations(index_pool), "order")
    reports = reports[:data.draw(st.integers(0, len(reports)), "reports")]
    cuts = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=len(reports) or 1), "cuts")
    report_ids = [report_id_of(e) for e in index_pool]
    with tempfile.TemporaryDirectory() as root:
        directory, other = Path(root) / "ledger", Path(root) / "other"
        history_ledger(directory, keys, reports, cuts)
        index = directory / INDEX
        raw = index.read_bytes()
        lines = raw.splitlines(keepends=True)
        if damage == "truncated":
            index.write_bytes(raw[:data.draw(st.integers(0, len(raw)), "cut")])
        elif damage == "flipped":
            at = data.draw(st.integers(0, len(raw) - 1), "at")
            flip = data.draw(st.integers(1, 255), "flip")
            index.write_bytes(raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1:])
        elif damage == "dropped":
            del lines[data.draw(st.integers(0, len(lines) - 1), "dropped")]
            index.write_bytes(b"".join(lines))
        elif damage in ("foreign", "spliced"):
            # A record of the same height from a ledger of another history;
            # spliced, its block too, which links to that ledger's chain.
            history_ledger(other, keys, list(reversed(reports)), cuts, clock_at=1)
            foreign = (other / INDEX).read_bytes().splitlines(keepends=True)
            at = data.draw(st.integers(0, min(len(lines), len(foreign)) - 1), "replaced")
            lines[at] = foreign[at]
            index.write_bytes(b"".join(lines))
            if damage == "spliced":
                blocks = (directory / BLOCKS_FILE).read_bytes().splitlines(keepends=True)
                blocks[at] = (other / BLOCKS_FILE).read_bytes().splitlines(keepends=True)[at]
                (directory / BLOCKS_FILE).write_bytes(b"".join(blocks))
        elif damage == "moved slice":
            # A record whose checksum holds but whose payload slice is moved.
            at = data.draw(st.integers(1, len(lines) - 1) if len(lines) > 1 else st.just(0),
                           "record")
            record = canonical.loads(lines[at][9:])
            if record["reports"]:
                # Moved by whole base64 quanta, the slice still decodes.
                row = data.draw(st.sampled_from(record["reports"]), "report")
                offset, length = data.draw(st.sampled_from(
                    [(0, -4), (4, -4), (8, -12), (-4, 4), (1, 0), (0, 1)]), "moved by")
                row[4] += offset
                row[5] += length
            text = canonical.dumps(record)
            lines[at] = b"%08x %s\n" % (zlib.crc32(text), text)
            index.write_bytes(b"".join(lines))
        else:
            # The block log changes under the index that was written for it.
            log = directory / BLOCKS_FILE
            blocks = log.read_bytes().splitlines(keepends=True)
            if damage == "log cut":
                log.write_bytes(b"".join(blocks[:data.draw(st.integers(1, len(blocks)), "kept")]))
            elif damage == "log replaced":
                # Another history that shares a prefix of this one's blocks.
                shared = data.draw(st.integers(0, len(cuts)), "shared blocks")
                rest = [e for e in index_pool if e not in reports[:sum(cuts[:shared])]]
                history_ledger(other, keys, reports[:sum(cuts[:shared])] + rest,
                               cuts[:shared] + [1] * data.draw(st.integers(0, 3), "more"))
                log.write_bytes((other / BLOCKS_FILE).read_bytes())
            else:
                flat = b"".join(blocks)
                at = data.draw(st.integers(0, len(flat) - 1), "at")
                byte = data.draw(st.integers(0, 255).filter(lambda b: b != flat[at]), "byte")
                log.write_bytes(flat[:at] + bytes([byte]) + flat[at + 1:])
        log_before = (directory / BLOCKS_FILE).read_bytes()
        damaged = opened_state(directory, report_ids)
        # A full replay of the same block log, with no index log at all.
        (directory / BLOCKS_FILE).write_bytes(log_before)
        index.unlink()
        assert damaged == opened_state(directory, report_ids)
