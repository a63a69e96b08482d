"""The benchmark's own tests: small runs of every workload with all checks,
checks that bite on broken output, and fleet_sim's same-seed determinism.

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import base64
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import fleet_sim  # noqa: E402
import inputs  # noqa: E402
import run as bench  # noqa: E402
from ambox.envelope import generate_keypair  # noqa: E402
from common import Sizes, WorkDir  # noqa: E402
from probe import RefClock  # noqa: E402
from tracing import Tracer  # noqa: E402

SMALL = Sizes(history_reports=24, setups=2, audits=1, segments=2, live_devices=4, fleet_nodes=2)


@pytest.fixture(scope="module")
def pool() -> inputs.KeyPool:
    # Fresh random keys: the tests need distinct keys, not the derived pool.
    return inputs.KeyPool.of([generate_keypair(f"k{i}").private_key for i in range(16)])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_small_run_passes_every_check(workload, trace, pool):
    result = bench.run(workload, seed=3, seconds=0.5, trace=trace, sizes=SMALL, pool=pool,
                       results_dir=None)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    names = set(result["metrics"])
    expected = set(bench.layers.UNITS) if trace else set(bench.UNITS)
    assert names == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture(scope="module")
def small_ledger(tmp_path_factory, pool):
    """A history ledger written by the program, and its parsed reports."""
    keys = pool.assign(5, inputs.device_ids("hist", inputs.HISTORY_DEVICES))
    directory = tmp_path_factory.mktemp("ledger") / "history"
    history = inputs.build_history(5, keys, directory, n_reports=24)
    return history, checks.read_chain(directory / "blocks.journal")


def test_chain_check_bites_on_a_flipped_byte(small_ledger, tmp_path):
    history, _ = small_ledger
    raw = (history.directory / "blocks.journal").read_bytes()
    lines = raw.splitlines(keepends=True)
    middle = len(lines) // 2
    start = sum(len(line) for line in lines[:middle])
    for offset in (10, len(lines[middle]) // 2, len(lines[middle]) - 30):
        damaged = bytearray(raw)
        damaged[start + offset] ^= 0x01
        path = tmp_path / f"flipped-{offset}.journal"
        path.write_bytes(bytes(damaged))
        with pytest.raises(checks.ChainError):
            checks.read_chain(path)


def test_reading_check_bites_on_a_dropped_reading(small_ledger):
    history, stored = small_ledger
    keys = {d: k.public_key for d, k in history.fleet.keys.items()}
    generated = Counter(checks.sample_key(r.source_device, r.quantity, r.sampled_at, r.value)
                        for s in history.reports for r in s.report.readings)
    outcome = checks.Outcome()
    checks.check_reports(stored, 0, generated, keys, outcome)
    assert outcome.failed == 0 and not outcome.problems

    # The ledger "loses" one reading: the report carrying it no longer
    # holds it (and its signature no longer covers what is stored).
    victim = stored[3]
    obj = dict(victim.obj, readings=victim.obj["readings"][1:])
    payload = checks.canonical_bytes(obj)
    tampered = list(stored)
    tampered[3] = checks.StoredReport(victim.height, payload, victim.signature, victim.signer, obj)
    outcome = checks.Outcome()
    checks.check_reports(tampered, 0, generated, keys, outcome)
    assert outcome.failed_readings == len(victim.obj["readings"])

    # A generated reading that never reached the ledger at all.
    outcome = checks.Outcome()
    missing = generated + Counter({("hist-00", "temperature", "2023-10-01T00:00:00.000Z", 1.0): 1})
    checks.check_reports(stored, 0, missing, keys, outcome)
    assert outcome.failed_readings == 1


def test_query_check_bites_on_a_wrong_answer(small_ledger):
    history, stored = small_ledger
    top = checks.TopK(stored)
    height = stored[-1].height
    device = history.reports[0].report.device_id
    answer = top.expected(device, None, 3, height)
    assert len(answer) == 3
    right = json.dumps({"ok": True, "result": {"reports": answer}}).encode()
    reordered = json.dumps({"ok": True, "result": {"reports": answer[::-1]}}).encode()
    newest = next(s for s in stored if s.report_id == answer[0]["report_id"])
    before_newest = top.expected(device, None, 3, newest.height - 1)
    stale = json.dumps({"ok": True, "result": {"reports": before_newest}}).encode()
    signed = {s.report.report_id: s.envelope.payload for s in history.reports}
    target = history.reports[2]
    event = {"ok": True, "result": {"found": True,
                                    "payload_b64": base64.b64encode(target.envelope.payload).decode()}}
    bad_event = {"ok": True, "result": {"found": True, "payload_b64": base64.b64encode(
        target.envelope.payload.replace(b'"value":', b'"value": ')).decode()}}

    def record(op, args, response):
        return checks.QueryRecord(op, args, response, height, height)

    recent = {"device_id": device, "limit": 3}
    cases = [
        (record("recent", recent, right), 0),
        (record("recent", recent, reordered), 1),
        (record("recent", recent, stale), 1),
        (record("event", {"report_id": target.report.report_id}, json.dumps(event).encode()), 0),
        (record("event", {"report_id": target.report.report_id},
                json.dumps(bad_event).encode()), 1),
    ]
    for rec, failures in cases:
        outcome = checks.Outcome()
        checks.check_queries([rec], stored, signed, outcome)
        assert outcome.failed_queries == failures, rec


def _fleet_report(pool, seed: int) -> bytes:
    keys = pool.assign(seed, bench.workload_devices("fleet_sim", SMALL))
    work = WorkDir()
    try:
        history = inputs.build_history(seed, keys, work / "history", SMALL.history_reports)
        tracer = Tracer().install(traced=False, fleet=True)
        try:
            fleet = fleet_sim.FleetRun(seed, 1.0, keys, history, work, tracer, RefClock(), SMALL)
            fleet.execute()
        finally:
            tracer.uninstall()
        return fleet.world.report().to_json_bytes()
    finally:
        work.close()


def test_fleet_sim_report_is_byte_identical_per_seed(pool):
    first = _fleet_report(pool, 7)
    counts = json.loads(first)["counts"]
    # The harness's own accounting counts the history as committed too.
    history_readings = SMALL.history_reports * inputs.SAMPLES_PER_REPORT * len(inputs.QUANTITIES)
    assert counts["sampled"] > 0
    assert counts["committed_readings"] == counts["sampled"] + history_readings
    assert _fleet_report(pool, 7) == first
