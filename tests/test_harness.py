"""Harness mechanics: scenario files, reports, determinism, fault injection."""

import json

import pytest

from ambox.harness import (
    ScenarioError,
    load_scenario,
    run_scenario,
    scenario_path,
    tamper_probe,
)
from ambox.harness.scenario import DeviceSpec, LinkSpec, Scenario, scenario_from_obj
from ambox.harness.world import mutate_report_obj, rtt_benchmark
from ambox.transport.faults import MODE_DOWN, MODE_LATENCY, FaultSchedule, FaultWindow

from conftest import make_report
from simworld import JOB_BODY, TRACE, build_world, mini_scenario


def test_builtin_scenarios_load():
    for name in ("setup1", "setup2", "bus_trip"):
        scenario = load_scenario(scenario_path(name))
        assert scenario.name == name
        assert scenario.span_ms > 0
        assert scenario.job is not None


def test_scenario_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(ScenarioError):
        load_scenario(path)
    path.write_text("{broken")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_scenario_rejects_unknown_fault_link():
    with pytest.raises(ScenarioError, match="unknown link"):
        scenario_from_obj({
            "schema_version": 1,
            "name": "x",
            "span_min": 10,
            "devices": [{"id": "n", "kind": "node"}],
            "links": [],
            "faults": [{"link": "ghost", "start_min": 0, "end_min": 1, "mode": "down"}],
        })


def test_scenario_duration_units():
    scenario = scenario_from_obj({
        "schema_version": 1,
        "name": "u",
        "span_min": 2,
        "devices": [],
        "links": [{"name": "l", "between": ["a", "b"]}],
        "faults": [{"link": "l", "start_s": 30, "end_ms": 90_000, "mode": "down"}],
    })
    assert scenario.span_ms == 120_000
    window = scenario.faults.windows()[0]
    assert (window.start_ms, window.end_ms) == (30_000, 90_000)


def test_run_rejects_invalid_scenario():
    scenario = Scenario(
        name="dup",
        span_ms=1000,
        devices=(DeviceSpec("a", "node"), DeviceSpec("a", "node")),
        links=(),
        faults=FaultSchedule(),
    )
    with pytest.raises(ScenarioError):
        run_scenario(scenario, seed=0)


def test_report_json_shape_and_determinism():
    scenario = mini_scenario(span_min=20)
    a = run_scenario(scenario, seed=9)
    b = run_scenario(scenario, seed=9)
    assert a.to_json_bytes() == b.to_json_bytes()
    obj = json.loads(a.to_json_bytes())
    assert obj["name"] == "mini"
    assert set(obj["counts"]) >= {
        "sampled", "committed_reports", "rejected_reports", "submitted_reports",
        "in_flight_reports", "buffered_at_end",
    }
    # Accounting invariant: committed + rejected + in-flight = submitted.
    c = obj["counts"]
    assert c["committed_reports"] + c["rejected_reports"] + c["in_flight_reports"] \
        == c["submitted_reports"]


def test_different_seed_changes_log():
    scenario = mini_scenario(span_min=20)
    a = run_scenario(scenario, seed=1)
    b = run_scenario(scenario, seed=2)
    # Samples differ through the noise seed, so values in reports differ.
    assert a.log_digest != "" and b.log_digest != ""


def test_failed_assertion_reported_not_raised():
    scenario = mini_scenario(span_min=20)
    scenario = Scenario(
        **{**scenario.__dict__,
           "assertions": ({"check": "committed_reports", "expected": 9999},)}
    )
    report = run_scenario(scenario, seed=1)
    assert report.passed is False
    failing = [a for a in report.assertions if a.check == "committed_reports"]
    assert failing and failing[0].passed is False


def test_mutation_changes_canonical_bytes():
    import random

    from ambox import canonical

    rng = random.Random(1)
    for _ in range(50):
        obj = make_report(n_readings=3).to_obj()
        before = canonical.dumps(obj)
        kind = mutate_report_obj(obj, rng)
        after = canonical.dumps(obj)
        assert before != after, kind


def test_tamper_probe_partial_mutation():
    span = 10 * 60_000
    scenario = Scenario(
        name="tamper-mini",
        span_ms=span,
        devices=(DeviceSpec("node1", "node"),),
        links=(LinkSpec("wifi", "node1", "ledger"), LinkSpec("oplink", "node1", "operator")),
        faults=FaultSchedule([FaultWindow("wifi", 0, span + 300_000, MODE_DOWN)]),
        job=dict(JOB_BODY, report_interval_ms=60_000, sample_interval_ms=60_000),
        trace_path=TRACE,
        drain_margin_ms=120_000,
    )
    report = tamper_probe(scenario, seed=3, mutate_count=1)
    counts = report.counts
    assert counts["mutated"] == 1
    assert counts["rejected_reports"] == 1
    assert counts["committed_reports"] == counts["submitted_reports"] - 1
    assert report.passed


def test_tamper_probe_zero_mutations():
    span = 5 * 60_000
    scenario = Scenario(
        name="tamper-zero",
        span_ms=span,
        devices=(DeviceSpec("node1", "node"),),
        links=(LinkSpec("wifi", "node1", "ledger"), LinkSpec("oplink", "node1", "operator")),
        faults=FaultSchedule([FaultWindow("wifi", 0, span + 300_000, MODE_DOWN)]),
        job=dict(JOB_BODY, report_interval_ms=60_000, sample_interval_ms=60_000),
        trace_path=TRACE,
        drain_margin_ms=120_000,
    )
    report = tamper_probe(scenario, seed=3, mutate_count=0)
    assert report.counts["mutated"] == 0
    assert report.counts["rejected_reports"] == 0
    assert report.counts["committed_reports"] == report.counts["submitted_reports"]


def test_rtt_report_format():
    report = rtt_benchmark(n=5, injected_latency_ms=100)
    assert report.latency == {
        "avg_ms": 100.0, "min_ms": 100, "max_ms": 100, "n": 5,
        "injected_ms": 100, "partial": False,
    }
    text = report.summary_text()
    assert "avg=100.0 ms" in text and "min=100 ms" in text and "max=100 ms" in text


def test_rtt_down_aborts_partial():
    report = rtt_benchmark(n=1, injected_latency_ms=0, down=True)
    assert report.latency["partial"] is True
    assert report.latency["n"] == 0


def test_world_chain_verifies_after_any_scenario():
    world = build_world(mini_scenario(span_min=20))
    world.run()
    assert world.ledger.verify_chain() is None
    # World state equals a replay of the block log.
    from ambox.ledger import Ledger

    assert world.ledger.world_state_bytes() == Ledger.replayed_world_state(
        world.data_root / "ledger")
    world.teardown()
    world.cleanup_dirs()


def test_wide_area_totals_leave_out_requests_refused_at_send():
    span = 20 * 60_000
    down = FaultSchedule([FaultWindow("wifi", 0, 2 * span, MODE_DOWN)])
    world = build_world(mini_scenario(faults=down, span_min=20))
    world.run()
    report = world.report()
    log = [e for e in world.network.message_log if e["kind"] == "request"]
    world.teardown()
    world.cleanup_dirs()
    # Every ledger submission was refused at the device; only the exchanges
    # that completed (commissioning, heartbeats) moved any bytes.
    refused = [e for e in log if e["outcome"] == "link-down"]
    moved = [e for e in log if e["outcome"] == "ok"]
    assert refused and len(moved) + len(refused) == len(log)
    assert report.counts["wide_area_messages"] == len(moved)
    assert report.counts["wide_area_bytes"] == sum(e["size"] + e["response_size"] for e in moved)


def test_rejection_with_lost_response_counted_once():
    # The first report goes out at 300.5 s over a 2 s link, is rejected, and
    # the answer is lost when the link drops at 302 s; the node resubmits it
    # after 360.5 s and is told again. The node was never registered, so the
    # ledger rejects both reports as unknown-signer without parsing them.
    faults = FaultSchedule([
        FaultWindow("wifi", 0, 302_000, MODE_LATENCY, latency_ms=2_000),
        FaultWindow("wifi", 302_000, 360_500, MODE_DOWN),
    ])
    world = build_world(mini_scenario(faults=faults))

    def director():
        caller = world.operator_caller()
        caller.call("node1", "POST", "/configHeartbeat",
                    {"ipaddr": "operator", "port": 1, "heartbeat_timeout_ms": 30_000})
        caller.call("node1", "POST", "/configBlockchain",
                    {"ipaddr": "ledger", "port": 1, "channel_name": "ambox",
                     "chaincode_name": "events"})
        caller.call("node1", "POST", "/init", {})
        caller.call("node1", "POST", "/startMonitoring", JOB_BODY)
        world.runtime.sleep(8 * 60_000)
        caller.call("node1", "POST", "/stopMonitoring", {})
        world.runtime.sleep(5 * 60_000)

    world.run(director=director)
    assert world.director_error is None
    outcomes = [e["outcome"] for e in world.network.message_log
                if e.get("label") == "ledger:AddEvents"]
    report = world.report()
    world.teardown()
    world.cleanup_dirs()
    assert outcomes[0] == "lost-response"
    assert report.counts["submitted_reports"] == 2
    assert report.counts["rejected_reports"] == 2
    assert report.counts["in_flight_reports"] == 0
    checks = {a.check: a for a in report.assertions}
    assert checks["submission_accounting"].passed, checks["submission_accounting"].detail
    assert checks["conservation"].passed, checks["conservation"].detail
