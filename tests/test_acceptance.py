"""Acceptance suite: the system-level exit criteria, one test per criterion.

Each test prints a single ACCEPTANCE line (visible with -s or in failure
output). Criteria 1 and 2 run the shipped scenario files at their default
time scale and must finish within the stated real-time budget.
"""

import json
import random
import time

import pytest

from ambox import canonical
from ambox.envelope import SignedEnvelope, sign, verify
from ambox.fleet import CommissionPlan, commission, start_monitoring
from ambox.harness import (
    load_scenario,
    run_scenario,
    scenario_path,
    tamper_probe,
)
from ambox.harness.scenario import DeviceSpec, LinkSpec, Scenario
from ambox.harness.world import ScenarioWorld, rtt_benchmark
from ambox.ledger import Ledger
from ambox.model import DeviceKind, DeviceIdentity, NodeState
from ambox.runtime import TaskCancelled
from ambox.transport.faults import MODE_DOWN, FaultSchedule, FaultWindow

from conftest import T0, make_report
from simworld import JOB_BODY, TRACE, build_world, mini_scenario

SEED = 20240101


def announce(n: int, name: str, passed: bool, detail: str = "") -> None:
    marker = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {n} [{marker}] {name}" + (f" — {detail}" if detail else ""))
    assert passed, f"criterion {n} ({name}): {detail}"


@pytest.fixture(scope="module")
def setup1_run():
    scenario = load_scenario(scenario_path("setup1"))
    t = time.monotonic()
    report = run_scenario(scenario, SEED)  # default time scale from the file
    wall = time.monotonic() - t
    return report, wall


@pytest.fixture(scope="module")
def setup2_run():
    scenario = load_scenario(scenario_path("setup2"))
    t = time.monotonic()
    report = run_scenario(scenario, SEED)
    wall = time.monotonic() - t
    return report, wall


def check_names(report):
    return {a.check: a for a in report.assertions}


def test_criterion_1_partition_resilience(setup1_run):
    report, wall = setup1_run
    checks = check_names(report)
    required = ["sampled_per_sensor", "zero_reading_loss", "no_ledger_duplicates",
                "commit_order_nondecreasing", "backlog_drained_within", "chain_intact"]
    ok = all(checks[name].passed for name in required)
    ok = ok and report.counts["replays"] == 0
    ok = ok and wall <= 30.0
    detail = (f"outages 2/15/60 min over 2 h; {report.counts['committed_reports']} reports, "
              f"{report.counts['committed_readings']} readings, wall {wall:.1f}s")
    announce(1, "partition resilience (setup1, scaled)", ok, detail)


def test_criterion_2_mote_recovery(setup2_run):
    report, wall = setup2_run
    checks = check_names(report)
    ok = checks["mote_multiset_equal"].passed and checks["mote_signatures_verify"].passed
    ok = ok and checks["zero_reading_loss"].passed and wall <= 30.0
    detail = (f"{checks['mote_multiset_equal'].detail}; "
              f"{checks['mote_signatures_verify'].detail}; wall {wall:.1f}s")
    announce(2, "mote recovery (setup2, scaled)", ok, detail)


def tamper_scenario(n_reports: int) -> Scenario:
    span = n_reports * 60_000
    return Scenario(
        name="tamper-acceptance",
        span_ms=span,
        devices=(DeviceSpec("node1", "node"),),
        links=(LinkSpec("wifi", "node1", "ledger"),
               LinkSpec("oplink", "node1", "operator")),
        faults=FaultSchedule([FaultWindow("wifi", 0, span + 600_000, MODE_DOWN)]),
        job=dict(JOB_BODY, sample_interval_ms=60_000, report_interval_ms=60_000),
        trace_path=TRACE,
        drain_margin_ms=300_000,
    )


def test_criterion_3_tamper_completeness():
    report = tamper_probe(tamper_scenario(100), SEED, mutate_count=None)
    counts = report.counts
    ok = (counts["mutated"] == 100 and counts["rejected_reports"] == 100
          and counts["committed_reports"] == 0 and report.passed)
    announce(3, "tamper completeness (100/100 rejected, zero misses)", ok,
             f"mutated={counts['mutated']} rejected={counts['rejected_reports']} "
             f"committed={counts['committed_reports']}")


def test_criterion_4_exhaustive_single_byte_mutation(node_key):
    n_envelopes = 20
    false_accepts = 0
    mutations = 0
    pub = node_key.public_key
    for i in range(n_envelopes):
        report = make_report(report_id=f"node-1-{T0 + i}-{i:08x}",
                             created_at=T0 + 600_000 + i, n_readings=2)
        envelope = sign(node_key, report)
        payload = envelope.payload
        for pos in range(len(payload)):
            original = payload[pos]
            for bit in range(8):
                mutated_byte = original ^ (1 << bit)
                mutated = payload[:pos] + bytes([mutated_byte]) + payload[pos + 1:]
                mutations += 1
                if verify(pub, SignedEnvelope(mutated, envelope.signature, envelope.signer)):
                    false_accepts += 1
    ok = false_accepts == 0 and mutations > 0
    announce(4, "exhaustive single-byte mutation", ok,
             f"{n_envelopes} envelopes, {mutations} mutations, "
             f"{false_accepts} false accepts")


def test_criterion_5_crash_safety():
    points = ("pre_enqueue", "post_enqueue", "pre_submit", "post_submit", "post_ack")
    rng = random.Random(SEED)
    state = {"armed": None, "fired": False, "count": 0}

    def crash_hook(point):
        if state["armed"] == point and not state["fired"]:
            state["fired"] = True
            agent = world.nodes["node1"]
            agent.crash()
            world.network.unregister_server("node1")
            raise TaskCancelled()

    scenario = mini_scenario(
        span_min=600,
        job=dict(JOB_BODY, sample_interval_ms=60_000, report_interval_ms=60_000),
    )
    world = ScenarioWorld(scenario, SEED, crash_hook=crash_hook)
    world.build()
    kills = 200

    def director():
        caller = world.operator_caller()
        plan = CommissionPlan("node1", "operator", 1, 30_000, "ledger", 1)
        commission(caller, world.operator_ledger_client(), plan, world.operator)
        start_monitoring(caller, "node1", scenario.job)
        for k in range(kills):
            state["armed"] = rng.choice(points)
            state["fired"] = False
            waited = 0
            while not state["fired"] and waited < 10 * 60_000:
                world.runtime.sleep(10_000)
                waited += 10_000
            assert state["fired"], f"kill {k} at {state['armed']} never fired"
            state["armed"] = None
            state["count"] += 1
            world.restart_node("node1")
        # Final drain with crashes disarmed.
        waited = 0
        while not world.buffers_empty() and waited < 20 * 60_000:
            world.runtime.sleep(10_000)
            waited += 10_000

    world.run(director=director)
    assert world.director_error is None, world.director_error

    # Exactly-once: no report id may appear in more than one committed block.
    blocks_file = world.data_root / "ledger" / "blocks.journal"
    committed_ids = []
    for line in blocks_file.read_bytes().splitlines():
        block = json.loads(line)
        for tx in block["transactions"]:
            payload = canonical.loads(
                __import__("base64").b64decode(tx["payload_b64"]))
            committed_ids.append(payload["report_id"])
    unique = len(committed_ids) == len(set(committed_ids))
    replay_live = world.ledger.world_state_bytes()
    replay_disk = Ledger.replayed_world_state(world.data_root / "ledger")
    replay_ok = replay_live == replay_disk
    drained = world.buffers_empty()
    replays = sum(1 for _t, _r, v in world.recorder.told() if v.replay)
    world.teardown()
    world.cleanup_dirs()
    ok = unique and replay_ok and drained and state["count"] == kills
    announce(5, "crash safety (200 randomized kill-points)", ok,
             f"kills={state['count']} committed={len(committed_ids)} "
             f"unique={unique} replays_deduped={replays} replay_match={replay_ok}")


def test_criterion_6_state_persistence():
    world = build_world(mini_scenario())
    outcome = {}

    def director():
        caller = world.operator_caller()
        plan = CommissionPlan("node1", "operator", 1, 30_000, "ledger", 1)
        commission(caller, world.operator_ledger_client(), plan, world.operator)
        start_monitoring(caller, "node1", JOB_BODY)
        world.runtime.sleep(7 * 60_000)
        job_before = world.nodes["node1"].config.job
        world.crash_node("node1")
        world.runtime.sleep(30_000)
        agent = world.restart_node("node1")
        outcome["state"] = agent.config.state
        outcome["job_before"] = job_before
        outcome["job_after"] = agent.config.job
        samples = agent.stats["samples"]
        world.runtime.sleep(3 * 60_000)
        outcome["sampling_resumed"] = agent.stats["samples"] > samples

    world.run(director=director)
    world.teardown()
    world.cleanup_dirs()
    ok = (outcome["state"] is NodeState.MONITORING
          and outcome["job_after"] == outcome["job_before"]
          and outcome["job_after"] is not None
          and outcome["sampling_resumed"])
    announce(6, "state persistence across kill/restart", ok,
             f"state={outcome['state'].value} job_equal="
             f"{outcome['job_after'] == outcome['job_before']}")


def test_criterion_7_rtt_methodology():
    results = {}
    for injected, label in ((148, "local"), (46, "short-range")):
        report = rtt_benchmark(n=40, injected_latency_ms=injected, seed=SEED, label=label)
        results[injected] = report.latency
    ok = all(
        lat["n"] == 40
        and lat["avg_ms"] == injected
        and lat["min_ms"] == injected
        and lat["max_ms"] == injected
        and not lat["partial"]
        for injected, lat in results.items()
    )
    announce(7, "RTT methodology (40 exchanges, exact in virtual time)", ok,
             "; ".join(
                 f"{inj} ms -> avg={lat['avg_ms']} min={lat['min_ms']} max={lat['max_ms']}"
                 for inj, lat in sorted(results.items())
             ))


def test_criterion_8_heartbeat_liveness():
    world = build_world(mini_scenario(job=None, heartbeat_timeout_ms=30_000))
    outcome = {}

    def director():
        caller = world.operator_caller()
        plan = CommissionPlan("node1", "operator", 1, 30_000, "ledger", 1)
        commission(caller, world.operator_ledger_client(), plan, world.operator)
        world.runtime.sleep(3_600_000)  # one virtual hour in Heartbeat state
        outcome["beats"] = world.operator.stats.heartbeats_accepted
        outcome["max_gap"] = world.operator.max_gap_ms("node1")
        outcome["missed"] = world.operator.fleet()["node1"].missed_deadline
        status, _ = caller.call("node1", "POST", "/turnOff", {})
        outcome["turn_off_status"] = status
        world.runtime.sleep(1000)
        at_off = world.operator.stats.heartbeats_accepted
        world.runtime.sleep(300_000)
        outcome["beats_after_off"] = world.operator.stats.heartbeats_accepted - at_off

    world.run(director=director)
    final_state = world.nodes["node1"].config_store.load().state
    world.teardown()
    world.cleanup_dirs()
    ok = (outcome["beats"] >= 118
          and outcome["max_gap"] is not None and outcome["max_gap"] <= 30_000
          and outcome["missed"] is False
          and outcome["turn_off_status"] == 200
          and outcome["beats_after_off"] == 0
          and final_state is NodeState.IDLE)
    announce(8, "heartbeat liveness and clean power-off", ok,
             f"beats={outcome['beats']} max_gap={outcome['max_gap']}ms "
             f"after_off={outcome['beats_after_off']} final={final_state.value}")


def test_criterion_9_determinism(setup1_run, setup2_run):
    pairs = []
    setup1_report, _ = setup1_run
    again = run_scenario(load_scenario(scenario_path("setup1")), SEED, pacing_override=0.0)
    pairs.append(("setup1", setup1_report.to_json_bytes(), again.to_json_bytes()))

    setup2_report, _ = setup2_run
    again = run_scenario(load_scenario(scenario_path("setup2")), SEED, pacing_override=0.0)
    pairs.append(("setup2", setup2_report.to_json_bytes(), again.to_json_bytes()))

    bus = load_scenario(scenario_path("bus_trip"))
    a = run_scenario(bus, SEED, pacing_override=0.0)
    b = run_scenario(bus, SEED, pacing_override=0.0)
    pairs.append(("bus_trip", a.to_json_bytes(), b.to_json_bytes()))

    t1 = tamper_probe(tamper_scenario(20), SEED, pacing_override=0.0)
    t2 = tamper_probe(tamper_scenario(20), SEED, pacing_override=0.0)
    pairs.append(("tamper", t1.to_json_bytes(), t2.to_json_bytes()))

    r1 = rtt_benchmark(n=40, injected_latency_ms=148, seed=SEED)
    r2 = rtt_benchmark(n=40, injected_latency_ms=148, seed=SEED)
    pairs.append(("rtt", r1.to_json_bytes(), r2.to_json_bytes()))

    mismatches = [name for name, x, y in pairs if x != y]
    announce(9, "determinism (byte-identical reports per seed)", not mismatches,
             f"compared={[], [name for name, _, _ in pairs]}"
             if mismatches else f"{len(pairs)} scenario pairs byte-identical")


def test_criterion_10_chain_integrity(tmp_path, node_key):
    # A 50-block ledger: genesis plus 49 single-report blocks.
    ledger_dir = tmp_path / "ledger"
    ledger = Ledger(ledger_dir, genesis_at_ms=T0)
    ledger.register_device(
        DeviceIdentity("node-1", DeviceKind.NODE, node_key.public_pem))
    for i in range(49):
        report = make_report(report_id=f"node-1-{T0 + i}-{i:08x}",
                             created_at=T0 + 600_000 + i * 1000)
        verdicts = ledger.add_events([sign(node_key, report)], T0 + i)
        assert verdicts[0].status == "committed"
    assert ledger.height == 49
    assert ledger.verify_chain() is None

    path = ledger_dir / "blocks.journal"
    pristine = path.read_bytes()
    lines = pristine.split(b"\n")
    rng = random.Random(SEED)
    detections = []
    for height in range(50):
        line = bytearray(lines[height])
        # One byte per block, position drawn across the whole line.
        pos = rng.randrange(len(line))
        line[pos] ^= 1 << rng.randrange(8)
        mutated = lines[:height] + [bytes(line)] + lines[height + 1:]
        path.write_bytes(b"\n".join(mutated))
        detections.append(ledger.verify_chain())
    path.write_bytes(pristine)
    ok = detections == list(range(50)) and ledger.verify_chain() is None
    announce(10, "chain integrity (flip detection at exact height, 50 blocks)", ok,
             f"detected_at={detections[:5]}..{detections[-3:]} restored_ok=True")
