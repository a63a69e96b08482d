"""Node agent behavior on the simulated runtime, and on real sockets where a test says so."""

import errno
import json
import logging
import random
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from ambox import canonical, storage
from ambox import node as node_module
from ambox.fleet import CommissionPlan, commission, start_monitoring, stop_monitoring
from ambox.model import DeviceIdentity, DeviceKind, NodeState
from ambox.harness.world import tamper_buffer_journal
from ambox.node import NodeAgent
from ambox.runtime import SIM_EPOCH_MS, RealRuntime, TaskCancelled
from ambox.storage import ConfigStore
from ambox.transport import LinkDown
from ambox.transport.faults import MODE_DOWN, FaultSchedule, FaultWindow
from ambox.transport.http import HttpJsonClient

from simworld import JOB_BODY, build_world, mini_scenario


def drive(world, fn):
    world.run(director=fn)
    if world.director_error is not None:
        raise world.director_error


def commission_node1(world, caller=None, timeout_ms=30_000):
    caller = caller or world.operator_caller()
    plan = CommissionPlan(
        device_dest="node1",
        heartbeat_address="operator",
        heartbeat_port=1,
        heartbeat_timeout_ms=timeout_ms,
        ledger_address="ledger",
        ledger_port=1,
    )
    commission(caller, world.operator_ledger_client(), plan, world.operator)
    return caller


def test_init_from_idle_first_beat_within_interval():
    world = build_world(mini_scenario(job=None))
    observed = {}

    def director():
        caller = commission_node1(world)
        world.runtime.sleep(10_000)  # one interval at timeout 30s
        observed["beats"] = world.operator.stats.heartbeats_accepted
        status, body = caller.call("node1", "GET", "/identity", None)
        observed["state"] = body["state"]

    drive(world, director)
    world.teardown()
    assert observed["state"] == "heartbeat"
    assert observed["beats"] >= 1


def test_init_twice_illegal_state():
    world = build_world(mini_scenario(job=None))
    statuses = {}

    def director():
        caller = commission_node1(world)
        statuses["second_init"] = caller.call("node1", "POST", "/init", {})[0]

    drive(world, director)
    world.teardown()
    assert statuses["second_init"] == 409


def test_heartbeat_cadence_timeout_over_three():
    world = build_world(mini_scenario(job=None))
    counts = {}

    def director():
        commission_node1(world, timeout_ms=30_000)
        start = world.operator.stats.heartbeats_accepted
        world.runtime.sleep(60_000)
        counts["in_window"] = world.operator.stats.heartbeats_accepted - start

    drive(world, director)
    world.teardown()
    assert 5 <= counts["in_window"] <= 7  # 6 +/- 1 at 10 s cadence


class _NotJsonSink(BaseHTTPRequestHandler):
    """A heartbeat sink that answers every post with a body that is not JSON."""

    protocol_version = "HTTP/1.1"
    posts = 0

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        type(self).posts += 1
        data = b"<html>accepted</html>"
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_a_heartbeat_answer_that_is_not_json_is_a_failed_beat(tmp_path, node_key):
    # On real sockets, at a 100 ms cadence: every answer is refused, and
    # the heartbeat activity goes on posting.
    _NotJsonSink.posts = 0
    sink = ThreadingHTTPServer(("127.0.0.1", 0), _NotJsonSink)
    threading.Thread(target=sink.serve_forever, daemon=True).start()
    node = NodeAgent(node_key, tmp_path, RealRuntime(), heartbeat_caller=HttpJsonClient(),
                     ledger_requester=None, make_dest=lambda address, port: f"{address}:{port}",
                     sensor_factory=None)
    try:
        assert node.router("POST", "/configHeartbeat", {
            "ipaddr": "127.0.0.1", "port": sink.server_address[1],
            "heartbeat_timeout_ms": 300})[0] == 200
        assert node.router("POST", "/init", {})[0] == 200
        deadline = time.monotonic() + 10
        while node.stats["heartbeat_failures"] < 5 and time.monotonic() < deadline:
            time.sleep(0.02)
        alive = node._tasks["heartbeat"].alive
    finally:
        node.stop()
        sink.shutdown()
        sink.server_close()
    assert alive
    assert node.stats["heartbeat_failures"] >= 5
    assert node.stats["heartbeats_sent"] == 0
    assert _NotJsonSink.posts >= 5


def test_config_heartbeat_rejects_port_zero():
    world = build_world(mini_scenario(job=None))
    result = {}

    def director():
        caller = world.operator_caller()
        status, body = caller.call("node1", "POST", "/configHeartbeat",
                                   {"ipaddr": "operator", "port": 0,
                                    "heartbeat_timeout_ms": 30_000})
        result["status"] = status
        result["error"] = body.get("error", "")

    drive(world, director)
    world.teardown()
    assert result["status"] == 400
    assert "invalid-argument" in result["error"]


def test_reconfigure_heartbeat_gap_bounded():
    world = build_world(mini_scenario(job=None))

    def director():
        caller = commission_node1(world, timeout_ms=30_000)   # 10 s cadence
        world.runtime.sleep(35_000)
        caller.call("node1", "POST", "/configHeartbeat",
                    {"ipaddr": "operator", "port": 1, "heartbeat_timeout_ms": 60_000})
        world.runtime.sleep(120_000)

    drive(world, director)
    world.teardown()
    gap = world.operator.fleet()["node1"].max_gap_ms
    assert gap is not None and gap <= 10_000 + 20_000  # old + new interval


def test_config_blockchain_validation():
    world = build_world(mini_scenario(job=None))
    result = {}

    def director():
        caller = world.operator_caller()
        result["empty_channel"] = caller.call(
            "node1", "POST", "/configBlockchain",
            {"ipaddr": "ledger", "port": 1, "channel_name": "", "chaincode_name": "cc"})[0]
        result["ok"] = caller.call(
            "node1", "POST", "/configBlockchain",
            {"ipaddr": "ledger", "port": 1, "channel_name": "ch", "chaincode_name": "cc"})[0]

    drive(world, director)
    world.teardown()
    assert result["empty_channel"] == 400
    assert result["ok"] == 200


def test_start_monitoring_preconditions():
    world = build_world(mini_scenario(job=None))
    result = {}

    def director():
        caller = world.operator_caller()
        # From idle: illegal.
        result["from_idle"] = caller.call("node1", "POST", "/startMonitoring", JOB_BODY)[0]
        caller.call("node1", "POST", "/configHeartbeat",
                    {"ipaddr": "operator", "port": 1, "heartbeat_timeout_ms": 30_000})
        caller.call("node1", "POST", "/init", {})
        # Heartbeat but no ledger configured: illegal.
        result["no_ledger"] = caller.call("node1", "POST", "/startMonitoring", JOB_BODY)
        caller.call("node1", "POST", "/configBlockchain",
                    {"ipaddr": "ledger", "port": 1, "channel_name": "ch",
                     "chaincode_name": "cc"})
        result["ok"] = caller.call("node1", "POST", "/startMonitoring", JOB_BODY)[0]

    drive(world, director)
    world.teardown()
    assert result["from_idle"] == 409
    assert result["no_ledger"][0] == 409
    assert result["no_ledger"][1]["error"] == "ledger-not-configured"
    assert result["ok"] == 200


def test_monitoring_samples_then_reports():
    world = build_world(mini_scenario())
    counts = {}

    def director():
        caller = commission_node1(world)
        start_monitoring(caller, "node1", JOB_BODY)
        world.runtime.sleep(10 * 60_000 + 2000)
        counts["samples"] = world.nodes["node1"].stats["samples"]
        counts["reports"] = len(world.ledger.all_reports())

    drive(world, director)
    world.teardown()
    assert counts["samples"] == 30  # 3 sensors x 10 minutes at 1/min
    assert counts["reports"] == 2   # packs at 5 and 10 minutes


def test_stop_monitoring_drains_and_heartbeats_continue():
    span_down = FaultSchedule([FaultWindow("wifi", 0, 30 * 60_000, MODE_DOWN)])
    world = build_world(mini_scenario(faults=span_down))
    snap = {}

    def director():
        caller = commission_node1(world)
        start_monitoring(caller, "node1", JOB_BODY)
        world.runtime.sleep(7 * 60_000)          # buffer ~1-2 reports, link down
        stop_monitoring(caller, "node1")
        status, body = caller.call("node1", "GET", "/identity", None)
        snap["state_after_stop"] = body["state"]
        snap["buffered_after_stop"] = body["buffer_depth"]
        # Drain continues in the background once the link returns (t=30min).
        world.runtime.sleep(30 * 60_000)
        snap["final_depth"] = world.nodes["node1"].buffer.depth()
        snap["committed"] = len(world.ledger.all_reports())

    drive(world, director)
    world.teardown()
    assert snap["state_after_stop"] == "heartbeat"
    assert snap["buffered_after_stop"] >= 1
    assert snap["final_depth"] == 0
    assert snap["committed"] >= 1


def test_a_dead_link_is_probed_with_one_envelope():
    # Down for 22 minutes: reports packed at 5, 10, 15 and 20 minutes wait
    # behind the dead link, the first of them for 34 retry intervals.
    down = FaultSchedule([FaultWindow("wifi", 0, 22 * 60_000, MODE_DOWN)])
    world = build_world(mini_scenario(faults=down))
    log = world.network.message_log
    refused = {}                 # message_log index -> envelopes in that request
    request = world.network.request

    def counting_request(src, dest, payload, timeout_ms, label):
        try:
            return request(src, dest, payload, timeout_ms, label)
        except LinkDown:
            if label == "ledger:AddEvents":
                refused[len(log) - 1] = len(json.loads(payload)["args"]["envelopes"])
            raise

    world.network.request = counting_request
    out = {}

    def director():
        caller = commission_node1(world)
        start_monitoring(caller, "node1", JOB_BODY)
        world.runtime.sleep(22 * 60_000)
        out["backlog"] = world.nodes["node1"].buffer.depth()
        world.runtime.sleep(2 * 60_000)      # the link is back; the 25-minute pack is not due
        out["blocks"] = [len(b.transactions) for b in world.ledger.blocks() if b.transactions]
        out["depth"] = world.nodes["node1"].buffer.depth()

    drive(world, director)
    world.teardown()
    down_entries = [i for i, e in enumerate(log)
                    if e.get("label") == "ledger:AddEvents" and e["outcome"] == "link-down"]
    assert len(down_entries) >= 34
    assert sorted(refused) == down_entries
    assert set(refused.values()) == {1}
    # The probe is answered, and the same drain ships the rest in one batch.
    assert out["backlog"] == 4
    assert out["blocks"] == [1, 3]
    assert out["depth"] == 0


def test_stop_from_heartbeat_illegal():
    world = build_world(mini_scenario(job=None))
    result = {}

    def director():
        caller = commission_node1(world)
        result["status"] = caller.call("node1", "POST", "/stopMonitoring", {})[0]

    drive(world, director)
    world.teardown()
    assert result["status"] == 409


def test_turn_off_clean_and_refusals():
    world = build_world(mini_scenario())
    result = {}

    def director():
        caller = commission_node1(world)
        start_monitoring(caller, "node1", JOB_BODY)
        result["off_while_monitoring"] = caller.call("node1", "POST", "/turnOff", {})[0]
        world.runtime.sleep(6 * 60_000)
        stop_monitoring(caller, "node1")
        world.runtime.sleep(60_000)  # drain completes (link is up)
        result["off_ok"] = caller.call("node1", "POST", "/turnOff", {})[0]
        world.runtime.sleep(1000)
        beats_at_off = world.operator.stats.heartbeats_accepted
        world.runtime.sleep(120_000)
        result["beats_after_off"] = world.operator.stats.heartbeats_accepted - beats_at_off

    drive(world, director)
    state = world.nodes["node1"].config_store.load().state
    world.teardown()
    assert result["off_while_monitoring"] == 409
    assert result["off_ok"] == 200
    assert result["beats_after_off"] == 0
    assert state is NodeState.IDLE


def test_turn_off_refused_with_backlog():
    down = FaultSchedule([FaultWindow("wifi", 0, 600 * 60_000, MODE_DOWN)])
    world = build_world(mini_scenario(faults=down))
    result = {}

    def director():
        caller = commission_node1(world)
        start_monitoring(caller, "node1", JOB_BODY)
        world.runtime.sleep(6 * 60_000)
        stop_monitoring(caller, "node1")
        status, body = caller.call("node1", "POST", "/turnOff", {})
        result["status"] = status
        result["error"] = body.get("error")

    drive(world, director)
    world.teardown()
    assert result["status"] == 409
    assert result["error"] == "buffer-not-drained"


def watch_heartbeats(world):
    """(sequence, accepted) of every heartbeat the operator ingests, in order."""
    operator = world.operator
    ingest = operator.ingest_heartbeat
    seen = []

    def recording(obj):
        accepted = operator.stats.heartbeats_accepted
        ingest(obj)
        seen.append((obj["sequence"], operator.stats.heartbeats_accepted > accepted))

    operator.ingest_heartbeat = recording
    return seen


def identity_sequence(caller):
    return caller.call("node1", "GET", "/identity", None)[1]["heartbeat_sequence"]


def test_restart_resumes_heartbeat_state():
    world = build_world(mini_scenario(job=None))
    beats = watch_heartbeats(world)
    seqs = {}

    def director():
        caller = commission_node1(world)
        world.runtime.sleep(25_000)
        seqs["before"] = identity_sequence(caller)
        seqs["beats_before"] = len(beats)
        world.crash_node("node1")
        world.runtime.sleep(5_000)
        world.restart_node("node1")
        world.runtime.sleep(30_000)
        seqs["after"] = identity_sequence(caller)
        seqs["state"] = world.nodes["node1"].config.state

    drive(world, director)
    world.teardown()
    before, after = beats[:seqs["beats_before"]], beats[seqs["beats_before"]:]
    assert seqs["state"] is NodeState.HEARTBEAT
    assert before and after and all(accepted for _seq, accepted in beats)
    assert world.operator.stats.heartbeats_ignored == 0
    assert seqs["before"] == before[-1][0]        # /identity names the last beat sent
    assert after[0][0] > before[-1][0]            # strictly increasing across restarts
    assert seqs["after"] == after[-1][0]
    assert seqs["after"] > seqs["before"]


def test_crash_after_ceiling_write_skips_the_reserved_block():
    crashes = {"armed": False, "fired": False}

    def crash_hook(point):
        if point == "post_ceiling" and crashes["armed"] and not crashes["fired"]:
            crashes["fired"] = True
            world.nodes["node1"].crash()
            world.network.unregister_server("node1")
            raise TaskCancelled()

    world = build_world(mini_scenario(job=None), crash_hook=crash_hook)
    beats = watch_heartbeats(world)
    out = {}

    def director():
        commission_node1(world)
        world.runtime.sleep(25_000)
        world.crash_node("node1")
        crashes["armed"] = True      # the first beat after restart raises the ceiling, then dies
        node = world.restart_node("node1")
        out["old_ceiling"] = node.config.heartbeat_sequence
        world.runtime.sleep(5_000)
        assert crashes["fired"]
        out["beats_before"] = len(beats)
        out["new_ceiling"] = node.config_store.load().heartbeat_sequence
        world.restart_node("node1")
        world.runtime.sleep(30_000)

    drive(world, director)
    world.teardown()
    before, after = beats[:out["beats_before"]], beats[out["beats_before"]:]
    assert out["new_ceiling"] > out["old_ceiling"] >= before[-1][0]
    assert all(seq <= out["old_ceiling"] for seq, _ in before)   # the dying beat never left
    assert after[0][0] == out["new_ceiling"] + 1
    assert all(accepted for _seq, accepted in beats)
    assert world.operator.stats.heartbeats_ignored == 0


def test_config_holding_the_last_beat_sent_is_a_valid_ceiling():
    # A config file written before sequences were reserved in blocks holds
    # the last beat sent; the first beat after the upgrade must pass it.
    world = build_world(mini_scenario(job=None))
    beats = watch_heartbeats(world)
    out = {}

    def director():
        commission_node1(world)
        while not beats or beats[-1][0] < 17:
            world.runtime.sleep(1_000)
        world.crash_node("node1")
        store = world.nodes["node1"].config_store
        store.save(replace(store.load(), heartbeat_sequence=17))
        out["beats_before"] = len(beats)
        world.restart_node("node1")
        world.runtime.sleep(30_000)

    drive(world, director)
    world.teardown()
    before, after = beats[:out["beats_before"]], beats[out["beats_before"]:]
    assert before[-1] == (17, True)
    assert after and after[0] == (18, True)
    assert all(accepted for _seq, accepted in beats)
    assert world.operator.stats.heartbeats_ignored == 0


def test_failed_ceiling_write_costs_one_beat(fail_next_fsync):
    world = build_world(mini_scenario(job=None))
    beats = watch_heartbeats(world)
    out = {}

    def director():
        caller = commission_node1(world)
        world.runtime.sleep(25_000)
        out["beats_before"] = len(beats)
        world.crash_node("node1")
        fail_next_fsync()            # the first beat after restart needs a new ceiling
        node = world.restart_node("node1")
        config = node.config
        world.runtime.sleep(5_000)
        out["failures"] = node.stats["heartbeat_failures"]
        out["kept"] = node.config == config == node.config_store.load()
        out["beats_during"] = len(beats) - out["beats_before"]
        world.runtime.sleep(30_000)
        out["identity"] = identity_sequence(caller)

    drive(world, director)
    world.teardown()
    before, after = beats[:out["beats_before"]], beats[out["beats_before"]:]
    assert out["failures"] == 1
    assert out["kept"] is True
    assert out["beats_during"] == 0
    assert len(after) >= 3 and after[0][0] > before[-1][0]   # retried at the next interval
    assert all(accepted for _seq, accepted in beats)
    assert world.operator.stats.heartbeats_ignored == 0
    assert out["identity"] == after[-1][0]


def test_heartbeats_reserve_sequences_in_blocks(monkeypatch):
    # The criterion-8 hour in Heartbeat state: commissioning saves the
    # config three times (/configHeartbeat, /configBlockchain, /init) and
    # the hour's beats share one ceiling write.
    saves = []
    save = ConfigStore.save
    monkeypatch.setattr(ConfigStore, "save",
                        lambda store, config: (saves.append(config), save(store, config)))
    world = build_world(mini_scenario(job=None, heartbeat_timeout_ms=30_000))
    out = {}

    def director():
        commission_node1(world)
        world.runtime.sleep(3_600_000)
        out["beats"] = world.operator.stats.heartbeats_accepted
        out["saves"] = len(saves)

    drive(world, director)
    world.teardown()
    assert out["beats"] >= 360
    assert out["saves"] <= 3 + 1


def test_clean_stop_gives_back_the_unused_reserve():
    world = build_world(mini_scenario(job=None))
    beats = watch_heartbeats(world)
    out = {}

    def director():
        commission_node1(world)
        world.runtime.sleep(25_000)
        node = world.nodes["node1"]
        node.stop()
        world.network.unregister_server("node1")
        out["beats_before"] = len(beats)
        out["ceiling"] = node.config_store.load().heartbeat_sequence
        world.restart_node("node1")
        world.runtime.sleep(30_000)

    drive(world, director)
    world.teardown()
    before, after = beats[:out["beats_before"]], beats[out["beats_before"]:]
    assert out["ceiling"] == before[-1][0]
    assert after and after[0] == (before[-1][0] + 1, True)


def test_restart_resumes_monitoring_with_same_job():
    world = build_world(mini_scenario())
    out = {}

    def director():
        caller = commission_node1(world)
        start_monitoring(caller, "node1", JOB_BODY)
        world.runtime.sleep(7 * 60_000)
        job_before = world.nodes["node1"].config.job
        world.crash_node("node1")
        world.runtime.sleep(60_000)
        agent = world.restart_node("node1")
        out["job_before"] = job_before
        out["job_after"] = agent.config.job
        out["state"] = agent.config.state
        samples_at_restart = agent.stats["samples"]
        world.runtime.sleep(5 * 60_000)
        out["resumed_sampling"] = agent.stats["samples"] > samples_at_restart

    drive(world, director)
    world.teardown()
    assert out["state"] is NodeState.MONITORING
    assert out["job_after"] == out["job_before"]  # field-for-field equality
    assert out["resumed_sampling"] is True


class StallingDriver:
    def __init__(self, inner, runtime, stall_at, stall_ms):
        self._inner = inner
        self._runtime = runtime
        self._stall_at = stall_at
        self._stall_ms = stall_ms
        self._stalled = False

    @property
    def spec(self):
        return self._inner.spec

    def read(self, t_ms):
        if not self._stalled and t_ms >= self._stall_at:
            self._stalled = True
            self._runtime.sleep(self._stall_ms)
        return self._inner.read(t_ms)


def test_one_stalling_sensor_does_not_delay_others():
    world = build_world(mini_scenario())
    node = world.nodes["node1"]
    inner_factory = node.sensor_factory
    stall_at = SIM_EPOCH_MS + 3 * 60_000

    def stalling_factory(quantity):
        driver = inner_factory(quantity)
        if quantity == "temperature" and driver is not None:
            return StallingDriver(driver, world.runtime, stall_at, 5 * 60_000)
        return driver

    node.sensor_factory = stalling_factory
    counts = {}

    def director():
        caller = commission_node1(world)
        start_monitoring(caller, "node1", JOB_BODY)
        world.runtime.sleep(10 * 60_000 + 2000)
        by_q = {}
        for s in world.metrics.samples:
            by_q[s["quantity"]] = by_q.get(s["quantity"], 0) + 1
        counts.update(by_q)

    drive(world, director)
    world.teardown()
    assert counts["humidity"] == 10
    assert counts["pressure"] == 10
    assert counts["temperature"] < 10  # the stalled loop lost its own ticks only


class OutOfRangeDriver:
    def __init__(self, spec):
        self.spec = spec
        self.calls = 0

    def read(self, t_ms):
        self.calls += 1
        return self.spec.range_max + 10.0


def test_out_of_range_reading_dropped():
    world = build_world(mini_scenario())
    node = world.nodes["node1"]
    inner_factory = node.sensor_factory

    def factory(quantity):
        driver = inner_factory(quantity)
        if quantity == "pressure" and driver is not None:
            return OutOfRangeDriver(driver.spec)
        return driver

    node.sensor_factory = factory
    stats = {}

    def director():
        caller = commission_node1(world)
        start_monitoring(caller, "node1", JOB_BODY)
        world.runtime.sleep(5 * 60_000 + 2000)
        stats["drops"] = node.stats["out_of_range_drops"]
        stats["pressure_samples"] = sum(
            1 for s in world.metrics.samples if s["quantity"] == "pressure")

    drive(world, director)
    world.teardown()
    assert stats["drops"] == 5
    assert stats["pressure_samples"] == 0


def test_reconfigure_ledger_drains_to_new_endpoint():
    world = build_world(mini_scenario())
    result = {}

    def director():
        caller = world.operator_caller()
        caller.call("node1", "POST", "/configHeartbeat",
                    {"ipaddr": "operator", "port": 1, "heartbeat_timeout_ms": 30_000})
        # Point at a dead endpoint first; entries must stay buffered.
        caller.call("node1", "POST", "/configBlockchain",
                    {"ipaddr": "nowhere", "port": 1, "channel_name": "ch",
                     "chaincode_name": "cc"})
        caller.call("node1", "POST", "/init", {})
        world.operator_ledger_client().register_device(DeviceIdentity(
            "node1", DeviceKind.NODE, world.nodes["node1"].keypair.public_pem))
        caller.call("node1", "POST", "/startMonitoring", JOB_BODY)
        world.runtime.sleep(11 * 60_000)
        result["buffered_before"] = world.nodes["node1"].buffer.depth()
        result["submit_failures"] = world.nodes["node1"].stats["submit_failures"]
        caller.call("node1", "POST", "/configBlockchain",
                    {"ipaddr": "ledger", "port": 1, "channel_name": "ch",
                     "chaincode_name": "cc"})
        world.runtime.sleep(60_000)
        result["buffered_after"] = world.nodes["node1"].buffer.depth()
        result["committed"] = len(world.ledger.all_reports())

    drive(world, director)
    world.teardown()
    assert result["buffered_before"] >= 2
    assert result["submit_failures"] >= 1    # submissions to the dead endpoint failed
    assert result["buffered_after"] == 0
    assert result["committed"] == result["buffered_before"]


def test_crash_between_submit_and_ack_is_exactly_once():
    crashes = {"armed": False, "fired": False}

    def crash_hook(point):
        if point == "post_submit" and crashes["armed"] and not crashes["fired"]:
            crashes["fired"] = True
            world.nodes["node1"].crash()
            world.network.unregister_server("node1")
            raise TaskCancelled()

    world = build_world(mini_scenario(), crash_hook=crash_hook)
    result = {}

    def director():
        caller = commission_node1(world)
        start_monitoring(caller, "node1", JOB_BODY)
        world.runtime.sleep(4 * 60_000)
        crashes["armed"] = True              # next submit crashes before ack
        world.runtime.sleep(3 * 60_000)
        crashes["armed"] = False
        assert crashes["fired"]
        world.restart_node("node1")          # resumes monitoring; resubmits
        world.runtime.sleep(10 * 60_000)
        result["reports"] = [r.report_id for r in world.ledger.all_reports()]
        result["replays"] = sum(1 for _t, _r, v in world.recorder.told() if v.replay)

    drive(world, director)
    world.teardown()
    assert len(result["reports"]) == len(set(result["reports"]))
    assert result["replays"] >= 1            # the resubmission was deduplicated


def test_rejection_log_names_the_report_sent(caplog):
    # A signature failure is decided before the ledger parses the payload, so
    # its verdict carries no report id; the node names the envelope it sent.
    down = FaultSchedule([FaultWindow("wifi", 0, 20 * 60_000, MODE_DOWN)])
    world = build_world(mini_scenario(faults=down))
    sent = []

    def director():
        caller = commission_node1(world)
        start_monitoring(caller, "node1", JOB_BODY)
        world.runtime.sleep(11 * 60_000)     # reports buffered behind the dead link
        world.crash_node("node1")
        assert tamper_buffer_journal(world.data_root / "node1", 1, random.Random(7))[0] == 1
        node = world.restart_node("node1")
        sent.extend(canonical.loads(entry.envelope.payload)["report_id"]
                    for entry in node.buffer.peek_batch(10))
        world.runtime.sleep(20 * 60_000)     # link back at 20 min; the backlog drains

    with caplog.at_level(logging.WARNING, logger="ambox.node"):
        drive(world, director)
    world.teardown()
    rejections = [r.getMessage() for r in caplog.records if "ledger rejected" in r.getMessage()]
    assert len(sent) >= 2
    assert rejections == [f"node1: ledger rejected {sent[0]} (signature-invalid)"]


def test_storage_full_pauses_sampling_and_raises_alarm():
    from ambox.storage import DurableBuffer

    down = FaultSchedule([FaultWindow("wifi", 0, 40 * 60_000, MODE_DOWN)])
    world = build_world(mini_scenario(faults=down))
    node = world.nodes["node1"]
    node.buffer.close()
    node.buffer = DurableBuffer(node.data_dir, cap=2)  # tiny cap to hit the wall
    out = {}

    def director():
        caller = commission_node1(world)
        start_monitoring(caller, "node1", JOB_BODY)
        world.runtime.sleep(16 * 60_000)     # 3 packs due; cap is 2
        out["alarm"] = node._storage_alarm
        out["full_events"] = node.stats["storage_full_events"]
        samples_at_full = node.stats["samples"]
        world.runtime.sleep(5 * 60_000)
        out["paused"] = node.stats["samples"] == samples_at_full
        # Alarm flag rides the heartbeat wire.
        out["hb_alarm"] = world.operator.fleet()["node1"].buffer_alarm
        # Link restores at t=40min; the backlog drains and sampling resumes.
        world.runtime.sleep(30 * 60_000)
        out["alarm_after"] = node._storage_alarm
        out["resumed"] = node.stats["samples"] > samples_at_full

    drive(world, director)
    world.teardown()
    assert out["alarm"] is True
    assert out["full_events"] >= 1
    assert out["paused"] is True
    assert out["hb_alarm"] is True
    assert out["alarm_after"] is False
    assert out["resumed"] is True


def test_start_monitoring_refuses_what_the_config_file_cannot_hold():
    world = build_world(mini_scenario(job=None))
    unstorable = [{"temperature": {"enabled": True, "offset": float("nan")}},
                  {"temperature": {"enabled": True, "offset": float("inf")}},
                  {"\ud800": {"enabled": True}}]
    result = {}

    def director():
        caller = world.operator_caller()
        caller.call("node1", "POST", "/configHeartbeat",
                    {"ipaddr": "operator", "port": 1, "heartbeat_timeout_ms": 30_000})
        caller.call("node1", "POST", "/init", {})
        caller.call("node1", "POST", "/configBlockchain",
                    {"ipaddr": "ledger", "port": 1, "channel_name": "ch", "chaincode_name": "cc"})
        node = world.nodes["node1"]
        before = (node.config, node.config_store.path.read_bytes())
        result["refused"] = [
            caller.call("node1", "POST", "/startMonitoring", dict(JOB_BODY, sensor_params=p))
            for p in unstorable]
        result["bad_address"] = caller.call(
            "node1", "POST", "/configBlockchain",
            {"ipaddr": "\ud800", "port": 1, "channel_name": "ch", "chaincode_name": "cc"})
        result["unchanged"] = (node.config, node.config_store.path.read_bytes()) == before
        result["ok"] = caller.call("node1", "POST", "/startMonitoring", JOB_BODY)[0]

    drive(world, director)
    world.teardown()
    assert result["refused"] == [(400, {"error": "invalid-argument:sensor_params"})] * 3
    assert result["bad_address"] == (400, {"error": "invalid-argument:ipaddr"})
    assert result["unchanged"] is True
    assert result["ok"] == 200


def test_a_config_write_that_fails_changes_nothing(fail_next_fsync):
    world = build_world(mini_scenario(job=None))
    node = world.nodes["node1"]
    calls = [
        ("/configHeartbeat", {"ipaddr": "operator", "port": 1, "heartbeat_timeout_ms": 30_000}),
        ("/configBlockchain", {"ipaddr": "ledger", "port": 1, "channel_name": "ch",
                               "chaincode_name": "cc"}),
        ("/init", {}),
    ]
    out = []

    def director():
        caller = world.operator_caller()
        for path, body in calls:
            before = node.config
            fail_next_fsync()
            failed = caller.call("node1", "POST", path, body)
            kept = node.config == before == node.config_store.load()
            ok = caller.call("node1", "POST", path, body)[0]
            out.append((path, failed, kept, ok, node.config == node.config_store.load()))

    drive(world, director)
    world.teardown()
    assert out == [(path, (503, {"error": "storage-failed"}), True, 200, True)
                   for path, _body in calls]
    assert node.config.state is NodeState.HEARTBEAT


def answer_add_events_with(world, answer: dict, times: int) -> None:
    """Make the ledger answer its next `times` AddEvents with `answer`."""
    handle = world.ledger_service.handle
    left = [times]

    def handler(src, payload):
        if left[0] and json.loads(payload)["op"] == "AddEvents":
            left[0] -= 1
            return json.dumps(answer).encode("utf-8")
        return handle(src, payload)

    world.network.register_server("ledger", handler)


@pytest.mark.parametrize("answer", [
    {"ok": True, "result": {"verdicts": []}},       # no verdict for any envelope
    {"ok": False, "error": "internal"},
], ids=["no-verdicts", "error"])
def test_an_unusable_ledger_answer_acks_nothing(answer):
    world = build_world(mini_scenario(job=None))
    answer_add_events_with(world, answer, times=3)
    node = world.nodes["node1"]
    out = {}

    def director():
        caller = commission_node1(world)
        start_monitoring(caller, "node1", JOB_BODY)
        world.runtime.sleep(30 * 60_000)
        stop_monitoring(caller, "node1")
        world.runtime.sleep(2 * 60_000)
        out["depth"] = node.buffer.depth()

    drive(world, director)
    world.teardown()
    committed = sum(len(r.readings) for r in world.ledger.all_reports())
    assert node.stats["samples"] >= 87
    assert committed == node.stats["samples"]
    assert out["depth"] == 0
    assert node.stats["submit_failures"] == 3


def fail_journal_fsync(monkeypatch, node, nth: int) -> None:
    """Make the nth fsync of the node's buffer journal raise EIO."""
    fd = node.buffer._journal._file.fileno()
    real_fsync = storage.os.fsync
    seen = []

    def fsync(target):
        if target == fd:
            seen.append(target)
            if len(seen) == nth:
                raise OSError(errno.EIO, "injected fsync failure")
        real_fsync(target)

    monkeypatch.setattr(storage.os, "fsync", fsync)


@pytest.mark.parametrize("nth, what", [(1, "report"), (2, "ack")],
                         ids=["report-append", "ack-append"])
def test_a_failed_journal_append_loses_no_reading(monkeypatch, caplog, nth, what):
    # The first journal fsync is the report packed at 5 minutes; the second
    # is the ack after that report's submission.
    world = build_world(mini_scenario(job=None))
    node = world.nodes["node1"]
    fail_journal_fsync(monkeypatch, node, nth)
    out = {}

    def director():
        caller = commission_node1(world)
        start_monitoring(caller, "node1", JOB_BODY)
        world.runtime.sleep(30 * 60_000)
        stop_monitoring(caller, "node1")
        world.runtime.sleep(2 * 60_000)
        out["depth"] = node.buffer.depth()

    with caplog.at_level(logging.ERROR, logger="ambox.node"):
        drive(world, director)
    world.teardown()
    reports = world.ledger.all_reports()
    committed = sum(len(r.readings) for r in reports)
    assert [r.getMessage() for r in caplog.records] == [
        f"node1: cannot store {what}: [Errno 5] injected fsync failure"]
    assert node.stats["samples"] >= 60
    assert committed == node.stats["samples"]
    assert len({r.report_id for r in reports}) == len(reports)
    assert out["depth"] == 0
    assert node.stats["replays"] == (what == "ack")


@pytest.mark.parametrize("fields, error", [
    ({"sample_interval_ms": 1.5}, "sample_interval_ms"),
    ({"sample_interval_ms": True, "report_interval_ms": True}, "report_interval_ms"),
    ({"report_interval_ms": "300000"}, "report_interval_ms"),
    ({"report_interval_ms": 300_000.0}, "report_interval_ms"),
    ({"report_interval_ms": None, "interval_ms": 300_000}, "report_interval_ms"),
    ({"report_interval_ms": ..., "interval_ms": 1.5}, "interval_ms"),
    ({"sensor_params": {"temperature": [["enabled", True]]}}, "sensor_params"),
    # The config file holds it, but refuses it when the node restarts.
    ({"sensor_params": {"temperature": {"enabled": "yes"}}}, "sensor_params"),
])
def test_start_monitoring_takes_its_numbers_and_params_as_sent(fields, error):
    body = {k: v for k, v in {**JOB_BODY, **fields}.items() if v is not ...}
    with pytest.raises(node_module.ControlError) as refused:
        node_module._job_from_body(body)
    assert (refused.value.status, refused.value.error) == (400, f"invalid-argument:{error}")


def test_start_monitoring_reads_interval_ms_as_both_intervals():
    body = {k: v for k, v in JOB_BODY.items()
            if k not in ("report_interval_ms", "sample_interval_ms")}
    job = node_module._job_from_body({**body, "interval_ms": 300_000})
    assert (job.sample_interval_ms, job.report_interval_ms) == (300_000, 300_000)
