"""Node agent behavior on the simulated runtime."""


from ambox.fleet import CommissionPlan, commission, start_monitoring, stop_monitoring
from ambox.model import DeviceIdentity, DeviceKind, NodeState
from ambox.runtime import SIM_EPOCH_MS, TaskCancelled
from ambox.transport.faults import MODE_DOWN, FaultSchedule, FaultWindow

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
    gap = world.operator.max_gap_ms("node1")
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


def test_restart_resumes_heartbeat_state():
    world = build_world(mini_scenario(job=None))
    seqs = {}

    def director():
        commission_node1(world)
        world.runtime.sleep(25_000)
        seqs["before"] = world.nodes["node1"].config.heartbeat_sequence
        world.crash_node("node1")
        world.runtime.sleep(5_000)
        world.restart_node("node1")
        world.runtime.sleep(30_000)
        seqs["after"] = world.nodes["node1"].config.heartbeat_sequence
        seqs["state"] = world.nodes["node1"].config.state

    drive(world, director)
    world.teardown()
    assert seqs["state"] is NodeState.HEARTBEAT
    assert seqs["after"] > seqs["before"]  # sequence strictly increases across restarts


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

    def stalling_factory(quantity, params):
        driver = inner_factory(quantity, params)
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

    def factory(quantity, params):
        driver = inner_factory(quantity, params)
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
        result["attempts"] = world.nodes["node1"].buffer.peek_batch(1)[0].attempts
        caller.call("node1", "POST", "/configBlockchain",
                    {"ipaddr": "ledger", "port": 1, "channel_name": "ch",
                     "chaincode_name": "cc"})
        world.runtime.sleep(60_000)
        result["buffered_after"] = world.nodes["node1"].buffer.depth()
        result["committed"] = len(world.ledger.all_reports())

    drive(world, director)
    world.teardown()
    assert result["buffered_before"] >= 2
    assert result["attempts"] >= 1           # failure notices incremented attempts
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
