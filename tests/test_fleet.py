"""Operator control plane: heartbeat ingestion, liveness, commissioning."""

import pytest

from ambox.fleet import (
    CommissionPlan,
    DeviceIllegalState,
    LedgerUnreachable,
    MalformedMessage,
    OperatorCore,
    OperatorError,
    commission,
    decommission,
    start_monitoring,
)
from ambox.model import DeviceIdentity, DeviceKind, HeartbeatMessage, NodeState
from ambox.transport.faults import MODE_DOWN, FaultSchedule, FaultWindow

from conftest import T0
from simworld import JOB_BODY, build_world, mini_scenario


def beat(seq, at=T0, state=NodeState.HEARTBEAT, device="node-1"):
    return HeartbeatMessage(device, state, at, seq).to_obj()


def test_ingest_updates_view():
    core = OperatorCore(clock=lambda: T0 + 1000)
    core.ingest_heartbeat(beat(1, T0))
    view = core.fleet()
    assert view["node-1"].last_heartbeat_at == T0
    assert view["node-1"].reported_state == "heartbeat"
    assert view["node-1"].missed_deadline is False


def test_out_of_order_ignored():
    core = OperatorCore(clock=lambda: T0)
    core.ingest_heartbeat(beat(5, T0))
    core.ingest_heartbeat(beat(4, T0 + 1000))   # replayed older sequence
    core.ingest_heartbeat(beat(5, T0 + 2000))   # duplicate sequence
    assert core.fleet()["node-1"].last_heartbeat_at == T0
    assert core.stats.heartbeats_ignored == 2


def test_malformed_heartbeat_rejected():
    core = OperatorCore(clock=lambda: T0)
    with pytest.raises(MalformedMessage):
        core.ingest_heartbeat({"device_id": "x"})
    status, body = core.router("POST", "/heartbeat", {"nope": 1})
    assert status == 400


@pytest.mark.parametrize("field, value", [
    ("buffer_alarm", "false"),
    ("buffer_alarm", 0),
    ("consecutive_submit_failures", "7"),
    ("consecutive_submit_failures", 2.9),
    ("consecutive_submit_failures", "abc"),
    ("consecutive_submit_failures", None),
    ("consecutive_submit_failures", True),
])
def test_a_health_field_of_another_type_is_a_malformed_heartbeat(field, value):
    # Never converted: "false" would show an alarm the node never raised.
    core = OperatorCore(clock=lambda: T0)
    message = beat(1)
    message["health"][field] = value
    status, body = core.router("POST", "/heartbeat", message)
    assert (status, body["error"]) == (400, "malformed-message")
    assert core.stats.heartbeats_malformed == 1
    assert core.fleet() == {}


def test_an_absent_health_field_keeps_its_default():
    core = OperatorCore(clock=lambda: T0)
    message = beat(1)
    message["health"] = {}
    assert core.router("POST", "/heartbeat", message)[0] == 200
    view = core.fleet()["node-1"]
    assert (view.buffer_alarm, view.consecutive_submit_failures) == (False, 0)


def test_missed_deadline_flag():
    now = {"t": T0}
    core = OperatorCore(clock=lambda: now["t"], default_timeout_ms=30_000)
    core.ingest_heartbeat(beat(1, T0))
    now["t"] = T0 + 29_000
    assert core.fleet()["node-1"].missed_deadline is False
    now["t"] = T0 + 31_000
    assert core.fleet()["node-1"].missed_deadline is True


def test_fleet_view_keeps_beat_count_and_largest_gap():
    core = OperatorCore(clock=lambda: T0 + 50_000)
    core.ingest_heartbeat(beat(1, T0))
    assert core.fleet()["node-1"].max_gap_ms is None
    # The second beat with sequence 2 is a replay and counts for nothing.
    for seq, at in ((2, T0 + 10_000), (2, T0 + 90_000), (3, T0 + 40_000), (4, T0 + 45_000)):
        core.ingest_heartbeat(beat(seq, at))
    view = core.fleet()["node-1"]
    assert (view.beats, view.max_gap_ms) == (4, 30_000)
    assert "node-2" not in core.fleet()
    _status, body = core.router("GET", "/fleet", None)
    assert sorted(body["node-1"]) == [
        "buffer_alarm", "consecutive_submit_failures", "last_heartbeat_at", "missed_deadline",
        "reported_state", "sequence", "timeout_ms"]


# -- commissioning flows -------------------------------------------------------


def test_commission_idle_device_reaches_heartbeat():
    world = build_world(mini_scenario(job=None))
    out = {}

    def director():
        caller = world.operator_caller()
        plan = CommissionPlan("node1", "operator", 1, 30_000, "ledger", 1)
        commission(caller, world.operator_ledger_client(), plan, world.operator)
        world.runtime.sleep(10_000)
        out["beats"] = world.operator.stats.heartbeats_accepted
        out["state"] = caller.call("node1", "GET", "/identity", None)[1]["state"]
        out["registered"] = world.ledger.registered_key("node1") is not None

    world.run(director=director)
    world.teardown()
    assert out["state"] == "heartbeat"
    assert out["beats"] >= 1
    assert out["registered"] is True


def test_commission_idempotent():
    world = build_world(mini_scenario(job=None))
    out = {}

    def director():
        caller = world.operator_caller()
        plan = CommissionPlan("node1", "operator", 1, 30_000, "ledger", 1)
        commission(caller, world.operator_ledger_client(), plan, world.operator)
        key_first = world.ledger.registered_key("node1")
        commission(caller, world.operator_ledger_client(), plan, world.operator)
        out["key_same"] = world.ledger.registered_key("node1") == key_first
        out["state"] = caller.call("node1", "GET", "/identity", None)[1]["state"]

    world.run(director=director)
    world.teardown()
    assert out["key_same"] is True
    assert out["state"] == "heartbeat"


def test_commission_monitoring_device_illegal():
    world = build_world(mini_scenario())
    out = {}

    def director():
        caller = world.operator_caller()
        plan = CommissionPlan("node1", "operator", 1, 30_000, "ledger", 1)
        commission(caller, world.operator_ledger_client(), plan, world.operator)
        start_monitoring(caller, "node1", JOB_BODY)
        try:
            commission(caller, world.operator_ledger_client(), plan, world.operator)
            out["raised"] = None
        except DeviceIllegalState:
            out["raised"] = "illegal-state"

    world.run(director=director)
    world.teardown()
    assert out["raised"] == "illegal-state"


def test_commission_ledger_down_leaves_device_untouched():
    # Key registration happens first; with the operator-ledger path dead the
    # device must never be configured or initialized.
    world = build_world(mini_scenario(job=None))
    world.network.add_link("opledger", "operator", "ledger")
    world.network.schedule = FaultSchedule(
        [FaultWindow("opledger", 0, 10_000_000, MODE_DOWN)]
    )
    out = {}

    def director():
        caller = world.operator_caller()
        plan = CommissionPlan("node1", "operator", 1, 30_000, "ledger", 1)
        try:
            commission(caller, world.operator_ledger_client(), plan, world.operator)
            out["raised"] = None
        except LedgerUnreachable:
            out["raised"] = "ledger-unreachable"
        out["state"] = caller.call("node1", "GET", "/identity", None)[1]["state"]
        out["hb_config"] = world.nodes["node1"].config.heartbeat

    world.run(director=director)
    world.teardown()
    assert out["raised"] == "ledger-unreachable"
    assert out["state"] == "idle"
    assert out["hb_config"] is None


def test_a_ledger_that_refuses_registration_is_an_operator_error(node_key):
    # The ledger holds node1 under another key: it refuses the registration,
    # and commissioning stops before it touches the device.
    world = build_world(mini_scenario(job=None))
    world.ledger.register_device(DeviceIdentity("node1", DeviceKind.NODE, node_key.public_pem))
    out = {}

    def director():
        plan = CommissionPlan("node1", "operator", 1, 30_000, "ledger", 1)
        try:
            commission(world.operator_caller(), world.operator_ledger_client(), plan,
                       world.operator)
        except OperatorError as exc:
            out["raised"] = exc

    world.run(director=director)
    world.teardown()
    assert "ledger refused node1" in str(out["raised"])
    posts = [e["label"] for e in world.network.message_log
             if e["kind"] == "request" and e["dst"] == "node1" and e["label"].startswith("POST")]
    assert posts == []
    assert world.nodes["node1"].config.heartbeat is None


def test_decommission_monitoring_device_drains():
    world = build_world(mini_scenario())
    out = {}

    def director():
        caller = world.operator_caller()
        plan = CommissionPlan("node1", "operator", 1, 30_000, "ledger", 1)
        commission(caller, world.operator_ledger_client(), plan, world.operator)
        start_monitoring(caller, "node1", JOB_BODY)
        world.runtime.sleep(11 * 60_000)
        summary = decommission(caller, "node1", world.runtime,
                               world.operator_ledger_client())
        out["summary"] = summary
        out["state"] = caller.call("node1", "GET", "/identity", None)[1]["state"]

    world.run(director=director)
    world.teardown()
    assert out["state"] == "heartbeat"
    assert out["summary"]["drained"] is True
    assert out["summary"]["latest_report_id"] is not None


def test_decommission_heartbeat_device_noop():
    world = build_world(mini_scenario(job=None))
    out = {}

    def director():
        caller = world.operator_caller()
        plan = CommissionPlan("node1", "operator", 1, 30_000, "ledger", 1)
        commission(caller, world.operator_ledger_client(), plan, world.operator)
        summary = decommission(caller, "node1", world.runtime)
        out["summary"] = summary
        out["state"] = caller.call("node1", "GET", "/identity", None)[1]["state"]

    world.run(director=director)
    world.teardown()
    assert out["state"] == "heartbeat"
    assert out["summary"]["drained"] is True


def test_fleet_router_get():
    core = OperatorCore(clock=lambda: T0 + 1000)
    core.ingest_heartbeat(beat(1, T0))
    status, body = core.router("GET", "/fleet", None)
    assert status == 200
    assert body["node-1"]["sequence"] == 1


class _IdentityCaller:
    """A device control API that answers /identity with `identity`."""

    def __init__(self, identity):
        self.identity = identity
        self.calls = []

    def call(self, dest, method, path, body, timeout_ms=10_000, label=""):
        self.calls.append((method, path))
        return 200, self.identity


@pytest.mark.parametrize("change", [
    {"device_id": None},
    {"device_id": 5},
    {"kind": "toaster"},
    {"public_key_pem": ["pem"]},
], ids=["no-device-id", "numeric-device-id", "unknown-kind", "key-array"])
def test_a_malformed_identity_is_an_operator_error(node_key, change):
    identity = {**DeviceIdentity("node1", DeviceKind.NODE, node_key.public_pem).to_obj(),
                "state": "idle", **change}
    identity = {k: v for k, v in identity.items() if v is not None}
    caller = _IdentityCaller(identity)
    plan = CommissionPlan("node1", "operator", 1, 30_000, "ledger", 1)
    with pytest.raises(MalformedMessage, match="/identity"):
        commission(caller, None, plan)      # refused before the ledger is asked
    assert caller.calls == [("GET", "/identity")]


class _Clock:
    def now_ms(self):
        return T0

    def sleep(self, ms):
        raise AssertionError("the depth is read before any wait")


def test_a_decommission_reads_the_drain_depth_as_integers():
    caller = _IdentityCaller({"device_id": "node1", "state": "heartbeat",
                              "buffer_depth": "0", "window_size": 0})
    with pytest.raises(OperatorError, match="buffer_depth must be an integer"):
        decommission(caller, "node1", runtime=_Clock())


def test_commission_unreachable_device():
    from ambox.fleet import DeviceUnreachable

    world = build_world(mini_scenario(job=None))
    out = {}

    def director():
        caller = world.operator_caller()
        plan = CommissionPlan("ghost-node", "operator", 1, 30_000, "ledger", 1)
        try:
            commission(caller, world.operator_ledger_client(), plan, world.operator)
            out["raised"] = None
        except DeviceUnreachable:
            out["raised"] = "device-unreachable"

    world.run(director=director)
    world.teardown()
    assert out["raised"] == "device-unreachable"
