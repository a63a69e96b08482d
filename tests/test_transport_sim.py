import hashlib
import json
import random
from collections import Counter

import pytest

from ambox.runtime import SIM_EPOCH_MS, SimRuntime
from ambox.transport import (
    DISCONNECTED,
    LinkClass,
    LinkDown,
    PeripheralDelegate,
    RequestTimeout,
    SessionClosed,
    Unauthorized,
    Unreachable,
    spawn_reconnect,
)
from ambox.transport.faults import (
    MODE_DOWN,
    MODE_LATENCY,
    FaultSchedule,
    FaultScheduleError,
    FaultWindow,
)
from ambox.transport.sim import SimNetwork, echo_handler


class RecordingPeripheral(PeripheralDelegate):
    def __init__(self):
        self.sessions = []
        self.writes = []
        self.disconnects = 0

    def on_connect(self, session):
        self.sessions.append(session)

    def on_write(self, session, characteristic, payload):
        self.writes.append((characteristic, payload))

    def on_disconnect(self, session):
        self.disconnects += 1


def make_world(windows=(), links=None):
    rt = SimRuntime()
    net = SimNetwork(rt, FaultSchedule(windows))
    for name, a, b, cls in (links or []):
        net.add_link(name, a, b, cls)
    return rt, net


def connect_outcomes(net):
    """Connection attempts by outcome: "ok" opened a session, "unreachable" is a retry."""
    return Counter(e["outcome"] for e in net.message_log if e["kind"] == "connect")


# -- fault schedule ------------------------------------------------------------


def test_fault_schedule_rejects_overlap():
    with pytest.raises(FaultScheduleError):
        FaultSchedule([
            FaultWindow("l", 0, 100, MODE_DOWN),
            FaultWindow("l", 50, 150, MODE_DOWN),
        ])


def test_fault_schedule_state_queries():
    sched = FaultSchedule([
        FaultWindow("l", 100, 200, MODE_DOWN),
        FaultWindow("l", 300, 400, MODE_LATENCY, latency_ms=50),
    ])
    assert sched.state_at("l", 0) == (True, 0)
    assert sched.state_at("l", 100) == (False, 0)
    assert sched.state_at("l", 199) == (False, 0)
    assert sched.state_at("l", 200) == (True, 0)
    assert sched.state_at("l", 350) == (True, 50)
    assert sched.state_at("other", 350) == (True, 0)


# -- wide-area request/response --------------------------------------------------


def test_request_echo_zero_latency():
    rt, net = make_world(links=[("wan", "client", "server", LinkClass.WIDE_AREA)])
    net.register_server("server", echo_handler)
    client = net.client("client")
    out = []
    rt.spawn("probe", lambda: out.append(client.request("server", b"ping", 1000)))
    rt.scheduler.drain()
    assert out == [b"ping"]


def test_request_injected_latency_exact_rtt():
    windows = [FaultWindow("wan", 0, 10_000_000, MODE_LATENCY, latency_ms=100)]
    rt, net = make_world(windows, links=[("wan", "client", "server", LinkClass.WIDE_AREA)])
    net.register_server("server", echo_handler)
    client = net.client("client")
    rtts = []

    def probe():
        for _ in range(3):
            t = rt.now_ms()
            client.request("server", b"x", 10_000)
            rtts.append(rt.now_ms() - t)

    rt.spawn("probe", probe)
    rt.scheduler.drain()
    assert rtts == [100, 100, 100]


def test_request_odd_latency_still_exact():
    windows = [FaultWindow("wan", 0, 10_000_000, MODE_LATENCY, latency_ms=7)]
    rt, net = make_world(windows, links=[("wan", "c", "s", LinkClass.WIDE_AREA)])
    net.register_server("s", echo_handler)
    client = net.client("c")
    rtts = []

    def probe():
        t = rt.now_ms()
        client.request("s", b"x", 10_000)
        rtts.append(rt.now_ms() - t)

    rt.spawn("p", probe)
    rt.scheduler.drain()
    assert rtts == [7]


def test_request_during_down_window_fails_fast():
    windows = [FaultWindow("wan", 0, 60_000, MODE_DOWN)]
    rt, net = make_world(windows, links=[("wan", "c", "s", LinkClass.WIDE_AREA)])
    net.register_server("s", echo_handler)
    client = net.client("c")
    failures = []

    def probe():
        try:
            client.request("s", b"x", 1000)
        except LinkDown:
            failures.append(rt.now_ms() - SIM_EPOCH_MS)

    rt.spawn("p", probe)
    rt.scheduler.drain()
    assert failures == [0]  # immediate, no timeout wait in simulation


def test_request_lost_in_transit_times_out():
    # Link goes down while the request is in flight (sent at t=0 with 80 ms
    # latency, so it would arrive at t=40, inside the down window).
    windows = [
        FaultWindow("wan", 20, 60_000, MODE_DOWN),
        FaultWindow("wan", 0, 20, MODE_LATENCY, latency_ms=80),
    ]
    rt, net = make_world(windows, links=[("wan", "c", "s", LinkClass.WIDE_AREA)])
    served = []
    net.register_server("s", lambda src, b: served.append(b) or b"resp")
    client = net.client("c")
    outcome = []

    def probe():
        try:
            client.request("s", b"x", 1000)
        except RequestTimeout:
            outcome.append(rt.now_ms() - SIM_EPOCH_MS)

    rt.spawn("p", probe)
    rt.scheduler.drain()
    assert outcome == [1000]       # waited out the full timeout
    assert served == []             # no phantom delivery inside the window


def test_latency_exceeding_timeout():
    windows = [FaultWindow("wan", 0, 10_000_000, MODE_LATENCY, latency_ms=5000)]
    rt, net = make_world(windows, links=[("wan", "c", "s", LinkClass.WIDE_AREA)])
    net.register_server("s", echo_handler)
    client = net.client("c")
    outcome = []

    def probe():
        try:
            client.request("s", b"x", 1000)
        except RequestTimeout:
            outcome.append(rt.now_ms() - SIM_EPOCH_MS)

    rt.spawn("p", probe)
    rt.scheduler.drain()
    assert outcome == [1000]


# -- short-range sessions ---------------------------------------------------------


def test_connect_and_notify_in_order():
    rt, net = make_world(links=[("ble", "node", "mote", LinkClass.SHORT_RANGE)])
    peripheral = RecordingPeripheral()
    net.advertise("mote", "node", peripheral)
    central = net.central("node", {"mote"})
    received = []

    def run():
        session = central.connect("mote")
        stream = session.subscribe("readings")
        for i in (b"v1", b"v2", b"v3"):
            peripheral.sessions[-1].notify("readings", i)
        for _ in range(3):
            received.append(stream.get())

    rt.spawn("central", run)
    rt.scheduler.drain()
    assert [n.payload for n in received] == [b"v1", b"v2", b"v3"]
    assert [n.sequence for n in received] == [1, 2, 3]


def test_unauthorized_peripheral_never_connects():
    rt, net = make_world(links=[("ble", "node", "mote", LinkClass.SHORT_RANGE)])
    peripheral = RecordingPeripheral()
    net.advertise("mote", "node", peripheral)
    outcomes = []

    def not_allowed():
        central = net.central("node", set())  # empty allow-list
        try:
            central.connect("mote")
        except Unauthorized:
            outcomes.append("unauthorized-central-side")

    def wrong_central():
        central = net.central("intruder", {"mote"})
        try:
            central.connect("mote")
        except Unauthorized:
            outcomes.append("unauthorized-pairing")

    rt.spawn("a", not_allowed)
    rt.spawn("b", wrong_central)
    rt.scheduler.drain()
    assert outcomes == ["unauthorized-central-side", "unauthorized-pairing"]
    assert peripheral.sessions == []


def test_connect_during_down_window_unreachable():
    windows = [FaultWindow("ble", 0, 60_000, MODE_DOWN)]
    rt, net = make_world(windows, links=[("ble", "node", "mote", LinkClass.SHORT_RANGE)])
    net.advertise("mote", "node", RecordingPeripheral())
    central = net.central("node", {"mote"})
    outcomes = []

    def run():
        try:
            central.connect("mote")
        except Unreachable:
            outcomes.append("unreachable")

    rt.spawn("c", run)
    rt.scheduler.drain()
    assert outcomes == ["unreachable"]


def test_down_window_cuts_stream_with_marker():
    windows = [FaultWindow("ble", 1000, 60_000, MODE_DOWN)]
    rt, net = make_world(windows, links=[("ble", "node", "mote", LinkClass.SHORT_RANGE)])
    peripheral = RecordingPeripheral()
    net.advertise("mote", "node", peripheral)
    central = net.central("node", {"mote"})
    net.start_fault_watcher()
    received = []

    def central_side():
        session = central.connect("mote")
        stream = session.subscribe("data")
        while True:
            item = stream.get()
            received.append(item)
            if item is DISCONNECTED:
                return

    def mote_side():
        rt.sleep(500)
        peripheral.sessions[-1].notify("data", b"before")
        rt.sleep(1000)  # now inside the down window; session already killed
        try:
            peripheral.sessions[-1].notify("data", b"after")
        except SessionClosed:
            pass

    rt.spawn("central", central_side)
    rt.spawn("mote", mote_side)
    rt.scheduler.drain()
    assert [getattr(n, "payload", n) for n in received] == [b"before", DISCONNECTED]
    assert peripheral.disconnects == 1


def test_auto_reconnect_bounded_delay():
    # Down between t=10s and t=25s; retry every 2s reconnects by t<=27s.
    windows = [FaultWindow("ble", 10_000, 25_000, MODE_DOWN)]
    rt, net = make_world(windows, links=[("ble", "node", "mote", LinkClass.SHORT_RANGE)])
    peripheral = RecordingPeripheral()
    net.advertise("mote", "node", peripheral)
    central = net.central("node", {"mote"})
    net.start_fault_watcher()
    sessions = []

    def on_session(session):
        sessions.append((rt.now_ms() - SIM_EPOCH_MS, session))
        stream = session.subscribe("data")
        while stream.get() is not DISCONNECTED:
            pass

    handle = spawn_reconnect(rt, central, "mote", 2000, on_session)
    rt.scheduler.run_until(SIM_EPOCH_MS + 40_000)
    handle.cancel()
    rt.scheduler.drain(limit_ms=rt.now_ms())
    assert sessions[0][0] == 0
    reconnect_times = [t for t, _ in sessions[1:]]
    assert len(reconnect_times) == 1
    assert 25_000 <= reconnect_times[0] <= 27_000
    assert connect_outcomes(net)["unreachable"] >= 7  # 15s outage, 2s retry intervals


def test_reconnect_never_down_single_session():
    rt, net = make_world(links=[("ble", "node", "mote", LinkClass.SHORT_RANGE)])
    peripheral = RecordingPeripheral()
    net.advertise("mote", "node", peripheral)
    central = net.central("node", {"mote"})

    def on_session(session):
        stream = session.subscribe("data")
        while stream.get() is not DISCONNECTED:
            pass

    handle = spawn_reconnect(rt, central, "mote", 2000, on_session)
    rt.scheduler.run_until(SIM_EPOCH_MS + 60_000)
    handle.cancel()
    rt.scheduler.drain(limit_ms=rt.now_ms())
    assert connect_outcomes(net)["ok"] == 1
    assert connect_outcomes(net)["unreachable"] == 0


def test_cancel_reconnect_stops_attempts():
    windows = [FaultWindow("ble", 0, 600_000, MODE_DOWN)]
    rt, net = make_world(windows, links=[("ble", "node", "mote", LinkClass.SHORT_RANGE)])
    net.advertise("mote", "node", RecordingPeripheral())
    central = net.central("node", {"mote"})
    handle = spawn_reconnect(rt, central, "mote", 2000, lambda s: None)
    rt.scheduler.run_until(SIM_EPOCH_MS + 10_000)
    retries_at_cancel = connect_outcomes(net)["unreachable"]
    handle.cancel()
    rt.scheduler.run_until(SIM_EPOCH_MS + 60_000)
    assert connect_outcomes(net)["unreachable"] == retries_at_cancel


def random_drop_windows(seed, total_ms, slot_ms=1000, p=0.05):
    """Independent oracle input: random 5%% of slots are down."""
    rng = random.Random(seed)
    windows = []
    t = 0
    while t < total_ms:
        if rng.random() < p:
            windows.append(FaultWindow("ble", t, t + slot_ms, MODE_DOWN))
        t += slot_ms
    return windows


def test_thousand_publishes_prefix_per_connection_gap_free():
    windows = random_drop_windows(seed=11, total_ms=1_100_000)
    rt, net = make_world(windows, links=[("ble", "node", "mote", LinkClass.SHORT_RANGE)])
    peripheral = RecordingPeripheral()
    net.advertise("mote", "node", peripheral)
    central = net.central("node", {"mote"})
    net.start_fault_watcher()
    # Event-log oracle: per connection, the received sequence numbers must be
    # exactly 1..k (a prefix), with no gaps.
    connections = []

    def on_session(session):
        received = []
        connections.append(received)
        stream = session.subscribe("data")
        while True:
            item = stream.get()
            if item is DISCONNECTED:
                return
            received.append(item.sequence)

    handle = spawn_reconnect(rt, central, "mote", 500, on_session)

    published = []

    def mote_publisher():
        for i in range(1000):
            rt.sleep(1000)
            session = peripheral.sessions[-1] if peripheral.sessions else None
            if session is None:
                continue
            try:
                session.notify("data", f"m{i}".encode())
                published.append(i)
            except SessionClosed:
                continue

    rt.spawn("publisher", mote_publisher)
    rt.scheduler.run_until(SIM_EPOCH_MS + 1_300_000)
    handle.cancel()
    rt.scheduler.drain(limit_ms=rt.now_ms())
    assert len(connections) > 1          # drops actually happened
    assert sum(len(c) for c in connections) >= 900
    for received in connections:
        assert received == list(range(1, len(received) + 1))


def test_message_log_deterministic():
    def run_once():
        windows = [FaultWindow("wan", 5_000, 9_000, MODE_DOWN)]
        rt, net = make_world(windows, links=[("wan", "c", "s", LinkClass.WIDE_AREA)])
        net.register_server("s", echo_handler)
        client = net.client("c")

        def probe():
            for i in range(10):
                try:
                    client.request("s", f"m{i}".encode(), 500)
                except (LinkDown, RequestTimeout):
                    pass
                rt.sleep(1000)

        rt.spawn("p", probe)
        rt.scheduler.drain()
        return hashlib.sha256(json.dumps(net.message_log, sort_keys=True).encode()).hexdigest()

    assert run_once() == run_once()
