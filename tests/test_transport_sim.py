import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ambox.runtime import SIM_EPOCH_MS, SimScheduler
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
    rt = SimScheduler()
    net = SimNetwork(rt, FaultSchedule(windows))
    for name, a, b, _link_class in (links or []):
        net.add_link(name, a, b)
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
    rt.step()
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
    rt.step()
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
    rt.step()
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
    rt.step()
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
    rt.step()
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
    rt.step()
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
    rt.step()
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
    rt.step()
    assert outcomes == ["unauthorized-central-side", "unauthorized-pairing"]
    assert peripheral.sessions == []


def test_advertising_again_supersedes_the_live_session():
    # A restarted peripheral advertises its id again; the central sees its
    # old session end and its next connect reaches the new delegate.
    rt, net = make_world(links=[("ble", "node", "mote", LinkClass.SHORT_RANGE)])
    old, new = RecordingPeripheral(), RecordingPeripheral()
    net.advertise("mote", "node", old)
    central = net.central("node", {"mote"})
    received = []

    def run():
        stream = central.connect("mote").subscribe("readings")
        net.advertise("mote", "node", new)
        received.append(stream.get())
        stream = central.connect("mote").subscribe("readings")
        new.sessions[-1].notify("readings", b"v1")
        received.append(stream.get().payload)

    rt.spawn("central", run)
    rt.step()
    assert received == [DISCONNECTED, b"v1"]
    assert (len(old.sessions), old.disconnects, len(new.sessions)) == (1, 1, 1)


def test_a_stream_subscribed_after_the_session_closed_ends():
    rt, net = make_world(links=[("ble", "node", "mote", LinkClass.SHORT_RANGE)])
    net.advertise("mote", "node", RecordingPeripheral())
    central = net.central("node", {"mote"})
    received = []

    def run():
        session = central.connect("mote")
        session.close()
        received.append(session.subscribe("readings").get())

    rt.spawn("central", run)
    rt.step()
    assert received == [DISCONNECTED]


def test_a_failing_write_handler_does_not_unwind_the_central(caplog):
    rt, net = make_world(links=[("ble", "node", "mote", LinkClass.SHORT_RANGE)])
    peripheral = RecordingPeripheral()

    def on_write(session, characteristic, payload):
        raise ValueError("I/O operation on closed file")

    peripheral.on_write = on_write
    net.advertise("mote", "node", peripheral)
    central = net.central("node", {"mote"})
    outcomes = []

    def run():
        session = central.connect("mote")
        session.write("ack", b"{}")
        outcomes.append(session.open)

    rt.spawn("central", run)
    rt.step()
    assert outcomes == [True]
    assert "peripheral write handler failed" in caplog.text


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
    rt.step()
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
    rt.step()
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
    rt.run_until(SIM_EPOCH_MS + 40_000)
    handle.cancel()
    rt.step(limit_ms=rt.now_ms())
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
    rt.run_until(SIM_EPOCH_MS + 60_000)
    handle.cancel()
    rt.step(limit_ms=rt.now_ms())
    assert connect_outcomes(net)["ok"] == 1
    assert connect_outcomes(net)["unreachable"] == 0


def test_cancel_reconnect_stops_attempts():
    windows = [FaultWindow("ble", 0, 600_000, MODE_DOWN)]
    rt, net = make_world(windows, links=[("ble", "node", "mote", LinkClass.SHORT_RANGE)])
    net.advertise("mote", "node", RecordingPeripheral())
    central = net.central("node", {"mote"})
    handle = spawn_reconnect(rt, central, "mote", 2000, lambda s: None)
    rt.run_until(SIM_EPOCH_MS + 10_000)
    retries_at_cancel = connect_outcomes(net)["unreachable"]
    handle.cancel()
    rt.run_until(SIM_EPOCH_MS + 60_000)
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
    rt.run_until(SIM_EPOCH_MS + 1_300_000)
    handle.cancel()
    rt.step(limit_ms=rt.now_ms())
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
        rt.step()
        return hashlib.sha256(json.dumps(net.message_log, sort_keys=True).encode()).hexdigest()

    assert run_once() == run_once()


# -- the delivery rule, property-tested ------------------------------------------


def _laid_out(link, specs):
    """Non-overlapping windows from (gap, length, down?, added latency) specs."""
    windows, t = [], 0
    for gap, length, down, latency in specs:
        start = t + gap
        windows.append(FaultWindow(link, start, start + length,
                                   MODE_DOWN if down else MODE_LATENCY,
                                   latency_ms=0 if down else latency))
        t = start + length
    return windows


def _ticks(low, high):
    """Instants and spans on a 100 ms grid, so sends, arrivals and window
    edges often coincide."""
    return st.integers(low, high).map(lambda n: n * 100)


def _windows(link):
    spec = st.tuples(_ticks(0, 5), _ticks(1, 5), st.booleans(), _ticks(1, 5))
    return st.lists(spec, min_size=1, max_size=5).map(lambda specs: _laid_out(link, specs))


@st.composite
def _traffic(draw):
    """Windows on both links, and ops sent at random instants, many of them
    just before an edge of a window on their own link, where a message in
    flight meets a change of link state."""
    wan, ble = draw(_windows("wan")), draw(_windows("ble"))

    def op(kind):
        windows = wan if kind == "request" else ble
        edges = sorted({w.start_ms for w in windows} | {w.end_ms for w in windows})
        near_edge = st.builds(lambda edge, back: max(edge - back, 0),
                              st.sampled_from(edges), st.integers(0, 300))
        return st.tuples(st.just(kind), st.one_of(_ticks(0, 25), near_edge), _ticks(1, 30))

    ops = st.sampled_from(["request", "notify", "write"]).flatmap(op)
    return wan + ble, draw(st.lists(ops, min_size=4, max_size=12))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(traffic=_traffic(), wan_base=_ticks(0, 3), ble_base=_ticks(0, 3),
       watched=st.booleans())
def test_nothing_is_delivered_unless_the_link_is_up_at_send_and_arrival(
        traffic, wan_base, ble_base, watched):
    """A handler runs, a notification is queued and a write lands only at an
    instant its link is up, after a send while it was up; and each request's
    logged outcome and instant follow from the link's state at its send and
    arrival instants. With and without the fault watcher."""
    windows, ops = traffic
    rt = SimScheduler()
    schedule = FaultSchedule(windows)
    net = SimNetwork(rt, schedule)
    net.add_link("wan", "c", "s", base_latency_ms=wan_base)
    net.add_link("ble", "node", "mote", base_latency_ms=ble_base)

    def state(link, t):
        up, added = schedule.state_at(link, t - net.start_ms)
        return up, added + (wan_base if link == "wan" else ble_base)

    sent_at = {}                    # op id -> instant the op was sent
    served, queued, written = {}, {}, {}   # op id -> instant it was delivered
    notified_at = {}                # op id -> instant a notify returned
    peripheral = RecordingPeripheral()
    peripheral.on_write = lambda session, ch, payload: written.update({payload: rt.now_ms()})

    def serve(src, payload):
        served[payload] = rt.now_ms()
        return payload

    net.register_server("s", serve)
    net.advertise("mote", "node", peripheral)
    central = net.central("node", {"mote"})
    client = net.client("c")
    live = {}

    def consume(stream):
        while (item := stream.get()) is not DISCONNECTED:
            queued[item.payload] = rt.now_ms()

    def open_session():
        session = live.get("session")
        if session is None or not session.open:
            try:
                session = live["session"] = central.connect("mote")
            except Unreachable:
                return None
            stream = session.subscribe("data")
            rt.spawn("consumer", lambda: consume(stream))
        return session

    def run_op(op_id, kind, at, timeout):
        rt.sleep(at)
        sent_at[op_id] = rt.now_ms()
        try:
            if kind == "request":
                client.request("s", op_id, timeout, label=op_id.decode())
            elif (session := open_session()) is None:
                del sent_at[op_id]          # nothing was sent
            elif kind == "notify":
                session.notify("data", op_id)
                notified_at[op_id] = rt.now_ms()
            else:
                session.write("config", op_id)
        except (LinkDown, RequestTimeout, SessionClosed):
            pass

    if watched:
        net.start_fault_watcher()
    for i, (kind, at, timeout) in enumerate(ops):
        op_id = f"op{i}".encode()
        rt.spawn(f"op{i}", lambda a=(op_id, kind, at, timeout): run_op(*a))
    try:
        rt.run_until(net.start_ms + 30_000)
    finally:
        rt.shutdown()

    for link, delivered in (("wan", served), ("ble", queued), ("ble", written)):
        for op_id, t in delivered.items():
            assert state(link, sent_at[op_id])[0], (op_id, "sent while down")
            assert state(link, t)[0], (op_id, "delivered while down")
    assert queued == notified_at

    logged = {e["label"]: e for e in net.message_log if e["kind"] == "request"}
    for i, (kind, _at, timeout) in enumerate(ops):
        if kind != "request":
            continue
        sent = sent_at[f"op{i}".encode()]
        up, latency = state("wan", sent)
        arrive = sent + latency - latency // 2
        if not up:
            expected = ("link-down", sent)
        elif latency >= timeout:
            expected = ("timeout", sent + timeout)
        elif not state("wan", arrive)[0]:
            expected = ("lost-request", sent + timeout)
        elif not state("wan", sent + latency)[0]:
            expected = ("lost-response", sent + timeout)
        else:
            expected = ("ok", sent + latency)
        entry = logged[f"op{i}"]
        assert (entry["outcome"], entry["t"]) == expected
        assert (f"op{i}".encode() in served) == (expected[0] in ("ok", "lost-response"))
