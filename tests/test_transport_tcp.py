"""Real-socket backend: framing, HTTP, and short-range over TCP."""

import errno
import socket
import struct
import sys
import threading
import time
import tracemalloc

import pytest

from ambox.transport import (
    DISCONNECTED,
    ConnectionRefused,
    PeripheralDelegate,
    RequestTimeout,
    TransportError,
    Unauthorized,
    Unreachable,
)
from ambox.canonical import wire_dumps
from ambox.runtime import RealRuntime
from ambox.transport.http import HttpJsonClient, HttpServer
from ambox.transport.tcp import (
    MAX_FRAME,
    FrameServer,
    TcpCentral,
    TcpCentralSession,
    TcpPeripheralServer,
    TcpRequestClient,
    parse_hostport,
    recv_frame,
    send_frame,
)


def test_parse_hostport():
    assert parse_hostport("127.0.0.1:8080") == ("127.0.0.1", 8080)
    with pytest.raises(ValueError):
        parse_hostport("no-port")


def test_frame_request_roundtrip():
    server = FrameServer("127.0.0.1", 0, lambda src, b: b"echo:" + b)
    client = TcpRequestClient()
    try:
        response = client.request(f"127.0.0.1:{server.port}", b"hello", 2000)
        assert response == b"echo:hello"
        response = client.request(f"127.0.0.1:{server.port}", b"x" * 100_000, 5000)
        assert response == b"echo:" + b"x" * 100_000
    finally:
        client.close()
        server.shutdown()


def test_a_frame_header_alone_does_not_allocate_its_claim():
    # A 48 MiB claim followed by 10 bytes and a close: the receiver holds
    # what arrived, not what the header promised, and still fails cleanly.
    sender, receiver = socket.socketpair()
    try:
        sender.sendall(struct.pack(">I", 48 * 1024 * 1024) + b"x" * 10)
        sender.close()
        tracemalloc.start()
        try:
            with pytest.raises(TransportError):
                recv_frame(receiver)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        receiver.close()
    assert peak < 2 * 1024 * 1024


def test_connection_refused():
    client = TcpRequestClient()
    with pytest.raises(ConnectionRefused):
        client.request("127.0.0.1:1", b"hi", 500)


def test_a_refused_connection_names_its_exchange():
    # The discard port, where nothing listens on the loopback address.
    with pytest.raises(ConnectionRefused, match=r"^request to 127\.0\.0\.1:9 failed: "):
        TcpRequestClient().request("127.0.0.1:9", b"hi", 500)
    with pytest.raises(ConnectionRefused, match=r"^GET /fleet to 127\.0\.0\.1:9 failed: "):
        HttpJsonClient().call("127.0.0.1:9", "GET", "/fleet", None)


def test_request_timeout():
    def slow_handler(src, payload):
        time.sleep(1.0)
        return payload

    server = FrameServer("127.0.0.1", 0, slow_handler)
    try:
        client = TcpRequestClient()
        with pytest.raises(RequestTimeout):
            client.request(f"127.0.0.1:{server.port}", b"hi", 200)
    finally:
        server.shutdown()


def test_sequential_requests_share_one_connection():
    peers = []

    def handler(src, payload):
        peers.append(src)
        return b"echo:" + payload

    server = FrameServer("127.0.0.1", 0, handler)
    client = TcpRequestClient()
    try:
        for i in range(20):
            assert client.request(f"127.0.0.1:{server.port}", b"%d" % i, 2000) == b"echo:%d" % i
    finally:
        client.close()
        server.shutdown()
    assert len(peers) == 20
    assert len(set(peers)) == 1          # one source port: one connection


def test_threads_sharing_a_client_each_get_their_own_answers():
    def handler(src, payload):
        time.sleep(0.0005)
        return b"echo:" + payload

    server = FrameServer("127.0.0.1", 0, handler)
    client = TcpRequestClient()
    dest = f"127.0.0.1:{server.port}"
    wrong, done = [], []

    def worker(t):
        for i in range(40):
            payload = b"%d:%d" % (t, i)
            if client.request(dest, payload, 5000) != b"echo:" + payload:
                wrong.append(payload)
        done.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        client.close()
        server.shutdown()
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == list(range(6))
    assert wrong == []


def test_a_timed_out_answer_is_never_read_as_the_next_one():
    def handler(src, payload):
        if payload == b"slow":
            time.sleep(0.5)
        return b"echo:" + payload

    server = FrameServer("127.0.0.1", 0, handler)
    client = TcpRequestClient()
    dest = f"127.0.0.1:{server.port}"
    try:
        assert client.request(dest, b"warm", 2000) == b"echo:warm"
        with pytest.raises(RequestTimeout):
            client.request(dest, b"slow", 100)
        assert client.request(dest, b"next", 2000) == b"echo:next"   # sent before the late answer
        time.sleep(0.5)
        assert client.request(dest, b"last", 2000) == b"echo:last"   # sent after it
    finally:
        client.close()
        server.shutdown()


def test_a_restarted_server_answers_and_the_stopped_one_never_does():
    answered = []

    def handler(name):
        def handle(src, payload):
            answered.append(name)
            return name.encode() + b":" + payload
        return handle

    old = FrameServer("127.0.0.1", 0, handler("old"))
    client = TcpRequestClient()
    dest = f"127.0.0.1:{old.port}"
    try:
        assert client.request(dest, b"1", 2000) == b"old:1"
        old.shutdown()
        new = FrameServer("127.0.0.1", old.port, handler("new"))
        try:
            assert client.request(dest, b"2", 2000) == b"new:2"
            assert client.request(dest, b"3", 2000) == b"new:3"
        finally:
            new.shutdown()
    finally:
        client.close()
    assert answered == ["old", "new", "new"]


def test_a_stopped_server_with_no_successor_fails_the_request():
    server = FrameServer("127.0.0.1", 0, lambda src, b: b"echo:" + b)
    client = TcpRequestClient()
    dest = f"127.0.0.1:{server.port}"
    try:
        assert client.request(dest, b"1", 2000) == b"echo:1"
        server.shutdown()
        with pytest.raises(TransportError):
            client.request(dest, b"2", 2000)
    finally:
        client.close()


def _frame_server(calls):
    server = FrameServer("127.0.0.1", 0, lambda src, b: calls.append(b) or b"echo:" + b)
    return server, struct.pack(">I", 2) + b"hi"


def _http_server(calls):
    server = HttpServer("127.0.0.1", 0, lambda method, path, body: calls.append(path) or (200, {}))
    return server, b"GET /b HTTP/1.1\r\nHost: x\r\n\r\n"


def _peripheral_server(calls):
    class Recording(PeripheralDelegate):
        def on_connect(self, session):
            calls.append("connect")

        def on_write(self, session, characteristic, payload):
            calls.append("write")

        def on_disconnect(self, session):
            calls.append("disconnect")

    server = TcpPeripheralServer("127.0.0.1", 0, "mote-1", "node-1", Recording())
    hello = wire_dumps({"central": "node-1", "peripheral": "mote-1", "t": "hello"})
    return server, struct.pack(">I", len(hello)) + hello


@pytest.mark.parametrize("make_server", [_frame_server, _http_server, _peripheral_server],
                         ids=["frame", "http", "peripheral"])
def test_a_stopped_server_answers_no_connection_it_accepted(make_server):
    calls = []
    server, request = make_server(calls)
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=2)
    try:
        time.sleep(0.2)              # accepted, its handler waiting for a request
        server.shutdown()
        try:
            sock.sendall(request)
            answer = sock.recv(65536)
        except OSError:
            answer = b""
    finally:
        sock.close()
    assert answer == b""
    assert calls == []


@pytest.mark.parametrize("make_server", [_frame_server, _http_server, _peripheral_server],
                         ids=["frame", "http", "peripheral"])
def test_an_idle_server_stops_at_once(make_server):
    # A stop wakes the blocked accept; it waits on no poll interval.
    server, _ = make_server([])
    time.sleep(0.05)                 # the accepting thread is blocked by now
    start = time.perf_counter()
    server.shutdown()
    assert time.perf_counter() - start < 0.1
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", server.port), timeout=1).close()


class _ListeningSocketThatCannotShutDown:
    """A listening socket whose `shutdown` fails, as on BSD and macOS, where
    it leaves a blocked `accept` blocked."""

    def __init__(self, sock):
        self._sock = sock

    def shutdown(self, how):
        raise OSError(errno.ENOTCONN, "Socket is not connected")

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.mark.parametrize("make_server", [_frame_server, _http_server, _peripheral_server],
                         ids=["frame", "http", "peripheral"])
def test_a_server_stops_at_once_where_shutdown_cannot_wake_accept(make_server):
    server, _ = make_server([])
    time.sleep(0.05)                 # the accepting thread is blocked by now
    server._socket = _ListeningSocketThatCannotShutDown(server._socket)
    start = time.perf_counter()
    server.shutdown()
    assert time.perf_counter() - start < 0.1
    assert not server._accepter.is_alive()
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", server.port), timeout=1).close()


@pytest.mark.parametrize("length", ["abc", "-1", str(MAX_FRAME + 1)])
def test_http_server_refuses_a_malformed_content_length(length):
    calls = []
    server = HttpServer("127.0.0.1", 0,
                        lambda method, path, body: calls.append(body) or (200, {"got": body}))
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=1) as sock:
            sock.sendall(b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: %s\r\n\r\n{}"
                         % length.encode())
            answer = b""
            while chunk := sock.recv(65536):     # the server closes after its answer
                answer += chunk
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert answer.endswith(b'{"error": "malformed-request"}')
        status, body = HttpJsonClient().call(f"127.0.0.1:{server.port}", "POST", "/echo", {"a": 1})
        assert (status, body) == (200, {"got": {"a": 1}})
        assert calls == [{"a": 1}]
    finally:
        server.shutdown()


def test_http_router_roundtrip():
    def router(method, path, body):
        if method == "POST" and path == "/echo":
            return 200, {"got": body}
        return 404, {"error": "nope"}

    server = HttpServer("127.0.0.1", 0, router)
    try:
        client = HttpJsonClient()
        status, body = client.call(f"127.0.0.1:{server.port}", "POST", "/echo", {"a": 1})
        assert status == 200
        assert body == {"got": {"a": 1}}
        status, _ = client.call(f"127.0.0.1:{server.port}", "GET", "/missing", None)
        assert status == 404
    finally:
        server.shutdown()


@pytest.mark.parametrize("answer", [
    b"HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\nnot json",
    b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n[1]",
    b"SSH-2.0-OpenSSH_9.6\r\n",
], ids=["not-json", "root-array", "not-http"])
def test_http_client_refuses_an_answer_that_is_not_an_object(answer):
    listener = socket.create_server(("127.0.0.1", 0))

    def answer_once():
        conn, _ = listener.accept()
        with conn:
            request = b""
            while not request.endswith(b'{"a": 1}'):
                request += conn.recv(65536)
            conn.sendall(answer)

    server = threading.Thread(target=answer_once, daemon=True)
    server.start()
    try:
        with pytest.raises(TransportError) as caught:
            HttpJsonClient().call(f"127.0.0.1:{listener.getsockname()[1]}", "POST", "/heartbeat",
                                  {"a": 1}, timeout_ms=5000)
    finally:
        server.join(5)
        listener.close()
    assert caught.type is TransportError     # refused, not lost


class EchoPeripheral(PeripheralDelegate):
    def __init__(self):
        self.writes = []
        self.session = None
        self.connected = threading.Event()

    def on_connect(self, session):
        self.session = session
        self.connected.set()

    def on_write(self, session, characteristic, payload):
        self.writes.append((characteristic, payload))
        session.notify("replies", b"ack:" + payload)

    def on_disconnect(self, session):
        self.connected.clear()


def test_shortrange_over_tcp_roundtrip():
    peripheral = EchoPeripheral()
    server = TcpPeripheralServer("127.0.0.1", 0, "mote-1", "node-1", peripheral)
    try:
        central = TcpCentral("node-1", {"mote-1": f"127.0.0.1:{server.port}"}, RealRuntime())
        session = central.connect("mote-1")
        stream = session.subscribe("replies")
        assert peripheral.connected.wait(2.0)
        session.write("config", b"hello")
        notification = stream.get(timeout_ms=2000)
        assert notification.payload == b"ack:hello"
        assert notification.sequence == 1
        # Peripheral-initiated notification flows too.
        peripheral.session.notify("replies", b"live")
        assert stream.get(timeout_ms=2000).payload == b"live"
        session.close()
    finally:
        server.shutdown()


def test_shortrange_unauthorized_central():
    peripheral = EchoPeripheral()
    server = TcpPeripheralServer("127.0.0.1", 0, "mote-1", "node-1", peripheral)
    try:
        central = TcpCentral("intruder", {"mote-1": f"127.0.0.1:{server.port}"}, RealRuntime())
        with pytest.raises(Unauthorized):
            central.connect("mote-1")
        outside = TcpCentral("node-1", {}, RealRuntime())
        with pytest.raises(Unauthorized):
            outside.connect("mote-1")
    finally:
        server.shutdown()


def test_shortrange_unreachable_when_server_gone():
    peripheral = EchoPeripheral()
    server = TcpPeripheralServer("127.0.0.1", 0, "mote-1", "node-1", peripheral)
    port = server.port
    server.shutdown()
    central = TcpCentral("node-1", {"mote-1": f"127.0.0.1:{port}"}, RealRuntime(),
                         connect_timeout_ms=300)
    with pytest.raises(Unreachable):
        central.connect("mote-1")


def test_shortrange_disconnect_marker_on_close():
    peripheral = EchoPeripheral()
    server = TcpPeripheralServer("127.0.0.1", 0, "mote-1", "node-1", peripheral)
    try:
        central = TcpCentral("node-1", {"mote-1": f"127.0.0.1:{server.port}"}, RealRuntime())
        session = central.connect("mote-1")
        stream = session.subscribe("replies")
        assert peripheral.connected.wait(2.0)
        peripheral.session.kill("test")
        assert stream.get(timeout_ms=2000) is DISCONNECTED
        assert session.open is False
    finally:
        server.shutdown()


@pytest.mark.parametrize("frame", [
    b'{"payload_b64": "", "seq": 2, "t": "ntf"}',
    b"not json",
    b"[1]",
    b'{"char": "readings", "payload_b64": "@@@@", "seq": 2, "t": "ntf"}',
    b'{"char": "readings", "payload_b64": "", "seq": "2", "t": "ntf"}',
    b'{"char": "readings", "t": "note"}',
], ids=["no-char", "not-json", "root-array", "bad-base64", "string-seq", "not-ntf"])
def test_a_frame_that_is_not_a_notification_ends_the_central_session(frame):
    # Skipping it would leave a gap in the notification stream.
    central_end, peripheral_end = socket.socketpair()
    session = TcpCentralSession(central_end, "mote-1", RealRuntime())
    stream = session.subscribe("readings")
    try:
        send_frame(peripheral_end,
                   b'{"char": "readings", "payload_b64": "b2s=", "seq": 1, "t": "ntf"}')
        assert stream.get(timeout_ms=2000).payload == b"ok"
        send_frame(peripheral_end, frame)
        assert stream.get(timeout_ms=2000) is DISCONNECTED
        assert session.open is False
    finally:
        session.close()
        peripheral_end.close()


def test_a_stream_subscribed_after_the_session_closed_ends():
    central_end, peripheral_end = socket.socketpair()
    session = TcpCentralSession(central_end, "mote-1", RealRuntime())
    peripheral_end.close()
    assert session.subscribe("ack").get(timeout_ms=2000) is DISCONNECTED
    assert session.open is False
    assert session.subscribe("readings").get(timeout_ms=1000) is DISCONNECTED
