"""Real-socket backend: framed TCP and short-range over TCP.

Wire format for framed exchanges is a 4-byte big-endian length prefix
followed by a UTF-8 JSON body. The short-range emulation runs the same
advertise/connect/subscribe/notify contract as the simulated backend, so
agent code does not know which one it is on.

Every server here, and the HTTP server in `transport.http`, is a
`_Listener`: it binds, serves each accepted connection on its own thread,
and keeps the connections it accepted. A stopped server answers no one:
`shutdown` stops accepting and hangs up every connection it accepted,
kept-open ones included. That wakes a thread blocked in recv and fails an
answer still being computed, so no request, handshake or write that arrives
after the stop reaches a handler, router or delegate.
"""

from __future__ import annotations

import base64
import contextlib
import logging
import select
import socket
import struct
import threading
from typing import TYPE_CHECKING, Callable, Optional

from ..canonical import CanonicalError, wire_dumps, wire_loads
from . import (
    DISCONNECTED,
    CentralPort,
    ConnectionRefused,
    Notification,
    PeripheralDelegate,
    RequestClient,
    RequestTimeout,
    Session,
    SessionClosed,
    TransportError,
    Unauthorized,
    Unreachable,
)

if TYPE_CHECKING:
    from ..runtime import BlockingQueue, Runtime

logger = logging.getLogger(__name__)

MAX_FRAME = 64 * 1024 * 1024
_RECV_CHUNK = 64 * 1024


def send_frame(sock: socket.socket, payload: bytes) -> None:
    if len(payload) > MAX_FRAME:
        raise TransportError(f"frame too large: {len(payload)} bytes")
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def recv_frame(sock: socket.socket) -> Optional[bytes]:
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME:
        raise TransportError(f"frame too large: {length} bytes")
    body = _recv_exact(sock, length)
    if body is None:
        raise TransportError("connection closed mid-frame")
    return body


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Exactly n bytes; None if the peer closed before sending any. Memory
    grows with the bytes that arrive, not with the length a header claims."""
    chunks, got = [], 0
    while got < n:
        chunk = sock.recv(min(n - got, _RECV_CHUNK))
        if not chunk:
            if got:
                raise TransportError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def parse_hostport(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be host:port, got {address!r}")
    return host, int(port)


def _hang_up(sock: socket.socket) -> None:
    """Shut both directions, then close. The shutdown wakes any thread blocked
    in recv on either end; a bare close would leave the peer hanging until
    its next send."""
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)
    with contextlib.suppress(OSError):
        sock.close()


def _transport_error(exc: OSError, exchange: str) -> TransportError:
    """The TransportError a client raises for a socket error during
    `exchange`, whose message names the exchange, and so its peer."""
    if isinstance(exc, socket.timeout):
        return RequestTimeout(f"{exchange} timed out")
    return ConnectionRefused(f"{exchange} failed: {exc}")


class TcpRequestClient(RequestClient):
    """Framed requests over connections kept open per destination.

    Each exchange takes an idle connection to its destination, or opens
    one, and gives it back only after a whole answer arrived; threads that
    share a client therefore never share a connection mid-exchange. A
    request is sent at most once: it is never resent, not even when a kept
    connection turns out to be dead. An idle connection that is readable
    before a request goes out was closed by the peer (or holds a stray
    byte), so it is dropped unused. Any error, timeout or end of stream
    closes its connection, so a late answer is never read as the answer to
    a later request.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: dict[tuple[str, int], list[socket.socket]] = {}
        self._closed = False

    def request(self, dest: str, payload: bytes, timeout_ms: int = 10_000, label: str = "") -> bytes:
        address = parse_hostport(dest)
        timeout_s = max(timeout_ms, 1) / 1000.0
        sock = self._take_idle(address)
        try:
            try:
                if sock is None:
                    sock = socket.create_connection(address, timeout=timeout_s)
                sock.settimeout(timeout_s)
                send_frame(sock, payload)
                response = recv_frame(sock)
            except OSError as exc:
                raise _transport_error(exc, f"request to {dest}") from exc
            if response is None:
                raise TransportError(f"server at {dest} closed the connection")
        except BaseException:
            if sock is not None:
                sock.close()
            raise
        self._give_back(address, sock)
        return response

    def close(self) -> None:
        """Close every idle connection; one in use closes when its exchange ends."""
        with self._lock:
            self._closed = True
            idle = [sock for socks in self._idle.values() for sock in socks]
            self._idle.clear()
        for sock in idle:
            sock.close()

    def _take_idle(self, address: tuple[str, int]) -> Optional[socket.socket]:
        while True:
            with self._lock:
                idle = self._idle.get(address)
                if not idle:
                    return None
                sock = idle.pop()
            readable, _, _ = select.select([sock], [], [], 0)
            if not readable:
                return sock
            sock.close()

    def _give_back(self, address: tuple[str, int], sock: socket.socket) -> None:
        with self._lock:
            if not self._closed:
                self._idle.setdefault(address, []).append(sock)
                return
        sock.close()


class _Listener:
    """A TCP server's lifecycle, as the module docstring states it. A subclass
    defines only `_serve(sock, peer)`, which serves one accepted connection on
    its own thread; the socket closes when it returns.

    One thread accepts, blocked in `accept` on the listening socket. `shutdown`
    wakes it at once, so a stop waits on no poll interval: shutting the
    listening socket down wakes it on Linux, and where that fails (BSD,
    macOS) a connection of the listener's own does."""

    def __init__(self, host: str, port: int, name: str) -> None:
        self._lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        self._closing = False
        self._stopping = threading.Event()
        try:
            self._socket = socket.create_server((host, port))
        except OSError as exc:
            raise OSError(f"cannot bind {host}:{port}: {exc}") from exc
        bound_host, self.port = self._socket.getsockname()[:2]
        # Where `shutdown` connects to wake the accept: loopback for a wildcard.
        self._wake_address = ({"0.0.0.0": "127.0.0.1", "::": "::1"}.get(bound_host, bound_host),
                              self.port)
        self._accepter = threading.Thread(target=self._accept_loop, name=f"{name}:{self.port}",
                                          daemon=True)
        self._accepter.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, peer = self._socket.accept()
            except OSError as exc:
                if self._stopping.is_set():
                    return
                # Out of descriptors or an aborted handshake: the listener
                # goes on, after a pause so that a lasting error cannot spin.
                logger.warning("accept on port %d failed: %s", self.port, exc)
                self._stopping.wait(0.05)
                continue
            if self._stopping.is_set():         # the wake-up, or a late caller
                _hang_up(sock)
                return
            threading.Thread(target=self._serve_connection, args=(sock, peer),
                             name=f"{self._accepter.name}:{peer[1]}", daemon=True).start()

    def _serve_connection(self, sock: socket.socket, peer: tuple[str, int]) -> None:
        with self._lock:
            if self._closing:
                _hang_up(sock)
                return
            self._connections.add(sock)
        try:
            with contextlib.suppress(OSError):   # a connection that fails just ends
                self._serve(sock, peer)
        finally:
            with self._lock:
                self._connections.discard(sock)
            _hang_up(sock)

    def shutdown(self) -> None:
        self._stopping.set()
        with contextlib.suppress(OSError):
            self._socket.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):     # refused where the shutdown woke it
            socket.create_connection(self._wake_address, timeout=1.0).close()
        self._accepter.join(1.0)                # a daemon: a stop never hangs on it
        self._socket.close()
        with self._lock:
            self._closing = True
            connections = list(self._connections)
        for sock in connections:
            _hang_up(sock)


class FrameServer(_Listener):
    """Framed-TCP server: a connection carries any number of frames, each
    answered with `handler(peer, frame)`."""

    def __init__(self, host: str, port: int, handler: Callable[[str, bytes], bytes]) -> None:
        self._handler = handler
        super().__init__(host, port, "frame-server")

    def _serve(self, sock: socket.socket, peer: tuple[str, int]) -> None:
        source = f"{peer[0]}:{peer[1]}"
        while True:
            try:
                payload = recv_frame(sock)
            except TransportError:
                return
            if payload is None:
                return
            try:
                response = self._handler(source, payload)
            except Exception:
                logger.exception("frame handler failed")
                return
            send_frame(sock, response)


# -- short-range over TCP -----------------------------------------------------


class TcpPeripheralServer(_Listener):
    """Peripheral (mote) side: accepts one central at a time."""

    def __init__(self, host: str, port: int, peripheral_id: str, paired_central: str,
                 delegate: PeripheralDelegate) -> None:
        self.peripheral_id = peripheral_id
        self.paired_central = paired_central
        self.delegate = delegate
        self._session: Optional[TcpPeripheralSession] = None
        super().__init__(host, port, f"peripheral:{peripheral_id}")

    def _serve(self, sock: socket.socket, peer: tuple[str, int]) -> None:
        try:
            hello = recv_frame(sock)
            if hello is None:
                return
            msg = wire_loads(hello)
            if msg.get("t") != "hello" or msg.get("peripheral") != self.peripheral_id:
                send_frame(sock, wire_dumps({"t": "reject"}))
                return
            if msg.get("central") != self.paired_central:
                send_frame(sock, wire_dumps({"t": "unauthorized"}))
                return
            send_frame(sock, wire_dumps({"t": "ok"}))
        except (OSError, CanonicalError, TransportError):
            return
        session = TcpPeripheralSession(self, sock, self.paired_central)
        with self._lock:
            if self._closing:
                return
            previous, self._session = self._session, session
        if previous is not None:
            previous.kill("superseded")
        try:
            self.delegate.on_connect(session)
            session.reader_loop()
        finally:
            session.kill("closed")
            with self._lock:
                if self._session is session:
                    self._session = None

    def shutdown(self) -> None:
        # The session ends first, so its on_disconnect is the delegate's last call.
        with self._lock:
            self._closing = True
            session = self._session
        if session is not None:
            session.kill("shutdown")
        super().shutdown()


class TcpPeripheralSession:
    """Peripheral's view of the connection: it can notify and receive writes."""

    def __init__(self, server: TcpPeripheralServer, sock: socket.socket, central_id: str) -> None:
        self._server = server
        self._sock = sock
        self.central_id = central_id
        self.peripheral_id = server.peripheral_id
        self._send_lock = threading.Lock()
        self._sequences: dict[str, int] = {}
        self._open = True

    @property
    def open(self) -> bool:
        return self._open

    def notify(self, characteristic: str, payload: bytes) -> int:
        with self._send_lock:
            if not self._open:
                raise SessionClosed("session is closed")
            seq = self._sequences.get(characteristic, 0) + 1
            self._sequences[characteristic] = seq
            frame = _frame("ntf", characteristic, payload, seq=seq)
            try:
                send_frame(self._sock, frame)
            except OSError as exc:
                self._open = False
                raise SessionClosed(str(exc)) from exc
            return seq

    def reader_loop(self) -> None:
        while self._open:
            try:
                frame = recv_frame(self._sock)
            except (OSError, TransportError):
                break
            if frame is None:
                break
            try:
                msg = wire_loads(frame)
                if msg.get("t") == "write":
                    payload = base64.b64decode(msg["payload_b64"])
                    self._server.delegate.on_write(self, msg["char"], payload)
            except Exception:
                logger.exception("peripheral write handler failed")
        self.kill("peer-closed")

    def kill(self, reason: str) -> None:
        if not self._open:
            return
        self._open = False
        _hang_up(self._sock)
        try:
            self._server.delegate.on_disconnect(self)
        except Exception:
            logger.exception("on_disconnect failed")


class TcpCentral(CentralPort):
    """Central (node) side; the allow-list maps peripheral ids to addresses.
    Each session's streams come from the node's runtime."""

    def __init__(self, central_id: str, peripheral_addresses: dict[str, str],
                 runtime: Runtime, connect_timeout_ms: int = 3000) -> None:
        self.central_id = central_id
        self._addresses = dict(peripheral_addresses)
        self._runtime = runtime
        self._timeout_s = connect_timeout_ms / 1000.0

    def connect(self, peripheral_id: str) -> "TcpCentralSession":
        address = self._addresses.get(peripheral_id)
        if address is None:
            raise Unauthorized(f"{peripheral_id} not in allow-list of {self.central_id}")
        host, port = parse_hostport(address)
        try:
            sock = socket.create_connection((host, port), timeout=self._timeout_s)
        except OSError as exc:
            raise Unreachable(f"cannot reach {peripheral_id} at {address}: {exc}") from exc
        try:
            sock.settimeout(self._timeout_s)
            send_frame(sock, wire_dumps({
                "t": "hello", "central": self.central_id, "peripheral": peripheral_id,
            }))
            reply = recv_frame(sock)
            if reply is None:
                raise Unreachable(f"{peripheral_id} closed during handshake")
            verdict = wire_loads(reply).get("t")
        except (OSError, CanonicalError, TransportError) as exc:
            sock.close()
            raise Unreachable(f"handshake with {peripheral_id} failed: {exc}") from exc
        if verdict == "unauthorized":
            sock.close()
            raise Unauthorized(f"{peripheral_id} rejected pairing with {self.central_id}")
        if verdict != "ok":
            sock.close()
            raise Unreachable(f"{peripheral_id} rejected connection: {verdict}")
        sock.settimeout(None)
        return TcpCentralSession(sock, peripheral_id, self._runtime)


class TcpCentralSession(Session):
    def __init__(self, sock: socket.socket, peripheral_id: str, runtime: Runtime) -> None:
        self._sock = sock
        self.peripheral_id = peripheral_id
        self._runtime = runtime
        self._open = True
        self._streams: dict[str, BlockingQueue] = {}
        self._streams_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._reader = threading.Thread(target=self._reader_loop,
                                        name=f"central-session:{peripheral_id}", daemon=True)
        self._reader.start()

    @property
    def open(self) -> bool:
        return self._open

    def subscribe(self, characteristic: str) -> BlockingQueue:
        with self._streams_lock:
            stream = self._streams.get(characteristic)
            if stream is None:
                stream = self._runtime.new_queue()
                self._streams[characteristic] = stream
                if not self._open:
                    stream.put(DISCONNECTED)
            return stream

    def write(self, characteristic: str, payload: bytes) -> None:
        with self._send_lock:
            if not self._open:
                raise SessionClosed("session is closed")
            frame = _frame("write", characteristic, payload)
            try:
                send_frame(self._sock, frame)
            except OSError as exc:
                self.close()
                raise SessionClosed(str(exc)) from exc

    def _reader_loop(self) -> None:
        while self._open:
            try:
                frame = recv_frame(self._sock)
            except (OSError, TransportError):
                break
            if frame is None:
                break
            try:
                notification = _notification(frame)
            except (ValueError, TypeError) as exc:
                # A skipped notification would leave a gap in the stream.
                logger.warning("ending session with %s: %s", self.peripheral_id, exc)
                break
            self.subscribe(notification.characteristic).put(notification)
        self.close()

    def close(self) -> None:
        with self._streams_lock:
            if not self._open:
                return
            self._open = False
            streams = list(self._streams.values())
        _hang_up(self._sock)
        for stream in streams:
            stream.put(DISCONNECTED)


def _frame(kind: str, characteristic: str, payload: bytes, **fields: int) -> bytes:
    return wire_dumps({"t": kind, "char": characteristic,
                       "payload_b64": base64.b64encode(payload).decode("ascii"), **fields})


def _notification(frame: bytes) -> Notification:
    """The notification an ntf frame holds; ValueError or TypeError for any other frame."""
    msg = wire_loads(frame)
    char, seq = msg.get("char"), msg.get("seq")
    if msg.get("t") != "ntf" or not isinstance(char, str) or type(seq) is not int:
        raise CanonicalError("not a notification frame")
    return Notification(char, base64.b64decode(msg.get("payload_b64"), validate=True), seq)
