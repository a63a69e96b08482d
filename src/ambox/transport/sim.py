"""In-process network with deterministic fault injection on the virtual clock.

All agents in a scenario share one SimNetwork. Wide-area requests run inline
in the calling activity: the caller sleeps the forward latency, the server
handler executes, the caller sleeps the return latency. Link state is checked
at send time and again at each delivery instant, so nothing is ever delivered
inside a Down window. Short-range sessions are killed proactively when a Down
window opens; notifications are per-characteristic sequenced and gap-free
within a session.

Every exchange is appended to a message log whose canonical digest is part of
the scenario report; with a fixed schedule and seed, two runs produce
byte-identical logs.
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Optional

from ..runtime import SimRuntime, TaskCancelled
from . import (
    DISCONNECTED,
    CentralPort,
    ConnectionRefused,
    LinkClass,
    LinkDown,
    Notification,
    PeripheralDelegate,
    RequestClient,
    RequestTimeout,
    Session,
    SessionClosed,
    Unauthorized,
    Unreachable,
)
from .faults import FaultSchedule

logger = logging.getLogger(__name__)

DEFAULT_TIMEOUT_MS = 10_000


class _Link:
    def __init__(self, name: str, a: str, b: str, link_class: LinkClass, base_latency_ms: int) -> None:
        self.name = name
        self.ends = frozenset((a, b))
        self.link_class = link_class
        self.base_latency_ms = base_latency_ms


class SimNetwork:
    def __init__(
        self,
        runtime: SimRuntime,
        schedule: Optional[FaultSchedule] = None,
        start_ms: Optional[int] = None,
    ) -> None:
        self.runtime = runtime
        self.schedule = schedule or FaultSchedule()
        self.start_ms = runtime.now_ms() if start_ms is None else start_ms
        self._links: dict[str, _Link] = {}
        self._routes: dict[frozenset, _Link] = {}
        self._servers: dict[str, Callable[[str, bytes], bytes]] = {}
        self._peripherals: dict[str, tuple[str, PeripheralDelegate]] = {}
        self._sessions: dict[str, "SimSession"] = {}
        # Every exchange and connection attempt; the harness report's digest
        # and traffic totals are computed from it.
        self.message_log: list[dict[str, Any]] = []
        self._watcher = None

    # -- topology -----------------------------------------------------------

    def add_link(
        self,
        name: str,
        a: str,
        b: str,
        link_class: LinkClass = LinkClass.WIDE_AREA,
        base_latency_ms: int = 0,
    ) -> None:
        link = _Link(name, a, b, link_class, base_latency_ms)
        self._links[name] = link
        self._routes[link.ends] = link

    def start_fault_watcher(self) -> None:
        """Spawn the activity that tears down short-range sessions when their
        link enters a Down window. Call once the scheduler is about to run."""
        if self._watcher is not None:
            return
        starts = self.schedule.down_starts()
        if not starts:
            return

        def watch() -> None:
            for offset, link_name in starts:
                wake = self.start_ms + offset
                if wake > self.runtime.now_ms():
                    self.runtime.sleep(wake - self.runtime.now_ms())
                for session in list(self._sessions.values()):
                    if session.link is not None and session.link.name == link_name:
                        session.kill("link-down")

        self._watcher = self.runtime.spawn("fault-watcher", watch)

    def _route(self, a: str, b: str) -> Optional[_Link]:
        return self._routes.get(frozenset((a, b)))

    def link_state(self, a: str, b: str) -> tuple[bool, int]:
        link = self._route(a, b)
        if link is None:
            return True, 0
        offset = self.runtime.now_ms() - self.start_ms
        up, added = self.schedule.state_at(link.name, offset)
        return up, link.base_latency_ms + added

    def log_event(self, kind: str, **fields: Any) -> None:
        entry = {"t": self.runtime.now_ms(), "kind": kind}
        entry.update(fields)
        self.message_log.append(entry)

    # -- wide-area request/response ------------------------------------------

    def register_server(self, address: str, handler: Callable[[str, bytes], bytes]) -> None:
        self._servers[address] = handler

    def unregister_server(self, address: str) -> None:
        self._servers.pop(address, None)

    def client(self, source: str) -> "SimRequestClient":
        return SimRequestClient(self, source)

    def request(self, src: str, dest: str, payload: bytes, timeout_ms: int, label: str) -> bytes:
        link = self._route(src, dest)
        link_name = link.name if link else ""
        up, latency = self.link_state(src, dest)
        if not up:
            self.log_event("request", link=link_name, src=src, dst=dest, label=label,
                           outcome="link-down", size=len(payload))
            raise LinkDown(f"{src}->{dest} is down")
        handler = self._servers.get(dest)
        if handler is None:
            self.log_event("request", link=link_name, src=src, dst=dest, label=label,
                           outcome="refused", size=len(payload))
            raise ConnectionRefused(f"no server at {dest}")
        t_send = self.runtime.now_ms()
        if latency >= timeout_ms > 0:
            self.runtime.sleep(timeout_ms)
            self.log_event("request", link=link_name, src=src, dst=dest, label=label,
                           outcome="timeout", size=len(payload))
            raise RequestTimeout(f"{src}->{dest} latency exceeds timeout")
        forward = latency - latency // 2
        backward = latency // 2
        if forward:
            self.runtime.sleep(forward)
        if not self.link_state(src, dest)[0]:
            # The window opened while the request was in flight; it is lost.
            self._sleep_until(t_send + timeout_ms)
            self.log_event("request", link=link_name, src=src, dst=dest, label=label,
                           outcome="lost-request", size=len(payload))
            raise RequestTimeout(f"{src}->{dest} request lost in transit")
        try:
            response = handler(src, payload)
        except TaskCancelled:
            raise
        except Exception as exc:
            # Mirror the real backend: a crashing handler drops the
            # connection instead of unwinding the caller's activity.
            logger.exception("server at %s failed", dest)
            self.log_event("request", link=link_name, src=src, dst=dest, label=label,
                           outcome="server-error", size=len(payload))
            raise ConnectionRefused(f"server at {dest} failed: {exc}") from exc
        if backward:
            self.runtime.sleep(backward)
        if not self.link_state(src, dest)[0]:
            self._sleep_until(t_send + timeout_ms)
            self.log_event("request", link=link_name, src=src, dst=dest, label=label,
                           outcome="lost-response", size=len(payload))
            raise RequestTimeout(f"{dest}->{src} response lost in transit")
        self.log_event("request", link=link_name, src=src, dst=dest, label=label,
                       outcome="ok", size=len(payload), response_size=len(response),
                       rtt_ms=self.runtime.now_ms() - t_send)
        return response

    def _sleep_until(self, t_ms: int) -> None:
        delta = t_ms - self.runtime.now_ms()
        if delta > 0:
            self.runtime.sleep(delta)

    # -- short-range sessions -------------------------------------------------

    def advertise(self, peripheral_id: str, paired_central: str, delegate: PeripheralDelegate) -> None:
        self._peripherals[peripheral_id] = (paired_central, delegate)

    def stop_advertising(self, peripheral_id: str) -> None:
        self._peripherals.pop(peripheral_id, None)
        session = self._sessions.get(peripheral_id)
        if session is not None:
            session.kill("peripheral-gone")

    def central(self, central_id: str, allow_list: set[str]) -> "SimCentral":
        return SimCentral(self, central_id, set(allow_list))

    def _connect(self, central_id: str, peripheral_id: str) -> "SimSession":
        registration = self._peripherals.get(peripheral_id)
        if registration is None:
            raise Unreachable(f"{peripheral_id} is not advertising")
        paired_central, delegate = registration
        if paired_central != central_id:
            raise Unauthorized(f"{peripheral_id} is not paired with {central_id}")
        up, latency = self.link_state(central_id, peripheral_id)
        if not up:
            self.log_event("connect", src=central_id, dst=peripheral_id, outcome="unreachable")
            raise Unreachable(f"link {central_id}<->{peripheral_id} is down")
        stale = self._sessions.get(peripheral_id)
        if stale is not None:
            stale.kill("superseded")
        session = SimSession(self, central_id, peripheral_id, delegate)
        self._sessions[peripheral_id] = session
        self.log_event("connect", src=central_id, dst=peripheral_id, outcome="ok")
        delegate.on_connect(session)
        return session

    def _drop_session(self, session: "SimSession") -> None:
        if self._sessions.get(session.peripheral_id) is session:
            del self._sessions[session.peripheral_id]


class SimRequestClient(RequestClient):
    def __init__(self, network: SimNetwork, source: str) -> None:
        self._network = network
        self.source = source

    def request(self, dest: str, payload: bytes, timeout_ms: int = DEFAULT_TIMEOUT_MS,
                label: str = "") -> bytes:
        return self._network.request(self.source, dest, payload, timeout_ms, label)


class SimCentral(CentralPort):
    def __init__(self, network: SimNetwork, central_id: str, allow_list: set[str]) -> None:
        self._network = network
        self.central_id = central_id
        self.allow_list = allow_list

    def connect(self, peripheral_id: str) -> "SimSession":
        if peripheral_id not in self.allow_list:
            raise Unauthorized(f"{peripheral_id} not in allow-list of {self.central_id}")
        return self._network._connect(self.central_id, peripheral_id)


class SimSession(Session):
    def __init__(self, network: SimNetwork, central_id: str, peripheral_id: str,
                 delegate: PeripheralDelegate) -> None:
        self._network = network
        self.central_id = central_id
        self.peripheral_id = peripheral_id
        self._delegate = delegate
        self._open = True
        self._streams: dict[str, Any] = {}
        self._sequences: dict[str, int] = {}
        link = network._route(central_id, peripheral_id)
        self.link = link

    @property
    def open(self) -> bool:
        return self._open

    def _latency(self) -> tuple[bool, int]:
        return self._network.link_state(self.central_id, self.peripheral_id)

    def subscribe(self, characteristic: str):
        if not self._open:
            raise SessionClosed("session is closed")
        stream = self._streams.get(characteristic)
        if stream is None:
            stream = self._network.runtime.new_queue()
            self._streams[characteristic] = stream
        return stream

    def notify(self, characteristic: str, payload: bytes) -> int:
        """Peripheral-side publish; delivers in order to the subscriber."""
        if not self._open:
            raise SessionClosed("session is closed")
        up, latency = self._latency()
        if not up:
            self.kill("link-down")
            raise SessionClosed("link went down")
        if latency:
            self._network.runtime.sleep(latency)
            if not self._open:
                raise SessionClosed("session closed in transit")
            if not self._latency()[0]:
                self.kill("link-down")
                raise SessionClosed("link went down in transit")
        seq = self._sequences.get(characteristic, 0) + 1
        self._sequences[characteristic] = seq
        stream = self._streams.get(characteristic)
        if stream is not None:
            stream.put(Notification(characteristic, payload, seq))
        self._network.log_event("notify", src=self.peripheral_id, dst=self.central_id,
                                characteristic=characteristic, seq=seq, size=len(payload))
        return seq

    def write(self, characteristic: str, payload: bytes) -> None:
        """Central-side write to a peripheral characteristic."""
        if not self._open:
            raise SessionClosed("session is closed")
        up, latency = self._latency()
        if not up:
            self.kill("link-down")
            raise SessionClosed("link went down")
        if latency:
            self._network.runtime.sleep(latency)
            if not self._open:
                raise SessionClosed("session closed in transit")
            if not self._latency()[0]:
                self.kill("link-down")
                raise SessionClosed("link went down in transit")
        self._network.log_event("write", src=self.central_id, dst=self.peripheral_id,
                                characteristic=characteristic, size=len(payload))
        self._delegate.on_write(self, characteristic, payload)

    def close(self) -> None:
        self.kill("closed")

    def kill(self, reason: str) -> None:
        if not self._open:
            return
        self._open = False
        self._network._drop_session(self)
        self._network.log_event("disconnect", src=self.central_id, dst=self.peripheral_id,
                                reason=reason)
        for stream in self._streams.values():
            stream.put(DISCONNECTED)
        try:
            self._delegate.on_disconnect(self)
        except TaskCancelled:  # pragma: no cover - delegate cancelling itself
            raise
        except Exception:
            logger.exception("peripheral on_disconnect failed")


def echo_handler(src: str, payload: bytes) -> bytes:
    return payload
