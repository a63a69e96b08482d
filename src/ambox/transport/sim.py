"""In-process network with deterministic fault injection on the virtual clock.

All agents in a scenario share one SimNetwork. Wide-area requests run inline
in the calling activity: the caller sleeps the forward latency, the server
handler executes, the caller sleeps the return latency. A short-range notify
or write crosses its session's link in one such hop.

One delivery rule covers every message, and `_carry` is the one place that
applies it: a message leaves only if its link is up at send time, and
arrives only if the link is up again at the delivery instant, so nothing is
ever delivered inside a Down window. A request that is lost either way, or
slower than its timeout, costs the sender its full timeout. A session whose
message meets a down link is killed; sessions are also killed proactively
when a Down window opens. Notifications are per-characteristic sequenced and
gap-free within a session.

Every exchange is appended to a message log whose canonical digest is part of
the scenario report; with a fixed schedule and seed, two runs produce
byte-identical logs. As it logs, the network keeps the traffic totals the
report shows: messages and bytes that left a device, wide-area (every
request not refused at send time) and short-range (every notify and write).
"""

from __future__ import annotations

import logging
from collections import Counter
from typing import Any, Callable, NamedTuple, Optional

from ..runtime import SimScheduler, TaskCancelled
from . import (
    DISCONNECTED,
    CentralPort,
    ConnectionRefused,
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


class _Link(NamedTuple):
    name: str
    base_latency_ms: int


# Endpoints with no link between them talk over an always-up, zero-latency one.
_NO_LINK = _Link("", 0)


class SimNetwork:
    def __init__(
        self,
        runtime: SimScheduler,
        schedule: Optional[FaultSchedule] = None,
    ) -> None:
        self.runtime = runtime
        self.schedule = schedule or FaultSchedule()
        self.start_ms = runtime.now_ms()
        self._routes: dict[frozenset, _Link] = {}
        self._servers: dict[str, Callable[[str, bytes], bytes]] = {}
        self._peripherals: dict[str, tuple[str, PeripheralDelegate]] = {}
        self._sessions: dict[str, "SimSession"] = {}
        # Every exchange and connection attempt; the harness report's digest
        # is computed from it.
        self.message_log: list[dict[str, Any]] = []
        # {wide_area,short_range}_{messages,bytes}; see log_event.
        self.traffic: Counter = Counter()
        self._watcher = None

    # -- topology -----------------------------------------------------------

    def add_link(self, name: str, a: str, b: str, base_latency_ms: int = 0) -> None:
        self._routes[frozenset((a, b))] = _Link(name, base_latency_ms)

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
                    if session.link.name == link_name:
                        session.kill("link-down")

        self._watcher = self.runtime.spawn("fault-watcher", watch)

    def _link(self, a: str, b: str) -> _Link:
        return self._routes.get(frozenset((a, b)), _NO_LINK)

    def _state(self, link: _Link) -> tuple[bool, int]:
        """(up?, latency) of `link` now."""
        up, added = self.schedule.state_at(link.name, self.runtime.now_ms() - self.start_ms)
        return up, link.base_latency_ms + added

    def _carry(self, link: _Link, latency_ms: int) -> bool:
        """Carry a message over `link`: sleep its latency, then whether the
        link is up as it arrives. Every delivery goes through here."""
        if latency_ms:
            self.runtime.sleep(latency_ms)
        return self._state(link)[0]

    def log_event(self, kind: str, **fields: Any) -> None:
        """Append to the message log, and count what left a device: every
        notify and write, and every request not refused at send time (link
        down, or no server at the address)."""
        entry = {"t": self.runtime.now_ms(), "kind": kind}
        entry.update(fields)
        self.message_log.append(entry)
        if kind == "request":
            if fields["outcome"] in ("link-down", "refused"):
                return
            link_class, size = "wide_area", fields["size"] + fields.get("response_size", 0)
        elif kind in ("notify", "write"):
            link_class, size = "short_range", fields["size"]
        else:
            return
        self.traffic[f"{link_class}_messages"] += 1
        self.traffic[f"{link_class}_bytes"] += size

    # -- wide-area request/response ------------------------------------------

    def register_server(self, address: str, handler: Callable[[str, bytes], bytes]) -> None:
        self._servers[address] = handler

    def unregister_server(self, address: str) -> None:
        self._servers.pop(address, None)

    def client(self, source: str) -> "SimRequestClient":
        return SimRequestClient(self, source)

    def request(self, src: str, dest: str, payload: bytes, timeout_ms: int, label: str) -> bytes:
        link = self._link(src, dest)
        t_send = self.runtime.now_ms()

        def failed(outcome: str, error: Exception) -> Exception:
            """Log the failure, once the sender has waited out its timeout
            if the message was lost or too slow; the caller raises it."""
            wait = t_send + timeout_ms - self.runtime.now_ms()
            if isinstance(error, RequestTimeout) and wait > 0:
                self.runtime.sleep(wait)
            self.log_event("request", link=link.name, src=src, dst=dest, label=label,
                           outcome=outcome, size=len(payload))
            return error

        up, latency = self._state(link)
        if not up:
            raise failed("link-down", LinkDown(f"{src}->{dest} is down"))
        handler = self._servers.get(dest)
        if handler is None:
            raise failed("refused", ConnectionRefused(f"no server at {dest}"))
        if latency >= timeout_ms > 0:
            raise failed("timeout", RequestTimeout(f"{src}->{dest} latency exceeds timeout"))
        if not self._carry(link, latency - latency // 2):
            # The window opened while the request was in flight.
            raise failed("lost-request", RequestTimeout(f"{src}->{dest} request lost in transit"))
        try:
            response = handler(src, payload)
        except TaskCancelled:
            raise
        except Exception as exc:
            # Mirror the real backend: a crashing handler drops the
            # connection instead of unwinding the caller's activity.
            logger.exception("server at %s failed", dest)
            error = ConnectionRefused(f"server at {dest} failed: {exc}")
            raise failed("server-error", error) from exc
        if not self._carry(link, latency // 2):
            error = RequestTimeout(f"{dest}->{src} response lost in transit")
            raise failed("lost-response", error)
        self.log_event("request", link=link.name, src=src, dst=dest, label=label,
                       outcome="ok", size=len(payload), response_size=len(response),
                       rtt_ms=self.runtime.now_ms() - t_send)
        return response

    # -- short-range sessions -------------------------------------------------

    def advertise(self, peripheral_id: str, paired_central: str, delegate: PeripheralDelegate) -> None:
        """Start advertising `peripheral_id`. Advertising an id again, as a
        restarted peripheral does, supersedes its live session: the central
        sees it close and reconnects to the new delegate."""
        self._peripherals[peripheral_id] = (paired_central, delegate)
        session = self._sessions.get(peripheral_id)
        if session is not None:
            session.kill("superseded")

    def central(self, central_id: str, allow_list: set[str]) -> "SimCentral":
        return SimCentral(self, central_id, set(allow_list))

    def _connect(self, central_id: str, peripheral_id: str) -> "SimSession":
        registration = self._peripherals.get(peripheral_id)
        if registration is None:
            raise Unreachable(f"{peripheral_id} is not advertising")
        paired_central, delegate = registration
        if paired_central != central_id:
            raise Unauthorized(f"{peripheral_id} is not paired with {central_id}")
        link = self._link(central_id, peripheral_id)
        if not self._state(link)[0]:
            self.log_event("connect", src=central_id, dst=peripheral_id, outcome="unreachable")
            raise Unreachable(f"link {central_id}<->{peripheral_id} is down")
        stale = self._sessions.get(peripheral_id)
        if stale is not None:
            stale.kill("superseded")
        session = SimSession(self, link, central_id, peripheral_id, delegate)
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
    def __init__(self, network: SimNetwork, link: _Link, central_id: str, peripheral_id: str,
                 delegate: PeripheralDelegate) -> None:
        self._network = network
        self.link = link
        self.central_id = central_id
        self.peripheral_id = peripheral_id
        self._delegate = delegate
        self._open = True
        self._streams: dict[str, Any] = {}
        self._sequences: dict[str, int] = {}

    @property
    def open(self) -> bool:
        return self._open

    def _hop(self) -> None:
        """Carry one message across the session's link, or raise
        SessionClosed; a link found down kills the session."""
        if not self._open:
            raise SessionClosed("session is closed")
        network = self._network
        up, latency = network._state(self.link)
        if up and latency:
            up = network._carry(self.link, latency)
            if not self._open:
                raise SessionClosed("session closed in transit")
        if not up:
            self.kill("link-down")
            raise SessionClosed("link went down")

    def subscribe(self, characteristic: str):
        stream = self._streams.get(characteristic)
        if stream is None:
            stream = self._network.runtime.new_queue()
            self._streams[characteristic] = stream
            if not self._open:
                stream.put(DISCONNECTED)
        return stream

    def notify(self, characteristic: str, payload: bytes) -> int:
        """Peripheral-side publish; delivers in order to the subscriber."""
        self._hop()
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
        self._hop()
        self._network.log_event("write", src=self.central_id, dst=self.peripheral_id,
                                characteristic=characteristic, size=len(payload))
        try:
            self._delegate.on_write(self, characteristic, payload)
        except TaskCancelled:
            raise
        except Exception:
            # Mirror the real backend: the peripheral logs a failing write
            # handler, and the central's write has already gone out.
            logger.exception("peripheral write handler failed")

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
