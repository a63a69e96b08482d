"""Link abstractions shared by the simulated and real-socket backends.

Two link classes exist. Wide-area links carry request/response exchanges
(control API, heartbeats, ledger submissions) as length-prefixed JSON frames.
Short-range links model the peripheral/central pattern: a peripheral
advertises, an authorized central connects, subscribes to characteristics,
and receives in-order notifications until the link drops.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional


# A router maps (method, path, body) to (status, response object); the
# control API and the heartbeat sink serve one over either backend.
Router = Callable[[str, str, Optional[dict]], tuple[int, dict]]


class LinkClass(str, Enum):
    WIDE_AREA = "wide_area"
    SHORT_RANGE = "short_range"


class TransportError(Exception):
    pass


class LinkDown(TransportError):
    """The link is inside a scheduled Down window."""


class RequestTimeout(TransportError):
    pass


class ConnectionRefused(TransportError):
    pass


class Unreachable(TransportError):
    """Peripheral absent, out of range, or its link is down."""


class Unauthorized(TransportError):
    """Peripheral not in the central's allow-list, or central not paired."""


class SessionClosed(TransportError):
    pass


@dataclass(frozen=True)
class Notification:
    characteristic: str
    payload: bytes
    sequence: int


class Disconnected:
    """Stream marker: the session ended; no further notifications follow."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<disconnected>"


DISCONNECTED = Disconnected()


class RequestClient(ABC):
    """Client side of the wide-area request/response channel."""

    @abstractmethod
    def request(self, dest: str, payload: bytes, timeout_ms: int, label: str = "") -> bytes:
        """Send one request and return the response bytes.

        Raises LinkDown, RequestTimeout, or ConnectionRefused.
        """


class Session(ABC):
    """An established central<->peripheral session."""

    peripheral_id: str

    @abstractmethod
    def subscribe(self, characteristic: str):
        """Return a blocking stream of Notification items ending in DISCONNECTED;
        on a closed session, a new stream holds DISCONNECTED already."""

    @abstractmethod
    def write(self, characteristic: str, payload: bytes) -> None: ...

    @abstractmethod
    def close(self) -> None: ...

    @property
    @abstractmethod
    def open(self) -> bool: ...


class CentralPort(ABC):
    @abstractmethod
    def connect(self, peripheral_id: str) -> Session:
        """Connect to an advertised peripheral. Raises Unreachable/Unauthorized."""


class PeripheralDelegate(ABC):
    """Callbacks a peripheral (mote) implements to serve a session."""

    @abstractmethod
    def on_connect(self, session) -> None: ...

    @abstractmethod
    def on_write(self, session, characteristic: str, payload: bytes) -> None: ...

    @abstractmethod
    def on_disconnect(self, session) -> None: ...


def spawn_reconnect(
    runtime,
    central: CentralPort,
    peripheral_id: str,
    retry_interval_ms: int,
    on_session: Callable[[Session], None],
):
    """Background activity: keep a session alive, retrying while the link is down.

    `on_session` is called with each new session and must block until the
    session ends (it owns the receive loop). Retries continue until the
    returned task is cancelled.
    """

    def loop() -> None:
        while True:
            try:
                session = central.connect(peripheral_id)
            except (Unreachable, Unauthorized):
                runtime.sleep(retry_interval_ms)
                continue
            try:
                on_session(session)
            finally:
                session.close()

    return runtime.spawn(f"reconnect:{peripheral_id}", loop)
