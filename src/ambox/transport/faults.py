"""Scripted link faults: Down windows and added-latency windows.

Offsets are measured from scenario start on the scenario clock. Windows on
one link must not overlap; a link with no active window is up with its base
latency only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class FaultScheduleError(ValueError):
    pass


MODE_DOWN = "down"
MODE_LATENCY = "latency"


@dataclass(frozen=True)
class FaultWindow:
    link: str
    start_ms: int
    end_ms: int
    mode: str
    latency_ms: int = 0

    def __post_init__(self) -> None:
        if self.mode not in (MODE_DOWN, MODE_LATENCY):
            raise FaultScheduleError(f"unknown fault mode {self.mode!r}")
        if self.end_ms <= self.start_ms:
            raise FaultScheduleError(f"window on {self.link!r} must have end > start")
        if self.mode == MODE_LATENCY and self.latency_ms <= 0:
            raise FaultScheduleError("latency windows need latency_ms > 0")


class FaultSchedule:
    def __init__(self, windows: Iterable[FaultWindow] = ()) -> None:
        self._by_link: dict[str, list[FaultWindow]] = {}
        for window in windows:
            self._by_link.setdefault(window.link, []).append(window)
        for link, wins in self._by_link.items():
            wins.sort(key=lambda w: w.start_ms)
            for a, b in zip(wins, wins[1:]):
                if b.start_ms < a.end_ms:
                    raise FaultScheduleError(f"overlapping windows on link {link!r}")

    def windows(self) -> list[FaultWindow]:
        out: list[FaultWindow] = []
        for link in sorted(self._by_link):
            out.extend(self._by_link[link])
        return out

    def state_at(self, link: str, offset_ms: int) -> tuple[bool, int]:
        """(link up?, added latency) at the given offset from scenario start."""
        for window in self._by_link.get(link, ()):
            if window.start_ms <= offset_ms < window.end_ms:
                if window.mode == MODE_DOWN:
                    return False, 0
                return True, window.latency_ms
        return True, 0

    def down_starts(self) -> list[tuple[int, str]]:
        """(offset, link) pairs where a Down window opens, in time order."""
        events = [
            (w.start_ms, w.link)
            for wins in self._by_link.values()
            for w in wins
            if w.mode == MODE_DOWN
        ]
        return sorted(events)
