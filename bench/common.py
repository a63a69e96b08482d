"""Pieces shared by the workloads: work directories, phases, the auditor's
query plan, and the small statistics the metrics need."""

from __future__ import annotations

import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from ambox.transport import RequestClient

BENCH_DIR = Path(__file__).resolve().parent
CACHE_DIR = BENCH_DIR / "_cache"
RESULTS_DIR = BENCH_DIR / "_results"
WORK_ROOT = BENCH_DIR / "_work"

QUERY_LIMIT = 10


class WorkDir:
    """A per-process scratch directory inside the checkout, removed on close."""

    def __init__(self) -> None:
        WORK_ROOT.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))

    def __truediv__(self, name: str) -> Path:
        return self.path / name

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


@dataclass
class Phases:
    """Wall-clock intervals of the benchmark's phases, in perf_counter_ns,
    so spans from any process can be attributed to a phase."""

    intervals: dict[str, list[tuple[int, int]]] = field(default_factory=dict)

    def run(self, name: str, fn: Callable):
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            self.intervals.setdefault(name, []).append((start, time.perf_counter_ns()))

    def contains(self, name: str, t_ns: int) -> bool:
        return any(a <= t_ns <= b for a, b in self.intervals.get(name, ()))


class RecordingRequester(RequestClient):
    """A request client that keeps the last raw answer, for the checks."""

    def __init__(self, inner: RequestClient) -> None:
        self._inner = inner
        self.last = b""

    def request(self, dest: str, payload: bytes, timeout_ms: int = 10_000, label: str = "") -> bytes:
        self.last = self._inner.request(dest, payload, timeout_ms, label)
        return self.last


@dataclass(frozen=True)
class Sizes:
    """How big a run's fixed parts are. The defaults are the benchmark; the
    benchmark's own tests run the same code smaller."""

    history_reports: int = 2_000
    setups: int = 3             # set-ups per pass; setup_s is their median
    audits: int = 9             # VerifyChain calls per pass; audit_s is their median
    segments: int = 40          # run-phase parts, with a reference probe between each
    live_devices: int = 32      # registered devices the ledger workloads submit for
    fleet_nodes: int = 4        # nodes in fleet_sim, each with one mote


@dataclass(frozen=True)
class Query:
    op: str          # "recent" | "event"
    args: dict


# The auditor's mix, repeated: a fixed pattern rather than a random draw, so
# every run asks the same share of each kind. GetEvent is far cheaper than
# any GetRecent; with two in five the median sat at the edge of the GetRecent
# times and jumped between runs (spread 0.23 over ten fleet_sim seeds, 0.035
# with one in five).
QUERY_PATTERN = ("device", "batch", "device", "event", "device")


def query_plan(seed: int, label: str, n: int, devices: list[str], batches: list[str],
               event_ids: Callable[[random.Random, int], str]) -> list[Query]:
    """n auditor queries in QUERY_PATTERN. GetRecent targets go round a
    seeded order of the devices and batches, so each is asked equally often.
    event_ids(rng, j) picks the report id the j-th query asks for."""
    rng = random.Random(f"ambox-bench:{seed}:queries:{label}")
    devices, batches = rng.sample(devices, len(devices)), rng.sample(batches, len(batches))
    asked = {"device": 0, "batch": 0}
    plan = []
    for j in range(n):
        kind = QUERY_PATTERN[j % len(QUERY_PATTERN)]
        if kind == "event":
            plan.append(Query("event", {"report_id": event_ids(rng, j)}))
            continue
        k = asked[kind]
        asked[kind] += 1
        if kind == "device":
            plan.append(Query("recent", {"device_id": devices[k % len(devices)],
                                         "limit": QUERY_LIMIT}))
        else:
            plan.append(Query("recent", {"batch_no": batches[k % len(batches)],
                                         "limit": QUERY_LIMIT}))
    return plan


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p99(values: list[float]) -> Optional[float]:
    """The 99th percentile where at least 1,000 samples exist, else None."""
    if len(values) < 1000:
        return None
    return statistics.quantiles(values, n=100)[98]
