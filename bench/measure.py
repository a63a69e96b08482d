"""Timings of one pass and the end-to-end metrics derived from them.

Every timing is kept with the reference probe taken next to it (probe.py).
A metric is reported raw, and normalised, i.e. read at the reference's
nominal speed (REF_NOMINAL_MS):

- a long timing (a set-up, an audit, a run-phase segment) is scaled by the
  probes taken just before and after it;
- the part of it spent in fsync and rename, where that is known (fleet_sim
  runs the program in this process), is scaled by the disk probe instead:
  it waits on the disk, not on the CPU;
- the median of many short calls (submissions, queries) is scaled by the
  median probe of the pass, since one probe next to a call of a few
  milliseconds says little about that call.

`BOUNDED_FORM` says which of the two forms each bounded end-to-end metric
takes; the result file keeps both.
"""

from __future__ import annotations

import bisect
import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from common import median
from probe import DISK_NOMINAL_MS, REF_NOMINAL_MS, RefClock


@dataclass
class Sample:
    seconds: float
    ref: float = 0.0       # CPU probe ms taken next to this sample
    start: float = 0.0     # perf_counter() at the start
    disk: float = 0.0      # seconds of it spent in fsync and rename, where known
    disk_ref: float = 0.0  # disk probe ms taken next to it, where disk is known

    def norm(self) -> float:
        cpu = (self.seconds - self.disk) * REF_NOMINAL_MS / self.ref
        return cpu + (self.disk * DISK_NOMINAL_MS / self.disk_ref if self.disk else 0.0)


@dataclass
class Measured:
    setup: list[Sample] = field(default_factory=list)
    segments: list[Sample] = field(default_factory=list)
    submit: list[Sample] = field(default_factory=list)
    query: list[Sample] = field(default_factory=list)
    audit: list[Sample] = field(default_factory=list)
    readings: int = 0          # committed in the run phase
    log_bytes: int = 0         # added to the block log in the run phase

    def attach_disk(self, calls: list[tuple[int, int]]) -> None:
        """Charge set-ups, run segments and submissions with the fsync and
        rename calls ((start_ns, end_ns) pairs) that started inside them."""
        calls = sorted(calls)
        starts = [start for start, _ in calls]
        elapsed = list(itertools.accumulate((end - start for start, end in calls), initial=0))
        for sample in self.setup + self.segments + self.submit:
            lo = bisect.bisect_left(starts, sample.start * 1e9)
            hi = bisect.bisect_right(starts, (sample.start + sample.seconds) * 1e9)
            sample.disk = (elapsed[hi] - elapsed[lo]) / 1e9


def timed(ref: RefClock, fn: Callable):
    """Run fn between two probes; returns (fn's result, its Sample)."""
    cpu_before, disk_before = ref.probe()
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    cpu_after, disk_after = ref.probe()
    return result, Sample(seconds, (cpu_before + cpu_after) / 2.0, start,
                          disk_ref=(disk_before + disk_after) / 2.0)


def run_segments(ref: RefClock, measured: Measured, n: int, part: Callable[[int], None]) -> None:
    """Run a run phase as n parts, each between two probes."""
    for k in range(n):
        measured.segments.append(timed(ref, lambda: part(k))[1])


# Which form each bounded metric takes: "raw" or "norm" (see the README for
# the runs that chose these).
BOUNDED_FORM = {
    "setup_s": "norm",
    "readings_per_s": "norm",
    "submit_p50_ms": "norm",
    "query_p50_ms": "norm",
    "audit_s": "norm",
    "ledger_bytes_per_reading": "raw",
}

UNITS = {
    "setup_s": "s",
    "readings_per_s": "readings/s",
    "submit_p50_ms": "ms",
    "query_p50_ms": "ms",
    "audit_s": "s",
    "ledger_bytes_per_reading": "B",
}


def end_to_end(m: Measured, ref: RefClock) -> dict[str, dict[str, float]]:
    """Every end-to-end metric in both forms: {name: {"raw": x, "norm": y}}."""
    run_raw = sum(s.seconds for s in m.segments)
    run_norm = sum(s.norm() for s in m.segments)
    pass_ref, pass_disk_ref = median(ref.samples), median(ref.disk_samples)

    def p50_ms(samples: list[Sample]) -> dict[str, float]:
        return {"raw": 1000 * median([s.seconds for s in samples]),
                "norm": 1000 * median([replace(s, ref=pass_ref, disk_ref=pass_disk_ref).norm()
                                       for s in samples])}

    bytes_per_reading = m.log_bytes / m.readings if m.readings else 0.0
    return {
        "setup_s": {"raw": median([s.seconds for s in m.setup]),
                    "norm": median([s.norm() for s in m.setup])},
        "readings_per_s": {"raw": m.readings / run_raw if run_raw else 0.0,
                           "norm": m.readings / run_norm if run_norm else 0.0},
        "submit_p50_ms": p50_ms(m.submit),
        "query_p50_ms": p50_ms(m.query),
        "audit_s": {"raw": median([s.seconds for s in m.audit]),
                    "norm": median([s.norm() for s in m.audit])},
        "ledger_bytes_per_reading": {"raw": bytes_per_reading, "norm": bytes_per_reading},
    }
