"""Reference probes: fixed work of the benchmark's own, no AmBox code in it.

This machine's speed changes over seconds and minutes (the CPU probe below
takes from about 3.4 ms to over 8 ms), and so does the latency of fsync and
rename on its shared disk. Timing the probes right next to a timed phase
tells how fast the machine was during it: a timing scaled by
nominal / probe reads as "time at the reference's nominal speed", which
holds still while the machine does not. The benchmark pins itself to one
CPU (run.py), so the CPU probe runs where the work runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Optional

# Probe times at the fast level of the reference machine (2 vCPU Xeon VM,
# ext4 on virtio, Python 3.11.7).
REF_NOMINAL_MS = 3.4
DISK_NOMINAL_MS = 0.45

# The disk probe keeps the real calls even while the tracer wraps them.
_fsync = os.fsync
_replace = os.replace

_DOC = {"device_id": "probe", "readings": [{"quantity": "t", "value": i / 7} for i in range(40)]}


def _work() -> int:
    # Interpreter dispatch, dict/list traffic, JSON and hashing: the same
    # kinds of work AmBox spends its time on, none of its code.
    acc = 0
    digest = b"probe"
    for i in range(4_000):
        acc = (acc * 31 + i) % 1_000_003
    for _ in range(40):
        text = json.dumps(_DOC, sort_keys=True)
        digest = hashlib.sha256(digest + text.encode()).digest()
        acc ^= len(json.loads(text)["readings"])
    return acc


def ref_ms(repeats: int = 2) -> float:
    """Mean wall time of the CPU probe, in milliseconds."""
    start = time.perf_counter()
    for _ in range(repeats):
        _work()
    return (time.perf_counter() - start) * 1000.0 / repeats


def disk_ms(directory: Path, repeats: int = 16) -> float:
    """Mean wall time of a small atomic replace (write, fsync, rename, fsync
    the directory), the pattern the devices' stores use, in milliseconds."""
    tmp, target = directory / "probe.tmp", directory / "probe.dat"
    start = time.perf_counter()
    for _ in range(repeats):
        with open(tmp, "wb") as f:
            f.write(b"x" * 256)
            f.flush()
            _fsync(f.fileno())
        _replace(tmp, target)
        fd = os.open(directory, os.O_RDONLY)
        try:
            _fsync(fd)
        finally:
            os.close(fd)
    return (time.perf_counter() - start) * 1000.0 / repeats


class RefClock:
    """Probes taken around timed phases, for normalising them afterwards.
    With a directory it probes the disk there as well."""

    def __init__(self, disk_dir: Optional[Path] = None) -> None:
        self.disk_dir = disk_dir
        self.samples: list[float] = []
        self.disk_samples: list[float] = []

    def probe(self) -> tuple[float, float]:
        """(CPU probe ms, disk probe ms or 0.0)."""
        cpu = ref_ms()
        self.samples.append(cpu)
        disk = 0.0
        if self.disk_dir is not None:
            disk = disk_ms(self.disk_dir)
            self.disk_samples.append(disk)
        return cpu, disk
