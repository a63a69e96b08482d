"""Spans around calls into `ambox`, installed from outside the program.

A Tracer replaces public functions and methods of ambox modules with thin
wrappers that record a span per call: (id, name, start, end, parent, ok,
size). Parents come from a per-thread stack, so a layer's self time is its
span minus its direct children. Work that starts on a thread with an empty
stack is parented to the current "root" span; the simulated scheduler's
`step` is such a root, since each step hands the processor to exactly one
activity thread. Calls too frequent to time individually are only counted,
in 100 ms buckets so that they can still be split by benchmark phase.

Timestamps are `time.perf_counter_ns()`, which on Linux reads the
system-wide monotonic clock, so spans from the ledger process line up with
the benchmark's own phase boundaries.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

BUCKET_NS = 100_000_000

# (span name, owner path, attribute, size function) for every wrapped call.
# The owner path is "module" or "module:Class". Size functions see
# (args, result) and return an int stored with the span, e.g. the number of
# envelopes in a block.


def _n_envelopes_ledger(args, result) -> int:
    return len(args[1])


def _request_bytes(payload_index: int):
    def size(args, result) -> int:
        return len(args[payload_index]) + (len(result) if result is not None else 0)
    return size


SPANS = [
    ("canonical.dumps", "ambox.canonical", "dumps", None),
    ("canonical.loads", "ambox.canonical", "loads", None),
    ("envelope.sign", "ambox.envelope", "sign", None),
    ("envelope.sign_reading", "ambox.envelope", "sign_reading_envelope", None),
    ("envelope.verify", "ambox.envelope", "verify", None),
    ("envelope.load_public_key", "ambox.envelope", "load_public_key", None),
    ("storage.enqueue", "ambox.storage:DurableBuffer", "enqueue", None),
    ("storage.ack", "ambox.storage:DurableBuffer", "ack", None),
    ("storage.config_save", "ambox.storage:ConfigStore", "save", None),
    ("os.fsync", "os", "fsync", None),
    ("os.replace", "os", "replace", None),
    ("runtime.step", "ambox.runtime:SimScheduler", "step", None),
    ("transport.sim_request", "ambox.transport.sim:SimNetwork", "request", _request_bytes(3)),
    ("transport.notify", "ambox.transport.sim:SimSession", "notify", None),
    ("transport.tcp_request", "ambox.transport.tcp:TcpRequestClient", "request",
     _request_bytes(2)),
    ("ledger.open", "ambox.ledger:Ledger", "__init__", None),
    ("ledger.add_events", "ambox.ledger:Ledger", "add_events", _n_envelopes_ledger),
    ("ledger.verify_chain", "ambox.ledger:Ledger", "verify_chain", None),
    ("ledger.get_recent", "ambox.ledger:Ledger", "get_recent", None),
    ("ledger.get_event", "ambox.ledger:Ledger", "get_event_payload", None),
    ("ledger.register_device", "ambox.ledger:Ledger", "register_device", None),
    ("ledger.handle", "ambox.ledger:LedgerService", "handle", None),
    ("node.submit", "ambox.ledger:LedgerClient", "add_events", None),
    ("fleet.ingest_heartbeat", "ambox.fleet:OperatorCore", "ingest_heartbeat", None),
]

COUNTS = [
    ("canonical.format_millis", "ambox.canonical", "format_millis"),
    ("canonical.parse_millis", "ambox.canonical", "parse_millis"),
]

# The spans installed on untraced fleet_sim runs: a node's ledger
# submission, whose wall time is that workload's `submit_p50_ms`, and the
# disk calls, whose time measure.py keeps out of the normalisation.
SUBMIT_SPAN = "node.submit"
DISK_SPANS = {"os.fsync", "os.replace"}
ROOT_SPANS = {"runtime.step"}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root = 0
        self._buckets: dict[str, Counter] = defaultdict(Counter)
        self._restore: list[tuple[Any, str, Any]] = []
        self.traced = False

    # -- installation ---------------------------------------------------------

    def install(self, traced: bool, fleet: bool = False) -> "Tracer":
        """Wrap every listed call (traced), or only what an untraced
        fleet_sim run needs (fleet), or nothing."""
        self.traced = traced
        for name, owner, attr, size in SPANS:
            if traced or (fleet and (name == SUBMIT_SPAN or name in DISK_SPANS)):
                self._patch(owner, attr, lambda fn, n=name, s=size: self._span_wrapper(n, fn, s))
        if traced:
            for name, owner, attr in COUNTS:
                self._patch(owner, attr, lambda fn, n=name: self._count_wrapper(n, fn))
        return self

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def _patch(self, owner: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        target = _resolve(owner)
        original = getattr(target, attr)
        wrapper = make(original)
        setattr(target, attr, wrapper)
        self._restore.append((target, attr, original))
        if ":" in owner or owner == "os":
            return
        # Functions imported by name (`from .envelope import verify`) are
        # separate references; replace those too.
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("ambox") and module is not target:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def _span_wrapper(self, name: str, fn: Callable, size: Optional[Callable]) -> Callable:
        tracer = self
        is_root = name in ROOT_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else tracer.root
            stack.append(span_id)
            if is_root:
                outer_root, tracer.root = tracer.root, span_id
            result = None
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if is_root:
                    tracer.root = outer_root
                n = size(args, result) if (size is not None and ok) else 0
                tracer.spans.append((span_id, name, start, end, parent, ok, n))

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        buckets = self._buckets[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buckets[time.perf_counter_ns() // BUCKET_NS] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output -----------------------------------------------------------------

    def counts(self) -> dict[str, dict[int, int]]:
        return {name: dict(b) for name, b in self._buckets.items()}

    def dump(self, path: Path, process: str) -> None:
        """Write spans and counts as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write(json.dumps({"process": process, "counts": self.counts()}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")


def load_dump(path: Path) -> tuple[list[tuple], dict[str, dict[int, int]]]:
    with gzip.open(path, "rt", encoding="utf-8") as f:
        header = json.loads(f.readline())
        spans = [tuple(json.loads(line)) for line in f]
    counts = {name: {int(k): v for k, v in b.items()} for name, b in header["counts"].items()}
    return spans, counts
