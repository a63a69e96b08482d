"""The ledger workloads: a real `ambox ledger` process loaded over TCP.

`ledger_live`: one connection submits one pre-signed 15-reading report per
AddEvents request, round-robin over many registered devices, in closed
loop; a second connection issues auditor queries beside it, throttled to
the writer's progress so that both run for the whole phase.

`ledger_backlog`: one connection submits the pre-signed reports in large
AddEvents batches, as a fleet does after a long outage, with auditor
queries between batches.

Both start the ledger on a copy of the seeded history through the
benchmark's launcher, register the load's devices, and end with full
VerifyChain audits; the independent checks then read the block log.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ambox.ledger import LedgerClient
from ambox.model import DeviceIdentity, DeviceKind
from ambox.transport.tcp import TcpRequestClient

import checks
import inputs
from common import (BENCH_DIR, QUERY_PATTERN, Phases, Query, RecordingRequester, Sizes, WorkDir,
                    query_plan)
from measure import Measured, Sample, run_segments, timed
from probe import RefClock

LIVE_BATCHES = 8
# Work per second of --seconds: at 8 the run phase lasted 8-20 s on the
# reference machine. The amount is fixed, not the time, so a faster program
# leaves a ledger of the same size and its audits and queries stay
# comparable.
LIVE_SUBMITS_PER_S = 300
LIVE_SUBMITS_PER_QUERY = 2
BACKLOG_BATCH = 200
BACKLOG_BATCHES_PER_S = 5
BACKLOG_QUERIES_PER_BATCH = 8
START_TIMEOUT_S = 60.0


class LedgerProcess:
    """`ambox ledger` on a data directory, started through the launcher."""

    def __init__(self, directory: Path, trace: bool, spans_path: Optional[Path]) -> None:
        self.directory = directory
        self.config_path = directory.parent / f"{directory.name}.json"
        self.config_path.write_text(json.dumps({
            "role": "ledger", "data_dir": str(directory), "listen": "127.0.0.1:0",
            "log_level": "warning",
        }))
        self.trace = trace
        self.spans_path = spans_path
        self.proc: Optional[subprocess.Popen] = None
        self.address = ""

    def start(self) -> "LedgerProcess":
        port_file = self.directory / "ledger.port"
        command = [sys.executable, str(BENCH_DIR / "launcher.py"), "--trace", str(int(self.trace))]
        if self.spans_path is not None:
            command += ["--spans", str(self.spans_path)]
        command += ["--", "ledger", "--config", str(self.config_path)]
        with open(self.directory.parent / f"{self.directory.name}.log", "ab") as log:
            self.proc = subprocess.Popen(command, stdout=log, stderr=log)
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                self.address = f"127.0.0.1:{int(port_file.read_text())}"
                return self
            except (OSError, ValueError):
                pass
            if self.proc.poll() is not None:
                raise RuntimeError(f"ledger exited with {self.proc.returncode} before listening")
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("ledger did not start listening in time")
            time.sleep(0.001)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


@dataclass
class LedgerInputs:
    history: inputs.History
    fleet: inputs.Fleet
    reports: list[inputs.Signed]
    queries: list[Query]


def make_inputs(seed: int, keys: dict, history: inputs.History, workload: str, seconds: float,
                sizes: Sizes) -> LedgerInputs:
    n_reports, n_queries = workload_size(workload, seconds, sizes.segments)
    label = workload
    fleet = inputs.make_fleet(keys, "dev", sizes.live_devices, LIVE_BATCHES)
    reports = inputs.signed_reports(seed, label, fleet, n_reports, inputs.LIVE_T0_MS)
    history_ids = [s.report.report_id for s in history.reports]
    per_query = n_reports / n_queries

    def event_id(rng, j: int) -> str:
        # Every other one asks for history, the rest for a submitted report
        # committed before the query could be sent (see the throttles).
        committed_before = int(j * per_query)
        if committed_before and (j // len(QUERY_PATTERN)) % 2:
            return reports[rng.randrange(committed_before)].report.report_id
        return rng.choice(history_ids)

    devices = sorted(fleet.keys) + sorted(history.fleet.keys)
    batches = fleet.batches + history.fleet.batches
    queries = query_plan(seed, label, n_queries, devices, batches, event_id)
    return LedgerInputs(history, fleet, reports, queries)


class LedgerRun:
    """One measured pass: setups, run phase, audits, checks."""

    def __init__(self, workload: str, data: LedgerInputs, work: WorkDir, trace: bool,
                 ref: RefClock, sizes: Sizes) -> None:
        self.workload = workload
        self.sizes = sizes
        self.data = data
        self.work = work
        self.trace = trace
        self.ref = ref
        self.phases = Phases()
        self.m = Measured()
        self.records: list[checks.QueryRecord] = []
        self.verdict_problems = 0
        self.server_spans: list[Path] = []
        self.committed = checks.Committed()
        self._pems = [(d, k.public_pem) for d, k in sorted(data.fleet.keys.items())]

    # -- setup ------------------------------------------------------------------

    def _setup_once(self, k: int) -> LedgerProcess:
        directory = self.work / f"{self.workload}-{'t' if self.trace else 'u'}-{k}"
        self.data.history.copy_to(directory)
        spans = directory.parent / f"{directory.name}.spans.jsonl.gz" if self.trace else None
        if spans is not None:
            self.server_spans.append(spans)

        def setup() -> LedgerProcess:
            ledger = LedgerProcess(directory, self.trace, spans).start()
            try:
                client = LedgerClient(TcpRequestClient(), ledger.address)
                for device_id, pem in self._pems:
                    identity = DeviceIdentity(device_id, DeviceKind.NODE, pem)
                    outcome = client.register_device(identity)
                    if outcome != "ok":
                        raise RuntimeError(f"registering {device_id} answered {outcome!r}")
            except BaseException:
                ledger.stop()
                raise
            return ledger

        ledger, sample = timed(self.ref, lambda: self.phases.run("setup", setup))
        self.m.setup.append(sample)
        return ledger

    def execute(self) -> None:
        ledger = None
        for k in range(self.sizes.setups):
            if ledger is not None:
                ledger.stop()
            ledger = self._setup_once(k)
        try:
            blocks = ledger.directory / "blocks.journal"
            self.first_height = len(blocks.read_bytes().splitlines())
            size_before = blocks.stat().st_size
            segment = self._live_segment if self.workload == "ledger_live" else self._backlog_segment
            self.phases.run("run", lambda: run_segments(
                self.ref, self.m, self.sizes.segments, lambda k: segment(ledger.address, k)))
            self.m.log_bytes = blocks.stat().st_size - size_before
            client = LedgerClient(TcpRequestClient(), ledger.address)
            for _ in range(self.sizes.audits):
                broken, sample = timed(self.ref,
                                       lambda: self.phases.run("audit", client.verify_chain))
                self.m.audit.append(sample)
                if broken is not None:
                    self.verdict_problems += 1
        finally:
            ledger.stop()
        self.blocks_path = blocks

    # -- ledger_live ---------------------------------------------------------------

    def _live_segment(self, address: str, k: int) -> None:
        reports, queries = self.data.reports, self.data.queries
        n = self.sizes.segments
        lo, hi = k * len(reports) // n, (k + 1) * len(reports) // n
        qlo, qhi = k * len(queries) // n, (k + 1) * len(queries) // n
        progress = {"started": lo, "done": lo}
        cond = threading.Condition()
        errors: list[BaseException] = []

        def writer() -> None:
            client = LedgerClient(TcpRequestClient(), address)
            for i in range(lo, hi):
                with cond:
                    progress["started"] = i + 1
                self._submit(client, [reports[i]])
                with cond:
                    progress["done"] = i + 1
                    cond.notify_all()

        def reader() -> None:
            requester = RecordingRequester(TcpRequestClient())
            client = LedgerClient(requester, address)
            per_query = len(reports) / len(queries)
            for j in range(qlo, qhi):
                with cond:
                    cond.wait_for(lambda: progress["done"] >= min(hi, int(j * per_query)))
                    height_lo = self.first_height - 1 + progress["done"]
                self._query(client, requester, queries[j], height_lo,
                            lambda: self.first_height - 1 + progress["started"])

        def guarded(fn):
            def run() -> None:
                try:
                    fn()
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)
                    with cond:
                        progress["done"] = hi
                        cond.notify_all()
            return run

        threads = [threading.Thread(target=guarded(fn), name=f"bench-{fn.__name__}")
                   for fn in (writer, reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]

    # -- ledger_backlog ------------------------------------------------------------

    def _backlog_segment(self, address: str, k: int) -> None:
        reports, queries = self.data.reports, self.data.queries
        n_batches = len(reports) // BACKLOG_BATCH
        requester = RecordingRequester(TcpRequestClient())
        client = LedgerClient(requester, address)
        n = self.sizes.segments
        for b in range(k * n_batches // n, (k + 1) * n_batches // n):
            self._submit(client, reports[b * BACKLOG_BATCH:(b + 1) * BACKLOG_BATCH])
            height = self.first_height + b
            for j in range(b * BACKLOG_QUERIES_PER_BATCH, (b + 1) * BACKLOG_QUERIES_PER_BATCH):
                self._query(client, requester, queries[j], height, lambda: height)

    # -- operations ----------------------------------------------------------------

    def _submit(self, client: LedgerClient, batch: list[inputs.Signed]) -> None:
        start = time.perf_counter()
        verdicts = client.add_events([s.envelope for s in batch])
        self.m.submit.append(Sample(time.perf_counter() - start, start=start))
        for signed, verdict in zip(batch, verdicts):
            if verdict.status != "committed" or verdict.replay \
                    or verdict.report_id != signed.report.report_id:
                self.verdict_problems += 1

    def _query(self, client: LedgerClient, requester: RecordingRequester, query: Query,
               height_lo: int, height_hi) -> None:
        start = time.perf_counter()
        if query.op == "event":
            client.get_event(query.args["report_id"])
        else:
            client.get_recent(device_id=query.args.get("device_id"),
                              batch_no=query.args.get("batch_no"), limit=query.args["limit"])
        self.m.query.append(Sample(time.perf_counter() - start, start=start))
        self.records.append(checks.QueryRecord(query.op, query.args, requester.last,
                                               height_lo, height_hi()))

    # -- checks ----------------------------------------------------------------------

    def check(self) -> checks.Outcome:
        outcome = checks.Outcome()
        if self.verdict_problems:
            outcome.note(f"{self.verdict_problems} submissions or audits were not answered "
                         "as committed / intact")
        try:
            stored = checks.read_chain(self.blocks_path)
        except checks.ChainError as exc:
            outcome.note(str(exc))
            return outcome
        expected = Counter(checks.sample_key(r.source_device, r.quantity, r.sampled_at, r.value)
                           for s in self.data.reports for r in s.report.readings)
        keys = {d: k.public_key for d, k in self.data.fleet.keys.items()}
        signed = {s.report.report_id: s.envelope.payload
                  for s in self.data.reports + self.data.history.reports}
        run = checks.check_reports(stored, self.first_height, expected, keys, outcome, signed)
        self.committed = checks.Committed.of(run)
        checks.check_queries(self.records, stored, signed, outcome)
        return outcome

    @property
    def attempted(self) -> int:
        return sum(len(s.report.readings) for s in self.data.reports) + len(self.data.queries)


def workload_size(workload: str, seconds: float, segments: int) -> tuple[int, int]:
    """(reports, queries) one pass submits and asks, whole segments of each."""
    if workload == "ledger_live":
        unit = segments * LIVE_SUBMITS_PER_QUERY
        n = max(1, round(LIVE_SUBMITS_PER_S * seconds / unit)) * unit
        return n, n // LIVE_SUBMITS_PER_QUERY
    batches = max(1, round(BACKLOG_BATCHES_PER_S * seconds / segments)) * segments
    return batches * BACKLOG_BATCH, batches * BACKLOG_QUERIES_PER_BATCH
