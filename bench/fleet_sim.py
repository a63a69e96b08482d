"""The fleet_sim workload: the in-process harness on the unpaced virtual clock.

A few nodes, each with one paired mote, sample every minute and report every
five minutes with 10 s heartbeats, through staggered 2-15 minute Wi-Fi and
BLE outages. The first node is offline for most of the span and drains at
the end, as in the shipped bus_trip scenario. An auditor activity issues
traceability queries at a fixed virtual cadence. The ledger starts from the
seeded history; device keys come from the benchmark's key pool.
"""

from __future__ import annotations

import random
import shutil
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from ambox.fleet import start_monitoring, stop_monitoring
from ambox.harness import world as world_module
from ambox.harness.scenario import DeviceSpec, LinkSpec, Scenario
from ambox.harness.world import ScenarioWorld
from ambox.ledger import LedgerClient
from ambox.transport import LinkClass
from ambox.transport.faults import MODE_DOWN, FaultSchedule, FaultWindow

import checks
import inputs
from common import QUERY_PATTERN, Phases, RecordingRequester, Sizes, WorkDir, query_plan
from measure import Measured, Sample, run_segments, timed
from probe import RefClock
from tracing import DISK_SPANS, SUBMIT_SPAN, Tracer

# Virtual minutes of monitoring per second of --seconds (see ledger_load for
# why the amount of work, not the wall time, is fixed).
VIRTUAL_MIN_PER_S = 28
SAMPLE_MS = 60_000
REPORT_MS = 300_000
HEARTBEAT_TIMEOUT_MS = 30_000          # heartbeats every timeout / 3 = 10 s
QUERY_EVERY_MS = 30_000
DRAIN_MARGIN_MS = 30 * 60_000
OFFLINE_TAIL_MS = 12 * 60_000          # the offline node's final window
FLEET_BATCHES = 2
HOUR_MS = 3_600_000
OUTAGE_MIN = (2, 15, 5, 11, 8)         # Wi-Fi and BLE outage lengths, minutes


def device_ids(nodes: int) -> list[str]:
    return inputs.device_ids("node", nodes) + inputs.device_ids("mote", nodes)


def _outages(rng: random.Random, link: str, span_ms: int, stagger: int) -> list[FaultWindow]:
    """One down window per hour, its length cycling through OUTAGE_MIN from
    a per-link stagger and its place in the hour drawn from the seed. Every
    seed thus gives a link the same number and total length of outages."""
    windows = []
    for hour in range(span_ms // HOUR_MS):
        length = OUTAGE_MIN[(hour + stagger) % len(OUTAGE_MIN)] * 60_000
        start = hour * HOUR_MS + rng.randrange(0, HOUR_MS - length)
        windows.append(FaultWindow(link, start, start + length, MODE_DOWN))
    return windows


def write_trace(path: Path, seed: int, span_ms: int) -> None:
    """Cold-chain ground truth every 5 minutes, inside every sensor's range."""
    rng = random.Random(f"ambox-bench:{seed}:trace")
    temp, hum, press = 4.0, 75.0, 1013.0
    rows = ["offset_s,temp_c,hum_pct,press_hpa"]
    for offset_s in range(0, span_ms // 1000 + 3600, 300):
        temp = min(12.0, max(1.0, temp + rng.uniform(-0.4, 0.4)))
        hum = min(85.0, max(60.0, hum + rng.uniform(-1.0, 1.0)))
        press = min(1025.0, max(1000.0, press + rng.uniform(-0.3, 0.3)))
        rows.append(f"{offset_s},{temp:.3f},{hum:.3f},{press:.3f}")
    path.write_text("\n".join(rows) + "\n")


def make_scenario(seed: int, span_ms: int, trace_path: Path, nodes: int) -> Scenario:
    rng = random.Random(f"ambox-bench:{seed}:outages")
    devices, links, windows = [], [], []
    for i, (node, mote) in enumerate(zip(inputs.device_ids("node", nodes),
                                         inputs.device_ids("mote", nodes))):
        devices.append(DeviceSpec(node, "node"))
        devices.append(DeviceSpec(mote, "mote", paired_node=node))
        links.append(LinkSpec(f"wifi-{i}", node, "ledger"))
        links.append(LinkSpec(f"op-{i}", node, "operator"))
        links.append(LinkSpec(f"ble-{i}", node, mote, LinkClass.SHORT_RANGE))
        if i == 0:
            offline = span_ms - OFFLINE_TAIL_MS
            windows.append(FaultWindow(f"wifi-{i}", 0, offline, MODE_DOWN))
            windows.append(FaultWindow(f"op-{i}", 2 * 60_000, offline, MODE_DOWN))
        else:
            windows.extend(_outages(rng, f"wifi-{i}", span_ms, stagger=i))
        windows.extend(_outages(rng, f"ble-{i}", span_ms, stagger=i + 2))
    return Scenario(
        name="fleet_sim",
        span_ms=span_ms,
        devices=tuple(devices),
        links=tuple(links),
        faults=FaultSchedule(windows),
        job=None,
        time_scale=0.0,
        drain_margin_ms=DRAIN_MARGIN_MS,
        heartbeat_timeout_ms=HEARTBEAT_TIMEOUT_MS,
        trace_path=str(trace_path),
    )


def job_body(node_index: int) -> dict:
    return {
        "prod_id": inputs.PRODUCT,
        "batch_no": f"B-fleet-{node_index % FLEET_BATCHES}",
        "sample_interval_ms": SAMPLE_MS,
        "report_interval_ms": REPORT_MS,
        "sensor_params": {q: {"enabled": True} for q in inputs.QUANTITIES},
    }


@contextmanager
def pool_keys(keys: dict):
    """Hand the world the benchmark's keys instead of generating fresh ones,
    so no key generation sits inside the timed set-up."""
    original = world_module.generate_keypair
    world_module.generate_keypair = lambda device_id: keys[device_id]
    try:
        yield
    finally:
        world_module.generate_keypair = original


@dataclass
class _State:
    ready: bool = False
    done: bool = False
    error: BaseException = None  # type: ignore[assignment]


class FleetRun:
    """One measured pass: set-ups, the monitored span, audits, checks."""

    def __init__(self, seed: int, seconds: float, keys: dict, history: inputs.History,
                 work: WorkDir, tracer: Tracer, ref: RefClock, sizes: Sizes) -> None:
        self.seed = seed
        self.keys = keys
        self.history = history
        self.work = work
        self.tracer = tracer
        self.ref = ref
        self.sizes = sizes
        nodes = sizes.fleet_nodes
        self.span_ms = max(30, round(VIRTUAL_MIN_PER_S * seconds / 5) * 5) * 60_000
        self.label = f"fleet-{'t' if tracer.traced else 'u'}"
        self.trace_path = work / f"{self.label}-trace.csv"
        write_trace(self.trace_path, seed, self.span_ms + DRAIN_MARGIN_MS)
        self.scenario = make_scenario(seed, self.span_ms, self.trace_path, nodes)
        self.phases = Phases()
        self.m = Measured()
        self.records: list[checks.QueryRecord] = []
        self.committed = checks.Committed()
        self.world: ScenarioWorld = None  # type: ignore[assignment]
        self.attempted = 0
        self.problems: list[str] = []
        hist_ids = [s.report.report_id for s in history.reports]
        fleet_devices = inputs.device_ids("node", nodes)
        self.queries = query_plan(
            seed, "fleet", self.span_ms // QUERY_EVERY_MS - 1,
            fleet_devices + sorted(history.fleet.keys),
            [job_body(i)["batch_no"] for i in range(min(nodes, FLEET_BATCHES))]
            + history.fleet.batches,
            lambda rng, j: rng.choice(hist_ids),
        )

    # -- one world ------------------------------------------------------------------

    def _build(self, k: int) -> tuple[ScenarioWorld, _State]:
        root = self.work / f"{self.label}-{k}"
        self.history.copy_to(root / "ledger")
        state = _State()
        world = ScenarioWorld(self.scenario, self.seed, data_root=root)

        def setup() -> None:
            with pool_keys(self.keys):
                world.build()
            world.scheduler.spawn("director", lambda: self._director(world, state))
            world.scheduler.run_while(lambda: not state.ready and not state.done,
                                      limit_ms=world.t0 + self.span_ms)
            if not state.ready:
                raise RuntimeError(f"fleet did not come up: {state.error!r}")

        self.m.setup.append(timed(self.ref, lambda: self.phases.run("setup", setup))[1])
        return world, state

    def _director(self, world: ScenarioWorld, state: _State) -> None:
        try:
            caller = world.operator_caller()
            world.commission_all(caller)
            for i, node_id in enumerate(world.nodes):
                start_monitoring(caller, node_id, job_body(i))
            state.ready = True
            auditor = world.runtime.spawn("auditor", lambda: self._auditor(world))
            world.runtime.sleep(world.t0 + self.span_ms - world.runtime.now_ms())
            for node_id in world.nodes:
                stop_monitoring(caller, node_id)
            auditor.cancel()
            deadline = world.t0 + self.span_ms + DRAIN_MARGIN_MS
            while world.runtime.now_ms() < deadline and not world.buffers_empty():
                world.runtime.sleep(10_000)
        except BaseException as exc:
            state.error = exc
            raise
        finally:
            state.done = True

    def _auditor(self, world: ScenarioWorld) -> None:
        requester = RecordingRequester(world.network.client("auditor"))
        client = LedgerClient(requester, "ledger")
        recent_ids: list[str] = []
        rng = random.Random(f"ambox-bench:{self.seed}:fleet-events")
        for j, query in enumerate(self.queries):
            world.runtime.sleep(QUERY_EVERY_MS)
            args = query.args
            # Every other GetEvent asks for a report the last GetRecent named.
            if query.op == "event" and recent_ids and (j // len(QUERY_PATTERN)) % 2:
                args = {"report_id": rng.choice(recent_ids)}
            start = time.perf_counter()
            if query.op == "event":
                client.get_event(args["report_id"])
            else:
                answer = client.get_recent(device_id=args.get("device_id"),
                                           batch_no=args.get("batch_no"), limit=args["limit"])
            self.m.query.append(Sample(time.perf_counter() - start, start=start))
            if query.op == "recent":
                recent_ids = [r.report_id for r in answer]
            height = world.ledger.height
            self.records.append(checks.QueryRecord(query.op, args, requester.last, height, height))

    def _teardown(self, world: ScenarioWorld) -> None:
        world.teardown()
        shutil.rmtree(world.data_root, ignore_errors=True)

    # -- the pass -------------------------------------------------------------------

    def execute(self) -> None:
        world = state = None
        for k in range(self.sizes.setups):
            if world is not None:
                self._teardown(world)
            world, state = self._build(k)
        self.world = world
        self.first_height = world.ledger.height + 1
        self.blocks_path = world.data_root / "ledger" / "blocks.journal"
        size_before = self.blocks_path.stat().st_size
        submits_from = time.perf_counter_ns()
        try:
            self.phases.run("run", lambda: run_segments(
                self.ref, self.m, self.sizes.segments, lambda k: self._segment(world, state, k)))
            if state.error is not None or not state.done:
                raise RuntimeError(f"fleet director failed: {state.error!r}")
            self.m.log_bytes = self.blocks_path.stat().st_size - size_before
            for _ in range(self.sizes.audits):
                broken, sample = timed(self.ref,
                                       lambda: self.phases.run("audit", world.ledger.verify_chain))
                self.m.audit.append(sample)
                if broken is not None:
                    self.problems.append(f"VerifyChain reports a break at height {broken}")
        finally:
            world.teardown()
        self.samples = Counter(checks.sample_key(s["device"], s["quantity"], s["t"], s["value"])
                               for s in world.metrics.samples)
        self.attempted = sum(self.samples.values()) + len(self.records)
        spans = self.tracer.spans
        self.m.submit = [Sample((end - start) / 1e9, start=start / 1e9)
                         for _, name, start, end, _, ok, _ in spans
                         if name == SUBMIT_SPAN and ok and start >= submits_from]
        self.m.attach_disk([(start, end) for _, name, start, end, *_ in spans
                            if name in DISK_SPANS])

    def _segment(self, world: ScenarioWorld, state: _State, k: int) -> None:
        """The k-th of n equal slices of the monitored span; the last one
        also stops monitoring and waits for the drain."""
        n = self.sizes.segments
        if k < n - 1:
            world.scheduler.run_until(world.t0 + (k + 1) * self.span_ms // (n - 1))
        else:
            world.scheduler.run_while(lambda: not state.done,
                                      limit_ms=world.t0 + self.span_ms + DRAIN_MARGIN_MS + HOUR_MS)

    # -- checks ---------------------------------------------------------------------

    def check(self) -> checks.Outcome:
        outcome = checks.Outcome()
        for problem in self.problems:
            outcome.note(problem)
        try:
            stored = checks.read_chain(self.blocks_path)
        except checks.ChainError as exc:
            outcome.note(str(exc))
            return outcome
        keys = {d: k.public_key for d, k in self.keys.items()}
        run = checks.check_reports(stored, self.first_height, self.samples, keys, outcome)
        self.committed = checks.Committed.of(run)
        signed = {s.report.report_id: s.envelope.payload for s in self.history.reports}
        checks.check_queries(self.records, stored, signed, outcome)
        return outcome
