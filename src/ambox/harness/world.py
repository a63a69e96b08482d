"""Build and drive a whole deployment in-process on the virtual clock.

One ScenarioWorld owns a scheduler, a simulated network with the scenario's
fault schedule, a ledger, an operator, and the device agents, all rooted in
one data directory so a world can be torn down and resumed (crash testing,
tamper probes). The standard director reproduces the experiment shape:
commission, start monitoring, run the span, stop, wait for the drain.

Where the checks and the report get their facts, none of them from hooks
inside the agents or the ledger:
- commits, their order and their times: the ledger's hash chain
  (`Ledger.blocks`) and its world state;
- what each node sent and what it was told (rejections, replays, reasons,
  when it learned of a commit): a `LedgerRecorder` around each node's
  ledger request client;
- what was sampled: a `RecordingDriver` around each sensor driver;
- what is still in flight: the nodes' journals and windows and the motes'
  buffers;
- traffic: the simulated network's message log and traffic totals.

Determinism: everything observable in the report is a function of
(scenario, seed). Key material is freshly generated (signatures differ run
to run) and therefore never enters the report or the message log digest.
"""

from __future__ import annotations

import base64
import hashlib
import logging
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Optional

from .. import canonical
from ..envelope import generate_keypair
from ..fleet import CommissionPlan, OperatorCore, commission, start_monitoring, stop_monitoring
from ..http_api import ShimHttpClient, shim_server_handler
from ..ledger import OP_ADD_EVENTS, Ledger, LedgerClient, LedgerService, Verdict
from ..model import DeviceIdentity, DeviceKind, EventReport, ModelError, decode_report
from ..mote import MoteAgent
from ..node import NodeAgent
from ..runtime import SimScheduler, TaskCancelled
from ..sensors import (
    MOTE_SENSOR_SPECS,
    NODE_SENSOR_SPECS,
    EnvironmentTrace,
    SensorSpec,
    SimulatedSensor,
    load_trace,
    merged_spec,
)
from ..storage import JOURNAL_FILE, KEY_FILE, DurableBuffer, load_private_key, save_private_key
from ..transport.sim import SimNetwork, echo_handler
from ..transport import LinkDown, RequestClient, RequestTimeout
from ..transport.faults import MODE_DOWN, MODE_LATENCY, FaultSchedule, FaultWindow
from .checks import CHECKS, CheckResult
from .scenario import LinkSpec, Scenario, ScenarioError

logger = logging.getLogger(__name__)


def _derive_seed(*parts: Any) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RecordingDriver:
    """Wraps a sensor driver and tallies every accepted read for the metrics.

    bench/fleet_sim.py reads the tallies (`Metrics.samples`) as well."""

    def __init__(self, inner: SimulatedSensor, device_id: str, sink: list[dict]) -> None:
        self._inner = inner
        self._device_id = device_id
        self._sink = sink

    @property
    def spec(self) -> SensorSpec:
        return self._inner.spec

    def read(self, t_ms: int) -> float:
        value = self._inner.read(t_ms)
        self._sink.append(
            {
                "device": self._device_id,
                "quantity": self._inner.spec.quantity,
                "t": t_ms,
                "value": value,
                "truth": self._inner.truth(t_ms),
            }
        )
        return value


@dataclass
class Metrics:
    samples: list[dict] = field(default_factory=list)

    def sample_keys(self) -> Counter:
        return Counter((s["device"], s["quantity"], s["t"]) for s in self.samples)


@dataclass(frozen=True)
class SubmittedReport:
    report_id: str
    created_at: int
    n_readings: int


class LedgerRecorder:
    """What every node sent to the ledger and what it was told.

    One recorder serves the whole world, so it spans node restarts; `wrap`
    puts it around a node's ledger request client. Each exchange is recorded
    before it is sent, so a request refused at the device still counts its
    reports as submitted. Envelopes are decoded only when a query runs, and
    the decoded view is kept until the next exchange changes it.
    """

    def __init__(self, clock: Callable[[], int]) -> None:
        self._clock = clock
        # [request, answered_at, response]; the answer fields stay None when
        # the node was told nothing.
        self._exchanges: list[list] = []
        self._submitted: dict[str, SubmittedReport] = {}
        self._told: list[tuple[int, str, Verdict]] = []
        self._decoded = True

    def wrap(self, inner: RequestClient) -> RequestClient:
        return _RecordedRequester(inner, self)

    def _send(self, inner: RequestClient, dest: str, payload: bytes, timeout_ms: int,
              label: str) -> bytes:
        exchange = [payload, None, None]
        self._exchanges.append(exchange)
        self._decoded = False
        response = inner.request(dest, payload, timeout_ms, label)
        exchange[1:] = [self._clock(), response]
        self._decoded = False
        return response

    def submitted(self) -> dict[str, SubmittedReport]:
        """Every report a node tried to submit, by id, in first-attempt order."""
        self._decode()
        return self._submitted

    def told(self) -> list[tuple[int, str, Verdict]]:
        """(time, report id, verdict) for each verdict a node received, in order."""
        self._decode()
        return self._told

    def rejected(self) -> dict[str, Verdict]:
        """Rejected reports by id, each with the first rejection its node was
        told of; a report whose node was told twice counts once."""
        out: dict[str, Verdict] = {}
        for _t, report_id, verdict in self.told():
            if verdict.status == "rejected":
                out.setdefault(report_id, verdict)
        return out

    def _decode(self) -> None:
        if self._decoded:
            return
        submitted: dict[str, SubmittedReport] = {}
        told: list[tuple[int, str, Verdict]] = []
        by_payload: dict[str, SubmittedReport] = {}
        for request, answered_at, response in self._exchanges:
            obj = canonical.wire_loads(request)
            if obj.get("op") != OP_ADD_EVENTS:
                continue
            reports = []
            for wire in obj["args"]["envelopes"]:
                report = by_payload.get(wire["payload_b64"])
                if report is None:
                    body = decode_report(base64.b64decode(wire["payload_b64"]))
                    report = by_payload[wire["payload_b64"]] = SubmittedReport(
                        body.report_id, body.created_at, len(body.readings))
                submitted.setdefault(report.report_id, report)
                reports.append(report)
            answer = canonical.wire_loads(response) if response is not None else {}
            if answer.get("ok"):
                for report, verdict in zip(reports, answer["result"]["verdicts"]):
                    told.append((answered_at, report.report_id, Verdict.from_obj(verdict)))
        self._submitted, self._told, self._decoded = submitted, told, True


class _RecordedRequester(RequestClient):
    def __init__(self, inner: RequestClient, recorder: LedgerRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def request(self, dest: str, payload: bytes, timeout_ms: int, label: str = "") -> bytes:
        return self._recorder._send(self._inner, dest, payload, timeout_ms, label)


@dataclass
class ScenarioReport:
    name: str
    seed: int
    span_ms: int
    assertions: list[CheckResult]
    counts: dict[str, int]
    per_device: dict[str, dict[str, int]]
    latency: Optional[dict] = None
    log_digest: str = ""
    final_height: int = -1

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_obj(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "span_ms": self.span_ms,
            "passed": self.passed,
            "assertions": [
                {"check": a.check, "passed": a.passed, "detail": a.detail}
                for a in self.assertions
            ],
            "counts": dict(sorted(self.counts.items())),
            "per_device": {d: dict(sorted(v.items())) for d, v in sorted(self.per_device.items())},
            "latency": self.latency,
            "log_digest": self.log_digest,
            "final_height": self.final_height,
        }

    def to_json_bytes(self) -> bytes:
        return canonical.dumps(self.to_obj())

    def summary_text(self) -> str:
        lines = [f"scenario {self.name} (seed {self.seed}) — "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        for a in self.assertions:
            lines.append(f"  [{'ok' if a.passed else 'FAIL'}] {a.check}: {a.detail}")
        lines.append("  counts: " + ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items())))
        if self.latency is not None:
            lines.append(
                "  latency: avg={avg_ms} ms  min={min_ms} ms  max={max_ms} ms  n={n}{p}".format(
                    avg_ms=self.latency["avg_ms"], min_ms=self.latency["min_ms"],
                    max_ms=self.latency["max_ms"], n=self.latency["n"],
                    p=" (partial)" if self.latency.get("partial") else "",
                )
            )
        return "\n".join(lines)


class ScenarioWorld:
    def __init__(
        self,
        scenario: Scenario,
        seed: int,
        data_root: Optional[Path] = None,
        resume: bool = False,
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        scenario.validate()
        self.scenario = scenario
        self.seed = seed
        self.resume = resume
        self.crash_hook = crash_hook
        self._own_root = data_root is None
        self.data_root = Path(data_root) if data_root else Path(
            tempfile.mkdtemp(prefix=f"ambox-{scenario.name}-")
        )
        # One object under both names: agents see a Runtime, drivers step it.
        self.runtime = self.scheduler = SimScheduler()
        self.scheduler.pacing_factor = scenario.time_scale
        self.t0 = self.runtime.now_ms()
        self.network = SimNetwork(self.scheduler, scenario.faults)
        self.metrics = Metrics()
        self.recorder = LedgerRecorder(self.runtime.now_ms)
        self.nodes: dict[str, NodeAgent] = {}
        self.motes: dict[str, MoteAgent] = {}
        self.keys: dict[str, Any] = {}
        self._trace: Optional[EnvironmentTrace] = None
        self._done = False
        self._built = False
        self.director_error: Optional[BaseException] = None

    # -- construction -----------------------------------------------------------

    def build(self) -> "ScenarioWorld":
        scenario = self.scenario
        for link in scenario.links:
            self.network.add_link(link.name, link.a, link.b, link.base_latency_ms)
        if scenario.trace_path:
            self._trace = load_trace(scenario.trace_path)

        self.ledger = Ledger(self.data_root / "ledger", genesis_at_ms=self.t0)
        self.ledger_service = LedgerService(self.ledger, clock=self.runtime.now_ms)
        self.network.register_server("ledger", self.ledger_service.handle)

        self.operator = OperatorCore(clock=self.runtime.now_ms,
                                     default_timeout_ms=scenario.heartbeat_timeout_ms)
        self.network.register_server("operator", shim_server_handler(self.operator.router))

        mote_pairs: dict[str, list[str]] = {}
        for device in scenario.devices:
            if device.kind == "mote":
                mote_pairs.setdefault(device.paired_node or "", []).append(device.device_id)

        for device in scenario.devices:
            directory = self.data_root / device.device_id
            directory.mkdir(parents=True, exist_ok=True)
            keypair = self._device_key(device.device_id, directory)
            self.keys[device.device_id] = keypair
            if device.kind == "node":
                self._build_node(device, directory, keypair,
                                 tuple(mote_pairs.get(device.device_id, ())))
            elif device.kind == "mote":
                self._build_mote(device, directory, keypair)
            else:
                raise ScenarioError(f"unknown device kind {device.kind!r}")

        # Motes never address the ledger; their keys are registered for the
        # audit path during deployment provisioning.
        for device in scenario.devices:
            if device.kind == "mote":
                self.ledger.register_device(DeviceIdentity(
                    device.device_id, DeviceKind.MOTE, self.keys[device.device_id].public_pem
                ))

        self.network.start_fault_watcher()
        for agent in list(self.nodes.values()) + list(self.motes.values()):
            agent.start()
        self._built = True
        return self

    def _device_key(self, device_id: str, directory: Path):
        key_path = directory / KEY_FILE
        if self.resume and key_path.exists():
            return load_private_key(key_path, device_id)
        keypair = generate_keypair(device_id)
        save_private_key(key_path, keypair)
        return keypair

    def _driver_factory(self, device: "DeviceSpec", defaults: dict[str, SensorSpec]):
        def factory(quantity: str):
            spec = merged_spec(quantity, defaults, device.sensors.get(quantity, {}))
            if spec is None or self._trace is None:
                return None
            if spec.quantity not in self._trace.series:
                return None
            sensor = SimulatedSensor(
                spec,
                self._trace,
                seed=_derive_seed(self.seed, device.device_id, quantity),
                trace_origin_ms=self.t0,
            )
            return RecordingDriver(sensor, device.device_id, self.metrics.samples)

        return factory

    def _build_node(self, device, directory: Path, keypair, paired_motes: tuple[str, ...]):
        agent = NodeAgent(
            keypair,
            directory,
            self.runtime,
            heartbeat_caller=ShimHttpClient(self.network.client(device.device_id)),
            ledger_requester=self.recorder.wrap(self.network.client(device.device_id)),
            make_dest=lambda address, port: address,
            sensor_factory=self._driver_factory(device, NODE_SENSOR_SPECS),
            central=self.network.central(device.device_id, set(paired_motes)),
            allowed_motes=paired_motes,
            crash_hook=self.crash_hook,
        )
        self.network.register_server(device.device_id, shim_server_handler(agent.router))
        self.nodes[device.device_id] = agent

    def _build_mote(self, device, directory: Path, keypair):
        agent = MoteAgent(
            keypair,
            device.paired_node,
            directory,
            self.runtime,
            driver_factory=self._driver_factory(device, MOTE_SENSOR_SPECS),
        )
        self.network.advertise(device.device_id, device.paired_node, agent)
        self.motes[device.device_id] = agent

    def restart_node(self, device_id: str) -> NodeAgent:
        """Bring a crashed node back from its on-disk state (same key, same
        data dir, fresh runtime objects)."""
        device = next(d for d in self.scenario.devices if d.device_id == device_id)
        directory = self.data_root / device_id
        keypair = load_private_key(directory / KEY_FILE, device_id)
        self.keys[device_id] = keypair
        paired = tuple(self.nodes[device_id].allowed_motes) if device_id in self.nodes else ()
        self._build_node(device, directory, keypair, paired)
        agent = self.nodes[device_id]
        agent.start()
        return agent

    def crash_node(self, device_id: str) -> None:
        """Kill a node from outside (as opposed to a crash-hook suicide)."""
        agent = self.nodes[device_id]
        agent.crash()
        self.network.unregister_server(device_id)

    # -- driving ------------------------------------------------------------------

    def operator_caller(self) -> ShimHttpClient:
        return ShimHttpClient(self.network.client("operator"))

    def operator_ledger_client(self) -> LedgerClient:
        return LedgerClient(self.network.client("operator"), "ledger")

    def commission_all(self, caller=None) -> None:
        caller = caller or self.operator_caller()
        ledger_client = self.operator_ledger_client()
        for node_id in self.nodes:
            plan = CommissionPlan(
                device_dest=node_id,
                heartbeat_address="operator",
                heartbeat_port=1,
                heartbeat_timeout_ms=self.scenario.heartbeat_timeout_ms,
                ledger_address="ledger",
                ledger_port=1,
            )
            commission(caller, ledger_client, plan, self.operator)

    def buffers_empty(self) -> bool:
        for node in self.nodes.values():
            if node.buffer.depth() > 0 or node.window_size:
                return False
        for mote in self.motes.values():
            if mote.buffer.depth() > 0:
                return False
        return True

    def standard_director(self) -> None:
        scenario = self.scenario
        caller = self.operator_caller()
        self.commission_all(caller)
        if scenario.job:
            for node_id in self.nodes:
                start_monitoring(caller, node_id, scenario.job)
        end = self.t0 + scenario.span_ms
        self.runtime.sleep(end - self.runtime.now_ms() + 1000)
        if scenario.job:
            for node_id in self.nodes:
                stop_monitoring(caller, node_id)
        self.drain_until(end + scenario.drain_margin_ms)

    def drain_until(self, deadline: int) -> None:
        """Sleep in 10 s steps until the buffers are empty or the deadline passes."""
        while self.runtime.now_ms() < deadline and not self.buffers_empty():
            self.runtime.sleep(10_000)

    def run(self, director: Optional[Callable[[], None]] = None) -> None:
        if not self._built:
            self.build()
        director = director or self.standard_director

        def wrapped() -> None:
            try:
                director()
            except TaskCancelled:
                raise
            except BaseException as exc:
                self.director_error = exc
                raise
            finally:
                self._done = True

        self.scheduler.spawn("director", wrapped)
        limit = self.t0 + self.scenario.span_ms + self.scenario.drain_margin_ms + 3_600_000
        self.scheduler.run_while(lambda: not self._done, limit_ms=limit)
        if not self._done:
            raise ScenarioError(f"director did not finish before the hard cap at {limit}")

    def teardown(self) -> None:
        self.scheduler.shutdown()
        if self._built:
            self.ledger.close()
        for node in self.nodes.values():
            node.stop()
        for mote in self.motes.values():
            try:
                mote.buffer.close()
            except Exception:
                pass

    def cleanup_dirs(self) -> None:
        if self._own_root:
            shutil.rmtree(self.data_root, ignore_errors=True)

    # -- reporting --------------------------------------------------------------

    def committed_readings(self) -> list[tuple[str, str, int, float, Optional[str], str]]:
        """(source, quantity, sampled_at, value, signature_b64, report_device)."""
        out = []
        for report in self.ledger.all_reports():
            for reading in report.readings:
                out.append((reading.source_device, reading.quantity, reading.sampled_at,
                            reading.value, reading.signature_b64, report.device_id))
        return out

    def commits(self) -> list[tuple[int, EventReport]]:
        """(commit time, report) for every report on the ledger's chain, in
        commit order."""
        return [
            (block.committed_at, decode_report(base64.b64decode(tx["payload_b64"])))
            for block in self.ledger.blocks()
            for tx in block.transactions
        ]

    def buffered_reading_count(self) -> int:
        total = 0
        for node in self.nodes.values():
            for entry in node.buffer.pending_entries():
                try:
                    total += len(decode_report(entry.envelope.payload).readings)
                except ModelError:
                    pass
            total += node.window_size
        for mote in self.motes.values():
            total += mote.buffer.depth()
        return total

    def evaluate(self) -> list[CheckResult]:
        results = []
        for assertion in self.scenario.assertions:
            name = assertion.get("check")
            fn = CHECKS.get(name)
            if fn is None:
                results.append(CheckResult(name, False, "unknown check"))
                continue
            try:
                results.append(fn(self, dict(assertion)))
            except Exception as exc:  # a broken check must fail, not crash
                logger.exception("check %s crashed", name)
                results.append(CheckResult(name, False, f"check crashed: {exc}"))
        if not self.resume:
            results.append(CHECKS["conservation"](self, {"check": "conservation"}))
            results.append(
                CHECKS["submission_accounting"](self, {"check": "submission_accounting"})
            )
        return results

    def report(self, latency: Optional[dict] = None) -> ScenarioReport:
        committed = self.committed_readings()
        committed_reports = self.ledger.all_reports()
        per_device: dict[str, dict[str, int]] = {}
        for sample in self.metrics.samples:
            d = per_device.setdefault(sample["device"], {"sampled": 0, "committed": 0})
            d["sampled"] += 1
        for source, quantity, t, value, sig, report_device in committed:
            d = per_device.setdefault(source, {"sampled": 0, "committed": 0})
            d["committed"] += 1
        counts = {
            "sampled": len(self.metrics.samples),
            "committed_readings": len(committed),
            "committed_reports": len(committed_reports),
            "rejected_reports": len(self.recorder.rejected()),
            "replays": sum(1 for _t, _r, v in self.recorder.told() if v.replay),
            "submitted_reports": len(self.recorder.submitted()),
            "buffered_at_end": self.buffered_reading_count(),
            "duplicates_suppressed": sum(
                n.stats["mote_duplicates"] for n in self.nodes.values()
            ),
            "heartbeats": self.operator.stats.heartbeats_accepted,
        }
        counts["in_flight_reports"] = (
            counts["submitted_reports"] - counts["committed_reports"] - counts["rejected_reports"]
        )
        # Energy is out of reach without hardware; the network's message and
        # byte totals stand in as the communication-cost accounting.
        counts.update(self.network.traffic)
        digest = hashlib.sha256(canonical.dumps(self.network.message_log)).hexdigest()
        return ScenarioReport(
            name=self.scenario.name,
            seed=self.seed,
            span_ms=self.scenario.span_ms,
            assertions=self.evaluate(),
            counts=counts,
            per_device=per_device,
            latency=latency,
            log_digest=digest,
            final_height=self.ledger.height,
        )


def run_scenario(scenario: Scenario, seed: int) -> ScenarioReport:
    world = ScenarioWorld(scenario, seed)
    try:
        world.build()
        world.run()
        report = world.report()
    finally:
        world.teardown()
        world.cleanup_dirs()
    if world.director_error is not None:
        raise ScenarioError(f"director failed: {world.director_error!r}")
    return report


# -- tamper probe ----------------------------------------------------------------


def mutate_report_obj(obj: dict, rng: random.Random) -> str:
    """Alter one randomly chosen field in a buffered (already signed) report."""
    choices = ["reading_value", "reading_sampled_at", "reading_quantity",
               "product_id", "batch_no", "created_at", "report_id", "device_id"]
    kind = rng.choice(choices)
    if kind.startswith("reading_") and obj.get("readings"):
        reading = obj["readings"][rng.randrange(len(obj["readings"]))]
        if kind == "reading_value":
            reading["value"] = float(reading["value"]) + 1.5
        elif kind == "reading_sampled_at":
            t = canonical.parse_millis(reading["sampled_at"])
            reading["sampled_at"] = canonical.format_millis(t + 60_000)
        else:
            reading["quantity"] = str(reading["quantity"]) + "x"
    elif kind == "created_at":
        t = canonical.parse_millis(obj["created_at"])
        obj["created_at"] = canonical.format_millis(t + 60_000)
    else:
        key = kind if kind in obj else "product_id"
        obj[key] = str(obj[key]) + "x"
    return kind


def tamper_buffer_journal(node_dir: Path, count: Optional[int],
                          rng: random.Random) -> tuple[int, set[str]]:
    """Rewrite pending envelopes in place, mutating one field each of the
    first `count` (all when None). Acked records in the journal are left as
    they are.

    Returns (mutated, ids of the pending reports as the journal now holds them)."""
    buffer = DurableBuffer(node_dir)
    pending = {entry.entry_id for entry in buffer.pending_entries()}
    buffer.close()
    journal = node_dir / JOURNAL_FILE
    mutated = 0
    report_ids = set()
    out_lines = []
    for line in journal.read_bytes().splitlines():
        obj = canonical.loads(line)
        if obj.get("seq") in pending:
            payload = canonical.loads(base64.b64decode(obj["envelope"]["payload_b64"]))
            if count is None or mutated < count:
                mutate_report_obj(payload, rng)
                obj["envelope"]["payload_b64"] = base64.b64encode(
                    canonical.dumps(payload)).decode()
                line = canonical.dumps(obj)
                mutated += 1
            report_ids.add(payload["report_id"])
        out_lines.append(line)
    journal.write_bytes(b"".join(line + b"\n" for line in out_lines))
    return mutated, report_ids


def tamper_probe(scenario: Scenario, seed: int,
                 mutate_count: Optional[int] = None) -> ScenarioReport:
    """Buffer under a dead link, alter stored entries, restore, drain, report.

    mutate_count=None mutates every buffered entry. The report counts and
    verdicts cover only the reports that were buffered, not those committed
    before the link went down.
    """
    root = Path(tempfile.mkdtemp(prefix=f"ambox-{scenario.name}-tamper-"))
    rng = random.Random(_derive_seed(seed, "tamper"))
    try:
        phase_a = ScenarioWorld(scenario, seed, data_root=root)
        phase_a.build()
        phase_a.run()
        phase_a.teardown()
        log_a = list(phase_a.network.message_log)

        mutated = 0
        buffered: set[str] = set()
        for node_id in phase_a.nodes:
            m, report_ids = tamper_buffer_journal(root / node_id, mutate_count, rng)
            mutated += m
            buffered |= report_ids

        restored = replace(
            scenario,
            span_ms=scenario.drain_margin_ms,
            faults=FaultSchedule(),      # link restored
            job=None,                    # nodes resume from persisted state
            assertions=(),
        )
        phase_b = ScenarioWorld(restored, seed, data_root=root, resume=True)
        phase_b.build()

        def drain_director() -> None:
            phase_b.commission_all()
            phase_b.drain_until(phase_b.t0 + restored.span_ms + restored.drain_margin_ms)

        phase_b.run(director=drain_director)
        report = phase_b.report()
        report.name = f"{scenario.name}:tamper"
        verdicts = {rid: v for rid, v in phase_b.recorder.rejected().items() if rid in buffered}
        rejected = len(verdicts)
        committed = sum(r.report_id in buffered for r in phase_b.ledger.all_reports())
        reasons = {v.reason for v in verdicts.values()}
        report.counts["mutated"] = mutated
        report.counts["committed_reports"] = committed
        report.counts["rejected_reports"] = rejected
        report.counts["submitted_reports"] = len(buffered)
        report.counts["in_flight_reports"] = len(buffered) - committed - rejected
        report.assertions.append(CheckResult(
            "tampered_all_rejected",
            rejected == mutated and reasons <= {"signature-invalid"},
            f"mutated={mutated} rejected={rejected} reasons={sorted(r for r in reasons if r)}",
        ))
        report.assertions.append(CheckResult(
            "untampered_all_committed",
            committed == len(buffered) - mutated,
            f"buffered={len(buffered)} committed={committed}",
        ))
        digest = hashlib.sha256(
            canonical.dumps(log_a) + canonical.dumps(phase_b.network.message_log)
        ).hexdigest()
        report.log_digest = digest
        phase_b.teardown()
        return report
    finally:
        shutil.rmtree(root, ignore_errors=True)


# -- latency benchmark -------------------------------------------------------------


RTT_SPACING_MS = 1000


def rtt_benchmark(n: int, injected_latency_ms: int, seed: int = 0, down: bool = False,
                  label: str = "local") -> ScenarioReport:
    """Echo exchanges over a link with fixed injected latency; exact in
    virtual time. Reports avg/min/max like a latency table row."""
    if n < 1:
        raise ScenarioError("n must be >= 1")
    windows = []
    span = max(n * RTT_SPACING_MS + 10_000, 60_000)
    if down:
        windows.append(FaultWindow("probe", 0, span, MODE_DOWN))
    elif injected_latency_ms > 0:
        windows.append(FaultWindow("probe", 0, span, MODE_LATENCY,
                                   latency_ms=injected_latency_ms))
    scenario = Scenario(
        name=f"rtt-{label}",
        span_ms=span,
        devices=(),
        links=(LinkSpec("probe", "client", "echo"),),
        faults=FaultSchedule(windows),
        assertions=(),
    )
    world = ScenarioWorld(scenario, seed)
    world.build()
    world.network.register_server("echo", echo_handler)
    client = world.network.client("client")
    samples: list[int] = []
    partial = {"flag": False}

    def director() -> None:
        for i in range(n):
            t = world.runtime.now_ms()
            try:
                client.request("echo", f"probe-{i}".encode(), timeout_ms=600_000,
                               label="rtt-probe")
            except (LinkDown, RequestTimeout):
                partial["flag"] = True
                break
            samples.append(world.runtime.now_ms() - t)
            if i != n - 1:
                world.runtime.sleep(RTT_SPACING_MS)

    world.run(director=director)
    if samples:
        latency = {
            "avg_ms": sum(samples) / len(samples),
            "min_ms": min(samples),
            "max_ms": max(samples),
            "n": len(samples),
            "injected_ms": injected_latency_ms,
            "partial": partial["flag"],
        }
    else:
        latency = {"avg_ms": None, "min_ms": None, "max_ms": None, "n": 0,
                   "injected_ms": injected_latency_ms, "partial": True}
    report = world.report(latency=latency)
    world.teardown()
    world.cleanup_dirs()
    return report
