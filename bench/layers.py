"""Per-layer metrics of a traced pass, computed from its spans.

Layers are ambox modules. Each metric is attributed to the phase whose
work it describes: set-up (`ledger.replay_s`), audit
(`ledger.verify_chain_ms`), and the run phase for the rest. "Per reading"
divides by the readings committed in the run phase, "per commit" by the
reports committed in it. A metric whose layer the workload does not touch
reads 0. Sample counts go to the result file.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from common import Phases, median
from measure import BOUNDED_FORM
from tracing import BUCKET_NS, load_dump

UNITS = {
    "storage.fsyncs_per_reading": "count",
    "storage.config_saves_per_reading": "count",
    "storage.config_save_ms": "ms",
    "storage.enqueue_us": "us",
    "storage.ack_us": "us",
    "envelope.sign_us": "us",
    "envelope.sign_reading_us": "us",
    "envelope.signs_per_reading": "count",
    "envelope.verify_us": "us",
    "envelope.key_parses_per_verify": "count",
    "canonical.dumps_ms": "ms",
    "canonical.dumps_per_reading": "count",
    "canonical.timestamp_calls_per_reading": "count",
    "runtime.steps_per_reading": "count",
    "runtime.step_us": "us",
    "runtime.step_self_us": "us",
    "transport.wan_attempts_per_commit": "count",
    "transport.wan_useful_ratio": "ratio",
    "transport.wan_bytes_delivered_per_reading": "B",
    "transport.tcp_overhead_us": "us",
    "ledger.handle_us": "us",
    "ledger.add_events_us_per_block": "us",
    "ledger.envelopes_per_block": "count",
    "ledger.add_events_us_per_envelope": "us",
    "ledger.add_events_self_us": "us",
    "ledger.fsyncs_per_block": "count",
    "ledger.replay_s": "s",
    "ledger.verify_chain_ms": "ms",
    "ledger.get_recent_ms": "ms",
    "ledger.get_event_ms": "ms",
    "node.submits_per_commit": "count",
    "node.failed_submit_ms": "ms",
    "mote.notifies_per_reading": "count",
    "fleet.heartbeats_per_reading": "count",
    "fleet.ingest_heartbeat_us": "us",
    "ref_ms": "ms",
    "disk_ref_ms": "ms",
    **{f"overhead.{name}_pct": "%" for name in BOUNDED_FORM},
}


class SpanSet:
    """The spans of one process, indexed for phase filters and self times."""

    def __init__(self, spans: Iterable[tuple], counts: dict[str, dict[int, int]]) -> None:
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        self.by_id: dict[int, tuple] = {}
        self.child_ns: dict[int, int] = defaultdict(int)
        for span in spans:
            span_id, name, start, end, parent = span[:5]
            self.by_name[name].append(span)
            self.by_id[span_id] = span
            self.child_ns[parent] += end - start
        self.counts = counts

    def under(self, span: tuple, prefix: str) -> bool:
        parent = span[4]
        while parent in self.by_id:
            ancestor = self.by_id[parent]
            if ancestor[1].startswith(prefix):
                return True
            parent = ancestor[4]
        return False


class Layers:
    """Span queries over every process of a pass, restricted to one phase."""

    def __init__(self, sets: list[SpanSet], phases: Phases) -> None:
        self.sets = sets
        self.phases = phases

    def spans(self, name: str, phase: str = "run") -> list[tuple[SpanSet, tuple]]:
        return [(s, span) for s in self.sets for span in s.by_name.get(name, ())
                if self.phases.contains(phase, span[2])]

    def n(self, name: str, phase: str = "run") -> int:
        return len(self.spans(name, phase))

    def total_ns(self, name: str, phase: str = "run") -> int:
        return sum(span[3] - span[2] for _, span in self.spans(name, phase))

    def mean_us(self, name: str, phase: str = "run") -> float:
        n = self.n(name, phase)
        return self.total_ns(name, phase) / n / 1e3 if n else 0.0

    def counted(self, name: str, phase: str = "run") -> int:
        return sum(count for s in self.sets for bucket, count in s.counts.get(name, {}).items()
                   if self.phases.contains(phase, bucket * BUCKET_NS + BUCKET_NS // 2))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layers_of(traced) -> Layers:
    """The spans of a traced run.Pass: its own and the ledger process's."""
    sets = [SpanSet(traced.tracer.spans, traced.tracer.counts())]
    for path in getattr(traced.run, "server_spans", []):
        sets.append(SpanSet(*load_dump(path)))
    return Layers(sets, traced.run.phases)


def per_layer(traced, plain, L: Layers) -> dict[str, float]:
    """traced and plain are run.Pass objects with the same inputs."""
    run = traced.run
    readings = run.committed.readings
    commits = run.committed.reports

    fsyncs = L.spans("os.fsync")
    device_fsyncs = sum(1 for s, span in fsyncs if not s.under(span, "ledger."))
    add_events = L.spans("ledger.add_events")
    envelopes = sum(span[6] for _, span in add_events)
    add_events_ns = sum(span[3] - span[2] for _, span in add_events)
    add_events_self_ns = sum(span[3] - span[2] - s.child_ns[span[0]] for s, span in add_events)
    steps = L.spans("runtime.step")
    wan = L.spans("transport.sim_request") + L.spans("transport.tcp_request")
    wan_ok = [span for _, span in wan if span[5]]
    tcp = L.spans("transport.tcp_request")
    handles = L.spans("ledger.handle")
    submits = L.spans("node.submit") if traced.workload == "fleet_sim" else []
    failed_submit_ns = sum(span[3] - span[2] for _, span in submits if not span[5])
    mote_readings = run.committed.relayed_readings

    values = {
        "storage.fsyncs_per_reading": _ratio(device_fsyncs, readings),
        "storage.config_saves_per_reading": _ratio(L.n("storage.config_save"), readings),
        "storage.config_save_ms": L.mean_us("storage.config_save") / 1e3,
        "storage.enqueue_us": L.mean_us("storage.enqueue"),
        "storage.ack_us": L.mean_us("storage.ack"),
        "envelope.sign_us": L.mean_us("envelope.sign"),
        "envelope.sign_reading_us": L.mean_us("envelope.sign_reading"),
        "envelope.signs_per_reading": _ratio(L.n("envelope.sign") + L.n("envelope.sign_reading"),
                                             readings),
        "envelope.verify_us": L.mean_us("envelope.verify"),
        "envelope.key_parses_per_verify": _ratio(L.n("envelope.load_public_key"),
                                                 L.n("envelope.verify")),
        "canonical.dumps_ms": L.total_ns("canonical.dumps") / 1e6,
        "canonical.dumps_per_reading": _ratio(L.n("canonical.dumps"), readings),
        "canonical.timestamp_calls_per_reading": _ratio(
            L.counted("canonical.format_millis") + L.counted("canonical.parse_millis"), readings),
        "runtime.steps_per_reading": _ratio(len(steps), readings),
        "runtime.step_us": L.mean_us("runtime.step"),
        "runtime.step_self_us": _ratio(
            sum(span[3] - span[2] - s.child_ns[span[0]] for s, span in steps), len(steps)) / 1e3,
        "transport.wan_attempts_per_commit": _ratio(len(wan), commits),
        "transport.wan_useful_ratio": _ratio(len(wan_ok), len(wan)),
        "transport.wan_bytes_delivered_per_reading": _ratio(sum(s[6] for s in wan_ok), readings),
        "transport.tcp_overhead_us": _ratio(
            sum(span[3] - span[2] for _, span in tcp)
            - sum(span[3] - span[2] for _, span in handles), len(tcp)) / 1e3 if tcp else 0.0,
        "ledger.handle_us": L.mean_us("ledger.handle"),
        "ledger.add_events_us_per_block": L.mean_us("ledger.add_events"),
        "ledger.envelopes_per_block": _ratio(envelopes, len(add_events)),
        "ledger.add_events_us_per_envelope": _ratio(add_events_ns, envelopes) / 1e3,
        "ledger.add_events_self_us": _ratio(add_events_self_ns, envelopes) / 1e3,
        "ledger.fsyncs_per_block": _ratio(len(fsyncs) - device_fsyncs, len(add_events)),
        "ledger.replay_s": L.mean_us("ledger.open", "setup") / 1e6,
        "ledger.verify_chain_ms": L.mean_us("ledger.verify_chain", "audit") / 1e3,
        "ledger.get_recent_ms": L.mean_us("ledger.get_recent") / 1e3,
        "ledger.get_event_ms": L.mean_us("ledger.get_event") / 1e3,
        "node.submits_per_commit": _ratio(len(submits), commits),
        "node.failed_submit_ms": failed_submit_ns / 1e6,
        "mote.notifies_per_reading": _ratio(L.n("transport.notify"), mote_readings),
        "fleet.heartbeats_per_reading": _ratio(L.n("fleet.ingest_heartbeat"), readings),
        "fleet.ingest_heartbeat_us": L.mean_us("fleet.ingest_heartbeat"),
        "ref_ms": median(traced.ref.samples),
        "disk_ref_ms": median(traced.ref.disk_samples),
    }
    for name, form in BOUNDED_FORM.items():
        values[f"overhead.{name}_pct"] = 100.0 * (
            _ratio(traced.e2e[name][form], plain.e2e[name][form]) - 1.0)
    return values


def sample_counts(L: Layers) -> dict[str, int]:
    """How many spans each timing above rests on, by span name and phase."""
    names = sorted({name for s in L.sets for name in s.by_name})
    return {f"{name}@{phase}": L.n(name, phase) for name in names
            for phase in ("setup", "run", "audit") if L.n(name, phase)}
