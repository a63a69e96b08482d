"""Named scenario checks. Each check inspects the finished world and returns
a pass/fail with a human-readable detail line. Scenario files reference
checks by name; the harness always appends the conservation and submission
accounting checks.

Each check declares its parameters once, where it is defined (`@check`):
a name, a kind and a default. A scenario file's assertions are typed by
those declarations when it loads (`scenario._assertion`), so a check reads
its parameters as typed values and never checks them itself.

Checks read commits from the ledger's chain and world state
(`world.commits()`, `world.ledger`), what nodes sent and were told from the
world's `LedgerRecorder` (`world.recorder`), samples from `world.metrics`,
and what is still in flight from the device journals."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from ..envelope import verify_reading_signature
from ..model import _ABSENT, SensorReading
from ..transport.faults import MODE_DOWN


@dataclass
class CheckResult:
    check: str
    passed: bool
    detail: str


REQUIRED = _ABSENT      # the default of a parameter an assertion must give
DURATION = "duration"   # a kind: a duration in a scenario file's units


class Param(NamedTuple):
    """A check parameter. Its kind is one `model._require` takes, or
    DURATION: written `<name>_ms`, `_s` or `_min`, and passed to the check
    in milliseconds as `<name>_ms`."""

    name: str
    kind: Any
    default: Any = REQUIRED


CHECKS: dict[str, Callable[[Any, dict], CheckResult]] = {}
CHECK_PARAMS: dict[str, tuple[Param, ...]] = {}


def check(*params: Param) -> Callable:
    """Register a `check_<name>` function under `<name>`, with its parameters."""
    def register(fn: Callable[[Any, dict], CheckResult]) -> Callable[[Any, dict], CheckResult]:
        name = fn.__name__.removeprefix("check_")
        CHECKS[name] = fn
        CHECK_PARAMS[name] = params
        return fn
    return register


def _committed_key_counter(world) -> Counter:
    return Counter((s, q, t) for s, q, t, _v, _sig, _dev in world.committed_readings())


@check(Param("expected", int), Param("device", str, None))
def check_sampled_per_sensor(world, params: dict) -> CheckResult:
    expected = params["expected"]
    device_filter = params["device"]
    by_stream: Counter = Counter()
    for sample in world.metrics.samples:
        if device_filter is None or sample["device"] == device_filter:
            by_stream[(sample["device"], sample["quantity"])] += 1
    bad = {k: v for k, v in by_stream.items() if v != expected}
    detail = f"streams={len(by_stream)} expected={expected} off={sorted(bad.items())}"
    return CheckResult("sampled_per_sensor", bool(by_stream) and not bad, detail)


@check()
def check_zero_reading_loss(world, params: dict) -> CheckResult:
    sampled = world.metrics.sample_keys()
    committed = _committed_key_counter(world)
    missing = sampled - committed
    return CheckResult(
        "zero_reading_loss",
        not missing,
        f"sampled={sum(sampled.values())} committed={sum(committed.values())} "
        f"missing={sum(missing.values())}",
    )


@check()
def check_no_ledger_duplicates(world, params: dict) -> CheckResult:
    committed = _committed_key_counter(world)
    dup_keys = {k: c for k, c in committed.items() if c > 1}
    reports = world.ledger.all_reports()
    fresh_commits = world.commits()
    ok = not dup_keys and len(fresh_commits) == len(reports)
    return CheckResult(
        "no_ledger_duplicates",
        ok,
        f"duplicate_reading_keys={len(dup_keys)} reports={len(reports)} "
        f"fresh_commits={len(fresh_commits)}",
    )


@check()
def check_commit_order_nondecreasing(world, params: dict) -> CheckResult:
    last: dict[str, int] = {}
    violations = 0
    for _t, report in world.commits():
        signer, created = report.device_id, report.created_at
        if signer in last and created < last[signer]:
            violations += 1
        last[signer] = created
    return CheckResult("commit_order_nondecreasing", violations == 0,
                       f"violations={violations}")


@check(Param("link", str), Param("report_intervals", int, 2))
def check_backlog_drained_within(world, params: dict) -> CheckResult:
    link = params["link"]
    budget_intervals = params["report_intervals"]
    job = world.scenario.job or {}
    interval = job.get("report_interval_ms", 300_000)
    budget = budget_intervals * interval
    commit_at: dict[str, int] = {}
    for t, report_id, verdict in world.recorder.told():
        if verdict.status == "committed":
            commit_at.setdefault(report_id, t)
    restorations = [
        world.t0 + w.end_ms
        for w in world.scenario.faults.windows()
        if w.link == link and w.mode == MODE_DOWN
    ]
    late = []
    for report in world.recorder.submitted().values():
        committed = commit_at.get(report.report_id)
        if committed is None:
            late.append((report.report_id, "never"))
            continue
        for restore in restorations:
            if report.created_at <= restore and committed > restore + budget:
                late.append((report.report_id, committed - restore))
    return CheckResult(
        "backlog_drained_within",
        not late,
        f"restorations={len(restorations)} budget_ms={budget} late={late[:3]}",
    )


@check()
def check_chain_intact(world, params: dict) -> CheckResult:
    broken = world.ledger.verify_chain()
    return CheckResult("chain_intact", broken is None,
                       "ok" if broken is None else f"broken at height {broken}")


@check()
def check_mote_multiset_equal(world, params: dict) -> CheckResult:
    mote_ids = set(world.motes)
    sampled = Counter(
        k for k in world.metrics.sample_keys().elements() if k[0] in mote_ids
    )
    committed = Counter(
        (s, q, t) for s, q, t, _v, _sig, _d in world.committed_readings() if s in mote_ids
    )
    return CheckResult(
        "mote_multiset_equal",
        sampled == committed,
        f"mote_sampled={sum(sampled.values())} mote_committed={sum(committed.values())} "
        f"diff={sum((sampled - committed).values()) + sum((committed - sampled).values())}",
    )


@check()
def check_mote_signatures_verify(world, params: dict) -> CheckResult:
    total = 0
    bad = 0
    for source, quantity, t, value, sig, report_device in world.committed_readings():
        if source == report_device:
            continue
        total += 1
        pem = world.ledger.registered_key(source)
        if pem is None or sig is None:
            bad += 1
            continue
        reading = SensorReading(quantity=quantity, value=value, sampled_at=t,
                                source_device=source, signature_b64=sig)
        if not verify_reading_signature(pem, reading):
            bad += 1
    return CheckResult("mote_signatures_verify", total > 0 and bad == 0,
                       f"relayed={total} failed={bad}")


@check(Param("expected", int))
def check_committed_reports(world, params: dict) -> CheckResult:
    expected = params["expected"]
    actual = len(world.ledger.all_reports())
    return CheckResult("committed_reports", actual == expected,
                       f"expected={expected} actual={actual}")


@check(Param("offset", DURATION))
def check_all_commits_after(world, params: dict) -> CheckResult:
    threshold = world.t0 + params["offset_ms"]
    commits = world.commits()
    early = [t for t, _report in commits if t < threshold]
    return CheckResult("all_commits_after", bool(commits) and not early,
                       f"commits={len(commits)} early={len(early)}")


@check(Param("device", str), Param("quantity", str, "temperature"))
def check_node_bias_positive(world, params: dict) -> CheckResult:
    device = params["device"]
    quantity = params["quantity"]
    errors = [s["value"] - s["truth"] for s in world.metrics.samples
              if s["device"] == device and s["quantity"] == quantity]
    mean = sum(errors) / len(errors) if errors else 0.0
    return CheckResult("node_bias_positive", bool(errors) and mean > 0,
                       f"n={len(errors)} mean_error={mean:.3f}")


@check(Param("device", str), Param("min_count", int, 1),
       Param("timeout_ms", int, None))
def check_heartbeat_liveness(world, params: dict) -> CheckResult:
    device = params["device"]
    min_count = params["min_count"]
    timeout = params["timeout_ms"]
    if timeout is None:
        timeout = world.scenario.heartbeat_timeout_ms
    view = world.operator.fleet().get(device)
    count = view.beats if view else 0
    gap = view.max_gap_ms if view else None
    missed = view.missed_deadline if view else True
    ok = count >= min_count and gap is not None and gap <= timeout and not missed
    return CheckResult("heartbeat_liveness", ok,
                       f"count={count} max_gap_ms={gap} missed_deadline={missed}")


@check()
def check_conservation(world, params: dict) -> CheckResult:
    sampled = sum(world.metrics.sample_keys().values())
    committed = len(world.committed_readings())
    buffered = world.buffered_reading_count()
    submitted = world.recorder.submitted()
    rejected_readings = sum(submitted[r].n_readings for r in world.recorder.rejected())
    balance = committed + rejected_readings + buffered
    ok = sampled == balance
    return CheckResult(
        "conservation", ok,
        f"sampled={sampled} committed={committed} rejected={rejected_readings} "
        f"buffered={buffered}",
    )


@check()
def check_submission_accounting(world, params: dict) -> CheckResult:
    submitted = len(world.recorder.submitted())
    committed = len(world.ledger.all_reports())
    rejected = len(world.recorder.rejected())
    in_flight = submitted - committed - rejected
    ok = in_flight >= 0
    return CheckResult(
        "submission_accounting", ok,
        f"submitted={submitted} committed={committed} rejected={rejected} "
        f"in_flight={in_flight}",
    )
