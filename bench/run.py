"""AmBox benchmark: run one workload with one seed and print one JSON result.

    python3 bench/run.py --workload ledger_live --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). A
fuller result, raw and normalised figures included, goes to
bench/_results/<workload>-<seed>-trace<t>.json. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Optional

REPO = Path(__file__).resolve().parent.parent
if not (REPO / "src" / "ambox" / "__init__.py").is_file():
    sys.exit(f"bench: no AmBox source tree at {REPO / 'src' / 'ambox'}; run from a checkout")
sys.path.insert(0, str(REPO / "src"))

import fleet_sim  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import ledger_load  # noqa: E402
from common import CACHE_DIR, RESULTS_DIR, Sizes, WorkDir, p99  # noqa: E402
from measure import BOUNDED_FORM, UNITS, end_to_end  # noqa: E402
from probe import RefClock  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("fleet_sim", "ledger_live", "ledger_backlog")


class Pass:
    """One measured pass of a workload, traced or not."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, keys: dict,
                 history: inputs.History, work: WorkDir, sizes: Sizes) -> None:
        self.workload = workload
        self.trace = trace
        # Only fleet_sim's disk calls run in this process, where they can be
        # timed; only it needs the disk probe.
        self.ref = RefClock(work.path if workload == "fleet_sim" else None)
        self.tracer = Tracer().install(traced=trace, fleet=workload == "fleet_sim")
        try:
            if workload == "fleet_sim":
                self.run = fleet_sim.FleetRun(seed, seconds, keys, history, work, self.tracer,
                                              self.ref, sizes)
            else:
                data = ledger_load.make_inputs(seed, keys, history, workload, seconds, sizes)
                self.run = ledger_load.LedgerRun(workload, data, work, trace, self.ref, sizes)
            # The inputs live for the whole pass; keep the collector off them.
            gc.collect()
            gc.freeze()
            self.run.execute()
        finally:
            gc.unfreeze()
            self.tracer.uninstall()
        self.outcome = self.run.check()
        self.measured = self.run.m
        self.measured.readings = self.run.committed.readings
        self.e2e = end_to_end(self.measured, self.ref)

    @property
    def correct(self) -> bool:
        return not self.outcome.problems


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes(),
        pool: Optional[inputs.KeyPool] = None, results_dir: Optional[Path] = RESULTS_DIR) -> dict:
    """Run one workload and return the result line (and write the result file
    to results_dir unless it is None)."""
    started = time.perf_counter()
    work = WorkDir()
    try:
        pool = pool or inputs.KeyPool(CACHE_DIR)
        keys = pool.assign(seed, workload_devices(workload, sizes))
        history = inputs.build_history(seed, keys, work / "history", sizes.history_reports)
        history_s = time.perf_counter() - started
        if not trace:
            main_pass = Pass(workload, seed, seconds, False, keys, history, work, sizes)
            metrics = {name: {"value": main_pass.e2e[name][BOUNDED_FORM[name]],
                              "unit": UNITS[name]} for name in UNITS}
            m = main_pass.measured
            detail = {"end_to_end": main_pass.e2e,
                      # For reference only, where 1,000 samples or more exist.
                      "p99_ms": {"submit": p99([1000 * s.seconds for s in m.submit]),
                                 "query": p99([1000 * s.seconds for s in m.query])},
                      "timings": {part: [[s.seconds, s.ref, s.disk, s.disk_ref]
                                         for s in getattr(m, part)]
                                  for part in ("setup", "segments", "audit")}}
        else:
            # The same inputs untraced, then traced: the difference is the
            # tracing overhead. Each pass does half a run's work.
            plain = Pass(workload, seed, seconds / 2, False, keys, history, work, sizes)
            main_pass = Pass(workload, seed, seconds / 2, True, keys, history, work, sizes)
            spans = layers.layers_of(main_pass)
            values = layers.per_layer(main_pass, plain, spans)
            metrics = {name: {"value": value, "unit": layers.UNITS[name]}
                       for name, value in values.items()}
            detail = {"end_to_end_traced": main_pass.e2e, "end_to_end_untraced": plain.e2e,
                      "samples": layers.sample_counts(spans)}
            if results_dir is not None:
                results_dir.mkdir(parents=True, exist_ok=True)
                prefix = results_dir / f"{workload}-{seed}"
                main_pass.tracer.dump(Path(f"{prefix}-spans.jsonl.gz"), "bench")
                for k, path in enumerate(getattr(main_pass.run, "server_spans", [])):
                    shutil.copyfile(path, f"{prefix}-ledger{k}-spans.jsonl.gz")
    finally:
        work.close()
    result = {
        "correct": main_pass.correct,
        "attempted": main_pass.run.attempted,
        "failed": main_pass.outcome.failed,
        "metrics": metrics,
    }
    if results_dir is not None:
        results_dir.mkdir(parents=True, exist_ok=True)
        (results_dir / f"{workload}-{seed}-trace{int(trace)}.json").write_text(json.dumps(
            {**result, **detail, "problems": main_pass.outcome.problems,
             "ref_ms": main_pass.ref.samples, "disk_ref_ms": main_pass.ref.disk_samples,
             "wall_s": {"keys_and_history": history_s, "total": time.perf_counter() - started}},
            indent=1))
    return result


def workload_devices(workload: str, sizes: Sizes) -> list[str]:
    """Device ids in key-assignment order; the history's come first so that
    every workload with the same seed starts from the same history."""
    ids = inputs.device_ids("hist", inputs.HISTORY_DEVICES)
    if workload == "fleet_sim":
        return ids + fleet_sim.device_ids(sizes.fleet_nodes)
    return ids + inputs.device_ids("dev", sizes.live_devices)


def main() -> int:
    parser = argparse.ArgumentParser(description="AmBox benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    logging.basicConfig(level=logging.ERROR)
    # One CPU for the benchmark, its threads and the ledger process it
    # starts: the reference probe then times the CPU the work runs on, and
    # no request waits for a wake-up on the other CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
