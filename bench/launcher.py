"""Start an `ambox` entry point with the benchmark's tracing installed.

    python3 bench/launcher.py --trace 1 --spans spans.jsonl.gz -- ledger --config ledger.json

Everything after `--` goes to `ambox.cli.main` unchanged. With `--trace 1`
the same wrappers as in the benchmark process are installed before the
entry point runs, and the spans are written to `--spans` when it returns
(the ledger returns after SIGTERM).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="")
    parser.add_argument("ambox_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    rest = args.ambox_args[1:] if args.ambox_args[:1] == ["--"] else args.ambox_args
    tracer = Tracer().install(traced=True) if args.trace else None
    from ambox.cli import main as ambox_main

    code = ambox_main(rest)
    if tracer is not None and args.spans:
        tracer.dump(Path(args.spans), process=rest[0] if rest else "ambox")
    return code


if __name__ == "__main__":
    sys.exit(main())
