"""Child processes of the benchmark.

``python perfbench/child.py setup WORKLOAD SEED``
    Imports lagsob, runs the workload's set-up and prints ``time.monotonic()``
    when it is done; the parent subtracts its own spawn time to get set-up time.

``python perfbench/child.py cli-trace SPANS_JSON OP_ID ARGV...``
    Runs ``lagsob.cli.main(ARGV)`` in this fresh process with the tracer
    installed, writes the spans and counters to SPANS_JSON and exits with
    main's code.  Used by the traced ``cli`` workload.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def setup(workload: str, seed: int) -> int:
    import workloads

    workloads.make(workload, seed, HERE / "out").setup()
    print(repr(time.monotonic()), flush=True)
    return 0


def cli_trace(spans_path: str, op_id: int, argv: list[str]) -> int:
    import tracer

    t = tracer.Tracer()
    t.op = op_id
    tracer.install(t)
    import lagsob.cli

    try:
        return lagsob.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": t.spans, "counts": dict(t.counts)}, fh)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2], int(sys.argv[3])))
    if mode == "cli-trace":
        sys.exit(cli_trace(sys.argv[2], int(sys.argv[3]), sys.argv[4:]))
    sys.exit(f"unknown mode {mode!r}")
