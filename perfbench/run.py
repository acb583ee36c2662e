"""Benchmark of lagsob: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload {solve-mixed,eval-dense,cli} \\
        --seed N --seconds S --trace {0,1}

Run it from anywhere; it uses the ``src/`` tree next to this directory.
``--trace 0`` runs the workload's closed loop for S seconds and reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced
and traced passes over the workload's fixed op list and reports the
per-layer metrics.  Every op's output is checked; the run record goes to
``perfbench/out/`` and the last stdout line is the JSON result.  The exit
code is 0 when every check passed, 1 when one failed and 2 when the source
tree is missing.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchenv import SRC, THREAD_ENV  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("solve-mixed", "eval-dense", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lagsob" / "__init__.py").is_file():
        print(f"error: no lagsob source tree at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy's first import
    os.environ.pop("LAGSOB_OUT_DIR", None)
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")  # solver diagnostics would flood stderr

    import lagsob

    if Path(lagsob.__file__).resolve().parent != (SRC / "lagsob").resolve():
        print(f"error: imported lagsob from {lagsob.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import runner

    return runner.run(args)


if __name__ == "__main__":
    sys.exit(main())
