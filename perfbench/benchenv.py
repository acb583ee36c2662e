"""Paths and the environment of the benchmark's processes (no numpy import here).

``run.py`` applies ``THREAD_ENV`` before numpy is first imported, and every
child process inherits it: one BLAS/OpenMP thread per process, as the
workloads each drive a single client.
"""

from __future__ import annotations

import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env.pop("LAGSOB_OUT_DIR", None)  # would override --out-dir
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    env.update(THREAD_ENV)
    return env
