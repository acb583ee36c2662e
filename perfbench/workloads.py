"""The three lagsob workloads, their op generators, output checks and accounting.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  Op ``i`` of a workload is a pure function of
``(seed, i)``, so a run that completes more ops sees the same first ops, and
the traced run's fixed op list (the first ``pass_len`` ops) is the same on
every run with that seed.

* ``solve-mixed``: ``solve`` + ``sobolev_error`` for every k <= n_max on a
  fresh manufactured problem; the moment layer does almost all the work.
* ``eval-dense``: ``partial_sum`` + ``partial_sum_deriv`` on large grids for
  problems solved during set-up; no moment is computed in an op.
* ``cli``: one fresh ``python -m lagsob`` process per op, so import, cold
  rule construction, expression evaluation and CSV output are paid each time.

n_max never exceeds 237: ``solve`` raises from n_max = 238 on (``L_n^{(1)}``
overflows at the far node of the 256-point rule); ``runner.py`` records that
with a separate probe instead.
"""

from __future__ import annotations

import csv
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lagsob
import problems
from benchenv import child_env

NS = (20, 100, 200)
CHECK_X_MAX = 20.0
CHECK_GRID = np.linspace(0.0, CHECK_X_MAX, 401)  # the CLI's default solution.csv grid

# Lowest accepted digits (-log10 of the relative max error of the order-n_max
# partial sum), per family and n_max.  A grid over the parameter box plus
# random draws at this commit found minima of 2.15/12.2/9.0 (exp) and
# 1.39/1.58/1.74 (alg) at n_max 20/100/200; each floor sits at least one
# digit lower (0.5 for alg, whose moments all saturate the quadrature cap).
FLOORS = {
    ("exp", 20): 1.0, ("exp", 100): 11.0, ("exp", 200): 8.0,
    ("alg", 20): 0.5, ("alg", 100): 0.5, ("alg", 200): 0.5,
}

SUBPROCESS_TIMEOUT_S = 60.0


class OpFailure(Exception):
    """An op's output failed a check; ``kind`` names the failure."""

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind


@dataclass
class Op:
    index: int
    kind: str
    n_max: int | None
    family: str | None
    args: dict = field(default_factory=dict)


@dataclass
class OpRecord:
    index: int
    kind: str
    n_max: int | None
    family: str | None
    latency_s: float
    failure: str | None = None
    detail: str = ""
    digits: float | None = None
    kernel_ms: float | None = None  # calibration kernel timed right after the op


def require_finite(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise OpFailure("NonFiniteResult", name)
    return arr


def accuracy(family: str, n_max: int, approx, exact) -> float:
    """Digits of approx against exact; raises OpFailure under the floor."""
    approx = require_finite("partial_sum", approx)
    exact = np.asarray(exact, dtype=float)
    d = problems.digits(float(np.max(np.abs(approx - exact)) / np.max(np.abs(exact))))
    floor = FLOORS[(family, n_max)]
    if d < floor:
        raise OpFailure("AccuracyFloor", f"{family} n_max={n_max}: {d:.2f} < {floor}")
    return d


def run_op(op: Op, execute, check) -> tuple[OpRecord, float]:
    """Time ``execute(op)``, then check its output untimed.

    Returns the record and the seconds spent checking.  Any exception from
    the op or from a check of its output marks the op failed under the
    exception's type name (or the OpFailure kind).
    """
    rec = OpRecord(op.index, op.kind, op.n_max, op.family, 0.0)
    t0 = time.perf_counter()
    try:
        out = execute(op)
    except Exception as exc:  # a raising op is a failed op, never a crashed benchmark
        rec.latency_s = time.perf_counter() - t0
        rec.failure, rec.detail = type(exc).__name__, str(exc)[:300]
        return rec, 0.0
    t1 = time.perf_counter()
    rec.latency_s = t1 - t0
    try:
        rec.digits = check(op, out)
    except OpFailure as exc:
        rec.failure, rec.detail = exc.kind, str(exc)[:300]
    except Exception as exc:  # e.g. an unparseable CSV
        rec.failure, rec.detail = type(exc).__name__, str(exc)[:300]
    return rec, time.perf_counter() - t1


def tally(records) -> dict:
    """Attempted and failed ops, fail_frac, and failures per exception type."""
    failures: dict = {}
    for r in records:
        if r.failure is not None:
            failures[r.failure] = failures.get(r.failure, 0) + 1
    failed = sum(failures.values())
    return {"attempted": len(records), "failed": failed,
            "fail_frac": failed / len(records) if records else 0.0, "failures": failures}


def _balanced_class(seed: int, i: int) -> int:
    """n_max of op i: each block of three ops holds every size once."""
    perm = np.random.default_rng([seed, 1, i // 3]).permutation(len(NS))
    return NS[perm[i % 3]]


def _bvproblem(m: problems.Manufactured) -> "lagsob.BVProblem":
    return lagsob.BVProblem(lam=m.lam, rhs=m.f, exact=m.u, exact_deriv=m.du, label=m.family)


def warm_rules() -> None:
    """Build every rule the solver's size doubling can request (32..256)."""
    for alpha in (0.0, 1.0):
        m = 32
        while m <= 256:
            lagsob.gauss_laguerre(alpha, m)
            m *= 2


# Each workload fixes the percentile of op_tail_ms.  The op count of a run
# follows the CPU speed, so "the highest percentile with ten samples beyond
# it" would move with the machine; these leave ten or more beyond at the
# lowest op counts seen (127, 831 and 45 ops in 30 s).


class SolveMixed:
    name = "solve-mixed"
    pass_len = 6  # two blocks: every size once per family
    kernel = "small-array"  # calibration kernel shaped like the moment loop
    tail_percentile = 90  # >= 10 ops beyond it down to 100 ops per run

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        warm_rules()
        warm = problems.Manufactured("exp", lam=1.0, k=1.0, c=1.0)
        sol = lagsob.solve(_bvproblem(warm), 20)
        lagsob.sobolev_error(sol, 20)

    def spec(self, i: int) -> Op:
        block = i // 3
        family = problems.FAMILIES[(block + self.seed) % 2]
        # Blocks alternate families, so this is the op's place in its family's stream.
        m = problems.stream(self.seed, family, (block // 2) * 3 + i % 3)
        return Op(i, self.name, _balanced_class(self.seed, i), family,
                  {"problem": _bvproblem(m), "exact": m.u})

    @staticmethod
    def execute(op: Op):
        sol = lagsob.solve(op.args["problem"], op.n_max)
        eps = [lagsob.sobolev_error(sol, k) for k in range(op.n_max + 1)]
        return sol, eps

    @staticmethod
    def check(op: Op, out) -> float:
        sol, eps = out
        require_finite("uhat", sol.uhat)
        require_finite("sobolev_error", eps)
        approx = lagsob.partial_sum(sol, op.n_max, CHECK_GRID)
        return accuracy(op.family, op.n_max, approx, op.args["exact"](CHECK_GRID))


class EvalDense:
    name = "eval-dense"
    pass_len = 24  # every solved problem twice
    kernel = "composite"
    tail_percentile = 98  # >= 10 ops beyond it down to 500 ops per run
    replicas = 2  # solved problems per (n_max, family)
    direct_every = 4  # every 4th op of each size also runs sobolev_error_direct
    grid_points = (2_000, 20_000)
    grid_end = (20.0, 500.0)

    def __init__(self, seed: int):
        self.seed = seed
        self.solved: dict = {}

    def setup(self) -> None:
        warm_rules()
        for family in problems.FAMILIES:
            for j in range(len(NS) * self.replicas):
                n, replica = NS[j % len(NS)], j // len(NS)
                m = problems.stream(self.seed, family, j)
                self.solved[(n, family, replica)] = (m, lagsob.solve(_bvproblem(m), n))

    def spec(self, i: int) -> Op:
        n = _balanced_class(self.seed, i)
        block = i // 3  # also the op's place among the ops of size n
        # Over 8 blocks every solved problem comes twice, and the direct-error
        # ops (blocks 3 and 7) get one problem of each family.
        family = problems.FAMILIES[(block + block // 4) % 2]
        replica = (block // 2) % self.replicas
        m, sol = self.solved[(n, family, replica)]
        offsets = np.random.default_rng([self.seed, 3, n]).random(3)
        u_points, u_end, _ = problems.kronecker(offsets, block)
        lo, hi = self.grid_points
        x = np.linspace(0.0, self.grid_end[0] + (self.grid_end[1] - self.grid_end[0]) * u_end,
                        lo + round((hi - lo) * u_points))
        return Op(i, self.name, n, family,
                  {"sol": sol, "x": x, "m": m, "direct": block % self.direct_every == self.direct_every - 1})

    @staticmethod
    def execute(op: Op):
        sol, x, n = op.args["sol"], op.args["x"], op.n_max
        value = lagsob.partial_sum(sol, n, x)
        deriv = lagsob.partial_sum_deriv(sol, n, x)
        direct = lagsob.sobolev_error_direct(sol, n) if op.args["direct"] else None
        return value, deriv, direct

    @staticmethod
    def check(op: Op, out) -> float:
        """Digits on the grid points in [0, CHECK_X_MAX]; finiteness everywhere.

        Beyond that the order-n_max approximant of an algebraically decaying
        u is not meant to be accurate (its error there is truncation, not
        evaluation), so only the check region is held to the floors.
        """
        value, deriv, direct = out
        m, x = op.args["m"], op.args["x"]
        require_finite("partial_sum", value)
        require_finite("partial_sum_deriv", deriv)
        if direct is not None:
            require_finite("sobolev_error_direct", direct)
        inside = x <= CHECK_X_MAX
        return accuracy(op.family, op.n_max, value[inside], m.u(x[inside]))


# CLI op kinds, one cycle; the library n_max each passes (None: not a size class).
CLI_KINDS = (
    ("solve-builtin", 20),
    ("solve-expr", 20),
    ("coeffs", 200),
    ("validate", None),
    ("solve-builtin", 100),
)
BUILTIN_FAMILY = {"exp-decay": "exp", "rational-decay": "alg"}
# `validate` fails its sobolev-generating-function suite from lambda ~13 on
# (exit 1; exit 2 from ~55, where bessel_j leaves [0, 60]).  Validate ops stay
# below that; runner.py records a probe at VALIDATE_PROBE_LAM instead.
VALIDATE_LAM_LOG10 = (-2.0, 1.0)
VALIDATE_PROBE_LAM = 100.0
COEFFS_REL_TOL = 1e-10


class Cli:
    name = "cli"
    pass_len = 2 * len(CLI_KINDS)  # both builtin problems and both families
    kernel = "composite"
    tail_percentile = 75  # >= 10 ops beyond it down to 40 ops per run

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.env = child_env()

    def setup(self) -> None:
        """Nothing persists between CLI processes; set-up is the first invocation."""

    def spec(self, i: int) -> Op:
        cycle = i // len(CLI_KINDS)
        kind, n = CLI_KINDS[i % len(CLI_KINDS)]
        if kind == "solve-builtin":
            # A builtin problem fixes lambda = 1 (its exact solution depends on it).
            name = ("exp-decay", "rational-decay")[(cycle + self.seed) % 2]
            argv = ["solve", "--problem", name, "--nmax", str(n)]
            family = BUILTIN_FAMILY[name]
        elif kind == "solve-expr":
            family = problems.FAMILIES[(cycle + self.seed) % 2]
            m = problems.stream(self.seed, family, cycle // 2)
            f, u, du = m.expressions()
            argv = ["solve", "--lambda", f"{m.lam:.17g}", "--nmax", str(n),
                    "--f-expr", f, "--u-expr", u, "--du-expr", du]
        else:
            family = None
            log10_range = VALIDATE_LAM_LOG10 if kind == "validate" else problems.LAM_LOG10
            lam = 10.0 ** np.random.default_rng([self.seed, 4, i]).uniform(*log10_range)
            argv = [kind, "--lambda", f"{lam:.17g}"] + (["--nmax", str(n)] if n is not None else [])
        return Op(i, kind, n, family, {"argv": argv})

    def op_dir(self, op: Op) -> Path:
        return self.workdir / f"op{op.index}"

    def command(self, op: Op) -> list[str]:
        return [sys.executable, "-m", "lagsob"] + op.args["argv"] + ["--out-dir", str(self.op_dir(op))]

    def execute(self, op: Op, command: list[str] | None = None):
        out_dir = self.op_dir(op)
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        proc = subprocess.run(command or self.command(op), cwd=out_dir, env=self.env,
                              capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        return proc, out_dir

    def check(self, op: Op, out) -> float | None:
        proc, out_dir = out
        try:
            return check_cli_output(op, proc.returncode, proc.stdout, out_dir, proc.stderr)
        finally:
            op.args["csv_bytes"] = sum(p.stat().st_size for p in out_dir.glob("*.csv"))
            shutil.rmtree(out_dir, ignore_errors=True)


def _read_csv(path: Path, header: list[str], rows: int) -> list[list[float]]:
    if not path.is_file():
        raise OpFailure("MissingCsv", path.name)
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    if table[0] != header or len(table) != rows + 1:
        raise OpFailure("MalformedCsv", path.name)
    return [[float(v) for v in row] for row in table[1:]]


def check_cli_output(op: Op, returncode: int, stdout: str, out_dir: Path, stderr: str = "") -> float | None:
    """Exit code and CSV checks of one CLI op; digits for solve ops."""
    kind, n = op.kind, op.n_max
    allowed = (0, 3) if kind.startswith("solve") else (0,)
    if returncode not in allowed:
        raise OpFailure(f"ExitCode{returncode}", stderr.strip()[-200:])
    if kind == "validate":
        if "suites passed" not in stdout:
            raise OpFailure("ValidationOutput")
        return None
    if kind == "coeffs":
        rows = _read_csv(out_dir / "an_table.csv", ["n", "a_rec", "a_ratio", "abs_diff", "a_asymptotic"], n + 1)
        table = np.array(rows)
        require_finite("an_table", table[:, :4])
        if np.any(table[:, 3] > COEFFS_REL_TOL * np.abs(table[:, 1])):
            raise OpFailure("CoeffsDisagree")
        return None
    coeffs = _read_csv(out_dir / "coeffs.csv", ["n", "a_n", "g_n", "f_n", "s_n", "uhat_n", "quad_tol_achieved"], n + 1)
    require_finite("coeffs.csv", np.array(coeffs)[:, :6])
    sol = np.array(_read_csv(out_dir / "solution.csv", ["x", f"approx_{n}", "u_exact", "abs_err"], CHECK_GRID.size))
    conv = np.array(_read_csv(out_dir / "convergence.csv", ["n", "eps_n", "log10_eps_n"], n + 1))
    require_finite("convergence.csv", conv[:, 1])
    return accuracy(op.family, n, sol[:, 1], sol[:, 2])


def make(name: str, seed: int, workdir: Path):
    if name == SolveMixed.name:
        return SolveMixed(seed)
    if name == EvalDense.name:
        return EvalDense(seed)
    if name == Cli.name:
        return Cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (SolveMixed.name, EvalDense.name, Cli.name)
