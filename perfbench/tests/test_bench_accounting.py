"""Failure accounting of benchmark ops, the CLI output checks and the crash probe."""

from pathlib import Path

import numpy as np
import pytest

import lagsob
import lagsob.cli
import runner
import workloads
from workloads import Op, OpFailure, run_op


def _op(kind="solve-mixed", n_max=100, family="exp"):
    return Op(0, kind, n_max, family)


def _raise(op):
    raise ZeroDivisionError("boom")


def test_raising_nan_and_floor_misses_count_as_failures():
    exact = np.linspace(1.0, 2.0, 11)
    good = (lambda op: exact, lambda op, out: workloads.accuracy("exp", 100, out, exact))
    nan = (lambda op: np.array([1.0, np.nan]), lambda op, out: workloads.require_finite("x", out))
    coarse = (lambda op: exact * (1 + 1e-6), lambda op, out: workloads.accuracy("exp", 100, out, exact))
    broken_check = (lambda op: None, lambda op, out: out["missing"])
    records = [run_op(_op(), *case)[0] for case in
               (good, (_raise, good[1]), nan, coarse, broken_check)]
    assert [r.failure for r in records] == [
        None, "ZeroDivisionError", "NonFiniteResult", "AccuracyFloor", "TypeError"]
    assert records[0].digits == 17.0
    assert "boom" in records[1].detail
    t = workloads.tally(records)
    assert t["attempted"] == 5 and t["failed"] == 4 and t["fail_frac"] == pytest.approx(0.8)
    assert t["failures"] == {"ZeroDivisionError": 1, "NonFiniteResult": 1, "AccuracyFloor": 1, "TypeError": 1}


@pytest.fixture(scope="module")
def solve_csvs(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    assert lagsob.cli.main(["solve", "--problem", "exp-decay", "--nmax", "20", "--out-dir", str(out)]) == 0
    return out


def test_cli_exit_codes(solve_csvs, tmp_path):
    op = Op(0, "solve-builtin", 20, "exp")
    assert workloads.check_cli_output(op, 0, "", solve_csvs) > workloads.FLOORS[("exp", 20)]
    # 3 means "cap hit, files written": honest output, not a failure.
    assert workloads.check_cli_output(op, 3, "", solve_csvs) > 0
    for code in (1, 2, -9):
        with pytest.raises(OpFailure) as err:
            workloads.check_cli_output(op, code, "", solve_csvs, "error: nope")
        assert err.value.kind == f"ExitCode{code}"
    with pytest.raises(OpFailure) as err:
        workloads.check_cli_output(Op(0, "validate", None, None), 3, "", tmp_path)
    assert err.value.kind == "ExitCode3"


def test_cli_missing_or_broken_csvs_fail(solve_csvs, tmp_path):
    op = Op(0, "solve-builtin", 20, "exp")
    with pytest.raises(OpFailure) as err:
        workloads.check_cli_output(op, 0, "", tmp_path)
    assert err.value.kind == "MissingCsv"
    for name in ("coeffs.csv", "solution.csv", "convergence.csv"):
        (tmp_path / name).write_text((solve_csvs / name).read_text())
    lines = (tmp_path / "solution.csv").read_text().splitlines()
    (tmp_path / "solution.csv").write_text("\n".join(lines[:-1] + ["1.0,abc,0,0"]) + "\n")
    rec, _ = run_op(op, lambda o: None, lambda o, out: workloads.check_cli_output(o, 0, "", tmp_path))
    assert rec.failure == "ValueError"


def test_crash_probe_records_the_overflow_without_raising():
    out = runner.crash_probe()
    assert out["n_max"] == 238
    assert out["raised"] == "ValueError" and "990.8" in out["message"]


def test_tail_percentile_is_fixed_unless_fewer_than_ten_lie_beyond():
    xs = list(range(1, 101))
    assert runner.tail_latency(xs, 90) == (90, 90)
    assert runner.tail_latency(xs, 95) == (90, 90.0)  # 5 beyond: largest with 10 beyond
    assert runner.tail_latency([3, 1, 2], 75) == (3, 100.0)


def test_op_streams_are_seeded_and_balanced():
    a, b = workloads.SolveMixed(3), workloads.SolveMixed(3)
    ops = [a.spec(i) for i in range(12)]
    assert [o.n_max for o in ops] == [b.spec(i).n_max for i in range(12)]
    assert ops[4].args["problem"].lam == b.spec(4).args["problem"].lam
    for block in range(4):
        assert sorted(o.n_max for o in ops[3 * block:3 * block + 3]) == list(workloads.NS)
    assert {(o.n_max, o.family) for o in ops[:a.pass_len]} == {
        (n, f) for n in workloads.NS for f in ("exp", "alg")}
    cli = workloads.Cli(3, Path("unused"))
    kinds = [(o.kind, o.n_max) for o in (cli.spec(i) for i in range(cli.pass_len))]
    assert kinds == list(workloads.CLI_KINDS) * 2
    assert max(o.n_max or 0 for o in ops) <= 237
