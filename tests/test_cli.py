"""Command-line behavior: exit codes, CSV schemas, determinism."""

import csv
import dataclasses
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lagsob.validation
from lagsob import laguerre
from lagsob import (
    BVProblem,
    SobolevBasis,
    builtin_problem,
    connection_asymptotic,
    connection_ratio,
    connection_recurrence,
    gen_fun_sobolev,
    parse_expression,
    partial_sum,
    sobolev_basis,
    sobolev_coeffs,
    sobolev_error,
    sobolev_eval_all,
    solve,
    to_callable,
)
from lagsob.cli import main
from lagsob.validation import SUITE_NAMES


def read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSolveCommand:
    def test_builtin_exp_decay(self, tmp_path):
        code = main(
            ["solve", "--problem", "exp-decay", "--nmax", "8", "--count", "21",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "convergence.csv")
        assert header == ["n", "eps_n", "log10_eps_n"]
        assert len(rows) == 9
        eps = [float(r[1]) for r in rows]
        assert all(eps[i + 1] <= eps[i] for i in range(8))
        assert float(rows[0][2]) == pytest.approx(math.log10(eps[0]))

        header, rows = read_csv(tmp_path / "coeffs.csv")
        assert header == ["n", "a_n", "g_n", "f_n", "s_n", "uhat_n", "quad_tol_achieved"]
        assert float(rows[0][1]) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert float(rows[0][5]) == pytest.approx(0.16871491427704446, rel=1e-9)

        header, rows = read_csv(tmp_path / "solution.csv")
        assert header == ["x", "approx_8", "u_exact", "abs_err"]
        assert len(rows) == 21
        assert float(rows[0][1]) == 0.0  # boundary value at x = 0
        x, approx, exact, err = (float(v) for v in rows[10])
        assert err == pytest.approx(abs(approx - exact), rel=1e-12, abs=1e-17)

    def test_convergence_regression_fixture(self, tmp_path):
        # frozen from an exact-rational-arithmetic computation of the same
        # quantities; the quadrature route must reproduce every row to 1e-6
        fixture = [
            0.3948029165507343,
            0.24605782346383867,
            0.097113086672043922,
            0.026345005767912776,
            0.012355614651909088,
            0.01233578720310631,
            0.0092840265391547373,
            0.0045295413435639878,
            0.0014187759927820492,
            0.00029288546345051608,
            0.00010685937869876385,
            0.00010642644653931773,
            7.7855340526102791e-05,
            3.6297727648072948e-05,
            1.0829465823444722e-05,
            2.0688380251809883e-06,
            6.5290160627076629e-07,
            6.4641690030014355e-07,
            4.7296216751575322e-07,
            2.1848657153225258e-07,
            6.4469178903071459e-08,
        ]
        assert main(["solve", "--problem", "exp-decay", "--nmax", "20",
                     "--out-dir", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "convergence.csv")
        assert len(rows) == 21
        for row, expected in zip(rows, fixture):
            assert float(row[1]) == pytest.approx(expected, rel=1e-6)

    def test_grid_wider_than_the_table_store(self, tmp_path):
        # 20,001 points are one Clenshaw sweep in partial_sum, no S table; the CSV keeps every value.
        assert main(["solve", "--problem", "exp-decay", "--nmax", "20", "--count", "20001",
                     "--out-dir", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "solution.csv")
        grid = np.linspace(0.0, 20.0, 20001)
        expected = partial_sum(solve(builtin_problem("exp-decay"), 20), 20, grid)
        assert [float(r[0]) for r in rows] == grid.tolist()
        assert [float(r[1]) for r in rows] == expected.tolist()

    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert main(["solve", "--problem", "exp-decay", "--nmax", "6",
                         "--out-dir", str(d)]) == 0
        for name in ("solution.csv", "convergence.csv", "coeffs.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    @pytest.mark.parametrize(
        "n_max, line",
        [(0, "  eps_0 = 3.948029e-01"), (20, "  eps_0 = 3.948029e-01, eps_20 = 6.446918e-08")],
    )
    def test_eps_line_names_each_index_once(self, tmp_path, capsys, n_max, line):
        argv = ["solve", "--problem", "exp-decay", "--nmax", str(n_max), "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        eps_lines = [s for s in capsys.readouterr().out.splitlines() if "eps_0 =" in s]
        assert eps_lines == [line]

    @pytest.mark.parametrize(
        "n_max, line",
        [(0, "  uhat_0 = 0.168714914277"), (20, "  uhat_0 = 0.168714914277, uhat_20 = -2.99843385597e-05")],
    )
    def test_uhat_line_names_each_index_once(self, tmp_path, capsys, n_max, line):
        argv = ["solve", "--problem", "exp-decay", "--nmax", str(n_max), "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        uhat_lines = [s for s in capsys.readouterr().out.splitlines() if "uhat_0 =" in s]
        assert uhat_lines == [line]

    def test_zero_expression(self, tmp_path):
        code = main(["solve", "--f-expr", "0", "--nmax", "5", "--out-dir", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "coeffs.csv")
        assert all(float(r[5]) == 0.0 for r in rows)
        assert not (tmp_path / "convergence.csv").exists()

    def test_expression_with_exact_solution(self, tmp_path):
        code = main(
            ["solve", "--f-expr", "exp(-x)*(3*cos(x) - 2*(-1 + x)*sin(x))",
             "--u-expr", "x*cos(x)*exp(-x)",
             "--du-expr", "exp(-x)*(cos(x) - x*sin(x) - x*cos(x))",
             "--nmax", "6", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "convergence.csv").exists()

    def test_coeffs_a_n_column_is_the_connection_sequence(self, tmp_path):
        code = main(["solve", "--f-expr", "exp(-x)*sin(x)", "--lambda", "2", "--nmax", "7",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "coeffs.csv")
        assert [float(r[1]) for r in rows] == connection_ratio(2.0, 8).tolist()

    def test_rational_decay_reports_quadrature_cap(self, tmp_path):
        code = main(["solve", "--problem", "rational-decay", "--nmax", "20",
                     "--out-dir", str(tmp_path)])
        assert code == 3
        # files are still written, errors still monotone
        header, rows = read_csv(tmp_path / "convergence.csv")
        eps = [float(r[1]) for r in rows]
        assert len(eps) == 21
        assert all(eps[i + 1] <= eps[i] for i in range(20))
        _, crows = read_csv(tmp_path / "coeffs.csv")
        assert any(float(r[6]) > 1e-12 for r in crows)

    def test_worst_tolerance_includes_the_norm_integrals(self, tmp_path, capsys):
        # u = x does not decay, so both norm integrals stop at the cap (0.75 and
        # 0.50) while every moment reaches TOL; the line names the worst of all.
        code = main(["solve", "--f-expr", "exp(-x)", "--u-expr", "x", "--du-expr", "1",
                     "--nmax", "3", "--out-dir", str(tmp_path)])
        assert code == 3
        _, rows = read_csv(tmp_path / "coeffs.csv")
        assert all(float(r[6]) <= 1e-12 for r in rows)
        quad_lines = [s for s in capsys.readouterr().out.splitlines() if "quadrature:" in s]
        assert quad_lines == [
            "  quadrature: worst achieved tolerance 7.549e-01 "
            "(NOT converged at cap: norm integral u_sq_over_x missed TOL 1e-12)"
        ]

    def test_config_errors(self, tmp_path):
        out = ["--out-dir", str(tmp_path)]
        assert main(["solve"] + out) == 2
        assert main(["solve", "--problem", "exp-decay", "--f-expr", "0"] + out) == 2
        assert main(["solve", "--f-expr", "0", "--u-expr", "0"] + out) == 2
        assert main(["solve", "--f-expr", "2*"] + out) == 2
        assert main(["solve", "--problem", "exp-decay", "--lambda", "2"] + out) == 2
        assert main(["solve", "--f-expr", "0", "--lambda", "-1"] + out) == 2

    def test_overflowing_moment_is_one_error_line(self, tmp_path, capsys):
        # L_238^{(1)} overflows at the far node of the 256-point rule: the
        # error line names that node, and numpy warns nothing before it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["solve", "--problem", "exp-decay", "--nmax", "238", "--out-dir", str(tmp_path)]
            assert main(argv) == 2
        assert capsys.readouterr().err == "error: integrand returned nan at node x=990.8148070068848\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--f-expr", "exp(-x)", "--du-expr", "x"], "--du-expr"),
            (["--problem", "exp-decay", "--u-expr", "x", "--du-expr", "1"], "--u-expr"),
        ],
        ids=["du-without-u", "exact-with-problem"],
    )
    def test_ignored_expression_flags_are_config_errors(self, tmp_path, capsys, argv, flag):
        assert main(["solve", *argv, "--out-dir", str(tmp_path)]) == 2
        assert flag in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_too_deep_expression_is_one_error_line(self, tmp_path, capsys):
        # A 1,000-term sum is deeper than the expression language's bound.
        f_expr = "+".join(["x"] * 1000)
        assert main(["solve", "--f-expr", f_expr, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: --f-expr: expression nested deeper than 250 levels at offset 501\n"
        )
        assert not any(tmp_path.iterdir())

    def test_non_ascii_digit_is_one_error_line(self, tmp_path, capsys):
        assert main(["solve", "--f-expr", "\u0663*x", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: --f-expr: malformed number at offset 0\n"
        assert not any(tmp_path.iterdir())


class TestCoeffsCommand:
    def test_table_values(self, tmp_path):
        assert main(["coeffs", "--nmax", "2", "--out-dir", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "an_table.csv")
        assert header == ["n", "a_rec", "a_ratio", "abs_diff", "a_asymptotic"]
        a_rec = [float(r[1]) for r in rows]
        assert a_rec == pytest.approx([1 / 3, 9 / 23, 23 / 53], abs=1e-15)
        assert all(float(r[3]) <= 1e-12 for r in rows)
        assert rows[0][4] == rows[0][1]  # the fixed point at n = 0 is a_0

    def test_lambda_flows_through(self, tmp_path):
        assert main(["coeffs", "--lambda", "2", "--nmax", "1", "--out-dir", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "an_table.csv")
        assert float(rows[0][1]) == pytest.approx(1.0 / 5.0, abs=1e-15)

    @pytest.mark.parametrize("lam", ["1000", "1e200"])
    def test_large_lambda_stays_finite(self, tmp_path, lam):
        # L_n^{(1)}(-4000) leaves double range from n = 170 on, and one step
        # at -4e200 multiplies by ~4e200; the ratio column must stay finite.
        assert main(["coeffs", "--lambda", lam, "--nmax", "400",
                     "--out-dir", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "an_table.csv")
        assert len(rows) == 401
        for r in rows:
            a_rec, a_rat, diff = (float(v) for v in r[1:4])
            assert all(math.isfinite(v) for v in (a_rec, a_rat, diff))
            assert diff <= 1e-10 * a_rec
        assert all(0.0 < float(r[4]) < 1.0 for r in rows)

    @pytest.mark.parametrize("lam", ["1e-14", "3e-15"])
    def test_tiny_lambda_ratio_column_stays_below_one(self, tmp_path, lam):
        # 1 - a_n ~ 2 lam lives in the last digits of L_n^{(1)}(-4 lam) ~ n + 1;
        # the ratio sweep in difference form keeps it, so no a_ratio rounds to 1.
        assert main(["coeffs", "--lambda", lam, "--nmax", "1000", "--out-dir", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "an_table.csv")
        assert len(rows) == 1001
        assert all(0.0 < float(r[2]) < 1.0 for r in rows)

    def test_one_ratio_sweep_per_run(self, tmp_path, monkeypatch):
        # coeffs and the validate connection suite each take the whole
        # closed-form sequence from one call, not one call per index.
        calls = []

        def spy(lam, n_max):
            calls.append(n_max)
            return connection_ratio(lam, n_max)

        monkeypatch.setattr("lagsob.cli.connection_ratio", spy)
        monkeypatch.setattr("lagsob.validation.connection_ratio", spy)
        assert main(["coeffs", "--nmax", "200", "--out-dir", str(tmp_path)]) == 0
        assert calls == [201]
        calls.clear()
        assert main(["validate"]) == 0
        assert calls == [201]


class TestBasisCommand:
    def test_printed_coefficients(self, tmp_path):
        assert main(["basis", "--nmax", "4", "--count", "5", "--out-dir", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "basis_coeffs.csv")
        assert header == ["n", "c0", "c1", "c2", "c3", "c4"]
        assert float(rows[1][1]) == pytest.approx(5.0 / 3.0, abs=1e-14)
        assert float(rows[1][2]) == pytest.approx(-1.0, abs=1e-14)
        assert rows[1][3] == ""
        assert float(rows[4][1]) == pytest.approx(2045.0 / 567.0, abs=1e-13)
        assert float(rows[4][5]) == pytest.approx(1.0 / 24.0, abs=1e-15)

        header, rows = read_csv(tmp_path / "basis_samples.csv")
        assert header == ["x", "S0", "S1", "S2", "S3", "S4"]
        assert len(rows) == 5

    def test_rejects_large_nmax(self, tmp_path, capsys):
        assert main(["basis", "--nmax", "31", "--out-dir", str(tmp_path)]) == 2
        assert "coefficient mode" in capsys.readouterr().err


class TestValidateCommand:
    def test_default_run_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_other_lambda_passes(self):
        assert main(["validate", "--lambda", "2"]) == 0

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(log_lam=st.floats(-15.0, 300.0))
    @example(log_lam=math.log10(13.0))
    @example(log_lam=math.log10(60.0))
    @example(log_lam=math.log10(200.0))
    @example(log_lam=9.0)
    def test_every_suite_passes_across_lambda(self, log_lam):
        # Past lam = 10 the generating-function suite scales omega by 10/lam,
        # so one depth of 700 holds everywhere, and no suite may warn.  With a
        # fixed omega the series needed more than 700 terms at 13, and the
        # closed form left bessel_j's range at 60 and overflowed at 200 and 1e9.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = lagsob.validation.run_suites(10.0**log_lam)
        assert [name for name, ok, _ in results if not ok] == [], results

    def test_fault_injection_trips_gram_suite(self, capsys, monkeypatch):
        # a_0 off by 1e-6; the basis derives its norms from the shifted sequence.
        def shifted_basis(lam, n_max):
            a = sobolev_basis(lam, n_max).a.copy()
            a[0] += 1e-6
            return SobolevBasis(lam=lam, a=a)

        monkeypatch.setattr("lagsob.validation.sobolev_basis", shifted_basis)
        assert main(["validate"]) == 1
        out = capsys.readouterr()
        assert "sobolev-gram" in out.err

    def test_nan_residual_is_a_fail_line(self, capsys, monkeypatch):
        # A running max() used to drop NaN residuals and print PASS.
        monkeypatch.setattr(lagsob.validation, "alternating_sum_check", lambda *args: math.nan)
        assert main(["validate"]) == 1
        lines = capsys.readouterr().out.splitlines()
        alt = lines[SUITE_NAMES.index("alternating-sum")].split()
        assert alt[:2] == ["alternating-sum", "FAIL"]
        assert "nan" in alt

    def test_overflowing_generating_function_fails_without_warnings(self):
        # At lam = 1e9 and omega = 0.5 the series weights omega^n / (a_0 ... a_{n-1})
        # leave double range: gen_fun_sobolev raises, it does not warn on the way.
        basis = sobolev_basis(1e9, 700)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                gen_fun_sobolev(basis, 2.0, 0.5)

    def test_failing_suites_share_one_stderr_line(self, capsys):
        # At lam = 1e-16 a_1 rounds to 1, so both suites that take the
        # recurrence fail; the others still run and pass.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--lambda", "1e-16"]) == 1
        out, err = capsys.readouterr()
        failed = [line.split()[0] for line in out.splitlines() if line.split()[1] == "FAIL"]
        assert failed == ["connection-coefficients", "alternating-sum"]
        assert err == "validation failed: connection-coefficients, alternating-sum\n"

    @pytest.mark.parametrize("lam", [1e-3, 1.0, 13.0, 200.0, 1000.0, 2e5, 1e9])
    def test_sobolev_gram_passes_across_lambda(self, lam):
        # Formed from basis tables on the rule nodes, not from monomial
        # coefficients, whose rounding reaches 1.3e-9 at lam = 200.  The
        # off-diagonal bound 8e-14 sqrt(s(i) s(j)) grows with the entries, so
        # it holds at 2e5 and 1e9 as well.
        results = {name: (ok, detail) for name, ok, detail in lagsob.validation.run_suites(lam)}
        ok, detail = results["sobolev-gram"]
        assert ok, detail

    @pytest.mark.parametrize("error", [ValueError, OverflowError])
    def test_raising_suite_is_a_fail_line(self, capsys, monkeypatch, error):
        # A suite that raises (as bessel_j's range check or math.exp would)
        # fails alone; main still runs every suite and returns.
        def raising(*args):
            raise error("out of range")

        monkeypatch.setattr(lagsob.validation, "gen_fun_sobolev", raising)
        assert main(["validate"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == SUITE_NAMES
        assert [line.split()[1] for line in lines] == ["PASS"] * 9 + ["FAIL"]
        assert lines[-1].split(None, 2)[2] == f"raised {error.__name__}: out of range"

    @pytest.mark.parametrize(
        "change, detail",
        [({"weights": -np.ones(3)}, "invalid rule alpha=0.0, m=3"),
         ({"nodes": np.array([10.0, 20.0, 30.0])}, "interlacing failed alpha=0.0, m=3")],
        ids=["negative-weight", "not-interlacing"],
    )
    def test_broken_rule_fails_quadrature_suite(self, monkeypatch, change, detail):
        # Every 3-point rule gets a negative weight, or nodes that the 2-point
        # rule's do not interlace; the first one checked is named.
        rules = lagsob.validation._rules
        monkeypatch.setattr(lagsob.validation, "_rules", lambda alpha, sizes: [
            dataclasses.replace(r, **change) if r.size == 3 else r for r in rules(alpha, sizes)])
        results = {name: (ok, text) for name, ok, text in lagsob.validation.run_suites(1.0)}
        assert results.pop("quadrature-exactness") == (False, detail)
        assert all(ok for ok, _ in results.values())

    def test_connection_past_its_bound_fails_its_suite(self, monkeypatch):
        recurrence = lagsob.validation.connection_recurrence

        def with_a5_of_one(lam, n_max):
            a = recurrence(lam, n_max).copy()
            a[5] = 1.0
            return a

        monkeypatch.setattr(lagsob.validation, "connection_recurrence", with_a5_of_one)
        results = {name: (ok, text) for name, ok, text in lagsob.validation.run_suites(1.0)}
        ok, detail = results.pop("connection-coefficients")
        assert not ok and detail == "bound violated at n=5: a=1.0"
        assert all(ok for ok, _ in results.values())

    def test_rejects_nmax(self):
        # validate runs fixed-size suites; --nmax is not one of its options.
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--nmax", "5"])
        assert exc.value.code == 2


class TestEnvironment:
    def test_only_out_dir_moves_output(self, tmp_path, monkeypatch):
        # LAGSOB_OUT_DIR once overrode --out-dir; no environment variable does now.
        env_dir = tmp_path / "env_target"
        flag_dir = tmp_path / "flag_target"
        monkeypatch.setenv("LAGSOB_OUT_DIR", str(env_dir))
        assert main(["coeffs", "--nmax", "1", "--out-dir", str(flag_dir)]) == 0
        assert (flag_dir / "an_table.csv").exists()
        assert not env_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--problem", "exp-decay", "--nmax", "2"], ["coeffs", "--nmax", "2"],
         ["basis", "--nmax", "2"]],
        ids=["solve", "coeffs", "basis"],
    )
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_unwritable_out_dir_is_a_configuration_error(self, tmp_path, argv, below):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        out_dir = blocker / "sub" if below else blocker
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "lagsob", *argv, "--out-dir", str(out_dir)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot write ") and str(out_dir) in proc.stderr


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Each command of the sh block under README's "Command line" heading, as an argv."""
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert commands and all(argv[0] == "lagsob" for argv in commands)
    return commands


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: " ".join(argv[1:3]))
def test_readme_commands_run(tmp_path, monkeypatch, argv):
    # The documented commands, as written, with the working directory as the default --out-dir.
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0


def _fmt(v):
    return f"{v:.17g}"


def reference_csv(header, rows):
    """Bytes of the CLI's former row-by-row writer: one list of str cells per row."""
    return (header + "\n" + "".join(",".join(row) + "\n" for row in rows)).encode()


class TestColumnWriter:
    """Every CSV equals, byte for byte, the former row-by-row formatting of the same values."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--problem", "exp-decay", "--nmax", "12"],
            ["--f-expr", "exp(-x)*sin(x)", "--lambda", "2", "--nmax", "7"],
            ["--f-expr", "0", "--u-expr", "0", "--du-expr", "0", "--nmax", "3"],
        ],
        ids=["exact", "no-exact", "zero-error"],
    )
    def test_solve_files(self, tmp_path, argv):
        assert main(["solve", *argv, "--count", "31", "--out-dir", str(tmp_path)]) == 0
        args = dict(zip(argv[::2], argv[1::2]))
        n_max = int(args["--nmax"])
        if "--problem" in args:
            problem = builtin_problem(args["--problem"])
        else:
            exact, exact_deriv = (
                to_callable(parse_expression(args[flag])) if flag in args else None
                for flag in ("--u-expr", "--du-expr")
            )
            problem = BVProblem(
                lam=float(args.get("--lambda", 1.0)),
                rhs=to_callable(parse_expression(args["--f-expr"])),
                exact=exact,
                exact_deriv=exact_deriv,
            )
        sol = solve(problem, n_max)

        rows = []
        for n in range(n_max + 1):
            rows.append([str(n), _fmt(sol.basis.a[n]), _fmt(sol.g[n]), _fmt(sol.fhat[n]),
                         _fmt(sol.basis.s[n]), _fmt(sol.uhat[n]),
                         _fmt(sol.quad_report[n].achieved_tol)])
        assert (tmp_path / "coeffs.csv").read_bytes() == reference_csv(
            "n,a_n,g_n,f_n,s_n,uhat_n,quad_tol_achieved", rows)

        grid = np.linspace(0.0, 20.0, 31)
        approx = partial_sum(sol, n_max, grid)
        if problem.exact is None:
            header = f"x,approx_{n_max}"
            rows = [[_fmt(x), _fmt(a)] for x, a in zip(grid, approx)]
        else:
            exact_vals = np.asarray(problem.exact(grid), dtype=float)
            header = f"x,approx_{n_max},u_exact,abs_err"
            rows = [[_fmt(x), _fmt(a), _fmt(u), _fmt(abs(a - u))]
                    for x, a, u in zip(grid, approx, exact_vals)]
        assert (tmp_path / "solution.csv").read_bytes() == reference_csv(header, rows)

        if problem.exact is None:
            assert not (tmp_path / "convergence.csv").exists()
            return
        eps = [sobolev_error(sol, n) for n in range(n_max + 1)]
        rows = [[str(n), _fmt(e), _fmt(math.log10(e)) if e > 0.0 else "-inf"]
                for n, e in enumerate(eps)]
        assert (tmp_path / "convergence.csv").read_bytes() == reference_csv(
            "n,eps_n,log10_eps_n", rows)

    def test_an_table(self, tmp_path):
        assert main(["coeffs", "--lambda", "3", "--nmax", "40", "--out-dir", str(tmp_path)]) == 0
        a_rec, a_rat = connection_recurrence(3.0, 41), connection_ratio(3.0, 41)
        rows = []
        for n in range(41):
            asym = connection_asymptotic(3.0, n)
            rows.append([str(n), _fmt(a_rec[n]), _fmt(a_rat[n]),
                         _fmt(abs(a_rec[n] - a_rat[n])), _fmt(asym)])
        assert rows[0][4] == rows[0][1]
        assert (tmp_path / "an_table.csv").read_bytes() == reference_csv(
            "n,a_rec,a_ratio,abs_diff,a_asymptotic", rows)

    def test_basis_files(self, tmp_path):
        assert main(["basis", "--lambda", "0.5", "--nmax", "6", "--count", "9",
                     "--out-dir", str(tmp_path)]) == 0
        basis = sobolev_basis(0.5, 6)
        rows = []
        for n in range(7):
            c = sobolev_coeffs(basis, n).coef
            rows.append([str(n)] + [_fmt(v) for v in c] + [""] * (6 - n))
        assert (tmp_path / "basis_coeffs.csv").read_bytes() == reference_csv(
            "n," + ",".join(f"c{k}" for k in range(7)), rows)

        grid = np.linspace(0.0, 20.0, 9)
        vals = sobolev_eval_all(basis, 6, grid)
        rows = [[_fmt(x)] + [_fmt(vals[k, i]) for k in range(7)] for i, x in enumerate(grid)]
        assert (tmp_path / "basis_samples.csv").read_bytes() == reference_csv(
            "x," + ",".join(f"S{k}" for k in range(7)), rows)


def run_fresh(cwd, *args):
    """python *args in a new interpreter on this checkout's src, with nothing loaded or stored yet."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


NO_SCIPY_SCRIPT = """
import sys
import lagsob, lagsob.cli
from lagsob import builtin_problem, solve, sobolev_error
sol = solve(builtin_problem("exp-decay"), 100)
eps = [sobolev_error(sol, n) for n in range(101)]
assert lagsob.cli.main(["coeffs", "--nmax", "200"]) == 0
assert lagsob.cli.main(["solve", "--problem", "exp-decay", "--nmax", "20"]) == 0
assert lagsob.cli.main(["validate"]) == 0
value = lagsob.bessel_j(0.0, 1.0)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_solve_coeffs_and_errors_load_no_scipy(tmp_path):
    # a fresh process, so no other test has imported scipy first
    proc = run_fresh(tmp_path, "-c", NO_SCIPY_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "an_table.csv").exists() and (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["solve", "--problem", "exp-decay", "--nmax", "5"], "--count"),
        (["basis"], "--count"),
        (["solve", "--problem", "exp-decay"], "--nmax"),
        (["coeffs"], "--nmax"),
        (["basis"], "--nmax"),
    ],
    ids=["solve", "basis", "solve-nmax", "coeffs-nmax", "basis-nmax"],
)
def test_negative_count_is_a_config_error(tmp_path, capsys, argv, flag):
    # Refused in main, before any file is written, by a message naming the flag.
    assert main(argv + [flag, "-1", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {flag} must be >= 0\n"
    assert not any(tmp_path.iterdir())


# (subcommands, a spelling the docs do not give): --n-max, and strict prefixes
# that argparse would otherwise expand to --nmax, --out-dir, --lambda, --f-expr,
# --problem, --x-max and --count.
SECOND_SPELLINGS = [
    ("solve coeffs basis validate", "--n-max 5"),
    ("solve coeffs basis", "--nm 3"),
    ("solve coeffs basis validate", "--out elsewhere"),
    ("solve coeffs basis validate", "--lam 2"),
    ("solve", "--f x"),
    ("solve", "--prob exp-decay"),
    ("solve basis", "--x-ma 5"),
    ("solve basis", "--co 5"),
]
FULL_SPELLINGS = [("solve", "--nmax=3"), ("coeffs", "--nmax=3"), ("basis", "--count=5"),
                  ("validate", "--lambda=2")]


@pytest.mark.parametrize(
    "command, spelling, refused",
    [pytest.param(c, s, True, id=f"{c}{s.split()[0]}") for cs, s in SECOND_SPELLINGS for c in cs.split()]
    + [pytest.param(c, s, False, id=f"{c}{s}") for c, s in FULL_SPELLINGS],
)
def test_no_option_has_a_second_spelling(tmp_path, capsys, command, spelling, refused):
    # Options are spelled in full: argparse refuses any other spelling before a file
    # is written, and the full one still parses in --flag=value form.
    argv = [command, *(["--problem", "exp-decay"] if command == "solve" else []), *spelling.split(),
            "--out-dir", str(tmp_path)]
    if not refused:
        assert main(argv) == 0
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {spelling}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("lam", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize(
    "argv", [["solve", "--problem", "exp-decay"], ["coeffs"], ["basis"], ["validate"]],
    ids=["solve", "coeffs", "basis", "validate"],
)
def test_invalid_lambda_is_a_config_error(tmp_path, capsys, argv, lam):
    # The library's lam check owns the rule, so NaN and inf fail like 0 and -1.
    assert main(argv + ["--lambda", lam, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("flag", ["--x-min", "--x-max"])
@pytest.mark.parametrize(
    "argv", [["solve", "--problem", "exp-decay", "--nmax", "5"], ["basis"]], ids=["solve", "basis"]
)
def test_nonfinite_grid_end_is_a_config_error(tmp_path, capsys, argv, flag, value):
    # Refused in main beside --count, before coeffs.csv or basis_coeffs.csv is written.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + [f"{flag}={value}", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {flag} must be finite, got {float(value)!r}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv", [["coeffs"], ["basis"], ["solve", "--f-expr", "exp(-x)"]], ids=["coeffs", "basis", "solve"]
)
def test_lambda_too_small_is_one_error_line(tmp_path, capsys, argv):
    # Every a_n rounds to 1 at lambda = 1e-17: a configuration error, no traceback.
    assert main(argv + ["--lambda", "1e-17", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: lambda=1e-17 is too small for n_max=20: a_0 rounds to 1\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv", [["coeffs"], ["basis"], ["solve", "--f-expr", "exp(-x)"]], ids=["coeffs", "basis", "solve"]
)
def test_lambda_whose_four_lambda_overflows_is_one_error_line(tmp_path, capsys, argv):
    # -4 lam would be -inf and the ratio sweep's a_0 zero: refused before any sweep.
    assert main(argv + ["--lambda", "1e308", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: potential strength must satisfy lam > 0 and 4*lam finite, got 1e+308\n"
    assert not any(tmp_path.iterdir())


LAZY_SCRIPT = """
import sys
import lagsob.cli

def loaded():
    return sorted(m for m in ("lagsob.expressions", "lagsob.validation") if m in sys.modules)

assert lagsob.cli.main(["coeffs", "--nmax", "20"]) == 0
assert lagsob.cli.main(["solve", "--problem", "exp-decay", "--nmax", "5"]) == 0
assert loaded() == [], loaded()
assert lagsob.cli.main(["validate"]) == 0
assert loaded() == ["lagsob.validation"], loaded()

import lagsob
assert lagsob.to_callable is lagsob.expressions.to_callable
assert "to_callable" not in vars(lagsob)  # looked up on each access, so a rebinding shows
lagsob.expressions.to_callable = len
assert lagsob.to_callable is len
"""


def test_commands_load_only_the_modules_they_run(tmp_path):
    # A fresh process, so no other test has loaded either module first.
    proc = run_fresh(tmp_path, "-c", LAZY_SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_a_cold_process_writes_the_bytes_of_a_warm_table_store(tmp_path):
    # The console script starts with an empty Laguerre table store.  Here the
    # n = 100 solve reads prefixes of the deeper tables an n = 200 solve stored.
    # Both exit 3: the moments from index 60 on hit the quadrature cap.
    argv = ["solve", "--problem", "exp-decay", "--nmax", "100", "--out-dir"]
    proc = run_fresh(tmp_path, "-m", "lagsob", *argv, "cold")
    assert proc.returncode == 3, proc.stderr
    laguerre._TABLES.clear()
    solve(builtin_problem("exp-decay"), 200)
    assert all(len(table) == 201 for table in laguerre._TABLES.values())
    assert main(argv + [str(tmp_path / "warm")]) == 3
    for name in ("coeffs", "solution", "convergence"):
        assert (tmp_path / "warm" / f"{name}.csv").read_bytes() == (tmp_path / "cold" / f"{name}.csv").read_bytes()


def test_cli_module_launches_like_the_package(tmp_path):
    # python -m lagsob.cli runs cli.main through its __main__ guard, beside lagsob/__main__.py.
    argv = ["solve", "--problem", "exp-decay", "--nmax", "5", "--out-dir"]
    codes = {m: run_fresh(tmp_path, "-m", m, *argv, m).returncode for m in ("lagsob", "lagsob.cli")}
    assert codes == {"lagsob": 0, "lagsob.cli": 0}
    names = sorted(p.name for p in (tmp_path / "lagsob").iterdir())
    assert names == ["coeffs.csv", "convergence.csv", "solution.csv"]
    assert sorted(p.name for p in (tmp_path / "lagsob.cli").iterdir()) == names
    for name in names:
        assert (tmp_path / "lagsob.cli" / name).read_bytes() == (tmp_path / "lagsob" / name).read_bytes()
