"""Command-line front-end: solve, coeffs, basis, validate.

All numeric output goes to CSV files with a one-line header, '.' decimal
separator and 17 significant digits, so two runs with the same configuration
produce byte-identical files and any plotting tool can re-create the
convergence and basis figures from them.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 quadrature non-convergence (files are still written).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .sobolev import (
    _check_lam,
    connection_asymptotic,
    connection_ratio,
    connection_recurrence,
    sobolev_basis,
    sobolev_coeffs,
    sobolev_eval_all,
)
from .solver import (
    DEFAULT_N_MAX,
    BVProblem,
    builtin_problem,
    partial_sum,
    sobolev_error,
    solve,
)

__all__ = ["main", "run_solve", "run_coeffs", "run_basis", "run_validate"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_QUADRATURE = 3

COEFF_MODE_LIMIT = 30


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_csv(path: Path, header: str, *columns) -> None:
    """One row per zipped cell of columns; str cells as they are, the rest via _fmt."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n")


def _config_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def _expression(flag: str, text: str):
    from .expressions import ExpressionError, parse_expression, to_callable
    try:
        return to_callable(parse_expression(text))
    except ExpressionError as exc:
        raise ValueError(f"{flag}: {exc}")


def _make_problem(args):
    """BVProblem from --problem or --f-expr (plus optional exact solution)."""
    if (args.problem is None) == (args.f_expr is None):
        raise ValueError("exactly one of --problem and --f-expr must be given")
    if args.problem is not None:
        if args.u_expr is not None or args.du_expr is not None:
            raise ValueError(
                f"--u-expr and --du-expr do not apply to --problem {args.problem} "
                "(it has its own exact solution)"
            )
        return builtin_problem(args.problem)
    if (args.u_expr is None) != (args.du_expr is None):
        raise ValueError("--u-expr and --du-expr must be given together for error reporting")
    rhs = _expression("--f-expr", args.f_expr)
    exact = exact_deriv = None
    if args.u_expr is not None:
        exact = _expression("--u-expr", args.u_expr)
        exact_deriv = _expression("--du-expr", args.du_expr)
    return BVProblem(
        lam=args.lam, rhs=rhs, exact=exact, exact_deriv=exact_deriv, label="custom"
    )


def run_solve(args) -> int:
    try:
        problem = _make_problem(args)
    except ValueError as exc:
        return _config_error(str(exc))
    if args.problem is not None and args.lam != problem.lam:
        return _config_error(
            f"--problem {args.problem} fixes --lambda {problem.lam:g} "
            f"(its attached exact solution depends on it)"
        )

    sol = solve(problem, n_max=args.n_max)
    out = args.out_dir

    have_exact = problem.exact is not None and problem.exact_deriv is not None

    # coeffs.csv: the basis carries a_0..a_{n_max}, one a_n per row.
    _write_csv(
        out / "coeffs.csv", "n,a_n,g_n,f_n,s_n,uhat_n,quad_tol_achieved",
        range(args.n_max + 1), sol.basis.a, sol.g, sol.fhat, sol.basis.s, sol.uhat,
        [r.achieved_tol for r in sol.quad_report],
    )

    # solution.csv on the sample grid.
    grid = np.linspace(args.x_min, args.x_max, args.count)
    approx = partial_sum(sol, args.n_max, grid)
    if have_exact:
        exact_vals = np.asarray(problem.exact(grid), dtype=float)
        _write_csv(out / "solution.csv", f"x,approx_{args.n_max},u_exact,abs_err",
                   grid, approx, exact_vals, np.abs(approx - exact_vals))
    else:
        _write_csv(out / "solution.csv", f"x,approx_{args.n_max}", grid, approx)

    # convergence.csv needs the exact solution.
    eps = None
    if have_exact:
        eps = [sobolev_error(sol, n) for n in range(args.n_max + 1)]
        _write_csv(out / "convergence.csv", "n,eps_n,log10_eps_n", range(args.n_max + 1), eps,
                   [math.log10(e) if e > 0.0 else "-inf" for e in eps])

    quad_ok = sol.quad_converged and all(r.converged for r in sol.norm_report.values())

    label = problem.label or "custom"
    print(f"problem {label}: lam={problem.lam:g}, n_max={args.n_max}")
    print(f"  uhat_0 = {sol.uhat[0]:.12g}, uhat_{args.n_max} = {sol.uhat[args.n_max]:.12g}")
    if eps is not None:
        last = f", eps_{args.n_max} = {eps[args.n_max]:.6e}" if args.n_max > 0 else ""
        print(f"  eps_0 = {eps[0]:.6e}{last}")
    worst = max(r.achieved_tol for r in sol.quad_report)
    print(f"  quadrature: worst achieved tolerance {worst:.3e} "
          f"({'converged' if quad_ok else 'NOT converged at cap'})")
    print(f"  wrote {out / 'coeffs.csv'}, {out / 'solution.csv'}"
          + (f", {out / 'convergence.csv'}" if eps is not None else ""))
    return EXIT_OK if quad_ok else EXIT_QUADRATURE


def run_coeffs(args) -> int:
    a_rec = connection_recurrence(args.lam, args.n_max + 1)
    a_rat = connection_ratio(args.lam, args.n_max + 1)
    asym = [math.nan] + [connection_asymptotic(args.lam, n) for n in range(1, args.n_max + 1)]
    out = args.out_dir
    _write_csv(out / "an_table.csv", "n,a_rec,a_ratio,abs_diff,a_asymptotic",
               range(args.n_max + 1), a_rec, a_rat, np.abs(a_rec - a_rat), asym)
    print(f"wrote {out / 'an_table.csv'} ({args.n_max + 1} rows, lam={args.lam:g})")
    return EXIT_OK


def run_basis(args) -> int:
    if args.n_max > COEFF_MODE_LIMIT:
        return _config_error(
            f"--nmax {args.n_max} exceeds coefficient mode limit {COEFF_MODE_LIMIT}; "
            f"sample larger bases pointwise via 'solve' outputs instead"
        )
    basis = sobolev_basis(args.lam, args.n_max)
    out = args.out_dir

    # One row per n: its coefficients c_0..c_n, then blanks up to c_{n_max}.
    cells = [
        [n, *sobolev_coeffs(basis, n).coef] + [""] * (args.n_max - n)
        for n in range(args.n_max + 1)
    ]
    header = "n," + ",".join(f"c{k}" for k in range(args.n_max + 1))
    _write_csv(out / "basis_coeffs.csv", header, *zip(*cells))

    grid = np.linspace(args.x_min, args.x_max, args.count)
    header = "x," + ",".join(f"S{k}" for k in range(args.n_max + 1))
    _write_csv(out / "basis_samples.csv", header, grid, *sobolev_eval_all(basis, args.n_max, grid))
    print(f"wrote {out / 'basis_coeffs.csv'} and {out / 'basis_samples.csv'} (lam={args.lam:g})")
    return EXIT_OK


def run_validate(args) -> int:
    from .validation import run_suites
    results = run_suites(args.lam)
    width = max(len(name) for name, _, _ in results)
    failed = []
    for name, ok, detail in results:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"validation failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"all {len(results)} suites passed (lam={args.lam:g})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagsob",
        description="Laguerre-Sobolev basis and diagonalized spectral solver for "
        "-u'' + (lambda/x) u = f on (0, inf)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, grid=False, nmax=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                       help="potential strength lambda > 0 (default %(default)s)")
        if nmax:
            p.add_argument("--nmax", "--n-max", dest="n_max", type=int, default=DEFAULT_N_MAX,
                           help="highest basis index (default %(default)s)")
        p.add_argument("--out-dir", dest="out_dir", type=Path, default=Path.cwd(),
                       help="output directory (default: the working directory)")
        if grid:
            p.add_argument("--x-min", dest="x_min", type=float, default=0.0)
            p.add_argument("--x-max", dest="x_max", type=float, default=20.0)
            p.add_argument("--count", dest="count", type=int, default=401,
                           help="number of sample-grid points (default %(default)s)")
        return p

    p_solve = command("solve", run_solve, "solve a boundary value problem", grid=True)
    p_solve.add_argument("--problem", choices=["exp-decay", "rational-decay"],
                         help="builtin problem name")
    p_solve.add_argument("--f-expr", dest="f_expr", help="right-hand side f(x) as an expression")
    p_solve.add_argument("--u-expr", dest="u_expr", help="exact solution u(x) for error reporting")
    p_solve.add_argument("--du-expr", dest="du_expr", help="derivative u'(x), required with --u-expr")

    command("coeffs", run_coeffs, "tabulate connection coefficients a_n")
    command("basis", run_basis, "emit basis coefficients and samples", grid=True)
    command("validate", run_validate, "run the identity validation suites", nmax=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_lam(args.lam)
        if getattr(args, "n_max", 0) < 0:
            return _config_error("--nmax must be >= 0")
        if getattr(args, "count", 0) < 0:
            return _config_error("--count must be >= 0")
        for flag, dest in (("--x-min", "x_min"), ("--x-max", "x_max")):
            if not math.isfinite(value := getattr(args, dest, 0.0)):
                return _config_error(f"{flag} must be finite, got {value!r}")
        return args.run(args)
    except ValueError as exc:
        return _config_error(str(exc))
    except OSError as exc:
        return _config_error(f"cannot write {exc.filename or args.out_dir}: {exc.strerror or exc}")


if __name__ == "__main__":
    sys.exit(main())
