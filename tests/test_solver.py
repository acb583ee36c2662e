"""Diagonalized solver: frozen fixtures, manufactured solutions, instrumentation.

The eps fixture for the exp-decay problem was computed in exact rational
arithmetic (the g(n) integrands have closed-form Laplace transforms), so the
numbers below carry no quadrature error of their own.
"""

import dataclasses
import gc
import math
import mmap
import re
import threading
import tracemalloc
import types
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lagsob import (
    BVProblem,
    LaguerreFamily,
    builtin_problem,
    gauss_laguerre,
    integrate,
    integrate_adaptive,
    laguerre_eval_all,
    partial_sum,
    partial_sum_deriv,
    sobolev_basis,
    sobolev_error,
    sobolev_error_direct,
    sobolev_eval_all,
    solve,
)
from lagsob import laguerre, laguerre_coeffs, sobolev_coeffs
from lagsob.quadrature import M0
from lagsob.sobolev import _connect
from lagsob.solver import _L1, _clenshaw, _moments

# ||u||^2 - cumulative Parseval sums for exp-decay, lam=1, n = 0..20 (exact).
EPS_EXP_DECAY = [
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

G0_EXP_DECAY = 556.0 / 2197.0  # closed form of the first Laguerre moment
UHAT0_EXP_DECAY = 0.16871491427704446


def laplace_moments(p, j, n_max):
    """(-d/dp)^j of (n+1)(p-1)^n / p^{n+2} for n = 0..n_max: the moment
    int x^j e^{-(p-1/2)x} L_n^{(1)}(x) x e^{-x/2} dx, for Re p > 0 and p != 1."""
    n = np.arange(n_max + 1)
    total = 0.0
    for k in range(j + 1):
        # Leibniz: (-d/dp)^k (p-1)^n times (-d/dp)^{j-k} p^{-n-2}.
        falling = np.prod([n - i for i in range(k)], axis=0)
        rising = np.prod([n + 2 + i for i in range(j - k)], axis=0)
        total = total + math.comb(j, k) * (-1) ** k * falling * rising / ((p - 1.0) ** k * p ** (j - k))
    return (n + 1) * ((p - 1.0) / p) ** n / p**2 * total


def exp_decay_moments(n_max):
    """Exact g(0)..g(n_max) of exp-decay, whose f is Re[e^{-(1-i)x}((3-2i) + 2i x)]."""
    p = 1.5 - 1.0j
    return ((3.0 - 2.0j) * laplace_moments(p, 0, n_max) + 2.0j * laplace_moments(p, 1, n_max)).real


@pytest.fixture(scope="module")
def exp_solution():
    return solve(builtin_problem("exp-decay"), n_max=20)


@pytest.fixture(scope="module")
def rational_solution():
    return solve(builtin_problem("rational-decay"), n_max=20)


@pytest.fixture(scope="module")
def solution_200():
    return solve(builtin_problem("exp-decay"), n_max=200)


def sobolev_deriv_all(basis, n, x):
    """Reference table S_0'..S_n' at x: S_0' = 0, S_k' = -L_{k-1}^{(2)} - a_{k-1} S_{k-1}'."""
    ds = np.zeros((n + 1,) + np.shape(x))
    if n >= 1:
        lag2 = laguerre_eval_all(LaguerreFamily(2.0), n - 1, x)
        a = basis.a
        for k in range(1, n + 1):
            ds[k] = -lag2[k - 1] - a[k - 1] * ds[k - 1]
    return ds


def reference_deriv(sol, n, x):
    """partial_sum_deriv from the summed S_k and S_k' reference tables."""
    uh = sol.uhat[: n + 1]
    s = np.tensordot(uh, sobolev_eval_all(sol.basis, n, x), axes=(0, 0))
    ds = np.tensordot(uh, sobolev_deriv_all(sol.basis, n, x), axes=(0, 0))
    return (s * (1.0 - x / 2.0) + ds * x) * np.exp(-x / 2.0)


def _mp_laguerre_all(alpha, n, x):
    vals = [mpmath.mpf(1), 1 + alpha - x]
    for k in range(1, n):
        vals.append(((2 * k + 1 + alpha - x) * vals[k] - (k + alpha) * vals[k - 1]) / (k + 1))
    return vals[: n + 1]


def oracle_deriv(basis, uhat, n, x):
    """partial_sum_deriv at one point in 40-digit arithmetic from the same a_k and uhat_k."""
    with mpmath.workdps(40):
        x = mpmath.mpf(float(x))
        lag1 = _mp_laguerre_all(1, n, x)
        lag2 = _mp_laguerre_all(2, n, x)
        u = [mpmath.mpf(float(v)) for v in uhat[: n + 1]]
        s, ds = mpmath.mpf(1), mpmath.mpf(0)
        total_s, total_ds = u[0], mpmath.mpf(0)
        for k in range(1, n + 1):
            a = mpmath.mpf(float(basis.a[k - 1]))
            s, ds = lag1[k] - a * s, -lag2[k - 1] - a * ds
            total_s += u[k] * s
            total_ds += u[k] * ds
        return float((total_s * (1 - x / 2) + total_ds * x) * mpmath.exp(-x / 2))


def oracle_sum(basis, uhat, n, x):
    """partial_sum at one point in 40-digit arithmetic from the same a_k and uhat_k."""
    with mpmath.workdps(40):
        x = mpmath.mpf(float(x))
        lag1 = _mp_laguerre_all(1, n, x)
        s = mpmath.mpf(1)
        total = mpmath.mpf(float(uhat[0]))
        for k in range(1, n + 1):
            s = lag1[k] - mpmath.mpf(float(basis.a[k - 1])) * s
            total += mpmath.mpf(float(uhat[k])) * s
        return float(total * x * mpmath.exp(-x / 2))


def reference_clenshaw(alpha, c, x):
    """The general-alpha Reinsch sweep for sum_k c_k L_k^{(alpha)}(x); at alpha = 0 it is
    the bit reference for solver._clenshaw."""
    b = np.zeros_like(x)
    d = np.zeros_like(x)
    for k in range(len(c) - 1, -1, -1):
        t = x + (1.0 - alpha) / (k + 2)
        t *= b
        t *= 1.0 / (k + 1)
        d *= (k + 1 + alpha) / (k + 2)
        d -= t
        d += c[k]
        b += d
    return b


def oracle_laguerre_sums(alpha, c, x):
    """sum_k c[k] L_k^{(alpha)}(x) in 40-digit arithmetic."""
    with mpmath.workdps(40):
        lag = _mp_laguerre_all(alpha, len(c) - 1, mpmath.mpf(float(x)))
        return float(mpmath.fsum(mpmath.mpf(float(ck)) * lk for ck, lk in zip(c, lag)))


def traced_peak_bytes(fn, *args):
    """Peak tracemalloc-visible allocation while fn(*args) runs, its result included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestBuiltinProblems:
    def test_exp_decay_definitions(self):
        p = builtin_problem("exp-decay")
        assert p.lam == 1.0
        assert p.rhs(0.0) == pytest.approx(3.0)
        assert p.exact(math.pi / 2.0) == pytest.approx(0.0, abs=1e-16)
        assert p.exact(1.0) == pytest.approx(math.cos(1.0) / math.e, rel=1e-15)

    def test_rational_decay_definitions(self):
        p = builtin_problem("rational-decay")
        assert p.rhs(0.0) == pytest.approx(70.0)
        assert p.exact(1.0) == pytest.approx(10.0 * math.cos(1.0) / 8.0, rel=1e-15)

    @pytest.mark.parametrize("name", ["exp-decay", "rational-decay"])
    def test_exact_derivative_consistent(self, name):
        p = builtin_problem(name)
        h = 1e-6
        for x in (0.3, 1.0, 4.0, 9.0):
            fd = (p.exact(x + h) - p.exact(x - h)) / (2 * h)
            assert p.exact_deriv(x) == pytest.approx(fd, abs=1e-8)

    def test_exact_vanishes_at_both_ends(self):
        exp = builtin_problem("exp-decay")
        assert exp.exact(0.0) == 0.0
        assert abs(exp.exact(80.0)) <= 1e-6
        # the rational solution decays only like 10/x^2: |u(80)| = 1.7e-4
        rat = builtin_problem("rational-decay")
        assert rat.exact(0.0) == 0.0
        assert abs(rat.exact(80.0)) <= 1e-3

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_problem("no-such-problem")


class TestSolve:
    def test_zero_data(self):
        sol = solve(BVProblem(lam=1.0, rhs=lambda x: np.zeros_like(x)), n_max=10)
        assert np.all(sol.uhat == 0.0)
        assert partial_sum(sol, 5, 3.0) == 0.0
        assert partial_sum_deriv(sol, 5, 3.0) == 0.0

    def test_exp_decay_first_moment(self, exp_solution):
        assert exp_solution.g[0] == pytest.approx(G0_EXP_DECAY, rel=1e-10)
        assert exp_solution.uhat[0] == pytest.approx(UHAT0_EXP_DECAY, rel=1e-10)

    def test_exp_decay_quadrature_converged(self, exp_solution):
        assert exp_solution.quad_converged
        assert max(r.achieved_tol for r in exp_solution.quad_report) <= 1e-12

    def test_laguerre_mode_data_isolates_one_index(self):
        # f = L_3 e^{-x/2} makes g(n) = delta_{n3} * ||L_3||^2 = 4 delta_{n3}
        fam = LaguerreFamily(1.0)

        def f(x):
            return laguerre_eval_all(fam, 3, x)[3] * np.exp(-x / 2.0)

        sol = solve(BVProblem(lam=1.0, rhs=f), n_max=5)
        expected_g = [0.0, 0.0, 0.0, 4.0, 0.0, 0.0]
        assert sol.g == pytest.approx(expected_g, abs=1e-11)
        a = sol.basis.a
        fhat = np.zeros(6)
        for n in range(1, 6):
            fhat[n] = expected_g[n] - a[n - 1] * fhat[n - 1]
        assert sol.fhat == pytest.approx(fhat, abs=1e-11)
        assert sol.uhat == pytest.approx(fhat / sol.basis.s, abs=1e-11)

    def test_recurrence_consistency_invariant(self, exp_solution):
        a = exp_solution.basis.a
        for n in range(1, 21):
            resid = abs(
                exp_solution.g[n]
                - (exp_solution.fhat[n] + a[n - 1] * exp_solution.fhat[n - 1])
            )
            assert resid <= 1e-10 * (1.0 + abs(exp_solution.g[n]))
        assert exp_solution.uhat * exp_solution.basis.s == pytest.approx(
            exp_solution.fhat, rel=1e-12
        )

    def test_rejects_nonfinite_rhs(self):
        with pytest.raises(ValueError, match="node"):
            solve(BVProblem(lam=1.0, rhs=lambda x: np.full_like(x, np.nan)), n_max=0)


class TestMoments:
    """solver._moments: the lam-free stage g(n) = int f L_n^{(1)} x e^{-x/2} dx of solve."""

    def test_one_moment_stage_serves_every_lambda(self):
        rhs = builtin_problem("exp-decay").rhs
        points = 0

        def counted(x):
            nonlocal points
            points += np.size(x)
            return rhs(x)

        g, report, evals = _moments(counted, 20)
        assert points == evals == 7264
        for lam in (1e-3, 1.0, 1e3):
            basis = sobolev_basis(lam, 20)
            sol = solve(BVProblem(lam=lam, rhs=rhs), n_max=20)
            assert np.array_equal(sol.g, g)
            assert sol.quad_report == report and sol.integrand_evals == evals
            assert np.array_equal(_connect(basis.a, g.copy()) / basis.s, sol.uhat)

    @pytest.mark.parametrize(
        "rhs",
        [builtin_problem("exp-decay").rhs, builtin_problem("rational-decay").rhs, lambda x: math.exp(-x)],
        ids=["exp-decay", "rational-decay", "scalar-only"],
    )
    def test_each_moment_is_the_one_line_integral_bit_for_bit(self, rhs):
        # The stage forms 4 f(2t) L_n(2t) from a read-only view of row n of the cached
        # table and sums it through integrate.  This reference runs neither: each attempt is
        # one plain weighted sum, with a scalar-only rhs called node by node.
        def f(x):
            try:
                return np.asarray(rhs(x), dtype=float)
            except (TypeError, ValueError):
                return np.array([float(rhs(float(v))) for v in x])

        def value_at(n, m):
            rule = gauss_laguerre(1.0, m)
            x = 2.0 * rule.nodes
            return float(np.dot(rule.weights, 4.0 * f(x) * laguerre_eval_all(_L1, n, x)[n]))

        g, report, _ = _moments(rhs, 200)
        for n in (0, 20, 100, 200):
            ref = integrate_adaptive(lambda m: value_at(n, m))
            assert g[n] == ref.value and report[n] == ref

    @pytest.mark.parametrize("n", [0, 5, 7, 37, 61, 80, 100])
    def test_exact_moments_match_mpmath(self, n):
        # Measured: at most 1.4e-14 relative (n = 61, where g = 1.32e-10).  The solver's own
        # moments meet this closed form in the test below, so mpmath runs once per n.
        with mpmath.workdps(40):
            def integrand(x):
                f = mpmath.exp(-x) * (3 * mpmath.cos(x) - 2 * (x - 1) * mpmath.sin(x))
                return f * mpmath.laguerre(n, 1, x) * x * mpmath.exp(-x / 2)

            ref = mpmath.quad(integrand, [mpmath.mpf(int(b)) for b in np.linspace(0, 120, 13)] + [mpmath.inf])
        assert exp_decay_moments(n)[n] == pytest.approx(float(ref), rel=5e-14, abs=0.0)

    @pytest.mark.parametrize("n_max, bound", [(20, 2e-14), (100, 6e-13), (200, 1.4e-12)])
    def test_exp_decay_moments_against_the_closed_form(self, n_max, bound):
        # Measured: 1.09e-14, 3.19e-13 and 7.30e-13 of max|g|.  At n_max = 100, 40 moments
        # are flagged as capped, yet every one is this close to the exact value.
        exact = exp_decay_moments(n_max)
        g = _moments(builtin_problem("exp-decay").rhs, n_max)[0]
        assert np.max(np.abs(g - exact)) <= bound * np.max(np.abs(exact))


class TestTableReuse:
    """solve tabulates L_n^{(1)} once per node set, shared across indices and solves."""

    @pytest.fixture(autouse=True)
    def cold_tables(self):
        laguerre._TABLES.clear()
        yield
        laguerre._TABLES.clear()

    def test_rows_are_computed_once_per_node_set(self, monkeypatch):
        computed = []
        table = laguerre._table

        def counting(alpha, n_max, xf):
            computed.append(n_max)
            return table(alpha, n_max, xf)

        monkeypatch.setattr(laguerre, "_table", counting)
        solve(builtin_problem("exp-decay"), 100)
        # Four rule sizes, 101 rows each at most.
        assert 0 < sum(computed) <= 4 * 101
        computed.clear()
        solve(builtin_problem("rational-decay"), 100)
        assert sum(computed) == 0

    @pytest.mark.parametrize("n_max", [100, 200])
    def test_a_cold_solve_maps_each_node_set_once(self, monkeypatch, n_max):
        maps, computed = [], []
        table = laguerre._table

        def counting_mmap(fileno, length):
            maps.append(length)
            return mmap.mmap(fileno, length)

        def counting_table(alpha, n, xf):
            computed.append(n)
            return table(alpha, n, xf)

        monkeypatch.setattr(laguerre, "mmap", types.SimpleNamespace(mmap=counting_mmap, PAGESIZE=mmap.PAGESIZE))
        monkeypatch.setattr(laguerre, "_table", counting_table)
        solve(builtin_problem("exp-decay"), n_max)
        tables = list(laguerre._TABLES.values())
        assert len(tables) == 4
        # The deepest index comes first, so each node set maps its whole table once.
        assert sorted(maps) == sorted(t.nbytes for t in tables)
        assert all(len(t) == n_max + 1 for t in tables)
        # Rows 1..n_max of each node set, computed once.
        assert sum(computed) == 4 * n_max

    @pytest.mark.parametrize("state", ["deeper", "shallower", "over-budget"])
    def test_a_solve_after_any_store_state_matches_a_cold_one(self, state):
        # The store states behind a warm n = 100 solve: its tables stored deeper
        # first (read as prefixes), shallower first (rebuilt whole), or pushed
        # out by 20 tables of 0.49 MB past the 8 MiB budget (rebuilt).
        problem = builtin_problem("exp-decay")
        cold = solve(problem, 100)
        laguerre._TABLES.clear()
        if state == "over-budget":
            solve(problem, 100)
            solved = set(laguerre._TABLES)
            rng = np.random.default_rng(0)
            for _ in range(20):
                laguerre_eval_all(LaguerreFamily(1.0), 237, rng.uniform(0.0, 50.0, 256))
            assert not solved & set(laguerre._TABLES)
        else:
            solve(problem, 200 if state == "deeper" else 20)
        warm = solve(problem, 100)
        assert warm.g.tobytes() == cold.g.tobytes() and warm.uhat.tobytes() == cold.uhat.tobytes()
        assert warm.quad_report == cold.quad_report
        assert warm.integrand_evals == cold.integrand_evals

    def test_cache_stays_within_its_budget(self):
        tables = laguerre._TABLES

        def stored_bytes():
            return sum(laguerre._cost(k, t) for k, t in tables.items())

        sol = solve(builtin_problem("exp-decay"), 237)
        sobolev_error_direct(sol, 237)
        assert 0 < stored_bytes() <= laguerre._CACHE_BUDGET
        rng = np.random.default_rng(3)
        for _ in range(100):
            laguerre_eval_all(LaguerreFamily(1.0), 237, rng.uniform(0.0, 50.0, 256))
            assert stored_bytes() <= laguerre._CACHE_BUDGET
        entries = [(key, id(table)) for key, table in tables.items()]
        laguerre_eval_all(LaguerreFamily(1.0), 237, np.linspace(0.0, 50.0, 20_000))
        assert [(key, id(table)) for key, table in tables.items()] == entries

    def test_a_warm_solve_retains_nothing(self):
        # Long-lived heap arrays shift the page faults of every later caller, so
        # the moment stage keeps no memo or buffer beyond its own call.
        problem = builtin_problem("exp-decay")

        def solve_all():
            for n in (20, 100, 200):
                sobolev_error(solve(problem, n), n)

        solve_all()
        gc.collect()
        tracemalloc.start()
        try:
            solve_all()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 1024

    def test_a_warm_solve_copies_no_table(self):
        # Each moment attempt reads row n of the stored table in place, so a warm
        # solve's peak is its result and a few rule-length vectors, whatever the
        # table's depth; copying rows 0..n of the 201 x 256 table costs 411,648 bytes.
        problem = builtin_problem("exp-decay")
        solve(problem, 200)
        gc.collect()
        assert traced_peak_bytes(solve, problem, 200) <= 64 << 10

    def test_threads_match_a_serial_solve(self):
        names = ("exp-decay", "rational-decay")
        serial = {name: solve(builtin_problem(name), 100) for name in names}
        laguerre._TABLES.clear()
        results = []

        def work():
            for _ in range(3):
                for name in names:
                    results.append((name, solve(builtin_problem(name), 100)))

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 12
        for name, sol in results:
            assert np.array_equal(sol.g, serial[name].g) and np.array_equal(sol.uhat, serial[name].uhat)


class TestPartialSums:
    def test_boundary_value_exactly_zero(self, exp_solution):
        assert partial_sum(exp_solution, 20, 0.0) == 0.0

    def test_far_field_decay(self, exp_solution):
        # |S_20(u, 80)| = 1.468e-4 in exact arithmetic; the weight factor wins
        # far beyond the Laguerre turning point.
        assert abs(partial_sum(exp_solution, 20, 80.0)) <= 2e-4
        assert abs(partial_sum(exp_solution, 20, 200.0)) <= 1e-10

    def test_pointwise_accuracy_mid_order(self, exp_solution):
        u1 = math.cos(1.0) * math.exp(-1.0)
        assert abs(partial_sum(exp_solution, 15, 1.0) - u1) <= 1e-3
        du1 = -math.sin(1.0) * math.exp(-1.0)
        assert abs(partial_sum_deriv(exp_solution, 15, 1.0) - du1) <= 1e-2

    def test_derivative_matches_finite_differences(self, exp_solution):
        h = 1e-6
        for n in (0, 7, 20):
            for x in (0.5, 2.0, 10.0):
                fd = (
                    partial_sum(exp_solution, n, x + h) - partial_sum(exp_solution, n, x - h)
                ) / (2 * h)
                assert partial_sum_deriv(exp_solution, n, x) == pytest.approx(fd, abs=1e-7)

    def test_deriv_at_zero_is_coefficient_sum(self, exp_solution):
        s0 = sobolev_eval_all(exp_solution.basis, 10, 0.0)
        expected = float(np.dot(exp_solution.uhat[:11], s0))
        assert partial_sum_deriv(exp_solution, 10, 0.0) == pytest.approx(expected, rel=1e-13)

    def test_vectorized_matches_scalar(self, exp_solution):
        xs = np.array([0.0, 0.7, 3.0, 11.0])
        vals = partial_sum(exp_solution, 12, xs)
        for i, x in enumerate(xs):
            assert vals[i] == pytest.approx(partial_sum(exp_solution, 12, float(x)), rel=1e-14)

    def test_rejects_out_of_range_order(self, exp_solution):
        with pytest.raises(ValueError):
            partial_sum(exp_solution, 21, 1.0)

    # The bound is twice the worst error of the same cases, seeds 0-9, with the
    # table recurrence dividing by n+1 (9.6e-15 of max|ref|, at n = 200, lam = 1e3).
    # x stays below 500, far from the NaN onset of the n = 200 table at x ~ 2,746.
    @pytest.mark.parametrize("n", [20, 200])
    @pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_coefficients_match_mpmath_oracle(self, exp_solution, n, lam, seed):
        rng = np.random.default_rng([n, seed])
        basis = sobolev_basis(lam, n)
        uhat = rng.standard_normal(n + 1)
        sol = dataclasses.replace(exp_solution, basis=basis, uhat=uhat)
        fixed = [0.0, 1e-4, 1e-2, 0.5, 3.0, 17.0, 60.0, 200.0, 500.0]
        x = np.concatenate([fixed, rng.uniform(0.0, 500.0, 8)])
        ref = np.array([oracle_sum(basis, uhat, n, xi) for xi in x])
        got = partial_sum(sol, n, x)
        assert np.max(np.abs(got - ref)) <= 2e-14 * np.max(np.abs(ref))


def one_table_sum(sol, n, x):
    """partial_sum from one (n+1) x x.size S table: its bit reference up to 256 points."""
    xa = np.asarray(x, dtype=float)
    return np.tensordot(sol.uhat[: n + 1], sobolev_eval_all(sol.basis, n, xa), axes=(0, 0)) * xa * np.exp(-xa / 2.0)


WIDE_GRIDS = {
    "257": lambda: np.linspace(0.0, 500.0, laguerre._CACHE_MAX_POINTS + 1),
    "2d": lambda: np.linspace(0.0, 500.0, 12_000).reshape(3, 4000),
    "strided": lambda: np.linspace(0.0, 500.0, 40_001)[::2],
    "20k": lambda: np.linspace(0.0, 500.0, 20_000),
}


def random_solution(template, n, lam, seed):
    """template with the basis at lam and standard-normal uhat_0..uhat_n from seed."""
    uhat = np.random.default_rng([n, seed]).standard_normal(n + 1)
    return dataclasses.replace(template, basis=sobolev_basis(lam, n), uhat=uhat)


def oracle_error(sol, n, x, idx):
    """max |partial_sum - oracle_sum| over the flat indices idx of x, over max |oracle_sum| there."""
    got = partial_sum(sol, n, x)
    assert type(got) is np.ndarray and got.shape == x.shape
    pts = x.reshape(-1)[idx]
    ref = np.array([oracle_sum(sol.basis, sol.uhat, n, xi) for xi in pts])
    return np.max(np.abs(got.reshape(-1)[idx] - ref)) / np.max(np.abs(ref))


class TestPartialSumPaths:
    """Grids of at most laguerre._CACHE_MAX_POINTS points are dotted with the S table; wider
    grids are one Clenshaw sweep of tail sums, and build no table."""

    @pytest.fixture(params=[20, 200])
    def order(self, request):
        n = request.param
        return request.getfixturevalue("exp_solution" if n == 20 else "solution_200"), n

    @pytest.mark.parametrize(
        "x",
        [1.5, np.float64(1.5), np.array(1.5), np.empty(0), np.empty((2, 0)), np.linspace(0.0, 4.0, 9),
         np.linspace(0.0, 500.0, 256), np.linspace(0.0, 60.0, 256).reshape(16, 16),
         np.linspace(0.0, 60.0, 512)[::2]],
        ids=["float", "numpy", "0-d", "empty", "empty-2d", "9", "256", "2d-256", "strided-256"],
    )
    def test_small_grids_are_the_one_table_sum(self, order, x):
        sol, n = order
        got = partial_sum(sol, n, x)
        ref = one_table_sum(sol, n, x)
        if np.ndim(x) == 0:
            assert type(got) is float and got == float(ref)
        else:
            assert type(got) is np.ndarray and got.shape == x.shape and np.array_equal(got, ref)

    # The worst of these cases over seeds 0-9 is 1.04e-14 of max|ref| (257 points, n = 200, lam = 1e3, seed 9).
    @pytest.mark.parametrize("grid", WIDE_GRIDS)
    @pytest.mark.parametrize("n", [20, 200])
    @pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_grids_match_mpmath_oracle(self, exp_solution, grid, n, lam, seed):
        x = WIDE_GRIDS[grid]()
        idx = np.concatenate([[0, 1, 2, x.size - 1], np.random.default_rng(seed).choice(x.size, 8, replace=False)])
        assert oracle_error(random_solution(exp_solution, n, lam, seed), n, x, idx) <= 2e-14

    # Just right of x = 0 the S table errs by up to 2.9e-13 of max|ref| (seeds 0-2); the sweep by 1.4e-15.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_grid_near_zero_matches_mpmath_oracle(self, exp_solution, seed):
        x = np.linspace(0.0, 1e-3, 1001)
        assert oracle_error(random_solution(exp_solution, 200, 1.0, seed), 200, x, np.arange(0, 1001, 50)) <= 2e-14

    def test_wide_grid_is_finite_to_x_3200(self, solution_200):
        # On a grid of step 0.1 it turns non-finite at x = 3,227.0 (the S table did at 2,745.9).
        assert np.all(np.isfinite(partial_sum(solution_200, 200, np.linspace(0.0, 3200.0, 32_001))))

    def test_wide_grids_build_no_table(self, solution_200, monkeypatch):
        x = WIDE_GRIDS["257"]()
        ref = partial_sum(solution_200, 200, x)

        def forbidden(*args, **kwargs):
            raise AssertionError("partial_sum built an (n+1) x len(x) table")

        monkeypatch.setattr("lagsob.solver.sobolev_eval_all", forbidden)
        monkeypatch.setattr("lagsob.solver.laguerre_eval_all", forbidden)
        before = set(laguerre._TABLES)
        assert np.array_equal(partial_sum(solution_200, 200, x), ref)
        assert set(laguerre._TABLES) == before

    def test_nan_in_a_wide_grid_is_refused(self, exp_solution):
        x = np.linspace(0.0, 60.0, 16_385)
        x[-1] = np.nan
        with pytest.raises(ValueError, match="^evaluation point must be finite$"):
            partial_sum(exp_solution, 20, x)

    @pytest.mark.parametrize("n", [20.0, np.float64(20.0), True])
    def test_non_integer_order_is_refused_by_name(self, exp_solution, n):
        with pytest.raises(ValueError, match=r"^n must be an integer in \[0, 20\]"):
            partial_sum(exp_solution, n, np.linspace(0.0, 60.0, 16_385))


class TestOrderArguments:
    """Orders are integers: floats and bools are refused by name, numpy integers accepted."""

    CALLS = {
        "partial_sum": lambda sol, n: partial_sum(sol, n, 1.0),
        "partial_sum_deriv": lambda sol, n: partial_sum_deriv(sol, n, 1.0),
        "sobolev_error": sobolev_error,
        "sobolev_error_direct": sobolev_error_direct,
    }

    @pytest.mark.parametrize("n_max", [20.0, True, "3", np.float64(4.0), -1])
    def test_solve_rejects_bad_n_max(self, n_max):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            solve(builtin_problem("exp-decay"), n_max)

    def test_solve_accepts_numpy_integers(self):
        sol = solve(builtin_problem("exp-decay"), np.int64(4))
        assert type(sol.n_max) is int and sol.n_max == 4 and sol.uhat.size == 5

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("n", [2.0, True, False, np.float64(2.0), 21, -1])
    def test_orders_must_be_integers_in_range(self, exp_solution, name, n):
        with pytest.raises(ValueError, match="n must be an integer in"):
            self.CALLS[name](exp_solution, n)

    @pytest.mark.parametrize("name", CALLS)
    def test_numpy_integer_orders_match_int(self, exp_solution, name):
        call = self.CALLS[name]
        assert call(exp_solution, np.int32(3)) == call(exp_solution, 3)


def _exp_family_problem(lam, k, c):
    """u = x e^{-cx} cos(kx) with its right-hand side and derivative."""

    def f(x):
        kx = k * x
        return np.exp(-c * x) * (
            (2.0 * c + lam - (c * c - k * k) * x) * np.cos(kx) - 2.0 * k * (c * x - 1.0) * np.sin(kx)
        )

    def u(x):
        return x * np.exp(-c * x) * np.cos(k * x)

    def du(x):
        kx = k * x
        return np.exp(-c * x) * ((1.0 - c * x) * np.cos(kx) - kx * np.sin(kx))

    return BVProblem(lam=lam, rhs=f, exact=u, exact_deriv=du)


def _alg_family_problem(lam, k, p):
    """u = x cos(kx) / (1 + x)^p with its right-hand side and derivative."""

    def f(x):
        s, kx = 1.0 + x, k * x
        return (
            (p * (2.0 - (p - 1) * x) + (k * k * x + lam) * s * s) * np.cos(kx)
            + 2.0 * k * s * (s - p * x) * np.sin(kx)
        ) / s ** (p + 2)

    def u(x):
        return x * np.cos(k * x) / (1.0 + x) ** p

    def du(x):
        s, kx = 1.0 + x, k * x
        return ((s - p * x) * np.cos(kx) - kx * s * np.sin(kx)) / s ** (p + 1)

    return BVProblem(lam=lam, rhs=f, exact=u, exact_deriv=du)


class TestSobolevError:
    def test_matches_exact_fixture(self, exp_solution):
        for n in range(21):
            eps = sobolev_error(exp_solution, n)
            assert eps == pytest.approx(EPS_EXP_DECAY[n], rel=1e-6)

    def test_nonincreasing(self, exp_solution):
        eps = [sobolev_error(exp_solution, n) for n in range(21)]
        assert all(eps[i + 1] <= eps[i] for i in range(20))

    def test_ratio_threshold(self, exp_solution):
        # exact value of eps_20/eps_0 is 1.6329e-7; frozen bound 2e-7
        assert sobolev_error(exp_solution, 20) / sobolev_error(exp_solution, 0) <= 2e-7

    def test_direct_quadrature_cross_check(self, exp_solution):
        for n in (0, 5, 10):
            direct = sobolev_error_direct(exp_solution, n)
            assert direct == pytest.approx(sobolev_error(exp_solution, n), rel=1e-6)

    def test_bessel_type_inequality(self, exp_solution, rational_solution):
        for sol in (exp_solution, rational_solution):
            p = sol.problem
            total = float(np.sum(sol.uhat**2 * sol.basis.s))
            norm_sq = sobolev_error(sol, 0) + sol.uhat[0] ** 2 * sol.basis.s[0]
            assert total <= norm_sq + 1e-8

    def test_requires_exact_solution(self):
        sol = solve(BVProblem(lam=1.0, rhs=lambda x: np.exp(-x)), n_max=2)
        with pytest.raises(ValueError):
            sobolev_error(sol, 0)

    def test_overshoot_past_the_norm_bar_warns_once(self):
        # The exact solution scaled by 1 - 1e-9 lowers ||u||^2 by ~2e-9 relative, past the
        # n = 40 truncation error (~3e-16) and past the bar TOL * (1 + ||u||^2) = 1.437e-12
        # to which the norm is integrated, though every moment and norm integral converged.
        p = builtin_problem("exp-decay")
        scaled = BVProblem(lam=p.lam, rhs=p.rhs, exact=lambda x: (1.0 - 1e-9) * p.exact(x),
                           exact_deriv=lambda x: (1.0 - 1e-9) * p.exact_deriv(x))
        sol = solve(scaled, 40)
        with pytest.warns(UserWarning) as record:
            assert sobolev_error(sol, 40) == 0.0
        assert [str(w.message) for w in record] == [
            "sobolev_error went below -1.437e-12 (min -8.750e-10): 0 of 41 moments hit the "
            "quadrature cap; norm integrals converged: u_sq_over_x True, du_sq True; "
            "sobolev_error_direct integrates the error itself"
        ]
        assert sobolev_error(sol, 5) > 0.0

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        log_lam=st.floats(-2.0, 2.0),
        k=st.floats(0.5, 1.5),
        c=st.floats(1.0, 2.0),
        n_max=st.sampled_from([100, 200]),
    )
    def test_rounding_within_the_norm_bar_reads_zero_silently(self, log_lam, k, c, n_max):
        # u = x e^{-cx} cos(kx): every moment converges, and the Parseval form dips below 0
        # by rounding only (at most ~1.2e-14 of ||u||^2), inside the bar TOL * (1 + ||u||^2).
        sol = solve(_exp_family_problem(10.0**log_lam, k, c), n_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(sobolev_error(sol, j) >= 0.0 for j in range(n_max + 1))

    def test_capped_moments_past_the_norm_bar_warn_once(self):
        # The algebraic family at n = 200: all 201 moments hit the cap and their Parseval sum
        # overshoots ||u||^2 by ~1.1e-9, ~1e-8 of it: past the norm's bar, not rounding.
        sol = solve(_alg_family_problem(0.06073481330602126, 0.8237214287228913, 4), 200)
        with pytest.warns(UserWarning) as record:
            assert sobolev_error(sol, 200) == 0.0
        messages = [str(w.message) for w in record if w.category is UserWarning]
        assert len(messages) == 1 and "201 of 201 moments hit the quadrature cap" in messages[0]

    def test_cap_overshoot_warning_names_the_capped_moments_and_norm_integrals(self):
        # u = x cos(kx) / (1 + x)^p, the algebraic family, at n = 200.  Every moment hits the
        # cap and their Parseval sum overshoots ||u||^2 (min -3.415e-5), while the norm's own
        # quadrature, 0.11660791, is within 1.3e-7 of 30-digit mpmath (0.11660803) and the
        # direct quadrature of the error reads +3.30e-5.  The clamp to 0.0 stays.
        lam = 0.18439716574630327
        sol = solve(_alg_family_problem(lam, 1.4316481587413588, 3), 200)
        with pytest.warns(UserWarning) as record:
            assert sobolev_error(sol, 200) == 0.0
        messages = [str(w.message) for w in record if w.category is UserWarning]
        assert len(messages) == 1 and re.fullmatch(
            r"sobolev_error went below -1\.117e-12 \(min -3\.4\d\de-05\): 201 of 201 moments hit the "
            r"quadrature cap; norm integrals converged: u_sq_over_x False, du_sq False; "
            r"sobolev_error_direct integrates the error itself",
            messages[0],
        )
        norm_sq = lam * sol.norm_report["u_sq_over_x"].value + sol.norm_report["du_sq"].value
        assert abs(norm_sq - 0.11660803) <= 2e-7
        assert sobolev_error_direct(sol, 200) == pytest.approx(3.30e-5, rel=0.01)

    def test_zero_problem_zero_error(self):
        sol = solve(
            BVProblem(
                lam=1.0,
                rhs=lambda x: np.zeros_like(x),
                exact=lambda x: np.zeros_like(x),
                exact_deriv=lambda x: np.zeros_like(x),
            ),
            n_max=5,
        )
        assert sobolev_error(sol, 5) == 0.0


class TestRationalDecay:
    def test_quadrature_cap_is_reported_not_fatal(self, rational_solution):
        assert not rational_solution.quad_converged
        capped = [r for r in rational_solution.quad_report if not r.converged]
        assert capped and all(r.m_used == 256 for r in capped)
        assert all(np.isfinite(r.achieved_tol) for r in rational_solution.quad_report)

    def test_errors_monotone_but_slow(self, rational_solution, exp_solution):
        eps_r = [sobolev_error(rational_solution, n) for n in range(21)]
        assert all(eps_r[i + 1] <= eps_r[i] for i in range(20))
        ratio = eps_r[20] / sobolev_error(exp_solution, 20)
        assert ratio >= 1e3


class TestManufacturedSolutions:
    def test_fixed_polynomial_case(self):
        # u = x e^{-x} (1 + x - x^2/2)  =>  f = (1 + 7x - 9x^2/2 + x^3/2) e^{-x}
        def u(x):
            return x * np.exp(-x) * (1.0 + x - 0.5 * x**2)

        def du(x):
            p = 1.0 + x - 0.5 * x**2
            dp = 1.0 - x
            return np.exp(-x) * ((1.0 - x) * p + x * dp)

        def f(x):
            return (1.0 + 7.0 * x - 4.5 * x**2 + 0.5 * x**3) * np.exp(-x)

        self._check_residual(u, du, f, lam=1.0)

    def test_random_polynomial_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            c = rng.uniform(-1.0, 1.0, 4)
            lam = float(rng.uniform(0.5, 2.0))

            def P(x):
                return c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3

            def dP(x):
                return c[1] + 2 * c[2] * x + 3 * c[3] * x**2

            def d2P(x):
                return 2 * c[2] + 6 * c[3] * x

            def u(x):
                return x * np.exp(-x) * P(x)

            def du(x):
                return np.exp(-x) * ((1.0 - x) * P(x) + x * dP(x))

            def d2u(x):
                return np.exp(-x) * ((x - 2.0) * P(x) + 2.0 * (1.0 - x) * dP(x) + x * d2P(x))

            def f(x, lam=lam):
                return -d2u(x) + lam * u(x) / x

            self._check_residual(u, du, f, lam=lam)

    @staticmethod
    def _check_residual(u, du, f, lam):
        sol = solve(BVProblem(lam=lam, rhs=f, exact=u, exact_deriv=du), n_max=10)
        # recompute the Sobolev moments at doubled quadrature resolution
        for n in range(11):
            def integrand(x, n=n):
                return f(x) * sobolev_eval_all(sol.basis, n, x)[n]

            rule = gauss_laguerre(1.0, 2 * max(r.m_used for r in sol.quad_report))
            ref = 4 * integrate(rule, lambda t: integrand(2 * t))
            got = sol.uhat[n] * sol.basis.s[n]
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)


class TestWeakFormReproduction:
    def test_partial_sums_solve_the_projected_problem(self, exp_solution):
        # lam * int Sn(u,.) phi_k / x + int Sn(u,.)' phi_k' = fhat(k), k <= n,
        # with phi_k = S_k x e^{-x/2}; exact-degree rules make this sharp.
        sol = exp_solution
        lam = sol.problem.lam
        rule1 = gauss_laguerre(1.0, 32)
        rule0 = gauss_laguerre(0.0, 32)
        for n in (2, 5, 8):
            for k in range(n + 1):
                def g1(x, n=n, k=k):
                    sk = sobolev_eval_all(sol.basis, k, x)[k]
                    return lam * partial_sum(sol, n, x) * sk * np.exp(x / 2.0) / x

                def g0(x, n=n, k=k):
                    sk = sobolev_eval_all(sol.basis, k, x)[k]
                    phi_deriv = sk * (1.0 - x / 2.0) + x * sobolev_deriv_all(sol.basis, k, x)[k]
                    return partial_sum_deriv(sol, n, x) * phi_deriv * np.exp(x / 2.0)

                lhs = integrate(rule1, g1) + integrate(rule0, g0)
                assert lhs == pytest.approx(sol.fhat[k], rel=1e-8, abs=1e-10)


class TestDerivativeAgainstReference:
    """partial_sum_deriv against the summed reference S_k' table and a 40-digit oracle."""

    @pytest.fixture(scope="class")
    def solution_237(self):
        return solve(builtin_problem("exp-decay"), n_max=237)

    @pytest.mark.parametrize("n", [0, 1, 20, 200])
    @pytest.mark.parametrize("coefficients", ["solved", "random"])
    def test_matches_reference_recursion(self, solution_200, n, coefficients):
        sol = solution_200
        if coefficients == "random":
            uhat = np.random.default_rng(n).standard_normal(sol.n_max + 1)
            sol = dataclasses.replace(sol, uhat=uhat)
        x = np.linspace(0.0, 500.0, 20_000)
        ref = reference_deriv(sol, n, x)
        got = partial_sum_deriv(sol, n, x)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [0, 200])
    def test_builds_no_evaluation_table(self, solution_200, n, monkeypatch):
        x = np.linspace(0.0, 500.0, 2_000)
        ref = reference_deriv(solution_200, n, x)

        def forbidden(*args, **kwargs):
            raise AssertionError("partial_sum_deriv built an (n+1) x len(x) table")

        monkeypatch.setattr("lagsob.solver.sobolev_eval_all", forbidden)
        monkeypatch.setattr("lagsob.solver.laguerre_eval_all", forbidden)
        got = partial_sum_deriv(solution_200, n, x)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [0, 200])
    @pytest.mark.parametrize(
        "x",
        [3.7, np.array(3.7), np.linspace(0.0, 40.0, 7), np.linspace(0.0, 500.0, 15).reshape(3, 5)],
        ids=["scalar", "0-d", "1-d", "2-d"],
    )
    def test_shape_contract(self, solution_200, n, x):
        got = partial_sum_deriv(solution_200, n, x)
        if np.ndim(x) == 0:
            assert isinstance(got, float)
        else:
            assert isinstance(got, np.ndarray) and got.shape == x.shape
        ref = reference_deriv(solution_200, n, np.asarray(x))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [200, 237])
    def test_largest_orders_finite_to_x_1000(self, solution_237, n):
        # 237 is the largest n_max that solve() reaches before L_n^{(1)} overflows.
        x = np.linspace(0.0, 1000.0, 40_001)
        got = partial_sum_deriv(solution_237, n, x)
        assert np.all(np.isfinite(got))
        inside = x <= 500.0
        ref = reference_deriv(solution_237, n, x[inside])
        assert np.max(np.abs(got[inside] - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_accurate_next_to_the_origin(self, solution_200, seed):
        # Near x = 0 the three-term Clenshaw form and the forward tables both
        # err by 1e-13 to 3e-13 of max|ref| here; the difference form stays
        # below 3e-15.
        uhat = np.random.default_rng(seed).standard_normal(201)
        sol = dataclasses.replace(solution_200, uhat=uhat)
        x = np.array([0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0])
        ref = np.array([oracle_deriv(sol.basis, uhat, 200, xi) for xi in x])
        got = partial_sum_deriv(sol, 200, x)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    # The oracle, not the float reference tables: on grids inside [0, 1e-3]
    # the forward recursion behind sobolev_eval_all itself errs by up to
    # ~4e-13 of max|ref| at n = 200, which would fail a 1e-13 bound.
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(0, 200),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(1e-3, 1e3),
        x=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=4),
    )
    def test_random_coefficients_match_mpmath_oracle(self, solution_200, n, seed, lam, x):
        basis = sobolev_basis(lam, 200)
        uhat = np.random.default_rng(seed).standard_normal(201)
        sol = dataclasses.replace(solution_200, basis=basis, uhat=uhat)
        x = np.array([0.0] + x)  # x = 0 keeps max|ref| from resting on one near-root
        ref = np.array([oracle_deriv(basis, uhat, n, xi) for xi in x])
        got = partial_sum_deriv(sol, n, x)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestClenshawKernel:
    """solver._clenshaw: one coefficient vector in one alpha = 0 sweep."""

    X = np.array([0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 500.0])

    @pytest.mark.parametrize("n", [0, 1, 20, 200])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_mpmath_oracle(self, n, seed):
        c = np.random.default_rng([n, seed]).standard_normal(n + 1)
        got = _clenshaw(c, self.X)
        ref = np.array([oracle_laguerre_sums(0, c, xi) for xi in self.X])
        assert got.shape == ref.shape == self.X.shape
        near = self.X <= 1.0
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(got[near] - ref[near])) <= 1e-14 * np.max(np.abs(ref[near]))

    @pytest.mark.parametrize("n", [0, 1, 20, 200, 237])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_is_the_general_alpha_0_sweep_bit_for_bit(self, n, seed):
        c = np.random.default_rng([n, seed]).standard_normal(n + 1)
        x = np.concatenate([self.X, np.linspace(0.0, 1000.0, 4001)])
        with np.errstate(over="ignore", invalid="ignore"):
            got = _clenshaw(c, x)
            assert np.array_equal(got, reference_clenshaw(0.0, c, x), equal_nan=True)

    @pytest.mark.parametrize(
        "x", [3.7, np.linspace(0.0, 40.0, 7), np.linspace(0.0, 500.0, 15).reshape(3, 5)],
        ids=["0-d", "1-d", "2-d"],
    )
    def test_shape_is_the_points_shape(self, x):
        x = np.asarray(x)
        c = np.random.default_rng(5).standard_normal(21)
        got = _clenshaw(c, x)
        assert got.shape == x.shape
        assert np.array_equal(got, reference_clenshaw(0.0, c, x))

    @pytest.mark.parametrize("n", [0, 1, 2, 20])
    def test_one_l0_series_is_the_derivative_of_the_expansion(self, n):
        # Independent of S_k' and of the library: with h_i = ((i+1) c_i + i c_{i-1}) / 2,
        # e^{-x/2} sum h_i L_i^{(0)} is d/dx of x e^{-x/2} sum c_k L_k^{(1)}, the
        # latter differentiated numerically by mpmath.
        c = np.random.default_rng([n, 7]).standard_normal(n + 1)
        with mpmath.workdps(40):
            cm = [mpmath.mpf(float(v)) for v in c] + [mpmath.mpf(0)]
            h = [((i + 1) * cm[i] + i * cm[i - 1]) / 2 for i in range(n + 2)]  # cm[-1] = 0

            def u(t):
                return t * mpmath.exp(-t / 2) * mpmath.fsum(
                    ck * mpmath.laguerre(k, 1, t) for k, ck in enumerate(cm[:-1]))

            for x in (0.0, 0.3, 2.0, 11.5, 50.0):
                xm = mpmath.mpf(x)
                lhs = mpmath.exp(-xm / 2) * mpmath.fsum(
                    hi * lk for hi, lk in zip(h, _mp_laguerre_all(0, n + 1, xm)))
                rhs = mpmath.diff(u, xm)
                assert abs(lhs - rhs) <= mpmath.mpf(10) ** -30 * max(1, abs(rhs))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        lam=st.floats(1e-3, 1e3),
        n=st.integers(0, 200),
        x=st.floats(0.0, 500.0)
        | hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
                     elements=st.floats(0.0, 500.0)),
    )
    def test_connection_loop_is_the_one_line_recursion_bit_for_bit(self, lam, n, x):
        basis = sobolev_basis(lam, 200)
        a = basis.a
        with np.errstate(over="ignore", invalid="ignore"):
            got = sobolev_eval_all(basis, n, x)
            out = laguerre_eval_all(LaguerreFamily(1.0), n, x).copy()
            for k in range(1, n + 1):
                out[k] -= a[k - 1] * out[k - 1]
        assert got.shape == out.shape
        assert np.array_equal(got, out, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(out))

    @pytest.mark.parametrize("lam", [1e-15, 1.0, 1e3])
    @pytest.mark.parametrize("n", [0, 1, 20, 200])
    def test_one_column_and_row_loops_agree_bit_for_bit(self, lam, n):
        # A scalar and a one-point array take the Python-float loop, a wide grid the row loop.
        basis = sobolev_basis(lam, 200)
        x = np.linspace(0.0, 500.0, 41)
        wide = sobolev_eval_all(basis, n, x)
        for j in (0, 1, 7, 40):
            scalar = sobolev_eval_all(basis, n, float(x[j]))
            point = sobolev_eval_all(basis, n, x[j : j + 1])
            assert scalar.shape == (n + 1,) and point.shape == (n + 1, 1)
            assert np.array_equal(scalar, wide[:, j]) and np.array_equal(point[:, 0], wide[:, j])
            assert np.array_equal(np.signbit(scalar), np.signbit(wide[:, j]))

    @pytest.mark.parametrize("lam", [1e-15, 1.0, 1e3])
    @pytest.mark.parametrize("n", [0, 1, 20, 200])
    def test_connection_on_the_moment_vector_is_fhat_bit_for_bit(self, solution_200, lam, n):
        # solve's fhat(n) = g(n) - a_{n-1} fhat(n-1), as one Python-float loop.
        a, g = sobolev_basis(lam, 200).a, solution_200.g[: n + 1]
        ref = [g[0]]
        for k in range(1, n + 1):
            ref.append(g[k] - a[k - 1] * ref[-1])
        assert np.array_equal(_connect(a, g.copy()), ref)
        if lam == 1.0 and n == 200:
            assert np.array_equal(solution_200.fhat, ref)

    @pytest.mark.parametrize("lam", [1e-15, 1.0, 1e3])
    @pytest.mark.parametrize("n", [0, 1, 2, 20, 200])
    def test_connection_on_the_reversed_vector_is_c_bit_for_bit(self, lam, n):
        # partial_sum_deriv's c_n = uhat_n, c_k = uhat_k - a_k c_{k+1}, run backwards.
        a = sobolev_basis(lam, 200).a
        uhat = np.random.default_rng([n, 3]).standard_normal(n + 1)
        ref = uhat.copy()
        for k in range(n - 1, -1, -1):
            ref[k] -= a[k] * ref[k + 1]
        got = uhat.copy()
        _connect(a[:n][::-1], got[::-1])
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("lam", [1e-15, 1.0, 1e3])
    @pytest.mark.parametrize("n", [0, 1, 2, 30, 170])
    def test_connection_on_the_padded_monomial_table_is_sobolev_coeffs_bit_for_bit(self, lam, n):
        # Reference: each S_k from the shorter coefficient vector of S_{k-1}.
        basis = sobolev_basis(lam, 200)
        ref = np.array([1.0])
        for k in range(1, n + 1):
            new = laguerre_coeffs(LaguerreFamily(1.0), k).coef
            new[: ref.size] -= basis.a[k - 1] * ref
            ref = new
        got = sobolev_coeffs(basis, n).coef
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestEvaluationMemory:
    """tracemalloc peaks at n = 200 on 20,000 points (exact, unlike RSS)."""

    x = np.linspace(0.0, 500.0, 20_000)

    def test_derivative_stays_within_four_vectors(self, solution_200):
        # The one-vector Clenshaw sweep holds three len(x) vectors; a second column would need six.
        assert traced_peak_bytes(partial_sum_deriv, solution_200, 200, self.x) <= 4 * self.x.size * 8

    def test_sobolev_table_is_built_once(self, solution_200):
        peak = traced_peak_bytes(sobolev_eval_all, solution_200.basis, 200, self.x)
        assert peak <= 1.25 * 201 * self.x.size * 8

    @pytest.mark.parametrize("size", [20_000, 40_001])
    def test_value_stays_within_four_vectors(self, solution_200, size):
        # The sweep holds three len(x) vectors and x e^{-x/2} is applied in place: 3.06 and
        # 3.03 vectors measured at 20,000 and 40,001 points.
        x = np.linspace(0.0, 500.0, size)
        assert traced_peak_bytes(partial_sum, solution_200, 200, x) <= 4 * size * 8


class TestInstrumentation:
    def test_no_linear_system_machinery(self, monkeypatch):
        import numpy.linalg
        import scipy.linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("linear-system solver invoked by the diagonal method")

        for mod, names in [
            (numpy.linalg, ["solve", "lstsq", "inv", "cholesky", "qr", "svd"]),
            (scipy.linalg, ["solve", "lu_factor", "cho_factor", "qr", "svd", "lstsq", "inv"]),
        ]:
            for name in names:
                monkeypatch.setattr(mod, name, forbidden)
        sol = solve(builtin_problem("exp-decay"), n_max=8)
        assert sol.n_max == 8

    @pytest.mark.parametrize(
        "rhs", [lambda x: np.exp(-x), lambda x: math.exp(-x), lambda x: 2.0],
        ids=["vectorised", "scalar-only", "constant"],
    )
    def test_rhs_count_is_the_nodes_of_the_sizes_tried(self, rhs):
        # A scalar-only rhs raises on the vector call and is then evaluated
        # node by node; only the evaluations that returned count.  A constant
        # rhs returns one float for all nodes, which is broadcast.
        sol = solve(BVProblem(lam=1.0, rhs=rhs), n_max=3)
        tried = [m for r in sol.quad_report for m in (M0 << i for i in range(8)) if m <= r.m_used]
        assert sol.integrand_evals == sum(tried) == 384

    def test_scalar_only_rhs_builds_the_vectorised_tables(self, monkeypatch):
        # Only the rhs falls back node by node; L_n^{(1)} is tabulated once per rule.
        calls = []

        def counting(*args):
            calls.append(args[1])
            return laguerre_eval_all(*args)

        monkeypatch.setattr("lagsob.solver.laguerre_eval_all", counting)
        sols = [solve(BVProblem(lam=1.0, rhs=f), n_max=6)
                for f in (lambda x: np.exp(-x), lambda x: math.exp(-x))]
        assert calls[: len(calls) // 2] == calls[len(calls) // 2:]
        assert sols[0].integrand_evals == sols[1].integrand_evals
        assert np.array_equal(sols[0].g, sols[1].g)

    def test_scalar_only_exact_builds_the_vectorised_tables(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[1])
            return sobolev_eval_all(*args)

        monkeypatch.setattr("lagsob.solver.sobolev_eval_all", counting)
        p = builtin_problem("exp-decay")
        scalar = BVProblem(
            lam=1.0, rhs=p.rhs,
            exact=lambda x: x * math.cos(x) * math.exp(-x),
            exact_deriv=lambda x: math.exp(-x) * (math.cos(x) - x * math.sin(x) - x * math.cos(x)),
        )
        errs = [sobolev_error_direct(solve(q, n_max=4), 4) for q in (p, scalar)]
        assert calls[: len(calls) // 2] == calls[len(calls) // 2:]
        assert errs[1] == pytest.approx(errs[0], rel=1e-12)

    def test_cost_is_linear_in_n_max(self):
        sol = solve(builtin_problem("exp-decay"), n_max=20)
        # each of the 21 integrals sees at most 32+64+128+256 nodes
        assert sol.integrand_evals <= 21 * 480
