"""Laguerre polynomial identities against independent brute-force oracles."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lagsob.solver
from lagsob import (
    LaguerreFamily,
    alternating_sum_check,
    builtin_problem,
    connection_asymptotic,
    connection_ratio,
    connection_recurrence,
    gauss_laguerre,
    gen_fun_sobolev,
    hardy_hille_check,
    laguerre_coeffs,
    laguerre_derivative,
    laguerre_eval,
    laguerre_eval_all,
    laguerre_norm_sq,
    sobolev_basis,
    sobolev_coeffs,
    sobolev_eval_all,
    solve,
)
from lagsob.laguerre import _check_order

GRID = np.linspace(-10.0, 40.0, 50)
ALPHAS = [0.0, 0.5, 1.0, 2.0]


def hyper_sum(alpha: float, n: int, x: float) -> float:
    """Independent oracle: the explicit binomial sum in 50-digit arithmetic.

    The alternating terms cancel heavily for x of order ten, so the sum is
    taken in extended precision and rounded once at the end.
    """
    import mpmath

    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for k in range(n + 1):
            binom = mpmath.gamma(n + alpha + 1) / (
                mpmath.gamma(k + alpha + 1) * mpmath.factorial(n - k)
            )
            total += (-1) ** k * binom * mpmath.mpf(x) ** k / mpmath.factorial(k)
        return float(total)


def ratio_expansion(alpha: float, beta: float, j: int, z: float, n: int, d: int) -> float:
    """Oracle: leading terms of the large-n expansion of L_{n+j}^{(alpha)}(z) / L_n^{(beta)}(z).

    Valid for z < 0; d in {1, 2} selects how many terms of the n^{-m/2}
    series to keep:

        (-z/n)^((beta-alpha)/2) * (U_0 + U_1 / sqrt(n)),
        U_0 = 1,
        U_1 = (beta^2 - alpha^2 + 2 z (beta - alpha - 2 j)) / (4 sqrt(-z)).
    """
    if not (z < 0.0):
        raise ValueError(f"ratio expansion requires z < 0, got {z!r}")
    if d not in (1, 2):
        raise ValueError(f"only d in {{1, 2}} is supported, got {d}")
    n = _check_order("n", n, 1)
    total = 1.0
    if d == 2:
        u1 = (beta**2 - alpha**2 + 2.0 * z * (beta - alpha - 2.0 * j)) / (4.0 * math.sqrt(-z))
        total += u1 / math.sqrt(n)
    return (-z / n) ** ((beta - alpha) / 2.0) * total


def reference_eval_all(family: LaguerreFamily, n_max: int, x):
    """The three-term recurrence one row expression at a time: the kernel's reference."""
    alpha = family.alpha
    xa = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + xa.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 1.0 + alpha - xa
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_max):
            out[n + 1] = ((2 * n + 1 + alpha - xa) * out[n] - (n + alpha) * out[n - 1]) / (n + 1)
    return out


class TestEval:
    def test_degree_zero_is_one(self):
        assert laguerre_eval(LaguerreFamily(1.0), 0, 7.3) == 1.0

    def test_value_at_zero_is_binomial(self):
        assert laguerre_eval(LaguerreFamily(1.0), 1, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_against_hypergeometric_sum(self):
        assert laguerre_eval(LaguerreFamily(1.0), 3, 2.0) == pytest.approx(-4.0 / 3.0, rel=1e-14)
        for alpha in ALPHAS:
            fam = LaguerreFamily(alpha)
            for n in (1, 4, 9):
                for x in (-4.0, 0.7, 13.0):
                    assert laguerre_eval(fam, n, x) == pytest.approx(
                        hyper_sum(alpha, n, x), rel=1e-11, abs=1e-11
                    )

    def test_eval_all_matches_single(self):
        fam = LaguerreFamily(1.0)
        vals = laguerre_eval_all(fam, 3, 2.0)
        assert vals == pytest.approx([1.0, 0.0, -1.0, -4.0 / 3.0], abs=1e-14)
        assert laguerre_eval_all(fam, 1, 0.0) == pytest.approx([1.0, 2.0])
        assert laguerre_eval_all(LaguerreFamily(0.0), 2, 0.0) == pytest.approx([1.0, 1.0, 1.0])

    def test_eval_all_vectorized(self):
        fam = LaguerreFamily(0.5)
        vals = laguerre_eval_all(fam, 6, GRID)
        assert vals.shape == (7, GRID.size)
        for i in (0, 17, 49):
            assert vals[6, i] == pytest.approx(laguerre_eval(fam, 6, GRID[i]), rel=1e-14)

    def test_rejects_bad_input(self):
        fam = LaguerreFamily(1.0)
        with pytest.raises(ValueError):
            laguerre_eval(fam, -1, 0.0)
        with pytest.raises(ValueError):
            laguerre_eval(fam, 2, math.nan)
        with pytest.raises(ValueError):
            laguerre_eval(fam, 2, math.inf)
        with pytest.raises(ValueError):
            LaguerreFamily(-1.0)


# -0.0, the tiny 1e-300 and the overflow regime at -4000 and 3000 (rows turn
# inf, then nan, well before n = 240) are where a reordered operation would show.
EDGE_X = st.sampled_from([-0.0, 0.0, 1e-300, 1.0, -4000.0, 3000.0]) | st.floats(-4000.0, 3000.0)
SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5)


class TestKernelIsReference:
    """laguerre_eval_all reproduces the one-expression recurrence bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        alpha=st.floats(-1.0, 8.0, exclude_min=True),
        n_max=st.integers(0, 240),
        x=EDGE_X | hnp.arrays(float, SHAPES, elements=EDGE_X),
    )
    def test_bit_identical_to_reference(self, alpha, n_max, x):
        fam = LaguerreFamily(alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            got = laguerre_eval_all(fam, n_max, x)
        ref = reference_eval_all(fam, n_max, x)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("name, n_max", [("exp-decay", 100), ("rational-decay", 60)])
    def test_solve_is_unchanged_on_the_reference(self, monkeypatch, name, n_max):
        got = solve(builtin_problem(name), n_max)
        monkeypatch.setattr(lagsob.solver, "laguerre_eval_all", reference_eval_all)
        ref = solve(builtin_problem(name), n_max)
        assert np.array_equal(got.g, ref.g) and np.array_equal(got.uhat, ref.uhat)
        assert got.quad_report == ref.quad_report

    def test_one_reused_row_buffer(self):
        # Beyond the table itself: one len(x) buffer, plus up to 256 KiB that
        # numpy's broadcasting may buffer at small sizes.  A kernel that
        # allocates per row temporaries peaks at two len(x) arrays or more.
        x = np.linspace(0.0, 50.0, 100_000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            table = laguerre_eval_all(LaguerreFamily(1.0), 50, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - table.nbytes <= x.nbytes + 256 * 1024


_L1 = LaguerreFamily(1.0)
_BASIS = sobolev_basis(1.0, 5)

# Every function taking a degree, an order or a rule size, and the ratio
# oracle above: (argument name, lowest valid value, call returning the
# result's numbers).
ORDER_CALLS = {
    "laguerre_eval_all": ("n_max", 0, lambda n: laguerre_eval_all(_L1, n, 0.5)),
    "laguerre_eval": ("n", 0, lambda n: laguerre_eval(_L1, n, 0.5)),
    "laguerre_coeffs": ("n", 0, lambda n: laguerre_coeffs(_L1, n).coef),
    "laguerre_norm_sq": ("n", 0, lambda n: laguerre_norm_sq(_L1, n)),
    "laguerre_derivative": ("n", 0, lambda n: laguerre_derivative(_L1, n, 0.5)),
    "ratio_expansion": ("n", 1, lambda n: ratio_expansion(1.0, 1.0, 0, -4.0, n, 2)),
    "sobolev_basis": ("n_max", 0, lambda n: sobolev_basis(1.0, n).s),
    "connection_recurrence": ("n_max", 1, lambda n: connection_recurrence(1.0, n)),
    "connection_ratio": ("n_max", 1, lambda n: connection_ratio(1.0, n)),
    "connection_asymptotic": ("n", 1, lambda n: connection_asymptotic(1.0, n)),
    "sobolev_eval_all": ("n", 0, lambda n: sobolev_eval_all(_BASIS, n, 0.5)),
    "sobolev_coeffs": ("n", 0, lambda n: sobolev_coeffs(_BASIS, n).coef),
    "alternating_sum_check": ("n", 0, lambda n: alternating_sum_check(_BASIS, n, 0.5)),
    "gen_fun_sobolev": ("n_trunc", 0, lambda n: gen_fun_sobolev(_BASIS, 0.5, 0.3, n)),
    "hardy_hille_check": ("n_trunc", 0, lambda n: hardy_hille_check(1.0, 0.5, 0.5, -0.25, n)),
    "gauss_laguerre": ("rule size m", 1, lambda m: gauss_laguerre(1.0, m).nodes),
}


class TestOrderCheck:
    """One check for every order: bools, floats and values below range are refused by name."""

    @pytest.mark.parametrize("name", ORDER_CALLS)
    @pytest.mark.parametrize(
        "bad", [True, 2.0, np.float64(2.0), None], ids=["True", "2.0", "float64", "below-range"]
    )
    def test_refused_by_name(self, name, bad):
        arg, lo, call = ORDER_CALLS[name]
        if bad is None:
            bad = lo - 1
        with pytest.raises(ValueError, match=re.escape(f"{arg} must be an integer in [{lo}, ")):
            call(bad)

    @pytest.mark.parametrize("name", ORDER_CALLS)
    def test_numpy_integers_match_int(self, name):
        _, _, call = ORDER_CALLS[name]
        assert np.array_equal(call(np.int64(2)), call(2))


class TestRecurrenceIdentities:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_three_term_residual(self, alpha):
        fam = LaguerreFamily(alpha)
        vals = laguerre_eval_all(fam, 61, GRID)
        for n in range(1, 60):
            resid = np.abs(
                (n + 1) * vals[n + 1]
                - (2 * n + 1 + alpha - GRID) * vals[n]
                + (n + alpha) * vals[n - 1]
            )
            assert np.all(resid <= 1e-10 * np.maximum(1.0, np.abs(vals[n + 1])))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_structure_relation(self, alpha):
        lo = laguerre_eval_all(LaguerreFamily(alpha), 60, GRID)
        hi = laguerre_eval_all(LaguerreFamily(alpha + 1.0), 60, GRID)
        for n in range(1, 61):
            resid = np.abs(lo[n] - (hi[n] - hi[n - 1]))
            assert np.all(resid <= 1e-10 * np.maximum(1.0, np.abs(lo[n])))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_boundary_value(self, alpha):
        fam = LaguerreFamily(alpha)
        for n in range(41):
            expected = math.exp(
                math.lgamma(n + alpha + 1) - math.lgamma(alpha + 1) - math.lgamma(n + 1)
            )
            assert laguerre_eval(fam, n, 0.0) == pytest.approx(expected, rel=1e-12)


class TestCoeffs:
    def test_known_vectors(self):
        fam = LaguerreFamily(1.0)
        assert laguerre_coeffs(fam, 1).coef == pytest.approx([2.0, -1.0])
        assert laguerre_coeffs(fam, 3).coef == pytest.approx([4.0, -6.0, 2.0, -1.0 / 6.0])
        assert laguerre_coeffs(LaguerreFamily(2.0), 0).coef == pytest.approx([1.0])

    def test_leading_coefficient(self):
        for alpha in ALPHAS:
            for n in (1, 5, 12):
                c = laguerre_coeffs(LaguerreFamily(alpha), n).coef
                assert c[-1] == pytest.approx((-1.0) ** n / math.factorial(n), rel=1e-13)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_consistent_with_recurrence_negative_axis(self, alpha):
        # all monomial terms share one sign for x <= 0: evaluation is
        # perfectly conditioned and plain relative agreement holds
        fam = LaguerreFamily(alpha)
        xs = np.linspace(-20.0, 0.0, 11)
        for n in (0, 1, 7, 18, 30):
            p = laguerre_coeffs(fam, n)
            direct = laguerre_eval_all(fam, n, xs)[n]
            assert p(xs) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_consistent_with_recurrence_positive_axis(self, alpha):
        # for x > 0 the terms cancel; the achievable accuracy is set by the
        # evaluation condition sum_k |c_k| x^k = L_n(-x), which reaches 5e16
        # at (n, x) = (30, 20).  Constant frozen from a measured 3.5e-15.
        fam = LaguerreFamily(alpha)
        xs = np.linspace(0.05, 20.0, 40)
        for n in (1, 7, 18, 30):
            p = laguerre_coeffs(fam, n)
            direct = laguerre_eval_all(fam, n, xs)[n]
            cond = laguerre_eval_all(fam, n, -xs)[n]
            assert np.all(np.abs(p(xs) - direct) <= 2e-14 * cond)

    def test_degree_cap(self):
        fam = LaguerreFamily(1.0)
        laguerre_coeffs(fam, 170)
        with pytest.raises(ValueError):
            laguerre_coeffs(fam, 171)
        # recurrence evaluation keeps working beyond the cap
        assert np.isfinite(laguerre_eval(fam, 400, -4.0))


class TestNorm:
    def test_integer_alpha(self):
        assert laguerre_norm_sq(LaguerreFamily(1.0), 5) == pytest.approx(6.0, rel=1e-13)

    def test_half_integer_alpha(self):
        # Gamma(1.5) = sqrt(pi)/2 and Gamma(4.5) = 3.5*2.5*1.5*0.5*sqrt(pi)
        fam = LaguerreFamily(0.5)
        assert laguerre_norm_sq(fam, 0) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)
        expected = 3.5 * 2.5 * 1.5 * 0.5 * math.sqrt(math.pi) / 6.0
        assert laguerre_norm_sq(fam, 3) == pytest.approx(expected, rel=1e-13)

    def test_large_n_stays_finite(self):
        assert np.isfinite(laguerre_norm_sq(LaguerreFamily(0.5), 5000))


class TestDerivative:
    def test_known_values(self):
        fam = LaguerreFamily(1.0)
        assert laguerre_derivative(fam, 0, 3.0) == 0.0
        assert laguerre_derivative(fam, 1, 5.0) == pytest.approx(-1.0)
        assert laguerre_derivative(fam, 3, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_second_order_fd_convergence(self):
        fam = LaguerreFamily(1.0)
        for n in (2, 5, 9):
            for x in (0.5, 3.0, 11.0):
                exact = laguerre_derivative(fam, n, x)

                def fd(h):
                    return (laguerre_eval(fam, n, x + h) - laguerre_eval(fam, n, x - h)) / (2 * h)

                e4 = abs(fd(1e-4) - exact)
                e5 = abs(fd(1e-5) - exact)
                scale = max(1.0, abs(exact))
                # second-order decrease until the rounding floor of the stencil
                assert e5 <= e4 / 20.0 + 1e-9 * scale
                assert e4 <= 1e-5 * scale


class TestRatioExpansion:
    def test_same_index_leading_term(self):
        assert ratio_expansion(1.0, 1.0, 0, -4.0, 100, 1) == 1.0

    def test_stated_values(self):
        assert ratio_expansion(1.0, 1.0, -1, -4.0, 100, 2) == pytest.approx(0.8, rel=1e-14)
        assert ratio_expansion(1.0, 1.0, -1, -4.0, 400, 2) == pytest.approx(0.9, rel=1e-14)

    def test_error_decays_like_inverse_n(self):
        # C frozen from a calibration run at n = 10^4 (observed err*n = 1.7494).
        C = 2.5
        fam = LaguerreFamily(1.0)
        z = -4.0
        vals = laguerre_eval_all(fam, 10001, z)
        for n in (100, 400, 1600, 10000):
            ratio = vals[n - 1] / vals[n]
            err = abs(ratio - ratio_expansion(1.0, 1.0, -1, z, n, 2))
            assert err <= C / n

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ratio_expansion(1.0, 1.0, 0, 1.0, 10, 2)
        with pytest.raises(ValueError):
            ratio_expansion(1.0, 1.0, 0, 0.0, 10, 2)
        with pytest.raises(ValueError):
            ratio_expansion(1.0, 1.0, 0, -1.0, 10, 3)
        with pytest.raises(ValueError):
            ratio_expansion(1.0, 1.0, 0, -1.0, 0, 1)
