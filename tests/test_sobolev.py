"""Connection coefficients, Sobolev polynomials, norms, generating functions."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagsob import (
    alternating_sum_check,
    connection_asymptotic,
    connection_ratio,
    connection_recurrence,
    gauss_laguerre,
    gen_fun_sobolev,
    hardy_hille_check,
    integrate,
    laguerre_coeffs,
    laguerre_eval_all,
    LaguerreFamily,
    SobolevBasis,
    sobolev_basis,
    sobolev_coeffs,
    sobolev_eval_all,
)
from lagsob.sobolev import _bilinear_closed_form
from lagsob.validation import _sobolev_gram


def sobolev_inner_poly(basis, p, q, m):
    """Oracle <p, q>_S of numpy Polynomials by exact-degree alpha=1 and alpha=2 rules of size m."""
    if p.degree() + q.degree() + 2 > 2 * m - 1:
        raise ValueError(
            f"rule size m={m} too small for degrees {p.degree()} and {q.degree()}; "
            f"need deg p + deg q + 2 <= 2m - 1"
        )
    lam = basis.lam
    dp, dq = p.deriv(), q.deriv()
    first = integrate(gauss_laguerre(1.0, m), lambda x: p(x) * q(x) * (1.0 + lam - 0.25 * x))
    second = integrate(gauss_laguerre(2.0, m), lambda x: dp(x) * dq(x))
    return first + second


LAMBDAS = [0.5, 1.0, 2.0, 10.0]
LAM_MAX = np.finfo(float).max / 4  # the largest lam whose -4 lam is finite

# Exact rational coefficient lists for lam = 1, constant term first.
S_COEFFS_LAM1 = [
    [Fraction(1)],
    [Fraction(5, 3), Fraction(-1)],
    [Fraction(54, 23), Fraction(-60, 23), Fraction(1, 2)],
    [Fraction(158, 53), Fraction(-258, 53), Fraction(189, 106), Fraction(-1, 6)],
    [
        Fraction(2045, 567),
        Fraction(-1460, 189),
        Fraction(25, 6),
        Fraction(-1285, 1701),
        Fraction(1, 24),
    ],
]


class TestConnectionSequence:
    def test_first_values_lam1(self):
        a = connection_recurrence(1.0, 3)
        assert a[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert a[1] == pytest.approx(9.0 / 23.0, abs=1e-15)
        assert a[2] == pytest.approx(23.0 / 53.0, abs=1e-15)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_first_coefficient_closed_form(self, lam):
        assert connection_recurrence(lam, 1)[0] == pytest.approx(1.0 / (2.0 * lam + 1.0))

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_recurrence_matches_ratio_formula(self, lam):
        a = connection_recurrence(lam, 201)
        ratio = connection_ratio(lam, 201)
        for n in range(201):
            assert abs(a[n] - ratio[n]) <= 1e-12 * ratio[n]

    @pytest.mark.parametrize("lam", [1e-3, 0.01, 1.0, 3.0, 100.0])
    def test_ratio_is_one_sweep_of_the_laguerre_table(self, lam):
        # The difference-form sweep gives the ratios of the alpha=1 table at -4 lam
        # up to the table's own rounding (5e-15 at lam = 1e-3, where 1 - a_n is small).
        lag = laguerre_eval_all(LaguerreFamily(1.0), 201, -4.0 * lam)
        n = np.arange(201)
        expected = (n + 2.0) / (n + 1.0) * lag[:-1] / lag[1:]
        np.testing.assert_allclose(connection_ratio(lam, 201), expected, rtol=1e-14, atol=0.0)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(log_lam=st.floats(-15.0, 3.0))
    def test_ratio_matches_mpmath_down_to_tiny_lambda(self, log_lam):
        # 1 - a_n ~ 2 lam sits in the last digits of L_n^{(1)}(-4 lam) ~ n + 1;
        # the difference form keeps it down to lam = 1e-15 at n_max = 1000.
        lam = 10.0**log_lam
        a = connection_ratio(lam, 1001)
        with mpmath.workdps(60):
            x = -4 * mpmath.mpf(lam)
            lo, hi = mpmath.mpf(1), 2 - x
            for n in range(1001):
                if n:
                    lo, hi = hi, ((2 * n + 2 - x) * hi - (n + 1) * lo) / (n + 1)
                if n % 50 == 0 or n == 1000:
                    ref = mpmath.mpf(n + 2) / (n + 1) * lo / hi
                    assert abs(a[n] - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("lam", [1000.0, 1e200])
    def test_ratio_survives_laguerre_overflow(self, lam):
        # L_n^{(1)}(-4000) leaves double range at n = 170, and every step at
        # -4e200 multiplies by ~4e200; the ratios do not overflow.
        ratio = connection_ratio(lam, 401)
        assert np.all(np.isfinite(ratio))
        with mpmath.workdps(40):
            for n in (0, 50, 168, 169, 250, 400):
                ref = (
                    mpmath.mpf(n + 2) / (n + 1)
                    * mpmath.laguerre(n, 1, -4 * lam) / mpmath.laguerre(n + 1, 1, -4 * lam)
                )
                assert abs(ratio[n] - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_bounds_and_residual(self, lam):
        a = connection_recurrence(lam, 201)
        assert np.all((a > 0.0) & (a < 1.0))
        for n in range(201):
            assert a[n] < (n + 2) / (4 * lam + n + 2) + 1e-15
            prev = a[n - 1] if n >= 1 else 0.0
            resid = abs(a[n] * (4 * lam + 2 * (n + 1) - n * prev) - (n + 2))
            assert resid <= 1e-12 * (n + 2)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(log_lam=st.floats(math.log10(5e-324), math.log10(LAM_MAX)), n_max=st.integers(1, 2000))
    @example(log_lam=math.log10(LAM_MAX), n_max=2000)
    @example(log_lam=math.log10(5e-324), n_max=1)
    def test_recurrence_denominator_stays_positive(self, log_lam, n_max):
        # Recurrence: a_0 = 2/(4 lam + 2) <= 1, and a_{n-1} <= 1 makes the
        # rounded denominator 4 lam + 2(n+1) - n a_{n-1} at least n + 2, so
        # a_n <= 1.  Sweep: a_n = p/(p + e) with p in [1/2, 1) and e >= 0
        # finite while 4 lam is.  Both stay in (0, 1], so the only refusal left
        # is an a_n that rounds to 1, named by lam.
        lam = min(max(10.0**log_lam, 5e-324), LAM_MAX)
        for connection in (connection_recurrence, connection_ratio):
            try:
                a = connection(lam, n_max)
            except ValueError as exc:
                assert f"lambda={lam!r}" in str(exc) and "rounds to 1" in str(exc)
            else:
                assert a.shape == (n_max,) and not a.flags.writeable
                assert np.all((a > 0.0) & (a < 1.0))

    def test_ratio_small_cases(self):
        # L_1^{(1)}(-4) = 6 and L_2^{(1)}(-4) = 23
        ratio = connection_ratio(1.0, 2)
        assert ratio.shape == (2,)
        assert ratio[0] == pytest.approx(2.0 / 6.0, abs=1e-15)
        assert ratio[1] == pytest.approx(1.5 * 6.0 / 23.0, abs=1e-15)

    def test_large_lam_limit(self):
        lam = 1e6
        assert connection_recurrence(lam, 1)[0] == pytest.approx(2.0 / (4.0 * lam + 2.0))

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_basis_carries_a_n_max(self, n):
        # The basis holds a_0..a_{n_max}, the prefix of a longer ratio sweep.
        for lam in (0.5, 2.0):
            basis_a = sobolev_basis(lam, n).a
            assert np.array_equal(basis_a, connection_ratio(lam, n + 1))
            assert np.array_equal(basis_a, connection_ratio(lam, n + 10)[: n + 1])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            connection_recurrence(0.0, 5)
        with pytest.raises(ValueError):
            connection_recurrence(-1.0, 5)
        with pytest.raises(ValueError):
            connection_recurrence(1.0, 0)
        with pytest.raises(ValueError):
            connection_ratio(0.0, 5)
        with pytest.raises(ValueError):
            connection_ratio(1.0, 0)
        # -4 lam would overflow to -inf, and the sweep would give a_0 = 0.
        for connection in (connection_recurrence, connection_ratio):
            with pytest.raises(ValueError, match="lam > 0 and 4\\*lam finite, got 1e\\+308"):
                connection(1e308, 3)

    @pytest.mark.parametrize("lam, n_max", [(1e-17, 20), (1e-15, 1000)])
    def test_lambda_too_small_for_double_precision(self, lam, n_max):
        # 1 - a_n is O(lam).  The ratio sweep behind the basis keeps every a_n
        # below 1 unless a_0 = 1/(1 + 2 lam) itself rounds to 1; then the caller
        # gets a ValueError naming lam and n_max, not a broken recurrence.
        if 1.0 + 2.0 * lam == 1.0:
            message = rf"lambda={lam!r} is too small for n_max={n_max}: a_0 rounds to 1"
            with pytest.raises(ValueError, match=message):
                sobolev_basis(lam, n_max)
            with pytest.raises(ValueError, match=message):
                connection_ratio(lam, n_max + 1)
        else:
            basis = sobolev_basis(lam, n_max)
            assert basis.n_max == n_max and np.all(basis.a < 1.0)

    def test_smallest_lambdas_that_fit_double_precision(self):
        assert sobolev_basis(1e-14, 1000).n_max == 1000
        assert sobolev_basis(2.3e-16, 20).n_max == 20

    def test_results_are_read_only(self):
        basis = sobolev_basis(1.0, 5)
        for arr in (connection_recurrence(1.0, 5), connection_ratio(1.0, 5), basis.a, basis.s):
            with pytest.raises(ValueError):
                arr[0] = 0.5


class TestSobolevBasisChecks:
    A = [0.3, 0.4]

    def test_accepts_and_copies_valid_data(self):
        a = np.array(self.A)
        basis = SobolevBasis(lam=1.0, a=a)
        a[0] = 0.9
        # s(n) = (n+1)(n+2)/(4 a_n), from the copied a.
        assert basis.a.tolist() == self.A and basis.s.tolist() == [2.0 / (4.0 * 0.3), 6.0 / (4.0 * 0.4)]
        assert basis.n_max == 1
        with pytest.raises(ValueError):
            basis.s[0] = 1.0

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, math.nan, math.inf])
    def test_rejects_a_outside_open_unit_interval(self, bad):
        # The first a_n outside (0, 1), by index and as a Python float.
        with pytest.raises(ValueError, match=rf"^a_1 must lie in \(0, 1\), got {bad!r}$"):
            SobolevBasis(lam=1.0, a=[0.3, bad, 2.0])

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf, 1e308])
    def test_rejects_invalid_lambda(self, lam):
        # Refused here, not later by gen_fun_sobolev as a ZeroDivisionError,
        # "math domain error" or a bessel_j range error.
        with pytest.raises(ValueError, match="lam > 0"):
            SobolevBasis(lam, self.A)
        # sobolev_basis refuses the lambda before it looks at n_max.
        with pytest.raises(ValueError, match="lam > 0"):
            sobolev_basis(lam, -1)

    def test_rejects_empty_connection(self):
        with pytest.raises(ValueError, match="at least a_0"):
            SobolevBasis(lam=1.0, a=[])


class TestAsymptotics:
    def test_formula_values(self):
        # The smaller root of n a^2 - B a + (n+2) = 0, B = 4 lam + 2n + 2, in 30 digits.
        def root(lam, n):
            with mpmath.workdps(30):
                b = 4 * mpmath.mpf(lam) + 2 * n + 2
                return float((b - mpmath.sqrt(b * b - 4 * n * (n + 2))) / (2 * n))

        assert connection_asymptotic(1.0, 4) == pytest.approx(0.5, rel=1e-15)
        for lam in (1e-15, 1e-3, 1.0, 1e3, 1e200):
            assert connection_asymptotic(lam, 0) == connection_recurrence(lam, 1)[0] == 2.0 / (4.0 * lam + 2.0)
        for lam, n in [(1.0, 1), (1.0, 10**4), (1000.0, 100), (1e-3, 7)]:
            assert connection_asymptotic(lam, n) == pytest.approx(root(lam, n), rel=1e-15)

    @pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3, 1e200])
    def test_inside_unit_interval(self, lam):
        values = [connection_asymptotic(lam, n) for n in range(1, 1001)]
        assert all(0.0 < v < 1.0 for v in values)

    @pytest.mark.parametrize("lam", [1e-3, 1.0, 10.0, 1e3])
    def test_first_order_against_ratio(self, lam):
        # measured: relative error <= 1.09e-2 (lam = 1, n = 3), n * error -> ~0.25
        a = connection_ratio(lam, 1001)
        for n in range(1, 1001):
            rel = abs(connection_asymptotic(lam, n) - a[n]) / a[n]
            assert rel <= 1.1e-2 and n * rel <= 0.25

    def test_remainder_at_large_n(self):
        # The fixed point errs by |a_n - asym| = 2.38e-5 at lam = 1, n = 10^4,
        # about 0.25/n relative; the bound leaves a factor ~2.
        a = connection_recurrence(1.0, 10**4 + 1)
        assert abs(a[10**4] - connection_asymptotic(1.0, 10**4)) <= 5e-5

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_scaled_gap_approaches_limit(self, lam):
        a = connection_recurrence(lam, 10**4 + 1)
        target = 2.0 * math.sqrt(lam)

        def gap(n):
            return abs(math.sqrt(n) * (1.0 - a[n]) - target)

        assert gap(10**4) <= gap(10**3) <= gap(10**2)
        if lam == 1.0:
            assert gap(10**4) <= 0.05


class TestSobolevPolynomials:
    def test_printed_values_lam1(self):
        basis = sobolev_basis(1.0, 4)
        at0, at1 = sobolev_eval_all(basis, 4, np.array([0.0, 1.0])).T
        assert at0[1] == pytest.approx(5.0 / 3.0, abs=1e-14)
        assert at0[2] == pytest.approx(54.0 / 23.0, abs=1e-14)
        # value assembled from the printed degree-4 coefficients (exact -9053/13608)
        assert at1[4] == pytest.approx(-9053.0 / 13608.0, abs=1e-13)

    def test_coefficients_match_printed_rationals(self):
        basis = sobolev_basis(1.0, 4)
        for n, expected in enumerate(S_COEFFS_LAM1):
            got = sobolev_coeffs(basis, n).coef
            assert got == pytest.approx([float(c) for c in expected], abs=1e-12)

    def test_leading_coefficient(self):
        basis = sobolev_basis(2.0, 12)
        for n in (1, 5, 12):
            c = sobolev_coeffs(basis, n).coef
            assert c[-1] == pytest.approx((-1.0) ** n / math.factorial(n), rel=1e-13)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_connection_identity_coefficient_level(self, lam):
        basis = sobolev_basis(lam, 25)
        fam = LaguerreFamily(1.0)
        a = basis.a
        for n in range(1, 26):
            lk = laguerre_coeffs(fam, n).coef
            sn = sobolev_coeffs(basis, n).coef
            sm = sobolev_coeffs(basis, n - 1).coef
            resid = lk.copy()
            resid -= sn
            resid[: sm.size] -= a[n - 1] * sm
            assert np.max(np.abs(resid)) <= 1e-12

    @pytest.mark.parametrize("n", [0, 1, 200])
    @pytest.mark.parametrize("x", [2.5, np.linspace(0.0, 500.0, 2001)], ids=["scalar", "array"])
    def test_in_place_table_matches_two_table_recursion(self, n, x):
        # Same arithmetic in the same order, so the CLI CSVs stay byte-identical.
        basis = sobolev_basis(1.0, 200)
        lag = laguerre_eval_all(LaguerreFamily(1.0), n, x)
        ref = np.zeros_like(lag)
        ref[0] = 1.0
        for k in range(1, n + 1):
            ref[k] = lag[k] - basis.a[k - 1] * ref[k - 1]
        assert np.array_equal(sobolev_eval_all(basis, n, x), ref)


class TestSobolevNorms:
    @pytest.mark.parametrize("lam", [1e-15, 1e-6, 1e-3, 1.0, 13.0, 1e3, 1e6, 1e200])
    def test_basis_matches_mpmath(self, lam):
        # Oracle: a_n from the alpha=1 Laguerre recurrence at -4 lam, s(n) from
        # the norm recurrence s(n) = (n+1)(lam + (n+1)/2) - a_{n-1}^2 s(n-1),
        # both in 50-digit arithmetic.
        basis = sobolev_basis(lam, 1000)
        with mpmath.workdps(50):
            lm = mpmath.mpf(lam)
            x = -4 * lm
            lo, hi = mpmath.mpf(1), 2 - x
            s = lm + mpmath.mpf(1) / 2
            for n in range(1001):
                if n:
                    s = (n + 1) * (lm + mpmath.mpf(n + 1) / 2) - a**2 * s
                    lo, hi = hi, ((2 * n + 2 - x) * hi - (n + 1) * lo) / (n + 1)
                a = mpmath.mpf(n + 2) / (n + 1) * lo / hi
                assert abs(basis.a[n] - a) <= 1e-15 * a
                assert abs(basis.s[n] - s) <= 1e-15 * s

    def test_base_cases(self):
        assert sobolev_basis(1.0, 0).s[0] == 1.5
        assert sobolev_basis(3.7, 0).s[0] == pytest.approx(4.2)

    def test_one_step(self):
        basis = sobolev_basis(1.0, 1)
        assert basis.s[1] == pytest.approx(23.0 / 6.0, rel=1e-14)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_product_identity(self, lam):
        # a_{n-1} s(n-1) = n (n+1) / 4, restating the projection coefficient
        basis = sobolev_basis(lam, 200)
        a, s = basis.a, basis.s
        for n in range(1, 201):
            assert a[n - 1] * s[n - 1] == pytest.approx(n * (n + 1) / 4.0, rel=1e-10)

    def test_positivity(self):
        for lam in LAMBDAS:
            assert np.all(sobolev_basis(lam, 200).s > 0.0)


class TestSobolevInnerProduct:
    def test_norm_examples(self):
        basis = sobolev_basis(1.0, 2)
        p0 = sobolev_coeffs(basis, 0)
        p1 = sobolev_coeffs(basis, 1)
        p2 = sobolev_coeffs(basis, 2)
        assert sobolev_inner_poly(basis, p0, p0, 4) == pytest.approx(1.5, rel=1e-14)
        assert abs(sobolev_inner_poly(basis, p0, p1, 4)) <= 1e-14
        assert sobolev_inner_poly(basis, p2, p2, 8) == pytest.approx(basis.s[2], rel=1e-13)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_gram_matrix_diagonal(self, lam):
        n_max = 10
        basis = sobolev_basis(lam, n_max)
        polys = [sobolev_coeffs(basis, n) for n in range(n_max + 1)]
        table = _sobolev_gram(basis, n_max + 2)
        for i in range(n_max + 1):
            for j in range(i, n_max + 1):
                val = sobolev_inner_poly(basis, polys[i], polys[j], n_max + 2)
                # validate's table Gram agrees with this oracle to the rounding of its
                # monomial coefficients (up to 6.5e-13 of the norms here).
                assert abs(table[i, j] - val) <= 2e-12 * math.sqrt(basis.s[i] * basis.s[j])
                if i == j:
                    assert val == pytest.approx(basis.s[i], rel=1e-10)
                else:
                    assert abs(val) <= 1e-9

    def test_positive_definite_on_random_polynomials(self):
        rng = np.random.default_rng(42)
        basis = sobolev_basis(1.0, 10)
        for _ in range(100):
            deg = int(rng.integers(0, 11))
            p = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, deg + 1))
            assert sobolev_inner_poly(basis, p, p, 12) > 0.0

    def test_rejects_insufficient_rule(self):
        basis = sobolev_basis(1.0, 10)
        p = sobolev_coeffs(basis, 10)
        with pytest.raises(ValueError):
            sobolev_inner_poly(basis, p, p, 5)


class TestAlternatingSum:
    def test_degree_zero_exact(self):
        basis = sobolev_basis(1.0, 1)
        assert alternating_sum_check(basis, 0, 3.0) == 0.0

    def test_two_terms(self):
        basis = sobolev_basis(1.0, 1)
        assert alternating_sum_check(basis, 1, 0.0) <= 1e-14

    def test_shifted_connection_is_caught(self):
        # The weights come from connection_recurrence, not from basis.a, so a
        # basis whose a_0 is off by 1e-6 fails the identity.
        good = sobolev_basis(1.0, 20)
        a = good.a.copy()
        a[0] += 1e-6
        bad = SobolevBasis(lam=1.0, a=a)
        assert alternating_sum_check(good, 5, 1.0) <= 1e-12
        assert alternating_sum_check(bad, 5, 1.0) > 1e-10

    # L_40^{(1)}(-4 lam) leaves double range from lam ~ 1e9 on; the a_k do not.
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 1e9, 1e100, 1e200])
    def test_residual_small(self, lam):
        basis = sobolev_basis(lam, 40)
        for n in range(0, 41, 4):
            for x in (0.0, 1.0, 5.0, 10.0):
                assert alternating_sum_check(basis, n, x) <= 1e-10


class TestGeneratingFunctions:
    def test_sobolev_small_omega_limit(self):
        basis = sobolev_basis(1.0, 10)
        lhs, rhs = gen_fun_sobolev(basis, 1.0, 1e-8)
        assert lhs == pytest.approx(1.0, abs=1e-6)
        assert rhs == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "lam,x,omega",
        [(1.0, 1.0, 0.3), (0.5, 2.0, 0.5), (1.0, 0.5, 0.7), (2.0, 1.5, 0.2), (1.0, 3.0, 0.8), (0.5, 1.0, 0.6)],
    )
    def test_sobolev_series_matches_closed_form(self, lam, x, omega):
        basis = sobolev_basis(lam, 700)
        lhs, rhs = gen_fun_sobolev(basis, x, omega)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))

    def test_sobolev_rejects_out_of_range(self):
        basis = sobolev_basis(1.0, 10)
        with pytest.raises(ValueError):
            gen_fun_sobolev(basis, 1.0, 0.9)
        with pytest.raises(ValueError):
            gen_fun_sobolev(basis, 1.0, 0.0)
        with pytest.raises(ValueError):
            gen_fun_sobolev(basis, -1.0, 0.3)

    def test_hardy_hille_small_omega_limit(self):
        lhs, rhs = hardy_hille_check(1.0, 2.0, 3.0, -1e-9, 50)
        assert lhs == pytest.approx(1.0, abs=1e-7)
        assert rhs == pytest.approx(1.0, abs=1e-7)

    HARDY_HILLE_POINTS = [
        (1.0, 1.0, 1.0, -0.25),
        (0.0, 1.0, 2.0, -0.4),
        (1.0, 3.0, 0.5, -0.6),
        (2.0, 2.0, 2.0, -0.1),
        (0.5, 1.0, 1.0, -0.5),
        (1.0, 5.0, 4.0, -0.3),
    ]

    @pytest.mark.parametrize("alpha,x,y,omega", HARDY_HILLE_POINTS)
    def test_hardy_hille_matches_closed_form(self, alpha, x, y, omega):
        lhs, rhs = hardy_hille_check(alpha, x, y, omega, 400)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))

    def test_hardy_hille_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hardy_hille_check(1.0, 1.0, 1.0, 0.3, 50)
        with pytest.raises(ValueError):
            hardy_hille_check(1.0, 1.0, 1.0, -1.0, 50)
        for x, y in ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="x and y must be > 0"):
                hardy_hille_check(1.0, x, y, -0.5, 10)
        # LaguerreFamily admits alpha in (-1, 0); J_alpha here does not.
        with pytest.raises(ValueError, match="alpha"):
            hardy_hille_check(-0.5, 1.0, 1.0, -0.5, 10)

    # Both branches: the Hardy-Hille points (y > 0, w < 0) and the Sobolev
    # generating function's (alpha, y) = (1, -4 lam) at validate's (x, w), w > 0.
    @pytest.mark.parametrize(
        "alpha,x,y,omega",
        HARDY_HILLE_POINTS
        + [(1.0, x, -4.0 * lam, omega)
           for lam in (1e-3, 1.0, 10.0)
           for x, omega in [(1.0, 0.3), (2.0, 0.5), (0.5, 0.7), (1.5, 0.2)]],
    )
    def test_closed_form_matches_mpmath(self, alpha, x, y, omega):
        with mpmath.workdps(40):
            a, xm, ym, w = (mpmath.mpf(v) for v in (alpha, x, y, omega))
            prod = -xm * ym * w
            ref = (mpmath.gamma(a + 1) / (1 - w) * mpmath.exp(-(xm + ym) * w / (1 - w))
                   * prod ** (-a / 2) * mpmath.besselj(a, 2 * mpmath.sqrt(prod) / (1 - w)))
        got = _bilinear_closed_form(alpha, x, y, omega)
        assert abs(got - float(ref)) <= 1e-14 * abs(float(ref))

    @pytest.mark.parametrize("alpha,x,y,omega", HARDY_HILLE_POINTS)
    def test_hardy_hille_series_matches_mpmath(self, alpha, x, y, omega):
        # The same 401 terms in 40 digits: Laguerre values by their recurrence,
        # weights binom(k+alpha, k)^{-1} w^k term by term.
        with mpmath.workdps(40):
            a, xm, ym, w = (mpmath.mpf(v) for v in (alpha, x, y, omega))
            lx, ly = [mpmath.mpf(1), 1 + a - xm], [mpmath.mpf(1), 1 + a - ym]
            for k in range(1, 400):
                lx.append(((2 * k + 1 + a - xm) * lx[k] - (k + a) * lx[k - 1]) / (k + 1))
                ly.append(((2 * k + 1 + a - ym) * ly[k] - (k + a) * ly[k - 1]) / (k + 1))
            ref = float(mpmath.fsum(w**k * mpmath.binomial(k + a, k) ** -1 * lx[k] * ly[k]
                                    for k in range(401)))
        lhs, _ = hardy_hille_check(alpha, x, y, omega, 400)
        assert abs(lhs - ref) <= 1e-14 * abs(ref)

    def test_sobolev_closed_form_is_hardy_hille_at_minus_four_lam(self):
        # Both sides come back as Python floats, and the Sobolev closed form is
        # the alpha = 1 bilinear one at y = -4 lam over 1 + w, bit for bit.
        basis = sobolev_basis(2.0, 60)
        lhs, rhs = gen_fun_sobolev(basis, 1.5, 0.2)
        assert type(lhs) is type(rhs) is float
        assert rhs == _bilinear_closed_form(1.0, 1.5, -8.0, 0.2) / 1.2
        assert all(type(v) is float for v in hardy_hille_check(0.5, 1.0, 1.0, -0.5, 40))
