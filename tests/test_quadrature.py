"""Gauss-Laguerre rules: exactness, interlacing, and the adaptive integrators."""

import math

import numpy as np
import pytest

from lagsob import (
    LaguerreFamily,
    gauss_laguerre,
    integrate,
    integrate_adaptive,
    integrate_halfweight,
    integrate_plain,
    laguerre_eval_all,
)


class TestRuleConstruction:
    def test_one_point_rules(self):
        r0 = gauss_laguerre(0.0, 1)
        assert r0.nodes == pytest.approx([1.0]) and r0.weights == pytest.approx([1.0])
        r1 = gauss_laguerre(1.0, 1)
        assert r1.nodes == pytest.approx([2.0]) and r1.weights == pytest.approx([1.0])
        # The Jacobi eigenproblem of size one reproduces the closed form exactly:
        # node = first moment ratio, weight = zeroth moment.
        for alpha in (-0.5, 0.0, 0.5, 1.0, 2.5):
            rule = gauss_laguerre(alpha, 1)
            lg = math.lgamma(alpha + 1.0)
            assert rule.nodes.tolist() == [alpha + 1.0]
            assert rule.weights.tolist() == [math.exp(lg)]
            assert rule.log_weights.tolist() == [lg]

    def test_two_point_closed_form(self):
        r = gauss_laguerre(0.0, 2)
        assert r.nodes == pytest.approx([2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)], rel=1e-14)
        assert r.weights == pytest.approx(
            [(2.0 + math.sqrt(2.0)) / 4.0, (2.0 - math.sqrt(2.0)) / 4.0], rel=1e-14
        )

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_exactness_to_degree_2m_minus_1(self, alpha):
        for m in range(1, 41):
            rule = gauss_laguerre(alpha, m)
            assert np.all(rule.nodes > 0.0)
            assert np.all(np.diff(rule.nodes) > 0.0)
            assert np.all(rule.weights > 0.0)
            for k in range(2 * m):
                exact = math.exp(math.lgamma(k + alpha + 1.0))
                got = float(np.dot(rule.weights, rule.nodes ** float(k)))
                assert got == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_zeroth_moment(self, alpha):
        for m in (1, 5, 20, 64):
            rule = gauss_laguerre(alpha, m)
            assert float(rule.weights.sum()) == pytest.approx(
                math.exp(math.lgamma(alpha + 1.0)), rel=1e-10
            )

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_node_interlacing(self, alpha):
        for m in range(1, 40):
            small = gauss_laguerre(alpha, m).nodes
            big = gauss_laguerre(alpha, m + 1).nodes
            for i in range(m):
                assert big[i] < small[i] < big[i + 1]

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            gauss_laguerre(1.0, 0)
        with pytest.raises(ValueError):
            gauss_laguerre(1.0, 257)
        with pytest.raises(ValueError):
            gauss_laguerre(-1.0, 4)

    def test_rules_are_deterministic_and_immutable(self):
        a = gauss_laguerre(1.0, 17)
        b = gauss_laguerre(1.0, 17)
        assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights)
        with pytest.raises(ValueError):
            a.nodes[0] = 0.0


class TestIntegrate:
    def test_constant(self):
        rule = gauss_laguerre(1.0, 4)
        assert integrate(rule, lambda x: np.ones_like(x)) == pytest.approx(1.0, rel=1e-14)

    def test_laguerre_orthogonality(self):
        fam = LaguerreFamily(1.0)
        rule = gauss_laguerre(1.0, 5)
        sq = integrate(rule, lambda x: laguerre_eval_all(fam, 1, x)[1] ** 2)
        assert sq == pytest.approx(2.0, rel=1e-13)
        cross = integrate(
            rule, lambda x: laguerre_eval_all(fam, 2, x)[1] * laguerre_eval_all(fam, 2, x)[2]
        )
        assert abs(cross) <= 1e-13

    def test_scalar_only_callables_work(self):
        rule = gauss_laguerre(0.0, 24)
        assert integrate(rule, lambda x: math.exp(-x)) == pytest.approx(0.5, rel=1e-10)

    def test_nonfinite_integrand_names_node(self):
        rule = gauss_laguerre(0.0, 4)
        with pytest.raises(ValueError, match="node"):
            integrate(rule, lambda x: np.where(x > 1.0, np.inf, 1.0))

    def test_discrete_orthogonality_gram(self):
        # n_max+1 nodes resolve products of the first n_max+1 basis members
        n_max = 25
        fam = LaguerreFamily(1.0)
        rule = gauss_laguerre(1.0, n_max + 1)
        vals = laguerre_eval_all(fam, n_max, rule.nodes)
        gram = (vals * rule.weights) @ vals.T
        for n in range(n_max + 1):
            assert gram[n, n] == pytest.approx(n + 1.0, rel=1e-12)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-9


class TestIntegratePlain:
    def test_exponentials(self):
        rule = gauss_laguerre(0.0, 24)
        assert integrate_plain(rule, lambda x: np.exp(-x)) == pytest.approx(1.0, rel=1e-13)
        assert integrate_plain(rule, lambda x: np.exp(-2.0 * x)) == pytest.approx(0.5, rel=1e-8)

    def test_large_rule_handles_decaying_integrand(self):
        # far nodes sit past x = 700 where any e^{x} compensation would overflow
        rule = gauss_laguerre(0.0, 256)
        val = integrate_plain(rule, lambda x: x * np.exp(-x))
        assert np.isfinite(val) and val == pytest.approx(1.0, rel=1e-10)


class TestHalfweight:
    def test_moments(self):
        assert integrate_halfweight(lambda x: np.ones_like(x), 2) == pytest.approx(4.0, rel=1e-14)
        assert integrate_halfweight(lambda x: x, 2) == pytest.approx(16.0, rel=1e-14)

    def test_exponential_closed_form(self):
        # h = e^{-x/2} makes the full integrand x e^{-x}, whose integral is 1
        assert integrate_halfweight(lambda x: np.exp(-x / 2.0), 64) == pytest.approx(1.0, rel=1e-13)

    def test_rational_vs_trapezoid_oracle(self):
        xs = np.linspace(0.0, 200.0, 10**6 + 1)
        oracle = np.trapezoid(xs * np.exp(-xs / 2.0) / (1.0 + xs) ** 2, xs)
        res = integrate_adaptive(lambda x: 1.0 / (1.0 + x) ** 2, 16, 1e-10)
        assert res.value == pytest.approx(float(oracle), abs=1e-8)


class TestAdaptive:
    def test_polynomial_converges_at_first_doubling(self):
        res = integrate_adaptive(lambda x: x**5 - 2.0 * x**2 + 1.0, 4, 1e-12)
        assert res.converged and res.m_used == 8
        # independent moment oracle: int x^k x e^{-x/2} dx = 2^{k+2} (k+1)!
        exact = 2.0**7 * math.factorial(6) - 2.0 * 2.0**4 * math.factorial(3) + 4.0
        assert res.value == pytest.approx(exact, rel=1e-13)

    def test_exp_decay_data_hits_closed_form(self):
        def f(x):
            return np.exp(-x) * (3.0 * np.cos(x) - 2.0 * (-1.0 + x) * np.sin(x))

        res = integrate_adaptive(f, 16, 1e-12)
        assert res.converged
        assert res.value == pytest.approx(556.0 / 2197.0, rel=1e-10)

    def test_cap_flags_nonconvergence(self):
        # integrand with slow algebraic decay against the weight
        res = integrate_adaptive(lambda x: 1.0 / (1.0 + x) ** 0.5, 128, 1e-15)
        assert res.m_used == 256
        assert not res.converged
        assert res.achieved_tol > 1e-15

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, 0, 1e-10)
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, 8, -1.0)
