"""Gauss-Laguerre rules: exactness, interlacing, and the adaptive integrators.

Also the oracles of the rules: LAPACK's stev, which wrote rules.npz, and
40-digit mpmath for the numpy builder.  After a change to the policy,
regenerate the table with
PYTHONPATH=src:tests python -c "from test_quadrature import write_table; write_table()".
"""

import math
import warnings

import mpmath
import numpy as np
import pytest

from lagsob import (
    BVProblem,
    LaguerreFamily,
    builtin_problem,
    gauss_laguerre,
    integrate,
    integrate_adaptive,
    integrate_plain,
    laguerre_eval_all,
    solve,
)
from lagsob import quadrature
from lagsob.quadrature import M_MAX, TOL


def stev_rule(alpha, m):
    """Golub-Welsch nodes, weights and log-weights by LAPACK stev: the builder of rules.npz."""
    from scipy.linalg import eigh_tridiagonal

    k = np.arange(m, dtype=float)
    # The classic implicit-shift QL driver: the fast MRRR driver (stemr)
    # returns exactly-zero first eigenvector components for some graded
    # matrices in this family, which would zero out interior weights.
    nodes, vecs = eigh_tridiagonal(
        2.0 * k + alpha + 1.0, np.sqrt(k[1:] * (k[1:] + alpha)), lapack_driver="stev"
    )
    v0 = vecs[0]
    lg = math.lgamma(alpha + 1.0)
    return nodes, math.exp(lg) * v0**2, lg + 2.0 * np.log(np.maximum(np.abs(v0), 1e-300))


def policy_sizes():
    """The rule sizes integrate_adaptive tries when no two values agree."""
    asked = []
    integrate_adaptive(lambda m: asked.append(m) or float(m))
    return asked


POLICY_PAIRS = [(alpha, m) for alpha in (0.0, 1.0) for m in policy_sizes()]


def write_table(path=quadrature._TABLE):
    """Write rules.npz: per policy pair, the stev_rule rows (nodes, weights, log-weights)."""
    np.savez(path, **{f"{a!r}_{m}": stev_rule(a, m) for a, m in POLICY_PAIRS})


def mp_node_and_log_weight(alpha, m, x):
    """The zero of L_m^{(alpha)} next to x and its log-weight, to 40 digits.

    Newton from x on the recurrence in mpmath; the weight comes from the
    derivative form w = Gamma(m+alpha+1) / (m! x L_m'(x)^2), independent of
    the Christoffel sum the builder forms.
    """
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)

        def lag(t):  # L_{m-1}(t), L_m(t)
            lo, hi = mpmath.mpf(0), mpmath.mpf(1)
            for k in range(m):
                lo, hi = hi, ((2 * k + 1 + a - t) * hi - (k + a) * lo) / (k + 1)
            return lo, hi

        t = mpmath.mpf(float(x))
        for _ in range(4):
            lo, hi = lag(t)
            t -= t * hi / (m * hi - (m + a) * lo)
        lo, hi = lag(t)
        deriv = (m * hi - (m + a) * lo) / t
        log_w = mpmath.loggamma(m + a + 1) - mpmath.loggamma(m + 1) - mpmath.log(t) - 2 * mpmath.log(abs(deriv))
        return float(t), float(log_w)


def adaptive_halfweight(h):
    """int h(x) x e^{-x/2} dx = 4 int h(2t) t e^{-t} dt under the policy, as in solve."""
    return integrate_adaptive(lambda m: integrate(gauss_laguerre(1.0, m), lambda t: 4.0 * h(2.0 * t)))


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
        for alpha in (math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                gauss_laguerre(alpha, 4)
        for m in (4.7, 4.0, "4"):
            with pytest.raises(ValueError, match="rule size m"):
                gauss_laguerre(1.0, m)
        assert gauss_laguerre(1.0, np.int64(4)) is gauss_laguerre(1.0, 4)

    def test_rules_are_deterministic_and_immutable(self):
        a = gauss_laguerre(1.0, 17)
        b = gauss_laguerre(1.0, 17)
        assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights)
        with pytest.raises(ValueError):
            a.nodes[0] = 0.0


class TestShippedRules:
    """rules.npz holds exactly the policy's rules, bit-identical to the stev oracle."""

    def test_table_holds_exactly_the_policy_pairs(self):
        assert sorted(quadrature._table()) == sorted(f"{a!r}_{m}" for a, m in POLICY_PAIRS)

    @pytest.mark.parametrize("alpha, m", POLICY_PAIRS)
    def test_entries_match_the_eigensolver_and_are_read_only(self, alpha, m):
        rule = gauss_laguerre(alpha, m)
        assert np.shares_memory(rule.nodes, quadrature._table()[f"{alpha!r}_{m}"])
        for name, oracle in zip(("nodes", "weights", "log_weights"), stev_rule(alpha, m)):
            assert np.array_equal(getattr(rule, name), oracle)
            assert not getattr(rule, name).flags.writeable
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0

    def test_other_pairs_go_to_the_eigensolver(self, monkeypatch):
        christoffel_rules, built = quadrature._christoffel_rules, []

        def recording(alpha, sizes):
            built.append((alpha, sizes))
            return christoffel_rules(alpha, sizes)

        monkeypatch.setattr(quadrature, "_christoffel_rules", recording)
        build = quadrature._build_rule.__wrapped__  # past the cache
        for alpha, m in ((2.0, 40), (0.5, 7)):
            rule = build(alpha, m)
            assert rule.size == m and np.array_equal(rule.nodes, christoffel_rules(alpha, [m])[0].nodes)
        assert np.shares_memory(build(1.0, 64).nodes, quadrature._table()["1.0_64"])
        assert built == [(2.0, [40]), (0.5, [7])]


class TestBatchedRules:
    """_rules builds many sizes of one alpha in one pass, bit for bit as one at a time."""

    @staticmethod
    def same(a, b):
        return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("nodes", "weights", "log_weights"))

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_batch_is_single_builds_and_gauss_laguerre(self, alpha):
        for m, rule in enumerate(quadrature._rules(alpha, range(1, 41)), start=1):
            assert rule.size == m
            assert self.same(rule, quadrature._rules(alpha, [m])[0])
            assert self.same(rule, gauss_laguerre(alpha, m))

    @pytest.mark.parametrize("alpha, m", [(2.0, 256), (0.5, 1024)])
    def test_large_rule_alone_and_in_a_batch(self, alpha, m):
        alone = quadrature._rules(alpha, [m])[0]
        assert self.same(alone, quadrature._rules(alpha, [3, m, 40])[1])
        if m <= M_MAX:
            assert self.same(alone, gauss_laguerre(alpha, m))

    def test_unsorted_and_repeated_sizes(self):
        rules = quadrature._rules(1.0, [5, 32, 5, 3, 40, 32])
        assert [r.size for r in rules] == [5, 32, 5, 3, 40, 32]
        assert rules[0] is rules[2]
        assert np.shares_memory(rules[1].nodes, quadrature._table()["1.0_32"])
        for rule in rules:
            assert self.same(rule, gauss_laguerre(1.0, rule.size))
            assert not rule.log_weights.flags.writeable

    def test_validate_suite_builds_in_six_sweeps_and_checks_the_table(self, monkeypatch):
        from lagsob import validation

        sweep, sweeps = quadrature._laguerre_sweep, []
        served = {}

        def counting(*args, **kwargs):
            sweeps.append(args[1].size)
            return sweep(*args, **kwargs)

        def recording(alpha, sizes):
            served[alpha] = quadrature._rules(alpha, sizes)
            return served[alpha]

        monkeypatch.setattr(quadrature, "_laguerre_sweep", counting)
        monkeypatch.setattr(validation, "_rules", recording)
        ok, detail = validation._suite_quadrature(1.0)
        assert ok, detail
        # Two sweeps per alpha (0, 1, 2), each over all the nodes it builds: the
        # 40 sizes less the table's m = 32 for alpha 0 and 1.  One rule at a time
        # took two sweeps for each of the 118 rules not in rules.npz.
        assert sweeps == [788, 788, 788, 788, 820, 820]
        assert sorted(served) == [0.0, 1.0, 2.0]
        assert [r.size for r in served[2.0]] == list(range(1, 41))
        for alpha in (0.0, 1.0):
            assert np.shares_memory(served[alpha][31].nodes, quadrature._table()[f"{alpha!r}_32"])


class TestBuilderOracle:
    """The numpy builder against 40-digit mpmath, far nodes included."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m", [7, 40, 256, 1024])
    def test_nodes_and_log_weights(self, alpha, m):
        # The builder itself: gauss_laguerre serves (0, 256) and (1, 256) from
        # rules.npz, and stops at M_MAX.
        rule = quadrature._christoffel_rules(alpha, [m])[0]
        for i in sorted({0, 1, m // 3, m // 2, m - 2, m - 1}):
            node, log_w = mp_node_and_log_weight(alpha, m, rule.nodes[i])
            assert rule.nodes[i] == pytest.approx(node, rel=1e-13, abs=0.0)
            assert rule.log_weights[i] == pytest.approx(log_w, rel=1e-12, abs=0.0)


    def test_newton_step_to_a_nonpositive_node_raises(self, monkeypatch):
        # L_2(x) = 1 - 2x + x^2/2 has its minimum at x = 2: from an eigensolver node
        # at 1.99 one Newton step lands near x = -98, and the builder refuses it.
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda jacobi: np.array([1.99, 3.41]))
        with pytest.raises(RuntimeError, match=r"^nonpositive quadrature node for alpha=0.0, m=2$"):
            quadrature._christoffel_rules(0.0, [2])


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
        # Plain floats, not numpy reprs: L_238^{(1)} overflows at the far node.
        message = "integrand returned nan at node x=990.8148070068848"
        with pytest.raises(ValueError) as exc:
            solve(builtin_problem("exp-decay"), 238)
        assert str(exc.value) == message

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


class TestSumFirstFiniteness:
    """Both integrators form the weighted sum first and search the values only when it is
    not finite.  Any NaN or inf value makes the sum non-finite, also where its weight
    underflowed to 0 (inf * 0 is NaN), so the same integrands are refused, with the same
    message naming the first non-finite node."""

    RULE = gauss_laguerre(1.0, 256)
    # The first node of the 256-point alpha = 1 rule whose weight underflows to 0.
    FAR = int(np.flatnonzero(RULE.weights == 0.0)[0])

    # numpy checks the dot's floating-point flags: an inf times an underflowed weight is an
    # invalid operation, so it warns before the ValueError (the moment stage runs the
    # integrator under np.errstate and does not).
    @pytest.mark.filterwarnings("ignore:invalid value encountered in dot:RuntimeWarning")
    @pytest.mark.parametrize("integrator", [integrate, integrate_plain])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["first", "middle", "last", "underflowed"])
    def test_non_finite_value_names_the_first_such_node(self, integrator, bad, where):
        rule = self.RULE
        i = {"first": 0, "middle": 128, "last": rule.size - 1, "underflowed": self.FAR}[where]
        assert (rule.weights[i] == 0.0) == (where in ("last", "underflowed"))

        def g(x):
            vals = np.exp(-x / 2.0)
            vals[-1] = math.nan  # a later non-finite value must not be the one named
            vals[i] = bad
            return vals

        with pytest.raises(ValueError) as exc:
            integrator(rule, g)
        assert str(exc.value) == f"integrand returned {bad!r} at node x={float(rule.nodes[i])!r}"

    @pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
    @pytest.mark.parametrize("integrator", [integrate, integrate_plain])
    @pytest.mark.parametrize(
        "alpha, m, vals",
        [(2.0, 8, [1e308] * 8), (2.0, 8, [-1e308] * 8), (0.0, 2, [1.7e308, -1.7e308])],
        ids=["+overflow", "-overflow", "mixed-signs"],
    )
    def test_all_finite_values_return_the_plain_sum_even_if_not_finite(self, integrator, alpha, m, vals):
        # The alpha = 2 weights sum to Gamma(3) = 2, so 1e308 at every node overflows; both
        # plain weights of the 2-point alpha = 0 rule exceed 1.1, so each product overflows.
        rule, vals = gauss_laguerre(alpha, m), np.array(vals)
        weights = rule.weights if integrator is integrate else rule.plain_weights
        expected = float(np.dot(weights, vals))
        if alpha == 2.0 or integrator is integrate_plain:
            assert not math.isfinite(expected)
        got = integrator(rule, lambda x: vals)
        assert got == expected or (math.isnan(got) and math.isnan(expected))

    def test_overflow_in_solve_is_refused_without_a_warning(self):
        # L_238^{(1)} overflows at the far node of the 256-point rule.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                solve(builtin_problem("exp-decay"), 238)
        assert str(exc.value) == "integrand returned nan at node x=990.8148070068848"

    @pytest.mark.parametrize("alpha, m", [(0.0, 32), (0.0, 256), (1.0, 256), (0.5, 7)])
    def test_plain_weights_are_one_read_only_array_per_rule(self, alpha, m):
        rule = gauss_laguerre(alpha, m)
        w = rule.plain_weights
        ref = np.exp(rule.log_weights + rule.nodes - rule.alpha * np.log(rule.nodes))
        assert w.dtype == ref.dtype and w.tobytes() == ref.tobytes()
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0
        assert rule.plain_weights is w and gauss_laguerre(alpha, m).plain_weights is w


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
    """The moments g(n) = int f(x) L_n^{(1)}(x) x e^{-x/2} dx that solve integrates."""

    def test_moments(self):
        # f = 1: sum_n g(n) t^n = 4 / (1 + t)^2, so g(n) = 4 (n+1) (-1)^n.
        g = solve(BVProblem(lam=1.0, rhs=np.ones_like), 30).g
        n = np.arange(31)
        assert np.all(np.abs(g - 4.0 * (n + 1) * (-1.0) ** n) <= 1e-13 * 4.0 * (n + 1))

    def test_exponential_closed_form(self):
        # f = e^{-x/2} makes the integrand L_n^{(1)} x e^{-x}: g(n) = delta_{n0}
        g = solve(BVProblem(lam=1.0, rhs=lambda x: np.exp(-x / 2.0)), 30).g
        assert g[0] == pytest.approx(1.0, rel=1e-13)
        assert np.max(np.abs(g[1:])) <= 1e-13

    def test_rational_vs_trapezoid_oracle(self):
        xs = np.linspace(0.0, 200.0, 10**6 + 1)
        y = xs * np.exp(-xs / 2.0) / (1.0 + xs) ** 2
        oracle = np.sum((y[1:] + y[:-1]) * np.diff(xs)) / 2
        sol = solve(BVProblem(lam=1.0, rhs=lambda x: 1.0 / (1.0 + x) ** 2), 0)
        assert sol.g[0] == pytest.approx(float(oracle), abs=1e-8)


class TestAdaptive:
    @staticmethod
    def run_recorded(values):
        """integrate_adaptive on m -> values(m), with the sizes it asked for."""
        asked = []

        def value_at(m):
            asked.append(m)
            return values(m)

        return integrate_adaptive(value_at), asked

    def test_policy_sizes(self):
        res, asked = self.run_recorded(lambda m: 1.0)
        assert asked == [32, 64]
        assert res == (1.0, 64, 0.0, True)

        res, asked = self.run_recorded(float)
        assert asked == [32, 64, 128, 256]
        assert res.value == 256.0 and res.m_used == M_MAX == 256 and not res.converged
        assert res.achieved_tol == 128.0 / 257.0

    def test_agreement_is_relative_to_one_plus_value(self):
        # |v(64) - v(32)| / (1 + |v(64)|) is 0.5 TOL, then 2 TOL.
        for jump, sizes in ((1e-12, [32, 64]), (4e-12, [32, 64, 128])):
            res, asked = self.run_recorded(lambda m: 1.0 + jump * (m == 32))
            assert asked == sizes and res.converged
            assert res.achieved_tol <= TOL

    def test_polynomial_converges_at_first_doubling(self):
        res = adaptive_halfweight(lambda x: x**5 - 2.0 * x**2 + 1.0)
        assert res.converged and res.m_used == 64
        # independent moment oracle: int x^k x e^{-x/2} dx = 2^{k+2} (k+1)!
        exact = 2.0**7 * math.factorial(6) - 2.0 * 2.0**4 * math.factorial(3) + 4.0
        assert exact == 91_972.0
        assert res.value == pytest.approx(exact, rel=1e-13)

    def test_exp_decay_data_hits_closed_form(self):
        def f(x):
            return np.exp(-x) * (3.0 * np.cos(x) - 2.0 * (-1.0 + x) * np.sin(x))

        res = adaptive_halfweight(f)
        assert res.converged
        assert res.value == pytest.approx(556.0 / 2197.0, rel=1e-10)

    def test_cap_flags_nonconvergence(self):
        # a singular derivative inside the range defeats the polynomial rules
        for h in (np.sqrt, lambda x: np.abs(x - 3.0)):
            res = adaptive_halfweight(h)
            assert res.m_used == M_MAX
            assert not res.converged
            assert res.achieved_tol > TOL
