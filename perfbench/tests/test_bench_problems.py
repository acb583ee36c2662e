"""The manufactured-problem oracle: f = -u'' + lam u / x, checked with mpmath."""

import mpmath as mp
import numpy as np
import pytest

import lagsob
import problems


def _mp_u(m):
    if m.family == "exp":
        return lambda x: x * mp.exp(-m.c * x) * mp.cos(m.k * x)
    return lambda x: x * mp.cos(m.k * x) / (1 + x) ** m.p


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("family", problems.FAMILIES)
def test_closed_forms_match_mpmath_derivatives(seed, family):
    rng = np.random.default_rng(seed)
    m = problems.stream(seed, family, int(rng.integers(0, 1000)))
    u = _mp_u(m)
    with mp.workdps(40):
        for x in rng.uniform(0.01, 30.0, 8):
            xm = mp.mpf(float(x))
            du = mp.diff(u, xm, 1)
            f = -mp.diff(u, xm, 2) + m.lam * u(xm) / xm
            # |u| with the cosine replaced by 1; a wrong term would be this large.
            envelope = x * np.exp(-m.c * x) if family == "exp" else x / (1.0 + x) ** m.p
            tol = 1e-12 * envelope * (1.0 + m.lam / x + (m.k + m.c + m.p) ** 2)
            assert abs(m.u(x) - float(u(xm))) <= tol
            assert abs(m.du(x) - float(du)) <= tol
            assert abs(m.f(x) - float(f)) <= tol


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", problems.FAMILIES)
def test_expression_strings_match_callables(seed, family):
    m = problems.stream(100 + seed, family, 3 * seed)
    x = np.linspace(0.05, 40.0, 57)
    for text, fn in zip(m.expressions(), (m.f, m.u, m.du)):
        value = lagsob.to_callable(lagsob.parse_expression(text))(x)
        np.testing.assert_allclose(value, fn(x), rtol=1e-12, atol=1e-14 * np.max(np.abs(fn(x))))


def test_builtin_problems_are_family_members():
    x = np.linspace(0.1, 30.0, 41)
    exp = problems.Manufactured("exp", lam=1.0, k=1.0, c=1.0)
    alg = problems.Manufactured("alg", lam=1.0, k=1.0, p=3)
    for name, m, amp in (("exp-decay", exp, 1.0), ("rational-decay", alg, 10.0)):
        b = lagsob.builtin_problem(name)
        np.testing.assert_allclose(b.rhs(x), amp * m.f(x), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(b.exact(x), amp * m.u(x), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(b.exact_deriv(x), amp * m.du(x), rtol=1e-12, atol=1e-15)


def test_stream_is_seeded_and_fills_the_box():
    alg = [problems.stream(7, "alg", j) for j in range(60)]
    assert alg == [problems.stream(7, "alg", j) for j in range(60)]
    assert alg != [problems.stream(8, "alg", j) for j in range(60)]
    log_lam = np.log10([m.lam for m in alg])
    assert log_lam.min() >= -2.0 and log_lam.max() <= 2.0
    # Evenly spread: every quarter of the log-lambda range holds 15 +- 2 problems.
    counts = np.histogram(log_lam, bins=4, range=(-2.0, 2.0))[0]
    assert np.all(np.abs(counts - 15) <= 2)
    assert {m.p for m in alg} == set(problems.P_CHOICES)
    assert all(0.5 <= m.k <= 1.5 for m in alg)
    exp = [problems.stream(7, "exp", j) for j in range(20)]
    assert all(1.0 <= m.c <= 2.0 for m in exp) and all(type(m.lam) is float for m in exp)
