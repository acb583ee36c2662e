"""Cross-module identity suites behind the `validate` command.

Each suite checks one family of exact identities at fixed tolerances and
returns (name, passed, detail).  They are intentionally redundant with the
unit tests: this is the runtime self-check a user can execute on their own
installation.  Running worsts use np.maximum, so a NaN residual fails its
suite (the builtin max(0.0, nan) is 0.0).
"""

from __future__ import annotations

import math

import numpy as np

from .laguerre import (
    LaguerreFamily,
    laguerre_derivative,
    laguerre_eval,
    laguerre_eval_all,
    laguerre_norm_sq,
)
from .quadrature import _rules, gauss_laguerre
from .sobolev import (
    _L1,
    _connect,
    alternating_sum_check,
    connection_ratio,
    connection_recurrence,
    gen_fun_sobolev,
    hardy_hille_check,
    sobolev_basis,
    sobolev_eval_all,
)

__all__ = ["run_suites", "SUITE_NAMES"]

_GRID = np.linspace(-10.0, 40.0, 50)
_ALPHAS = (0.0, 0.5, 1.0, 2.0)


def _suite_recurrence(lam):
    worst = 0.0
    for alpha in _ALPHAS:
        fam = LaguerreFamily(alpha)
        vals = laguerre_eval_all(fam, 61, _GRID)
        for n in range(1, 60):
            resid = np.abs(
                (n + 1) * vals[n + 1] - (2 * n + 1 + alpha - _GRID) * vals[n] + (n + alpha) * vals[n - 1]
            )
            scale = np.maximum(1.0, np.abs(vals[n + 1]))
            worst = np.maximum(worst, float(np.max(resid / scale)))
    return worst <= 1e-10, f"max residual {worst:.2e} (tol 1e-10)"


def _suite_structure(lam):
    worst = 0.0
    for alpha in _ALPHAS:
        lo = laguerre_eval_all(LaguerreFamily(alpha), 60, _GRID)
        hi = laguerre_eval_all(LaguerreFamily(alpha + 1.0), 60, _GRID)
        for n in range(1, 61):
            resid = np.abs(lo[n] - (hi[n] - hi[n - 1]))
            scale = np.maximum(1.0, np.abs(lo[n]))
            worst = np.maximum(worst, float(np.max(resid / scale)))
    return worst <= 1e-10, f"max residual {worst:.2e} (tol 1e-10)"


def _suite_derivative(lam):
    worst = 0.0
    for alpha in (0.0, 1.0, 2.5):
        fam = LaguerreFamily(alpha)
        for n in (1, 3, 7, 12):
            for x in (0.5, 2.0, 8.0):
                exact = laguerre_derivative(fam, n, x)
                h = 1e-4
                fd = (laguerre_eval(fam, n, x + h) - laguerre_eval(fam, n, x - h)) / (2 * h)
                err = abs(fd - exact) / max(1.0, abs(exact))
                worst = np.maximum(worst, err)
    return worst <= 1e-6, f"max central-difference mismatch {worst:.2e} (tol 1e-6)"


def _suite_quadrature(lam):
    worst = 0.0
    for alpha in (0.0, 1.0, 2.0):
        rules = _rules(alpha, range(1, 41))
        for m, rule in enumerate(rules, start=1):
            if not (np.all(rule.weights > 0.0) and np.all(np.diff(rule.nodes) > 0.0)):
                return False, f"invalid rule alpha={alpha}, m={m}"
            inter = np.searchsorted(rule.nodes, rules[m - 2].nodes) if m > 1 else []
            if not np.array_equal(inter, np.arange(1, m)):
                return False, f"interlacing failed alpha={alpha}, m={m}"
            ks = sorted(set(range(0, 2 * m, max(1, (2 * m) // 6))) | {2 * m - 1})
            for k in ks:
                exact = math.exp(math.lgamma(k + alpha + 1.0))
                got = float(np.dot(rule.weights, rule.nodes**k))
                worst = np.maximum(worst, abs(got - exact) / exact)
    return worst <= 1e-9, f"max moment error {worst:.2e} (tol 1e-9)"


def _gram_errors(gram, norms, scale=1.0):
    """(max relative error of the diagonal against norms, max |off-diagonal| / scale) of a Gram matrix."""
    diag = np.diag(gram)
    return float(np.max(np.abs(diag - norms) / norms)), float(np.max(np.abs(gram - np.diag(diag)) / scale))


def _suite_gram_laguerre(lam):
    n_max = 25
    rule = gauss_laguerre(1.0, n_max + 1)
    vals = laguerre_eval_all(_L1, n_max, rule.nodes)
    norms = [laguerre_norm_sq(_L1, n) for n in range(n_max + 1)]
    diag_err, off_max = _gram_errors((vals * rule.weights) @ vals.T, norms)
    ok = diag_err <= 1e-9 and off_max <= 1e-9
    return ok, f"diag rel err {diag_err:.2e}, max off-diagonal {off_max:.2e} (tol 1e-9)"


def _suite_connection(lam):
    n_top = 200
    a_rec = connection_recurrence(lam, n_top + 1)
    a_rat = connection_ratio(lam, n_top + 1)
    n = np.arange(n_top + 1)
    in_bounds = (a_rec > 0.0) & (a_rec < 1.0) & (a_rec < (n + 2) / (4 * lam + n + 2) + 1e-15)
    bad = np.flatnonzero(~in_bounds)
    if bad.size:
        return False, f"bound violated at n={bad[0]}: a={float(a_rec[bad[0]])!r}"
    worst = float(np.max(np.abs(a_rec - a_rat) / a_rat))
    return worst <= 1e-12, f"max recurrence/ratio mismatch {worst:.2e} (tol 1e-12)"


def _sobolev_gram(basis, m: int) -> np.ndarray:
    """Gram matrix <S_i, S_j>_S for i, j <= n = basis.n_max >= 1, from tables on the m-point
    alpha=1 rule (values) and alpha=2 rule (derivatives); every entry is exact while n < m."""
    n = basis.n_max
    rule1, rule2 = gauss_laguerre(1.0, m), gauss_laguerre(2.0, m)
    vals = sobolev_eval_all(basis, n, rule1.nodes)
    derivs = np.zeros((n + 1, m))
    derivs[1:] = -laguerre_eval_all(LaguerreFamily(2.0), n - 1, rule2.nodes)
    _connect(basis.a, derivs)
    first = (vals * (rule1.weights * (1.0 + basis.lam - 0.25 * rule1.nodes))) @ vals.T
    return first + (derivs * rule2.weights) @ derivs.T


def _suite_sobolev_gram(lam):
    # Each <S_i, S_j>_S is bounded relative to sqrt(s(i) s(j)), which grows with lam.
    basis = sobolev_basis(lam, 10)
    root = np.sqrt(basis.s)
    diag_err, off_rel = _gram_errors(_sobolev_gram(basis, 12), basis.s, np.outer(root, root))
    ok = off_rel <= 8e-14 and diag_err <= 1e-10
    return ok, f"max off-diagonal rel {off_rel:.2e} (tol 8e-14), diag rel err {diag_err:.2e} (tol 1e-10)"


def _suite_alternating_sum(lam):
    basis = sobolev_basis(lam, 40)
    worst = 0.0
    for n in (0, 1, 5, 10, 20, 40):
        for x in (0.0, 1.0, 5.0, 10.0):
            worst = np.maximum(worst, alternating_sum_check(basis, n, x))
    return worst <= 1e-10, f"max residual {worst:.2e} (tol 1e-10)"


def _suite_hardy_hille(lam):
    worst = 0.0
    for alpha, x, y, omega in [
        (1.0, 1.0, 1.0, -0.25),
        (0.0, 1.0, 2.0, -0.4),
        (1.0, 3.0, 0.5, -0.6),
        (2.0, 2.0, 2.0, -0.1),
    ]:
        lhs, rhs = hardy_hille_check(alpha, x, y, omega, 400)
        worst = np.maximum(worst, abs(lhs - rhs) / (abs(rhs) + 1e-300))
    return worst <= 1e-8, f"max relative mismatch {worst:.2e} (tol 1e-8)"


def _suite_gen_fun(lam):
    # The closed form sees lam only through lam*omega: past lam = 10 its Bessel argument stays <= 25.3.
    basis = sobolev_basis(lam, 700)
    worst = 0.0
    for x, omega in [(1.0, 0.3), (2.0, 0.5), (0.5, 0.7), (1.5, 0.2)]:
        lhs, rhs = gen_fun_sobolev(basis, x, omega * min(1.0, 10.0 / lam))
        worst = np.maximum(worst, abs(lhs - rhs) / (abs(rhs) + 1e-300))
    return worst <= 1e-8, f"max relative mismatch {worst:.2e} (tol 1e-8)"


_SUITES = [
    ("laguerre-recurrence", _suite_recurrence),
    ("laguerre-structure", _suite_structure),
    ("laguerre-derivative", _suite_derivative),
    ("quadrature-exactness", _suite_quadrature),
    ("gram-laguerre", _suite_gram_laguerre),
    ("connection-coefficients", _suite_connection),
    ("sobolev-gram", _suite_sobolev_gram),
    ("alternating-sum", _suite_alternating_sum),
    ("hardy-hille", _suite_hardy_hille),
    ("sobolev-generating-function", _suite_gen_fun),
]

SUITE_NAMES = [name for name, _ in _SUITES]


def run_suites(lam: float = 1.0):
    """Run every suite; returns (name, passed, detail) each; a numerical error fails its suite."""
    results = []
    for name, fn in _SUITES:
        try:
            results.append((name, *fn(lam)))
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            results.append((name, False, f"raised {type(exc).__name__}: {exc}"))
    return results
