"""Fully diagonalized spectral solver for -u'' + (lam/x) u = f on (0, inf).

The trial functions S_n(x) x e^{-x/2} vanish at both ends and are orthogonal
in the energy inner product of the operator, so each expansion coefficient
comes from one weighted integral of f and a scalar recurrence -- no linear
system is assembled or factorized anywhere:

    g(n)    = int f(x) L_n^{(1)}(x) x e^{-x/2} dx      (the only integrals)
    f(n)    = g(n) - a_{n-1} f(n-1)
    uhat(n) = f(n) / s(n)

Quadrature sizes adapt by doubling up to a hard cap; per-index convergence
reports are kept on the solution instead of aborting, because slowly decaying
data genuinely saturates the cap (and the method's accuracy degrades with it).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .laguerre import _check_finite_scalar_or_array, _check_order, laguerre_eval_all
from .quadrature import (
    TOL,
    AdaptiveResult,
    _vectorised,
    gauss_laguerre,
    integrate,
    integrate_adaptive,
    integrate_plain,
)
from .sobolev import _L1, SobolevBasis, _connect, sobolev_basis, sobolev_eval_all

__all__ = [
    "BVProblem",
    "SpectralSolution",
    "solve",
    "partial_sum",
    "partial_sum_deriv",
    "sobolev_error",
    "sobolev_error_direct",
    "builtin_problem",
]

DEFAULT_N_MAX = 20
# partial_sum sums wider grids in near-equal blocks of at most this many points (~6(n+1) numpy calls
# each).  Traced peak and time at n = 200 on 20k points, by width: one table 32.8 MB, 9.0 ms; 8,192:
# 10.9 MB, 10.5 ms; 4,096: 6.6 MB, 11.9 ms; 2,048: 3.5 MB, 18.4 ms (best of 60, 2-core Xeon).
_BLOCK_POINTS = 8192


@dataclass
class BVProblem:
    """Right-hand side f (and optionally the exact solution) for one problem.

    The exact solution, when present, must satisfy u(0) = 0 and decay at
    infinity; it is only used for error reporting, never by the solver.
    """

    lam: float
    rhs: Callable
    exact: Optional[Callable] = None
    exact_deriv: Optional[Callable] = None
    label: str = ""


@dataclass
class SpectralSolution:
    """Per-index solver state: Laguerre moments g, Sobolev moments, coefficients."""

    basis: SobolevBasis
    g: np.ndarray
    fhat: np.ndarray
    uhat: np.ndarray
    quad_report: list
    problem: BVProblem
    integrand_evals: int = 0
    norm_report: dict = field(default_factory=dict)
    _eps: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_max(self) -> int:
        return self.basis.n_max

    @property
    def quad_converged(self) -> bool:
        return all(r.converged for r in self.quad_report)


def _moments(rhs: Callable, n_max: int):
    """The lam-free moments g(0)..g(n_max) of rhs; returns (g, report, rhs evaluations).

    Each g(n) integral adapts its rule size independently under the one
    policy of quadrature.integrate_adaptive; non-convergence at the cap is
    recorded in the report, not raised.  Only non-finite integrand values
    abort.  The g(n) are independent, so they are computed from n_max down:
    the first Laguerre table on each rule's nodes is then the deepest the
    stage needs, stored once, and every later index reads row n of it in
    place.  Each rule's scaled nodes and integrand are built once per stage.
    """
    evals = 0

    def counted_rhs(x):
        # Counted once rhs returns: a scalar-only rhs raises on the vector
        # call and is then evaluated node by node.
        nonlocal evals
        fx = rhs(x)
        evals += np.size(x)
        return fx

    sized = {}  # rule size -> (rule, integrand), built on its first use in this stage

    def attempt(m):
        if m not in sized:
            rule = gauss_laguerre(1.0, m)
            x = 2.0 * rule.nodes  # x = 2t turns x e^{-x/2} dx into 4 t e^{-t} dt: the alpha=1 rule
            def integrand(t):
                # Only rhs falls back to per-node calls; 4 f L_n is one new array from row n's view.
                fx = _vectorised(counted_rhs, x)
                row = laguerre_eval_all(_L1, n, x)[n] * fx
                row *= 4.0
                return row
            sized[m] = rule, integrand
        return integrate(*sized[m])

    g = np.empty(n_max + 1)
    report = [None] * (n_max + 1)
    # Overflow in the table or the dot stays silent: the integrator refuses, and names, that node.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_max, -1, -1):
            res = integrate_adaptive(attempt)
            g[n] = res.value
            report[n] = res
    return g, report, evals


def solve(problem: BVProblem, n_max: int = DEFAULT_N_MAX) -> SpectralSolution:
    """Coefficients uhat_0..uhat_{n_max}: the lam-free moments g of _moments, then the
    basis's connection fhat(n) = g(n) - a_{n-1} fhat(n-1) and uhat = fhat / s."""
    basis = sobolev_basis(problem.lam, n_max)
    g, report, evals = _moments(problem.rhs, basis.n_max)
    fhat = _connect(basis.a, g.copy())
    return SpectralSolution(
        basis=basis,
        g=g,
        fhat=fhat,
        uhat=fhat / basis.s,
        quad_report=report,
        problem=problem,
        integrand_evals=evals,
    )


def partial_sum(sol: SpectralSolution, n: int, x):
    """Value of the order-n approximant sum_k uhat_k S_k(x) x e^{-x/2}.

    The factor x e^{-x/2} enforces both boundary conditions identically.
    Memory: at most (n+1) x _BLOCK_POINTS floats of S table, plus four len(x) vectors.
    """
    xa = np.asarray(x, dtype=float)
    acc = np.empty(xa.shape)
    blocks = ([(xa, acc)] if xa.size <= _BLOCK_POINTS else
              zip(*(np.array_split(v.reshape(-1), -(-xa.size // _BLOCK_POINTS)) for v in (xa, acc))))
    for part, dest in blocks:
        s = sobolev_eval_all(sol.basis, n, part)
        dest[...] = np.tensordot(sol.uhat[: len(s)], s, axes=(0, 0))
        del s  # before the next block's table is built
    out = acc * xa * np.exp(-xa / 2.0)
    return float(out) if np.ndim(x) == 0 else out


def _clenshaw(c, x):
    """sum_k c[k] L_k(x) (alpha = 0), one backward Clenshaw sweep on one vector.

    The sweep b_k = c_k + ((2k+1-x)/(k+1)) b_{k+1} - ((k+1)/(k+2)) b_{k+2}
    sums to b_0.  It carries d_k = b_k - b_{k+1} beside b_k (Reinsch's form):

        d_k = c_k + ((k+1)/(k+2)) d_{k+1} - (x + 1/(k+2)) b_{k+1} * (1/(k+1)),
        b_k = b_{k+1} + d_k,

    seven in-place operations per step on three arrays of x's shape, none of
    them a division: 1/(k+1) is one Python float per step, since a vector
    division costs about three vector multiplies.  At n = 200 on 2k/11k/20k
    points a sweep takes 1.19/3.85/6.61 ms, against 1.41/5.12/8.60 ms when it
    divided by k+1 (best of 15, 2-core Xeon).  Near x = 0 the three-term form
    multiplies b_{k+1} by a factor close to 2 and errs by up to ~7e-13 of the
    sum's scale at n = 200; here that factor is small.
    """
    b, d, t = (np.zeros_like(x) for _ in range(3))
    for k, ck in zip(range(len(c) - 1, -1, -1), c[::-1].tolist()):
        np.add(x, 1.0 / (k + 2), out=t)
        t *= b
        t *= 1.0 / (k + 1)
        d *= (k + 1.0) / (k + 2)
        d -= t
        d += ck
        b += d
    return b


def partial_sum_deriv(sol: SpectralSolution, n: int, x):
    """Derivative of the order-n approximant, as one L^{(0)} series.

    The connection L_k^{(1)} = S_k + a_{k-1} S_{k-1}, read backwards, gives
    sum_k uhat_k S_k = sum_k c_k L_k^{(1)} with c_n = uhat_n and
    c_k = uhat_k - a_k c_{k+1}.  With x L_k^{(1)} = (k+1)(L_k - L_{k+1}) and
    L_j' = -sum_{i<j} L_i (L = L^{(0)}) the derivative of
    x e^{-x/2} sum_k c_k L_k^{(1)} telescopes to e^{-x/2} sum_{i<=n+1} h_i L_i
    with h_i = ((i+1) c_i + i c_{i-1}) / 2, c_{-1} = c_{n+1} = 0: one connection
    sweep on the reversed c and one Clenshaw sweep, and no (n+1) x len(x) table.
    """
    n = _check_order("n", n, hi=sol.n_max)
    xa = _check_finite_scalar_or_array(x)
    c = sol.uhat[: n + 1].copy()
    _connect(sol.basis.a[:n][::-1], c[::-1])
    c *= np.arange(1, n + 2) / 2.0
    h = np.append(c, 0.0)
    h[1:] += c
    out = _clenshaw(h, xa) * np.exp(-xa / 2.0)
    return float(out) if np.ndim(x) == 0 else out


def _require_exact(sol: SpectralSolution):
    p = sol.problem
    if p.exact is None or p.exact_deriv is None:
        raise ValueError("error computation needs both the exact solution and its derivative")
    return p


def _adaptive_plain(f: Callable) -> AdaptiveResult:
    return integrate_adaptive(lambda m: integrate_plain(gauss_laguerre(0.0, m), f))


def _energy_norm_sq(u: Callable, du: Callable, lam: float):
    """lam * int u^2/x dx + int (u')^2 dx by adaptive unweighted quadrature.

    Integrands are only evaluated at the (strictly positive) nodes, so the
    removable singularity of u^2/x at zero never materializes.
    """
    r1 = _adaptive_plain(lambda x: u(x) ** 2 / x)
    r2 = _adaptive_plain(lambda x: du(x) ** 2)
    return lam * r1.value + r2.value, (r1, r2)


def sobolev_error(sol: SpectralSolution, n: int) -> float:
    """Squared energy-norm error eps_n of the order-n partial sum.

    Orthogonality collapses the squared distance to
    ||u||^2 - sum_{k<=n} uhat_k^2 s(k); the norm is integrated once and the
    cumulative sum is reused for every n, which also keeps the sequence
    numerically nonincreasing.  ||u||^2 is known only to TOL * (1 + ||u||^2),
    the adaptive integrator's bar: a value below 0 within it is rounding and
    reads 0 silently; one below it (capped moments, an unconverged norm
    integral) warns once and is still clamped to 0.
    """
    n = _check_order("n", n, hi=sol.n_max)
    if sol._eps is None:
        p = _require_exact(sol)
        norm_sq, reports = _energy_norm_sq(p.exact, p.exact_deriv, p.lam)
        sol.norm_report["u_sq_over_x"], sol.norm_report["du_sq"] = reports
        eps = norm_sq - np.cumsum(sol.uhat**2 * sol.basis.s)
        bar = TOL * (1.0 + norm_sq)
        if eps.min() < -bar:
            capped = sum(not r.converged for r in sol.quad_report)
            norms = ", ".join(f"{k} {r.converged}" for k, r in sol.norm_report.items())
            warnings.warn(
                f"sobolev_error went below {-bar:.3e} (min {eps.min():.3e}): {capped} of "
                f"{sol.n_max + 1} moments hit the quadrature cap; norm integrals converged: {norms}; "
                "sobolev_error_direct integrates the error itself",
                stacklevel=2,
            )
        sol._eps = np.maximum(eps, 0.0)
    return float(sol._eps[n])


def sobolev_error_direct(sol: SpectralSolution, n: int) -> float:
    """eps_n by direct quadrature of the squared difference (cross-check path)."""
    n = _check_order("n", n, hi=sol.n_max)
    p = _require_exact(sol)

    # A scalar-only exact solution falls back alone, so each node set needs one table.
    def diff(x):
        return _vectorised(p.exact, x) - partial_sum(sol, n, x)

    def ddiff(x):
        return _vectorised(p.exact_deriv, x) - partial_sum_deriv(sol, n, x)

    value, _ = _energy_norm_sq(diff, ddiff, p.lam)
    return value


def builtin_problem(name: str) -> BVProblem:
    """The two reference problems (lam = 1) with exact solutions attached."""
    if name == "exp-decay":
        return BVProblem(
            lam=1.0,
            rhs=lambda x: np.exp(-x) * (3.0 * np.cos(x) - 2.0 * (-1.0 + x) * np.sin(x)),
            exact=lambda x: x * np.cos(x) * np.exp(-x),
            exact_deriv=lambda x: np.exp(-x) * (np.cos(x) - x * np.sin(x) - x * np.cos(x)),
            label="exp-decay",
        )
    if name == "rational-decay":
        return BVProblem(
            lam=1.0,
            rhs=lambda x: 10.0
            * ((7.0 + x * (-3.0 + x * (3.0 + x))) * np.cos(x) - 2.0 * (-1.0 + x + 2.0 * x**2) * np.sin(x))
            / (x + 1.0) ** 5,
            exact=lambda x: 10.0 * x * np.cos(x) / (x + 1.0) ** 3,
            exact_deriv=lambda x: 10.0
            * ((1.0 - 2.0 * x) * np.cos(x) - x * (x + 1.0) * np.sin(x))
            / (x + 1.0) ** 4,
            label="rational-decay",
        )
    raise ValueError(f"unknown builtin problem {name!r}; choose 'exp-decay' or 'rational-decay'")
