"""Generalized Gauss-Laguerre rules, the integrators and the rule-size policy.

The policy's rules (alpha 0 and 1 at its four sizes) ship in rules.npz.  Any
other rule is built with numpy alone: eigenvalues of the Jacobi matrix
(diagonal 2k+alpha+1, off-diagonal sqrt(k(k+alpha))) polished by one Newton
step on L_m, and Christoffel weights summed in log space (Gautschi,
Orthogonal Polynomials, 2004); many sizes of one alpha share both sweeps.

Log-weights are kept alongside the plain weights: for large rules the
trailing weights underflow double precision (w ~ e^{-x} at nodes near 1000),
but log w stays representable, which is what makes unweighted integrals over
(0, inf) computable without overflowing the compensated integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .laguerre import _check_order

__all__ = [
    "QuadratureRule",
    "AdaptiveResult",
    "gauss_laguerre",
    "integrate",
    "integrate_plain",
    "integrate_adaptive",
]

# Rule-size policy of every adaptive integral: start at M0 points, double up
# to M_MAX, stop once two successive sizes agree to TOL relative to 1 + |value|.
M0 = 32
TOL = 1e-12
M_MAX = 256
_TABLE = Path(__file__).with_name("rules.npz")


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integral of g(x) x^alpha e^{-x} over (0, inf)."""

    alpha: float
    nodes: np.ndarray
    weights: np.ndarray
    log_weights: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.size

    @cached_property
    def plain_weights(self) -> np.ndarray:
        """Weights for the unweighted integral of F(x) dx over (0, inf), computed once per rule."""
        w = np.exp(self.log_weights + self.nodes - self.alpha * np.log(self.nodes))
        w.setflags(write=False)
        return w


def _laguerre_sweep(alpha: float, m: np.ndarray, x: np.ndarray, christoffel: bool = True):
    """L_m(x) and D_m(x) = L_m(x) - L_{m-1}(x), both times a power of two per point,
    and if asked log sum_{k<m} c_k L_k(x)^2 with c_k = k! Gamma(alpha+1) / Gamma(k+alpha+1),
    for a degree m per point, non-increasing: the points running at step k are a prefix.

    The difference form (k+1) D_{k+1} = (k+alpha) D_k - x L_k cancels nothing near
    x = 0, so the smallest nodes keep full relative accuracy.  Every eighth step
    scales L and D so the larger lies in [1, 2), and the sum by the square: exact.
    """
    val, diff = np.ones_like(x), np.ones_like(x)  # L_0, and D_0 with L_{-1} = 0
    total, shift = np.zeros_like(x), np.zeros(x.shape, dtype=int)
    c = 1.0
    for k, n in enumerate(np.searchsorted(-m, -np.arange(m[0]))):
        v, d, t = val[:n], diff[:n], total[:n]
        if christoffel:
            t += c * v * v
        d[:] = ((k + alpha) * d - x[:n] * v) / (k + 1)
        v += d
        c *= (k + 1) / (k + 1 + alpha)
        if k % 8 == 7:
            e = np.frexp(np.maximum(np.abs(v), np.abs(d)))[1] - 1
            v[:], d[:], t[:] = np.ldexp(v, -e), np.ldexp(d, -e), np.ldexp(t, -2 * e)
            shift[:n] += e
    return val, diff, np.log(total) + (2.0 * math.log(2.0)) * shift if christoffel else None


def _christoffel_rules(alpha: float, sizes: list[int]) -> list[QuadratureRule]:
    """Rules of the distinct sizes (largest first): one eigvalsh each, then one
    Newton sweep and one Christoffel sweep over all their nodes together."""
    nodes = []
    for size in sizes:
        k = np.arange(1, size)
        jacobi = np.diag(2.0 * np.arange(size) + alpha + 1.0)
        jacobi[k, k - 1] = np.sqrt(k * (k + alpha))  # eigvalsh reads the lower triangle
        nodes.append(np.linalg.eigvalsh(jacobi))
    nodes, m = np.concatenate(nodes), np.repeat(sizes, sizes)
    # One Newton step on L_m, with x L_m' = m L_m - (m+alpha) L_{m-1} = (m+alpha) D_m - alpha L_m.
    val, diff, _ = _laguerre_sweep(alpha, m, nodes, christoffel=False)
    nodes -= nodes * val / ((m + alpha) * diff - alpha * val)
    if not np.all(nodes > 0.0):
        raise RuntimeError(f"nonpositive quadrature node for alpha={alpha}, m={m[np.argmin(nodes)]}")
    # Christoffel numbers: 1/w = sum_{k<m} L_k^2 / ||L_k||^2, a sum that is exactly 1 at m = 1.
    log_sum, lg = _laguerre_sweep(alpha, m, nodes)[2], math.lgamma(alpha + 1.0)
    weights, log_weights = math.exp(lg) * np.exp(-log_sum), lg - log_sum
    for arr in (nodes, weights, log_weights):
        arr.setflags(write=False)
    rows = (np.split(arr, np.cumsum(sizes)[:-1]) for arr in (nodes, weights, log_weights))
    return [QuadratureRule(alpha, *rule) for rule in zip(*rows)]


@lru_cache(maxsize=1)
def _table() -> dict:
    with np.load(_TABLE) as data:
        table = dict(data)
    for rows in table.values():
        rows.setflags(write=False)
    return table


def _rules(alpha: float, sizes) -> list[QuadratureRule]:
    """The m-point rule for each m of sizes, in order: the policy's sizes for alpha 0
    and 1 from rules.npz (rows: nodes, weights, log-weights), the rest built together."""
    table, key = _table(), lambda m: f"{alpha!r}_{m}"
    todo = sorted({m for m in sizes if key(m) not in table}, reverse=True)
    built = dict(zip(todo, _christoffel_rules(alpha, todo))) if todo else {}
    return [built[m] if m in built else QuadratureRule(alpha, *table[key(m)]) for m in sizes]


@lru_cache(maxsize=128)
def _build_rule(alpha: float, m: int) -> QuadratureRule:
    return _rules(alpha, [m])[0]


def gauss_laguerre(alpha: float, m: int) -> QuadratureRule:
    """m-point rule for weight x^alpha e^{-x}; exact through degree 2m-1."""
    if not (alpha > -1.0) or math.isinf(alpha):
        raise ValueError(f"weight exponent alpha must be finite and > -1, got {float(alpha)!r}")
    return _build_rule(float(alpha), _check_order("rule size m", m, 1, M_MAX))


def _vectorised(f: Callable, x) -> np.ndarray:
    """f at every point of x: one call on the whole array, its result broadcast to
    x's shape, or one call per point if that fails (a scalar-only f)."""
    shape = np.shape(x)
    try:
        vals = np.asarray(f(x), dtype=float)
        return vals if vals.shape == shape else np.broadcast_to(vals, shape)
    except (TypeError, ValueError):
        return np.array([float(f(float(t))) for t in np.ravel(x)]).reshape(shape)


def _weighted_sum(weights: np.ndarray, g: Callable, nodes: np.ndarray) -> float:
    # Any NaN or inf value makes the sum non-finite (inf * 0 is NaN too): search only then.
    vals = _vectorised(g, nodes)
    total = float(weights.dot(vals))  # np.dot's own code, without its dispatch layer
    if not math.isfinite(total) and not np.isfinite(vals).all():
        i = int(np.argmin(np.isfinite(vals)))
        raise ValueError(f"integrand returned {float(vals[i])!r} at node x={float(nodes[i])!r}")
    return total


def integrate(rule: QuadratureRule, g: Callable) -> float:
    """sum_i w_i g(x_i), approximating integral of g(x) x^alpha e^{-x} dx.  Only a non-finite
    sum is searched for a NaN or inf g(x_i): ValueError names the first such node."""
    return _weighted_sum(rule.weights, g, rule.nodes)


def integrate_plain(rule: QuadratureRule, f: Callable) -> float:
    """sum_i w~_i f(x_i), approximating the unweighted integral of f over (0, inf).

    Uses the log-scaled weights, so f is evaluated as-is: no e^{x} compensation factor
    appears in the integrand (that factor overflows at the far nodes of large rules even
    when its contribution is negligible).  Non-finite values are refused as in integrate.
    """
    return _weighted_sum(rule.plain_weights, f, rule.nodes)


class AdaptiveResult(NamedTuple):
    value: float
    m_used: int
    achieved_tol: float
    converged: bool


def integrate_adaptive(value_at: Callable[[int], float]) -> AdaptiveResult:
    """Apply the package's one rule-size policy to value_at(m), an m-point integral.

    Doubles m from M0 until value_at(m) and value_at(m/2) differ by no more
    than TOL * (1 + |value_at(m)|) or m reaches M_MAX; a cap hit without
    agreement is flagged via converged=False with the achieved tolerance.
    """
    m = M0
    value = value_at(m)
    achieved = math.inf
    while m < M_MAX:
        m = min(2 * m, M_MAX)
        value_next = value_at(m)
        achieved = abs(value_next - value) / (1.0 + abs(value_next))
        value = value_next
        if achieved <= TOL:
            return AdaptiveResult(value, m, achieved, True)
    return AdaptiveResult(value, m, achieved, False)
