"""Laguerre-Sobolev orthogonal polynomials S_n on (0, inf).

The S_n share the leading coefficient (-1)^n/n! of L_n^{(1)} and are
orthogonal for the bilinear form

    <p, q>_S = int p q (1 + lam - x/4) x e^{-x} dx + int p' q' x^2 e^{-x} dx,

equivalently <p x e^{-x/2}, q x e^{-x/2}> in the energy inner product
lam * int u v / x dx + int u' v' dx of the singular-potential operator.

Everything flows from the one-step connection L_n^{(1)} = S_n + a_{n-1} S_{n-1}:
the scalar coefficients a_n carry the whole construction.  The basis takes them
from the closed ratio formula at the point -4*lam, one sweep, and its squared
norms from the closed form a_n s(n) = (n+1)(n+2)/4.  The a_n also obey a forward
recurrence; it is kept as the independent check on the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .laguerre import LaguerreFamily, _check_order, laguerre_coeffs, laguerre_eval_all
from .specfun import bessel_j

__all__ = [
    "SobolevBasis",
    "connection_recurrence",
    "connection_ratio",
    "connection_asymptotic",
    "sobolev_basis",
    "sobolev_eval_all",
    "sobolev_coeffs",
    "alternating_sum_check",
    "gen_fun_sobolev",
    "hardy_hille_check",
]

_L1 = LaguerreFamily(1.0)


def _check_lam(lam: float) -> float:
    if not (lam > 0.0) or math.isinf(lam):
        raise ValueError(f"potential strength must satisfy lam > 0, got {lam!r}")
    return float(lam)


def _checked_connection(a, lam: float | None = None) -> np.ndarray:
    """a_0..a_{N-1} as a read-only copy; N >= 1 and every a_n lies in (0, 1).  Given the
    lam of a computed sequence, finite a_n >= 1 are rounding: 1 - a_n is O(lam)."""
    arr = np.array(a, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("connection sequence must hold at least a_0")
    inside = (arr > 0.0) & (arr < 1.0)
    if not inside.all():
        if lam is not None and np.all(inside | (arr >= 1.0) & np.isfinite(arr)):
            n = int(np.argmin(inside))
            raise ValueError(f"lambda={lam!r} is too small for n_max={arr.size - 1}: a_{n} rounds to 1")
        raise RuntimeError("connection coefficients left (0, 1); recurrence is broken")
    arr.setflags(write=False)
    return arr


def connection_recurrence(lam: float, n_max: int) -> np.ndarray:
    """a_0 = 2/(4 lam + 2), then a_n = (n+2) / (4 lam + 2(n+1) - n a_{n-1}), n < n_max."""
    lam = _check_lam(lam)
    n_max = _check_order("n_max", n_max, 1)
    a = np.empty(n_max)
    a[0] = 2.0 / (4.0 * lam + 2.0)
    for n in range(1, n_max):
        a[n] = (n + 2) / (4.0 * lam + 2.0 * (n + 1) - n * a[n - 1])
    return _checked_connection(a, lam)


def connection_ratio(lam: float, n_max: int) -> np.ndarray:
    """Closed form a_n = (n+2)/(n+1) * L_n^{(1)}(-4 lam) / L_{n+1}^{(1)}(-4 lam), n < n_max.

    One forward sweep at -4 lam gives the whole sequence.  It carries
    P_k = L_k^{(1)}(-4 lam)/(k+1) and E_k = P_k - P_{k-1}, with P_0 = 1, E_0 = 0
    and (k+2) E_{k+1} = k E_k + 4 lam P_k: both terms are positive, so nothing
    cancels, and a_n = P_n/P_{n+1} keeps 1 - a_n ~ 2 lam even where P_n ~ 1.
    Every step scales both carried values by the power of two that puts
    P_{k+1} in [1/2, 1): exact, so every ratio is unchanged and none overflows.
    """
    lam = _check_lam(lam)
    n_max = _check_order("n_max", n_max, 1)
    four_lam = 4.0 * lam
    a = np.empty(n_max)
    p, e = 1.0, 0.0
    for n in range(n_max):
        e = (n * e + four_lam * p) / (n + 2)
        nxt = p + e
        a[n] = p / nxt
        p, shift = math.frexp(nxt)
        e = math.ldexp(e, -shift)
    return _checked_connection(a, lam)


def connection_asymptotic(lam: float, n: int) -> float:
    """Fixed point a = (n+2) / (B - n a), B = 4 lam + 2n + 2, of `connection_recurrence`'s step.

    The a_asymptotic column of `coeffs`.  First order: its relative error
    tends to ~0.25/n (at most 1.1e-2, at lam = 1 and n = 3), it equals a_0 at
    n = 0, and it lies in (0, 1).  Dividing by B twice, not by B^2, keeps it
    finite where B^2 would overflow.
    """
    lam = _check_lam(lam)
    n = _check_order("n", n)
    b = 4.0 * lam + 2.0 * n + 2.0
    return 2.0 * (n + 2) / (b * (1.0 + math.sqrt(1.0 - 4.0 * n * (n + 2) / b / b)))


@dataclass(frozen=True)
class SobolevBasis:
    """Connection coefficients a_0..a_N at lam > 0, and the read-only squared energy norms
    s(n) = (n+1)(n+2)/(4 a_n) they fix: the closed form of a_n s(n) = (n+1)(n+2)/4."""

    lam: float
    a: np.ndarray
    s: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_lam(self.lam))
        a = _checked_connection(self.a)
        n = np.arange(a.size, dtype=float)
        s = (n + 1.0) * (n + 2.0) / (4.0 * a)
        s.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "s", s)

    @property
    def n_max(self) -> int:
        return self.s.size - 1


def sobolev_basis(lam: float, n_max: int) -> SobolevBasis:
    """The basis of S_0..S_{n_max} from one connection_ratio sweep: a_0..a_{n_max},
    where a_{n_max}, which S_0..S_{n_max} do not need, gives s(n_max)."""
    lam = _check_lam(lam)
    n_max = _check_order("n_max", n_max)
    return SobolevBasis(lam, connection_ratio(lam, n_max + 1))


def _connect(a, table: np.ndarray) -> np.ndarray:
    """S_k = T_k - a_{k-1} S_{k-1} down the rows of T (a table, a vector or a reversed
    view), in place with one reused row buffer: the package's one connection recursion.
    It gives S_k from the L_k^{(1)} table, S_k' from [0, -L_0^{(2)}, ..., -L_{n-1}^{(2)}],
    S_k's monomial coefficients, solve's fhat from g and partial_sum_deriv's c.
    One column runs the same float64 steps on Python floats, ~12x faster than rows."""
    flat = table.reshape(table.shape[0], -1)
    if flat.shape[1] == 1:
        col = flat[:, 0].tolist()
        for k, ak in enumerate(a[: len(col) - 1].tolist(), 1):
            col[k] -= ak * col[k - 1]
        table.flat[:] = col
        return table
    rows = iter(flat)
    prev = next(rows)
    tmp = np.empty_like(prev)
    for ak, r in zip(a, rows):
        np.multiply(ak, prev, out=tmp)
        r -= tmp
        prev = r
    return table


def sobolev_eval_all(basis: SobolevBasis, n: int, x):
    """S_0(x)..S_n(x) by the forward connection recursion on one Laguerre table,
    so only one (n+1) x len(x) array is formed: a read-only cached table is copied
    first, a fresh one is connected in place."""
    n = _check_order("n", n, hi=basis.n_max)
    table = laguerre_eval_all(_L1, n, x)
    return _connect(basis.a, table if table.flags.writeable else table.copy())


def sobolev_coeffs(basis: SobolevBasis, n: int) -> np.polynomial.Polynomial:
    """S_n as a numpy Polynomial: row n of the connection run on the zero-padded
    L_k^{(1)} coefficient table.  Degree capped as in laguerre_coeffs."""
    n = _check_order("n", n, hi=basis.n_max)
    table = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        table[k, : k + 1] = laguerre_coeffs(_L1, k).coef
    return np.polynomial.Polynomial(_connect(basis.a, table)[n])


def alternating_sum_check(basis: SobolevBasis, n: int, x: float) -> float:
    """Residual of the telescoped connection identity, relative to its left side.

    S_n(x) L_n^{(1)}(-4 lam)/(n+1) telescopes into the alternating sum of
    L_k^{(1)}(x) L_k^{(1)}(-4 lam)/(k+1).  Divided by its left-hand factor the
    identity reads S_n(x) = sum_k (-1)^{n-k} a_k ... a_{n-1} L_k^{(1)}(x), so no
    value at -4 lam is formed and none overflows.  The weights take their a_k
    from connection_recurrence and the left side from basis.a, the ratio sweep,
    so the check compares the two.  Returns |lhs - rhs| / |lhs|.
    """
    n = _check_order("n", n, hi=basis.n_max)
    a = connection_recurrence(basis.lam, n + 1)[:n]
    # weights[k] = a_k ... a_{n-1} times (-1)^{n-k}; weights[n] = 1.
    weights = np.append(np.cumprod(-a[::-1])[::-1], 1.0)
    lhs = sobolev_eval_all(basis, n, x)[n]
    rhs = float(np.dot(weights, laguerre_eval_all(_L1, n, x)))
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)


def _bilinear_closed_form(alpha: float, x: float, y: float, omega: float) -> float:
    """hardy_hille_check's closed form on its real branch x y w < 0: the package's one bessel_j call."""
    prod = -x * y * omega
    scale = math.exp(math.lgamma(alpha + 1.0)) / (1.0 - omega) * math.exp(-(x + y) * omega / (1.0 - omega))
    return scale * prod ** (-alpha / 2.0) * bessel_j(alpha, 2.0 * math.sqrt(prod) / (1.0 - omega))


def gen_fun_sobolev(basis: SobolevBasis, x: float, omega: float):
    """Both sides of the Sobolev generating function; returns (series, closed form).

    With P_n = L_n^{(1)}(-4 lam)/(n+1), sum_n S_n(x) P_n w^n is hardy_hille_check's
    sum at alpha = 1, y = -4 lam, over 1 + w: the connection telescopes into
    S_n P_n = sum_{k<=n} (-1)^{n-k} P_k L_k^{(1)}(x), and the sums over n >= k give 1/(1+w).
    The series side runs over n <= basis.n_max; callers pick that depth so the
    tail is negligible (terms decay geometrically for w <= 0.8).
    """
    if not (0.0 < omega <= 0.8):
        raise ValueError(f"omega must lie in (0, 0.8], got {omega!r}")
    if not (x > 0.0):
        raise ValueError(f"x must be > 0, got {x!r}")

    # P_n w^n = w^n/(a_0 ... a_{n-1}).
    # At large lam the weights leave double range: fail the check, do not warn.
    with np.errstate(over="raise", invalid="raise"):
        weights = np.append(1.0, np.cumprod(omega / basis.a[:-1]))
        lhs = float(np.dot(weights, sobolev_eval_all(basis, basis.n_max, x)))
    return lhs, _bilinear_closed_form(1.0, x, -4.0 * basis.lam, omega) / (1.0 + omega)


def hardy_hille_check(alpha: float, x: float, y: float, omega: float, n_trunc: int):
    """Both sides of the bilinear Laguerre generating function, real branch.

    sum_n binom(n+alpha, n)^{-1} L_n^{(alpha)}(x) L_n^{(alpha)}(y) w^n
        = Gamma(alpha+1)/(1-w) e^{-(x+y)w/(1-w)} (-xyw)^{-alpha/2}
          * J_alpha(2 sqrt(-xyw)/(1-w)).

    Domain: alpha >= 0 (the order of J), x, y > 0 and w in (-1, 0), so -xyw > 0
    and every factor stays real.  The series weights binom(n+alpha, n)^{-1} w^n
    are one cumulative product of w k/(k+alpha).
    """
    if not (0.0 <= alpha < math.inf):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
    if not (-1.0 < omega < 0.0):
        raise ValueError(f"omega must lie in (-1, 0), got {omega!r}")
    if not (x > 0.0 and y > 0.0):
        raise ValueError("x and y must be > 0")
    n_trunc = _check_order("n_trunc", n_trunc)
    fam = LaguerreFamily(alpha)
    k = np.arange(1.0, n_trunc + 1.0)
    weights = np.append(1.0, np.cumprod(omega * k / (k + alpha)))
    lhs = float(np.dot(weights, laguerre_eval_all(fam, n_trunc, x) * laguerre_eval_all(fam, n_trunc, y)))
    return lhs, _bilinear_closed_form(alpha, x, y, omega)
