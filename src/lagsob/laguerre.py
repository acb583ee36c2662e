"""Generalized Laguerre polynomials: evaluation, coefficients, norms, identities.

Everything is driven by the three-term recurrence

    (n+1) L_{n+1}(x) = (2n+1+alpha-x) L_n(x) - (n+alpha) L_{n-1}(x),

which is forward-stable on the negative axis (all terms positive there, no
cancellation) -- exactly the regime the Sobolev connection coefficients need.
"""

from __future__ import annotations

import math
import mmap
import numbers
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LaguerreFamily",
    "laguerre_eval",
    "laguerre_eval_all",
    "laguerre_coeffs",
    "laguerre_norm_sq",
    "laguerre_derivative",
]

# Monomial coefficients involve binom(n+alpha, n) ~ Gamma(n+alpha+1)/n!,
# which leaves double range near n = 170 for alpha of order one.
COEFF_MODE_MAX_DEGREE = 170


@dataclass(frozen=True)
class LaguerreFamily:
    """Parameter alpha of the weight x^alpha e^{-x}; requires alpha > -1."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > -1.0) or math.isinf(self.alpha):
            raise ValueError(f"Laguerre parameter must satisfy alpha > -1, got {float(self.alpha)!r}")


def _check_finite_scalar_or_array(x):
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("evaluation point must be finite")
    return arr


def _check_order(name: str, n, lo: int = 0, hi: float = float("inf")) -> int:
    """n as an int; a bool, a non-integer or a value outside [lo, hi] raises ValueError."""
    if type(n) is int and lo <= n <= hi:  # the common case, without the ABC check
        return n
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not lo <= n <= hi:
        shown = n.item() if isinstance(n, np.generic) else n  # a numpy scalar as the Python one
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {shown!r}")
    return int(n)


def _table(alpha: float, n_max: int, xf: np.ndarray) -> np.ndarray:
    """A fresh (n_max+1) x len(xf) table L_0..L_{n_max} at the points xf.

    Each row n+1 is seeded with (2n+1+alpha) - x, the floats of the scalar
    expression since 2n+1 is exact, then finished in place as
    ((2n+1+alpha - x) L_n - (n+alpha) L_{n-1}) / (n+1); row 1 is final once
    seeded.
    """
    rows = np.empty((n_max + 1, xf.size))
    rows[0] = 1.0
    np.subtract((2 * np.arange(n_max) + 1 + alpha)[:, None], xf, out=rows[1:])
    tmp = np.empty_like(xf)
    lo, mid = rows[0], rows[min(1, n_max)]
    for n in range(1, n_max):
        r = rows[n + 1]
        r *= mid
        np.multiply(n + alpha, lo, tmp)
        r -= tmp
        r /= n + 1
        lo, mid = mid, r
    return rows


# Point sets of at most this many points keep their tables between calls: the
# largest rule of the adaptive policy (quadrature.M_MAX, which this module
# cannot import), so every rule's nodes share their rows within and across
# solves.  Larger grids are tabulated afresh.
_CACHE_MAX_POINTS = 256
# The stored tables' summed _cost stays within this many bytes.
_CACHE_BUDGET = 8 << 20

# Read-only, all-finite tables L_0..L_N keyed on (alpha, the float64 bytes of the
# points), oldest first.  Only _cached_rows reads or writes it, and it writes only
# under _PUBLISH.  Each table sits in its own anonymous memory map, outside the
# malloc heap: long-lived entries there would pin the heap's top, so the freed
# temporaries of every other caller would stay mapped and its later large
# allocations would page-fault differently.  A map is sized to its table and
# written once, before it is published; a deeper table replaces the entry with a
# new map, so concurrent callers see a complete table or none.
_TABLES: dict = {}
_PUBLISH = threading.Lock()


def _cost(key, table) -> int:
    """The bytes an entry is charged: its map's whole pages and its key's bytes."""
    return -(-table.nbytes // mmap.PAGESIZE) * mmap.PAGESIZE + len(key[1])


def _cached_rows(alpha: float, n_max: int, xf: np.ndarray) -> np.ndarray:
    """A read-only (n_max+1) x len(xf) table: a view of the stored table of xf if that
    is deep enough, else built whole and stored if every row is finite and it fits
    the budget.

    A stored table is all-finite, so its points are: the finiteness check runs
    only on a miss.  Hits take no lock and copy nothing.
    """
    key = (alpha, xf.tobytes())
    head = _TABLES.get(key)
    if head is None or len(head) <= n_max:
        rows = _table(alpha, n_max, _check_finite_scalar_or_array(xf))
        if not np.isfinite(rows).all() or _cost(key, rows) > _CACHE_BUDGET:
            rows.setflags(write=False)
            return rows
        head = np.ndarray(rows.shape, rows.dtype, buffer=mmap.mmap(-1, rows.nbytes))
        head[:] = rows
        head.setflags(write=False)
        with _PUBLISH:
            old = _TABLES.get(key)
            if old is not None and len(old) >= len(head):
                head = old
            else:
                # The new entry goes last, so it is never the one dropped.
                _TABLES.pop(key, None)
                _TABLES[key] = head
                total = sum(map(_cost, _TABLES, _TABLES.values()))
                while total > _CACHE_BUDGET:
                    oldest = next(iter(_TABLES))
                    total -= _cost(oldest, _TABLES.pop(oldest))
    return head[: n_max + 1]


def laguerre_eval_all(family: LaguerreFamily, n_max: int, x):
    """All values L_0(x)..L_{n_max}(x) in one recurrence pass.

    Returns an array of shape (n_max+1,) for scalar x, or
    (n_max+1,) + x.shape for array x.  Both paths do the arithmetic of
    ((2n+1+alpha - x) L_n - (n+alpha) L_{n-1}) / (n+1) in that order, so
    their values are bit-identical to it.  Arrays of 1 to 256 points reuse
    the rows of earlier calls on the same points and get a read-only array,
    a view of the stored table where there is one; copy it to write into it.
    Scalars, empty arrays and larger grids get a fresh, writable array.
    """
    n_max = _check_order("n_max", n_max)
    alpha = family.alpha
    xa = np.asarray(x, dtype=float)
    if xa.ndim and 0 < xa.size <= _CACHE_MAX_POINTS:
        return _cached_rows(float(alpha), n_max, xa.reshape(-1)).reshape((n_max + 1,) + xa.shape)
    _check_finite_scalar_or_array(xa)
    if xa.ndim == 0:
        # Python floats: in-place updates of 1-element views cost more than the arithmetic.
        x = float(xa)
        vals = [1.0, 1.0 + alpha - x][: n_max + 1]
        for n in range(1, n_max):
            vals.append(((2 * n + 1 + alpha - x) * vals[n] - (n + alpha) * vals[n - 1]) / (n + 1))
        return np.array(vals)
    return _table(alpha, n_max, xa.reshape(-1)).reshape((n_max + 1,) + xa.shape)


def laguerre_eval(family: LaguerreFamily, n: int, x):
    """L_n^{(alpha)}(x) by forward recurrence from L_{-1} = 0, L_0 = 1.

    Row n of laguerre_eval_all, so read-only for arrays of 1 to 256 points.
    """
    n = _check_order("n", n)
    return laguerre_eval_all(family, n, x)[n]


def laguerre_coeffs(family: LaguerreFamily, n: int) -> np.polynomial.Polynomial:
    """L_n^{(alpha)} as a numpy Polynomial: monomial coefficients, ascending powers.

    c_0 = binom(n+alpha, n) and c_{k+1}/c_k = -(n-k) / ((k+1)(k+alpha+1)),
    so the whole vector follows from one ratio sweep.  Rejected for n > 170,
    and with a ValueError wherever binom(n+alpha, n) leaves double range (use
    the recurrence evaluation instead, which has no such limit).
    """
    n = _check_order("n", n, hi=COEFF_MODE_MAX_DEGREE)
    alpha = float(family.alpha)
    try:
        if alpha == int(alpha) and alpha >= 0:
            c0 = float(math.comb(n + int(alpha), n))
        else:
            c0 = math.exp(math.lgamma(n + alpha + 1) - math.lgamma(alpha + 1) - math.lgamma(n + 1))
    except OverflowError:
        raise ValueError(f"c_0 = binom(n+alpha, n) leaves double range at alpha={alpha!r}, n={n}") from None
    c = np.empty(n + 1)
    c[0] = c0
    for k in range(n):
        c[k + 1] = -c[k] * (n - k) / ((k + 1) * (k + alpha + 1))
    return np.polynomial.Polynomial(c)


def laguerre_norm_sq(family: LaguerreFamily, n: int) -> float:
    """Squared weighted L2 norm Gamma(n+alpha+1)/n!, via log-gamma differences."""
    n = _check_order("n", n)
    return math.exp(math.lgamma(n + family.alpha + 1) - math.lgamma(n + 1))


def laguerre_derivative(family: LaguerreFamily, n: int, x):
    """d/dx L_n^{(alpha)}(x) = -L_{n-1}^{(alpha+1)}(x); zero for n = 0."""
    n = _check_order("n", n)
    if n == 0:
        xa = _check_finite_scalar_or_array(x)
        return np.zeros(xa.shape) if xa.shape else 0.0
    shifted = LaguerreFamily(family.alpha + 1.0)
    return -laguerre_eval(shifted, n - 1, x)

