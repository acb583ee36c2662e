"""lagsob: Laguerre-Sobolev orthogonal basis and a fully diagonalized spectral
method for -u'' + (lambda/x) u = f on (0, inf) with Dirichlet conditions.

The expansion functions S_n(x) x e^{-x/2} are orthogonal in the energy inner
product of the operator, so every Fourier coefficient of the solution comes
from a single weighted integral and a scalar recurrence -- no linear systems.

Quick start:

    >>> from lagsob import builtin_problem, solve, partial_sum
    >>> sol = solve(builtin_problem("exp-decay"), n_max=20)
    >>> round(partial_sum(sol, 20, 1.0), 6)
    0.198777
"""

from . import laguerre, quadrature, sobolev, solver, specfun
from .laguerre import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .sobolev import *  # noqa: F403
from .solver import *  # noqa: F403
from .specfun import *  # noqa: F403

__version__ = "0.1.0"

# lagsob.expressions loads on first use of one of these names; the solver never needs it.
_EXPRESSION_NAMES = ["ExpressionError", "Expr", "parse_expression", "format_expr", "to_callable"]
__all__ = _EXPRESSION_NAMES + [name for mod in (laguerre, quadrature, sobolev, solver, specfun)
                               for name in mod.__all__]


def __getattr__(name):  # never cached here, so a rebinding in lagsob.expressions shows
    if name not in _EXPRESSION_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import expressions
    return getattr(expressions, name)
