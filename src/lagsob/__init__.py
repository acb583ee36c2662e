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

from .expressions import (
    ExpressionError,
    evaluate,
    format_expr,
    parse,
    parse_expression,
    to_callable,
    tokenize,
)
from .laguerre import (
    LaguerreFamily,
    PolyCoeffs,
    laguerre_coeffs,
    laguerre_derivative,
    laguerre_eval,
    laguerre_eval_all,
    laguerre_norm_sq,
    ratio_expansion,
)
from .quadrature import (
    AdaptiveResult,
    QuadratureRule,
    gauss_laguerre,
    integrate,
    integrate_adaptive,
    integrate_halfweight,
    integrate_plain,
)
from .sobolev import (
    ConnectionSequence,
    SobolevBasis,
    alternating_sum_check,
    connection_asymptotic,
    connection_ratio,
    connection_recurrence,
    gen_fun_sobolev,
    hardy_hille_check,
    sobolev_basis,
    sobolev_coeffs,
    sobolev_eval,
    sobolev_eval_all,
    sobolev_inner_poly,
    sobolev_norm_sq,
)
from .solver import (
    BVProblem,
    SpectralSolution,
    builtin_problem,
    partial_sum,
    partial_sum_deriv,
    sobolev_error,
    sobolev_error_direct,
    solve,
)
from .specfun import bessel_j

__version__ = "0.1.0"

__all__ = [
    "AdaptiveResult",
    "BVProblem",
    "ConnectionSequence",
    "ExpressionError",
    "LaguerreFamily",
    "PolyCoeffs",
    "QuadratureRule",
    "SobolevBasis",
    "SpectralSolution",
    "alternating_sum_check",
    "bessel_j",
    "builtin_problem",
    "connection_asymptotic",
    "connection_ratio",
    "connection_recurrence",
    "evaluate",
    "format_expr",
    "gauss_laguerre",
    "gen_fun_sobolev",
    "hardy_hille_check",
    "integrate",
    "integrate_adaptive",
    "integrate_halfweight",
    "integrate_plain",
    "laguerre_coeffs",
    "laguerre_derivative",
    "laguerre_eval",
    "laguerre_eval_all",
    "laguerre_norm_sq",
    "parse",
    "parse_expression",
    "partial_sum",
    "partial_sum_deriv",
    "ratio_expansion",
    "sobolev_basis",
    "sobolev_coeffs",
    "sobolev_error",
    "sobolev_error_direct",
    "sobolev_eval",
    "sobolev_eval_all",
    "sobolev_inner_poly",
    "sobolev_norm_sq",
    "solve",
    "to_callable",
    "tokenize",
]
