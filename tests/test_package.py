"""The package namespace: lagsob.__all__ is the library modules' own lists."""

import lagsob
from lagsob import expressions, laguerre, quadrature, sobolev, solver, specfun

MODULES = (expressions, laguerre, quadrature, sobolev, solver, specfun)


def test_all_is_the_concatenation_of_the_module_lists():
    assert lagsob.__all__ == [name for mod in MODULES for name in mod.__all__]
    assert len(set(lagsob.__all__)) == len(lagsob.__all__)


def test_every_public_name_resolves_to_its_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(lagsob, name) is getattr(mod, name)


def test_public_names_are_pinned():
    assert lagsob.__all__ == [
        "ExpressionError", "Expr", "parse_expression", "format_expr", "to_callable",
        "LaguerreFamily", "laguerre_eval", "laguerre_eval_all", "laguerre_coeffs",
        "laguerre_norm_sq", "laguerre_derivative",
        "QuadratureRule", "AdaptiveResult", "gauss_laguerre", "integrate", "integrate_plain",
        "integrate_adaptive",
        "SobolevBasis", "connection_recurrence", "connection_ratio", "connection_asymptotic",
        "sobolev_basis", "sobolev_eval_all", "sobolev_coeffs",
        "alternating_sum_check", "gen_fun_sobolev", "hardy_hille_check",
        "BVProblem", "SpectralSolution", "solve", "partial_sum", "partial_sum_deriv",
        "sobolev_error", "sobolev_error_direct", "builtin_problem",
        "bessel_j",
    ]
