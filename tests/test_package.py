"""The package namespace: lagsob.__all__ is the library modules' own lists."""

import numpy as np
import pytest

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


def _exp_solution(n_max=3):
    return lagsob.solve(lagsob.builtin_problem("exp-decay"), n_max)


REFUSALS = {
    "partial_sum-int": (lambda v: lagsob.partial_sum(_exp_solution(), v, 1.0), 9),
    "partial_sum-float": (lambda v: lagsob.partial_sum(_exp_solution(), v, 1.0), 2.5),
    "gauss_laguerre-m": (lambda v: lagsob.gauss_laguerre(0.0, v), 0),
    "gauss_laguerre-alpha": (lambda v: lagsob.gauss_laguerre(v, 5), -2.0),
    "sobolev_basis-lam": (lambda v: lagsob.sobolev_basis(v, 5), -1.0),
    "connection_ratio-lam": (lambda v: lagsob.connection_ratio(v, 5), 0),
    "LaguerreFamily": (lagsob.LaguerreFamily, -2.0),
    "laguerre_coeffs-alpha": (lambda v: lagsob.laguerre_coeffs(lagsob.LaguerreFamily(v), 170), 1e6 + 0.5),
    "bessel_j-order": (lambda v: lagsob.bessel_j(v, 1.0), -1.0),
    "bessel_j-argument": (lambda v: lagsob.bessel_j(0.0, v), 61.0),
    "gen_fun_sobolev-omega": (lambda v: lagsob.gen_fun_sobolev(lagsob.sobolev_basis(1.0, 5), 1.0, v), 0.9),
    "gen_fun_sobolev-x": (lambda v: lagsob.gen_fun_sobolev(lagsob.sobolev_basis(1.0, 5), v, 0.5), -1.0),
    "hardy_hille_check-alpha": (lambda v: lagsob.hardy_hille_check(v, 1.0, 1.0, -0.5, 5), -1.0),
    "hardy_hille_check-omega": (lambda v: lagsob.hardy_hille_check(1.0, 1.0, 1.0, v, 5), 0.5),
    "hardy_hille_check-n_trunc": (lambda v: lagsob.hardy_hille_check(1.0, 1.0, 1.0, -0.5, v), -1),
}


@pytest.mark.parametrize("call, value", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals_print_numpy_scalars_as_the_python_numbers_they_hold(call, value):
    # numpy 2 reprs a scalar as np.float64(1.0), numpy 1.x as 1.0: neither reaches a message.
    with pytest.raises(ValueError) as plain:
        call(value)
    with pytest.raises(ValueError) as scalar:
        call(np.int64(value) if isinstance(value, int) else np.float64(value))
    assert str(scalar.value) == str(plain.value)
