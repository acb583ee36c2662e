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


def test_expression_tree_types_are_exported():
    for name in ("Token", "Expr", "Num", "Var", "Neg", "Bin", "Call"):
        assert getattr(lagsob, name) is getattr(expressions, name)
