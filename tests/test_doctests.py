import doctest
import importlib
import pkgutil

import pytest

import alcove_hecke

MODULES = sorted(m.name for m in pkgutil.iter_modules(alcove_hecke.__path__))
# modules whose docstrings carry worked examples
WITH_EXAMPLES = {
    "alcove", "laurent", "root_datum", "ext_weyl", "hecke", "groth_calc", "satake_char", "orders",
    "parabolic",
}


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    failures, tested = doctest.testmod(importlib.import_module(f"alcove_hecke.{name}"))
    assert failures == 0
    assert tested > 0 or name not in WITH_EXAMPLES
