"""The usage examples in the kvertex docstrings are executed as tests."""
import doctest
import importlib
import pkgutil

import pytest

import kvertex

MODULES = sorted(m.name for m in pkgutil.iter_modules(kvertex.__path__, "kvertex."))


@pytest.mark.parametrize("name", ["kvertex"] + MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} doctests failed in {name}"
