"""The examples in the module docstrings run as doctests."""

import doctest
import importlib
import pkgutil

import cantorwit


def test_module_examples_pass():
    attempted = {}
    for info in pkgutil.iter_modules(cantorwit.__path__):
        module = importlib.import_module(f"cantorwit.{info.name}")
        failed, attempted[info.name] = doctest.testmod(module)
        assert not failed, info.name
    assert attempted["clopen"] >= 4
