"""Run the docstring examples of every ``signedpaths`` module."""

import doctest
import importlib
import pkgutil

import pytest

import signedpaths

MODULES = ["signedpaths"] + [
    f"signedpaths.{info.name}" for info in pkgutil.iter_modules(signedpaths.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(name)
    examples = sum(len(t.examples) for t in doctest.DocTestFinder().find(module))
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted == examples
