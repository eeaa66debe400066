"""Run the docstring examples of every ``signedpaths`` module and the README."""

import doctest
import importlib
import pkgutil
from pathlib import Path

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


def test_readme_examples():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0
