"""Run the docstring examples of every ``signedpaths`` module and the README,
and the README's command-line examples through ``cli.run``."""

import doctest
import importlib
import itertools
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import signedpaths
from signedpaths import cli

README = Path(__file__).resolve().parents[1] / "README.md"

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
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0


def readme_commands():
    # each "$ signedpaths ..." line of the README's console blocks with the
    # output lines shown under it, up to the next blank line or fence
    lines = README.read_text(encoding="utf-8").splitlines()
    examples, block = [], False
    for i, line in enumerate(lines):
        if line.startswith("```"):
            block = line == "```console"
        elif block and line.startswith("$ signedpaths "):
            rest = lines[i + 1:]
            shown = list(itertools.takewhile(lambda s: s and not s.startswith("```"), rest))
            examples.append((line[len("$ signedpaths "):], shown))
    return examples


def output_pattern(shown):
    # the shown lines verbatim, where a "..." line stands for any run of lines
    return "".join("(?:.*\n)*?" if s == "..." else re.escape(s) + "\n" for s in shown)


COMMANDS = readme_commands()


@pytest.mark.parametrize("command, shown", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_readme_console_examples(command, shown, capsys):
    assert cli.run(shlex.split(command)) == 0
    assert re.fullmatch(output_pattern(shown), capsys.readouterr().out)


def test_readme_shows_commands():
    assert len(COMMANDS) >= 7
