"""Checks of the package's public surface, most read from each module's AST.

Every name a module exports is defined there, every name the package
exports resolves, and no module-level import is left without a use.
A public call outside its domain raises ValueError, not an IndexError
or KeyError from deep inside.
The package itself re-exports nothing: each module is reached by its own
path, and importing one loads only what that module imports.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import signedpaths
from signedpaths import barred, pathrep, posets, sgnperm, threshold

SOURCES = sorted(Path(signedpaths.__file__).parent.glob("*.py"))


def tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def exported(module: ast.Module) -> list[str]:
    # the literal list assigned to __all__, or none
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def defined(module: ast.Module) -> set[str]:
    # names bound at module level by a definition or an assignment
    names = set()
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def imported(module: ast.Module) -> dict[str, int]:
    # module-level import bindings -> line, without __future__ features
    names = {}
    for node in module.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_module_all_names_are_defined_there(path):
    module = tree(path)
    assert sorted(set(exported(module)) - defined(module)) == []


def test_package_all_names_resolve():
    assert signedpaths.__all__
    assert [name for name in signedpaths.__all__ if not hasattr(signedpaths, name)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_import(path):
    module = tree(path)
    used = {n.id for n in ast.walk(module) if isinstance(n, ast.Name)}
    used |= set(exported(module))  # re-exports count as uses
    unused = {name: line for name, line in imported(module).items() if name not in used}
    assert unused == {}


def test_each_module_is_the_package_attribute_of_its_name():
    names = [info.name for info in pkgutil.iter_modules(signedpaths.__path__)]
    modules = {name: importlib.import_module(f"signedpaths.{name}") for name in names}
    assert "eulerian" in modules  # the module shares its name with a function
    assert [name for name, module in modules.items() if getattr(signedpaths, name) is not module] == []


def test_importing_one_module_loads_only_its_imports():
    # a fresh interpreter, so no other test has loaded a module yet
    src = str(Path(signedpaths.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, signedpaths.kernels; print(sorted(m for m in sys.modules if m.startswith('signedpaths')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "['signedpaths', 'signedpaths.kernels']\n"


OBJECT_MODULES = ["barred", "pathrep", "posets", "sgnperm", "threshold"]
COUNTING_MODULES = ["eulerian", "kernels"]


@pytest.mark.parametrize(
    "imported, loaded",
    [(OBJECT_MODULES, OBJECT_MODULES), (["eulerian"], COUNTING_MODULES)],
    ids=["objects", "counting"],
)
def test_object_and_counting_modules_share_no_import(imported, loaded):
    # the walks and the formulas confirm each other only while neither side
    # runs the other's code; cli alone imports both
    src = str(Path(signedpaths.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (f"import sys; from signedpaths import {', '.join(imported)}; "
            "print(sorted(m for m in sys.modules if m.startswith('signedpaths.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == f"{[f'signedpaths.{m}' for m in loaded]}\n"


DIVISORS = posets.FinitePoset([1, 2, 4], lambda a, b: b % a == 0)

# public calls on arguments outside their domain: each must refuse with
# ValueError, not fail inside with IndexError or KeyError, nor draw a
# wrong picture without complaint
BAD_CALLS = {
    "chi_inverse on an empty v": lambda: sgnperm.chi_inverse(1, ()),
    "reflect_path on a foreign step": lambda: pathrep.reflect_path("ESX"),
    "is_diagonal_symmetric on a foreign step": lambda: pathrep.is_diagonal_symmetric("ESX"),
    "render_ascii with too few steps": lambda: pathrep.render_ascii(pathrep.PathRepresentation("ES", (1, 2))),
    "render_svg with too few steps": lambda: pathrep.render_svg(pathrep.PathRepresentation("ES", (1, 2))),
    "render_ascii with too many steps": lambda: pathrep.render_ascii(pathrep.PathRepresentation("ESES", (1,))),
    "render_svg with too many steps": lambda: pathrep.render_svg(pathrep.PathRepresentation("ESES", (1,))),
    "le below a non-element": lambda: DIVISORS.le(3, 4),
    "le above a non-element": lambda: DIVISORS.le(1, 3),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS)
def test_domain_errors_are_value_errors(call):
    with pytest.raises(ValueError):
        call()


# text with a part that is not an integer: the message names the argument
# and the part, not int()'s complaint about the part alone
BAD_TEXTS = {
    "window with an empty letter": (
        sgnperm.parse_signed, "1,,2", "a letter of '1,,2' is not an integer: ''"),
    "window with a word letter": (
        sgnperm.parse_signed, "1,two", "a letter of '1,two' is not an integer: 'two'"),
    "barred comma letter": (
        barred.parse_sbp, "1,x|2", "a letter of '1,x|2' is not an integer: 'x'"),
    "barred compact letter": (
        barred.parse_sbp, "1x|2", "a letter of '1x|2' is not an integer: 'x'"),
    "graph edge end": (threshold.parse_graph, "3; 1-x", "an edge end is not an integer: 'x'"),
    "graph edge without a dash": (
        threshold.parse_graph, "3; 1", "an edge end is not an integer: ''"),
    "graph vertex count": (
        threshold.parse_graph, "x; 1-2", "a graph's vertex count is not an integer: 'x'"),
}


@pytest.mark.parametrize("parse, text, message", BAD_TEXTS.values(), ids=BAD_TEXTS)
def test_parsers_name_the_part_that_is_no_integer(parse, text, message):
    with pytest.raises(ValueError) as info:
        parse(text)
    assert str(info.value) == message


# In a child process under a 200 MB address-space limit, each public
# enumerator gives its first element at the cap, n = 12, and refuses n = 13
# and n = 10^6 at once; so do tg_poset, which walks a whole family, and the
# walk prices poset_cost and audit_theta_cost, which would otherwise
# multiply out n!.  The limit binds only the child.
HUGE_RANK_CHILD = """
import json, resource, time
resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))
from signedpaths import barred, pathrep, posets, sgnperm, threshold

def first(walk):
    return lambda n: next(iter(walk(n)))

calls = {
    "enumerate_group": first(sgnperm.enumerate_group),
    "enumerate_graphs": first(threshold.enumerate_graphs),
    "enumerate_threshold_graphs": first(threshold.enumerate_threshold_graphs),
    "enumerate_tg": first(threshold.enumerate_tg),
    "enumerate_sbp": first(barred.enumerate_sbp),
    "enumerate_lbp": first(barred.enumerate_lbp),
    "symmetric_paths": first(pathrep.symmetric_paths),
    "tg_poset": posets.tg_poset,
    "poset_cost": lambda n: posets.poset_cost("B", n),
    "audit_theta_cost": barred.audit_theta_cost,
}
results = []
for name, call in calls.items():
    for n in (12, 13, 10**6) if name.startswith(("enumerate", "symmetric")) else (13, 10**6):
        start = time.perf_counter()
        try:
            call(n)
            outcome = "first element"
        except Exception as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        results.append([name, n, outcome, time.perf_counter() - start])
print(json.dumps(results))
"""


def test_huge_ranks_are_refused_at_once():
    src = str(Path(signedpaths.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", HUGE_RANK_CHILD], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    results = json.loads(out.stdout)
    expected = {12: "first element"} | {
        n: f"ValueError: n = {n} exceeds the enumeration cap 12" for n in (13, 10**6)
    }
    assert [(name, n, outcome) for name, n, outcome, _ in results] == [
        (name, n, expected[n]) for name, n, _, _ in results
    ]
    assert len(results) == 7 * 3 + 3 * 2
    assert [(name, n) for name, n, _, seconds in results if seconds >= 1.0] == []


# In a child process under a 1 GiB address-space limit, the poset builds
# within the cap whose N x N down-set rows would exceed posets.MAX_POSET_BITS
# are refused at their first step, by the library and through the CLI at a
# budget that admits them; their rows would take 13 to 52 GB.
POSET_BOUND_CHILD = """
import contextlib, io, json, resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from signedpaths import cli, posets

calls = [
    ("weak_poset B", lambda: posets.weak_poset(7, "B")),
    ("weak_poset D", lambda: posets.weak_poset(7, "D")),
    ("tg_poset", lambda: posets.tg_poset(7)),
    ("weak_poset A", lambda: posets.weak_poset(9, "A")),
]
results = []
for name, call in calls:
    start = time.perf_counter()
    try:
        call()
        outcome = "built"
    except Exception as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    results.append([name, outcome, time.perf_counter() - start])
argv = ["poset", "--kind", "B", "--n", "7", "--check", "lattice", "--max-elements", str(10**12)]
err = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stderr(err):
    code = cli.run(argv)
results.append(["cli", f"{code} {err.getvalue()}", time.perf_counter() - start])
print(json.dumps(results))
"""


def test_poset_builds_over_the_bound_are_refused_at_once():
    src = str(Path(signedpaths.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", POSET_BOUND_CHILD], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    results = json.loads(out.stdout)

    def refusal(kind, n, bits):
        return f"the {kind} poset at n={n} would store {bits} relation bits, over MAX_POSET_BITS = {2**32}"

    b7, d7, a9 = 645_120**2, 322_560**2, 362_880**2
    assert [outcome for _, outcome, _ in results] == [
        "ValueError: " + refusal("B", 7, b7),
        "ValueError: " + refusal("D", 7, d7),
        "ValueError: " + refusal("TG", 7, d7),
        "ValueError: " + refusal("A", 9, a9),
        f"2 error: {refusal('B', 7, b7)}\n",
    ]
    assert [name for name, _, seconds in results if seconds >= 1.0] == []


def test_poset_bound_admits_the_largest_builds_in_use():
    # B_6 (2.1e9 bits) and A_8 (1.6e9) fit under 2^32; rank 7 of B, D or TG does not
    assert posets.MAX_POSET_BITS == 2**32
    for kind, n in [("B", 6), ("A", 8)]:
        assert posets.poset_cost(kind, n) <= posets.MAX_POSET_BITS
    for kind, n in [("B", 7), ("D", 7), ("TG", 7), ("A", 9)]:
        assert posets.poset_cost(kind, n) > posets.MAX_POSET_BITS


# As above for the five bijection audits: each refuses n = 13 and n = 10^6
# at its first step, before it builds a table or multiplies out a group
# order.
HUGE_AUDIT_CHILD = """
import json, resource, time
resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))
from signedpaths import barred, sgnperm, threshold

audits = [barred.audit_psi, barred.audit_theta, sgnperm.audit_chi,
          threshold.audit_tgdo, threshold.audit_bijtgsbps]
results = []
for audit in audits:
    for n in (13, 10**6):
        start = time.perf_counter()
        try:
            audit(n)
            outcome = "ran"
        except Exception as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        results.append([audit.__name__, n, outcome, time.perf_counter() - start])
print(json.dumps(results))
"""


def test_audits_refuse_huge_ranks_at_once():
    src = str(Path(signedpaths.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", HUGE_AUDIT_CHILD], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    results = json.loads(out.stdout)
    assert [(name, n, outcome) for name, n, outcome, _ in results] == [
        (name, n, f"ValueError: n = {n} exceeds the enumeration cap 12")
        for name in ("audit_psi", "audit_theta", "audit_chi", "audit_tgdo", "audit_bijtgsbps")
        for n in (13, 10**6)
    ]
    assert [(name, n) for name, n, _, seconds in results if seconds >= 1.0] == []
