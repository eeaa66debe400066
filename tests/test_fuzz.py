"""Seeded fuzz of the public boundary.

Well-typed random arguments, valid or not, go to the library's public
functions and to ``cli.run``.  A library call may refuse its arguments
with ValueError and nothing else; a command line exits 0, 1 or 2 and
writes no traceback.  The seed is fixed, so a failure repeats.
"""

import argparse
import json
import random
import re

from signedpaths import barred, cli, eulerian, kernels, pathrep, posets, sgnperm, threshold

KINDS = ("A", "B", "D", "Q")  # "Q" names no family
IDENTITIES = eulerian.IDENTITY_NAMES
TEXT_CHARS = "-0123456789,;| {}[]\":n"


def rank(rng, top=5):
    return rng.randint(-3, top)


def perm(rng, n):
    # a permutation of [n], or a word that may not be one
    w = rng.sample(range(1, n + 1), n) if n > 0 else []
    if rng.random() < 0.2:
        w = [rng.randint(-1, n + 1) for _ in range(max(n, 0))]
    return tuple(w)


def window(rng, n):
    return tuple(x if rng.random() < 0.5 else -x for x in perm(rng, n))


def garble(rng, form):
    # the text form of an object, often with one character replaced
    if form and rng.random() < 0.4:
        i = rng.randrange(len(form))
        form = form[:i] + rng.choice(TEXT_CHARS) + form[i + 1:]
    return form


def window_text(rng, n):
    w = window(rng, n)
    return garble(rng, ("," if rng.random() < 0.5 else "").join(map(str, w)))


def bar_text(rng, n):
    cuts = bars(rng, n)
    form = "".join(str(x) + "|" * (i in cuts) for i, x in enumerate(perm(rng, n), start=1))
    return garble(rng, form)


def graph_text(rng, n):
    body = ", ".join(f"{a}-{b}" for a, b in edges(rng, n))
    return garble(rng, f"{n}; {body}")


def json_text(rng, n):
    return garble(rng, json.dumps({"n": n, "edges": [list(e) for e in edges(rng, n)]}))


def bars(rng, n):
    return frozenset(rng.randint(-1, max(n, 0) + 1) for _ in range(rng.randint(0, 3)))


def edges(rng, n):
    # pairs of vertices of [n], now and then one that is a loop or leaves [n]
    out = {tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, 4)) if n >= 2}
    if rng.random() < 0.2:
        out.add((rng.randint(0, n + 1), rng.randint(0, n + 1)))
    return out


def path(rng, n):
    steps = ["E", "S"] * max(n, 0)
    rng.shuffle(steps)
    if rng.random() < 0.2:
        steps.append(rng.choice("ESX"))
    return "".join(steps)


def heights(rng, n):
    f = sorted((rng.randint(0, max(n, 0)) for _ in range(max(n, 0))), reverse=True)
    f = [n, *f]
    if rng.random() < 0.2:
        f[rng.randrange(len(f))] = rng.randint(-1, n + 1)
    return tuple(f)


def sbp(rng, n):
    return barred.SimplyBarredPermutation(perm(rng, n), bars(rng, n))


def lbp(rng, n):
    return barred.LooselyBarredPermutation(perm(rng, n), bars(rng, n))


def graph(rng, n):
    return threshold.graph(n, edges(rng, n))


def pair(rng, n):
    if rng.random() < 0.7:
        return threshold.tg_pair(window(rng, n))
    return threshold.ThresholdPair(perm(rng, n), graph(rng, n).edges)


def representation(rng, n):
    return pathrep.PathRepresentation(path(rng, n), perm(rng, n))


def small(rng):
    return rank(rng, 4)


# name -> call on (rng, n); audits, posets and whole families take n <= 4
CALLS = {
    "as_permutation": lambda r, n: sgnperm.as_permutation(perm(r, n)),
    "as_window": lambda r, n: sgnperm.as_window(window(r, n)),
    "descent_set": lambda r, n: sgnperm.descent_set(window(r, n), r.choice(KINDS)),
    "descent_set_d_variant": lambda r, n: sgnperm.descent_set_d_variant(window(r, n)),
    "descent_count": lambda r, n: sgnperm.descent_count(window(r, n), r.choice(KINDS)),
    "inversion_set": lambda r, n: sgnperm.inversion_set(window(r, n), r.choice(KINDS)),
    "mate": lambda r, n: sgnperm.mate(window(r, n)),
    "is_smooth": lambda r, n: sgnperm.is_smooth(window(r, n)),
    "chi": lambda r, n: sgnperm.chi(window(r, n)),
    "chi_inverse": lambda r, n: sgnperm.chi_inverse(r.randint(-1, n + 1), window(r, n)),
    "window_decomposition": lambda r, n: sgnperm.window_decomposition(window(r, n)),
    "group_order": lambda r, n: sgnperm.group_order(n, r.choice(KINDS)),
    "enumerate_group": lambda r, n: list(sgnperm.enumerate_group(n, r.choice(KINDS))),
    "parse_signed": lambda r, n: sgnperm.parse_signed(window_text(r, n)),
    "audit_chi": lambda r, n: sgnperm.audit_chi(small(r)),
    "upper_antidiagonal": lambda r, n: barred.upper_antidiagonal(bars(r, n), n),
    "psi": lambda r, n: barred.psi(sbp(r, n)),
    "psi_inverse": lambda r, n: barred.psi_inverse(window(r, n)),
    "descB_formula": lambda r, n: barred.descB_formula(sbp(r, n)),
    "xi_preimages": lambda r, n: barred.xi_preimages(bars(r, n), bars(r, n)),
    "theta": lambda r, n: barred.theta(lbp(r, n)),
    "theta_inverse": lambda r, n: barred.theta_inverse(
        sbp(r, n), r.randint(-1, n + 1), r.choice(("even", "odd", "none"))
    ),
    "central_block": lambda r, n: barred.central_block(sbp(r, n)),
    "classify_sbp": lambda r, n: barred.classify_sbp(sbp(r, n)),
    "enumerate_sbp": lambda r, n: list(barred.enumerate_sbp(small(r))),
    "enumerate_lbp": lambda r, n: list(barred.enumerate_lbp(small(r))),
    "parse_sbp": lambda r, n: barred.parse_sbp(bar_text(r, n)),
    "audit_psi": lambda r, n: barred.audit_psi(small(r)),
    "audit_theta": lambda r, n: barred.audit_theta(small(r)),
    "audit_theta_cost": lambda r, n: barred.audit_theta_cost(n),
    "as_path": lambda r, n: pathrep.as_path(path(r, n)),
    "is_diagonal_symmetric": lambda r, n: pathrep.is_diagonal_symmetric(path(r, n)),
    "path_representation": lambda r, n: pathrep.path_representation(window(r, n)),
    "signed_from_path": lambda r, n: pathrep.signed_from_path(path(r, n), perm(r, n)),
    "height_function": lambda r, n: pathrep.height_function(path(r, n)),
    "path_from_height": lambda r, n: pathrep.path_from_height(heights(r, n)),
    "classify_height": lambda r, n: pathrep.classify_height(heights(r, n)),
    "inversions_via_path": lambda r, n: pathrep.inversions_via_path(window(r, n)),
    "east_south_turns": lambda r, n: pathrep.east_south_turns(path(r, n)),
    "diagonal_crossings": lambda r, n: pathrep.diagonal_crossings(path(r, n)),
    "symmetric_paths": lambda r, n: list(pathrep.symmetric_paths(n)),
    "render_ascii": lambda r, n: pathrep.render_ascii(representation(r, n)),
    "render_svg": lambda r, n: pathrep.render_svg(representation(r, n)),
    "weak_leq": lambda r, n: posets.weak_leq(window(r, n), window(r, n), r.choice(KINDS)),
    "weak_poset": lambda r, n: posets.weak_poset(small(r), r.choice(KINDS)),
    "tg_poset": lambda r, n: posets.tg_poset(small(r)),
    "poset_cost": lambda r, n: posets.poset_cost(r.choice(KINDS + ("TG",)), n),
    "tg_order_leq": lambda r, n: posets.tg_order_leq(pair(r, n), pair(r, n)),
    "vicinal_compare": lambda r, n: threshold.vicinal_compare(
        graph(r, n), r.randint(0, n + 1), r.randint(0, n + 1)
    ),
    "is_threshold": lambda r, n: threshold.is_threshold(
        graph(r, n), r.choice(("vicinal", "forbidden", "none"))
    ),
    "is_degree_ordering": lambda r, n: threshold.is_degree_ordering(graph(r, n), perm(r, n)),
    "canonical_degree_ordering": lambda r, n: threshold.canonical_degree_ordering(graph(r, n)),
    "edges_from_height": lambda r, n: threshold.edges_from_height(heights(r, n)),
    "height_from_edges": lambda r, n: threshold.height_from_edges(edges(r, n), n),
    "edges_from_signed": lambda r, n: threshold.edges_from_signed(window(r, n)),
    "tg_pair": lambda r, n: threshold.tg_pair(window(r, n)),
    "signed_from_tg": lambda r, n: threshold.signed_from_tg(pair(r, n)),
    "degree_orderings": lambda r, n: list(threshold.degree_orderings(graph(r, n))),
    "enumerate_graphs": lambda r, n: list(threshold.enumerate_graphs(small(r))),
    "enumerate_threshold_graphs": lambda r, n: list(threshold.enumerate_threshold_graphs(n)),
    "enumerate_tg": lambda r, n: list(threshold.enumerate_tg(small(r))),
    "sbp_from_threshold": lambda r, n: threshold.sbp_from_threshold(graph(r, n)),
    "threshold_from_sbp": lambda r, n: threshold.threshold_from_sbp(sbp(r, n)),
    "parse_graph": lambda r, n: threshold.parse_graph(graph_text(r, n)),
    "graph_from_json": lambda r, n: threshold.graph_from_json(json_text(r, n)),
    "audit_tgdo": lambda r, n: threshold.audit_tgdo(small(r)),
    "audit_bijtgsbps": lambda r, n: threshold.audit_bijtgsbps(small(r)),
    "eulerian": lambda r, n: eulerian.eulerian(
        n, r.randint(-1, n + 1), r.choice(KINDS), r.choice(("formula", "bruteforce", "none"))
    ),
    "eulerian_polynomial": lambda r, n: eulerian.eulerian_polynomial(
        n, r.choice(KINDS), r.choice(("formula", "bruteforce"))
    ),
    "verify_identity": lambda r, n: eulerian.verify_identity(r.choice(IDENTITIES + ("none",)), n),
    "verify_range": lambda r, n: list(eulerian.verify_range(r.choice(IDENTITIES), n, rank(r))),
    "threshold_counts": lambda r, n: eulerian.threshold_counts(n),
    "identity_cost": lambda r, n: eulerian.identity_cost(r.choice(IDENTITIES + ("none",)), n),
    "descent_histogram": lambda r, n: kernels.descent_histogram(r.choice(KINDS), n),
    "positive_descent_histogram": lambda r, n: kernels.positive_descent_histogram(n),
}


def library_refusals(seed):
    # (name, n, exception) for each of 3000 seeded calls that raised
    rng = random.Random(seed)
    names = sorted(CALLS)
    refusals = []
    for _ in range(3000):
        name = rng.choice(names)
        n = rank(rng)
        try:
            CALLS[name](rng, n)
        except Exception as exc:
            refusals.append((name, n, exc))
    return refusals


def test_library_calls_raise_only_value_error():
    escapes = [(name, n, f"{type(exc).__name__}: {exc}")
               for name, n, exc in library_refusals(20211) if not isinstance(exc, ValueError)]
    assert escapes == []


def cli_flags():
    # every option string of the CLI's parser and of each subcommand's
    parsers, flags = [cli._build_parser()], set()
    while parsers:
        for action in parsers.pop()._actions:
            flags.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return flags


def test_library_refusals_name_no_command_line_flag():
    # a library refusal speaks of the library's arguments (n, kind, ...), not
    # of the CLI's flags; only the budget gate names --max-elements beside
    # max_elements, and no call at these ranks exceeds a budget.  A flag is
    # named when it stands as a word of its own, so quoted input such as
    # parse_graph's '0; 1--' names none
    flags = cli_flags()
    assert {"--n", "--max-n", "--max-elements", "--check", "--list"} <= flags
    named = re.compile("|".join(rf"(?<![\w-]){re.escape(f)}(?![\w-])" for f in flags))
    refusals = library_refusals(20211)
    assert len({name for name, _, _ in refusals}) > 40
    assert [(name, n, str(exc)) for name, n, exc in refusals if named.search(str(exc))] == []


def argv(rng, tmp):
    n = str(rng.randint(-2, 4))
    budget = ["--max-elements", str(rng.choice((0, 1, 100, 10**8)))] if rng.random() < 0.3 else []
    form = ["--format", rng.choice(("table", "json", "csv", "none"))] if rng.random() < 0.5 else []
    command = rng.choice(("eulerian", "verify", "bijection", "threshold", "render", "poset"))
    if command == "eulerian":
        method = rng.choice(("formula", "bruteforce"))
        return [command, "--kind", rng.choice(KINDS), "--n", n, "--method", method, *form, *budget]
    if command == "verify":
        return [command, "--identity", rng.choice(IDENTITIES), "--max-n", n, *form, *budget]
    if command == "bijection":
        check = rng.choice(("psi", "theta", "chi", "tgdo", "bijtgsbps"))
        return [command, "--check", check, "--n", n, *budget]
    if command == "threshold":
        flags = rng.sample(["--counts", "--list"], rng.randint(0, 2))
        return [command, "--n", n, *flags, *form, *budget]
    if command == "render":
        svg = ["--svg", str(tmp / "out.svg")] if rng.random() < 0.3 else []
        return [command, "--perm", window_text(rng, int(n)), *svg, *budget]
    dot = ["--dot", str(tmp / "out.dot")] if rng.random() < 0.2 else []
    checks = ("lattice", "iso", "covers", "joinirr")
    kind = rng.choice(("A", "B", "D", "TG"))
    return [command, "--kind", kind, "--n", n, "--check", rng.choice(checks), *dot, *budget]


def test_command_lines_exit_cleanly(capsys, tmp_path):
    rng = random.Random(20212)
    bad = []
    for _ in range(300):
        line = argv(rng, tmp_path)
        code = cli.run(line)
        out = capsys.readouterr()
        if code not in (0, 1, 2) or "Traceback" in out.out + out.err:
            bad.append((line, code))
    assert bad == []
