"""Command-line front end.

Subcommands::

    eulerian   print one row of an Eulerian triangle
    verify     check a named identity for every rank up to a bound
    bijection  audit a bijection by exhaustive round trips
    threshold  counting data (and optionally the list) of threshold graphs
    render     draw the path representation of a signed permutation
    poset      lattice/isomorphism/cover/join-irreducibility reports

The CLI only parses arguments, gates each request on the work budget,
dispatches to the library and formats the result.  The work, the
bijection audits included (``barred.audit_psi``, ``barred.audit_theta``,
``sgnperm.audit_chi``, ``threshold.audit_tgdo`` and
``threshold.audit_bijtgsbps``), lives in the modules that own the maps.
A command line that names a command is parsed by a parser holding that
command alone, since building all six costs more than most requests; any
other (empty, ``-h``, an unknown word) gets the full parser, whose help
and errors list them all.

Exit codes: 0 on success, 1 when a verification or audit fails, 2 on
usage or domain errors and on output files that cannot be written.
Output is deterministic for fixed flags; the ``--format`` option of
``eulerian``, ``verify`` and ``threshold`` switches between a human table,
JSON and CSV.

``--max-elements`` (default 10^8) is the work budget, checked by
``eulerian.check_budget`` before any work starts; the module doing the
work counts it.  One unit is a step of the counting DP for ``eulerian
--method bruteforce`` and ``verify`` (summed over the ranks; ``main``
reads no histogram), a machine word of a formula row entry
(``eulerian.row_cost``) for ``eulerian``, the ``threshold`` counts and,
charged on its own, the formula side of ``verify``, a relation bit of each
N x N ``poset``, an edge slot (C(n, 2) per graph) for ``threshold --list``
and the bijtgsbps and tgdo audits, a check of one descent class with one
bar set for psi and theta (``barred.audit_theta_cost``), an entry of
chi's renaming tables, and a grid cell for ``render``.  A walk over a rank-n
family is first refused above ``sgnperm.MAX_ENUMERATION_N`` (12) or below
0, whatever the budget, and only then priced at its exact cost.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Iterable, Sequence

from . import barred, pathrep, posets, sgnperm, threshold
from .eulerian import (
    IDENTITY_MIN_N,
    IDENTITY_NAMES,
    MAX_BRUTE_ELEMENTS,
    IdentityReport,
    IdentityRow,
    check_budget,
    eulerian as eulerian_number,
    eulerian_polynomial,
    identity_cost,
    row_cost,
    threshold_counts,
    verify_range,
)

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# eulerian


def _cmd_eulerian(args: argparse.Namespace) -> int:
    coeffs = eulerian_polynomial(
        args.n, args.kind, args.method, max_elements=args.max_elements
    )
    if args.format == "json":
        import json

        print(json.dumps({
            "kind": args.kind,
            "n": args.n,
            "method": args.method,
            "coefficients": list(coeffs),
        }))
    elif args.format == "csv":
        print("k,count")
        for k, value in enumerate(coeffs):
            print(f"{k},{value}")
    else:
        print(" ".join(str(c) for c in coeffs))
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: argparse.Namespace) -> int:
    name, hi = args.identity, args.max_n
    lo = max(1, IDENTITY_MIN_N[name])  # every range starts at n = 1 or above
    if hi < lo:
        raise ValueError(f"identity {name} needs --max-n >= {lo}")
    ranks = range(lo, hi + 1)
    what = f"verifying {name} up to n={hi}"
    # the cost grows with n, so the top rank alone refuses a long range at
    # once, and a top rank within the budget keeps the sum over ranks short
    top = identity_cost(name, hi)
    check_budget(top, args.max_elements, what)
    if top:
        check_budget(
            sum(identity_cost(name, n) for n in ranks), args.max_elements, what
        )
    # the formula side, charged on its own: the rows carried to rank hi and
    # the passes of main and eulBodd over them (see verify_range)
    check_budget(row_cost(hi, (hi + 1) ** 2 * (hi + 2)), args.max_elements, what)
    if args.format == "json":  # holds comes first, so every report is held
        reports = list(verify_range(name, lo, hi))
        ok = all(r.holds for r in reports)
        print(_verify_json(name, ok, reports))
        return 0 if ok else 1
    # table and CSV print each rank as it is checked
    ok = True
    if args.format == "csv":
        print("identity,n,index,lhs,rhs,brute,holds")
    for r in verify_range(name, lo, hi):
        ok &= r.holds
        if args.format == "csv":
            for row in r.rows:
                brute = "" if row.brute is None else row.brute
                print(f"{name},{r.n},{row.index},{row.lhs},{row.rhs},{brute},"
                      f"{str(row.holds).lower()}")
        else:
            status = "holds" if r.holds else "FAILS"
            print(f"{name} at n={r.n}: {status} ({len(r.rows)} rows)")
            if not r.holds:
                for row in r.rows:
                    if not row.holds:
                        extra = "" if row.brute is None else f", brute={row.brute}"
                        print(f"  index {row.index}: lhs={row.lhs} rhs={row.rhs}{extra}")
    return 0 if ok else 1


def _verify_json(name: str, ok: bool, reports: list[IdentityReport]) -> str:
    # the bytes of json.dumps({"identity": name, "holds": ok, "reports":
    # [report_dict(r) for r in reports]}, indent=2), one f-string per row;
    # every report has rows, so no list prints as [], and name is one of
    # IDENTITY_NAMES, which need no escape
    quoted, word, pad = f'"{name}"', ("false", "true"), "\n" + " " * 10

    def row_text(row: IdentityRow) -> str:
        brute = "" if row.brute is None else f'{pad}"brute": {row.brute},'
        return (f'        {{{pad}"index": {row.index},{pad}"lhs": {row.lhs},'
                f'{pad}"rhs": {row.rhs},{brute}'
                f'{pad}"holds": {word[row.holds]}\n        }}')

    def report_text(r: IdentityReport) -> str:
        rows = ",\n".join(map(row_text, r.rows))
        return (f'    {{\n      "identity": {quoted},\n      "n": {r.n},\n'
                f'      "holds": {word[r.holds]},\n      "rows": [\n'
                f'{rows}\n      ]\n    }}')

    reports_text = ",\n".join(map(report_text, reports))
    return (f'{{\n  "identity": {quoted},\n  "holds": {word[ok]},\n  "reports": [\n'
            f'{reports_text}\n  ]\n}}')


# ---------------------------------------------------------------------------
# bijection


# audit -> (the library audit, its price, which asks the enumeration cap
# first: the checks of psi and theta, one per descent class and bar set,
# the renaming table entries of chi, 2(n - 1) for each first letter, or the
# edge slots of the threshold graphs that tgdo, which refuses n = 0 itself,
# and bijtgsbps walk)
_AUDITS = {
    "psi": (barred.audit_psi, lambda n: barred.audit_theta_cost(n) // 2),
    "theta": (barred.audit_theta, barred.audit_theta_cost),
    "chi": (sgnperm.audit_chi, lambda n: sgnperm.check_enumeration_cap(n) or 2 * n * (n - 1)),
    "tgdo": (threshold.audit_tgdo, threshold.listing_cost),
    "bijtgsbps": (threshold.audit_bijtgsbps, threshold.listing_cost),
}


def _cmd_bijection(args: argparse.Namespace) -> int:
    audit, cost = _AUDITS[args.check]
    check_budget(cost(args.n), args.max_elements, f"the {args.check} audit")
    checked, failure = audit(args.n)
    if failure is None:
        print(f"{args.check} at n={args.n}: {checked} round trips verified")
        return 0
    print(f"{args.check} at n={args.n}: FAILED after {checked} round trips")
    print(f"  {failure}")
    return 1


# ---------------------------------------------------------------------------
# threshold


def _cmd_threshold(args: argparse.Namespace) -> int:
    # every format prints each graph as it is generated
    listing: Iterable[threshold.SimpleGraph] = ()
    if args.list:
        check_budget(
            threshold.listing_cost(args.n), args.max_elements,
            f"listing the threshold graphs on [{args.n}]",
        )
        listing = threshold.enumerate_threshold_graphs(args.n)
    show_counts = args.counts or not args.list
    try:
        data = threshold_counts(args.n, args.max_elements) if show_counts else None
    except AssertionError as exc:  # the two counting formulas disagree
        print(f"threshold at n={args.n}: FAILED, {exc}")
        return 1
    if args.format == "json":
        import json

        # the fields in order, as the record's __init__ stores them
        head = json.dumps({"n": args.n} if data is None else vars(data), indent=2)
        if args.list:
            # the document json.dumps would give with the graphs in it,
            # streamed one graph at a time
            print(head[:-2] + ',\n  "graphs": [', end="")
            sep = "\n"
            for g in listing:
                text = json.dumps(threshold.graph_dict(g), indent=2)
                print(sep + "    " + text.replace("\n", "\n    "), end="")
                sep = ",\n"
            print("]\n}" if sep == "\n" else "\n  ]\n}")
        else:
            print(head)
    elif args.format == "csv":
        print("series,index,value")
        if data is not None:
            print(f"total,,{data.total}")
            print(f"unlabeled,,{data.unlabeled}")
            for i, value in enumerate(data.by_degree_classes, start=1):
                print(f"by_degree_classes,{i},{value}")
            for k, value in enumerate(data.by_partition_descents):
                print(f"by_partition_descents,{k},{value}")
        for g in listing:
            print(f"graph,,{threshold.format_graph(g)}")
    else:
        if data is not None:
            print(f"labeled threshold graphs on [{args.n}]: {data.total}")
            print(f"unlabeled classes: {data.unlabeled}")
            print(
                "by distinct degrees (i=1..n): "
                + " ".join(str(v) for v in data.by_degree_classes)
            )
            print(
                "by degree-partition descents (k=0..): "
                + " ".join(str(v) for v in data.by_partition_descents)
            )
        for g in listing:
            print(threshold.format_graph(g))
    return 0


# ---------------------------------------------------------------------------
# render


def _cmd_render(args: argparse.Namespace) -> int:
    # some argparse versions drop a "--" value and leave the list [] instead
    u = sgnperm.parse_signed(args.perm if isinstance(args.perm, str) else "--")
    check_budget(
        pathrep.render_cost(len(u)),
        args.max_elements,
        f"drawing a window of {len(u)} letters",
    )
    rep = pathrep.path_representation(u)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(pathrep.render_svg(rep))
        print(f"wrote {args.svg}")
    else:
        print(pathrep.render_ascii(rep))
    return 0


# ---------------------------------------------------------------------------
# poset


def _edges_text(edges: frozenset[tuple[int, int]]) -> str:
    return ",".join(f"{a}-{b}" for a, b in sorted(edges)) or "empty"


def _cmd_poset(args: argparse.Namespace) -> int:
    kind, n = args.kind, args.n
    if args.check == "iso" and kind not in ("D", "TG"):
        raise ValueError("--check iso compares weak D with TG; use --kind D or TG")
    if args.check == "iso" and args.dot:
        raise ValueError("--dot draws one poset, and --check iso builds two")
    built = ("D", "TG") if args.check == "iso" else (kind,)
    check_budget(
        sum(posets.poset_cost(k, n) for k in built), args.max_elements,
        f"the {' and '.join(built)} poset at n={n}",
    )
    if args.check == "iso":
        p, q = posets.weak_poset(n, "D"), posets.tg_poset(n)
        ok = posets.order_isomorphism_check(p, q, threshold.tg_pair)
        verdict = "order isomorphism" if ok else "NOT an order isomorphism"
        print(f"tg_pair on weak D_{n} -> TG_{n}: {verdict}")
        return 0 if ok else 1

    p = posets.tg_poset(n) if kind == "TG" else posets.weak_poset(n, kind)
    label = sgnperm.format_signed  # called once per element for the covers and the DOT file
    if kind == "TG":  # with one text made per w and one per edge set
        words, graphs = functools.cache(sgnperm.format_signed), functools.cache(_edges_text)
        label = lambda pair: f"{words(pair.w)}:{graphs(pair.edges)}"
    exit_code = 0
    if args.check == "lattice":
        report = p.lattice_check()
        if report.is_lattice:
            print(f"{kind} poset at n={n}: lattice ({len(p)} elements)")
        else:
            a, b = report.witness  # type: ignore[misc]
            print(f"{kind} poset at n={n}: NOT a lattice; {report.missing} missing for "
                  f"{label(a)} and {label(b)}")
            exit_code = 1
    elif args.check == "covers":
        pairs = p.covers(list(map(label, p.elements)))
        if kind != "TG":
            # in a weak order the lower covers of u are marked by descents
            for u, c in p.lower_cover_counts().items():
                if c != sgnperm.descent_count(u, kind):
                    print(f"cover/descent mismatch at {label(u)}")
                    return 1
        head = f"{kind} poset at n={n}: {len(pairs)} cover pairs"
        print("\n".join([head, *(f"  {a} < {b}" for a, b in pairs)]))
    else:  # joinirr
        count = p.join_irreducible_count()
        print(f"{kind} poset at n={n}: {count} join-irreducible elements")
        formula_kind = "D" if kind == "TG" else kind
        # k = 1 is a valid descent count from n = 2 on (n = 1 for type B)
        if n >= (1 if formula_kind == "B" else 2):
            expected = eulerian_number(n, 1, formula_kind)
            print(f"Eulerian count with one descent: {expected}")
            if count != expected:
                print("MISMATCH between join-irreducibles and the Eulerian count")
                exit_code = 1
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(p.to_dot(label))
        print(f"wrote {args.dot}")
    return exit_code


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser, formats: bool = False) -> None:
    if formats:
        parser.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default="table",
            help="output format (default: table)",
        )
    parser.add_argument(
        "--max-elements",
        type=int,
        default=MAX_BRUTE_ELEMENTS,
        help="work budget: DP steps, relation bits, edge slots, class checks or "
        f"grid cells, as the command counts them (default: {MAX_BRUTE_ELEMENTS})",
    )


# command -> (its help line, its handler, whether it takes --format, and its
# own arguments as (flag, add_argument keywords), added before the common ones)
_COMMANDS = {
    "eulerian": ("print one Eulerian triangle row", _cmd_eulerian, True, (
        ("--kind", {"choices": ("A", "B", "D"), "required": True}),
        ("--n", {"type": int, "required": True}),
        ("--method", {"choices": ("formula", "bruteforce"), "default": "formula"}),
    )),
    "verify": ("check a named identity exactly", _cmd_verify, True, (
        ("--identity", {"choices": IDENTITY_NAMES, "required": True}),
        ("--max-n", {"type": int, "required": True}),
    )),
    "bijection": ("audit a bijection by round trips", _cmd_bijection, False, (
        ("--check", {"choices": _AUDITS, "required": True}),
        ("--n", {"type": int, "required": True}),
    )),
    "threshold": ("threshold-graph counting data", _cmd_threshold, True, (
        ("--n", {"type": int, "required": True}),
        ("--counts", {"action": "store_true", "help": "print the counts"}),
        ("--list", {"action": "store_true", "help": "list the graphs"}),
    )),
    "render": ("draw a path representation", _cmd_render, False, (
        ("--perm", {"required": True, "help": 'window, e.g. "-2,3,1"'}),
        ("--svg", {"help": "write an SVG file instead of ASCII"}),
    )),
    "poset": ("weak-order and threshold-pair posets", _cmd_poset, False, (
        ("--kind", {"choices": ("A", "B", "D", "TG"), "required": True}),
        ("--n", {"type": int, "required": True}),
        ("--check", {"choices": ("lattice", "iso", "covers", "joinirr"), "required": True}),
        ("--dot", {"help": "also write the Hasse diagram as DOT (not with --check iso)"}),
    )),
}


@functools.cache
def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    # Built once per process and command: parsing leaves no state on the
    # parser, and building it costs more than a small render request.  The
    # parser holds the command ``only`` names, a sixth of the build; None,
    # for argv naming no command, holds all six for help and errors to list.
    parser = argparse.ArgumentParser(
        prog="signedpaths",
        description="Exact combinatorics of signed permutations, lattice "
        "paths and threshold graphs.",
    )
    # the full list as metavar keeps the usage line of an "unrecognized
    # arguments" error; the full parser sets none, so its missing- and
    # invalid-command errors still name the argument "command"
    metavar = only and "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in (only,) if only else _COMMANDS:
        help_line, func, formats, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        _add_common(p, formats)
        p.set_defaults(func=func)
    return parser


def _glue_window_values(argv: Sequence[str]) -> list[str]:
    # windows routinely start with a minus sign ("-2,3,1"), which argparse
    # would mistake for a flag; fold them into --perm=... form
    out: list[str] = []
    it = iter(argv)
    for token in it:
        if token == "--perm":
            value = next(it, None)
            if value is None:
                out.append(token)
            else:
                out.append(f"--perm={value}")
        else:
            out.append(token)
    return out


def run(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv`` and execute the chosen subcommand; returns the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(_glue_window_values(argv))
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
