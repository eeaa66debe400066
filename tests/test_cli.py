"""End-to-end tests for the command-line interface (exit codes and output)."""

import ast
import hashlib
import itertools
import json
import pkgutil
import time
from pathlib import Path

import pytest

import signedpaths
from signedpaths import cli, posets, sgnperm, threshold
from signedpaths.eulerian import IdentityReport, IdentityRow, threshold_counts


def run_ok(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    assert code == 0, out.err
    return out.out


def run_err(capsys, argv, code=2):
    got = cli.run(argv)
    out = capsys.readouterr()
    assert got == code
    return out.err


# render --perm -2,3,1 --svg FILE writes these bytes: the 3 x 3 grid at
# 32 pixels a cell with one cell of margin, the one cell below the path
# shaded, the path in red and the labels at half a cell
SVG_NEG2_3_1 = (
    b'<svg xmlns="http://www.w3.org/2000/svg" width="160" height="160" viewBox="0 0 160 160">\n'
    b'<rect width="160" height="160" fill="white"/>\n'
    b'<rect x="32" y="96" width="32" height="32" fill="#cfe2ff"/>\n'
    b'<line x1="32" y1="128" x2="32" y2="32" stroke="#999" stroke-width="1"/>\n'
    b'<line x1="32" y1="128" x2="128" y2="128" stroke="#999" stroke-width="1"/>\n'
    b'<line x1="64" y1="128" x2="64" y2="32" stroke="#999" stroke-width="1"/>\n'
    b'<line x1="32" y1="96" x2="128" y2="96" stroke="#999" stroke-width="1"/>\n'
    b'<line x1="96" y1="128" x2="96" y2="32" stroke="#999" stroke-width="1"/>\n'
    b'<line x1="32" y1="64" x2="128" y2="64" stroke="#999" stroke-width="1"/>\n'
    b'<line x1="128" y1="128" x2="128" y2="32" stroke="#999" stroke-width="1"/>\n'
    b'<line x1="32" y1="32" x2="128" y2="32" stroke="#999" stroke-width="1"/>\n'
    b'<line x1="32" y1="128" x2="128" y2="32" stroke="#666" stroke-width="1" stroke-dasharray="4 3"/>\n'
    b'<polyline points="32,32 32,64 32,96 64,96 64,128 96,128 128,128" fill="none" stroke="#c1121f" stroke-width="3"/>\n'
    b'<text x="48.0" y="26" text-anchor="middle" font-size="16">2</text>\n'
    b'<text x="26" y="116.0" text-anchor="end" font-size="16">-2</text>\n'
    b'<text x="80.0" y="26" text-anchor="middle" font-size="16">3</text>\n'
    b'<text x="26" y="84.0" text-anchor="end" font-size="16">-3</text>\n'
    b'<text x="112.0" y="26" text-anchor="middle" font-size="16">1</text>\n'
    b'<text x="26" y="52.0" text-anchor="end" font-size="16">-1</text>\n'
    b'</svg>'
)


class TestEulerianCommand:
    def test_table(self, capsys):
        out = run_ok(capsys, ["eulerian", "--kind", "A", "--n", "3"])
        assert out == "1 4 1\n"

    def test_json(self, capsys):
        out = run_ok(
            capsys, ["eulerian", "--kind", "B", "--n", "2", "--format", "json"]
        )
        assert json.loads(out) == {
            "kind": "B",
            "n": 2,
            "method": "formula",
            "coefficients": [1, 6, 1],
        }

    def test_csv(self, capsys):
        out = run_ok(
            capsys, ["eulerian", "--kind", "B", "--n", "2", "--format", "csv"]
        )
        assert out.splitlines() == ["k,count", "0,1", "1,6", "2,1"]

    def test_bruteforce_matches_formula(self, capsys):
        brute = run_ok(
            capsys,
            ["eulerian", "--kind", "D", "--n", "4", "--method", "bruteforce"],
        )
        formula = run_ok(capsys, ["eulerian", "--kind", "D", "--n", "4"])
        assert brute == formula == "1 44 102 44 1\n"

    def test_raised_budget_admits_bruteforce(self, capsys):
        argv = ["eulerian", "--kind", "B", "--n", "9"]
        brute = run_ok(
            capsys,
            argv + ["--method", "bruteforce", "--max-elements", "1000000000"],
        )
        assert brute == run_ok(capsys, argv)
        # the A_200 DP takes 536,026,800 steps, over the default of 10^8
        a200 = ["eulerian", "--kind", "A", "--n", "200", "--method", "bruteforce"]
        assert "budget" in run_err(capsys, a200)

    def test_default_budget_admits_b9_bruteforce(self, capsys):
        # the B_9 DP takes 9,060 steps; its group has 185,794,560 elements
        argv = ["eulerian", "--kind", "B", "--n", "9"]
        brute = run_ok(capsys, argv + ["--method", "bruteforce"])
        assert brute == run_ok(capsys, argv)

    def test_budget_violation(self, capsys):
        err = run_err(
            capsys,
            ["eulerian", "--kind", "B", "--n", "3", "--method", "bruteforce",
             "--max-elements", "10"],
        )
        assert "budget" in err

    def test_type_d_needs_two(self, capsys):
        # the counting layer's own refusal, for either method
        for method in ("formula", "bruteforce"):
            argv = ["eulerian", "--kind", "D", "--n", "1", "--method", method]
            assert run_err(capsys, argv) == "error: type D needs n >= 2\n"


class TestVerifyCommand:
    def test_table_all_hold(self, capsys):
        out = run_ok(capsys, ["verify", "--identity", "main", "--max-n", "6"])
        lines = out.splitlines()
        assert len(lines) == 6
        assert all(": holds (" in line for line in lines)
        assert lines[0].startswith("main at n=1")

    def test_csv(self, capsys):
        out = run_ok(
            capsys,
            ["verify", "--identity", "eulBodd", "--max-n", "3", "--format", "csv"],
        )
        lines = out.splitlines()
        assert lines[0] == "identity,n,index,lhs,rhs,brute,holds"
        assert all(line.endswith("true") for line in lines[1:])
        # the brute column is populated for this identity
        assert all(line.split(",")[5] for line in lines[1:])

    def test_closed_form_keeps_brute_column_at_raised_budget(self, capsys):
        out = run_ok(
            capsys,
            ["verify", "--identity", "B_n1", "--max-n", "9",
             "--max-elements", "1000000000", "--format", "csv"],
        )
        last = out.splitlines()[-1].split(",")
        assert last[1] == "9" and last[5] and last[6] == "true"

    def test_json(self, capsys):
        out = run_ok(
            capsys,
            ["verify", "--identity", "stembridge", "--max-n", "4",
             "--format", "json"],
        )
        data = json.loads(out)
        assert data["identity"] == "stembridge"
        assert data["holds"] is True
        assert [r["n"] for r in data["reports"]] == [2, 3, 4]

    def test_budget_violation(self, capsys):
        err = run_err(
            capsys,
            ["verify", "--identity", "eulBeven", "--max-n", "9",
             "--max-elements", "1000"],
        )
        assert "budget" in err

    def test_max_n_below_minimum(self, capsys):
        err = run_err(capsys, ["verify", "--identity", "stembridge", "--max-n", "1"])
        assert "needs --max-n >= 2" in err

    def test_failure_exits_one(self, capsys, monkeypatch):
        broken = IdentityReport("main", 1, (IdentityRow(0, 1, 2),))
        monkeypatch.setattr(cli, "verify_range", lambda *a, **k: iter([broken]))
        code = cli.run(["verify", "--identity", "main", "--max-n", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILS" in out
        assert "index 0: lhs=1 rhs=2" in out
        argv = ["verify", "--identity", "main", "--max-n", "1", "--format", "csv"]
        assert cli.run(argv) == 1
        assert capsys.readouterr().out.splitlines()[1:] == ["main,1,0,1,2,,false"]

    @pytest.mark.parametrize(
        "fmt, lines", [("table", 2), ("csv", 1 + 3 + 5), ("json", 0)]
    )
    def test_table_and_csv_print_each_rank_as_it_is_checked(
        self, fmt, lines, capsys, monkeypatch
    ):
        # ranks 1 and 2 are out before rank 3's check raises; the JSON
        # document leads with holds, so it prints nothing
        real = cli.verify_range

        def stopping(name, lo, hi):
            yield from real(name, lo, 2)
            raise ValueError("stopped at rank 3")

        monkeypatch.setattr(cli, "verify_range", stopping)
        argv = ["verify", "--identity", "main", "--max-n", "4", "--format", fmt]
        code, out = cli.run(argv), capsys.readouterr()
        assert code == 2 and out.err == "error: stopped at rank 3\n"
        assert len(out.out.splitlines()) == lines


class TestBijectionCommand:
    @pytest.mark.parametrize(
        "check, n",
        [("psi", 3), ("theta", 3), ("chi", 3), ("tgdo", 3), ("bijtgsbps", 3)],
    )
    def test_audits_pass(self, capsys, check, n):
        out = run_ok(capsys, ["bijection", "--check", check, "--n", str(n)])
        assert f"{check} at n={n}:" in out
        assert "round trips verified" in out

    @pytest.mark.parametrize("check", ["psi", "theta", "chi", "tgdo", "bijtgsbps"])
    def test_negative_rank_is_a_domain_error(self, capsys, check):
        err = run_err(capsys, ["bijection", "--check", check, "--n", "-1"])
        assert "nonnegative" in err

    def test_chi_needs_two(self, capsys):
        err = run_err(capsys, ["bijection", "--check", "chi", "--n", "1"])
        assert err == "error: chi needs n >= 2\n"

    def test_tgdo_needs_one(self, capsys):
        # D_0 has no group order: the audit's own refusal, not group_order's
        err = run_err(capsys, ["bijection", "--check", "tgdo", "--n", "0"])
        assert err == "error: tgdo needs n >= 1\n"

    def test_budget_violation(self, capsys):
        err = run_err(
            capsys,
            ["bijection", "--check", "psi", "--n", "9", "--max-elements", "100"],
        )
        assert "budget" in err

    def test_theta_budget_charges_the_walk(self, capsys, monkeypatch):
        # psi and theta are charged one check per descent class and bar set,
        # chi one per renaming table entry, so each is admitted at the cap
        from signedpaths import barred

        cost = barred.audit_theta_cost
        assert [cost(n) for n in range(4)] == [2, 4, 16, 64] and cost(12) == 4**12
        assert [cli._AUDITS[check][1](12) for check in ("psi", "theta", "chi")] == [
            2**23, 2**24, 264
        ]
        ran = []
        for check, (_, price) in list(cli._AUDITS.items()):
            monkeypatch.setitem(
                cli._AUDITS, check, (lambda n, check=check: ran.append(check) or (0, None), price)
            )
        for check in ("psi", "theta", "chi"):
            run_ok(capsys, ["bijection", "--check", check, "--n", "12"])
        assert ran == ["psi", "theta", "chi"]

    def test_broken_bijection_exits_one(self, capsys, monkeypatch):
        from signedpaths import barred

        monkeypatch.setattr(barred, "_descB", lambda d, bars, ceil: -1)
        code = cli.run(["bijection", "--check", "psi", "--n", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out


def audit_failure(capsys, check, n):
    code = cli.run(["bijection", "--check", check, "--n", str(n)])
    out = capsys.readouterr()
    assert code == 1 and not out.err
    return out.out


class TestAuditFailures:
    # The psi and theta lines are those of the audits that walked
    # enumerate_sbp and enumerate_lbp element by element, with the same
    # fault injected: a failure names the same first element after the same
    # count.  chi checks its renaming tables once per first letter x before
    # it credits any pair (x, v), so its faults are named by x after 0.

    def test_psi_fault_in_the_middle(self, capsys, monkeypatch):
        # a wrong formula for the first w with Desc(w) = {2} and bars {1, 2, 4}
        from signedpaths import barred

        key = (frozenset({2}), frozenset({1, 2, 4}))
        formula = barred._descB
        monkeypatch.setattr(
            barred, "_descB",
            lambda d, bars, ceil: formula(d, bars, ceil) + ((d, bars) == key),
        )
        assert audit_failure(capsys, "psi", 5) == (
            "psi at n=5: FAILED after 209 round trips\n"
            "  descent formula broke at 1|3|24|5\n"
        )

    def test_psi_round_trip_fault(self, capsys, monkeypatch):
        # bars read back wrong from the windows signed + - +, which psi
        # gives exactly the bar set {1, 2}
        from signedpaths import barred

        plan = barred._psi_inverse_plan

        def faulty(u):
            back, bars = plan(u)
            return back, bars ^ ({3} if [x < 0 for x in u] == [False, True, False] else set())

        monkeypatch.setattr(barred, "_psi_inverse_plan", faulty)
        assert audit_failure(capsys, "psi", 3) == (
            "psi at n=3: FAILED after 4 round trips\n"
            "  psi round trip broke at 1|2|3\n"
        )

    def test_psi_plan_fault(self, capsys, monkeypatch):
        # two picks of the plan of bars {1, 3} swapped, which keeps the
        # descent count of the image of 123: the round trip is checked on
        # that first w, after the five bar sets before it
        from signedpaths import barred

        plan = barred._psi_plan

        def swapped(bars, m):
            picks = list(plan(bars, m)(range(2 * m)))
            if bars == {1, 3}:
                picks[1], picks[2] = picks[2], picks[1]
            return barred._getter(picks)

        monkeypatch.setattr(barred, "_psi_plan", swapped)
        assert audit_failure(capsys, "psi", 3) == (
            "psi at n=3: FAILED after 5 round trips\n"
            "  psi round trip broke at 1|23|\n"
        )

    def test_chi_descent_shift_fault(self, capsys, monkeypatch):
        # x = 2 renames the letters 1 and 2 of B_3 to 1 and 3; swapping both
        # the images and their preimages keeps every round trip but not the
        # order, so the descent shift breaks where a walk of (v, x) through
        # the public maps first sees it, at a pair with x = 2
        from signedpaths import sgnperm

        renaming = sgnperm._renaming

        def swapped(x, n, up):
            table = list(renaming(x, n, up))
            if x == 2:
                i, j = (1, 2) if up else (1, 3)
                table[i], table[j] = table[j], table[i]
            return tuple(table)

        monkeypatch.setattr(sgnperm, "_renaming", swapped)
        domain = itertools.product(sgnperm.enumerate_group(3, "B"), range(1, 5))
        u = next(
            u
            for v, x in domain
            for u in [sgnperm.chi_inverse(x, v)]
            if sgnperm.descent_count(u, "B") != sgnperm.positive_descent_count(v) + 1
        )
        assert abs(u[0]) == 2
        assert audit_failure(capsys, "chi", 4) == (
            "chi at n=4: FAILED after 0 round trips\n"
            "  chi renaming tables broke at x = 2\n"
        )

    def test_chi_count_fault(self, capsys, monkeypatch):
        # x = 4 renames the letters 2 and 3 of B_3 both to 2, so chi^-1
        # would send two windows of B_3 to one image and its images would
        # number fewer than |B_4| / 2: the tables' check that they are onto
        # the letters of B_4 other than -4 and 4 sees it
        from signedpaths import sgnperm

        renaming = sgnperm._renaming

        def merged(x, n, up):
            table = renaming(x, n, up)
            return (*table[:3], 2, *table[4:]) if up and x == 4 else table

        monkeypatch.setattr(sgnperm, "_renaming", merged)
        assert audit_failure(capsys, "chi", 4) == (
            "chi at n=4: FAILED after 0 round trips\n"
            "  chi renaming tables broke at x = 4\n"
        )

    def test_bijtgsbps_round_trip_fault(self, capsys, monkeypatch):
        # graph 20 of n = 4 encoded as graph 19, through the degree classes
        # the audit encodes
        classes = [threshold._classes(deg, 4) for _, deg in threshold._walk(4)]
        encode = threshold._encode
        monkeypatch.setattr(
            threshold,
            "_encode",
            lambda c: encode(classes[19] if c == classes[20] else c),
        )
        assert audit_failure(capsys, "bijtgsbps", 4) == (
            "bijtgsbps at n=4: FAILED after 20 round trips\n"
            "  round trip broke at 4; 1-2, 1-3, 2-3, 2-4\n"
        )

    @pytest.mark.parametrize("flip, message", [
        ({1}, "theta round trip broke"),
        ({4, 5}, "theta image off the target set"),
    ])
    def test_theta_fault_in_the_middle(self, capsys, monkeypatch, flip, message):
        # a wrong image for the first w with Desc(w) = {1, 2} and bars {0, 3}
        from signedpaths import barred

        key = (frozenset({1, 2}), frozenset({0, 3}))
        xi = barred._xi
        monkeypatch.setattr(
            barred, "_xi",
            lambda d, bars: xi(d, bars) ^ (flip if (d, bars) == key else set()),
        )
        assert audit_failure(capsys, "theta", 5) == (
            "theta at n=5: FAILED after 3465 round trips\n"
            f"  {message} at LooselyBarredPermutation(w=(3, 2, 1, 4, 5), "
            "bars=frozenset({0, 3}))\n"
        )

    def test_flipped_theta_inverse_parity(self, capsys, monkeypatch):
        from signedpaths import barred

        inverse = barred._theta_inverse
        monkeypatch.setattr(barred, "_theta_inverse", lambda *a: inverse(*a) ^ {0})
        assert audit_failure(capsys, "theta", 4) == (
            "theta at n=4: FAILED after 0 round trips\n"
            "  theta round trip broke at LooselyBarredPermutation(w=(1, 2, 3, 4), "
            "bars=frozenset())\n"
        )

    def test_floor_in_the_class_formula(self, capsys, monkeypatch):
        from signedpaths import barred

        monkeypatch.setattr(
            barred, "_descB", lambda d, bars, ceil: len(d - bars) + len(bars) // 2
        )
        assert audit_failure(capsys, "theta", 4) == (
            "theta at n=4: FAILED after 6 round trips\n"
            "  theta image off the target set at LooselyBarredPermutation("
            "w=(1, 2, 3, 4), bars=frozenset({0, 1}))\n"
        )


class TestThresholdCommand:
    def test_counts_table(self, capsys):
        out = run_ok(capsys, ["threshold", "--n", "4"])
        assert "labeled threshold graphs on [4]: 46" in out
        assert "unlabeled classes: 8" in out
        assert "by distinct degrees (i=1..n): 2 20 24 0" in out
        assert "by degree-partition descents (k=0..): 8 32 6" in out

    def test_list_only(self, capsys):
        out = run_ok(capsys, ["threshold", "--n", "3", "--list"])
        lines = out.splitlines()
        assert len(lines) == 8
        assert lines[0] == "3;"
        assert all(line.startswith("3;") for line in lines)

    def test_list_with_counts(self, capsys):
        out = run_ok(capsys, ["threshold", "--n", "3", "--list", "--counts"])
        lines = out.splitlines()
        assert "labeled threshold graphs on [3]: 8" in lines[0]
        assert sum(1 for line in lines if line.startswith("3;")) == 8

    def test_json_list(self, capsys):
        out = run_ok(
            capsys,
            ["threshold", "--n", "3", "--list", "--counts", "--format", "json"],
        )
        data = json.loads(out)
        assert data["total"] == 8
        assert len(data["graphs"]) == 8
        assert {"n": 3, "edges": []} in data["graphs"]
        bare = json.loads(
            run_ok(capsys, ["threshold", "--n", "3", "--list", "--format", "json"])
        )
        assert "total" not in bare and len(bare["graphs"]) == 8

    def test_csv(self, capsys):
        out = run_ok(capsys, ["threshold", "--n", "2", "--format", "csv"])
        lines = out.splitlines()
        assert lines[0] == "series,index,value"
        assert "total,,2" in lines

    def test_json_counts_alone(self, capsys):
        out = run_ok(capsys, ["threshold", "--n", "3", "--format", "json"])
        assert out == (
            '{\n  "n": 3,\n  "total": 8,\n'
            '  "by_degree_classes": [\n    2,\n    6,\n    0\n  ],\n'
            '  "by_partition_descents": [\n    4,\n    4\n  ],\n'
            '  "unlabeled": 4\n}\n'
        )

    def test_csv_list(self, capsys):
        out = run_ok(capsys, ["threshold", "--n", "3", "--list", "--format", "csv"])
        assert out.splitlines() == [
            "series,index,value",
            "graph,,3;",
            "graph,,3; 1-2",
            "graph,,3; 1-3",
            "graph,,3; 1-2, 1-3",
            "graph,,3; 2-3",
            "graph,,3; 1-2, 2-3",
            "graph,,3; 1-3, 2-3",
            "graph,,3; 1-2, 1-3, 2-3",
        ]

    def test_rejects_nonpositive(self, capsys):
        # the counts' own floor; a listing alone has the empty graph at n = 0
        for flags in [], ["--list", "--counts"], ["--format", "json"]:
            err = run_err(capsys, ["threshold", "--n", "0", *flags])
            assert err == "error: threshold counts need n >= 1\n", flags

    @pytest.mark.parametrize("fmt, expected", [
        ("table", "0;\n"),
        ("csv", "series,index,value\ngraph,,0;\n"),
        ("json", '{\n  "n": 0,\n  "graphs": [\n    {\n      "n": 0,\n'
                 '      "edges": []\n    }\n  ]\n}\n'),
    ])
    def test_lists_the_empty_graph_at_rank_zero(self, capsys, fmt, expected):
        assert run_ok(capsys, ["threshold", "--n", "0", "--list", "--format", fmt]) == expected

    @staticmethod
    def wrong_type_a_row(monkeypatch):
        # a wrong top type A row under the partition-descent counts
        from signedpaths import eulerian

        rows = eulerian._rows

        def wrong(hi, kinds="AB"):
            for m, a, b in rows(hi, kinds):
                yield m, [a[0] + 1, *a[1:]] if m == hi else a, b

        monkeypatch.setattr(eulerian, "_rows", wrong)

    def test_disagreeing_counts_exit_one(self, capsys, monkeypatch):
        # one line naming n, no traceback
        self.wrong_type_a_row(monkeypatch)
        code = cli.run(["threshold", "--n", "5", "--list", "--counts"])
        out = capsys.readouterr()
        assert code == 1 and not out.err
        assert out.out == (
            "threshold at n=5: FAILED, by degree classes 332, by partition descents 348\n"
        )

    def test_bijtgsbps_reads_no_counting_formula(self, capsys, monkeypatch):
        # the audit compares its walk with listing_cost's class size, so the
        # counts' disagreement stays the threshold command's one FAILED line
        self.wrong_type_a_row(monkeypatch)
        code = cli.run(["bijection", "--check", "bijtgsbps", "--n", "4"])
        out = capsys.readouterr()
        assert code == 0 and not out.err
        assert out.out == "bijtgsbps at n=4: 46 round trips verified\n"

    def test_budget_guards_listing(self, capsys):
        # 3,320 edge slots at n = 5
        err = run_err(
            capsys,
            ["threshold", "--n", "5", "--list", "--max-elements", "1000"],
        )
        assert "listing the threshold graphs on [5] costs 3320, over the budget" in err


class TestRenderCommand:
    def test_ascii_anchor(self, capsys):
        out = run_ok(capsys, ["render", "--perm", "-2,3,1,6,-4,-7,5"])
        lines = out.splitlines()
        assert lines[-1] == "SEESSSESEEESSE"
        assert out.count("#") == 21

    def test_equals_form_also_accepted(self, capsys):
        spaced = run_ok(capsys, ["render", "--perm", "-2,3,1"])
        glued = run_ok(capsys, ["render", "--perm=-2,3,1"])
        assert spaced == glued

    def test_svg_output(self, capsys, tmp_path):
        target = tmp_path / "path.svg"
        out = run_ok(
            capsys, ["render", "--perm", "-2,3,1,6,-4,-7,5", "--svg", str(target)]
        )
        assert f"wrote {target}" in out
        body = target.read_text()
        assert body.lstrip().startswith("<svg")
        assert "polyline" in body

    def test_svg_bytes(self, capsys, tmp_path):
        target = tmp_path / "path.svg"
        run_ok(capsys, ["render", "--perm", "-2,3,1", "--svg", str(target)])
        assert target.read_bytes() == SVG_NEG2_3_1

    def test_bad_window(self, capsys):
        assert cli.run(["render", "--perm", "1,1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [["--perm", "--"], ["--perm=--"]], ids=" ".join)
    def test_double_dash_window_is_one_error_line(self, capsys, argv):
        # argparse may hand the "--" value over as a list: still a bad window
        err = run_err(capsys, ["render", *argv])
        assert err == "error: dangling sign in '--'\n"

    def test_window_of_non_integers_is_one_error_line(self, capsys):
        err = run_err(capsys, ["render", "--perm", "1,,2"])
        assert err == "error: a letter of '1,,2' is not an integer: ''\n"


class TestPosetCommand:
    def test_iso_holds(self, capsys):
        out = run_ok(
            capsys, ["poset", "--kind", "D", "--n", "3", "--check", "iso"]
        )
        assert "order isomorphism" in out and "NOT" not in out

    @pytest.mark.parametrize("kind", ["D", "TG"])
    def test_iso_refuses_dot(self, capsys, tmp_path, kind):
        # --dot draws one Hasse diagram, and the iso check builds two posets
        target = tmp_path / "x.dot"
        argv = ["poset", "--kind", kind, "--n", "3", "--check", "iso", "--dot", str(target)]
        assert cli.run(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --dot draws one poset, and --check iso builds two\n"
        assert not target.exists()

    def test_iso_rejects_other_kinds(self, capsys):
        err = run_err(capsys, ["poset", "--kind", "A", "--n", "3", "--check", "iso"])
        assert "--kind D or TG" in err

    def test_lattice(self, capsys):
        out = run_ok(
            capsys, ["poset", "--kind", "TG", "--n", "2", "--check", "lattice"]
        )
        assert "lattice (4 elements)" in out

    def test_covers_checks_descents(self, capsys):
        out = run_ok(
            capsys, ["poset", "--kind", "B", "--n", "2", "--check", "covers"]
        )
        lines = out.splitlines()
        assert lines[0] == "B poset at n=2: 8 cover pairs"
        assert len(lines) == 9

    def test_joinirr_matches_eulerian(self, capsys):
        out = run_ok(
            capsys, ["poset", "--kind", "B", "--n", "2", "--check", "joinirr"]
        )
        assert "6 join-irreducible elements" in out
        assert "Eulerian count with one descent: 6" in out
        tg = run_ok(
            capsys, ["poset", "--kind", "TG", "--n", "2", "--check", "joinirr"]
        )
        assert "2 join-irreducible elements" in tg

    def test_dot_file(self, capsys, tmp_path):
        target = tmp_path / "hasse.dot"
        out = run_ok(
            capsys,
            ["poset", "--kind", "A", "--n", "3", "--check", "lattice",
             "--dot", str(target)],
        )
        assert f"wrote {target}" in out
        assert target.read_text().startswith("digraph hasse {")

    def test_type_d_needs_two(self, capsys):
        # weak D_1 is built like any weak order; only covers, which checks
        # type D descents, needs n >= 2, and D_0 has no group order: both
        # refusals are the library's
        out = run_ok(capsys, ["poset", "--kind", "D", "--n", "1", "--check", "lattice"])
        assert out == "D poset at n=1: lattice (1 elements)\n"
        for kind in ("D", "TG"):
            out = run_ok(capsys, ["poset", "--kind", kind, "--n", "1", "--check", "joinirr"])
            assert out == f"{kind} poset at n=1: 0 join-irreducible elements\n"
        assert cli.run(["poset", "--kind", "D", "--n", "1", "--check", "covers"]) == 2
        assert capsys.readouterr() == (
            "", "error: type D descents need n >= 2 (sentinel is -u_2)\n"
        )
        for check in ("lattice", "covers", "joinirr"):
            err = run_err(capsys, ["poset", "--kind", "D", "--n", "0", "--check", check])
            assert err == "error: group order undefined for kind D, n = 0\n"

    @pytest.mark.parametrize("kind, n", [("D", 1), ("TG", 1), ("TG", 0)])
    def test_iso_builds_type_d_from_two(self, capsys, kind, n):
        # the iso check builds weak D_n whichever kind is named: from n = 1
        # on, since D_0 has no group order
        argv = ["poset", "--kind", kind, "--n", str(n), "--check", "iso"]
        if n:
            out = run_ok(capsys, argv)
            assert out == "tg_pair on weak D_1 -> TG_1: order isomorphism\n"
        else:
            err = run_err(capsys, argv)
            assert err == "error: group order undefined for kind D, n = 0\n"

    def test_budget(self, capsys):
        err = run_err(
            capsys,
            ["poset", "--kind", "B", "--n", "8", "--check", "lattice",
             "--max-elements", "100"],
        )
        assert "budget" in err


class TestUnwritableFiles:
    # a file that cannot be written is an error of the request: exit 2 and
    # one line on stderr, not a traceback
    def test_render_svg(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.svg"
        assert cli.run(["render", "--perm", "1,-2", "--svg", str(target)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: [Errno 2] No such file or directory: '{target}'\n"

    def test_poset_dot(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.dot"
        argv = ["poset", "--kind", "A", "--n", "2", "--check", "covers"]
        assert cli.run([*argv, "--dot", str(target)]) == 2
        out = capsys.readouterr()
        assert out.out == "A poset at n=2: 1 cover pairs\n  1,2 < 2,1\n"
        assert out.err == f"error: [Errno 2] No such file or directory: '{target}'\n"


class TestPosetFailures:
    # faults injected into the build or the formula side; each report is
    # printed and the command exits 1
    def drop_identity(self, monkeypatch):
        enumerate_all = posets.enumerate_group
        monkeypatch.setattr(
            posets,
            "enumerate_group",
            lambda n, kind: (u for u in enumerate_all(n, kind) if u != (1, 2, 3)),
        )

    def test_not_a_lattice(self, capsys, monkeypatch):
        self.drop_identity(monkeypatch)
        assert cli.run(["poset", "--kind", "A", "--n", "3", "--check", "lattice"]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == (
            "A poset at n=3: NOT a lattice; meet missing for 1,3,2 and 2,1,3\n", ""
        )

    def test_cover_descent_mismatch(self, capsys, monkeypatch):
        # without the identity, 132 and 213 have no lower cover but one descent
        self.drop_identity(monkeypatch)
        assert cli.run(["poset", "--kind", "A", "--n", "3", "--check", "covers"]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("cover/descent mismatch at 1,3,2\n", "")

    def test_join_irreducible_mismatch(self, capsys, monkeypatch):
        eulerian_number = cli.eulerian_number
        monkeypatch.setattr(
            cli, "eulerian_number", lambda n, k, kind: eulerian_number(n, k, kind) + 1
        )
        assert cli.run(["poset", "--kind", "A", "--n", "3", "--check", "joinirr"]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == (
            "A poset at n=3: 4 join-irreducible elements\n"
            "Eulerian count with one descent: 5\n"
            "MISMATCH between join-irreducibles and the Eulerian count\n",
            "",
        )


# Every command that does charged work, at a rank its audit or build accepts.
CHARGED = [
    ["eulerian", "--kind", "A", "--n", "3", "--method", "bruteforce"],
    *(
        ["verify", "--identity", name, "--max-n", "3"]
        for name in ("alternating", "eulBeven", "eulBodd", "stembridge", "B_n1", "D_n1")
    ),
    *(
        ["poset", "--kind", kind, "--n", "3", "--check", "lattice"]
        for kind in ("A", "B", "D", "TG")
    ),
    ["poset", "--kind", "D", "--n", "3", "--check", "iso"],
    ["threshold", "--n", "3", "--list"],
    *(
        ["bijection", "--check", check, "--n", "3"]
        for check in ("psi", "theta", "chi", "tgdo", "bijtgsbps")
    ),
    ["render", "--perm", "-2,3,1"],
]


class TestBudgetGate:
    @pytest.mark.parametrize("argv", CHARGED, ids=lambda argv: "-".join(argv[:3]))
    def test_every_charged_command_meets_the_gate(self, capsys, argv):
        err = run_err(capsys, argv + ["--max-elements", "0"])
        assert "budget" in err

    @pytest.mark.parametrize("argv", [
        ["eulerian", "--kind", "B", "--n", "3"],
        ["verify", "--identity", "main", "--max-n", "3"],
        ["threshold", "--n", "3"],
    ], ids=" ".join)
    def test_every_formula_command_meets_the_gate(self, capsys, argv):
        # charged the machine words of their rows
        assert "budget" in run_err(capsys, argv + ["--max-elements", "0"])

    def test_stembridge_to_fourteen_holds(self, capsys):
        # D_2..D_14 take 307,632 DP steps in all; D_10 alone has 1.9e9 elements
        out = run_ok(capsys, ["verify", "--identity", "stembridge", "--max-n", "14"])
        lines = out.splitlines()
        assert len(lines) == 13 and all(": holds (" in line for line in lines)

    def test_verify_is_charged_before_the_first_rank(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a rank ran")

        monkeypatch.setattr(cli, "verify_range", forbidden)
        err = run_err(
            capsys,
            ["verify", "--identity", "stembridge", "--max-n", "14",
             "--max-elements", "307631"],
        )
        assert "budget" in err

    def test_formula_side_is_charged_on_its_own(self, capsys, monkeypatch):
        # the kernel sum alone meets the limit: the formula side, 7,200
        # words, is not added to it
        argv = ["verify", "--identity", "stembridge", "--max-n", "14",
                "--max-elements", "307632"]
        assert len(run_ok(capsys, argv).splitlines()) == 13
        # main reads no histogram; its formula side, (40 + 1)^2 (40 + 2)
        # entries of 6 words, is charged before the first rank
        cost = 41**2 * 42 * 6
        assert "holds" in run_ok(capsys, ["verify", "--identity", "main", "--max-n",
                                          "40", "--max-elements", str(cost)])

        def forbidden(*args):
            raise AssertionError("a rank ran")

        monkeypatch.setattr(cli, "verify_range", forbidden)
        err = run_err(capsys, ["verify", "--identity", "main", "--max-n", "40",
                               "--max-elements", str(cost - 1)])
        assert f"verifying main up to n=40 costs {cost}, over the budget" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--identity", "main", "--max-n", "40"],
        ["verify", "--identity", "main", "--max-n", "120"],
        ["eulerian", "--kind", "B", "--n", "300"],
        ["threshold", "--n", "300"],
    ])
    def test_formula_requests_admitted_at_the_default(self, capsys, argv):
        assert run_ok(capsys, argv)

    @pytest.mark.parametrize("argv", [
        *(["eulerian", "--kind", kind, "--n", "1000000"] for kind in "ABD"),
        ["threshold", "--n", "1000000"],
        ["verify", "--identity", "main", "--max-n", "1000000"],
        # main's n + 1 passes at each rank n put --max-n 300 at 1.4e9 words
        ["verify", "--identity", "main", "--max-n", "300"],
    ])
    def test_formula_requests_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        err = run_err(capsys, argv)
        assert time.perf_counter() - start < 0.5
        assert "budget" in err

    def test_b7_poset_is_refused_before_the_build(self, capsys, monkeypatch):
        # 645,120 elements would need 4.2e11 bits of down-set rows
        def forbidden(*args):
            raise AssertionError("the poset was built")

        monkeypatch.setattr(posets, "weak_poset", forbidden)
        err = run_err(capsys, ["poset", "--kind", "B", "--n", "7", "--check", "lattice"])
        assert "budget" in err

    @pytest.mark.parametrize("n", ["9", "10"])
    @pytest.mark.parametrize("argv", [
        ["threshold", "--list"], ["bijection", "--check", "bijtgsbps"],
        ["bijection", "--check", "tgdo"],
    ])
    def test_large_threshold_listings_are_refused(self, capsys, monkeypatch, argv, n):
        # 156,581,712 edge slots at n = 9 are over the default budget of 10^8
        def forbidden(n):
            raise AssertionError("the graphs were generated")

        monkeypatch.setattr(threshold, "enumerate_threshold_graphs", forbidden)
        monkeypatch.setattr(threshold, "_walk", forbidden)
        assert "budget" in run_err(capsys, argv + ["--n", n])

    def test_tgdo_nine_is_refused_at_once(self, capsys):
        # tgdo walks the threshold graphs and is charged their edge slots,
        # as bijtgsbps is: 4,349,504 graphs of 36 at n = 9
        start = time.perf_counter()
        err = run_err(capsys, ["bijection", "--check", "tgdo", "--n", "9"])
        assert time.perf_counter() - start < 1.0
        assert err.startswith("error: the tgdo audit costs 156581712, over the budget")

    def test_long_render_is_refused(self, capsys):
        window = ",".join(str(v) for v in range(1, 20_001))
        assert "budget" in run_err(capsys, ["render", "--perm", window])

    @pytest.mark.parametrize("argv", [
        ["threshold", "--n", "10000", "--list"],
        ["poset", "--kind", "B", "--n", "12", "--check", "lattice"],
        ["verify", "--identity", "alternating", "--max-n", str(10**9)],
        # the cap refuses each rank before n! is multiplied out
        *([*argv, "--n", str(10**8)] for argv in (
            *(["bijection", "--check", check]
              for check in ("psi", "theta", "chi", "tgdo", "bijtgsbps")),
            ["poset", "--kind", "A", "--check", "lattice"],
            ["poset", "--kind", "TG", "--check", "iso"],
            ["threshold", "--list"],
        )),
    ])
    def test_refusal_is_cheap(self, capsys, argv):
        start = time.perf_counter()
        err = run_err(capsys, argv)
        assert time.perf_counter() - start < 1.0
        # a walk above the enumeration cap is refused before it is priced
        n = int(argv[argv.index("--n") + 1]) if "--n" in argv else 0
        assert ("exceeds the enumeration cap 12" if n > 12 else "budget") in err

    @pytest.mark.parametrize("argv", [
        *(["bijection", "--check", check] for check in cli._AUDITS),
        *(["poset", "--kind", kind, "--check", "lattice"] for kind in "ABD"),
        ["poset", "--kind", "TG", "--check", "iso"],
        ["threshold", "--list"],
    ], ids=" ".join)
    def test_walks_above_the_cap_are_refused_at_any_budget(
        self, capsys, monkeypatch, argv
    ):
        # each fits a budget of 10^40, and would walk for hours to years
        def forbidden(*args):
            raise AssertionError("the walk started")

        for check, (_, cost) in list(cli._AUDITS.items()):
            monkeypatch.setitem(cli._AUDITS, check, (forbidden, cost))
        monkeypatch.setattr(posets, "weak_poset", forbidden)
        monkeypatch.setattr(posets, "tg_poset", forbidden)
        monkeypatch.setattr(threshold, "enumerate_threshold_graphs", forbidden)
        monkeypatch.setattr(threshold, "_walk", forbidden)
        # the cap is asked first, so the default budget meets the same words
        for budget in ([], ["--max-elements", str(10**40)]):
            err = run_err(capsys, [*argv, "--n", "13", *budget])
            assert err == "error: n = 13 exceeds the enumeration cap 12\n"

    @pytest.mark.parametrize("kind", "AB")
    def test_negative_poset_rank_meets_the_cap(self, capsys, kind):
        err = run_err(capsys, ["poset", "--kind", kind, "--n", "-1", "--check", "lattice"])
        assert err == "error: n must be nonnegative\n"

    def test_exact_cost_is_named(self, capsys):
        # 2^(n-1) descent classes times 2^n bar sets, exact at every rank up
        # to the cap
        err = run_err(capsys, ["bijection", "--check", "psi", "--n", "5",
                               "--max-elements", "10"])
        assert "the psi audit costs 512, over the budget of 10" in err
        err = run_err(capsys, ["bijection", "--check", "psi", "--n", "12",
                               "--max-elements", "1000"])
        assert "the psi audit costs 8388608, over the budget of 1000" in err


class TestParsing:
    def test_missing_subcommand(self, capsys):
        assert cli.run([]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert cli.run(["eulerian"]) == 2
        capsys.readouterr()

    def test_unknown_choice(self, capsys):
        assert cli.run(["eulerian", "--kind", "Z", "--n", "3"]) == 2
        capsys.readouterr()


class TestParserReuse:
    def test_one_parser_serves_a_request_stream(self, capsys, tmp_path):
        svg = tmp_path / "path.svg"
        stream = [
            ["render", "--perm", "-2,3,1,6,-4,-7,5", "--svg", str(svg)],
            ["render", "--perm", "3,-1,2"],  # ASCII, and no file
            ["render"],  # usage error
            ["render", "--perm", "1,1"],  # bad window
            ["render", "--perm", "-2,3,1"],
        ]
        cli._build_parser.cache_clear()
        got, files = [], []
        for argv in stream:
            got.append((cli.run(argv), capsys.readouterr()))
            files.append(sorted(p.name for p in tmp_path.iterdir()))
        assert cli._build_parser.cache_info().misses == 1
        assert [code for code, _ in got] == [0, 0, 2, 2, 0]
        assert files == [["path.svg"]] * 5
        reused_svg = svg.read_text()

        for argv, result in zip(stream, got):
            cli._build_parser.cache_clear()  # a fresh parser per call
            assert (cli.run(argv), capsys.readouterr()) == result
        assert svg.read_text() == reused_svg


class TestThinCli:
    # the CLI parses, gates, dispatches and formats; it reaches into no
    # module's private names and runs no enumeration of its own
    TREE = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    PACKAGE = {info.name for info in pkgutil.iter_modules(signedpaths.__path__)}

    def test_imports_no_private_name(self):
        imported = [
            alias.name
            for node in ast.walk(self.TREE)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        assert imported and not [name for name in imported if name.startswith("_")]

    def test_reads_no_private_module_attribute(self):
        private = [
            f"{node.value.id}.{node.attr}"
            for node in ast.walk(self.TREE)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in self.PACKAGE
            and node.attr.startswith("_")
        ]
        assert private == []

    def test_runs_no_audit_loop(self):
        names = {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(self.TREE)
            if isinstance(node, (ast.Attribute, ast.Name))
        }
        assert not names & {"enumerate_group", "permutations", "itertools"}

    def test_json_listing_encodes_each_graph_as_graph_dict(self, capsys):
        out = run_ok(capsys, ["threshold", "--n", "4", "--list", "--format", "json"])
        graphs = [threshold.graph_dict(g) for g in threshold.enumerate_threshold_graphs(4)]
        assert out == json.dumps({"n": 4, "graphs": graphs}, indent=2) + "\n"


class TestStreamedOutput:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("counts", [False, True])
    def test_json_listing_is_the_whole_document(self, capsys, n, counts):
        # the listing is streamed graph by graph; the bytes are those of
        # json.dumps on the whole payload
        argv = ["threshold", "--n", str(n), "--list", "--format", "json"]
        out = run_ok(capsys, argv + ["--counts"] * counts)
        payload: dict = {"n": n}
        if counts:
            data = threshold_counts(n)
            payload["total"] = data.total
            payload["by_degree_classes"] = list(data.by_degree_classes)
            payload["by_partition_descents"] = list(data.by_partition_descents)
            payload["unlabeled"] = data.unlabeled
        payload["graphs"] = [
            threshold.graph_dict(g) for g in threshold.enumerate_threshold_graphs(n)
        ]
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_tg_labels_format_each_w_and_graph_once(self, capsys, monkeypatch):
        words, graphs = [], []
        format_signed, edges_text = sgnperm.format_signed, cli._edges_text
        monkeypatch.setattr(sgnperm, "format_signed", lambda w: words.append(w) or format_signed(w))
        monkeypatch.setattr(cli, "_edges_text", lambda e: graphs.append(e) or edges_text(e))
        out = run_ok(capsys, ["poset", "--kind", "TG", "--n", "4", "--check", "covers"])
        pairs = list(threshold.enumerate_tg(4))
        assert len(words) == len(set(words)) == len({p.w for p in pairs}) == 24
        assert len(graphs) == len(set(graphs)) == len({p.edges for p in pairs}) == 46
        assert out.splitlines()[0] == "TG poset at n=4: 384 cover pairs"
        assert len(out.splitlines()) == 385


class TestPosetBytes:
    # sha256 digests of the TG_4 cover listing and of three Hasse diagrams,
    # recorded when each label was still made per cover pair
    def test_tg_cover_listing(self, capsys):
        out = run_ok(capsys, ["poset", "--kind", "TG", "--n", "4", "--check", "covers"])
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9dfe8dd6c23958324009f59fbd79f18d4a587a6c82cec0eb34837bb9147fd682"
        )

    @pytest.mark.parametrize("kind, digest", [
        ("TG", "eaa4c86514dfa23576e80cddf2633a19b7c582ac4ee2905341018c1b7e0cb258"),
        ("D", "8ddd5d7adf1455c0edb9b87127ed8921086edefcb6790c6fff24a0f9233ef9e4"),
        ("B", "2e3af1e084aaa8f132a6a70715e060a350786db4a7b79dc1c092974854cfc6f5"),
    ])
    def test_dot_file(self, capsys, tmp_path, kind, digest):
        target = tmp_path / "hasse.dot"
        argv = ["poset", "--kind", kind, "--n", "3", "--check", "covers", "--dot", str(target)]
        assert run_ok(capsys, argv).endswith(f"wrote {target}\n")
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


class TestTgdoAuditFailure:
    def test_tgdo_fault_in_the_middle(self, capsys, monkeypatch):
        # the plan of the degrees (2, 1, 1, 0, 0) gives the mate, which is
        # not even-signed: the first graph with those degrees along its
        # canonical ordering, 5; 1-2, 1-3, fails there, after the 144 pairs
        # of enumerate_tg before it
        from signedpaths.sgnperm import mate

        make = threshold._tg_plan

        def faulty(degrees):
            plan = make(degrees)
            if degrees != (2, 1, 1, 0, 0):
                return plan
            return lambda table: mate(plan(table))

        monkeypatch.setattr(threshold, "_tg_plan", faulty)
        target = threshold.parse_graph("5; 1-2, 1-3")
        assert [p.edges for p in threshold.enumerate_tg(5)].index(target.edges) == 144
        assert audit_failure(capsys, "tgdo", 5) == (
            "tgdo at n=5: FAILED after 144 round trips\n"
            "  tgdo round trip broke at (1, 2, 3, 4, 5) on 5; 1-2, 1-3\n"
        )


class TestFormatFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bijection", "--check", "psi", "--n", "2"],
            ["render", "--perm", "-2,3,1"],
            ["poset", "--kind", "A", "--n", "2", "--check", "lattice"],
        ],
    )
    def test_commands_with_one_format_refuse_the_flag(self, capsys, argv):
        # these print a single fixed format, so --format would be ignored
        err = run_err(capsys, [*argv, "--format", "json"])
        assert "unrecognized arguments: --format json" in err
        assert cli.run(argv) == 0
        capsys.readouterr()
