"""Unit tests for Eulerian numbers, identity checks, and threshold counts."""

import functools
import itertools
import json
import math
import time

import pytest

import signedpaths.eulerian as eulerian_module
from signedpaths import cli, kernels
from signedpaths.eulerian import (
    IDENTITY_MIN_N,
    IDENTITY_NAMES,
    MAX_BRUTE_ELEMENTS,
    IdentityReport,
    IdentityRow,
    check_budget,
    eulerian,
    eulerian_polynomial,
    report_dict,
    threshold_counts,
    identity_cost,
    row_cost,
    verify_identity,
    verify_range,
)
from signedpaths.sgnperm import descent_count
from signedpaths.threshold import (
    degree,
    enumerate_threshold_graphs,
    sbp_from_threshold,
)

# Rows frozen from brute-force descent histograms over the three groups.
TRIANGLE_A = {
    0: (1,),
    1: (1,),
    2: (1, 1),
    3: (1, 4, 1),
    4: (1, 11, 11, 1),
    5: (1, 26, 66, 26, 1),
    6: (1, 57, 302, 302, 57, 1),
}
TRIANGLE_B = {
    0: (1,),
    1: (1, 1),
    2: (1, 6, 1),
    3: (1, 23, 23, 1),
    4: (1, 76, 230, 76, 1),
    5: (1, 237, 1682, 1682, 237, 1),
}
TRIANGLE_D = {
    2: (1, 2, 1),
    3: (1, 11, 11, 1),
    4: (1, 44, 102, 44, 1),
    5: (1, 157, 802, 802, 157, 1),
}


def brute_stirling2(n, k):
    # count surjections [n] -> [k] by listing assignment words, then divide
    # out the block labelling
    if k == 0:
        return 1 if n == 0 else 0
    surjections = sum(
        1
        for word in itertools.product(range(k), repeat=n)
        if len(set(word)) == k
    )
    return surjections // math.factorial(k)


class TestStirling:
    # threshold_counts reads the Stirling rows S(n, .) and S(n - 1, .): the
    # graphs with i distinct degrees number 2 (i! S(n, i) - n (i-1)! S(n-1, i-1))
    def test_against_assignment_oracle(self):
        for n in range(2, 7):
            assert threshold_counts(n).by_degree_classes == tuple(
                2 * (math.factorial(i) * brute_stirling2(n, i)
                     - n * math.factorial(i - 1) * brute_stirling2(n - 1, i - 1))
                for i in range(1, n + 1)
            )

    def test_deep_rows_against_closed_form(self):
        # S(n, 2) = 2^(n-1) - 1 and S(n, 3) = (3^n - 3 2^n + 3) / 6; the rows
        # are built iteratively, so a deep rank needs no recursion
        n = 300
        two, three = threshold_counts(n).by_degree_classes[1:3]
        assert two == 2 * (2 * (2 ** (n - 1) - 1) - n)
        assert three == 2 * ((3**n - 3 * 2**n + 3) - 2 * n * (2 ** (n - 2) - 1))

    def test_rejects_negative(self):
        for n in (-1, 0):
            with pytest.raises(ValueError, match="n >= 1"):
                threshold_counts(n)


class TestEulerianNumbers:
    @pytest.mark.parametrize("kind, frozen", [
        ("A", TRIANGLE_A), ("B", TRIANGLE_B), ("D", TRIANGLE_D),
    ])
    def test_frozen_rows(self, kind, frozen):
        for n, row in frozen.items():
            assert eulerian_polynomial(n, kind) == row

    def test_triangle_rows(self):
        # the A and B triangles start at n = 0, the D triangle at n = 2
        assert eulerian_polynomial(0, "A") == eulerian_polynomial(0, "B") == (1,)
        for n in (0, 1):
            with pytest.raises(ValueError, match="n >= 2"):
                eulerian_polynomial(n, "D")
        assert eulerian_polynomial(2, "D") == (1, 2, 1)

    @pytest.mark.parametrize("kind, weight", [("A", 1), ("B", 2), ("D", 1)])
    def test_row_sums_and_symmetry(self, kind, weight):
        for n in range(2, 7):
            row = eulerian_polynomial(n, kind)
            scale = weight**n if kind != "D" else 2 ** (n - 1)
            assert sum(row) == scale * math.factorial(n)
            assert row == row[::-1]

    @pytest.mark.parametrize(
        "kind, ns", [("A", range(7)), ("B", range(6)), ("D", range(2, 6))]
    )
    def test_bruteforce_matches_formula(self, kind, ns):
        for n in ns:
            assert eulerian_polynomial(n, kind, "bruteforce") == (
                eulerian_polynomial(n, kind, "formula")
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            eulerian(3, 3, "A")  # type A tops out at n - 1
        with pytest.raises(ValueError):
            eulerian(3, -1, "A")
        with pytest.raises(ValueError):
            eulerian(3, 4, "B")
        with pytest.raises(ValueError):
            eulerian(1, 0, "D")
        with pytest.raises(ValueError):
            eulerian(-1, 0, "A")
        with pytest.raises(ValueError):
            eulerian(3, 1, "E")
        with pytest.raises(ValueError):
            eulerian(3, 1, "A", method="guess")
        with pytest.raises(ValueError):
            eulerian_polynomial(1, "D")

    def test_budget_is_enforced(self):
        with pytest.raises(ValueError):
            eulerian(3, 1, "B", method="bruteforce", max_elements=10)
        # the A_200 DP takes 536,026,800 steps, over the default budget
        with pytest.raises(ValueError, match="budget"):
            eulerian(200, 1, "A", method="bruteforce")

    def test_unaffordable_rank_is_refused_before_the_kernel(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(kernels, "descent_histogram", forbidden)
        with pytest.raises(ValueError, match="budget"):
            eulerian(200, 1, "A", method="bruteforce")

    def test_gate_counts_dp_steps(self):
        # B_9 has 185,794,560 elements but its DP takes 9,060 steps
        assert eulerian(9, 1, "B", method="bruteforce") == eulerian(9, 1, "B")
        with pytest.raises(ValueError, match="budget"):
            eulerian(9, 1, "B", method="bruteforce", max_elements=9_059)
        assert eulerian(9, 1, "B", method="bruteforce", max_elements=9_060)

    def test_check_budget(self):
        check_budget(MAX_BRUTE_ELEMENTS, MAX_BRUTE_ELEMENTS, "at the limit")
        with pytest.raises(ValueError, match="budget of 7"):
            check_budget(8, 7, "one over")
        with pytest.raises(ValueError, match=r"more than 2\^99999"):
            check_budget(2**99999, 7, "a huge cost")

    def test_edge_ranks(self):
        assert eulerian(0, 0, "A") == 1
        assert eulerian(0, 0, "B") == 1
        assert eulerian(1, 0, "A") == 1
        assert eulerian(2, 2, "D") == 1


@functools.cache
def oracle_a(n, k):
    # the alternating sum, one coefficient at a time, zero out of range
    if k < 0 or (n == 0 and k > 0) or (n > 0 and k > n - 1):
        return 0
    return sum(
        (-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1)
    )


def oracle_binomial_sum(n, m):
    # sum_i A(n, i) C(n+1, m-i), the even (type B) or odd binomial sum
    return sum(oracle_a(n, i) * math.comb(n + 1, m - i) for i in range(m + 1))


def oracle_b(n, k):
    return oracle_binomial_sum(n, 2 * k) if 0 <= k <= n else 0


def oracle_d(n, k):
    return oracle_b(n, k) - n * 2 ** (n - 1) * oracle_a(n - 1, k - 1)


ORACLES = {"A": oracle_a, "B": oracle_b, "D": oracle_d}


def oracle_formula_rows(name, n):
    # (index, formula-side values) of each row the check of ``name`` makes,
    # with hist[k] = k standing in for the kernel column
    if name == "alternating":
        return [(k, k, oracle_a(n, k)) for k in range(max(n, 1))]
    if name == "eulBeven":
        return [(k, k, oracle_b(n, k)) for k in range(n + 1)]
    if name == "eulBodd":
        return [
            (k, 2**n * oracle_a(n, k), oracle_binomial_sum(n, 2 * k + 1))
            for k in range(max(n, 1))
        ]
    if name == "main":
        rows = []
        for i in range(n + 1 + max(n, 1)):
            lhs = sum(math.comb(n + 1, j) * oracle_a(n, i - j) for j in range(i + 1))
            rhs = oracle_b(n, i // 2) if i % 2 == 0 else 2**n * oracle_a(n, i // 2)
            rows.append((i, lhs, rhs))
        return rows
    if name == "stembridge":
        return [(k, k, oracle_d(n, k)) for k in range(n + 1)]
    return [(1, ORACLES[name[0]](n, 1), 3**n - n - 1 - (name[0] == "D") * n * 2 ** (n - 1))]


class TestRowsAgainstPerCoefficientOracle:
    """The row builders evaluate the per-coefficient formulas once each."""

    @pytest.mark.parametrize("kind", ["A", "B", "D"])
    def test_every_coefficient_to_rank_60(self, kind):
        lo = 2 if kind == "D" else 0
        for n in range(lo, 61):
            hi = n - 1 if kind == "A" and n > 0 else n
            oracle = tuple(ORACLES[kind](n, k) for k in range(hi + 1))
            assert eulerian_polynomial(n, kind) == oracle, (kind, n)
            assert tuple(eulerian(n, k, kind) for k in range(hi + 1)) == oracle

    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_checks_pad_out_of_range_indices_with_zeros(self, name):
        # ranks 0 and 1 and the top descent counts read A(n, i) and
        # C(n+1, j) past the end of their rows
        kind, check = eulerian_module._CHECKS[name]
        lo = 2 if name in ("stembridge", "B_n1", "D_n1") else 0
        prev = []
        for n, a, b in eulerian_module._rows(24):
            if n >= lo:
                hist = None if kind is None else tuple(range(n + 2))
                report = check(kind, n, a, b, prev, hist)
                rows = [(row.index, row.lhs, row.rhs) for row in report]
                assert rows == oracle_formula_rows(name, n), (name, n)
            prev = a

    def test_threshold_counts_read_the_type_a_row(self):
        for n in range(1, 40):
            assert threshold_counts(n).by_partition_descents == tuple(
                (k + 1) * oracle_a(n - 1, k) * 2 ** (n - 1 - k)
                for k in range(max(n - 2, 0) + 1)
            )


class TestFormulaCost:
    """A single coefficient reads only its terms; a row costs one pass."""

    def test_single_coefficients_stay_cheap(self):
        for kind in ("A", "B"):
            start = time.perf_counter()
            eulerian(2000, 1, kind)
            assert time.perf_counter() - start < 1.0, kind

    def test_main_identity_to_rank_120(self):
        start = time.perf_counter()
        for n in range(121):
            assert verify_identity("main", n).holds
        assert time.perf_counter() - start < 5.0


class TestFormulaBudget:
    """Every formula path is charged ``row_cost`` before any work."""

    def test_row_cost_is_closed_form(self):
        # 301^2 entries of at most (300 * 11 + 1) // 64 + 1 = 52 words
        assert row_cost(300) == 301**2 * 52
        assert row_cost(300, 7) == 7 * 52
        assert row_cost(1) == 4 and row_cost(0, 3) == 3
        start = time.perf_counter()
        assert row_cost(10**100) > 10**300
        assert time.perf_counter() - start < 0.1

    def test_each_charge_is_exact(self):
        for n in (5, 40):
            for kind in ("A", "B", "D"):
                eulerian_polynomial(n, kind, max_elements=row_cost(n))
                with pytest.raises(ValueError, match="budget"):
                    eulerian_polynomial(n, kind, max_elements=row_cost(n) - 1)
                # a single value is charged its 2k + 2 terms, not the row
                eulerian(n, 3, kind, max_elements=row_cost(n, 8))
                with pytest.raises(ValueError, match="budget"):
                    eulerian(n, 3, kind, max_elements=row_cost(n, 8) - 1)
            threshold_counts(n, max_elements=2 * row_cost(n))
            with pytest.raises(ValueError, match="budget"):
                threshold_counts(n, max_elements=2 * row_cost(n) - 1)

    def test_rank_300_is_admitted(self):
        assert sum(eulerian_polynomial(300, "B")) == 2**300 * math.factorial(300)
        assert sum(eulerian_polynomial(300, "D")) == 2**299 * math.factorial(300)
        assert threshold_counts(300).unlabeled == 2**299

    def test_huge_ranks_are_refused_before_any_work(self, monkeypatch):
        def forbidden(hi):
            raise AssertionError("the rows were built")

        monkeypatch.setattr(eulerian_module, "_rows", forbidden)
        for request in (
            lambda: eulerian_polynomial(10**6, "B"),
            lambda: threshold_counts(10**6),
            lambda: eulerian(10**6, 5 * 10**5, "D"),
        ):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="budget"):
                request()
            assert time.perf_counter() - start < 0.5


class TestRecurrenceRows:
    """The checks read the carried rows, so a wrong entry in them fails."""

    @staticmethod
    def corrupt(monkeypatch, rank, side, k):
        original = eulerian_module._rows

        def corrupted(hi):
            for n, a, b in original(hi):
                if n == rank:
                    row = [a, b][side]
                    row = [*row[:k], row[k] + 1, *row[k + 1:]]
                    a, b = (row, b) if side == 0 else (a, row)
                yield n, a, b

        monkeypatch.setattr(eulerian_module, "_rows", corrupted)

    @pytest.mark.parametrize("k", range(6))
    def test_corrupted_b_entry_fails_main(self, k, monkeypatch):
        assert verify_identity("main", 5).holds
        self.corrupt(monkeypatch, 5, 1, k)
        report = verify_identity("main", 5)
        assert not report.holds
        # only the even-half row 2k reads B(5, k)
        assert [row.index for row in report.rows if not row.holds] == [2 * k]

    @pytest.mark.parametrize("k", range(5))
    def test_corrupted_a_entry_fails_main(self, k, monkeypatch):
        self.corrupt(monkeypatch, 5, 0, k)
        assert not verify_identity("main", 5).holds


def expected_verify_output(name, reports, fmt):
    # what the CLI prints for these reports, each of which holds (in JSON,
    # any reports: the document by the standard library's encoder)
    if fmt == "json":
        return json.dumps({
            "identity": name,
            "holds": all(r.holds for r in reports),
            "reports": [report_dict(r) for r in reports],
        }, indent=2) + "\n"
    if fmt == "csv":
        lines = ["identity,n,index,lhs,rhs,brute,holds"] + [
            f"{name},{r.n},{row.index},{row.lhs},{row.rhs},"
            f"{'' if row.brute is None else row.brute},true"
            for r in reports for row in r.rows
        ]
    else:
        lines = [f"{name} at n={r.n}: holds ({len(r.rows)} rows)" for r in reports]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("name, top", [(name, 12) for name in IDENTITY_NAMES])
def test_verify_json_encodes_each_report_once(name, top, capsys):
    # the CLI's one walk over the ranks prints what the one-rank checks give,
    # from each identity's least rank on; its JSON document has the bytes
    # json.dumps gives for the report_dict object of each report
    for max_n in range(max(1, IDENTITY_MIN_N[name]), top + 1):
        reports = [
            verify_identity(name, n)
            for n in range(max(1, IDENTITY_MIN_N[name]), max_n + 1)
        ]
        assert all(r.holds for r in reports)
        for fmt in ("table", "json", "csv"):
            assert cli.run(["verify", "--identity", name, "--max-n", str(max_n),
                            "--format", fmt]) == 0
            out = capsys.readouterr().out
            assert out == expected_verify_output(name, reports, fmt), (max_n, fmt)


class TestVerifyJsonWriter:
    """The CLI writes the verify document itself, with the encoder's bytes."""

    @staticmethod
    def printed(capsys, name, max_n):
        argv = ["verify", "--identity", name, "--max-n", str(max_n), "--format", "json"]
        return cli.run(argv), capsys.readouterr().out

    def test_main_at_40(self, capsys):
        reports = list(verify_range("main", 1, 40))
        assert sum(len(r.rows) for r in reports) == 1680
        expected = expected_verify_output("main", reports, "json")
        assert self.printed(capsys, "main", 40) == (0, expected)

    @pytest.mark.parametrize(
        "name, side, brute", [("main", 1, False), ("eulBodd", 0, True)]
    )
    def test_failing_report(self, name, side, brute, monkeypatch, capsys):
        # a corrupted row at rank 5 fails that rank alone
        TestRecurrenceRows.corrupt(monkeypatch, 5, side, 2)
        reports = list(verify_range(name, 1, 6))
        assert [r.n for r in reports if not r.holds] == [5]
        code, out = self.printed(capsys, name, 6)
        assert (code, out) == (1, expected_verify_output(name, reports, "json"))
        assert out.startswith('{\n  "identity": "%s",\n  "holds": false,' % name)
        assert ('"brute": ' in out) is brute


class TestIdentities:
    def test_names_are_sorted_and_complete(self):
        assert IDENTITY_NAMES == tuple(sorted(IDENTITY_NAMES))
        assert set(IDENTITY_NAMES) == {
            "alternating",
            "eulBeven",
            "eulBodd",
            "main",
            "stembridge",
            "B_n1",
            "D_n1",
        }

    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_identities_hold_small(self, name):
        lo = 2 if name in ("stembridge", "B_n1", "D_n1") else 0
        for n in range(lo, 6):
            report = verify_identity(name, n)
            assert report.name == name and report.n == n
            assert report.rows
            assert report.holds

    def test_main_worked_coefficients(self):
        # (1 + t)^4 S_3(t) expands to 1 + 8t + 23t^2 + 32t^3 + 23t^4 +
        # 8t^5 + t^6, and the right side reproduces it term by term.
        report = verify_identity("main", 3)
        assert [row.lhs for row in report.rows] == [1, 8, 23, 32, 23, 8, 1]
        assert [row.rhs for row in report.rows] == [1, 8, 23, 32, 23, 8, 1]
        assert all(row.brute is None for row in report.rows)

    def test_odd_identity_carries_brute_column(self):
        report = verify_identity("eulBodd", 4)
        assert all(row.brute is not None for row in report.rows)
        # the enumeration counts signed windows by strictly positive descents
        assert [row.lhs for row in report.rows] == [
            2**4 * eulerian(4, k) for k in range(4)
        ]

    def test_closed_form_identities_carry_brute_column(self):
        # verify_identity is not budgeted; at n = 9 the kernel histograms
        # take 9,060 (B) and 15,380 (D) DP steps
        for name in ("B_n1", "D_n1"):
            (row,) = verify_identity(name, 9).rows
            assert row.brute == row.lhs == row.rhs

    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_identity_cost_is_the_histogram_the_check_reads(self, name, monkeypatch):
        read = []
        original = eulerian_module._brute_histogram

        def recording(kind, n):
            read.append(kind)
            return original(kind, n)

        monkeypatch.setattr(eulerian_module, "_brute_histogram", recording)
        for n in range(2, 7):
            read.clear()
            verify_identity(name, n)
            expected = sum(kernels.histogram_cost(kind, n) for kind in read)
            assert identity_cost(name, n) == expected, (name, n, read)
        assert (identity_cost(name, 40) == 0) == (name == "main")

    def test_closed_forms(self):
        for n in range(2, 9):
            assert eulerian(n, 1, "B") == 3**n - n - 1
            assert eulerian(n, 1, "D") == 3**n - n - 1 - n * 2 ** (n - 1)

    def test_bad_requests(self):
        with pytest.raises(ValueError):
            verify_identity("unknown", 3)
        with pytest.raises(ValueError):
            verify_identity("main", -1)
        with pytest.raises(ValueError):
            verify_identity("stembridge", 1)
        with pytest.raises(ValueError):
            verify_identity("D_n1", 1)

    def test_row_and_report_holds(self):
        good = IdentityRow(0, 5, 5)
        bad = IdentityRow(0, 5, 6)
        brute_bad = IdentityRow(0, 5, 5, brute=4)
        assert good.holds and not bad.holds and not brute_bad.holds
        assert not IdentityReport("x", 1, (good, bad)).holds
        assert IdentityReport("x", 1, (good,)).holds

    def test_report_json(self):
        report = verify_identity("alternating", 3)
        data = json.loads(json.dumps(report_dict(report)))
        assert data["identity"] == "alternating"
        assert data["n"] == 3
        assert data["holds"] is True
        assert [row["lhs"] for row in data["rows"]] == [1, 4, 1]
        assert all("brute" not in row for row in data["rows"])
        with_brute = report_dict(verify_identity("eulBodd", 3))
        assert all("brute" in row for row in with_brute["rows"])


class TestThresholdCounts:
    def test_totals(self):
        assert [threshold_counts(n).total for n in range(1, 7)] == [
            1, 2, 8, 46, 332, 2874,
        ]

    def test_unlabeled(self):
        for n in range(1, 8):
            assert threshold_counts(n).unlabeled == 2 ** (n - 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            threshold_counts(0)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_by_degree_classes_against_enumeration(self, n):
        data = threshold_counts(n)
        brute = [0] * n
        for g in enumerate_threshold_graphs(n):
            distinct = len({degree(g, v) for v in range(1, n + 1)})
            brute[distinct - 1] += 1
        assert list(data.by_degree_classes) == brute
        assert sum(brute) == data.total

    @pytest.mark.parametrize("n", range(1, 6))
    def test_by_partition_descents_against_enumeration(self, n):
        # tau_{n,k} counts threshold graphs whose barred encoding (degree
        # classes, diagonal class first) has a word with k descents
        data = threshold_counts(n)
        brute = [0] * (max(n - 2, 0) + 1)
        for g in enumerate_threshold_graphs(n):
            brute[descent_count(sbp_from_threshold(g).w, "A")] += 1
        assert list(data.by_partition_descents) == brute

    def test_small_records(self):
        one = threshold_counts(1)
        assert (one.total, one.by_degree_classes, one.unlabeled) == (1, (1,), 1)
        assert one.by_partition_descents == (1,)
        four = threshold_counts(4)
        assert four.by_degree_classes == (2, 20, 24, 0)
        assert four.by_partition_descents == (8, 32, 6)


class TestLeastRanks:
    def test_ranks(self):
        assert dict(IDENTITY_MIN_N) == {
            name: 2 if name in ("stembridge", "B_n1", "D_n1") else 0
            for name in IDENTITY_NAMES
        }

    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_below_the_least_rank_is_refused(self, name):
        lo = IDENTITY_MIN_N[name]
        for n in range(-2, lo):
            with pytest.raises(ValueError, match=f"identity {name} needs n >= {lo}"):
                verify_identity(name, n)
        assert verify_identity(name, lo).holds


class TestOneBruteForcePath:
    """A brute-force row is gated and read in ``eulerian_polynomial`` alone;
    ``eulerian`` indexes it."""

    def test_polynomial_is_charged_and_read_once(self, monkeypatch):
        calls = []

        def recording(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls.append((name, args))
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        formula = eulerian_polynomial(6, "D")
        recording(kernels, "histogram_cost")
        recording(eulerian_module, "check_budget")
        recording(eulerian_module, "_brute_histogram")
        row = eulerian_polynomial(6, "D", "bruteforce", max_elements=10**6)
        assert row == formula
        assert [name for name, _ in calls] == [
            "histogram_cost",
            "check_budget",
            "_brute_histogram",
        ]
        assert calls[0][1] == calls[2][1] == ("D", 6)
        assert calls[1][1][1:] == (10**6, "brute force over D_6")

    @pytest.mark.parametrize("kind", ["A", "B", "D"])
    def test_coefficient_is_an_index_into_the_row(self, kind):
        for n in range(2 if kind == "D" else 0, 9):
            row = eulerian_polynomial(n, kind, "bruteforce")
            hi = n - 1 if kind == "A" and n > 0 else n
            assert len(row) == hi + 1, (kind, n)
            for k in range(hi + 1):
                assert eulerian(n, k, kind, "bruteforce") == row[k], (kind, n, k)
                assert row[k] == eulerian(n, k, kind), (kind, n, k)

    def test_unknown_method_is_refused_by_both(self):
        with pytest.raises(ValueError, match="unknown method: 'guess'"):
            eulerian(4, 1, "B", method="guess")
        with pytest.raises(ValueError, match="unknown method: 'guess'"):
            eulerian_polynomial(4, "B", method="guess")

    def test_over_budget_is_refused_before_the_histogram(self, monkeypatch):
        def forbidden(kind, n):
            raise AssertionError("the histogram was read")

        monkeypatch.setattr(eulerian_module, "_brute_histogram", forbidden)
        with pytest.raises(ValueError, match="budget of 9059"):
            eulerian_polynomial(9, "B", "bruteforce", max_elements=9_059)
        with pytest.raises(ValueError, match="budget of 9059"):
            eulerian(9, 1, "B", "bruteforce", max_elements=9_059)
