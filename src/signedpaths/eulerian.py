"""Eulerian numbers of types A, B and D, and identities relating them.

The central objects are the descent-count distributions over the three
families of (signed) permutation groups:

* type A: permutations of [n] with adjacent descents,
* type B: signed permutations with the extra sentinel descent at
  position 0 (first window letter negative),
* type D: even-signed permutations with the sentinel comparing -u_2
  against u_1.

Every number is available through independent routes: recurrence rows
(``_rows`` carries the type A and B rows from rank to rank; a D row is
B_n - n 2^(n-1) t A_(n-1)), closed-form single values (``eulerian(n, k)``
sums O(k) terms of an alternating formula) and the kernel DP (``kernels``
counts every group element once).  ``verify_range`` pits them against each
other row by row; a formula is never checked against itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, factorial
from types import MappingProxyType
from typing import Callable, Iterator

from . import kernels

__all__ = [
    "MAX_BRUTE_ELEMENTS",
    "check_budget",
    "identity_cost",
    "row_cost",
    "eulerian",
    "eulerian_polynomial",
    "IdentityRow",
    "IdentityReport",
    "IDENTITY_NAMES",
    "IDENTITY_MIN_N",
    "verify_range",
    "verify_identity",
    "ThresholdCounts",
    "threshold_counts",
    "report_dict",
]

#: Default work budget of every gated operation, the brute-force route
#: and every CLI command alike.
MAX_BRUTE_ELEMENTS = 10**8


def check_budget(cost: int, limit: int, what: str) -> None:
    """The one work-budget gate: refuse ``what`` when ``cost`` exceeds ``limit``.

    The costs come from functions beside the code that does the work, such
    as ``kernels.histogram_cost``, ``row_cost`` and ``posets.poset_cost``.

    >>> check_budget(10, 10, "a scan")
    >>> check_budget(11, 10, "a scan")  # doctest: +ELLIPSIS
    Traceback (most recent call last):
    ...
    ValueError: a scan costs 11, over the budget of 10 (raise max_elements...
    """
    if cost > limit:
        bits = cost.bit_length()
        shown = cost if bits <= 64 else f"more than 2^{bits - 1}"
        raise ValueError(
            f"{what} costs {shown}, over the budget of {limit}"
            " (raise max_elements, or --max-elements, to allow it)"
        )


def _rows(hi: int, kinds: str = "AB") -> Iterator[tuple[int, list[int], list[int]]]:
    # (n, A_n, B_n) for n = 0..hi by A(n, k) = (k + 1) A(n-1, k) + (n - k) A(n-1, k-1)
    # and Brenti's B(n, k) = (2k + 1) B(n-1, k) + (2n - 2k + 1) B(n-1, k-1);
    # A_0 = (1) as A_1, and the zip with range(n) keeps A_1 at one entry.  A
    # kind missing from kinds is not carried, and its row stays (1)
    a, b = [1], [1]
    for n in range(hi + 1):
        if n and "A" in kinds:
            a = [(k + 1) * x + (n - k) * y
                 for k, x, y in zip(range(n), [*a, 0], [0, *a])]
        if n and "B" in kinds:
            b = [(2 * k + 1) * x + (2 * n - 2 * k + 1) * y
                 for k, x, y in zip(range(n + 1), [*b, 0], [0, *b])]
        yield n, a, b


def row_cost(n: int, entries: int | None = None) -> int:
    """Machine-word operations of ``entries`` values of rank n or less, each
    written by one pass of products and sums; by default the (n + 1)^2
    entries of the type A and B rows carried from rank 0 to n.  Every entry
    and every term of the closed-form sums is below 2^(n (b + 2) + 1), b the
    bit length of n, so it takes at most (n (b + 2) + 1) / 64 + 1 words."""
    words = (n * (n.bit_length() + 2) + 1) // 64 + 1
    return ((n + 1) ** 2 if entries is None else entries) * words


def _eul_a(n: int, k: int) -> int:
    # One type A Eulerian number from k + 1 terms of the alternating sum
    # A(n, k) = sum_j (-1)^j C(n+1, j) (k+1-j)^n over j = 0..k (0 at k = n > 0)
    return sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1))


def _eul_b(n: int, k: int) -> int:
    # One type B Eulerian number from k + 1 terms of the alternating sum
    # B(n, k) = sum_j (-1)^j C(n+1, j) (2k+1-2j)^n over j = 0..k
    return sum((-1) ** j * comb(n + 1, j) * (2 * (k - j) + 1) ** n for j in range(k + 1))


def _eul_d(n: int, k: int) -> int:
    # One type D Eulerian number (n >= 2) by the subtraction identity
    # D(n, k) = B(n, k) - n 2^(n-1) A(n-1, k-1)
    return _eul_b(n, k) - n * 2 ** (n - 1) * _eul_a(n - 1, k - 1)


def _row(kind: str, n: int, a: list[int], b: list[int], prev: list[int]) -> list[int]:
    # The kind-X row of rank n from the carried rows A_n, B_n and A_(n-1) =
    # prev; type D (n >= 2) by the same identity
    if kind != "D":
        return a if kind == "A" else b
    weight = n * 2 ** (n - 1)
    return [x - weight * y for x, y in zip(b, [0, *prev, 0])]


_FORMULAS = {"A": _eul_a, "B": _eul_b, "D": _eul_d}


@cache
def _brute_histogram(kind: str, n: int) -> tuple[int, ...]:
    if kind == "positive":
        return kernels.positive_descent_histogram(n)
    return kernels.descent_histogram(kind, n)


def _top_descents(kind: str, n: int) -> int:
    # The largest descent count in the kind-X group of rank n, if it has one
    kernels._check(kind, n)
    return n - 1 if kind == "A" and n > 0 else n


def eulerian(
    n: int,
    k: int,
    kind: str = "A",
    method: str = "formula",
    max_elements: int = MAX_BRUTE_ELEMENTS,
) -> int:
    """Number of kind-X group elements of rank n with exactly k descents.

    The ``formula`` method evaluates the closed summation formulas from at
    most 2k + 2 terms (``row_cost``); the ``bruteforce`` method
    counts the group's descent histogram with the counting kernel
    (``kernels.histogram_cost`` DP steps).  Either runs only when its cost
    is at most ``max_elements``.  Type D needs n >= 2.

    >>> [eulerian(4, k) for k in range(4)]
    [1, 11, 11, 1]
    >>> [eulerian(3, k, kind="B") for k in range(4)]
    [1, 23, 23, 1]
    >>> [eulerian(3, k, kind="D") for k in range(4)]
    [1, 11, 11, 1]
    >>> eulerian(3, 1, kind="B", method="bruteforce")
    23
    """
    hi = _top_descents(kind, n)
    if not 0 <= k <= hi:
        raise ValueError(f"k must lie in 0..{hi} for kind {kind}, n={n}")
    if method == "formula":
        check_budget(row_cost(n, 2 * k + 2), max_elements, f"{kind}({n}, {k})")
        return _FORMULAS[kind](n, k)
    return eulerian_polynomial(n, kind, method, max_elements)[k]


def eulerian_polynomial(
    n: int,
    kind: str = "A",
    method: str = "formula",
    max_elements: int = MAX_BRUTE_ELEMENTS,
) -> tuple[int, ...]:
    """Coefficient vector (by ascending power of t) of the descent polynomial.

    ``method`` and ``max_elements`` mean what they mean for :func:`eulerian`;
    the ``formula`` row is the recurrence row, charged ``row_cost(n)``.

    >>> eulerian_polynomial(3)
    (1, 4, 1)
    >>> eulerian_polynomial(2, kind="B")
    (1, 6, 1)
    """
    hi = _top_descents(kind, n)
    if method == "formula":
        check_budget(row_cost(n), max_elements, f"the formula row of {kind}_{n}")
        a: list[int] = []
        for _, nxt, b in _rows(n, "AB" if kind == "D" else kind):
            prev, a = a, nxt
        return tuple(_row(kind, n, a, b, prev))
    if method == "bruteforce":
        cost = kernels.histogram_cost(kind, n)
        check_budget(cost, max_elements, f"brute force over {kind}_{n}")
        return _brute_histogram(kind, n)[: hi + 1]
    raise ValueError(f"unknown method: {method!r}")


@dataclass(frozen=True)
class IdentityRow:
    """One exact comparison inside an identity check.

    ``index`` names the row (a descent count or a power of t), ``lhs`` and
    ``rhs`` are the two independently computed sides, and ``brute`` holds a
    third, enumeration-based value when the identity has one.
    """

    index: int
    lhs: int
    rhs: int
    brute: int | None = None

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs and (self.brute is None or self.brute == self.lhs)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking one identity at one rank n."""

    name: str
    n: int
    rows: tuple[IdentityRow, ...]

    @property
    def holds(self) -> bool:
        return all(row.holds for row in self.rows)


def _check_row(kind, n, a, b, prev, hist) -> tuple[IdentityRow, ...]:
    # a brute-force histogram against the formula row of the same group
    row = _row(kind, n, a, b, prev)
    return tuple(IdentityRow(k, hist[k], value) for k, value in enumerate(row))


def _expanded(n: int, a: list[int]) -> list[int]:
    # (1 + t)^(n+1) S_n(t) from the row a of S_n: a times (1 + t), n + 1 times
    for _ in range(n + 1):
        a = [x + y for x, y in zip([*a, 0], [0, *a])]
    return a


def _check_eul_b_odd(kind, n, a, b, prev, hist) -> tuple[IdentityRow, ...]:
    # 2^n Eul_A(n, k) against [t^(2k+1)] (1 + t)^(n+1) S_n(t), with the number
    # of signed windows with k strictly positive descents as the brute value
    odd = _expanded(n, a)[1::2]
    return tuple(
        IdentityRow(k, 2**n * x, odd[k], brute=hist[k]) for k, x in enumerate(a)
    )


def _check_main(kind, n, a, b, prev, hist) -> tuple[IdentityRow, ...]:
    # (1 + t)^(n+1) S_n(t) = B_n(t^2) + 2^n t S_n(t^2) at every power of t up
    # to 2n (1 at n = 0); halves holds the right side at t^(2j) and t^(2j+1)
    halves = (b, [2**n * x for x in a])
    return tuple(
        IdentityRow(i, lhs, halves[i % 2][i // 2])
        for i, lhs in enumerate(_expanded(n, a))
    )


def _closed_form_rows(kind, n, a, b, prev, hist) -> tuple[IdentityRow, ...]:
    closed = 3**n - n - 1
    if kind == "D":
        closed -= n * 2 ** (n - 1)
    return (IdentityRow(1, _FORMULAS[kind](n, 1), closed, brute=hist[1]),)


# identity -> (the kernel histogram its check reads, or None; the check of
# rank n from that kind, the rows A_n, B_n and A_(n-1) and the histogram)
_CHECKS = {
    "alternating": ("A", _check_row),
    "eulBeven": ("B", _check_row),
    "eulBodd": ("positive", _check_eul_b_odd),
    "main": (None, _check_main),
    "stembridge": ("D", _check_row),
    "B_n1": ("B", _closed_form_rows),
    "D_n1": ("D", _closed_form_rows),
}

#: The identity names accepted by :func:`verify_identity`.
IDENTITY_NAMES = tuple(sorted(_CHECKS))

#: The least rank of each identity: the type D kernel and the closed forms
#: for k = 1 need n >= 2.
IDENTITY_MIN_N = MappingProxyType(
    dict.fromkeys(IDENTITY_NAMES, 0) | dict.fromkeys(("stembridge", "B_n1", "D_n1"), 2)
)


def _identity(name: str) -> tuple[str | None, Callable]:
    if name not in _CHECKS:
        raise ValueError(
            f"unknown identity {name!r}; expected one of {', '.join(IDENTITY_NAMES)}"
        )
    return _CHECKS[name]


def identity_cost(name: str, n: int) -> int:
    """DP steps of the kernel histogram that ``verify_identity(name, n)`` reads.

    The formula-only identity ``main`` reads none and costs 0.

    >>> identity_cost("stembridge", 14), identity_cost("main", 40)
    (94020, 0)
    """
    kind, _ = _identity(name)
    return 0 if kind is None else kernels.histogram_cost(kind, n)


def verify_range(name: str, lo: int, hi: int) -> Iterator[IdentityReport]:
    """Check one named identity exactly at each rank n = lo..hi, in order.

    A brute-force enumeration is pitted against a formula, or, for ``main``,
    two independently built polynomials.  One walk carries the rows through
    the range; ``main`` and ``eulBodd`` pass n + 1 more times over those of
    rank n: ``row_cost(hi, (hi + 1)^2 (hi + 2))`` in all.  No budget gates
    it; the CLI's ``verify`` charges that and each rank's ``identity_cost``
    before it calls this.

    >>> [report.n for report in verify_range("eulBeven", 2, 4)]
    [2, 3, 4]
    """
    kind, check = _identity(name)
    if lo < IDENTITY_MIN_N[name]:
        raise ValueError(f"identity {name} needs n >= {IDENTITY_MIN_N[name]}")
    prev: list[int] = []
    for n, a, b in _rows(hi):
        if n >= lo:
            hist = None if kind is None else _brute_histogram(kind, n)
            yield IdentityReport(name, n, check(kind, n, a, b, prev, hist))
        prev = a


def verify_identity(name: str, n: int) -> IdentityReport:
    """The report of :func:`verify_range` at the one rank n, also not gated.

    >>> verify_identity("alternating", 4).holds
    True
    >>> report = verify_identity("main", 3)
    >>> (report.holds, len(report.rows))
    (True, 7)
    """
    return next(verify_range(name, n, n))


@dataclass(frozen=True)
class ThresholdCounts:
    """Counting data for threshold graphs on n labeled vertices.

    ``total`` is the number of labeled threshold graphs; ``by_degree_classes``
    maps i (1-based) to the number of such graphs with exactly i distinct
    vertex degrees; ``by_partition_descents`` maps k to the number whose
    barred-permutation encoding (degree classes written increasingly, the
    class holding the diagonal rotated to the front) has a word with
    exactly k descents; ``unlabeled`` counts isomorphism classes.
    """

    n: int
    total: int
    by_degree_classes: tuple[int, ...]
    by_partition_descents: tuple[int, ...]
    unlabeled: int


def threshold_counts(n: int, max_elements: int = MAX_BRUTE_ELEMENTS) -> ThresholdCounts:
    """Exact counting sequences for threshold graphs on [n], via formulas
    charged ``2 * row_cost(n)``: A rows to n - 1, Stirling rows to n.  Two
    formulas give the total, and ``AssertionError`` names both if they differ.

    >>> threshold_counts(4).total
    46
    >>> threshold_counts(4).by_degree_classes
    (2, 20, 24, 0)
    >>> threshold_counts(4).by_partition_descents
    (8, 32, 6)
    >>> [threshold_counts(m).total for m in range(1, 7)]
    [1, 2, 8, 46, 332, 2874]
    """
    if n < 1:
        raise ValueError("threshold counts need n >= 1")
    check_budget(2 * row_cost(n), max_elements, f"counting threshold graphs on [{n}]")
    if n == 1:
        by_classes: tuple[int, ...] = (1,)
    else:
        # S(n - 1, .) and S(n, .) by S(m, k) = k S(m - 1, k) + S(m - 1, k - 1)
        before, row = [], [1] + [0] * n
        for _ in range(n):
            before, row = row, [0] + [k * row[k] + row[k - 1] for k in range(1, n + 1)]
        by_classes = tuple(
            2 * (factorial(i) * row[i] - n * factorial(i - 1) * before[i - 1])
            for i in range(1, n + 1)
        )
    for _, a, _b in _rows(n - 1, "A"):
        pass
    by_partition_descents = tuple(
        (k + 1) * x * 2 ** (n - 1 - k) for k, x in enumerate(a)
    )
    total, other = sum(by_classes), sum(by_partition_descents)
    if total != other:
        raise AssertionError(f"by degree classes {total}, by partition descents {other}")
    return ThresholdCounts(
        n=n,
        total=total,
        by_degree_classes=by_classes,
        by_partition_descents=by_partition_descents,
        unlabeled=2 ** (n - 1),
    )


def report_dict(report: IdentityReport) -> dict:
    """The JSON object of one identity report; a row has ``brute`` only when
    it has a third value."""
    return {
        "identity": report.name,
        "n": report.n,
        "holds": report.holds,
        "rows": [
            {
                "index": row.index,
                "lhs": row.lhs,
                "rhs": row.rhs,
                **({"brute": row.brute} if row.brute is not None else {}),
                "holds": row.holds,
            }
            for row in report.rows
        ],
    }

