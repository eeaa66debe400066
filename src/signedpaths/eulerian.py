"""Eulerian numbers of types A, B and D, and identities relating them.

The central objects are the descent-count distributions over the three
families of (signed) permutation groups:

* type A: permutations of [n] with adjacent descents,
* type B: signed permutations with the extra sentinel descent at
  position 0 (first window letter negative),
* type D: even-signed permutations with the sentinel comparing -u_2
  against u_1.

Every number is available through two independent routes: closed-form or
summation formulas on one side and brute-force counting (the prefix dynamic
program in ``kernels``, which counts every group element once) on the
other.  ``verify_identity`` pits the two routes against each other and
returns an exact row-by-row report; a formula is never checked against
itself.
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
    "eulerian",
    "eulerian_polynomial",
    "IdentityRow",
    "IdentityReport",
    "IDENTITY_NAMES",
    "IDENTITY_MIN_N",
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
    as ``kernels.histogram_cost`` and ``posets.poset_cost``.

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


def _stirling_rows(n: int, width: int) -> Iterator[list[int]]:
    # S(m, 0..width-1) for m = 0, ..., n, one row at a time by
    # S(m, k) = k S(m - 1, k) + S(m - 1, k - 1)
    row = [1] + [0] * (width - 1)
    yield row
    for _ in range(n):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, width)]
        yield row


def _coefficient(p: list[int], q: list[int], m: int) -> int:
    # [t^m] p(t) q(t) for coefficient lists p and q, zero past their ends
    lo = max(0, m - len(q) + 1)
    hi = min(m, len(p) - 1)
    return sum(p[i] * q[m - i] for i in range(lo, hi + 1))


def _eul_a_terms(n: int, stop: int) -> tuple[list[int], list[int]]:
    # What A(n, k) for k < stop reads, as polynomials in t whose product
    # has A(n, k) at t^(k+1): the signed binomials (-1)^j C(n+1, j) for
    # j < stop, and the powers m^n at t^m for m = 1..stop
    signed = [-comb(n + 1, j) if j & 1 else comb(n + 1, j) for j in range(stop)]
    powers = [0, *(m**n for m in range(1, stop + 1))]
    return signed, powers


def _eul_a_row(n: int, stop: int | None = None) -> list[int]:
    # Type A Eulerian numbers A(n, k) for k < stop (the whole row when stop
    # is None), each by the alternating sum
    # A(n, k) = sum_j (-1)^j C(n+1, j) (k+1-j)^n over j = 0..k,
    # with the powers and binomials computed once for the row
    width = max(n, 1)
    stop = width if stop is None else min(stop, width)
    signed, powers = _eul_a_terms(n, stop)
    return [_coefficient(signed, powers, k + 1) for k in range(stop)]


def _eul_a(n: int, k: int) -> int:
    # One type A Eulerian number by the same sum, from O(k) terms, padded
    # with zeros outside the meaningful range
    if not 0 <= k < max(n, 1):
        return 0
    return _coefficient(*_eul_a_terms(n, k + 1), k + 1)


def _eul_b_row(n: int, a: list[int]) -> list[int]:
    # Type B Eulerian numbers from the type A row a = A(n, .) as the
    # positively weighted sums B(n, k) = sum_i A(n, i) C(n+1, 2k-i)
    binom = [comb(n + 1, j) for j in range(n + 2)]
    return [_coefficient(a, binom, 2 * k) for k in range(n + 1)]


def _eul_b(n: int, k: int) -> int:
    # One type B Eulerian number by the same sum, reading A(n, i) only for
    # i <= min(2k, n - 1)
    binom = [comb(n + 1, j) for j in range(min(2 * k, n + 1) + 1)]
    return _coefficient(_eul_a_row(n, 2 * k + 1), binom, 2 * k)


def _eul_d_row(n: int) -> list[int]:
    # Type D Eulerian numbers (n >= 2) by the subtraction identity
    # D(n, k) = B(n, k) - n 2^(n-1) A(n-1, k-1), from the B_n and A_(n-1) rows
    weight = n * 2 ** (n - 1)
    shifted = [0, *_eul_a_row(n - 1), 0]
    return [b - weight * a for b, a in zip(_eul_b_row(n, _eul_a_row(n)), shifted)]


def _eul_d(n: int, k: int) -> int:
    # One type D Eulerian number by the same identity
    return _eul_b(n, k) - n * 2 ** (n - 1) * _eul_a(n - 1, k - 1)


_FORMULAS = {"A": _eul_a, "B": _eul_b, "D": _eul_d}
_ROWS = {
    "A": _eul_a_row,
    "B": lambda n: _eul_b_row(n, _eul_a_row(n)),
    "D": _eul_d_row,
}


@cache
def _brute_histogram(kind: str, n: int) -> tuple[int, ...]:
    if kind == "positive":
        return kernels.positive_descent_histogram(n)
    return kernels.descent_histogram(kind, n)


def _top_descents(kind: str, n: int) -> int:
    # The largest descent count in the kind-X group of rank n, after
    # refusing an unknown kind and a rank the group does not have
    if kind not in _FORMULAS:
        raise ValueError(f"unknown group kind: {kind!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if kind == "D" and n < 2:
        raise ValueError("type D Eulerian numbers need n >= 2")
    return n - 1 if kind == "A" and n > 0 else n


def eulerian(
    n: int,
    k: int,
    kind: str = "A",
    method: str = "formula",
    max_elements: int | None = None,
) -> int:
    """Number of kind-X group elements of rank n with exactly k descents.

    The ``formula`` method evaluates the closed summation formulas; the
    ``bruteforce`` method counts the group's descent histogram with the
    counting kernel, allowed only when its ``kernels.histogram_cost`` is at
    most ``max_elements`` DP steps (``MAX_BRUTE_ELEMENTS`` when not given).
    Type D needs n >= 2.

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
        return _FORMULAS[kind](n, k)
    return eulerian_polynomial(n, kind, method, max_elements)[k]


def eulerian_polynomial(
    n: int,
    kind: str = "A",
    method: str = "formula",
    max_elements: int | None = None,
) -> tuple[int, ...]:
    """Coefficient vector (by ascending power of t) of the descent polynomial.

    ``method`` and ``max_elements`` mean what they mean for :func:`eulerian`.

    >>> eulerian_polynomial(3)
    (1, 4, 1)
    >>> eulerian_polynomial(2, kind="B")
    (1, 6, 1)
    """
    hi = _top_descents(kind, n)
    if method == "formula":
        return tuple(_ROWS[kind](n))
    if method == "bruteforce":
        check_budget(
            kernels.histogram_cost(kind, n),
            MAX_BRUTE_ELEMENTS if max_elements is None else max_elements,
            f"brute force over {kind}_{n}",
        )
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


def _check_row(hist: tuple[int, ...], row: list[int]) -> tuple[IdentityRow, ...]:
    # a brute-force histogram against the formula row of the same group
    return tuple(IdentityRow(k, hist[k], value) for k, value in enumerate(row))


def _check_eul_b_odd(n: int, hist: tuple[int, ...]) -> tuple[IdentityRow, ...]:
    # 2^n Eul_A(n, k) against the odd-indexed binomial sum, with the
    # brute-force count of signed windows having k strictly positive
    # descents as the third, enumerative face of the same statement
    s_n = _eul_a_row(n)
    binom = [comb(n + 1, j) for j in range(n + 2)]
    return tuple(
        IdentityRow(k, 2**n * a, _coefficient(s_n, binom, 2 * k + 1), brute=hist[k])
        for k, a in enumerate(s_n)
    )


def _check_main(n: int, hist: None) -> tuple[IdentityRow, ...]:
    # (1 + t)^(n+1) S_n(t) = B_n(t^2) + 2^n t S_n(t^2), coefficientwise up to
    # the degree of the left side, 2n (1 at n = 0); halves holds the right
    # side at t^(2j) and at t^(2j+1), whose rows reach that degree exactly
    s_n = _eul_a_row(n)
    binom = [comb(n + 1, j) for j in range(n + 2)]
    halves = (_eul_b_row(n, s_n), [2**n * a for a in s_n])
    return tuple(
        IdentityRow(i, _coefficient(binom, s_n, i), halves[i % 2][i // 2])
        for i in range(len(binom) + len(s_n) - 1)
    )


def _closed_form_rows(
    n: int, kind: str, hist: tuple[int, ...]
) -> tuple[IdentityRow, ...]:
    closed = 3**n - n - 1
    if kind == "D":
        closed -= n * 2 ** (n - 1)
    return (IdentityRow(1, _FORMULAS[kind](n, 1), closed, brute=hist[1]),)


# identity -> (the kernel histogram its check reads, or None; the check)
_CHECKS = {
    "alternating": ("A", lambda n, hist: _check_row(hist, _ROWS["A"](n))),
    "eulBeven": ("B", lambda n, hist: _check_row(hist, _ROWS["B"](n))),
    "eulBodd": ("positive", _check_eul_b_odd),
    "main": (None, _check_main),
    "stembridge": ("D", lambda n, hist: _check_row(hist, _ROWS["D"](n))),
    "B_n1": ("B", lambda n, hist: _closed_form_rows(n, "B", hist)),
    "D_n1": ("D", lambda n, hist: _closed_form_rows(n, "D", hist)),
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


def verify_identity(name: str, n: int) -> IdentityReport:
    """Check one named identity exactly at rank n and report every row.

    Identities whose statement involves a group count pit a brute-force
    enumeration against a formula; the purely formal identity ``main`` is
    checked coefficient by coefficient between two independently built
    polynomials.

    >>> verify_identity("alternating", 4).holds
    True
    >>> report = verify_identity("main", 3)
    >>> (report.holds, len(report.rows))
    (True, 7)
    """
    kind, check = _identity(name)
    if n < IDENTITY_MIN_N[name]:
        raise ValueError(f"identity {name} needs n >= {IDENTITY_MIN_N[name]}")
    hist = None if kind is None else _brute_histogram(kind, n)
    return IdentityReport(name, n, check(n, hist))


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


def threshold_counts(n: int) -> ThresholdCounts:
    """Exact counting sequences for threshold graphs on [n], via formulas.

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
    if n == 1:
        by_classes: tuple[int, ...] = (1,)
    else:
        *_, before, row = _stirling_rows(n, n + 1)
        by_classes = tuple(
            2 * (factorial(i) * row[i] - n * factorial(i - 1) * before[i - 1])
            for i in range(1, n + 1)
        )
    by_partition_descents = tuple(
        (k + 1) * a * 2 ** (n - 1 - k) for k, a in enumerate(_eul_a_row(n - 1))
    )
    total = sum(by_classes)
    if total != sum(by_partition_descents):
        raise AssertionError("internal threshold counts disagree")
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

