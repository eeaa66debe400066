"""The counting kernel: descent histograms by a dynamic program over prefixes.

A window is built one letter at a time (the transfer-matrix method of
Stanley, *Enumerative Combinatorics I*, §4.7).  Whether the next letter
makes a descent depends only on its rank among the letters still free, not
on their values, so the prefixes are lumped into standardized states:

* after a prefix of a signed window, m absolute values are still unused,
  so the 2m letters ``±v`` remain; the state is j, the number of those
  letters below the last placed letter (plus, for type D, the parity of
  the negative signs so far);
* taking the letter at position p (0-based) of the sorted remaining
  letters adds a descent iff p < j; the next state is j' = p - [p >= m],
  because the mirror ``-v`` of a positive letter lies below it, and the
  parity flips iff p < m, i.e. the letter is negative;
* type A is the same program on the m unsigned letters, with j' = p.

The sentinels: type B starts from u_0 = 0, which lies above the n negative
letters (j = n); type D adds a descent at the second letter when
u_1 + u_2 < 0, i.e. p < 2m - j, and keeps only even parity at the end; the
positive histogram has no sentinel.  Each state carries the descent-count
vector of the prefixes it stands for, so every group element is counted
exactly once in O(n^4) work, and no closed formula is used: the result stays
an independent check on the formulas in ``eulerian``.
"""

from __future__ import annotations

__all__ = [
    "descent_histogram",
    "histogram_cost",
    "positive_descent_histogram",
]


def _histogram(kind: str, n: int) -> tuple[int, ...]:
    # kind is "A", "B", "D" or "positive"; see the module docstring.
    # states maps (j, parity) to a descent-count vector.
    signed = kind != "A"
    states = {(n if kind == "B" else 0, 0): [1] + [0] * n}
    for i in range(n):
        m = n - i
        size = 2 * m if signed else m
        nxt: dict[tuple[int, int], list[int]] = {}
        for (j, parity), counts in states.items():
            for p in range(size):
                step = p < j
                if kind == "D" and i == 1:
                    step += p < size - j
                negative = signed and p < m
                key = (
                    p - (signed and not negative),
                    parity ^ (kind == "D" and negative),
                )
                target = nxt.setdefault(key, [0] * (n + 1))
                for k in range(n + 1 - step):
                    target[k + step] += counts[k]
        states = nxt
    total = [0] * (n + 1)
    for (_, parity), counts in states.items():
        if not parity:
            total = [a + b for a, b in zip(total, counts)]
    return tuple(total)


def histogram_cost(kind: str, n: int) -> int:
    """Inner steps of the DP behind the rank-n histogram of ``kind``.

    Each (state, letter) pair of the loops adds an (n + 1)-entry count
    vector into a successor; the pairs are summed in closed form: after the
    first letter, m + 1 states meet m free letters in type A, 2m + 1 states
    2m letters in types B and "positive", and type D doubles the states
    from the third letter on (the sign parity).  O(1) arithmetic.

    >>> histogram_cost("B", 9), histogram_cost("D", 14)
    (9060, 94020)
    """
    if kind == "A":
        pairs = n + (n - 1) * n * (n + 1) // 3
    elif kind == "D":
        m = n - 2
        pairs = 2 * n + 4 * n * (n - 1) + 2 * m * (m + 1) * (4 * m + 5) // 3
    else:
        m = n - 1
        pairs = 2 * n + m * (m + 1) * (4 * m + 5) // 3
    return (n + 1) * pairs


def descent_histogram(kind: str, n: int) -> tuple[int, ...]:
    """Histogram of descent counts over the whole group of the given kind.

    ``kind`` is "A" (permutations of [n]), "B" (signed permutations) or
    "D" (even-signed permutations, n >= 2); entry ``k`` of the result is
    the number of group elements with exactly ``k`` descents.  The work
    budget does not gate this function; ``eulerian.eulerian_polynomial(n,
    kind, method="bruteforce")`` is the gated entry.

    >>> descent_histogram("A", 3)
    (1, 4, 1, 0)
    >>> descent_histogram("B", 2)
    (1, 6, 1)
    >>> descent_histogram("D", 2)
    (1, 2, 1)
    """
    if kind not in ("A", "B", "D"):
        raise ValueError(f"unknown group kind: {kind!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if kind == "D" and n < 2:
        raise ValueError("type D histograms need n >= 2")
    return _histogram(kind, n)


def positive_descent_histogram(n: int) -> tuple[int, ...]:
    """Histogram of strictly positive descent counts over signed windows.

    Entry ``k`` counts the signed permutations of [n] whose descent set
    contains exactly ``k`` positions >= 1 (the sentinel position 0 is
    ignored).  Not gated either; ``histogram_cost("positive", n)`` is its cost.

    >>> positive_descent_histogram(2)
    (4, 4, 0)
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _histogram("positive", n)
