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
u_1 + u_2 < 0, i.e. j < 2m - p, and keeps only even parity at the end; the
positive histogram has no sentinel.  Each state carries the descent-count
vector of its prefixes, packed into one integer (entry k at bit k*w, for
a w that holds the group's order), so a shift is a multiplication by 2^w.
For a next letter p, the sources j > p add their vector shifted by one (a
descent) and the sources j <= p add it unshifted, so one running sum over j
per level and parity serves every target; the type D sentinel is one more
split of the same sums.  Every group element is counted exactly once in
O(n^3) vector additions, and no closed formula is used: the result stays an
independent check on the formulas in ``eulerian``.
"""

from __future__ import annotations

__all__ = ["descent_histogram", "histogram_cost", "positive_descent_histogram"]


def _histogram(kind: str, n: int) -> tuple[int, ...]:
    # kind is "A", "B", "D" or "positive"; states[parity][j] is the packed
    # vector of state (j, parity), as the module docstring sets out
    signed = kind != "A"
    w = n * (n.bit_length() + 1) + 1  # 2^n n! < 2^w
    states = [[0] * (n if kind == "B" else 0) + [1]] + [[]] * (kind == "D")
    for i in range(n):
        m = n - i
        size = 2 * m if signed else m
        nxt = [[0] * (size - signed) for _ in states]
        for parity, vectors in enumerate(states):
            sums = [0]  # sums[s] adds the vectors of the sources j < s
            for vector in vectors:
                sums.append(sums[-1] + vector)
            top = len(vectors)
            for p in range(size):
                # the sources j >= a make a descent, and in type D's second
                # letter the sources j < b make one more
                a = min(p + 1, top)
                b = min(size - p, top) if kind == "D" and i == 1 else 0
                mid = sums[max(a, b)] - sums[min(a, b)]
                vector = (sums[top] - mid) << w
                vector += mid << 2 * w if b > a else mid
                negative = signed and p < m
                target = nxt[parity ^ (kind == "D" and negative)]
                target[p - (signed and not negative)] += vector
        states = nxt
    total = sum(states[0])
    return tuple(total >> k * w & (1 << w) - 1 for k in range(n + 1))


def histogram_cost(kind: str, n: int) -> int:
    """Budgeted steps of the DP behind the rank-n histogram of ``kind``.

    This is still the transfer-matrix count, one (n + 1)-entry vector
    addition per (state, letter) pair, summed in closed form: after the
    first letter, m + 1 states meet m free letters in type A, 2m + 1 states
    2m letters in types B and "positive", and type D doubles the states
    from the third letter on (the sign parity).  It bounds the running
    sums' additions from above and stays the budget unit until the budget
    is reweighted.  O(1) arithmetic.

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

    >>> descent_histogram("A", 3), descent_histogram("B", 2), descent_histogram("D", 2)
    ((1, 4, 1, 0), (1, 6, 1), (1, 2, 1))
    """
    _check(kind, n)
    return _histogram(kind, n)


def positive_descent_histogram(n: int) -> tuple[int, ...]:
    """Histogram of strictly positive descent counts over signed windows.

    Entry ``k`` counts the signed permutations of [n] whose descent set
    contains exactly ``k`` positions >= 1 (the sentinel position 0 is
    ignored).  Not gated either; ``histogram_cost("positive", n)`` is its cost.

    >>> positive_descent_histogram(2)
    (4, 4, 0)
    """
    _check("B", n)  # the positive histogram is over B_n
    return _histogram("positive", n)


def _check(kind: str, n: int) -> None:
    # the kinds and ranks with a histogram, and so with Eulerian numbers
    if kind not in ("A", "B", "D"):
        raise ValueError(f"unknown group kind: {kind!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if kind == "D" and n < 2:
        raise ValueError("type D needs n >= 2")
