"""Permutations and signed permutations with their type A/B/D statistics.

Conventions used throughout the package:

* A *permutation* of ``[n] = {1, ..., n}`` is a tuple ``w`` of length ``n``
  in one-line notation: ``w[i - 1]`` is the image of ``i``.

* A *signed permutation* is stored by its *window* ``u = (u_1, ..., u_n)``:
  a tuple of nonzero integers whose absolute values form a permutation of
  ``[n]``.  The *full notation* is the word of length ``2n``

      -u_n ... -u_1 u_1 ... u_n

  obtained by prepending the reversed, sign-flipped window; it describes
  ``u`` as a permutation of ``{-n, ..., -1, 1, ..., n}`` commuting with
  negation.  The full notation is always derived on demand, never stored.

* An *even-signed* window (``is_even_signed``) has an even number of
  negative letters; these form ``D_n``, but type D statistics take any window.

* Descent conventions.  Type A scans adjacent positions of the word.
  Type B prepends the sentinel ``u_0 = 0``, so position ``0`` is a descent
  exactly when ``u_1 < 0``.  Type D (``n >= 2``) prepends the sentinel
  ``u_0 = -u_2``.  A second type D convention indexes the extra position
  by ``-1`` with sentinel ``u_{-1} = -u_1``; both are provided because
  only the second interacts simply with mates.

* Inversion sets are value-based: ``(i, j)`` is an inversion when ``i``
  occurs after ``j``.  Type B allows negative ``i`` with
  ``1 <= |i| <= j <= n``; type D discards the pairs ``(-i, i)``.  The set
  is one frozenset of such pairs; a negative first coordinate marks a
  negative pair.

Group multiplication, reduced words and other word-problem machinery are
out of scope; only statistics and the bijections built on them live here.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial
from operator import gt, itemgetter
from typing import Iterable, Iterator, Sequence

__all__ = [
    "MAX_ENUMERATION_N",
    "Permutation",
    "SignedPermutation",
    "as_permutation",
    "as_window",
    "full_notation",
    "descent_set",
    "descent_set_d_variant",
    "descent_count",
    "positive_descent_count",
    "inversion_set",
    "inversion_count",
    "mate",
    "is_even_signed",
    "is_smooth",
    "chi",
    "chi_inverse",
    "window_decomposition",
    "group_order",
    "check_enumeration_cap",
    "enumerate_group",
    "parse_signed",
    "format_signed",
    "audit_chi",
    "audit_chi_cost",
]

# Exhaustive enumeration is capped so a typo cannot ask for 13!*2^13 tuples.
MAX_ENUMERATION_N = 12

Permutation = tuple[int, ...]
SignedPermutation = tuple[int, ...]

_KINDS = ("A", "B", "D")
_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _check_kind(kind: str) -> str:
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    return kind


def as_permutation(values: Sequence[int]) -> Permutation:
    """Validate and freeze a one-line permutation of [n].

    >>> as_permutation([2, 3, 1])
    (2, 3, 1)
    """
    w = tuple(values)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of [n]: {w}")
    return w


def as_window(values: Sequence[int]) -> SignedPermutation:
    """Validate and freeze a signed-permutation window.

    >>> as_window([-2, 3, 1, 6, -4, -7, 5])
    (-2, 3, 1, 6, -4, -7, 5)
    """
    u = tuple(values)
    if sorted(map(abs, u)) != list(range(1, len(u) + 1)):
        raise ValueError(f"window letters must have absolute values [n]: {u}")
    return u


def full_notation(u: SignedPermutation) -> tuple[int, ...]:
    """The length-2n word: reversed sign-flipped window, then the window.

    >>> full_notation((-2, 3, 1))
    (-1, -3, 2, -2, 3, 1)
    """
    return tuple(-x for x in reversed(u)) + tuple(u)


# ---------------------------------------------------------------------------
# Descents


def _sentinel_descent(u: Sequence[int], kind: str) -> bool:
    # whether position 0 is a descent: type B compares u_1 with u_0 = 0,
    # type D compares it with -u_2; type A has no position 0
    if kind == "B":
        return bool(u) and u[0] < 0
    if kind == "D":
        if len(u) < 2:
            raise ValueError("type D descents need n >= 2 (sentinel is -u_2)")
        return -u[1] > u[0]
    _check_kind(kind)
    return False


def descent_set(u: Sequence[int], kind: str = "A") -> frozenset[int]:
    """Descent positions of ``u`` in the given Coxeter type.

    Type A works on any word of distinct integers and returns positions in
    ``{1, ..., n-1}``.  Types B and D take any signed window, odd-signed too,
    and may add the sentinel position ``0``; type D needs ``n >= 2``.

    >>> sorted(descent_set((7, 4, 2, 3, 1, 6, 5), "A"))
    [1, 2, 4, 6]
    >>> sorted(descent_set((-2, 3, 1, 6, -4, -7, 5), "B"))
    [0, 2, 4, 5]
    """
    out = {i for i in range(1, len(u)) if u[i - 1] > u[i]}
    if _sentinel_descent(u, kind):
        out.add(0)
    return frozenset(out)


def descent_set_d_variant(u: SignedPermutation) -> frozenset[int]:
    """Type D descents with the extra position indexed by -1.

    The sentinel is ``u_{-1} = -u_1`` (as in full notation) and ``-1`` is a
    descent when ``u_{-1} > u_2``.  The result equals ``descent_set(u, "D")``
    up to renaming ``-1`` to ``0``, but unlike that convention this one
    trades places with position ``1`` under mates, which is what makes
    ``descent_count`` mate-invariant.
    """
    return frozenset(-1 if i == 0 else i for i in descent_set(u, "D"))


def descent_count(u: Sequence[int], kind: str = "A") -> int:
    """Number of descents of ``u`` in the given type, ``|descent_set(u, kind)|``.

    >>> descent_count((-2, 3, 1, 6, -4, -7, 5), "B")
    4
    """
    return _sentinel_descent(u, kind) + sum(map(gt, u, u[1:]))


def positive_descent_count(u: SignedPermutation) -> int:
    """Number of strictly positive type B descents, ``|Desc_B(u) - {0}|``."""
    return sum(map(gt, u, u[1:]))


# ---------------------------------------------------------------------------
# Inversions


def _getter(picks: list[int]) -> itemgetter:
    # itemgetter returns the bare item, not a 1-tuple, for a single index
    # and needs at least one; a slice covers none or one nonnegative pick
    if len(picks) > 1:
        return itemgetter(*picks)
    return itemgetter(slice(picks[0], picks[0] + 1) if picks else slice(0))


@lru_cache(maxsize=16)
def _inversion_pairs(n: int, kind: str) -> tuple[tuple, itemgetter, itemgetter]:
    # the candidate inversions of a rank-n window of the given kind, and
    # getters of their two values from a list indexed by value (-x at 2n + 1 - x)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if kind != "A":
        lo = 0 if kind == "B" else 1  # type D drops the pairs (-i, i)
        pairs += [(-a, j) for a in range(1, n + 1) for j in range(a + lo, n + 1)]
    lefts, rights = ([pair[side] % (2 * n + 1) for pair in pairs] for side in (0, 1))
    return tuple(pairs), _getter(lefts), _getter(rights)


def _inversion_masks(us: Iterable[Sequence[int]], n: int, kind: str) -> Iterator[int]:
    # Each valid rank-n window's inversion flags as the digits of a binary
    # numeral, the first candidate pair highest: (i, j) is flagged when i
    # occurs after j in u as a permutation of {-n..-1, 1..n}; pos maps a value
    # to its index (window at 1..n, prefix at -n..-1; -x reads from the end)
    _, left, right = _inversion_pairs(n, kind)
    for u in us:
        pos = [0] * (2 * n + 1)
        for k, x in enumerate(u, start=1):
            pos[x] = k
            pos[-x] = -k
        flags = bytes(map(gt, left(pos), right(pos)))
        yield int(b"0" + flags.translate(_BINARY_DIGITS), 2)


def _checked(u: Sequence[int], kind: str) -> tuple[int, ...]:
    # u validated as an element of the given kind's group
    _check_kind(kind)
    return as_permutation(u) if kind == "A" else as_window(u)


def inversion_set(u: Sequence[int], kind: str = "A") -> frozenset[tuple[int, int]]:
    """Inversions of ``u`` in the given type, as one frozenset of pairs.

    A pair ``(i, j)`` with ``1 <= i < j <= n`` is positive; one with
    ``i < 0`` and ``1 <= |i| <= j <= n`` is negative (types B and D only).
    Type D takes any signed window, not only the even-signed ones of D_n.

    >>> sorted(inversion_set((-1, -2), "B"))
    [(-2, 2), (-1, 1), (-1, 2), (1, 2)]
    """
    u = _checked(u, kind)
    pairs = _inversion_pairs(len(u), kind)[0]
    [mask] = _inversion_masks([u], len(u), kind)
    return frozenset(itertools.compress(pairs, map(int, f"{mask:0{len(pairs)}b}")))


def inversion_count(u: Sequence[int], kind: str = "A") -> int:
    """Number of inversions of ``u`` in the given type."""
    return len(inversion_set(u, kind))


# ---------------------------------------------------------------------------
# Mates, smoothness, the chi decomposition


def mate(u: SignedPermutation) -> SignedPermutation:
    """The signed permutation differing from ``u`` only in the sign of the
    first window letter.  An involution.

    >>> mate((-2, 3, 1, 6, -4, -7, 5))
    (2, 3, 1, 6, -4, -7, 5)
    """
    if not u:
        raise ValueError("mate needs n >= 1")
    return (-u[0],) + tuple(u[1:])


def is_even_signed(u: SignedPermutation) -> bool:
    """True when the window has an even number of negative letters."""
    return sum(1 for x in u if x < 0) % 2 == 0


def is_smooth(u: SignedPermutation) -> bool:
    """True when the first two window letters have equal sign.

    Exactly one of ``u`` and ``mate(u)`` is smooth.  Needs ``n >= 2``.
    """
    if len(u) < 2:
        raise ValueError("smoothness needs n >= 2")
    return (u[0] > 0) == (u[1] > 0)


def _renaming(x: int, n: int, up: bool) -> tuple[int, ...]:
    # chi's renaming of the letters of B_n other than -x, x onto those of
    # B_(n-1), t -> t - [t > x] + [t < -x], or with up its inverse from the
    # letters of B_(n-1), t -> t + [t >= x] - [t <= -x]; as a tuple indexed
    # by letter, so a negative t reads entry len + t
    m = n - 1 if up else n
    letters = (*range(m + 1), *range(-m, 0))
    if up:
        return tuple(t + (t >= x) - (t <= -x) for t in letters)
    return tuple(t - (t > x) + (t < -x) for t in letters)


def _unsplit(x: int, renamed: tuple[int, ...]) -> SignedPermutation:
    # chi_inverse's last step: prepend x with the sign opposite to the
    # renamed first letter
    return (x if renamed[0] < 0 else -x, *renamed)


def chi(u: SignedPermutation) -> tuple[int, SignedPermutation]:
    """Split a non-smooth ``u`` into ``(|u_1|, renamed tail)``.

    The tail ``u_2 ... u_n`` is renamed by the unique order-preserving
    bijection from ``{-n..n} - {0, x, -x}`` onto ``{-(n-1)..n-1} - {0}``
    (signs survive, absolute values above ``x = |u_1|`` drop by one).
    Restricted to non-smooth windows this is a bijection onto
    ``[n] x B_{n-1}``.

    >>> chi((-2, 3, 1, 6, -4, -7, 5))
    (2, (2, 1, 5, -3, -6, 4))
    """
    u = as_window(u)
    if is_smooth(u):
        raise ValueError(f"chi is defined only on non-smooth windows: {u}")
    x = abs(u[0])
    return x, tuple(map(_renaming(x, len(u), False).__getitem__, u[1:]))


def chi_inverse(x: int, v: SignedPermutation) -> SignedPermutation:
    """The unique non-smooth ``u`` with ``chi(u) = (x, v)``.

    Renames ``v`` so neither ``x`` nor ``-x`` occurs, then prepends ``x``
    with the sign opposite to the renamed first letter.

    >>> chi_inverse(3, (-1, 5, -4, 2, 3))
    (3, -1, 6, -5, 2, 4)
    """
    if not v:
        raise ValueError("chi_inverse needs n >= 2, so a nonempty v")
    n = len(v) + 1
    if not 1 <= x <= n:
        raise ValueError(f"x must lie in [{n}], got {x}")
    return _unsplit(x, tuple(map(_renaming(x, n, True).__getitem__, as_window(v))))


def audit_chi(n: int) -> tuple[int, str | None]:
    """Round trips of chi and its descent shift over its domain, the pairs
    (x, v) of [n] x B_(n-1) (n >= 2): ``(n·|B_(n-1)|, None)``, or
    ``(0, message)`` naming the first x whose tables fail.  The renaming
    tables are checked once per x and the pairs they cover credited.
    chi_inverse's table must send B_(n-1)'s letters in order onto B_n's
    other than -x and x, and chi's undo it, so u = chi_inverse(x, v) has
    v's descents in u_2 ... u_n and chi gives (x, v) back: chi^-1 is
    injective.  ``_unsplit`` must sign x opposite to u_2, so u is non-smooth
    and (0, u_1, u_2) has one descent.  The n·|B_(n-1)| = |B_n| / 2 images
    are then all the non-smooth windows (mates pair each smooth window
    with a non-smooth one): chi^-1 is onto and chi its inverse."""
    check_enumeration_cap(n)
    if n < 2:
        raise ValueError("chi needs n >= 2")
    letters = [*range(1 - n, 0), *range(1, n)]
    for x in range(1, n + 1):
        image = list(map(_renaming(x, n, True).__getitem__, letters))
        if not (
            image == [t for t in range(-n, n + 1) if t and abs(t) != x]
            and list(map(_renaming(x, n, False).__getitem__, image)) == letters
            and all(_unsplit(x, (t,)) == (x if t < 0 else -x, t) for t in image)
        ):
            return 0, f"chi renaming tables broke at x = {x}"
    return n * group_order(n - 1, "B"), None


def audit_chi_cost(n: int) -> int:
    """:func:`audit_chi`'s renaming table entries, 2(n - 1) for each x: 2n(n - 1)."""
    check_enumeration_cap(n)
    return 2 * n * (n - 1)


def window_decomposition(u: SignedPermutation) -> tuple[Permutation, frozenset[int]]:
    """Factor the window as ``iota o w``: pattern permutation and image.

    ``w`` is the permutation of [n] with the same relative order as the
    window, and the returned set is the positive part of the image of the
    order-preserving injection ``iota`` (i.e. the positive window letters).
    The strictly positive type B descents of ``u`` are exactly the type A
    descents of ``w``.

    >>> window_decomposition((3, -4, 1, -2, -5))
    ((5, 2, 4, 3, 1), frozenset({1, 3}))
    """
    u = as_window(u)
    rank = {x: r for r, x in enumerate(sorted(u), start=1)}
    w = tuple(rank[x] for x in u)
    return w, frozenset(x for x in u if x > 0)


# ---------------------------------------------------------------------------
# Enumeration


def group_order(n: int, kind: str = "A") -> int:
    """|A_n| = n!, |B_n| = 2^n n!, |D_n| = 2^(n-1) n!."""
    _check_kind(kind)
    if n < 0 or (kind == "D" and n < 1):
        raise ValueError(f"group order undefined for kind {kind}, n = {n}")
    if kind == "A":
        return factorial(n)
    if kind == "B":
        return 2**n * factorial(n)
    return 2 ** (n - 1) * factorial(n)


def check_enumeration_cap(n: int) -> None:
    """Refuse an exhaustive walk over a rank-n family with n < 0 or n above the cap."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_ENUMERATION_N:
        raise ValueError(f"n = {n} exceeds the enumeration cap {MAX_ENUMERATION_N}")


def enumerate_group(n: int, kind: str = "A") -> Iterator[tuple[int, ...]]:
    """Yield the elements of A_n/B_n/D_n in window-lexicographic order.

    Words are compared as integer tuples, so the all-negative window
    (-n, ..., -1) comes first and the decreasing positive window
    (n, ..., 1) last.  The signed windows come from a recursive walk: each
    position takes the free letters in increasing order, the negatives of
    the free absolute values before them, and the walk carries the parity
    of the negative letters placed.  With two absolute values a < b left,
    the last two positions read the eight windows of B_2 in order, and
    type D keeps the four that leave an even number of negative letters.

    >>> list(enumerate_group(2, "D"))
    [(-2, -1), (-1, -2), (1, 2), (2, 1)]
    """
    check_enumeration_cap(n)
    group_order(n, kind)  # refuses a kind or rank with no group
    if kind == "A":
        # itertools.permutations already yields in lexicographic order.
        yield from itertools.permutations(range(1, n + 1))
        return
    if n < 2:  # B_0 = {()}; B_1 = {(-1,), (1,)}, of which D_1 keeps (1,)
        yield from [()] if n == 0 else [(1,)] if kind == "D" else [(-1,), (1,)]
        return
    # keep[odd]: the B_2 tails kept after a prefix with that parity of
    # negative letters; type D keeps those that leave an even number
    keep = [[kind == "B" or t == odd for t in (0, 1, 0, 1, 1, 0, 1, 0)] for odd in (0, 1)]

    def walk(prefix: SignedPermutation, free: tuple[int, ...], odd: bool) -> Iterator:
        if len(free) == 2:
            a, b = free
            tails = ((-b, -a), (-b, a), (-a, -b), (-a, b), (a, -b), (a, b), (b, -a), (b, a))
            yield from map(prefix.__add__, itertools.compress(tails, keep[odd]))
            return
        rests = [free[:i] + free[i + 1:] for i in range(len(free))]
        for x, rest in zip(free[::-1], rests[::-1]):
            yield from walk((*prefix, -x), rest, not odd)
        for x, rest in zip(free, rests):
            yield from walk((*prefix, x), rest, odd)

    yield from walk((), tuple(range(1, n + 1)), False)


# ---------------------------------------------------------------------------
# Text forms


def _integers(parts: Iterable[str], what: str) -> list[int]:
    # the parts as integers; the first that is not one is named, with what it is
    out = []
    for part in parts:
        try:
            out.append(int(part))
        except ValueError:
            raise ValueError(f"{what} is not an integer: {part!r}") from None
    return out


def parse_signed(text: str) -> SignedPermutation:
    """Parse a window from the comma form or the compact digit form.

    The comma form ("-2,3,1,6,-4,-7,5") works for every n; the compact
    form ("-231" for (-2, 3, 1)) only for n <= 9.

    >>> parse_signed("-2,3,1,6,-4,-7,5")
    (-2, 3, 1, 6, -4, -7, 5)
    >>> parse_signed("-231")
    (-2, 3, 1)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty signed-permutation text")
    if "," in text:
        return as_window(_integers(text.split(","), f"a letter of {text!r}"))
    letters = []
    sign = 1
    for ch in text:
        if ch == "-":
            if sign < 0:
                raise ValueError(f"dangling sign in {text!r}")
            sign = -1
        elif ch.isdigit() and ch != "0":
            letters.append(sign * int(ch))
            sign = 1
        elif ch.isspace():
            continue
        else:
            raise ValueError(f"unexpected character {ch!r} in {text!r}")
    if sign < 0:
        raise ValueError(f"dangling sign in {text!r}")
    return as_window(tuple(letters))


def format_signed(u: Sequence[int]) -> str:
    """Canonical comma form of a window.

    >>> format_signed((-2, 3, 1))
    '-2,3,1'
    """
    return ",".join(str(x) for x in u)
