"""Barred permutations and their correspondence with signed permutations.

A *simply barred permutation* is a pair ``(w, B)`` of a permutation ``w``
of [n] and a set of bar positions ``B`` inside ``{1..n}``; a bar at
position ``i`` sits after the ``i``-th letter, so the bars cut ``w`` into
``|B| + 1`` blocks of which only the last may be empty (bar at ``n``).
A *loosely barred permutation* also admits a bar at position ``0``.

The map ``psi`` turns ``(w, B)`` into a signed permutation: the bars
determine a diagonal-symmetric lattice path (the upper antidiagonal of the
subgrid spanned by ``B``) and ``w`` labels its columns.  Its inverse reads
the bars off the East-South turns of the path of ``u``.  Two counting
formulas come with it: the signed permutation ``psi(w, B)`` has

* ``|Desc(w) - B| + ceil(|B| / 2)`` type B descents, and
* ``|Desc(w) - B| + floor(|B| / 2)`` strictly positive type B descents,

so descent classes of signed permutations can be enumerated on the barred
side without ever building ``psi``.  The map ``theta`` reduces loosely
barred permutations to simply barred ones through the two-to-one map
``xi_D(B) = (D symmetric-difference B) - {0}`` with ``D = Desc(w)``; its
one-sided inverses pick the preimage prescribed by the parity bookkeeping
of ``descent_sum``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
import operator
from operator import itemgetter
from typing import ClassVar, Iterable, Iterator

from .pathrep import LatticePath
from .sgnperm import (
    MAX_ENUMERATION_N,
    Permutation,
    SignedPermutation,
    _getter,
    _integers,
    as_permutation,
    as_window,
    check_enumeration_cap,
    descent_count,
    descent_set,
    group_order,
)
from . import pathrep

__all__ = [
    "SimplyBarredPermutation",
    "LooselyBarredPermutation",
    "SbpClassification",
    "upper_antidiagonal",
    "psi",
    "psi_inverse",
    "descB_formula",
    "positive_descB_formula",
    "xi",
    "xi_preimages",
    "theta",
    "theta_inverse",
    "descent_sum",
    "blocks",
    "central_block_index",
    "central_block",
    "classify_sbp",
    "enumerate_sbp",
    "enumerate_lbp",
    "parse_sbp",
    "format_sbp",
    "audit_psi",
    "audit_theta",
    "audit_theta_cost",
]


@dataclass(frozen=True)
class _Barred:
    # both barred kinds, which differ only in the lowest position of a bar
    _lowest_bar: ClassVar[int]
    w: Permutation
    bars: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", as_permutation(self.w))
        object.__setattr__(self, "bars", frozenset(self.bars))
        lo, n = self._lowest_bar, len(self.w)
        if not all(lo <= b <= n for b in self.bars):
            raise ValueError(f"bars must lie in {lo}..{n}: {sorted(self.bars)}")


class SimplyBarredPermutation(_Barred):
    """A permutation with bars at positions from ``{1..n}``."""

    _lowest_bar = 1


class LooselyBarredPermutation(_Barred):
    """A permutation with bars at positions from ``{0..n}``."""

    _lowest_bar = 0


def _trusted(cls, **fields):
    # An instance of a frozen dataclass from fields that are valid by
    # construction: skips the checks of __post_init__, which the public
    # constructors keep.  Fields must already have their normal form
    # (tuples, frozensets, sorted edge pairs) so equality and hashing agree.
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


# ---------------------------------------------------------------------------
# psi and the descent formulas


def upper_antidiagonal(bars: Iterable[int], n: int) -> LatticePath:
    """The staircase hugging the antidiagonal of the subgrid spanned by bars.

    With ``B = {b_1 < ... < b_m}`` the path runs from ``(0, n)`` down to
    ``(0, b_m)``, then alternates East runs through the abscissas ``b_i``
    with South runs through the ordinates ``b_{m+1-i}``, and finishes East
    to ``(n, 0)``.  It is diagonal-symmetric with exactly ``m`` East-South
    turns; no bars give the extreme path of all South steps first.

    >>> upper_antidiagonal({2, 3, 6}, 7)
    'SEESSSESEEESSE'
    >>> upper_antidiagonal((), 3)
    'SSSEEE'
    """
    b = sorted(set(bars))
    if b and not (1 <= b[0] and b[-1] <= n):
        raise ValueError(f"bars must lie in 1..{n}: {b}")
    m = len(b)
    lo = [0] + b  # b_0 = 0
    top = b[-1] if b else 0
    out = [pathrep.SOUTH * (n - top)]
    for i in range(1, m + 1):
        out.append(pathrep.EAST * (lo[i] - lo[i - 1]))
        out.append(pathrep.SOUTH * (lo[m + 1 - i] - lo[m - i]))
    out.append(pathrep.EAST * (n - top))
    return "".join(out)


# A plan is an itemgetter over ``(*seq, *-seq)``: index ``i`` picks
# ``seq[i]`` and index ``n + i`` picks ``-seq[i]``.  psi and its inverse are
# fixed signed position maps, derived once from the bars or from the sign
# pattern of the window and then applied to any letters.


def _apply(plan: itemgetter, seq: tuple[int, ...]) -> tuple[int, ...]:
    return plan((*seq, *map(operator.neg, seq)))


@functools.lru_cache(maxsize=2**MAX_ENUMERATION_N)
def _psi_plan(bars: frozenset[int], n: int) -> itemgetter:
    # Cached: psi, threshold.signed_from_tg and audit_psi meet the same
    # 2^n bar sets of a rank over and over.  The blocks outward from the
    # cut after the first ceil(|bars| / 2) of them: right ones kept, left
    # ones reversed and negated; the walk starts on the left when |bars|
    # is odd
    cuts = [0, *sorted(bars), n]
    lo = hi = (len(cuts) - 1) // 2
    left = len(cuts) % 2 == 1
    picks: list[int] = []
    for _ in range(len(cuts) - 1):
        if left:
            lo -= 1
            picks += range(n + cuts[lo + 1] - 1, n + cuts[lo] - 1, -1)
        else:
            picks += range(cuts[hi], cuts[hi + 1])
            hi += 1
        left = not left
    return _getter(picks)


def _psi_inverse_plan(u: SignedPermutation) -> tuple[itemgetter, frozenset[int]]:
    # Reads only the signs of u.  w is the negative letters read backwards
    # (the left blocks), then the positive ones (the right blocks).  With
    # neg negative letters in all, a run of negative letters that has a
    # negative and b positive letters before it starts the left block that
    # ends at neg - a and follows the right block that ends at neg + b:
    # those are the bars.
    n = len(u)
    lefts: list[int] = []
    rights: list[int] = []
    runs = []
    prev = 1
    for k, x in enumerate(u):
        if x < 0:
            if prev > 0:
                runs.append((len(lefts), len(rights)))
            lefts.append(n + k)
        else:
            rights.append(k)
        prev = x
    neg = len(lefts)
    bars = frozenset([neg - a for a, _ in runs] + [neg + b for _, b in runs])
    lefts.reverse()
    return _getter(lefts + rights), bars


def psi(sbp: SimplyBarredPermutation) -> SignedPermutation:
    """The signed permutation whose path is the bar staircase of ``sbp``
    and whose column labels are ``sbp.w``.

    With blocks ``B_0, ..., B_m`` the staircase runs
    ``S^|B_m| E^|B_0| S^|B_(m-1)| E^|B_1| ... S^|B_0| E^|B_m|``, so the
    full notation is ``-rev(B_m) B_0 -rev(B_(m-1)) B_1 ... -rev(B_0) B_m``.
    Its second half, the window, reads the blocks outward from the cut
    after the first ``ceil(m / 2)`` of them, alternating between blocks
    to the right (kept) and to the left (negated and reversed) and
    starting on the left when ``m`` is odd.  So with ``neg`` negative
    letters, the positive ones are ``w[neg:]`` in order and the negative
    ones ``-w[neg-1], ..., -w[0]``.  The bars alone fix where each letter
    goes and with which sign; no step word is built.

    >>> psi(SimplyBarredPermutation((7, 4, 2, 3, 1, 6, 5), frozenset({2, 3, 6})))
    (-2, 3, 1, 6, -4, -7, 5)
    """
    return _apply(_psi_plan(sbp.bars, len(sbp.w)), sbp.w)


def psi_inverse(u: SignedPermutation) -> SimplyBarredPermutation:
    """Recover ``(w, B)`` from the path of ``u``: ``w`` is the column
    labelling and each East-South turn contributes a bar at its abscissa.
    Both depend only on which letters of ``u`` are negative.

    >>> psi_inverse((-2, 3, 1, 6, -4, -7, 5))
    SimplyBarredPermutation(w=(7, 4, 2, 3, 1, 6, 5), bars=frozenset({2, 3, 6}))
    """
    u = as_window(u)
    plan, bars = _psi_inverse_plan(u)
    return _trusted(SimplyBarredPermutation, w=_apply(plan, u), bars=bars)


def _descB(d: frozenset[int], bars: frozenset[int], ceil: bool) -> int:
    # descB_formula (ceil) or positive_descB_formula (floor) with d = Desc(w)
    return len(d - bars) + (len(bars) + ceil) // 2


def descB_formula(sbp: SimplyBarredPermutation) -> int:
    """Type B descents of ``psi(sbp)``, without building it.

    >>> descB_formula(SimplyBarredPermutation((7, 4, 2, 3, 1, 6, 5), frozenset({2, 3, 6})))
    4
    """
    return _descB(descent_set(sbp.w, "A"), sbp.bars, True)


def positive_descB_formula(sbp: SimplyBarredPermutation) -> int:
    """Strictly positive type B descents of ``psi(sbp)``: position 0 is a
    descent exactly when the number of bars is odd, so the ceiling in
    ``descB_formula`` drops to a floor."""
    return _descB(descent_set(sbp.w, "A"), sbp.bars, False)


def _reads_desc(plan: itemgetter, n: int) -> bool:
    # whether plan's images have descents fixed by Desc(w): 0 and letters of
    # opposite signs compare by sign, so picks of one sign must be neighbours
    picks = plan(range(2 * n))
    return all(abs(p - q) == 1 for p, q in zip(picks, picks[1:]) if (p < n) == (q < n))


def audit_psi(n: int) -> tuple[int, str | None]:
    """Round trips of psi and ``descB_formula`` over the simply barred side:
    ``(count, None)``, or the count and a message at the first failure.
    The plans are fixed position maps on (*w, *-w), whose 2n entries are
    distinct, so they give every w back when they give one.  Once no plan
    sets two letters of one sign side by side unless they are neighbours in
    w, an image's descents depend on w only through Desc(w).  So each
    descent class is checked at its first w, once per bar set, and its
    other members are credited.  A failure is named after
    ``rank * 2^n + index of the bar set``, the count of a walk over
    :func:`enumerate_sbp` that checks every element.  A plan that fails its
    check is a failure naming its bar set, after the identity's class.
    The round trips make psi injective and its 2^n n! images fill B_n, so
    psi^-1's |B_n| round trips are credited too."""
    check_enumeration_cap(n)
    # psi negates the positions its bars fix, so the images of a bar set
    # share the signs psi^-1's plan reads: it is derived once per bar set.
    # -u is the plan read from (*-w, *w); no window built here is validated.
    subsets = list(_subsets(list(range(1, n + 1))))
    forward = [_psi_plan(bars, n) for bars in subsets]
    backs = [_psi_inverse_plan(_apply(plan, (1,) * n)) for plan in forward]
    for i, (rank, w, d) in enumerate(_descent_classes(n)):
        if i == 1:  # after the identity's class, its only member, before any credit
            for bars, plan in zip(subsets, forward):
                if not _reads_desc(plan, n):
                    return len(subsets), (
                        f"psi plan reads more than Desc(w) at bars {sorted(bars)}")
        checked = rank * len(subsets)
        table = (*w, *map(operator.neg, w))
        for bars, plan, (back, back_bars) in zip(subsets, forward, backs):
            u = plan(table)
            if back_bars != bars or back(u + plan(table[n:] + w)) != w:
                sbp = _trusted(SimplyBarredPermutation, w=w, bars=bars)
                return checked, f"psi round trip broke at {format_sbp(sbp)}"
            if descent_count(u, "B") != _descB(d, bars, True):
                sbp = _trusted(SimplyBarredPermutation, w=w, bars=bars)
                return checked, f"descent formula broke at {format_sbp(sbp)}"
            checked += 1
    return 2 * group_order(n, "B"), None


# ---------------------------------------------------------------------------
# xi and theta


_ZERO = frozenset({0})


def xi(d: Iterable[int], bars: Iterable[int]) -> frozenset[int]:
    """``(D symmetric-difference B) - {0}``; two-to-one in ``B``.

    >>> sorted(xi({1, 3}, {0, 1}))
    [3]
    """
    return _xi(frozenset(d), frozenset(bars))


def xi_preimages(d: Iterable[int], c: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
    """The two ``xi``-preimages of ``c``: ``D delta C`` and its union with 0."""
    b1 = frozenset(set(d) ^ set(c))
    if 0 in b1:
        raise ValueError("c must be a subset of [n], not contain 0")
    return b1, b1 | {0}


# The private cores take d = Desc(w) so that a caller walking many bar
# sets of one w computes it once.


def _xi(d: frozenset[int], bars: frozenset[int]) -> frozenset[int]:
    return (d ^ bars) - _ZERO


def _theta_inverse(
    d: frozenset[int], bars: frozenset[int], k: int, even: bool
) -> frozenset[int] | None:
    # the bars of the theta-preimage of (w, bars) with descent sum 2k
    # (even) or 2k + 1, or None if (w, bars) is not in the class; the
    # parity of |bars| decides which xi-preimage it is
    if _descB(d, bars, even) != k:
        return None
    return d ^ bars if (len(bars) % 2 == 0) == even else (d ^ bars) | _ZERO


def theta(lbp: LooselyBarredPermutation) -> SimplyBarredPermutation:
    """Forget the loose bar structure through ``xi`` with ``D = Desc(w)``."""
    c = _xi(descent_set(lbp.w, "A"), lbp.bars)
    return _trusted(SimplyBarredPermutation, w=lbp.w, bars=c)


def descent_sum(lbp: LooselyBarredPermutation) -> int:
    """The grading ``des(w) + |B|`` that theta's inverses are indexed by."""
    return len(descent_set(lbp.w, "A")) + len(lbp.bars)


def theta_inverse(
    sbp: SimplyBarredPermutation, k: int, sum_parity: str = "even"
) -> LooselyBarredPermutation:
    """The unique theta-preimage with ``des(w) + |B| = 2k`` or ``2k + 1``.

    With ``sum_parity="even"`` the input must satisfy
    ``descB_formula(sbp) = k`` and the preimage has descent sum ``2k``;
    with ``"odd"`` it must satisfy ``positive_descB_formula(sbp) = k`` and
    the preimage has descent sum ``2k + 1``.  Which of the two candidate
    bar sets works is decided by the parity of ``|bars|``.
    """
    if sum_parity not in ("even", "odd"):
        raise ValueError(f"sum_parity must be 'even' or 'odd': {sum_parity!r}")
    even = sum_parity == "even"
    bars = _theta_inverse(descent_set(sbp.w, "A"), sbp.bars, k, even)
    if bars is None:
        cls = "descent class" if even else "positive-descent class"
        raise ValueError(f"{sbp} is not in the {cls} k = {k} ({sum_parity} sum)")
    return _trusted(LooselyBarredPermutation, w=sbp.w, bars=bars)


def audit_theta(n: int) -> tuple[int, str | None]:
    """Round trips of theta and ``theta_inverse`` over the loosely barred
    side, each image in the class its descent sum names; as
    :func:`audit_psi`.  theta, the descent sum, the class formulas and
    theta's inverse see w only through Desc(w), so each descent class is
    checked at its first w with all 2^(n+1) bar sets, and its other members
    are credited."""
    check_enumeration_cap(n)
    subsets = list(_subsets(list(range(n + 1))))
    for rank, w, d in _descent_classes(n):
        checked = rank * len(subsets)
        for bars in subsets:
            c = _xi(d, bars)
            s = len(d) + len(bars)
            k, even = s // 2, s % 2 == 0
            if _descB(d, c, even) != k:
                lbp = _trusted(LooselyBarredPermutation, w=w, bars=bars)
                return checked, f"theta image off the target set at {lbp}"
            if _theta_inverse(d, c, k, even) != bars:
                lbp = _trusted(LooselyBarredPermutation, w=w, bars=bars)
                return checked, f"theta round trip broke at {lbp}"
            checked += 1
    return len(subsets) * math.factorial(n), None


def audit_theta_cost(n: int) -> int:
    """:func:`audit_theta`'s checks: 2^(n+1) bar sets for each of the
    2^(n-1) descent classes (one at n = 0), 4^n from n = 1 on.
    :func:`audit_psi` checks half as many bar sets."""
    check_enumeration_cap(n)
    return 2 ** (max(n - 1, 0) + n + 1)


# ---------------------------------------------------------------------------
# Blocks


def blocks(sbp: SimplyBarredPermutation) -> list[tuple[int, ...]]:
    """The maximal bar-free runs of letters, in order.

    There are ``|bars| + 1`` of them; only the last may be empty.

    >>> blocks(SimplyBarredPermutation((7, 4, 2, 3, 1, 6, 5), frozenset({2, 3, 6})))
    [(7, 4), (2,), (3, 1, 6), (5,)]
    """
    n = len(sbp.w)
    cuts = [0] + sorted(sbp.bars) + [n]
    return [tuple(sbp.w[a:b]) for a, b in itertools.pairwise(cuts)]


def central_block_index(sbp: SimplyBarredPermutation) -> int:
    """1-based index ``ceil((|bars| + 1) / 2)`` of the central block."""
    return (len(sbp.bars) + 2) // 2


def central_block(sbp: SimplyBarredPermutation) -> tuple[int, ...]:
    """The central block; never the empty last one when bars exist."""
    return blocks(sbp)[central_block_index(sbp) - 1]


@dataclass(frozen=True)
class SbpClassification:
    normal: bool
    compatible: bool


def classify_sbp(sbp: SimplyBarredPermutation) -> SbpClassification:
    """Normality (blocks increasing) and compatibility (central block >= 2).

    Compatibility is equivalent to smoothness of ``psi(sbp)``.

    >>> classify_sbp(SimplyBarredPermutation((7, 4, 2, 3, 1, 6, 5), frozenset({2, 3, 6})))
    SbpClassification(normal=False, compatible=False)
    """
    bs = blocks(sbp)
    normal = all(a < b for blk in bs for a, b in itertools.pairwise(blk))
    return SbpClassification(normal, len(bs[central_block_index(sbp) - 1]) >= 2)


# ---------------------------------------------------------------------------
# Enumeration and text forms


def _subsets(ground: list[int]) -> Iterator[frozenset[int]]:
    for r in range(len(ground) + 1):
        for combo in itertools.combinations(ground, r):
            yield frozenset(combo)


def _descent_classes(n: int) -> list[tuple[int, Permutation, frozenset[int]]]:
    # (rank, w, D) for each D within [n - 1], in rank order: w is the first
    # permutation of itertools.permutations' order with Desc(w) = D, the
    # identity with each maximal run of consecutive descents reversed, and
    # rank its index in that order, read off its Lehmer code
    classes = []
    for d in _subsets(list(range(1, n))):
        w: list[int] = []
        for i in range(1, n + 1):
            if i not in d:  # a run ends at position i
                w += range(i, len(w), -1)
        rank = sum(
            sum(y < x for y in w[k + 1:]) * math.factorial(n - 1 - k) for k, x in enumerate(w)
        )
        classes.append((rank, tuple(w), d))
    return sorted(classes)


def _enumerate_barred(n: int, cls: type[_Barred]) -> Iterator:
    # each w in lexicographic order, with every bar set inside cls._lowest_bar..n
    check_enumeration_cap(n)
    subsets = list(_subsets(list(range(cls._lowest_bar, n + 1))))
    for w in itertools.permutations(range(1, n + 1)):
        for bars in subsets:
            yield _trusted(cls, w=w, bars=bars)


def enumerate_sbp(n: int) -> Iterator[SimplyBarredPermutation]:
    """All ``2^n n!`` simply barred permutations of [n]."""
    return _enumerate_barred(n, SimplyBarredPermutation)


def enumerate_lbp(n: int) -> Iterator[LooselyBarredPermutation]:
    """All ``2^(n+1) n!`` loosely barred permutations of [n]."""
    return _enumerate_barred(n, LooselyBarredPermutation)


def parse_sbp(text: str) -> SimplyBarredPermutation:
    """Parse the bar form, e.g. ``"74|2|316|5"`` or ``"7,4|2|3,1,6|5|"``.

    A trailing bar marks an empty last block; other empty blocks are
    rejected (consecutive bars are not allowed).  Blocks without commas
    are read digit by digit only in text of at most nine digits: n <= 9
    takes no more, n >= 10 at least eleven.
    """
    text = text.strip()
    segments = text.split("|")
    trailing_empty = segments and segments[-1] == ""
    if trailing_empty:
        segments = segments[:-1]
    if any(seg == "" for seg in segments):
        raise ValueError(f"consecutive bars are not allowed: {text!r}")
    compact = sum(ch.isdigit() for ch in text) <= 9
    letters: list[int] = []
    bars: set[int] = set()
    what = f"a letter of {text!r}"
    for seg in segments:
        if "," in seg or not compact:
            letters += _integers(seg.split(","), what)
        else:
            letters += _integers((ch for ch in seg if not ch.isspace()), what)
        bars.add(len(letters))
    n = len(letters)
    if not trailing_empty:
        bars.discard(n)
    return SimplyBarredPermutation(tuple(letters), frozenset(bars))


def format_sbp(sbp: SimplyBarredPermutation) -> str:
    """Render with '|' bars; compact digits for n <= 9, commas beyond.

    >>> format_sbp(SimplyBarredPermutation((7, 4, 2, 3, 1, 6, 5), frozenset({2, 3, 6})))
    '74|2|316|5'
    """
    sep = "" if len(sbp.w) <= 9 else ","
    return "|".join(sep.join(str(x) for x in blk) for blk in blocks(sbp))
