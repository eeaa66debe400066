"""Finite posets: weak orders on (signed) permutation groups and the
componentwise order on threshold pairs.

A :class:`FinitePoset` holds its order relation as integer bitmasks over a
linear extension of the elements: one down-set and one up-set per element.
The generic constructor takes an element list and a comparison callable
and makes N^2 calls to it.  The weak and threshold-pair posets are
containment orders, so they are built from feature masks instead: each
element is an int over its M features (inversion pairs, plus edges for
threshold pairs), and with col(f) the bitmask of the elements having
feature f, down(b) = ALL & ~OR{col(f) : f not in mask(b)}.  The columns
come from transposing the masks' bit strings, and each run of 8 features
has one table of the unions of its columns, so the down-sets take
N*ceil(M/8) table reads.  Both constructors list the elements in the
linear extension by down-set size (ties by input order), and the build
runs the same distinctness, reflexivity, antisymmetry and transitivity
checks on it; a list that is no linear extension fails the antisymmetry
check.  The transitivity check peels the highest-ranked element off each
strict down-set, which yields the lower covers; the up-sets are unions
along them.

A finite bounded poset is a lattice as soon as any two elements covering
a common element have a join (Bjorner, Edelman and Ziegler, *Hyperplane
arrangements with a lattice of regions*, Discrete Comput. Geom. 5 (1990),
Lemma 2.1), so the lattice check of a bounded poset tests only those
pairs.  Otherwise it scans every pair, which also finds a witness.
Join-irreducibility counts lower covers.

The weak order on a group of kind A/B/D is containment of inversion sets;
its cover relations step one inversion at a time, and the number of lower
covers of an element equals its descent count.  The threshold-pair poset
orders pairs (w, E) componentwise, weak order of type A on w and inclusion
on E: a mask is the threshold walk's edge mask of E shifted above inv(w).
Cover lists and DOT files label each element once.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Callable, Hashable, Sequence

from .sgnperm import (
    _checked, _inversion_masks, _inversion_pairs, check_enumeration_cap, enumerate_group,
    group_order, is_even_signed,
)
from . import _Record
from .threshold import ThresholdPair, _tg_walk

__all__ = [
    "FinitePoset",
    "LatticeReport",
    "MAX_POSET_BITS",
    "poset_cost",
    "weak_leq",
    "weak_poset",
    "tg_poset",
    "tg_order_leq",
    "order_isomorphism_check",
]

MAX_POSET_BITS = 2**32  # the most a build stores: B_6 and A_8 fit, no rank-7 B, D or TG


class LatticeReport(_Record):
    """Outcome of a lattice check.

    When ``is_lattice`` is false, ``witness`` holds a pair of elements
    lacking a meet or a join and ``missing`` says which bound failed.
    """

    def __init__(self, is_lattice: bool, witness: tuple[Hashable, Hashable] | None = None,
                 missing: str | None = None) -> None:
        vars(self).update(is_lattice=is_lattice, witness=witness, missing=missing)


class FinitePoset:
    """An explicit finite poset over hashable elements.

    >>> divisors = [1, 2, 3, 4, 6, 12]
    >>> p = FinitePoset(divisors, lambda a, b: b % a == 0)
    >>> sorted(p.covers())
    [(1, 2), (1, 3), (2, 4), (2, 6), (3, 6), (4, 12), (6, 12)]
    >>> p.lattice_check().is_lattice
    True
    >>> p.join_irreducible_count()
    3
    """

    def __init__(
        self, elements: Sequence[Hashable], leq: Callable[[Hashable, Hashable], bool]
    ):
        items = list(elements)
        downs = [sum(1 << i for i, a in enumerate(items) if leq(a, b)) for b in items]
        # list the elements in the linear extension that _build requires
        order = _extension_order(downs)
        self._build(
            [items[b] for b in order],
            [sum(1 << i for i, a in enumerate(order) if downs[b] >> a & 1) for b in order],
        )

    @classmethod
    def _from_masks(cls, elements: Sequence, masks: list[int], width: int) -> FinitePoset:
        """The containment order: a <= b iff mask a lies inside mask b.
        ``masks`` runs parallel to ``elements`` and holds ints below 2**width."""
        # list the elements in the linear extension that _build requires
        order = _extension_order(_containment_downs(masks, width))
        poset = cls.__new__(cls)
        poset._build(
            [elements[i] for i in order], _containment_downs([masks[i] for i in order], width)
        )
        return poset

    def _build(self, items: list[Hashable], downs: list[int]) -> None:
        # downs[b] has bit a set iff items[a] <= items[b]; the items come in
        # a linear extension, or the antisymmetry check below fails
        n = len(items)
        self._index = {e: i for i, e in enumerate(items)}
        if len(self._index) != n:
            raise ValueError("poset elements must be distinct")
        for i, mask in enumerate(downs):
            if not (mask >> i) & 1:
                raise ValueError("the order relation is not reflexive")
            if mask >> (i + 1):
                raise ValueError("the order relation is not antisymmetric/transitive"
                                 " with respect to itself")
        # Transitivity, finding the lower covers on the way.  The
        # highest-ranked element left in a strict down-set is maximal in
        # it, so a lower cover; once its down-set is seen to lie inside,
        # all of that down-set is settled (by induction along the
        # extension) and is peeled off.
        lower = []
        for b, db in enumerate(downs):
            rest = db ^ (1 << b)
            found = []
            while rest:
                a = rest.bit_length() - 1
                if downs[a] & ~db:
                    raise ValueError("the order relation is not transitive")
                found.append(a)
                rest &= ~downs[a]
            found.reverse()
            lower.append(found)
        # up(a) is a plus the up-sets of its upper covers, settled top down
        ups = [1 << i for i in range(n)]
        for b in reversed(range(n)):
            for a in lower[b]:
                ups[a] |= ups[b]
        self._elements = items
        self._down = downs
        self._up = ups
        self._lower = lower

    def __len__(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> tuple[Hashable, ...]:
        """The elements, listed in a linear extension of the order."""
        return tuple(self._elements)

    def le(self, a: Hashable, b: Hashable) -> bool:
        """Whether a <= b in the poset."""
        if a not in self._index or b not in self._index:
            raise ValueError(f"{a!r} and {b!r} must both be elements of the poset")
        return bool((self._down[self._index[b]] >> self._index[a]) & 1)

    def covers(self, names: Sequence | None = None) -> list[tuple]:
        """All cover pairs (a, b): a < b with nothing strictly between; with
        ``names``, one per element in the order of ``elements``, their names."""
        names = self._elements if names is None else names
        return [(names[a], names[b]) for b, lower in enumerate(self._lower) for a in lower]

    def lower_cover_counts(self) -> dict[Hashable, int]:
        """Map each element to its number of lower covers."""
        return {e: len(lower) for e, lower in zip(self._elements, self._lower)}

    def _join(self, x: int, y: int) -> int | None:
        # the join, if any, is the lowest-ranked common upper bound, and it
        # is the join iff every common upper bound lies above it
        common = self._up[x] & self._up[y]
        if not common:
            return None
        m = (common & -common).bit_length() - 1
        return m if not (common & ~self._up[m]) else None

    def lattice_check(self) -> LatticeReport:
        """Exactly decide whether every pair has a meet and a join.

        A bounded poset in which every two upper covers of a common
        element have a join is a lattice (Bjorner-Edelman-Ziegler, Lemma
        2.1).  An unbounded poset, or a covering pair without a join,
        goes to the scan over all pairs, which names the first witness.
        """
        n = len(self._elements)
        everything = (1 << n) - 1
        if n and self._up[0] == everything and self._down[-1] == everything:
            upper: list[list[int]] = [[] for _ in range(n)]
            for b, lower in enumerate(self._lower):
                for a in lower:
                    upper[a].append(b)
            if all(
                self._join(x, y) is not None
                for covers in upper
                for x, y in combinations(covers, 2)
            ):
                return LatticeReport(True)
        return self._scan_pairs()

    def _scan_pairs(self) -> LatticeReport:
        # Every pair in turn.  In the linear extension a join of x and y,
        # if it exists, is the lowest-ranked common upper bound and a meet
        # the highest-ranked common lower bound, so one subset test per
        # pair settles each bound.
        n = len(self._elements)
        downs = self._down
        for x in range(n):
            for y in range(x + 1, n):
                if self._join(x, y) is None:
                    return LatticeReport(
                        False, (self._elements[x], self._elements[y]), "join"
                    )
                common = downs[x] & downs[y]
                if not common or common & ~downs[common.bit_length() - 1]:
                    return LatticeReport(
                        False, (self._elements[x], self._elements[y]), "meet"
                    )
        return LatticeReport(True)

    def join_irreducible_count(self) -> int:
        """Number of elements with exactly one lower cover.

        Only meaningful for lattices, so the lattice property is verified
        first and a non-lattice input is rejected.
        """
        report = self.lattice_check()
        if not report.is_lattice:
            raise ValueError(
                f"join-irreducibility needs a lattice; {report.missing} "
                f"missing for {report.witness}"
            )
        return sum(1 for lower in self._lower if len(lower) == 1)

    def to_dot(self, label: Callable[[Hashable], str] = str) -> str:
        """Hasse diagram in DOT format (edges point from lower to upper)."""
        names = list(map(label, self._elements))
        lines = ["digraph hasse {", "  rankdir=BT;", *(f'  "{x}";' for x in names)]
        lines += (f'  "{a}" -> "{b}";' for a, b in self.covers(names))
        lines.append("}")
        return "\n".join(lines)


def _extension_order(downs: list[int]) -> list[int]:
    # indices sorted by down-set size, ties by index: a linear extension,
    # since a < b forces down(a) to be a proper subset of down(b)
    return sorted(range(len(downs)), key=lambda i: downs[i].bit_count())


def _containment_downs(masks: list[int], width: int) -> list[int]:
    # bit a of down(b) is set iff masks[a] lies inside masks[b]: down(b) is
    # everything outside the columns of the features that b lacks.  Columns
    # come from the transposed bit strings; each run of 8 features has a
    # table of the unions of its columns, reversed so that the byte of
    # features b has reads the union over those it lacks.
    rows = [format(mask, f"0{width}b") for mask in reversed(masks)]
    columns = [int("".join(bits), 2) for bits in zip(*rows)][::-1]
    tables = []
    for start in range(0, width, 8):
        table = [0]
        for column in columns[start:start + 8]:
            table += [union | column for union in table]
        tables.append(table[::-1])
    everything = (1 << len(masks)) - 1
    downs = []
    for mask in masks:
        outside = 0
        for shift, table in zip(range(0, width, 8), tables):
            outside |= table[mask >> shift & 255]
        downs.append(everything ^ outside)
    return downs


def poset_cost(kind: str, n: int) -> int:
    """Relation bits that building the rank-n poset of ``kind`` stores: N^2,
    priced only for n in the enumeration cap 0..12.

    N is the group order for the weak orders "A", "B" and "D", and for
    "TG" it is |D_n| = 2^(n-1) n! (1 at n = 0): the pairs (w, E)
    correspond to the even-signed permutations.

    >>> poset_cost("B", 2), poset_cost("TG", 3)
    (64, 576)
    """
    check_enumeration_cap(n)
    size = group_order(max(n, 1), "D") if kind == "TG" else group_order(n, kind)
    return size * size


def _check_build(kind: str, n: int) -> None:
    if (bits := poset_cost(kind, n)) > MAX_POSET_BITS:
        raise ValueError(f"the {kind} poset at n={n} would store {bits} relation bits,"
                         f" over MAX_POSET_BITS = {MAX_POSET_BITS}")


def weak_leq(a: tuple[int, ...], b: tuple[int, ...], kind: str = "A") -> bool:
    """Weak order comparison of two windows of one rank: inversion-set containment.
    Type D compares the even-signed windows of D_n only.

    >>> weak_leq((2, 1, 3), (3, 1, 2))
    False
    >>> weak_leq((2, 1, 3), (2, 3, 1))
    True
    >>> weak_leq((1, -2), (-1, -2), kind="B")
    True
    """
    a, b = _checked(a, kind), _checked(b, kind)
    if len(a) != len(b):
        raise ValueError(f"weak order compares windows of one rank, got {a} and {b}")
    if kind == "D" and not (is_even_signed(a) and is_even_signed(b)):
        raise ValueError(f"type D weak order compares even-signed windows, got {a} and {b}")
    below, above = _inversion_masks((a, b), len(a), kind)
    return not below & ~above


def weak_poset(n: int, kind: str = "A") -> FinitePoset:
    """The weak order on the rank-n group of the given kind.

    >>> len(weak_poset(3).covers())
    6
    """
    _check_build(kind, n)
    elements = list(enumerate_group(n, kind))
    masks = list(_inversion_masks(elements, n, kind))
    return FinitePoset._from_masks(elements, masks, len(_inversion_pairs(n, kind)[0]))


def tg_order_leq(a: ThresholdPair, b: ThresholdPair) -> bool:
    """Componentwise comparison of threshold pairs of one rank.

    The degree-ordering components are compared in the weak order of type
    A and the edge sets by inclusion.
    """
    return weak_leq(a.w, b.w, "A") and a.edges <= b.edges


def tg_poset(n: int) -> FinitePoset:
    """The componentwise order on all threshold pairs of rank n.

    >>> len(tg_poset(2))
    4
    """
    _check_build("TG", n)
    # an edge of K_n is a candidate type A inversion, and the walk's edge mask
    # numbers the edges in the pairs' order: it sits above inv(w), C(n, 2) up
    elements, graphs = zip(*_tg_walk(n))
    words = {pair.w for pair in elements}
    inversions = dict(zip(words, _inversion_masks(words, n, "A")))
    masks = [inversions[p.w] | g << comb(n, 2) for p, g in zip(elements, graphs)]
    return FinitePoset._from_masks(elements, masks, 2 * comb(n, 2))


def order_isomorphism_check(
    p: FinitePoset, q: FinitePoset, mapping: Callable[[Hashable], Hashable]
) -> bool:
    """Whether ``mapping`` is an order isomorphism from p onto q.

    Checks bijectivity onto the elements of q and that comparisons are
    preserved and reflected on every pair.

    >>> p = FinitePoset([1, 2, 4], lambda a, b: b % a == 0)
    >>> q = FinitePoset([0, 1, 2], lambda a, b: a <= b)
    >>> order_isomorphism_check(p, q, {1: 0, 2: 1, 4: 2}.__getitem__)
    True
    """
    images = [mapping(e) for e in p.elements]
    if len(p) != len(q) or set(images) != set(q.elements):
        return False
    # p's down-set rows in q's indices, built up along p's lower covers,
    # against q's own rows
    f = [q._index[x] for x in images]
    rows: list[int] = []
    for a, lower in enumerate(p._lower):
        row = 1 << f[a]
        for c in lower:
            row |= rows[c]
        if row != q._down[f[a]]:
            return False
        rows.append(row)
    return True
