"""Finite posets: weak orders on (signed) permutation groups and the
componentwise order on threshold pairs.

A :class:`FinitePoset` wraps an explicit element list and a comparison
callable.  On construction it materializes the full order relation as
integer bitmasks over a linear extension of the elements, which makes the
derived computations cheap and exact: cover relations by interval
emptiness, lattice checks by a least-upper-bound scan that exploits the
extension order, and join-irreducibility by counting lower covers.

The weak order on a group of kind A/B/D is containment of inversion sets;
its cover relations step one inversion at a time, and the number of lower
covers of an element equals its descent count.  The threshold-pair poset
orders pairs (w, E) componentwise: weak order of type A on w, edge-set
inclusion on E.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from .sgnperm import enumerate_group, inversion_set
from .threshold import ThresholdPair, enumerate_tg

__all__ = [
    "FinitePoset",
    "LatticeReport",
    "weak_leq",
    "weak_poset",
    "tg_poset",
    "tg_order_leq",
    "order_isomorphism_check",
]


@dataclass(frozen=True)
class LatticeReport:
    """Outcome of a lattice check.

    When ``is_lattice`` is false, ``witness`` holds a pair of elements
    lacking a meet or a join and ``missing`` says which bound failed.
    """

    is_lattice: bool
    witness: tuple[Hashable, Hashable] | None = None
    missing: str | None = None


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
        if len(set(items)) != len(items):
            raise ValueError("poset elements must be distinct")
        n = len(items)
        downs = []
        for b in items:
            mask = 0
            for i, a in enumerate(items):
                if leq(a, b):
                    mask |= 1 << i
            downs.append(mask)
        for i in range(n):
            if not (downs[i] >> i) & 1:
                raise ValueError("the order relation is not reflexive")
        # sort by down-set size: a linear extension, since a < b forces
        # down(a) to be a proper subset of down(b)
        order = sorted(range(n), key=lambda i: (downs[i].bit_count(), i))
        rank_of = [0] * n
        for new, old in enumerate(order):
            rank_of[old] = new
        self._elements = [items[old] for old in order]
        self._index = {e: i for i, e in enumerate(self._elements)}
        self._down = [0] * n
        for old, mask in enumerate(downs):
            new_mask = 0
            while mask:
                low = mask & -mask
                new_mask |= 1 << rank_of[low.bit_length() - 1]
                mask ^= low
            self._down[rank_of[old]] = new_mask
        for i, mask in enumerate(self._down):
            if mask >> (i + 1):
                raise ValueError("the order relation is not antisymmetric/transitive"
                                 " with respect to itself")
        self._up = [0] * n
        for b in range(n):
            mask = self._down[b]
            while mask:
                low = mask & -mask
                self._up[low.bit_length() - 1] |= 1 << b
                mask ^= low
        for a in range(n):
            da = self._down[a]
            mask = da
            while mask:
                low = mask & -mask
                if self._down[low.bit_length() - 1] & ~da:
                    raise ValueError("the order relation is not transitive")
                mask ^= low
        self._covers: list[tuple[Hashable, Hashable]] | None = None

    def __len__(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> tuple[Hashable, ...]:
        """The elements, listed in a linear extension of the order."""
        return tuple(self._elements)

    def le(self, a: Hashable, b: Hashable) -> bool:
        """Whether a <= b in the poset."""
        return bool((self._down[self._index[b]] >> self._index[a]) & 1)

    def covers(self) -> list[tuple[Hashable, Hashable]]:
        """All cover pairs (a, b): a < b with nothing strictly between."""
        if self._covers is None:
            out = []
            for b in range(len(self._elements)):
                strict = self._down[b] & ~(1 << b)
                mask = strict
                while mask:
                    low = mask & -mask
                    a = low.bit_length() - 1
                    mask ^= low
                    # a is covered iff no other strict predecessor of b
                    # lies strictly above a
                    if not (strict & self._up[a] & ~(1 << a)):
                        out.append((self._elements[a], self._elements[b]))
            self._covers = out
        return list(self._covers)

    def lower_cover_counts(self) -> dict[Hashable, int]:
        """Map each element to its number of lower covers."""
        counts = {e: 0 for e in self._elements}
        for _, b in self.covers():
            counts[b] += 1
        return counts

    def _bound(self, x: int, y: int, rel: list[int]) -> int | None:
        # least element of rel-up(x) & rel-up(y), or None; rel is up for
        # joins, down (with bit order reversed implicitly by symmetry)
        common = rel[x] & rel[y]
        if not common:
            return None
        low = common & -common
        m = low.bit_length() - 1
        # m is the candidate in extension order; it is the bound iff it
        # relates to everything in the common set
        return m if not (common & ~rel[m]) else None

    def lattice_check(self) -> LatticeReport:
        """Exactly decide whether every pair has a meet and a join.

        The scan uses the linear extension: a join of x and y, if it
        exists, must be the lowest-ranked common upper bound, so one
        subset test per pair settles each bound.
        """
        n = len(self._elements)
        ups = self._up
        downs_rev = self._down
        for x in range(n):
            for y in range(x + 1, n):
                if self._bound(x, y, ups) is None:
                    return LatticeReport(
                        False, (self._elements[x], self._elements[y]), "join"
                    )
                common = downs_rev[x] & downs_rev[y]
                if not common:
                    return LatticeReport(
                        False, (self._elements[x], self._elements[y]), "meet"
                    )
                # the meet must be the highest-ranked common lower bound
                m = common.bit_length() - 1
                if common & ~downs_rev[m]:
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
        return sum(1 for c in self.lower_cover_counts().values() if c == 1)

    def to_dot(self, label: Callable[[Hashable], str] = str) -> str:
        """Hasse diagram in DOT format (edges point from lower to upper)."""
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for e in self._elements:
            lines.append(f'  "{label(e)}";')
        for a, b in self.covers():
            lines.append(f'  "{label(a)}" -> "{label(b)}";')
        lines.append("}")
        return "\n".join(lines)

    def covers_json(self, label: Callable[[Hashable], str] = str) -> str:
        """Cover relation as a JSON document."""
        return json.dumps(
            {
                "elements": [label(e) for e in self._elements],
                "covers": [[label(a), label(b)] for a, b in self.covers()],
            },
            indent=2,
        )


def weak_leq(a: tuple[int, ...], b: tuple[int, ...], kind: str = "A") -> bool:
    """Weak order comparison: containment of kind-X inversion sets.

    >>> weak_leq((2, 1, 3), (3, 1, 2))
    False
    >>> weak_leq((2, 1, 3), (2, 3, 1))
    True
    >>> weak_leq((1, -2), (-1, -2), kind="B")
    True
    """
    ia = inversion_set(a, kind)
    ib = inversion_set(b, kind)
    return ia.positive_pairs <= ib.positive_pairs and (
        ia.negative_pairs <= ib.negative_pairs
    )


def weak_poset(n: int, kind: str = "A") -> FinitePoset:
    """The weak order on the rank-n group of the given kind.

    >>> len(weak_poset(3).covers())
    6
    """
    elements = list(enumerate_group(n, kind))
    cache: dict[tuple[int, ...], object] = {
        u: inversion_set(u, kind) for u in elements
    }

    def leq(a, b) -> bool:
        ia, ib = cache[a], cache[b]
        return ia.positive_pairs <= ib.positive_pairs and (
            ia.negative_pairs <= ib.negative_pairs
        )

    return FinitePoset(elements, leq)


def tg_order_leq(a: ThresholdPair, b: ThresholdPair) -> bool:
    """Componentwise comparison of threshold pairs.

    The degree-ordering components are compared in the weak order of type
    A and the edge sets by inclusion.
    """
    return weak_leq(a.w, b.w, "A") and a.edges <= b.edges


def tg_poset(n: int) -> FinitePoset:
    """The componentwise order on all threshold pairs of rank n.

    >>> len(tg_poset(2))
    4
    """
    elements = list(enumerate_tg(n))
    inv_cache = {pair.w: inversion_set(pair.w, "A") for pair in elements}

    def leq(a: ThresholdPair, b: ThresholdPair) -> bool:
        return (
            inv_cache[a.w].positive_pairs <= inv_cache[b.w].positive_pairs
            and a.edges <= b.edges
        )

    return FinitePoset(elements, leq)


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
    for a, fa in zip(p.elements, images):
        for b, fb in zip(p.elements, images):
            if p.le(a, b) != q.le(fa, fb):
                return False
    return True
