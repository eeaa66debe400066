"""Unit tests for finite posets, weak orders, and the threshold-pair order."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from signedpaths.eulerian import eulerian
from signedpaths.posets import (
    FinitePoset,
    LatticeReport,
    _containment_downs,
    order_isomorphism_check,
    poset_cost,
    tg_order_leq,
    tg_poset,
    weak_leq,
    weak_poset,
)
from signedpaths.sgnperm import (
    descent_count, descent_set, enumerate_group, format_signed, inversion_set,
)
from signedpaths.threshold import ThresholdPair, enumerate_tg, tg_pair

DIVISORS = [1, 2, 3, 4, 6, 12]


def divides(a, b):
    return b % a == 0


def test_poset_cost_is_the_squared_size():
    for kind, ranks in [("A", range(5)), ("B", range(4)), ("D", range(2, 5))]:
        for n in ranks:
            assert poset_cost(kind, n) == len(weak_poset(n, kind)) ** 2
    for n in range(5):
        assert poset_cost("TG", n) == len(tg_poset(n)) ** 2
    # |TG_n| = |D_n| = 2^(n-1) n!
    assert poset_cost("B", 6) == 46_080**2 and poset_cost("TG", 6) == 23_040**2


class TestFinitePoset:
    def test_divisor_lattice(self):
        p = FinitePoset(DIVISORS, divides)
        assert len(p) == 6
        assert sorted(p.covers()) == [
            (1, 2), (1, 3), (2, 4), (2, 6), (3, 6), (4, 12), (6, 12),
        ]
        assert p.le(2, 12) and not p.le(4, 6) and p.le(3, 3)
        assert p.lattice_check() == LatticeReport(True)
        assert p.join_irreducible_count() == 3  # 2, 3 and 4
        assert p.lower_cover_counts() == {1: 0, 2: 1, 3: 1, 4: 1, 6: 2, 12: 2}

    def test_element_order_does_not_matter(self):
        a = FinitePoset(DIVISORS, divides)
        b = FinitePoset(list(reversed(DIVISORS)), divides)
        assert sorted(a.covers()) == sorted(b.covers())
        assert a.elements[0] == b.elements[0] == 1

    def test_elements_come_in_a_linear_extension(self):
        p = FinitePoset(DIVISORS, divides)
        seq = p.elements
        for i, b in enumerate(seq):
            for a in seq[i + 1:]:
                assert not (divides(a, b) and a != b)

    def test_chain_and_diamond(self):
        chain = FinitePoset(range(5), lambda a, b: a <= b)
        assert chain.covers() == [(i, i + 1) for i in range(4)]
        assert chain.lattice_check().is_lattice
        assert chain.join_irreducible_count() == 4

        order = {"0": "0ab1", "a": "a1", "b": "b1", "1": "1"}
        diamond = FinitePoset("0ab1", lambda a, b: b in order[a])
        assert diamond.lattice_check().is_lattice
        assert diamond.join_irreducible_count() == 2

    def test_bowtie_is_not_a_lattice(self):
        # two bottoms under two tops: the bottoms have no least upper bound
        uppers = {"a": "acd", "b": "bcd", "c": "c", "d": "d"}
        p = FinitePoset("abcd", lambda x, y: y in uppers[x])
        report = p.lattice_check()
        assert not report.is_lattice
        assert report.missing == "join"
        assert set(report.witness) == {"a", "b"}
        with pytest.raises(ValueError):
            p.join_irreducible_count()

    def test_antichain_is_not_a_lattice(self):
        p = FinitePoset("xy", lambda a, b: a == b)
        report = p.lattice_check()
        assert not report.is_lattice

    def test_validation(self):
        with pytest.raises(ValueError):
            FinitePoset([1, 1, 2], lambda a, b: a <= b)
        with pytest.raises(ValueError):
            FinitePoset([1, 2], lambda a, b: a < b)  # not reflexive
        with pytest.raises(ValueError):
            # 1 <= 2 <= 3 without 1 <= 3
            FinitePoset(
                [1, 2, 3], lambda a, b: a == b or (a, b) in {(1, 2), (2, 3)}
            )
        with pytest.raises(ValueError):
            FinitePoset([1, 2], lambda a, b: True)  # not antisymmetric

    def test_dot_and_json(self):
        p = FinitePoset(range(3), lambda a, b: a <= b)
        dot = p.to_dot()
        assert dot.startswith("digraph hasse {")
        assert dot.count("->") == len(p.covers())
        assert '"0" -> "1";' in dot
        assert p.elements == (0, 1, 2)
        assert p.covers() == [(0, 1), (1, 2)]

    def test_dot_labels_each_element_once(self):
        p = weak_poset(3, "B")
        calls = []

        def label(u):
            calls.append(u)
            return format_signed(u)

        dot = p.to_dot(label)
        assert len(calls) == len(p) and set(calls) == set(p.elements)
        names = {u: format_signed(u) for u in p.elements}
        assert dot == "\n".join([
            "digraph hasse {", "  rankdir=BT;",
            *(f'  "{names[u]}";' for u in p.elements),
            *(f'  "{names[a]}" -> "{names[b]}";' for a, b in p.covers()),
            "}",
        ])
        assert p.covers([names[u] for u in p.elements]) == [
            (names[a], names[b]) for a, b in p.covers()
        ]


def dag_poset(k, arcs, bottom, top, elements=None):
    """The transitive closure of a DAG on 0..k-1, whose arcs (i, j) with
    i < j are marked in ``arcs[i * k + j]``, optionally under a bottom "0"
    and over a top "1"; listed as ``elements`` if given."""
    reach = [set() for _ in range(k)]
    for i in reversed(range(k)):
        reach[i] = {i}.union(*(reach[j] for j in range(i + 1, k) if arcs[i * k + j]))

    def leq(a, b):
        if a == b or a == "0" or b == "1":
            return True
        if a == "1" or b == "0":
            return False
        return b in reach[a]

    if elements is None:
        elements = list(range(k)) + ["0"] * bottom + ["1"] * top
    return FinitePoset(elements, leq)


@st.composite
def random_posets(draw):
    """A random poset of at most 10 elements, listed in a random order."""
    k = draw(st.integers(0, 8))
    arcs = draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))
    bottom, top = draw(st.booleans()), draw(st.booleans())
    elements = list(range(k)) + ["0"] * bottom + ["1"] * top
    return dag_poset(k, arcs, bottom, top, draw(st.permutations(elements)))


class TestLatticeCheck:
    @given(random_posets())
    def test_matches_the_pair_scan(self, p):
        assert p.lattice_check() == p._scan_pairs()

    @pytest.mark.parametrize("k", range(6))
    def test_matches_the_pair_scan_on_every_small_dag(self, k):
        slots = [i * k + j for i in range(k) for j in range(i + 1, k)]
        for choice in itertools.product((False, True), repeat=len(slots) + 2):
            arcs = [False] * (k * k)
            for slot, on in zip(slots, choice):
                arcs[slot] = on
            p = dag_poset(k, arcs, *choice[-2:])
            assert p.lattice_check() == p._scan_pairs()

    def test_bounded_non_lattice_names_the_scan_witness(self):
        # 0 < a, b < c, d < 1: bounded, but a and b have no join
        uppers = {"0": "0abcd1", "a": "acd1", "b": "bcd1", "c": "c1", "d": "d1", "1": "1"}
        p = FinitePoset("0abcd1", lambda x, y: y in uppers[x])
        report = p.lattice_check()
        assert report == p._scan_pairs()
        assert report.missing == "join" and set(report.witness) == {"a", "b"}


class TestWeakOrder:
    def test_weak_leq_examples(self):
        assert weak_leq((1, 2, 3), (3, 2, 1))
        assert weak_leq((2, 1, 3), (2, 3, 1))
        assert not weak_leq((2, 1, 3), (3, 1, 2))
        assert weak_leq((1, -2), (-1, -2), kind="B")
        assert not weak_leq((-1, -2), (1, -2), kind="B")
        assert weak_leq((1, 2), (2, 1), kind="A")

    @pytest.mark.parametrize("kind", ["A", "B", "D"])
    def test_weak_leq_refuses_two_ranks(self, kind):
        # the rank-1 window has no inversions, so a subset test alone says True
        with pytest.raises(ValueError, match="one rank"):
            weak_leq((1,), (2, 1), kind)
        with pytest.raises(ValueError, match="one rank"):
            weak_leq((2, 1), (1,), kind)

    @pytest.mark.parametrize("a, b, below_in_b", [
        ((-1, 2), (1, 2), False), ((1, 2), (-1, 2), True), ((-1, 2, 3), (-1, -2, -3), True),
    ])
    def test_type_d_weak_leq_refuses_odd_signed_windows(self, a, b, below_in_b):
        # an odd-signed window is outside D_n: with no check, (-1, 2) and
        # (1, 2) would each lie below the other
        with pytest.raises(ValueError, match="even-signed"):
            weak_leq(a, b, "D")
        # the same windows still compare in B_n, and D_n's own elements in D_n
        assert weak_leq(a, b, "B") == below_in_b
        assert weak_leq((1, 2), (-1, -2), "D")

    def test_bottom_and_top(self):
        identity = (1, 2, 3)
        p = weak_poset(3, "A")
        assert all(p.le(identity, u) for u in p.elements)
        assert all(p.le(u, (3, 2, 1)) for u in p.elements)
        b = weak_poset(2, "B")
        assert all(b.le((1, 2), u) for u in b.elements)
        assert all(b.le(u, (-1, -2)) for u in b.elements)

    def test_weak_a3_covers(self):
        p = weak_poset(3, "A")
        assert len(p.covers()) == 6
        assert set(p.covers()) == {
            ((1, 2, 3), (2, 1, 3)),
            ((1, 2, 3), (1, 3, 2)),
            ((2, 1, 3), (2, 3, 1)),
            ((1, 3, 2), (3, 1, 2)),
            ((2, 3, 1), (3, 2, 1)),
            ((3, 1, 2), (3, 2, 1)),
        }

    @pytest.mark.parametrize(
        "kind, n", [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 2), ("D", 3)]
    )
    def test_lower_covers_count_descents(self, kind, n):
        p = weak_poset(n, kind)
        assert len(p) == len(list(enumerate_group(n, kind)))
        for u, count in p.lower_cover_counts().items():
            assert count == descent_count(u, kind)

    @pytest.mark.parametrize(
        "kind, n", [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 2), ("D", 3)]
    )
    def test_weak_orders_are_lattices(self, kind, n):
        assert weak_poset(n, kind).lattice_check().is_lattice

    @pytest.mark.parametrize(
        "kind, ns",
        [("A", (3, 4, 5)), ("B", (2, 3)), ("D", (2, 3))],
    )
    def test_join_irreducibles_are_one_descent_elements(self, kind, ns):
        for n in ns:
            p = weak_poset(n, kind)
            assert p.join_irreducible_count() == eulerian(n, 1, kind)


class TestMaskBuild:
    """The feature-mask build against the generic comparison-callable one."""

    @staticmethod
    def assert_same(p, q):
        assert p.elements == q.elements
        assert p.covers() == q.covers()
        for a in p.elements:
            for b in p.elements:
                assert p.le(a, b) == q.le(a, b)

    @pytest.mark.parametrize(
        "kind, n",
        [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 1), ("B", 2), ("B", 3),
         ("D", 2), ("D", 3), ("D", 4)],
    )
    def test_weak_poset(self, kind, n):
        generic = FinitePoset(
            list(enumerate_group(n, kind)), lambda a, b: weak_leq(a, b, kind)
        )
        self.assert_same(weak_poset(n, kind), generic)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tg_poset(self, n):
        self.assert_same(tg_poset(n), FinitePoset(list(enumerate_tg(n)), tg_order_leq))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_tg_masks_follow_the_pair_route(self, n, monkeypatch):
        # the masks tg_poset builds from: inv(w) over the C(n, 2) pairs of
        # [n] in lexicographic order, the first at the highest bit, and above
        # it the edges, the i-th pair at bit C(n, 2) + i
        fed = []
        build = FinitePoset._from_masks.__func__

        def from_masks(cls, elements, masks, width):
            fed.append((elements, masks, width))
            return build(cls, elements, masks, width)

        monkeypatch.setattr(FinitePoset, "_from_masks", classmethod(from_masks))
        poset = tg_poset(n)
        [(elements, masks, width)] = fed
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        m = len(pairs)
        assert width == 2 * m
        expected = Counter(enumerate_tg(n))
        assert Counter(elements) == expected == Counter(poset.elements)
        for pair, mask in zip(elements, masks, strict=True):
            inversions = inversion_set(pair.w)
            route = sum(1 << (m - 1 - k) for k, p in enumerate(pairs) if p in inversions)
            route += sum(1 << (m + k) for k, e in enumerate(pairs) if e in pair.edges)
            assert mask == route, pair

    @pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 16, 17, 25])
    def test_containment_downs_follow_the_subset_rule(self, width):
        # bit a of down(b) is set iff masks[a] & ~masks[b] == 0; each random
        # mask comes with two random submasks, so containment is common
        rng = random.Random(width)
        masks = [0, (1 << width) - 1]
        for _ in range(15):
            top = rng.getrandbits(width)
            masks += [top, top & rng.getrandbits(width), top & rng.getrandbits(width)]
        rng.shuffle(masks)
        downs = _containment_downs(masks, width)
        assert len(downs) == len(masks)
        for down, mb in zip(downs, masks):
            assert down == sum(1 << a for a, ma in enumerate(masks) if not ma & ~mb)

    @pytest.mark.parametrize("width", [0, 9])
    def test_containment_downs_of_no_masks(self, width):
        assert _containment_downs([], width) == []


class TestThresholdOrder:
    def test_tg_order_leq(self):
        empty = ThresholdPair((1, 2), frozenset())
        full = ThresholdPair((2, 1), frozenset({(1, 2)}))
        assert tg_order_leq(empty, full)
        assert not tg_order_leq(full, empty)
        assert tg_order_leq(empty, empty)
        with pytest.raises(ValueError, match="one rank"):
            tg_order_leq(ThresholdPair((1,), frozenset()), empty)

    def test_tg2_is_a_grid(self):
        p = tg_poset(2)
        assert len(p) == 4
        assert p.lattice_check().is_lattice
        assert len(p.covers()) == 4
        assert p.join_irreducible_count() == 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_isomorphic_to_weak_d(self, n):
        assert order_isomorphism_check(
            weak_poset(n, "D"), tg_poset(n), tg_pair
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_tg_lattice_and_irreducibles(self, n):
        p = tg_poset(n)
        assert p.lattice_check().is_lattice
        assert p.join_irreducible_count() == eulerian(n, 1, "D")

    def test_rank_five(self):
        weak_d, tg = weak_poset(5, "D"), tg_poset(5)
        assert order_isomorphism_check(weak_d, tg, tg_pair)
        for p in (weak_d, tg):
            assert p.lattice_check().is_lattice
            assert p.join_irreducible_count() == eulerian(5, 1, "D")


class TestIsomorphismCheck:
    def test_positive_example(self):
        p = FinitePoset([1, 2, 4, 8], divides)
        q = FinitePoset(range(4), lambda a, b: a <= b)
        assert order_isomorphism_check(p, q, {1: 0, 2: 1, 4: 2, 8: 3}.__getitem__)

    def test_rejects_non_bijection(self):
        p = FinitePoset([1, 2], divides)
        q = FinitePoset([1, 3], divides)
        assert not order_isomorphism_check(p, q, lambda e: 1)

    def test_rejects_size_mismatch(self):
        p = FinitePoset([1, 2, 4], divides)
        q = FinitePoset([1, 2], divides)
        assert not order_isomorphism_check(p, q, lambda e: e)

    def test_rejects_order_breaker(self):
        p = FinitePoset([1, 2, 3, 6], divides)
        q = FinitePoset(range(4), lambda a, b: a <= b)
        # bijective but collapses an antichain onto a chain
        assert not order_isomorphism_check(
            p, q, {1: 0, 2: 1, 3: 2, 6: 3}.__getitem__
        )

    def test_weak_b_not_isomorphic_to_tg(self):
        assert not order_isomorphism_check(
            weak_poset(2, "B"), tg_poset(2), tg_pair
        )
