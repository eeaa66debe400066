"""Unit tests for barred permutations, psi, the descent formulas, and theta."""

import itertools
import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from signedpaths import barred
from signedpaths.barred import (
    LooselyBarredPermutation,
    SimplyBarredPermutation,
    blocks,
    central_block,
    central_block_index,
    classify_sbp,
    descB_formula,
    descent_sum,
    enumerate_lbp,
    enumerate_sbp,
    format_sbp,
    parse_sbp,
    positive_descB_formula,
    psi,
    psi_inverse,
    theta,
    theta_inverse,
    upper_antidiagonal,
    xi,
    xi_preimages,
)
from signedpaths.eulerian import eulerian
from signedpaths.pathrep import (
    east_south_turns,
    is_diagonal_symmetric,
    path_representation,
    signed_from_path,
)
from signedpaths.sgnperm import (
    descent_count,
    descent_set,
    enumerate_group,
    is_smooth,
)
from signedpaths.threshold import enumerate_threshold_graphs, sbp_from_threshold

ANCHOR = SimplyBarredPermutation((7, 4, 2, 3, 1, 6, 5), frozenset({2, 3, 6}))
ANCHOR_IMAGE = (-2, 3, 1, 6, -4, -7, 5)


def subsets(ground):
    ground = list(ground)
    for r in range(len(ground) + 1):
        yield from map(frozenset, itertools.combinations(ground, r))


@st.composite
def barred_pairs(draw, max_n=7, loose=False):
    n = draw(st.integers(1, max_n))
    w = tuple(draw(st.permutations(range(1, n + 1))))
    lo = 0 if loose else 1
    bars = draw(st.frozensets(st.integers(lo, n)))
    cls = LooselyBarredPermutation if loose else SimplyBarredPermutation
    return cls(w, bars)


class TestConstruction:
    def test_bar_range_validation(self):
        with pytest.raises(ValueError):
            SimplyBarredPermutation((2, 1), frozenset({0}))
        with pytest.raises(ValueError):
            SimplyBarredPermutation((2, 1), frozenset({3}))
        with pytest.raises(ValueError):
            LooselyBarredPermutation((2, 1), frozenset({-1}))
        with pytest.raises(ValueError):
            LooselyBarredPermutation((2, 1), frozenset({3}))
        # position 0 is legal only for the loose flavour
        assert 0 in LooselyBarredPermutation((2, 1), frozenset({0})).bars

    def test_kinds_with_equal_fields_stay_apart(self):
        # both kinds share one body; the class alone tells them apart
        sbp = SimplyBarredPermutation((2, 1), frozenset({1}))
        lbp = LooselyBarredPermutation((2, 1), frozenset({1}))
        assert sbp != lbp and len({sbp, lbp}) == 2
        assert repr(sbp) == "SimplyBarredPermutation(w=(2, 1), bars=frozenset({1}))"
        assert repr(lbp) == "LooselyBarredPermutation(w=(2, 1), bars=frozenset({1}))"

    @pytest.mark.parametrize("cls, bars, text", [
        (SimplyBarredPermutation, {0}, "1..2: [0]"),
        (SimplyBarredPermutation, {1, 3}, "1..2: [1, 3]"),
        (LooselyBarredPermutation, {-1}, "0..2: [-1]"),
        (LooselyBarredPermutation, {3}, "0..2: [3]"),
    ])
    def test_bar_range_message(self, cls, bars, text):
        with pytest.raises(ValueError, match=rf"^bars must lie in {re.escape(text)}$"):
            cls((2, 1), frozenset(bars))

    def test_window_is_validated_and_normalized(self):
        with pytest.raises(ValueError):
            SimplyBarredPermutation((1, 1), frozenset())
        with pytest.raises(ValueError):
            SimplyBarredPermutation((0, 1), frozenset())
        sbp = SimplyBarredPermutation([2, 1], {1})
        assert sbp.w == (2, 1) and sbp.bars == frozenset({1})
        assert hash(sbp) == hash(SimplyBarredPermutation((2, 1), frozenset({1})))


class TestTrustedConstruction:
    """Objects built without the constructor's checks equal, and hash like,
    their rebuilds through the validating public constructor."""

    @staticmethod
    def assert_rebuilds(obj, cls):
        rebuilt = cls(obj.w, obj.bars)
        assert type(obj) is cls
        assert obj == rebuilt and hash(obj) == hash(rebuilt)

    @pytest.mark.parametrize("n", range(5))
    def test_producers(self, n):
        sbp_cls, lbp_cls = SimplyBarredPermutation, LooselyBarredPermutation
        for sbp in enumerate_sbp(n):
            self.assert_rebuilds(sbp, sbp_cls)
            k_even, k_odd = descB_formula(sbp), positive_descB_formula(sbp)
            self.assert_rebuilds(theta_inverse(sbp, k_even, "even"), lbp_cls)
            self.assert_rebuilds(theta_inverse(sbp, k_odd, "odd"), lbp_cls)
        for lbp in enumerate_lbp(n):
            self.assert_rebuilds(lbp, lbp_cls)
            self.assert_rebuilds(theta(lbp), sbp_cls)
        for u in enumerate_group(n, "B"):
            self.assert_rebuilds(psi_inverse(u), sbp_cls)
        for g in enumerate_threshold_graphs(n):
            self.assert_rebuilds(sbp_from_threshold(g), sbp_cls)


class TestUpperAntidiagonal:
    def test_worked_examples(self):
        assert upper_antidiagonal({2, 3, 6}, 7) == "SEESSSESEEESSE"
        assert upper_antidiagonal((), 3) == "SSSEEE"
        assert upper_antidiagonal({1, 2, 3}, 3) == "ESESES"
        assert upper_antidiagonal({1}, 1) == "ES"
        assert upper_antidiagonal((), 0) == ""

    def test_rejects_out_of_range_bars(self):
        with pytest.raises(ValueError):
            upper_antidiagonal({0}, 3)
        with pytest.raises(ValueError):
            upper_antidiagonal({4}, 3)

    def test_symmetric_with_turns_at_bars(self):
        # Diagonal symmetry and East-South turn abscissas = the bar set.
        for n in range(6):
            for bars in subsets(range(1, n + 1)):
                path = upper_antidiagonal(bars, n)
                assert len(path) == 2 * n
                assert is_diagonal_symmetric(path)
                turns = east_south_turns(path)
                assert [x for x, _ in turns] == sorted(bars)
                # symmetry pairs each turn (x, y) with a turn at (y, x)
                assert sorted(y for _, y in turns) == sorted(bars)


class TestPsi:
    def test_worked_example(self):
        assert psi(ANCHOR) == ANCHOR_IMAGE
        assert psi_inverse(ANCHOR_IMAGE) == ANCHOR

    @pytest.mark.parametrize("u", [(1, 1), (2, -2), (0, 1), (1, 3)])
    def test_inverse_rejects_malformed_window(self, u):
        with pytest.raises(ValueError):
            psi_inverse(u)

    def test_no_bars_keeps_letters_positive(self):
        # the "SSSEEE" path has no cells below it, hence no negative letters
        image = psi(SimplyBarredPermutation((2, 3, 1), frozenset()))
        assert image == (2, 3, 1)

    def test_all_bars_flips_nothing_extra(self):
        image = psi(SimplyBarredPermutation((1, 2, 3), frozenset({1, 2, 3})))
        assert psi_inverse(image) == SimplyBarredPermutation(
            (1, 2, 3), frozenset({1, 2, 3})
        )

    @pytest.mark.parametrize("n", range(6))
    def test_round_trip_exhaustive(self, n):
        seen = set()
        for sbp in enumerate_sbp(n):
            u = psi(sbp)
            assert psi_inverse(u) == sbp
            seen.add(u)
        # surjectivity onto the full signed group
        assert seen == set(enumerate_group(n, "B"))

    @pytest.mark.parametrize("n", range(6))
    def test_inverse_then_forward(self, n):
        for u in enumerate_group(n, "B"):
            assert psi(psi_inverse(u)) == u

    @pytest.mark.parametrize("n", range(7))
    def test_matches_path_route(self, n):
        # the step-word route: label the bar staircase with w
        for sbp in enumerate_sbp(n):
            path = upper_antidiagonal(sbp.bars, n)
            assert psi(sbp) == signed_from_path(path, sbp.w)

    @pytest.mark.parametrize("n", range(6))
    def test_inverse_matches_path_route(self, n):
        # the step-word route: column labels and East-South turns of the path
        for u in enumerate_group(n, "B"):
            rep = path_representation(u)
            bars = frozenset(x for x, _ in east_south_turns(rep.path))
            assert psi_inverse(u) == SimplyBarredPermutation(rep.lambda_x, bars)

    def test_descent_formula_anchor(self):
        assert descB_formula(ANCHOR) == 4
        assert descent_count(ANCHOR_IMAGE, "B") == 4
        assert positive_descB_formula(ANCHOR) == 3

    def test_descent_formulas_exhaustive(self):
        for n in range(5):
            for sbp in enumerate_sbp(n):
                u = psi(sbp)
                dset = descent_set(u, "B")
                assert descB_formula(sbp) == len(dset)
                assert positive_descB_formula(sbp) == len(dset - {0})
                # 0 is a descent of the image iff the bar count is odd
                assert (0 in dset) == (len(sbp.bars) % 2 == 1)

    @given(barred_pairs())
    def test_round_trip_random(self, sbp):
        u = psi(sbp)
        assert psi_inverse(u) == sbp
        assert descB_formula(sbp) == descent_count(u, "B")


class TestPlans:
    """psi is a signed position map fixed by the bars and psi_inverse one
    fixed by the sign pattern of the window: a plan is derived, then
    applied.  Each plan must agree with the path-route oracle."""

    @pytest.mark.parametrize("n", range(6))
    def test_psi_plan_matches_path_route(self, n):
        for sbp in enumerate_sbp(n):
            image = barred._apply(barred._psi_plan(sbp.bars, n), sbp.w)
            assert type(image) is tuple
            assert image == psi(sbp) == signed_from_path(upper_antidiagonal(sbp.bars, n), sbp.w)

    @pytest.mark.parametrize("n", range(6))
    def test_inverse_plan_matches_path_route(self, n):
        for u in enumerate_group(n, "B"):
            plan, bars = barred._psi_inverse_plan(u)
            rep = path_representation(u)
            turns = frozenset(x for x, _ in east_south_turns(rep.path))
            w = barred._apply(plan, u)
            assert type(w) is tuple
            assert (w, bars) == (rep.lambda_x, turns)
            assert psi_inverse(u) == SimplyBarredPermutation(rep.lambda_x, turns)

    @pytest.mark.parametrize("n", range(5))
    def test_inverse_plan_reads_only_signs(self, n):
        plans = {}
        for u in enumerate_group(n, "B"):
            plan, bars = plans.setdefault(tuple(x < 0 for x in u), barred._psi_inverse_plan(u))
            assert SimplyBarredPermutation(barred._apply(plan, u), bars) == psi_inverse(u)
        assert len(plans) == 2**n

    def test_empty_and_single_letter(self):
        # itemgetter with one index returns the item, not a 1-tuple
        assert psi(SimplyBarredPermutation((), frozenset())) == ()
        assert psi(SimplyBarredPermutation((1,), frozenset())) == (1,)
        assert psi(SimplyBarredPermutation((1,), frozenset({1}))) == (-1,)
        assert psi_inverse(()) == SimplyBarredPermutation((), frozenset())
        assert psi_inverse((1,)) == SimplyBarredPermutation((1,), frozenset())
        assert psi_inverse((-1,)) == SimplyBarredPermutation((1,), frozenset({1}))


class TestXi:
    def test_worked_examples(self):
        assert xi({1, 3}, {0, 1}) == frozenset({3})
        assert xi(set(), {2, 3}) == frozenset({2, 3})
        assert xi({1, 2}, {1, 2}) == frozenset()
        assert xi({1}, {0}) == frozenset({1})

    def test_two_to_one_with_exact_preimages(self):
        for n in range(5):
            for d in subsets(range(1, n + 1)):
                fibers = {}
                for b in subsets(range(n + 1)):
                    fibers.setdefault(xi(d, b), set()).add(b)
                # every subset of [n] is hit exactly twice
                assert set(fibers) == set(subsets(range(1, n + 1)))
                for c, pre in fibers.items():
                    b1, b2 = xi_preimages(d, c)
                    assert pre == {b1, b2}
                    assert 0 not in b1 and 0 in b2

    def test_preimages_reject_zero_in_c(self):
        with pytest.raises(ValueError):
            xi_preimages({1}, {0, 2})


class TestTheta:
    def test_trivial_cases(self):
        w = (3, 1, 2)
        d = descent_set(w, "A")
        assert theta(LooselyBarredPermutation(w, frozenset())).bars == d
        assert theta(LooselyBarredPermutation(w, d)).bars == frozenset()

    def test_descent_sum(self):
        lbp = LooselyBarredPermutation((3, 1, 2), frozenset({0, 2}))
        assert descent_sum(lbp) == 1 + 2

    @pytest.mark.parametrize("n", range(1, 5))
    def test_graded_restrictions_are_bijections(self, n):
        # theta maps the descent-sum-2k slice bijectively onto the class
        # of bar diagrams with k type-B descents, and the (2k+1)-slice
        # onto those with k strictly positive descents.
        lbps = list(enumerate_lbp(n))
        sbps = list(enumerate_sbp(n))
        for k in range(n + 1):
            even_slice = [x for x in lbps if descent_sum(x) == 2 * k]
            image = [theta(x) for x in even_slice]
            target = {x for x in sbps if descB_formula(x) == k}
            assert len(image) == len(set(image)) == len(target)
            assert set(image) == target

            odd_slice = [x for x in lbps if descent_sum(x) == 2 * k + 1]
            image = [theta(x) for x in odd_slice]
            target = {x for x in sbps if positive_descB_formula(x) == k}
            assert len(image) == len(set(image)) == len(target)
            assert set(image) == target

    @pytest.mark.parametrize("n", range(1, 5))
    def test_inverse_round_trips(self, n):
        for sbp in enumerate_sbp(n):
            k_even = descB_formula(sbp)
            pre = theta_inverse(sbp, k_even, "even")
            assert theta(pre) == sbp
            assert descent_sum(pre) == 2 * k_even
            # preimage choice: bars avoid 0 iff the bar set has even size
            assert (0 not in pre.bars) == (len(sbp.bars) % 2 == 0)

            k_odd = positive_descB_formula(sbp)
            pre = theta_inverse(sbp, k_odd, "odd")
            assert theta(pre) == sbp
            assert descent_sum(pre) == 2 * k_odd + 1
            assert (0 in pre.bars) == (len(sbp.bars) % 2 == 0)

    def test_inverse_rejects_wrong_class(self):
        sbp = SimplyBarredPermutation((2, 1), frozenset())
        k = descB_formula(sbp)
        with pytest.raises(ValueError):
            theta_inverse(sbp, k + 1, "even")
        with pytest.raises(ValueError):
            theta_inverse(sbp, positive_descB_formula(sbp) + 1, "odd")
        with pytest.raises(ValueError):
            theta_inverse(sbp, k, "sideways")

    @pytest.mark.parametrize("n", range(1, 6))
    def test_descent_class_sizes(self, n):
        # |{(w,B) : descB_formula = k}| is the type-B Eulerian number,
        # and the loose slices are counted by the binomial convolution.
        by_desc = [0] * (n + 1)
        for sbp in enumerate_sbp(n):
            by_desc[descB_formula(sbp)] += 1
        assert by_desc == [eulerian(n, k, "B") for k in range(n + 1)]

        by_sum = [0] * (2 * n + 2)
        for lbp in enumerate_lbp(n):
            by_sum[descent_sum(lbp)] += 1
        for s in range(2 * n + 2):
            expected = sum(
                eulerian(n, i, "A") * math.comb(n + 1, s - i)
                for i in range(n)
                if 0 <= s - i <= n + 1
            )
            assert by_sum[s] == expected


class TestBlocks:
    def test_worked_example(self):
        assert blocks(ANCHOR) == [(7, 4), (2,), (3, 1, 6), (5,)]
        assert central_block_index(ANCHOR) == 2
        assert central_block(ANCHOR) == (2,)

    def test_degenerate_bars(self):
        w = (3, 1, 2)
        no_bars = SimplyBarredPermutation(w, frozenset())
        assert blocks(no_bars) == [w]
        assert central_block_index(no_bars) == 1
        trailing = SimplyBarredPermutation(w, frozenset({3}))
        assert blocks(trailing) == [w, ()]
        assert central_block_index(trailing) == 1
        assert central_block(trailing) == w

    @pytest.mark.parametrize("n", range(5))
    def test_block_structure_exhaustive(self, n):
        for sbp in enumerate_sbp(n):
            bs = blocks(sbp)
            assert len(bs) == len(sbp.bars) + 1
            assert tuple(itertools.chain.from_iterable(bs)) == sbp.w
            assert all(blk for blk in bs[:-1])
            assert central_block_index(sbp) == (len(sbp.bars) + 2) // 2


class TestClassification:
    def test_worked_examples(self):
        cls = classify_sbp(ANCHOR)
        assert not cls.normal and not cls.compatible
        nice = classify_sbp(SimplyBarredPermutation((1, 2, 3, 4), frozenset({2})))
        assert nice.normal and nice.compatible

    @pytest.mark.parametrize("n", range(1, 6))
    def test_compatible_iff_smooth_iff_big_central_block(self, n):
        for sbp in enumerate_sbp(n):
            cls = classify_sbp(sbp)
            assert cls.compatible == (len(central_block(sbp)) >= 2)
            if n >= 2:  # smoothness reads the first two letters
                assert cls.compatible == is_smooth(psi(sbp))

    def test_normal_means_increasing_blocks(self):
        assert classify_sbp(
            SimplyBarredPermutation((2, 4, 1, 3), frozenset({2}))
        ).normal
        assert not classify_sbp(
            SimplyBarredPermutation((4, 2, 1, 3), frozenset({2}))
        ).normal


class TestEnumerationAndText:
    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("enumerate_barred, lowest", [(enumerate_sbp, 1), (enumerate_lbp, 0)])
    def test_enumeration_order(self, n, enumerate_barred, lowest):
        # each w in lexicographic order; its bar sets by size, then as sorted tuples
        ground = range(lowest, n + 1)
        expected = [
            (w, frozenset(bars))
            for w in itertools.permutations(range(1, n + 1))
            for r in range(len(ground) + 1)
            for bars in itertools.combinations(ground, r)
        ]
        assert [(x.w, x.bars) for x in enumerate_barred(n)] == expected

    @pytest.mark.parametrize("n", range(5))
    def test_counts(self, n):
        sbps = list(enumerate_sbp(n))
        assert len(sbps) == len(set(sbps)) == 2**n * math.factorial(n)
        lbps = list(enumerate_lbp(n))
        assert len(lbps) == len(set(lbps)) == 2 ** (n + 1) * math.factorial(n)

    def test_parse_and_format_anchor(self):
        assert parse_sbp("74|2|316|5") == ANCHOR
        assert format_sbp(ANCHOR) == "74|2|316|5"
        assert parse_sbp("7,4|2|3,1,6|5") == ANCHOR

    def test_trailing_bar_is_empty_last_block(self):
        sbp = parse_sbp("12|")
        assert sbp == SimplyBarredPermutation((1, 2), frozenset({2}))
        assert format_sbp(sbp) == "12|"
        assert parse_sbp("12") == SimplyBarredPermutation((1, 2), frozenset())

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_sbp("1||2")
        with pytest.raises(ValueError):
            parse_sbp("|12")
        with pytest.raises(ValueError):
            parse_sbp("1a2")
        with pytest.raises(ValueError):
            parse_sbp("14|2")  # not a permutation of [3]

    def test_round_trip_all_small(self):
        for sbp in enumerate_sbp(3):
            assert parse_sbp(format_sbp(sbp)) == sbp

    def test_two_digit_letters_use_commas(self):
        w = (10, 1, 2, 3, 4, 5, 6, 7, 8, 9)
        sbp = SimplyBarredPermutation(w, frozenset({3}))
        text = format_sbp(sbp)
        assert text == "10,1,2|3,4,5,6,7,8,9"
        assert parse_sbp(text) == sbp

    def test_round_trip_random_up_to_twelve(self):
        # beyond n = 9 a block of one letter is written without a comma
        w = tuple(range(1, 11))
        examples = {
            "1,2,3,4,5,6,7,8,9|10": SimplyBarredPermutation(w, frozenset({9})),
            "1|2|3|4|5|6|7|8|9|10": SimplyBarredPermutation(w, frozenset(range(1, 10))),
        }
        for text, sbp in examples.items():
            assert format_sbp(sbp) == text
            assert parse_sbp(text) == sbp
        rng = random.Random(18)
        for _ in range(2000):
            n = rng.randint(0, 12)
            w = tuple(rng.sample(range(1, n + 1), n))
            bars = frozenset(b for b in range(1, n + 1) if rng.random() < 0.5)
            sbp = SimplyBarredPermutation(w, bars)
            assert parse_sbp(format_sbp(sbp)) == sbp


class TestAudits:
    @pytest.mark.parametrize("audit", [barred.audit_psi, barred.audit_theta])
    def test_every_round_trip_holds(self, audit):
        for n in range(5):
            assert audit(n) == (2 ** (n + 1) * math.factorial(n), None), n

    @pytest.mark.parametrize("audit", [barred.audit_psi, barred.audit_theta])
    def test_negative_rank(self, audit):
        with pytest.raises(ValueError, match="nonnegative"):
            audit(-1)

    def test_psi_walks_no_group(self, monkeypatch):
        # the round trips over the simply barred side make psi a bijection
        # onto B_n, so |B_n| is credited, not walked
        def forbidden(*args):
            raise AssertionError("enumerate_group called")

        monkeypatch.setattr(barred, "enumerate_group", forbidden, raising=False)
        assert barred.audit_psi(5) == (7680, None)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_psi_counts_only_the_first_w_element_wise(self, monkeypatch, n):
        # every plan keeps the descents of its images read off Desc(w), so
        # only the first w of each of the 2^(n-1) descent sets is counted,
        # once per bar set; every later w is credited
        calls = []
        count = barred.descent_count

        def counted(u, kind="A"):
            calls.append(u)
            return count(u, kind)

        monkeypatch.setattr(barred, "descent_count", counted)
        assert barred.audit_psi(n) == (2 ** (n + 1) * math.factorial(n), None)
        assert len(calls) == 2**n * 2 ** (n - 1)

    @pytest.mark.parametrize("n", range(6))
    def test_psi_descents_depend_on_desc_and_bars_alone(self, n):
        # the premise of audit_psi's credit, checked on the images themselves
        seen = {}
        for sbp in enumerate_sbp(n):
            image = descent_set(psi(sbp), "B")
            assert seen.setdefault((descent_set(sbp.w, "A"), sbp.bars), image) == image
        assert len(seen) == 2 ** max(n - 1, 0) * 2**n

    @pytest.mark.parametrize("n", range(9))
    def test_every_psi_plan_reads_only_desc(self, n):
        for bars in barred._subsets(list(range(1, n + 1))):
            assert barred._reads_desc(barred._psi_plan(bars, n), n), bars

    @pytest.mark.parametrize("picks", [[0, 2, 1], [5, 3, 1]], ids=["w1 w3 w2", "-w3 -w1 w2"])
    def test_a_plan_that_parts_neighbours_reads_more_than_desc(self, picks):
        # w_1 beside w_3, or -w_3 beside -w_1: Desc(w) leaves their order open
        assert not barred._reads_desc(barred._getter(picks), 3)

    @pytest.mark.parametrize("n", range(3, 6))
    def test_psi_refused_plan_is_a_failure_naming_its_bars(self, monkeypatch, n):
        # one plan refused: no class is credited, and the audit stops after
        # the identity's class, whose only member it is
        # (_psi_plan is cached, so the audit meets the very plan refused here)
        reads, refused = barred._reads_desc, barred._psi_plan(frozenset({1}), n)
        monkeypatch.setattr(
            barred, "_reads_desc", lambda plan, m: plan is not refused and reads(plan, m)
        )
        calls = []
        count = barred.descent_count

        def counted(u, kind="A"):
            calls.append(u)
            return count(u, kind)

        monkeypatch.setattr(barred, "descent_count", counted)
        assert barred.audit_psi(n) == (2**n, "psi plan reads more than Desc(w) at bars [1]")
        assert len(calls) == 2**n

    def test_psi_failure_names_the_first_element(self, monkeypatch):
        monkeypatch.setattr(barred, "_descB", lambda d, bars, ceil: -1)
        assert barred.audit_psi(2) == (0, "descent formula broke at 12")

    def test_psi_plan_fault_is_named_at_the_first_w(self, monkeypatch):
        # two picks of one bar set's plan swapped: that bar set breaks its
        # round trip for every w, so an element-wise walk over enumerate_sbp
        # meets it first at w = 12345, after the bar sets before it; that
        # image keeps its descent count, so only the round trip sees it there
        n, broken = 5, frozenset({2, 4})
        plan = barred._psi_plan

        def swapped(bars, m):
            picks = list(plan(bars, m)(range(2 * m)))
            if bars == broken:
                picks[1], picks[4] = picks[4], picks[1]
            return barred._getter(picks)

        monkeypatch.setattr(barred, "_psi_plan", swapped)
        first = next(
            i for i, sbp in enumerate(enumerate_sbp(n))
            if psi_inverse(psi(sbp)) != sbp
            or descent_count(psi(sbp), "B") != descB_formula(sbp)
        )
        assert first == list(barred._subsets(list(range(1, n + 1)))).index(broken)
        assert barred.audit_psi(n) == (first, "psi round trip broke at 12|34|5")

    def test_theta_fault_at_a_descent_set_met_last(self, monkeypatch):
        # only w = 54321 has Desc(w) = {1, 2, 3, 4}: every earlier w is
        # credited or checked, and the count is the element-wise one
        key = (frozenset({1, 2, 3, 4}), frozenset({0, 3}))
        xi = barred._xi
        monkeypatch.setattr(
            barred, "_xi", lambda d, bars: xi(d, bars) ^ ({5} if (d, bars) == key else set())
        )
        walk = list(enumerate_lbp(5))
        first = next(
            i for i, lbp in enumerate(walk)
            if theta_inverse(theta(lbp), descent_sum(lbp) // 2,
                             "odd" if descent_sum(lbp) % 2 else "even") != lbp
        )
        i = list(subsets(range(6))).index(key[1])
        assert first == (math.factorial(5) - 1) * 2**6 + i
        assert barred.audit_theta(5) == (
            first, f"theta round trip broke at {walk[first]}"
        )

    def test_theta_checks_each_descent_set_once(self, monkeypatch):
        calls = {}

        def count(name):
            f = getattr(barred, name)
            calls[name] = 0

            def counted(*args):
                calls[name] += 1
                return f(*args)

            monkeypatch.setattr(barred, name, counted)

        count("descent_set")
        count("_theta_inverse")
        assert barred.audit_theta(5) == (2**6 * math.factorial(5), None)
        # the descent sets come with the classes: no permutation is read
        assert calls == {"descent_set": 0, "_theta_inverse": 2**4 * 2**6}

    def test_psi_reads_its_formula_once_per_descent_set_and_bars(self, monkeypatch):
        # each of the 2^4 descent sets of S_5 with each of the 2^5 bar sets
        calls = []
        formula = barred._descB

        def counted(d, bars, ceil):
            calls.append((d, bars))
            return formula(d, bars, ceil)

        monkeypatch.setattr(barred, "_descB", counted)
        assert barred.audit_psi(5) == (2**6 * math.factorial(5), None)
        assert len(calls) == len(set(calls)) == 2**4 * 2**5


def psi_walk(n):
    # the element-by-element reference for audit_psi: every (w, B) of
    # enumerate_sbp through the public maps, then B_n's |B_n| credited
    count = -1
    for count, sbp in enumerate(enumerate_sbp(n)):
        u = psi(sbp)
        if psi_inverse(u) != sbp:
            return count, f"psi round trip broke at {format_sbp(sbp)}"
        if descent_count(u, "B") != descB_formula(sbp):
            return count, f"descent formula broke at {format_sbp(sbp)}"
    return 2 * (count + 1), None


def theta_walk(n):
    # the element-by-element reference for audit_theta: every (w, B) of
    # enumerate_lbp through the public maps
    count = -1
    for count, lbp in enumerate(enumerate_lbp(n)):
        s = descent_sum(lbp)
        parity = "odd" if s % 2 else "even"
        formula = positive_descB_formula if s % 2 else descB_formula
        sbp = theta(lbp)
        if formula(sbp) != s // 2:
            return count, f"theta image off the target set at {lbp}"
        if theta_inverse(sbp, s // 2, parity) != lbp:
            return count, f"theta round trip broke at {lbp}"
    return count + 1, None


def fault_keys(n, ground):
    # every (Desc(w), bars) key up to n = 4, eight seeded ones at n = 5
    keys = list(itertools.product(subsets(range(1, n)), subsets(ground)))
    return keys if n <= 4 else random.Random(n).sample(keys, 8)


class TestDescentClasses:
    @pytest.mark.parametrize("n", range(8))
    def test_each_class_is_its_first_permutation_at_its_rank(self, n):
        perms = list(itertools.permutations(range(1, n + 1)))
        first = {}
        for i, w in enumerate(perms):
            first.setdefault(descent_set(w, "A"), i)
        classes = barred._descent_classes(n)
        assert len(classes) == len(first) == 2 ** max(n - 1, 0)
        for rank, w, d in classes:
            assert (descent_set(w, "A"), perms[rank], first[d]) == (d, w, rank)
        assert [rank for rank, _, _ in classes] == sorted(first.values())

    @pytest.mark.parametrize("n", range(6))
    def test_audits_agree_with_the_element_walks(self, n):
        assert barred.audit_psi(n) == psi_walk(n)
        assert barred.audit_theta(n) == theta_walk(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_theta_faults_are_named_as_the_element_walk_names_them(self, monkeypatch, n):
        # theta's image at one key gains or loses the bar n
        xi = barred._xi
        outcomes = set()
        for key in fault_keys(n, range(n + 1)):
            monkeypatch.setattr(
                barred, "_xi", lambda d, bars: xi(d, bars) ^ ({n} if (d, bars) == key else set())
            )
            found = barred.audit_theta(n)
            assert found == theta_walk(n), key
            outcomes.add(found[1].split(" at ")[0])
        assert outcomes == {"theta image off the target set", "theta round trip broke"}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_psi_faults_are_named_as_the_element_walk_names_them(self, monkeypatch, n):
        # the formula off by one at one key, then the first and last picks
        # of one bar set's plan swapped
        formula = barred._descB
        for key in fault_keys(n, range(1, n + 1)):
            monkeypatch.setattr(
                barred, "_descB", lambda d, bars, ceil: formula(d, bars, ceil) + ((d, bars) == key)
            )
            found = barred.audit_psi(n)
            assert found == psi_walk(n), key
            assert found[1].startswith("descent formula broke at ")
        monkeypatch.setattr(barred, "_descB", formula)
        plan = barred._psi_plan
        for broken in subsets(range(1, n + 1)):
            def swapped(bars, m):
                picks = list(plan(bars, m)(range(2 * m)))
                if bars == broken:
                    picks[0], picks[-1] = picks[-1], picks[0]
                return barred._getter(picks)

            monkeypatch.setattr(barred, "_psi_plan", swapped)
            assert barred.audit_psi(n) == psi_walk(n), broken


class TestDescentMemo:
    # on permutations that alternate, descB_formula and the other Desc(w)
    # readers must read each w's own set
    def test_interleaved_permutations(self):
        n = 5
        perms = list(itertools.permutations(range(1, n + 1)))[::7]
        walk = [w for pair in zip(perms, perms[1:]) for w in (perms[0], *pair)]
        for i, w in enumerate(walk):
            d = descent_set(w, "A")
            bars = frozenset(b for b in range(1, n + 1) if i >> b & 1)
            sbp = SimplyBarredPermutation(w, bars)
            assert descB_formula(sbp) == len(d - bars) + (len(bars) + 1) // 2
            assert positive_descB_formula(sbp) == len(d - bars) + len(bars) // 2
            lbp = LooselyBarredPermutation(w, bars | {0} if i % 3 else bars)
            assert theta(lbp) == SimplyBarredPermutation(w, (d ^ lbp.bars) - {0})
            s = descent_sum(lbp)
            assert s == len(d) + len(lbp.bars)
            parity = "even" if s % 2 == 0 else "odd"
            assert theta_inverse(theta(lbp), s // 2, parity) == lbp

    def test_psi_audit_validates_no_window_it_built(self, monkeypatch):
        def forbidden(values):
            raise AssertionError("as_window called")

        monkeypatch.setattr(barred, "as_window", forbidden)
        assert barred.audit_psi(4) == (2**5 * math.factorial(4), None)
