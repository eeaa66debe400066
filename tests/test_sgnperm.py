"""Unit tests for permutations, signed permutations and their statistics."""

import itertools
import random
from math import factorial

import pytest
from hypothesis import given, strategies as st

from signedpaths import sgnperm
from signedpaths.sgnperm import (
    MAX_ENUMERATION_N,
    as_permutation,
    as_window,
    audit_chi,
    chi,
    chi_inverse,
    descent_count,
    descent_set,
    descent_set_d_variant,
    enumerate_group,
    format_signed,
    full_notation,
    group_order,
    inversion_count,
    inversion_set,
    is_even_signed,
    is_smooth,
    mate,
    parse_signed,
    positive_descent_count,
    window_decomposition,
)

ANCHOR = (-2, 3, 1, 6, -4, -7, 5)


def windows(n):
    for values in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(s * v for s, v in zip(signs, values))


@st.composite
def random_windows(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    values = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return tuple(s * v for s, v in zip(signs, values))


# ---------------------------------------------------------------------------
# validation and notation


class TestNotation:
    def test_as_permutation_rejects_gaps(self):
        with pytest.raises(ValueError):
            as_permutation((1, 3))
        with pytest.raises(ValueError):
            as_permutation((1, 1))

    def test_as_window_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            as_window((1, 1))
        with pytest.raises(ValueError):
            as_window((2, 3))
        with pytest.raises(ValueError):
            as_window((0, 1))

    def test_full_notation_anchor(self):
        assert full_notation(ANCHOR) == (
            -5, 7, 4, -6, -1, -3, 2, -2, 3, 1, 6, -4, -7, 5
        )

    def test_full_notation_commutes_with_negation(self):
        for u in windows(3):
            word = full_notation(u)
            assert len(word) == 6
            assert word[3:] == u
            assert all(word[i] == -word[5 - i] for i in range(6))


# ---------------------------------------------------------------------------
# descents


class TestDescents:
    def test_type_a_on_anchor_pattern(self):
        assert sorted(descent_set((7, 4, 2, 3, 1, 6, 5))) == [1, 2, 4, 6]

    def test_type_b_anchor(self):
        assert sorted(descent_set(ANCHOR, "B")) == [0, 2, 4, 5]

    def test_type_b_zero_iff_first_negative(self):
        for u in windows(3):
            assert (0 in descent_set(u, "B")) == (u[0] < 0)

    def test_type_d_sentinel(self):
        # the sentinel is -u_2, so 0 is a descent iff -u_2 > u_1
        assert 0 in descent_set((-1, -2), "D")
        assert 0 in descent_set((-2, -1), "D")
        assert 0 not in descent_set((1, 2), "D")
        assert 0 not in descent_set((2, -1), "D")

    def test_type_d_rejects_n1(self):
        with pytest.raises(ValueError):
            descent_set((1,), "D")
        with pytest.raises(ValueError):
            descent_set_d_variant((-1,))

    def test_two_type_d_conventions_agree_up_to_renaming(self):
        for u in windows(4):
            renamed = frozenset(
                0 if i == -1 else i for i in descent_set_d_variant(u)
            )
            assert renamed == descent_set(u, "D")

    @given(random_windows(min_n=2))
    def test_type_d_conventions_agree_randomized(self, u):
        renamed = frozenset(0 if i == -1 else i for i in descent_set_d_variant(u))
        assert renamed == descent_set(u, "D")

    def test_variant_descents_mate_invariant(self):
        # positions -1 and 1 trade places under mates, so the count is fixed
        for u in windows(4):
            assert len(descent_set_d_variant(u)) == len(
                descent_set_d_variant(mate(u))
            )

    def test_smooth_elements_have_equal_b_and_d_descents(self):
        for u in windows(4):
            if is_smooth(u):
                assert descent_count(u, "D") == descent_count(u, "B")

    def test_positive_descents_match_pattern_descents(self):
        for u in windows(4):
            w, _ = window_decomposition(u)
            assert positive_descent_count(u) == descent_count(w)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            descent_set((1, 2), "C")
        with pytest.raises(ValueError):
            descent_count((1, 2), "C")

    @pytest.mark.parametrize("kind, ns", [
        ("A", range(8)), ("B", range(7)), ("D", range(2, 7)),
    ])
    def test_descent_count_is_the_size_of_the_descent_set(self, kind, ns):
        # the count reads the window directly; the set is the other route
        for n in ns:
            for u in enumerate_group(n, kind):
                assert descent_count(u, kind) == len(descent_set(u, kind))

    def test_descent_count_of_the_empty_window(self):
        for kind in ("A", "B"):
            assert descent_count((), kind) == len(descent_set((), kind)) == 0
        with pytest.raises(ValueError):
            descent_count((), "D")
        with pytest.raises(ValueError):
            descent_count((1,), "D")

    @pytest.mark.parametrize("n", range(7))
    def test_positive_descent_count_drops_the_sentinel(self, n):
        for u in enumerate_group(n, "B"):
            assert positive_descent_count(u) == len(descent_set(u, "B") - {0})


# ---------------------------------------------------------------------------
# inversions


class TestInversions:
    def test_type_a_agrees_with_position_scan(self):
        for w in itertools.permutations(range(1, 5)):
            expected = {
                (w[j], w[i])
                for i in range(4)
                for j in range(i + 1, 4)
                if w[i] > w[j]
            }
            assert inversion_set(w) == expected

    @pytest.mark.parametrize("kind", ("B", "D"))
    def test_signed_kinds_agree_with_full_notation_scan(self, kind):
        # the module docstring's rule read off positions in the full
        # notation: (i, j) with 1 <= i < j <= n or 1 <= -i <= j <= n is an
        # inversion when i occurs after j; type D leaves out (-i, i)
        rng = random.Random(19)
        samples = list(enumerate_group(3, kind))
        for _ in range(300):
            n = rng.randint(1, 7)
            samples.append(
                tuple(rng.choice((1, -1)) * v for v in rng.sample(range(1, n + 1), n))
            )
        for u in samples:
            where = {x: p for p, x in enumerate(full_notation(u))}
            n = len(u)
            expected = {
                (i, j)
                for j in range(1, n + 1)
                for i in range(-j, j)
                if i and where[i] > where[j] and not (kind == "D" and i == -j)
            }
            assert inversion_set(u, kind) == expected, u

    def test_identity_has_no_inversions(self):
        for kind in ("A", "B", "D"):
            assert inversion_count((1, 2, 3), kind) == 0

    def test_longest_elements(self):
        # -identity realizes every type B inversion; n^2 of them
        for n in (2, 3, 4):
            w0 = tuple(-i for i in range(1, n + 1))
            assert inversion_count(w0, "B") == n * n
            assert inversion_count(w0, "D") == n * n - n

    def test_length_formula_type_b(self):
        # |inv_B(u)| = inv(window) + sum of |u_i| over negative letters
        for u in windows(4):
            window_inv = sum(
                1
                for i in range(4)
                for j in range(i + 1, 4)
                if u[i] > u[j]
            )
            drop = sum(-x for x in u if x < 0)
            assert inversion_count(u, "B") == window_inv + drop

    def test_length_formula_type_d(self):
        for u in windows(4):
            window_inv = sum(
                1
                for i in range(4)
                for j in range(i + 1, 4)
                if u[i] > u[j]
            )
            drop = sum(-x - 1 for x in u if x < 0)
            assert inversion_count(u, "D") == window_inv + drop

    @given(random_windows(min_n=1, max_n=7))
    def test_length_formulas_randomized(self, u):
        n = len(u)
        window_inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if u[i] > u[j]
        )
        assert inversion_count(u, "B") == window_inv + sum(-x for x in u if x < 0)
        if n >= 2:
            assert inversion_count(u, "D") == window_inv + sum(
                -x - 1 for x in u if x < 0
            )

    def test_d_drops_exactly_the_diagonal_pairs(self):
        for u in windows(4):
            b = inversion_set(u, "B")
            d = inversion_set(u, "D")
            assert d <= b
            assert all(i == -j for i, j in b - d)

    def test_anchor_negative_pairs(self):
        pairs = sorted((-i, j) for i, j in inversion_set(ANCHOR, "B") if i < 0)
        assert pairs == sorted(
            [
                (7, 7), (4, 7), (2, 7), (3, 7), (1, 7), (6, 7),
                (4, 4), (2, 4), (3, 4), (1, 4), (4, 6), (2, 2),
            ]
        )
        assert len(pairs) == 12

    def test_containment_defines_a_partial_order(self):
        # antisymmetry: distinct windows have distinct type B inversion sets
        seen = {}
        for u in windows(3):
            key = inversion_set(u, "B")
            assert key not in seen
            seen[key] = u


class TestInversionMasks:
    """The batched masks, one bit per candidate pair, against inversion_set."""

    @pytest.mark.parametrize(
        "kind, n", [(kind, n) for kind in "ABD" for n in range(6) if (kind, n) != ("D", 0)]
    )
    def test_masks_match_inversion_set_bit_for_bit(self, kind, n):
        # the candidate pairs in table order, the first at the highest bit;
        # A_0, A_1, B_0 and D_1 have none, A_2 and B_1 one
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        if kind != "A":
            pairs += [(-a, j) for a in range(1, n + 1) for j in range(a + (kind == "D"), n + 1)]
        elements = list(enumerate_group(n, kind))
        masks = list(sgnperm._inversion_masks(elements, n, kind))
        assert len(masks) == len(elements)
        for u, mask in zip(elements, masks):
            inversions = inversion_set(u, kind)
            where = {x: p for p, x in enumerate(full_notation(u))}  # i after j: an inversion
            assert inversions == {(i, j) for i, j in pairs if where[i] > where[j]}, u
            bits = [1 << k for k, pair in enumerate(reversed(pairs)) if pair in inversions]
            assert mask == sum(bits), u
            assert len(bits) == len(inversions) == inversion_count(u, kind)

    def test_masks_of_one_candidate_pair(self):
        assert list(sgnperm._inversion_masks([(1, 2), (2, 1)], 2, "A")) == [0, 1]
        assert list(sgnperm._inversion_masks([(-1,), (1,)], 1, "B")) == [1, 0]
        assert list(sgnperm._inversion_masks([(1,)], 1, "D")) == [0]


# ---------------------------------------------------------------------------
# mates, smoothness, chi


class TestMates:
    def test_mate_is_an_involution(self):
        for u in windows(3):
            assert mate(mate(u)) == u
            assert mate(u) != u

    def test_exactly_one_mate_is_smooth(self):
        for u in windows(4):
            assert is_smooth(u) != is_smooth(mate(u))

    def test_mate_flips_even_signedness(self):
        for u in windows(3):
            assert is_even_signed(u) != is_even_signed(mate(u))

    def test_classify_anchor(self):
        assert (is_smooth(ANCHOR), is_even_signed(ANCHOR)) == (False, False)


class TestChi:
    def test_worked_examples(self):
        assert chi(ANCHOR) == (2, (2, 1, 5, -3, -6, 4))
        assert chi((6, -1, -2, -3, -4, -7, 5)) == (6, (-1, -2, -3, -4, -6, 5))
        assert chi_inverse(3, (-1, 5, -4, 2, 3)) == (3, -1, 6, -5, 2, 4)

    def test_rejects_smooth_input(self):
        with pytest.raises(ValueError):
            chi((1, 2, 3))

    def test_rejects_malformed_window(self):
        # |letters| = {1, 2, 3, 5} is not [4]; this used to return (3, (-1, 2, 4))
        with pytest.raises(ValueError):
            chi((3, -1, 2, 5))

    def test_round_trip_and_descent_shift(self):
        for n in (2, 3, 4):
            images = set()
            for u in windows(n):
                if is_smooth(u):
                    continue
                x, v = chi(u)
                assert 1 <= x <= n
                assert sorted(abs(t) for t in v) == list(range(1, n))
                assert chi_inverse(x, v) == u
                assert positive_descent_count(v) == descent_count(u, "B") - 1
                images.add((x, v))
            assert len(images) == n * group_order(n - 1, "B")

    def test_chi_inverse_always_non_smooth(self):
        for v in windows(3):
            for x in range(1, 5):
                u = chi_inverse(x, v)
                assert not is_smooth(u)
                assert chi(u) == (x, v)

    def test_chi_inverse_validates_x(self):
        with pytest.raises(ValueError):
            chi_inverse(5, (1, 2, 3))
        with pytest.raises(ValueError):
            chi_inverse(0, (1, 2, 3))


class TestWindowDecomposition:
    def test_worked_example(self):
        w, image = window_decomposition((3, -4, 1, -2, -5))
        assert w == (5, 2, 4, 3, 1)
        assert image == frozenset({1, 3})

    def test_identity(self):
        assert window_decomposition((1, 2, 3)) == ((1, 2, 3), frozenset({1, 2, 3}))

    def test_reconstruction(self):
        # the order-preserving injection determined by the image recovers u
        for u in windows(4):
            w, image = window_decomposition(u)
            n = len(u)
            negatives = sorted(set(range(1, n + 1)) - set(image), reverse=True)
            codomain = [-a for a in negatives] + sorted(image)
            rebuilt = tuple(codomain[x - 1] for x in w)
            assert rebuilt == u


# ---------------------------------------------------------------------------
# enumeration


class TestEnumeration:
    def test_group_orders(self):
        assert [group_order(n, "A") for n in range(5)] == [1, 1, 2, 6, 24]
        assert [group_order(n, "B") for n in range(4)] == [1, 2, 8, 48]
        assert [group_order(n, "D") for n in (1, 2, 3, 4)] == [1, 4, 24, 192]

    def test_streams_have_the_right_sizes(self):
        for n, kind, size in [(2, "A", 2), (3, "B", 48), (4, "D", 192)]:
            elements = list(enumerate_group(n, kind))
            assert len(elements) == size
            assert len(set(elements)) == size

    def test_b_stream_is_sorted_and_complete(self):
        for n in (1, 2, 3, 4, 5):
            elements = list(enumerate_group(n, "B"))
            assert elements == sorted(elements)
            assert set(elements) == set(windows(n))

    def test_d_stream_matches_even_signed_filter(self):
        for n in (1, 2, 3, 4):
            expected = (
                [(1,)]
                if n == 1
                else sorted(u for u in windows(n) if is_even_signed(u))
            )
            assert list(enumerate_group(n, "D")) == expected

    def test_lexicographic_extremes(self):
        for kind in ("A", "B", "D"):
            stream = list(enumerate_group(3, kind))
            assert stream[-1] == (3, 2, 1)
            if kind == "A":
                assert stream[0] == (1, 2, 3)
            elif kind == "B":
                assert stream[0] == (-3, -2, -1)
            else:  # the all-negative window is odd, so D starts later
                assert stream[0] == (-3, -2, 1)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_group(MAX_ENUMERATION_N + 1, "B"))

    def test_bad_ranks_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_group(-1, "A"))
        with pytest.raises(ValueError):
            list(enumerate_group(0, "D"))


# ---------------------------------------------------------------------------
# text forms


class TestTextForms:
    def test_parse_comma_and_compact_forms(self):
        assert parse_signed("-2,3,1,6,-4,-7,5") == ANCHOR
        assert parse_signed("-231") == (-2, 3, 1)
        assert parse_signed("1") == (1,)
        assert parse_signed("-2 3 1") == parse_signed(" -23 1 ") == (-2, 3, 1)

    def test_parse_rejects_garbage(self):
        for text in ("", "--1", "1,1", "102", "1-", "a"):
            with pytest.raises(ValueError):
                parse_signed(text)

    def test_format_round_trip(self):
        for u in windows(3):
            assert parse_signed(format_signed(u)) == u

    @given(random_windows())
    def test_format_round_trip_randomized(self, u):
        assert parse_signed(format_signed(u)) == u


def chi_walk(n):
    # the element-by-element reference for audit_chi: each v of B_(n-1), in
    # increasing order, with each x, through the public maps
    checked, last = 0, ()
    for v in sgnperm.enumerate_group(n - 1, "B"):
        if v <= last:
            return checked, f"windows not strictly increasing at {v}"
        last = v
        for x in range(1, n + 1):
            u = chi_inverse(x, v)
            if is_smooth(u) or chi(u) != (x, v):
                return checked, f"chi round trip broke at {u}"
            if descent_count(u, "B") != positive_descent_count(v) + 1:
                return checked, f"descent shift broke at {u}"
            checked += 1
    return checked, None


class TestChiAudit:
    def test_every_round_trip_holds(self):
        # the non-smooth half of B_n
        for n in range(2, 6):
            assert audit_chi(n) == (2 ** (n - 1) * factorial(n), None), n

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_needs_rank_two(self, n):
        # the enumeration cap first, then the audit's own floor
        message = "n must be nonnegative" if n < 0 else "chi needs n >= 2"
        with pytest.raises(ValueError, match=f"^{message}$"):
            audit_chi(n)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_walks_the_domain_not_b_n(self, monkeypatch, n):
        # the audit credits the pairs (x, v) of [n] x B_(n-1) once its tables
        # pass and walks no group; its element-wise reference walks the
        # domain, B_(n-1) once and never B_n, to the same count
        calls = []
        enumerate_all = sgnperm.enumerate_group

        def recorded(*args):
            calls.append(args)
            return enumerate_all(*args)

        monkeypatch.setattr(sgnperm, "enumerate_group", recorded)
        assert audit_chi(n) == (2 ** (n - 1) * factorial(n), None)
        assert calls == []
        assert chi_walk(n) == audit_chi(n)
        assert calls == [(n - 1, "B")]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_counts_no_image_element_wise(self, monkeypatch, n):
        # every (x, v) is credited once the tables pass their checks
        def forbidden(*args):
            raise AssertionError("descent_count called")

        monkeypatch.setattr(sgnperm, "descent_count", forbidden)
        assert audit_chi(n) == (2 ** (n - 1) * factorial(n), None)


class TestChiTables:
    # chi, chi_inverse and audit_chi rename letters through these tables
    @pytest.mark.parametrize("n", range(1, 9))
    def test_tables_are_the_closed_renaming_and_its_inverse(self, n):
        for x in range(1, n + 1):
            down = sgnperm._renaming(x, n, False)
            up = sgnperm._renaming(x, n, True)
            assert (len(down), len(up)) == (2 * n + 1, 2 * n - 1)
            for t in [*range(-n, 0), *range(1, n + 1)]:
                if abs(t) != x:
                    assert down[t] == t - (t > x) + (t < -x), (x, t)
                    assert up[down[t]] == t, (x, t)
            for t in [*range(1 - n, 0), *range(1, n)]:
                assert up[t] == t + (t >= x) - (t <= -x), (x, t)
                assert down[up[t]] == t, (x, t)

    def test_audit_reads_the_tables(self, monkeypatch):
        renaming = sgnperm._renaming

        def off_by_one(x, n, up):
            table = renaming(x, n, up)
            return table if up or x != 2 else tuple(t + (t == 1) for t in table)

        monkeypatch.setattr(sgnperm, "_renaming", off_by_one)
        assert audit_chi(4) == (0, "chi renaming tables broke at x = 2")

    def test_table_fault_is_named_where_a_walk_meets_it(self, monkeypatch):
        # chi with x = 3 renames the positive letter 4 to 4, not 3: the
        # tables check names x = 3, the first letter of the pair an
        # element-wise walk of the public maps over [n] x B_(n-1) meets first
        n = 5
        renaming = sgnperm._renaming

        def faulty(x, m, up):
            table = renaming(x, m, up)
            return table if up or x != 3 else (*table[:4], 4, *table[5:])

        monkeypatch.setattr(sgnperm, "_renaming", faulty)
        assert chi_walk(n) == (57, "chi round trip broke at (3, -5, -2, -1, 4)")
        assert audit_chi(n) == (0, "chi renaming tables broke at x = 3")

    def test_unsplit_fault_is_named_where_a_walk_meets_it(self, monkeypatch):
        # x is signed positive before a renamed first letter 1, so that u is
        # smooth: the first-letter check refuses every x > 1, and the audit
        # names x = 2, the first letter of the pair an element-wise walk of
        # the public maps meets first
        n = 4
        unsplit = sgnperm._unsplit
        monkeypatch.setattr(
            sgnperm, "_unsplit",
            lambda x, renamed: (x, *renamed) if renamed[0] == 1 else unsplit(x, renamed),
        )
        assert chi_walk(n) == (97, "chi round trip broke at (2, 1, -4, -3)")
        assert audit_chi(n) == (0, "chi renaming tables broke at x = 2")

    def test_walks_validate_no_window_they_built(self, monkeypatch):
        def forbidden(values):
            raise AssertionError("as_window called")

        monkeypatch.setattr(sgnperm, "as_window", forbidden)
        assert audit_chi(4) == (2**3 * factorial(4), None)
