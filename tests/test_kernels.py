"""Unit tests for the counting kernel."""

import time

import pytest

from signedpaths.eulerian import eulerian, eulerian_polynomial, verify_identity
from signedpaths.kernels import (
    descent_histogram,
    histogram_cost,
    positive_descent_histogram,
)
from signedpaths.sgnperm import (
    descent_count,
    enumerate_group,
    positive_descent_count,
)


def object_level_histogram(kind, n):
    # slow second opinion: walk the actual group elements one by one
    counts = [0] * (n + 1)
    if kind == "positive":
        for u in enumerate_group(n, "B"):
            counts[positive_descent_count(u)] += 1
    else:
        for u in enumerate_group(n, kind):
            counts[descent_count(u, kind)] += 1
    return tuple(counts)


def replayed_cost(kind, n):
    # second route to the cost: replay the DP's state sets and count the
    # (state, letter) pairs it visits, each adding an (n + 1)-entry vector
    signed = kind != "A"
    states = {(n if kind == "B" else 0, 0)}
    pairs = 0
    for i in range(n):
        m = n - i
        size = 2 * m if signed else m
        pairs += len(states) * size
        states = {
            (p - (signed and p >= m), parity ^ (kind == "D" and p < m))
            for _, parity in states
            for p in range(size)
        }
    return (n + 1) * pairs


class TestHistogramCost:
    @pytest.mark.parametrize("kind", ["A", "B", "D", "positive"])
    def test_counts_the_pairs_the_dp_visits(self, kind):
        for n in range(2 if kind == "D" else 0, 16):
            assert histogram_cost(kind, n) == replayed_cost(kind, n), n

    def test_anchors(self):
        assert histogram_cost("B", 9) == 9_060
        assert histogram_cost("D", 14) == 94_020
        assert histogram_cost("A", 13) == 10_374
        assert histogram_cost("A", 200) == 536_026_800
        assert 1.3e8 < histogram_cost("B", 100) < 1.4e8


class TestValidation:
    def test_bad_requests(self):
        with pytest.raises(ValueError):
            descent_histogram("X", 3)
        with pytest.raises(ValueError):
            descent_histogram("A", -1)
        with pytest.raises(ValueError):
            descent_histogram("D", 1)
        with pytest.raises(ValueError):
            descent_histogram("D", 0)
        with pytest.raises(ValueError):
            positive_descent_histogram(-2)

    def test_one_kind_and_rank_rule(self):
        # the kernel and the Eulerian functions refuse with the same words
        for call in (
            lambda: descent_histogram("D", 1),
            lambda: eulerian_polynomial(1, "D"),
            lambda: eulerian(1, 0, "D"),
            lambda: eulerian_polynomial(1, "D", "bruteforce"),
        ):
            with pytest.raises(ValueError, match=r"^type D needs n >= 2$"):
                call()
        for call in (lambda: descent_histogram("C", 3), lambda: eulerian(3, 0, "C")):
            with pytest.raises(ValueError, match=r"^unknown group kind: 'C'$"):
                call()
        for call in (lambda: positive_descent_histogram(-1), lambda: eulerian(-1, 0)):
            with pytest.raises(ValueError, match=r"^n must be nonnegative$"):
                call()

    def test_rank_zero_group(self):
        assert descent_histogram("A", 0) == (1,)
        assert descent_histogram("B", 0) == (1,)
        assert positive_descent_histogram(0) == (1,)


class TestCrossChecks:
    @pytest.mark.parametrize("kind", ["A", "B", "D", "positive"])
    def test_against_object_level_walk(self, kind):
        lo = 2 if kind == "D" else 0
        for n in range(lo, 7):
            if kind == "positive":
                hist = positive_descent_histogram(n)
            else:
                hist = descent_histogram(kind, n)
            assert hist == object_level_histogram(kind, n)


class TestAgainstFormulas:
    """The running sums against the recurrence rows, far above any walk."""

    RANKS = [*range(41), 100]

    @pytest.mark.parametrize("kind", ["A", "B", "D"])
    def test_descent_histogram(self, kind):
        for n in self.RANKS[2 if kind == "D" else 0:]:
            row = eulerian_polynomial(n, kind, "formula")
            assert descent_histogram(kind, n) == row + (0,) * (n + 1 - len(row)), n

    def test_positive_descent_histogram(self):
        # 2^n windows share each permutation's positive descents
        for n in self.RANKS:
            row = [2**n * x for x in eulerian_polynomial(n, "A", "formula")]
            assert positive_descent_histogram(n) == (*row, *[0] * (n + 1 - len(row))), n


class TestLargeRanks:
    @pytest.mark.parametrize("name", ["eulBeven", "eulBodd", "stembridge"])
    def test_identities_at_rank_20_return_quickly(self, name):
        # B_20 and D_20 have more than 10^24 elements; the prefix DP counts
        # them without visiting any
        start = time.perf_counter()
        assert verify_identity(name, 20).holds
        assert time.perf_counter() - start < 5.0
