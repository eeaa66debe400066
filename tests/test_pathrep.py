"""Unit tests for the lattice-path representation and height functions."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from signedpaths.pathrep import (
    PathRepresentation,
    as_height,
    as_path,
    classify_height,
    diagonal_crossings,
    east_south_turns,
    height_function,
    inversions_via_path,
    is_diagonal_symmetric,
    path_from_height,
    path_representation,
    reflect_path,
    render_ascii,
    render_cost,
    render_svg,
    signed_from_path,
    symmetric_paths,
)
from signedpaths.sgnperm import enumerate_group, inversion_set

ANCHOR = (-2, 3, 1, 6, -4, -7, 5)
ANCHOR_PATH = "SEESSSESEEESSE"
ANCHOR_LX = (7, 4, 2, 3, 1, 6, 5)


@st.composite
def heights(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    values = sorted(
        draw(st.lists(st.integers(0, n), min_size=n, max_size=n)), reverse=True
    )
    return (n, *values)


def cells_below(path):
    # the cells (x, y) that render_ascii marks "#", rows listed from y = n down
    n = len(path) // 2
    grid = render_ascii(PathRepresentation(path, tuple(range(1, n + 1))))
    return {
        (x, n - r)
        for r, row in enumerate(grid.splitlines()[1 : n + 1])
        for x, mark in enumerate(row.split()[1:], start=1)
        if mark == "#"
    }


def cell_by_cell(rep):
    # render_ascii drawn one cell at a time: (x, y) is "#" when y <= f(x)
    f = height_function(rep.path)
    n = len(rep.lambda_x)
    width = max((len(str(-v)) for v in rep.lambda_x), default=1)
    lines = [" " * (width + 2) + " ".join(str(v).rjust(width) for v in rep.lambda_x)]
    for y in range(n, 0, -1):
        row = " ".join(("#" if y <= f[x] else ".").rjust(width) for x in range(1, n + 1))
        lines.append(f"{str(rep.lambda_y(y)).rjust(width)}  {row}")
    return "\n".join([*lines, "", rep.path])


def all_heights(n):
    # all antitone maps {0..n} -> {0..n} with f(0) = n
    for values in itertools.combinations_with_replacement(range(n, -1, -1), n):
        yield (n, *values)


class TestValidation:
    def test_as_path_rejects_bad_words(self):
        with pytest.raises(ValueError):
            as_path("EX")
        with pytest.raises(ValueError):
            as_path("EES")

    def test_as_height_rejects_bad_values(self):
        with pytest.raises(ValueError):
            as_height((2, 3, 1))  # f(0) != n
        with pytest.raises(ValueError):
            as_height((2, 1, 2))  # not antitone
        with pytest.raises(ValueError):
            as_height((2, 1, -1))  # negative

    def test_reflect_is_an_involution(self):
        for path in symmetric_paths(4):
            assert reflect_path(reflect_path(path)) == path
        assert reflect_path("EESS") == "EESS"
        assert reflect_path("ESSE") == "SEES"


class TestPathRepresentation:
    def test_anchor(self):
        rep = path_representation(ANCHOR)
        assert rep.path == ANCHOR_PATH
        assert rep.lambda_x == ANCHOR_LX
        assert [rep.lambda_y(k) for k in range(1, 8)] == [
            -7, -4, -2, -3, -1, -6, -5
        ]

    def test_identity_path(self):
        assert path_representation((1, 2, 3)).path == "SSSEEE"
        assert path_representation((1, 2, 3)).lambda_x == (1, 2, 3)

    @pytest.mark.parametrize("u", [(1, 1), (2, -2), (0, 1), (1, 3)])
    def test_rejects_malformed_window(self, u):
        with pytest.raises(ValueError):
            path_representation(u)

    def test_round_trip_exhaustive(self):
        for n in (1, 2, 3, 4):
            for u in enumerate_group(n, "B"):
                rep = path_representation(u)
                assert is_diagonal_symmetric(rep.path)
                assert signed_from_path(rep.path, rep.lambda_x) == u

    def test_anchor_inverse(self):
        assert signed_from_path(ANCHOR_PATH, ANCHOR_LX) == ANCHOR

    def test_signed_from_path_validates(self):
        with pytest.raises(ValueError):
            signed_from_path("ESSE", (1, 2))  # not symmetric
        with pytest.raises(ValueError):
            signed_from_path("EESS", (1, 2, 3))  # wrong length
        with pytest.raises(ValueError):
            signed_from_path("EESS", (1, 3))  # not a permutation

    def test_every_symmetric_path_is_realized(self):
        for n in (1, 2, 3):
            seen = {path_representation(u).path for u in enumerate_group(n, "B")}
            assert seen == set(symmetric_paths(n))


class TestHeights:
    def test_worked_pairs(self):
        assert height_function("ESESES") == (3, 3, 2, 1)
        assert path_from_height((3, 3, 2, 1)) == "ESESES"
        assert height_function(ANCHOR_PATH) == (7, 6, 6, 3, 2, 2, 2, 0)
        assert height_function("SSSEEE") == (3, 0, 0, 0)
        assert path_from_height((3, 0, 0, 0)) == "SSSEEE"

    def test_round_trip_all_paths_n4(self):
        for combo in itertools.product("ES", repeat=8):
            word = "".join(combo)
            if word.count("E") != 4:
                continue
            assert path_from_height(height_function(word)) == word

    @given(heights())
    def test_round_trip_from_heights(self, f):
        assert height_function(path_from_height(f)) == f

    def test_classify_worked_examples(self):
        c = classify_height((3, 3, 2, 1))
        assert (c.self_adjoint, c.fixed_point_free, c.center, c.fixed_point) == (
            True, False, 2, 2
        )
        c = classify_height((3, 3, 1, 1))
        assert (c.self_adjoint, c.fixed_point_free, c.center, c.fixed_point) == (
            True, True, 1, None
        )
        # the full square: every cell below, f = n everywhere
        c = classify_height((2, 2, 2))
        assert c.self_adjoint and c.fixed_point == 2 and c.center == 2

    def test_self_adjoint_iff_symmetric_path(self):
        for n in (1, 2, 3, 4, 5):
            for f in all_heights(n):
                assert classify_height(f).self_adjoint == is_diagonal_symmetric(
                    path_from_height(f)
                )

    def test_at_most_one_fixed_point_and_center(self):
        for n in (1, 2, 3, 4):
            for f in all_heights(n):
                fixed = [x for x in range(n + 1) if f[x] == x]
                assert len(fixed) <= 1
                c = classify_height(f)
                if fixed:
                    assert c.fixed_point == fixed[0] == c.center
                else:
                    assert c.fixed_point is None
                assert c.center == max(x for x in range(n + 1) if x <= f[x])


class TestCellsAndInversions:
    # render_ascii marks the cells (x, y) weakly below the path, y <= f(x)
    def test_cells_below_small(self):
        assert cells_below("ESES") == {(1, 2), (1, 1), (2, 1)}
        assert cells_below("SSEE") == set()
        assert cells_below("EESS") == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_cells_below_count_is_area(self):
        for f in all_heights(4):
            assert len(cells_below(path_from_height(f))) == sum(f[1:])

    def test_path_inversions_match_direct_inversions(self):
        for n in (1, 2, 3, 4):
            for u in enumerate_group(n, "B"):
                assert inversions_via_path(u) == inversion_set(u, "B")

    def test_anchor_negative_count(self):
        assert sum(i < 0 for i, _ in inversions_via_path(ANCHOR)) == 12


class TestTurnsAndCrossings:
    def test_turns_on_staircase(self):
        assert east_south_turns("ESESES") == [(1, 3), (2, 2), (3, 1)]
        assert east_south_turns("SSSEEE") == []
        assert east_south_turns(ANCHOR_PATH) == [(2, 6), (3, 3), (6, 2)]

    def test_turns_count_bars(self):
        # on the anchor the turns sit at the bar abscissas {2, 3, 6}
        assert [x for x, _ in east_south_turns(ANCHOR_PATH)] == [2, 3, 6]

    def test_diagonal_crossings(self):
        assert diagonal_crossings("ESESES") == [2]
        assert diagonal_crossings("SSSEEE") == [0]
        assert diagonal_crossings("EESS") == [2]
        assert diagonal_crossings("SEES") == [1]

    @pytest.mark.parametrize("n", range(6))
    def test_height_rules_match_a_step_walk(self, n):
        # every word with n East and n South steps, walked point by point
        for easts in itertools.combinations(range(2 * n), n):
            path = "".join("E" if i in easts else "S" for i in range(2 * n))
            points = [(0, n)]
            for step in path:
                x, y = points[-1]
                points.append((x + 1, y) if step == "E" else (x, y - 1))
            turns = [points[i + 1] for i in range(2 * n - 1)
                     if path[i:i + 2] == "ES"]
            assert east_south_turns(path) == turns, path
            assert diagonal_crossings(path) == [x for x, y in points if x == y], path

    def test_symmetric_paths_are_symmetric_and_counted(self):
        for n in (0, 1, 2, 3, 4, 5):
            paths = list(symmetric_paths(n))
            assert len(paths) == 2**n
            assert len(set(paths)) == 2**n
            for p in paths:
                assert is_diagonal_symmetric(p)
                assert len(p) == 2 * n


class TestRendering:
    def test_ascii_anchor(self):
        art = render_ascii(path_representation(ANCHOR))
        lines = art.splitlines()
        assert lines[0].split() == ["7", "4", "2", "3", "1", "6", "5"]
        assert lines[1].startswith("-5")
        assert lines[-1] == ANCHOR_PATH
        # 21 cells lie below the anchor path
        assert art.count("#") == 21
        assert art.count("#") + art.count(".") == render_cost(len(ANCHOR)) == 49

    def test_ascii_rows_match_the_cell_rule(self):
        rng = random.Random(25)
        windows = [(), (1,), (-1,)]
        for _ in range(300):
            n = rng.randint(0, 30)
            letters = rng.sample(range(1, n + 1), n)
            windows.append(tuple(x * rng.choice((1, -1)) for x in letters))
        for u in windows:
            rep = path_representation(u)
            assert render_ascii(rep) == cell_by_cell(rep), u

    def test_svg_structure(self):
        svg = render_svg(path_representation((-2, 3, 1)))
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<polyline") == 1
        assert "stroke-dasharray" in svg  # the diagonal
        for label in ("2", "3", "1", "-2", "-3", "-1"):
            assert f">{label}</text>" in svg
