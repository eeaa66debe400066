"""Unit tests for threshold graphs and their signed/barred correspondences."""

import collections
import functools
import gc
import itertools
import json
import math
import tracemalloc

import pytest

from signedpaths import threshold
from signedpaths.barred import (
    SimplyBarredPermutation,
    _apply as apply_plan,
    blocks,
    central_block_index,
    classify_sbp,
    enumerate_lbp,
    enumerate_sbp,
    psi_inverse,
)
from signedpaths.pathrep import (
    classify_height,
    height_function,
    path_from_height,
    path_representation,
    signed_from_path,
    symmetric_paths,
)
from signedpaths.sgnperm import (
    audit_chi,
    descent_count,
    enumerate_group,
    group_order,
    is_even_signed,
    is_smooth,
    mate,
)
from signedpaths.eulerian import MAX_BRUTE_ELEMENTS, threshold_counts
from signedpaths.posets import tg_poset
from signedpaths.threshold import (
    SimpleGraph,
    ThresholdPair,
    audit_bijtgsbps,
    audit_tgdo,
    canonical_degree_ordering,
    degree,
    degree_orderings,
    edges_from_height,
    edges_from_signed,
    enumerate_graphs,
    enumerate_threshold_graphs,
    enumerate_tg,
    format_graph,
    graph,
    graph_dict,
    graph_from_json,
    height_from_edges,
    is_degree_ordering,
    is_threshold,
    listing_cost,
    neighbors,
    parse_graph,
    sbp_from_threshold,
    signed_from_tg,
    tg_pair,
    threshold_from_sbp,
    vicinal_compare,
)

ANCHOR = (-2, 3, 1, 6, -4, -7, 5)
ANCHOR_EDGES = frozenset(
    [(1, 4), (1, 7), (2, 4), (2, 7), (3, 4), (3, 7), (4, 6), (4, 7), (6, 7)]
)


class TestGraphBasics:
    def test_edges_are_normalized(self):
        g = SimpleGraph(3, frozenset({(3, 1)}))
        assert g.edges == frozenset({(1, 3)})
        assert graph(3, [[2, 1]]).edges == frozenset({(1, 2)})

    def test_validation(self):
        with pytest.raises(ValueError):
            SimpleGraph(3, frozenset({(1, 1)}))
        with pytest.raises(ValueError):
            SimpleGraph(3, frozenset({(0, 1)}))
        with pytest.raises(ValueError):
            SimpleGraph(3, frozenset({(1, 4)}))

    @pytest.mark.parametrize("edge", [(1.5, 2), (1, 2.0), ("1", 2), (1, None)])
    def test_edge_ends_must_be_integers(self, edge):
        # an end inside the vertex range but not an integer is refused at
        # the boundary, not met later as a TypeError in a recognizer
        with pytest.raises(ValueError, match="^edge ends must be integers: "):
            SimpleGraph(3, {edge})
        with pytest.raises(ValueError, match="^edge ends must be integers: "):
            graph(3, iter([edge]))

    @pytest.mark.parametrize("make", [
        lambda: SimpleGraph(True),
        lambda: SimpleGraph(2, {(True, 2)}),
        lambda: SimpleGraph(2, {(1, False)}),
    ], ids=["bool n", "bool first end", "bool second end"])
    def test_bools_are_not_vertices(self, make):
        # a bool is an int subclass, but graph_from_json refuses one, so the
        # constructor does too: every graph it builds reads back from JSON
        refused = "^(a graph needs an integer vertex count, not|edge ends must be integers:) "
        with pytest.raises(ValueError, match=refused):
            make()

    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            "[]",
            '{"n": 2, "edges": 5}',
            '{"n": 2, "edges": [[1, "a"]]}',
            '{"n": 2, "edges": [[1, 2, 3]]}',
            '{"n": 2.7}',
            '{"n": true}',
            '{"n": 2, "edges": [[true, 2]]}',
            "not json",
        ],
    )
    def test_graph_from_json_refuses_malformed_documents(self, text):
        with pytest.raises(ValueError):
            graph_from_json(text)

    def test_negative_vertex_count(self):
        for make in (
            lambda: graph(-1),
            lambda: parse_graph("-2;"),
            lambda: graph_from_json('{"n": -3}'),
        ):
            with pytest.raises(ValueError, match="nonnegative vertex count"):
                make()

    def test_neighbors_and_degree(self):
        g = graph(4, [(1, 2), (1, 3)])
        assert neighbors(g, 1) == frozenset({2, 3})
        assert neighbors(g, 4) == frozenset()
        assert [degree(g, v) for v in range(1, 5)] == [2, 1, 1, 0]

    def test_vertices_outside_the_set_are_refused(self):
        # a vertex outside [n] is named with n, not answered for as isolated
        g = graph(3, [(1, 2)])
        for call in (
            lambda: neighbors(g, 7),
            lambda: degree(g, 0),
            lambda: vicinal_compare(g, 9, 1),
            lambda: vicinal_compare(g, 1, 4),
        ):
            with pytest.raises(ValueError, match=r"^vertex \d is not in the vertex set \[3\]$"):
                call()
        with pytest.raises(ValueError, match=r"^vertex 1 is not in the vertex set \[0\]$"):
            degree(graph(0), 1)
        assert (neighbors(g, 3), degree(g, 1), vicinal_compare(g, 3, 1)) == (frozenset(), 1, True)


class TestRecognition:
    def test_forbidden_quadruples(self):
        path4 = graph(4, [(1, 2), (2, 3), (3, 4)])
        cycle4 = graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        matching = graph(4, [(1, 2), (3, 4)])
        for bad in (path4, cycle4, matching):
            assert not is_threshold(bad, method="vicinal")
            assert not is_threshold(bad, method="forbidden")

    def test_basic_positives(self):
        for g in (
            graph(4),
            graph(4, itertools.combinations(range(1, 5), 2)),
            graph(4, [(1, 2), (1, 3), (1, 4)]),
            graph(1),
            graph(0),
        ):
            assert is_threshold(g)
            assert is_threshold(g, method="forbidden")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            is_threshold(graph(1), method="magic")

    @pytest.mark.parametrize("n", range(6))
    def test_recognizers_agree(self, n):
        # the preorder-totality and forbidden-subgraph definitions coincide
        for g in enumerate_graphs(n):
            assert is_threshold(g, "vicinal") == is_threshold(g, "forbidden")

    def test_vicinal_compare_is_total_on_threshold(self):
        g = graph(4, [(1, 2), (1, 3), (1, 4), (2, 3)])
        assert is_threshold(g)
        for v, u in itertools.combinations(range(1, 5), 2):
            assert vicinal_compare(g, v, u) or vicinal_compare(g, u, v)


class TestDegreeOrderings:
    def test_canonical_anchor(self):
        assert canonical_degree_ordering(graph(7, ANCHOR_EDGES)) == (
            4, 7, 1, 2, 3, 6, 5,
        )
        assert canonical_degree_ordering(graph(3, [(1, 2), (1, 3)])) == (1, 2, 3)

    def test_canonical_requires_threshold(self):
        with pytest.raises(ValueError):
            canonical_degree_ordering(graph(4, [(1, 2), (3, 4)]))

    def test_is_degree_ordering(self):
        g = graph(3, [(1, 2), (1, 3)])
        assert is_degree_ordering(g, (1, 2, 3))
        assert is_degree_ordering(g, (1, 3, 2))
        assert not is_degree_ordering(g, (2, 1, 3))
        with pytest.raises(ValueError):
            is_degree_ordering(g, (1, 2))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_orderings_product_structure(self, n):
        for g in enumerate_threshold_graphs(n):
            sizes: dict[int, int] = {}
            for v in range(1, n + 1):
                d = degree(g, v)
                sizes[d] = sizes.get(d, 0) + 1
            expected = math.prod(math.factorial(s) for s in sizes.values())
            orderings = list(degree_orderings(g))
            assert len(orderings) == len(set(orderings)) == expected
            assert canonical_degree_ordering(g) in orderings
            for w in orderings:
                assert is_degree_ordering(g, w)

    def test_orderings_in_product_order(self):
        # the order of itertools.product over each degree class's
        # permutations, highest degree first
        def reference(g):
            classes: dict[int, list[int]] = {}
            for v in range(1, g.n + 1):
                classes.setdefault(degree(g, v), []).append(v)
            pools = [itertools.permutations(vs) for _, vs in sorted(classes.items())[::-1]]
            return [sum(parts, ()) for parts in itertools.product(*pools)]

        for n in range(1, 7):
            for g in enumerate_threshold_graphs(n):
                assert list(degree_orderings(g)) == reference(g), g

    def test_orderings_are_lazy(self):
        # the 5,040 orderings of the empty graph on [7], one at a time
        # (a product over materialised pools peaked at 0.53 MB)
        g = graph(7)
        tracemalloc.start()
        try:
            assert sum(1 for _ in degree_orderings(g)) == 5040
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50_000

    def test_threshold_walk_holds_no_list(self):
        # the 2,874 threshold graphs on [6], one at a time (collecting and
        # sorting every edge mask before the first yield peaked at 289 KB)
        tracemalloc.start()
        try:
            assert sum(1 for _ in enumerate_threshold_graphs(6)) == 2874
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50_000


class TestHeightsAndEdges:
    def test_worked_examples(self):
        assert sorted(edges_from_height((3, 3, 2, 1))) == [(1, 2), (1, 3)]
        assert height_from_edges([(1, 2), (1, 3)], 3) == (3, 3, 1, 1)
        assert height_from_edges([], 0) == (0,)

    def test_edges_require_self_adjoint(self):
        with pytest.raises(ValueError):
            edges_from_height((2, 2, 0))

    def test_height_preconditions(self):
        with pytest.raises(ValueError):
            height_from_edges([(1, 2), (3, 4)], 4)  # not threshold
        with pytest.raises(ValueError):
            height_from_edges([(2, 3)], 3)  # identity not a degree ordering

    def test_height_refuses_a_negative_vertex_count(self):
        # as a graph does, not as a height function the caller never gave
        with pytest.raises(ValueError, match="^a graph needs a nonnegative vertex count, not -1$"):
            height_from_edges([], -1)

    @pytest.mark.parametrize("n", range(6))
    def test_self_adjoint_fibers_pair_up(self, n):
        # Each identity-ordered threshold graph comes from exactly two
        # self-adjoint height functions; the fixed-point-free one is the
        # canonical representative height_from_edges returns.
        fibers: dict[frozenset, list] = {}
        for path in symmetric_paths(n):
            f = height_function(path)
            fibers.setdefault(edges_from_height(f), []).append(f)
        assert len(fibers) == 2 ** max(n - 1, 0)
        for edges, fs in fibers.items():
            if n == 0:
                assert fs == [(0,)]
                continue
            assert len(fs) == 2
            free = [f for f in fs if classify_height(f).fixed_point_free]
            assert len(free) == 1
            assert height_from_edges(edges, n) == free[0]


class TestSignedCorrespondence:
    def test_anchor_edges(self):
        assert edges_from_signed(ANCHOR) == ANCHOR_EDGES

    def test_identity_has_no_edges(self):
        assert edges_from_signed((1, 2, 3)) == frozenset()

    @pytest.mark.parametrize("u", [(2, -2), (1, 1), (0, 1), (1, 3)])
    def test_rejects_malformed_window(self, u):
        # (2, -2) used to give the loop {(2, 2)}
        with pytest.raises(ValueError):
            edges_from_signed(u)
        with pytest.raises(ValueError):
            tg_pair(u)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_mate_invariance(self, n):
        for u in enumerate_group(n, "B"):
            assert edges_from_signed(u) == edges_from_signed(mate(u))

    def test_tg_pair_anchor(self):
        pair = tg_pair(ANCHOR)
        assert pair.w == (7, 4, 2, 3, 1, 6, 5)
        assert pair.edges == ANCHOR_EDGES

    def test_threshold_pair_validation(self):
        with pytest.raises(ValueError):
            ThresholdPair((1, 2, 3, 4), frozenset({(1, 2), (3, 4)}))
        with pytest.raises(ValueError):
            ThresholdPair((3, 1, 2), frozenset({(1, 2), (1, 3)}))

    def test_threshold_pair_normalises_its_edges(self):
        # the same pair, and the same hash, whichever way an edge is written
        pair = ThresholdPair((1, 2, 3), {(2, 1)})
        assert pair.edges == frozenset({(1, 2)})
        assert pair == ThresholdPair((1, 2, 3), frozenset({(1, 2)}))
        assert hash(pair) == hash(ThresholdPair((1, 2, 3), [(1, 2)]))

    @pytest.mark.parametrize("n", range(6))
    def test_edges_match_height_route(self, n):
        # edges of the height function of the path, relabeled by lambda_x
        for u in enumerate_group(n, "B"):
            rep = path_representation(u)
            lam = rep.lambda_x
            expected = {
                tuple(sorted((lam[y - 1], lam[x - 1])))
                for y, x in edges_from_height(height_function(rep.path))
            }
            assert edges_from_signed(u) == expected

    @pytest.mark.parametrize("n", range(1, 6))
    def test_signed_from_tg_matches_path_route(self, n):
        # height_from_edges -> path_from_height -> signed_from_path
        for u in enumerate_group(n, "D"):
            pair = tg_pair(u)
            pos = {v: i for i, v in enumerate(pair.w, start=1)}
            f = height_from_edges([(pos[a], pos[b]) for a, b in pair.edges], n)
            v = signed_from_path(path_from_height(f), pair.w)
            assert signed_from_tg(pair) == (v if is_even_signed(v) else mate(v))

    @pytest.mark.parametrize("n", range(5))
    def test_trusted_pairs_rebuild(self, n):
        # tg_pair and enumerate_tg skip ThresholdPair's checks; the
        # validating constructor must accept and reproduce what they build
        pairs = list(enumerate_tg(n)) + [tg_pair(u) for u in enumerate_group(n, "B")]
        for pair in pairs:
            rebuilt = ThresholdPair(pair.w, pair.edges)
            assert type(pair) is ThresholdPair
            assert pair == rebuilt and hash(pair) == hash(rebuilt)

    @pytest.mark.parametrize("n", range(5))
    def test_bijection_with_even_signed(self, n):
        pairs = list(enumerate_tg(n))
        assert len(pairs) == len(set(pairs))
        images = set()
        for pair in pairs:
            u = signed_from_tg(pair)
            assert is_even_signed(u)
            assert tg_pair(u) == pair
            images.add(u)
        evens = {u for u in enumerate_group(n, "B") if is_even_signed(u)}
        assert images == evens
        for u in evens:
            assert signed_from_tg(tg_pair(u)) == u


class TestBarredCorrespondence:
    def test_degenerate_cases(self):
        assert sbp_from_threshold(graph(0)) == SimplyBarredPermutation(
            (), frozenset()
        )
        assert sbp_from_threshold(graph(1)) == SimplyBarredPermutation(
            (1,), frozenset()
        )
        assert threshold_from_sbp(SimplyBarredPermutation((1,), frozenset())) == graph(1)
        assert threshold_from_sbp(SimplyBarredPermutation((), frozenset())) == graph(0)

    def test_rejects_bad_diagrams(self):
        with pytest.raises(ValueError):
            threshold_from_sbp(SimplyBarredPermutation((2, 1), frozenset()))
        with pytest.raises(ValueError):
            # normal but first block a singleton
            threshold_from_sbp(SimplyBarredPermutation((1, 2), frozenset({1})))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_round_trip_and_image(self, n):
        images = set()
        for g in enumerate_threshold_graphs(n):
            sbp = sbp_from_threshold(g)
            cls = classify_sbp(sbp)
            assert cls.normal
            assert len(blocks(sbp)[0]) >= 2
            assert threshold_from_sbp(sbp) == g
            images.add(sbp)
        # the encoding is onto: every normal diagram with a long first
        # block arises from exactly one threshold graph
        eligible = {
            sbp
            for sbp in enumerate_sbp(n)
            if classify_sbp(sbp).normal and len(blocks(sbp)[0]) >= 2
        }
        assert images == eligible

    @pytest.mark.parametrize("n", range(2, 7))
    def test_encoding_is_the_psi_route(self, n):
        # psi^-1 of the smooth one of signed_from_tg's image and its mate,
        # with the central block rotated to the front
        for g in enumerate_threshold_graphs(n):
            u = signed_from_tg(ThresholdPair(canonical_degree_ordering(g), g.edges))
            sbp = psi_inverse(u if is_smooth(u) else mate(u))
            bs = blocks(sbp)
            bs.insert(0, bs.pop(central_block_index(sbp) - 1))
            assert blocks(sbp_from_threshold(g)) == bs, g

    @pytest.mark.parametrize("n", range(2, 6))
    def test_blocks_are_degree_classes(self, n):
        for g in enumerate_threshold_graphs(n):
            sbp = sbp_from_threshold(g)
            degs = [
                {degree(g, v) for v in blk} for blk in blocks(sbp) if blk
            ]
            # equal degree <=> same block
            assert all(len(d) == 1 for d in degs)
            flat = [d.pop() for d in degs]
            assert len(flat) == len(set(flat))


class TestCountsAndText:
    @pytest.mark.parametrize(
        "n, total", [(1, 1), (2, 2), (3, 8), (4, 46), (5, 332)]
    )
    def test_labeled_counts(self, n, total):
        assert sum(1 for _ in enumerate_threshold_graphs(n)) == total

    @pytest.mark.parametrize(
        "make",
        [enumerate_graphs, enumerate_threshold_graphs, enumerate_tg, enumerate_sbp,
         enumerate_lbp, symmetric_paths, tg_poset],
        ids=lambda f: f.__name__,
    )
    def test_negative_rank_is_refused(self, make):
        # the generators raise at their first step
        with pytest.raises(ValueError, match="nonnegative"):
            list(make(-1))

    def test_listing_cost_counts_edge_slots(self):
        # one unit per graph on fewer than two vertices, C(n, 2) per graph above
        for n in range(8):
            graphs = sum(1 for _ in enumerate_threshold_graphs(n))
            assert listing_cost(n) == graphs * max(n * (n - 1) // 2, 1)
        # the ordered-Bell class size against the Stirling route, past the cap too
        for n in (8, 20, 60, 100):
            assert threshold._graph_count(n) == threshold_counts(n).total
        # the exact price up to the cap; no rank outside 0..12 is priced
        assert listing_cost(12) == threshold._graph_count(12) * 66
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            listing_cost(-1)
        for n in (13, 10**8):
            with pytest.raises(ValueError, match=f"^n = {n} exceeds the enumeration cap 12$"):
                listing_cost(n)

    def test_default_budget_lists_n8_but_not_n9(self):
        # 334,982 graphs of 28 slots; 4,349,492 graphs of 36 slots at n = 9
        assert listing_cost(8) == 9_379_496 <= MAX_BRUTE_ELEMENTS
        assert listing_cost(9) == 156_581_712 > MAX_BRUTE_ELEMENTS

    @pytest.mark.parametrize("n", range(8))
    def test_walk_masks_are_the_threshold_graphs(self, n):
        # bit i of a mask is the i-th pair of combinations([n], 2).  Built
        # independently, by adding the vertices one at a time, each isolated
        # or dominating, the threshold graphs' masks sorted are the walk's,
        # and the walk's degrees are theirs
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        bit = {p: 1 << i for i, p in enumerate(pairs)}

        @functools.cache
        def built(vs):
            if not vs:
                return {0}
            masks = set()
            for v in vs:
                star = sum(bit[min(v, x), max(v, x)] for x in vs - {v})
                for mask in built(vs - {v}):
                    masks |= {mask, mask | star}
            return masks

        walked = list(threshold._walk(n))
        masks = [mask for mask, _ in walked]
        assert all(a < b for a, b in itertools.pairwise(masks))
        assert masks == sorted(built(frozenset(range(1, n + 1))))
        for mask, deg in walked:
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            degrees = collections.Counter(itertools.chain(*edges))
            assert deg == [degrees[v] for v in range(n + 1)]

    @pytest.mark.parametrize("n", range(7))
    def test_tg_pairs_follow_the_graphs_and_their_orderings(self, n):
        # the reference route: each threshold graph, then its degree
        # orderings recounted from its edges
        expected = [
            ThresholdPair(w, g.edges)
            for g in enumerate_threshold_graphs(n)
            for w in degree_orderings(g)
        ]
        assert list(enumerate_tg(n)) == expected

    @pytest.mark.parametrize("n", range(1, 5))
    def test_tg_cardinality(self, n):
        # pairs (graph, degree ordering) match the even-signed group
        assert sum(1 for _ in enumerate_tg(n)) == 2 ** (n - 1) * math.factorial(n)

    @pytest.mark.parametrize("n", range(7))
    def test_creation_sequences_match_filter(self, n):
        # same graphs, same edge-subset order as filtering every graph
        expected = [g for g in enumerate_graphs(n) if is_threshold(g)]
        assert list(enumerate_threshold_graphs(n)) == expected

    @pytest.mark.parametrize("n", range(6))
    def test_trusted_graphs_rebuild(self, n):
        # the enumerators and the decoder skip SimpleGraph's checks; the
        # validating constructor must accept and reproduce what they build
        decoded = (threshold_from_sbp(sbp_from_threshold(g)) for g in enumerate_threshold_graphs(n))
        for g in itertools.chain(enumerate_graphs(n), enumerate_threshold_graphs(n), decoded):
            rebuilt = SimpleGraph(g.n, g.edges)
            assert type(g) is SimpleGraph
            assert g == rebuilt and hash(g) == hash(rebuilt)

    def test_edge_masks_past_64_bits(self):
        # C(12, 2) = 66 slots, pair (11, 12) at bit 65.  The first 2,000
        # graphs at n = 12 hold only low bits; their complements, threshold
        # too, hold (11, 12), and are the walk's last 2,000 in reverse.  The
        # forbidden recognizer runs on every 40th pair: it reads the six
        # pairs of each of the 495 quadruples, about 0.7 ms per graph
        n, full = 12, (1 << 66) - 1
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        bit = {p: 1 << i for i, p in enumerate(pairs)}
        masks = []
        for i, g in enumerate(itertools.islice(enumerate_threshold_graphs(n), 2000)):
            masks.append(sum(bit[e] for e in g.edges))
            h = graph(n, set(pairs) - g.edges)
            assert full ^ masks[-1] >= 1 << 65
            assert threshold._mask_edges(full ^ masks[-1], n) == h.edges
            for k in (g, h):
                assert is_threshold(k)
                assert graph_from_json(json.dumps(graph_dict(k))) == k
                assert threshold_from_sbp(sbp_from_threshold(k)) == k
            if i % 40 == 0:
                assert is_threshold(g, "forbidden") and is_threshold(h, "forbidden")
        assert all(a < b for a, b in itertools.pairwise(masks))

    def test_enumerate_graphs_counts(self):
        for n in range(5):
            pairs = n * (n - 1) // 2
            assert sum(1 for _ in enumerate_graphs(n)) == 2**pairs

    def test_text_forms(self):
        g = graph(3, [(1, 3), (1, 2)])
        assert format_graph(g) == "3; 1-2, 1-3"
        assert parse_graph("3; 1-2, 1-3") == g
        assert parse_graph("3;") == graph(3)
        assert format_graph(graph(2)) == "2;"
        assert graph_from_json(json.dumps(graph_dict(g))) == g
        assert graph_dict(g) == {"n": 3, "edges": [[1, 2], [1, 3]]}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_graph("3; 1+2")
        with pytest.raises(ValueError):
            parse_graph("x; 1-2")
        with pytest.raises(ValueError):
            parse_graph("2; 1-3")


def repeat_in_place(stream, k):
    # the stream with its element k replaced by element k - 1
    def walk(n):
        items = list(stream(n))
        items[k] = items[k - 1]
        return iter(items)

    return walk


class TestAudits:
    def test_tgdo_round_trips_cover_d_n(self):
        for n in range(1, 5):
            assert audit_tgdo(n) == (group_order(n, "D"), None), n

    def test_tgdo_needs_rank_one(self):
        # D_0 has no group order; the message names the argument
        with pytest.raises(ValueError, match="^tgdo needs n >= 1$"):
            audit_tgdo(0)

    def test_bijtgsbps_round_trips_cover_the_class(self):
        assert audit_bijtgsbps(0) == (1, None)
        for n in range(1, 6):
            assert audit_bijtgsbps(n) == (threshold_counts(n).total, None), n

    def test_bijtgsbps_counts_the_class(self, monkeypatch):
        # one graph dropped from the walk leaves every round trip and every
        # image distinct; only the count against the formula sees it
        walk = threshold._walk
        monkeypatch.setattr(
            threshold,
            "_walk",
            lambda n: (g for i, g in enumerate(walk(n)) if i != 100),
        )
        assert audit_bijtgsbps(5) == (
            331,
            "the counting formula gives 332 threshold graphs",
        )

    def test_bijtgsbps_catches_a_repeated_graph(self, monkeypatch):
        walk = threshold._walk

        def repeating(n):
            graphs = list(walk(n))
            return [*graphs, graphs[100]]

        monkeypatch.setattr(threshold, "_walk", repeating)
        assert audit_bijtgsbps(5) == (
            332,
            "graphs not strictly increasing at 5; 1-5, 3-5",
        )

    def test_bijtgsbps_catches_a_repeat_in_place_of_a_graph(self, monkeypatch):
        # graph 100 is dropped and graph 99 walked twice: every round trip
        # holds and the count matches, so only the order guard sees it
        monkeypatch.setattr(threshold, "_walk", repeat_in_place(threshold._walk, 100))
        assert audit_bijtgsbps(5) == (
            100,
            "graphs not strictly increasing at 5; 1-3, 3-5",
        )

    def test_tgdo_catches_a_repeat_in_place_of_a_pair(self, monkeypatch):
        # graph 100 is dropped and graph 99 walked twice, so graph 99's pairs
        # stand in place of graph 100's: its round trip and twin check hold,
        # and both graphs have four orderings, so only the mask order sees
        # it, after the orderings of graphs 0..99
        monkeypatch.setattr(threshold, "_walk", repeat_in_place(threshold._walk, 100))
        graphs = list(enumerate_threshold_graphs(5))
        credited = sum(len(list(degree_orderings(g))) for g in graphs[:100])
        assert audit_tgdo(5) == (
            credited,
            "tgdo graphs not strictly increasing at 5; 1-3, 3-5",
        )
        assert credited == 656

    def test_tgdo_catches_a_dropped_pair(self, monkeypatch):
        # graph 100, 5; 1-5, 3-5, dropped from the walk: every graph left
        # passes, and only the count sees its four pairs go missing
        walk = threshold._walk
        monkeypatch.setattr(
            threshold,
            "_walk",
            lambda n: (g for i, g in enumerate(walk(n)) if i != 100),
        )
        assert audit_tgdo(5) == (1916, "tgdo image has 1916 pairs, expected 1920")

    def test_tgdo_catches_a_pair_that_is_no_degree_ordering(self, monkeypatch):
        # the degree classes {1, 2} and {3, 4, 5} of the graph below merged
        # into one: the canonical ordering, and so the plan and round trip,
        # stay right, but the credit would count orderings such as
        # (3, 1, 2, 4, 5), which are no degree orderings.  The first pair
        # of the class, 1 and 2, are twins; 2 and 3 are not
        target = graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
        classes = threshold._classes

        def merged(deg, n):
            cs = classes(deg, n)
            if cs != [(4, (1, 2)), (2, (3, 4, 5))]:
                return cs
            return [(4, cs[0][1] + cs[1][1])]

        monkeypatch.setattr(threshold, "_classes", merged)
        first = next(i for i, p in enumerate(enumerate_tg(5)) if p.edges == target.edges)
        assert audit_tgdo(5) == (
            first,
            f"tgdo vertices 2, 3 of one class are not twins on {format_graph(target)}",
        )
        assert first == 468

    def test_tgdo_plan_fault_is_named_at_the_first_ordering(self, monkeypatch):
        # the plan of the degrees (3, 1, 1, 1, 0) gives the odd-signed mate:
        # the first graph with those degrees along its canonical ordering
        # fails at that ordering, after the pairs a walk over every pair of
        # enumerate_tg meets before it
        make = threshold._tg_plan

        def faulty(degrees):
            plan = make(degrees)
            if degrees != (3, 1, 1, 1, 0):
                return plan
            return lambda table: mate(plan(table))

        monkeypatch.setattr(threshold, "_tg_plan", faulty)
        pairs = list(enumerate_tg(5))
        first = next(
            i for i, p in enumerate(pairs)
            if [degree(SimpleGraph(5, p.edges), v) for v in p.w] == [3, 1, 1, 1, 0]
        )
        assert pairs[first].w == canonical_degree_ordering(SimpleGraph(5, pairs[first].edges))
        assert audit_tgdo(5) == (
            first,
            "tgdo round trip broke at (1, 2, 3, 4, 5) on 5; 1-2, 1-3, 1-4",
        )
        assert first == 168

    @pytest.mark.parametrize(
        "audit, bound", [(audit_tgdo, 500_000), (audit_chi, 100_000)]
    )
    def test_audits_keep_no_images(self, audit, bound):
        # the first call fills the plan caches; the second allocates only
        # what one element needs (image sets peaked at 2.98 MB for tgdo and
        # 0.27 MB for chi).  The collector is off from the first call on: a
        # collection just before the traced call empties the free lists, and
        # the audit's tuples then come from fresh, traced allocations
        gc.disable()
        try:
            audit(5)
            tracemalloc.start()
            try:
                assert audit(5) == (1920, None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            gc.enable()
        assert peak < bound

    def test_bijtgsbps_negative_rank(self):
        with pytest.raises(ValueError, match="nonnegative"):
            audit_bijtgsbps(-1)

    def test_graph_from_json_reads_graph_dict(self):
        for g in enumerate_threshold_graphs(4):
            assert graph_from_json(json.dumps(graph_dict(g))) == g

    def test_tgdo_round_trips_each_graph_once(self, monkeypatch):
        # one walk over the graphs of enumerate_tg, each round-tripped once,
        # at its canonical ordering, and one plan per degree sequence: 2^4
        # at n = 5, against 332 graphs and 1920 pairs
        calls = {}

        def count(name):
            f = getattr(threshold, name)
            calls[name] = 0

            def counted(*args):
                calls[name] += 1
                return f(*args)

            monkeypatch.setattr(threshold, name, counted)

        count("_labels_and_edges")
        count("_tg_plan")
        assert audit_tgdo(5) == (1920, None)
        assert calls == {"_labels_and_edges": 332, "_tg_plan": 16}

    def test_tgdo_validates_no_window_it_built(self, monkeypatch):
        def forbidden(values):
            raise AssertionError("as_window called")

        monkeypatch.setattr(threshold, "as_window", forbidden)
        assert audit_tgdo(4) == (group_order(4, "D"), None)

    def test_encoders_validate_nothing_they_built(self, monkeypatch):
        # the graph handed in is checked; the diagram and the height
        # function built from it are not
        def encode():
            graphs = [g for g in enumerate_threshold_graphs(4) if is_degree_ordering(g, (1, 2, 3, 4))]
            return [(sbp_from_threshold(g), height_from_edges(g.edges, 4)) for g in graphs]

        def forbidden(*args):
            raise AssertionError("validator called")

        expected = encode()
        monkeypatch.setattr(SimplyBarredPermutation, "__init__", forbidden)
        monkeypatch.setattr(threshold.pathrep, "as_height", forbidden)
        assert encode() == expected and len(expected) > 1


class TestTgdoCredit:
    # audit_tgdo round-trips each graph at its canonical ordering and
    # credits the graph's other degree orderings; these walk every pair

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_degree_ordering_round_trips_under_the_graphs_one_plan(self, n):
        for mask, deg in threshold._walk(n):
            edges = threshold._mask_edges(mask, n)
            ws = list(threshold._orderings(threshold._classes(deg, n)))
            plan = threshold._tg_plan(tuple(deg[v] for v in ws[0]))
            for w in ws:
                u = apply_plan(plan, w)
                pair = tg_pair(u)
                assert is_even_signed(u) and (pair.w, pair.edges) == (w, edges), (w, edges)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_renaming_within_classes_gives_each_orderings_image(self, n):
        # the image of w o sigma is the canonical image u with each letter
        # w_i renamed (w o sigma)_i, signs kept
        for g in enumerate_threshold_graphs(n):
            w = canonical_degree_ordering(g)
            u = signed_from_tg(ThresholdPair(w, g.edges))
            for v in degree_orderings(g):
                rename = dict(zip(w, v))
                renamed = tuple(rename[x] if x > 0 else -rename[-x] for x in u)
                assert renamed == signed_from_tg(ThresholdPair(v, g.edges)), (g, v)


class TestVicinalRecognizer:
    # is_threshold builds the bit-mask table once instead of calling
    # vicinal_compare per pair; both must decide the same graphs
    @pytest.mark.parametrize("n", range(6))
    def test_vicinal_recognizer_is_the_pairwise_preorder(self, n):
        for g in enumerate_graphs(n):
            total = all(
                vicinal_compare(g, v, u) or vicinal_compare(g, u, v)
                for v, u in itertools.combinations(range(1, n + 1), 2)
            )
            assert is_threshold(g) == total, format_graph(g)
