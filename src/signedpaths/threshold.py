"""Threshold graphs and their correspondences with signed permutations.

Graphs here are simple and labeled, with vertex set [n] and edges stored
as sorted pairs ``(min, max)``.  The *vicinal preorder* compares vertices
by neighborhood inclusion, ``v <= u`` iff ``N(v)`` is contained in
``N(u) + {u}``; a graph is *threshold* when this preorder is total, or
equivalently when no four vertices induce a perfect matching, a three-edge
path, or a four-cycle.  Both recognizers are implemented and kept
deliberately independent so they can be played against each other.

Threshold graphs with a chosen degree ordering (a permutation ``w`` along
which degrees never increase) correspond to even-signed permutations: the
cells weakly below the path of ``u`` and strictly below the diagonal,
relabeled through the column labels ``lambda_x``, form a threshold edge
set ``E(u)``, and ``u -> (lambda_x, E(u))`` is a bijection once ``u`` runs
over even-signed (equivalently, smooth) permutations.  The edge set only
depends on the path, so mates yield the same graph.  Composing with the
bar encoding of paths identifies threshold graphs with normal simply
barred permutations whose central block has at least two letters; rotating
that block to the front gives the first-block form used by the public
pair of converters.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, field
from math import comb, factorial, prod
from typing import Iterable, Iterator

from . import barred, pathrep
from .sgnperm import (
    _inversion_pairs,
    Permutation,
    SignedPermutation,
    _integers,
    as_permutation,
    as_window,
    check_enumeration_cap,
    full_notation,
    group_order,
    is_even_signed,
)

__all__ = [
    "SimpleGraph",
    "ThresholdPair",
    "graph",
    "neighbors",
    "degree",
    "vicinal_compare",
    "is_threshold",
    "is_degree_ordering",
    "canonical_degree_ordering",
    "edges_from_height",
    "height_from_edges",
    "edges_from_signed",
    "tg_pair",
    "signed_from_tg",
    "degree_orderings",
    "enumerate_graphs",
    "enumerate_threshold_graphs",
    "enumerate_tg",
    "listing_cost",
    "sbp_from_threshold",
    "threshold_from_sbp",
    "parse_graph",
    "format_graph",
    "graph_dict",
    "graph_from_json",
    "audit_tgdo",
    "audit_bijtgsbps",
]

Edge = tuple[int, int]


@dataclass(frozen=True)
class SimpleGraph:
    """A simple labeled graph on vertex set [n]."""

    n: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"a graph needs a nonnegative vertex count, not {self.n}")
        edges = set()
        for a, b in self.edges:
            if not (isinstance(a, int) and isinstance(b, int)):
                raise ValueError(f"edge ends must be integers: ({a!r}, {b!r})")
            edges.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(edges))
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise ValueError(f"edge ({a},{b}) leaves the vertex set [{self.n}]")


def graph(n: int, edges: Iterable[Iterable[int]] = ()) -> SimpleGraph:
    """Convenience constructor: edges as any pairs, which SimpleGraph sorts."""
    return SimpleGraph(n, edges)  # type: ignore[arg-type]


def neighbors(g: SimpleGraph, v: int) -> frozenset[int]:
    row = _nbrs(g.edges, g.n)[_vertex(g, v)]
    return frozenset(u for u in range(1, g.n + 1) if row >> u & 1)


def degree(g: SimpleGraph, v: int) -> int:
    return _nbrs(g.edges, g.n)[_vertex(g, v)].bit_count()


def _vertex(g: SimpleGraph, v: int) -> int:
    if not 1 <= v <= g.n:
        raise ValueError(f"vertex {v} is not in the vertex set [{g.n}]")
    return v


def _nbrs(edges: Iterable[Edge], n: int) -> list[int]:
    # the one adjacency table: bit v of entry x for each edge x-v, entry 0 unused
    nbrs = [0] * (n + 1)
    for a, b in edges:
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a
    return nbrs


# ---------------------------------------------------------------------------
# Recognition


def vicinal_compare(g: SimpleGraph, v: int, u: int) -> bool:
    """``v <= u`` in the vicinal preorder: ``N(v)`` inside ``N(u) + {u}``."""
    return _below(_nbrs(g.edges, g.n), _vertex(g, v), _vertex(g, u))


def _below(nbrs: list[int], v: int, u: int) -> bool:
    return not nbrs[v] & ~(nbrs[u] | 1 << u)


def is_threshold(g: SimpleGraph, method: str = "vicinal") -> bool:
    """Threshold recognition by preorder totality or forbidden subgraphs.

    >>> is_threshold(graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))
    False
    >>> is_threshold(graph(3, [(1, 2), (2, 3)]), method="forbidden")
    True
    """
    if method == "vicinal":
        nbrs = _nbrs(g.edges, g.n)  # adjacency from the one per-vertex bit-mask table
        pairs = itertools.combinations(range(1, g.n + 1), 2)
        return all(_below(nbrs, v, u) or _below(nbrs, u, v) for v, u in pairs)
    if method == "forbidden":
        # On four vertices the degree multiset pins down each of the three
        # forbidden graphs: a two-edge matching, the three-edge path, and the
        # four-cycle.  Each quadruple reads only its own six pairs.
        forbidden = ([1, 1, 1, 1], [1, 1, 2, 2], [2, 2, 2, 2])
        for quad in itertools.combinations(range(1, g.n + 1), 4):
            ab, ac, ad, bc, bd, cd = (p in g.edges for p in itertools.combinations(quad, 2))
            if sorted([ab + ac + ad, ab + bc + bd, ac + bc + cd, ad + bd + cd]) in forbidden:
                return False
        return True
    raise ValueError(f"method must be 'vicinal' or 'forbidden': {method!r}")


def is_degree_ordering(g: SimpleGraph, w: Permutation) -> bool:
    """True when degrees never increase along the word ``w``."""
    w = as_permutation(w)
    if len(w) != g.n:
        raise ValueError(f"ordering length {len(w)} does not match n = {g.n}")
    deg = _degrees(g.edges, g.n)
    return all(deg[a] >= deg[b] for a, b in itertools.pairwise(w))


def canonical_degree_ordering(g: SimpleGraph) -> Permutation:
    """The degree ordering listing equal-degree vertices by increasing label.

    Only defined on threshold graphs.

    >>> canonical_degree_ordering(graph(3, [(1, 2), (1, 3)]))
    (1, 2, 3)
    """
    return tuple(v for _, vs in _threshold_classes(g) for v in vs)


def degree_orderings(g: SimpleGraph) -> Iterator[Permutation]:
    """All degree orderings of ``g``: permute freely within degree classes."""
    return _orderings(_classes(_degrees(g.edges, g.n), g.n))


def _degrees(edges: Iterable[Edge], n: int) -> list[int]:
    # the degree of each vertex (index 0 unused): its row's popcount
    return [row.bit_count() for row in _nbrs(edges, n)]


def _threshold_classes(g: SimpleGraph) -> list:
    if not is_threshold(g):
        raise ValueError("canonical degree ordering is defined for threshold graphs")
    return _classes(_degrees(g.edges, g.n), g.n)


def _classes(deg, n: int) -> list:
    # (degree, its vertices by label) for each degree deg[v] of v in [n],
    # the highest first
    order = sorted(range(1, n + 1), key=deg.__getitem__, reverse=True)  # stable
    return [(d, tuple(vs)) for d, vs in itertools.groupby(order, deg.__getitem__)]


def _orderings(classes: list) -> Iterator[Permutation]:
    # each class permuted in lexicographic order, the highest degree first
    def extend(prefix: Permutation, i: int) -> Iterator[Permutation]:
        # lazily, where itertools.product would hold every class's k! at once
        if i == len(classes):
            yield prefix
        else:
            for block in itertools.permutations(classes[i][1]):
                yield from extend(prefix + block, i + 1)

    return extend((), 0)


# ---------------------------------------------------------------------------
# Heights <-> edges (the Galois correspondence)


def edges_from_height(f: pathrep.HeightFunction) -> frozenset[Edge]:
    """Edge set of a self-adjoint height function: ``x != y, y <= f(x)``.

    >>> sorted(edges_from_height((3, 3, 2, 1)))
    [(1, 2), (1, 3)]
    """
    f = pathrep.as_height(f)
    if not pathrep.classify_height(f).self_adjoint:
        raise ValueError(f"height function is not self-adjoint: {f}")
    n = len(f) - 1
    return frozenset(
        (y, x) for x in range(1, n + 1) for y in range(1, min(x, f[x] + 1))
    )


def height_from_edges(edges: Iterable[Edge], n: int) -> pathrep.HeightFunction:
    """Height function ``f(x) = max N(x)`` of a threshold graph for which
    the identity is a degree ordering; always fixed-point-free and
    self-adjoint, and a two-sided inverse of :func:`edges_from_height`
    on that side.

    >>> height_from_edges([(1, 2), (1, 3)], 3)
    (3, 3, 1, 1)
    """
    pair = ThresholdPair(tuple(range(1, n + 1)), SimpleGraph(n, edges).edges)  # n < 0 refused
    # f(0) = n; bit 0 is never a neighbour, so f(x) = 0 for an isolated x
    return pathrep.as_height([n] + [(r | 1).bit_length() - 1 for r in _nbrs(pair.edges, n)[1:]])


# ---------------------------------------------------------------------------
# Signed permutations <-> threshold pairs


@dataclass(frozen=True)
class ThresholdPair:
    """A threshold graph bundled with a degree ordering of it."""

    w: Permutation
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", as_permutation(self.w))
        g = SimpleGraph(len(self.w), self.edges)
        object.__setattr__(self, "edges", g.edges)
        if not is_threshold(g):
            raise ValueError("edge set is not threshold")
        if not is_degree_ordering(g, self.w):
            raise ValueError(f"{self.w} is not a degree ordering of the edge set")


def _labels_and_edges(u: SignedPermutation) -> tuple[Permutation, frozenset[Edge]]:
    # lambda_x and E(u) of a valid window, from one pass over the full
    # notation: the x-th East step runs at height f(x), and column x is
    # joined to the columns y < x with y <= f(x).  No pair comes twice; a
    # plain loop costs less than a comprehension per East step.
    height = len(u)
    labels: list[int] = []
    edges: list[Edge] = []
    for letter in full_notation(u):
        if letter > 0:
            for b in labels[:height]:
                edges.append((letter, b) if letter < b else (b, letter))
            labels.append(letter)
        else:
            height -= 1
    return tuple(labels), frozenset(edges)


def edges_from_signed(u: SignedPermutation) -> frozenset[Edge]:
    """The threshold edge set of ``u``: off-diagonal cells weakly below the
    path, relabeled through ``lambda_x``.  Mate-invariant.

    >>> sorted(edges_from_signed((-2, 3, 1, 6, -4, -7, 5)))
    [(1, 4), (1, 7), (2, 4), (2, 7), (3, 4), (3, 7), (4, 6), (4, 7), (6, 7)]
    """
    return _labels_and_edges(as_window(u))[1]


def tg_pair(u: SignedPermutation) -> ThresholdPair:
    """The pair (column labels, edge set) of ``u``."""
    w, edges = _labels_and_edges(as_window(u))
    return barred._trusted(ThresholdPair, w=w, edges=edges)


def signed_from_tg(pair: ThresholdPair) -> SignedPermutation:
    """The unique even-signed ``u`` with ``tg_pair(u) = pair``.

    Relabeled through ``w^{-1}``, the graph has the identity as a degree
    ordering and the height function ``f(x) = max N(x)``, read off the
    degrees.  ``u`` is ``psi`` of ``w`` with bars where ``f`` drops, or
    its even-signed mate.  The pair is valid, so nothing is checked again.

    >>> signed_from_tg(ThresholdPair((1, 2, 3), frozenset()))
    (1, 2, 3)
    """
    deg = _degrees(pair.edges, len(pair.w))
    return barred._apply(_tg_plan(tuple(deg[v] for v in pair.w)), pair.w)


def _tg_plan(degrees: tuple[int, ...]) -> operator.itemgetter:
    # signed_from_tg as a plan on (*w, *-w), for each degree ordering w with
    # these degrees along it.  N(w_x) is {w_1, ..., w_f(x)} less w_x, so f(x)
    # is d_x + 1 when w_x is among the first d_x + 1 letters and d_x if not
    n = len(degrees)
    f = [d + (d >= x) for x, d in enumerate(degrees, start=1)] + [0]
    bars = frozenset(x for x in range(1, n + 1) if f[x - 1] > f[x])
    picks = list(barred._psi_plan(bars, n)(range(2 * n)))
    if sum(p >= n for p in picks) % 2:  # psi's image is odd-signed: its mate
        picks[0] = (picks[0] + n) % (2 * n)
    return barred._getter(picks)


def audit_tgdo(n: int) -> tuple[int, str | None]:
    """Round trips of :func:`signed_from_tg` over the pairs of
    :func:`enumerate_tg` (n >= 1), from the same walk, one graph at a time
    and with no pair built; the edge masks must strictly increase and the
    pairs be |D_n| in number.  Each image is even-signed and ``tg_pair``
    gives its pair back, so distinct pairs have distinct images in D_n, and
    equal counts make ``signed_from_tg`` onto D_n with ``tg_pair`` its
    inverse.  Its plan on (*w, *-w) is fixed by the degrees along w and is
    built once per degree sequence, so the image of w o sigma, sigma
    permuting positions within degree classes, is that of w with each w_i
    renamed (w o sigma)_i, which ``tg_pair`` reads as (w o sigma, sigma(E)).
    sigma(E) = E when consecutive x, y of each class have N(x) - {y} =
    N(y) - {x}, as vertices of one degree in a threshold graph do (Chvatal
    and Hammer, 1977).  So each graph's canonical w is round-tripped, its
    classes checked for twins and their factorials' product credited; a
    failure comes after the earlier graphs' credits, as in a pair walk."""
    check_enumeration_cap(n)
    if n < 1:
        raise ValueError("tgdo needs n >= 1")
    expected = group_order(n, "D")
    checked = 0
    last = -1
    plans: dict = {}  # degrees along w -> the plan, for this call only
    for mask, deg in _walk(n):
        edges = _mask_edges(mask, n)
        if mask <= last:
            return checked, f"tgdo graphs not strictly increasing at {_text(edges, n)}"
        last = mask
        classes = _classes(deg, n)
        w = tuple(v for _, vs in classes for v in vs)
        if (degrees := tuple(deg[v] for v in w)) not in plans:
            plans[degrees] = _tg_plan(degrees)
        u = barred._apply(plans[degrees], w)
        if not is_even_signed(u) or _labels_and_edges(u) != (w, edges):
            return checked, f"tgdo round trip broke at {w} on {_text(edges, n)}"
        nbrs = _nbrs(edges, n)
        for _, vs in classes:
            for x, y in itertools.pairwise(vs):
                if nbrs[x] & ~(1 << y) != nbrs[y] & ~(1 << x):
                    return checked, f"tgdo vertices {x}, {y} of one class are not twins on {_text(edges, n)}"
        checked += prod(factorial(len(vs)) for _, vs in classes)
    if checked != expected:
        return checked, f"tgdo image has {checked} pairs, expected {expected}"
    return checked, None


def _text(edges: frozenset[Edge], n: int) -> str:
    return format_graph(SimpleGraph(n, edges))


# ---------------------------------------------------------------------------
# Threshold graphs <-> barred permutations


def sbp_from_threshold(g: SimpleGraph) -> barred.SimplyBarredPermutation:
    """Encode a threshold graph as a normal simply barred permutation whose
    first block has at least two letters (vacuously short for n <= 1).

    The word is the canonical degree ordering, the blocks are the degree
    classes, and the block holding the diagonal is rotated to the front.
    """
    bs = _encode(_threshold_classes(g))
    cuts = itertools.accumulate(len(b) for b in bs[:-1])
    return barred.SimplyBarredPermutation(tuple(itertools.chain(*bs)), frozenset(cuts))


def threshold_from_sbp(sbp: barred.SimplyBarredPermutation) -> SimpleGraph:
    """Decode :func:`sbp_from_threshold`: move the first block back to the
    central position and read the graph off the path of its ``psi``, which
    joins the letters of blocks i and j when i + j is below the bar count."""
    if not barred.classify_sbp(sbp).normal:
        raise ValueError(f"{sbp} is not normal (blocks must increase)")
    bs, n = barred.blocks(sbp), len(sbp.w)
    if n >= 2 and len(bs[0]) < 2:
        raise ValueError(f"{sbp} must have a first block of at least two letters")
    return barred._trusted(SimpleGraph, n=n, edges=_decode(bs))


def _encode(classes: list) -> list[tuple[int, ...]]:
    # the blocks of sbp_from_threshold: the degree classes from the highest
    # degree down, then an empty block unless a vertex is isolated, with the
    # central block moved to the front
    bs = [vs for _, vs in classes]
    if not classes or classes[-1][0]:
        bs.append(())
    bs.insert(0, bs.pop((len(bs) - 1) // 2))
    return bs


def _decode(bs: list[tuple[int, ...]]) -> frozenset[Edge]:
    # The edge set encoded by the blocks bs of a normal diagram with a long
    # first block.  With the first block back in the centre, psi's path runs
    # East through block i at the height of blocks 0..m-i-1, m the bars,
    # so letters of blocks i and j are joined exactly when i + j < m.
    m = len(bs) - 1
    bs = [*bs[1:m // 2 + 1], bs[0], *bs[m // 2 + 1:]]
    word, ends = tuple(itertools.chain(*bs)), [0, *itertools.accumulate(map(len, bs))]
    below = [word[:ends[m - i]] for i in range(m + 1)]  # the letters of blocks 0..m-i-1
    return frozenset((a, b) for blk, ws in zip(bs, below) for a in blk for b in ws if a < b)


def audit_bijtgsbps(n: int) -> tuple[int, str | None]:
    """Round trips of :func:`sbp_from_threshold` over the threshold graphs on
    [n], which must strictly increase, so no two share an encoding, and be
    as many as the ordered-Bell count 2(F(n) - n F(n-1)) of
    :func:`listing_cost` (1 for n < 2); as :func:`audit_tgdo`, on the cores
    of the public pair, whose blocks are normal by construction."""
    check_enumeration_cap(n)
    checked = 0
    last = -1
    for mask, deg in _walk(n):
        edges = _mask_edges(mask, n)
        if mask <= last:
            return checked, f"graphs not strictly increasing at {_text(edges, n)}"
        last = mask
        if _decode(_encode(_classes(deg, n))) != edges:
            return checked, f"round trip broke at {_text(edges, n)}"
        checked += 1
    total = _graph_count(n)
    if checked != total:
        return checked, f"the counting formula gives {total} threshold graphs"
    return checked, None


# ---------------------------------------------------------------------------
# Enumeration, counting, text forms

_BIT = bytes.maketrans(b"01", b"\0\1")  # binary digits as the bytes 0 and 1


def _mask_edges(mask: int, n: int) -> frozenset[Edge]:
    # bit i of an edge mask of a graph on [n] stands for the i-th pair (a, b),
    # a < b, in lexicographic order: the i-th candidate type A inversion
    bits = bin(mask)[:1:-1].encode().translate(_BIT)
    return frozenset(itertools.compress(_inversion_pairs(n, "A")[0], bits))


def _walk(n: int) -> Iterator[tuple[int, list[int]]]:
    # Each threshold graph on [n] as its edge mask and its degrees by vertex
    # (index 0 unused), in the order of enumerate_threshold_graphs, whose
    # docstring proves the walk; each caller checks the enumeration cap
    # low[a] is the bit of the pair (a, a + 1), and the pairs (a, v) follow,
    # so those with v > a in a vertex mask S (bit v for v) are S >> a + 1 << low[a]
    low = [(a - 1) * (2 * n - a) // 2 for a in range(n + 1)]

    def join(a: int, mask: int, deg: list[int]) -> Iterator[tuple[int, list[int]]]:
        if a == 0:
            yield mask, deg
            return
        older = range(a + 1, n + 1)
        joins = [0]  # S as a vertex mask, bit v for vertex v
        for d in {deg[v] for v in older}:
            above = sum(1 << v for v in older if deg[v] > d)
            cls = [1 << v for v in older if deg[v] == d]
            for r in range(1, len(cls) + 1):
                joins += (above | sum(t) for t in itertools.combinations(cls, r))
        for s in sorted(joins):
            up = [d + (s >> v & 1) for v, d in enumerate(deg)]  # a joins S
            up[a] = s.bit_count()
            yield from join(a - 1, mask | s >> a + 1 << low[a], up)

    yield from join(n, 0, [0] * (n + 1))


def enumerate_graphs(n: int) -> Iterator[SimpleGraph]:
    """All ``2^C(n,2)`` simple graphs on [n], by edge-subset order."""
    check_enumeration_cap(n)
    # the edge masks in turn: pairs sorted and in range, so no checks
    for mask in range(2 ** comb(n, 2)):
        yield barred._trusted(SimpleGraph, n=n, edges=_mask_edges(mask, n))


def enumerate_threshold_graphs(n: int) -> Iterator[SimpleGraph]:
    """All labeled threshold graphs on [n], in the order of
    :func:`enumerate_graphs`.

    Vertices join from n down to 1: vertex a joins the threshold graph H on
    a+1..n with each allowed neighbour set S, in increasing order as a bit
    mask.  The edges of a weigh less in the edge-subset order than those
    above it, so no sort is needed.  S is allowed exactly when it holds
    every vertex whose degree exceeds the least degree in S.  Only if: u
    outside S of higher degree than s in S has a neighbour x that s lacks,
    and {a, s, u, x} induces one of the three forbidden graphs.  If:
    unless S is empty or all of H, H has an isolated vertex outside S or a
    dominating one in S (Chvatal and Hammer, 1977); peel it off and induct.
    """
    check_enumeration_cap(n)
    for mask, _ in _walk(n):
        yield barred._trusted(SimpleGraph, n=n, edges=_mask_edges(mask, n))


def listing_cost(n: int) -> int:
    """Edge slots that listing the threshold graphs on [n] generates, for n
    in the enumeration cap 0..12; any other n is refused with its message.

    Each graph that :func:`enumerate_threshold_graphs` yields holds up to
    C(n, 2) edges, and there are 2(F(n) - n F(n-1)) graphs for n >= 2,
    with F the ordered Bell numbers, F(m) = sum_k C(m, k) F(m - k).  A
    graph with no edge slot costs one unit.

    >>> [listing_cost(n) for n in range(1, 7)]
    [1, 2, 24, 276, 3320, 43110]
    """
    check_enumeration_cap(n)
    return _graph_count(n) * max(comb(n, 2), 1)


def _graph_count(n: int) -> int:
    # the class size 2(F(n) - n F(n-1)) of listing_cost, 1 for n < 2
    if n < 2:
        return 1
    fubini = [1]
    for m in range(1, n + 1):
        fubini.append(sum(comb(m, k) * fubini[m - k] for k in range(1, m + 1)))
    return 2 * (fubini[n] - n * fubini[n - 1])


def enumerate_tg(n: int) -> Iterator[ThresholdPair]:
    """All pairs of a threshold graph with one of its degree orderings.

    The pairs strictly increase: graphs come in the edge-subset order of
    :func:`enumerate_threshold_graphs`, and the orderings of one graph in
    lexicographic order.  They come from the walk and degree classes that
    :func:`audit_tgdo` checks this order on and round-trips once per graph.
    """
    check_enumeration_cap(n)
    yield from (pair for pair, _ in _tg_walk(n))


def _tg_walk(n: int) -> Iterator[tuple[ThresholdPair, int]]:
    # each pair of enumerate_tg with its graph's edge mask; the caller checks the cap
    for mask, deg in _walk(n):
        edges = _mask_edges(mask, n)
        for w in _orderings(_classes(deg, n)):
            yield barred._trusted(ThresholdPair, w=w, edges=edges), mask


def parse_graph(text: str) -> SimpleGraph:
    """Parse the text form ``"n; i-j, i-j"`` (edge list may be empty).

    >>> parse_graph("3; 1-2, 1-3")
    SimpleGraph(n=3, edges=frozenset({(1, 2), (1, 3)}))
    """
    head, _, rest = text.partition(";")
    [n] = _integers([head], "a graph's vertex count")
    edges = set()
    for chunk in rest.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        a, _, b = chunk.partition("-")
        edges.add(tuple(_integers([a, b], "an edge end")))
    return graph(n, edges)


def format_graph(g: SimpleGraph) -> str:
    """Canonical text form with edges sorted.

    >>> format_graph(graph(3, [(1, 3), (1, 2)]))
    '3; 1-2, 1-3'
    """
    body = ", ".join(f"{a}-{b}" for a, b in sorted(g.edges))
    return f"{g.n}; {body}" if body else f"{g.n};"


def graph_dict(g: SimpleGraph) -> dict:
    """The JSON object of a graph: ``n`` and the sorted edge pairs."""
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def graph_from_json(text: str) -> SimpleGraph:
    """Read the object of :func:`graph_dict`: an integer ``n`` and a list of
    integer pairs, ``edges``, which may be left out.  Anything else is a
    ``ValueError``."""
    data = json.loads(text)
    if not isinstance(data, dict) or type(data.get("n")) is not int:
        raise ValueError(f"a graph needs an integer n: {text}")
    edges = data.get("edges", [])
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)
        for e in edges
    ):
        raise ValueError(f"graph edges must be a list of integer pairs: {text}")
    return graph(data["n"], edges)
