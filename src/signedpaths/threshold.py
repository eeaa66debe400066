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

import collections
import itertools
import json
from dataclasses import dataclass, field
from math import comb, factorial
from typing import Iterable, Iterator

from . import barred, pathrep
from .eulerian import threshold_counts
from .sgnperm import (
    Permutation,
    SignedPermutation,
    as_permutation,
    as_window,
    check_enumeration_cap,
    full_notation,
    group_order,
    is_even_signed,
    is_smooth,
    mate,
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
    "unlabeled_threshold_count",
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
        object.__setattr__(
            self,
            "edges",
            frozenset((min(a, b), max(a, b)) for a, b in self.edges),
        )
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise ValueError(f"edge ({a},{b}) leaves the vertex set [{self.n}]")


def graph(n: int, edges: Iterable[Iterable[int]] = ()) -> SimpleGraph:
    """Convenience constructor: edges as any pairs, which SimpleGraph sorts."""
    return SimpleGraph(n, edges)  # type: ignore[arg-type]


def neighbors(g: SimpleGraph, v: int) -> frozenset[int]:
    return frozenset(
        b if a == v else a for a, b in g.edges if v in (a, b)
    )


def degree(g: SimpleGraph, v: int) -> int:
    return sum(1 for e in g.edges if v in e)


# ---------------------------------------------------------------------------
# Recognition


def vicinal_compare(g: SimpleGraph, v: int, u: int) -> bool:
    """``v <= u`` in the vicinal preorder: ``N(v)`` inside ``N(u) + {u}``."""
    return neighbors(g, v) <= (neighbors(g, u) | {u})


def is_threshold(g: SimpleGraph, method: str = "vicinal") -> bool:
    """Threshold recognition by preorder totality or forbidden subgraphs.

    >>> is_threshold(graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))
    False
    >>> is_threshold(graph(3, [(1, 2), (2, 3)]), method="forbidden")
    True
    """
    if method == "vicinal":
        # vicinal_compare on every pair, with the open and closed
        # neighborhoods built in one pass over the edges
        nbrs = {v: set() for v in range(1, g.n + 1)}
        for a, b in g.edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        closed = {v: nbrs[v] | {v} for v in nbrs}
        return all(
            nbrs[v] <= closed[u] or nbrs[u] <= closed[v]
            for v, u in itertools.combinations(nbrs, 2)
        )
    if method == "forbidden":
        # On four vertices the induced edge count plus degree multiset pins
        # down each of the three forbidden graphs: a two-edge matching, the
        # three-edge path, and the four-cycle.
        for quad in itertools.combinations(range(1, g.n + 1), 4):
            induced = [e for e in g.edges if e[0] in quad and e[1] in quad]
            degs = sorted(
                sum(1 for e in induced if v in e) for v in quad
            )
            e = len(induced)
            if (
                (e == 2 and degs == [1, 1, 1, 1])
                or (e == 3 and degs == [1, 1, 2, 2])
                or (e == 4 and degs == [2, 2, 2, 2])
            ):
                return False
        return True
    raise ValueError(f"method must be 'vicinal' or 'forbidden': {method!r}")


def is_degree_ordering(g: SimpleGraph, w: Permutation) -> bool:
    """True when degrees never increase along the word ``w``."""
    w = as_permutation(w)
    if len(w) != g.n:
        raise ValueError(f"ordering length {len(w)} does not match n = {g.n}")
    degs = [degree(g, v) for v in w]
    return all(a >= b for a, b in itertools.pairwise(degs))


def canonical_degree_ordering(g: SimpleGraph) -> Permutation:
    """The degree ordering listing equal-degree vertices by increasing label.

    Only defined on threshold graphs.

    >>> canonical_degree_ordering(graph(3, [(1, 2), (1, 3)]))
    (1, 2, 3)
    """
    if not is_threshold(g):
        raise ValueError("canonical degree ordering is defined for threshold graphs")
    return tuple(
        sorted(range(1, g.n + 1), key=lambda v: (-degree(g, v), v))
    )


def degree_orderings(g: SimpleGraph) -> Iterator[Permutation]:
    """All degree orderings of ``g``: permute freely within degree classes."""
    classes: dict[int, list[int]] = {}
    for v in range(1, g.n + 1):
        classes.setdefault(degree(g, v), []).append(v)
    ordered = [vs for _, vs in sorted(classes.items(), reverse=True)]

    def extend(prefix: Permutation, i: int) -> Iterator[Permutation]:
        # lazily, where itertools.product would hold every class's k! at once
        if i == len(ordered):
            yield prefix
        else:
            for block in itertools.permutations(ordered[i]):
                yield from extend(prefix + block, i + 1)

    yield from extend((), 0)


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
    pair = ThresholdPair(tuple(range(1, n + 1)), edges)
    return pathrep.as_height(_max_neighbors(pair.edges, n, range(n + 1))[:-1])


def _max_neighbors(
    edges: Iterable[Edge], n: int, rank: dict[int, int] | range
) -> list[int]:
    # f(0) = n and f(x) = max N(x), 0 for an isolated x, once each vertex v
    # is renamed rank[v] in 1..n; then f(n + 1) = 0, which closes the last
    # drop of f
    f = [n] + [0] * (n + 1)
    for a, b in edges:
        i, j = rank[a], rank[b]
        if f[i] < j:
            f[i] = j
        if f[j] < i:
            f[j] = i
    return f


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

    Relabels the edges through ``w^{-1}`` so the identity orders degrees
    and reads off the height function ``f(x) = max N(x)``.  The path of
    ``f`` has its East-South turns where ``f`` drops, so ``u`` is ``psi``
    of ``w`` with bars at those abscissas, or its even-signed mate.  The
    pair is already valid, so nothing is checked again.

    >>> signed_from_tg(ThresholdPair((1, 2, 3), frozenset()))
    (1, 2, 3)
    """
    n = len(pair.w)
    pos = {v: i for i, v in enumerate(pair.w, start=1)}
    f = _max_neighbors(pair.edges, n, pos)
    bars = frozenset(x for x in range(1, n + 1) if f[x] > f[x + 1])
    u = barred._apply(barred._psi_plan(bars, n), pair.w)  # psi of (w, bars)
    return u if is_even_signed(u) else mate(u)


def audit_tgdo(n: int) -> tuple[int, str | None]:
    """Round trips of :func:`signed_from_tg` over :func:`enumerate_tg`, whose
    pairs must strictly increase and be |D_n| in number; as
    ``barred.audit_psi``.  Each image is even-signed and ``tg_pair`` gives
    its pair back, so distinct pairs have distinct images in D_n, and equal
    counts make ``signed_from_tg`` onto D_n with ``tg_pair`` its inverse.
    No image is kept, and the count is the round trips, |D_n|."""
    check_enumeration_cap(n)
    expected = group_order(n, "D")
    checked = 0
    last = shared = None
    for pair in enumerate_tg(n):
        if pair.edges is not shared:  # the orderings of one graph share its edges
            shared, order = pair.edges, _mask_order(pair.edges)
        key = (order, pair.w)
        if last is not None and key <= last:
            return checked, f"tgdo pairs not strictly increasing at {_pair_text(pair)}"
        last = key
        u = signed_from_tg(pair)
        if not is_even_signed(u) or _labels_and_edges(u) != (pair.w, pair.edges):
            return checked, f"tgdo round trip broke at {_pair_text(pair)}"
        checked += 1
    if checked != expected:
        return checked, f"tgdo image has {checked} pairs, expected {expected}"
    return checked, None


def _pair_text(pair: ThresholdPair) -> str:
    return f"{pair.w} on {format_graph(SimpleGraph(len(pair.w), pair.edges))}"


# ---------------------------------------------------------------------------
# Threshold graphs <-> barred permutations


def sbp_from_threshold(g: SimpleGraph) -> barred.SimplyBarredPermutation:
    """Encode a threshold graph as a normal simply barred permutation whose
    first block has at least two letters (vacuously short for n <= 1).

    The word is the canonical degree ordering, the blocks are the degree
    classes, and the block holding the diagonal is rotated to the front.
    """
    w = canonical_degree_ordering(g)
    # w is a degree ordering of g, which canonical_degree_ordering found
    # threshold, so the pair is not checked again
    u = signed_from_tg(barred._trusted(ThresholdPair, w=w, edges=g.edges))
    if g.n >= 2 and not is_smooth(u):
        u = mate(u)
    sbp = barred.psi_inverse(u)
    return _move_block(barred.blocks(sbp), barred.central_block_index(sbp) - 1, 0)


def threshold_from_sbp(sbp: barred.SimplyBarredPermutation) -> SimpleGraph:
    """Decode :func:`sbp_from_threshold`: move the first block back to the
    central position and read the graph off the resulting signed
    permutation."""
    n = len(sbp.w)
    cls = barred.classify_sbp(sbp)
    if not cls.normal:
        raise ValueError(f"{sbp} is not normal (blocks must increase)")
    bs = barred.blocks(sbp)
    if n >= 2 and len(bs[0]) < 2:
        raise ValueError(f"{sbp} must have a first block of at least two letters")
    u = barred.psi(_move_block(bs, 0, barred.central_block_index(sbp) - 1))
    return SimpleGraph(n, edges_from_signed(u))


def _move_block(
    bs: list[tuple[int, ...]], src: int, dst: int
) -> barred.SimplyBarredPermutation:
    # the barred permutation with the blocks bs, block src moved to index dst
    bs = bs[:]
    bs.insert(dst, bs.pop(src))
    word = tuple(itertools.chain.from_iterable(bs))
    cuts = itertools.accumulate(len(b) for b in bs[:-1])
    return barred.SimplyBarredPermutation(word, frozenset(cuts))


def audit_bijtgsbps(n: int) -> tuple[int, str | None]:
    """Round trips of :func:`sbp_from_threshold` over the threshold graphs on
    [n], which must strictly increase, so no two share an encoding, and be
    as many as the counting formula of ``eulerian.threshold_counts`` gives;
    as :func:`audit_tgdo`."""
    checked = 0
    last = None
    for g in enumerate_threshold_graphs(n):
        key = _mask_order(g.edges)
        if last is not None and key <= last:
            return checked, f"graphs not strictly increasing at {format_graph(g)}"
        last = key
        sbp = sbp_from_threshold(g)
        if threshold_from_sbp(sbp) != g:
            return checked, f"round trip broke at {format_graph(g)}"
        checked += 1
    total = threshold_counts(n).total if n else 1  # the empty graph at n = 0
    if checked != total:
        return checked, f"the counting formula gives {total} threshold graphs"
    return checked, None


# ---------------------------------------------------------------------------
# Enumeration, counting, text forms


def _mask_order(edges: frozenset[Edge]) -> list[Edge]:
    # the edge-subset order of enumerate_graphs: bit i of a mask stands for
    # the i-th pair, so masks compare as their pairs listed in decreasing order
    return sorted(edges, reverse=True)


def enumerate_graphs(n: int) -> Iterator[SimpleGraph]:
    """All ``2^C(n,2)`` simple graphs on [n], by edge-subset order."""
    check_enumeration_cap(n)
    # bit i stands for pairs[i], sorted and in range, so the checks are skipped
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(2 ** len(pairs)):
        edges = frozenset(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
        yield barred._trusted(SimpleGraph, n=n, edges=edges)


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
    rows: list[list[Edge]] = [[]] * (n + 1)  # rows[a]: the edges vertex a joined with

    def join(a: int) -> Iterator[SimpleGraph]:
        if a == 0:
            yield barred._trusted(SimpleGraph, n=n, edges=frozenset().union(*rows))
            return
        older = range(a + 1, n + 1)
        deg = collections.Counter(v for row in rows[a + 1:] for e in row for v in e)
        joins = [0]  # S as a mask, bit v for vertex v
        for d in {deg[v] for v in older}:
            above = sum(1 << v for v in older if deg[v] > d)
            cls = [1 << v for v in older if deg[v] == d]
            for r in range(1, len(cls) + 1):
                joins += (above | sum(t) for t in itertools.combinations(cls, r))
        for s in sorted(joins):
            rows[a] = [(a, v) for v in older if s >> v & 1]
            yield from join(a - 1)

    yield from join(n)


def listing_cost(n: int) -> int:
    """Edge slots that listing the threshold graphs on [n] generates.

    Each graph that :func:`enumerate_threshold_graphs` yields holds up to
    C(n, 2) edges, and there are 2(F(n) - n F(n-1)) graphs for n >= 2,
    with F the ordered Bell numbers, F(m) = sum_k C(m, k) F(m - k).  The
    recurrence takes O(n^2) steps, so above n = 100, where the class has
    more than 10^170 graphs, the bound 2 n! (3/2)^n stands in for the
    class size: F(m) <= m! (3/2)^m by induction on the recurrence, as
    e^(2/3) - 1 < 1.  A graph with no edge slot costs one unit.

    >>> [listing_cost(n) for n in range(1, 7)]
    [1, 2, 24, 276, 3320, 43110]
    """
    if n < 2:
        return 1
    if n > 100:
        return -(-2 * factorial(n) * 3**n // 2**n) * comb(n, 2)
    fubini = [1]
    for m in range(1, n + 1):
        fubini.append(sum(comb(m, k) * fubini[m - k] for k in range(1, m + 1)))
    return 2 * (fubini[n] - n * fubini[n - 1]) * comb(n, 2)


def enumerate_tg(n: int) -> Iterator[ThresholdPair]:
    """All pairs of a threshold graph with one of its degree orderings.

    The pairs strictly increase: graphs come in the edge-subset order of
    :func:`enumerate_threshold_graphs`, and the orderings of one graph in
    lexicographic order.  :func:`audit_tgdo` checks and relies on this.
    """
    for g in enumerate_threshold_graphs(n):
        for w in degree_orderings(g):
            yield barred._trusted(ThresholdPair, w=w, edges=g.edges)


def unlabeled_threshold_count(n: int) -> int:
    """Number of threshold graphs on [n] up to isomorphism (``2^(n-1)``).

    Threshold graphs are isomorphic exactly when their degree sequences
    agree, so the count is over sorted degree sequences.
    """
    seen = set()
    for g in enumerate_threshold_graphs(n):
        seen.add(tuple(sorted(degree(g, v) for v in range(1, n + 1))))
    return len(seen)


def parse_graph(text: str) -> SimpleGraph:
    """Parse the text form ``"n; i-j, i-j"`` (edge list may be empty).

    >>> parse_graph("3; 1-2, 1-3")
    SimpleGraph(n=3, edges=frozenset({(1, 2), (1, 3)}))
    """
    head, _, rest = text.partition(";")
    n = int(head.strip())
    edges = set()
    for chunk in rest.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        a, _, b = chunk.partition("-")
        edges.add((int(a), int(b)))
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
