"""Lattice paths, height functions, and the path form of signed permutations.

A path lives on the grid ``{0..n} x {0..n}``, runs from the top-left corner
``(0, n)`` to the bottom-right corner ``(n, 0)``, and is stored as a string
over ``{"E", "S"}`` with exactly ``n`` East and ``n`` South steps.

Scanning the full notation of a signed permutation ``u`` left to right and
drawing an East step for each positive letter and a South step for each
negative one yields a path that is symmetric about the diagonal ``y = x``.
Together with the permutation ``lambda_x`` (the subword of positive letters
of the full notation, labelling the columns) the path determines ``u``; the
row labels are forced by symmetry (``lambda_y(k) = -lambda_x(k)``) and are
never stored.

Equivalently a path is its *height function* ``f``, with ``f(x)`` the
ordinate reached immediately after the ``x``-th East step and ``f(0) = n``;
South steps after the last East step are implicit.  The predicate
"cell ``(x, y)`` lies below the path" is ``y <= f(x)`` (cells are indexed by
their upper-right corner, ``1 <= x, y <= n``); under it, self-adjointness of
``f`` (``y <= f(x)`` iff ``x <= f(y)``) is exactly diagonal symmetry of the
path, and the cells weakly below the diagonal and below the path encode the
negative inversions of ``u``.
"""

from __future__ import annotations

from .sgnperm import (
    Permutation,
    SignedPermutation,
    as_permutation,
    as_window,
    check_enumeration_cap,
    full_notation,
    inversion_set,
)

__all__ = [
    "LatticePath",
    "HeightFunction",
    "PathRepresentation",
    "HeightClassification",
    "as_path",
    "as_height",
    "reflect_path",
    "is_diagonal_symmetric",
    "path_representation",
    "signed_from_path",
    "height_function",
    "path_from_height",
    "classify_height",
    "inversions_via_path",
    "east_south_turns",
    "diagonal_crossings",
    "symmetric_paths",
    "render_ascii",
    "render_svg",
    "render_cost",
]

LatticePath = str
HeightFunction = tuple[int, ...]

EAST = "E"
SOUTH = "S"

# Side of one grid cell in the pictures of render_svg, in pixels.
_CELL = 32


def as_path(steps: str) -> LatticePath:
    """Validate a step word: equally many East and South steps.

    >>> as_path("ESES")
    'ESES'
    """
    if set(steps) - {EAST, SOUTH}:
        raise ValueError(f"path steps must be 'E' or 'S': {steps!r}")
    if steps.count(EAST) != steps.count(SOUTH):
        raise ValueError(f"path needs equally many E and S steps: {steps!r}")
    return steps


def as_height(values) -> HeightFunction:
    """Validate a height function: f(0) = n, antitone, values in 0..n."""
    f = tuple(values)
    n = len(f) - 1
    if n < 0 or f[0] != n:
        raise ValueError(f"height function must start at f(0) = n: {f}")
    if any(f[x] > f[x - 1] for x in range(1, n + 1)) or any(v < 0 for v in f):
        raise ValueError(f"height function must be antitone into 0..n: {f}")
    return f


def reflect_path(path: LatticePath) -> LatticePath:
    """Mirror image across the diagonal: reverse the word and swap E/S."""
    swap = {EAST: SOUTH, SOUTH: EAST}
    if set(path) - swap.keys():
        raise ValueError(f"path steps must be 'E' or 'S': {path!r}")
    return "".join(swap[s] for s in reversed(path))


def is_diagonal_symmetric(path: LatticePath) -> bool:
    return path == reflect_path(path)


class _Record:
    # A frozen record: __init__ stores the fields in vars(self) in their
    # order, and nothing is set or deleted afterwards.  Records compare and
    # hash as the tuple of their field values, within one class only; the
    # classes hashed in hot loops spell __hash__ out, which costs less.

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class PathRepresentation(_Record):
    """A diagonal-symmetric path plus its column labels."""

    def __init__(self, path: LatticePath, lambda_x: Permutation) -> None:
        vars(self).update(path=path, lambda_x=lambda_x)
        if len(path) != 2 * len(lambda_x):
            raise ValueError(f"a path of 2n steps needs n labels: {self}")

    def __hash__(self):
        return hash((self.path, self.lambda_x))

    def lambda_y(self, k: int) -> int:
        """Row label of row ``k``; forced by symmetry, never stored."""
        return -self.lambda_x[k - 1]


def path_representation(u: SignedPermutation) -> PathRepresentation:
    """The path and column labels of a signed permutation.

    >>> path_representation((-2, 3, 1, 6, -4, -7, 5)).lambda_x
    (7, 4, 2, 3, 1, 6, 5)
    >>> path_representation((1, 2, 3)).path
    'SSSEEE'
    """
    full = full_notation(as_window(u))
    path = "".join(EAST if x > 0 else SOUTH for x in full)
    lam = tuple(x for x in full if x > 0)
    return PathRepresentation(path, lam)


def signed_from_path(path: LatticePath, w: Permutation) -> SignedPermutation:
    """The signed permutation with the given symmetric path and labels ``w``.

    Inverse of :func:`path_representation`: the ``k``-th East step
    contributes the full-notation letter ``w(k)`` and the ``j``-th South
    step the letter ``-w(n + 1 - j)``.

    >>> signed_from_path("SEESSSESEEESSE", (7, 4, 2, 3, 1, 6, 5))
    (-2, 3, 1, 6, -4, -7, 5)
    """
    if not is_diagonal_symmetric(path):
        raise ValueError(f"path is not diagonal-symmetric: {path!r}")
    w = as_permutation(w)
    n = len(w)
    if len(path) != 2 * n:
        raise ValueError(f"path length {len(path)} does not match n = {n}")
    full = []
    east = south = 0
    for step in path:
        if step == EAST:
            east += 1
            full.append(w[east - 1])
        else:
            south += 1
            full.append(-w[n - south])
    return tuple(full[n:])


def height_function(path: LatticePath) -> HeightFunction:
    """Ordinates reached after each East step, starting from f(0) = n.

    >>> height_function("ESESES")
    (3, 3, 2, 1)
    """
    path = as_path(path)
    n = len(path) // 2
    f = [n]
    y = n
    for step in path:
        if step == SOUTH:
            y -= 1
        else:
            f.append(y)
    return tuple(f)


def path_from_height(f: HeightFunction) -> LatticePath:
    """The unique path with height function ``f``.

    >>> path_from_height((3, 3, 2, 1))
    'ESESES'
    """
    f = as_height(f)
    n = len(f) - 1
    out = []
    for x in range(1, n + 1):
        out.append(SOUTH * (f[x - 1] - f[x]) + EAST)
    out.append(SOUTH * f[n])
    return "".join(out)


class HeightClassification(_Record):
    def __init__(self, self_adjoint: bool, fixed_point_free: bool, center: int,
                 fixed_point: int | None) -> None:
        vars(self).update(self_adjoint=self_adjoint, fixed_point_free=fixed_point_free,
                          center=center, fixed_point=fixed_point)


def classify_height(f: HeightFunction) -> HeightClassification:
    """Self-adjointness, fixed points, and the center of a height function.

    ``f`` is self-adjoint when ``y <= f(x)`` iff ``x <= f(y)`` for all
    ``x, y``; the center is ``max{x : x <= f(x)}``.  Antitonicity forces at
    most one fixed point, which can only sit at the center.

    >>> classify_height((3, 3, 2, 1))
    HeightClassification(self_adjoint=True, fixed_point_free=False, center=2, fixed_point=2)
    >>> classify_height((3, 3, 1, 1)).fixed_point_free
    True
    """
    f = as_height(f)
    n = len(f) - 1
    self_adjoint = all(
        (y <= f[x]) == (x <= f[y])
        for x in range(n + 1)
        for y in range(n + 1)
    )
    fixed = [x for x in range(n + 1) if f[x] == x]
    center = max(x for x in range(n + 1) if x <= f[x])
    return HeightClassification(
        self_adjoint=self_adjoint,
        fixed_point_free=not fixed,
        center=center,
        fixed_point=fixed[0] if fixed else None,
    )


def inversions_via_path(u: SignedPermutation) -> frozenset[tuple[int, int]]:
    """Read the inversions of ``u`` off its path representation.

    Positive pairs are the plain inversions of ``lambda_x``; each cell
    ``(x, y)`` with ``y <= x`` lying below the path contributes the
    negative pair built from the unordered pair
    ``{lambda_x(x), lambda_x(y)}``.  Agrees exactly with
    ``inversion_set(u, "B")``.
    """
    rep = path_representation(u)
    f = height_function(rep.path)
    n = len(rep.lambda_x)
    negative = set()
    for x in range(1, n + 1):
        for y in range(1, min(x, f[x]) + 1):
            a, b = sorted((rep.lambda_x[x - 1], rep.lambda_x[y - 1]))
            negative.add((-a, b))
    return inversion_set(rep.lambda_x, "A") | negative


def east_south_turns(path: LatticePath) -> list[tuple[int, int]]:
    """Grid points where an East step is immediately followed by a South.

    >>> east_south_turns("ESESES")
    [(1, 3), (2, 2), (3, 1)]
    """
    # the x-th East step ends at (x, f(x)); a South step follows iff f drops
    f = height_function(path) + (0,)
    return [(x, f[x]) for x in range(1, len(f) - 1) if f[x + 1] < f[x]]


def diagonal_crossings(path: LatticePath) -> list[int]:
    """Values ``t`` such that the path passes through the point ``(t, t)``."""
    # on the line x = t the path runs down from f(t) to f(t + 1)
    f = height_function(path) + (0,)
    return [t for t in range(len(f) - 1) if f[t + 1] <= t <= f[t]]


def symmetric_paths(n: int):
    """Yield all ``2^n`` diagonal-symmetric paths on the ``n x n`` grid.

    A symmetric path is determined by its first ``n`` steps, which form an
    arbitrary word in E/S read up to the diagonal.
    """
    check_enumeration_cap(n)
    for bits in range(2**n):
        half = "".join(EAST if bits >> (n - 1 - i) & 1 else SOUTH for i in range(n))
        # after n steps the walk sits on the diagonal, so mirroring the
        # first half always completes a genuine symmetric path.
        yield half + reflect_path(half)


# ---------------------------------------------------------------------------
# Rendering


def render_cost(n: int) -> int:
    """Grid cells that drawing the path of a rank-n window covers: n^2."""
    return n * n


def render_ascii(rep: PathRepresentation) -> str:
    """Draw the path region as a text grid.

    Columns are labelled by ``lambda_x`` on top, rows by ``lambda_y`` on
    the left; ``#`` marks cells below the path, ``.`` the rest, and the
    step word is appended underneath.
    """
    f = height_function(rep.path)
    n = len(rep.lambda_x)
    width = max((len(str(-v)) for v in rep.lambda_x), default=1)
    header = " " * (width + 2) + " ".join(
        str(v).rjust(width) for v in rep.lambda_x
    )
    lines = [header]
    below, above = "#".rjust(width), ".".rjust(width)
    # row y marks its first c = #{x >= 1 : f(x) >= y} cells; f never increases
    c = 0
    for y in range(n, 0, -1):
        while c < n and f[c + 1] >= y:
            c += 1
        label = str(rep.lambda_y(y)).rjust(width)
        lines.append(f"{label}  " + " ".join([below] * c + [above] * (n - c)))
    lines.append("")
    lines.append(rep.path)
    return "\n".join(lines)


def render_svg(rep: PathRepresentation) -> str:
    """A small standalone SVG of the grid, the path, and the axis labels."""
    f = height_function(rep.path) + (0,)
    n = len(rep.lambda_x)
    pad = _CELL  # one cell of margin for labels
    size = 2 * pad + n * _CELL

    def px(x: float) -> float:
        return pad + x * _CELL

    def py(y: float) -> float:
        return pad + (n - y) * _CELL

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for x in range(1, n + 1):
        for y in range(1, f[x] + 1):
            parts.append(
                f'<rect x="{px(x - 1)}" y="{py(y)}" width="{_CELL}" '
                f'height="{_CELL}" fill="#cfe2ff"/>'
            )
    for t in range(n + 1):
        parts.append(
            f'<line x1="{px(t)}" y1="{py(0)}" x2="{px(t)}" y2="{py(n)}" '
            'stroke="#999" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{px(0)}" y1="{py(t)}" x2="{px(n)}" y2="{py(t)}" '
            'stroke="#999" stroke-width="1"/>'
        )
    parts.append(
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(n)}" y2="{py(n)}" '
        'stroke="#666" stroke-width="1" stroke-dasharray="4 3"/>'
    )
    # every lattice point of the path, down each column from f(x) to f(x + 1)
    points = [(x, y) for x in range(n + 1) for y in range(f[x], f[x + 1] - 1, -1)]
    polyline = " ".join(f"{px(a)},{py(b)}" for a, b in points)
    parts.append(
        f'<polyline points="{polyline}" fill="none" stroke="#c1121f" '
        'stroke-width="3"/>'
    )
    for k in range(1, n + 1):
        parts.append(
            f'<text x="{px(k - 0.5)}" y="{py(n) - 6}" text-anchor="middle" '
            f'font-size="{_CELL // 2}">{rep.lambda_x[k - 1]}</text>'
        )
        parts.append(
            f'<text x="{px(0) - 6}" y="{py(k - 0.5) + 4}" text-anchor="end" '
            f'font-size="{_CELL // 2}">{rep.lambda_y(k)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
