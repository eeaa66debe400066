"""Reference values and output checks for the benchmark's CLI jobs.

Every expected output is derived here without importing ``signedpaths``:
Eulerian rows come from their textbook recurrences, group orders and
round-trip counts from closed forms, threshold-graph counts from OEIS
A005840, and the TG cover listings from digests recorded when the
benchmark was written.  A check returns ``None`` when the output is right
and a one-line description of the first problem otherwise.
"""

from __future__ import annotations

import hashlib
import json
from math import comb, factorial

# Smallest --max-n the CLI accepts for each identity.
MIN_N = {
    "alternating": 1,
    "eulBeven": 1,
    "eulBodd": 1,
    "main": 1,
    "stembridge": 2,
    "B_n1": 2,
    "D_n1": 2,
}

# Labeled threshold graphs on [n], OEIS A005840.
THRESHOLD_GRAPHS = {1: 1, 2: 2, 3: 8, 4: 46, 5: 332, 6: 2874, 7: 29024}

# sha256 of the sorted "  a < b" lines of `poset --kind TG --check covers`.
TG_COVER_DIGESTS = {
    3: "47d977a2ad199f674ae7eef67efa974053fed441a8be7da731221ed106158054",
    5: "151df346c61b1be32fbe777a2f2d3d39cee21553f8226171f333a592a1ede404",
}


def eulerian_a(n: int) -> list[int]:
    """Type A Eulerian row ``A(n, k)``, k = 0..max(n - 1, 0)."""
    row = [1]
    for m in range(1, n + 1):
        prev = row + [0]
        row = [
            (k + 1) * prev[k] + (m - k) * (prev[k - 1] if k else 0)
            for k in range(m)
        ]
    return row


def eulerian_b(n: int) -> list[int]:
    """Type B Eulerian row ``B(n, k)``, k = 0..n."""
    row = [1]
    for m in range(1, n + 1):
        prev = row + [0]
        row = [
            (2 * k + 1) * prev[k] + (2 * m - 2 * k + 1) * (prev[k - 1] if k else 0)
            for k in range(m + 1)
        ]
    return row


def eulerian_d(n: int) -> list[int]:
    """Type D Eulerian row, k = 0..n (n >= 2), by D_n(t) = B_n(t) - n 2^(n-1) t A_(n-1)(t)."""
    row = eulerian_b(n)
    shifted = [0] + eulerian_a(n - 1)
    return [b - n * 2 ** (n - 1) * (shifted[k] if k < len(shifted) else 0)
            for k, b in enumerate(row)]


def group_order(kind: str, n: int) -> int:
    if kind == "A":
        return factorial(n)
    if kind == "B":
        return 2**n * factorial(n)
    return 2 ** (n - 1) * factorial(n)


def identity_rows(name: str, n: int) -> list[tuple]:
    """Expected ``(index, lhs, rhs, brute)`` rows of ``verify`` at rank n."""
    if name == "alternating":
        return [(k, a, a, None) for k, a in enumerate(eulerian_a(n))]
    if name == "eulBeven":
        return [(k, b, b, None) for k, b in enumerate(eulerian_b(n))]
    if name == "eulBodd":
        return [(k, 2**n * a, 2**n * a, 2**n * a) for k, a in enumerate(eulerian_a(n))]
    if name == "main":
        # coefficients of (1 + t)^(n+1) A_n(t), padded to degree 2n
        coeffs = [0] * (2 * n + 1)
        for i in range(n + 2):
            for j, a in enumerate(eulerian_a(n)):
                coeffs[i + j] += comb(n + 1, i) * a
        return [(i, c, c, None) for i, c in enumerate(coeffs)]
    if name == "stembridge":
        return [(k, d, d, None) for k, d in enumerate(eulerian_d(n))]
    if name == "B_n1":
        b1 = eulerian_b(n)[1]
        return [(1, b1, 3**n - n - 1, b1)]
    if name == "D_n1":
        d1 = eulerian_d(n)[1]
        return [(1, d1, 3**n - n - 1 - n * 2 ** (n - 1), d1)]
    raise ValueError(f"unknown identity {name!r}")


def roundtrips(audit: str, n: int) -> int:
    """Round trips the ``bijection --check`` audit verifies at rank n."""
    if audit in ("psi", "theta"):
        return 2 ** (n + 1) * factorial(n)
    if audit == "chi":
        return n * group_order("B", n - 1)
    if audit == "tgdo":
        return group_order("D", n)
    if audit == "bijtgsbps":
        return THRESHOLD_GRAPHS[n]
    raise ValueError(f"unknown audit {audit!r}")


def render_ascii(window: tuple[int, ...]) -> str:
    """The ``render`` drawing of a signed-permutation window."""
    n = len(window)
    full = [-x for x in reversed(window)] + list(window)
    path = "".join("E" if x > 0 else "S" for x in full)
    labels = [x for x in full if x > 0]
    heights, y = [n], n
    for step in path:
        if step == "S":
            y -= 1
        else:
            heights.append(y)
    width = max((len(str(-v)) for v in labels), default=1)
    lines = [" " * (width + 2) + " ".join(str(v).rjust(width) for v in labels)]
    for y in range(n, 0, -1):
        cells = " ".join(
            ("#" if y <= heights[x] else ".").rjust(width) for x in range(1, n + 1)
        )
        lines.append(f"{str(-labels[y - 1]).rjust(width)}  {cells}")
    lines += ["", path]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Checks: each takes the exit code and the captured stdout of one job.


def _exact(expected: str):
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        if out != expected:
            return f"expected {expected[:80]!r}, got {out[:80]!r}"
        return None

    return check


def check_verify(name: str, max_n: int):
    """Check ``verify --identity name --max-n max_n --format json``."""
    expected = {n: identity_rows(name, n) for n in range(MIN_N[name], max_n + 1)}

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            doc = json.loads(out)
            got = {
                r["n"]: [
                    (row["index"], row["lhs"], row["rhs"], row.get("brute"))
                    for row in r["rows"]
                ]
                for r in doc["reports"]
            }
            holds = doc["holds"] and all(
                row["holds"] for r in doc["reports"] for row in r["rows"]
            )
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable verify output: {exc!r}"
        if doc.get("identity") != name:
            return f"report names identity {doc.get('identity')!r}"
        for n, rows in expected.items():
            if got.get(n) != rows:
                return f"{name} rows at n={n}: expected {rows}, got {got.get(n)}"
        if set(got) != set(expected):
            return f"{name} reports ranks {sorted(got)}"
        if not holds:
            return f"{name} reported as failing"
        return None

    return check


def check_eulerian(kind: str, n: int):
    """Check ``eulerian --kind kind --n n`` in the default table format."""
    row = {"A": eulerian_a, "B": eulerian_b, "D": eulerian_d}[kind](n)
    return _exact(" ".join(map(str, row)) + "\n")


def check_bijection(audit: str, n: int):
    return _exact(f"{audit} at n={n}: {roundtrips(audit, n)} round trips verified\n")


def check_render(window: tuple[int, ...]):
    return _exact(render_ascii(window) + "\n")


def check_lattice(kind: str, n: int):
    return _exact(f"{kind} poset at n={n}: lattice ({group_order(kind, n)} elements)\n")


def check_iso(n: int):
    return _exact(f"tg_pair on weak D_{n} -> TG_{n}: order isomorphism\n")


def check_joinirr_b(n: int):
    # join-irreducibles of a weak order are the elements with one descent
    b1 = eulerian_b(n)[1]
    return _exact(
        f"B poset at n={n}: {b1} join-irreducible elements\n"
        f"Eulerian count with one descent: {b1}\n"
    )


def tg_cover_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def check_tg_covers(n: int):
    # TG_n is isomorphic to weak D_n, whose Hasse diagram has one edge per
    # (element, descent) pair: n/2 descents on average over D_n
    count = n * group_order("D", n) // 2
    header = f"TG poset at n={n}: {count} cover pairs"

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        lines = out.splitlines()
        if not lines or lines[0] != header:
            return f"expected {header!r}, got {lines[:1]}"
        pairs = lines[1:]
        if len(pairs) != count or len(set(pairs)) != count:
            return f"expected {count} distinct cover lines, got {len(pairs)}"
        if tg_cover_digest(pairs) != TG_COVER_DIGESTS[n]:
            return f"TG_{n} cover pairs differ from the recorded listing"
        return None

    return check
