"""Exact combinatorics of signed permutations, lattice paths, barred
permutations and threshold graphs.

The package is organized around one pipeline of exact structures:

* :mod:`signedpaths.sgnperm` — (signed) permutations of types A/B/D with
  descents, inversions, mates and the chi decomposition;
* :mod:`signedpaths.pathrep` — the lattice-path representation of a
  signed permutation and its height-function calculus;
* :mod:`signedpaths.barred` — simply and loosely barred permutations
  with the bijections psi and theta;
* :mod:`signedpaths.threshold` — threshold graphs, degree orderings,
  and the bijections tying them to even-signed permutations and barred
  permutations;
* :mod:`signedpaths.eulerian` — Eulerian numbers of all three types,
  identity verification, and threshold-graph counting formulas;
* :mod:`signedpaths.posets` — weak orders and the threshold-pair poset;
* :mod:`signedpaths.kernels` — descent histograms of whole groups by a
  dynamic program over window prefixes;
* :mod:`signedpaths.cli` — the ``signedpaths`` command-line tool.

Every number the package produces is exact; floating point is never
involved.  All exhaustive routines run over deterministic enumeration
orders so scans can be reproduced.
"""

from .barred import (
    LooselyBarredPermutation,
    SimplyBarredPermutation,
    psi,
    psi_inverse,
    theta,
    theta_inverse,
)
from .eulerian import (
    eulerian,
    eulerian_polynomial,
    threshold_counts,
    verify_identity,
)
from .kernels import descent_histogram, positive_descent_histogram
from .pathrep import (
    PathRepresentation,
    height_function,
    path_from_height,
    path_representation,
    signed_from_path,
)
from .posets import FinitePoset, tg_poset, weak_poset
from .sgnperm import (
    InversionSet,
    chi,
    chi_inverse,
    descent_count,
    descent_set,
    enumerate_group,
    group_order,
    inversion_set,
    mate,
    parse_signed,
)
from .threshold import (
    SimpleGraph,
    ThresholdPair,
    canonical_degree_ordering,
    graph,
    is_threshold,
    sbp_from_threshold,
    signed_from_tg,
    tg_pair,
    threshold_from_sbp,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LooselyBarredPermutation",
    "SimplyBarredPermutation",
    "psi",
    "psi_inverse",
    "theta",
    "theta_inverse",
    "eulerian",
    "eulerian_polynomial",
    "threshold_counts",
    "verify_identity",
    "descent_histogram",
    "positive_descent_histogram",
    "PathRepresentation",
    "height_function",
    "path_from_height",
    "path_representation",
    "signed_from_path",
    "FinitePoset",
    "tg_poset",
    "weak_poset",
    "InversionSet",
    "chi",
    "chi_inverse",
    "descent_count",
    "descent_set",
    "enumerate_group",
    "group_order",
    "inversion_set",
    "mate",
    "parse_signed",
    "SimpleGraph",
    "ThresholdPair",
    "canonical_degree_ordering",
    "graph",
    "is_threshold",
    "sbp_from_threshold",
    "signed_from_tg",
    "tg_pair",
    "threshold_from_sbp",
]
