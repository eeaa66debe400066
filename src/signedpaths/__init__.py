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
* :mod:`signedpaths.posets` — weak orders and the threshold-pair poset;
* :mod:`signedpaths.kernels` — descent histograms of whole groups by a
  dynamic program over window prefixes;
* :mod:`signedpaths.eulerian` — Eulerian numbers of all three types,
  identity verification, and threshold-graph counting formulas;
* :mod:`signedpaths.cli` — the ``signedpaths`` command-line tool.

Each name is imported from its module (``from signedpaths.barred import
psi``); ``import signedpaths`` alone loads none of them.  The first five
(object) modules and the next two (counting) share no import, so each
side checks the other with its own code; only ``cli`` loads both.

Every number the package produces is exact; floating point is never
involved.  All exhaustive routines run over deterministic enumeration
orders so scans can be reproduced.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
