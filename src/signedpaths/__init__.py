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
side checks the other with its own code; only ``cli`` loads both.  The
package root holds only what both sides build their records on, the
frozen-record base ``_Record`` and ``_trusted``, which compute nothing.

Every number the package produces is exact; floating point is never
involved.  All exhaustive routines run over deterministic enumeration
orders so scans can be reproduced.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]


class _Record:
    # A frozen record: __init__ stores the fields in vars(self) in their
    # order, and nothing is set or deleted afterwards.  Records compare and
    # hash as the tuple of their field values, within one class only.

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


def _trusted(cls, **fields):
    # A record from fields that are valid by construction: skips the checks
    # of the class's __init__, which the public constructors keep.  Fields
    # must already have their normal form (tuples, frozensets, sorted edge
    # pairs) so equality and hashing agree.
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj
