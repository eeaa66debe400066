"""The frozen records of every module: fixed fields, class-strict equality,
hashing as the tuple of the fields, and a ``Name(field=value, ...)`` repr."""

import pytest

import signedpaths
from signedpaths.barred import LooselyBarredPermutation, SbpClassification, SimplyBarredPermutation
from signedpaths.eulerian import IdentityReport, IdentityRow, ThresholdCounts
from signedpaths.pathrep import HeightClassification, PathRepresentation
from signedpaths.posets import LatticeReport
from signedpaths.threshold import SimpleGraph, ThresholdPair

ROW = IdentityRow(1, 11, 11, 11)

# one record of each class, with its field names in their order
RECORDS = [
    (SimplyBarredPermutation((2, 1), {1}), ("w", "bars")),
    (LooselyBarredPermutation((2, 1), {0, 2}), ("w", "bars")),
    (SbpClassification(True, False), ("normal", "compatible")),
    (PathRepresentation("ESNE", (2, -1)), ("path", "lambda_x")),
    (HeightClassification(True, False, 2, None), ("self_adjoint", "fixed_point_free", "center", "fixed_point")),
    (LatticeReport(False, (1, 2), "meet"), ("is_lattice", "witness", "missing")),
    (SimpleGraph(3, {(2, 1)}), ("n", "edges")),
    (ThresholdPair((1, 2), {(1, 2)}), ("w", "edges")),
    (ROW, ("index", "lhs", "rhs", "brute")),
    (IdentityReport("stembridge", 3, (ROW,)), ("name", "n", "rows")),
    (ThresholdCounts(2, 2, (1, 1), (1, 1), 2), ("n", "total", "by_degree_classes", "by_partition_descents",
                                               "unlabeled")),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


def values(record, fields):
    return tuple(getattr(record, name) for name in fields)


def test_every_record_takes_its_behaviour_from_the_one_base():
    # the object and counting sides share the package root's _Record, and
    # no class spells out a method of its own
    base = signedpaths._Record
    names = ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__")
    assert len({type(record) for record, _ in RECORDS}) == 11
    for record, _ in RECORDS:
        assert [getattr(type(record), name) for name in names] == [vars(base)[name] for name in names]


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_fields_can_be_neither_set_nor_deleted(record, fields):
    before = values(record, fields)
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert values(record, fields) == before and not hasattr(record, "extra")


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_equal_and_hashed_as_the_tuple_of_fields(record, fields):
    cls = type(record)
    twin = cls(*values(record, fields))
    assert twin == record and not twin != record and twin is not record
    assert hash(record) == hash(twin) == hash(values(record, fields))
    assert record != values(record, fields)


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_repr_names_every_field(record, fields):
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values(record, fields)))
    assert repr(record) == f"{type(record).__name__}({shown})"


def test_equality_is_class_strict():
    assert SimplyBarredPermutation((1, 2), {1}) != LooselyBarredPermutation((1, 2), {1})
    # the same field values under other names or in another class
    pair = ThresholdPair((1, 2), frozenset())
    for other in (SimplyBarredPermutation((1, 2)), LooselyBarredPermutation((1, 2))):
        assert pair != other and other != pair
    assert SbpClassification(True, True) != HeightClassification(True, True, 0, None)

