"""What callers see of the package's seven immutable value classes.

Each is built positionally in field order, compares equal only to a value
of its own class, hashes equal values alike, prints as it always has,
refuses assignment and deletion, and survives pickle and copy.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from pellredei import (
    Convergent,
    CorrespondenceReport,
    HyperbolaPoint,
    PellSolution,
    QuadraticElement,
    RedeiPair,
    SqrtExpansion,
)

# (class, field names in order, positional arguments, repr)
VALUES = [
    (QuadraticElement, ("a", "b", "d"), (Fraction(1, 2), 3, 5), "(1/2 + 3*sqrt(5))"),
    (
        SqrtExpansion,
        ("d", "a0", "period"),
        (7, 2, (1, 1, 1, 4)),
        "SqrtExpansion(d=7, a0=2, period=(1, 1, 1, 4))",
    ),
    (Convergent, ("k", "p", "q"), (3, 8, 3), "Convergent(k=3, p=8, q=3)"),
    (
        RedeiPair,
        ("d", "z", "n", "num", "den"),
        (7, Fraction(1, 2), 2, Fraction(29, 4), Fraction(1)),
        "RedeiPair(d=7, z=Fraction(1, 2), n=2, num=Fraction(29, 4), den=Fraction(1, 1))",
    ),
    (HyperbolaPoint, ("d", "x", "y"), (2, 3, 2), "HyperbolaPoint(d=2, x=3, y=2)"),
    (
        PellSolution,
        ("d", "n", "x", "y"),
        (61, 1, 1766319049, 226153980),
        "PellSolution(d=61, n=1, x=1766319049, y=226153980)",
    ),
    (
        CorrespondenceReport,
        ("d", "n", "period_length", "parity", "convergent_index",
         "redei_num", "redei_den", "convergent_p", "convergent_q", "equal"),
        (7, 1, 4, "even", 3, 144, 54, 8, 3, True),
        "CorrespondenceReport(d=7, n=1, period_length=4, parity='even', convergent_index=3, "
        "redei_num=144, redei_den=54, convergent_p=8, convergent_q=3, equal=True)",
    ),
]

cases = pytest.mark.parametrize(
    "cls, fields, args, text", VALUES, ids=[cls.__name__ for cls, *_ in VALUES]
)


class Twin:
    """An unrelated class holding the same field values."""

    def __init__(self, value, fields):
        for name in fields:
            setattr(self, name, getattr(value, name))


@cases
def test_positional_construction_in_field_order(cls, fields, args, text):
    value = cls(*args)
    assert tuple(getattr(value, name) for name in fields) == args
    assert cls(**dict(zip(fields, args))) == value


@cases
def test_equal_only_within_the_class(cls, fields, args, text):
    value = cls(*args)
    assert value == cls(*args)
    assert value != args
    assert value != Twin(value, fields)
    if cls is not QuadraticElement:  # its equality is numeric: see test_exact
        subclass = type("Sub" + cls.__name__, (cls,), {})
        assert value != subclass(*args)


@cases
def test_equal_values_hash_alike(cls, fields, args, text):
    assert hash(cls(*args)) == hash(cls(*args))
    assert len({cls(*args), cls(*args)}) == 1


@cases
def test_repr(cls, fields, args, text):
    assert repr(cls(*args)) == text


@cases
def test_fields_cannot_be_assigned_or_deleted(cls, fields, args, text):
    value = cls(*args)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == args


@cases
def test_pickle_and_copy_round_trip(cls, fields, args, text):
    value = cls(*args)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls
        assert twin == value
        assert repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, fields[0], 0)
