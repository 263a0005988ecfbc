"""The package's value records: immutable, equal and hashed by their fields,
and printed as they always were."""

import re
from fractions import Fraction

import pytest

from upsilonkit.cfk import Generator, Slices
from upsilonkit.expr import Term, Torus, Unknot
from upsilonkit.plfun import PLFunction
from upsilonkit.upsilon import JumpReport, PivotPair
from upsilonkit.verify import CheckResult

# One record of every kind and its repr.
RECORDS = [
    (lambda: Generator("w0", 0, 0, 1),
     "Generator(name='w0', maslov=0, alg=0, alex=1)"),
    (lambda: Slices(((0, 1),), (), [0], [], 1),
     "Slices(basis0=((0, 1),), basis1=(), d0=[0], d1=[], phi=1)"),
    (lambda: Torus(2, 3), "Torus(p=2, q=3)"),
    (lambda: Term(Torus(2, 3)), "Term(atom=Torus(p=2, q=3), n=1, mirror=False)"),
    (lambda: Term(Unknot(), 2, True), "Term(atom=Unknot(), n=2, mirror=True)"),
    (lambda: PLFunction(((Fraction(0), Fraction(0)),
                         (Fraction(2), Fraction(-1)))),
     "PLFunction[(0, 0), (2, -1)]"),
    (lambda: PivotPair((0, 1), (1, 0), Fraction(1, 2)),
     "PivotPair(negative=(0, 1), positive=(1, 0), delta=Fraction(1, 2))"),
    (lambda: JumpReport(Fraction(2, 3), True, Fraction(-2)),
     "JumpReport(t=Fraction(2, 3), is_jump=True, upsilon2=Fraction(-2, 1))"),
    (lambda: CheckResult("c", True, "d"),
     "CheckResult(name='c', ok=True, detail='d')"),
]
IDS = [re.match(r"\w+", expected).group() for _, expected in RECORDS]


@pytest.mark.parametrize("make, expected", RECORDS, ids=IDS)
def test_repr(make, expected):
    assert repr(make()) == expected


@pytest.mark.parametrize("make, expected", RECORDS, ids=IDS)
def test_immutable(make, expected):
    record = make()
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("make, expected", RECORDS, ids=IDS)
def test_value_equality(make, expected):
    a, b = make(), make()
    assert a == b and not a != b
    if not isinstance(a, Slices):  # its d0 and d1 are lists
        assert hash(a) == hash(b)
    assert type(a)(*a[:-1], None) != a
    assert a == tuple(a)  # a record is a tuple of its fields


def test_unknot():
    u = Unknot()
    assert u and u == Unknot() and not u != Unknot()
    assert u != () and () != u
    assert hash(u) == hash(Unknot())
    assert repr(u) == "Unknot()" and str(u) == "U"
    with pytest.raises(AttributeError):
        u.extra = None
