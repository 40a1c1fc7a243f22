"""The plain records keep the behavior they had as dataclasses: the same
repr, and equality and hash between equal instances.  None takes
assignment; CurveSpec, a mutable and unhashable dataclass before, now
hashes and refuses assignment like the frozen ones.  CharacteristicData is a
__slots__ class; CurveSpec, VirtualPoles, WitnessCurve and DualGraph are
named tuples."""

import re

import pytest

from germcontract import (
    CharacteristicData,
    DGVertex,
    DualGraph,
    build_dual_graph,
    parse_puiseux,
    virtual_poles,
    witness_curves,
)
from germcontract.cli import CurveSpec

# Each factory builds a fresh record on every call; each repr was printed by
# the dataclass the record replaced.
RECORDS = {
    "CharacteristicData": (
        lambda: CharacteristicData.from_pairs([(3, 5), (23, 2)]),
        "CharacteristicData(pairs=((3, 5), (23, 2)), polydromy=10)",
    ),
    "VirtualPoles": (
        lambda: virtual_poles([(3, 5), (23, 2)], 8),
        "VirtualPoles(tilde_omegas=(10, 6, 47), omegas=(10, 4, 3), generic_pole=-2,"
        " l=2, alpha=102, p=10)",
    ),
    "WitnessCurve": (
        lambda: witness_curves([(3, 5)], 9)[1],
        "WitnessCurve(curve=PuiseuxPoly(LOCAL, 'u^(3/5) + u^2'), predicted_algebraic=False)",
    ),
    "DualGraph": (
        lambda: build_dual_graph([(1, 4)], 1),
        "DualGraph(vertices=(DGVertex(label='Ltilde', weight=-3, is_Ltilde=True),"
        " DGVertex(label='E1', weight=-2, is_Ltilde=False),"
        " DGVertex(label='E2', weight=-2, is_Ltilde=False),"
        " DGVertex(label='E3', weight=-2, is_Ltilde=False),"
        " DGVertex(label='E4', weight=-2, is_Ltilde=False)),"
        " edges=((0, 4), (1, 2), (2, 3), (3, 4)), estar_attachment=('E4',))",
    ),
    "CurveSpec": (
        lambda: CurveSpec(
            parse_puiseux("u^(3/5)"), CharacteristicData.from_pairs([(3, 5), (23, 2)]), 8
        ),
        "CurveSpec(series=PuiseuxPoly(LOCAL, 'u^(3/5)'),"
        " pairs=CharacteristicData(pairs=((3, 5), (23, 2)), polydromy=10), r=8)",
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_repr_is_the_dataclass_repr(record):
    make, text = record
    assert repr(make()) == text


def test_equal_records_are_equal_and_hash_alike(record):
    make, _ = record
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_records_refuse_assignment(record):
    make, _ = record
    rec = make()
    field = re.match(r"\w+\((\w+)=", repr(rec))[1]
    for name in (field, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        delattr(rec, field)


def test_a_named_tuple_record_equals_the_plain_tuple_of_its_fields():
    """A change from the dataclasses, which equalled only their own class."""
    vp = virtual_poles([(3, 5)], 9)
    assert vp == ((5, 3), (5, 2), 1, 1, 24, 5)
    assert DGVertex("E1", -2) == ("E1", -2, False)
    assert DualGraph((), (), ()) == ((), (), ())


def test_characteristic_data_is_no_tuple():
    """local_pair_data and the CLI tell it apart from raw pairs."""
    data = CharacteristicData.from_pairs([(3, 5)])
    assert not isinstance(data, tuple)
    assert data != (((3, 5),), 5)
    assert data != CharacteristicData.from_pairs([(3, 5), (23, 2)])


def test_characteristic_data_keeps_its_caches():
    data = CharacteristicData.from_pairs([(3, 5), (23, 2)])
    assert data.cumulative_p() == (5, 10) and data.cumulative_p() is data.cumulative_p()
    assert data.betas() == (6, 23) and data.betas() is data.betas()
