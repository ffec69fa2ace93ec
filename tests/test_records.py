"""The package's records: immutable NamedTuples that compare by their fields."""

import re
from fractions import Fraction

import pytest

from real3x1 import cli
from real3x1.cycles import BitSeq, candidate
from real3x1.maps import MAPS, PhiParams
from real3x1.remainders import InequalityLedger, rmap_orbit_scan, trace
from real3x1.trajectory import iterate


def _records():
    """(record, frozen) for one instance of each of the package's eleven record types."""
    rec = candidate(BitSeq.from_string("11100"))
    tr = trace(rec.d, rec.numerators)
    rep = iterate(MAPS["U"], Fraction(3, 2))
    return [
        (cli._CONJECTURES["RV"], True),
        (rec.s, True),
        (rec, True),
        (MAPS["U"].params, True),
        (MAPS["U"], True),
        (tr.verdict, True),
        (tr, False),
        (InequalityLedger((), 3, 5, False, True), False),
        (rmap_orbit_scan(19)[0], True),
        (rep.fate, True),
        (rep, False),
    ]


def test_records_are_immutable_and_compare_by_fields():
    records = _records()
    assert len({type(record) for record, _ in records}) == 11
    for record, frozen in records:
        twin = type(record)(*record)
        assert twin == record and twin is not record
        if frozen:
            assert hash(twin) == hash(record)
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


def test_validating_records_keep_their_errors():
    for bits, shown in (([], "()"), ((0, 2), "(0, 2)")):
        with pytest.raises(ValueError, match=re.escape(f"bits must be a nonempty 0/1 sequence: {shown}")):
            BitSeq(bits)
    with pytest.raises(ValueError, match=re.escape("tau must lie in [0, 2), got 2")):
        PhiParams(1, 0, 1, 0, 2)
    with pytest.raises(ValueError, match=re.escape("tau must lie in [0, 2), got -1/4")):
        PhiParams(1, 0, 1, 0, Fraction(-1, 4))
    # a copy with a changed field is checked as a new record is
    with pytest.raises(ValueError, match=re.escape("bits must be a nonempty 0/1 sequence: (0, 2)")):
        BitSeq.from_string("10")._replace(bits=(0, 2))
    with pytest.raises(ValueError, match=re.escape("tau must lie in [0, 2), got 2")):
        MAPS["U"].params._replace(tau=2)
    assert MAPS["U"].params._replace(tau=1) == MAPS["Uflip"].params
    # a tracer wraps from_rank where the class defines it
    assert isinstance(BitSeq.__dict__["from_rank"], classmethod)
