"""Orbit iteration: fates, certified basin landings, and the diagnostics."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from real3x1.cli import jsonable
from real3x1.errors import DomainError, PreconditionError
from real3x1.maps import MAPS, map_from_name
from real3x1.rationals import parse_rational
from real3x1.trajectory import (
    FateKind,
    contraction_check,
    detect_period01,
    iterate,
)

F2 = Fraction


def test_enters_trivial_cycle_from_one():
    rep = iterate(MAPS["U"], F2(1))
    assert rep.fate.label() == "entered_cycle:2"
    assert (rep.fate.period, rep.fate.value) == (2, F2(1))
    assert rep.steps_used == 2
    # the tail pad keeps the periodic tail visible: 1, 2 forever
    assert rep.iterates[:5] == [F2(1), F2(2), F2(1), F2(2), F2(1)]
    assert rep.parity_bits == [1, 0] * 5 + [1]


def test_basin_landing_at_start():
    rep = iterate(MAPS["U"], F2(3, 2))
    assert rep.fate.kind is FateKind.TENDS_TO_TRIVIAL
    assert rep.fate.anchor == (1, 2)
    assert rep.fate.confirmed
    assert rep.steps_used == 0
    # x_{2k} - 1 = (3/4)^k / 2 exactly, interleaved with the doubled points
    assert rep.iterates == [
        F2(3, 2), F2(11, 4), F2(11, 8), F2(41, 16), F2(41, 32),
        F2(155, 64), F2(155, 128), F2(593, 256), F2(593, 512),
    ]
    assert rep.parity_bits == [1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_integer_orbit_reaches_cycle():
    rep = iterate(MAPS["T"], F2(7))
    assert rep.fate.label() == "entered_cycle:2"
    assert rep.fate.value == F2(2)
    assert rep.steps_used == 12
    assert rep.iterates[:13] == [
        F2(v) for v in (7, 11, 17, 26, 13, 20, 10, 5, 8, 4, 2, 1, 2)
    ]


def test_fractional_and_negative_cycles_of_g():
    rep = iterate(MAPS["g"], F2(1, 5))
    assert rep.fate.label() == "entered_cycle:3"
    assert rep.fate.value == F2(1, 5)
    assert rep.iterates[:4] == [F2(1, 5), F2(4, 5), F2(2, 5), F2(1, 5)]

    rep = iterate(MAPS["g"], F2(-5))
    assert rep.fate.label() == "entered_cycle:3"
    assert rep.fate.value == F2(-5)
    assert rep.iterates[:4] == [F2(-5), F2(-7), F2(-10), F2(-5)]


def test_escape_bound():
    rep = iterate(MAPS["F"], F2(3, 2), cap=5, escape_bound=F2(100))
    assert rep.fate.kind is FateKind.ESCAPED_BOUND
    assert rep.fate.bound == F2(100)
    assert rep.steps_used == 4
    assert rep.iterates == [F2(3, 2), F2(11, 2), F2(35, 2), F2(107, 2), F2(323, 2)]


def test_flipped_map_tends_from_below():
    rep = iterate(MAPS["Uflip"], F2(1, 2))
    assert rep.fate.kind is FateKind.TENDS_FROM_BELOW
    assert rep.fate.anchor == (1, 2)
    assert rep.steps_used == 2
    assert rep.iterates[:3] == [F2(1, 2), F2(5, 4), F2(5, 8)]
    assert rep.parity_bits == [0, 1] * 5 + [0]


def test_trap_region():
    rep = iterate(MAPS["V"], F2(4), trap_region=(F2(1), F2(3)))
    assert rep.fate.kind is FateKind.ENTERED_REGION
    assert rep.fate.region == (F2(1), F2(3))
    assert rep.steps_used == 1
    assert rep.iterates == [F2(4), F2(2)]
    # The trap takes precedence over a basin hit at the same point.
    rep = iterate(MAPS["U"], F2(3, 2), trap_region=(F2(1), F2(2)))
    assert rep.fate.kind is FateKind.ENTERED_REGION
    assert rep.steps_used == 0


def test_denominator_size_cap():
    shrink = map_from_name("Phi:1/3,0,1/3,0,0")  # both branches divide by 3
    rep = iterate(shrink, F2(1, 7), den_bit_cap=16)
    assert rep.fate.label() == "cap_reached:size"
    assert rep.fate.size_capped and not rep.fate.resolved
    assert rep.steps_used == 9  # 7 * 3^9 is the first denominator past 16 bits


def test_step_cap():
    rep = iterate(MAPS["F"], F2(3, 2), cap=3)
    assert rep.fate.label() == "cap_reached"
    assert not rep.fate.size_capped and not rep.fate.resolved
    assert rep.steps_used == 3


def test_keep_truncates_iterates_not_bits():
    rep = iterate(MAPS["U"], F2(27), keep=4)
    assert rep.fate.label() == "entered_cycle:2"
    assert rep.steps_used == 71
    assert rep.truncated and len(rep.iterates) == 4
    assert len(rep.parity_bits) == 71 + 1 + 8  # every step plus the pad
    # 1, 2, 1 and the pad make 11 iterates: keep = 11 holds them all
    assert not iterate(MAPS["U"], F2(1), keep=11).truncated
    assert iterate(MAPS["U"], F2(1), keep=10).truncated
    assert not iterate(MAPS["U"], F2(7), cap=0, keep=1).truncated


def test_keep_below_one_keeps_the_start():
    """keep < 1 keeps only the start, like keep = 1, and marks the report truncated."""
    lines = [
        json.dumps(jsonable(iterate(MAPS["U"], x, keep=k)), sort_keys=True)
        for k in (-3, 0, 1)
        for x in (F2(3, 2), F2(7), F2(1))
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d70f3a106a19bda5430669ace2ddd349d88599655ac04dd7f3a6564f000d7e9e"


def test_domain_errors_on_start():
    with pytest.raises(DomainError):
        iterate(MAPS["U"], F2(1, 2))
    with pytest.raises(DomainError):
        iterate(MAPS["Uflip"], F2(-1))


def test_report_json_shape():
    js = jsonable(iterate(MAPS["U"], F2(3, 2)))
    assert js["start"] == "3/2"
    assert js["iterates"][0] == "3/2" and js["iterates"][2] == "11/8"
    assert js["fate"]["kind"] == "tends_to_trivial"
    assert js["fate"]["anchor"] == [1, 2]
    assert js["fate"]["confirmed"] is True
    assert js["truncated"] is False


def test_detect_period01():
    assert detect_period01((0, 1, 0, 1, 0, 1)) == 0
    assert detect_period01((1, 0, 1, 0, 1, 0)) == 1
    assert detect_period01((1, 1, 0, 1, 0, 1, 0, 1)) == 2
    assert detect_period01((1, 1, 1, 1, 1, 1)) is None
    assert detect_period01((0, 1, 0, 1)) == 0
    assert detect_period01((0, 1)) is None  # shorter than four bits


def test_tendency_fates():
    assert iterate(MAPS["U"], F2(3, 2)).fate.kind is FateKind.TENDS_TO_TRIVIAL
    assert iterate(MAPS["Uflip"], F2(1, 2)).fate.kind is FateKind.TENDS_FROM_BELOW
    assert iterate(MAPS["U"], F2(1)).fate.label() == "entered_cycle:2"
    assert iterate(MAPS["U"], F2(7), cap=3).fate.kind is FateKind.CAP_REACHED


def test_contraction_check():
    assert contraction_check(F2(3, 2), 1, (1, 0), 10) is True
    # The bits match but the claimed fixed point is wrong, so the identity fails.
    assert contraction_check(F2(3, 2), 2, (1, 0), 2) is False
    with pytest.raises(PreconditionError):
        contraction_check(F2(3, 2), 1, (0, 1), 1)
    with pytest.raises(PreconditionError):
        contraction_check(F2(7, 2), 1, (1, 0), 3)
    with pytest.raises(ValueError):
        contraction_check(F2(3, 2), 1, (), 1)
    with pytest.raises(ValueError):
        contraction_check(F2(3, 2), 1, (1, 2), 1)
    with pytest.raises(ValueError):
        contraction_check(F2(3, 2), 1, (1, 0), 0)


@given(st.fractions(min_value=1, max_value=64, max_denominator=64))
@settings(max_examples=200, deadline=None)
def test_bounded_starts_resolve_with_alternating_tail(x0):
    rep = iterate(MAPS["U"], x0)
    assert rep.fate.resolved
    assert rep.fate.kind in (FateKind.TENDS_TO_TRIVIAL, FateKind.ENTERED_CYCLE)
    assert detect_period01(rep.parity_bits) is not None
    stored = rep.iterates if not rep.truncated else rep.iterates[: len(rep.iterates)]
    for x, b in zip(stored, rep.parity_bits):
        assert math.floor(x) % 2 == b


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_integers_reach_the_two_cycle(n):
    rep = iterate(MAPS["U"], F2(n))
    assert rep.fate.kind is FateKind.ENTERED_CYCLE
    assert rep.fate.period == 2
    assert rep.fate.value in (F2(1), F2(2))


@given(
    st.sampled_from([("U", 1), ("Uflip", 0), ("F", 1), ("V", 1)]),
    st.fractions(min_value=0, max_value=1000, max_denominator=1000),
)
@settings(max_examples=200, deadline=None)
def test_json_form_round_trips(map_and_min, offset):
    name, minimum = map_and_min
    rep = iterate(MAPS[name], minimum + offset, cap=200, keep=64)
    js = json.loads(json.dumps(jsonable(rep)))
    assert [parse_rational(t) for t in js["iterates"]] == rep.iterates
    assert js["parity_bits"] == rep.parity_bits
    assert js["fate"]["kind"] == rep.fate.kind.value


# SHA-256 of the JSON reports of 50 seeded starts per named map, recorded
# before orbits ran on integer pairs.
ORBIT_DIGESTS = {
    "T": "d60c7ad5fa7c0db54b2c1c6eb5707e4083be2323015c11a46ddb0e6daff9c431",
    "f": "a82f2348170e460799db0cfa6ebfc7e9b4b288b59fb5757d8c93afaeed18c429",
    "g": "a6f88778a9f5833b52b2f6ca2a25f2da117d33fdcb19031a9f218abd20e4e582",
    "U": "b613f4cdb35f2c2df84044b831127238f6d8b02c076d4a1e68c23500d6a91ae1",
    "Uflip": "f7009200a422de3c2f645048e96c7e5a4434b122e2f06be5448de918c6a777c5",
    "F": "871a2c4a13136a9297e082a423f566bfad80ae34877f0b225d725079dd04ef05",
    "V": "79ef6b4e697c72ca091fa9439c4db750075cf08c22aa6f7adf692f780b133356",
}


def _seeded_starts(name, count=50):
    rng = random.Random(f"orbit-{name}")
    m = MAPS[name]
    starts = []
    while len(starts) < count:
        if m.integral:
            x = F2(rng.randint(1, 1 << 16))
        elif m.domain_min is None:  # g: odd reduced denominators, any sign
            x = F2(rng.randint(-(1 << 12), 1 << 12), 2 * rng.randint(0, 1 << 9) + 1)
        else:
            den = rng.randint(1, 1 << 12)
            x = m.domain_min + F2(rng.randint(0, den << 8), den)
        starts.append(x)
    return starts


@pytest.mark.parametrize("name", sorted(ORBIT_DIGESTS))
def test_seeded_reports_are_unchanged(name):
    lines = [
        json.dumps(jsonable(iterate(MAPS[name], x, cap=1000)), sort_keys=True)
        for x in _seeded_starts(name)
    ]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ORBIT_DIGESTS[name]
