"""Orbit iteration: fates, certified basin landings, and the diagnostics."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from real3x1 import maps, trajectory
from real3x1.cli import jsonable
from real3x1.errors import DomainError, PreconditionError
from real3x1.maps import BLOCK_STEPS, MAPS, map_from_name, step
from real3x1.rationals import parse_rational
from real3x1.trajectory import (
    TENDENCIES,
    Fate,
    FateKind,
    TrajectoryReport,
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


def _detect_period01_reference(bits):
    """detect_period01 by its definition: each candidate j checked against the whole suffix."""
    bits = list(bits)
    for j in range(len(bits) - 3):
        if all(bits[j + t] == t % 2 for t in range(len(bits) - j)):
            return j
    return None


def test_detect_period01_equals_the_reference():
    """The one backward pass returns what the definition does on every 0/1 tuple of up to 14 bits
    and on the parity bits of seeded orbits of U, Uflip and V and of integer U orbits."""
    for n in range(15):
        for bits in itertools.product((0, 1), repeat=n):
            assert detect_period01(bits) == _detect_period01_reference(bits), bits
    runs = [(name, x) for name in ("U", "Uflip", "V") for x in _seeded_starts(name, 40)]
    runs += [("U", F2(n)) for n in range(1, 60)]
    for name, x in runs:
        bits = iterate(MAPS[name], x, cap=2000, keep=1).parity_bits
        assert detect_period01(bits) == _detect_period01_reference(bits), (name, x)


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


# ------------------------------------------- the Fraction and ungated references


def _contraction_reference(x0, a, s, m_steps, m):
    """contraction_check as it ran on Fraction steps: the reference for the pair replay."""
    s = tuple(s)
    a = F2(a)
    x0 = F2(x0)
    l = len(s)
    ratio = F2(1)
    for b in s:
        ratio *= m.params.gamma if b else m.params.alpha
    x = x0
    ok = True
    for t in range(m_steps * l):
        x, b = step(m, x)
        if b != s[t % l]:
            raise PreconditionError(f"branch bits diverge from the claimed pattern at step {t}")
        if (t + 1) % l == 0:
            k = (t + 1) // l
            ok = ok and (x - a == ratio**k * (x0 - a))
    return ok


def _outcome(check, *args):
    try:
        return check(*args)
    except PreconditionError as exc:
        return ("PreconditionError", str(exc))


def _contraction_cases(name, count=150):
    """Seeded (x0, a, s, m_steps): s is the orbit's own first l bits, or l random bits,
    and a is the fixed point of that block's affine map, or that point moved by 1."""
    rng = random.Random(f"contraction-{name}")
    m = MAPS[name]
    cases = []
    for _ in range(count):
        den = rng.randint(1, 64)
        x0 = m.domain_min + F2(rng.randint(0, 12 * den), den)
        l = rng.randint(1, 4)
        if rng.randint(0, 3):
            s, x = [], x0
            for _ in range(l):
                x, b = step(m, x)
                s.append(b)
        else:
            s = [rng.randint(0, 1) for _ in range(l)]
        offset, ratio = F2(0), F2(1)  # the block's affine map is y -> ratio * y + offset
        for b in s:
            slope, shift = (m.params.gamma, m.params.delta) if b else (m.params.alpha, m.params.beta)
            offset, ratio = slope * offset + shift, slope * ratio
        a = offset / (1 - ratio) + rng.randint(0, 1)
        cases.append((x0, a, tuple(s), rng.randint(1, 4)))
    return cases


@pytest.mark.parametrize("name", ["U", "Uflip", "F", "V"])
def test_contraction_check_matches_the_fraction_reference(name):
    m = MAPS[name]
    outcomes = set()
    for case in _contraction_cases(name):
        want = _outcome(_contraction_reference, *case, m)
        assert _outcome(contraction_check, *case, m) == want, case
        outcomes.add(want if isinstance(want, bool) else want[0])
    assert outcomes == {True, False, "PreconditionError"}


def _iterate_reference(m, x0, cap=10**4, escape_bound=None, *, trap_region=None, den_bit_cap=1 << 16, keep=1024):
    """iterate with settle's full test on every step and no hull gate."""
    x0 = F2(x0)
    step_pq = m.step_pq
    p, q = x0.numerator, x0.denominator
    step_pq(p, q, p // q)
    orbit = [(p, q)]
    seen = {(p, q): 0}

    def settle(x):
        if trap_region is not None and trap_region[0] <= x < trap_region[1]:
            return Fate(FateKind.ENTERED_REGION, region=trap_region)
        for w_lo, w_hi, anchor, kind in trajectory._BASINS.get(m.name, ()):
            if w_lo < x < w_hi:
                assert _contraction_reference(x, anchor[0], [a % 2 for a in anchor], 1, m)
                return Fate(kind, anchor=anchor, confirmed=True)
        if escape_bound is not None and abs(x) > escape_bound:
            return Fate(FateKind.ESCAPED_BOUND, bound=F2(escape_bound))
        return None

    fate = settle(x0)
    if fate is None:
        for k in range(1, cap + 1):
            p, q, _b = step_pq(p, q, p // q)
            orbit.append((p, q))
            if (p, q) in seen:
                fate = Fate(FateKind.ENTERED_CYCLE, period=k - seen[p, q], value=F2(p, q))
                break
            seen[p, q] = k
            fate = settle(F2(p, q))
            if fate is not None:
                break
            if q.bit_length() > den_bit_cap:
                fate = Fate(FateKind.CAP_REACHED, size_capped=True)
                break
        else:
            fate = Fate(FateKind.CAP_REACHED)
    steps_used = len(orbit) - 1
    if fate.kind in TENDENCIES or fate.kind is FateKind.ENTERED_CYCLE:
        for _ in range(trajectory._TAIL_PAD):
            p, q, _b = step_pq(p, q, p // q)
            orbit.append((p, q))
    kept = max(keep, 1)
    iterates = [F2(p, q) for p, q in orbit[:kept]]
    bits = [(p // q) & 1 for p, q in orbit]
    return TrajectoryReport(x0, iterates, bits, fate, steps_used, len(orbit) > kept)


_NO_MINIMUM = "Phi:1/2,1/3,-3/2,1/2,1/2"  # floor(x + 1/2) parity, unbounded below
# U's pieces with tau = 0 and with tau = 1, unbounded below: the shaped step on negative floors,
# and the parity bits iterate reads from its bits
_SHAPED_NO_MINIMUM = "Phi:1/2,0,3/2,1/2,0"
_SHAPED_FLIP_NO_MINIMUM = "Phi:1/2,0,3/2,1/2,1"

# per map: (trap region, escape bound) of the gated runs besides the plain one
_GATE_SETTINGS = {
    "T": ((F2(5), F2(9)), F2(40)),
    "f": ((F2(3), F2(6)), F2(100)),
    "g": ((F2(-7, 3), F2(5)), F2(60)),
    "U": ((F2(5, 2), F2(7, 2)), F2(100)),
    "Uflip": ((F2(3), F2(9, 2)), F2(77, 3)),
    "F": ((F2(6), F2(13, 2)), F2(100)),
    "V": ((F2(1), F2(3)), F2(50)),
    _NO_MINIMUM: ((F2(-5, 2), F2(1, 3)), F2(50)),
    _SHAPED_NO_MINIMUM: ((F2(-9, 2), F2(-3)), F2(60)),
    _SHAPED_FLIP_NO_MINIMUM: ((F2(-7, 3), F2(-1, 2)), F2(45, 2)),
}


# per map: orbits compared at every keep from 1 to one past their last bit, so that the kept
# iterates cross from the repetition check's pairs into a cycle's closing pair and the tail pad
_SEAM_RUNS = {
    "T": [(F2(27), {})],  # entered_cycle
    "g": [(F2(-5), {})],  # a negative cycle
    "U": [(F2(1), {}), (F2(4, 3), {})],  # a cycle at the start; a basin midpoint, settled and padded
    "F": [(F2(3, 2), {"cap": 3})],  # the step cap
}


def _in_domain(m, x):
    try:
        step(m, x)
    except DomainError:
        return False
    return True


def _boundary_starts(m, trap, bound):
    """Each window endpoint, the trap's ends and +-bound, then every one-step preimage of them,
    so that the gate meets each boundary both as a start and after a step."""
    points = {trap[0], trap[1], bound, -bound}
    for w_lo, w_hi, _anchor, _kind in trajectory._BASINS.get(m.name, ()):
        points |= {F2(w_lo), F2(w_hi)}
    par = m.params
    preimages = {
        y
        for v in points
        for slope, offset in ((par.alpha, par.beta), (par.gamma, par.delta))
        if slope
        for y in [(v - offset) / slope]
        if _in_domain(m, y) and step(m, y)[0] == v
    }
    return sorted(x for x in points | preimages if _in_domain(m, x))


@pytest.mark.parametrize("name", sorted(_GATE_SETTINGS))
def test_gated_loop_matches_the_ungated_reference(name):
    m = map_from_name(name)
    trap, bound = _GATE_SETTINGS[name]
    rng = random.Random(f"gate-{name}")
    starts = _seeded_starts(name, 40) if name in MAPS else []
    while len(starts) < 40:  # the Phi map: any sign, any denominator
        starts.append(F2(rng.randint(-(1 << 10), 1 << 10), rng.randint(1, 1 << 6)))
    boundary = _boundary_starts(m, trap, bound)
    assert {trap[0], trap[1], bound} <= set(boundary)
    runs = [(x, {}) for x in starts]
    runs += [(x, {"escape_bound": bound, "trap_region": trap}) for x in starts + boundary]
    runs += [(x, {"escape_bound": bound, "den_bit_cap": 12}) for x in starts[:10] + boundary]
    for x, kwargs in _SEAM_RUNS.get(name, []):
        bits = len(iterate(m, x, **kwargs).parity_bits)
        runs += [(x, {**kwargs, "keep": keep}) for keep in range(1, bits + 2)]
    for x, kwargs in runs:
        kwargs = {"cap": 300, "keep": 16, **kwargs}
        got = jsonable(iterate(m, x, **kwargs))
        want = jsonable(_iterate_reference(m, x, **kwargs))
        assert got == want, (x, kwargs)


# maps with a block, and the floors of the block origins tried: U's pieces with tau 0 and 1, V's, F's
# by its hull bound 8 * (4 + 1) = 40 and far above it, no minimum (negative floors too, under a hull
# below 0), and the minimum 100, whose origins lie by 800
_BLOCK_ORIGINS = {
    "U": range(64, 88),
    "Uflip": range(64, 88),
    "F": [*range(36, 48), *range(1000, 1008)],
    "V": range(64, 88),
    "Phi:1/2,0,3/2,1/2,0": [*range(-12, 0), *range(64, 76)],
    "Phi:1/2,0,3/2,1/2,0,100": range(792, 808),
    "Phi:1/2,0,3/2,1/2,1,100": range(792, 808),
}
_BLOCK_FRACTIONS = (F2(1, 1 << 40), F2(1, 6), F2(1, 3), F2(1, 2), F2(5, 6), 1 - F2(1, 1 << 40))


def _report_or_error(fn, m, x, kwargs):
    try:
        return jsonable(fn(m, x, **kwargs))
    except DomainError as exc:
        return "DomainError", str(exc)


def _guard_runs(m, y, blocks=1):
    """Runs that meet each guard of a block exactly at each pair after y that the first blocks
    blocks would skip or start from: y is pair 1 of an orbit from a preimage, so at keep = 1 the
    block from y is the orbit's first, and with blocks = 2 the pair it lands on starts the second.
    For the j-th pair z after y: a trap that holds z and one that ends at z (hull top floor(z)); an
    escape bound just under z and one equal to z; a den_bit_cap of z's denominator's bits, and one
    less; a step cap at z; and each preimage's plain run at every keep from 2 to that of z.  At y
    and at each pair a block would land on, with floor f: the escape floors 27 * f + 40, where the
    escape guard holds, and one less."""
    par = m.params
    starts = [
        x
        for slope, offset in ((par.alpha, par.beta), (par.gamma, par.delta))
        for x in [(y - offset) / slope]
        if _in_domain(m, x) and step(m, x)[0] == y
    ]
    skipped, z = [], y
    for _ in range(BLOCK_STEPS * blocks - 1):
        if not _in_domain(m, z):
            break
        z = step(m, z)[0]
        skipped.append(z)
    tiny = F2(1, 1 << 80)
    settings = [{}, *({"keep": keep} for keep in range(2, BLOCK_STEPS * blocks))]
    for z in [y, *skipped[BLOCK_STEPS - 1 :: BLOCK_STEPS]]:
        settings += [{"escape_bound": F2(27 * math.floor(z) + 40 - less)} for less in (0, 1)]
    for j, z in enumerate(skipped, 1):
        bits = z.denominator.bit_length()
        settings += [
            {"trap_region": (z, z + tiny)},
            {"trap_region": (F2(math.floor(z)), z)},
            {"escape_bound": z - tiny},
            {"escape_bound": z},
            {"den_bit_cap": bits},
            {"den_bit_cap": bits - 1},
            {"cap": 1 + j},
        ]
    return [(x, {"cap": 8 + BLOCK_STEPS * blocks, "keep": 1, **kwargs}) for x in starts for kwargs in settings]


def _block_runs_match_the_reference(name, blocks):
    """The guard runs of _guard_runs(m, y, blocks) on the block origins of name: iterate equals the
    stepwise reference, DomainError text included.  Returns the runs and each run's block count."""
    m, taken = map_from_name(name), []

    def counting_block_pq(p, q):
        taken.append((p, q))
        return m.block_pq(p, q)

    counted = SimpleNamespace(
        name=m.name,
        params=m.params,
        step_pq=m.step_pq,
        even_q_never_recurs=m.even_q_never_recurs,
        block_pq=counting_block_pq,
    )
    runs = [run for f in _BLOCK_ORIGINS[name] for frac in _BLOCK_FRACTIONS for run in _guard_runs(m, f + frac, blocks)]
    counts = []
    for x, kwargs in runs:
        taken.clear()
        got = _report_or_error(iterate, counted, x, kwargs)
        assert got == _report_or_error(_iterate_reference, m, x, kwargs), (x, kwargs)
        counts.append(len(taken))
    return runs, counts


@pytest.mark.parametrize("name", sorted(_BLOCK_ORIGINS))
def test_block_guards_match_the_reference_at_their_bounds(name):
    """Each guard on a block (hull top, domain minimum, escape floor, den_bit_cap, step cap and
    keep) met exactly at each pair the block skips, on block origins with floors about the
    guards' bounds: iterate equals the stepwise reference, DomainError text included."""
    runs, counts = _block_runs_match_the_reference(name, 1)
    with_blocks = sum(map(bool, counts))
    assert len(runs) > 1000 and with_blocks > len(runs) // 20


@pytest.mark.parametrize("name", sorted(_BLOCK_ORIGINS))
def test_chained_blocks_match_the_reference_at_their_bounds(name):
    """A block that starts where a block landed skips that pair's tests too.  Each guard met
    exactly at that pair and at each pair the second block skips, so that a chain of blocks ends
    at each bound (hull top, escape floor, den_bit_cap, step cap), and every keep up to that pair,
    where a chain starts: iterate equals the stepwise reference, DomainError text included."""
    runs, counts = _block_runs_match_the_reference(name, 2)
    chained = sum(count >= 2 for count in counts)
    assert len(runs) > 2000 and chained > len(runs) // 20


def test_gate_boundaries_after_a_step():
    """The trap holds lo, not hi, and |x| equal to the escape bound does not escape,
    also when the orbit reaches them through the gate one step in."""
    v, trap, bound = MAPS["V"], (F2(1), F2(2)), F2(50)
    rep = iterate(v, F2(2), trap_region=trap)  # 2 (hi) -> 1 (lo)
    assert (rep.fate.kind, rep.steps_used) == (FateKind.ENTERED_REGION, 1)
    assert iterate(v, F2(4), cap=1, trap_region=trap).fate.kind is FateKind.CAP_REACHED  # 4 -> 2
    assert iterate(v, F2(100, 3), cap=1, escape_bound=bound).fate.kind is FateKind.CAP_REACHED  # -> 50
    rep = iterate(v, F2(35), cap=1, escape_bound=bound)  # 35 -> 105/2
    assert (rep.fate.kind, rep.steps_used) == (FateKind.ESCAPED_BOUND, 1)
    phi, bound = map_from_name("Phi:1/2,0,3/2,1/2,0"), F2(52)  # U's pieces, unbounded below
    assert iterate(phi, F2(-35), cap=1, escape_bound=bound).fate.kind is FateKind.CAP_REACHED  # -> -52
    rep = iterate(phi, F2(-37), cap=1, escape_bound=bound)  # -37 -> -55
    assert (rep.fate.kind, rep.steps_used) == (FateKind.ESCAPED_BOUND, 1)


@pytest.mark.parametrize("name", ["T", "U", "Uflip", "F", "V"])
def test_each_step_is_taken_once(name, monkeypatch):
    """iterate takes each step it reports once, tail pad included: a step_pq call counts one step
    and a block_pq call BLOCK_STEPS.  The step that checks the start's domain is the orbit's first.
    A start that settles at once still makes that one call.  Basin confirmations replay their
    block on the real map, outside the count."""
    m, calls, blocks = MAPS[name], [], []

    def counting_step_pq(p, q, f):
        calls.append((p, q))
        return m.step_pq(p, q, f)

    def counting_block_pq(p, q):
        calls.extend([(p, q)] * BLOCK_STEPS)
        blocks.append((p, q))
        return m.block_pq(p, q)

    counted = SimpleNamespace(
        name=m.name,
        params=m.params,
        branch_rule=m.branch_rule,
        step_pq=counting_step_pq,
        even_q_never_recurs=m.even_q_never_recurs,
        block_pq=None if m.block_pq is None else counting_block_pq,
    )
    check = trajectory.contraction_check
    monkeypatch.setattr(trajectory, "contraction_check", lambda x0, a, s, k, _m: check(x0, a, s, k, m))
    starts = _seeded_starts(name, 20)
    starts += [(F2(w_lo) + F2(w_hi)) / 2 for w_lo, w_hi, _a, _k in trajectory._BASINS.get(name, ())]
    settings = [
        {"cap": 0},
        {"cap": 3},
        {"cap": 300},
        {"cap": 300, "escape_bound": F2(1 << 12)},
        {"cap": 300, "trap_region": (F2(1), F2(3))},
        {"den_bit_cap": 16},
        {"cap": 300, "keep": 1},
        {"cap": 7, "keep": 2},
    ]
    fates, settled = set(), 0
    for x in starts:
        for kwargs in settings:
            calls.clear()
            rep = iterate(counted, x, **kwargs)
            steps = len(rep.parity_bits) - 1  # a bit for the start and one per step
            assert len(calls) == max(steps, 1), (x, kwargs)
            assert rep == iterate(m, x, **kwargs), (x, kwargs)
            fates.add(rep.fate.kind)
            settled += rep.steps_used == 0 and steps > 0
    assert FateKind.CAP_REACHED in fates and len(fates) > 1
    assert bool(blocks) == (m.block_pq is not None)  # the keep = 1 runs of U, Uflip, F and V take blocks
    if name in trajectory._BASINS:  # each window's midpoint settles at once and still pads its tail
        assert settled >= len(trajectory._BASINS[name])


# maps whose pieces (a*x + b) / e all have a odd, and at most one e odd, with a slope other than
# +-1 and a fixed point below the minimum, so that an even denominator never recurs: f and F by
# 3x + 1, which fixes -1/2, and test_golden's forged family F by e even alone.  Maps that break
# that rule: F's pieces with no minimum, the identity as a piece (twice, and in the forged stall
# F), x + 1/2 by a = 2, and the forged doubling F by 2x
_RULE = {
    "T": True,
    "f": True,
    "g": True,
    "U": True,
    "Uflip": True,
    "F": True,
    "V": True,
    "Phi:1,0,1,0,0": False,
    "Phi:1,1/2,1,-1/2,0": False,
    "Phi:1/2,0,3,1,0": False,
    "Phi:1/2,0,5/4,0,0,1": True,
    "Phi:1/2,0,1,0,0,1": False,
    "Phi:2,0,5/4,0,0,1": False,
}


def test_even_denominators_never_recur_under_the_rule():
    """The rule is read off the pieces; under it no step from an even denominator lowers the
    denominator's power of 2, and every step by a piece with e even raises it, on seeded orbits of
    U, Uflip, V and F (whose 3x + 1 keeps it)."""
    assert {name: map_from_name(name).even_q_never_recurs for name in _RULE} == _RULE
    for name in ("U", "Uflip", "V", "F"):
        m = MAPS[name]
        for x in _seeded_starts(name, 20):
            p, q = x.numerator, x.denominator
            for _ in range(60):
                p2, q2, bit = m.step_pq(p, q, p // q)
                if not q & 1:
                    _a, _b, e = maps._pieces(m.params)[bit]  # the piece that ran
                    assert (q2 & -q2) >= (q & -q) << (1 - e % 2), (name, x, p, q)
                p, q = p2, q2


@pytest.mark.parametrize(
    "name, label", [("Phi:1,0,1,0,0", "entered_cycle:1"), ("Phi:1,1/2,1,-1/2,0", "entered_cycle:2")]
)
def test_a_cycle_through_an_even_denominator_is_found(name, label):
    """Each map breaks one clause of the rule, e = 1 or a = 2, and has a cycle through 1/2, whose
    denominator is even: iterate indexes its even denominators and finds the cycle where the
    reference does."""
    m = map_from_name(name)
    rep = iterate(m, F2(1, 2))
    assert rep.fate.label() == label
    assert (rep.fate.value, rep.steps_used) == (F2(1, 2), rep.fate.period)
    for x in (F2(1, 2), F2(3, 2), F2(5, 4)):
        assert iterate(m, x, cap=50) == _iterate_reference(m, x, cap=50), x
