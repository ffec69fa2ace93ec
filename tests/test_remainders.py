"""Remainder ledgers: the trace verdicts, segment bounds, and the orbit scan."""

import hashlib
import json

import pytest

from real3x1 import cli, remainders
from real3x1.cli import jsonable
from real3x1.cycles import BitSeq, CycleClass, evaluate, sweep
from real3x1.errors import PreconditionError, StructureError
from real3x1.rationals import compare_pow3_pow2
from real3x1.remainders import (
    Segment,
    VerdictKind,
    _check_modulus,
    _moves,
    _segments,
    modulus_ok,
    rmap_orbit_scan,
    segment_inequality,
    trace,
)


def synthetic_trace(d, r_cycle):
    """A formally aligned closed ledger from a remainder cycle alone.

    Each consecutive pair must match exactly one recurrence branch (with its
    side condition); quotients are synthesized with the matching parity.  This
    is the honest way to exercise segment_inequality, since no genuine
    candidate ever closes aligned.
    """
    _check_modulus(d)
    states = tuple(r_cycle)
    if not states:
        raise ValueError("empty remainder cycle")
    l = len(states)
    bits = []
    for i in range(l):
        cur, nxt = states[i], states[(i + 1) % l]
        if not (0 < cur < d and cur % 2 == 0):
            raise ValueError(f"state {cur} not an even residue in (0, {d})")
        moves = dict(_moves(d, cur))
        if nxt not in moves:
            raise ValueError(f"no recurrence branch sends {cur} to {nxt} (d={d})")
        bits.append(moves[nxt])
    # quotient i is bits[i]; over an odd d and an even r_i, c_i's parity is bits[i]
    c = tuple(qi * d + ri for qi, ri in zip(bits + bits[:1], states + states[:1]))
    return trace(d, c)


def test_trace_misaligned_example():
    # s = 11100: d = 32 - 27 = 5, x0 = 19/5, the standard worked fractional case.
    rec = evaluate(BitSeq.from_string("11100"))
    tr = trace(rec.d, rec.numerators)
    assert tr.d == 5
    assert tr.c == (19, 31, 49, 76, 38, 19)
    assert tr.q == (3, 6, 9, 15, 7, 3)
    assert tr.r == (4, 1, 4, 1, 3, 4)
    assert tr.new == (False, True, False, True, False)
    assert tr.aligned_prefix == 1
    assert tr.segments is None
    assert tr.verdict.kind is VerdictKind.MISALIGNED_AT
    assert tr.verdict.label() == "misaligned_at:1"

    js = jsonable(tr)
    assert js["r"] == [4, 1, 4, 1, 3, 4]
    assert js["verdict"] == "misaligned_at:1"
    assert js["segments"] is None
    assert js["flipped"] is False


def test_trace_flipped_example():
    rec = evaluate(BitSeq.from_string("11100"))
    tr = trace(rec.d, rec.numerators, flipped=True)
    # Complements w = d - r drive the flipped recurrence; the start itself is
    # unflip-aligned, so the flipped ledger dies immediately.
    assert tr.new == (False, False, True, False, False)
    assert tr.aligned_prefix == 0
    assert tr.verdict.label() == "misaligned_at:0"


def test_trace_integer_cycle_both_modes():
    rec = evaluate(BitSeq.from_string("10"))  # the 1 -> 2 -> 1 cycle, d = 1
    for flipped, prefix in ((False, 2), (True, 0)):
        tr = trace(rec.d, rec.numerators, flipped=flipped)
        assert tr.verdict.kind is VerdictKind.INTEGER_CYCLE
        assert tr.r == (0, 0, 0)
        assert tr.segments is None
        assert tr.aligned_prefix == prefix


def test_trace_rejects_negative_d():
    rec = evaluate(BitSeq.from_string("110"))  # d = 8 - 9 = -1
    with pytest.raises(PreconditionError):
        trace(rec.d, rec.numerators)
    with pytest.raises(PreconditionError):
        trace(rec.d, rec.numerators, flipped=True)


@pytest.mark.parametrize("flipped", [False, True])
def test_trace_rejects_zero_d(flipped):
    # No pattern has d = 2^l - 3^n = 0, but trace takes raw integers: d = 0
    # is a bad input that names itself, not a ZeroDivisionError.
    with pytest.raises(PreconditionError, match="^remainder ledger undefined for d = 0 <= 0$"):
        trace(0, (1, 1), flipped)


def test_synthetic_trace_d19():
    tr = synthetic_trace(19, (8, 12, 18))
    assert tr.verdict.kind is VerdictKind.ALIGNED_CLOSED
    assert tr.r == (8, 12, 18, 8)
    assert tr.c[-1] == tr.c[0]  # closed, like every ledger
    assert tr.branch_bits == (1, 1, 1)
    assert tr.segments is not None and len(tr.segments) == 1
    seg = tr.segments[0]
    assert (seg.start, seg.stop, seg.ones, seg.gap) == (0, 3, 3, 3)

    led = segment_inequality(tr)
    assert len(led.segments) == 1
    entry = led.segments[0]
    assert (entry.ones, entry.gap) == (3, 3)
    assert entry.bound_holds and entry.strict_holds
    assert (led.n_total, led.l_total) == (3, 3)
    assert led.sum_side_holds is True  # 27 > 8
    assert led.positive_d_side_holds is False  # so no positive d fits this orbit

    js = jsonable(led)
    assert js["segments"] == [[0, 3, 3, 3, True, True]]
    assert js["sum_side_holds"] and not js["positive_d_side_holds"]


def test_synthetic_trace_rejects_bad_input():
    with pytest.raises(ValueError):
        synthetic_trace(19, ())
    with pytest.raises(ValueError):
        synthetic_trace(19, (7,))  # odd state
    with pytest.raises(ValueError):
        synthetic_trace(19, (8, 12))  # 12 has no branch back to 8
    with pytest.raises(ValueError):
        synthetic_trace(9, (2, 4))  # 3 | 9
    with pytest.raises(ValueError):
        synthetic_trace(4, (2,))


def test_segment_inequality_needs_aligned_closure():
    rec = evaluate(BitSeq.from_string("11100"))
    misaligned = trace(rec.d, rec.numerators)
    with pytest.raises(PreconditionError):
        segment_inequality(misaligned)
    rec = evaluate(BitSeq.from_string("10"))
    integral = trace(rec.d, rec.numerators)
    with pytest.raises(PreconditionError):
        segment_inequality(integral)


def test_gap_one_edge_is_formula_only():
    # At ones = 1, gap = 1 the two per-segment forms part ways: 3 > 2 holds
    # but 3 > 3 does not.  No ledger ever lands here: a segment of gap 1
    # means two consecutive new remainders, a new remainder sits below d/2,
    # and the subtracting branch that creates the next one needs r > 2d/3.
    assert compare_pow3_pow2(1, 1) == 1
    assert not (3**1 > 3 * 2**0)


def test_real_orbit_flags_never_diverge():
    # Over every valid modulus below 500, each closed orbit's segments agree
    # on both per-segment forms, so the edge above stays purely formal.
    seen_orbit = False
    for d in range(5, 500, 2):
        if d % 3 == 0:
            continue
        for orbit in rmap_orbit_scan(d):
            seen_orbit = True
            led = segment_inequality(synthetic_trace(d, orbit.states))
            for entry in led.segments:
                assert entry.bound_holds == entry.strict_holds, (d, entry)
            assert led.sum_side_holds and not led.positive_d_side_holds
    assert seen_orbit


def test_rmap_scan_small_moduli():
    for d in (5, 7, 11, 13, 17, 23, 25):
        assert rmap_orbit_scan(d) == []
    orbits = rmap_orbit_scan(19)
    assert len(orbits) == 1
    orb = orbits[0]
    assert orb.states == (8, 12, 18)
    assert (orb.length, orb.odd_steps, orb.exceeds_pow_bound) == (3, 3, True)
    # A length cap below the orbit hides it; at the exact length it appears.
    assert rmap_orbit_scan(19, max_len=2) == []
    assert rmap_orbit_scan(19, max_len=3) == orbits


def test_a_closed_orbit_within_the_power_bound_raises(monkeypatch, capsys):
    """With every power comparison forged to a tie, the one closed orbit modulo 19 fails its
    3^n > 2^l check, and rmap-scan exits 5 before it writes a line."""
    monkeypatch.setattr(remainders, "compare_pow3_pow2", lambda n, l: 0)
    with pytest.raises(StructureError, match=r"^closed orbit \(8, 12, 18\) with 3\^3 <= 2\^3$"):
        rmap_orbit_scan(19)
    assert cli.main(["rmap-scan", "--d", "19"]) == 5
    assert capsys.readouterr() == ("", "real3x1: internal error: closed orbit (8, 12, 18) with 3^3 <= 2^3\n")


def test_rmap_scan_rejects_bad_moduli():
    for bad in (1, 3, 4, 9, 15, -5, True, 19.0):
        with pytest.raises(ValueError):
            rmap_orbit_scan(bad)


def test_sweep_traces_match_realization():
    """The realization misalignment index IS the ledger's aligned prefix.

    Floor parity equals numerator parity exactly when quotient and numerator
    agree mod 2, which is the unflipped alignment test; the flipped check is
    the same statement with the parities opposed.  Exhaustive up to l = 12,
    and no fractional candidate with positive d ever closes aligned.
    """
    for rec in sweep(12):
        if rec.d < 0:
            continue
        tr = trace(rec.d, rec.numerators)
        trf = trace(rec.d, rec.numerators, flipped=True)
        if rec.cls is not CycleClass.FRACTIONAL_POSITIVE:
            assert tr.verdict.kind is VerdictKind.INTEGER_CYCLE
            continue
        assert tr.verdict.kind is not VerdictKind.ALIGNED_CLOSED
        assert trf.verdict.kind is not VerdictKind.ALIGNED_CLOSED
        if rec.x0 >= 1:
            assert not rec.realized_U
            assert rec.misalign_U == tr.aligned_prefix
        assert rec.x0 >= 0 and not rec.realized_Uflip
        assert rec.misalign_Uflip == trf.aligned_prefix


# SHA-256 over the JSON of every ledger below: each d > 0 pattern up to l = 12
# in both alignments, then the synthetic ledger and inequality ledger of every
# remainder orbit with d < 400: 12,872 JSON objects in all.
LEDGER_DIGEST = "61ce8024e4d945986dec970b19340b361bfa0d250b01884faaf5bce6eaf8ae19"


def test_ledger_digest():
    h = hashlib.sha256()
    count = 0

    def add(obj):
        nonlocal count
        h.update(json.dumps(jsonable(obj), sort_keys=True).encode() + b"\n")
        count += 1

    for rec in sweep(12):
        if rec.d > 0:
            add(trace(rec.d, rec.numerators))
            add(trace(rec.d, rec.numerators, flipped=True))
    for d in filter(modulus_ok, range(5, 400)):
        for orbit in rmap_orbit_scan(d):
            tr = synthetic_trace(d, orbit.states)
            add(tr)
            add(segment_inequality(tr))
    assert (count, h.hexdigest()) == (12_872, LEDGER_DIGEST)


@pytest.mark.parametrize("flipped", [False, True])
def test_trace_rejects_a_broken_recurrence(flipped):
    # 11100 closes on (19, 31, 49, 76, 38, 19) over d = 5.  Raising 38 to 39
    # makes index 4 (q = 7) U-aligned, so U checks the step out of it; Uflip
    # checks the step into it, which leaves the flip-aligned index 3.
    trace(5, (19, 31, 49, 76, 38, 19), flipped)
    with pytest.raises(StructureError, match="recurrence break"):
        trace(5, (19, 31, 49, 76, 39, 19), flipped)


@pytest.mark.parametrize("flipped,c0", [(False, 5), (True, 3)])
def test_trace_rejects_an_odd_aligned_remainder(flipped, c0):
    # Over an odd d every aligned remainder is even; over d = 4 it need not
    # be.  5 = 1*4 + 1 is U-aligned with r = 1; 3 = 0*4 + 3 is flip-aligned
    # with d - r = 1.
    with pytest.raises(StructureError, match="must be even"):
        trace(4, (c0, c0), flipped)


@pytest.mark.parametrize("flipped,c0", [(False, 15), (True, 3)])
def test_trace_rejects_three_r_equal_to_two_d(flipped, c0):
    # 3 divides d = 9, so the tie 3r = 2d is reachable: 15 = 1*9 + 6 is
    # U-aligned with r = 6 and q odd; 3 = 0*9 + 3 is flip-aligned with
    # d - r = 6 and q + 1 odd.
    with pytest.raises(StructureError, match="3r = 2d"):
        trace(9, (c0, c0), flipped)


def test_segments_need_a_new_remainder():
    with pytest.raises(StructureError, match="^closed aligned ledger without any new remainder$"):
        _segments((False,) * 3, (8, 12, 18, 8))


def test_segment_inequality_rejects_forged_segments():
    tr = synthetic_trace(19, (8, 12, 18))  # one segment (0, 3], 3 ones
    for segments in (None, ()):
        with pytest.raises(StructureError, match="without segments"):
            segment_inequality(tr._replace(segments=segments))
    for segments in ((Segment(0, 2, 2, 2),), (Segment(0, 3, 2, 3),)):
        with pytest.raises(StructureError, match="do not tile"):
            segment_inequality(tr._replace(segments=segments))
