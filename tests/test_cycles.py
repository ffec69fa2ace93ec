"""Pseudo-cycle candidates: closure, classification, and realization checks."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from real3x1.cycles import (
    BitSeq,
    CycleClass,
    _group_totals,
    _walk,
    candidate,
    evaluate,
    necklace_totals,
    necklaces,
    rotation_checks,
    sweep,
)
from real3x1 import cli, cycles
from real3x1.errors import StructureError
from real3x1.maps import MAPS, apply_affine, compose_affine, step

F2 = Fraction


def rotated(s, k):
    """s turned left by k places."""
    k %= s.l
    return BitSeq(s.bits[k:] + s.bits[:k])


def floors(rec):
    """floor(x_i) for i = 0..l, from the Fraction cycle."""
    return tuple(math.floor(x) for x in rec.g_cycle)


def test_bitseq_basics():
    s = BitSeq.from_string("11100")
    assert (s.l, s.n, str(s)) == (5, 3, "11100")
    assert s.rank == 28
    assert BitSeq.from_rank(5, 28) == s
    for bad in ("", "10a", "2"):
        with pytest.raises(ValueError):
            BitSeq.from_string(bad)
    with pytest.raises(ValueError):
        BitSeq.from_rank(3, 8)
    with pytest.raises(ValueError):
        BitSeq.from_rank(0, 0)
    for bad in ((), (0, 2)):
        with pytest.raises(ValueError, match="nonempty 0/1 sequence"):
            BitSeq(bad)


@given(st.integers(min_value=1, max_value=16))
def test_bitseq_rank_roundtrip(l):
    for rank in (0, 1, (1 << l) - 1, (1 << l) // 2):
        assert BitSeq.from_rank(l, rank).rank == rank


def test_known_candidates():
    rec = candidate(BitSeq.from_string("10"))
    assert (rec.d, rec.phi, rec.x0) == (1, 1, F2(1))
    assert rec.cls is CycleClass.INTEGER_POSITIVE

    rec = candidate(BitSeq.from_string("1"))
    assert (rec.d, rec.phi, rec.x0) == (-1, 1, F2(-1))
    assert rec.cls is CycleClass.INTEGER_NEGATIVE

    rec = candidate(BitSeq.from_string("110"))
    assert (rec.d, rec.phi, rec.x0) == (-1, 5, F2(-5))
    assert rec.g_cycle[:3] == (F2(-5), F2(-7), F2(-10))

    rec = candidate(BitSeq.from_string("100"))
    assert (rec.d, rec.phi, rec.x0) == (5, 1, F2(1, 5))
    assert rec.g_cycle == (F2(1, 5), F2(4, 5), F2(2, 5), F2(1, 5))
    assert rec.cls is CycleClass.FRACTIONAL_POSITIVE

    rec = candidate(BitSeq.from_string("11100"))
    assert (rec.d, rec.phi, rec.x0) == (5, 19, F2(19, 5))
    assert floors(rec) == (3, 6, 9, 15, 7, 3)

    rec = candidate(BitSeq.from_string("0"))
    assert rec.x0 == 0 and rec.cls is CycleClass.ZERO


def test_realization_frozen():
    assert evaluate(BitSeq.from_string("10")).realized_U is True
    assert evaluate(BitSeq.from_string("01")).realized_U is True
    rec = evaluate(BitSeq.from_string("100"))
    assert rec.realized_U is False and rec.misalign_U is None  # x0 = 1/5 < 1
    assert rec.realized_Uflip is False and rec.misalign_Uflip == 1
    rec = evaluate(BitSeq.from_string("11100"))
    assert rec.realized_U is False and rec.misalign_U == 1
    # the trivial cycle is not a flipped cycle: the parities are exactly wrong
    rec = evaluate(BitSeq.from_string("10"))
    assert rec.realized_Uflip is False and rec.misalign_Uflip == 0


bit_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12)


@given(bit_lists)
def test_candidate_closure_and_shape(bits):
    """x0 is an exact fixed point of the composed chain, and d, phi match it."""
    s = BitSeq(tuple(bits))
    rec = candidate(s)
    assert rec.d == 2**s.l - 3**s.n
    assert rec.x0 * rec.d == rec.phi
    assert apply_affine(compose_affine(bits), rec.x0) == rec.x0
    assert len(rec.numerators) == s.l + 1
    assert rec.numerators[0] == rec.numerators[-1]


@given(bit_lists)
def test_rotation_moves_the_closure_point(bits):
    s = BitSeq(tuple(bits))
    rec = candidate(s)
    rot = candidate(rotated(s, 1))
    # the rotated pattern closes at the next point of the same g-walk
    assert rot.x0 == rec.g_cycle[1]


def test_sweep_small_frozen():
    recs = list(sweep(3))
    assert len(recs) == 14
    by_class = {}
    for rec in recs:
        by_class[rec.cls.value] = by_class.get(rec.cls.value, 0) + 1
    assert by_class == {
        "zero": 3,
        "integer_positive": 2,
        "integer_negative": 6,
        "fractional_positive": 3,
    }
    realized = [str(rec.s) for rec in recs if rec.realized_U]
    assert realized == ["01", "10"], f"only the trivial rotations realize below l=4: {realized}"
    assert not any(rec.realized_Uflip for rec in recs)


def test_record_chunks_partition_cleanly():
    """Rank ranges of 5 give the records of sweep(6), in its order."""
    whole = [str(r.s) for r in sweep(6)]
    parts = []
    for l in range(1, 7):
        for lo in range(0, 1 << l, 5):
            _, lines, counts, _, _ = cycles._sweep_chunk((l, lo, min(lo + 5, 1 << l), True, True))
            parts.extend(json.loads(line)["bits"] for line in lines)
            assert sum(counts.values()) == len(lines)
    assert parts == whole
    with pytest.raises(ValueError):
        list(sweep(0))


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=255))
def test_sign_coherence_l8(rank_seed):
    """Nonzero candidates keep one strict sign along the whole g-cycle."""
    s = BitSeq.from_rank(8, rank_seed)
    rec = candidate(s)
    if rec.x0 == 0:
        assert all(a == 0 for a in rec.numerators)
    elif rec.x0 > 0:
        assert all(a > 0 for a in rec.numerators), f"sign flip in {s}"
    else:
        assert all(a < 0 for a in rec.numerators), f"sign flip in {s}"


def test_fractional_denominators_are_at_least_five():
    # d is odd and never divisible by 3, so a non-integer cycle forces |d| >= 5
    for rec in sweep(10):
        if rec.cls in (CycleClass.FRACTIONAL_POSITIVE, CycleClass.FRACTIONAL_NEGATIVE):
            assert abs(rec.d) >= 5
            assert rec.x0.denominator > 1


def test_realization_checks_match_direct_walk():
    """The recorded misalignment index is the first floor-parity mismatch, and each half
    of the one scan's answer is its map's own walk."""
    for rec in sweep(9):
        fl = floors(rec)
        checks = rec.realized_U, rec.misalign_U, rec.realized_Uflip, rec.misalign_Uflip
        assert checks[:2] == _map_walk(MAPS["U"], rec.g_cycle, rec.s.bits, 0)
        assert checks[2:] == _map_walk(MAPS["Uflip"], rec.g_cycle, rec.s.bits, 0)
        ok_U, idx_U, ok_f, idx_f = checks
        if rec.x0 >= 1:
            mismatches = [i for i, b in enumerate(rec.s.bits) if fl[i] % 2 != b]
            assert ok_U == (not mismatches)
            assert idx_U == (mismatches[0] if mismatches else None)
        else:
            assert (ok_U, idx_U) == (False, None)
        if rec.x0 >= 0:
            mismatches = [i for i, b in enumerate(rec.s.bits) if fl[i] % 2 != 1 - b]
            assert ok_f == (not mismatches)
            assert idx_f == (mismatches[0] if mismatches else None)
        else:
            assert (ok_f, idx_f) == (False, None)


@settings(deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=24))
def test_rotations_share_class_and_realization(bits):
    """What the summary counts once per rotation class holds for every rotation."""
    s = BitSeq(tuple(bits))
    least = min((rotated(s, k) for k in range(s.l)), key=lambda r: r.rank)

    def shared(rec):
        return rec.cls, rec.realized_U, rec.realized_Uflip, rec.x0.denominator == 1

    want = shared(evaluate(least))
    for k in range(s.l):
        assert shared(evaluate(rotated(s, k))) == want, f"rotation {k} of {s}"


@pytest.mark.parametrize("l", range(1, 13))
def test_necklaces_are_the_least_rotations(l):
    least = {}
    for rank in range(1 << l):
        bits = format(rank, f"0{l}b")
        rotations = {int(bits[k:] + bits[:k], 2) for k in range(l)}
        least[min(rotations)] = len(rotations)
    assert sum(least.values()) == 1 << l

    def block(lo, hi):
        """The block's (rank, period) pairs, checked to come in rank order."""
        got = list(necklaces(l, lo, hi))
        assert [rank for rank, _ in got] == sorted(r for r in least if lo <= r < hi)
        return dict(got)

    assert block(0, 1 << l) == least
    # aligned blocks split the classes by where the least rotation falls
    for size in (2, 8, 32):
        if size <= 1 << l:
            parts = {}
            for lo in range(0, 1 << l, size):
                parts.update(block(lo, lo + size))
            assert parts == least


@pytest.mark.parametrize("lo,hi", [(0, 0), (1, 3), (0, 3), (4, 12), (0, 32), (16, 32), (-16, 0), (8, 4)])
def test_necklace_blocks_must_be_aligned_powers_of_two(lo, hi):
    with pytest.raises(StructureError, match="not an aligned power-of-two block"):
        list(necklaces(4, lo, hi))


@settings(deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=40).map(tuple))
def test_integer_kernel_matches_the_fraction_reference(bits):
    """candidate, evaluate and rotation_checks against exact rationals, computed without them."""
    l = len(bits)
    rec = candidate(BitSeq(bits))
    d, nums = rec.d, rec.numerators

    # the closure point of the composed chain, and the g-cycle through it
    n3, n2, offset = compose_affine(bits)
    x0 = F2(offset, n2 - n3)
    assert apply_affine((n3, n2, offset), x0) == x0
    assert (d, F2(rec.phi, d)) == (n2 - n3, x0)
    cycle = [x0] + [apply_affine(compose_affine(bits[:j]), x0) for j in range(1, l + 1)]
    assert nums == tuple(abs(d) * x for x in cycle)

    # each map's own walk from x_0, and from every x_k, in its domain, against the branch bits
    ev = evaluate(BitSeq(bits))
    checks = ev.realized_U, ev.misalign_U, ev.realized_Uflip, ev.misalign_Uflip
    assert checks[:2] == _map_walk(MAPS["U"], cycle, bits, 0)
    assert checks[2:] == _map_walk(MAPS["Uflip"], cycle, bits, 0)
    for k, check in enumerate(rotation_checks(d, nums)):
        assert check[:2] == _map_walk(MAPS["U"], cycle, bits, k)
        assert check[2:4] == _map_walk(MAPS["Uflip"], cycle, bits, k)


def _map_walk(m, cycle, bits, k):
    """The Fraction reference of the realization checks: m's own steps from x_k, in its domain, against bits."""
    l = len(bits)
    if cycle[k] < m.domain_min:
        return False, None
    x = cycle[k]
    for i in range(l):
        x, b = step(m, x)
        if b != bits[(k + i) % l]:
            return False, i
    assert x == cycle[k]
    return True, None


def _first_misaligned(rec):
    """The first step whose floor parity differs from rec's branch bit, whatever the domain; None if none."""
    fl = floors(rec)
    return next((i for i, b in enumerate(rec.s.bits) if fl[i] % 2 != b), None)


def _evaluated_checks(rot):
    """What rotation_checks gives for a rotation, read off that rotation's own evaluation."""
    return rot.realized_U, rot.misalign_U, rot.realized_Uflip, rot.misalign_Uflip, _first_misaligned(rot)


@pytest.mark.parametrize("l", range(1, 13))
def test_rotation_checks_match_every_rotations_own_evaluation(l):
    """rotation_checks(rec.d, rec.numerators)[k] is the evaluation of rec.s turned left by k,
    with the same bools, ints and Nones, for every pattern of l bits."""
    mask = (1 << l) - 1
    recs = [evaluate(BitSeq.from_rank(l, rank)) for rank in range(1 << l)]
    want = [_evaluated_checks(rec) for rec in recs]
    gates = set()  # (d > 0, U's gate at x_0, U's gate at x_k)
    for r, rec in enumerate(recs):
        for k, check in enumerate(rotation_checks(rec.d, rec.numerators)):
            rot = (r << k | r >> (l - k)) & mask
            assert [(x, type(x)) for x in check] == [(x, type(x)) for x in want[rot]], f"rotation {k} of {rec.s}"
            gates.add((rec.d > 0, rec.x0 >= 1, recs[rot].x0 >= 1))
    if l >= 5:  # d of each sign, and gates passed, failed and split within a class
        assert {(True, True, True), (True, False, False), (True, True, False), (False, False, False)} <= gates


@settings(deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=40).map(tuple))
@example((1,) * 30 + (0,) * 3)  # d < 0
@example((1, 1, 1, 0, 0) * 8)  # d > 0, every x_k >= 1
@example((1,) + (0,) * 39)  # d > 0, every x_k < 1
def test_rotation_checks_match_rotated_evaluation(bits):
    """The same, for patterns up to l = 40: each rotation evaluated on its own."""
    s = BitSeq(bits)
    rec = candidate(s)
    for k, check in enumerate(rotation_checks(rec.d, rec.numerators)):
        assert check == _evaluated_checks(evaluate(rotated(s, k))), f"rotation {k} of {s}"


@st.composite
def lane_groups(draw):
    """A length l, a count n of ones, and a few ranks of l bits with n ones each."""
    l = draw(st.integers(min_value=1, max_value=32))
    n = draw(st.integers(min_value=0, max_value=l))
    words = st.permutations([1] * n + [0] * (l - n)).map(lambda bits: int("".join(map(str, bits)), 2))
    return l, n, draw(st.lists(words, min_size=1, max_size=6))


@settings(deadline=None)
@given(lane_groups())
@example((24, 20, [0xF7BDEF, 0xF7DEF7, 0x0FFFFF]))  # d < 0
@example((32, 31, [0xFFFFFFFE, 0xBFFFFFFF, 0x7FFFFFFF]))  # d < 0, lanes of 128 bits
@example((32, 20, [0x000FFFFF, 0xAAAAFFF0, 0xFFFFF000]))  # d > 0, lanes of 128 bits
def test_lane_walk_matches_the_fraction_reference(group):
    """Every lane of one same-(l, n) walk holds its own g-cycle times d, and its group's realized
    row says whether U and Uflip walk it."""
    l, n, ranks = group
    d, lanes = _walk(l, n, ranks)
    assert d == 2**l - 3**n and len(lanes) == len(ranks)
    _, _, _, rows = _group_totals(l, [(rank, 1) for rank in ranks])
    realized = {rank: flags for rank, _, *flags in rows}  # a rank drawn twice gives two equal rows
    for rank, walk in zip(ranks, lanes):
        bits = tuple(rank >> (l - 1 - j) & 1 for j in range(l))
        n3, n2, offset = compose_affine(bits)
        x0 = F2(offset, n2 - n3)
        cycle = [x0] + [apply_affine(compose_affine(bits[:j]), x0) for j in range(1, l + 1)]
        assert list(walk) == [x * d for x in cycle]
        (on_U, _), (on_Uflip, _) = _map_walk(MAPS["U"], cycle, bits, 0), _map_walk(MAPS["Uflip"], cycle, bits, 0)
        assert realized.get(rank) == ([x0.denominator == 1, on_U, on_Uflip] if on_U or on_Uflip else None)


def reference_totals(l, lo, hi):
    """necklace_totals(l, lo, hi) added up by n, from each necklace's own evaluation.

    {n: [necklaces, records by class value, realized rows in rank order]}.
    """
    totals = {}
    for rank, period in necklaces(l, lo, hi):
        rec = evaluate(BitSeq.from_rank(l, rank))
        total = totals.setdefault(rec.s.n, [0, {}, []])
        total[0] += 1
        total[1][rec.cls.value] = total[1].get(rec.cls.value, 0) + period
        if rec.realized_U or rec.realized_Uflip:
            total[2].append((rank, period, rec.x0.denominator == 1, rec.realized_U, rec.realized_Uflip))
    return totals


def kernel_totals(l, lo, hi):
    """necklace_totals(l, lo, hi) added up by n, each lane group checked to be one (l, n)."""
    totals = {}
    for n, closed, counts, rows in necklace_totals(l, lo, hi):
        assert 1 <= closed <= cycles._LANES
        assert all(k > 0 for k in counts.values())
        assert all(rank.bit_count() == n for rank, *_ in rows)
        if 2**l < 3**n:  # outside both maps' domains
            assert rows == [] and set(counts) <= {"integer_negative", "fractional_negative"}
        total = totals.setdefault(n, [0, {}, []])
        total[0] += closed
        for cls, k in counts.items():
            total[1][cls] = total[1].get(cls, 0) + k
        total[2] += rows
    return totals


@pytest.mark.parametrize("l", range(1, 17))
def test_group_totals_match_the_per_lane_reference(l):
    """Every aligned block of 32 and of 4,096 ranks (or all 2^l) up to l = 16."""
    for size in (32, 4096):
        size = min(size, 1 << l)
        for lo in range(0, 1 << l, size):
            assert kernel_totals(l, lo, lo + size) == reference_totals(l, lo, lo + size), (l, lo)


@st.composite
def necklace_blocks(draw):
    """An aligned block of up to 64 ranks of l <= 32 bits that holds the least rotation of a drawn word.

    The word's count n of ones is drawn first, so both signs of d = 2^l - 3^n are common.
    """
    l = draw(st.integers(min_value=1, max_value=32))
    n = draw(st.integers(min_value=0, max_value=l))
    word = "".join(map(str, draw(st.permutations([1] * n + [0] * (l - n)))))
    rank = min(int(word[k:] + word[:k], 2) for k in range(l))
    size = 1 << draw(st.integers(min_value=0, max_value=min(l, 6)))
    return l, rank - rank % size, rank - rank % size + size


@settings(deadline=None)
@given(necklace_blocks())
@example((32, 0x7FFFFFC0, 0x80000000))  # d < 0, lanes of 128 bits
@example((32, 0x000FFFC0, 0x00100000))  # d > 0, n up to 20: lanes of 128 bits
@example((30, 0x000FFFC0, 0x00100000))  # both signs of d, lanes of 128 bits at n >= 20
def test_group_totals_match_the_per_lane_reference_on_deep_blocks(block):
    l, lo, hi = block
    assert kernel_totals(l, lo, hi) == reference_totals(l, lo, hi)


def test_a_lane_that_only_uflip_walks_is_a_uflip_row(monkeypatch):
    """A realized row reads realized_U off step 0's parity, not off the sweep's finding.

    No honest lane is realized by Uflip, so the walk is forged: every lane of
    the d = 5 group (l = 5, n = 3) holds c_j = 1, whose remainder 1 is odd at
    every step.  U rejects step 0, and Uflip takes every step from x_0 = 1/5.
    """
    walk = cycles._walk

    def forged(l, n, ranks):
        return (5, [(1,) * 6] * len(ranks)) if (l, n) == (5, 3) else walk(l, n, ranks)

    monkeypatch.setattr(cycles, "_walk", forged)
    rows = [row for n, _, _, group_rows in necklace_totals(5, 0, 32) if n == 3 for row in group_rows]
    assert rows == [(0b00111, 5, False, False, True), (0b01011, 5, False, False, True)]


def test_close_rejects_a_wrong_offset(monkeypatch):
    """The closure checks raise, with the pattern named.

    Moving x0 * |d| by 2^j keeps the first j parities and breaks step j;
    moving it by 2^l keeps every parity, and the walk misses its start.
    """
    with pytest.raises(StructureError, match=r"^d = 2\^0 - 3\^0 must be odd nonzero, got 0$"):
        _walk(0, 0, [0])
    offsets = cycles._offsets
    monkeypatch.setattr(cycles, "_offsets", lambda bits, lane: offsets(bits, lane) + 4)
    with pytest.raises(StructureError, match="^parity misalignment at step 2 of 11010$"):
        candidate(BitSeq((1, 1, 0, 1, 0)))
    monkeypatch.setattr(cycles, "_offsets", lambda bits, lane: offsets(bits, lane) + 32)
    with pytest.raises(StructureError, match="^forced walk of 11010 failed to close$"):
        candidate(BitSeq((1, 1, 0, 1, 0)))


def test_lane_checks_name_the_failing_lane(monkeypatch):
    """In a group, a broken lane is named by its own pattern, whichever lane it is."""
    offsets = cycles._offsets
    # lanes are 64 bits: move only the third lane's offset
    monkeypatch.setattr(cycles, "_offsets", lambda bits, lane: offsets(bits, lane) + (4 << 128))
    with pytest.raises(StructureError, match="^parity misalignment at step 2 of 11010$"):
        _walk(5, 3, [0b00111, 0b01011, 0b11010])


def test_a_lane_that_outgrows_its_width_raises(monkeypatch):
    """With lanes narrowed below the walk's values, the guard bits catch the overflow.

    11100 walks 19, 31, 49, 76, 38 (times 1/5): with 6 value bits it
    overflows at step 3, with 5 at step 2 and with 4 at once.  01011 walks
    58 at most, so in a group with 11100 at 6 bits only 11100 is named.

    At (l, n) = (32, 19) the values need exactly 64 bits, so each lane is
    128 bits wide: bit 64 of the first lane is its guard, not the lowest
    bit of the second lane.  At (30, 20) they need 63, and the lane is
    still 128 bits wide, so that two guard bits are left above them.
    """
    assert candidate(BitSeq((1, 1, 1, 0, 0))).numerators == (19, 31, 49, 76, 38, 19)
    assert max(candidate(BitSeq((0, 1, 0, 1, 1))).numerators) == 58
    for bits, step_j in ((6, 3), (5, 2), (4, 0)):
        monkeypatch.setattr(cycles, "_lane_bits", lambda l, n: bits)
        with pytest.raises(StructureError, match=f"^forced walk of 11100 overflowed its lane at step {step_j}$"):
            candidate(BitSeq((1, 1, 1, 0, 0)))
    monkeypatch.setattr(cycles, "_lane_bits", lambda l, n: 6)
    with pytest.raises(StructureError, match="^forced walk of 11100 overflowed its lane at step 3$"):
        _walk(5, 3, [0b01011, 0b11100])
    monkeypatch.undo()
    assert cycles._lane_bits(32, 19) == 64
    offsets = cycles._offsets
    monkeypatch.setattr(cycles, "_offsets", lambda bits, lane: offsets(bits, lane) + (1 << 64))
    first = 0x0007FFFF
    with pytest.raises(StructureError, match=f"^forced walk of {first:032b} overflowed its lane at step 0$"):
        _walk(32, 19, [first, 0xFFFFE000])
    assert cycles._lane_bits(30, 20) == 63
    first = 0b000000000011111111111111111111
    with pytest.raises(StructureError, match=f"^forced walk of {first:030b} overflowed its lane at step 0$"):
        _walk(30, 20, [first, 0b111111111111111111110000000000])


def test_overflow_in_a_sweep_is_an_internal_error(monkeypatch, capsys):
    monkeypatch.setattr(cycles, "_lane_bits", lambda l, n: 5)
    assert cli.main(["cycles", "--lmax", "6", "--summary-only"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("real3x1: internal error: forced walk of ")
    assert "overflowed its lane at step" in captured.err


@pytest.mark.parametrize("l", range(1, 17))
def test_integer_classes_are_the_known_integer_cycles(l, capsys):
    """The integer cycles of T are 0, {1, 2}, {-1}, {-5, -7, -10} and the 11-cycle through -17
    (Lagarias, "The 3x+1 problem and its generalizations", Amer. Math. Monthly 92, 1985).  A
    cycle of period p appears at length l iff p divides l, once per rotation."""
    assert cli.main(["cycles", "--lmin", str(l), "--lmax", str(l), "--summary-only"]) == 0
    counts = json.loads(capsys.readouterr().out)["class_counts"]
    assert counts.get("zero", 0) == 1
    assert counts.get("integer_positive", 0) == 2 * (l % 2 == 0)
    assert counts.get("integer_negative", 0) == 1 + 3 * (l % 3 == 0) + 11 * (l % 11 == 0)


@pytest.mark.parametrize("lmax", range(1, 13))
def test_summary_equals_the_per_rank_sweep(lmax, capsys):
    records = list(sweep(lmax))
    class_counts = {}
    for rec in records:
        class_counts[rec.cls.value] = class_counts.get(rec.cls.value, 0) + 1
    realized_U = [str(r.s) for r in records if r.realized_U]
    realized_Uflip = [str(r.s) for r in records if r.realized_Uflip]
    non_integer = [str(r.s) for r in records if r.realized_U and r.x0.denominator != 1]
    want = {
        "type": "summary",
        "command": "cycles",
        "lmin": 1,
        "lmax": lmax,
        "records": len(records),
        "class_counts": class_counts,
        "realized_U": realized_U,
        "realized_U_non_integer": non_integer,
        "realized_Uflip": realized_Uflip,
        "counterexample": bool(non_integer or realized_Uflip),
    }
    assert cli.main(["cycles", "--lmax", str(lmax), "--summary-only"]) == 0
    assert capsys.readouterr().out == json.dumps(want, sort_keys=True) + "\n"
