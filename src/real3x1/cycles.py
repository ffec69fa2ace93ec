"""Exhaustive enumeration of forced-branch cycle candidates.

A length-l bit sequence s forces a branch chain of the rational map g
(bit 0: halve, bit 1: r -> (3r+1)/2).  The chain composes to
x -> (3^n x + offset) / 2^l, which has the single fixed point

    x0(s) = offset / d,      d = 2^l - 3^n,

and that fixed point is the only value whose forced walk closes.  A closed
forced walk is automatically parity aligned with g's own dispatch: one
misaligned step sends the 2-adic valuation negative, both branches then push
it down forever, and the walk could never return to its start.

_walk() is the one closure walk.  It rebuilds the cycle in integer arithmetic,
as c_j = x_j * d >= 0, and checks this alignment at every step.  It walks any
number of sequences that share l and n, and so share d, side by side: each
gets a lane of 64 bits (or a multiple of 64) in one integer, and each step is
a handful of big-integer operations over all lanes (SIMD within a register:
Fisher and Dietz, "Compiling for SIMD within a register", LCPC 1998).  With
b_j the bit vector of step j (bit j of each lane's sequence, at the lane's
lowest bit) and M_j = b_j times a full lane, a step is

    offset:  O <- O + ((O & M_j) << 1) + (b_j << j)     (O_l = x0 * d)
    walk:    c <- (c + ((c & M_j) << 1) + b_j * d) >> 1  (c/2 or (3c + d)/2)

Every c_j is a rotation's offset, below 2^l 3^(n-1), so 3c + d fits in
l + bitlen(3^n) + 1 bits.  The bits above that, two or more per lane, are a
guard: they stay zero while every lane is in range.  A lane that outgrows
its value bits sets them before it can carry into the next lane, and one
that goes negative sets them as it borrows from it.  One AND and one
comparison per step check the guard and the alignment of every lane, and
closure is c_l == c_0, for all lanes at once.  candidate() walks one
sequence in one lane and wraps its walk in a CycleRecord.

Whether the same closed walk is realized by the floor-parity maps is a
separate, stricter question: U requires floor(x_i) parity to equal the branch
bit at every step (and x0 >= 1), Uflip requires the opposite parity at every
step (and x0 >= 0).  The sweep records the first index where each of these
fails.  One rule decides both maps: U rejects step j iff floor(x_j) and
x_j * |d| differ in parity, and Uflip rejects exactly the other steps.  So
_realization() answers U and Uflip from one scan from x_0, on the integers,
for every lane of a group in one loop (a record is a group of one lane), and
rotation_checks() applies the same rule, to the same d and numerators, from
every x_k.  With d < 0 (so n >= 1), every x_0 is negative, outside both
domains, and no scan is needed.

Both answers, and the cycle class, are shared by every rotation of s.  The
rotation by k closes at x_k, the k-th point of the same g-cycle, so it walks
the same set of values with the same sign.  A cycle that U or Uflip realizes
stays in that map's domain, so every one of its points is a valid start and
realizes it too; if one rotation fails, all do.  A summary therefore needs one
representative per rotation class (necklace), weighted by the number of
distinct rotations.  necklaces() yields the least rotation of each with the
Fredricksen-Kessler-Maiorana (FKM) algorithm, in lexicographic order; a
necklace's period is the length of its Lyndon prefix (Ruskey, Savage and
Wang, "Generating necklaces", J. Algorithms 13, 1992; Cattell, Ruskey,
Sawada, Serra and Miers, "Fast algorithms to generate necklaces, unlabeled
necklaces, and irreducible polynomials over GF(2)", J. Algorithms 37, 2000).
necklace_totals() groups a block's necklaces by n and closes each lane group
in one _walk.  It returns the group's totals, not one answer per necklace:
its record counts by class, weighted by period, and the realized rows alone.
A group with d < 0 takes its class from c_0 % d and runs no _realization()
scan; a group with d > 0 runs one, over all its lanes.  No record is built.

A record reads phi = +-nums[0] and x0 = nums[0] / |d| from its numerators
nums.  Per-rank records come from one representative per necklace too: record
mode closes the first rank of each class that a rank block meets with
candidate(), whether or not it is the least rotation, and runs no
_realization() scan.  Its rotation k closes at x_k = nums[k] / |d|, so its
phi is +-nums[k], and its realization checks are the representative's cycle
scanned from index k.  The parity that U rejects at a step is the rotation's
as well as the representative's, so rotation_checks() scans the numerators
once and reads every rotation's checks, rotation 0's included, off that one
scan.  The remainder ledger (remainders.trace) checks its recurrence on the
cyclic pairs (c_{i-1}, c_i) that leave an aligned index, and every rotation
has the same set of pairs, only renumbered.  One trace per necklace and block
therefore makes every check that a trace per rank would make; rotation k's
verdict is the representative's, with a misalignment counted from index k
(the last field of rotation_checks(), U's first rejected step whatever the
domain).
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Sequence
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import StructureError


class BitSeq(NamedTuple("BitSeq", [("bits", tuple[int, ...])])):
    """A nonempty 0/1 branch sequence; rank is its value as a binary numeral."""

    __slots__ = ()

    def __new__(cls, bits):
        bits = tuple(bits)
        if not bits or not {0, 1}.issuperset(bits):
            raise ValueError(f"bits must be a nonempty 0/1 sequence: {bits!r}")
        return super().__new__(cls, bits)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make, so a changed copy is checked too
        return cls(*iterable)

    @property
    def l(self) -> int:
        return len(self.bits)

    @property
    def n(self) -> int:
        return sum(self.bits)

    @property
    def rank(self) -> int:
        r = 0
        for b in self.bits:
            r = (r << 1) | b
        return r

    @classmethod
    def from_rank(cls, l: int, rank: int) -> "BitSeq":
        if l < 1 or not 0 <= rank < (1 << l):
            raise ValueError(f"rank {rank} out of range for length {l}")
        return cls(tuple((rank >> (l - 1 - j)) & 1 for j in range(l)))

    @classmethod
    def from_string(cls, text: str) -> "BitSeq":
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"bit string must be nonempty over 0/1: {text!r}")
        return cls(tuple(int(ch) for ch in text))

    def __str__(self) -> str:
        return "".join(map(str, self.bits))


class CycleClass(str, Enum):
    INTEGER_POSITIVE = "integer_positive"
    INTEGER_NEGATIVE = "integer_negative"
    ZERO = "zero"
    FRACTIONAL_POSITIVE = "fractional_positive"
    FRACTIONAL_NEGATIVE = "fractional_negative"


class CycleRecord(NamedTuple):
    """One candidate cycle: closure point, exact cycle, realization verdicts."""

    s: BitSeq
    d: int
    numerators: tuple[int, ...]  # cycle values times |d|, length l+1, closed
    cls: CycleClass
    realized_U: bool | None = None
    misalign_U: int | None = None
    realized_Uflip: bool | None = None
    misalign_Uflip: int | None = None

    @property
    def phi(self) -> int:
        """The closure offset: x0 = phi / d, so phi = +-numerators[0]."""
        return self.numerators[0] if self.d > 0 else -self.numerators[0]

    @property
    def x0(self) -> Fraction:
        return Fraction(self.phi, self.d)

    @property
    def g_cycle(self) -> tuple[Fraction, ...]:
        D = abs(self.d)
        return tuple(Fraction(a, D) for a in self.numerators)


def _lane_bits(l: int, n: int) -> int:
    """Bits that hold every value of a forced walk with n ones in l steps.

    The walk's values are its rotations' offsets c < 2^l 3^(n-1), so its
    largest sum, 3c + d, stays below 2^(l + bitlen(3^n) + 1).
    """
    return l + (3**n).bit_length() + 1


def _offsets(bits: list[int], lane: int) -> int:
    """The closure offsets c of lanes with bit vectors bits: c += b_j (2c + 2^j) at each b_j."""
    c = 0
    for j, b in enumerate(bits):
        c += ((c & b * lane) << 1) + (b << j)
    return c


def _walk(l: int, n: int, ranks: list[int]) -> tuple[int, list[Sequence[int]]]:
    """(d, lanes): the forced walks of ranks of length l with n ones, walked side by side.

    ranks[i] gets lane i of one integer, w = 64 bits (or a multiple of 64)
    from bit i * w up, and every step is a handful of operations on all
    lanes at once (see the module docstring).  A lane holds c_j = x_j * d >= 0,
    so an odd step is (3c + d) / 2 for either sign of d.  lanes[i] is
    (c_0, ..., c_l) for ranks[i], closed (c_l = c_0, the closure offset phi).

    Checks that d is odd and nonzero, that 3 does not divide d when n >= 1,
    that every lane stays in [0, 2^_lane_bits(l, n)), that every step is
    parity aligned, and that every walk closes.  The guard bits above each
    lane's value bits, two or more, catch a lane that grows past them before
    it can carry into the next lane, and one that goes negative as it
    borrows from it.
    """
    d = (1 << l) - 3**n
    if d == 0 or d % 2 != 1:
        raise StructureError(f"d = 2^{l} - 3^{n} must be odd nonzero, got {d}")
    if n >= 1 and d % 3 == 0:
        raise StructureError(f"3 divides d = {d} with n = {n} >= 1")

    m = len(ranks)
    value_bits = _lane_bits(l, n)
    size = (value_bits + 65) // 64 * 8  # bytes per lane, at least two guard bits
    lane = (1 << 8 * size) - 1
    ones = ((1 << 8 * size * m) - 1) // lane
    guard = ones * (lane >> value_bits << value_bits) | -1 << 8 * size * m
    packed = int.from_bytes(b"".join([r.to_bytes(size, "little") for r in ranks]), "little")
    # bits[j]: bit j of every lane's rank, at the lane's lowest bit
    bits = [packed >> shift & ones for shift in range(l - 1, -1, -1)]

    def pattern(x):  # the rank of the lowest lane in which x has a set bit
        i = ((x & -x).bit_length() - 1) // (8 * size)
        return format(ranks[min(i, m - 1)], f"0{l}b")

    checked = guard | ones
    c = start = _offsets(bits, lane)
    steps = []
    for j, b in enumerate(bits):
        if c & checked != b:  # one AND checks every lane's guard bits and parity
            if c & guard:
                raise StructureError(f"forced walk of {pattern(c & guard)} overflowed its lane at step {j}")
            # Closed forced walks are parity aligned with g's own dispatch.
            raise StructureError(f"parity misalignment at step {j} of {pattern(c & ones ^ b)}")
        steps.append(c)
        c = (c + ((c & b * lane) << 1) + b * d) >> 1
    if c != start:  # an overflowed lane has guard bits set, which start has not
        raise StructureError(f"forced walk of {pattern(c ^ start)} failed to close")
    steps.append(c)

    if m == 1:  # a lone lane is its own value
        return d, [steps]
    # every c_j of every lane, step by step: lane i is every m-th value from i
    rows = b"".join([c.to_bytes(size * m, "little") for c in steps])
    if size == 8 and sys.byteorder == "little":  # read in C
        values = memoryview(rows).cast("Q")
    else:  # lanes wider than 64 bits
        values = [int.from_bytes(rows[i : i + size], "little") for i in range(0, len(rows), size)]
    return d, [values[i::m] for i in range(m)]


_CLASSES = {  # (d > 0, x_0 an integer): the class of a nonzero cycle
    (True, True): CycleClass.INTEGER_POSITIVE,
    (True, False): CycleClass.FRACTIONAL_POSITIVE,
    (False, True): CycleClass.INTEGER_NEGATIVE,
    (False, False): CycleClass.FRACTIONAL_NEGATIVE,
}


def candidate(s: BitSeq) -> CycleRecord:
    """Build the closed forced-branch cycle for s, walked in one lane of _walk; realization flags unset."""
    d, (walk,) = _walk(s.l, s.n, [s.rank])
    nums = tuple(walk if d > 0 else [-c for c in walk])  # the lane holds x_j * d, a record x_j * |d|
    return CycleRecord(s, d, nums, CycleClass.ZERO if walk[0] == 0 else _CLASSES[d > 0, walk[0] % d == 0])


def _realization(d: int, lanes: Iterable[Sequence[int]]) -> list[tuple[bool, int | None, bool, int | None]]:
    """(realized_U, misalign_U, realized_Uflip, misalign_Uflip) per lane: do U and Uflip walk it from x_0?

    Each lane, nums, holds x_j * |d| for j <= l, closed.  A map gives
    (False, None) when x_0 is outside its domain (x_0 >= 1 for U, x_0 >= 0
    for Uflip); otherwise (False, i) names the first step whose floor parity
    it rejects.  U needs floor(x_j) mod 2 to equal the branch bit b_j, Uflip
    needs it to differ, and the forced walk is parity aligned, so b_j is the
    parity of x_j * |d|: U rejects step j iff floor(x_j) and x_j * |d|
    differ in parity, and Uflip rejects exactly the other steps.  So one
    scan answers both: the map that rejects step 0 misaligns at 0, and the
    other at the first step whose bit differs from step 0's, a scan skipped
    when x_0 is outside that map's domain.  Along any prefix where the bits
    match, the walk consists of genuine steps of the map, so the domain
    stays forward-invariant and only the bit comparison is needed.
    """
    D = abs(d)
    outside = (False, None)
    checks = []
    for nums in lanes:
        a = nums[0]
        flip = (a // D ^ a) & 1  # 1: U rejects step 0, 0: Uflip does
        in_U, in_Uflip = a >= D, a >= 0  # x_0 in each map's domain
        step = None  # the first step that the map accepting step 0 rejects
        if in_Uflip if flip else in_U:
            for j in range(1, len(nums) - 1):
                a = nums[j]
                if (a // D ^ a) & 1 != flip:
                    step = j
                    break
        rejected, scanned = (False, 0), (step is None, step)
        U, Uflip = (rejected, scanned) if flip else (scanned, rejected)
        checks.append((*(U if in_U else outside), *(Uflip if in_Uflip else outside)))
    return checks


def rotation_checks(d: int, nums: Sequence[int]) -> list[tuple[bool, int | None, bool, int | None, int | None]]:
    """(realized_U, misalign_U, realized_Uflip, misalign_Uflip, misaligned) for each rotation k < l of a cycle.

    nums holds x_j * |d| for j <= l, closed, as for _realization.  Rotation
    k, the cycle's pattern turned left by k, walks the cycle from x_k, so
    one scan of the numerators answers for every k: a rotation's first
    rejection is the first one counted cyclically from k.  The first four
    fields are _realization's for the rotation, its domain gate applied at
    x_k; misaligned is U's first rejection whatever the domain, or None.
    """
    D = abs(d)
    l = len(nums) - 1
    rejects = "".join(["1" if (a // D ^ a) & 1 else "0" for a in nums[:l]])  # "1": U rejects step j
    twice = rejects * 2
    on_U, on_Uflip = "1" not in rejects, "0" not in rejects
    checks = []
    for k in range(l):
        misaligned = None if on_U else twice.index("1", k) - k
        misaligned_flip = None if on_Uflip else twice.index("0", k) - k
        U = (on_U, misaligned) if nums[k] >= D else (False, None)
        Uflip = (on_Uflip, misaligned_flip) if nums[k] >= 0 else (False, None)
        checks.append((*U, *Uflip, misaligned))
    return checks


def evaluate(s: BitSeq) -> CycleRecord:
    """candidate() plus both realization checks."""
    rec = candidate(s)
    (checks,) = _realization(rec.d, [rec.numerators])
    return CycleRecord(s, rec.d, rec.numerators, rec.cls, *checks)


def sweep(l_max: int) -> Iterator[CycleRecord]:
    """All candidates for 1 <= l <= l_max in deterministic (l, rank) order.

    Every bit sequence of every length is emitted, the all-zero one included
    (it carries the zero cycle), and each is evaluated on its own: this is
    the per-rank reference for the records the cycles command derives from
    one representative per necklace.
    """
    if l_max < 1:
        raise ValueError(f"need l_max >= 1, got {l_max}")
    for l in range(1, l_max + 1):
        for rank in range(1 << l):
            yield evaluate(BitSeq.from_rank(l, rank))


def necklaces(l: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """(rank, period) for each necklace of length l whose least rotation has its rank in [lo, hi).

    rank is the least rotation, period the number of its distinct rotations,
    so the periods of one length sum to 2^l.  [lo, hi) must be an aligned
    block of 2^b ranks: the words that share one prefix of l - b bits.  FKM
    walks that block's prenecklaces in lexicographic (rank) order.  Each is
    the periodic extension of its Lyndon prefix of length p, the prefix
    times a repunit of p-bit digits; it is a necklace, with period p, when p
    divides l.  The successor of a prenecklace raises its last 0 to 1 and
    extends the result periodically; when that 0 lies in the prefix, the
    block is done.
    """
    size = hi - lo
    if l < 1 or not 0 <= lo < hi <= 1 << l or size & (size - 1) or lo % size:
        raise StructureError(f"ranks [{lo}, {hi}) of length {l} are not an aligned power-of-two block")
    m = l + 1 - size.bit_length()  # the fixed prefix
    p = 1
    for j in range(1, m):
        bit, earlier = lo >> (l - 1 - j) & 1, lo >> (l - 1 - j + p) & 1
        if bit != earlier:
            if bit < earlier:
                return  # not a prenecklace, and neither is any word it starts
            p = j + 1
    extend = [None]  # extend[p]: the repunit and tail length that extend a p-bit prefix to l bits
    for q in range(1, l + 1):
        copies, tail = divmod(l, q)
        extend.append((((1 << copies * q) - 1) // ((1 << q) - 1), tail))
    prefix = lo >> (l - p)
    while True:
        repunit, tail = extend[p]
        w = prefix * repunit << tail | prefix >> (p - tail)
        if not tail:
            yield w, p
        trailing = (w ^ (w + 1)).bit_length() - 1  # 1s; the last 0 is just above them
        p = l - trailing
        if p <= m:
            return
        prefix = w >> trailing | 1


_LANES = 64  # necklaces per walk: enough to spread a walk's fixed cost, few enough to keep memory small


def necklace_totals(l: int, lo: int, hi: int) -> Iterator[tuple[int, int, dict[str, int], list[tuple]]]:
    """(n, necklaces, records by class value, realized rows) for each lane group of necklaces(l, lo, hi).

    The necklaces of one (l, n) share d = 2^l - 3^n, so they are closed
    _LANES at a time in one _walk.  A group's records by class count every
    rotation of each of its necklaces, and a realized row is (rank, period,
    x_0 is an integer, realized_U, realized_Uflip) for a necklace that U or
    Uflip realizes; no record is built.
    """
    groups = [[] for _ in range(l + 1)]  # groups[n]: the pending (rank, period) pairs with n ones
    for pair in necklaces(l, lo, hi):
        group = groups[pair[0].bit_count()]
        group.append(pair)
        if len(group) == _LANES:
            yield _group_totals(l, group)
            group.clear()
    for group in groups:
        if group:
            yield _group_totals(l, group)


def _group_totals(l: int, group: list[tuple[int, int]]) -> tuple[int, int, dict[str, int], list[tuple]]:
    """necklace_totals() for one group of (rank, period) pairs of length l, all with n ones."""
    n = group[0][0].bit_count()
    d, lanes = _walk(l, n, [rank for rank, _ in group])
    # x_0 = c_0 / d is an integer iff d divides c_0, which few lanes do; it is 0 only for n = 0
    integer = sum([period for (_, period), walk in zip(group, lanes) if walk[0] % d == 0])
    fractional = sum([period for _, period in group]) - integer
    whole = CycleClass.ZERO if n == 0 else _CLASSES[d > 0, True]
    counts = {cls.value: k for cls, k in ((whole, integer), (_CLASSES[d > 0, False], fractional)) if k}
    if d < 0:  # n >= 1 and x_0 < 0 in every lane: outside both maps' domains, so no scan
        return n, len(group), counts, []
    rows = [
        (rank, period, walk[0] % d == 0, on_U, on_Uflip)
        for (rank, period), walk, (on_U, _, on_Uflip, _) in zip(group, lanes, _realization(d, lanes))
        if on_U or on_Uflip
    ]
    return n, len(group), counts, rows
