"""Exhaustive enumeration of forced-branch cycle candidates.

A length-l bit sequence s forces a branch chain of the rational map g
(bit 0: halve, bit 1: r -> (3r+1)/2).  The chain composes to
x -> (3^n x + offset) / 2^l, which has the single fixed point

    x0(s) = offset / d,      d = 2^l - 3^n,

and that fixed point is the only value whose forced walk closes.  A closed
forced walk is automatically parity aligned with g's own dispatch: one
misaligned step sends the 2-adic valuation negative, both branches then push
it down forever, and the walk could never return to its start.  _close() is
the one closure walk: on a 0/1 tuple it rebuilds the cycle in integer
arithmetic over the common denominator |d| and checks this alignment at every
step; candidate() wraps its result in a CycleRecord.

Whether the same closed walk is realized by the floor-parity maps is a
separate, stricter question: U requires floor(x_i) parity to equal the branch
bit at every step (and x0 >= 1), Uflip requires the opposite parity at every
step (and x0 >= 0).  The sweep records the first index where each of these
fails; _realization() is the one scan, on the integers.

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
necklace_summaries() closes and scans each on plain integers and tuples, and
builds no record.

A record reads phi = +-nums[0] and x0 = nums[0] / |d| from its numerators
nums.  Per-rank records come from one representative per necklace too: record
mode evaluates the first rank of each class that a rank block meets, whether
or not it is the least rotation.  Its rotation k closes at x_k = nums[k] / |d|,
so its phi is +-nums[k], and its realization checks are the representative's
cycle scanned from index k (check_realization(rec, flipped, k)).  The
remainder ledger (remainders.trace) checks its recurrence on the cyclic pairs
(c_{i-1}, c_i) that leave an aligned index, and every rotation has the same
set of pairs, only renumbered.  One trace per necklace and block therefore
makes every check that a trace per rank would make; rotation k's verdict is
the representative's, with a misalignment counted from index k
(misaligned_from).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .errors import StructureError
from .maps import affine_offset


def _pattern(bits) -> str:
    """A 0/1 tuple as the string of its bits."""
    return "".join(map(str, bits))


@dataclass(frozen=True)
class BitSeq:
    """A nonempty 0/1 branch sequence; rank is its value as a binary numeral."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(self.bits))
        if not self.bits or not {0, 1}.issuperset(self.bits):
            raise ValueError(f"bits must be a nonempty 0/1 sequence: {self.bits!r}")

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
        return _pattern(self.bits)


class CycleClass(str, Enum):
    INTEGER_POSITIVE = "integer_positive"
    INTEGER_NEGATIVE = "integer_negative"
    ZERO = "zero"
    FRACTIONAL_POSITIVE = "fractional_positive"
    FRACTIONAL_NEGATIVE = "fractional_negative"


@dataclass(frozen=True)
class CycleRecord:
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

    @cached_property
    def x0(self) -> Fraction:
        return Fraction(self.phi, self.d)

    @cached_property
    def g_cycle(self) -> tuple[Fraction, ...]:
        D = abs(self.d)
        return tuple(Fraction(a, D) for a in self.numerators)


def _close(bits: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    """(d, phi, nums) for the forced walk of a 0/1 tuple: x0 = phi / d, nums the cycle times |d|, closed.

    Checks that d is odd and nonzero, that 3 does not divide d when n >= 1,
    that every step is parity aligned, and that the walk closes.
    """
    l, n = len(bits), sum(bits)
    d = (1 << l) - 3**n
    if d == 0 or d % 2 != 1:
        raise StructureError(f"d = 2^{l} - 3^{n} must be odd nonzero, got {d}")
    if n >= 1 and d % 3 == 0:
        raise StructureError(f"3 divides d = {d} with n = {n} >= 1")

    phi = affine_offset(bits)
    D = abs(d)
    a = phi if d > 0 else -phi
    nums = [a]
    for j, b in enumerate(bits):
        # Closed forced walks are parity aligned with g's own dispatch.
        if a % 2 != b:
            raise StructureError(f"parity misalignment at step {j} of {_pattern(bits)}")
        a = a >> 1 if b == 0 else (3 * a + D) >> 1
        nums.append(a)
    if nums[-1] != nums[0]:
        raise StructureError(f"forced walk of {_pattern(bits)} failed to close")
    return d, phi, tuple(nums)


def _cycle_class(phi: int, d: int) -> CycleClass:
    if phi == 0:
        return CycleClass.ZERO
    if phi % d == 0:
        return CycleClass.INTEGER_POSITIVE if d > 0 else CycleClass.INTEGER_NEGATIVE
    return CycleClass.FRACTIONAL_POSITIVE if d > 0 else CycleClass.FRACTIONAL_NEGATIVE


def candidate(s: BitSeq) -> CycleRecord:
    """Build the closed forced-branch cycle for s, realization flags unset."""
    d, phi, nums = _close(s.bits)
    return CycleRecord(s, d, nums, _cycle_class(phi, d))


def _realization(
    d: int, nums: tuple[int, ...], bits: tuple[int, ...], flipped: bool, k: int, *, gate: bool = True
) -> tuple[bool, int | None]:
    """Does U, or Uflip when flipped, walk the cycle nums / |d| of bits from x_k?

    (False, None) when x_k is outside the map's domain (x_k >= 1 for U, x_k
    >= 0 for Uflip) and gate is set; otherwise (False, i) names the first
    step, counted cyclically from k, whose floor parity the map rejects: U
    needs floor(x_j) mod 2 to equal the branch bit b_j, Uflip needs it to
    differ.  Along any prefix where they match, the walk consists of genuine
    steps of the map, so the domain stays forward-invariant and only the bit
    comparison is needed.
    """
    D = abs(d)
    if gate and nums[k] < (0 if flipped else D):
        return False, None
    l = len(bits)
    for i in range(l):
        j = k + i if k + i < l else k + i - l
        if (nums[j] // D) % 2 != bits[j] ^ flipped:
            return False, i
    return True, None


def misaligned_from(rec: CycleRecord, k: int) -> int | None:
    """Steps from index k, taken cyclically, to the first floor parity U rejects.

    Rotation k of rec.s walks rec's cycle from x_k, so this is that
    rotation's first misaligned step, whatever its domain; None when there
    is none.
    """
    return _realization(rec.d, rec.numerators, rec.s.bits, False, k, gate=False)[1]


def check_realization(
    rec: CycleRecord, flipped: bool = False, k: int = 0
) -> tuple[bool, int | None]:
    """Does U, or Uflip when flipped, walk rec's cycle from x_k?  (False, i) names the first bad step.

    k = 0 asks about rec.s itself, k > 0 about its rotation left by k.
    """
    return _realization(rec.d, rec.numerators, rec.s.bits, flipped, k)


def evaluate(s: BitSeq) -> CycleRecord:
    """candidate() plus both realization checks."""
    rec = candidate(s)
    return CycleRecord(
        s, rec.d, rec.numerators, rec.cls, *check_realization(rec), *check_realization(rec, True)
    )


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


def necklaces(l: int, lo: int, hi: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(bits, period) for each necklace of length l whose least rotation has its rank in [lo, hi).

    bits is the least rotation, period the number of its distinct rotations,
    so the periods of one length sum to 2^l.  [lo, hi) must be an aligned
    block of 2^b ranks: the words that share one prefix of l - b bits.  FKM
    walks that block's prenecklaces in lexicographic (rank) order.  Each is
    the periodic extension of its Lyndon prefix of length p; it is a
    necklace, with period p, when p divides l.  The successor of a
    prenecklace raises its last 0 to 1 and extends the result periodically;
    when that 0 lies in the prefix, the block is done.
    """
    size = hi - lo
    if l < 1 or not 0 <= lo < hi <= 1 << l or size & (size - 1) or lo % size:
        raise StructureError(f"ranks [{lo}, {hi}) of length {l} are not an aligned power-of-two block")
    m = l + 1 - size.bit_length()  # the fixed prefix
    w = [(lo >> (l - 1 - j)) & 1 for j in range(m)] + [0] * (l - m)
    p = 1
    for j in range(1, m):
        if w[j] != w[j - p]:
            if w[j] < w[j - p]:
                return  # not a prenecklace, and neither is any word it starts
            p = j + 1
    while True:
        for j in range(p, l):
            w[j] = w[j - p]
        if l % p == 0:
            yield tuple(w), p
        i = l - 1
        while i >= m and w[i]:
            i -= 1
        if i < m:
            return
        w[i] = 1
        p = i + 1


def necklace_summaries(l: int, lo: int, hi: int) -> Iterator[tuple]:
    """(bits, period, class value, realized_U, realized_Uflip) for each of necklaces(l, lo, hi).

    All period rotations of bits share these answers.  Each necklace is
    closed and scanned on plain integers; no record is built.
    """
    for bits, period in necklaces(l, lo, hi):
        d, phi, nums = _close(bits)
        realized_U = _realization(d, nums, bits, False, 0)[0]
        realized_Uflip = _realization(d, nums, bits, True, 0)[0]
        yield bits, period, _cycle_class(phi, d).value, realized_U, realized_Uflip
