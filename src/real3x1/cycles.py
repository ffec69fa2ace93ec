"""Exhaustive enumeration of forced-branch cycle candidates.

A length-l bit sequence s forces a branch chain of the rational map g
(bit 0: halve, bit 1: r -> (3r+1)/2).  The chain composes to
x -> (3^n x + offset) / 2^l, which has the single fixed point

    x0(s) = offset / d,      d = 2^l - 3^n,

and that fixed point is the only value whose forced walk closes.  A closed
forced walk is automatically parity aligned with g's own dispatch: one
misaligned step sends the 2-adic valuation negative, both branches then push
it down forever, and the walk could never return to its start.  candidate()
checks this alignment at every step while rebuilding the cycle in integer
arithmetic over the common denominator |d|.

Whether the same closed walk is realized by the floor-parity maps is a
separate, stricter question: U requires floor(x_i) parity to equal the branch
bit at every step (and x0 >= 1), Uflip requires the opposite parity at every
step (and x0 >= 0).  The sweep records the first index where each of these
fails.

Both answers, and the cycle class, are shared by every rotation of s.  The
rotation by k closes at x_k, the k-th point of the same g-cycle, so it walks
the same set of values with the same sign.  A cycle that U or Uflip realizes
stays in that map's domain, so every one of its points is a valid start and
realizes it too; if one rotation fails, all do.  A summary therefore needs one
representative per rotation class (necklace), weighted by the number of
distinct rotations: necklaces() yields the least rotation of each.

A record reads phi = +-nums[0] and x0 = nums[0] / |d| from its numerators
nums.  Per-rank records come from one representative per necklace too.
Rotation k closes at x_k = nums[k] / |d|, so its phi is +-nums[k], and its
realization checks are the representative's cycle scanned from index k
(check_realization(rec, flipped, k)).  The remainder ledger (remainders.trace)
checks its recurrence on the cyclic pairs (c_{i-1}, c_i) that leave an aligned
index, and every rotation has the same set of pairs, only renumbered.  One
trace per necklace therefore makes every check that a trace per rank would
make; rotation k's verdict is the representative's, with a misalignment
counted from index k (misaligned_from).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterator

from .maps import affine_offset
from .errors import StructureError


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
        return "".join(str(b) for b in self.bits)


class CycleClass(str, Enum):
    INTEGER_POSITIVE = "integer_positive"
    INTEGER_NEGATIVE = "integer_negative"
    ZERO = "zero"
    FRACTIONAL_POSITIVE = "fractional_positive"
    FRACTIONAL_NEGATIVE = "fractional_negative"


@dataclass
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


def candidate(s: BitSeq) -> CycleRecord:
    """Build the closed forced-branch cycle for s, realization flags unset."""
    bits = s.bits
    l, n = s.l, s.n
    d = (1 << l) - 3**n
    phi = affine_offset(bits)
    if d == 0 or d % 2 != 1:
        raise StructureError(f"d = 2^{l} - 3^{n} must be odd nonzero, got {d}")
    if n >= 1 and d % 3 == 0:
        raise StructureError(f"3 divides d = {d} with n = {n} >= 1")

    D = abs(d)
    a = phi if d > 0 else -phi
    nums = [a]
    for j, b in enumerate(bits):
        # Closed forced walks are parity aligned with g's own dispatch.
        if a % 2 != b:
            raise StructureError(f"parity misalignment at step {j} of {s}")
        a = a >> 1 if b == 0 else (3 * a + D) >> 1
        nums.append(a)
    if nums[-1] != nums[0]:
        raise StructureError(f"forced walk of {s} failed to close")

    if phi == 0:
        cls = CycleClass.ZERO
    elif phi % d == 0:
        cls = CycleClass.INTEGER_POSITIVE if d > 0 else CycleClass.INTEGER_NEGATIVE
    else:
        cls = (
            CycleClass.FRACTIONAL_POSITIVE if d > 0 else CycleClass.FRACTIONAL_NEGATIVE
        )
    return CycleRecord(s, d, tuple(nums), cls)


def misaligned_from(rec: CycleRecord, k: int, flipped: bool = False) -> int | None:
    """Steps from index k, taken cyclically, to the first floor parity the map rejects.

    U needs floor(x_i) mod 2 to equal the branch bit b_i; Uflip (flipped)
    needs it to differ.  Rotation k of rec.s walks rec's cycle from x_k, so
    this is that rotation's first misaligned step; None when there is none.
    """
    D = abs(rec.d)
    nums, bits = rec.numerators, rec.s.bits
    l = len(bits)
    for i in range(l):
        j = k + i if k + i < l else k + i - l
        if (nums[j] // D) % 2 != bits[j] ^ flipped:
            return i
    return None


def check_realization(
    rec: CycleRecord, flipped: bool = False, k: int = 0
) -> tuple[bool, int | None]:
    """Does U, or Uflip when flipped, walk rec's cycle from x_k?  (False, i) names the first bad step.

    k = 0 asks about rec.s itself, k > 0 about its rotation left by k.
    Requires x_k in the map's domain: x_k >= 1 for U, x_k >= 0 for Uflip.
    Along any prefix where the floor parities match the branch bits (oppose
    them when flipped), the walk consists of genuine steps of the map, so the
    domain stays forward-invariant and only the bit comparison is needed.
    """
    if rec.numerators[k] < (0 if flipped else abs(rec.d)):
        return False, None
    i = misaligned_from(rec, k, flipped)
    return i is None, i


def evaluate(s: BitSeq) -> CycleRecord:
    """candidate() plus both realization checks."""
    rec = candidate(s)
    rec.realized_U, rec.misalign_U = check_realization(rec)
    rec.realized_Uflip, rec.misalign_Uflip = check_realization(rec, flipped=True)
    return rec


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


def necklaces(l: int, rank_lo: int, rank_hi: int) -> Iterator[tuple[CycleRecord, int]]:
    """(record, period) for each necklace of length l whose least rotation is in [rank_lo, rank_hi).

    The record is the least rotation's, with both realization checks done;
    period counts the distinct rotations, so the periods of one length sum to
    2^l.  A rank is a least rotation when no rotation of it is smaller; the
    test stops at the first rotation that is not larger.  Apart from all
    zeros and all ones, a least rotation starts with 0 and ends with 1, so
    only odd ranks below 2^(l-1) are tested.
    """
    mask = (1 << l) - 1
    top = l - 1
    ranks = range(rank_lo | 1, min(rank_hi, 1 << top), 2)
    ends = [rank for rank in (0, mask) if rank_lo <= rank < rank_hi]
    for rank in chain(ranks, ends):
        x = ((rank << 1) & mask) | (rank >> top)
        period = 1
        while x > rank:
            x = ((x << 1) & mask) | (x >> top)
            period += 1
        if x == rank:
            yield evaluate(BitSeq.from_rank(l, rank)), period
