"""Remainder ledgers for candidate cycles over a common odd denominator.

Write each cycle value as x_i = c_i / d with d = 2^l - 3^n > 0 and split
c_i = q_i * d + r_i, 0 <= r_i < d.  U walks the cycle iff floor parity equals
numerator parity at every index, i.e. q_i == c_i (mod 2); since d is odd that
forces every r_i = c_i - q_i*d to be even, and the remainders then obey an
autonomous integer recurrence:

    r_i = r_{i-1} / 2                  if q_{i-1} even
    r_i = 3 r_{i-1} / 2                if q_{i-1} odd and 3 r_{i-1} < 2d
    r_i = 3 r_{i-1} / 2 - d            if q_{i-1} odd and 3 r_{i-1} > 2d  ("new")

(3 r = 2d is impossible: 3 never divides d.)  The flipped alignment
(q_i != c_i mod 2, the Uflip condition) is the same rule read off the
ceiling split c_i = (q_i + 1) * d - (d - r_i): with q_i + 1 in place of q_i
and d - r_i in place of r_i, it is U's alignment, and the even remainders,
the recurrence and the "new" test above all apply unchanged.

Between consecutive "new" indices p < q the recurrence telescopes into the
strict integer inequality 3^n(p,q) > 3 * 2^(q-p-1), where n(p,q) counts the
multiplying steps; summing the weaker faithful bound 3^n(p,q) > 2^(q-p)
around a closed aligned cycle yields 3^n > 2^l, which no candidate with
d = 2^l - 3^n > 0 can satisfy.  segment_inequality() reports both flags per
segment and both global sides; all comparisons are exact integer power
comparisons, never logarithms.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .errors import PreconditionError, StructureError
from .rationals import compare_pow3_pow2

if TYPE_CHECKING:  # an annotation only: rmap-scan runs nothing of cycles
    from .cycles import CycleRecord


class VerdictKind(str, Enum):
    ALIGNED_CLOSED = "aligned_closed"
    MISALIGNED_AT = "misaligned_at"
    INTEGER_CYCLE = "integer_cycle"


class Verdict(NamedTuple):
    kind: VerdictKind
    index: int | None = None

    def label(self) -> str:
        if self.kind is VerdictKind.MISALIGNED_AT:
            return f"misaligned_at:{self.index}"
        return self.kind.value


class Segment(NamedTuple):
    """Consecutive new indices (start, stop], stop may wrap past l."""

    start: int
    stop: int
    ones: int  # multiplying steps inside (start, stop]
    gap: int  # stop - start


class RemainderTrace(NamedTuple):
    """The full ledger for one candidate: numerators, quotients, remainders."""

    d: int
    c: tuple[int, ...]  # length l+1, c[l] == c[0]
    q: tuple[int, ...]
    r: tuple[int, ...]
    flipped: bool
    aligned_prefix: int
    new: tuple[bool, ...]
    segments: tuple[Segment, ...] | None
    verdict: Verdict

    @property
    def branch_bits(self) -> tuple[int, ...]:
        """Length l; the bit for the step into index i+1 is c_i's parity."""
        return tuple(ci % 2 for ci in self.c[:-1])


def _step(d: int, r: int, bit: int) -> int:
    """The recurrence for one branch bit: r/2, 3r/2, or 3r/2 - d past 2d/3."""
    if not bit:
        return r // 2
    triple = 3 * r
    if triple == 2 * d:
        raise StructureError("3r = 2d is impossible: 3 never divides d")
    return triple // 2 if triple < 2 * d else triple // 2 - d


def _segments(new: tuple[bool, ...], c: tuple[int, ...]) -> tuple[Segment, ...]:
    """The segments between new indices of the aligned closed ledger c; step i's bit is c_i's parity."""
    new_idx = [i for i, f in enumerate(new) if f]
    if not new_idx:
        raise StructureError("closed aligned ledger without any new remainder")
    l = len(new)
    doubled = [ci & 1 for ci in c[:l]] * 2  # a segment's steps are doubled[start:stop], stop < 2l
    stops = new_idx[1:] + [new_idx[0] + l]
    return tuple(
        Segment(p, stop, sum(doubled[p:stop]), stop - p) for p, stop in zip(new_idx, stops)
    )


def _ledger(d: int, c: tuple[int, ...], flipped: bool) -> RemainderTrace:
    """The ledger of the closed numerators c over d > 0; step i's branch bit is c_i's parity.

    Both alignments read one split (qa, ra): (q, r) for U, the ceiling split
    (q + 1, d - r) when flipped.  On every step that departs from an aligned
    index, the directly computed ra is checked against the recurrence, exactly.
    """
    l = len(c) - 1
    q = tuple(ci // d for ci in c)
    r = tuple(ci % d for ci in c)
    qa, ra = (tuple(x + 1 for x in q), tuple(d - x for x in r)) if flipped else (q, r)
    aligned = [(qa[i] - c[i]) % 2 == 0 for i in range(l)]
    prefix = aligned.index(False) if False in aligned else l
    new = tuple(2 * ra[i] + 2 * d == 3 * ra[(i - 1) % l] for i in range(l))
    integer = not any(r)  # d divides every c_i: no remainder to check
    for i in range(l):
        if aligned[i] and not integer:
            if ra[i] % 2:
                raise StructureError(f"aligned remainder {ra[i]} must be even")
            if (expected := _step(d, ra[i], qa[i] % 2)) != ra[i + 1]:
                raise StructureError(
                    f"recurrence break at step {i + 1}: expected {expected}, got {ra[i + 1]}"
                )
    if integer:
        verdict, segs = Verdict(VerdictKind.INTEGER_CYCLE), None
    elif prefix < l:
        verdict, segs = Verdict(VerdictKind.MISALIGNED_AT, prefix), None
    else:
        verdict, segs = Verdict(VerdictKind.ALIGNED_CLOSED), _segments(new, c)
    return RemainderTrace(d, c, q, r, flipped, prefix, new, segs, verdict)


def trace(rec: CycleRecord, flipped: bool = False) -> RemainderTrace:
    """Replay rec's cycle as a remainder ledger; d must be positive.

    Integer-valued candidates (d divides every c_i) report IntegerCycle: all
    remainders vanish and the ledger is empty of content.  Fractional ones
    report either the first misaligned index or a fully aligned closure.
    """
    if rec.d < 0:
        raise PreconditionError(f"remainder ledger undefined for d = {rec.d} < 0")
    return _ledger(rec.d, rec.numerators, flipped)


# ------------------------------------------------------- inequality ledger


class SegmentBound(NamedTuple):
    start: int
    stop: int
    ones: int
    gap: int
    bound_holds: bool  # faithful encoding: 3^ones > 2^gap
    strict_holds: bool  # derived per-segment form: 3^ones > 3 * 2^(gap-1)


class InequalityLedger(NamedTuple):
    segments: tuple[SegmentBound, ...]
    n_total: int
    l_total: int
    sum_side_holds: bool  # 3^n > 2^l, what the summed segment bounds force
    positive_d_side_holds: bool  # 3^n < 2^l, what d = 2^l - 3^n > 0 forces


def segment_inequality(tr: RemainderTrace) -> InequalityLedger:
    """Exact per-segment and global power comparisons for an aligned ledger.

    The two global sides are mutually exclusive by construction; a ledger
    whose per-segment bounds all hold therefore cannot belong to any
    candidate with positive d.  That exclusion is the whole point, and the
    caller reads it straight off the two flags.
    """
    if tr.verdict.kind is not VerdictKind.ALIGNED_CLOSED:
        raise PreconditionError(
            f"segment inequalities need an aligned closed ledger, got {tr.verdict.label()}"
        )
    if not tr.segments:
        raise StructureError("aligned closed ledger without segments")
    bits = tr.branch_bits
    n_total = sum(seg.ones for seg in tr.segments)
    l_total = sum(seg.gap for seg in tr.segments)
    if l_total != len(bits) or n_total != sum(bits):
        raise StructureError("segments do not tile the cycle")
    entries = tuple(
        SegmentBound(
            *seg,
            bound_holds=compare_pow3_pow2(seg.ones, seg.gap) > 0,
            strict_holds=2 * 3**seg.ones > 3 << seg.gap,  # 3^ones > 3 * 2^(gap-1), doubled
        )
        for seg in tr.segments
    )
    sign = compare_pow3_pow2(n_total, l_total)
    return InequalityLedger(
        entries, n_total, l_total, sum_side_holds=sign > 0, positive_d_side_holds=sign < 0
    )


# ------------------------------------------------------------- orbit scan


class Orbit(NamedTuple):
    """A closed orbit of the remainder recurrence over even residues."""

    states: tuple[int, ...]
    length: int
    odd_steps: int  # multiplying steps, the n of this orbit
    exceeds_pow_bound: bool  # 3^n > 2^l, forced for every closed orbit


def modulus_ok(d: int) -> bool:
    """The rule for a remainder modulus: d is odd, >= 5 and coprime to 3."""
    return d >= 5 and d % 2 == 1 and d % 3 != 0


def _check_modulus(d: int) -> None:
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"d must be an integer, got {d!r}")
    if not modulus_ok(d):
        raise ValueError(f"d must be odd, >= 5, and coprime to 3, got {d}")


def _moves(d: int, r: int) -> list[tuple[int, int]]:
    """The (target, bit) steps from the even state r that land even in (0, d).

    From r = 0 mod 4 both r/2 and 3r/2 stay even; from r = 2 mod 4 only the
    subtracting branch 3r/2 - d does (d odd), and only when 3r > 2d.  Every
    other move produces an odd value and can belong to no aligned cycle.
    """
    return [(t, bit) for bit in (0, 1) if 0 < (t := _step(d, r, bit)) < d and t % 2 == 0]


def rmap_orbit_scan(d: int, max_len: int | None = None) -> list[Orbit]:
    """All elementary closed orbits of the remainder recurrence modulo d.

    Deterministic order: orbits are rooted at their minimal state, discovered
    in ascending root order.  Every orbit found is verified to satisfy
    3^n > 2^l exactly (closure forces r0 * (3^n - 2^l) = d * K with K > 0),
    so none can coexist with a positive d = 2^l - 3^n.
    """
    _check_modulus(d)
    cap = 4 * d if max_len is None else max_len
    adj = {r: _moves(d, r) for r in range(2, d, 2)}
    orbits: list[Orbit] = []
    for root in sorted(adj):
        # Iterative DFS over paths root -> ... -> root using states > root.
        path = [root]
        bits: list[int] = []
        on_path = {root}
        stack = [iter(adj[root])]
        while stack:
            for nxt, bit in stack[-1]:
                if nxt == root:
                    n = sum(bits) + bit
                    l = len(bits) + 1
                    exceeds = compare_pow3_pow2(n, l) > 0
                    if not exceeds:
                        raise StructureError(
                            f"closed orbit {tuple(path)} with 3^{n} <= 2^{l}"
                        )
                    orbits.append(Orbit(tuple(path), l, n, exceeds))
                    continue
                if nxt > root and nxt not in on_path and len(path) < cap:
                    path.append(nxt)
                    bits.append(bit)
                    on_path.add(nxt)
                    stack.append(iter(adj[nxt]))
                    break
            else:  # every move from path[-1] is spent: step back
                stack.pop()
                on_path.discard(path.pop())
                if bits:
                    bits.pop()
    return orbits
