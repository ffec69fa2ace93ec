"""Exact orbit iteration with certified fates.

An orbit resolves in one of a few ways, all decided without floating point:

  * entered_cycle: an iterate repeated exactly (the only way a cycle is ever
    claimed);
  * tends_to_trivial / tends_from_below: the orbit landed in a certified
    sub-basin of an integer cycle, and the landing was confirmed by the exact
    contraction identity of the composed affine block;
  * entered_region: the orbit hit a caller-supplied half-open target region
    (the region-visit conjectures terminate through this);
  * escaped_bound / cap_reached: the honest fallbacks, the latter also raised
    when reduced denominators outgrow the configured bit budget.

The certified sub-basins are exact trapping sets.  For the floor-parity map U,
(1, 5/3) u (2, 3) maps into itself two-step with U^2(x) - a = (3/4)(x - a);
for Uflip the mirror interval (1/2, 1) contracts onto 1 from below; for F the
three windows (1, 4/3), (2, 8/3), (4, 5) chase the integer cycle (1, 4, 2).
The windows are open, so on-cycle starts resolve as entered_cycle via exact
repetition, and they hold no integer, so the integer maps T and f need none.
Every landing is confirmed by contraction_check, which replays the
contraction identity for a claimed branch pattern; detect_period01 reads a
parity tail.  A tendency or a cycle extends the report by a fixed tail of
_TAIL_PAD further steps, so the periodic parity tail is visible in it.

iterate runs the orbit on reduced integer pairs (p, q) through
MapSpec.step_pq, compares every bound by cross-multiplication and builds a
Fraction only for a kept iterate past the start (the first is x0 itself), a
cycle value and a basin landing.  The fate tests (trap, windows, escape) sit
behind one exact hull gate: floor(x) lies between the least floor of a trap
or window start and the greatest floor of a trap or window end whenever x
lies in one of them, and |floor(x)| >= floor(bound) whenever |x| > bound.
A pair whose p // q lies outside both cannot settle.  That one division is
also the pair's parity bit, floor(x) mod 2, whatever the map's own branch
rule, and the floor that step_pq takes.  The repetition check's dict holds a
pair only while a repeat is still possible: for a map whose
even_q_never_recurs holds, only odd denominators are indexed, so the dict of
a U, Uflip or V orbit stops growing at its first even denominator.

Where a map has MapSpec.block_pq (U, Uflip, V and Phi maps of their shape),
iterate takes BLOCK_STEPS = 4 steps in one call.  Each pass of the loop lands
on a pair k, with floor f and denominator q, and then tries one guard; where
it holds, pair k takes no test and the next pass is a block over pairs
k + 1 .. k + 4, so a chain of blocks tests only the pair it ends on.  No test
can fire on pairs k .. k + 3 when all of these hold:

  * q is even, tested first as even > q & 1 with even = 0 where no block can
    run: block_pq's maps all have even_q_never_recurs, so none is indexed;
  * keep <= k < cap - 3: none is kept and pair k + 4 is within the cap (the
    first pass follows no guard: it is the step taken before the loop);
  * f >= 8 * max(h_hi + 1, 0), for the hull's greatest floor h_hi: each
    piece maps x >= 0 to at least x / 2, so each floor lies above the hull
    (block_pq itself keeps the domain minimum);
  * 27 * (f + 2) <= 8 * (e_hi + 1), for the escape floor e_hi: each piece
    maps x >= 0 to at most (3x + 1) / 2, so x_i + 1 < (3/2)^i (f + 2) for
    i <= 3, and e_hi >= 6 > f, so each floor lies in [0, e_hi);
  * q >> (den_bit_cap - 3) == 0: each step at most doubles the denominator.

So a report is the same with blocks as without; conjecture iterates with
keep = 1 and takes blocks on most of every U, Uflip and V orbit.  iterate
reads nothing of a map but its name, step_pq, even_q_never_recurs and
block_pq.  contraction_check replays its block on step_pq pairs as well and
checks the identity by cross-multiplied integers, with the ratio's terms
taken as products of gamma's and alpha's numerators and denominators: the
identity needs no reduced ratio, only a positive denominator.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain, islice
from typing import NamedTuple

from .errors import PreconditionError, StructureError
from .maps import BLOCK_STEPS, MAPS, MapSpec


class FateKind(str, Enum):
    TENDS_TO_TRIVIAL = "tends_to_trivial"
    TENDS_FROM_BELOW = "tends_from_below"
    ESCAPED_BOUND = "escaped_bound"
    CAP_REACHED = "cap_reached"
    ENTERED_CYCLE = "entered_cycle"
    ENTERED_REGION = "entered_region"


class Fate(NamedTuple):
    kind: FateKind
    period: int | None = None
    value: Fraction | None = None  # the exactly repeated iterate
    bound: Fraction | None = None
    region: tuple[Fraction, Fraction] | None = None
    anchor: tuple[int, ...] | None = None
    size_capped: bool = False
    confirmed: bool = False

    @property
    def resolved(self) -> bool:
        return self.kind is not FateKind.CAP_REACHED

    def label(self) -> str:
        if self.kind is FateKind.ENTERED_CYCLE:
            return f"entered_cycle:{self.period}"
        if self.kind is FateKind.CAP_REACHED and self.size_capped:
            return "cap_reached:size"
        return self.kind.value


class TrajectoryReport(NamedTuple):
    start: Fraction
    iterates: list[Fraction]  # head of the orbit; full when not truncated
    parity_bits: list[int]  # floor(x_i) mod 2 for every step taken
    fate: Fate
    steps_used: int
    truncated: bool = False


# ------------------------------------------------- certified cycle sub-basins

# Open windows (lo, hi, anchor, kind) per map.  Each window keeps a constant
# floor, so the branch pattern of one anchor-length block is forced and the
# block identity m^l(y) - a = ratio * (y - a) can be checked exactly.
_BASINS = {
    "U": (
        (1, Fraction(5, 3), (1, 2), FateKind.TENDS_TO_TRIVIAL),
        (2, 3, (2, 1), FateKind.TENDS_TO_TRIVIAL),
    ),
    "Uflip": ((Fraction(1, 2), 1, (1, 2), FateKind.TENDS_FROM_BELOW),),
    "F": (
        (1, Fraction(4, 3), (1, 4, 2), FateKind.TENDS_TO_TRIVIAL),
        (2, Fraction(8, 3), (2, 1, 4), FateKind.TENDS_TO_TRIVIAL),
        (4, 5, (4, 2, 1), FateKind.TENDS_TO_TRIVIAL),
    ),
}

TENDENCIES = (FateKind.TENDS_TO_TRIVIAL, FateKind.TENDS_FROM_BELOW)

_TAIL_PAD = 8  # steps appended after a tendency or a cycle


# ---------------------------------------------------------------- iteration


def iterate(
    m: MapSpec,
    x0: Fraction,
    cap: int = 10**4,
    escape_bound: Fraction | None = None,
    *,
    trap_region: tuple[Fraction, Fraction] | None = None,
    den_bit_cap: int = 1 << 16,
    keep: int = 1024,
) -> TrajectoryReport:
    """Iterate m from x0 until a fate resolves or cap steps have run.

    trap_region is a half-open interval [lo, hi); entering it resolves the
    orbit as entered_region.  escape_bound triggers on |x| > bound.  Reduced
    denominators beyond den_bit_cap bits resolve as a size-capped cap fate.
    A resolved tendency or cycle appends _TAIL_PAD extra steps of parity bits
    so that the periodic tail is visible in the report itself.  Each bound is
    held once, as its integer numerator and denominator, and floored as n // d.
    """
    x0 = x0 if isinstance(x0, Fraction) else Fraction(x0)
    step_pq = m.step_pq
    p, q = x0.numerator, x0.denominator
    f = p // q
    s = step_pq(p, q, f)  # the step from x0, taken first: a start outside m's domain fails at once
    windows = [
        (w_lo.numerator, w_lo.denominator, w_hi.numerator, w_hi.denominator, anchor, kind)
        for w_lo, w_hi, anchor, kind in _BASINS.get(m.name, ())
    ]
    # The hull gate: floor(x) lies in [h_lo, h_hi] whenever x lies in the trap
    # or in a window, and outside (e_lo, e_hi) whenever |x| > escape_bound.
    # settle finds no fate anywhere else, so the loop calls it only there.
    floors = [(w_ln // w_ld, w_hn // w_hd) for w_ln, w_ld, w_hn, w_hd, _anchor, _kind in windows]
    if trap_region is not None:
        lo, hi = trap_region
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        floors.append((ln // ld, hn // hd))
    h_lo, h_hi = (min(floors)[0], max([f_hi for _f_lo, f_hi in floors])) if floors else (1, 0)  # 1 > 0: no hull
    e_hi = None
    if escape_bound is not None:
        en, ed = escape_bound.numerator, escape_bound.denominator
        e_hi = en // ed
        e_lo = -e_hi
    den_shift = max(den_bit_cap, 0)  # q >> den_shift is nonzero iff q has more than den_bit_cap bits
    kept = max(keep, 1)  # the start is always kept
    # The block guard's bounds on pair k, with floor f and denominator q (see above); no f_max without an escape bound
    block, skip = m.block_pq, BLOCK_STEPS - 1
    k_hi = cap - skip if block is not None and den_bit_cap >= skip else 0
    even = int(k_hi > kept)  # even > q & 1 fails at once for an odd q, or with no block to take
    f_min = max(h_hi + 1, 0) << skip
    f_max = None if e_hi is None else ((e_hi + 1) << skip) // 3**skip - 2
    q_room = den_bit_cap - skip

    bits = [f & 1]  # floor(x) mod 2 for every visited pair
    head = [(p, q)]  # the first kept visited pairs, a cycle's closing pair included
    seen = {(p, q): 0}  # each visited pair that may still recur, to its index
    odd_only = m.even_q_never_recurs  # then a pair with an even q is never visited twice
    tail = []  # the tail pad

    def settle(p: int, q: int) -> Fate | None:
        if trap_region is not None and ln * q <= p * ld and p * hd < hn * q:
            return Fate(FateKind.ENTERED_REGION, region=(lo, hi))
        for w_ln, w_ld, w_hn, w_hd, anchor, kind in windows:
            if w_ln * q < p * w_ld and p * w_hd < w_hn * q:
                break
        else:
            if escape_bound is not None and abs(p) * ed > en * q:
                return Fate(FateKind.ESCAPED_BOUND, bound=Fraction(escape_bound))
            return None
        x = Fraction(p, q)
        try:
            confirmed = contraction_check(x, anchor[0], [a % 2 for a in anchor], 1, m)
        except PreconditionError:  # the block left the anchor's branch pattern
            confirmed = False
        if not confirmed:
            raise StructureError(
                f"certified basin landing failed to confirm at {x}"
                f" (orbit from {x0}, step {len(bits) - 1})"
            )
        return Fate(kind, anchor=anchor, confirmed=True)

    fate = settle(p, q)
    period = 0
    if fate is None:
        k, go = 0, False  # go: this pass takes a block
        while k < cap:
            if go:
                p, q, parities = block(p, q)
                bits += parities
                k += BLOCK_STEPS
            else:
                k += 1
                p, q, _b = step_pq(p, q, f) if k > 1 else s  # the first step is s from above
            f = p // q
            bits.append(f & 1)
            go = (even > q & 1 and f_min <= f and (f_max is None or f <= f_max) and kept <= k < k_hi
                  and not q >> q_room)
            if go:
                continue
            if k < kept:
                head.append((p, q))
            if q & 1 or not odd_only:
                prev = seen.setdefault((p, q), k)
                if prev != k:
                    period = k - prev
                    break
            if h_lo <= f <= h_hi or e_hi is not None and not e_lo < f < e_hi:
                fate = settle(p, q)
                if fate is not None:
                    break
            if q >> den_shift:
                fate = Fate(FateKind.CAP_REACHED, size_capped=True)
                break
        else:
            fate = Fate(FateKind.CAP_REACHED)
    if period:
        fate = Fate(FateKind.ENTERED_CYCLE, period=period, value=Fraction(p, q))
    steps_used = len(bits) - 1
    if fate.kind in TENDENCIES or fate.kind is FateKind.ENTERED_CYCLE:
        for j in range(_TAIL_PAD):
            p, q, _b = step_pq(p, q, f) if j or steps_used else s  # a start that settled at once pads from s
            f = p // q
            tail.append((p, q))
            bits.append(f & 1)

    iterates = [x0]
    if kept > 1:
        iterates += [Fraction(p, q) for p, q in islice(chain(head, tail), 1, kept)]
    return TrajectoryReport(x0, iterates, bits, fate, steps_used, len(bits) > kept)


# ------------------------------------------------------------- diagnostics


def detect_period01(bits) -> int | None:
    """Smallest j from which the observed bits alternate 0,1,0,1,... to the end.

    A candidate j counts only when at least four bits were observed from j
    on; returns None when no such j exists in the observed prefix.  One
    backward pass finds the alternating suffix of the 0/1 bits.
    """
    bits = list(bits)
    i = len(bits) - 1  # the longest suffix from i whose neighbours differ
    while i > 0 and bits[i - 1] == 1 - bits[i]:
        i -= 1
    j = i + (bits[i] if bits else 0)  # its first 0
    return j if j <= len(bits) - 4 else None


def contraction_check(
    x0: Fraction,
    a: Fraction | int,
    s,
    m_steps: int,
    m: MapSpec = MAPS["U"],
) -> bool:
    """Exact identity x_{k*l} - a == ratio^k (x0 - a) for k = 1..m_steps.

    The orbit's branch bits must follow s cyclically for the whole window;
    a divergence raises PreconditionError since the composed affine block is
    then simply not the one being claimed.
    """
    s = tuple(s)
    if not s or any(b not in (0, 1) for b in s):
        raise ValueError(f"s must be a nonempty 0/1 sequence: {s!r}")
    if m_steps < 1:
        raise ValueError(f"m_steps must be >= 1, got {m_steps}")
    a = a if isinstance(a, (int, Fraction)) else Fraction(a)
    x0 = x0 if isinstance(x0, (int, Fraction)) else Fraction(x0)
    ones, zeros, par = sum(s), len(s) - sum(s), m.params
    rn = par.gamma.numerator**ones * par.alpha.numerator**zeros  # ratio = rn/rd, not reduced
    rd = par.gamma.denominator**ones * par.alpha.denominator**zeros

    # x - a == ratio^k (x0 - a) with x = p/q, x0 = p0/q0, a = an/ad and
    # ratio = rn/rd, cross-multiplied over the positive q, q0 and rd^k:
    # (p*ad - an*q) * rd^k * q0 == rn^k * (p0*ad - an*q0) * q
    step_pq = m.step_pq
    an, ad = a.numerator, a.denominator
    p, q = x0.numerator, x0.denominator
    q0, c0 = q, p * ad - an * q
    rnk = rdk = 1
    ok = True
    for k in range(m_steps):
        for j, want in enumerate(s):
            p, q, b = step_pq(p, q, p // q)
            if b != want:
                raise PreconditionError(
                    f"branch bits diverge from the claimed pattern at step {k * len(s) + j}"
                )
        rnk *= rn
        rdk *= rd
        ok = ok and (p * ad - an * q) * rdk * q0 == rnk * c0 * q
    return ok
