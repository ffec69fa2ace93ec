"""Piecewise-affine parity maps: the 3x+1 family on integers, rationals, reals.

Every map here is one instance of the same shape: two affine pieces
alpha*x + beta and gamma*x + delta, a rule deciding which piece runs, and a
domain.  The deciding rule is either the parity of floor(x + tau) for a shift
tau in [0, 2), or the parity of the numerator for rationals with odd reduced
denominator.  The named instances:

    T      n/2 if n even else (3n+1)/2         integers n >= 1, numerator parity
    f      n/2 if n even else 3n+1             integers n >= 1, numerator parity
    g      r/2 if r even else (3r+1)/2         odd-denominator rationals
    U      x/2 if floor(x) even else (3x+1)/2  x >= 1
    Uflip  same pieces as U, branch flipped    x >= 0   (tau = 1)
    F      x/2 if floor(x) even else 3x+1      x >= 1
    V      x/2 if floor(x) even else (3/2)x    x >= 1

The returned branch bit is 1 exactly when the second piece (the multiplying
one, gamma*x + delta) ran.

A step is encoded once, as MapSpec.step_pq on a reduced integer pair (p, q)
with q > 0: the branch bit, the image and the domain check are integer
arithmetic on p and q.  Orbits run on these pairs (see trajectory), and step
is the Fraction view of the same step.  step_pq takes one of two forms, built
from the map's pieces.  U, Uflip, F, V and every Phi map of their shape (floor
parity, an integer tau, an integer minimum or none, pieces (a*x + b) / e with
a in {1, 3} and e a power of two) get the shaped form: one floor p // q and
no gcd.  Every other map (T, f, g, a fractional tau or minimum, any other
piece) gets the generic form, with a general floor and two gcd calls.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import NamedTuple

from .errors import DomainError
from .rationals import parse_rational


class BranchRule(Enum):
    FLOOR_PARITY = "floor_parity"
    NUMERATOR_PARITY = "numerator_parity"


class PhiParams(
    NamedTuple("PhiParams", [(name, Fraction) for name in ("alpha", "beta", "gamma", "delta", "tau")])
):
    """Slopes and offsets of the two pieces, plus the floor shift tau."""

    __slots__ = ()

    def __new__(cls, alpha, beta, gamma, delta, tau):
        self = super().__new__(cls, *map(Fraction, (alpha, beta, gamma, delta, tau)))
        if not (0 <= self.tau < 2):
            raise ValueError(f"tau must lie in [0, 2), got {self.tau}")
        return self

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make, so a changed copy is checked too
        return cls(*iterable)


class _MapFields(NamedTuple):
    name: str
    params: PhiParams
    branch_rule: BranchRule
    domain_min: Fraction | None = None
    integral: bool = False  # domain restricted to integers


class MapSpec(_MapFields):
    """A map's fields, and its step on reduced pairs, built on first use and kept in the instance."""

    def __getstate__(self):
        # the fields travel as the tuple; the cached step_pq is a closure, which pickle cannot send
        return {}

    @cached_property
    def step_pq(self) -> Callable[[int, int], tuple[int, int, int]]:
        """The map on a reduced pair: (p, q) with q > 0 goes to (p', q', bit).

        The domain is checked first (integers only, odd denominator, minimum),
        each failure a DomainError naming x = p/q.  The bit is floor(x + tau)
        mod 2, or the numerator parity.
        Each piece is stored once per map as integers (a, b, e) with e > 0,
        so that its image of p/q is (a*p + b*q) / (e*q).  Since gcd(p, q) = 1,
        gcd(a*p + b*q, q) = gcd(a, q): the common factor of the image divides
        e*gcd(a, q), a small number, and dividing it out leaves (p', q')
        reduced with q' > 0 again.

        A floor-parity map that is not integral, with an integer tau, an
        integer minimum mn or none, and pieces with a in {1, 3} and e a power
        of two gets the shaped step.  One floor f = p // q gives the domain
        check (x >= mn iff f >= mn, since mn is an integer) and the bit
        (f + tau) mod 2, and the common factor is found with no gcd.  Its odd
        part is gcd(a, q), since e has none: 3 when a = 3 and 3 | q (and then
        3 divides 3p + b*q), else 1.  Its 2-part is the lowest set bit of
        num | e*q, where num = a*p + b*q.  A zero image needs no case of its
        own: a*p = -b*q with gcd(p, q) = 1 makes q divide a, so once the 3 is
        out the denominator is e, whose 2-part leaves (0, 1).  Every other
        map gets the generic step, whose floor is (p*td + tn*q) // (q*td)
        for tau = tn/td and whose common factor takes two gcd calls.
        """
        return _shaped_step_pq(self) or _generic_step_pq(self)


def _shaped_step_pq(m: MapSpec) -> Callable[[int, int], tuple[int, int, int]] | None:
    """m's step in the shaped form (see MapSpec.step_pq), or None when m lacks the shape."""
    pieces = _pieces(m.params)
    tau, lo = m.params.tau, m.domain_min
    if not (
        m.branch_rule is BranchRule.FLOOR_PARITY
        and tau.denominator == 1
        and not m.integral
        and (lo is None or lo.denominator == 1)
        and all(a in (1, 3) and not e & (e - 1) for a, _b, e in pieces)
    ):
        return None
    name, mn = m.name, None if lo is None else lo.numerator
    by_floor = []  # per floor parity: (a, b, k) with e = 2^k, whether a = 3, and the bit
    for parity in (0, 1):
        bit = (parity + tau.numerator) & 1
        a, b, e = pieces[bit]
        by_floor.append((a, b, e.bit_length() - 1, a == 3, bit))

    def step_pq(p: int, q: int) -> tuple[int, int, int]:
        f = p // q
        if mn is not None and f < mn:
            raise DomainError(f"{name} is defined for x >= {lo}, got {Fraction(p, q)}")
        a, b, k, three, bit = by_floor[f & 1]
        num = a * p + b * q
        den = q << k
        if three and not q % 3:
            num //= 3
            den //= 3
        low = num | den
        if low & 1:
            return num, den, bit
        low &= -low  # 2^min(v2(num), v2(den))
        return num // low, den // low, bit

    return step_pq


def _generic_step_pq(m: MapSpec) -> Callable[[int, int], tuple[int, int, int]]:
    """m's step for any map: one general floor and two gcd calls (see MapSpec.step_pq)."""
    pieces = _pieces(m.params)
    tn, td = m.params.tau.numerator, m.params.tau.denominator
    floor_rule = m.branch_rule is BranchRule.FLOOR_PARITY
    lo = m.domain_min
    mn, md = (None, None) if lo is None else (lo.numerator, lo.denominator)
    name, integral = m.name, m.integral

    def step_pq(p: int, q: int) -> tuple[int, int, int]:
        if integral and q != 1:
            raise DomainError(f"{name} is defined on integers only, got {Fraction(p, q)}")
        if not floor_rule and not q & 1:
            raise DomainError(f"{name} needs an odd reduced denominator, got {Fraction(p, q)}")
        if mn is not None and p * md < mn * q:
            raise DomainError(f"{name} is defined for x >= {lo}, got {Fraction(p, q)}")
        bit = ((p * td + tn * q) // (q * td)) & 1 if floor_rule else p & 1
        a, b, e = pieces[bit]
        num = a * p + b * q
        g = gcd(num, e * gcd(a, q))
        return num // g, e * q // g, bit

    return step_pq


def _pieces(par: PhiParams) -> tuple[tuple[int, int, int], ...]:
    """Each piece slope*x + offset as (a, b, e) in lowest terms with e > 0, so that it is (a*x + b) / e."""
    pieces = []
    for slope, offset in ((par.alpha, par.beta), (par.gamma, par.delta)):
        a = slope.numerator * offset.denominator
        b = offset.numerator * slope.denominator
        e = slope.denominator * offset.denominator
        g = gcd(a, b, e)
        pieces.append((a // g, b // g, e // g))
    return tuple(pieces)


def step(m: MapSpec, x: Fraction) -> tuple[Fraction, int]:
    """One application of m; returns (image, branch bit).

    This is the Fraction view of MapSpec.step_pq.  Domain membership is
    checked lazily per step: an orbit that leaves the domain surfaces as a
    DomainError on its next step.
    """
    x = Fraction(x)
    p, q, bit = m.step_pq(x.numerator, x.denominator)
    return Fraction(p, q), bit


# ---------------------------------------------------------------- named maps

HALF = Fraction(1, 2)
THREE_HALVES = Fraction(3, 2)

MAPS: dict[str, MapSpec] = {
    "T": MapSpec(
        "T",
        PhiParams(HALF, 0, THREE_HALVES, HALF, 0),
        BranchRule.NUMERATOR_PARITY,
        domain_min=Fraction(1),
        integral=True,
    ),
    "f": MapSpec(
        "f",
        PhiParams(HALF, 0, Fraction(3), Fraction(1), 0),
        BranchRule.NUMERATOR_PARITY,
        domain_min=Fraction(1),
        integral=True,
    ),
    "g": MapSpec(
        "g",
        PhiParams(HALF, 0, THREE_HALVES, HALF, 0),
        BranchRule.NUMERATOR_PARITY,
    ),
    "U": MapSpec(
        "U",
        PhiParams(HALF, 0, THREE_HALVES, HALF, 0),
        BranchRule.FLOOR_PARITY,
        domain_min=Fraction(1),
    ),
    "Uflip": MapSpec(
        # tau = 1 swaps the branches: the multiplying piece runs on even floors.
        "Uflip",
        PhiParams(HALF, 0, THREE_HALVES, HALF, 1),
        BranchRule.FLOOR_PARITY,
        domain_min=Fraction(0),
    ),
    "F": MapSpec(
        "F",
        PhiParams(HALF, 0, Fraction(3), Fraction(1), 0),
        BranchRule.FLOOR_PARITY,
        domain_min=Fraction(1),
    ),
    "V": MapSpec(
        "V",
        PhiParams(HALF, 0, THREE_HALVES, 0, 0),
        BranchRule.FLOOR_PARITY,
        domain_min=Fraction(1),
    ),
}


def map_from_name(text: str) -> MapSpec:
    """Resolve a map name: one of T,f,g,U,Uflip,F,V or 'Phi:a,b,c,d,tau[,min]'.

    A bare Phi instance dispatches on floor parity and is unbounded below
    unless the optional sixth field pins a domain minimum.
    """
    name = text.strip()
    if name in MAPS:
        return MAPS[name]
    if name.startswith("Phi:"):
        fields = name[len("Phi:") :].split(",")
        if len(fields) not in (5, 6):
            raise ValueError(f"Phi wants 5 or 6 comma-separated rationals: {text!r}")
        vals = [parse_rational(f) for f in fields]
        dom = vals[5] if len(vals) == 6 else None
        return MapSpec("Phi", PhiParams(*vals[:5]), BranchRule.FLOOR_PARITY, dom)
    raise ValueError(f"unknown map name: {text!r}")


# ----------------------------------------------------- forced-branch algebra


def affine_offset(bits) -> int:
    """Offset accumulated by the multiplying branches of T along bits.

    For bits s_1..s_l this is sum over j of s_j * 2^(j-1) * 3^(ones after j);
    the composed walk is then x -> (3^n x + offset) / 2^l.
    """
    bits = tuple(bits)
    if not bits or not {0, 1}.issuperset(bits):
        raise ValueError(f"bits must be a nonempty 0/1 sequence, got {bits!r}")
    total = 0
    pow3 = 1  # 3^(ones after j)
    for j in range(len(bits) - 1, -1, -1):
        if bits[j]:
            total += pow3 << j
            pow3 *= 3
    return total


def compose_affine(bits) -> tuple[int, int, int]:
    """Compose the branch chain given by bits into (3^n, 2^l, offset)."""
    bits = tuple(bits)
    offset = affine_offset(bits)
    return 3 ** sum(bits), 1 << len(bits), offset


def apply_affine(triple: tuple[int, int, int], x: Fraction) -> Fraction:
    """Evaluate (3^n x + offset) / 2^l exactly."""
    num, den, off = triple
    return (num * Fraction(x) + off) / den
