"""Seeded random rationals and integers for evidence sweeps.

Sampling is driven by a caller-owned random.Random so that every run of a
conjecture command is reproducible from its seed alone.  Values are exact
Fractions; den_bits / value_bits bound the sizes before reduction.  The
draw_* functions check their arguments at the call and then draw one value
per item taken, so a caller that takes them as it goes holds one at a time;
sample_rationals takes its draws all into a list.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from fractions import Fraction


def draw_rationals(
    rng: random.Random,
    count: int,
    den_bits: int = 32,
    value_bits: int = 16,
    minimum: Fraction = Fraction(1),
) -> Iterator[Fraction]:
    """count Fractions x with minimum <= x < 2**value_bits, drawn as they are taken.

    Denominators are drawn below 2**den_bits; the numerator range is scaled
    by the drawn denominator so the value bound holds regardless of reduction.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if den_bits < 1 or value_bits < 1:
        raise ValueError("den_bits and value_bits must be >= 1")
    minimum = Fraction(minimum)
    hi = 1 << value_bits
    if minimum >= hi:
        raise ValueError(f"empty sample range: minimum {minimum} >= 2**{value_bits}")

    def draws():
        for _ in range(count):
            q = rng.randrange(1, 1 << den_bits)
            # smallest integer p with p/q >= minimum
            p_lo = -((-minimum.numerator * q) // minimum.denominator)
            yield Fraction(rng.randrange(p_lo, hi * q), q)

    return draws()


def draw_integers(
    rng: random.Random,
    count: int,
    value_bits: int = 16,
    minimum: int = 1,
) -> Iterator[int]:
    """count integers n with minimum <= n < 2**value_bits, drawn as they are taken."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    hi = 1 << value_bits
    if minimum >= hi:
        raise ValueError(f"empty sample range: minimum {minimum} >= 2**{value_bits}")
    return (rng.randrange(minimum, hi) for _ in range(count))


def sample_rationals(
    rng: random.Random,
    count: int,
    den_bits: int = 32,
    value_bits: int = 16,
    minimum: Fraction = Fraction(1),
) -> list[Fraction]:
    """The draws of draw_rationals as one list."""
    return list(draw_rationals(rng, count, den_bits, value_bits, minimum))

