"""Seeded sampling: reproducibility and range guarantees."""

import random
from fractions import Fraction

import pytest

from real3x1.sampling import draw_integers, draw_rationals, sample_rationals


def test_same_seed_same_samples():
    a = sample_rationals(random.Random(7), 50)
    b = sample_rationals(random.Random(7), 50)
    assert a == b
    c = sample_rationals(random.Random(8), 50)
    assert a != c


def test_value_bounds():
    xs = sample_rationals(random.Random(1), 500, den_bits=8, value_bits=6)
    assert len(xs) == 500
    for x in xs:
        assert 1 <= x < 64
        assert x.denominator < 256


def test_minimum_respected():
    lo = Fraction(5, 3)
    xs = sample_rationals(random.Random(2), 300, den_bits=6, value_bits=4, minimum=lo)
    assert all(lo <= x < 16 for x in xs)
    assert min(xs) < 2  # the range floor really is reachable


def test_zero_count_and_validation():
    assert sample_rationals(random.Random(0), 0) == []
    assert list(draw_integers(random.Random(0), 0)) == []
    with pytest.raises(ValueError):
        sample_rationals(random.Random(0), -1)
    with pytest.raises(ValueError):
        sample_rationals(random.Random(0), 1, den_bits=0)
    with pytest.raises(ValueError):
        sample_rationals(random.Random(0), 1, value_bits=4, minimum=Fraction(16))
    with pytest.raises(ValueError, match="empty sample range"):
        list(draw_integers(random.Random(0), 1, value_bits=4, minimum=16))
    with pytest.raises(ValueError, match="count must be >= 0"):
        list(draw_integers(random.Random(0), -1))


def test_integer_variant():
    a = list(draw_integers(random.Random(9), 200, value_bits=10, minimum=3))
    b = list(draw_integers(random.Random(9), 200, value_bits=10, minimum=3))
    assert a == b
    assert all(3 <= n < 1024 for n in a)


def test_draws_are_taken_one_at_a_time():
    """draw_* check their arguments at the call, draw nothing until a value is taken,
    and then draw the same stream as a list of all their draws."""
    for draw, sample, args in (
        (draw_rationals, sample_rationals, (50, 32, 16, Fraction(1, 3))),
        (draw_integers, lambda rng, *args: list(draw_integers(rng, *args)), (50, 12, 3)),
    ):
        rng = random.Random(7)
        state = rng.getstate()
        draws = draw(rng, *args)
        assert rng.getstate() == state
        first = next(draws)
        assert rng.getstate() != state
        assert [first, *draws] == sample(random.Random(7), *args)
    with pytest.raises(ValueError, match="empty sample range"):
        draw_rationals(random.Random(0), 1, value_bits=4, minimum=Fraction(16))
    with pytest.raises(ValueError, match="empty sample range"):
        draw_integers(random.Random(0), 1, value_bits=4, minimum=16)
