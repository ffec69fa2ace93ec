"""Parsing, g's odd-denominator closure, and the exact power comparator."""

import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from real3x1.maps import MAPS, step
from real3x1.rationals import compare_pow3_pow2, format_rational, parse_rational


def test_parse_format_roundtrip():
    for text in ("3/2", "-10", "0", "19/5", "-7/3"):
        assert format_rational(parse_rational(text)) == text
    assert format_rational(parse_rational("+7/3")) == "7/3"
    assert format_rational(parse_rational("6/4")) == "3/2"
    assert format_rational(Fraction(4, 1)) == "4"


@given(
    st.integers(min_value=-(10**30), max_value=10**30).filter(bool),
    st.integers(min_value=4301, max_value=6000),
    st.integers(min_value=1, max_value=10**30),
    st.booleans(),
)
def test_long_values_round_trip(head, digits, den, long_den):
    """Values past the 4300-digit int/str limit print and parse back exactly."""
    x = Fraction(head * 10**digits + 7, den * 11**digits if long_den else den)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert parse_rational(format_rational(x)) == x
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("bad", ["1.5", "3/0", "a", "", "1/-2", "1 /2", "1e3"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


odd_denom = st.builds(
    Fraction,
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=0, max_value=10**5).map(lambda k: 2 * k + 1),
)


@given(odd_denom)
def test_q2_closure(r):
    """Halving an even element or mapping an odd one stays in the odd-denominator field."""
    image, _bit = step(MAPS["g"], r)
    assert image.denominator % 2 == 1, f"left the odd-denominator rationals: {r} -> {image}"


def test_compare_pow_frozen():
    assert compare_pow3_pow2(0, 0) == 0
    assert compare_pow3_pow2(1, 1) == 1  # 3 > 2
    assert compare_pow3_pow2(1, 2) == -1  # 3 < 4
    assert compare_pow3_pow2(2, 3) == 1  # 9 > 8
    assert compare_pow3_pow2(12, 19) == 1  # 531441 > 524288
    assert compare_pow3_pow2(19, 31) == -1
    for n, l in ((-1, 0), (0, -2)):
        with pytest.raises(ValueError):
            compare_pow3_pow2(n, l)


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=200))
def test_compare_pow_against_decimal(n, l):
    """Sixty-digit logarithms agree with the integer comparison everywhere."""
    got = compare_pow3_pow2(n, l)
    if n == l == 0:
        assert got == 0
        return
    with localcontext() as ctx:
        ctx.prec = 60
        diff = n * Decimal(3).ln() - l * Decimal(2).ln()
    want = 0 if diff == 0 else (1 if diff > 0 else -1)
    assert got == want, f"3^{n} vs 2^{l}: exact {got}, Decimal {want}"
