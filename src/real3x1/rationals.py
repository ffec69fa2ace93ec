"""Exact rational helpers: parsing, formatting, power comparisons.

Everything here is integer or Fraction arithmetic; no floats are created or
accepted anywhere.  Fraction already guarantees the invariants the rest of the
package leans on: canonical reduced form, positive denominator, immutability,
arbitrary precision.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' (optional sign, arbitrary-size digits) exactly.

    Decimal notation is rejected on purpose: a decimal literal invites float
    thinking and every interface in this package is exact.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a p/q rational: {text!r}")
    if "/" in s:
        num_text, den_text = s.split("/")
        if int(den_text) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num_text), int(den_text))
    return Fraction(int(s))


def format_rational(x: Fraction) -> str:
    """Canonical text form: 'p/q' reduced, '/q' omitted when q = 1."""
    return str(Fraction(x))


def compare_pow3_pow2(n: int, l: int) -> int:
    """Exact sign of 3^n - 2^l: -1, 0, or +1.

    This is the only comparison the inequality ledgers ever make; n > l*log_3(2)
    is exactly 3^n > 2^l (no nontrivial ties: 3^n = 2^l only at n = l = 0).
    """
    if n < 0 or l < 0:
        raise ValueError(f"negative exponent: n={n}, l={l}")
    a, b = 3**n, 2**l
    return (a > b) - (a < b)
