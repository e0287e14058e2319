"""Arbitrary-precision rational type: the stdlib Fraction.

It exposes .numerator/.denominator and normalizes on construction:
gcd(|num|, den) == 1, den > 0, zero is 0/1.
"""

from fractions import Fraction

Rat = Fraction
RAT_BACKEND = "fractions"

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)


def rat_str(q) -> str:
    """Canonical decimal-digit string: 'n' or 'n/d'."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
