"""Arbitrary-precision rational type: the stdlib Fraction.

It exposes .numerator/.denominator and normalizes on construction:
gcd(|num|, den) == 1, den > 0, zero is 0/1.
"""

from fractions import Fraction

Rat = Fraction
RAT_BACKEND = "fractions"

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)
