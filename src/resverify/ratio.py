"""Coefficient numbers: int, and the stdlib Fraction as Rat.

Integers stay int, and `quotient` is the one coefficient division:
`int / int` would give a float.  A Rat normalizes on construction:
gcd(|num|, den) == 1, den > 0, zero is 0/1.
"""

from fractions import Fraction

Rat = Fraction
RAT_BACKEND = "fractions"


def quotient(a, b):
    """Exact a / b of int or Rat coefficients: an int when integral."""
    if type(a) is int and type(b) is int:
        q, rest = divmod(a, b)
        return Rat(a, b) if rest else q
    q = a / b
    return q.numerator if q.denominator == 1 else q
