"""Arbitrary-precision rational type and integer gcd.

gmpy2 is used when available (several times faster on the coefficient
sizes the elimination sweeps produce); otherwise the stdlib Fraction/int
pair.  Both expose .numerator/.denominator and normalize on
construction: gcd(|num|, den) == 1, den > 0, zero is 0/1.

Set RESVERIFY_NO_GMPY2=1 to force the stdlib types.
"""

import os
from fractions import Fraction

if os.environ.get("RESVERIFY_NO_GMPY2"):
    _HAVE_GMPY2 = False
else:
    try:
        import gmpy2
        _HAVE_GMPY2 = True
    except ImportError:
        _HAVE_GMPY2 = False

if _HAVE_GMPY2:
    Rat = gmpy2.mpq
    RAT_BACKEND = "gmpy2"
else:
    Rat = Fraction
    RAT_BACKEND = "fractions"

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)


def rat_str(q) -> str:
    """Canonical decimal-digit string: 'n' or 'n/d'."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


if _HAVE_GMPY2:
    int_gcd = gmpy2.gcd
else:
    from math import gcd as int_gcd  # noqa: F401  (re-exported)
