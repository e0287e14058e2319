"""Kernels for the hot inner loops.

Polynomials appear here as raw dicts mapping packed exponent keys
(int) to rational/integer coefficients; key addition is monomial
multiplication.  A set guard bit in a key sum means a per-variable
exponent overflowed its field.  Callers look these functions up as
attributes of this module (kernels.mul_dicts), so a wrapper set on the
module sees every call.
"""

BACKEND = "python"


class ExponentOverflow(OverflowError):
    """A monomial exponent exceeded the packed-field bound."""


def mul_dicts(a: dict, b: dict, guard: int) -> dict:
    """Sparse product of two key->coeff dicts."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = ka + kb
            if key & guard:
                raise ExponentOverflow("monomial exponent exceeds packed bound")
            if key in out:
                cc = out[key] + ca * cb
                if cc:
                    out[key] = cc
                else:
                    del out[key]
            else:
                out[key] = ca * cb
    return out


def addmul_term(acc: dict, coeff, key: int, b: dict, guard: int) -> None:
    """In-place acc += coeff * x^key * b."""
    for kb, cb in b.items():
        kk = key + kb
        if kk & guard:
            raise ExponentOverflow("monomial exponent exceeds packed bound")
        if kk in acc:
            cc = acc[kk] + coeff * cb
            if cc:
                acc[kk] = cc
            else:
                del acc[kk]
        else:
            acc[kk] = coeff * cb


def bareiss_det_int(rows: list) -> int:
    """Fraction-free determinant of a square integer matrix.

    Every interior division is exact (Bareiss).
    """
    n = len(rows)
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]
