"""Kernels for the hot inner loops.

Multivariate polynomials appear here as raw dicts mapping packed
exponent keys (int) to rational/integer coefficients; key addition is
monomial multiplication.  A set guard bit in a key sum means a
per-variable exponent overflowed its field.  The integer kernels take
plain lists: `resultant_int` two ascending univariate coefficient lists
(the samples of `resultant.resultant_interp`, and the one value of
`resultant.resultant_at`), `bareiss_det_int` a
square matrix.  They run on `int` alone, and every division in them is
exact.  `resultant_int` takes each normal step of its subresultant PRS
(degree gap 1) in one pass and one divmod pass.  `bareiss_det_int` has
no library caller: it stays as the tests' determinant oracle and as a
benchmark trace target until the benchmark traces `resultant_int`
instead.  Callers look these functions up as
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


def _exact(num: int, den: int) -> int:
    quot, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"{num} is not a multiple of {den}")
    return quot


def resultant_int(f: list, g: list) -> int:
    """Sylvester determinant of two ascending integer coefficient lists
    of formal degrees m = len(f) - 1 and n = len(g) - 1, rows of f on
    top, by the subresultant PRS (Collins 1967, Brown-Traub 1971; the
    form of Cohen's Algorithm 3.3.7 without content removal).

    A vanishing formal leading coefficient is removed first.  Expanding
    the Sylvester determinant along its first column, whose only
    nonzero entries are f_m (row 1) and g_n (row n + 1), gives
    Res_{m,n} = f_m*Res_{m,n-1} if g_n = 0, and
    Res_{m,n} = (-1)^n*g_n*Res_{m-1,n} if f_m = 0; if both vanish the
    column is zero and so is the determinant.  Res_{m,0} = g_0^m and
    Res_{0,n} = f_0^n (the matrix is diagonal).  If f_0 = g_0 = 0, the
    last column is zero: x divides both, and the result is 0 without a
    PRS (the structural zeros in f of the sweep pair).  With both leading
    coefficients nonzero, Res(f, g) = (-1)^(mn)*Res(g, f) puts the
    larger degree first, and the PRS runs in O(mn) integer operations:
    each remainder is the pseudo-remainder of the last two divided by
    lead*h^delta (lead the previous divisor's leading coefficient, h the
    subresultant scale, delta the degree gap), each division exact (an
    ArithmeticError otherwise), in one divmod pass.  The normal step,
    delta = 1 (every step after the first on the sweep pairs), forms the
    descending pseudo-remainder of a by b, lc = b_0, in one pass:
    lc^2*a_(i+2) - lc*a_0*b_(i+2) - q1*b_(i+1), q1 = lc*a_1 - a_0*b_1,
    b_(db+1) = 0; a larger gap eliminates one leading term at a time.
    A zero remainder before degree 0 means a common factor, and the
    result is 0."""
    m, n = len(f) - 1, len(g) - 1
    scale = 1
    while True:
        if not n:
            return scale * g[0] ** m
        if not m:
            return scale * f[0] ** n
        if f[m] and g[n]:
            break
        if f[m]:
            scale *= f[m]
            n -= 1
        elif g[n]:
            scale *= -g[n] if n & 1 else g[n]
            m -= 1
        else:
            return 0
    if not (f[0] or g[0]):
        return 0
    a, b = f[m::-1], g[n::-1]  # descending, leading coefficient first
    if m < n:
        a, b = b, a
        if m & n & 1:
            scale = -scale
    lead, h = 1, 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            scale = -scale
        # pseudo-remainder lc(b)^(delta+1)*a mod b, divided by den
        lc = b[0]
        den = lead * h ** delta
        if delta == 1:  # the normal step, in one pass
            q1 = lc * a[1] - a[0] * b[1]
            lc2, lq0 = lc * lc, lc * a[0]
            parts = [divmod(lc2 * x - lq0 * y - q1 * w, den)
                     for x, y, w in zip(a[2:], b[2:] + [0], b[1:])]
        else:
            r = list(a)
            for i in range(delta + 1):
                q = r[i]
                r[i + 1:i + 1 + db] = [lc * x - q * y for x, y
                                       in zip(r[i + 1:i + 1 + db], b[1:])]
                r[i + 1 + db:] = [lc * x for x in r[i + 1 + db:]]
            parts = [divmod(x, den) for x in r[delta + 1:]]
        if any(rest for _, rest in parts):
            raise ArithmeticError(f"a remainder is not a multiple of {den}")
        r = [quot for quot, _ in parts]
        top = next((i for i, x in enumerate(r) if x), len(r))
        a, b = b, r[top:]
        lead = a[0]
        if delta:
            h = _exact(lead ** delta, h ** (delta - 1))
        if len(b) <= 1:
            break
    if not b:
        return 0
    da = len(a) - 1
    return scale * _exact(b[0] ** da, h ** (da - 1))
