"""Elimination algorithms: resultants (symbolic determinant and
evaluation-interpolation paths) and subresultant-PRS gcd.

Sign convention: the Sylvester determinant with the rows of the first
argument on top.  `resultant` takes the determinant of a Bezout-type
matrix of size n = max(da, db), which has that determinant exactly
(`_bezout_rows`), for constant and symbolic coefficients alike.  Up to
n = 4 (_MINOR_DET_MAX) it expands the matrix by minors (`_minor_det`):
n*2^(n-1) - n products, each of an entry by a minor, and no division.
Fraction-free Bareiss elimination (`bareiss_det`) takes
2*(1^2 + ... + (n-1)^2) products of a minor by a minor and divides each
new entry exactly by the previous pivot: 9 against 10 products at
n = 3, 28 against 28 at n = 4, 75 against 60 at n = 5.  So expansion
never does more work up to n = 4, and Bareiss takes every larger
matrix, where expansion grows as 2^n.  `res-pq` (P and Q, cubics in k)
is n = 3.  `resultant(..., truncate=(name, n))` takes the determinant
mod name^(n+1): the minors take only truncated products
(`MultiPoly.mul_truncated`), and Bareiss, which divides, takes the
determinant of the cut rows and cuts it.  For P and Q mod f^4 that is
18 full Bezout-row products of 1,524 term pairs and 9 truncated minor
products of 3,160, against 27 products of 16,448 pairs for the whole
resultant.  The other routes take integer resultants by the
subresultant PRS (`kernels.resultant_int`), which computes the
Sylvester determinant of the formal degrees.  `resultant_at` takes
one, at an integer point of the other variables; `resultant_interp`
takes one per sample of the dehomogenised inputs at the nodes
+-1, +-2, ..., over an exponent range read off the Newton polygons of
the columns, less the degree of a divisor of the resultant that the
caller has proved (each sample is divided by its value);
`resultant_top` takes one of the columns cut mod t^count
and packed at t = 2^bits, and reads a bivariate resultant's top
coefficients off its digits.  `sylvester` builds the Sylvester matrix
itself.
Formal degree 0 takes the same routes: a diagonal or empty Bezout
matrix, and f_0^n or g_0^m from the PRS.
Rational content of the inputs is cleared before the determinant and
reapplied as leading-coefficient-power bookkeeping, so the returned
value is exactly the textbook resultant of the inputs.
"""

from __future__ import annotations

import itertools
import math
import time

from . import kernels
from .poly import VAR_INDEX, MultiPoly, _content_in, _prs_gcd, _rat, horner


class ZeroInput(ValueError):
    """Resultant/gcd of a zero polynomial is rejected, not silently 0."""


class BothConstant(ValueError):
    """Sylvester matrix of two polynomials free of the variable."""


class ComputationTimeout(RuntimeError):
    """A cooperative deadline expired mid-computation."""


def _sylvester_rows(a_coeffs: list, b_coeffs: list, zero) -> list[list]:
    """Shifted coefficient rows from ascending coefficient lists: deg(b)
    rows of a on top, then deg(a) rows of b, padded with zero."""
    da, db = len(a_coeffs) - 1, len(b_coeffs) - 1
    dim = da + db
    rows = []
    for coeffs, count in ((a_coeffs, db), (b_coeffs, da)):
        top = coeffs[::-1]
        for i in range(count):
            row = [zero] * dim
            row[i:i + len(top)] = top
            rows.append(row)
    return rows


def _bezout_rows(f: list, g: list, zero) -> list[list]:
    """Bezout-type rows from ascending coefficient lists f, g of formal
    degrees m >= n >= 0: m rows of length m, ascending columns, whose
    determinant is the Sylvester determinant of (f, g), sign included.

    The rows are x^i*g for i < m - n, then for k = 1..n the coefficients
    of B_k = F_k*x^(m-n)*g - G_k*f, where F_k = f_m x^(k-1) + ... +
    f_(m-k+1) and G_k = g_n x^(k-1) + ... + g_(n-k+1) hold the top k
    coefficients of f and g.  With f = F_k*x^(m-k+1) + f' and
    g = G_k*x^(n-k+1) + g', B_k = F_k*x^(m-n)*g' - G_k*f' has degree < m.
    One pass builds them: B_k = x*B_(k-1) + f_(m-k+1)*x^(m-n)*g
    - g_(n-k+1)*f, whose x^m terms cancel.

    Proof.  Let S be the Sylvester matrix (rows x^(n-1)*f, ..., f, then
    x^(m-1)*g, ..., g; columns x^(m+n-1), ..., 1) and S' = T*S the matrix
    with the row x^(m-n+k-1)*g replaced by B_k for k = 1..n.  B_k is f_m
    times that row plus multiples of the rows x^j*g, j < m-n+k-1, and
    x^j*f, j < k, so T is the identity on the f rows and triangular on
    the g rows, with f_m on the diagonal at the n replaced rows:
    det S' = f_m^n * det S.  The g rows of S' have degree < m and the
    f rows are triangular on the first n columns with f_m on the
    diagonal, so det S' = f_m^n * det B', where B' has the rows B_n, ...,
    B_1, x^(m-n-1)*g, ..., g on the columns x^(m-1), ..., 1.  Reversing
    both the rows and the columns of B' keeps its determinant and gives
    B, the rows returned here.  So f_m^n * (det S - det B) = 0 as
    polynomials in the coefficients, and det B = det S identically:
    also where f_m or g_n vanishes.  For formal degrees da < db, swap
    the inputs and multiply by (-1)^(da*db), the sign of moving the db
    rows of a past the da rows of b in S.  For n = 0 the rows are
    diag(g_0), of determinant g_0^m, and for m = n = 0 there are none:
    the empty determinant is 1."""
    m, n = len(f) - 1, len(g) - 1
    shift = m - n
    rows = []
    for i in range(shift):
        row = [zero] * m
        row[i:i + n + 1] = g
        rows.append(row)
    row = [zero] * m
    for k in range(1, n + 1):
        fk, gk = f[m - k + 1], g[n - k + 1]
        row = [zero] + row[:-1]
        for j in range(n):
            row[shift + j] += fk * g[j]
        for j in range(m):
            row[j] -= gk * f[j]
        rows.append(row)
    return rows


def sylvester(a: MultiPoly, b: MultiPoly, var: str) -> list[list[MultiPoly]]:
    """Sylvester matrix rows of (a, b) in var, rows of a on top."""
    if a.is_zero() or b.is_zero():
        raise ZeroInput("Sylvester matrix of a zero polynomial")
    if a.degree(var) == 0 and b.degree(var) == 0:
        raise BothConstant(f"neither input involves {var!r}")
    return _sylvester_rows(a.coefficients_in(var), b.coefficients_in(var),
                           MultiPoly.zero())


# Largest matrix that `resultant` expands by minors (`_minor_det`); the
# operation counts in the module docstring fix it.
_MINOR_DET_MAX = 4


def _minor_det(rows: list[list[MultiPoly]],
               truncate: tuple[str, int] | None = None) -> MultiPoly:
    """Exact determinant of a square MultiPoly matrix by expansion in
    minors, division-free; with truncate = (name, n), that determinant
    mod name^(n+1) (`MultiPoly.truncate`).

    The minors of the leading j columns are kept in a dict keyed by
    their row set (a bitmask); the minor on rows S + {i} and columns
    0..j is expanded along column j as the sum over i of
    (-1)^(rows of S below i) * rows[i][j] * minor(S).  Zero entries and
    zero minors are skipped.  Every product is an entry times a minor,
    n*2^(n-1) - n of them for n rows: fewer than Bareiss's up to n = 4
    and exponentially more above (module docstring).  With truncate, the
    first column is cut and every product is `MultiPoly.mul_truncated`:
    the cut is a ring map, so each minor is the cut minor of the full
    expansion."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        one = MultiPoly.const(1)
        return one.truncate(*truncate) if truncate else one
    first = [row[0].truncate(*truncate) if truncate else row[0] for row in rows]
    minors = {1 << i: entry for i, entry in enumerate(first) if entry}
    for j in range(1, n):
        wider: dict[int, MultiPoly] = {}
        for mask, minor in minors.items():
            for i in range(n):
                bit = 1 << i
                entry = rows[i][j]
                if mask & bit or not entry:
                    continue
                term = (entry.mul_truncated(minor, *truncate) if truncate
                        else entry * minor)
                if (mask >> i).bit_count() % 2:
                    term = -term
                key = mask | bit
                wider[key] = wider[key] + term if key in wider else term
        minors = {mask: minor for mask, minor in wider.items() if minor}
    return minors.get((1 << n) - 1, MultiPoly.zero())


def bareiss_det(rows: list[list[MultiPoly]]) -> MultiPoly:
    """Exact determinant of a square MultiPoly matrix, fraction-free.

    `resultant` takes it for Bezout matrices of more than _MINOR_DET_MAX
    rows, where its 2*sum k^2 products (k < n) and exact divisions by
    the previous pivot cost less than expansion in minors
    (`_minor_det`, n*2^(n-1) - n products, no division); the tests use
    it on Sylvester matrices as the oracle for both routes."""
    n = len(rows)
    if n == 0:
        return MultiPoly.const(1)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    m = [list(row) for row in rows]
    sign = 1
    prev = MultiPoly.const(1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero()
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            row_k = m[k]
            for j in range(k + 1, n):
                num = pivot * row_i[j] - head * row_k[j]
                row_i[j] = num.exact_div(prev)
            row_i[k] = MultiPoly.zero()
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def _primitive_pair(a: MultiPoly, b: MultiPoly, var: str):
    """(da, db, prim_a, prim_b, factor) for the resultant routes: the
    var-degrees, the primitive parts and the content factor
    cont_a^db * cont_b^da, with Res(a, b) = factor * Res(prim_a, prim_b)
    at the formal degrees da, db.  A zero input raises ZeroInput."""
    if a.is_zero() or b.is_zero():
        raise ZeroInput("resultant of a zero polynomial")
    da, db = a.degree(var), b.degree(var)
    (cont_a, prim_a), (cont_b, prim_b) = a.primitive(), b.primitive()
    return da, db, prim_a, prim_b, cont_a ** db * cont_b ** da


def resultant(a: MultiPoly, b: MultiPoly, var: str,
              truncate: tuple[str, int] | None = None) -> MultiPoly:
    """Textbook resultant of a and b w.r.t. var: the determinant of the
    Bezout rows of the primitive parts (`_bezout_rows`, the larger formal
    degree first, with the sign (-1)^(da*db) of the swap), by minors up
    to _MINOR_DET_MAX rows and by Bareiss above (module docstring).
    That determinant has integer coefficients; the content factor is
    applied as a product by its numerator and an exact division by its
    denominator.

    truncate = (name, n) returns resultant(a, b, var).truncate(name, n)
    without forming the terms above name^n.  The cut mod name^(n+1) is a ring map, so it commutes
    with the determinant at the formal degrees, with the Bezout rows
    (polynomials in the coefficients) and with the content factor, a
    constant: the coefficients of the primitive parts are cut, and the
    minors take only truncated products (`_minor_det`).  Bareiss divides,
    so above _MINOR_DET_MAX rows it takes the whole determinant of the
    rows of the cut coefficients and cuts that."""
    da, db, prim_a, prim_b, factor = _primitive_pair(a, b, var)
    f, g = prim_a.coefficients_in(var), prim_b.coefficients_in(var)
    if truncate is not None:
        f, g = ([co.truncate(*truncate) for co in cs] for cs in (f, g))
    if da < db:
        f, g = g, f
        factor *= (-1) ** (da * db)
    rows = _bezout_rows(f, g, MultiPoly.zero())
    if len(rows) > _MINOR_DET_MAX:
        det = bareiss_det(rows)
        if truncate is not None:
            det = det.truncate(*truncate)
    else:
        det = _minor_det(rows, truncate)
    res = det * factor.numerator
    den = factor.denominator
    return res if den == 1 else res.exact_div(MultiPoly.const(den))


def resultant_at(a: MultiPoly, b: MultiPoly, var: str,
                 point: dict[str, int]):
    """The exact value of resultant(a, b, var) at an integer point of the
    other variables (a dict name -> int that assigns each of them; names
    the inputs lack are ignored), with
    no symbolic determinant: one integer resultant of the primitive
    parts' var-coefficients at the point, at the formal degrees
    da = deg_var a and db = deg_var b (`kernels.resultant_int`), times
    cont_a^db * cont_b^da as in `resultant`.

    Proof.  Res_var(a, b) is the Sylvester determinant of the formal
    degrees (da, db), a polynomial in the entries, which are the
    coefficients of a and b in var.  Evaluation at the point is a ring
    homomorphism, so it commutes with the determinant: the value is the
    Sylvester determinant of the evaluated coefficients at the same
    formal degrees, also where a leading coefficient vanishes at the
    point.  `kernels.resultant_int` computes exactly that determinant.
    So a nonzero value proves Res_var(a, b) != 0, which holds exactly
    when a and b share no factor of positive var-degree; a zero value
    proves nothing."""
    da, db, prim_a, prim_b, factor = _primitive_pair(a, b, var)
    missing = (a.vars_used() | b.vars_used()) - {var} - set(point)
    if var in point or missing or any(type(v) is not int for v in point.values()):
        raise ValueError(f"the point must assign an int to each variable of "
                         f"the inputs but {var!r}, and none to {var!r}")

    def values(prim, deg):
        # padded to the formal degree: the value's leading coefficients
        # may vanish at the point
        coeffs = [co.constant_value()
                  for co in prim.at(point).coefficients_in(var)]
        return coeffs + [0] * (deg + 1 - len(coeffs))

    return factor * kernels.resultant_int(values(prim_a, da),
                                          values(prim_b, db))


def _bivariate_pair(a: MultiPoly, b: MultiPoly, var: str, spectator: str):
    """`_primitive_pair` for inputs in {var, spectator} alone."""
    if spectator == var:
        raise ValueError(f"the spectator must differ from {var!r}")
    extra = (a.vars_used() | b.vars_used()) - {var, spectator}
    if extra:
        raise ValueError(f"inputs must be polynomials in {{{var}, {spectator}}}; "
                         f"also saw {sorted(extra)}")
    return _primitive_pair(a, b, var)


def resultant_top(a: MultiPoly, b: MultiPoly, var: str, spectator: str,
                  weight: int, lowest: int) -> tuple[int, list]:
    """(top, coeffs) for inputs in (v, s) = (var, spectator): top bounds
    deg_s Res_v(a, b), and coeffs[e] is the coefficient of s^(top - e) in
    resultant(a, b, var) for e < count = top - lowest + 1, read off one
    integer resultant (`kernels.resultant_int`) of the columns cut below
    t^count and packed at t = 2^bits (Kronecker substitution).

    Reversal.  Let alpha_a be the largest j - weight*i over the terms
    c*v^i*s^j of a, and a^(v, t) = sum c*v^i*t^(alpha_a - j + weight*i),
    in Z[v, t]; likewise b^.  Then a(s^-weight*v, s) = s^alpha_a *
    a^(v, 1/s), and v -> lambda*v multiplies the resultant at the formal
    degrees da, db by lambda^(da*db), so Res_v(a, b)(s) = s^top *
    Res_v(a^, b^)(1/s), top = alpha_a*db + alpha_b*da + weight*da*db:
    deg_s Res <= top, and s^(top - e) has the coefficient
    [t^e] Res_v(a^, b^).  At weight -1, top is that of
    `resultant_interp` and its coefficient the top forms' resultant.

    Packing.  Let S(t) be the Sylvester matrix of the formal degrees
    (da, db) on the columns of a^ and b^ (their coefficients of v^i)
    cut below t^count, and D(t) = det S(t), in Z[t].  The cut is
    reduction mod t^count, a ring map that commutes with the
    determinant, so [t^e] D = [t^e] Res_v(a^, b^) for e < count.
    Evaluation at t = 2^bits followed by reduction mod 2^(bits*count)
    is a ring map Z[t] -> Z/2^(bits*count) that sends t^count to 0, so
    D(2^bits) = sum_(e<count) [t^e] D * 2^(bits*e) mod 2^(bits*count).
    D(2^bits) is the Sylvester determinant of the packed columns at the
    formal degrees, which `kernels.resultant_int` returns also where a
    packed leading column is zero, as it is when every term of that
    column has a t-exponent of count or more.

    Digits.  [t^e] D is a signed sum, over the permutations, of the
    t^e coefficients of products of entries, and the 1-norm (the sum of
    the coefficients' absolute values) is submultiplicative, so
    |[t^e] D| <= perm(N) for N the matrix of the entries' 1-norms.
    N >= 0, so perm(N) <= the product of its row sums, whose expansion
    holds every permutation's product and more.  A row of a holds each
    column of a once: its sum is norm_a, the sum of the absolute values
    of every coefficient kept in a's columns, and likewise norm_b.  So
    |[t^e] D| <= norm_a^db * norm_b^da < 2^(bits - 2).  Each residue
    class mod 2^bits has one balanced digit in
    [-2^(bits-1), 2^(bits-1)), and [t^0] D is the value's; subtracting
    it and shifting by bits leaves sum_(e>0) [t^e] D * 2^(bits*(e-1))
    mod 2^(bits*(count-1)), and so on for each of the count digits.
    Contents are applied as in `resultant`, and an integral coefficient
    is returned as an int."""
    da, db, prim_a, prim_b, factor = _bivariate_pair(a, b, var, spectator)
    terms = [list(p.exponents(var, spectator)) for p in (prim_a, prim_b)]
    alpha = [max(j - weight * i for (i, j), _ in ts) for ts in terms]
    top = alpha[0] * db + alpha[1] * da + weight * da * db
    count = max(top - lowest + 1, 0)
    cols = [[[0] * count for _ in range(deg + 1)] for deg in (da, db)]
    for col, ts, high in zip(cols, terms, alpha):
        for (i, j), co in ts:
            if high - j + weight * i < count:
                col[i][high - j + weight * i] = co
    norm_a, norm_b = (sum(abs(co) for c in col for co in c) for col in cols)
    bits = (norm_a ** db * norm_b ** da).bit_length() + 2
    packed_a, packed_b = ([sum(co << bits * e for e, co in enumerate(c))
                           for c in col] for col in cols)
    value = (kernels.resultant_int(packed_a, packed_b)
             & ((1 << bits * count) - 1))
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    coeffs = []
    for _ in range(count):
        digit = ((value + half) & mask) - half
        coeffs.append(digit)
        value = (value - digit) >> bits
    return top, [_rat(co * factor) for co in coeffs]


def _newton_interpolate(xs: list[int], ys: list[int]) -> list[int]:
    """Ascending integer coefficients of the polynomial through the
    points (xs, ys), for distinct integer nodes and values that lie on a
    polynomial with integer coefficients.  The divided difference of x^j
    over k + 1 nodes is the complete homogeneous symmetric polynomial of
    degree j - k in them, an integer, so every division is exact; a
    nonzero remainder raises ArithmeticError."""
    n = len(xs)
    dd = list(ys)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i], rest = divmod(dd[i] - dd[i - 1], xs[i] - xs[i - level])
            if rest:
                raise ArithmeticError("no integer polynomial fits the samples")
    coeffs = [dd[n - 1]]
    for i in range(n - 2, -1, -1):
        # coeffs <- coeffs*(x - xs[i]) + dd[i]
        coeffs.append(coeffs[-1])
        for j in range(len(coeffs) - 2, 0, -1):
            coeffs[j] = coeffs[j - 1] - coeffs[j] * xs[i]
        coeffs[0] = dd[i] - coeffs[0] * xs[i]
    return coeffs


def _hull(ends: list) -> tuple[int, list[tuple[int, int]]]:
    """(z, segments) for a polynomial in v whose column i (the
    coefficient of v^i) has the exponent ends[i], None for a zero column:
    z is the index of the first nonzero column, the number of roots
    v = 0, and each segment (p, drop) of the upper hull of the points
    (i, ends[i]) holds p roots of valuation drop / p."""
    hull: list[tuple[int, int]] = []
    for i, e in enumerate(ends):
        if e is None:
            continue
        while len(hull) > 1:
            (i0, e0), (i1, e1) = hull[-2], hull[-1]
            if (e1 - e0) * (i - i0) > (e - e0) * (i1 - i0):
                break  # hull[-1] lies above the chord to (i, e)
            hull.pop()
        hull.append((i, e))
    return hull[0][0], [(i1 - i0, e0 - e1)
                        for (i0, e0), (i1, e1) in zip(hull, hull[1:])]


def _degree_bound(a: list, b: list) -> int | None:
    """Upper bound on the degree of the Sylvester determinant of formal
    degrees len(a) - 1, len(b) - 1 >= 0 whose columns have the degrees
    a[i], b[j] (None for a zero column; the leading columns are
    nonzero); None when both constant columns are zero, so that it is
    identically zero.  The proof is in `resultant_interp`."""
    m, n = len(a) - 1, len(b) - 1
    (za, seg_a), (zb, seg_b) = _hull(a), _hull(b)
    if za and zb:
        return None  # v divides both
    acc = n * a[m] + m * b[n]
    acc += za * sum(d for _, d in seg_b) + zb * sum(d for _, d in seg_a)
    for p, dp in seg_a:
        for q, dq in seg_b:
            # p*q root pairs, each of valuation max(dp/p, dq/q)
            acc += q * dp if dp * q >= dq * p else p * dq
    return acc


def _newton_range(acols: list[list[int]],
                  bcols: list[list[int]]) -> tuple[int, int] | None:
    """(lo, hi) with lo <= ord_s det <= deg_s det <= hi for the Sylvester
    determinant of formal degrees len(acols) - 1, len(bcols) - 1 of the
    polynomials in v whose coefficients of v^i (the columns) have the
    ascending coefficient lists acols[i] and bcols[i] in s, the leading
    ones nonzero; None when both constant columns are zero, so that det
    is identically zero.  The order bound is the degree bound of the
    columns at s -> 1/s: negated orders."""
    def ends(cols):
        nonzero = [[e for e, co in enumerate(col) if co] for col in cols]
        return ([e[-1] if e else None for e in nonzero],
                [-e[0] if e else None for e in nonzero])

    (deg_a, neg_a), (deg_b, neg_b) = ends(acols), ends(bcols)
    hi = _degree_bound(deg_a, deg_b)
    if hi is None:
        return None
    return -_degree_bound(neg_a, neg_b), hi


def _in_w(divisor: MultiPoly, spectator: str, step: int) -> list[int]:
    """Ascending coefficients of D~(w), the primitive integer part of
    divisor written in w = s^-step from its top degree h: d_j s^j
    becomes d_j w^((h - j)/step) (`resultant_interp`).  A zero divisor,
    one with a variable other than the spectator s, or with an exponent
    j where step does not divide h - j, raises ValueError."""
    if divisor.is_zero() or divisor.vars_used() - {spectator}:
        raise ValueError(f"the divisor must be a nonzero polynomial in "
                         f"{spectator!r} alone")
    terms = {j: co for (j,), co in divisor.primitive()[1].exponents(spectator)}
    high = max(terms)
    if any((high - j) % step for j in terms):
        raise ValueError(f"the divisor's {spectator!r}-exponents are not "
                         f"{high} minus multiples of {step}")
    coeffs = [0] * ((high - min(terms)) // step + 1)
    for j, co in terms.items():
        coeffs[(high - j) // step] = co
    return coeffs


def resultant_interp(a: MultiPoly, b: MultiPoly, var: str, spectator: str,
                     deadline: float | None = None,
                     divisor: MultiPoly | None = None) -> MultiPoly:
    """resultant(a, b, var) for bivariate inputs in (v, s) = (var,
    spectator), by sampling the dehomogenised inputs at integers, taking
    each integer resultant by the subresultant PRS
    (`kernels.resultant_int`) and interpolating in integers.  One extra
    sample is checked as a consistency guard.

    Encoding.  Let A, B be the largest total degrees of the primitive
    inputs' terms, da, db their v-degrees, and step >= 1 the gcd of
    A - d and B - d over the terms' total degrees d (1 if all are 0).
    At weight -1, `resultant_top` proves Res_v(a, b)(s) =
    s^top * Res_v(a^, b^)(1/s), top = A*db + B*da - da*db, where the
    t-exponents A - i - j of a^ (B - i - j of b^) are multiples of step:
    in w = t^step the coefficient of w^e is that of s^(top - step*e).
    The columns (the coefficients of v^i, polynomials in w) are sampled
    at the nodes w = 1, -1, 2, -2, ....

    Range (`_newton_range`, on the columns a_0..a_m, b_0..b_n,
    polynomials in one variable, m = da, n = db; a_m and b_n are
    nonzero, since they hold the terms of v-degree da and db).  If
    a_0 = b_0 = 0, v divides both and the determinant is identically
    zero.  Otherwise, over the Puiseux series at infinity,
    Res = a_m^n*b_n^m*prod (alpha_i - beta_j) over the roots, and a root
    of degree sigma makes two terms a_i*v^i of the top degree
    deg a_i + i*sigma meet: the root degrees are the negated slopes of
    the upper hull of the points (i, deg a_i), each segment holding as
    many roots as it is wide, and the first nonzero column's index
    counts the roots v = 0 (degree -infinity).  With
    deg(alpha - beta) <= max(deg alpha, deg beta),
    hi = n*deg a_m + m*deg b_n + sum_ij max(sigma_i, tau_j) bounds
    deg Res.  A segment of width p and drop d holds p roots of degree
    d/p, so each pair of segments adds q*d or p*d' by the slopes
    compared by cross-multiplication: hi is an integer, read off in
    O(da*db) integer operations.  The order bound lo is the same bound
    for the series at 0: the degree bound of the negated orders.  Both
    depend only on the columns' supports, and for generic coefficients
    on them no leading term cancels (with sigma = tau, the leading
    coefficients of the two roots are roots of independent face
    polynomials), so they are the degree and order of such a resultant.
    The samples give the values Y(w) = det / w^lo, an exact integer
    division, of count = hi - lo + 1 coefficients.  Every node is a valid
    sample: `kernels.resultant_int` returns the Sylvester determinant of
    the formal degrees da, db, so the value is Res(w) also where a
    leading coefficient vanishes at w (Collins 1971).  Res has integer
    coefficients, so Newton interpolation at the integer nodes runs in
    integers with exact divisions.  A structural zero takes the guard
    sample alone, which must vanish.

    Divisor.  divisor is a nonzero polynomial D in the spectator alone
    that the caller has proved to divide Res_v(a, b); None stands for
    D = 1.  With h = deg_s D, its primitive integer part sum d_j s^j is
    written in w as D~(w) = sum d_j w^((h - j)/step), a ValueError for
    any other variable or unless step divides every h - j.  D~(0) = d_h
    is nonzero, so D~ is prime to w, and D~(t^step) = t^h * D(1/t) is
    the reversal of D.  Reversal is multiplicative: Res = D*C in Q[s]
    gives t^top * Res(1/t) = w^lo * Y(w) = D~(w) * C~(t), with
    C~ = t^(top-h) * C(1/t) in Q[t] as deg C <= top - h.  The remainder
    of w^lo * Y by D~ in Q[w] is then a multiple of D~ in Q[t] of lower
    degree, so zero; D~ is prime to w^lo, so it divides Y in Q[w], and
    in Z[w] by Gauss's lemma, as it is primitive.  So Y = D~ * q with q
    in Z[w] of count - deg D~ coefficients (none where
    count <= deg D~: then Y = 0).  Each sample is divided by
    w^lo * D~(w), exactly or ArithmeticError; a node with D~(w) = 0 is
    skipped, as the sample there reads 0/0 (D~ has at most deg D~
    roots).  q is interpolated, the guard checks q, and D~ * q is
    returned.  The sweep pair in k at c = +-1 has 42 coefficients
    (f^25..f^107, step 2); `sweep` passes D = S^4, of degree 12 in w
    (`sweep._pq_divisor`), so it takes 30 samples and the guard.  In f
    every case is a structural zero, as f divides H and K.

    deadline is an optional time.monotonic() timestamp; crossing it
    between samples raises ComputationTimeout."""
    da, db, prim_a, prim_b, factor = _bivariate_pair(a, b, var, spectator)
    terms_a = list(prim_a.exponents(var, spectator))
    terms_b = list(prim_b.exponents(var, spectator))
    degs_a = {i + j for (i, j), _ in terms_a}
    degs_b = {i + j for (i, j), _ in terms_b}
    big_a, big_b = max(degs_a), max(degs_b)
    step = math.gcd(*(big_a - d for d in degs_a),
                    *(big_b - d for d in degs_b)) or 1
    top = big_a * db + big_b * da - da * db
    width = max(big_a - min(degs_a), big_b - min(degs_b)) // step + 1

    def columns(terms, big, deg):
        cols = [[0] * width for _ in range(deg + 1)]
        for (i, j), co in terms:
            cols[i][(big - i - j) // step] = co
        return cols

    acols, bcols = columns(terms_a, big_a, da), columns(terms_b, big_b, db)
    span = _newton_range(acols, bcols)
    if span is None:
        low, count = 0, 0  # structural zero: only the guard sample
    else:
        low, high = span
        count = high - low + 1
    dcoeffs = [1] if divisor is None else _in_w(divisor, spectator, step)
    wanted = max(count - len(dcoeffs) + 1, 0)  # coefficients of q

    nodes: list[int] = []
    ys: list[int] = []
    for i in itertools.count():  # the coefficients of q, +1 consistency guard
        w = (i // 2 + 1) * (-1) ** i
        dw = horner(dcoeffs, w)
        if not dw:
            continue  # a root of the divisor: the sample is 0/0
        if deadline is not None and time.monotonic() > deadline:
            raise ComputationTimeout("per-case deadline expired")
        value, rest = divmod(
            kernels.resultant_int([horner(col, w) for col in acols],
                                  [horner(col, w) for col in bcols]),
            w ** low * dw)
        if rest:
            raise ArithmeticError(f"sample at {w} not divisible by "
                                  f"{w}^{low} * divisor({w})")
        nodes.append(w)
        ys.append(value)
        if len(ys) > wanted:
            break

    quot = _newton_interpolate(nodes[:-1], ys[:-1]) if wanted else [0]
    if horner(quot, nodes[-1]) != ys[-1]:
        raise ArithmeticError("interpolation guard sample mismatch")
    coeffs = [0] * (len(dcoeffs) + len(quot) - 1)
    for i, d in enumerate(dcoeffs):
        for j, q in enumerate(quot):
            coeffs[i + j] += d * q
    # coefficient i multiplies w^(low + i) = s^(top - step*(low + i))
    js = VAR_INDEX[spectator]
    return MultiPoly({(0,) * js + (top - step * (low + i),): factor * co
                      for i, co in enumerate(coeffs) if co})


def gcd_subresultant(a: MultiPoly, b: MultiPoly, var: str) -> MultiPoly:
    """Primitive gcd w.r.t. var; content over the remaining variables is
    handled recursively and stripped from the result."""
    if a.is_zero() or b.is_zero():
        raise ZeroInput("gcd of a zero polynomial")
    a, b = a.primitive()[1], b.primitive()[1]  # integer coefficients
    pp_a = a.exact_div(_content_in(a, var))
    pp_b = b.exact_div(_content_in(b, var))
    return _prs_gcd(pp_a, pp_b, var)
