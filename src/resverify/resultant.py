"""Elimination algorithms: resultants (fraction-free Bareiss and
evaluation-interpolation paths) and subresultant-PRS gcd.

Sign convention: the Sylvester determinant with the rows of the first
argument on top.  `resultant` takes the fraction-free Bareiss
determinant (`bareiss_det`) of a Bezout-type matrix of size max(da, db),
which has that determinant exactly (`_bezout_rows`), for constant and
symbolic coefficients alike; `resultant_interp` samples the inputs, or
their dehomogenisation, at the nodes +-1, +-2, ... over an exponent
range read off the Newton polygons of the columns, and takes each sample
by the subresultant PRS (`kernels.resultant_int`), which computes it
for the formal degrees; `sylvester` builds the Sylvester matrix itself.
Rational content of the inputs is cleared before the determinant and
reapplied as leading-coefficient-power bookkeeping, so the returned
value is exactly the textbook resultant of the inputs.
"""

from __future__ import annotations

import math
import time

from . import kernels
from .poly import (VAR_INDEX, MultiPoly, _content_in, _prs_gcd, decode_key,
                   horner)
from .ratio import Rat


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
    degrees m >= n >= 1: m rows of length m, ascending columns, whose
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
    rows of a past the da rows of b in S."""
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


def bareiss_det(rows: list[list[MultiPoly]]) -> MultiPoly:
    """Exact determinant of a square MultiPoly matrix, fraction-free."""
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


def resultant(a: MultiPoly, b: MultiPoly, var: str) -> MultiPoly:
    """Textbook resultant of a and b w.r.t. var (Bareiss determinant)."""
    if a.is_zero() or b.is_zero():
        raise ZeroInput("resultant of a zero polynomial")
    da, db = a.degree(var), b.degree(var)
    if da == 0 and db == 0:
        return MultiPoly.const(1)
    if da == 0:
        return a ** db
    if db == 0:
        return b ** da
    cont_a, prim_a = a.primitive()
    cont_b, prim_b = b.primitive()
    factor = cont_a ** db * cont_b ** da
    a_coeffs = prim_a.coefficients_in(var)
    b_coeffs = prim_b.coefficients_in(var)
    if da < db:
        a_coeffs, b_coeffs = b_coeffs, a_coeffs
        factor *= (-1) ** (da * db)
    rows = _bezout_rows(a_coeffs, b_coeffs, MultiPoly.zero())
    return bareiss_det(rows) * factor


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
    degrees len(a) - 1, len(b) - 1 >= 1 whose columns have the degrees
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


def _int_terms(p: MultiPoly, var: str,
               spectator: str) -> tuple[Rat, list[tuple[int, int, int]]]:
    """(content, terms): p = content * sum of c*var^i*spectator^j over
    the terms (i, j, c), integers c with gcd 1."""
    nums, den = p.cleared()
    g = math.gcd(*nums.values())
    iv, js = VAR_INDEX[var], VAR_INDEX[spectator]
    terms = []
    for key, co in nums.items():
        exps = decode_key(key)
        terms.append((exps[iv], exps[js], co // g))
    return Rat(g, den), terms


def resultant_interp(a: MultiPoly, b: MultiPoly, var: str, spectator: str,
                     deadline: float | None = None) -> MultiPoly:
    """resultant(a, b, var) for bivariate inputs in (v, s) = (var,
    spectator), by sampling one variable at integers, taking each integer
    resultant by the subresultant PRS (`kernels.resultant_int`) and
    interpolating in integers.  One extra sample is checked as a
    consistency guard.

    Encoding.  Let A, B be the largest total degrees of the primitive
    inputs' terms, da, db their v-degrees, and step >= 1 the gcd of
    A - d and B - d over the terms' total degrees d (1 if all are 0).
    With a = sum c_ij v^i s^j, a(t*y, t) = t^A * a~(y, t^-step) for
    a~(y, w) = sum c_ij y^i w^((A-i-j)/step), likewise b~ with B.
    Res_y(f(t*y), g(t*y)) = t^(da*db)*Res_v(f, g) and the scalings t^A,
    t^B give Res_v(a, b)(t) = t^top * Res_y(a~, b~)(t^-step) with
    top = A*db + B*da - da*db: the coefficient of w^e is that of
    s^(top - step*e), and every exponent of Res is congruent to top mod
    step.  The columns (the coefficients of v^i, or of y^i) are sampled
    in s, at x = t^step, when step is odd and their largest s-degree is
    below their largest w-degree; else in w, at x = w.  Both take the
    same number of samples, and the lower column degree gives the
    smaller sample inputs: sampled in w (degree 19 against 11), the
    z-pairs of `appendix-c-leading` ran 16% slower.  The nodes are
    t = 1, -1, 2, -2, ..., on which x = t^stride is injective: the
    stride is 1 in w and the odd step in s.

    Range (`_newton_range`, on the sampled columns a_0..a_m, b_0..b_n,
    polynomials in one variable, m = da, n = db; a_m and b_n are
    nonzero, since they hold the terms of v-degree da and db).  If
    a_0 = b_0 = 0, v (or y) divides both and the determinant is
    identically zero.  Otherwise, over the Puiseux series at infinity,
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
    polynomials), so they are the degree and order of such a resultant:
    in s, lo and hi lie in the class of top mod step, and in w they are
    the images (top - hi)/step, (top - lo)/step of the bounds in s.
    The samples give values det / t^lo, an exact integer division, and
    (hi - lo) / stride + 1 coefficients.  Every t is a valid sample:
    `kernels.resultant_int` returns the Sylvester determinant of the
    formal degrees da, db, so the value is Res(t) also where a leading
    coefficient vanishes at t (Collins 1971).  Res has integer
    coefficients, so Newton interpolation at the integer nodes runs in
    integers with exact divisions.  A structural zero takes the guard
    sample alone, which must vanish.  For the sweep pair in k at
    c = +-1 that is f-exponents 25..107 in steps of 2, sampled in w of
    degree at most 4 (f-degree 12): 42 coefficients and the guard, each
    a resultant of formal degrees 8 and 11; in f every case is a
    structural zero (f divides H and K), one resultant of formal degrees
    9 and 12 whose constant coefficients both vanish.

    deadline is an optional time.monotonic() timestamp; crossing it
    between samples raises ComputationTimeout."""
    if spectator == var:
        raise ValueError(f"the spectator must differ from {var!r}")
    if a.is_zero() or b.is_zero():
        raise ZeroInput("resultant of a zero polynomial")
    extra = (a.vars_used() | b.vars_used()) - {var, spectator}
    if extra:
        raise ValueError(f"inputs must be polynomials in {{{var}, {spectator}}}; "
                         f"also saw {sorted(extra)}")
    da, db = a.degree(var), b.degree(var)
    if da == 0 or db == 0:
        return resultant(a, b, var)
    cont_a, terms_a = _int_terms(a, var, spectator)
    cont_b, terms_b = _int_terms(b, var, spectator)
    factor = cont_a ** db * cont_b ** da
    degs_a = {i + j for i, j, _ in terms_a}
    degs_b = {i + j for i, j, _ in terms_b}
    big_a, big_b = max(degs_a), max(degs_b)
    step = math.gcd(*(big_a - d for d in degs_a),
                    *(big_b - d for d in degs_b)) or 1
    top = big_a * db + big_b * da - da * db
    w_deg = max(big_a - min(degs_a), big_b - min(degs_b)) // step
    s_deg = max(j for _, j, _ in terms_a + terms_b)
    in_w = w_deg <= s_deg or not step & 1
    width = (w_deg if in_w else s_deg) + 1

    def columns(terms, big, deg):
        cols = [[0] * width for _ in range(deg + 1)]
        for i, j, co in terms:
            cols[i][(big - i - j) // step if in_w else j] = co
        return cols

    acols, bcols = columns(terms_a, big_a, da), columns(terms_b, big_b, db)
    stride = 1 if in_w else step
    span = _newton_range(acols, bcols)
    if span is None:
        low, count = 0, 0  # structural zero: only the guard sample
    else:
        low, high = span
        count = (high - low) // stride + 1
    nodes = [(i // 2 + 1) * (-1) ** i for i in range(count + 1)]

    xs: list[int] = []
    ys: list[int] = []
    for t in nodes:  # count coefficients, +1 consistency guard
        if deadline is not None and time.monotonic() > deadline:
            raise ComputationTimeout("per-case deadline expired")
        value, rest = divmod(
            kernels.resultant_int([horner(col, t) for col in acols],
                                  [horner(col, t) for col in bcols]),
            t ** low)
        if rest:
            raise ArithmeticError(f"sample at {t} not divisible by {t}^{low}")
        xs.append(t ** stride)
        ys.append(value)

    coeffs = _newton_interpolate(xs[:-1], ys[:-1]) if count else [0]
    if horner(coeffs, xs[-1]) != ys[-1]:
        raise ArithmeticError("interpolation guard sample mismatch")
    # coefficient i multiplies w^(low + i) = s^(top - step*(low + i)),
    # or s^(low + step*i)
    first, gap = (top - step * low, -step) if in_w else (low, step)
    js = VAR_INDEX[spectator]
    return MultiPoly({(0,) * js + (first + gap * i,): factor * co
                      for i, co in enumerate(coeffs) if co})


def gcd_subresultant(a: MultiPoly, b: MultiPoly, var: str) -> MultiPoly:
    """Primitive gcd w.r.t. var; content over the remaining variables is
    handled recursively and stripped from the result."""
    if a.is_zero() or b.is_zero():
        raise ZeroInput("gcd of a zero polynomial")
    if a.degree(var) == 0 or b.degree(var) == 0:
        return MultiPoly.const(1)
    pp_a = a.exact_div(_content_in(a, var))
    pp_b = b.exact_div(_content_in(b, var))
    return _prs_gcd(pp_a, pp_b, var)
