"""Elimination algorithms: resultants (fraction-free Bareiss and
evaluation-interpolation paths) and subresultant-PRS gcd.

Sign convention: the Sylvester determinant with the rows of the first
argument on top.  The symbolic `resultant` takes the determinant of a
Bezout-type matrix of size max(da, db), which has that determinant
exactly (`_bezout_rows`); `resultant_interp` takes each integer sample
by the subresultant PRS (`kernels.resultant_int`), which computes it
for the formal degrees; `sylvester` builds the Sylvester matrix itself.
Rational content of the inputs is cleared before the determinant and
reapplied as leading-coefficient-power bookkeeping, so the returned
value is exactly the textbook resultant of the inputs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from . import kernels
from .poly import MultiPoly, _content_in, _prs_gcd, horner, int_coeffs
from .ratio import Rat


class ZeroInput(ValueError):
    """Resultant/gcd of a zero polynomial is rejected, not silently 0."""


class BothConstant(ValueError):
    """Sylvester matrix of two polynomials free of the variable."""


class ComputationTimeout(RuntimeError):
    """A cooperative deadline expired mid-computation."""


@dataclass
class GcdResult:
    """Primitive gcd w.r.t. one variable plus the cofactor v-degrees."""

    gcd: MultiPoly
    cofactor_degrees: tuple[int, int]


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
    if all(e.is_constant() for row in rows for e in row):
        det_val = kernels.bareiss_det_int(
            [[e.constant_value().numerator for e in row] for row in rows])
        return MultiPoly.const(Rat(det_val) * factor)
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


def _assignment(cost: list[list[int | None]]) -> int | None:
    """Least total of cost[i][p(i)] over the permutations p that avoid
    the None entries, or None when every permutation meets one (then the
    non-None entries admit no perfect matching).  Kuhn's Hungarian
    method with row and column potentials, O(n^3)."""
    n = len(cost)
    inf = math.inf
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    owner = [0] * (n + 1)  # owner[j]: the row matched to column j, 0 free
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        slack = [inf] * (n + 1)
        used = [False] * (n + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            row = cost[i0 - 1]
            delta, j1 = inf, 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                c = row[j - 1]
                if c is not None and c - u[i0] - v[j] < slack[j]:
                    slack[j] = c - u[i0] - v[j]
                    way[j] = j0
                if slack[j] < delta:
                    delta, j1 = slack[j], j
            if not j1:
                # the rows reached so far meet fewer columns than their
                # number: Frobenius-Koenig
                return None
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    return sum(cost[owner[j] - 1][j - 1] for j in range(1, n + 1))


def _exponent_range(acols: list[list[int]],
                    bcols: list[list[int]]) -> tuple[int, int] | None:
    """(lo, hi) with lo <= ord_s det <= deg_s det <= hi for the Sylvester
    matrix whose entries are the polynomials in s with the ascending
    coefficient lists acols and bcols, read off the entries' lowest and
    highest exponents by optimal matching; None when the nonzero entries
    admit no perfect matching, so that det is identically zero."""
    def ends(cols):
        nonzero = [[e for e, co in enumerate(col) if co] for col in cols]
        return ([e[0] if e else None for e in nonzero],
                [e[-1] if e else None for e in nonzero])

    (lo_a, hi_a), (lo_b, hi_b) = ends(acols), ends(bcols)
    neg_hi = [[None if e is None else -e for e in row]
              for row in _sylvester_rows(hi_a, hi_b, None)]
    top = _assignment(neg_hi)
    if top is None:
        return None
    return _assignment(_sylvester_rows(lo_a, lo_b, None)), -top


def resultant_interp(a: MultiPoly, b: MultiPoly, var: str, spectator: str,
                     deadline: float | None = None) -> MultiPoly:
    """resultant(a, b, var) for bivariate inputs, by evaluating the
    spectator s at integers, taking each integer resultant by the
    subresultant PRS (`kernels.resultant_int`) and interpolating in
    integers.  One extra sample is checked as a consistency guard.

    Only exponents the resultant can hold are sampled.  Range: for the
    Sylvester matrix S, in det S = sum over permutations p of
    sign(p) * prod_i S[i][p(i)], the product along p has s-degree equal
    to the sum of its entries' s-degrees and s-order equal to the sum of
    their orders.  So
    deg_s Res <= hi, the maximum-weight perfect matching on the table of
    the entries' s-degrees, and ord_s Res >= lo, the minimum-weight
    perfect matching on their orders (Jacobi's bound); a zero entry is
    an absent edge.  If the nonzero entries admit no perfect matching,
    every product meets a zero entry and det S is identically zero
    (Frobenius-Koenig).  Stride: let A and B be the largest total
    degrees in (var, s) of the primitive inputs' terms, da, db their
    var-degrees, step the gcd of A - d and B - d over the terms' total
    degrees d.  The entry of a in row i, column j is the coefficient of
    var^(da-j+i), so all its s-exponents are congruent to A - (da-j+i)
    mod step, likewise for b; summed along any permutation these give
    A*db + B*da - da*db mod step, so every exponent of Res, and lo and
    hi, lie in one class mod step.  With step = 0 (both inputs
    homogeneous) every entry is a monomial and lo = hi.  The samples
    t = 1, 2, ... thus give nodes x = t^step and values det / t^lo, an
    exact integer division, and (hi - lo) / step + 1 coefficients (one
    if step = 0).  Every t is a valid sample: `kernels.resultant_int`
    gets the coefficient lists of the formal degrees da, db and returns
    the Sylvester determinant of formal size da + db, so the value is
    Res(t) also where a leading coefficient vanishes at t (Collins 1971).
    Res has integer coefficients, so Newton interpolation at the integer
    nodes runs in integers with exact divisions.  A structural zero
    takes the guard sample alone, which must vanish.  For the sweep pair
    in k at c = +-1 that is 42 coefficients and the guard, each a
    resultant of formal degrees 8 and 11; in f every case is a
    structural zero (f divides H and K), one resultant of formal degrees
    9 and 12 whose constant coefficients both vanish.

    deadline is an optional time.monotonic() timestamp; crossing it
    between samples raises ComputationTimeout."""
    if a.is_zero() or b.is_zero():
        raise ZeroInput("resultant of a zero polynomial")
    extra = (a.vars_used() | b.vars_used()) - {var, spectator}
    if extra:
        raise ValueError(f"inputs must be polynomials in {{{var}, {spectator}}}; "
                         f"also saw {sorted(extra)}")
    da, db = a.degree(var), b.degree(var)
    if da == 0 or db == 0:
        return resultant(a, b, var)
    cont_a, prim_a = a.primitive()
    cont_b, prim_b = b.primitive()
    factor = cont_a ** db * cont_b ** da
    degs_a = {sum(exps) for exps, _ in prim_a.terms()}
    degs_b = {sum(exps) for exps, _ in prim_b.terms()}
    big_a, big_b = max(degs_a), max(degs_b)
    step = math.gcd(*(big_a - d for d in degs_a), *(big_b - d for d in degs_b))

    acols = [int_coeffs(ce, spectator) for ce in prim_a.coefficients_in(var)]
    bcols = [int_coeffs(ce, spectator) for ce in prim_b.coefficients_in(var)]
    span = _exponent_range(acols, bcols)
    if span is None:
        low, count = 0, 0  # structural zero: only the guard sample
    else:
        low, high = span
        count = (high - low) // step + 1 if step else 1

    xs: list[int] = []
    ys: list[int] = []
    for t in range(1, count + 2):  # count coefficients, +1 consistency guard
        if deadline is not None and time.monotonic() > deadline:
            raise ComputationTimeout("per-case deadline expired")
        value, rest = divmod(
            kernels.resultant_int([horner(col, t) for col in acols],
                                  [horner(col, t) for col in bcols]),
            t ** low)
        if rest:
            raise ArithmeticError(f"sample at {t} not divisible by {t}^{low}")
        xs.append(t ** step)
        ys.append(value)

    coeffs = _newton_interpolate(xs[:-1], ys[:-1]) if count else [0]
    if horner(coeffs, xs[-1]) != ys[-1]:
        raise ArithmeticError("interpolation guard sample mismatch")
    out = MultiPoly.zero()
    for i, co in enumerate(coeffs):
        if co:
            out = out + MultiPoly.var(spectator, low + step * i) * co
    return out * factor


def gcd_subresultant(a: MultiPoly, b: MultiPoly, var: str) -> GcdResult:
    """Primitive gcd w.r.t. var; content over the remaining variables is
    handled recursively and stripped from the result."""
    if a.is_zero() or b.is_zero():
        raise ZeroInput("gcd of a zero polynomial")
    da, db = a.degree(var), b.degree(var)
    if da == 0 or db == 0:
        return GcdResult(MultiPoly.const(1), (da, db))
    pp_a = a.exact_div(_content_in(a, var))
    pp_b = b.exact_div(_content_in(b, var))
    g = _prs_gcd(pp_a, pp_b, var)
    dg = g.degree(var)
    return GcdResult(g, (da - dg, db - dg))
