"""Callable verification checks over the catalog.

Every check is an exact polynomial computation: it either passes with
all stated identities holding bit-for-bit, or fails carrying the
offending polynomial as a witness.  No floating point anywhere.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from . import poly
from .catalog import (build_core, cleared_fk_degrees, closed_form_tables,
                      dominant_coef_value, fp_square_to_s, manifest,
                      res_special_value)
from .parser import format_poly
from .parser import parse  # noqa: F401  (perfbench/spans.py traces checks.parse)
from .poly import InexactDivision, MultiPoly, horner, pseudo_division
from .ratio import Rat, quotient
from .resultant import gcd_subresultant, resultant, resultant_at, resultant_top
from .resultant import resultant_interp  # noqa: F401  (perfbench/spans.py traces checks.resultant_interp)


class UnknownCheck(KeyError):
    pass


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    witness: str | None = None
    detail: dict[str, str] = field(default_factory=dict)
    elapsed_ms: float = 0.0


class _Run:
    """Collects detail lines and the first failing witness."""

    def __init__(self, name: str):
        self.name = name
        self.passed = True
        self.witness = None
        self.detail: dict[str, str] = {}
        self.start = time.monotonic()

    def expect(self, label: str, ok: bool, witness=None) -> bool:
        self.detail[label] = "ok" if ok else "FAIL"
        if not ok and self.passed:
            self.passed = False
            if witness is not None:
                self.witness = witness if isinstance(witness, str) else format_poly(witness)
            else:
                self.witness = label
        return ok

    def note(self, label: str, value) -> None:
        self.detail[label] = str(value)

    def outcome(self) -> CheckOutcome:
        return CheckOutcome(self.name, self.passed, self.witness, self.detail,
                            (time.monotonic() - self.start) * 1000.0)


def check_res_pq() -> CheckOutcome:
    """Generic elimination of k from P and Q: a degree-9 polynomial in f
    with no f^0..f^2 part and the predicted f^3 coefficient."""
    run = _Run("res-pq")
    man = manifest()
    res = resultant(man["P"], man["Q"], "k")
    run.expect("degree in f is 9", res.degree("f") == 9, res)
    for d in range(3):
        run.expect(f"f^{d} coefficient vanishes",
                   res.coefficient("f", d).is_zero(), res.coefficient("f", d))
    got = res.coefficient("f", 3)
    # the published constant 1474560 corresponds to the integer-cleared
    # pair (4P, 4Q); Res(4P, 4Q) = 4^6 * Res(P, Q)
    run.expect("f^3 coefficient matches closed form (cleared inputs)",
               got * 4096 == man["coefF3"], got)
    run.note("content clearing factor", "4^6 = 4096")
    return run.outcome()


# c_mode of `special-case`: "symbolic" or c in {-1, 0, 1}, as str or int
_C_MODES = {"symbolic": None, "-1": -1, "0": 0, "1": 1, -1: -1, 0: 0, 1: 1}

# the point of (f, c) at which `special-case` evaluates its resultant
# certificates; a zero value there proves nothing and sends that line to
# the gcd route
_CERTIFICATE_POINT = {"f": 2, "c": 3}


def _certifies_gcd(a: MultiPoly, b: MultiPoly, g: MultiPoly) -> bool:
    """True when four facts prove gcd_subresultant(a, b, "k") == g: g is
    normalized (g.primitive() == (1, g)), its leading k-coefficient is
    an integer, g divides a and b, and Res_k(a/g, b/g) is nonzero at
    _CERTIFICATE_POINT (`resultant_at`).  The proof is in
    `check_special_case`.  False proves nothing."""
    if (g.primitive() != (1, g)
            or not g.coefficient("k", g.degree("k")).is_constant()):
        return False
    try:
        a_rest, b_rest = a.exact_div(g), b.exact_div(g)
    except InexactDivision:
        return False
    return resultant_at(a_rest, b_rest, "k", _CERTIFICATE_POINT) != 0


def check_special_case(c_mode="symbolic") -> CheckOutcome:
    """m=7, r=4: both sweep polynomials against their factored displays,
    the conic delta as the primitive common factor, and coprimality of
    the remaining factors; c_mode is "symbolic" or c in {-1, 0, 1},
    as a str or an int.

    The gcd line asks that the manifest's delta be normalized and that
    the primitive gcd in k of H and K be the conic, the primitive part
    of delta at the parameters (at c = 0, delta is
    7*(21 f^2 - 14 f k + 4 k^2)).  Both it and the coprimality lines
    are proved by certificates, without a gcd computation:
    `_certifies_gcd(H, K, conic)` for the gcd, and a nonzero value of
    Res_k(factor, conic) at _CERTIFICATE_POINT for each factor.

    Proof, in three parts.  (1) `resultant_at` is exact: Res_k at the
    formal degrees is a polynomial in the k-coefficients (the Sylvester
    determinant), and evaluation at the point commutes with it, also
    where a leading coefficient vanishes there.  So a nonzero value
    proves Res_k != 0.  (2) Over the field Q(f, c), Res_k(A, B) != 0 at
    the true k-degrees exactly when A and B share no factor of positive
    k-degree.  With A = H/conic and B = K/conic this gives
    gcd(H, K) = conic * gcd(A, B) = conic up to a unit of Q(f, c); with
    A = factor and B = conic, a gcd of k-degree 0, which is the constant
    that `gcd_subresultant` returns.  (3) Gauss's lemma carries the gcd
    back to Z[f, c][k]: `gcd_subresultant` returns the associate that
    is primitive in k with coprime integer coefficients and a positive
    leading coefficient.  The conic is one too: its leading k-coefficient
    is an integer, so its k-content divides an integer and is 1, the
    conic being normalized.  Two such associates differ by a sign, and
    equal leading coefficients fix it, so the gcd is the conic.

    Where a certificate is inconclusive (a division fails, or the value
    at the point is 0), the line takes `gcd_subresultant`, which decides
    it and gives the witness; no line of the catalog takes that route."""
    run = _Run("special-case")
    if type(c_mode) not in (str, int) or c_mode not in _C_MODES:
        run.expect("c_mode is symbolic, -1, 0 or 1", False)
        return run.outcome()
    man = manifest()
    core = build_core((7, 4, _C_MODES[c_mode]))
    h, k, spec = core.H, core.K, core.specialize
    f = MultiPoly.var("f")
    sc1 = spec(man["sc1conic"] * man["sc1cubic"] * man["sc1tail"]) * Rat(45927, 16)
    sc2 = spec(man["sc2lin"] * man["sc1conic"] * man["sc2oct"]) * Rat(1240029, 16)
    # the displays drop a positive factor of f (and a constant for the
    # second): the exact identities are H = f*SC1 and K = (21/2)*f*SC2
    run.expect("H(7,4) equals f * first factored display",
               h == f * sc1, h - f * sc1)
    run.expect("K(7,4) equals 21/2 * f * second factored display",
               k == f * sc2 * Rat(21, 2), k - f * sc2 * Rat(21, 2))
    run.note("display cofactor (first)", "f")
    run.note("display cofactor (second)", "21/2*f")

    delta = man["delta"]
    normalized = delta.primitive() == (1, delta)
    conic = spec(delta).primitive()[1]
    g = (conic if normalized and _certifies_gcd(h, k, conic)
         else gcd_subresultant(h, k, "k"))
    run.expect("primitive gcd of the pair is the conic",
               normalized and g == conic, g)
    for label, other in (("cubic factor", man["sc1cubic"]),
                         ("tail factor", man["sc1tail"]),
                         ("linear factor", man["sc2lin"]),
                         ("degree-8 factor", man["sc2oct"])):
        factor = spec(other)
        gg = (MultiPoly.const(1)
              if resultant_at(factor, conic, "k", _CERTIFICATE_POINT)
              else gcd_subresultant(factor, conic, "k"))
        run.expect(f"{label} coprime to the conic", gg.is_constant(), gg)
    return run.outcome()


def check_relation1_delta() -> CheckOutcome:
    """The mixed first-order relation degenerates at m=7, r=4: both
    derivative coefficients vanish, so Hgen collapses to -(P*Q*R2), and
    the cubic block is (3/4)*f*delta."""
    run = _Run("relation1-delta")
    man = manifest()
    # r first: r = 4 leaves 143 of Hgen's 669 terms for both m values
    hgen, p, q, r2 = (man[name].substitute("r", 4)
                      for name in ("Hgen", "P", "Q", "R2"))

    def hgen_gap(mm: int) -> MultiPoly:
        """Hgen + P*Q*R2 at (mm, 4)."""
        at = [entry.substitute("m", mm) for entry in (hgen, p, q, r2)]
        return at[0] + at[1] * at[2] * at[3]

    gap = hgen_gap(7)
    run.expect("Hgen equals -(P*Q*R2) at (7,4): both squared terms drop out",
               gap.is_zero(), gap)
    run.expect("negative control: Hgen differs from -(P*Q*R2) at (8,4)",
               not hgen_gap(8).is_zero())
    cubic = (man["rel1cubic2"].substitute("m", 7).substitute("r", 4)
             * Rat(1, 3))
    target = MultiPoly.var("f") * man["delta"] * Rat(3, 4)
    run.expect("cubic block equals (3/4)*f*delta", cubic == target,
               cubic - target)
    run.expect("still holds at c=0",
               cubic.substitute("c", 0) == target.substitute("c", 0))
    rem = pseudo_division(cubic, man["delta"], "k")[1]
    run.expect("cubic block reduces to zero modulo delta", rem.is_zero(), rem)
    return run.outcome()


def check_biconservative() -> CheckOutcome:
    """14*|A|^2 - 245 f^2 - 96 c == 3*delta for the m=7, r=4 shape
    operator with k1 = -7/2 f and k3 = 7/2 f - k."""
    run = _Run("biconservative")
    man = manifest()
    k, f, c = (MultiPoly.var(n) for n in ("k", "f", "c"))
    a_sq = man["k1spec"] ** 2 + 3 * k * k + 3 * man["k3spec"] ** 2
    lhs = 14 * a_sq - 245 * f ** 2 - 96 * c
    rhs = 3 * man["delta"]
    run.expect("14|A|^2 - 245 f^2 - 96 c == 3 delta", lhs == rhs, lhs - rhs)
    scaled = 14 * a_sq
    run.expect("spot k=0: 14|A|^2 is 686 f^2",
               scaled.substitute("k", 0) == 686 * f ** 2)
    run.expect("spot f=0: 14|A|^2 is 84 k^2",
               scaled.substitute("f", 0) == 84 * k * k)
    return run.outcome()


def _multiple(a: MultiPoly, b: MultiPoly):
    """The nonzero constant q with a == q * b (the ratio of the leading
    coefficients, checked term by term), or None."""
    if not a or not b:
        return None
    q = quotient(a.leading_coefficient(), b.leading_coefficient())
    return q if a == b * q else None


def check_nonic() -> CheckOutcome:
    """The special-case ODE chain collapses to the published degree-9
    polynomial up to one common rational factor.  With s = (f')^2 = B2/A2
    and f'' = (1/2) ds/df = (B2'*A2 - B2*A2')/(2*A2^2), the derivative
    display clears 2*A2^2 and the nonic 2*A2^2*dfp2sden."""
    run = _Run("nonic")
    man = manifest()
    a2, b2 = man["g3p2A"], man["g3p2B"]
    fpp_num = b2.derivative("f") * a2 - b2 * a2.derivative("f")
    # consistency: dfp1s*s + dfp1fpp*f'' == dfp1rhs, times 2*A2^2
    lhs = 2 * a2 * b2 * man["dfp1s"] + man["dfp1fpp"] * fpp_num
    run.expect("derivative display consistent with the chain",
               lhs == 2 * a2 ** 2 * man["dfp1rhs"])
    # clear denominators without cancellation: over the common
    # denominator 2*A2^2*sden the combination f'' - snum/sden*s - free
    # has the numerator below (the published polynomial keeps the factor
    # that reduction would cancel)
    snum, sden, free = man["dfp2snum"], man["dfp2sden"], man["dfp2free"]
    cleared = (fpp_num * sden - 2 * a2 * snum * b2
               - 2 * a2 ** 2 * sden * free)
    nonic = man["nonic"]
    ratio = quotient(cleared.leading_coefficient(),
                     nonic.leading_coefficient())
    run.expect("cleared numerator is a constant multiple of the nonic",
               cleared == nonic * ratio, cleared)
    run.note("common rational factor", str(ratio))
    for mono_c, mono_f in ((4, 1), (3, 3), (2, 5), (1, 7), (0, 9)):
        want = nonic.coefficient("c", mono_c).coefficient("f", mono_f)
        got = cleared.coefficient("c", mono_c).coefficient("f", mono_f)
        run.expect(f"coefficient of c^{mono_c}*f^{mono_f} matches",
                   got == want * ratio, got)
        run.note(f"published c^{mono_c}*f^{mono_f}",
                 str(want.constant_value()))
    at_c0 = cleared.substitute("c", 0)
    run.expect("c=0 leaves a single f^9 term",
               len(at_c0) == 1 and at_c0.degree("f") == 9, at_c0)
    return run.outcome()


def check_mod_delta_chain() -> CheckOutcome:
    """The special-case chain modulo the conic: the first display follows
    from the product identity, the two displays agree modulo delta, and
    the normal-part coefficients reduce to the published forms.  The
    Omega and Theta lines clear omegaden resp. thetaden, kprimeden and
    k1 - k2 resp. k1 - k3; the product identity clears
    omegaden*thetaden; the normal part clears dfp2sden and the
    s-coefficient's denominator in lowest terms."""
    run = _Run("mod-delta-chain")
    man = manifest()
    f, k, c, s = (MultiPoly.var(n) for n in ("f", "k", "c", "s"))
    delta = man["delta"]

    # derivative chain consistency: Omega = k'/(k1 - k2) and
    # Theta = k3'/(k1 - k3), with k2 = k and k3' = 7/2 - k'
    k1, k3 = man["k1spec"], man["k3spec"]
    kp_num, kp_den = man["kprimenum"], man["kprimeden"]
    k3p_num = Rat(7, 2) * kp_den - kp_num
    run.expect("Omega display matches k2' / (k1 - k2)",
               man["omeganum"] * kp_den * (k1 - k) == kp_num * man["omegaden"])
    run.expect("Theta display matches k3' / (k1 - k3)",
               man["thetanum"] * kp_den * (k1 - k3)
               == k3p_num * man["thetaden"])

    # (a) Omega*Theta + c + k2*k3 == 0 reproduces the first display;
    # the numerators carry one fp each, their product rewrites to s
    fp = MultiPoly.var("fp")
    prod_num = fp_square_to_s(man["omeganum"] * fp * (man["thetanum"] * fp))
    num = (prod_num
           + (c + k * k3) * man["omegaden"] * man["thetaden"])
    ratio = _multiple(num, man["g3p1A"] * s - man["g3p1B"])
    run.expect("product identity reproduces the first display",
               ratio is not None, num)
    if ratio is not None:
        run.note("reconstruction factor", str(ratio))

    # (b) cross-multiplied displays agree modulo delta
    cross = man["g3p1A"] * man["g3p2B"] - man["g3p2A"] * man["g3p1B"]
    rem = pseudo_division(cross, delta, "k")[1]
    run.expect("A1*B2 - A2*B1 reduces to zero modulo delta", rem.is_zero(), rem)

    # (c) normal part: s-coefficient reduces to 1911 f / (833 f^2 - 32 c);
    # in lowest terms first, so that no common factor can hide delta
    sc_num = -3 * (man["omeganum"] * man["thetaden"]
                   + man["thetanum"] * man["omegaden"])
    sc_den = man["omegaden"] * man["thetaden"]
    # looked up on the module, so that a wrapper set on poly.gcd sees it
    g = poly.gcd(sc_num, sc_den)
    cross2 = (sc_num.exact_div(g) * man["dfp2sden"]
              - man["dfp2snum"] * sc_den.exact_div(g))
    rem2 = pseudo_division(cross2, delta, "k")[1]
    run.expect("normal-part s-coefficient reduces modulo delta",
               rem2.is_zero(), rem2)
    # ... and the s-free part reduces to (1/14)(245 f^2 - 2 c) f
    a_sq = k1 ** 2 + 3 * k * k + 3 * k3 ** 2
    free = (a_sq - 7 * c) * f - man["dfp2free"]
    rem3 = pseudo_division(free, delta, "k")[1]
    run.expect("normal-part s-free part reduces modulo delta",
               rem3.is_zero(), rem3)

    # canonical form: 7(4k - 7f)^2 + 245 f^2 - 128 c == 4*delta
    candelta = man["candeltaL"] - man["candeltaR"] - 4 * delta
    run.expect("canonical conic form is 4*delta", candelta.is_zero(), candelta)
    return run.outcome()


def check_kfconst() -> CheckOutcome:
    """Constant-ratio lemma: the displayed degree-6 relation has the
    predicted dominant coefficient under both inner-coefficient variants,
    and the three-equation elimination collapses as published.  The
    relation at x in {alpha, beta} clears den_x = 4x(m + 2x), and
    s = w2num/(4*alpha*beta) clears 4*alpha*beta."""
    run = _Run("kfconst")
    man = manifest()
    m, al, be, c, f, s = (MultiPoly.var(n)
                          for n in ("m", "alpha", "beta", "c", "f", "s"))
    lead = man["kff6lead"]
    for label, name in (("first variant", "kfdeg6a"), ("second variant", "kfdeg6b")):
        rel = man[name]
        run.expect(f"{label} has degree 6 in f", rel.degree("f") == 6, rel)
        got = rel.coefficient("f", 6)
        run.expect(f"{label} f^6 coefficient matches", got == lead, got - lead)

    def kf(x: MultiPoly) -> MultiPoly:  # the relation at x, times den_x
        return (4 * x * (m + 4 * x) * s + 2 * (m + 2 * x) ** 2 * c * f ** 2
                - x * m * (m + 2 * x) ** 2 * f ** 4)
    den_al, den_be = (4 * x * (m + 2 * x) for x in (al, be))
    w2num = -(m + 2 * al) * (m + 2 * be) * (c * f ** 2 + al * be * f ** 4)
    diff = den_be * kf(al) - den_al * kf(be)
    elim = diff.coefficient("s", 1) * w2num + diff.coefficient("s", 0) * 4 * al * be
    ratio = _multiple(elim * man["kfelimden"],
                      man["kfelimnum"] * 4 * al * be * den_al * den_be)
    run.expect("elimination yields the published combination",
               ratio is not None, elim)
    if ratio is not None:
        run.note("common factor", str(ratio))
    # the cleared denominator is 4*alpha^2*den_alpha^2 != 0 at beta = alpha,
    # so the elimination vanishes there iff its cleared numerator does
    at_eq = elim.substitute("beta", al)
    run.expect("elimination vanishes at alpha == beta", at_eq.is_zero(), at_eq)
    return run.outcome()


def integer_roots(coeffs) -> set[int]:
    """The integer roots of the nonzero polynomial with ascending integer
    coefficients coeffs.  By the rational root theorem an integer root
    is 0 or divides the lowest nonzero coefficient, so only 0 and those
    divisors, found by trial division up to its square root, and their
    negatives are tried."""
    low = next((i for i, co in enumerate(coeffs) if co), None)
    if low is None:
        raise ValueError("the zero polynomial vanishes at every integer")
    roots = {0} if low else set()
    rest = coeffs[low:]
    a0 = abs(rest[0])
    for d in range(1, math.isqrt(a0) + 1):
        if not a0 % d:
            roots.update(x for x in (d, -d, a0 // d, -(a0 // d))
                         if not horner(rest, x))
    return roots


def scan_dominant_factors() -> CheckOutcome:
    """The leading-coefficient closed form vanishes on m >= 4,
    2 <= r <= m-1 exactly on {m=7} u {m=10} u {m=2r-1}, and the m=2r-1
    form at no r >= 2 but 2 and 4, for every integer.

    `integer_roots` solves the m-factors and the m=2r-1 factors.  An
    r-factor a0 + a1*m + b*r (a nonlinear a(m) fails a line) is zero at
    m >= 4 and integer 2 <= r = -(a0 + a1*m)/b <= m-1 on a class modulo
    a divisor of b in an interval from lo, which is 4 or the ceiling of
    the m where the line crosses r = 2 or r = m-1: its first n zeros lie
    in lo <= m < lo + n*|b|.  Let X hold 7, 10 and the m-roots >= 4, and
    m* be the least m >= 4 where the zeros differ from the claim: off X,
    the lines' zeros against r = (m+1)/2 at odd m.  Either m* is in X;
    or (a) a line has a zero r != (m*+1)/2 at m*, so its zeros below m*
    are in X or where it meets r = (m+1)/2 (once at most), and m* is
    among its first |X| + 2; or (b) m* is odd and no line is a multiple
    of m + 1 - 2r (which gives exactly the m=2r-1 family), so each meets
    r = (m+1)/2 once at most, and m* <= 5 + 2*(|X| + #lines).  The check
    compares X, the windows and those odd m."""
    run = _Run("scan-factors")
    m_factors, r_factors, special = closed_form_tables()
    m_roots = set().union(*(integer_roots(co) for co, _ in m_factors))

    def as_claimed(mm: int) -> bool:
        zero = set(range(2, mm)) if mm in m_roots else set()
        for a, b, _ in r_factors:
            root, rem = divmod(-horner(a, mm), b)
            if not rem and 2 <= root < mm:
                zero.add(root)
        return zero == (set(range(2, mm)) if mm in (7, 10)
                        else {(mm + 1) // 2} if mm % 2 else set())
    if run.expect("every r-factor is a0 + a1*m + b*r",
                  all(len(a) <= 2 for a, _, _ in r_factors)):
        exempt = {mm for mm in m_roots | {7, 10} if mm >= 4}
        tried = exempt.union(range(5, 6 + 2 * (len(exempt) + len(r_factors)), 2))
        for a, b, _ in r_factors:
            a0, a1 = (a + (0,))[:2]
            crossings = ((-a1, a0 + 2 * b), (a1 + b, b - a0))  # r = 2, r = m-1
            for lo in {4} | {max(4, -(-d // c)) for c, d in crossings if c}:
                tried.update(range(lo, lo + (len(exempt) + 2) * abs(b)))
        bad = min((mm for mm in tried if not as_claimed(mm)), default=None)
        run.expect("vanishing set is {m=7} u {m=10} u {m=2r-1}", bad is None,
                   f"first mismatch at m={bad}" if bad is not None else None)

    # the m=2r-1 form is a nonzero constant times c^12 times the factors
    r_roots = set().union(*(integer_roots(co) for co, _ in special))
    bad_r = sorted({rr for rr in r_roots if rr >= 2} ^ {2, 4})
    run.expect("m=2r-1 form vanishes exactly at r in {2, 4}", not bad_r,
               f"mismatch at r in {bad_r[:5]}" if bad_r else None)
    run.note("c dependence", "c^12, nonzero for c in {-1, 1}")
    return run.outcome()


# default sample grid: all admissible (m, r) for a few small dimensions
# (m = 7 and m = 10 excluded: there the closed form vanishes) plus three
# m = 2r-1 families, times c in {-1, 1}
APPC_DEFAULT_SAMPLES = tuple(
    (mm, rr, cc)
    for mm in (4, 5, 6, 8, 9)
    for rr in range(2, mm)
    for cc in (-1, 1)
) + ((11, 6, 1), (11, 6, -1))


def check_appendix_c_leading(samples=APPC_DEFAULT_SAMPLES) -> CheckOutcome:
    """Reduced z-polynomial elimination at sampled (m, r, c): the
    resultant is a constant times a perfect square of z-degree 80 (78 on
    m = 2r-1), and its square root Res_u, content included, meets the
    published closed form in one cleared equality,
    3^10*m^3*closed == -2^38*(m-r)^7*lc_z Res_u.

    Lemma.  For A, B in u with the formal degrees da, db,
    Res_f(A(f^2), B(f^2)) = Res_u(A, B)^2.  Each root a_i of A gives the
    roots +-sqrt(a_i) of A(f^2), likewise b_j of B, and each pair (a, b)
    gives the four differences (sqrt a - sqrt b)(sqrt a + sqrt b)
    (-sqrt a - sqrt b)(-sqrt a + sqrt b) = (a - b)^2.  The
    leading-coefficient powers lc(A)^(2 db) * lc(B)^(2 da) are the
    squares of those of Res_u.  Both sides are polynomials in the
    coefficients, so the identity holds for all of them.

    So each pair is eliminated in u = f^2: the raw degree is
    2 * deg_z Res_u, and the primitive part of Res_f is prim(Res_u)^2
    (Gauss's lemma), a perfect square by the evenness in f of both
    inputs.  The evenness is structural.  Generic fact, checked once
    per run (`catalog.cleared_fk_degrees`): the cleared Hgen has the
    (f, k)-degrees {3, 5, 7, 9}, and NumDerF and DenDerF have {2, 4}.
    So at every sample H has odd (f, k)-degrees up to 9 and
    K = H_f*NumDerF + H_k*DenDerF even ones from 4 to 12: the
    f-exponents i + j - 3 and i + j - 4 that `reduce_to_z` gives to
    k^i f^j are even, and the halves have u-degrees at most 3 and 4.
    A pair with an odd f-exponent fails the perfect-square line at once.

    Degree.  `resultant_top` at weight 2 reads the top of Res_u.  A term
    k^q f^j of H becomes u^((q+j-3)/2) z^q, and q - (q+j-3) = 3 - j is
    largest at j = 1, the lowest f-exponent of H: alpha = 2, and 3 for
    K.  So top = 2*4 + 3*3 + 2*3*4 = 41, and a term's t-exponent is its
    f-exponent minus 1.  The line "raw degree 80" (78 on m = 2r-1)
    holds when every coefficient of Res_u above z^40 (z^39) vanishes and
    that one does not; it is then lc_z Res_u, content included.

    Truncation.  So the determinant over Z[t]/(t^count), count = 2
    (3 on m = 2r-1), reads only the terms of H and K of f-degree at
    most count, and it is the same for H, K and for H, K mod
    f^(count+1) as long as both pairs have the formal degrees (3, 4)
    and the alphas (2, 3): a ring map that fixes every entry it reads.
    A cut pair may have other contents, but `resultant_top` scales them
    back out as `resultant` does.  Each sample builds the pair mod
    f^(count+1) (`build_core(..., f_order=count)`) and takes it when the
    generic fact holds and its halves are even, of u-degrees 3 and 4
    (the ceilings, so the full halves have them too) and of alphas 2
    and 3 (the cut keeps the lowest f-exponents, so the full halves have
    them too).  The evenness of the full halves then follows from the
    generic fact.  Any other sample takes the full build.

    Cofactor.  Res_u(A, B) is the Sylvester determinant of the u-degrees
    da = 3 (H) and db = 4 (K): db rows of coefficients of A and da rows
    of B, so Res_u(lambda*A, mu*B) = lambda^4 * mu^3 * Res_u(A, B) for
    constants lambda, mu.  At a sample, H = Hgen/(m - r) and
    K = Kgen/(m - r), where Hgen is the manifest entry and
    Kgen = Hgen_f*NumDerF + Hgen_k*DenDerF, the (m - r)-cleared pair
    (`CoreCatalog`): a factor (m - r)^-(4+3).  Over Z[m, r, c, f, k]
    that generic pair has the rational contents 3/32 and -9/64
    (`MultiPoly.primitive`; the tests pin both), and
    (3/32)^4 * (-9/64)^3 = -3^10/2^38.  Specialising m, r, c,
    `reduce_to_z` and the f-halving commute with constant factors.  So
    -2^38*(m-r)^7*Res_u/3^10 is Res_u of the primitive generic pair at
    the sample, and the equality says that the closed form is m^-3
    times its leading coefficient.  That m^-3 is observed, not derived:
    it is mu^da for mu = 1/m, as if the published K were the primitive
    Kgen divided by m, which divides it, but the catalog states no such
    pair.  It held on every sample tried, the m = 2r-1 family against
    `res_special_value` included.  The check rests on none of this: it
    compares both sides exactly at every sample."""
    run = _Run("appendix-c-leading")
    run.note("samples", len(samples))
    if len(samples) < 40:
        run.expect("at least 40 samples", False)
        return run.outcome()
    h_degrees, d_degrees = cleared_fk_degrees()
    generic = h_degrees <= {3, 5, 7, 9} and d_degrees <= {2, 4}
    for mm, rr, cc in samples:
        tag = f"({mm},{rr},{cc})"
        special = mm == 2 * rr - 1
        want_deg = 78 if special else 80
        low = want_deg // 2
        count = 41 - low + 1  # coefficients read at top = 41
        params = (mm, rr, cc)
        halves = (_halves(build_core(params, f_order=count)) if generic
                  else [])
        if not _structural(halves):
            halves = _halves(build_core(params))
        even = None not in halves
        if even:
            top, coeffs = resultant_top(*halves, "f", "z", 2, low)
            ok = any(coeffs[-1:]) and not any(coeffs[:-1])
            nonzero = [top - e for e, co in enumerate(coeffs) if co]
            if not run.expect(f"{tag} raw degree {want_deg}", ok, f"top={top}, "
                              f"read z^{top}..z^{low}, nonzero at z^{nonzero}"):
                continue
        if not run.expect(f"{tag} primitive part is a perfect square", even):
            continue
        closed = (res_special_value(rr, cc) if special
                  else dominant_coef_value(mm, rr, cc))
        lead = coeffs[-1]
        ok = 3 ** 10 * mm ** 3 * closed == -2 ** 38 * (mm - rr) ** 7 * lead
        run.expect(f"{tag} 3^10*m^3*closed == -2^38*(m-r)^7*lc_z Res_u", ok,
                   None if ok else f"lead={lead} closed={closed}")
    return run.outcome()


def _halves(core) -> list:
    """The f-halved new_h and new_k of a core (None where odd)."""
    return [p.halve_exponents("f") for p in (core.new_h, core.new_k)]


def _structural(halves: list) -> bool:
    """The halves are even, of u-degrees 3 and 4, and of alpha 2 and 3
    at weight 2 (`check_appendix_c_leading`)."""
    return (None not in halves
            and [p.degree("f") for p in halves] == [3, 4]
            and [max(q - 2 * i for (i, q), _ in p.exponents("f", "z"))
                 for p in halves] == [2, 3])


CHECKS = {
    "res-pq": check_res_pq,
    "special-case": check_special_case,
    "relation1-delta": check_relation1_delta,
    "biconservative": check_biconservative,
    "nonic": check_nonic,
    "mod-delta-chain": check_mod_delta_chain,
    "kfconst": check_kfconst,
    "scan-factors": scan_dominant_factors,
    "appendix-c-leading": check_appendix_c_leading,
}

CHECK_NAMES = tuple(CHECKS)


def run_check(name: str, **kwargs) -> CheckOutcome:
    try:
        fn = CHECKS[name]
    except KeyError:
        raise UnknownCheck(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    return fn(**kwargs)
