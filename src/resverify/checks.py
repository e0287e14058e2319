"""Callable verification checks over the catalog.

Every check is an exact polynomial computation: it either passes with
all stated identities holding bit-for-bit, or fails carrying the
offending polynomial as a witness.  No floating point anywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import isqrt

from .catalog import (build_core, closed_form_tables, dominant_coef_value,
                      fp_square_to_s, manifest, res_special_value)
from .parser import format_poly
from .parser import parse  # noqa: F401  (perfbench/spans.py traces checks.parse)
from .poly import MultiPoly, RatFun, horner, int_coeffs, pseudo_division
from .ratio import Rat, rat_str
from .resultant import gcd_subresultant, resultant, resultant_interp


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


def _var(name: str) -> MultiPoly:
    return MultiPoly.var(name)


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


def check_special_case(c_mode: str = "symbolic") -> CheckOutcome:
    """m=7, r=4: both sweep polynomials against their factored displays,
    the conic delta as the primitive common factor, and coprimality of
    the remaining factors."""
    run = _Run("special-case")
    man = manifest()
    c_value = None if c_mode == "symbolic" else int(c_mode)
    core = build_core((7, 4, c_value))
    h, k, spec = core.H, core.K, core.specialize
    f = _var("f")
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

    delta = spec(man["delta"])
    g = gcd_subresultant(h, k, "k")
    run.expect("primitive gcd of the pair is the conic", g == delta, g)
    for label, other in (("cubic factor", man["sc1cubic"]),
                         ("tail factor", man["sc1tail"]),
                         ("linear factor", man["sc2lin"]),
                         ("degree-8 factor", man["sc2oct"])):
        gg = gcd_subresultant(spec(other), delta, "k")
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
        at = [poly.substitute("m", mm) for poly in (hgen, p, q, r2)]
        return at[0] + at[1] * at[2] * at[3]

    gap = hgen_gap(7)
    run.expect("Hgen equals -(P*Q*R2) at (7,4): both squared terms drop out",
               gap.is_zero(), gap)
    run.expect("negative control: Hgen differs from -(P*Q*R2) at (8,4)",
               not hgen_gap(8).is_zero())
    cubic = (man["rel1cubic2"].substitute("m", 7).substitute("r", 4)
             * Rat(1, 3))
    target = _var("f") * man["delta"] * Rat(3, 4)
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
    k = _var("k")
    a_sq = man["k1spec"] ** 2 + 3 * k * k + 3 * man["k3spec"] ** 2
    lhs = 14 * a_sq - 245 * _var("f") ** 2 - 96 * _var("c")
    rhs = 3 * man["delta"]
    run.expect("14|A|^2 - 245 f^2 - 96 c == 3 delta", lhs == rhs, lhs - rhs)
    scaled = 14 * a_sq
    run.expect("spot k=0: 14|A|^2 is 686 f^2",
               scaled.substitute("k", 0) == 686 * _var("f") ** 2)
    run.expect("spot f=0: 14|A|^2 is 84 k^2",
               scaled.substitute("f", 0) == 84 * k * k)
    return run.outcome()


def check_nonic() -> CheckOutcome:
    """The special-case ODE chain collapses to the published degree-9
    polynomial up to one common rational factor."""
    run = _Run("nonic")
    man = manifest()
    a2, b2 = man["g3p2A"], man["g3p2B"]
    s_rat = RatFun(b2, a2)                   # s = (f')^2 as a function of f
    fpp = s_rat.derivative("f") * Rat(1, 2)  # f'' = (1/2) ds/df
    # consistency: the differentiated display holds with s, f'' substituted
    lhs = RatFun(man["dfp1s"]) * s_rat + RatFun(man["dfp1fpp"]) * fpp
    run.expect("derivative display consistent with the chain",
               lhs == RatFun(man["dfp1rhs"]))
    # clear denominators without cancellation: over the common
    # denominator 2*A2^2*sden the combination f'' - snum/sden*s - free
    # has the numerator below (the published polynomial keeps the factor
    # that reduction would cancel)
    snum, sden, free = man["dfp2snum"], man["dfp2sden"], man["dfp2free"]
    cleared = ((b2.derivative("f") * a2 - b2 * a2.derivative("f")) * sden
               - 2 * a2 * snum * b2 - 2 * a2 ** 2 * sden * free)
    nonic = man["nonic"]
    ratio = cleared.leading_coefficient() / nonic.leading_coefficient()
    run.expect("cleared numerator is a constant multiple of the nonic",
               cleared == nonic * ratio, cleared)
    run.note("common rational factor", rat_str(ratio))
    for mono_c, mono_f in ((4, 1), (3, 3), (2, 5), (1, 7), (0, 9)):
        want = nonic.coefficient("c", mono_c).coefficient("f", mono_f)
        got = cleared.coefficient("c", mono_c).coefficient("f", mono_f)
        run.expect(f"coefficient of c^{mono_c}*f^{mono_f} matches",
                   got == want * ratio, got)
        run.note(f"published c^{mono_c}*f^{mono_f}",
                 rat_str(want.constant_value()))
    at_c0 = cleared.substitute("c", 0)
    run.expect("c=0 leaves a single f^9 term",
               len(at_c0) == 1 and at_c0.degree("f") == 9, at_c0)
    return run.outcome()


def check_mod_delta_chain() -> CheckOutcome:
    """The special-case chain modulo the conic: the first display follows
    from the product identity, the two displays agree modulo delta, and
    the normal-part coefficients reduce to the published forms."""
    run = _Run("mod-delta-chain")
    man = manifest()
    f, k, c, s = (_var(n) for n in ("f", "k", "c", "s"))
    delta = man["delta"]

    # derivative chain consistency: Omega = k'/(k1 - k2), Theta = k3'/(k1 - k3)
    k1, k3 = man["k1spec"], man["k3spec"]
    om = RatFun(man["omeganum"], man["omegaden"])
    th = RatFun(man["thetanum"], man["thetaden"])
    kprime = RatFun(man["kprimenum"], man["kprimeden"])
    k3prime = kprime * Rat(-1) + RatFun(MultiPoly.const(Rat(7, 2)))
    run.expect("Omega display matches k2' / (k1 - k2)",
               om == kprime / RatFun(k1 - k))
    run.expect("Theta display matches k3' / (k1 - k3)",
               th == k3prime / RatFun(k1 - k3))

    # (a) Omega*Theta + c + k2*k3 == 0 reproduces the first display;
    # the numerators carry one fp each, their product rewrites to s
    fp = _var("fp")
    prod_num = fp_square_to_s(man["omeganum"] * fp * (man["thetanum"] * fp))
    num = (prod_num
           + (c + k * k3) * man["omegaden"] * man["thetaden"])
    a1_s_b1 = man["g3p1A"] * s - man["g3p1B"]
    ratio = RatFun(num) / RatFun(a1_s_b1)
    run.expect("product identity reproduces the first display",
               ratio.is_constant() and not ratio.is_zero(), num)
    if ratio.is_constant():
        run.note("reconstruction factor", rat_str(ratio.constant_value()))

    # (b) cross-multiplied displays agree modulo delta
    cross = man["g3p1A"] * man["g3p2B"] - man["g3p2A"] * man["g3p1B"]
    rem = pseudo_division(cross, delta, "k")[1]
    run.expect("A1*B2 - A2*B1 reduces to zero modulo delta", rem.is_zero(), rem)

    # (c) normal part: s-coefficient reduces to 1911 f / (833 f^2 - 32 c)
    scoef = RatFun(-3 * (man["omeganum"] * man["thetaden"]
                         + man["thetanum"] * man["omegaden"]),
                   man["omegaden"] * man["thetaden"])
    cross2 = scoef.num * man["dfp2sden"] - man["dfp2snum"] * scoef.den
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
    and the three-equation elimination collapses as published."""
    run = _Run("kfconst")
    man = manifest()
    m, al, be, c, f, s = (_var(n) for n in ("m", "alpha", "beta", "c", "f", "s"))
    lead = man["kff6lead"]
    for label, name in (("first variant", "kfdeg6a"), ("second variant", "kfdeg6b")):
        rel = man[name]
        run.expect(f"{label} has degree 6 in f", rel.degree("f") == 6, rel)
        got = rel.coefficient("f", 6)
        run.expect(f"{label} f^6 coefficient matches", got == lead, got - lead)

    two, four = MultiPoly.const(2), MultiPoly.const(4)
    kf1 = (RatFun(m + 4 * al, m + 2 * al) * s
           + RatFun((m + 2 * al) * c * f ** 2, two * al)
           - RatFun(m * (m + 2 * al) * f ** 4, four))
    kf5 = (RatFun(m + 4 * be, m + 2 * be) * s
           + RatFun((m + 2 * be) * c * f ** 2, two * be)
           - RatFun(m * (m + 2 * be) * f ** 4, four))
    w2 = (RatFun((m + 2 * al) * (m + 2 * be) * c * f ** 2, four * al * be) * Rat(-1)
          - RatFun((m + 2 * al) * (m + 2 * be) * f ** 4, four))
    elim = (kf1 - kf5).substitute("s", w2)
    target = RatFun(man["kfelimnum"], man["kfelimden"])
    ratio = elim / target
    run.expect("elimination yields the published combination",
               ratio.is_constant() and not ratio.is_zero(), elim.num)
    if ratio.is_constant() and not ratio.is_zero():
        run.note("common factor", rat_str(ratio.constant_value()))
    at_eq = elim.num.substitute("beta", MultiPoly.var("alpha"))
    run.expect("elimination vanishes at alpha == beta", at_eq.is_zero(), at_eq)
    return run.outcome()


def scan_dominant_factors(m_max: int = 10000) -> CheckOutcome:
    """Exact integer scan: the leading-coefficient closed form vanishes
    on 4 <= m <= m_max, 2 <= r <= m-1 exactly on {m=7} u {m=10} u
    {m=2r-1}; the m=2r-1 form vanishes exactly at r in {2, 4}."""
    run = _Run("scan-factors")
    if m_max < 30:
        run.expect("m_max >= 30", False)
        return run.outcome()
    # a product vanishes iff a factor does; each r-factor is a(m) + b*r
    m_factors, r_factors, _ = closed_form_tables()
    bad = None
    zero_pairs = 0
    for mm in range(4, m_max + 1):
        if any(not horner(co, mm) for co, _ in m_factors):
            zero = set(range(2, mm))
        else:
            zero = set()
            for a, b, _ in r_factors:
                root, rem = divmod(-horner(a, mm), b)
                if not rem and 2 <= root < mm:
                    zero.add(root)
        if mm in (7, 10):
            expected = set(range(2, mm))
        else:
            expected = {(mm + 1) // 2} if mm % 2 else set()
        if zero != expected:
            bad = mm
            break
        zero_pairs += len(zero)
    run.expect("vanishing set is {m=7} u {m=10} u {m=2r-1}", bad is None,
               f"first mismatch at m={bad}" if bad is not None else None)
    run.note("pairs scanned", sum(max(0, mm - 2) for mm in range(4, m_max + 1)))
    run.note("vanishing pairs", zero_pairs)

    bad_r = []
    for rr in range(2, (m_max + 1) // 2 + 1):
        value = res_special_value(rr, 1)
        if (value == 0) != (rr in (2, 4)):
            bad_r.append(rr)
    run.expect("m=2r-1 form vanishes exactly at r in {2, 4}", not bad_r,
               f"mismatch at r in {bad_r[:5]}" if bad_r else None)
    run.note("c dependence", "c^12, nonzero for c in {-1, 1}")
    return run.outcome()


def _poly_sqrt_int(coeffs: list[int]) -> list[int] | None:
    """Exact square root of an integer-coefficient univariate polynomial
    given as an ascending dense list; None when no such root exists."""
    n = len(coeffs) - 1
    if n % 2:
        return None
    h = n // 2
    lead = coeffs[-1]
    if lead <= 0:
        return None
    s_h = isqrt(int(lead))
    if s_h * s_h != lead:
        return None
    s = [0] * (h + 1)
    s[h] = s_h
    for i in range(h - 1, -1, -1):
        t = coeffs[h + i]
        for p in range(i + 1, h):
            t -= s[p] * s[h + i - p]
        q, rem = divmod(t, 2 * s_h)
        if rem:
            return None
        s[i] = q
    square = [0] * (n + 1)
    for i, si in enumerate(s):
        if si:
            for j, sj in enumerate(s):
                square[i + j] += si * sj
    if square != [int(co) for co in coeffs]:
        return None
    return s


# default sample grid: all admissible (m, r) for a few small dimensions
# (m = 7 and m = 10 excluded: there the closed form vanishes) plus three
# m = 2r-1 families, times c in {-1, 1}
APPC_DEFAULT_SAMPLES = tuple(
    (mm, rr, cc)
    for mm in (4, 5, 6, 8, 9)
    for rr in range(2, mm)
    for cc in (-1, 1)
) + ((11, 6, 1), (11, 6, -1))


def check_appendix_c_leading(samples=None) -> CheckOutcome:
    """Reduced z-polynomial elimination at sampled (m, r, c): the
    resultant is a constant times a perfect square whose root has
    z-degree 40 (39 on m = 2r-1) and whose leading coefficient divides
    the published closed form exactly."""
    run = _Run("appendix-c-leading")
    if samples is None:
        samples = APPC_DEFAULT_SAMPLES
    run.note("samples", len(samples))
    if len(samples) < 40:
        run.expect("at least 40 samples", False)
        return run.outcome()
    for mm, rr, cc in samples:
        tag = f"({mm},{rr},{cc})"
        core = build_core((mm, rr, cc))
        res = resultant_interp(core.new_h, core.new_k, "f", "z")
        special = mm == 2 * rr - 1
        want_deg = 78 if special else 80
        if not run.expect(f"{tag} raw degree {want_deg}",
                          res.degree("z") == want_deg, res):
            continue
        root = _poly_sqrt_int(int_coeffs(res.primitive()[1], "z"))
        if not run.expect(f"{tag} primitive part is a perfect square",
                          root is not None):
            continue
        want_half = 39 if special else 40
        run.expect(f"{tag} square root has degree {want_half}",
                   len(root) - 1 == want_half)
        closed = (res_special_value(rr, cc) if special
                  else dominant_coef_value(mm, rr, cc))
        lead = root[-1]
        ok = closed != 0 and abs(closed) % lead == 0
        run.expect(f"{tag} closed form is an exact multiple of the root's "
                   f"leading coefficient", ok,
                   f"lead={lead} closed={closed}" if not ok else None)
    return run.outcome()


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
