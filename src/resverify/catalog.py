"""Named polynomial catalog.

The embedded manifest below carries, in the expression grammar, every
display used by the verification checks: the elimination sources P and
Q, the (m-r)-cleared combinations that define the two sweep
polynomials, the m=7, r=4 special-case factorizations, the conic delta,
the ODE chain of the special case, the final degree-9 polynomial, the
constant-ratio lemma displays, and the closed forms for the leading
coefficients.  Everything that needs a derivative or a denominator in
the parameters (K, H at integer parameters, the reduced z-polynomials)
is constructed here from those entries by `MultiPoly` operations, on
int coefficients where the entries' denominators are cleared first.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .parser import Manifest, load_manifest, parse
from .poly import DegreeTooLow  # noqa: F401  (raised by reduce_to_z)
from .poly import AtPlan, MultiPoly, horner, int_coeffs, prem

MANIFEST_TEXT = """\
# elimination sources (the coefficients of the two first-order unknowns)
P := 9/4*m^3*(3*m - 2*r + 17)*f^3 + 3/2*m^2*(6*r^2 - 43*r + 37 + 11*m - 11*m*r)*f^2*k + m*(r - 1)*(26*r + 4*m*r + 1 - 4*m)*f*k^2 + m*(m - r)*(8*r - 5*m*r - 13*m - 17)*c*f - 2*(r - 1)^2*(7 + 2*m)*k^3 + 2*(m - r)*(r - 1)*(m + 17)*c*k
Q := 9/2*m^3*(2*r - 2*m - 3)*f^3 + 9/2*m^2*(7*r - m + 3 - m^2 + 3*m*r - 2*r^2)*f^2*k + 2*m*(r - 1)*(4*m - 13*r - 18 - 2*m*r + 2*m^2)*f*k^2 + m*(m - r)*(5*m*r - 5*m^2 - 7*m - 8*r + 42)*c*f + 2*(r - 1)^2*(7 + 2*m)*k^3 - 2*(r - 1)*(m - r)*(m + 17)*c*k
# (m - r) * (right-hand side of the quadratic-form relation)
R2 := 9/4*m^3*(m - r + 6)*f^3 + 3/2*m^2*(r - 1)*(2*r - 2*m - 15)*f^2*k + m*(r - 1)*(m + 11*r - 12 + 2*m*r - 2*r^2)*f*k^2 + 2*(r - 1)^2*(m - 2*r + 1)*k^3 - m*(2*m*r + 4*m - 2*r^2 + 5*r)*(m - r)*c*f - 2*(r - 1)*(m - 2*r + 1)*(m - r)*c*k
# (m - r) * (c + k*k3), the conic factor of the first sweep polynomial
conic2 := (m - r)*c + 3/2*m*f*k - (r - 1)*k^2
# (m - r) * (first sweep polynomial H); dividing by (m - r) after
# specializing m and r recovers the exact rational-coefficient H
Hgen := (3 + r - m)*(m*(m - r + 3)*f - 2*(r - 1)*k)*P^2*conic2 + (r - 1)*(4 - r)*(m*f + 2*k)*Q^2*conic2 - P*Q*R2
# numerator and denominator of d(f)/d(k) along the trajectory
NumDerF := 2*(r - 1)*(m*f + 2*k)*Q - 2*(m*(m - r + 3)*f - 2*(r - 1)*k)*P
DenDerF := 3*m*(m*f + 2*k)*Q

# closed forms for leading coefficients
lead9 := 729/32*m^9*(2*m - 2*r + 3)*(3*m - 2*r + 17)*(m - r + 6)
coefF3 := 1474560*c^3*(m - 1)*m^3*(m + 5)*(2*m + 7)^3*(m^2 - 3*m + 20)^2*(m - r)^3*(r - 1)^6
dominantCoef := -6917529027641081856*c^12*(m - 10)^3*(m - 7)^3*(m - 3)*(m - 1)^2*m^8*(m + 5)*(2*m + 7)^5*(m^2 - 5*m + 7)*(m^2 - 3*m + 20)^4*(11*m^2 + 23*m - 196)*(49*m^2 + 16*m - 497)*(m + 1 - 2*r)*(m - r)^12*(r - 1)^28
resSpecial := -56668397794435742564352*c^12*(2*r - 11)^2*(r - 4)^4*(r - 2)*(r - 1)^42*(r + 2)*(2*r - 1)^9*(4*r + 5)^5*(4*r^2 - 14*r + 13)*(2*r^2 - 5*r + 12)^4*(49*r^2 - 41*r - 116)*(112*r^3 + 120*r^2 - 1035*r - 2356)

# the m=7, r=4 special case
delta := 28*k^2 - 98*f*k + 147*f^2 - 32*c
k1spec := -7/2*f
k3spec := 7/2*f - k
sc1conic := 32*c - 147*f^2 + 98*f*k - 28*k^2
sc1cubic := 336*c*f - 1715*f^3 - 32*c*k + 1470*f^2*k - 294*f*k^2 + 28*k^3
sc1tail := 32*c*(7*f + k) + 7*(147*f^3 - 63*f^2*k - 4*k^3)
sc2lin := 7*f - 4*k
sc2oct := 81920*c^3*(343*f^2 + 7*f*k - 2*k^2) - 7168*c^2*(66542*f^4 - 12201*f^3*k + 2653*f^2*k^2 + 476*f*k^3 - 68*k^4) - 784*c*(2384193*f^6 - 1172717*f^5*k + 559384*f^4*k^2 - 154252*f^3*k^3 + 40656*f^2*k^4 - 6384*f*k^5 + 608*k^6) + 2401*(6950895*f^8 - 10169607*f^7*k + 5436942*f^6*k^2 - 1685894*f^5*k^3 + 421456*f^4*k^4 - 69608*f^3*k^5 + 10288*f^2*k^6 - 896*f*k^7 + 64*k^8)
# (m - r) * (cubic block of the mixed first-order relation)
rel1cubic2 := 3/4*m^2*(m - r + 6)*f^3 - 3/2*m*(m + 4*r - 2)*f^2*k + 3*m*(r - 1)*f*k^2 - 3*(m + 1)*(m - r)*c*f

# special-case ODE chain (fp stands for the first derivative of f;
# s = fp^2 is the algebraic unknown)
omeganum := -14*(k - 3*f)
omegaden := (7*f + 2*k)*(4*k - 7*f)
thetanum := 7*(2*k - f)
thetaden := 2*(k - 7*f)*(4*k - 7*f)
kprimenum := 7*(k - 3*f)
kprimeden := 4*k - 7*f
g3p1A := 98*(k - 3*f)*(2*k - f)
g3p1B := (7*f*k - 2*k^2 + 2*c)*(4*k - 7*f)^2*(7*f + 2*k)*(k - 7*f)
g3p2A := 9604*(32*c - 105*f^2)
g3p2B := (147*f^2 - 4*c)*(128*c - 245*f^2)*(32*c - 833*f^2)
dfp1s := -20580*f
dfp1fpp := 196*(32*c - 105*f^2)
dfp1rhs := 3*f*(128*c - 245*f^2)*(32*c - 833*f^2) - 5*f*(147*f^2 - 4*c)*(32*c - 833*f^2) - 17*f*(147*f^2 - 4*c)*(128*c - 245*f^2)
dfp2snum := 1911*f
dfp2sden := 833*f^2 - 32*c
dfp2free := 1/14*(245*f^2 - 2*c)*f
candeltaL := 7*(4*k - 7*f)^2
candeltaR := 128*c - 245*f^2
nonic := 14386462720*c^4*f - 356598824960*c^3*f^3 - 2331746708480*c^2*f^5 + 42758681977200*c*f^7 + 151265495839500*f^9

# constant-ratio lemma (k = alpha*f): the displayed degree-6 relation in
# both variants of the disputed inner coefficient, its leading
# coefficient, and the three-equation elimination target
kfdeg6a := 1/4*m*(m + 2*alpha)*f^4*((m + 2*alpha)*alpha*(r - 1)*f + m + 4*alpha)^2 + 1/8*f*(m^2 + r*(r - 1)*alpha^2 + m*(m + 2*alpha))*(m + 2*alpha)*(3*(m + 2*alpha)*alpha*(r - 1)*f^4 + 4*(m + 4*alpha)*f^3) - 1/4*(m + 4*alpha)*(m^2 + 4*(r - 1)*alpha^2 + m*(m + 2*alpha))*f^4*((m + 2*alpha)*alpha*(r - 1)*f + m + 4*alpha)
kfdeg6b := 1/4*m*(m + 2*alpha)*f^4*((m + 2*alpha)*alpha*(r - 1)*f + m + 4*alpha)^2 + 1/8*f*(m^2 + 4*(r - 1)*alpha^2 + m*(m + 2*alpha))*(m + 2*alpha)*(3*(m + 2*alpha)*alpha*(r - 1)*f^4 + 4*(m + 4*alpha)*f^3) - 1/4*(m + 4*alpha)*(m^2 + 4*(r - 1)*alpha^2 + m*(m + 2*alpha))*f^4*((m + 2*alpha)*alpha*(r - 1)*f + m + 4*alpha)
kff6lead := 1/4*m*(m + 2*alpha)^3*alpha^2*(r - 1)^2
kfelimnum := m*(beta - alpha)*(c*f^2 + alpha*beta*f^4)
kfelimden := alpha*beta
"""


class InvalidParameters(ValueError):
    """Specialization (m, r, c) other than int m >= 4, int 2 <= r <= m-1
    and c in {-1, 0, 1, None}; bool is not taken for int."""


@lru_cache(maxsize=1)
def manifest() -> Manifest:
    return load_manifest(MANIFEST_TEXT)


# factor lists mirroring the closed-form manifest entries; the checks
# evaluate these (a product is zero iff a factor is) and the test suite
# pins product == manifest entry symbolically
DOMINANT_COEF_CONSTANT = -6917529027641081856
DOMINANT_COEF_M_FACTORS = (
    ("m - 10", 3), ("m - 7", 3), ("m - 3", 1), ("m - 1", 2), ("m", 8),
    ("m + 5", 1), ("2*m + 7", 5), ("m^2 - 5*m + 7", 1),
    ("m^2 - 3*m + 20", 4), ("11*m^2 + 23*m - 196", 1),
    ("49*m^2 + 16*m - 497", 1),
)
DOMINANT_COEF_R_FACTORS = (("m + 1 - 2*r", 1), ("m - r", 12), ("r - 1", 28))

RES_SPECIAL_CONSTANT = -56668397794435742564352
RES_SPECIAL_FACTORS = (
    ("2*r - 11", 2), ("r - 4", 4), ("r - 2", 1), ("r - 1", 42), ("r + 2", 1),
    ("2*r - 1", 9), ("4*r + 5", 5), ("4*r^2 - 14*r + 13", 1),
    ("2*r^2 - 5*r + 12", 4), ("49*r^2 - 41*r - 116", 1),
    ("112*r^3 + 120*r^2 - 1035*r - 2356", 1),
)


@lru_cache(maxsize=1)
def closed_form_tables() -> tuple[tuple, tuple, tuple]:
    """The factor tables as integer coefficient lists, parsed once:
    (m-factors, r-factors, special factors).  An m-factor or a special
    factor is (ascending coefficients in m resp. r, exponent); every
    r-factor must have the form a(m) + b*r and is (ascending
    coefficients of a, b, exponent)."""
    m_factors = tuple((tuple(int_coeffs(parse(text), "m")), e)
                      for text, e in DOMINANT_COEF_M_FACTORS)
    r_factors = []
    for text, e in DOMINANT_COEF_R_FACTORS:
        parts = parse(text).coefficients_in("r")
        if len(parts) != 2 or not parts[1].is_constant():
            raise ValueError(f"r-factor {text} is not a(m) + b*r")
        r_factors.append((tuple(int_coeffs(parts[0], "m")),
                          int(parts[1].constant_value()), e))
    special = tuple((tuple(int_coeffs(parse(text), "r")), e)
                    for text, e in RES_SPECIAL_FACTORS)
    return m_factors, tuple(r_factors), special


def dominant_coef_value(mm: int, rr: int, cc: int) -> int:
    m_factors, r_factors, _ = closed_form_tables()
    value = DOMINANT_COEF_CONSTANT * cc ** 12
    for co, e in m_factors:
        value *= horner(co, mm) ** e
    for a, b, e in r_factors:
        value *= (horner(a, mm) + b * rr) ** e
    return value


def res_special_value(rr: int, cc: int) -> int:
    value = RES_SPECIAL_CONSTANT * cc ** 12
    for co, e in closed_form_tables()[2]:
        value *= horner(co, rr) ** e
    return value


# the names a specialization (m, r, c) substitutes, in one pass
_PARAMS = ("m", "r", "c")


@lru_cache(maxsize=1)
def _cleared_core() -> tuple[MultiPoly, int, MultiPoly, MultiPoly, int,
                             tuple[AtPlan, AtPlan, AtPlan]]:
    """(hgen, d_h, num, den, d_f, plans): Hgen = hgen/d_h,
    NumDerF = num/d_f and DenDerF = den/d_f with integer-coefficient
    hgen, num and den, and plans their `AtPlan`s for the names m, r, c,
    so that each specialization (m, r, c) only applies them.  Filled by
    the first build_core, never at import or by manifest();
    `sweep.run_sweep` fills it before it forks its workers, so that every
    worker inherits the plans.  The truncated plans of a build mod
    f^(n+1) are cut from these polynomials and cached beside them
    (`_truncated_core`)."""
    man = manifest()
    hgen, d_h = man["Hgen"].cleared()
    num, d_num = man["NumDerF"].cleared()
    den, d_den = man["DenDerF"].cleared()
    d_f = math.lcm(d_num, d_den)
    hgen, num, den = (MultiPoly(hgen), MultiPoly(num) * (d_f // d_num),
                      MultiPoly(den) * (d_f // d_den))
    return (hgen, d_h, num, den, d_f,
            tuple(AtPlan(p, _PARAMS) for p in (hgen, num, den)))


@lru_cache(maxsize=None)
def _truncated_core(order: int) -> tuple[AtPlan, AtPlan, AtPlan]:
    """The truncated plans: `AtPlan`s for m, r, c of the cleared Hgen,
    NumDerF and DenDerF of `_cleared_core`, each cut once to the
    f-degrees that H and K mod f^(order+1) read
    (`CoreCatalog(params, f_order=order)`).  Filled on first use.

    Let l_h and l_n be the lowest f-exponents of Hgen and NumDerF.  Then
    Hgen_f has no term below f^max(l_h-1, 0) and Hgen_k none below
    f^l_h, so in K = Hgen_f*NumDerF + Hgen_k*DenDerF a term of Hgen above
    f^(order + max(1-l_n, 0)), of NumDerF above f^(order - max(l_h-1, 0))
    or of DenDerF above f^(order - l_h) only meets products above
    f^order.  The cleared core has l_h = l_n = 1: Hgen and NumDerF are
    kept to f^order, DenDerF to f^(order-1); at order 2 that is
    260 + 35 + 29 of the 669 + 49 + 54 terms."""
    hgen, _, num, den, _, _ = _cleared_core()
    low_h, low_n = (min(e for (e,), _ in p.exponents("f")) for p in (hgen, num))
    cuts = ((hgen, order + max(1 - low_n, 0)),
            (num, order - max(low_h - 1, 0)), (den, order - low_h))
    return tuple(AtPlan(p.truncate("f", n), _PARAMS) for p, n in cuts)


@lru_cache(maxsize=1)
def _pq_plans() -> tuple[AtPlan, AtPlan]:
    """`AtPlan`s for m, r, c of the elimination sources P and Q cleared
    to integer coefficients, for `sweep._pq_divisor`.  Filled on first
    use, never at import or by manifest(); `sweep.run_sweep` fills it
    before it forks its workers.  Kept apart from `_cleared_core`, whose
    plans specialize the sweep pair alone."""
    man = manifest()
    return tuple(AtPlan(MultiPoly(man[name].cleared()[0]), _PARAMS)
                 for name in ("P", "Q"))


def cleared_gradings() -> tuple[tuple[set[int], set[int]], ...]:
    """For the cleared Hgen, NumDerF and DenDerF of `_cleared_core`, in
    that order: the (f, k)-degrees of their terms and their weights,
    with f and k of weight 1 and c of weight 2, from `MultiPoly.support`.
    Not cached, so a planted cleared core is read as it is."""
    hgen, _, num, den, _, _ = _cleared_core()
    out = []
    for p in (hgen, num, den):
        exps = p.support("f", "k", "c")
        out.append(({i + j for i, j, _ in exps},
                    {i + j + 2 * s for i, j, s in exps}))
    return tuple(out)


class CoreCatalog:
    """The sweep polynomials H and K for one parameter mode.

    Generic mode (params None) keeps m, r, c symbolic, and H is the
    (m-r)-cleared polynomial Hgen = (m-r)*H.  A specialization (m, r, c)
    substitutes the integers and divides (m - r) back out, so H and K
    carry the exact rational coefficients; c None keeps c symbolic.
    The pair is built in integers: the cleared Hgen, NumDerF and
    DenDerF (_cleared_core) take all parameter values in one pass, by
    their cached `AtPlan`s when m, r and c are all given and by
    `MultiPoly.at` otherwise; K = H_f*NumDerF + H_k*DenDerF is formed
    by integer products, and each result is divided by its denominator
    once.

    With f_order = n, for a full specialization (m, r, c) only, H and K
    are built mod f^(n+1): the generic polynomials come from the
    truncated plans (`_truncated_core(n)`), and the products are cut to
    f^n.  The default, None, builds everything.
    """

    def __init__(self, params: tuple[int, int, int | None] | None = None,
                 f_order: int | None = None):
        self._values = {}
        scale = 1
        if params is not None:
            m0, r0, c0 = params
            if not (type(m0) is int and type(r0) is int
                    and (c0 is None or type(c0) is int)
                    and m0 >= 4 and 2 <= r0 <= m0 - 1
                    and c0 in (-1, 0, 1, None)):
                raise InvalidParameters(f"bad specialization {params}")
            self._values = {"m": m0, "r": r0}
            if c0 is not None:
                self._values["c"] = c0
            scale = m0 - r0
        hgen, d_h, num, den, d_f, plans = _cleared_core()
        full = tuple(self._values) == _PARAMS
        if f_order is not None:
            if not full or type(f_order) is not int or f_order < 0:
                raise ValueError(f"f_order {f_order!r} needs an int >= 0 and "
                                 f"a full specialization (m, r, c)")
            hgen, num, den = _truncated_core(f_order)
        elif full:
            hgen, num, den = plans
        h = hgen.at(self._values)
        k = (h.derivative("f") * num.at(self._values)
             + h.derivative("k") * den.at(self._values))
        if f_order is not None:
            h, k = h.truncate("f", f_order), k.truncate("f", f_order)
        self.H = h.exact_div(MultiPoly.const(d_h * scale))
        self.K = k.exact_div(MultiPoly.const(d_h * scale * d_f))

    def specialize(self, p: MultiPoly) -> MultiPoly:
        """p at this catalog's parameter values, in one pass; the
        identity in generic mode."""
        return p.at(self._values)

    @property
    def new_h(self) -> MultiPoly:
        return reduce_to_z(self.H, 3)

    @property
    def new_k(self) -> MultiPoly:
        return reduce_to_z(self.K, 4)


def build_core(params: tuple[int, int, int | None] | None = None,
               f_order: int | None = None) -> CoreCatalog:
    """Generic catalog (params None) or exact specialization (m, r, c);
    c None leaves c symbolic.  f_order = n builds H and K mod f^(n+1)
    (`CoreCatalog`)."""
    return CoreCatalog(params, f_order)


def fp_square_to_s(p: MultiPoly) -> MultiPoly:
    """Rewrite fp^2 -> s: fp^(2j+e) becomes s^j * fp^e, the remainder of
    p modulo the monic fp^2 - s.

    fp stands for the first derivative of f and s for its square; the
    polynomial kernel itself never rewrites, so chain constructions
    route their fp products through here before comparisons.
    """
    return prem(p, MultiPoly.var("fp", 2) - MultiPoly.var("s"), "fp")


def reduce_to_z(p: MultiPoly, drop: int) -> MultiPoly:
    """Map each monomial k^i f^j to z^i f^(i+j-drop).

    p must be free of z and every monomial of (f,k)-degree >= drop;
    then p(k -> z*f) == f^drop * result.
    """
    return p.substitute_slope("k", "z", "f", drop)
