"""Exact arithmetic kernel: sparse multivariate polynomials and reduced
rational functions over arbitrary-precision rationals.

The variable registry is closed and ordered:

    f < k < z < m < r < c < alpha < beta < s < fp

Monomials are packed into a single int key: one 16-bit field per
variable (15 value bits + 1 guard bit, so per-variable exponents are
bounded by 32767 and overflow is a hard error) plus a leading
total-degree field.  Key addition is monomial multiplication and plain
int comparison of keys is graded-lex order with f most significant,
which is the order used for canonical printing and leading-coefficient
normalization.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Iterator, Mapping

from . import kernels
from .kernels import ExponentOverflow
from .ratio import RAT_ONE, RAT_ZERO, Rat

VAR_NAMES = ("f", "k", "z", "m", "r", "c", "alpha", "beta", "s", "fp")
VAR_INDEX = {name: i for i, name in enumerate(VAR_NAMES)}
NVARS = len(VAR_NAMES)

_FIELD_BITS = 16
_VALUE_BITS = 15
MAX_EXPONENT = (1 << _VALUE_BITS) - 1
_SHIFTS = tuple(_FIELD_BITS * (NVARS - 1 - i) for i in range(NVARS))
_DEG_SHIFT = _FIELD_BITS * NVARS
_FIELD_MASK = (1 << _FIELD_BITS) - 1
GUARD_MASK = 0
for _sh in _SHIFTS + (_DEG_SHIFT,):
    GUARD_MASK |= (1 << _VALUE_BITS) << _sh


class MissingAssignment(KeyError):
    """evaluate() was given no value for a variable of the polynomial."""


class ZeroDivisor(ZeroDivisionError):
    """Division (or pseudo-division) by the zero polynomial."""


class InexactDivision(ArithmeticError):
    """exact_div() called on a non-multiple."""


def _check_var(name: str) -> int:
    try:
        return VAR_INDEX[name]
    except KeyError:
        raise KeyError(f"unknown variable {name!r}; registry is {VAR_NAMES}") from None


def encode_exponents(exps: Iterable[int]) -> int:
    key = 0
    total = 0
    for i, e in enumerate(exps):
        if e:
            if not 0 <= e <= MAX_EXPONENT:
                raise ExponentOverflow(f"exponent {e} outside [0, {MAX_EXPONENT}]")
            key |= e << _SHIFTS[i]
            total += e
    if total > MAX_EXPONENT:
        raise ExponentOverflow(f"total degree {total} outside [0, {MAX_EXPONENT}]")
    return key | (total << _DEG_SHIFT)


def decode_key(key: int) -> tuple[int, ...]:
    return tuple((key >> sh) & _FIELD_MASK for sh in _SHIFTS)


def _var_key(index: int, e: int) -> int:
    if not 0 <= e <= MAX_EXPONENT:
        raise ExponentOverflow(f"exponent {e} outside [0, {MAX_EXPONENT}]")
    return (e << _SHIFTS[index]) | (e << _DEG_SHIFT)


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Values are immutable after construction: every operation returns a
    new polynomial, so instances are safe to share between workers.
    The zero polynomial is the empty term map.
    """

    __slots__ = ("_d",)

    def __init__(self, terms: Mapping | None = None):
        d = {}
        if terms:
            for key, coeff in terms.items():
                if not isinstance(key, int):
                    key = encode_exponents(key)
                q = Rat(coeff)
                if q:
                    d[key] = q
        self._d = d

    @classmethod
    def _raw(cls, d: dict) -> "MultiPoly":
        p = object.__new__(cls)
        p._d = d
        return p

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls._raw({})

    @classmethod
    def const(cls, q) -> "MultiPoly":
        q = Rat(q)
        return cls._raw({0: q} if q else {})

    @classmethod
    def var(cls, name: str, e: int = 1) -> "MultiPoly":
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return cls.const(1)
        return cls._raw({_var_key(_check_var(name), e): RAT_ONE})

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._d

    def __bool__(self) -> bool:
        return bool(self._d)

    def is_constant(self) -> bool:
        return not self._d or (len(self._d) == 1 and 0 in self._d)

    def constant_value(self):
        if not self._d:
            return RAT_ZERO
        if len(self._d) == 1 and 0 in self._d:
            return self._d[0]
        raise ValueError("polynomial is not constant")

    def __len__(self) -> int:
        return len(self._d)

    def terms(self) -> Iterator[tuple[tuple[int, ...], object]]:
        """Yield (exponent tuple, coefficient) in descending graded-lex order."""
        for key in sorted(self._d, reverse=True):
            yield decode_key(key), self._d[key]

    def vars_used(self) -> set[str]:
        used = 0
        for key in self._d:
            used |= key
        return {name for i, name in enumerate(VAR_NAMES)
                if (used >> _SHIFTS[i]) & _FIELD_MASK}

    def degree(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self._d:
            return -1
        sh = _SHIFTS[_check_var(name)]
        return max((key >> sh) & _FIELD_MASK for key in self._d)

    def total_degree(self) -> int:
        if not self._d:
            return -1
        return max(self._d) >> _DEG_SHIFT

    def leading(self) -> tuple[int, object]:
        """(key, coefficient) of the graded-lex leading term."""
        if not self._d:
            raise ValueError("zero polynomial has no leading term")
        key = max(self._d)
        return key, self._d[key]

    def leading_coefficient(self):
        return self.leading()[1]

    # -- ring operations ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self._d == other._d
        if isinstance(other, (int, Rat)):
            return self == MultiPoly.const(other)
        return NotImplemented

    __hash__ = None

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw({k: -v for k, v in self._d.items()})

    def __add__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly._raw(add_dicts(self._d, other._d))

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if not self._d or not other._d:
                return MultiPoly.zero()
            return MultiPoly._raw(kernels.mul_dicts(self._d, other._d, GUARD_MASK))
        if isinstance(other, (int, Rat)):
            q = Rat(other)
            if not q:
                return MultiPoly.zero()
            return MultiPoly._raw({k: v * q for k, v in self._d.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MultiPoly":
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.const(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- structural operations ----------------------------------------

    def coefficient(self, name: str, d: int) -> "MultiPoly":
        """The polynomial multiplying name**d, with that variable removed."""
        i = _check_var(name)
        sh = _SHIFTS[i]
        strip = (d << sh) | (d << _DEG_SHIFT)
        out = {}
        for key, coeff in self._d.items():
            if (key >> sh) & _FIELD_MASK == d:
                out[key - strip] = coeff
        return MultiPoly._raw(out)

    def coefficients_in(self, name: str) -> list["MultiPoly"]:
        """Dense coefficient list [c_0, ..., c_deg] with the variable removed."""
        i = _check_var(name)
        sh = _SHIFTS[i]
        deg = self.degree(name)
        if deg < 0:
            return []
        buckets: list[dict] = [dict() for _ in range(deg + 1)]
        for key, coeff in self._d.items():
            e = (key >> sh) & _FIELD_MASK
            buckets[e][key - ((e << sh) | (e << _DEG_SHIFT))] = coeff
        return [MultiPoly._raw(b) for b in buckets]

    def substitute(self, name: str, value) -> "MultiPoly":
        """Replace a variable by a value, expanded: a number (int or Rat)
        in one pass by subst_dict, a polynomial or rational function by
        Horner over the coefficients in that variable."""
        if isinstance(value, (int, Rat)):
            return MultiPoly._raw(subst_dict(self._d, ((name, value),)))
        coeffs = self.coefficients_in(name)
        return horner(coeffs, value) if coeffs else self

    def evaluate(self, assignment: Mapping[str, object]):
        """Exact value under a full variable assignment (ring homomorphism)."""
        missing = self.vars_used() - set(assignment)
        if missing:
            raise MissingAssignment(f"no value for {sorted(missing)}")
        values = [(name, Rat(v)) for name, v in assignment.items()
                  if name in VAR_INDEX]
        return subst_dict(self._d, values).get(0, RAT_ZERO)

    def derivative(self, name: str) -> "MultiPoly":
        return MultiPoly._raw(diff_dict(self._d, name))

    def exact_div(self, b: "MultiPoly") -> "MultiPoly":
        """Exact quotient self / b; raises InexactDivision otherwise."""
        if not isinstance(b, MultiPoly) or b.is_zero():
            raise ZeroDivisor("division by zero polynomial")
        if not self._d:
            return MultiPoly.zero()
        if b.is_constant():
            inv = RAT_ONE / b.constant_value()
            return MultiPoly._raw({k: v * inv for k, v in self._d.items()})
        bk, bc = b.leading()
        rem = dict(self._d)
        quot: dict = {}
        heap = [-k for k in rem]
        heapq.heapify(heap)
        while heap:
            key = -heapq.heappop(heap)
            coeff = rem.get(key)
            if not coeff:
                continue
            t = key - bk
            if t < 0 or (t & GUARD_MASK):
                raise InexactDivision("leading term not divisible")
            qc = coeff / bc
            quot[t] = qc
            kernels.addmul_term(rem, -qc, t, b._d, GUARD_MASK)
            for kb in b._d:
                if kb != bk:
                    heapq.heappush(heap, -(t + kb))
        if rem:
            raise InexactDivision("nonzero remainder")
        return MultiPoly._raw(quot)

    def divides(self, other: "MultiPoly") -> bool:
        try:
            other.exact_div(self)
            return True
        except InexactDivision:
            return False

    def primitive(self) -> tuple[object, "MultiPoly"]:
        """Split p = content * prim with prim integer-coefficient, coprime
        coefficients and positive leading coefficient; p must be nonzero."""
        if not self._d:
            raise ValueError("zero polynomial has no primitive part")
        nums, den = self.cleared()
        g = math.gcd(*nums.values())
        if self.leading_coefficient() < 0:
            g = -g
        return Rat(g, den), MultiPoly._raw({k: Rat(v // g) for k, v in nums.items()})

    def cleared(self) -> tuple[dict, int]:
        """(nums, den): the raw key -> int dict and the lcm of the
        coefficient denominators, with self == from_cleared(nums, den)."""
        den = math.lcm(*(v.denominator for v in self._d.values()))
        return {k: v.numerator * (den // v.denominator)
                for k, v in self._d.items()}, den

    @classmethod
    def from_cleared(cls, nums: dict, den: int) -> "MultiPoly":
        """nums / den for a raw key -> int dict without zero values; the
        one division of an integer computation back into Rat."""
        return cls._raw({k: Rat(v, den) for k, v in nums.items()})

    def __str__(self) -> str:
        from .parser import format_poly
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _coerce(value):
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, (int, Rat)):
        return MultiPoly.const(value)
    return NotImplemented


def variables() -> dict[str, MultiPoly]:
    """Fresh degree-one polynomials for every registry variable."""
    return {name: MultiPoly.var(name) for name in VAR_NAMES}


def add_dicts(a: dict, b: dict) -> dict:
    """Sum of two raw key -> coeff dicts."""
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for key, coeff in b.items():
        if key in out:
            cc = out[key] + coeff
            if cc:
                out[key] = cc
            else:
                del out[key]
        else:
            out[key] = coeff
    return out


def diff_dict(d: dict, name: str) -> dict:
    """Derivative of a raw key -> coeff dict in one variable."""
    sh = _SHIFTS[_check_var(name)]
    step = (1 << sh) | (1 << _DEG_SHIFT)
    out = {}
    for key, coeff in d.items():
        e = (key >> sh) & _FIELD_MASK
        if e:
            out[key - step] = coeff * e
    return out


def subst_dict(d: dict, values) -> dict:
    """A raw key -> coeff dict with each (name, value) pair of values
    substituted, in one pass over the keys.  Each distinct monomial in
    the substituted variables is valued once from per-variable power
    tables; a term's coefficient is multiplied by its monomial's value,
    the variables leave its key, and equal keys merge.  Coefficients
    and values are int or Rat; int with int stays int."""
    fields = [_SHIFTS[_check_var(name)] for name, _ in values]
    mask = 0
    for sh in fields:
        mask |= _FIELD_MASK << sh
    subs = {key & mask for key in d}
    tables = []
    for sh, (_, value) in zip(fields, values):
        powers = [1]
        for _ in range(max(((sub >> sh) & _FIELD_MASK for sub in subs), default=0)):
            powers.append(powers[-1] * value)
        tables.append((sh, powers))
    monomials = {}
    for sub in subs:
        factor, total = 1, 0
        for sh, powers in tables:
            e = (sub >> sh) & _FIELD_MASK
            factor *= powers[e]
            total += e
        monomials[sub] = (factor, sub | (total << _DEG_SHIFT))
    out = {}
    for key, coeff in d.items():
        factor, strip = monomials[key & mask]
        coeff *= factor
        if not coeff:
            continue
        key -= strip
        if key in out:
            cc = out[key] + coeff
            if cc:
                out[key] = cc
            else:
                del out[key]
        else:
            out[key] = coeff
    return out


def horner(coeffs, x):
    """Value at x of the polynomial with ascending coefficients coeffs
    (nonempty).  Only * and + are used, so coefficients and x may be
    int, Rat, MultiPoly or RatFun."""
    acc = coeffs[-1]
    for co in reversed(coeffs[:-1]):
        acc = acc * x + co
    return acc


def int_coeffs(p: MultiPoly, var: str) -> list[int]:
    """Ascending integer coefficients of a polynomial in var alone."""
    return [int(ce.constant_value()) for ce in p.coefficients_in(var)] or [0]


# -- pseudo-division and gcd ------------------------------------------


def prem(a: MultiPoly, b: MultiPoly, name: str) -> MultiPoly:
    """Textbook pseudo-remainder in v: lc_v(b)^max(deg_v(a) - deg_v(b) + 1, 0)
    * a reduced modulo b, the convention of sympy.prem and of the
    subresultant PRS.  One step is taken per degree of a from deg_v(a)
    down to deg_v(b), also where the current coefficient has already
    vanished."""
    if b.is_zero():
        raise ZeroDivisor("pseudo-division by zero")
    db = b.degree(name)
    lc_b = b.coefficient(name, db)
    rem = a
    for d in range(a.degree(name), db - 1, -1):
        rem = rem * lc_b - rem.coefficient(name, d) * MultiPoly.var(name, d - db) * b
    return rem


def pseudo_division(a: MultiPoly, b: MultiPoly, name: str
                    ) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(quot, rem, scale) with scale*a == quot*b + rem, rem = prem(a, b)
    and scale = lc_v(b)^max(deg_v(a) - deg_v(b) + 1, 0)."""
    rem = prem(a, b, name)
    db = b.degree(name)
    scale = b.coefficient(name, db) ** max(a.degree(name) - db + 1, 0)
    return (scale * a - rem).exact_div(b), rem, scale


def _content_in(p: MultiPoly, name: str) -> MultiPoly:
    """gcd of the v-coefficients of p (a polynomial in the other variables)."""
    cont = MultiPoly.zero()
    for ce in p.coefficients_in(name):
        if ce.is_zero():
            continue
        cont = gcd(cont, ce)
        if cont.is_constant():
            break
    return cont


def _normalize(p: MultiPoly) -> MultiPoly:
    if p.is_zero():
        return p
    return p.primitive()[1]


def gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Primitive multivariate gcd (subresultant PRS, recursive content).

    The result has integer coprime coefficients and positive leading
    coefficient; the gcd of two constants (units) is 1.
    """
    if a.is_zero():
        return _normalize(b)
    if b.is_zero():
        return _normalize(a)
    if a.is_constant() or b.is_constant():
        return MultiPoly.const(1)
    used = a.vars_used() | b.vars_used()
    name = next(nm for nm in VAR_NAMES if nm in used)
    # if one input is free of the main variable the gcd divides its
    # content, so recurse against the other's content
    if a.degree(name) == 0:
        return gcd(a, _content_in(b, name))
    if b.degree(name) == 0:
        return gcd(_content_in(a, name), b)
    cont_a = _content_in(a, name)
    cont_b = _content_in(b, name)
    pp_a = a.exact_div(cont_a)
    pp_b = b.exact_div(cont_b)
    g_pp = _prs_gcd(pp_a, pp_b, name)
    return _normalize(gcd(cont_a, cont_b) * g_pp)


def _prs_gcd(a: MultiPoly, b: MultiPoly, name: str) -> MultiPoly:
    """gcd of two v-primitive polynomials via the subresultant PRS."""
    if a.degree(name) < b.degree(name):
        a, b = b, a
    g = MultiPoly.const(1)
    h = MultiPoly.const(1)
    while True:
        delta = a.degree(name) - b.degree(name)
        rem = prem(a, b, name)
        if rem.is_zero():
            break
        if rem.degree(name) == 0:
            return MultiPoly.const(1)
        a, b = b, rem.exact_div(g * h ** delta)
        g = a.coefficient(name, a.degree(name))
        if delta:
            h = (g ** delta).exact_div(h ** (delta - 1)) if delta > 1 else g
    prim = b.exact_div(_content_in(b, name))
    return _normalize(prim)


# -- reduced rational functions ---------------------------------------


class RatFun:
    """Quotient of two MultiPoly in reduced canonical form.

    gcd(num, den) is constant, den has integer coprime coefficients and
    positive leading coefficient; equality is cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if not isinstance(num, MultiPoly):
            num = MultiPoly.const(num)
        if den is None:
            den = MultiPoly.const(1)
        elif not isinstance(den, MultiPoly):
            den = MultiPoly.const(den)
        if den.is_zero():
            raise ZeroDivisor("rational function with zero denominator")
        if num.is_zero():
            self.num = MultiPoly.zero()
            self.den = MultiPoly.const(1)
            return
        g = gcd(num, den)
        if not g.is_constant():
            num = num.exact_div(g)
            den = den.exact_div(g)
        cont, prim = den.primitive()
        self.num = num * (RAT_ONE / cont)
        self.den = prim

    @classmethod
    def _reduced(cls, num: MultiPoly, den: MultiPoly) -> "RatFun":
        rf = object.__new__(cls)
        rf.num = num
        rf.den = den
        return rf

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        return self.num.constant_value() / self.den.constant_value()

    def __eq__(self, other) -> bool:
        if isinstance(other, (MultiPoly, int, Rat)):
            other = RatFun(_coerce(other))
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __neg__(self) -> "RatFun":
        return RatFun._reduced(-self.num, self.den)

    def __add__(self, other) -> "RatFun":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other) -> "RatFun":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "RatFun":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisor("division by zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def derivative(self, name: str) -> "RatFun":
        return RatFun(self.num.derivative(name) * self.den
                      - self.num * self.den.derivative(name),
                      self.den * self.den)

    def substitute(self, name: str, value) -> "RatFun":
        value = _coerce_rf(value)
        return subst_ratfun(self.num, name, value) / subst_ratfun(self.den, name, value)

    def __str__(self) -> str:
        if self.den.is_constant():
            return str(self.num.exact_div(self.den))
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFun({self})"


def _coerce_rf(value):
    if isinstance(value, RatFun):
        return value
    p = _coerce(value)
    if p is NotImplemented:
        return NotImplemented
    return RatFun._reduced(p, MultiPoly.const(1))


def subst_ratfun(p: MultiPoly, name: str, value: RatFun) -> RatFun:
    """Substitute a rational function for a variable of a polynomial."""
    coeffs = [_coerce_rf(ce) for ce in p.coefficients_in(name)]
    return horner(coeffs, value) if coeffs else RatFun(MultiPoly.zero())

