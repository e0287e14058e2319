"""Exact arithmetic kernel: sparse multivariate polynomials over
arbitrary-precision rationals.  There is no rational-function type: a
caller with a denominator multiplies it out and compares polynomials.

A coefficient is an int or a Rat, never a float or a bool.  Integers
stay int: `MultiPoly(...)`, `const`, the scalar product and
`ratio.quotient`, the one coefficient division, give an integral Rat
as an int; sums and products of two polynomials do not normalize.

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
import operator
from typing import Iterable, Iterator, Mapping

from . import kernels
from .kernels import ExponentOverflow
from .ratio import Rat, quotient

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


class DegreeTooLow(ValueError):
    """substitute_slope saw a monomial whose degree in its two variables
    is below the drop."""


def _check_var(name: str) -> int:
    try:
        return VAR_INDEX[name]
    except KeyError:
        raise KeyError(f"unknown variable {name!r}; registry is {VAR_NAMES}") from None


def _rat(value):
    """A coefficient: an int (a bool or an integral Rat as int) or a Rat;
    a float would enter as its binary expansion and raises TypeError."""
    if not isinstance(value, (int, Rat)):
        raise TypeError(f"coefficient must be int or Rat, not "
                        f"{type(value).__name__}")
    return value.numerator if value.denominator == 1 else value


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
    """Sparse multivariate polynomial with int or Rat coefficients.

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
                if type(coeff) is not int:
                    coeff = _rat(coeff)
                if coeff:
                    d[key] = coeff
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
        q = _rat(q)
        return cls._raw({0: q} if q else {})

    @classmethod
    def var(cls, name: str, e: int = 1) -> "MultiPoly":
        if e < 0:
            raise ValueError("negative exponent")
        return cls._raw({_var_key(_check_var(name), e): 1})

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._d

    def __bool__(self) -> bool:
        return bool(self._d)

    def is_constant(self) -> bool:
        return not self._d or (len(self._d) == 1 and 0 in self._d)

    def constant_value(self):
        if not self._d:
            return 0
        if len(self._d) == 1 and 0 in self._d:
            return self._d[0]
        raise ValueError("polynomial is not constant")

    def __len__(self) -> int:
        return len(self._d)

    def terms(self) -> Iterator[tuple[tuple[int, ...], object]]:
        """Yield (exponent tuple, coefficient) in descending graded-lex order."""
        for key in sorted(self._d, reverse=True):
            yield decode_key(key), self._d[key]

    def exponents(self, *names: str) -> Iterator[tuple[tuple[int, ...], object]]:
        """Yield (exponents of names, coefficient) for every term, in no
        set order; the other variables' exponents are not read."""
        shifts = [_SHIFTS[_check_var(name)] for name in names]
        for key, coeff in self._d.items():
            yield tuple((key >> sh) & _FIELD_MASK for sh in shifts), coeff

    def support(self, *names: str) -> set[tuple[int, ...]]:
        """The distinct exponent tuples of names, each decoded once."""
        shifts = [_SHIFTS[_check_var(name)] for name in names]
        mask = sum(_FIELD_MASK << sh for sh in set(shifts))
        return {tuple((key >> sh) & _FIELD_MASK for sh in shifts)
                for key in {key & mask for key in self._d}}

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
        a, b = self._d, other._d
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
        return MultiPoly._raw(out)

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
            return MultiPoly._raw(kernels.mul_dicts(self._d, other._d, GUARD_MASK))
        if isinstance(other, (int, Rat)):
            q = _rat(other)
            if not q:
                return MultiPoly.zero()
            return MultiPoly._raw({k: _rat(v * q) for k, v in self._d.items()})
        return NotImplemented

    __rmul__ = __mul__

    def mul_truncated(self, other: "MultiPoly", name: str, n: int) -> "MultiPoly":
        """(self * other).truncate(name, n), forming no product of two
        terms whose degrees in name sum above n
        (`kernels.mul_dicts_truncated`)."""
        return MultiPoly._raw(kernels.mul_dicts_truncated(
            self._d, other._d, GUARD_MASK, _SHIFTS[_check_var(name)], n))

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

    def truncate(self, name: str, n: int) -> "MultiPoly":
        """self mod name^(n+1): the terms of degree at most n in name
        (none for n < 0)."""
        sh = _SHIFTS[_check_var(name)]
        return MultiPoly._raw({key: coeff for key, coeff in self._d.items()
                               if (key >> sh) & _FIELD_MASK <= n})

    def coefficients_in(self, name: str) -> list["MultiPoly"]:
        """Dense coefficient list [c_0, ..., c_deg] with the variable removed."""
        i = _check_var(name)
        sh = _SHIFTS[i]
        buckets: list[dict] = [dict() for _ in range(self.degree(name) + 1)]
        for key, coeff in self._d.items():
            e = (key >> sh) & _FIELD_MASK
            buckets[e][key - ((e << sh) | (e << _DEG_SHIFT))] = coeff
        return [MultiPoly._raw(b) for b in buckets]

    def substitute(self, name: str, value) -> "MultiPoly":
        """Replace a variable by a value, expanded: a number (int or Rat)
        by `at`, a polynomial by Horner over the coefficients in that
        variable.  To substitute a quotient num/den, clear den by hand."""
        if isinstance(value, (int, Rat)):
            return self.at({name: value})
        coeffs = self.coefficients_in(name)
        return horner(coeffs, value) if coeffs else self

    def at(self, values: Mapping[str, object]) -> "MultiPoly":
        """Each variable of values replaced by its number (int or Rat),
        all at once: subst_dict builds the plan of the substitution and
        applies it (`AtPlan` keeps the plan for many points)."""
        return MultiPoly._raw(subst_dict(self._d, values.items()))

    def evaluate(self, assignment: Mapping[str, object]):
        """Exact value under a full variable assignment (ring homomorphism)."""
        missing = self.vars_used() - set(assignment)
        if missing:
            raise MissingAssignment(f"no value for {sorted(missing)}")
        return self.at({name: v for name, v in assignment.items()
                        if name in VAR_INDEX}).constant_value()

    def derivative(self, name: str) -> "MultiPoly":
        sh = _SHIFTS[_check_var(name)]
        step = (1 << sh) | (1 << _DEG_SHIFT)
        out = {}
        for key, coeff in self._d.items():
            e = (key >> sh) & _FIELD_MASK
            if e:
                out[key - step] = coeff * e
        return MultiPoly._raw(out)

    def halve_exponents(self, name: str) -> "MultiPoly | None":
        """q with self == q.substitute(name, name^2): every exponent of
        the variable halved; None when one of them is odd."""
        sh = _SHIFTS[_check_var(name)]
        unit = (1 << sh) | (1 << _DEG_SHIFT)
        out = {}
        for key, coeff in self._d.items():
            e = (key >> sh) & _FIELD_MASK
            if e & 1:
                return None
            out[key - (e >> 1) * unit] = coeff
        return MultiPoly._raw(out)

    def substitute_slope(self, var: str, new: str, base: str,
                         drop: int) -> "MultiPoly":
        """self(var -> new*base) / base^drop, monomial by monomial:
        var^i base^j becomes new^i base^(i+j-drop).  self must be free of
        new, and every monomial must have (base,var)-degree >= drop;
        DegreeTooLow names the first one that has not."""
        iv, inew, ib = (_check_var(name) for name in (var, new, base))
        if len({iv, inew, ib}) != 3:
            raise ValueError("var, new and base must be three variables")
        if drop < 0:
            raise ValueError("negative drop")
        sv, sn, sb = _SHIFTS[iv], _SHIFTS[inew], _SHIFTS[ib]
        unit_b = (1 << sb) | (1 << _DEG_SHIFT)
        # per unit of i: var field -1, new field +1, base and total +1
        step = (1 << sn) - (1 << sv) + unit_b
        strip = drop * unit_b
        if any((key >> sn) & _FIELD_MASK for key in self._d):
            raise ValueError(f"substitution input already involves {new}")
        out = {}
        for key, coeff in self._d.items():
            i = (key >> sv) & _FIELD_MASK
            if i + ((key >> sb) & _FIELD_MASK) < drop:
                exps = decode_key(key)
                mono = "*".join(f"{nm}^{e}" for nm, e in zip(VAR_NAMES, exps) if e)
                raise DegreeTooLow(f"monomial {mono or '1'} has ({base},{var})-"
                                   f"degree {exps[ib] + exps[iv]} < drop {drop}")
            # every field of the result lies in [0, 2^16): no borrow
            key += i * step - strip
            if key & GUARD_MASK:
                raise ExponentOverflow(f"total degree {key >> _DEG_SHIFT} "
                                       f"outside [0, {MAX_EXPONENT}]")
            out[key] = coeff
        return MultiPoly._raw(out)

    def exact_div(self, b: "MultiPoly") -> "MultiPoly":
        """Exact quotient self / b; raises InexactDivision otherwise."""
        if not isinstance(b, MultiPoly) or b.is_zero():
            raise ZeroDivisor("division by zero polynomial")
        if b.is_constant():
            bc = b.constant_value()
            return MultiPoly._raw({k: quotient(v, bc) for k, v in self._d.items()})
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
            qc = quotient(coeff, bc)
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
        """Split p = content * prim with prim of int, coprime coefficients
        and positive leading coefficient, content an int or a Rat; p must
        be nonzero."""
        if not self._d:
            raise ValueError("zero polynomial has no primitive part")
        nums, den = self.cleared()
        g = math.gcd(*nums.values())
        if self.leading_coefficient() < 0:
            g = -g
        return quotient(g, den), MultiPoly._raw({k: v // g for k, v in nums.items()})

    def cleared(self) -> tuple[dict, int]:
        """(nums, den): the raw key -> int dict and the lcm of the
        coefficient denominators, with self == MultiPoly(nums) * Rat(1, den)."""
        den = math.lcm(*(v.denominator for v in self._d.values()))
        return {k: v.numerator * (den // v.denominator)
                for k, v in self._d.items()}, den

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


def subst_plan(d: dict, names) -> tuple:
    """The value-free half of substituting numbers for names in a raw
    key -> coeff dict, in one pass over its terms:
    (tops, columns, count, coeffs, monomial, keys, slots).

    The count distinct monomials of d in the names are numbered in
    order of appearance; columns holds, per name, their exponents in
    that order, and tops the largest of each column.  Removing the
    names from a term's key gives its output key; keys lists the
    distinct output keys.  coeffs and monomial give every term's
    coefficient and monomial number: first the first term of each
    output key, in the order of keys, then the other terms, whose
    output key is keys[slot] for the matching entry of slots."""
    shifts, mask = [], 0
    for name in names:
        sh = _SHIFTS[_check_var(name)]
        shifts.append(sh)
        mask |= _FIELD_MASK << sh
    seen: dict[int, tuple[int, int]] = {}  # monomial -> (number, strip)
    slot_of: dict[int, int] = {}
    coeffs, monomial, more_coeffs, more_monomial, slots = [], [], [], [], []
    for key, coeff in d.items():
        sub = key & mask
        hit = seen.get(sub)
        if hit is None:
            total = 0
            for sh in shifts:
                total += (sub >> sh) & _FIELD_MASK
            hit = seen[sub] = (len(seen), sub | (total << _DEG_SHIFT))
        i, strip = hit
        out = key - strip
        slot = slot_of.get(out)
        if slot is None:
            slot_of[out] = len(coeffs)
            coeffs.append(coeff)
            monomial.append(i)
        else:
            slots.append(slot)
            more_coeffs.append(coeff)
            more_monomial.append(i)
    columns = [[(sub >> sh) & _FIELD_MASK for sub in seen] for sh in shifts]
    tops = list(map(max, columns)) if seen else [0] * len(shifts)
    return (tops, columns, len(seen), coeffs + more_coeffs,
            monomial + more_monomial, list(slot_of), slots)


_value_of = operator.itemgetter(1)  # of a (key, value) pair


def subst_apply(plan: tuple, values) -> dict:
    """The raw dict of a subst_plan at values (one int or Rat per name,
    in the plan's order).  Each name's powers up to its top give every
    monomial's value, one product per name and monomial; each term's
    coefficient is multiplied by its monomial's value, the products are
    summed per output key, and zero sums are dropped.  int with int
    stays int."""
    tops, columns, count, coeffs, monomial, keys, slots = plan
    worth = [1] * count
    for top, value, col in zip(tops, values, columns):
        powers = [1]
        for _ in range(top):
            powers.append(powers[-1] * value)
        worth = list(map(operator.mul, worth, map(powers.__getitem__, col)))
    prods = list(map(operator.mul, coeffs, map(worth.__getitem__, monomial)))
    sums = prods[:len(keys)]
    for slot, prod in zip(slots, prods[len(keys):]):
        sums[slot] += prod
    return dict(filter(_value_of, zip(keys, sums)))


def subst_dict(d: dict, values) -> dict:
    """A raw key -> coeff dict with each (name, value) pair of values
    substituted: subst_plan, then subst_apply.  Coefficients and values
    are int or Rat (a value passes `_rat`); int with int stays int."""
    names, numbers = zip(*values) if values else ((), ())
    return subst_apply(subst_plan(d, names), list(map(_rat, numbers)))


class AtPlan:
    """`MultiPoly.at` of one polynomial at a fixed tuple of names, split
    so that the value-free half (subst_plan) is built once and only
    subst_apply runs per point: plan = AtPlan(p, ("m", "r")) gives
    plan.at({"m": 5, "r": 3}) == p.at({"m": 5, "r": 3})."""

    __slots__ = ("names", "_plan")

    def __init__(self, p: MultiPoly, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"repeated name in {self.names}")
        self._plan = subst_plan(p._d, self.names)

    def at(self, values: Mapping[str, object]) -> MultiPoly:
        """The polynomial at values, a number (int or Rat) for each of
        the names and for nothing else."""
        if set(values) != set(self.names):
            raise ValueError(f"values must assign exactly {self.names}")
        return MultiPoly._raw(subst_apply(
            self._plan, [_rat(values[name]) for name in self.names]))


def horner(coeffs, x):
    """Value at x of the polynomial with ascending coefficients coeffs
    (nonempty).  Only * and + are used, so coefficients and x may be
    int, Rat or MultiPoly."""
    acc = coeffs[-1]
    for co in reversed(coeffs[:-1]):
        acc = acc * x + co
    return acc


def int_coeffs(p: MultiPoly, var: str) -> list[int]:
    """Ascending integer coefficients of a polynomial in var alone; a
    coefficient that is not an integer raises ValueError."""
    coeffs = [ce.constant_value() for ce in p.coefficients_in(var)] or [0]
    if any(co.denominator != 1 for co in coeffs):
        raise ValueError(f"{p} has a coefficient that is not an integer")
    return [int(co) for co in coeffs]


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
    a, b = _normalize(a), _normalize(b)  # integer coefficients from here on
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

