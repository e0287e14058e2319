"""Exact arithmetic kernel: arithmetic, structure operations, division,
gcd, and rational functions."""

import pytest
from collections import Counter
from fractions import Fraction

from conftest import (rand_nonzero, rand_poly, ref_eval, ref_from_multipoly,
                      ref_mul, ref_subst, ref_to_multipoly)

from resverify.parser import parse
from resverify.poly import (MAX_EXPONENT, VAR_INDEX, AtPlan, DegreeTooLow,
                            ExponentOverflow, InexactDivision,
                            MissingAssignment, MultiPoly, ZeroDivisor,
                            encode_exponents, gcd, horner, int_coeffs,
                            pseudo_division,
                            subst_dict, variables)
from resverify.ratio import Rat

V = variables()
F, K, M, R, C, Z = V["f"], V["k"], V["m"], V["r"], V["c"], V["z"]


class TestArith:
    def test_difference_of_squares(self):
        assert (F + K) * (F - K) == F ** 2 - K ** 2

    def test_additive_identity(self, rng):
        for _ in range(50):
            p = rand_poly(rng)
            assert p + MultiPoly.zero() == p

    def test_binomial_cube(self):
        assert (F + 1) ** 3 == F ** 3 + 3 * F ** 2 + 3 * F + 1

    def test_zero_is_empty_map(self):
        assert len(F - F) == 0
        assert (F - F).is_zero()

    def test_no_stored_zero_coefficients(self, rng):
        for _ in range(100):
            p = rand_poly(rng) * rand_poly(rng) + rand_poly(rng)
            assert all(co != 0 for _, co in p.terms())

    def test_ring_axioms_randomized(self, rng):
        for _ in range(300):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_mul_matches_reference(self, rng):
        for _ in range(100):
            a, b = rand_poly(rng), rand_poly(rng)
            got = ref_from_multipoly(a * b)
            want = ref_mul(ref_from_multipoly(a), ref_from_multipoly(b))
            assert got == want

    def test_pow_negative_rejected(self):
        with pytest.raises(ValueError):
            F ** -1

    def test_rational_coefficients(self):
        p = MultiPoly.const(Rat(9, 4)) * M ** 3 * F ** 3
        assert p.evaluate({"m": 2, "f": 1}) == Rat(18)

    def test_exponent_overflow_is_hard_error(self):
        big = F ** MAX_EXPONENT
        with pytest.raises(ExponentOverflow):
            big * F


class TestFloatsRefused:
    # a float would enter as its binary expansion (0.1 as
    # 3602879701896397/2^55): every entry point refuses it alike
    @pytest.mark.parametrize("make", [
        lambda: MultiPoly.const(0.1),
        lambda: MultiPoly({(1,): 0.5}),
        lambda: (F + 1).evaluate({"f": 0.1}),
        lambda: (F + 1) * 0.5,
        lambda: (F + 1) + 0.5,
        lambda: (F + 1).substitute("f", 0.5),
    ], ids=["const", "init", "evaluate", "mul", "add", "substitute"])
    def test_type_error(self, make):
        with pytest.raises(TypeError):
            make()


class TestRatType:
    def test_normalized_on_construction(self):
        assert Rat(2, 4) == Rat(1, 2)
        assert Rat(2, 4).numerator == 1 and Rat(2, 4).denominator == 2

    def test_denominator_positive(self):
        q = Rat(1, -2)
        assert q.denominator == 2 and q.numerator == -1

    def test_zero_canonical(self):
        assert Rat(0, 5).numerator == 0 and Rat(0, 5).denominator == 1


class TestCoefficientType:
    # integers stay int; a division gives a Fraction only when the
    # quotient is not integral, never the float of int / int
    def test_integers_stay_int(self):
        p = 3 * F ** 2 - K + 2
        assert {type(co) for _, co in p.terms()} == {int}
        assert type(MultiPoly.const(True).constant_value()) is int
        assert type(p.evaluate({"f": 2, "k": 1})) is int
        cont, prim = (p * Rat(2, 3)).primitive()
        assert cont == Rat(2, 3)
        assert {type(co) for _, co in prim.terms()} == {int}

    @pytest.mark.parametrize("make", [
        lambda: MultiPoly.const(3).exact_div(MultiPoly.const(2)).constant_value(),
        lambda: (3 * F).exact_div(2 * F).constant_value(),
    ], ids=["exact-div-constant", "exact-div-term"])
    def test_quotient_is_fraction(self, make):
        q = make()
        assert q == Rat(3, 2) and type(q) is Fraction

    @pytest.mark.parametrize("make", [
        lambda: (4 * K + 2) * Rat(1, 2),
        lambda: MultiPoly.const(Rat(4, 2)),
        lambda: parse("4/2*k"),
    ], ids=["scalar-product", "const", "parse"])
    def test_integral_rat_becomes_int(self, make):
        assert {type(co) for _, co in make().terms()} == {int}

    def test_integral_quotient_is_int(self):
        q = (6 * F).exact_div(MultiPoly.const(Rat(3, 2)))
        assert q == 4 * F and {type(co) for _, co in q.terms()} == {int}


class TestIntCoeffs:
    def test_ascending(self):
        assert int_coeffs(3 * M ** 2 - 1, "m") == [-1, 0, 3]
        assert int_coeffs(MultiPoly.zero(), "m") == [0]

    def test_fraction_raises(self):
        with pytest.raises(ValueError):
            int_coeffs(MultiPoly.var("m") + Rat(3, 2), "m")


class TestEvaluate:
    def test_example(self):
        assert (F ** 2 - K ** 2).evaluate({"f": 3, "k": 2}) == 5

    def test_delta_spot(self):
        delta = 28 * K ** 2 - 98 * F * K + 147 * F ** 2 - 32 * C
        assert delta.evaluate({"f": 1, "k": 1, "c": 1}) == 45

    def test_missing_assignment(self):
        with pytest.raises(MissingAssignment):
            (F + K).evaluate({"f": 1})

    def test_homomorphism_randomized(self, rng):
        for _ in range(1000):
            a, b = rand_poly(rng), rand_poly(rng)
            at = {"f": rng.randint(-5, 5), "k": rng.randint(-5, 5)}
            assert (a * b).evaluate(at) == a.evaluate(at) * b.evaluate(at)
            assert (a + b).evaluate(at) == a.evaluate(at) + b.evaluate(at)

    def test_evaluate_matches_reference(self, rng):
        for _ in range(100):
            p = rand_poly(rng)
            at = {"f": rng.randint(-4, 4), "k": rng.randint(-4, 4)}
            assert p.evaluate(at) == ref_eval(ref_from_multipoly(p), at)


class TestSubstitute:
    def test_horner_on_each_coefficient_type(self):
        assert horner([5, 0, 2], 3) == 23
        assert horner([Rat(1, 2), Rat(1, 3)], Rat(3)) == Rat(3, 2)
        assert horner([K, 1, F], K) == F * K ** 2 + 2 * K

    def test_constant(self):
        assert (M * F + R).substitute("m", 7) == 7 * F + R

    def test_identity(self):
        assert (F ** 2).substitute("f", F) == F ** 2

    def test_polynomial_value(self):
        assert (F ** 2).substitute("f", F + K) == F ** 2 + 2 * F * K + K ** 2

    def test_commutes_with_evaluate(self, rng):
        for _ in range(200):
            p = rand_poly(rng, names=("f", "k"))
            q = rand_poly(rng, names=("k",), max_terms=3, max_deg=2)
            at = {"k": rng.randint(-4, 4)}
            lhs = p.substitute("f", q).evaluate(at)
            rhs = p.evaluate({"f": q.evaluate(at), **at})
            assert lhs == rhs


    def test_number_matches_reference(self, rng):
        names = ("f", "m", "r", "c")
        for _ in range(200):
            p = rand_poly(rng, names=names) * Rat(rng.randint(1, 5), rng.randint(1, 5))
            name = rng.choice(names[1:])
            value = rng.choice((rng.randint(-3, 3), Rat(rng.randint(-3, 3), 7)))
            got = dict(p.substitute(name, value).terms())
            assert all(type(co) in (int, Fraction) for co in got.values())
            assert got == ref_subst(ref_from_multipoly(p), {name: value})

    def test_subst_dict_one_pass_in_int(self, rng):
        for _ in range(200):
            p = rand_poly(rng, names=("f", "m", "r", "c"))
            nums, den = p.cleared()
            values = {"m": rng.randint(-5, 5), "r": rng.randint(-5, 5),
                      "c": rng.randint(-1, 1)}
            out = subst_dict(nums, tuple(values.items()))
            assert all(type(co) is int and co for co in out.values())
            assert dict((MultiPoly(out) * Rat(1, den)).terms()) == \
                ref_subst(ref_from_multipoly(p), values)

    def test_cleared_roundtrip(self, rng):
        for _ in range(100):
            p = rand_poly(rng) * Rat(rng.randint(-5, 5), rng.randint(1, 9))
            nums, den = p.cleared()
            assert all(type(co) is int for co in nums.values())
            assert type(den) is int and den >= 1
            assert MultiPoly(nums) * Rat(1, den) == p


def _decoded_at(p: MultiPoly, values: dict) -> MultiPoly:
    """p.at(values) by its definition on decoded exponent tuples: each
    term's coefficient times value^e for each name with e > 0, those
    exponents set to 0, equal tuples summed in term order, zero sums
    dropped.  A value that is an integral Rat enters as an int, as any
    coefficient does; products and sums are kept as they come out
    (MultiPoly() would turn an integral Rat into an int)."""
    values = {name: v.numerator if v.denominator == 1 else v
              for name, v in values.items()}
    out: dict = {}
    for exps, co in p.terms():
        exps = list(exps)
        for name, value in values.items():
            if exps[VAR_INDEX[name]]:
                co = co * value ** exps[VAR_INDEX[name]]
                exps[VAR_INDEX[name]] = 0
        key = tuple(exps)
        out[key] = out[key] + co if key in out else co
    return MultiPoly._raw({encode_exponents(k): co
                           for k, co in out.items() if co})


class TestAtPlan:
    """`MultiPoly.at` (subst_plan, then subst_apply) and `AtPlan`
    against the decoded-exponent definition, coefficient types
    included: int with int stays int."""

    NAMES = ("f", "k", "m", "r", "c")

    @staticmethod
    def _same(got: MultiPoly, want: MultiPoly):
        assert got == want
        assert ([type(co) for _, co in got.terms()]
                == [type(co) for _, co in want.terms()])

    def _draw(self, rng, fractional: bool) -> MultiPoly:
        p = rand_poly(rng, names=self.NAMES, max_terms=12, max_deg=3)
        if fractional:
            p = p * Rat(rng.randint(1, 5), rng.randint(2, 7))
        return p

    def _value(self, rng, fractional: bool):
        if fractional:
            return Rat(rng.randint(-4, 4), rng.randint(1, 5))
        return rng.randint(-4, 4)

    @pytest.mark.parametrize("fractional", [False, True],
                             ids=["int", "fraction"])
    def test_matches_the_definition(self, rng, fractional):
        for _ in range(150):
            p = self._draw(rng, fractional and rng.random() < 0.5)
            names = rng.sample(self.NAMES, rng.randint(1, 4))
            values = {name: self._value(rng, fractional) for name in names}
            self._same(p.at(values), _decoded_at(p, values))

    def test_terms_that_cancel(self, rng):
        # (m - v)*q at m = v is zero, and p + (m - v)*q at m = v is p's
        # value: every term of (m - v)*q lands on a key that cancels
        for _ in range(60):
            p, q = (self._draw(rng, False) for _ in range(2))
            v = rng.randint(-3, 3)
            values = {"m": v, "r": rng.randint(-3, 3)}
            planted = (M - v) * q.at({"m": 0})
            assert planted.at(values).is_zero()
            self._same((p + planted).at(values), _decoded_at(p, values))
        assert (F * M - 2 * F).at({"m": 2}).is_zero()

    def test_absent_names_and_the_empty_mapping(self, rng):
        for _ in range(40):
            p = rand_poly(rng, names=("f", "k", "m"), max_terms=8)
            self._same(p.at({}), p)
            self._same(p.at({"alpha": 3, "beta": Rat(1, 2)}), p)
            self._same(p.at({"alpha": 3, "m": -2}), _decoded_at(p, {"m": -2}))
        assert MultiPoly.zero().at({"m": 1}).is_zero()

    @pytest.mark.parametrize("fractional", [False, True],
                             ids=["int", "fraction"])
    def test_one_plan_at_many_points(self, rng, fractional):
        for _ in range(20):
            p = self._draw(rng, fractional)
            names = tuple(rng.sample(("m", "r", "c", "alpha"), 3))
            plan = AtPlan(p, names)
            for _ in range(10):
                values = {name: self._value(rng, fractional)
                          for name in reversed(names)}
                self._same(plan.at(values), p.at(values))

    def test_plan_refusals(self):
        plan = AtPlan(F * M + R, ("m", "r"))
        with pytest.raises(ValueError):
            plan.at({"m": 1})
        with pytest.raises(ValueError):
            plan.at({"m": 1, "c": 2})
        with pytest.raises(TypeError):
            plan.at({"m": 1.5, "r": 2})
        with pytest.raises(ValueError):
            AtPlan(F * M, ("m", "m"))
        with pytest.raises(KeyError):
            AtPlan(F * M, ("x",))


class TestCoefficientDerivative:
    def test_coefficient_extract(self):
        p = 3 * F ** 2 * K + 2 * K
        assert p.coefficient("k", 1) == 3 * F ** 2 + 2

    def test_coefficient_above_degree(self, rng):
        for _ in range(50):
            p = rand_poly(rng)
            d = p.degree("k")
            assert p.coefficient("k", max(d, 0) + 1).is_zero()

    def test_derivative_examples(self):
        assert (F ** 3).derivative("f") == 3 * F ** 2
        assert (K * C).derivative("f").is_zero()

    def test_leibniz_randomized(self, rng):
        for _ in range(200):
            p, q = rand_poly(rng), rand_poly(rng)
            lhs = (p * q).derivative("f")
            assert lhs == p * q.derivative("f") + q * p.derivative("f")


class TestMonomialReshapes:
    """exponents, halve_exponents and substitute_slope work on the packed
    keys; each agrees with the decoded terms or with substitute."""

    def test_exponents_match_decoded_terms(self, rng):
        names = ("f", "k", "c", "s")
        for _ in range(100):
            p = rand_poly(rng, names=names)
            pick = rng.sample(names, rng.randint(1, 3))
            want = Counter((tuple(exps[VAR_INDEX[nm]] for nm in pick), co)
                           for exps, co in p.terms())
            assert Counter(p.exponents(*pick)) == want

    def test_halve_exponents_inverts_squaring(self, rng):
        for _ in range(100):
            q = rand_poly(rng, names=("f", "k", "c"))
            p = q.substitute("f", F ** 2)
            half = p.halve_exponents("f")
            assert half == q
            assert half == MultiPoly(dict(half.terms()))  # total degree kept
            if q:
                assert (p * F).halve_exponents("f") is None
        assert (F ** 4 + F).halve_exponents("f") is None

    def test_reflect_matches_substitute(self, rng):
        for _ in range(100):
            p = rand_poly(rng, names=("f", "k", "c"), max_deg=4)
            name = rng.choice(("f", "k", "c"))
            flipped = p.reflect(name)
            assert flipped == p.substitute(name, -MultiPoly.var(name))
            assert flipped.reflect(name) == p
        assert (F ** 3 - 2 * F ** 2 * Z + Z).reflect("f") == \
            -F ** 3 - 2 * F ** 2 * Z + Z

    def test_substitute_slope_matches_substitute(self, rng):
        for _ in range(100):
            drop = rng.randint(0, 3)
            p = rand_poly(rng, names=("f", "k", "c")) * F ** drop
            got = p.substitute_slope("k", "z", "f", drop)
            assert F ** drop * got == p.substitute("k", Z * F)
            assert got == MultiPoly(dict(got.terms()))  # total degree kept

    def test_substitute_slope_refusals(self):
        with pytest.raises(DegreeTooLow, match=r"monomial c\^1 has \(f,k\)-degree 0"):
            (F * K + C).substitute_slope("k", "z", "f", 1)
        with pytest.raises(ValueError, match="already involves z"):
            (Z * F).substitute_slope("k", "z", "f", 0)
        with pytest.raises(ValueError, match="three variables"):
            F.substitute_slope("k", "k", "f", 0)
        with pytest.raises(ValueError, match="negative drop"):
            F.substitute_slope("k", "z", "f", -1)
        # k^i adds i to the total degree: 32000 + 20000 overflows
        with pytest.raises(ExponentOverflow):
            (K ** 20000 * C ** 12000).substitute_slope("k", "z", "f", 0)


class TestPseudoDivision:
    def test_remainder_theorem(self):
        quot, rem, scale = pseudo_division(K ** 2, K - F, "k")
        assert scale.is_constant()
        assert rem == F ** 2 * scale

    def test_self_division(self):
        delta = 28 * K ** 2 - 98 * F * K + 147 * F ** 2 - 32 * C
        _, rem, _ = pseudo_division(delta, delta, "k")
        assert rem.is_zero()

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisor):
            pseudo_division(K, MultiPoly.zero(), "k")

    def test_identity_randomized(self, rng):
        checked = 0
        while checked < 1000:
            a = rand_poly(rng)
            b = rand_nonzero(rng)
            quot, rem, scale = pseudo_division(a, b, "k")
            assert scale * a == quot * b + rem
            db = b.degree("k")
            assert rem.is_zero() or rem.degree("k") < db or db == 0
            checked += 1


class TestExactDiv:
    def test_roundtrip_randomized(self, rng):
        for _ in range(200):
            a = rand_nonzero(rng)
            b = rand_nonzero(rng)
            assert (a * b).exact_div(b) == a

    def test_inexact_raises(self):
        with pytest.raises(InexactDivision):
            (F ** 2 + 1).exact_div(F + 1)

    def test_primitive_split(self, rng):
        for _ in range(100):
            p = rand_nonzero(rng)
            cont, prim = p.primitive()
            assert prim * cont == p
            assert prim.leading_coefficient() > 0
            nums = [co.numerator for _, co in prim.terms()]
            assert all(co.denominator == 1 for _, co in prim.terms())
            from math import gcd as igcd
            g = 0
            for n in nums:
                g = igcd(g, int(n))
            assert g == 1


class TestGcd:
    def test_common_factor(self):
        a = (K - 1) * (K + 2)
        b = (K - 1) * (K + 3)
        assert gcd(a, b) == K - 1

    def test_self_gcd_primitive(self, rng):
        for _ in range(30):
            p = rand_nonzero(rng)
            assert gcd(p, p) == p.primitive()[1]

    def test_multivariate(self):
        g = (F + K) ** 2
        assert gcd(g * (F - K), g * (K + 1)) == g

    def test_divides_randomized(self, rng):
        for _ in range(100):
            a, b = rand_nonzero(rng), rand_nonzero(rng)
            g = gcd(a, b)
            assert g.divides(a) and g.divides(b)


class TestImmutability:
    def test_operations_do_not_mutate(self, rng):
        p = rand_nonzero(rng)
        snapshot = dict(p._d)
        _ = p * p + p - 3 * p
        _ = p.substitute("f", K)
        _ = p.derivative("k")
        assert p._d == snapshot
