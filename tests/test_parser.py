"""Expression grammar: parsing, positioned errors, canonical printing,
manifests."""

import pytest
from conftest import rand_poly
from hypothesis import given, settings
from hypothesis import strategies as st

from resverify.catalog import MANIFEST_TEXT, manifest
from resverify.parser import (DuplicateName, ExprSyntaxError, ForwardReference,
                              NegativeExponent, UnknownName, format_poly,
                              load_manifest, parse)
from resverify.poly import ExponentOverflow, MultiPoly, variables
from resverify.ratio import Rat

V = variables()
F, K, M = V["f"], V["k"], V["m"]


class TestParse:
    def test_monomial(self):
        p = parse("9/4*m^3*f^3")
        assert len(p) == 1
        ((exps, coeff),) = list(p.terms())
        assert coeff == Rat(9, 4)
        assert p.degree("m") == 3 and p.degree("f") == 3

    def test_product(self):
        assert parse("(f+k)*(f-k)") == F ** 2 - K ** 2

    def test_leading_minus(self):
        assert parse("-7/2*f") == MultiPoly.const(Rat(-7, 2)) * F
        assert parse("-(f+k)") == -(F + K)

    def test_whitespace_insignificant(self):
        assert parse(" f +  k ") == parse("f+k")

    def test_rational_literal_power(self):
        assert parse("3/4^2") == MultiPoly.const(Rat(9, 16))

    def test_env_names(self):
        env = {"a": F + K}
        assert parse("a*a", env) == (F + K) ** 2


class TestParseErrors:
    def test_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("2 f")
        assert err.value.offset == 2

    def test_unknown_name(self):
        with pytest.raises(UnknownName) as err:
            parse("f + bogus")
        assert err.value.offset == 4

    def test_negative_exponent(self):
        with pytest.raises(NegativeExponent) as err:
            parse("f^-2")
        assert err.value.offset == 2

    def test_fractional_exponent(self):
        with pytest.raises(ExprSyntaxError):
            parse("f^(1/2)")

    def test_general_division(self):
        with pytest.raises(ExprSyntaxError):
            parse("f/2")

    def test_interior_unary_minus(self):
        with pytest.raises(ExprSyntaxError):
            parse("f * -k")

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse("(f + k")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("f + k )")

    def test_stray_character(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("f + $k")
        assert err.value.offset == 4

    def test_non_ascii_digit_refused(self):
        # the grammar's uint is ASCII; str.isdigit() would take U+0663
        with pytest.raises(ExprSyntaxError, match="unexpected character"):
            parse("f^\u0663")


class TestFormat:
    def test_zero(self):
        assert format_poly(MultiPoly.zero()) == "0"

    def test_bool_prints_as_int(self):
        assert format_poly(MultiPoly.const(True)) == "1"

    def test_roundtrip_randomized(self, rng):
        for _ in range(1000):
            p = rand_poly(rng, names=("f", "k", "c"), max_terms=6, max_deg=4)
            assert parse(format_poly(p)) == p

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(-99, 99), st.integers(0, 6), st.integers(0, 6),
                  st.integers(1, 20)),
        max_size=8))
    def test_roundtrip_hypothesis(self, terms):
        p = MultiPoly.zero()
        for num, ef, ek, den in terms:
            p = p + (MultiPoly.const(Rat(num, den))
                     * MultiPoly.var("f", ef) * MultiPoly.var("k", ek))
        assert parse(format_poly(p)) == p

    def test_roundtrip_catalog(self):
        man = manifest()
        for name in man.names:
            assert parse(format_poly(man[name])) == man[name]

    def test_deterministic(self, rng):
        p = rand_poly(rng, max_terms=8)
        assert format_poly(p) == format_poly(p + F - F)


class TestManifest:
    def test_simple(self):
        man = load_manifest("a := f\nb := a*a")
        assert man["b"] == F ** 2
        assert man.names == ["a", "b"]

    def test_forward_reference(self):
        with pytest.raises(ForwardReference):
            load_manifest("a := b")

    def test_duplicate(self):
        with pytest.raises(DuplicateName):
            load_manifest("a := f\na := k")

    def test_variable_name_rejected(self):
        with pytest.raises(DuplicateName):
            load_manifest("f := k")

    @pytest.mark.parametrize("line, error", [
        ("b := f +* 2", ExprSyntaxError),
        ("b := f^40000", ExponentOverflow),
        ("b := f^\u00b2", ExprSyntaxError),
    ], ids=["syntax-error", "exponent-overflow", "non-ascii-digit"])
    def test_parse_error_names_its_line(self, line, error):
        with pytest.raises(error, match=r"^line 2: ") as err:
            load_manifest(f"a := f\n{line}\n")
        assert type(err.value) is error

    def test_comments_and_blanks(self):
        man = load_manifest("# header\n\na := f\n  # trailing comment\n")
        assert man.names == ["a"]

    def test_embedded_manifest_entry_count(self):
        assert len(manifest()) == 44

    def test_embedded_p_spot_value(self):
        man = manifest()
        p = parse(man.sources["P"])
        value = (p.substitute("m", 7).substitute("r", 4).substitute("c", 1)
                 .evaluate({"f": 1, "k": 0}))
        assert value == Rat(37233, 2)

    def test_embedded_manifest_reload_identical(self):
        again = load_manifest(MANIFEST_TEXT)
        man = manifest()
        assert again.names == man.names
        for name in man.names:
            assert again[name] == man[name]
