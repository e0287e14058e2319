"""Catalog construction: manifest reconstruction, the sweep polynomials
and their structure, the reduced z-polynomials, and closed forms."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import (ref_add, ref_diff, ref_eval, ref_from_multipoly, ref_mul,
                      ref_scale, ref_subst)

import resverify
from resverify import kernels
from resverify.catalog import (DegreeTooLow, InvalidParameters, build_core,
                               dominant_coef_value, manifest, reduce_to_z,
                               res_special_value)
from resverify.parser import parse
from resverify.poly import MultiPoly, RatFun, subst_ratfun, variables
from resverify.ratio import Rat

V = variables()
F, K, Z, M, R, C = V["f"], V["k"], V["z"], V["m"], V["r"], V["c"]


class TestManifest:
    def test_entries_reconstruct_from_source(self):
        man = manifest()
        seen = {}
        for name in man.names:
            value = parse(man.sources[name], seen)
            assert value == man[name], name
            seen[name] = value

    def test_closed_form_factorizations(self):
        # the factor lists used for exact evaluation multiply out to the
        # expanded manifest entries
        from resverify.catalog import (DOMINANT_COEF_CONSTANT,
                                       DOMINANT_COEF_M_FACTORS,
                                       DOMINANT_COEF_R_FACTORS,
                                       RES_SPECIAL_CONSTANT,
                                       RES_SPECIAL_FACTORS)
        man = manifest()
        prod = MultiPoly.const(DOMINANT_COEF_CONSTANT) * C ** 12
        for text, e in DOMINANT_COEF_M_FACTORS + DOMINANT_COEF_R_FACTORS:
            prod = prod * parse(text) ** e
        assert prod == man["dominantCoef"]
        prod = MultiPoly.const(RES_SPECIAL_CONSTANT) * C ** 12
        for text, e in RES_SPECIAL_FACTORS:
            prod = prod * parse(text) ** e
        assert prod == man["resSpecial"]

    def test_closed_form_value_helpers(self):
        man = manifest()
        for mm, rr, cc in ((6, 3, -1), (8, 5, 1), (7, 4, 1), (9, 5, -1)):
            assert dominant_coef_value(mm, rr, cc) == \
                man["dominantCoef"].evaluate({"m": mm, "r": rr, "c": cc})
        for rr, cc in ((3, 1), (5, -1), (4, 1), (2, 1)):
            assert res_special_value(rr, cc) == \
                man["resSpecial"].evaluate({"r": rr, "c": cc})


class TestBuildCore:
    def test_invalid_parameters(self):
        # 1.0 == 1 and True == 1, so only the type tells those apart
        for bad in ((3, 2, 1), (7, 1, 1), (7, 7, 1), (7, 4, 2), (7, 4, 5),
                    (5, 3, 1.0), (5, 3, True),
                    (5, 3, False), (5.0, 3, 1), (5, 3.0, 1), (5, True, 1),
                    (5, 3, Fraction(1)), (None, 3, 1)):
            with pytest.raises(InvalidParameters):
                build_core(bad)

    def test_specialized_equals_generic_cleared(self):
        gen = build_core()
        for params in ((5, 3, 1), (7, 4, -1), (8, 2, 0)):
            mm, rr, cc = params
            spec = build_core(params)

            def at(p):
                return (p.substitute("m", mm).substitute("r", rr)
                        .substitute("c", cc))

            assert spec.H * (mm - rr) == at(gen.H)
            assert spec.K * (mm - rr) == at(gen.K)

    def test_symbolic_c_specialization(self):
        sym = build_core((7, 4, None))
        assert "c" in sym.H.vars_used() and "c" in sym.K.vars_used()
        for cc in (-1, 0, 1):
            spec = build_core((7, 4, cc))
            assert sym.H.substitute("c", cc) == spec.H
            assert sym.K.substitute("c", cc) == spec.K

    def test_degree_table(self):
        for params in ((7, 4, 1), (5, 3, 1)):
            core = build_core(params)
            assert core.H.degree("k") == 8
            assert core.H.degree("f") == 9
            assert core.K.degree("k") == 11
            assert core.K.degree("f") == 12

    def test_total_degree_blocks(self):
        gen = build_core()
        hs = {exps[0] + exps[1] for exps, _ in gen.H.terms()}
        ks = {exps[0] + exps[1] for exps, _ in gen.K.terms()}
        assert hs == {3, 5, 7, 9}
        assert ks == {4, 6, 8, 10, 12}

    def test_top_coefficients_generic(self):
        gen = build_core()
        man = manifest()
        # the k^9 coefficient vanishes identically; the f^9 coefficient
        # carries the published closed form (the two displayed labels
        # are swapped relative to the summation convention)
        assert gen.H.coefficient("k", 9).is_zero()
        assert gen.H.coefficient("f", 9) == man["lead9"]

    def test_spot_value_h(self):
        core = build_core((5, 3, 1))
        assert core.H.evaluate({"f": 1, "k": 1}) == Rat(34931334375, 16)

    def test_derivative_quotient_reduces(self):
        # the trajectory-derivative quotient is already reduced at
        # (5,3,1): its gcd is constant by the subresultant oracle
        from resverify.poly import gcd
        man = manifest()
        core = build_core((5, 3, 1))
        num, den = (core.specialize(man[name])
                    for name in ("NumDerF", "DenDerF"))
        rf = RatFun(num, den)
        assert gcd(num, den).is_constant()
        assert rf * RatFun(den) == RatFun(num)

    def test_k_by_independent_reference_path(self):
        """Rebuild K(5,3,1) with the tuple-keyed Fraction reference
        implementation and compare values."""
        man = manifest()

        def spec(name):
            p = (man[name].substitute("m", 5).substitute("r", 3)
                 .substitute("c", 1))
            return ref_from_multipoly(p)

        h = ref_scale(spec("Hgen"), Fraction(1, 2))
        k = ref_add(ref_mul(ref_diff(h, "f"), spec("NumDerF")),
                    ref_mul(ref_diff(h, "k"), spec("DenDerF")))
        at = {"f": 1, "k": 1}
        want = ref_eval(k, at)
        assert want == Fraction(-37311468532734375, 16)
        core = build_core((5, 3, 1))
        assert core.K.evaluate(at) == Rat(want.numerator, want.denominator)


def _ref_core(params):
    """(H, K, NumDerF, DenDerF) of a sweep case rebuilt from the
    manifest entries with the tuple-keyed Fraction reference."""
    man = manifest()
    values, scale = {}, Fraction(1)
    if params is not None:
        mm, rr, cc = params
        values = {"m": mm, "r": rr} if cc is None else {"m": mm, "r": rr, "c": cc}
        scale = Fraction(1, mm - rr)
    num, den = (ref_subst(ref_from_multipoly(man[name]), values)
                for name in ("NumDerF", "DenDerF"))
    h = ref_scale(ref_subst(ref_from_multipoly(man["Hgen"]), values), scale)
    k = ref_add(ref_mul(ref_diff(h, "f"), num), ref_mul(ref_diff(h, "k"), den))
    return h, k, num, den


def _seeded_cases(n=30, seed=20241018):
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        mm = rng.randint(4, 30)
        cases.append((mm, rng.randint(2, mm - 1), rng.choice((-1, 0, 1, None))))
    return cases


class TestIntegerBuild:
    """build_core against an independent reference: the same H and K,
    and the specialized NumDerF and DenDerF, term by term, every
    coefficient a Fraction."""

    @pytest.mark.parametrize("params", [None, (7, 4, None), (4, 2, 0),
                                        (30, 29, 1), (30, 29, -1)]
                             + _seeded_cases())
    def test_matches_reference(self, params):
        core = build_core(params)
        man = manifest()
        got = (core.H, core.K, core.specialize(man["NumDerF"]),
               core.specialize(man["DenDerF"]))
        for poly, want in zip(got, _ref_core(params)):
            terms = dict(poly.terms())
            assert all(type(co) is Fraction for co in terms.values())
            assert terms == want

    def test_specialize_matches_reference(self):
        man = manifest()
        for params in ((7, 4, None), (7, 4, 0), (9, 5, -1)):
            mm, rr, cc = params
            values = {"m": mm, "r": rr} if cc is None else {"m": mm, "r": rr, "c": cc}
            for name in ("P", "R2", "conic2", "lead9"):
                got = dict(build_core(params).specialize(man[name]).terms())
                assert all(type(co) is Fraction for co in got.values())
                assert got == ref_subst(ref_from_multipoly(man[name]), values)

    def test_products_run_on_int(self, monkeypatch):
        seen = []
        real = kernels.mul_dicts

        def spy(a, b, guard):
            seen.extend(type(co) for co in a.values())
            seen.extend(type(co) for co in b.values())
            return real(a, b, guard)

        build_core((5, 3, 1))  # fill the manifest and cleared-entry caches
        monkeypatch.setattr(kernels, "mul_dicts", spy)
        build_core((15, 8, 1))
        assert seen and set(seen) == {int}

    def test_manifest_leaves_cleared_cache_empty(self):
        # the integer entries are cleared on the first build_core, never
        # at import or by manifest(), so the setup cost does not grow
        src = str(Path(resverify.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import resverify\n"
                "from resverify import catalog\n"
                "catalog.manifest()\n"
                "print(catalog._cleared_core.cache_info().currsize)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "0"


class TestFpRewrite:
    def test_square_becomes_s(self):
        from resverify.catalog import fp_square_to_s
        fp, s = V["fp"], V["s"]
        assert fp_square_to_s(fp * fp) == s
        assert fp_square_to_s(3 * F * fp ** 5) == 3 * F * s ** 2 * fp
        assert fp_square_to_s(F + K) == F + K

    def test_rewrite_merges_terms(self):
        from resverify.catalog import fp_square_to_s
        fp, s = V["fp"], V["s"]
        p = fp ** 2 + s
        assert fp_square_to_s(p) == 2 * s

    def test_product_identity(self, rng):
        from conftest import rand_poly
        from resverify.catalog import fp_square_to_s
        fp = V["fp"]
        for _ in range(50):
            a = rand_poly(rng) * fp
            b = rand_poly(rng) * fp
            # rewriting the product equals s times the fp-free parts
            want = fp_square_to_s(a * b)
            assert want == a.coefficient("fp", 1) * b.coefficient("fp", 1) * V["s"]


class TestReduceToZ:
    def test_monomial_examples(self):
        assert reduce_to_z(K ** 9, 3) == Z ** 9 * F ** 6
        assert reduce_to_z(F ** 3, 3) == MultiPoly.const(1)
        assert reduce_to_z(C * K ** 2 * F, 3) == C * Z ** 2

    def test_degree_too_low(self):
        with pytest.raises(DegreeTooLow):
            reduce_to_z(F ** 2, 3)
        with pytest.raises(DegreeTooLow):
            reduce_to_z(K ** 9 + F, 3)
        with pytest.raises(DegreeTooLow, match=r"alpha\^2\*s\^1"):
            reduce_to_z(V["s"] * V["alpha"] ** 2, 1)

    def test_back_substitution_identity(self):
        for params in ((5, 3, 1), (7, 4, -1), (4, 2, 1)):
            core = build_core(params)
            z_over = RatFun(K, F)
            back = subst_ratfun(core.new_h, "z", z_over) * RatFun(F ** 3)
            assert back == RatFun(core.H)
            back = subst_ratfun(core.new_k, "z", z_over) * RatFun(F ** 4)
            assert back == RatFun(core.K)

    def test_reduced_degrees(self):
        core = build_core((5, 3, 1))
        assert core.new_h.degree("f") == 6
        assert core.new_h.degree("z") == 8
        assert core.new_k.degree("f") == 8
        assert core.new_k.degree("z") == 11

    def test_top_block_matches_summation(self):
        core = build_core((7, 4, 1))
        top = core.new_h.coefficient("f", 6)
        want = MultiPoly.zero()
        for i in range(10):
            coeff = core.H.coefficient("k", i).coefficient("f", 9 - i)
            want = want + coeff * Z ** i
        assert top == want
