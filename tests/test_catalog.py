"""Catalog construction: manifest reconstruction, the sweep polynomials
and their structure, the reduced z-polynomials, and closed forms."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from collections import Counter

import pytest
from conftest import (ref_add, ref_diff, ref_eval, ref_from_multipoly, ref_mul,
                      ref_scale, ref_subst)

import resverify
from resverify import catalog, kernels
from resverify.catalog import (MANIFEST_TEXT, DegreeTooLow, InvalidParameters,
                               build_core, dominant_coef_value, manifest,
                               reduce_to_z, res_special_value)
from resverify.checks import APPC_DEFAULT_SAMPLES, _halves
from resverify.parser import load_manifest, parse
from resverify.poly import VAR_INDEX, MultiPoly, variables
from resverify.ratio import Rat
from resverify.resultant import resultant, resultant_top

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

    def test_cleared_gradings(self):
        # appendix-c-leading's generic facts: the (f, k)-degrees of the
        # cleared Hgen, NumDerF and DenDerF, and their weights with f
        # and k of weight 1 and c of weight 2
        assert catalog.cleared_gradings() == (
            ({3, 5, 7, 9}, {9}), ({2, 4}, {4}), ({2, 4}, {4}))

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
        assert gcd(num, den).is_constant()

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
    coefficient an int or a Fraction."""

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
            assert all(type(co) in (int, Fraction) for co in terms.values())
            assert terms == want

    def test_specialize_matches_reference(self):
        man = manifest()
        for params in ((7, 4, None), (7, 4, 0), (9, 5, -1)):
            mm, rr, cc = params
            values = {"m": mm, "r": rr} if cc is None else {"m": mm, "r": rr, "c": cc}
            for name in ("P", "R2", "conic2", "lead9"):
                got = dict(build_core(params).specialize(man[name]).terms())
                assert all(type(co) in (int, Fraction) for co in got.values())
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

    def test_manifest_products_run_on_int(self, monkeypatch):
        seen = []
        real = kernels.mul_dicts

        def spy(a, b, guard):
            seen.extend(type(co) for co in a.values())
            seen.extend(type(co) for co in b.values())
            return real(a, b, guard)

        monkeypatch.setattr(kernels, "mul_dicts", spy)
        load_manifest(MANIFEST_TEXT)
        assert seen and set(seen) == {int}

    def test_manifest_coefficients_are_int_or_non_integral(self):
        man = manifest()
        for name in man.names:
            for _, co in man[name].terms():
                assert type(co) is int or (type(co) is Fraction
                                           and co.denominator != 1), name

    def test_manifest_leaves_cleared_cache_empty(self):
        # the integer entries are cleared on the first build_core, and the
        # plans of P and Q on the first k-case, never at import or by
        # manifest(), so the setup cost does not grow
        src = str(Path(resverify.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import resverify\n"
                "from resverify import catalog\n"
                "catalog.manifest()\n"
                "print(catalog._cleared_core.cache_info().currsize,\n"
                "      catalog._truncated_core.cache_info().currsize,\n"
                "      catalog._pq_plans.cache_info().currsize)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "0 0 0"


# the default samples of appendix-c-leading and four larger ones
_CUT_SAMPLES = list(APPC_DEFAULT_SAMPLES) + [(50, 20, 1), (100, 30, -1),
                                             (150, 43, 1), (144, 43, -1)]


class TestTruncatedBuild:
    """build_core(params, f_order=n), the build mod f^(n+1) that
    appendix-c-leading asks for, against the full build."""

    @pytest.mark.parametrize("params", _CUT_SAMPLES[-4:])
    def test_every_order_is_the_full_pair_cut(self, params):
        full = build_core(params)
        for n in range(5):
            cut = build_core(params, f_order=n)
            assert cut.H == full.H.truncate("f", n)
            assert cut.K == full.K.truncate("f", n)

    def test_top_coefficients_match_the_full_pair(self):
        # at count = n, resultant_top of the cut halves equals that of the
        # full halves coefficient for coefficient
        for params in _CUT_SAMPLES:
            mm, rr, _ = params
            n = 3 if mm == 2 * rr - 1 else 2
            full, cut = build_core(params), build_core(params, f_order=n)
            assert cut.H == full.H.truncate("f", n)
            assert cut.K == full.K.truncate("f", n)
            tops = [resultant_top(*[p.halve_exponents("f")
                                    for p in (core.new_h, core.new_k)],
                                  "f", "z", 2, 42 - n)
                    for core in (full, cut)]
            assert tops[0] == tops[1], params
            assert tops[0][0] == 41 and len(tops[0][1]) == n, params

    def test_truncated_plans_are_smaller(self):
        plans = catalog._truncated_core(2)
        assert [len(plan._plan[3]) for plan in plans] == [260, 35, 29]

    @pytest.mark.parametrize("n", [2, 3, None])
    def test_reflected_halves_are_the_twin_build(self, n):
        # the halves (A, B) at (m, r, c) give those at (m, r, -c) as
        # -A(-u) and B(-u), cut or full: the relation the twin rule of
        # appendix-c-leading rests on
        minus_u = -MultiPoly.var("f")
        pairs = sorted({(mm, rr) for mm, rr, _ in APPC_DEFAULT_SAMPLES})
        assert len(pairs) == 23
        for mm, rr in pairs:
            core, twin = (build_core((mm, rr, cc), f_order=n)
                          for cc in (1, -1))
            a, b = (p.halve_exponents("f") for p in (core.new_h, core.new_k))
            assert -a.substitute("f", minus_u) == \
                twin.new_h.halve_exponents("f")
            assert b.substitute("f", minus_u) == \
                twin.new_k.halve_exponents("f")

    def test_twins_have_one_res_u(self):
        # the twin lemma of appendix-c-leading, by a second route: no
        # sample takes its twin's values here, each builds its own
        # halves.  At (m, r, 1) and (m, r, -1) resultant_top reads the
        # same coefficients from the cut halves of every default (m, r),
        # and the full halves of three have the same whole Res_u
        pairs = sorted({(mm, rr) for mm, rr, _ in APPC_DEFAULT_SAMPLES})
        assert len(pairs) == 23
        for mm, rr in pairs:
            n = 3 if mm == 2 * rr - 1 else 2
            tops = [resultant_top(*_halves(build_core((mm, rr, cc),
                                                      f_order=n)),
                                  "f", "z", 2, 42 - n)
                    for cc in (1, -1)]
            assert tops[0] == tops[1], (mm, rr)
        for mm, rr in [(4, 2), (5, 3), (9, 6)]:
            full = [resultant(*_halves(build_core((mm, rr, cc))), "f")
                    for cc in (1, -1)]
            assert full[0] == full[1] and not full[0].is_zero(), (mm, rr)

    def test_default_samples_come_in_twins(self):
        # the traffic the twin rule saves on: every (m, r) once at each
        # sign of c, and no sample twice
        samples = list(APPC_DEFAULT_SAMPLES)
        assert len(set(samples)) == len(samples) == 46
        assert {(mm, rr, -cc) for mm, rr, cc in samples} == set(samples)

    @pytest.mark.parametrize("params, n", [
        (None, 2), ((7, 4, None), 2), ((7, 4, 1), -1), ((7, 4, 1), 2.0),
        ((7, 4, 1), True)])
    def test_order_needs_full_specialization_and_int(self, params, n):
        with pytest.raises(ValueError):
            build_core(params, f_order=n)


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

    @pytest.mark.parametrize("p", [Z * F ** 3, Z * K * F ** 3, Z ** 2 + K ** 4],
                             ids=["z*f^3", "z*k*f^3", "z^2+k^4"])
    def test_input_involving_z_refused(self, p):
        # the reduced polynomial's z exponent is k's; an existing z
        # exponent would be overwritten, not kept
        with pytest.raises(ValueError, match="already involves z"):
            reduce_to_z(p, 3)

    def test_back_substitution_identity(self):
        for params in ((5, 3, 1), (7, 4, -1), (4, 2, 1)):
            core = build_core(params)
            # new_h(k/f, f) * f^3 == H, with the powers of f cleared
            assert core.H.substitute("k", Z * F) == F ** 3 * core.new_h
            assert core.K.substitute("k", Z * F) == F ** 4 * core.new_k

    @pytest.mark.parametrize("params", [None, (9, 4, 1)],
                             ids=["generic", "9-4-1"])
    def test_packed_keys_match_decoded_definitions(self, params):
        # reduce_to_z, the f-halving of appendix-c-leading and the
        # exponent read of resultant_interp work on the packed keys; the
        # definitions below go through the decoded exponent tuples
        fi, ki, zi = VAR_INDEX["f"], VAR_INDEX["k"], VAR_INDEX["z"]

        def reduce_decoded(p, drop):
            terms = {}
            for exps, co in p.terms():
                new = list(exps)
                new[fi], new[ki], new[zi] = exps[fi] + exps[ki] - drop, 0, exps[ki]
                terms[tuple(new)] = terms.get(tuple(new), 0) + co
            return MultiPoly(terms)

        def halve_decoded(p):
            if any(exps[fi] % 2 for exps, _ in p.terms()):
                return None
            return MultiPoly({exps[:fi] + (exps[fi] // 2,) + exps[fi + 1:]: co
                              for exps, co in p.terms()})

        core = build_core(params)
        for p, drop in ((core.H, 3), (core.K, 4)):
            assert p == MultiPoly(dict(p.terms()))
            reduced = reduce_to_z(p, drop)
            assert reduced == reduce_decoded(p, drop)
            assert reduced == MultiPoly(dict(reduced.terms()))
            half = reduced.halve_exponents("f")
            assert half is not None
            assert half == halve_decoded(reduced)
            assert half == MultiPoly(dict(half.terms()))
            assert (Counter(half.exponents("f", "z"))
                    == Counter(((exps[fi], exps[zi]), co)
                               for exps, co in half.terms()))

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
