"""Named verification checks: all pass, with the expected reported
details."""

import dataclasses
import hashlib
import json
from types import SimpleNamespace

import pytest
from conftest import rand_poly
from hypothesis import given, settings
from hypothesis import strategies as st

from resverify import catalog, checks, kernels, poly
from resverify.catalog import closed_form_tables, manifest
from resverify.checks import (CHECK_NAMES, UnknownCheck,
                              check_appendix_c_leading, integer_roots,
                              run_check)
from resverify.parser import format_poly, parse
from resverify.poly import MultiPoly, horner
from resverify.ratio import Rat, quotient
from resverify.resultant import (gcd_subresultant, resultant, resultant_at,
                                 resultant_top)


def test_unknown_check():
    with pytest.raises(UnknownCheck):
        run_check("no-such-check")


def test_check_names_stable():
    assert CHECK_NAMES == ("res-pq", "special-case", "relation1-delta",
                           "biconservative", "nonic", "mod-delta-chain",
                           "kfconst", "scan-factors", "appendix-c-leading")


def test_res_pq():
    out = run_check("res-pq")
    assert out.passed, out.witness
    assert out.detail["content clearing factor"] == "4^6 = 4096"


def _full_res_pq():
    """(passed, witness, detail) of res-pq with every line read off the
    full resultant of the manifest's P and Q, as the check read them
    before it cut the determinant: the reference outcome."""
    man = manifest()
    res = resultant(man["P"], man["Q"], "k")
    got = res.coefficient("f", 3)
    lines = [("degree in f is 9", res.degree("f") == 9, res)]
    lines += [(f"f^{d} coefficient vanishes", res.coefficient("f", d).is_zero(),
               res.coefficient("f", d)) for d in range(3)]
    lines.append(("f^3 coefficient matches closed form (cleared inputs)",
                  got * 4096 == man["coefF3"], got))
    failed = [witness for _, ok, witness in lines if not ok]
    detail = {label: "ok" if ok else "FAIL" for label, ok, _ in lines}
    detail["content clearing factor"] = "4^6 = 4096"
    return (not failed, format_poly(failed[0]) if failed else None, detail)


@pytest.fixture
def res_pq_routes(monkeypatch):
    """The truncate argument of every `resultant` call that res-pq makes."""
    seen = []

    def spy(a, b, var, truncate=None):
        seen.append(truncate)
        return resultant(a, b, var, truncate=truncate)

    monkeypatch.setattr(checks, "resultant", spy)
    return seen


def test_res_pq_certificate_route(res_pq_routes):
    # weight 3 and a nonzero value at _RES_PQ_POINT: only the cut
    # resultant is formed
    out = run_check("res-pq")
    assert (out.passed, out.witness, out.detail) == _full_res_pq()
    assert res_pq_routes == [("f", 3)]


def test_res_pq_certificate_value_is_the_f9_coefficient():
    man = manifest()
    lead = resultant(man["P"], man["Q"], "k").coefficient("f", 9)
    point = checks._RES_PQ_POINT
    value = resultant_at(man["P"], man["Q"], "k", point)
    assert value == lead.evaluate({"m": point["m"], "r": point["r"]}) != 0
    assert resultant_at(man["P"], man["Q"], "k",
                        dict(point, m=2, r=2)) == 0


def test_res_pq_zero_certificate_takes_the_full_route(monkeypatch, res_pq_routes):
    monkeypatch.setattr(checks, "_RES_PQ_POINT", {"m": 2, "r": 2, "c": 0, "f": 1})
    out = run_check("res-pq")
    assert out.passed
    assert (out.passed, out.witness, out.detail) == _full_res_pq()
    assert res_pq_routes == [("f", 3), None]


# the first keeps every line, the second raises the degree, the third
# changes the f^3 coefficient
@pytest.mark.parametrize("planted", ["f^2", "f^4", "c^2*f*k"])
def test_res_pq_weight_breaking_term_takes_the_full_route(monkeypatch,
                                                          res_pq_routes, planted):
    man = manifest()
    monkeypatch.setitem(man.values, "P", man["P"] + parse(planted))
    out = run_check("res-pq")
    assert (out.passed, out.witness, out.detail) == _full_res_pq()
    assert res_pq_routes == [("f", 3), None]


def test_res_pq_perturbed_closed_form_keeps_the_witness(monkeypatch):
    man = manifest()
    monkeypatch.setitem(man.values, "coefF3", man["coefF3"] + MultiPoly.var("m"))
    out = run_check("res-pq")
    assert out.detail["f^3 coefficient matches closed form (cleared inputs)"] == "FAIL"
    assert (out.passed, out.witness, out.detail) == _full_res_pq()


def test_res_pq_full_products_are_the_bezout_rows(monkeypatch):
    # the default route multiplies in full only the 18 products of the
    # Bezout rows; the minors take truncated products
    manifest()
    calls = []
    real = kernels.mul_dicts

    def spy(a, b, guard):
        calls.append(len(a) * len(b))
        return real(a, b, guard)

    monkeypatch.setattr(kernels, "mul_dicts", spy)
    assert run_check("res-pq").passed
    assert len(calls) == 18


def test_special_case_symbolic():
    out = run_check("special-case")
    assert out.passed, out.witness
    assert out.detail["display cofactor (first)"] == "f"
    assert out.detail["display cofactor (second)"] == "21/2*f"


@pytest.mark.parametrize("c_mode", ["-1", "0", "1"])
def test_special_case_fixed_c(c_mode):
    # at c = 0 delta is 7*(21 f^2 - 14 f k + 4 k^2): the gcd is compared
    # with its primitive part
    out = run_check("special-case", c_mode=c_mode)
    assert out.passed, out.witness
    assert out == dataclasses.replace(
        run_check("special-case", c_mode=int(c_mode)),
        elapsed_ms=out.elapsed_ms)


@pytest.mark.parametrize("c_mode", ["x", "2", "+1", " 1", 2, True, 1.0, None],
                         ids=["word", "str-2", "plus", "space", "int-2",
                              "bool", "float", "none"])
def test_special_case_rejects_bad_c_mode(c_mode):
    out = run_check("special-case", c_mode=c_mode)
    assert not out.passed
    assert out.detail == {"c_mode is symbolic, -1, 0 or 1": "FAIL"}
    assert out.witness == "c_mode is symbolic, -1, 0 or 1"


@pytest.fixture
def gcd_calls(monkeypatch):
    """The inputs of each gcd_subresultant call the checks make."""
    calls = []
    inner = checks.gcd_subresultant

    def spy(a, b, var):
        calls.append((a, b))
        return inner(a, b, var)

    monkeypatch.setattr(checks, "gcd_subresultant", spy)
    return calls


@pytest.mark.parametrize("c_mode", ["symbolic", "-1", "0", "1"])
def test_special_case_takes_no_gcd(gcd_calls, c_mode):
    # every line is settled by its resultant certificate
    assert run_check("special-case", c_mode=c_mode).passed
    assert gcd_calls == []


def _plant_special_case(monkeypatch, entries=None, factor=None):
    """special-case on a manifest with some entries replaced, and with H
    and K times factor."""
    man = manifest()
    bad = dataclasses.replace(man, values={**man.values, **(entries or {})})
    monkeypatch.setattr(checks, "manifest", lambda: bad)
    if factor is not None:
        build_core = checks.build_core

        def planted(params):
            core = build_core(params)
            return SimpleNamespace(H=core.H * factor, K=core.K * factor,
                                   specialize=core.specialize)

        monkeypatch.setattr(checks, "build_core", planted)


GCD_LINE = "primitive gcd of the pair is the conic"


@pytest.mark.parametrize("c_mode,witness", [
    ("symbolic", "147*f^3 - 245*f^2*k + 126*f*k^2 - 28*k^3 - 32*f*c + 32*k*c"),
    ("1", "147*f^3 - 245*f^2*k + 126*f*k^2 - 28*k^3 - 32*f + 32*k"),
    ("0", "21*f^3 - 35*f^2*k + 18*f*k^2 - 4*k^3"),
])
def test_special_case_fails_on_planted_common_factor(monkeypatch, gcd_calls,
                                                     c_mode, witness):
    # H and K times k - f, and the displays with them: the cofactors
    # share k - f, the certificate's resultant vanishes, and the gcd
    # route names delta*(k - f)
    extra = MultiPoly.var("k") - MultiPoly.var("f")
    man = manifest()
    _plant_special_case(monkeypatch, {"sc1tail": man["sc1tail"] * extra,
                                      "sc2oct": man["sc2oct"] * extra}, extra)
    out = run_check("special-case", c_mode=c_mode)
    assert not out.passed
    assert [line for line, v in out.detail.items() if v == "FAIL"] == [GCD_LINE]
    assert out.witness == witness
    assert len(gcd_calls) == 1


@pytest.mark.parametrize("c_mode,witness", [
    ("symbolic", "147*f^2 - 98*f*k + 28*k^2 - 32*c"),
    ("-1", "147*f^2 - 98*f*k + 28*k^2 + 32"),
    ("0", "21*f^2 - 14*f*k + 4*k^2"),
])
def test_special_case_fails_on_non_primitive_conic(monkeypatch, gcd_calls,
                                                   c_mode, witness):
    # 2*delta is not the primitive gcd: no certificate, and the gcd route
    # names delta itself
    man = manifest()
    _plant_special_case(monkeypatch, {"delta": man["delta"] * 2})
    out = run_check("special-case", c_mode=c_mode)
    assert not out.passed
    assert [line for line, v in out.detail.items() if v == "FAIL"] == [GCD_LINE]
    assert out.witness == witness
    assert len(gcd_calls) == 1


def test_special_case_coprimality_falls_back_to_gcd(monkeypatch, gcd_calls):
    # the cubic times delta shares delta with the conic: its resultant
    # vanishes and the gcd route names the conic
    man = manifest()
    _plant_special_case(monkeypatch,
                        {"sc1cubic": man["sc1cubic"] * man["delta"]})
    out = run_check("special-case", c_mode="1")
    assert out.detail["cubic factor coprime to the conic"] == "FAIL"
    assert out.detail["tail factor coprime to the conic"] == "ok"
    assert len(gcd_calls) == 1
    assert gcd_calls[0][1] == man["delta"].substitute("c", 1)


def test_gcd_certificate_on_planted_products(rng):
    # whenever the certificate holds, gcd_subresultant agrees with it;
    # a planted shared factor of positive k-degree defeats it
    delta = manifest()["delta"]
    f, k, c = (MultiPoly.var(n) for n in ("f", "k", "c"))
    conics = [delta] + [g.primitive()[1] for g in (k ** 2 - f * c + 3,
                                                   2 * k - f ** 2 * c + 1)]
    held = 0
    for i in range(120):
        g = conics[i % len(conics)]
        # a constant term: no monomial factor shared by chance
        a, b = ((rand_poly(rng, names=("k", "f", "c"), max_terms=3, max_deg=2)
                 + rng.randint(1, 9)) * Rat(rng.randint(1, 9), 4)
                for _ in range(2))
        if not (a and b):
            continue
        shared = k + f if i % 4 == 3 else MultiPoly.const(1)
        got = checks._certifies_gcd(g * a * shared, g * b * shared, g)
        if shared != 1:
            assert not got
        elif got:
            held += 1
            assert gcd_subresultant(g * a, g * b, "k") == g
    assert held >= 80


def test_gcd_certificate_needs_a_normalized_k_primitive_factor():
    delta = manifest()["delta"]
    f, k = MultiPoly.var("f"), MultiPoly.var("k")
    a, b = delta * (k - 1), delta * (k + f)
    assert checks._certifies_gcd(a, b, delta)
    assert not checks._certifies_gcd(a, b, 2 * delta)  # content 2
    assert not checks._certifies_gcd(a, b, -delta)  # negative leading term
    # f*delta has the k-content f: it divides f*a, f*b but is not their
    # k-primitive gcd
    assert not checks._certifies_gcd(f * a, f * b, f * delta)
    assert not checks._certifies_gcd(a, b, delta * (k - 1))  # no division


def test_relation1_delta():
    out = run_check("relation1-delta")
    assert out.passed, out.witness
    assert out.detail["negative control: Hgen differs from -(P*Q*R2) "
                      "at (8,4)"] == "ok"


@pytest.mark.parametrize("perturb,failing", [
    # one more f term: the collapse at (7,4) no longer holds
    (lambda man: man["Hgen"] + MultiPoly.var("f"),
     "Hgen equals -(P*Q*R2) at (7,4): both squared terms drop out"),
    # the collapse everywhere: the (8,4) control no longer separates
    (lambda man: -(man["P"] * man["Q"] * man["R2"]),
     "negative control: Hgen differs from -(P*Q*R2) at (8,4)"),
])
def test_relation1_delta_fails_on_perturbed_hgen(monkeypatch, perturb,
                                                  failing):
    man = manifest()
    bad = dataclasses.replace(man, values={**man.values, "Hgen": perturb(man)})
    monkeypatch.setattr(checks, "manifest", lambda: bad)
    # the check reads Hgen as the catalog clears it (`_cleared_core`)
    monkeypatch.setattr(catalog, "manifest", lambda: bad)
    catalog._cleared_core.cache_clear()
    try:
        out = run_check("relation1-delta")
    finally:
        catalog._cleared_core.cache_clear()
    assert not out.passed
    assert out.detail[failing] == "FAIL"


@pytest.mark.parametrize("check,entry,failing", [
    ("nonic", "dfp1rhs", "derivative display consistent with the chain"),
    ("mod-delta-chain", "kprimeden", "Omega display matches k2' / (k1 - k2)"),
    ("mod-delta-chain", "g3p1B", "product identity reproduces the first display"),
    ("mod-delta-chain", "dfp2snum",
     "normal-part s-coefficient reduces modulo delta"),
    ("kfconst", "kfelimnum", "elimination yields the published combination"),
], ids=["nonic-dfp1rhs", "omega-kprimeden", "product-g3p1B",
        "normal-part-dfp2snum", "kfconst-kfelimnum"])
def test_chain_check_fails_on_perturbed_entry(monkeypatch, check, entry,
                                              failing):
    # one more f term in one display: the cleared identity no longer holds
    man = manifest()
    bad = dataclasses.replace(
        man, values={**man.values, entry: man[entry] + MultiPoly.var("f")})
    monkeypatch.setattr(checks, "manifest", lambda: bad)
    out = run_check(check)
    assert not out.passed
    assert out.detail[failing] == "FAIL"


def test_normal_part_common_factor_cannot_hide_delta(monkeypatch):
    # Omega's display times delta/delta: the s-coefficient's numerator and
    # denominator share delta, which would cancel a wrong dfp2snum modulo
    # delta unless the coefficient is put in lowest terms first
    man = manifest()
    delta = man["delta"]
    bad = dataclasses.replace(man, values={
        **man.values, "omeganum": man["omeganum"] * delta,
        "omegaden": man["omegaden"] * delta,
        "dfp2snum": man["dfp2snum"] + MultiPoly.var("f")})
    monkeypatch.setattr(checks, "manifest", lambda: bad)
    out = run_check("mod-delta-chain")
    assert out.detail["normal-part s-coefficient reduces modulo delta"] == "FAIL"


def test_multiple():
    f, k = MultiPoly.var("f"), MultiPoly.var("k")
    assert checks._multiple(-3 * f * k + 6 * k, f * k - 2 * k) == -3
    assert checks._multiple(Rat(1, 2) * f, 3 * f) == Rat(1, 6)
    assert checks._multiple(f + 2 * k, f + k) is None
    assert checks._multiple(MultiPoly.zero(), f) is None
    assert checks._multiple(f, MultiPoly.zero()) is None


def test_biconservative():
    out = run_check("biconservative")
    assert out.passed, out.witness


def test_nonic():
    out = run_check("nonic")
    assert out.passed, out.witness
    assert Rat(out.detail["common rational factor"]) == Rat(-98)
    assert out.detail["published c^0*f^9"] == "151265495839500"
    assert out.detail["published c^4*f^1"] == "14386462720"


def test_mod_delta_chain():
    out = run_check("mod-delta-chain")
    assert out.passed, out.witness


def test_kfconst():
    out = run_check("kfconst")
    assert out.passed, out.witness
    assert Rat(out.detail["common factor"]) == Rat(1)


def _brute_roots(coeffs, bound):
    return {x for x in range(-bound, bound + 1) if not horner(coeffs, x)}


def test_integer_roots_of_the_factor_tables():
    m_factors, _, special = closed_form_tables()
    for co, _ in m_factors + special:
        assert integer_roots(co) == _brute_roots(co, 20000), co
    # m >= 4 and r >= 2 leave {7, 10} and {2, 4}
    assert set().union(*(integer_roots(co) for co, _ in m_factors)) == {
        -5, 0, 1, 3, 7, 10}
    assert set().union(*(integer_roots(co) for co, _ in special)) == {
        -2, 1, 2, 4}


def _expand(roots, cofactor):
    coeffs = list(cofactor)
    for root in roots:  # times (x - root)
        coeffs = [a - root * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=3),
       st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(
           lambda co: co[-1] != 0),
       st.integers(0, 2))
def test_integer_roots_match_brute_force(roots, cofactor, zeros):
    coeffs = [0] * zeros + _expand(roots, cofactor)
    # Cauchy: every root has |x| <= 1 + max |a_i| / |a_n|
    bound = 1 + max(abs(co) for co in coeffs) // abs(coeffs[-1])
    got = integer_roots(coeffs)
    assert got == _brute_roots(coeffs, bound)
    assert set(roots) <= got
    assert (0 in got) == (zeros > 0 or 0 in roots or cofactor[0] == 0)


def test_integer_roots_of_zero_refused():
    with pytest.raises(ValueError, match="every integer"):
        integer_roots([0, 0])


def _plant(monkeypatch, m_factor=(), special_factor=(), r_factor=()):
    m_factors, r_factors, special = closed_form_tables()
    monkeypatch.setattr(checks, "closed_form_tables", lambda: (
        m_factors + m_factor, r_factors + r_factor, special + special_factor))


_LINEAR = "every r-factor is a0 + a1*m + b*r"
_VANISHING = "vanishing set is {m=7} u {m=10} u {m=2r-1}"
_FAMILY = ((1, 1), -2, 1)  # the r-factor m + 1 - 2r


def test_scan_factors_fails_on_planted_m_factor(monkeypatch):
    # (m - 12)*(2*m + 1): a root at m = 12, where no r-factor vanishes
    _plant(monkeypatch, m_factor=(((-12, -23, 2), 1),))
    out = run_check("scan-factors")
    assert not out.passed
    assert out.detail[_VANISHING] == "FAIL"
    assert out.witness == "first mismatch at m=12"


def test_scan_factors_fails_on_planted_special_factor(monkeypatch):
    # (r - 6)*(3*r + 2): the m=2r-1 form would also vanish at r = 6
    _plant(monkeypatch, special_factor=(((-12, -16, 3), 1),))
    out = run_check("scan-factors")
    assert not out.passed
    assert out.detail[_VANISHING] == "ok"
    assert out.detail["m=2r-1 form vanishes exactly at r in {2, 4}"] == "FAIL"
    assert out.witness == "mismatch at r in [6]"


def _reference_scan(m_factors, r_factors, m_max):
    """The first m <= m_max at which the closed form's zero set on
    2 <= r <= m-1 differs from {m=7} u {m=10} u {m=2r-1}, or None: the
    per-m brute-force scan that `scan-factors` solves in closed form."""
    m_roots = set().union(*(integer_roots(co) for co, _ in m_factors))
    for mm in range(4, m_max + 1):
        if mm in m_roots:
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
            return mm
    return None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9),
                          st.integers(-6, 6).filter(bool)),
                min_size=1, max_size=3),
       st.booleans())
def test_scan_factors_matches_reference_scan(lines, with_family):
    # planted r-factors a0 + a1*m + b*r, with or without m + 1 - 2r: the
    # closed form names the same first bad m as a scan to m = 400
    m_factors, _, special = closed_form_tables()
    r_factors = tuple(((a0, a1), b, 1) for a0, a1, b in lines)
    if with_family:
        r_factors += (_FAMILY,)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "closed_form_tables",
                   lambda: (m_factors, r_factors, special))
        out = run_check("scan-factors")
    bad = _reference_scan(m_factors, r_factors, 400)
    assert out.detail[_LINEAR] == "ok"
    assert out.detail[_VANISHING] == ("ok" if bad is None else "FAIL")
    assert out.witness == (None if bad is None else f"first mismatch at m={bad}")


@pytest.mark.parametrize("factor, family, first_bad", [
    # r - 5: r = 5 is admissible from m = 6 on
    (((-5,), 1, 1), True, 6),
    # r - 2*m + 6: admissible at m = 4 and 5 only, a bounded interval
    (((6, -2), 1, 1), True, 4),
    # 3r - m - 8: admissible at m = 7 and 10 (exempt), 13 (on the
    # family) and 16, the |X| + 2 = 4th zero: the window bound is tight
    (((-8, -1), 3, 1), True, 16),
    # 2r - m + 8: admissible from m = 12 on, far above m = 4
    (((8, -1), 2, 1), True, 12),
    # r - 3*m + 12 without m + 1 - 2r: it meets r = (m+1)/2 at m = 5
    # only, and m = 9 is the first odd m with no zero
    (((12, -3), 1, 1), False, 9),
], ids=["r-5", "r-2m+6", "tight-window", "far-interval", "no-family"])
def test_scan_factors_fails_on_planted_r_factor(monkeypatch, factor, family,
                                                first_bad):
    m_factors, r_factors, special = closed_form_tables()
    r_factors = tuple(rf for rf in r_factors if family or rf != _FAMILY)
    r_factors += (factor,)
    assert _reference_scan(m_factors, r_factors, 400) == first_bad
    monkeypatch.setattr(checks, "closed_form_tables",
                        lambda: (m_factors, r_factors, special))
    out = run_check("scan-factors")
    assert not out.passed
    assert out.detail[_LINEAR] == "ok"
    assert out.detail[_VANISHING] == "FAIL"
    assert out.witness == f"first mismatch at m={first_bad}"


def test_scan_factors_fails_on_nonlinear_r_factor(monkeypatch):
    # m^2 - r: a(m) is quadratic, so the closed form does not apply
    _plant(monkeypatch, r_factor=(((0, 0, 1), -1, 1),))
    out = run_check("scan-factors")
    assert not out.passed
    assert out.detail[_LINEAR] == "FAIL"
    assert out.witness == _LINEAR
    assert _VANISHING not in out.detail


def test_appendix_c_leading_subset():
    # a fast sub-grid covering both the generic and the m = 2r-1 branch
    samples = [(4, 2, 1), (4, 3, -1), (5, 3, 1), (6, 4, -1)] * 10
    out = check_appendix_c_leading(samples=samples)
    assert out.passed, out.witness


def test_appendix_c_leading_fails_on_odd_f_exponent(monkeypatch):
    # a planted f^1 term: the pair is no longer even in f, so the square
    # is not proven and the sample fails before any elimination
    build_core = checks.build_core

    def planted(params, f_order=None):
        core = build_core(params, f_order=f_order)
        return SimpleNamespace(new_h=core.new_h + MultiPoly.var("f"),
                               new_k=core.new_k)

    monkeypatch.setattr(checks, "build_core", planted)
    out = check_appendix_c_leading(samples=[(4, 2, 1)] * 40)
    assert not out.passed
    label = "(4,2,1) primitive part is a perfect square"
    assert out.detail[label] == "FAIL"
    assert out.witness == label


def test_appendix_c_leading_fails_on_raised_top(monkeypatch):
    # new_h*(1 + z) is still even in f, and its Res_u gains (1 + z)^4:
    # the bound rises to 45 and z^44..z^41 no longer vanish
    build_core = checks.build_core

    def planted(params, f_order=None):
        core = build_core(params, f_order=f_order)
        return SimpleNamespace(new_h=core.new_h * (1 + MultiPoly.var("z")),
                               new_k=core.new_k)

    monkeypatch.setattr(checks, "build_core", planted)
    out = check_appendix_c_leading(samples=[(4, 2, 1)] * 40)
    assert not out.passed
    assert out.detail["(4,2,1) raw degree 80"] == "FAIL"
    assert out.witness == ("top=45, read z^45..z^40, "
                           "nonzero at z^[44, 43, 42, 41, 40]")


def test_appendix_c_leading_builds_no_full_resultant(monkeypatch):
    # the degree and the leading coefficient come from resultant_top
    def refuse(*args, **kwargs):
        raise AssertionError("appendix-c-leading built a full resultant")

    monkeypatch.setattr(checks, "resultant_interp", refuse)
    monkeypatch.setattr(checks, "resultant", refuse)
    out = run_check("appendix-c-leading")
    assert out.passed, out.witness


def test_appendix_c_leading_builds_each_plan_once(monkeypatch,
                                                 fresh_truncated_core):
    # the 46 default samples specialize Hgen, NumDerF and DenDerF from
    # plans cached with the cleared core, built once for (m, r, c): the
    # three full plans of _cleared_core and the three truncated plans of
    # each f_order, 2 and 3 (m = 2r-1); a one-shot MultiPoly.at per
    # sample would build a plan each time
    built = []
    plan = poly.subst_plan

    def spy(d, names):
        built.append((d, tuple(names)))  # kept alive, so ids stay distinct
        return plan(d, names)

    monkeypatch.setattr(poly, "subst_plan", spy)
    catalog._cleared_core.cache_clear()
    out = check_appendix_c_leading()
    assert out.passed, out.witness
    assert len(built) == len({id(d) for d, _ in built}) == 3 * 3
    assert {names for _, names in built} == {("m", "r", "c")}


@pytest.fixture
def fresh_truncated_core():
    """No truncated plans from before the test, nor from a core it
    planted."""
    catalog._truncated_core.cache_clear()
    yield
    catalog._truncated_core.cache_clear()


def test_appendix_c_leading_truncated_pair_without_f1_falls_back(monkeypatch):
    # at (6, 4, -1) the truncated pair loses its f^1 terms, so alpha
    # drops and the cut no longer proves the top: that sample takes the
    # full build, and every line stays as it was
    build_core = checks.build_core
    orders = []

    def planted(params, f_order=None):
        core = build_core(params, f_order=f_order)
        if params == (6, 4, -1):
            orders.append(f_order)
            if f_order is not None:
                h = core.H - core.H.truncate("f", 1) + core.H.truncate("f", 0)
                return SimpleNamespace(new_h=catalog.reduce_to_z(h, 3),
                                       new_k=core.new_k)
        return core

    samples = [(4, 2, 1), (4, 3, -1), (5, 3, 1), (6, 4, -1)] * 10
    want = check_appendix_c_leading(samples=samples)
    monkeypatch.setattr(checks, "build_core", planted)
    out = check_appendix_c_leading(samples=samples)
    assert orders == [2, None] * 10
    assert (out.passed, out.witness, out.detail) == \
        (want.passed, want.witness, want.detail)
    assert out.passed, out.witness


def test_appendix_c_leading_fails_on_even_generic_degree(monkeypatch,
                                                        fresh_truncated_core):
    # a planted f^4*k^2 in the cleared Hgen: (f, k)-degree 6, above the
    # cut of every sample, so the truncated halves stay even; the
    # generic fact fails, and the full build shows the odd f-exponent
    hgen, d_h, num, den, d_f, _ = catalog._cleared_core()
    hgen = hgen + MultiPoly({(4, 2): 1})
    core = (hgen, d_h, num, den, d_f,
            tuple(poly.AtPlan(p, ("m", "r", "c")) for p in (hgen, num, den)))
    monkeypatch.setattr(catalog, "_cleared_core", lambda: core)
    samples = [(4, 2, 1), (4, 3, -1), (5, 3, 1), (6, 4, -1)] * 10
    for sample in set(samples):
        count = 3 if sample[0] == 2 * sample[1] - 1 else 2
        cut = catalog.build_core(sample, f_order=count)
        assert None not in checks._halves(cut)
    out = check_appendix_c_leading(samples=samples)
    assert not out.passed
    squares = {label: verdict for label, verdict in out.detail.items()
               if label.endswith("perfect square")}
    assert len(squares) == 4
    assert set(squares.values()) == {"FAIL"}
    assert out.witness == "(4,2,1) primitive part is a perfect square"


def test_appendix_c_leading_specializes_the_cut_terms(monkeypatch):
    # work guard, no timer: a default run builds each (m, r) once, at
    # c = -1, and c = 1 takes its top and coefficients; the generic terms
    # AtPlan.at specializes are at most 25% of what a full build per
    # sample would take (20 builds of 260 + 35 + 29 terms at count 2,
    # 3 of 474 at count 3: 7,902 of 772 * 46 = 35,512)
    full = sum(len(plan._plan[3]) for plan in catalog._cleared_core()[-1])
    at = poly.AtPlan.at
    terms = []

    def counting(plan, values):
        terms.append(len(plan._plan[3]))
        return at(plan, values)

    monkeypatch.setattr(poly.AtPlan, "at", counting)
    out = run_check("appendix-c-leading")
    assert out.passed, out.witness
    samples = len(checks.APPC_DEFAULT_SAMPLES)
    assert full == 772 and len(terms) == 3 * 23
    assert sum(terms) <= 0.25 * full * samples


@pytest.fixture
def built_samples(monkeypatch):
    """The params of every build_core call appendix-c-leading makes."""
    build_core = checks.build_core
    params = []

    def spy(sample, f_order=None):
        params.append(sample)
        return build_core(sample, f_order=f_order)

    monkeypatch.setattr(checks, "build_core", spy)
    return params


def test_appendix_c_leading_builds_each_pair_once(built_samples):
    # the default samples take each (m, r) at both signs of c: the
    # second takes the first's top and coefficients, and builds nothing
    out = run_check("appendix-c-leading")
    assert out.passed, out.witness
    first = {}
    for mm, rr, cc in checks.APPC_DEFAULT_SAMPLES:
        first.setdefault((mm, rr), (mm, rr, cc))
    assert built_samples == list(first.values())


def test_appendix_c_leading_one_sign_per_pair_builds_every_sample(
        built_samples):
    samples = [(4, 2, 1), (4, 3, -1), (5, 3, 1), (6, 4, -1), (5, 2, 1)] * 8
    out = check_appendix_c_leading(samples=samples)
    assert out.passed, out.witness
    assert built_samples == samples


def test_appendix_c_leading_twin_keeps_the_parameter_check():
    # 1.0 == 1, but only an int c is a specialization: the sample is
    # built, and rejected, rather than read from its twin (4, 2, -1)
    with pytest.raises(catalog.InvalidParameters):
        check_appendix_c_leading(samples=[(4, 2, -1), (4, 2, 1.0)] * 20)


def test_appendix_c_leading_builds_all_without_the_weight_fact(
        monkeypatch, fresh_truncated_core, built_samples):
    # a planted f^5*k^2 in the cleared Hgen: (f, k)-degree 7, so the
    # generic fact holds, but weight 7, not 9; above every cut, so the
    # cut halves and every line stay as they were, and no sample takes
    # its twin's values
    want = run_check("appendix-c-leading")
    hgen, d_h, num, den, d_f, _ = catalog._cleared_core()
    hgen = hgen + MultiPoly({(5, 2): 1})
    core = (hgen, d_h, num, den, d_f,
            tuple(poly.AtPlan(p, ("m", "r", "c")) for p in (hgen, num, den)))
    monkeypatch.setattr(catalog, "_cleared_core", lambda: core)
    assert catalog.cleared_gradings()[0] == ({3, 5, 7, 9}, {7, 9})
    built_samples.clear()
    out = run_check("appendix-c-leading")
    assert built_samples == list(checks.APPC_DEFAULT_SAMPLES)
    assert (out.passed, out.witness, out.detail) == \
        (want.passed, want.witness, want.detail)


def test_appendix_c_leading_twin_of_a_full_build(monkeypatch):
    # at (6, 4, -1) the cut pair loses its f^1 terms, so that sample
    # takes the full build; its twin (6, 4, 1) then takes what
    # resultant_top read from the full halves, builds nothing, and every
    # line stays as it was
    build_core = checks.build_core
    built = []

    def planted(params, f_order=None):
        built.append((params, f_order))
        core = build_core(params, f_order=f_order)
        if params == (6, 4, -1) and f_order is not None:
            h = core.H - core.H.truncate("f", 1) + core.H.truncate("f", 0)
            return SimpleNamespace(new_h=catalog.reduce_to_z(h, 3),
                                   new_k=core.new_k)
        return core

    want = run_check("appendix-c-leading")
    monkeypatch.setattr(checks, "build_core", planted)
    out = run_check("appendix-c-leading")
    assert [b for b in built if b[0][:2] == (6, 4)] == \
        [((6, 4, -1), 2), ((6, 4, -1), None)]
    assert (out.passed, out.witness, out.detail) == \
        (want.passed, want.witness, want.detail)


def test_appendix_c_leading_twin_meets_its_own_closed_form(monkeypatch,
                                                          built_samples):
    # both closed forms doubled at c = 1 only: every c = 1 sample but
    # (11, 6, 1), which comes before its twin, takes its twin's top and
    # coefficients and builds nothing, yet exactly the c = 1
    # cleared-equality lines fail, every other line stays ok, the twin
    # (11, 6, -1) included, and the witness is that of the first failing
    # line, (4, 2, 1)
    dominant = checks.dominant_coef_value
    for name in ("dominant_coef_value", "res_special_value"):
        closed_form = getattr(checks, name)
        monkeypatch.setattr(checks, name, lambda *params, f=closed_form:
                            (2 if params[-1] == 1 else 1) * f(*params))
    out = run_check("appendix-c-leading")
    assert not out.passed
    assert [s for s in built_samples if s[2] == 1] == [(11, 6, 1)]
    label = "({},{},{}) 3^10*m^3*closed == -2^38*(m-r)^7*lc_z Res_u"
    samples = checks.APPC_DEFAULT_SAMPLES
    failed = {line for line, verdict in out.detail.items()
              if verdict == "FAIL"}
    assert failed == {label.format(*s) for s in samples if s[2] == 1}
    assert set(out.detail.values()) == {"ok", "FAIL", str(len(samples))}
    lead = quotient(-3 ** 10 * 4 ** 3 * dominant(4, 2, 1), 2 ** 38 * 2 ** 7)
    assert out.witness == f"lead={lead} closed={2 * dominant(4, 2, 1)}"


def test_appendix_c_leading_shares_only_at_the_structural_degrees(
        monkeypatch):
    # values are shared only where the twin sign (-1)^(db*(da+1)) is
    # proved +1, at the u-degrees (3, 4): planted even halves of
    # u-degrees (2, 3), whose sign would be -1, take the full build at
    # either sign of c, and the twin (6, 4, 1) builds too
    built = []

    def planted(params, f_order=None):
        built.append((params, f_order))
        return SimpleNamespace(new_h=MultiPoly({(4, 0, 1): 1}) + 1,
                               new_k=MultiPoly({(6,): 1, (0, 0, 1): 1}))

    monkeypatch.setattr(checks, "build_core", planted)
    out = check_appendix_c_leading(samples=[(6, 4, -1), (6, 4, 1)] * 20)
    assert not out.passed
    assert built == [((6, 4, -1), 2), ((6, 4, -1), None),
                     ((6, 4, 1), 2), ((6, 4, 1), None)] * 20


def test_appendix_c_twin_sign_at_any_u_degrees(rng):
    # the lemma behind the twin rule: Res_u(-A(-u), B(-u)) =
    # (-1)^(db*(da+1)) * Res_u(A, B) at the u-degrees da, db of A and B,
    # and resultant_top reads the same top and those coefficients times
    # the sign, which is +1 at (3, 4)
    def of_degree(deg):
        while True:
            lead = MultiPoly({(deg, 0, rng.randint(0, 2)): rng.randint(1, 9)})
            p = rand_poly(rng, names=("f", "z"), max_deg=deg) + lead
            if p.degree("f") == deg:
                return p

    minus_u = -MultiPoly.var("f")
    for da in range(1, 5):
        for db in range(1, 5):
            a, b = of_degree(da), of_degree(db)
            twin = [-a.substitute("f", minus_u), b.substitute("f", minus_u)]
            sign = (-1) ** (db * (da + 1))
            assert resultant(*twin, "f") == sign * resultant(a, b, "f")
            top, coeffs = resultant_top(a, b, "f", "z", 2, 0)
            assert resultant_top(*twin, "f", "z", 2, 0) == \
                (top, [sign * co for co in coeffs])


def test_appendix_c_leading_takes_one_integer_resultant_per_sample(
        monkeypatch):
    # resultant_top looks kernels.resultant_int up as a module attribute,
    # so a wrapper set there counts the packed resultants: one per
    # (m, r), at the sign of c that comes first, and none for its twin
    calls = []
    inner = kernels.resultant_int

    def counting(f, g):
        calls.append((len(f), len(g)))
        return inner(f, g)

    monkeypatch.setattr(kernels, "resultant_int", counting)
    out = run_check("appendix-c-leading")
    assert out.passed, out.witness
    pairs = {(mm, rr) for mm, rr, _ in checks.APPC_DEFAULT_SAMPLES}
    assert calls == [(4, 5)] * len(pairs)
    assert len(calls) == 23


def test_appendix_c_cofactor_contents():
    # the docstring's cofactor: the generic (m - r)-cleared pair has the
    # rational contents 3/32 and -9/64, (3/32)^4 * (-9/64)^3 = -3^10/2^38
    core = checks.build_core()
    assert core.H.primitive()[0] == Rat(3, 32)
    assert core.K.primitive()[0] == Rat(-9, 64)


@pytest.mark.parametrize("patched, factor, sample, args", [
    ("dominant_coef_value", 2, (4, 2, 1), (4, 2, 1)),
    ("res_special_value", 3, (5, 3, 1), (3, 1)),
], ids=["dominant-2x", "special-3x"])
def test_appendix_c_leading_rejects_scaled_closed_form(monkeypatch, patched,
                                                       factor, sample, args):
    # a multiple of the closed form is still divisible by the leading
    # coefficient, but it breaks the cleared equality
    closed_form = getattr(checks, patched)
    monkeypatch.setattr(checks, patched,
                        lambda *params: factor * closed_form(*params))
    out = check_appendix_c_leading(samples=[sample] * 40)
    assert not out.passed
    mm, rr, _ = sample
    lead = quotient(-3 ** 10 * mm ** 3 * closed_form(*args),
                    2 ** 38 * (mm - rr) ** 7)
    label = "({},{},{}) 3^10*m^3*closed == -2^38*(m-r)^7*lc_z Res_u"
    assert out.detail[label.format(*sample)] == "FAIL"
    assert out.witness == f"lead={lead} closed={factor * closed_form(*args)}"


def test_appendix_c_leading_requires_40_samples():
    out = check_appendix_c_leading(samples=[(4, 2, 1)])
    assert not out.passed


def test_all_outcomes_have_timing():
    out = run_check("biconservative")
    assert out.elapsed_ms >= 0.0
    assert out.name == "biconservative"


# sha256 of json.dumps([passed, witness, detail]) for each check: a
# change that keeps every verdict, witness and detail line keeps these;
# appendix-c-leading's pins one cleared-equality line per sample
CHECK_DIGESTS = {
    "res-pq":
        "0c3fe0474fd72355a4010dd0aa019673827da314ed0913abeed7150ba7cfaa18",
    "special-case":
        "e7a2f41ef080b1f9d25f5a12a94dd84079bcdb3d268c8ab7b746a53f5307398e",
    "relation1-delta":
        "bd79f39f2cab3917dda3973ca8bc4a1f047b00b907877c790864b0777887b155",
    "biconservative":
        "cc307e5f922445a237de6fad8b3bfbe1215a6d97a20324bb5c7adec132758a4b",
    "nonic":
        "b07f9e5e44ddc42553c1beaac1cf275c90d0c3711d5f80b6e015f1d9dea2698c",
    "mod-delta-chain":
        "df628dc1c91e2bb8ecdf18ad917516f1bc12e53aa2f1219c691cff3814791e1c",
    "kfconst":
        "12e556b8d9f46b43f02584ecae5ba6611cf0222878c26727ab5743febeb69bc4",
    "scan-factors":
        "90b93e3fb5d1352b107e8db30c298f5951382a033cec6f36c0b248cc4cf3d3d6",
    "appendix-c-leading":
        "6da3f69566263100a03c81817d498e9d9ae72c4b369b536c97a0034b41c870a9",
}


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_outcome_pinned(name):
    out = run_check(name)
    blob = json.dumps([out.passed, out.witness, out.detail]).encode()
    assert hashlib.sha256(blob).hexdigest() == CHECK_DIGESTS[name]
