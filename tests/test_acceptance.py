"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints one PASS/FAIL line (run with -s or read captured
output).  Budgets stated per criterion are asserted; the sweep budgets
are scaled from their 8-worker statement to the available cores.
"""

import os
import random
import time

from conftest import rand_poly

from resverify.catalog import build_core, manifest
from resverify.checks import run_check
from resverify.parser import format_poly, parse
from resverify.poly import MultiPoly, pseudo_division, variables
from resverify.ratio import Rat
from resverify.resultant import (gcd_subresultant, resultant,
                                 resultant_interp)
from resverify.sweep import SweepConfig, expected_exceptions, run_sweep

V = variables()
F, K, C = V["f"], V["k"], V["c"]

WORKERS = max(1, os.cpu_count() or 1)


def _report(criterion: int, label: str, passed: bool, elapsed: float,
            budget: float) -> None:
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"{status} criterion {criterion}: {label} "
          f"({elapsed:.1f}s, budget {budget:.0f}s)", flush=True)
    assert passed, f"criterion {criterion} failed"
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s"


def test_criterion_01_generic_pq_resultant():
    start = time.monotonic()
    man = manifest()
    res = resultant(man["P"], man["Q"], "k")
    ok = res.degree("f") == 9
    ok = ok and all(res.coefficient("f", d).is_zero() for d in range(3))
    # the published constant names the resultant of the integer-cleared
    # pair (4P, 4Q) = 4^6 * resultant(P, Q)
    ok = ok and res.coefficient("f", 3) * 4096 == man["coefF3"]
    ok = ok and run_check("res-pq").passed
    _report(1, "generic P/Q elimination closed form", ok,
            time.monotonic() - start, 60.0)


def test_criterion_02_sweep_variable_k():
    start = time.monotonic()
    cfg = SweepConfig(var="k", m_lo=4, m_hi=15, c_list=(-1, 0, 1),
                      jobs=WORKERS)
    report = run_sweep(cfg)
    ok = not report.timed_out
    ok = ok and report.exceptions == [(7, 4, -1), (7, 4, 0), (7, 4, 1)]
    ok = ok and report.exceptions == expected_exceptions(cfg)
    _report(2, "variable-k sweep: zero exactly at (7,4)", ok,
            time.monotonic() - start, 600.0 * 8 / WORKERS)


def test_criterion_03_sweep_variable_f():
    start = time.monotonic()
    cfg = SweepConfig(var="f", m_lo=4, m_hi=15, c_list=(-1, 0, 1),
                      jobs=WORKERS)
    report = run_sweep(cfg)
    ok = not report.timed_out
    ok = ok and all(res.zero for res in report.results)
    ok = ok and report.exceptions == expected_exceptions(cfg)
    _report(3, "variable-f sweep: zero everywhere", ok,
            time.monotonic() - start, 600.0 * 8 / WORKERS)


def _full_range(criterion: int, var: str) -> None:
    start = time.monotonic()
    cfg = SweepConfig(var=var, m_lo=4, m_hi=30, c_list=(-1, 0, 1),
                      jobs=WORKERS)
    report = run_sweep(cfg)
    ok = not report.timed_out
    ok = ok and report.exceptions == expected_exceptions(cfg)
    _report(criterion, f"full-range variable-{var} sweep (m <= 30)", ok,
            time.monotonic() - start, 7200.0 * 8 / WORKERS)


def test_criterion_02_full_range_variable_k():
    _full_range(2, "k")


def test_criterion_03_full_range_variable_f():
    _full_range(3, "f")


def test_criterion_04_reduced_pair_leading_coefficients():
    start = time.monotonic()
    from resverify.poly import RatFun, subst_ratfun
    ok = True
    for params in ((5, 3, 1), (7, 4, -1), (8, 6, 1)):
        core = build_core(params)
        z_over = RatFun(K, F)
        ok = ok and subst_ratfun(core.new_h, "z", z_over) * RatFun(F ** 3) \
            == RatFun(core.H)
        ok = ok and subst_ratfun(core.new_k, "z", z_over) * RatFun(F ** 4) \
            == RatFun(core.K)
    out = run_check("appendix-c-leading")
    ok = ok and out.passed and int(out.detail["samples"]) >= 40
    _report(4, "reduced-pair eliminations match the closed forms", ok,
            time.monotonic() - start, 900.0)


def test_criterion_05_factor_scan():
    start = time.monotonic()
    out = run_check("scan-factors", m_max=10000)
    _report(5, "vanishing set over m <= 10^4", out.passed,
            time.monotonic() - start, 60.0)


def test_criterion_06_special_case_factorization():
    start = time.monotonic()
    out = run_check("special-case")
    # the displays drop an overall positive factor: the exact identities
    # carry cofactors f and (21/2) f, verified inside the check
    ok = out.passed
    ok = ok and out.detail["display cofactor (first)"] == "f"
    ok = ok and out.detail["display cofactor (second)"] == "21/2*f"
    _report(6, "m=7, r=4 factorization and conic gcd", ok,
            time.monotonic() - start, 60.0)


def test_criterion_07_identity_suite():
    start = time.monotonic()
    man = manifest()
    delta = man["delta"]
    cubic = man["rel1cubic2"].substitute("m", 7).substitute("r", 4) * Rat(1, 3)
    ok = cubic == F * delta * Rat(3, 4)
    a_sq = man["k1spec"] ** 2 + 3 * K ** 2 + 3 * man["k3spec"] ** 2
    ok = ok and 14 * a_sq - 245 * F ** 2 - 96 * C == 3 * delta
    ok = ok and man["candeltaL"] + 245 * F ** 2 - 128 * C == 4 * delta
    _report(7, "identity suite around the conic", ok,
            time.monotonic() - start, 10.0)


def test_criterion_08_final_nonic():
    start = time.monotonic()
    ok = run_check("nonic").passed
    ok = ok and run_check("mod-delta-chain").passed
    _report(8, "final degree-9 polynomial derivation", ok,
            time.monotonic() - start, 60.0)


def test_criterion_09_constant_ratio_lemma():
    start = time.monotonic()
    out = run_check("kfconst")
    _report(9, "constant-ratio lemma displays", out.passed,
            time.monotonic() - start, 60.0)


def test_criterion_10_engine_property_suite():
    start = time.monotonic()
    rng = random.Random(987654321)
    ok = True

    def uni(max_deg=3):
        while True:
            p = rand_poly(rng, names=("k",), max_terms=4, max_deg=max_deg)
            if p.degree("k") >= 1:
                return p

    for _ in range(500):  # antisymmetry
        a, b = uni(), uni()
        ok = ok and resultant(a, b, "k") == \
            resultant(b, a, "k") * (-1) ** (a.degree("k") * b.degree("k"))

    for _ in range(500):  # multiplicativity
        a, b, c = uni(2), uni(2), uni(2)
        ok = ok and resultant(a, b * c, "k") == \
            resultant(a, b, "k") * resultant(a, c, "k")

    for _ in range(500):  # planted common root vanishes
        x0 = rng.randint(-5, 5)
        ok = ok and resultant((K - x0) * uni(2), (K - x0) * uni(2), "k").is_zero()

    done = 0
    while done < 500:  # Bareiss and interpolation paths agree
        a = rand_poly(rng, names=("k", "f"), max_terms=3, max_deg=3)
        b = rand_poly(rng, names=("k", "f"), max_terms=3, max_deg=3)
        if a.degree("k") < 1 or b.degree("k") < 1:
            continue
        ok = ok and resultant_interp(a, b, "k", "f") == resultant(a, b, "k")
        done += 1

    done = 0
    while done < 500:  # pseudo-division identity
        a = rand_poly(rng, names=("f", "k"))
        b = rand_poly(rng, names=("f", "k"), allow_zero=False)
        if b.is_zero():
            continue
        quot, rem, scale = pseudo_division(a, b, "k")
        ok = ok and scale * a == quot * b + rem
        done += 1

    done = 0
    while done < 500:  # gcd divides both inputs
        g = rand_poly(rng, max_terms=2, max_deg=2)
        a = rand_poly(rng, max_terms=2, max_deg=2, allow_zero=False)
        b = rand_poly(rng, max_terms=2, max_deg=2, allow_zero=False)
        if g.degree("k") < 1 or a.is_zero() or b.is_zero():
            continue
        res = gcd_subresultant(g * a, g * b, "k")
        ok = ok and res.divides(g * a) and res.divides(g * b)
        done += 1

    for _ in range(500):  # parser round trip
        p = rand_poly(rng, names=("f", "k", "c"), max_terms=6, max_deg=4)
        ok = ok and parse(format_poly(p)) == p

    _report(10, "randomized engine property suite (3500+ instances)", ok,
            time.monotonic() - start, 300.0)
