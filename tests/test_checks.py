"""Named verification checks: all pass, with the expected reported
details."""

import dataclasses

import pytest

from resverify import checks
from resverify.catalog import manifest
from resverify.checks import (CHECK_NAMES, UnknownCheck,
                              check_appendix_c_leading, run_check)
from resverify.poly import MultiPoly
from resverify.ratio import Rat


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


def test_special_case_symbolic():
    out = run_check("special-case")
    assert out.passed, out.witness
    assert out.detail["display cofactor (first)"] == "f"
    assert out.detail["display cofactor (second)"] == "21/2*f"


def test_special_case_fixed_c():
    out = run_check("special-case", c_mode="1")
    assert out.passed, out.witness


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
    out = run_check("relation1-delta")
    assert not out.passed
    assert out.detail[failing] == "FAIL"


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


def test_scan_factors_small_range():
    out = run_check("scan-factors", m_max=60)
    assert out.passed, out.witness


def test_scan_factors_rejects_tiny_range():
    out = run_check("scan-factors", m_max=10)
    assert not out.passed


def test_appendix_c_leading_subset():
    # a fast sub-grid covering both the generic and the m = 2r-1 branch
    samples = [(4, 2, 1), (4, 3, -1), (5, 3, 1), (6, 4, -1)] * 10
    out = check_appendix_c_leading(samples=samples)
    assert out.passed, out.witness


def test_appendix_c_leading_requires_40_samples():
    out = check_appendix_c_leading(samples=[(4, 2, 1)])
    assert not out.passed


def test_all_outcomes_have_timing():
    out = run_check("biconservative")
    assert out.elapsed_ms >= 0.0
    assert out.name == "biconservative"
