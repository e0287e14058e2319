"""Pseudo-remainder, resultant and gcd against sympy, an independent
implementation that shares no code with this package.  Skipped when
sympy is not installed."""

import pytest
from conftest import (BIVARIATE_SHAPES, rand_nonzero, rand_poly,
                      rand_shaped_pair)

from resverify import kernels
from resverify.catalog import build_core
from resverify.poly import (VAR_NAMES, gcd, horner, int_coeffs,
                            pseudo_division, variables)
from resverify.ratio import Rat
from resverify.resultant import resultant, resultant_interp

sympy = pytest.importorskip("sympy")

V = variables()
K = V["k"]
SYMS = sympy.symbols(VAR_NAMES)


def to_sympy(p):
    total = sympy.Integer(0)
    for exps, co in p.terms():
        term = sympy.Rational(int(co.numerator), int(co.denominator))
        for sym, e in zip(SYMS, exps):
            term *= sym ** e
        total += term
    return total


def same(p, expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


def _with_k(rng, **kw):
    while True:
        p = rand_nonzero(rng, **kw)
        if p.degree("k") >= 1:
            return p


def _sympy_resultant(a, b, var="k"):
    sym = SYMS[VAR_NAMES.index(var)]
    da, db = a.degree(var), b.degree(var)
    # Res(a, b) = (-1)^(da*db) * Res(b, a); sympy 1.14 drops that sign
    # when deg a < deg b, so it is asked with the larger first
    if da < db:
        return ((-1) ** (da * db)
                * sympy.resultant(to_sympy(b), to_sympy(a), sym))
    return sympy.resultant(to_sympy(a), to_sympy(b), sym)


def test_prem_vanishing_intermediate_coefficient():
    # after the first step the k^1 coefficient is already zero; the
    # textbook pseudo-remainder still takes that step: lc^2 * 1 = 4
    quot, rem, scale = pseudo_division(K ** 2 + 1, 2 * K, "k")
    assert same(rem, sympy.prem(SYMS[1] ** 2 + 1, 2 * SYMS[1], SYMS[1]))
    assert rem == 4 and scale == 4
    assert scale * (K ** 2 + 1) == quot * (2 * K) + rem


def test_prem_matches_sympy_randomized(rng):
    k = SYMS[1]
    for _ in range(150):
        a = rand_poly(rng)
        b = rand_nonzero(rng)
        if rng.random() < 0.3:
            b = b * Rat(1, rng.randint(2, 5))
        rem = pseudo_division(a, b, "k")[1]
        assert same(rem, sympy.prem(to_sympy(a), to_sympy(b), k)), (a, b)


def test_resultant_matches_sympy_randomized(rng):
    # lc(a)^deg(b) * b(root of a) = 2^3 * (-35/8)
    assert resultant(2 * K + 3, K ** 3 - 1, "k") == -35
    for _ in range(40):
        a = _with_k(rng, max_terms=4)
        b = _with_k(rng, max_terms=4)
        want = _sympy_resultant(a, b)
        assert same(resultant(a, b, "k"), want), (a, b)
        assert same(resultant_interp(a, b, "k", "f"), want), (a, b)


@pytest.mark.parametrize("shape", [*BIVARIATE_SHAPES, "planted"])
def test_interp_sample_bound_matches_sympy(rng, shape):
    for _ in range(10):
        a, b = rand_shaped_pair(rng, shape)
        assert same(resultant_interp(a, b, "k", "f"), _sympy_resultant(a, b)), (a, b)


@pytest.mark.parametrize("var,params,is_zero", [
    ("k", (4, 2, 1), False),
    ("k", (4, 2, -1), False),
    ("k", (7, 4, 1), True),  # the conic is a common factor
    ("f", (4, 2, 1), True),  # f divides both
], ids=["k-4,2,1", "k-4,2,-1", "k-7,4,1", "f-4,2,1"])
def test_sweep_pair_matches_sympy(var, params, is_zero):
    core = build_core(params)
    spectator = "f" if var == "k" else "k"
    got = resultant_interp(core.H, core.K, var, spectator)
    assert got.is_zero() == is_zero
    assert same(got, _sympy_resultant(core.H, core.K, var))


@pytest.mark.parametrize("params,is_zero", [((15, 8, 1), False),
                                             ((7, 4, 1), True)])
def test_resultant_int_matches_sympy_on_sweep_samples(params, is_zero):
    # the integer samples resultant_interp takes in k at f = t
    core = build_core(params)
    k = SYMS[VAR_NAMES.index("k")]
    for t in (1, 2, 3):
        a, b = ([horner(int_coeffs(ce, "f"), t)
                 for ce in p.primitive()[1].coefficients_in("k")]
                for p in (core.H, core.K))
        # no leading coefficient vanishes, so sympy sees the formal degrees
        assert a[-1] and b[-1]
        da, db = len(a) - 1, len(b) - 1
        assert da < db
        want = ((-1) ** (da * db)
                * sympy.resultant(sum(co * k ** i for i, co in enumerate(b)),
                                  sum(co * k ** i for i, co in enumerate(a)), k))
        got = kernels.resultant_int(a, b)
        assert got == want
        assert (got == 0) == is_zero


def test_gcd_matches_sympy_randomized(rng):
    for _ in range(40):
        g = rand_nonzero(rng, max_terms=3, max_deg=2)
        a = g * rand_nonzero(rng, max_terms=3, max_deg=2)
        b = g * rand_nonzero(rng, max_terms=3, max_deg=2)
        want = sympy.gcd(to_sympy(a), to_sympy(b))
        # sympy keeps the integer content and its own sign convention;
        # the two gcds agree up to a nonzero rational factor
        ratio = sympy.cancel(want / to_sympy(gcd(a, b)))
        assert ratio.is_Rational and ratio != 0, (a, b)
