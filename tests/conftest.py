"""Shared helpers: random polynomial generation and independent oracles.

The reference implementations here (tuple-keyed dict polynomials,
cofactor-expansion determinants) deliberately share no code with the
package so the tests cross two independent paths.
"""

import random
from fractions import Fraction

import pytest

from resverify.poly import VAR_NAMES, MultiPoly


def rand_poly(rng: random.Random, names=("f", "k"), max_terms=5, max_deg=3,
              coeff_lo=-9, coeff_hi=9, allow_zero=True) -> MultiPoly:
    acc = MultiPoly.zero()
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        term = MultiPoly.const(rng.randint(coeff_lo, coeff_hi))
        for name in names:
            term = term * MultiPoly.var(name, rng.randint(0, max_deg))
        acc = acc + term
    return acc


def rand_nonzero(rng, **kw) -> MultiPoly:
    while True:
        p = rand_poly(rng, allow_zero=False, **kw)
        if not p.is_zero():
            return p


def rand_graded(rng: random.Random, degrees, names=("k", "f"), extra_terms=3,
                coeff_lo=-9, coeff_hi=9) -> MultiPoly:
    """Random polynomial in two variables whose terms have exactly the
    total degrees in `degrees`, with positive degree in names[0]."""
    coeffs = [co for co in range(coeff_lo, coeff_hi + 1) if co]
    while True:
        acc = MultiPoly.zero()
        picks = list(degrees) + [rng.choice(degrees)
                                 for _ in range(rng.randint(0, extra_terms))]
        for d in picks:
            i = rng.randint(0, d)
            acc = acc + (rng.choice(coeffs) * MultiPoly.var(names[0], i)
                         * MultiPoly.var(names[1], d - i))
        if (acc.degree(names[0]) >= 1
                and {sum(exps) for exps, _ in acc.terms()} == set(degrees)):
            return acc


def rand_mrcf(rng: random.Random, k_degree: int) -> MultiPoly:
    """Random polynomial of k-degree k_degree whose k-coefficients are
    sparse polynomials in (m, r, c, f), as those of P and Q are; the
    leading and constant ones are nonzero."""
    names = ("m", "r", "c", "f")
    acc = MultiPoly.zero()
    for i in range(k_degree, -1, -1):
        draw = rand_nonzero if i in (0, k_degree) else rand_poly
        acc = (acc * MultiPoly.var("k")
               + draw(rng, names=names, max_terms=2, max_deg=1))
    return acc


# total degrees of the two inputs' terms in (k, f); the gcd of their
# gaps to the maxima (the step of resultant_interp) is 0, 2, 3 and 1
BIVARIATE_SHAPES = {
    "homogeneous": ([2], [3]),
    "parity": ([4, 2, 0], [3, 1]),
    "step3": ([5, 2], [4, 1]),
    "mixed": ([3, 2, 0], [3, 1]),
}
# and "mrcf": k-degrees 3 and 4 with k-coefficients in (m, r, c, f), a
# Bezout matrix of 4 rows, the largest that resultant() expands by minors
SHAPES = {**BIVARIATE_SHAPES, "mrcf": (3, 4)}


def rand_shaped_pair(rng: random.Random, shape: str):
    """Two polynomials of one of SHAPES, or of a random bivariate shape
    times a planted common factor of positive k-degree for "planted"."""
    if shape == "planted":
        pick = rng.choice(sorted(BIVARIATE_SHAPES))
        degs_a, degs_b = BIVARIATE_SHAPES[pick]
        common = rand_graded(rng, rng.choice(([1], [2, 1])))
        return (common * rand_graded(rng, degs_a, extra_terms=1),
                common * rand_graded(rng, degs_b, extra_terms=1))
    if shape == "mrcf":
        return tuple(rand_mrcf(rng, d) for d in SHAPES[shape])
    degs_a, degs_b = SHAPES[shape]
    return rand_graded(rng, degs_a), rand_graded(rng, degs_b)


# -- reference polynomial arithmetic (tuple-keyed, Fraction coefficients)

def ref_from_multipoly(p: MultiPoly) -> dict:
    return {exps: Fraction(int(co.numerator), int(co.denominator))
            for exps, co in p.terms()}


def ref_to_multipoly(d: dict) -> MultiPoly:
    return MultiPoly(d)


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, co in b.items():
        cc = out.get(key, 0) + co
        if cc:
            out[key] = cc
        else:
            out.pop(key, None)
    return out


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            cc = out.get(key, 0) + ca * cb
            if cc:
                out[key] = cc
            else:
                out.pop(key, None)
    return out


def ref_scale(a: dict, q) -> dict:
    return {key: co * q for key, co in a.items() if co * q}


def ref_diff(a: dict, name: str) -> dict:
    i = VAR_NAMES.index(name)
    out = {}
    for key, co in a.items():
        if key[i]:
            nk = key[:i] + (key[i] - 1,) + key[i + 1:]
            out[nk] = out.get(nk, 0) + co * key[i]
    return {k: v for k, v in out.items() if v}


def ref_subst(a: dict, values: dict) -> dict:
    """Substitute numbers for some variables (name -> value), term by
    term; the substituted exponents become 0."""
    out = {}
    for key, co in a.items():
        term = Fraction(co)
        exps = list(key)
        for name, value in values.items():
            i = VAR_NAMES.index(name)
            term *= Fraction(value) ** exps[i]
            exps[i] = 0
        nk = tuple(exps)
        out[nk] = out.get(nk, 0) + term
    return {k: v for k, v in out.items() if v}


def ref_eval(a: dict, assignment: dict) -> Fraction:
    total = Fraction(0)
    for key, co in a.items():
        term = Fraction(co)
        for i, e in enumerate(key):
            if e:
                term *= Fraction(assignment[VAR_NAMES[i]]) ** e
        total += term
    return total


def cofactor_det(rows):
    """Determinant by cofactor expansion; entries are MultiPoly."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = MultiPoly.zero()
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
