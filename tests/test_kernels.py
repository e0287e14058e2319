"""The arithmetic kernels against the independent oracles in conftest."""

import fractions
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import (cofactor_det, rand_nonzero, rand_poly, ref_add,
                      ref_from_multipoly, ref_mul)

import resverify
from resverify import kernels, ratio
from resverify.kernels import ExponentOverflow
from resverify.poly import GUARD_MASK, MAX_EXPONENT, MultiPoly
from resverify.resultant import _sylvester_rows


def test_backend_reported():
    assert kernels.BACKEND == "python"
    assert ratio.RAT_BACKEND == "fractions"
    assert ratio.Rat is fractions.Fraction


def test_star_import_exports_every_public_name():
    src = str(Path(resverify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("from resverify import *\n"
            "import resverify\n"
            "missing = [n for n in resverify.__all__ if n not in globals()]\n"
            "assert not missing, missing\n"
            "print(KERNEL_BACKEND)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "python"


def _ref(d: dict) -> dict:
    return ref_from_multipoly(MultiPoly._raw(d))


def test_mul_dicts_matches_reference(rng):
    for _ in range(100):
        a = rand_poly(rng, names=("f", "k", "c"), max_terms=6)
        b = rand_poly(rng, names=("f", "k", "c"), max_terms=6)
        got = kernels.mul_dicts(a._d, b._d, GUARD_MASK)
        assert _ref(got) == ref_mul(_ref(a._d), _ref(b._d))


def test_mul_dicts_drops_cancelled_terms():
    f, k = MultiPoly.var("f"), MultiPoly.var("k")
    got = kernels.mul_dicts((f + k)._d, (f - k)._d, GUARD_MASK)
    assert MultiPoly._raw(got) == f * f - k * k and len(got) == 2


def test_addmul_term_matches_reference(rng):
    for _ in range(100):
        acc = rand_poly(rng)
        b = rand_nonzero(rng)
        mono = rand_nonzero(rng, max_terms=1)
        (key, coeff), = mono._d.items()
        want = ref_add(_ref(acc._d), ref_mul(_ref(mono._d), _ref(b._d)))
        got = dict(acc._d)
        kernels.addmul_term(got, coeff, key, b._d, GUARD_MASK)
        assert _ref(got) == want
        assert all(got.values())


def test_bareiss_det_int_matches_cofactor_expansion(rng):
    for _ in range(50):
        n = rng.randint(1, 6)
        # the small range makes singular matrices and zero pivots common
        lo, hi = (-2, 2) if rng.random() < 0.5 else (-99, 99)
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        want = cofactor_det([[MultiPoly.const(x) for x in row] for row in rows])
        assert kernels.bareiss_det_int(rows) == want.constant_value()


def test_bareiss_det_int_pivot_swap_and_singular():
    assert kernels.bareiss_det_int([[0, 1], [1, 0]]) == -1
    assert kernels.bareiss_det_int([[0, 2, 3], [0, 4, 5], [1, 6, 7]]) == -2
    assert kernels.bareiss_det_int([[1, 2], [2, 4]]) == 0
    assert kernels.bareiss_det_int([[0, 1], [0, 2]]) == 0


def test_bareiss_det_int_leaves_input_unchanged():
    rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    copy = [list(row) for row in rows]
    assert kernels.bareiss_det_int(rows) == 18
    assert rows == copy


def test_exponent_overflow_raised():
    big = MultiPoly.var("f", MAX_EXPONENT)
    with pytest.raises(ExponentOverflow):
        kernels.mul_dicts(big._d, big._d, GUARD_MASK)
    (key, coeff), = big._d.items()
    with pytest.raises(ExponentOverflow):
        kernels.addmul_term({}, coeff, key, big._d, GUARD_MASK)


def _sylvester_det(f, g):
    rows = _sylvester_rows(f, g, 0)
    return kernels.bareiss_det_int(rows) if rows else 1  # empty matrix


def _rand_formal(rng, lo=-9, hi=9):
    """Ascending integer coefficients of formal degree 0..9, the leading
    one zero in one draw out of five."""
    f = [rng.randint(lo, hi) for _ in range(rng.randint(1, 10))]
    if rng.random() < 0.2:
        f[-1] = 0
    return f


def _convolve(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _remainder_degrees(f, g):
    """Degrees of the Euclidean remainder sequence of f, g (actual
    leading coefficients nonzero), over the rationals."""
    a = [fractions.Fraction(x) for x in f]
    b = [fractions.Fraction(x) for x in g]
    degrees = [len(a) - 1, len(b) - 1]
    while len(b) > 1:
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for j, y in enumerate(b):
                a[shift + j] -= q * y
            a.pop()
        while a and not a[-1]:
            a.pop()
        if not a:
            break
        a, b = b, a
        degrees.append(len(b) - 1)
    return degrees


def test_resultant_int_is_the_sylvester_determinant(rng):
    # sign included, also where a formal leading coefficient is 0; the
    # small range makes common factors and degree drops in the remainder
    # sequence common
    for _ in range(1500):
        lo, hi = (-2, 2) if rng.random() < 0.5 else (-99, 99)
        f, g = _rand_formal(rng, lo, hi), _rand_formal(rng, lo, hi)
        for a, b in ((f, g), (g, f)):
            got = kernels.resultant_int(a, b)
            # a float or a Fraction here would fail the type check
            assert type(got) is int, (a, b)
            assert got == _sylvester_det(a, b), (a, b)


def test_resultant_int_formal_degree_drops():
    # Res_{2,1}(x + 2, x - 3) with f_2 = 0: (-1)^1 * 1 * Res_{1,1}
    assert kernels.resultant_int([2, 1, 0], [-3, 1]) == 5
    # Res_{1,2}(x + 2, x - 3) with g_2 = 0: 1 * Res_{1,1}
    assert kernels.resultant_int([2, 1], [-3, 1, 0]) == -5
    assert kernels.resultant_int([2, 1, 0], [-3, 1, 0]) == 0
    assert kernels.resultant_int([0, 0], [5, 3]) == 0
    assert kernels.resultant_int([7], [5, 3, 1]) == 49
    assert kernels.resultant_int([4, 0, 1], [3]) == 9
    assert kernels.resultant_int([0], [0]) == 1
    # both constant coefficients 0: the last column is zero
    assert kernels.resultant_int([0, 1, 3], [0, 2]) == 0
    assert kernels.resultant_int([0, 1, 0], [0, 2, 5]) == 0


def test_resultant_int_planted_common_factor(rng):
    for _ in range(300):
        h = _rand_formal(rng)
        h = h[:-1] + [h[-1] or 1]
        if len(h) == 1:
            h.append(rng.choice((-1, 1)))
        f = _convolve(h, _rand_formal(rng))
        g = _convolve(h, _rand_formal(rng))
        assert kernels.resultant_int(f, g) == 0, (f, g)


@pytest.mark.parametrize("f,g", [
    ([1, 0, 0, 0, 1], [0, 0, 0, 1]),           # degrees 4, 3, 0
    ([3, 0, 2, 0, 0, 0, 1], [1, 0, 0, 0, 1]),  # 6, 4, 2, 0
    ([5, 0, 2, 0, 0, 0, 3], [7, 0, 0, 0, 2]),  # 6, 4, 2, 0
    ([1, 2, 0, 0, 0, 0, 0, 3], [1, 0, 0, 0, 0, 2]),  # 7, 5, 2, 1, 0
    ([-2, 1, 0, 0, 0, 0, 0, 0, 1], [1, 3, 0, 0, 0, 0, 1]),  # 8, 6, 3, 2, 1, 0
    # (x^2 + 1)(x^4 + 3) and (x^2 + 1)x^2: 6, 4, 2, then remainder 0
    ([3, 0, 3, 0, 1, 0, 1], [0, 0, 1, 0, 1]),
])
def test_resultant_int_abnormal_prs(f, g):
    # the remainder sequence skips a degree after the first step
    # (delta >= 2), where the PRS divides by h^(delta-1)
    degrees = _remainder_degrees(f, g)
    assert any(x - y >= 2 for x, y in zip(degrees[1:], degrees[2:])), degrees
    for a, b in ((f, g), (g, f)):
        assert kernels.resultant_int(a, b) == _sylvester_det(a, b), (a, b)
    assert (kernels.resultant_int(f, g) == 0) == (degrees[-1] > 0)


def test_resultant_int_is_multiplicative(rng):
    for _ in range(300):
        f1, f2, g = (_rand_formal(rng) for _ in range(3))
        assert kernels.resultant_int(_convolve(f1, f2), g) == \
            kernels.resultant_int(f1, g) * kernels.resultant_int(f2, g)
