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
