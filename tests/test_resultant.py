"""Elimination engine: Sylvester and Bezout-type matrices, Bareiss
determinants, resultants on both paths, integer interpolation, and
subresultant gcd."""

import importlib
import random

import pytest
from conftest import (BIVARIATE_SHAPES, SHAPES, cofactor_det, rand_nonzero,
                      rand_poly, rand_shaped_pair)

from resverify import kernels
from resverify.catalog import build_core, manifest
from resverify.checks import APPC_DEFAULT_SAMPLES
from resverify.poly import MultiPoly, horner, int_coeffs, variables
from resverify.ratio import Rat
from resverify.resultant import (_MINOR_DET_MAX, BothConstant, ZeroInput,
                                 _bezout_rows, _minor_det,
                                 _newton_interpolate, _newton_range,
                                 _sylvester_rows,
                                 bareiss_det, gcd_subresultant, resultant,
                                 resultant_at, resultant_interp,
                                 resultant_top, sylvester)
from resverify.parser import parse
from resverify.sweep import _pq_divisor, run_case

V = variables()
F, K, Z, M, C = V["f"], V["k"], V["z"], V["m"], V["c"]


def _uni(rng, name="k", max_deg=4):
    while True:
        p = rand_poly(rng, names=(name,), max_terms=4, max_deg=max_deg)
        if p.degree(name) >= 1:
            return p


class TestSylvester:
    def test_two_linear(self):
        mat = sylvester(K - 2, K - 5, "k")
        assert len(mat) == 2
        assert [[e.constant_value() for e in row] for row in mat] \
            == [[1, -2], [1, -5]]

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            sylvester(MultiPoly.zero(), K, "k")

    def test_both_constant(self):
        with pytest.raises(BothConstant):
            sylvester(F, F + 1, "k")

    def test_entries_are_v_free(self, rng):
        a, b = _uni(rng), _uni(rng)
        mat = sylvester(a, b, "k")
        assert all("k" not in e.vars_used() for row in mat for e in row)

    def test_dimension_sweep_pair(self):
        core = build_core((7, 4, 1))
        mat = sylvester(core.H, core.K, "k")
        # the degree-9/degree-12 upper summation bounds of the two sweep
        # displays are not attained (the top coefficients vanish), so
        # the true dimension is 8 + 11
        assert len(mat) == 19

    def test_dimension_reduced_pair(self):
        core = build_core((5, 3, 1))
        mat = sylvester(core.new_h, core.new_k, "f")
        assert len(mat) == 14

    def test_rows_carry_shifted_coefficients(self):
        mat = sylvester(K ** 2 + 3 * K + 5, K - 1, "k")
        vals = [[e.constant_value() for e in row] for row in mat]
        assert vals == [[1, 3, 5], [1, -1, 0], [0, 1, -1]]


class TestBezout:
    def test_determinant_is_the_sylvester_determinant(self, rng):
        # sign included, also where a formal leading coefficient is 0
        for _ in range(1500):
            m = rng.randint(1, 9)
            n = rng.randint(1, m)
            f = [rng.randint(-9, 9) for _ in range(m + 1)]
            g = [rng.randint(-9, 9) for _ in range(n + 1)]
            if rng.random() < 0.2:
                f[-1] = 0
            if rng.random() < 0.2:
                g[-1] = 0
            rows = _bezout_rows(f, g, 0)
            assert len(rows) == m and all(len(row) == m for row in rows)
            assert kernels.bareiss_det_int(rows) == \
                kernels.bareiss_det_int(_sylvester_rows(f, g, 0)), (f, g)

    def test_rows(self):
        # f = x^3 + 2x^2 + 3x + 4, g = 5x^2 + 6x + 7: the row g, then
        # B_1 = 1*x*g - 5*f and B_2 = (x + 2)*x*g - (5x + 6)*f
        rows = _bezout_rows([4, 3, 2, 1], [7, 6, 5], 0)
        assert rows == [[7, 6, 5], [-20, -8, -4], [-24, -24, -8]]

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_symbolic_resultant_is_the_sylvester_determinant(self, rng, shape):
        for _ in range(10):
            a, b = rand_shaped_pair(rng, shape)
            assert resultant(a, b, "k") == bareiss_det(sylvester(a, b, "k"))
            assert resultant(b, a, "k") == bareiss_det(sylvester(b, a, "k"))


class TestNewton:
    def test_integer_coefficients_from_integer_samples(self, rng):
        for _ in range(200):
            coeffs = [rng.randint(-10 ** 6, 10 ** 6)
                      for _ in range(rng.randint(1, 12))]
            step = rng.choice((1, 2, 3))
            xs = [t ** step for t in range(1, len(coeffs) + 1)]
            got = _newton_interpolate(xs, [horner(coeffs, x) for x in xs])
            # a float or a Fraction here would fail the type check
            assert all(type(co) is int for co in got)
            assert got == coeffs

    @pytest.mark.parametrize("xs,ys", [((1, 3), (0, 1)),
                                       ((1, 2, 4), (0, 0, 3))])
    def test_no_integer_polynomial_fits(self, xs, ys):
        with pytest.raises(ArithmeticError):
            _newton_interpolate(list(xs), list(ys))


class TestBareiss:
    def test_diagonal(self):
        rows = [[F, MultiPoly.zero()], [MultiPoly.zero(), K]]
        assert bareiss_det(rows) == F * K

    def test_row_swap_sign(self, rng):
        rows = [[rand_poly(rng) for _ in range(3)] for _ in range(3)]
        swapped = [rows[1], rows[0], rows[2]]
        assert bareiss_det(swapped) == -bareiss_det(rows)

    def test_against_cofactor_oracle(self, rng):
        for _ in range(25):
            rows = [[rand_poly(rng, max_terms=2, max_deg=2) for _ in range(4)]
                    for _ in range(4)]
            assert bareiss_det(rows) == cofactor_det(rows)

    def test_singular(self):
        rows = [[F, K], [F, K]]
        assert bareiss_det(rows).is_zero()


class TestMinorDet:
    def test_against_bareiss_and_cofactor_oracle(self, rng):
        # sizes 0..5 with zero entries; every third matrix repeats a row,
        # every third has a zero column
        for n in range(6):
            for trial in range(12):
                rows = [[rand_poly(rng, names=("f", "k", "m"), max_terms=2,
                                   max_deg=2) for _ in range(n)]
                        for _ in range(n)]
                singular = n > 1 and trial % 3 > 0
                if singular and trial % 3 == 1:
                    rows[-1] = list(rows[rng.randrange(n - 1)])
                if singular and trial % 3 == 2:
                    col = rng.randrange(n)
                    for row in rows:
                        row[col] = MultiPoly.zero()
                got = _minor_det(rows)
                assert got == bareiss_det(rows), rows
                assert got == (cofactor_det(rows) if n else 1), rows
                assert not singular or got.is_zero(), rows

    def test_row_order_sign(self):
        # the permutation matrices of (1 2 0) and (0 2 1): signs +1, -1
        one, zero = MultiPoly.const(1), MultiPoly.zero()
        assert _minor_det([[zero, one, zero], [zero, zero, one],
                           [one, zero, zero]]) == 1
        assert _minor_det([[one, zero, zero], [zero, zero, one],
                           [zero, one, zero]]) == -1

    def test_empty_matrix_is_one(self):
        assert _minor_det([]) == 1

    @pytest.mark.parametrize("rows", [[[F, K]], [[F], [K]], [[F, K], [K]]])
    def test_not_square_refused(self, rows):
        with pytest.raises(ValueError, match="not square"):
            _minor_det(rows)


class TestResultant:
    def test_linear_example(self):
        assert resultant(K - 2, K - 5, "k") == MultiPoly.const(-3)

    def test_common_root(self):
        assert resultant(K ** 2 - 1, K - 1, "k").is_zero()

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            resultant(MultiPoly.zero(), K, "k")

    def test_constant_cases(self):
        assert resultant(MultiPoly.const(3), K ** 2 + 1, "k") == 9
        assert resultant(F, F + 1, "k") == MultiPoly.const(1)

    def test_rational_content_bookkeeping(self):
        # resultant of (a*A, b*B) scales by a^degB * b^degA
        a = (K ** 2 + K + 1) * Rat(3, 4)
        b = (K - 7) * Rat(2, 5)
        base = resultant(K ** 2 + K + 1, K - 7, "k").constant_value()
        got = resultant(a, b, "k").constant_value()
        assert got == base * Rat(3, 4) ** 1 * Rat(2, 5) ** 2

    def test_antisymmetry_randomized(self, rng):
        for _ in range(500):
            a, b = _uni(rng), _uni(rng)
            da, db = a.degree("k"), b.degree("k")
            lhs = resultant(a, b, "k")
            rhs = resultant(b, a, "k")
            assert lhs == rhs * (-1) ** (da * db)

    def test_multiplicativity_randomized(self, rng):
        for _ in range(500):
            a, b, c = _uni(rng, max_deg=3), _uni(rng, max_deg=2), _uni(rng, max_deg=2)
            assert resultant(a, b * c, "k") == \
                resultant(a, b, "k") * resultant(a, c, "k")

    def test_planted_common_root_randomized(self, rng):
        for _ in range(500):
            x0 = rng.randint(-6, 6)
            a = (K - x0) * _uni(rng, max_deg=2)
            b = (K - x0) * _uni(rng, max_deg=2)
            assert resultant(a, b, "k").is_zero()

    def test_coprime_construction_randomized(self, rng):
        for _ in range(500):
            roots_a = rng.sample(range(-20, 21), 3)
            roots_b = [x for x in rng.sample(range(-20, 21), 5)
                       if x not in roots_a][:2]
            if not roots_b:
                continue
            a = MultiPoly.const(rng.choice((1, 2, 3)))
            for x in roots_a:
                a = a * (K - x)
            b = MultiPoly.const(rng.choice((1, 2)))
            for x in roots_b:
                b = b * (K - x)
            assert not resultant(a, b, "k").is_zero()

    def test_multivariate_common_factor(self):
        common = F * K + 1
        res = resultant(common * (K + F), common * (K - F), "k")
        assert res.is_zero()

    def test_one_determinant_route(self, monkeypatch):
        # constant and symbolic coefficients alike take the MultiPoly
        # determinant of the Bezout rows; the integer determinant kernel
        # is never called
        def refuse(rows):
            raise AssertionError("resultant() called kernels.bareiss_det_int")

        monkeypatch.setattr(kernels, "bareiss_det_int", refuse)
        assert resultant(K - 2, K - 5, "k") == MultiPoly.const(-3)
        # 2^3 * ((-3/2)^3 - 1)
        assert resultant(2 * K + 3, K ** 3 - 1, "k") == MultiPoly.const(-35)
        man = manifest()
        res = resultant(man["P"], man["Q"], "k")
        assert res.coefficient("f", 3) * 4096 == man["coefF3"]


def _in_k(rng, degree):
    """A polynomial of k-degree exactly degree whose k-coefficients are
    sparse polynomials in (f, m), with a random rational content."""
    acc = MultiPoly.zero()
    for i in range(degree, -1, -1):
        draw = rand_nonzero if i == degree else rand_poly
        acc = acc * K + draw(rng, names=("f", "m"), max_terms=2, max_deg=2)
    return acc * Rat(rng.choice((1, -2, 3)), rng.choice((1, 4)))


class TestTruncatedResultant:
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    def test_equals_the_cut_resultant(self, rng, det_routes, rows):
        # 5 Bezout rows take Bareiss, 1 to 4 the truncated minors
        for trial in range(6):
            other = rng.randint(0, rows)
            da, db = (rows, other) if trial % 2 else (other, rows)
            a, b = _in_k(rng, da), _in_k(rng, db)
            full = resultant(a, b, "k")
            for name in ("f", "m"):
                for n in (-1, 0, 1, 2, 4):
                    got = resultant(a, b, "k", truncate=(name, n))
                    assert got == full.truncate(name, n), (a, b, name, n)
        assert set(det_routes["bareiss"]) == ({5} if rows == 5 else set())

    def test_minor_det_cut(self, rng):
        for n in range(5):
            for _ in range(8):
                rows = [[rand_poly(rng, names=("f", "k", "m"), max_terms=3,
                                   max_deg=3) for _ in range(n)]
                        for _ in range(n)]
                for cut in (-1, 0, 2, 5):
                    assert (_minor_det(rows, ("f", cut))
                            == _minor_det(rows).truncate("f", cut)), rows

    def test_formal_degree_zero(self):
        assert resultant(F + 3, F * K + 2, "k", truncate=("f", 0)) == 3
        assert resultant(F + 3, F * K + 2, "k", truncate=("f", -1)).is_zero()
        assert resultant(F + 3, F + 1, "k", truncate=("f", 0)) == 1

    def test_pq_low_coefficients(self):
        man = manifest()
        full = resultant(man["P"], man["Q"], "k")
        for n in (3, 9):
            assert (resultant(man["P"], man["Q"], "k", truncate=("f", n))
                    == full.truncate("f", n))


@pytest.fixture
def det_routes(monkeypatch):
    """Spy on the two symbolic determinant routes: the size of every
    bareiss_det matrix, and the non-constant divisors of exact_div."""
    module = importlib.import_module("resverify.resultant")
    calls = {"bareiss": [], "divisors": []}
    bareiss, exact_div = module.bareiss_det, MultiPoly.exact_div

    def bareiss_spy(rows):
        calls["bareiss"].append(len(rows))
        return bareiss(rows)

    def exact_div_spy(self, b):
        if not b.is_constant():
            calls["divisors"].append(b)
        return exact_div(self, b)

    monkeypatch.setattr(module, "bareiss_det", bareiss_spy)
    monkeypatch.setattr(MultiPoly, "exact_div", exact_div_spy)
    return calls


def test_pq_resultant_is_division_free(det_routes):
    # the 3 Bezout rows of P and Q are expanded by minors: no Bareiss
    # elimination and no division by a polynomial
    man = manifest()
    res = resultant(man["P"], man["Q"], "k")
    assert res.coefficient("f", 3) * 4096 == man["coefF3"]
    assert det_routes == {"bareiss": [], "divisors": []}


def test_minor_route_up_to_four_rows(rng, det_routes):
    # k-degrees 3 and 4: the largest matrix expanded by minors
    a, b = rand_shaped_pair(rng, "mrcf")
    want = bareiss_det(sylvester(a, b, "k"))
    del det_routes["bareiss"][:], det_routes["divisors"][:]
    assert resultant(a, b, "k") == want
    assert det_routes == {"bareiss": [], "divisors": []}


def test_bareiss_route_above_four_rows(rng, det_routes):
    assert _MINOR_DET_MAX == 4
    a = rand_nonzero(rng, names=("f",)) * K ** 5 + F * K + 1
    b = K ** 2 - F
    want = bareiss_det(sylvester(a, b, "k"))
    del det_routes["bareiss"][:]
    assert resultant(a, b, "k") == want
    assert resultant(b, a, "k") == want  # times (-1)^(5*2)
    assert det_routes["bareiss"] == [5, 5]


def test_symbolic_routines_run_on_int(monkeypatch):
    # the symbolic resultant of res-pq and the conic gcd of special-case
    # multiply integer coefficients only: no Fraction reaches the kernel
    man = manifest()
    core = build_core((7, 4, None))
    seen = set()
    real = kernels.mul_dicts

    def spy(a, b, guard):
        seen.update(type(co) for co in a.values())
        seen.update(type(co) for co in b.values())
        return real(a, b, guard)

    monkeypatch.setattr(kernels, "mul_dicts", spy)
    resultant(man["P"], man["Q"], "k")
    gcd_subresultant(core.H, core.K, "k")
    assert seen == {int}


class TestInterpPath:
    def test_agreement_randomized(self, rng):
        checked = 0
        while checked < 500:
            a = rand_poly(rng, names=("k", "f"), max_terms=4, max_deg=4)
            b = rand_poly(rng, names=("k", "f"), max_terms=4, max_deg=4)
            if a.degree("k") < 1 or b.degree("k") < 1:
                continue
            want = resultant(a, b, "k")
            got = resultant_interp(a, b, "k", "f")
            assert got == want
            checked += 1

    def test_rejects_extra_variables(self):
        with pytest.raises(ValueError):
            resultant_interp(K + M, K + F, "k", "f")

    def test_rejects_the_variable_as_spectator(self):
        # Res_k(k^2 + 1, k - 3) = 10, not a polynomial in a spectator k
        with pytest.raises(ValueError):
            resultant_interp(K ** 2 + 1, K - 3, "k", "k")

    def test_agreement_on_sweep_pair(self):
        # the two paths cross-validate on production data, including a
        # zero-resultant case
        for params, is_zero in (((5, 3, 1), False), ((7, 4, -1), True)):
            core = build_core(params)
            via_interp = resultant_interp(core.H, core.K, "k", "f")
            via_bareiss = resultant(core.H, core.K, "k")
            assert via_interp == via_bareiss
            assert via_interp.is_zero() == is_zero

    def test_even_pair_resultant_is_a_square(self, rng):
        # Res_f(A(f^2), B(f^2)) = Res_f(A, B)^2: each pair of roots a, b
        # of A, B gives four differences of +-sqrt(a), +-sqrt(b), whose
        # product is (a - b)^2
        for _ in range(60):
            a, b = (rand_nonzero(rng, names=("f", "k")) for _ in range(2))
            even_a, even_b = (horner(p.coefficients_in("f"), F ** 2)
                              for p in (a, b))
            assert (resultant(even_a, even_b, "f")
                    == resultant(a, b, "f") ** 2), (a, b)

    @pytest.mark.parametrize("params", [(4, 2, 1), (5, 3, 1), (8, 5, -1)])
    def test_reduced_pair_is_the_square_of_its_u_pair(self, params):
        # the z-pairs are even in f; with u = f^2, the elimination in f
        # is the square of the elimination in u (m = 2r-1 at (5, 3, 1))
        core = build_core(params)
        halves = [p.halve_exponents("f") for p in (core.new_h, core.new_k)]
        res_u = resultant(*halves, "f")
        assert resultant_interp(*halves, "f", "z") == res_u
        assert (resultant_interp(core.new_h, core.new_k, "f", "z")
                == res_u ** 2)

    def test_reduced_pair_z_degree(self):
        # the raw eliminations have twice the degree of their square
        # roots: 80 generically, 78 on the m = 2r-1 family
        core = build_core((5, 3, 1))
        res = resultant_interp(core.new_h, core.new_k, "f", "z")
        assert res.degree("z") == 78
        core = build_core((9, 5, 1))
        res = resultant_interp(core.new_h, core.new_k, "f", "z")
        assert res.degree("z") == 78
        core = build_core((4, 2, 1))
        res = resultant_interp(core.new_h, core.new_k, "f", "z")
        assert res.degree("z") == 80


def _recording(monkeypatch, record):
    calls = []
    inner = kernels.resultant_int

    def wrapper(f, g):
        calls.append(record(f, g))
        return inner(f, g)

    monkeypatch.setattr(kernels, "resultant_int", wrapper)
    return calls


@pytest.fixture
def det_calls(monkeypatch):
    """Records the formal degrees of each integer resultant
    (interpolation sample) taken."""
    return _recording(monkeypatch, lambda f, g: (len(f) - 1, len(g) - 1))


@pytest.fixture
def samples(monkeypatch):
    """Records the two coefficient lists of each integer resultant
    (interpolation sample) taken."""
    return _recording(monkeypatch, lambda f, g: (list(f), list(g)))


def _columns(p, var="k", spectator="f"):
    """The ascending spectator coefficient lists of p's primitive part's
    coefficients in var: the columns resultant_interp bounds."""
    prim = p.primitive()[1]
    return [int_coeffs(ce, spectator) for ce in prim.coefficients_in(var)]


def _exponents(p, spectator="f"):
    return [e for e, co in enumerate(p.coefficients_in(spectator))
            if not co.is_zero()]


# dehomogenised, a formal leading coefficient vanishes at the first
# node, w = 1
VANISHING_PAIRS = [
    ((F - 1) * (F - 2) * K ** 2 + F * K + 1, (F - 1) * K + F ** 2),
    ((F - 1) * K ** 3 + (F - 3) * K + F ** 2 - 2,
     (F - 2) * (F - 1) * K ** 2 + 5),
    ((F - 1) * K ** 3 + F * K + F ** 2, (F - 2) * K ** 2 + (F - 1) * K + 3),
    ((F - 1) * (F - 2) * K ** 4 + K ** 2 - F, (F - 1) * K + F ** 3),
]


def _content(rng) -> Rat:
    return Rat(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


class TestFormalDegreeZero:
    """An input free of the variable takes the general routes of both
    resultants and of the gcd: no branch of its own."""

    def test_powers_and_unit_gcd_randomized(self, rng):
        for _ in range(300):
            a = rand_nonzero(rng, names=("f",)) * _content(rng)
            b = rand_nonzero(rng, names=("k", "f")) * _content(rng)
            if rng.random() < 0.5:
                a, b = b, a
            da, db = a.degree("k"), b.degree("k")
            want = a ** db if da == 0 else b ** da
            assert resultant(a, b, "k") == want
            assert resultant_interp(a, b, "k", "f") == want
            assert gcd_subresultant(a, b, "k") == 1

    def test_interp_never_calls_resultant(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("resultant_interp called resultant()")

        module = importlib.import_module("resverify.resultant")
        monkeypatch.setattr(module, "resultant", refuse)
        a, b = (F + 1) * Rat(2, 3), K ** 2 - F
        assert module.resultant_interp(a, b, "k", "f") == a ** 2
        assert module.resultant_interp(b, a, "k", "f") == a ** 2
        assert module.resultant_interp(a, F - 2, "k", "f") == 1


class TestSampleBound:
    @pytest.mark.parametrize("shape", [*BIVARIATE_SHAPES, "planted"])
    def test_shapes_match_symbolic_bareiss(self, rng, det_calls, shape):
        for _ in range(25):
            a, b = rand_shaped_pair(rng, shape)
            del det_calls[:]
            got = resultant_interp(a, b, "k", "f")
            assert got == resultant(a, b, "k"), (a, b)
            if shape == "planted":
                assert got.is_zero()
            if shape == "homogeneous":
                # Res = R * f^top: one sample and the guard
                assert len(det_calls) <= 2

    @pytest.mark.parametrize("a,b", VANISHING_PAIRS)
    def test_vanishing_leading_coefficients(self, samples, a, b):
        # a formal leading coefficient vanishes at the first node, w = 1,
        # where the resultant of the formal degrees still gives Res, in
        # either argument order (the kernel swaps them when da < db)
        want = bareiss_det(sylvester(a, b, "k"))
        sign = (-1) ** (a.degree("k") * b.degree("k"))
        for x, y, value in ((a, b, want), (b, a, want * sign)):
            del samples[:]
            assert resultant_interp(x, y, "k", "f") == value
            assert len(samples) >= 3
            f, g = samples[0]
            assert not f[-1] or not g[-1]

    @pytest.mark.parametrize("a,b", [
        # step 1: the coefficient of y^2 in the dehomogenised a is 1 + w
        ((F + 1) * K ** 2 + F ** 3 + F, F * K + F ** 2 + 1),
        # the same for b: its y-leading coefficient is 1 + w
        (K ** 3 + F ** 3 + F, (F + 1) * K + F ** 2),
        # step 2: a's y^2 coefficient is 1 + w
        ((F ** 2 + 1) * K ** 2 + F ** 4 + 3, F * K + 2 * F ** 2 - 5),
    ])
    def test_vanishing_dehomogenised_leading_coefficients(self, samples, a, b):
        # the node w = -1 makes a formal leading coefficient vanish; the
        # kernel's formal-degree resultant still gives Res(w), in either
        # argument order
        want = bareiss_det(sylvester(a, b, "k"))
        sign = (-1) ** (a.degree("k") * b.degree("k"))
        assert resultant_interp(a, b, "k", "f") == want
        assert any(not f[-1] or not g[-1] for f, g in samples)
        del samples[:]
        assert resultant_interp(b, a, "k", "f") == want * sign
        assert any(not f[-1] or not g[-1] for f, g in samples)

    @pytest.mark.parametrize("a,b", [
        (K ** 4 + F * K + 1, K ** 3 + F * K ** 2 + 3 * K),
        (K ** 4 - 3 * F * K + 2, K ** 2 + 5),
    ])
    def test_even_step_samples_in_w(self, det_calls, a, b):
        # step 2: Res holds f-exponents of one parity only, which
        # w = f^-2 maps to consecutive powers, one sample each
        assert resultant_interp(a, b, "k", "f") == resultant(a, b, "k")
        assert len(det_calls) >= 3

    @pytest.mark.parametrize("shape",
                             [*BIVARIATE_SHAPES, "planted", "vanishing"])
    def test_matching_bounds_bracket_the_resultant(self, rng, shape):
        # the Newton-polygon bound: lo <= ord_f Res <= deg_f Res <= hi,
        # None only where Res is identically zero
        pairs = (VANISHING_PAIRS if shape == "vanishing"
                 else [rand_shaped_pair(rng, shape) for _ in range(25)])
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                span = _newton_range(_columns(x), _columns(y))
                res = resultant(x, y, "k")
                if span is None:
                    assert res.is_zero(), (x, y)
                    continue
                lo, hi = span
                assert lo <= hi
                if not res.is_zero():
                    exps = _exponents(res)
                    assert lo <= exps[0] and exps[-1] <= hi, (x, y, span)

    @pytest.mark.parametrize("a,b,span", [
        # roots +-f^(3/2) against f: 2*max(3/2, 1) = 3, 2*min = 2
        (K ** 2 - F ** 3, K - F, (2, 3)),
        # +-f^(3/2) against +-f^(5/2): Res = (f^3 - f^5)^2
        (K ** 2 - F ** 3, K ** 2 - F ** 5, (6, 10)),
        # three roots of degree 1/3 against +-f^(3/2): Res = f^2 - f^9
        (K ** 3 - F, K ** 2 - F ** 3, (2, 9)),
        # the root k = 0 (degree -infinity, order +infinity) and
        # +-i*f^(1/2) against +-f^(3/2): Res = -(f^9 + 2f^7 + f^5)
        (K ** 3 + F * K, K ** 2 - F ** 3, (5, 9)),
        # leading coefficients f and f^2, roots +-f^(1/2) and +-f^-1:
        # 2 + 4 + 4*max(1/2, -1) = 8 and 2 + 4 + 4*min(1/2, -1) = 2
        (F * K ** 2 - F ** 2, F ** 2 * K ** 2 - 1, (2, 8)),
    ])
    def test_fractional_root_degrees(self, a, b, span):
        # the hull slopes are fractions; summed over the root pairs they
        # give the exact exponent range of Res, which rounding each root
        # degree to an integer would miss
        res = resultant(a, b, "k")
        exps = _exponents(res)
        assert (exps[0], exps[-1]) == span
        assert _newton_range(_columns(a), _columns(b)) == span
        assert _newton_range(_columns(b), _columns(a)) == span
        assert resultant_interp(a, b, "k", "f") == res

    def test_sweep_spans(self):
        # f-exponents 25..107 at c = +-1 (42 coefficients in steps of 2),
        # only 107 at c = 0; in f a structural zero (f divides H and K)
        for cc, span in ((1, (25, 107)), (-1, (25, 107)), (0, (107, 107))):
            core = build_core((15, 8, cc))
            assert _newton_range(_columns(core.H), _columns(core.K)) == span
        core = build_core((15, 8, 1))
        assert _newton_range(_columns(core.H, "f", "k"),
                             _columns(core.K, "f", "k")) is None

    @pytest.mark.parametrize("cc", [1, -1])
    def test_sweep_samples_are_small(self, samples, cc):
        # dehomogenised in w of degree <= 4, at nodes +-1, +-2, ..., each
        # sample input fits in 96 bits (143 bits at f = 1..43); the
        # divisor S^4 leaves 30 coefficients and the guard
        run_case(15, 8, cc, "k")
        assert len(samples) == 31
        assert max(abs(x).bit_length()
                   for f, g in samples for x in f + g) <= 96

    def test_structural_zero_takes_only_the_guard(self, rng, det_calls):
        # k divides both inputs: both constant columns vanish, so the
        # Sylvester matrix's last column is empty, det = 0, and one guard
        # sample confirms it
        pairs = [(K ** 2 * F, K * F)]
        pairs += [tuple(K * p for p in rand_shaped_pair(rng, shape))
                  for shape in (*BIVARIATE_SHAPES, "planted")
                  for _ in range(5)]
        for a, b in pairs:
            del det_calls[:]
            assert resultant_interp(a, b, "k", "f").is_zero()
            assert len(det_calls) == 1

    @pytest.mark.parametrize("var,spectator", [("k", "f"), ("f", "k")])
    @pytest.mark.parametrize("params", [(9, 5, -1), (7, 4, 1), (15, 8, 0)])
    def test_sweep_pair_off_the_sample_grid(self, params, var, spectator):
        core = build_core(params)
        res = resultant_interp(core.H, core.K, var, spectator)
        for t0 in (1000, -7):
            h0 = core.H.substitute(spectator, t0)
            k0 = core.K.substitute(spectator, t0)
            # the specialisation keeps both var-degrees, so it commutes
            # with the resultant
            assert h0.degree(var) == core.H.degree(var)
            assert k0.degree(var) == core.K.degree(var)
            assert res.substitute(spectator, t0) == resultant(h0, k0, var)

    def test_sweep_case_sample_counts(self, det_calls):
        # the bound gives f-exponents 25..107 in steps of 2 at c = +-1
        # (42 coefficients), less the 12 of the divisor S^4 in w: 30
        # coefficients and the guard; only f^107 at c = 0.  Each sample
        # has the formal degrees of H and K: 8 and 11 in k, 9 and 12
        # in f
        run_case(15, 8, 0, "k")
        assert det_calls == [(8, 11)] * 2
        del det_calls[:]
        run_case(15, 8, 1, "k")
        assert det_calls == [(8, 11)] * 31
        # f divides H and K: a structural zero, the guard sample alone
        for params in ((15, 8, 1), (4, 2, 0), (7, 4, -1)):
            del det_calls[:]
            assert run_case(*params, "f").zero
            assert det_calls == [(9, 12)]

    @pytest.mark.parametrize("cc", [1, -1])
    def test_conic_zero_is_sampled(self, det_calls, cc):
        # the (7,4) zero in k comes from the common conic factor, not from
        # the shape of the Sylvester matrix, so the full range is sampled,
        # less the degree of the divisor S^4
        assert run_case(7, 4, cc, "k").zero
        assert len(det_calls) == 31


def _divisor_cases() -> list[tuple[int, int, int]]:
    """Eight sweep cases of m <= 30, drawn with a fixed seed, and the
    (7,4) zeros, a c = 0 case and two at m = 30."""
    draw = random.Random(2027)
    cases = {(7, 4, 1), (7, 4, -1), (11, 6, 0), (30, 17, 1), (30, 2, -1)}
    while len(cases) < 13:
        mm = draw.randint(4, 30)
        cases.add((mm, draw.randint(2, mm - 1), draw.choice((-1, 1))))
    return sorted(cases)


class TestDivisor:
    """resultant_interp(..., divisor=D) interpolates Res / D and returns
    D times it: the same resultant from fewer samples."""

    @pytest.mark.parametrize("params", _divisor_cases())
    def test_sweep_divisor_keeps_the_resultant(self, params):
        core = build_core(params)
        divisor = _pq_divisor(*params)
        plain = resultant_interp(core.H, core.K, "k", "f")
        assert resultant_interp(core.H, core.K, "k", "f",
                                divisor=divisor) == plain
        # S^4 divides the resultant of the plain route: the theorem of
        # `sweep._pq_divisor`, checked without it
        plain.exact_div(divisor)
        assert plain.is_zero() == (params[:2] == (7, 4))
        if params[2] == 0:  # P and Q are binary cubic forms
            assert divisor.is_constant()
        else:
            assert divisor.degree("f") == 24

    def test_leading_coefficients_of_the_proof(self):
        # lc_k(Hgen) and lc_k(P), nonzero off f = 0 for m >= 4, r >= 2
        man = manifest()
        hgen, p = man["Hgen"], man["P"]
        assert (hgen.degree("k"), p.degree("k")) == (8, 3)
        assert hgen.coefficient("k", 8) == parse(
            "12*f*m*(2*m + 7)^2*(r - 1)^5*(m^2 - 5*m + 7)")
        assert p.coefficient("k", 3) == parse("-2*(r - 1)^2*(2*m + 7)")

    def test_non_divisor_raises(self):
        core = build_core((9, 3, -1))
        with pytest.raises(ArithmeticError):
            resultant_interp(core.H, core.K, "k", "f", divisor=F ** 2 + 3)

    @pytest.mark.parametrize("divisor", [F + K, C * F, F ** 2 + F,
                                         MultiPoly.zero()],
                             ids=["var", "spectator-free-var", "odd", "zero"])
    def test_bad_divisor_raises(self, divisor):
        # the sweep pair has step 2: its f-exponents share one parity
        core = build_core((9, 3, -1))
        with pytest.raises(ValueError, match="divisor"):
            resultant_interp(core.H, core.K, "k", "f", divisor=divisor)

    def test_unit_divisor_takes_the_plain_samples(self, samples):
        core = build_core((12, 5, 1))
        plain = resultant_interp(core.H, core.K, "k", "f")
        taken = list(samples)
        del samples[:]
        assert resultant_interp(core.H, core.K, "k", "f",
                                divisor=MultiPoly.const(1)) == plain
        assert samples == taken

    @pytest.mark.parametrize("divisor", [F - 1, F + 1, (F - 1) * (F + 1),
                                         (F - 1) * Rat(2, 3)])
    def test_roots_of_the_divisor_are_skipped(self, det_calls, divisor):
        # Res_k(a, k) = a(0) = (f - 1)(f + 1)(f + 2), 4 coefficients; in
        # w = 1/f the divisor vanishes at the node 1 or -1, where the
        # division would be by zero, so that node is passed over
        a = K ** 2 + (F - 1) * (F + 1) * (F + 2)
        res = resultant(a, K, "k")
        assert resultant_interp(a, K, "k", "f", divisor=divisor) == res
        assert len(det_calls) == 4 - divisor.degree("f") + 1


class TestResultantAt:
    """resultant_at against the symbolic resultant evaluated at the
    point, also where a formal leading coefficient vanishes there."""

    @staticmethod
    def _want(a, b, point):
        return resultant(a, b, "k").at(point).constant_value()

    def test_agrees_with_the_symbolic_resultant(self, rng):
        vanishing = 0
        for _ in range(200):
            a, b = (rand_nonzero(rng, names=("k", "f", "c"), max_terms=4,
                                 max_deg=2) * _content(rng) for _ in range(2))
            point = {"f": rng.randint(-2, 2), "c": rng.randint(-2, 2)}
            vanishing += any(
                p.coefficient("k", p.degree("k")).at(point).is_zero()
                for p in (a, b))
            assert resultant_at(a, b, "k", point) == self._want(a, b, point)
        assert vanishing > 20

    @pytest.mark.parametrize("a,b", VANISHING_PAIRS)
    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_vanishing_leading_coefficients(self, a, b, f):
        point = {"f": f}
        assert resultant_at(a, b, "k", point) == self._want(a, b, point)
        assert resultant_at(b, a, "k", point) == self._want(b, a, point)

    def test_special_case_pair_vanishes(self):
        core = build_core((7, 4, None))
        assert resultant_at(core.H, core.K, "k", {"f": 2, "c": 3}) == 0
        core = build_core((8, 4, None))
        assert resultant_at(core.H, core.K, "k", {"f": 2, "c": 3}) != 0

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            resultant_at(MultiPoly.zero(), K, "k", {})

    @pytest.mark.parametrize("point", [{}, {"f": 1, "k": 2}, {"f": Rat(1, 2)},
                                       {"f": 1.0}],
                             ids=["missing", "var", "rational", "float"])
    def test_rejects_a_bad_point(self, point):
        with pytest.raises(ValueError, match="must assign an int"):
            resultant_at(K - F, K + F, "k", point)


class TestResultantTop:
    """resultant_top against the full symbolic resultant, down to the
    constant coefficient, and against resultant_interp on the pairs of
    appendix-c-leading."""

    @staticmethod
    def _agrees(a, b, weight, lowest=0):
        res = resultant(a, b, "k")
        top, coeffs = resultant_top(a, b, "k", "f", weight, lowest)
        assert res.is_zero() or res.degree("f") <= top
        assert coeffs == [res.coefficient("f", top - e).constant_value()
                          for e in range(top - lowest + 1)], (a, b, weight)
        return top, coeffs

    @pytest.mark.parametrize("weight", [-1, 0, 1, 2])
    def test_agrees_with_the_symbolic_resultant(self, rng, weight):
        shorter = 0
        for _ in range(60):
            a, b = (rand_nonzero(rng, names=("k", "f"), max_terms=4,
                                 max_deg=3) * _content(rng) for _ in range(2))
            if a.degree("k") or b.degree("k"):
                self._agrees(a, b, weight)
                shorter += a.degree("k") < b.degree("k")
        assert shorter > 10

    # (a, b): the leading column of a^ vanishes at t = 0 at every
    # weight, and that of b^ at weights 0, 1 and 2 (alpha is taken in a
    # lower column); deg_k a < deg_k b; a of formal degree 0
    @pytest.mark.parametrize("a,b", [
        (K ** 2 + F ** 2 * K + 1, K + F),
        (K + F, K ** 3 + F * K + 2),
        (F ** 2 + 1, K ** 2 - F),
    ], ids=["vanishing-leading-column", "da<db", "formal-degree-0"])
    @pytest.mark.parametrize("weight", [-1, 0, 1, 2])
    def test_edge_pairs(self, a, b, weight):
        self._agrees(a, b, weight)
        self._agrees(b, a, weight)

    def test_bound_above_a_vanishing_leading_column(self):
        # weight 0: a^ = t^2*k^2 + k + t^2 and b^ = t*k + 1, so
        # top = 2*1 + 1*2 = 4; Res = a(-f) = -f^3 + f^2 + 1 stays below
        # it, as both leading columns vanish at t = 0
        top, coeffs = self._agrees(K ** 2 + F ** 2 * K + 1, K + F, 0)
        assert top == 4 and coeffs == [0, -1, 1, 0, 1]

    def test_more_rows_than_minor_det_max(self, rng):
        # resultant() takes Bareiss above _MINOR_DET_MAX rows, and
        # resultant_top one packed integer resultant at every size
        pairs = [(K ** 5 + F * K ** 3 - 2 * F ** 2 * K + 3, K ** 3 - F * K + F),
                 (K ** 6 - F, K ** 2 + F ** 2 * K - 1)]
        while len(pairs) < 8:
            a, b = (rand_nonzero(rng, names=("k", "f"), max_terms=5,
                                 max_deg=6) for _ in range(2))
            if max(a.degree("k"), b.degree("k")) > _MINOR_DET_MAX:
                pairs.append((a, b))
        for a, b in pairs:
            for weight in (-1, 0, 2):
                self._agrees(a, b, weight)
                self._agrees(b, a, weight)

    @pytest.mark.parametrize("a,b", [
        (F ** 2 + 1, 2 * F - 3),
        (F ** 2 + 1, K ** 3 - F * K + 2),
        (3 * F + 1, 2 * K ** 2 - F),
    ], ids=["both", "first", "first-with-content"])
    def test_formal_degree_zero_in_both_orders(self, a, b):
        for weight in (-1, 0, 1, 2):
            self._agrees(a, b, weight)
            self._agrees(b, a, weight)
        # two inputs free of k: the empty Bezout matrix, determinant 1
        assert resultant_top(F ** 2 + 1, 2 * F - 3, "k", "f", 0, 0) == (0, [1])

    def test_integral_coefficients_come_back_as_int(self):
        # content 3/4 of b: Res = (3/4)^2 * a(2f)*a(-2f)
        # = 27/4*f^4 + 36*f^2 + 36, integral but for one coefficient
        a = K ** 2 + F * K + 8
        b = Rat(3, 4) * (K ** 2 - 4 * F ** 2)
        top, coeffs = resultant_top(a, b, "k", "f", -1, 0)
        res = resultant(a, b, "k")
        assert coeffs == [res.coefficient("f", top - e).constant_value()
                          for e in range(top + 1)]
        assert coeffs == [Rat(27, 4), 0, 36, 0, 36]
        assert any(type(co) is int and co for co in coeffs)
        assert any(type(co) is Rat for co in coeffs)
        assert all(type(co) is int for co in coeffs if co.denominator == 1)

    @pytest.mark.parametrize("weight", [-1, 0, 2])
    def test_count_zero_reads_nothing(self, weight):
        # count = 0: lowest > top reads nothing, but top is still returned
        a, b = K ** 3 + F * K + 2, K ** 2 - F
        top, _ = self._agrees(a, b, weight)
        for lowest in (top + 1, top + 5):
            assert resultant_top(a, b, "k", "f", weight, lowest) == (top, [])

    # every coefficient is +-N: the coefficients read are negative, and
    # the last two pairs meet the digit bound norm_a^db * norm_b^da, as
    # each keeps one column per row mod t^count (a triangular matrix)
    @pytest.mark.parametrize("a,b,lowest,want", [
        ((K + 1) * (F + 1), (K - 1) * (F + 1), 0, [-2, -4, -2]),
        (K * F ** 2 + 1, K - F ** 2, 3, [-1, 0]),
        (-K ** 3 * F ** 3 + K ** 2 + K + 1,
         K ** 4 + K ** 3 + K ** 2 + K - F ** 3, 19, [-1, 0, 0]),
    ], ids=["degrees-1-1", "degrees-1-1-at-the-bound",
            "degrees-3-4-at-the-bound"])
    def test_negative_coefficients_near_the_digit_bound(self, a, b, lowest,
                                                        want):
        n = 2 ** 61 - 1
        a, b = n * a, n * b
        assert {abs(co) for p in (a, b) for _, co in p.terms()} == {n}
        _, coeffs = self._agrees(a, b, 0, lowest)
        power = a.degree("k") + b.degree("k")
        assert coeffs == [co * n ** power for co in want]

    def test_leading_columns_zero_mod_t_count(self):
        # weight 0: a^ = t^3*k^2 + k + 1 and b^ = t^2*k + 1, so top = 7;
        # Res = a(-f^2) = -f^5 + f^4 + f^3.  At count 2 both packed
        # leading columns are 0, at count 3 only that of a^
        a, b = K ** 2 + F ** 3 * K + F ** 3, K + F ** 2
        assert self._agrees(a, b, 0, 6) == (7, [0, 0])
        assert self._agrees(a, b, 0, 5) == (7, [0, 0, -1])
        assert self._agrees(b, a, 0, 5) == (7, [0, 0, -1])
        assert self._agrees(a, b, 0, 0) == (7, [0, 0, -1, 1, 1, 0, 0, 0])

    def test_one_integer_resultant_per_call(self, monkeypatch):
        # through the module attribute, so that a wrapper on kernels sees it
        calls = []
        inner = kernels.resultant_int

        def counting(f, g):
            calls.append((len(f), len(g)))
            return inner(f, g)

        monkeypatch.setattr(kernels, "resultant_int", counting)
        resultant_top(K ** 3 + F * K + 2, K ** 2 - F, "k", "f", 0, 0)
        assert calls == [(4, 3)]

    def test_rejects_extra_variables_and_the_variable_as_spectator(self):
        with pytest.raises(ValueError):
            resultant_top(K + M, K + F, "k", "f", 0, 0)
        with pytest.raises(ValueError):
            resultant_top(K ** 2 + 1, K - 3, "k", "k", 0, 0)

    def test_top_coefficients_of_the_appendix_pairs(self):
        # weight 2 and the bound 41 of check_appendix_c_leading, three
        # coefficients, against the full interpolated Res_u
        for params in APPC_DEFAULT_SAMPLES:
            core = build_core(params)
            halves = [p.halve_exponents("f") for p in (core.new_h, core.new_k)]
            res = resultant_interp(*halves, "f", "z")
            top, coeffs = resultant_top(*halves, "f", "z", 2, 39)
            assert top == 41, params
            assert coeffs == [res.coefficient("z", top - e).constant_value()
                              for e in range(3)], params

    def test_top_coefficients_of_sweep_pairs(self, rng):
        # the k-elimination of the sweep at weight -1: top = 107 and three
        # coefficients of about 1,000 bits, against the full interpolated
        # Res_k; at (7, 4, +-1) the resultant, so each of them, is 0
        cases = [(7, 4, 1), (7, 4, -1)]
        while len(cases) < 6:
            mm = rng.randint(4, 15)
            params = (mm, rng.randint(2, mm - 1), rng.choice((-1, 0, 1)))
            if params[:2] != (7, 4) and params not in cases:
                cases.append(params)
        for params in cases:
            core = build_core(params)
            res = resultant_interp(core.H, core.K, "k", "f")
            top, coeffs = resultant_top(core.H, core.K, "k", "f", -1, 105)
            assert top == 107, params
            assert coeffs == [res.coefficient("f", top - e).constant_value()
                              for e in range(3)], params
            assert bool(coeffs[0]) == (params[:2] != (7, 4)), params


class TestSpecializationConsistency:
    def test_res_pq_specializes(self):
        man = manifest()
        generic = resultant(man["P"], man["Q"], "k")
        for mm, rr, cc in ((4, 2, 1), (5, 3, -1), (6, 2, 0), (7, 4, 1)):
            p0 = (man["P"].substitute("m", mm).substitute("r", rr)
                  .substitute("c", cc))
            q0 = (man["Q"].substitute("m", mm).substitute("r", rr)
                  .substitute("c", cc))
            # leading k-coefficients stay nonzero at valid specializations
            assert not p0.coefficient("k", 3).is_zero()
            assert not q0.coefficient("k", 3).is_zero()
            spec = (generic.substitute("m", mm).substitute("r", rr)
                    .substitute("c", cc))
            assert spec == resultant(p0, q0, "k")

    def test_res_pq_f3_closed_form_at_sample(self):
        man = manifest()
        p0 = man["P"].substitute("m", 4).substitute("r", 2).substitute("c", 1)
        q0 = man["Q"].substitute("m", 4).substitute("r", 2).substitute("c", 1)
        res = resultant(p0, q0, "k")
        want = man["coefF3"].evaluate({"m": 4, "r": 2, "c": 1})
        assert res.coefficient("f", 3).constant_value() * 4096 == want


class TestGcd:
    def test_example(self):
        assert gcd_subresultant((K - 1) * (K + 2), (K - 1) * (K + 3),
                                "k") == K - 1

    def test_self(self, rng):
        from resverify.poly import _content_in
        for _ in range(30):
            p = rand_nonzero(rng)
            if p.degree("k") < 1:
                continue
            want = p.exact_div(_content_in(p, "k")).primitive()[1]
            assert gcd_subresultant(p, p, "k") == want

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            gcd_subresultant(MultiPoly.zero(), K, "k")

    def test_divides_randomized(self, rng):
        from resverify.poly import _content_in
        checked = 0
        while checked < 500:
            g = rand_poly(rng, max_terms=3, max_deg=2)
            a = rand_nonzero(rng, max_terms=3, max_deg=2)
            b = rand_nonzero(rng, max_terms=3, max_deg=2)
            if g.degree("k") < 1:
                continue
            res = gcd_subresultant(g * a, g * b, "k")
            assert res.divides(g * a)
            assert res.divides(g * b)
            planted = g.exact_div(_content_in(g, "k")).primitive()[1]
            assert planted.divides(res)
            checked += 1

    def test_v_free_input(self):
        assert gcd_subresultant(F + 1, K * (F + 1), "k").is_constant()
