"""Elimination engine: Sylvester and Bezout-type matrices, Bareiss
determinants, resultants on both paths, integer interpolation, and
subresultant gcd."""

import pytest
from conftest import (SHAPES, cofactor_det, rand_nonzero, rand_poly,
                      rand_shaped_pair)

from resverify import kernels
from resverify.catalog import build_core, manifest
from resverify.poly import MultiPoly, horner, int_coeffs, variables
from resverify.ratio import Rat
from resverify.resultant import (BothConstant, ZeroInput, _bezout_rows,
                                 _newton_interpolate, _newton_range,
                                 _sylvester_rows,
                                 bareiss_det, gcd_subresultant, resultant,
                                 resultant_interp, sylvester)
from resverify.sweep import run_case

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
        # constant and symbolic coefficients alike take bareiss_det on
        # the Bezout rows; the integer determinant kernel is never called
        def refuse(rows):
            raise AssertionError("resultant() called kernels.bareiss_det_int")

        monkeypatch.setattr(kernels, "bareiss_det_int", refuse)
        assert resultant(K - 2, K - 5, "k") == MultiPoly.const(-3)
        # 2^3 * ((-3/2)^3 - 1)
        assert resultant(2 * K + 3, K ** 3 - 1, "k") == MultiPoly.const(-35)
        man = manifest()
        res = resultant(man["P"], man["Q"], "k")
        assert res.coefficient("f", 3) * 4096 == man["coefF3"]


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


# k-leading coefficients that vanish at the samples f = 1 and f = 2
VANISHING_PAIRS = [
    ((F - 1) * (F - 2) * K ** 2 + F * K + 1, (F - 1) * K + F ** 2),
    ((F - 1) * K ** 3 + (F - 3) * K + F ** 2 - 2,
     (F - 2) * (F - 1) * K ** 2 + 5),
    ((F - 1) * K ** 3 + F * K + F ** 2, (F - 2) * K ** 2 + (F - 1) * K + 3),
    ((F - 1) * (F - 2) * K ** 4 + K ** 2 - F, (F - 1) * K + F ** 3),
]


class TestSampleBound:
    @pytest.mark.parametrize("shape", [*SHAPES, "planted"])
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
    def test_vanishing_leading_coefficients(self, det_calls, a, b):
        # the k-leading coefficients vanish at the samples f = 1 and f = 2,
        # where the resultant of the formal degrees still gives Res, in
        # either argument order (the kernel swaps them when da < db)
        for t in (1, 2):
            assert any(p.coefficient("k", p.degree("k")).substitute("f", t)
                       .is_zero() for p in (a, b))
        want = bareiss_det(sylvester(a, b, "k"))
        sign = (-1) ** (a.degree("k") * b.degree("k"))
        assert resultant_interp(a, b, "k", "f") == want
        assert len(det_calls) >= 3
        assert resultant_interp(b, a, "k", "f") == want * sign

    @pytest.mark.parametrize("a,b", [
        # sampled in w (w-degree 2 <= f-degree 3, step 1): the
        # coefficient of y^2 in the dehomogenised a is 1 + w
        ((F + 1) * K ** 2 + F ** 3 + F, F * K + F ** 2 + 1),
        # the same for b: its y-leading coefficient is 1 + w
        (K ** 3 + F ** 3 + F, (F + 1) * K + F ** 2),
        # step 2 (w-degree 2 <= f-degree 4): a's y^2 coefficient is 1 + w
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
        # step 2 and w-degree 2 above f-degree 1: sampled in w all the
        # same, since in f the nodes x = t^2 of t and -t would coincide
        assert resultant_interp(a, b, "k", "f") == resultant(a, b, "k")
        assert len(det_calls) >= 3

    @pytest.mark.parametrize("shape", [*SHAPES, "planted", "vanishing"])
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
        # f-exponents 25..107 at c = +-1 (42 coefficients with stride 2),
        # only 107 at c = 0; in f a structural zero (f divides H and K)
        for cc, span in ((1, (25, 107)), (-1, (25, 107)), (0, (107, 107))):
            core = build_core((15, 8, cc))
            assert _newton_range(_columns(core.H), _columns(core.K)) == span
        core = build_core((15, 8, 1))
        assert _newton_range(_columns(core.H, "f", "k"),
                             _columns(core.K, "f", "k")) is None

    @pytest.mark.parametrize("cc", [1, -1])
    def test_sweep_samples_are_small(self, samples, cc):
        # dehomogenised in w of degree <= 4, at nodes +-1, ..., +-22, each
        # sample input fits in 96 bits (143 bits at f = 1..43)
        run_case(15, 8, cc, "k")
        assert len(samples) == 43
        assert max(abs(x).bit_length()
                   for f, g in samples for x in f + g) <= 96

    def test_structural_zero_takes_only_the_guard(self, rng, det_calls):
        # k divides both inputs: both constant columns vanish, so the
        # Sylvester matrix's last column is empty, det = 0, and one guard
        # sample confirms it
        pairs = [(K ** 2 * F, K * F)]
        pairs += [tuple(K * p for p in rand_shaped_pair(rng, shape))
                  for shape in (*SHAPES, "planted") for _ in range(5)]
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
        # the bound gives f-exponents 25..107 with stride 2 at c = +-1
        # (42 coefficients and the guard); only f^107 at c = 0.  Each
        # sample has the formal degrees of H and K: 8 and 11 in k, 9
        # and 12 in f
        run_case(15, 8, 0, "k")
        assert det_calls == [(8, 11)] * 2
        del det_calls[:]
        run_case(15, 8, 1, "k")
        assert det_calls == [(8, 11)] * 43
        # f divides H and K: a structural zero, the guard sample alone
        for params in ((15, 8, 1), (4, 2, 0), (7, 4, -1)):
            del det_calls[:]
            assert run_case(*params, "f").zero
            assert det_calls == [(9, 12)]

    @pytest.mark.parametrize("cc", [1, -1])
    def test_conic_zero_is_sampled(self, det_calls, cc):
        # the (7,4) zero in k comes from the common conic factor, not from
        # the shape of the Sylvester matrix, so the full range is sampled
        assert run_case(7, 4, cc, "k").zero
        assert len(det_calls) == 43


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
