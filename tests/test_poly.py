import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit.errors import (
    ArityMismatch,
    NonUnitConstantTerm,
    NonZeroConstantTerm,
    NotDivisible,
)
from schurkit.field import Rat, omega
from schurkit.poly import Poly, TruncatedSeries, poly_from_text


def var(arity, i):
    return Poly.variable(arity, i)


@st.composite
def polys(draw, arity=None, max_exp=3, max_terms=4):
    a = arity if arity is not None else draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in range(a))
        coeff = draw(st.fractions(min_value=-4, max_value=4, max_denominator=3))
        terms[exps] = terms.get(exps, 0) + coeff
    return Poly(a, terms)


def points(arity):
    return st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        min_size=arity,
        max_size=arity,
    )


class TestRingOps:
    def test_product_of_conjugates(self):
        x, y = var(2, 0), var(2, 1)
        assert (x + y) * (x - y) == x * x - y * y

    def test_additive_identity(self):
        p = Poly(2, {(1, 1): 2, (0, 2): -1})
        assert p + Poly.zero(2) == p

    def test_variable_product(self):
        assert var(2, 0) * var(2, 1) == Poly.monomial(2, (1, 1))

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            var(2, 0) + var(3, 0)

    @given(polys(arity=2), polys(arity=2), points(2))
    @settings(max_examples=50, deadline=None)
    def test_eval_is_ring_homomorphism(self, p, q, point):
        assert (p * q).eval(point) == p.eval(point) * q.eval(point)
        assert (p + q).eval(point) == p.eval(point) + q.eval(point)


class TestEval:
    def test_simple(self):
        p = var(2, 0) ** 2 + var(2, 1)
        assert p.eval([2, 3]) == 7

    def test_at_zero_gives_constant_term(self):
        p = Poly(2, {(2, 1): 4, (0, 0): Rat(5, 2)})
        assert p.eval([0, 0]) == Rat(5, 2)

    def test_cyclotomic_point(self):
        w = omega(3)
        p = Poly.monomial(3, (1, 1, 1))
        assert p.eval([1, w, w**2]) == 1

    def test_wrong_point_length(self):
        with pytest.raises(ArityMismatch):
            var(2, 0).eval([1])


class TestCalculus:
    def test_derivative_examples(self):
        p = Poly.monomial(2, (2, 1))
        assert p.derivative(0) == Poly.monomial(2, (1, 1), 2)
        assert Poly.constant(2, 9).derivative(0).is_zero()
        assert (var(2, 0) + var(2, 1)).derivative(1) == Poly.constant(2, 1)

    def test_derivative_index_out_of_range(self):
        with pytest.raises(IndexError):
            var(2, 0).derivative(2)

    def test_homogeneous_component_examples(self):
        x, y = var(2, 0), var(2, 1)
        p = x * x + x * y + x
        assert p.homogeneous_component(2) == x * x + x * y
        assert (x * x + x).homogeneous_component(0).is_zero()
        assert Poly.constant(2, 5).homogeneous_component(0) == Poly.constant(2, 5)

    @given(polys())
    @settings(max_examples=50, deadline=None)
    def test_components_sum_to_polynomial(self, p):
        total = Poly.zero(p.arity)
        for component in p.homogeneous_components().values():
            assert component.is_homogeneous()
            total = total + component
        assert total == p

    @given(polys(arity=3, max_exp=2, max_terms=3), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_euler_identity_on_homogeneous(self, p, d):
        h = p.homogeneous_component(d)
        weighted = Poly.zero(3)
        for j in range(3):
            weighted = weighted + Poly.variable(3, j) * h.derivative(j)
        assert weighted == h * d


class TestDivision:
    def test_difference_of_squares(self):
        x, y = var(2, 0), var(2, 1)
        assert (x * x - y * y).divide_exact(x + y) == x - y

    def test_divide_by_one(self):
        p = Poly(2, {(2, 0): 1, (1, 1): -3})
        assert p.divide_exact(Poly.constant(2, 1)) == p

    def test_derived_quotient_multiplies_back(self):
        x, y = var(2, 0), var(2, 1)
        p = Poly.monomial(2, (2, 1)) - Poly.monomial(2, (1, 2))
        q = p.divide_exact(x - y)
        assert q == x * y
        assert q * (x - y) == p

    def test_not_divisible(self):
        x, y = var(2, 0), var(2, 1)
        with pytest.raises(NotDivisible):
            (x * x + y).divide_exact(x + y)

    def test_scalar_division_by_cyclotomic(self):
        w = omega(8)
        p = Poly(2, {(2, 0): Rat(3, 2), (1, 1): w, (0, 0): -1})
        assert (p / w) * w == p
        assert (p / (w + 1)) * (w + 1) == p

    def test_divide_by_cyclotomic_leading_coefficient(self):
        w = omega(8)
        x, y = var(2, 0), var(2, 1)
        p = x * x - y * Rat(2, 3) + w
        r = x * (w + 2) + y * w**3 - 1
        assert (p * r).divide_exact(r) == p

    @given(polys(arity=2, max_terms=3), polys(arity=2, max_terms=3))
    @settings(max_examples=50, deadline=None)
    def test_divide_product_recovers_factor(self, p, r):
        if r.is_zero():
            return
        assert (p * r).divide_exact(r) == p


class TestTextAndJson:
    def test_text_round_trip(self):
        p = Poly(3, {(2, 1, 0): Rat(3, 2), (0, 0, 1): -1, (0, 0, 0): 7})
        assert poly_from_text(p.to_text(), arity=3) == p

    def test_graded_lex_order(self):
        p = Poly(2, {(0, 1): 1, (2, 0): 1, (1, 0): 1})
        assert p.to_text() == "1*x1^2 + 1*x1 + 1*x2"

    @given(polys())
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip(self, p):
        assert Poly.from_json(p.to_json()) == p


class TestSeries:
    def test_geometric(self):
        one_minus_t = TruncatedSeries(
            1, 3, [Poly.constant(1, 1), Poly.constant(1, -1)]
        )
        inv = one_minus_t.inverse()
        assert all(inv.term(k) == Poly.constant(1, 1) for k in range(4))

    def test_exp(self):
        t = TruncatedSeries(1, 2, [Poly.zero(1), Poly.constant(1, 1)])
        e = t.exp()
        assert e.term(0) == Poly.constant(1, 1)
        assert e.term(1) == Poly.constant(1, 1)
        assert e.term(2) == Poly.constant(1, Rat(1, 2))

    def test_product_truncates(self):
        one = Poly.constant(1, 1)
        a = TruncatedSeries(1, 2, [one, one])
        b = TruncatedSeries(1, 2, [one, -one])
        product = a * b
        assert product.term(0) == one
        assert product.term(1).is_zero()
        assert product.term(2) == -one

    def test_inverse_needs_scalar_unit(self):
        with pytest.raises(NonUnitConstantTerm):
            TruncatedSeries(1, 2, [Poly.variable(1, 0)]).inverse()
        with pytest.raises(NonUnitConstantTerm):
            TruncatedSeries(1, 2, [Poly.zero(1)]).inverse()

    def test_exp_needs_zero_constant(self):
        with pytest.raises(NonZeroConstantTerm):
            TruncatedSeries(1, 2, [Poly.constant(1, 1)]).exp()

    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_inverse_round_trip(self, coeffs):
        if coeffs[0] == 0:
            coeffs[0] = Rat(1)
        series = TruncatedSeries(1, 3, [Poly.constant(1, c) for c in coeffs])
        product = series * series.inverse()
        assert product.term(0) == Poly.constant(1, 1)
        assert all(product.term(k).is_zero() for k in range(1, 4))

    def test_integrate(self):
        one = Poly.constant(1, 1)
        s = TruncatedSeries(1, 3, [one, one * 2, one * 3])
        integral = s.integrate()
        assert integral.term(0).is_zero()
        assert integral.term(1) == one
        assert integral.term(2) == one
        assert integral.term(3) == one
