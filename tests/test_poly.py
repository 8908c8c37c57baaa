import random
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit.errors import (
    ArityMismatch,
    DomainMismatch,
    NonUnitConstantTerm,
    NonZeroConstantTerm,
    NotDivisible,
)
from schurkit.field import CyclotomicScalar, Rat, omega
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


def naive_product(p, q) -> dict:
    """Schoolbook product on tuple keys with scalar arithmetic: the reference
    for the packed-key integer kernel behind `Poly.__mul__`."""
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def coefficient_orders(*ps) -> set:
    return {
        c.order
        for c in chain.from_iterable(p.terms.values() for p in ps)
        if isinstance(c, CyclotomicScalar)
    }


def assert_kernel_product(p, q):
    """p * q equals the reference, and its coefficient domain is Q when both
    operands are rational, else the one cyclotomic field for every term."""
    product = p * q
    assert product.terms == naive_product(p, q)
    assert all(c for c in product.terms.values())
    orders = coefficient_orders(p, q)
    if orders:
        assert {type(c) for c in product.terms.values()} <= {CyclotomicScalar}
        assert coefficient_orders(product) <= orders
    else:
        assert {type(c) for c in product.terms.values()} <= {type(Rat(1))}
    return product


def small_rationals():
    return st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def kernel_scalars(draw, order):
    """A rational, or (for an order) a cyclotomic value or an embedded-to-be
    rational, so one operand can mix the two."""
    if order is None or draw(st.booleans()) and draw(st.booleans()):
        return draw(small_rationals())
    return CyclotomicScalar(order, draw(st.lists(small_rationals(), min_size=1, max_size=order)))


@st.composite
def kernel_polys(draw, arity, order, max_exp=3, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in range(arity))
        terms[exps] = draw(kernel_scalars(order))
    return Poly(arity, terms)


def random_poly(rng, arity, degree, order, terms=6) -> Poly:
    """Random terms of total degree <= `degree`, plus x1^degree and
    xn^degree, whose exponents fill a packed field."""
    def scalar():
        if order is None or rng.random() < 0.3:
            return Rat(rng.randint(-5, 5), rng.randint(1, 4))
        return CyclotomicScalar(order, [Rat(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)])

    out = {}
    for _ in range(terms):
        exps = [0] * arity
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(arity)] += 1
        out[tuple(exps)] = scalar()
    for i in (0, arity - 1):
        out[tuple(degree if j == i else 0 for j in range(arity))] = scalar() or 1
    return Poly(arity, out)


#: operand domains: rational, orders 3, 5 and 8, and rational against cyclotomic
KERNEL_DOMAINS = [(None, None), (3, 3), (5, 5), (8, 8), (None, 5), (8, None)]


class TestProductKernel:
    @given(st.data(), st.integers(1, 9), st.sampled_from(KERNEL_DOMAINS))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, data, arity, domains):
        p = data.draw(kernel_polys(arity, domains[0]))
        q = data.draw(kernel_polys(arity, domains[1]))
        product = assert_kernel_product(p, q)
        if q:
            assert product.divide_exact(q) == p
            if q.total_degree() > 0:
                with pytest.raises(NotDivisible):
                    (product + 1).divide_exact(q)

    @pytest.mark.parametrize("da, db", [(7, 1), (15, 1), (31, 1), (16, 16)])
    @pytest.mark.parametrize("order", [None, 5, 8])
    def test_degrees_crossing_a_power_of_two(self, da, db, order):
        rng = random.Random(100 * da + db)
        for arity in (1, 2, 5, 9):
            p = random_poly(rng, arity, da, order)
            r = random_poly(rng, arity, db, order)
            product = assert_kernel_product(p, r)
            assert product.total_degree() == da + db
            assert product.divide_exact(r) == p
            assert product.divide_exact(p) == r

    def test_cancellation(self):
        x, y = var(2, 0), var(2, 1)
        assert_kernel_product(x + y, x - y) == x * x - y * y
        w = omega(3)
        # the x*y coefficient w^2 + (1 + w) is zero in Q(w) only after reduction
        product = assert_kernel_product(x + y, x * (1 + w) + y * w**2)
        assert (1, 1) not in product.terms
        w = omega(8)
        assert (x + y * w) * (x - y * w) == x * x - y * y * w**2

    @pytest.mark.parametrize("order", [None, 5, 8])
    def test_constant_and_zero_operands(self, order):
        c = Rat(-3, 7) if order is None else omega(order) * Rat(2, 3) + 1
        p = random_poly(random.Random(order), 4, 3, order)
        for a, b in [(Poly.constant(4, c), p), (p, Poly.constant(4, c)), (Poly.constant(4, c), Poly.constant(4, c))]:
            assert_kernel_product(a, b)
        assert (p * Poly.zero(4)).is_zero()
        assert (Poly.zero(4) * p).is_zero()
        assert (Poly.zero(4) * Poly.zero(4)).is_zero()

    def test_rational_valued_cyclotomic_product_stays_cyclotomic(self):
        w = omega(5)
        product = Poly.constant(1, w) * Poly.constant(1, w**4)
        (coeff,) = product.terms.values()
        assert isinstance(coeff, CyclotomicScalar) and coeff.order == 5 and coeff == 1

    def test_two_orders_across_operands(self):
        with pytest.raises(DomainMismatch):
            Poly(2, {(1, 0): omega(5)}) * Poly(2, {(0, 1): omega(8)})

    @pytest.mark.parametrize("other", [Poly.variable(2, 0), Poly.constant(2, 3), Poly(2, {(0, 0): 1, (1, 1): 2, (2, 0): 1})])
    def test_two_orders_within_one_operand(self, other):
        mixed = Poly(2, {(1, 0): omega(5), (0, 1): omega(8)})
        with pytest.raises(DomainMismatch):
            mixed * other
        with pytest.raises(DomainMismatch):
            other * mixed


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
