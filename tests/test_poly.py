import heapq
import random
from itertools import chain

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from schurkit.errors import (
    ArityMismatch,
    DomainMismatch,
    NotDivisible,
)
from schurkit.field import (
    ONE,
    ZERO,
    CyclotomicScalar,
    Rat,
    common_order,
    embed,
    fold_constants,
    int_numerators,
    omega,
    root_exponents,
)
from schurkit import poly
from schurkit.poly import (
    Poly,
    grlex_key,
    packed_decode,
    packed_encode,
    packed_partial,
    poly_from_text,
    slot_bits,
)
from schurkit.partitions import Partition, staircase
from schurkit.symmetric import generalized_vandermonde, schur_bialternant, schur_ssyt

from helpers import coefficient_kinds


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

    def test_rational_cyclotomic_coefficient_equals_fraction(self):
        # equality compares the term dicts, so each coefficient pair is
        # compared in one order; both orders must agree, with equal hashes
        cyclo = Poly(2, {(1, 0): CyclotomicScalar(6, (Rat(1, 2),)), (0, 1): Rat(3)})
        plain = Poly(2, {(1, 0): Rat(1, 2), (0, 1): Rat(3)})
        assert isinstance(cyclo.terms[(1, 0)], CyclotomicScalar)
        assert cyclo == plain and plain == cyclo
        assert hash(cyclo) == hash(plain)
        assert cyclo != Poly(2, {(1, 0): Rat(1, 2)})

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

    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_rational_point_matches_scalar_loop(self, data, arity):
        # the integer route: point and coefficients over common denominators
        p = data.draw(polys(arity=arity, max_exp=4, max_terms=6))
        point = data.draw(
            st.lists(
                st.fractions(min_value=-9, max_value=9, max_denominator=7),
                min_size=arity,
                max_size=arity,
            )
        )
        assert_same_value(p.eval(point), naive_eval(p, point))
        assert_same_value(p.eval([int(x) for x in point]), naive_eval(p, [int(x) for x in point]))


def root_scalars(order):
    """Rationals with mixed denominators, or values of the order-n field."""
    rational = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    cyclotomic = st.lists(rational, min_size=1, max_size=order).map(
        lambda coeffs: CyclotomicScalar(order, coeffs)
    )
    return st.one_of(rational, cyclotomic)


@st.composite
def root_power_polys(draw, arity, order):
    shape = draw(st.sampled_from(["zero", "constant", "general"]))
    if shape == "zero":
        return Poly.zero(arity)
    if shape == "constant":
        return Poly.constant(arity, draw(root_scalars(order)))
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(arity))
        terms[exps] = draw(root_scalars(order))
    return Poly(arity, terms)


def naive_eval(p, point):
    """The generic scalar loop: each term's coefficient times its powers,
    one scalar product per unit of exponent."""
    total = Rat(0)
    for exps, coeff in p.terms.items():
        value = coeff
        for x, e in zip(point, exps):
            for _ in range(e):
                value = value * x
        total = total + value
    return total


def assert_same_value(got, expected):
    assert type(got) is type(expected)
    assert got == expected
    if isinstance(got, CyclotomicScalar):
        assert (got.order, got.nums, got.den) == (expected.order, expected.nums, expected.den)


class TestEvalRootPowers:
    """`Poly.eval` at points of powers of one root of unity, where it works
    by exponent arithmetic, against the generic scalar loop."""

    @given(st.data(), st.integers(1, 16), st.integers(1, 9))
    @settings(max_examples=200, deadline=None)
    def test_matches_eval(self, data, order, arity):
        p = data.draw(root_power_polys(arity, order))
        powers = data.draw(
            st.lists(st.integers(0, 2 * order), min_size=arity, max_size=arity)
        )
        w = omega(order)
        point = [w**s for s in powers]
        assert root_exponents(point) == (order, [s % order for s in powers])
        assert_same_value(p.eval(point), naive_eval(p, point))

    @given(st.data(), st.integers(2, 12), st.integers(2, 5))
    @settings(max_examples=100, deadline=None)
    def test_other_points_take_the_generic_route(self, data, order, arity):
        """One coordinate is not a power of the others' root: a rational, w + 1,
        a root of another order, or a power of w over 2."""
        p = data.draw(root_power_polys(arity, order))
        w = omega(order)
        exponents = data.draw(
            st.lists(st.integers(0, order - 1), min_size=arity, max_size=arity)
        )
        point = [w**s for s in exponents]
        i = data.draw(st.integers(0, arity - 1))
        other = data.draw(st.sampled_from(["rational", "w+1", "order", "den"]))
        point[i] = {
            "rational": Rat(1),
            "w+1": w + 1,
            "order": omega(order + 1),
            "den": point[i] / 2,
        }[other]
        assert root_exponents(point) is None
        try:
            expected = naive_eval(p, point)
        except DomainMismatch:
            with pytest.raises(DomainMismatch):
                p.eval(point)
        else:
            assert_same_value(p.eval(point), expected)

    @given(st.integers(1, 16), st.integers(1, 16), st.integers(1, 9))
    @settings(max_examples=50, deadline=None)
    def test_other_order_coefficient(self, order, other, arity):
        assume(order != other)
        x1 = (1,) + (0,) * (arity - 1)
        p = Poly(arity, {x1: CyclotomicScalar(other, (1, 2)), (0,) * arity: Rat(1, 2)})
        with pytest.raises(DomainMismatch):
            p.eval([omega(order)] * arity)

    def test_wrong_number_of_powers(self):
        with pytest.raises(ArityMismatch):
            var(2, 0).eval([omega(3)])


class TestCalculus:
    def test_derivative_examples(self):
        p = Poly.monomial(2, (2, 1))
        assert p.derivative(0) == Poly.monomial(2, (1, 1), 2)
        assert Poly.constant(2, 9).derivative(0).is_zero()
        assert (var(2, 0) + var(2, 1)).derivative(1) == Poly.constant(2, 1)

    def test_derivative_index_out_of_range(self):
        with pytest.raises(IndexError):
            var(2, 0).derivative(2)

    @given(polys(arity=3, max_exp=2, max_terms=3), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_euler_identity_on_homogeneous(self, p, d):
        h = Poly(3, {e: c for e, c in p.terms.items() if sum(e) == d})
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


@st.composite
def codec_cases(draw):
    """(p, order, width): p with every coefficient rational (order None) or
    every one in the order-n field, n in 1..12, and a key width at least
    the bit length of p's total degree."""
    order = draw(st.sampled_from([None, *range(1, 13)]))
    arity = draw(st.integers(1, 4))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = tuple(draw(st.integers(0, 6)) for _ in range(arity))
        if order is None:
            terms[exps] = draw(small_rationals())
        else:
            deg = fold_constants(order)[0]
            coeffs = draw(st.lists(small_rationals(), min_size=1, max_size=deg))
            terms[exps] = CyclotomicScalar(order, coeffs)
    p = Poly(arity, terms)
    return p, order, max(p.total_degree(), 0).bit_length() + draw(st.integers(0, 3))


class TestCodec:
    """`packed_encode`, `packed_decode` and `packed_partial`, the packed
    form behind every product, against the `Poly` they encode."""

    @given(codec_cases())
    @settings(max_examples=300, deadline=None)
    def test_decode_inverts_encode(self, case):
        p, order, width = case
        nums, den = packed_encode(p, width, order)
        q = packed_decode(dict(nums), den, p.arity, width, order)
        assert q == p
        assert coefficient_kinds(q.terms) == coefficient_kinds(p.terms)

    @given(codec_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_partial_is_the_derivative(self, case, data):
        p, order, width = case
        var = data.draw(st.integers(0, p.arity - 1))
        nums, den = packed_encode(p, width, order)
        partial = packed_partial(nums, var, p.arity, width, order)
        expected = p.derivative(var)
        q = packed_decode(dict(partial), den, p.arity, width, order)
        assert q == expected
        assert coefficient_kinds(q.terms) == coefficient_kinds(expected.terms)
        # the keys themselves, total-degree field included, are the
        # derivative's own: the numerators agree once put over one denominator
        enums, eden = packed_encode(expected, width, order)
        assert {k: v * eden for k, v in partial} == {k: v * den for k, v in enums}


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


#: orders whose fields the slot bound must cover: degree 1 (1, 2), fold
#: rows of one entry (4), of several entries (7, 9, 12, 15), and R = 2 (105)
SLOT_ORDERS = [1, 2, 4, 7, 9, 12, 15]


def huge_scalar(rng, order):
    """A rational or cyclotomic value with numerators and denominators
    around 2^200, of either sign; few distinct denominators, so that the
    scalar reference stays quick."""
    def rat():
        return Rat(rng.choice((-1, 1)) * (2**200 + rng.randrange(2**64)), 2**199 + rng.randrange(3))

    if order is None:
        return rat()
    deg = fold_constants(order)[0]
    return CyclotomicScalar(order, [rat() for _ in range(deg)])


def dense_poly(rng, arity, degree, scalar) -> Poly:
    """Every monomial of total degree `degree`: the products of two such
    operands meet on few keys, up to min(monomial counts) pairs on one."""
    exps = [()]
    for _ in range(arity):
        exps = [e + (k,) for e in exps for k in range(degree + 1)]
    return Poly(arity, {e: scalar(rng) for e in exps if sum(e) == degree})


def kernel_numerators(p: Poly) -> list:
    """The numerator entries `Poly.__mul__` hands the kernel for p (the
    keys do not enter the slot width)."""
    return int_numerators([(0, c) for c in p.terms.values()])[0]


def max_numerator(p: Poly) -> int:
    return max(abs(v) for c in p.terms.values() for v in c.nums)


class TestSlotBound:
    """The packed cyclotomic product against `naive_product` where the slot
    width is tight: more field degrees, huge numerators, dense collisions."""

    @pytest.mark.parametrize("order", SLOT_ORDERS + [105])
    def test_random_products(self, order):
        rng = random.Random(order)
        for arity, da, db in [(1, 3, 4), (2, 2, 2), (3, 1, 3)]:
            p = random_poly(rng, arity, da, order, terms=3 if order == 105 else 6)
            r = random_poly(rng, arity, db, order, terms=3 if order == 105 else 6)
            assert assert_kernel_product(p, r).divide_exact(r) == p

    @pytest.mark.parametrize("order", [None] + SLOT_ORDERS)
    def test_numerators_near_2_200(self, order):
        rng = random.Random(200 + (order or 0))
        for arity in (1, 3):
            p = dense_poly(rng, arity, 2, lambda g: huge_scalar(g, order))
            r = random_poly(rng, arity, 2, order)
            r += Poly(arity, {(1,) * arity: huge_scalar(rng, order)})
            assert_kernel_product(p, r)
            assert_kernel_product(p, p)

    @pytest.mark.parametrize("order", SLOT_ORDERS)
    def test_dense_operands_collide_on_few_keys(self, order):
        rng = random.Random(300 + order)
        scalar = lambda g: CyclotomicScalar(order, [g.randint(-9, 9) for _ in range(order)])
        for arity, degree in [(2, 12), (3, 5)]:
            p = dense_poly(rng, arity, degree, scalar)
            r = dense_poly(rng, arity, degree + 1, scalar)
            assert_kernel_product(p, r)
            assert_kernel_product(r, r)

    @pytest.mark.parametrize("order", SLOT_ORDERS)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_digits_at_their_bound(self, order, sign):
        """Every numerator of one operand is A = 2^100 - 1, every one of the
        other is B = +-(2^90 - 1), and L = 7 monomial pairs meet on the
        middle key.  Every folded numerator stays
        below 2^S / 4, the bound the kernel's uniqueness argument rests on;
        in degree 1 the middle one is L*A*B, the bound itself, so it also
        exceeds 2^S / 8 and a slot one bit narrower breaks the invariant."""
        deg, _, reach = fold_constants(order)
        a, b, pairs = 2**100 - 1, 2**90 - 1, 7
        p = Poly(1, {(i,): CyclotomicScalar(order, [a] * deg) for i in range(pairs)})
        r = Poly(1, {(i,): CyclotomicScalar(order, [sign * b] * deg) for i in range(pairs)})
        product = assert_kernel_product(p, r)
        slot = slot_bits(kernel_numerators(p), kernel_numerators(r), deg, reach)
        assert max_numerator(product) < 2**slot // 4
        if deg == 1:
            assert max_numerator(product) == pairs * a * b
            assert max_numerator(product) > 2**slot // 8


def naive_divide(p, q) -> dict:
    """Leading-term division on tuple keys with scalar arithmetic: the
    reference for the fraction-free kernel behind `Poly.divide_exact`.  The
    coefficients are first embedded in the operands' cyclotomic field, if
    they have one, so that every quotient coefficient lies in it, as every
    product coefficient does."""
    order = common_order(p.terms.values(), q.terms.values())

    def lift(c):
        return c if order is None or isinstance(c, CyclotomicScalar) else embed(c, order)

    rem = {e: lift(c) for e, c in p.terms.items()}
    div = {e: lift(c) for e, c in q.terms.items()}
    lead_e = max(div, key=grlex_key)
    inv = ONE / div[lead_e]
    out = {}
    while rem:
        exps = max(rem, key=grlex_key)
        if any(a < b for a, b in zip(exps, lead_e)):
            raise NotDivisible(f"{exps} is not divisible by {lead_e}")
        shift = tuple(a - b for a, b in zip(exps, lead_e))
        c = rem[exps] * inv
        out[shift] = c
        for e, dc in div.items():
            key = tuple(a + b for a, b in zip(shift, e))
            v = rem.get(key, ZERO) - c * dc
            if v:
                rem[key] = v
            else:
                del rem[key]
    return out


#: the domains of the division reference test: Q and orders 3, 5, 8, 12
DIVISION_ORDERS = [None, 3, 5, 8, 12]


@st.composite
def division_scalars(draw, order):
    """Mostly a kernel scalar; sometimes one with numerators near 2^200."""
    if draw(st.integers(0, 4)):
        return draw(kernel_scalars(order))

    def huge():
        sign = draw(st.sampled_from((-1, 1)))
        return Rat(sign * (2**200 + draw(st.integers(0, 2**64))), draw(st.integers(1, 5)))

    if order is None:
        return huge()
    return CyclotomicScalar(order, [huge() for _ in range(draw(st.integers(1, 4)))])


@st.composite
def division_cases(draw):
    """(dividend, divisor) in one domain.  The divisor's leading coefficient
    is drawn or is a non-unit: 3, 7/3 or (over Q(w)) w + 2.  The dividend is
    a multiple of the divisor, a multiple plus a drawn polynomial, zero, or
    (against a constant divisor, or one of higher degree) a drawn one."""
    order = draw(st.sampled_from(DIVISION_ORDERS))
    arity = draw(st.integers(1, 3))

    def poly(min_terms=0):
        terms = {}
        for _ in range(draw(st.integers(min_terms, 4))):
            exps = tuple(draw(st.integers(0, 2)) for _ in range(arity))
            terms[exps] = draw(division_scalars(order))
        return Poly(arity, terms)

    q = poly(min_terms=1)
    assume(q)
    leads = [None, Rat(3), Rat(7, 3)] + ([omega(order) + 2] if order else [])
    lead = draw(st.sampled_from(leads))
    if lead is not None:
        q = Poly(arity, {**q.terms, max(q.terms, key=grlex_key): lead})
    r = poly()
    kind = draw(st.sampled_from(["exact", "inexact", "zero", "constant", "higher"]))
    if kind == "exact":
        return q * r, q
    if kind == "inexact":
        return q * r + poly(), q
    if kind == "zero":
        return Poly.zero(arity), q
    if kind == "constant":
        return r, Poly.constant(arity, lead or draw(division_scalars(order)) or 1)
    higher = Poly.monomial(arity, (r.total_degree() + 1,) + (0,) * (arity - 1))
    return r, q * higher


def content_six_case(lead, inexact=False):
    """A divisor with leading coefficient `lead` and content 6, so that the
    quotient's denominators outgrow the dividend's, and a multiple of it
    (plus y when `inexact`)."""
    x, y = var(2, 0), var(2, 1)
    q = (x * lead + y - 1) * 6
    p = (x + y * Rat(5, 2) - Rat(2, 3)) ** 3 * (x * lead - y * 4) * q
    return (p + y if inexact else p), q


class TestDivisionKernel:
    @given(division_cases())
    @example(content_six_case(Rat(3)))
    @example(content_six_case(Rat(3), inexact=True))
    @example(content_six_case(Rat(7, 3)))
    @example(content_six_case(omega(8) + 2))
    @example(content_six_case(omega(8) + 2, inexact=True))
    @example(content_six_case(omega(12) + 2))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, case):
        p, q = case
        try:
            expected = naive_divide(p, q)
        except NotDivisible:
            with pytest.raises(NotDivisible):
                p.divide_exact(q)
            return
        got = p.divide_exact(q).terms
        assert got == expected
        assert coefficient_kinds(got) == coefficient_kinds(expected)

    def divide_recorded(self, monkeypatch, p, q) -> tuple[Poly, "HeapRecorder"]:
        recorder = HeapRecorder()
        monkeypatch.setattr(poly, "heapq", recorder)
        quotient = p.divide_exact(q)
        monkeypatch.undo()
        assert quotient.terms == naive_divide(p, q)
        return quotient, recorder

    def test_cancelled_key_is_recreated(self, monkeypatch):
        # the first step cancels x^2, the second creates it again, so x^2
        # is pushed a second time while its first entry is still queued
        x = var(1, 0)
        q = x * x - x * 2 + 1
        p = q * (x * x * -2 + x + 2)
        quotient, recorder = self.divide_recorded(monkeypatch, p, q)
        assert quotient == x * x * -2 + x + 2
        assert recorder.repushed

    def test_stale_entry_then_scaling(self, monkeypatch):
        # the first step (a = 1) cancels x^2, whose queued entry is popped
        # and skipped; the next lead, 1 against the divisor's 3, scales the
        # remainder and the quotient by a = 3 with the heap in use
        x = var(1, 0)
        q = x * 3 + 3
        p = x**3 * 3 + x**2 * 3 + x + 1
        quotient, recorder = self.divide_recorded(monkeypatch, p, q)
        assert quotient == x**2 + Rat(1, 3)
        assert recorder.pops > len(quotient.terms)

    def test_long_division_rebuilds_the_heap(self, monkeypatch):
        # s_(2,1) on 4 variables as a ratio of alternants: stale entries
        # outgrow twice the remainder, and the heap is rebuilt from it
        n = 4
        delta = staircase(n)
        p = generalized_vandermonde(tuple(a + b for a, b in zip((2, 1, 0, 0), delta)), n)
        q = generalized_vandermonde(delta, n)
        quotient, recorder = self.divide_recorded(monkeypatch, p, q)
        assert recorder.heapify_calls > 1
        assert quotient == schur_ssyt(Partition((2, 1)), n)


class HeapRecorder:
    """Stands in for `heapq` in `schurkit.poly` and records what the
    division kernel does with its heap of pending keys."""

    def __init__(self):
        self.heapify_calls = 0
        self.pops = 0
        self.repushed = False
        self.seen = set()

    def heapify(self, heap):
        self.heapify_calls += 1
        self.seen.update(heap)
        heapq.heapify(heap)

    def heappush(self, heap, key):
        self.repushed |= key in self.seen
        self.seen.add(key)
        heapq.heappush(heap, key)

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


@pytest.mark.parametrize("parts", [(3, 2, 1), (4, 1, 1), (2, 2, 1, 1), (5, 1), (1,) * 6])
def test_bialternant_on_six_variables_matches_tableaux(parts):
    lam = Partition(parts)
    assert schur_bialternant(lam, 6) == schur_ssyt(lam, 6)


class TestTextAndJson:
    def test_text_variable_past_the_limit_is_refused(self):
        # x99999999999 made a 10^11-long exponent vector
        assert poly_from_text("x9", max_arity=9).arity == 9
        for text in ("x9", "x1 + 2*x3*x99999999999"):
            with pytest.raises(ValueError, match="is past x8, the largest read here"):
                poly_from_text(text, max_arity=8)

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
