import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit.derivatives import (
    pdc_dimension,
    product_pdc_check,
    shifted_product_pdc_check,
)
from schurkit.errors import BudgetExceeded, InvalidWitness, ZeroPolynomial
from schurkit.field import ONE, CyclotomicScalar, Rat, ScalarMatrix, omega
from schurkit.independence import (
    is_independence_witness,
    roots_of_unity_point,
    roots_of_unity_witness,
)
from schurkit.poly import Poly, grlex_key
from schurkit.symmetric import e_poly


def variables(arity):
    return [Poly.variable(arity, i) for i in range(arity)]


def naive_pdc_dimension(p: Poly) -> int:
    """Every derivative multi-index up to the per-variable degrees, each
    derivative by repeated `Poly.derivative`, reduced by scalar Gaussian
    elimination over the coefficient field, rows keyed by monomial: the
    reference for the integer elimination behind `pdc_dimension`."""
    rows: dict[tuple, dict] = {}

    def add(q: Poly):
        work = dict(q.terms)
        while work:
            lead = max(work, key=grlex_key)
            pivot_row = rows.get(lead)
            if pivot_row is None:
                inv = ONE / work[lead]
                rows[lead] = {e: c * inv for e, c in work.items()}
                return
            factor = work[lead]
            for e, c in pivot_row.items():
                acc = work.get(e, 0) - factor * c
                if acc:
                    work[e] = acc
                else:
                    work.pop(e, None)

    ranges = [range(p.degree_in(i) + 1) for i in range(p.arity)]
    for multi in itertools.product(*ranges):
        q = p
        for i, m in enumerate(multi):
            for _ in range(m):
                q = q.derivative(i)
        add(q)
    return len(rows)


def rationals(max_den=6):
    """Non-zero, so every drawn term stays."""
    return st.builds(Rat, st.integers(-5, 5).filter(bool), st.integers(1, max_den))


@st.composite
def rational_polys(draw):
    """Arity 1-4, exponents up to 3, coefficients with denominators; the
    total degrees differ from term to term."""
    arity = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * arity)
    terms = draw(st.dictionaries(exps, rationals(), min_size=1, max_size=6))
    return Poly(arity, terms)


@st.composite
def cyclotomic_polys(draw):
    """Orders 3, 4, 5, 8 and 12: a rational polynomial composed with
    linear forms over Q(w), which gives Q(w)-linear relations among the
    derivatives that are no Q-linear relations, plus a few further terms."""
    order = draw(st.sampled_from([3, 4, 5, 8, 12]))
    arity = draw(st.integers(1, 3))
    w = omega(order)

    def scalar():
        coeffs = draw(st.lists(rationals(3), min_size=1, max_size=4))
        return sum((c * w**i for i, c in enumerate(coeffs)), CyclotomicScalar(order, ()))

    exps = st.tuples(*[st.integers(0, 2)] * arity)
    base = Poly(arity, draw(st.dictionaries(exps, rationals(), min_size=1, max_size=4)))
    forms = [
        sum((Poly.variable(arity, j) * scalar() for j in range(arity)), Poly.zero(arity))
        for _ in range(arity)
    ]
    extra = draw(st.sets(exps, max_size=2))
    p = base.compose(forms) + Poly(arity, {e: scalar() for e in extra})
    return p if p else Poly.constant(arity, w)


class TestDimension:
    def test_triple_monomial(self):
        assert pdc_dimension(Poly.monomial(3, (1, 1, 1))) == 8

    def test_constant(self):
        assert pdc_dimension(Poly.constant(2, 5)) == 1

    def test_square(self):
        x = Poly.variable(1, 0)
        assert pdc_dimension(x * x) == 3

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            pdc_dimension(Poly.zero(2))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            pdc_dimension(Poly.monomial(5, (1,) * 5), budget=8)

    def test_cyclotomic_coefficients(self):
        w = omega(8)
        x1, x2 = variables(2)
        assert pdc_dimension((x1 + x2 * w) * (x1 - x2 * w)) == 4

    @pytest.mark.parametrize("order", [3, 8, 12])
    def test_square_of_a_cyclotomic_linear_form(self, order):
        # the first partials are proportional over Q(w), not over Q: the
        # span is {l^2, l, 1}
        w = omega(order)
        x1, x2 = variables(2)
        assert pdc_dimension((x1 + x2 * w) ** 2) == 3

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_product_of_variables_is_exactly_two_to_k(self, k):
        assert pdc_dimension(Poly.monomial(k, (1,) * k)) == 2**k

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_product_of_independent_linear_forms_is_exactly_two_to_k(self, k):
        rng = random.Random(k)
        while True:
            entries = [Rat(rng.randint(-2, 2)) for _ in range(k * k)]
            if ScalarMatrix(k, k, entries).det():
                break
        product = Poly.constant(k, 1)
        for i in range(k):
            form = Poly(
                k,
                {
                    tuple(1 if t == j else 0 for t in range(k)): entries[i * k + j]
                    for j in range(k)
                    if entries[i * k + j]
                },
            )
            product = product * form
        assert pdc_dimension(product) == 2**k


class TestAgainstReference:
    @given(rational_polys())
    @settings(max_examples=80, deadline=None)
    def test_rational(self, p):
        assert pdc_dimension(p) == naive_pdc_dimension(p)

    @given(cyclotomic_polys())
    @settings(max_examples=60, deadline=None)
    def test_cyclotomic(self, p):
        assert pdc_dimension(p) == naive_pdc_dimension(p)


class TestInvariance:
    def test_shift_invariance(self):
        rng = random.Random(23)
        for _ in range(5):
            n = rng.randint(1, 3)
            terms = {
                tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 4))
            }
            p = Poly(n, terms)
            if p.is_zero():
                continue
            point = [Rat(rng.randint(-3, 3)) for _ in range(n)]
            shifted = p.compose([Poly.variable(n, i) + a for i, a in enumerate(point)])
            assert pdc_dimension(shifted) == pdc_dimension(p)

    def test_invertible_map_invariance(self):
        rng = random.Random(29)
        for _ in range(5):
            n = rng.randint(2, 3)
            while True:
                entries = [Rat(rng.randint(-2, 2)) for _ in range(n * n)]
                if ScalarMatrix(n, n, entries).det():
                    break
            forms = []
            for i in range(n):
                terms = {}
                for j in range(n):
                    if entries[i * n + j]:
                        exps = tuple(1 if t == j else 0 for t in range(n))
                        terms[exps] = entries[i * n + j]
                forms.append(Poly(n, terms))
            p = Poly(n, {tuple(rng.randint(0, 2) for _ in range(n)): 1 for _ in range(3)})
            if p.is_zero():
                continue
            assert pdc_dimension(p.compose(forms)) == pdc_dimension(p)

    def test_lower_bound_by_lowest_component(self):
        rng = random.Random(31)
        for _ in range(6):
            terms = {
                (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-2, 2)
                for _ in range(4)
            }
            p = Poly(2, terms)
            if p.is_zero():
                continue
            low_degree = min(map(sum, p.terms))
            low = Poly(2, {e: c for e, c in p.terms.items() if sum(e) == low_degree})
            assert pdc_dimension(p) >= pdc_dimension(low)


class TestProductChecks:
    def test_variables_at_origin(self):
        report = product_pdc_check(variables(3), (Rat(0),) * 3)
        assert report.dimension == 8
        assert report.bound == 8
        assert report.passed

    def test_elementary_pair_at_witness(self):
        witness = roots_of_unity_witness(3)
        report = product_pdc_check([e_poly(1, 3), e_poly(2, 3)], witness.point)
        assert report.bound == 4
        assert report.dimension >= 4
        assert report.passed

    def test_single_poly_at_its_zero(self):
        q = Poly(1, {(2,): 1, (0,): -1})  # x^2 - 1, zero at 1 with slope 2
        report = product_pdc_check([q], (Rat(1),))
        assert report.dimension >= 2
        assert report.passed

    @pytest.mark.parametrize("k, dimension", [(2, 8), (3, 47), (4, 367)])
    def test_elementary_family_at_roots_of_unity(self, k, dimension):
        polys = [e_poly(j, k + 1) for j in range(1, k + 1)]
        report = product_pdc_check(polys, roots_of_unity_point(k + 1))
        assert report.dimension == dimension
        assert report.bound == 2**k
        assert report.passed

    def test_bad_point_rejected(self):
        with pytest.raises(InvalidWitness):
            product_pdc_check(variables(2), (Rat(1), Rat(0)))

    def test_rank_below_family_size_rejected(self):
        # [x, 2x] has symbolic rank 1, which its Jacobian also has at the
        # origin, so the witness check passes; only the rank check against
        # the family size k = 2 rejects it
        x, _ = variables(2)
        polys = [x, x + x]
        origin = (Rat(0), Rat(0))
        assert is_independence_witness(polys, origin)
        with pytest.raises(InvalidWitness):
            product_pdc_check(polys, origin)

    def test_shifted_variables(self):
        report = shifted_product_pdc_check(variables(2), seed=0)
        assert report.dimension == 4
        assert report.passed

    def test_shifted_squares(self):
        x1, x2 = variables(2)
        report = shifted_product_pdc_check([x1 * x1, x2 * x2], seed=0)
        assert report.passed

    def test_shifted_elementary_triple(self):
        polys = [e_poly(k, 4) for k in (1, 2, 3)]
        report = shifted_product_pdc_check(polys, seed=0)
        assert report.bound == 8
        assert report.passed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shifted_random_quadratics(self, seed):
        rng = random.Random(seed)
        from schurkit.independence import jacobian, symbolic_rank

        while True:
            polys = []
            for _ in range(2):
                terms = {
                    (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-2, 2)
                    for _ in range(3)
                }
                polys.append(Poly(2, terms))
            if all(p for p in polys) and symbolic_rank(jacobian(polys)) == 2:
                break
        report = shifted_product_pdc_check(polys, seed=seed)
        assert report.passed

    def test_report_json(self):
        report = shifted_product_pdc_check(variables(2), seed=1)
        blob = report.to_json()
        assert blob["passed"] is True
        assert len(blob["shifts"]) == 2
