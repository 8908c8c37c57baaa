import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit import derivatives
from schurkit.derivatives import (
    _add_row,
    pdc_dimension,
    product_pdc_check,
    shifted_product_pdc_check,
)
from schurkit.errors import BudgetExceeded, InvalidWitness, ZeroPolynomial
from schurkit.field import (
    ONE,
    CyclotomicScalar,
    Rat,
    ScalarMatrix,
    common_order,
    fold_constants,
    omega,
)
from schurkit.independence import (
    is_independence_witness,
    roots_of_unity_point,
    roots_of_unity_witness,
)
from schurkit.poly import Poly, grlex_key, packed_encode, packed_partial, packed_product
from schurkit.symmetric import e_poly

from helpers import counted, partial


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
        add(partial(p, multi))
    return len(rows)


def bfs_pdc_dimension(p: Poly) -> int:
    """The breadth-first integer elimination that `pdc_dimension` ran
    before each order's rows were sorted and a full order stopped early:
    every non-zero derivative in multi-index order, no early stop.  The
    reference for the row order and the stop."""
    arity = p.arity
    var_degrees = [p.degree_in(i) for i in range(arity)]
    order = common_order(p.terms.values())
    deg = 1 if order is None else fold_constants(order)[0]
    width = p.total_degree().bit_length()
    entries, _ = packed_encode(p, width, order)
    pivots: dict[int, dict] = {}
    frontier = {(0,) * arity: entries}
    seen = set(frontier)
    while frontier:
        next_frontier: dict[tuple, list] = {}
        for multi, q in frontier.items():
            row = _add_row(pivots, dict(q))
            if row is not None:
                for i in range(1, deg):
                    power, _ = packed_encode(Poly.constant(arity, omega(order) ** i), width, order)
                    _add_row(pivots, packed_product(row.items(), power, order))
            for i in range(arity):
                if multi[i] + 1 > var_degrees[i]:
                    continue
                key = multi[:i] + (multi[i] + 1,) + multi[i + 1 :]
                if key in seen:
                    continue
                seen.add(key)
                dq = packed_partial(q, i, arity, width, order)
                if dq:
                    next_frontier[key] = dq
        frontier = next_frontier
    rank = len(pivots)
    assert rank % deg == 0
    return rank // deg


def nonzero_derivatives(p: Poly) -> int:
    """The number of derivative multi-indices whose derivative of p is not
    zero, order zero included."""
    count = 0
    for multi in itertools.product(*[range(p.degree_in(i) + 1) for i in range(p.arity)]):
        count += not partial(p, multi).is_zero()
    return count


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


def cyclotomic_scalar(draw, order):
    coeffs = draw(st.lists(rationals(3), min_size=1, max_size=4))
    w = omega(order)
    return sum((c * w**i for i, c in enumerate(coeffs)), CyclotomicScalar(order, ()))


def cyclotomic_forms(draw, arity, order):
    """`arity` linear forms in `arity` variables with coefficients in Q(w)."""
    return [
        sum(
            (Poly.variable(arity, j) * cyclotomic_scalar(draw, order) for j in range(arity)),
            Poly.zero(arity),
        )
        for _ in range(arity)
    ]


def homogeneous_rational(draw, arity, max_terms):
    """A rational homogeneous polynomial of degree 1-4."""
    degree = draw(st.integers(1, 4))
    monomials = [
        e for e in itertools.product(range(degree + 1), repeat=arity) if sum(e) == degree
    ]
    chosen = draw(
        st.lists(st.sampled_from(monomials), min_size=1, max_size=max_terms, unique=True)
    )
    return Poly(arity, {e: draw(rationals()) for e in chosen})


@st.composite
def cyclotomic_polys(draw):
    """Orders 3, 4, 5, 8 and 12: a rational polynomial composed with
    linear forms over Q(w), which gives Q(w)-linear relations among the
    derivatives that are no Q-linear relations, plus a few further terms."""
    order = draw(st.sampled_from([3, 4, 5, 8, 12]))
    arity = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 2)] * arity)
    base = Poly(arity, draw(st.dictionaries(exps, rationals(), min_size=1, max_size=4)))
    forms = cyclotomic_forms(draw, arity, order)
    extra = draw(st.sets(exps, max_size=2))
    p = base.compose(forms) + Poly(arity, {e: cyclotomic_scalar(draw, order) for e in extra})
    return p if p else Poly.constant(arity, omega(order))


@st.composite
def homogeneous_polys(draw):
    """Homogeneous input, drawn three ways: a rational polynomial of degree
    1-4 in 1-4 variables; a product of rational linear forms, some factors
    repeated or proportional, so that some orders span less than their
    monomials and never fill up; a rational homogeneous base composed with
    linear forms over Q(w) for orders 3, 4, 5, 8 and 12."""
    kind = draw(st.sampled_from(["rational", "linear forms", "cyclotomic"]))
    if kind == "rational":
        return homogeneous_rational(draw, draw(st.integers(1, 4)), 6)
    if kind == "linear forms":
        arity = draw(st.integers(1, 4))
        coefficient = st.one_of(st.just(0), rationals())
        coefficients = st.lists(coefficient, min_size=arity, max_size=arity)
        forms = [
            sum((Poly.variable(arity, j) * c for j, c in enumerate(cs)), Poly.zero(arity))
            for cs in draw(st.lists(coefficients.filter(any), min_size=1, max_size=3))
        ]
        product = Poly.constant(arity, 1)
        for _ in range(draw(st.integers(1, 5))):
            product = product * draw(st.sampled_from(forms)) * draw(rationals())
        return product
    order = draw(st.sampled_from([3, 4, 5, 8, 12]))
    arity = draw(st.integers(1, 3))
    p = homogeneous_rational(draw, arity, 4).compose(cyclotomic_forms(draw, arity, order))
    return p if p else Poly.constant(arity, omega(order))


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

    def test_homogeneous_budget_counts_orders_up_to_half_the_degree(self):
        # orders 0..7 of x1*...*x14 hold 9,908 of the 16,384 multi-indices
        p = Poly.monomial(14, (1,) * 14)
        assert pdc_dimension(p, budget=9908) == 16384
        with pytest.raises(BudgetExceeded, match="9907 derivative multi-indices of order at most 7"):
            pdc_dimension(p, budget=9907)

    @pytest.mark.parametrize(
        "terms",
        [
            {(20,): 1},
            {(40, 0): 1, (0, 40): 3},
            {(3, 1, 0): 1, (0, 2, 2): -2, (1, 1, 2): 5},
            {(2, 0): 1, (0, 1): 1},
            {(3, 3, 0): 1, (1, 0, 0): 2},
        ],
    )
    def test_budget_is_the_count_of_reachable_multi_indices(self, terms):
        """The multi-indices within the per-variable degrees are counted up
        to order d // 2 for homogeneous input of degree d, and up to order
        d for any other; a budget of that count passes and one less
        raises."""
        p = Poly(len(next(iter(terms))), terms)
        boxes = [range(p.degree_in(i) + 1) for i in range(p.arity)]
        limit = p.total_degree() // 2 if p.is_homogeneous() else p.total_degree()
        count = sum(1 for m in itertools.product(*boxes) if sum(m) <= limit)
        pdc_dimension(p, budget=count)
        with pytest.raises(BudgetExceeded):
            pdc_dimension(p, budget=count - 1)
        with pytest.raises(BudgetExceeded):
            pdc_dimension(p, budget=min(5, count - 1))

    def test_non_homogeneous_budget_counts_orders_up_to_the_degree(self):
        # the box of x1^10 + ... + x5^10 + 1 holds 11^5 = 161,051
        # multi-indices, over the default 8,192, but every derivative of
        # order above 10 vanishes, and 3,003 of them are of order at most 10
        p = Poly(5, {**{tuple(10 * (j == i) for j in range(5)): 1 for i in range(5)}, (0,) * 5: 1})
        assert not p.is_homogeneous()
        assert pdc_dimension(p) == bfs_pdc_dimension(p) == 47
        assert pdc_dimension(p, budget=3003) == 47
        with pytest.raises(BudgetExceeded, match="3002 derivative multi-indices of order at most 10"):
            pdc_dimension(p, budget=3002)

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

    @given(homogeneous_polys())
    @settings(max_examples=80, deadline=None)
    def test_homogeneous(self, p):
        assert p.is_homogeneous()
        dimension = pdc_dimension(p)
        assert dimension == naive_pdc_dimension(p)
        assert dimension == bfs_pdc_dimension(p)


def order_ranks(p: Poly) -> list[int]:
    """The rank of each derivative order's span over the coefficient field,
    orders 0 .. total degree: every derivative by repeated `Poly.derivative`,
    one `ScalarMatrix` row per multi-index over the order's monomials."""
    multis = list(itertools.product(*[range(p.degree_in(i) + 1) for i in range(p.arity)]))
    ranks = []
    for j in range(p.total_degree() + 1):
        rows = [partial(p, multi) for multi in multis if sum(multi) == j]
        monomials = sorted({e for q in rows for e in q.terms})
        if not monomials:
            ranks.append(0)
            continue
        entries = [q.terms.get(e, 0) for q in rows for e in monomials]
        ranks.append(ScalarMatrix(len(rows), len(monomials), entries).rank())
    return ranks


class TestOrderMirror:
    """Homogeneous input of degree d: order j and order d - j span spaces of
    one dimension, so `pdc_dimension` reduces orders 0 .. d // 2 only."""

    @given(homogeneous_polys())
    @settings(max_examples=80, deadline=None)
    def test_ranks_mirror_and_the_dimension_agrees(self, p):
        ranks = order_ranks(p)
        assert ranks == ranks[::-1]
        dimension = pdc_dimension(p)
        assert dimension == sum(ranks) == bfs_pdc_dimension(p) == naive_pdc_dimension(p)

    @pytest.mark.parametrize(
        "p, ranks",
        [
            (Poly.constant(3, 5), [1]),
            (Poly.constant(2, omega(8)), [1]),
            (Poly(2, {(1, 0): 1, (0, 1): 2}), [1, 1]),
            (e_poly(1, 3) * e_poly(2, 3), [1, 3, 3, 1]),
            (Poly.monomial(2, (2, 2)), [1, 2, 3, 2, 1]),
            (e_poly(1, 3) * e_poly(2, 3) * e_poly(3, 3) * omega(5), [1, 3, 6, 7, 6, 3, 1]),
        ],
        ids=["d=0", "d=0 over Q(w)", "d=1", "odd d", "even d", "even d over Q(w)"],
    )
    def test_degrees(self, p, ranks):
        assert p.is_homogeneous()
        assert order_ranks(p) == ranks
        assert pdc_dimension(p) == sum(ranks) == naive_pdc_dimension(p)

    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_orders_above_the_middle_are_not_reduced(self, monkeypatch, degree):
        # x1^degree on 1 variable: one derivative per order, so the calls
        # count the orders reduced, 0 .. degree // 2
        calls = counted(monkeypatch, derivatives, "_add_row")
        assert pdc_dimension(Poly.monomial(1, (degree,))) == degree + 1
        assert len(calls) == degree // 2 + 1


class TestEarlyStop:
    """The rows of one derivative order lie in the span of the earlier
    orders' pivots plus the coordinate space of the monomials they touch;
    an order stops reducing once the pivots reach that span's dimension
    bound.  Pinned by the number of `_add_row` calls, which is
    deterministic."""

    def test_full_orders_stop_early(self, monkeypatch):
        # e_1 * e_2 * e_3 on 4 variables, degree 6: 144 non-zero
        # derivatives.  Orders 4..6 mirror orders 2..0 and are not reduced;
        # orders 0..3 hold 1, 4, 10 and 20 derivatives, every one reduced
        # (rank 1 + 4 + 10 + 17, so 2 * 15 + 17 = 47)
        p = e_poly(1, 4) * e_poly(2, 4) * e_poly(3, 4)
        assert nonzero_derivatives(p) == 144
        calls = counted(monkeypatch, derivatives, "_add_row")
        assert pdc_dimension(p) == 47
        assert len(calls) == 35

    def test_non_homogeneous_stops_at_full_orders(self, monkeypatch):
        # (x1 + x2 + 1)^4: the j + 1 derivatives of order j are all
        # proportional to (x1 + x2 + 1)^(4 - j), 15 in all.  Order 4 holds
        # constants, a space the 4 earlier pivots and its first row fill,
        # so its other 4 rows are skipped.
        x1, x2 = variables(2)
        p = (x1 + x2 + Poly.constant(2, 1)) ** 4
        assert nonzero_derivatives(p) == 15
        calls = counted(monkeypatch, derivatives, "_add_row")
        assert pdc_dimension(p) == 5
        assert len(calls) == 11

    def test_a_full_order_takes_no_further_derivatives(self, monkeypatch):
        # (x1 + x2 - 1) x2 (x1 + x2) (x1 - 2 x2 - 2), not homogeneous: order
        # 3 has 4 rows over the monomials 1, x1, x2 and fills up at its
        # third, so the fourth is skipped with its derivatives and order 4
        # holds 2 rows, not 3: 1 + 2 + 3 + 3 + 2 calls
        x1, x2 = variables(2)
        one = Poly.constant(2, 1)
        p = (x1 + x2 - one) * x2 * (x1 + x2) * (x1 - x2 * 2 - one * 2)
        calls = counted(monkeypatch, derivatives, "_add_row")
        assert pdc_dimension(p) == 9
        assert len(calls) == 11
        assert naive_pdc_dimension(p) == bfs_pdc_dimension(p) == 9

    def test_non_homogeneous_matches_the_single_echelon(self, monkeypatch):
        p = Poly.constant(4, 1)
        for k in (1, 2, 3):
            p = p * (e_poly(k, 4) - Poly.constant(4, k))
        assert not p.is_homogeneous()
        calls = counted(monkeypatch, derivatives, "_add_row")
        assert pdc_dimension(p) == bfs_pdc_dimension(p) == 47
        assert len(calls) <= nonzero_derivatives(p) == 144

    @pytest.mark.parametrize("order", [3, 8])
    def test_non_homogeneous_cyclotomic_adds_the_powers_of_w(self, monkeypatch, order):
        # at most one call per non-zero derivative, and deg - 1 more, the
        # rows w^i * r, for each derivative that leaves a remainder r: as
        # many as the dimension
        w = omega(order)
        x1, x2 = variables(2)
        p = (x1 + x2 * w + Poly.constant(2, 1)) ** 2 * (x1 - x2)
        assert not p.is_homogeneous()
        deg = fold_constants(order)[0]
        calls = counted(monkeypatch, derivatives, "_add_row")
        dimension = pdc_dimension(p)
        assert dimension == naive_pdc_dimension(p) == bfs_pdc_dimension(p)
        assert len(calls) <= nonzero_derivatives(p) + (deg - 1) * dimension


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
