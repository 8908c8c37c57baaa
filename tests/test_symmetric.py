import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurkit.errors import (
    ArityMismatch,
    DomainMismatch,
    LengthMismatch,
    NotContained,
    NotSymmetric,
)
from schurkit.field import CyclotomicScalar, Rat, common_order, omega
from schurkit.partitions import Partition, partitions_up_to_weight, staircase
from schurkit.poly import Poly
from schurkit.symmetric import (
    _band_labels,
    _e_images,
    _h_images,
    _jacobi_trudi_partitions,
    _rearrangements,
    all_distinct,
    det_poly_matrix,
    distinct_label_family,
    e_in_h_basis,
    e_in_p_basis,
    e_poly,
    express_in_e_basis,
    generalized_vandermonde,
    h_poly,
    h_product_sum,
    is_symmetric,
    jacobi_trudi_labels,
    p_poly,
    scaled_staircase_partition,
    scaled_staircase_schur,
    schur_bialternant,
    schur_jt_e,
    schur_jt_h,
    schur_partition_form,
    schur_ssyt,
    schur_term_count,
    signed_permutations,
    skew_schur_h,
)

from helpers import (
    coefficient_kinds,
    divide_bialternant,
    elementary_symmetric_formula,
    packed_jacobi_trudi,
    symmetrize,
)

ROUTES = (schur_bialternant, schur_jt_h, schur_jt_e, schur_ssyt)


def difference_product(n):
    """prod over i < j of (x_i - x_j)."""
    out = Poly.constant(n, 1)
    for i in range(n):
        for j in range(i + 1, n):
            out = out * (Poly.variable(n, i) - Poly.variable(n, j))
    return out


def kostka(lam, content):
    """Oracle: the column-strict fillings of shape lam with the given content
    (of weight |lam|), counted by a search that spends the content."""
    remaining = list(content)
    cells = [(r, c) for r, row_len in enumerate(lam.parts) for c in range(row_len)]
    grid = [[0] * row_len for row_len in lam.parts]

    def fill(pos):
        if pos == len(cells):
            return 1
        r, c = cells[pos]
        low = grid[r][c - 1] if c > 0 else 1
        if r > 0:
            low = max(low, grid[r - 1][c] + 1)
        found = 0
        for v in range(low, len(remaining) + 1):
            if remaining[v - 1]:
                grid[r][c] = v
                remaining[v - 1] -= 1
                found += fill(pos + 1)
                remaining[v - 1] += 1
        grid[r][c] = 0
        return found

    return fill(0)


def naive_ssyt(lam, n):
    """Reference: the tableau route by enumeration, a depth-first fill of
    the cells row by row that counts the content of every tableau."""
    if lam.length > n:
        return Poly.zero(n)
    cells = [(r, c) for r, row_len in enumerate(lam.parts) for c in range(row_len)]
    grid = [[0] * row_len for row_len in lam.parts]
    content = [0] * n
    counts = {}

    def fill(pos):
        if pos == len(cells):
            counts[tuple(content)] = counts.get(tuple(content), 0) + 1
            return
        r, c = cells[pos]
        low = grid[r][c - 1] if c > 0 else 1
        if r > 0:
            low = max(low, grid[r - 1][c] + 1)
        for v in range(low, n + 1):
            grid[r][c] = v
            content[v - 1] += 1
            fill(pos + 1)
            content[v - 1] -= 1
        grid[r][c] = 0

    fill(0)
    return Poly(n, counts)


def memo_det_poly_matrix(rows):
    """Reference: cofactor recursion along the first free row, each minor
    memoized on its tuple of free columns."""
    m = len(rows)
    zero = Poly.zero(rows[0][0].arity)
    memo = {(): Poly.constant(zero.arity, 1)}

    def minor(cols):
        if cols in memo:
            return memo[cols]
        row = rows[m - len(cols)]
        acc = zero
        for pos, j in enumerate(cols):
            if row[j].is_zero():
                continue
            sub = minor(cols[:pos] + cols[pos + 1 :])
            if sub.is_zero():
                continue
            term = row[j] * sub
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    return minor(tuple(range(m)))


SMALL_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-2, 2), max_size=3
).map(lambda terms: Poly(2, terms))


def wide_polys(order):
    """Entries over 2 variables whose coefficients are rationals of several
    denominators, numerators near 2^200 and, for an order, cyclotomic
    values of that order mixed with rationals."""
    huge = st.builds(
        lambda sign, low, den: Rat(sign * (2**200 + low), den),
        st.sampled_from((-1, 1)),
        st.integers(0, 2**64),
        st.integers(1, 7),
    )
    small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    scalars = [small, huge]
    if order is not None:
        scalars.append(
            st.lists(small, min_size=1, max_size=order).map(
                lambda cs: CyclotomicScalar(order, cs)
            )
        )
    return st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), st.one_of(*scalars), max_size=3
    ).map(lambda terms: Poly(2, terms))


@st.composite
def poly_matrices(draw, wide=False):
    """Square matrices of up to 5 rows over 2 variables; about one entry in
    three is zero, and half of them have a row that is a multiple of
    another, so every minor holding both rows cancels to zero.  Entries
    have small integer coefficients, or with `wide` the coefficients of
    `wide_polys` for one drawn order (None, 3, 5 or 8)."""
    polys = SMALL_POLYS
    if wide:
        polys = wide_polys(draw(st.sampled_from([None, 3, 5, 8])))
    m = draw(st.integers(1, 5))
    entry = st.one_of(st.just(Poly.zero(2)), polys)
    rows = [[draw(entry) for _ in range(m)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        a, b = draw(st.permutations(range(m)))[:2]
        factor = draw(polys)
        rows[b] = [factor * e for e in rows[a]]
    return rows


class TestClassicalBases:
    def test_examples(self):
        x1x2 = Poly.monomial(3, (1, 1, 0))
        x1x3 = Poly.monomial(3, (1, 0, 1))
        x2x3 = Poly.monomial(3, (0, 1, 1))
        assert e_poly(2, 3) == x1x2 + x1x3 + x2x3
        assert e_poly(3, 2).is_zero()
        assert e_poly(0, 4) == Poly.constant(4, 1)
        assert h_poly(2, 2) == Poly(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
        assert h_poly(0, 2) == Poly.constant(2, 1)
        assert p_poly(3, 2) == Poly(2, {(3, 0): 1, (0, 3): 1})

    def test_degrees(self):
        for k in range(1, 5):
            assert e_poly(k, 5).is_homogeneous()
            assert h_poly(k, 3).total_degree() == k
            assert p_poly(k, 3).total_degree() == k


class TestGeneralizedVandermonde:
    def test_two_variable_example(self):
        assert generalized_vandermonde((1, 0), 2) == Poly(2, {(1, 0): 1, (0, 1): -1})
        assert generalized_vandermonde((2, 0), 2) == Poly(2, {(2, 0): 1, (0, 2): -1})

    @pytest.mark.parametrize("n", range(2, 6))
    def test_staircase_equals_difference_product(self, n):
        assert generalized_vandermonde(staircase(n), n) == difference_product(n)

    def test_rejects_non_decreasing(self):
        with pytest.raises(ValueError):
            generalized_vandermonde((1, 1), 2)


class TestSchurRoutes:
    def test_column_shape_gives_elementary(self):
        assert schur_bialternant(Partition((1, 1)), 2) == Poly.monomial(2, (1, 1))
        assert schur_jt_h(Partition((1, 1)), 3) == e_poly(2, 3)

    def test_row_shape_gives_homogeneous(self):
        for d in range(1, 4):
            assert schur_bialternant(Partition((d,)), 3) == h_poly(d, 3)

    def test_single_box(self):
        assert schur_jt_h(Partition((1,)), 4) == h_poly(1, 4)
        assert schur_jt_e(Partition((1,)), 4) == e_poly(1, 4)

    def test_hook_shape_two_variables(self):
        expected = Poly(2, {(2, 1): 1, (1, 2): 1})
        assert schur_bialternant(Partition((2, 1)), 2) == expected
        assert schur_ssyt(Partition((2, 1)), 2) == expected

    def test_routes_agree_small(self):
        for parts in [(2,), (1, 1), (2, 1), (3, 1), (2, 2)]:
            lam = Partition(parts)
            for n in range(lam.length, 5):
                values = [route(lam, n) for route in ROUTES]
                assert all(v == values[0] for v in values), (parts, n)

    def test_empty_partition_is_one(self):
        lam = Partition(())
        for route in ROUTES:
            assert route(lam, 3) == Poly.constant(3, 1)

    def test_ssyt_vanishes_when_too_few_variables(self):
        assert schur_ssyt(Partition((1, 1, 1)), 2).is_zero()

    def test_bialternant_needs_enough_variables(self):
        with pytest.raises(LengthMismatch):
            schur_bialternant(Partition((1, 1, 1)), 2)

    def test_symmetry_and_homogeneity(self):
        rng = random.Random(5)
        lam = Partition((3, 1))
        s = schur_jt_h(lam, 4)
        assert s.is_homogeneous()
        assert s.total_degree() == lam.weight
        for _ in range(5):
            perm = list(range(4))
            rng.shuffle(perm)
            assert s.permute_vars(perm) == s


#: partitions of weight <= 10 with at most 6 parts, the empty one included
SHORT_PARTITIONS = [Partition(())] + [lam for lam in partitions_up_to_weight(10) if lam.length <= 6]


class TestBialternantOnOrbits:
    """`schur_bialternant` divides on the alternants' strictly decreasing
    exponents; `divide_bialternant` divides their Leibniz expansions."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(SHORT_PARTITIONS).flatmap(
            lambda lam: st.tuples(st.just(lam), st.integers(max(1, lam.length), 6))
        )
    )
    @example((Partition(()), 1))
    @example((Partition(()), 6))
    @example((Partition((4, 3, 2, 1)), 6))
    def test_matches_the_leibniz_division(self, case):
        lam, n = case
        got, want = schur_bialternant(lam, n), divide_bialternant(lam, n)
        assert got == want
        assert hash(got) == hash(want)
        assert all(type(c) is Fraction for c in got.terms.values())
        assert got.to_text() == want.to_text()

    @pytest.mark.parametrize("route", [schur_bialternant, divide_bialternant])
    @pytest.mark.parametrize("parts, n", [((1, 1, 1), 2), ((5, 4, 3, 2, 1, 1, 1), 6), ((1,), 0)])
    def test_a_partition_longer_than_n_is_refused(self, route, parts, n):
        with pytest.raises(LengthMismatch):
            route(Partition(parts), n)

    @pytest.mark.parametrize(
        "values", [(), (0,), (2, 1, 0), (1, 1, 0, 0), (3, 1, 1, 0, 0, 0), (2, 2, 2), (0,) * 40]
    )
    def test_rearrangements_are_the_distinct_ones(self, values):
        got = _rearrangements(values)
        assert len(set(got)) == len(got)
        assert all(sorted(beta) == sorted(values) for beta in got)
        multiplicities = map(math.factorial, Counter(values).values())
        assert len(got) == math.factorial(len(values)) // math.prod(multiplicities)


#: partitions of weight <= 8, the empty one included
PARTITIONS_TO_8 = [Partition(())] + list(partitions_up_to_weight(8))

#: (lam, mu) with mu inside lam, |lam| <= 8
SKEW_PAIRS_TO_8 = [(lam, mu) for lam in PARTITIONS_TO_8 for mu in PARTITIONS_TO_8 if lam.contains(mu)]


def monomial_symmetric(nu, n):
    """m_nu in n variables: one monomial per distinct rearrangement."""
    exps = tuple(nu) + (0,) * (n - len(nu))
    return Poly(n, {beta: 1 for beta in set(itertools.permutations(exps))})


class TestDeterminantsOnPartitions:
    """`schur_jt_h`, `schur_jt_e` and `skew_schur_h` multiply minors on
    coefficients of partitions; `packed_jacobi_trudi` runs
    `det_poly_matrix` over the full h and e polynomials."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PARTITIONS_TO_8), st.integers(1, 6))
    @example(Partition(()), 1)
    @example(Partition((8,)), 6)  # e-labels 1..8, past n
    @example(Partition((1,) * 8), 6)  # h-labels down to -6, and past the length
    @example(Partition((3, 3, 2)), 2)
    def test_straight_shapes_equal_the_packed_determinant(self, lam, n):
        got = schur_jt_h(lam, n)
        assert got == packed_jacobi_trudi(jacobi_trudi_labels(lam), n)
        assert schur_jt_e(lam, n) == packed_jacobi_trudi(jacobi_trudi_labels(lam.conjugate()), n, e_poly)
        assert all(type(c) is Fraction for c in got.terms.values())

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(SKEW_PAIRS_TO_8), st.integers(1, 6))
    @example((Partition((2, 2)), Partition((2,))), 3)  # label -1, a zero entry
    @example((Partition((4, 3, 1)), Partition((2, 1))), 4)
    @example((Partition((3, 3)), Partition((3, 3))), 2)  # labels 0 and below
    def test_skew_shapes_equal_the_packed_determinant(self, pair, n):
        lam, mu = pair
        assert skew_schur_h(lam, mu, n) == packed_jacobi_trudi(jacobi_trudi_labels(lam, mu), n)

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("a", range(4))
    def test_images_are_the_monomial_coefficients_of_products(self, a, n):
        for nu in [(), (1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1, 1), (2, 2, 1, 1)]:
            if len(nu) > n:
                continue
            m_nu = monomial_symmetric(nu, n)
            for images, entry in ((_h_images, h_poly), (_e_images, e_poly)):
                product = (m_nu * entry(a, n)).terms
                want = {e: int(c) for e, c in product.items() if list(e) == sorted(e, reverse=True)}
                got = {mu + (0,) * (n - len(mu)): count for mu, count in images(nu, a, n)}
                assert got == want, (images.__name__, nu, a, n)

    def test_a_huge_part_on_one_variable_is_one_image(self):
        huge = 10**20
        assert _h_images((), huge, 1) == (((huge,), 1),)
        assert _h_images((3,), huge, 1) == (((huge + 3,), 1),)

    def test_a_label_past_the_index_type_is_refused(self):
        with pytest.raises(OverflowError):
            schur_jt_h(Partition((10**20,)), 1)

    def test_no_variables_is_refused(self):
        with pytest.raises(ValueError):
            schur_jt_h(Partition((1,)), 0)


class TestKostka:
    """Kostka counts are the coefficients of the ssyt route."""

    def test_examples(self):
        assert schur_ssyt(Partition((1, 1)), 2).terms[(1, 1)] == 1
        assert schur_ssyt(Partition((2, 1)), 3).terms[(1, 1, 1)] == 2
        assert schur_ssyt(Partition((2,)), 1).terms[(2,)] == 1

    def test_weight_mismatch(self):
        # a content whose weight is not |lam| counts no filling
        assert (1, 1) not in schur_ssyt(Partition((2, 1)), 2).terms

    def test_matches_schur_coefficients(self):
        for parts in [(2, 1), (3, 1), (2, 2, 1)]:
            lam = Partition(parts)
            s = schur_ssyt(lam, 3)
            for exps in itertools.product(range(lam.weight + 1), repeat=3):
                if sum(exps) == lam.weight:
                    assert s.terms.get(exps, 0) == kostka(lam, exps)


class TestTableauRoute:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(list(partitions_up_to_weight(8))), st.integers(1, 5))
    def test_branching_rule_matches_enumeration(self, lam, n):
        assert schur_ssyt(lam, n) == naive_ssyt(lam, n)


def recreated_key_matrix():
    """A 3 x 3 matrix whose cofactor sum along the first row starts with
    -x*y^3 - x^2*y^3, cancels x*y^3 with its second term and makes it again
    with its third, so x*y^3 comes last; a sum that drops zero keys only at
    the end would keep it first."""
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    zero = Poly.zero(2)
    return [[x * y, -x * y, x * y], [y, -y - x * y, zero], [zero, -y, y]]


class TestDetPolyMatrix:
    @settings(max_examples=150, deadline=None)
    @given(poly_matrices())
    @example(recreated_key_matrix())
    def test_matches_memoized_recursion(self, rows):
        # the same products, summed in the same order
        got = det_poly_matrix(rows)
        want = memo_det_poly_matrix(rows)
        assert list(got.terms.items()) == list(want.terms.items())

    @settings(max_examples=100, deadline=None)
    @given(poly_matrices(wide=True))
    def test_wide_entries_match_memoized_recursion(self, rows):
        got = det_poly_matrix(rows)
        assert got == memo_det_poly_matrix(rows)
        # the kind rule: all rational, or all of the entries' one order
        order = common_order(*(e.terms.values() for row in rows for e in row))
        kind = (type(Rat(1)), None) if order is None else (CyclotomicScalar, order)
        assert coefficient_kinds(got.terms) == dict.fromkeys(got.terms, kind)

    def test_mixed_kinds_come_out_cyclotomic(self):
        # the recursion in Poly arithmetic leaves x^2 rational here
        w = omega(5)
        x = Poly.variable(1, 0)
        one, zero = Poly.constant(1, 1), Poly.zero(1)
        rows = [[x * x, Poly.constant(1, w)], [zero, one]]
        want = memo_det_poly_matrix(rows)
        assert coefficient_kinds(want.terms) == {(2,): (type(Rat(1)), None)}
        got = det_poly_matrix(rows)
        assert got == want
        assert coefficient_kinds(got.terms) == {(2,): (CyclotomicScalar, 5)}

    def test_entries_of_two_arities(self):
        rows = [[Poly.variable(2, 0), Poly.variable(2, 1)], [Poly.variable(3, 0), Poly.variable(3, 2)]]
        with pytest.raises(ArityMismatch):
            memo_det_poly_matrix(rows)
        with pytest.raises(ArityMismatch):
            det_poly_matrix(rows)

    def test_entries_of_two_orders(self):
        rows = [
            [Poly.constant(1, omega(3)), Poly.constant(1, 1)],
            [Poly.constant(1, 1), Poly.constant(1, omega(5))],
        ]
        with pytest.raises(DomainMismatch):
            memo_det_poly_matrix(rows)
        with pytest.raises(DomainMismatch):
            det_poly_matrix(rows)

    def test_empty_matrix(self):
        with pytest.raises(ValueError):
            det_poly_matrix([])


@pytest.mark.parametrize("ell", range(6))
def test_signed_permutations_are_lexicographic_with_inversion_signs(ell):
    want = []
    for sigma in itertools.permutations(range(ell)):
        inversions = sum(
            sigma[i] > sigma[j] for i in range(ell) for j in range(i + 1, ell)
        )
        want.append((sigma, Rat((-1) ** inversions)))
    assert signed_permutations(range(ell)) == want


class TestSkew:
    def test_empty_inner_reduces_to_straight(self):
        for parts in [(2, 1), (3, 2), (2, 2)]:
            lam = Partition(parts)
            assert skew_schur_h(lam, Partition(()), 3) == schur_jt_h(lam, 3)

    def test_examples(self):
        h1 = h_poly(1, 2)
        assert skew_schur_h(Partition((1, 1)), Partition((1,)), 2) == h1
        assert skew_schur_h(Partition((2,)), Partition((1,)), 2) == h1

    def test_not_contained(self):
        with pytest.raises(NotContained):
            skew_schur_h(Partition((2, 1)), Partition((3,)), 3)

    def test_labels(self):
        assert jacobi_trudi_labels(Partition((5, 3)), Partition((1,))) == [
            [4, 6],
            [1, 3],
        ]
        assert jacobi_trudi_labels(Partition((2, 2))) == [[2, 3], [1, 2]]
        assert not all_distinct(jacobi_trudi_labels(Partition((2, 2))))

    def test_distinct_label_family(self):
        lam, mu = distinct_label_family(2, 1)
        assert (lam.parts, mu.parts) == ((5, 3), (1,))
        for l in (2, 3, 4):
            for mu1 in (1, 2):
                lam, mu = distinct_label_family(l, mu1)
                assert lam.contains(mu)
                assert all_distinct(jacobi_trudi_labels(lam, mu))


class TestScaledStaircase:
    @pytest.mark.parametrize("step,n", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_matches_bialternant(self, step, n):
        lam = scaled_staircase_partition(step, n)
        assert scaled_staircase_schur(step, n) == schur_bialternant(lam, n)

    def test_smallest_case_closed_form(self):
        expected = Poly(2, {(2, 1): 1, (1, 2): 1})
        assert scaled_staircase_schur(1, 2) == expected
        assert schur_ssyt(Partition((2, 1)), 2) == expected


class TestBasisConversions:
    def test_first_conversions_are_identity(self):
        assert e_in_h_basis(1, 3) == Poly.variable(1, 0)
        assert e_in_p_basis(1, 3) == Poly.variable(1, 0)

    def test_second_conversions(self):
        h1sq_minus_h2 = Poly(2, {(2, 0): 1, (0, 1): -1})
        assert e_in_h_basis(2, 3) == h1sq_minus_h2
        assert e_in_p_basis(2, 3) == Poly(2, {(2, 0): Rat(1, 2), (0, 1): Rat(-1, 2)})

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_substitution_reproduces_elementary(self, k):
        n = max(k, 4)
        hs = [h_poly(j, n) for j in range(1, k + 1)]
        ps = [p_poly(j, n) for j in range(1, k + 1)]
        assert e_in_h_basis(k, n).compose(hs) == e_poly(k, n)
        assert e_in_p_basis(k, n).compose(ps) == e_poly(k, n)

    def test_express_examples(self):
        assert express_in_e_basis(p_poly(2, 2)) == Poly(2, {(2, 0): 1, (0, 1): -2})
        assert express_in_e_basis(e_poly(2, 3)) == Poly.variable(3, 1)
        assert express_in_e_basis(h_poly(2, 2)) == Poly(2, {(2, 0): 1, (0, 1): -1})

    def test_express_rejects_non_symmetric(self):
        with pytest.raises(NotSymmetric):
            express_in_e_basis(Poly.variable(2, 0))

    def test_express_round_trip_on_symmetrized_inputs(self):
        rng = random.Random(9)
        inputs = [
            Poly(1, {(3,): Rat(2), (0,): Rat(-1, 2)}),
            symmetrize(Poly(3, {(2, 1, 0): omega(3), (1, 1, 0): Rat(1, 3) - omega(3)})),
        ]
        for _ in range(5):
            n = rng.randint(2, 3)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = tuple(rng.randint(0, 2) for _ in range(n))
                terms[exps] = Rat(rng.randint(-3, 3))
            inputs.append(symmetrize(Poly(n, terms)))
        for f in inputs:
            if f.is_zero():
                continue
            assert is_symmetric(f)
            g = express_in_e_basis(f)
            assert g.compose([e_poly(j, f.arity) for j in range(1, f.arity + 1)]) == f


class TestElementaryFormula:
    def test_zeroth_is_constant_one(self):
        assert elementary_symmetric_formula(0, 2).expand() == Poly.constant(2, 1)

    @pytest.mark.parametrize("k,n", [(1, 2), (2, 3), (3, 3)])
    def test_expansion_matches(self, k, n):
        f = elementary_symmetric_formula(k, n)
        assert f.expand() == e_poly(k, n)
        assert f.depth() == 3


def test_route_agreement_weight_four():
    for lam in partitions_up_to_weight(4):
        for n in range(max(lam.length, 1), 5):
            if lam.length > n:
                continue
            values = [route(lam, n) for route in ROUTES]
            assert all(v == values[0] for v in values), (lam.parts, n)


class TestPartitionForms:
    """s_lambda on the coefficients of partitions, and its term count."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_term_count_is_exact(self, n):
        for lam in partitions_up_to_weight(7):
            terms = len(schur_jt_h(lam, n).terms)
            assert schur_term_count(lam, n, terms) == terms
            # past the limit the count stops, above it
            assert terms == 0 or schur_term_count(lam, n, terms - 1) > terms - 1

    def test_term_count_stops_past_the_limit(self):
        # s_(500,2) on 502 variables: lambda's own 502 * 501
        # rearrangements come first
        assert schur_term_count(Partition((500, 2)), 502, 1000) == 502 * 501

    @pytest.mark.parametrize("n", range(1, 7))
    def test_e_and_h_forms_agree(self, n):
        for lam in partitions_up_to_weight(7):
            if lam.length:
                h_form = _jacobi_trudi_partitions(_band_labels(lam, math.inf), n)
                assert schur_partition_form(lam, n) == h_form

    def test_h_product_sum(self):
        # s_(2,1) = h_2 h_1 - h_3, and the empty product is 1
        n = 3
        form = h_product_sum([(1, [2, 1]), (-1, [3])], n)
        assert form == schur_partition_form(Partition((2, 1)), n)
        assert h_product_sum([(Rat(5), [])], n) == {(): 5}
        assert h_product_sum([(1, [1]), (-1, [1])], n) == {}
