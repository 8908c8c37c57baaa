import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit import independence
from schurkit.derivatives import product_pdc_check
from schurkit.errors import (
    ArityMismatch,
    DomainMismatch,
    GridExhausted,
    InvalidWitness,
    VerificationFailed,
)
from schurkit.field import (
    GRID_ATTEMPTS,
    CyclotomicScalar,
    Rat,
    ScalarMatrix,
    bareiss,
    omega,
    root_exponents,
    root_value_and_gradient,
    scalar_to_text,
)
from schurkit.independence import (
    h_family_witness,
    is_independence_witness,
    jacobian,
    jacobian_at,
    p_family_witness,
    roots_of_unity_witness,
    shifted_witness,
    symbolic_rank,
    witness_jacobian,
)
from schurkit.poly import Poly
from schurkit.symmetric import e_poly, h_poly, p_poly


def annihilator_exists(polys, max_degree):
    """Brute-force oracle: is there a non-zero g of total degree <= max_degree
    with g(q_1, ..., q_k) = 0?  Solved by linear algebra over the coefficients
    of all products q^kappa."""
    k = len(polys)
    arity = polys[0].arity
    exponents = [
        e
        for e in itertools.product(range(max_degree + 1), repeat=k)
        if sum(e) <= max_degree
    ]
    columns = []
    for exps in exponents:
        prod = Poly.constant(arity, 1)
        for q, e in zip(polys, exps):
            prod = prod * q**e
        columns.append(prod)
    monomials = sorted({m for col in columns for m in col.terms})
    rows = [[col.terms.get(m, Rat(0)) for col in columns] for m in monomials]
    return bareiss(rows)[0] < len(columns)


def naive_shifted_witness(polys, seed=0):
    """Reference: the two-walk search, a full `symbolic_rank` first and then
    its own seeded walk over the same grid for a non-singular point."""
    polys = list(polys)
    jac = jacobian(polys)
    k = len(polys)
    if symbolic_rank(jac, seed=seed) != k:
        raise InvalidWitness("polynomials are not algebraically independent")
    bound = 2 * independence._minor_degree_bound(jac)
    rng = random.Random(seed)
    n = polys[0].arity
    for _ in range(128):
        c = tuple(Rat(rng.randint(0, bound)) for _ in range(n))
        if jacobian_at(jac, c).rank() == k:
            return tuple(q.eval(c) for q in polys), c
    raise GridExhausted("no non-singular point found in 128 samples")


def counted_jacobian_at(monkeypatch) -> list:
    """Patch `independence.jacobian_at` to record each point it is called at."""
    points = []
    evaluate = independence.jacobian_at

    def counting(jac, point):
        points.append(tuple(point))
        return evaluate(jac, point)

    monkeypatch.setattr(independence, "jacobian_at", counting)
    return points


def outcome(search, polys, seed):
    """(shifts, point) from the search, or the type of what it raised."""
    try:
        return search(polys, seed=seed)
    except (InvalidWitness, GridExhausted) as exc:
        return type(exc)


class TestJacobian:
    def test_elementary_two_variables(self):
        jac = jacobian([e_poly(1, 2), e_poly(2, 2)])
        assert jac[0] == [Poly.constant(2, 1), Poly.constant(2, 1)]
        assert jac[1] == [Poly.variable(2, 1), Poly.variable(2, 0)]

    def test_single_square(self):
        jac = jacobian([Poly.monomial(1, (2,))])
        assert jac == [[Poly.monomial(1, (1,), 2)]]

    def test_duplicate_rows_drop_rank(self):
        q = Poly.variable(2, 0) + Poly.variable(2, 1)
        assert symbolic_rank(jacobian([q, q])) == 1


class TestSymbolicRank:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_elementary_family_has_corank_one(self, n):
        jac = jacobian([e_poly(k, n) for k in range(1, n)])
        assert symbolic_rank(jac) == n - 1

    def test_constants_have_rank_zero(self):
        assert symbolic_rank(jacobian([Poly.constant(2, 3)])) == 0

    def test_matches_annihilator_oracle(self):
        x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
        q = x1 * x1 + x2
        independent_pairs = [
            (x1, x2),
            (x1 * x1, x1 * x2),
            (q, x2 * x2),
        ]
        dependent_pairs = [
            (q, q),
            (x1 + x2, (x1 + x2) * (x1 + x2)),
            (x1 * x2, x1 * x1 * x2 * x2),
        ]
        for pair in independent_pairs:
            rank = symbolic_rank(jacobian(list(pair)))
            if rank == 2:
                assert not annihilator_exists(list(pair), 3), pair
        for pair in dependent_pairs:
            assert symbolic_rank(jacobian(list(pair))) < 2
            assert annihilator_exists(list(pair), 3), pair

    def test_random_pairs_cross_check(self):
        rng = random.Random(13)
        for _ in range(5):
            polys = []
            for _ in range(2):
                terms = {}
                for _ in range(3):
                    exps = tuple(rng.randint(0, 1) for _ in range(3))
                    terms[exps] = terms.get(exps, 0) + rng.randint(-2, 2)
                polys.append(Poly(3, terms))
            if any(p.is_zero() for p in polys):
                continue
            rank = symbolic_rank(jacobian(polys))
            if rank == 2:
                assert not annihilator_exists(polys, 3)


class TestRootsOfUnityWitness:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_families_verify(self, n):
        for builder in (roots_of_unity_witness, h_family_witness, p_family_witness):
            witness = builder(n)
            assert witness.rank == n - 1
            assert witness.jacobian == jacobian_at(jacobian(witness.polys), witness.point)
            for q in witness.polys:
                assert q.eval(witness.point) == 0

    def test_h_jacobian_off_its_closed_form_fails(self, monkeypatch):
        build = independence._family_witness

        def off_by_one_entry(n, family, name):
            witness = build(n, family, name)
            rows = witness.jacobian.to_rows()
            rows[1][2] = rows[1][2] + 1
            entries = [e for row in rows for e in row]
            jac = ScalarMatrix(len(rows), len(rows[0]), entries)
            return dataclasses.replace(witness, jacobian=jac)

        monkeypatch.setattr(independence, "_family_witness", off_by_one_entry)
        with pytest.raises(VerificationFailed, match=r"entry \(2, 2\)"):
            h_family_witness(4)

    def test_member_off_the_point_fails(self):
        def family(k, n):
            # e_1 + 1 is 1 at the roots of unity
            return e_poly(k, n) + 1 if k == 1 else e_poly(k, n)

        with pytest.raises(InvalidWitness, match="member 1 does not vanish"):
            independence._family_witness(4, family, "q")

    def test_n2_point_is_plus_minus_one(self):
        witness = roots_of_unity_witness(2)
        assert [scalar_to_text(x) for x in witness.point] == ["1", "-1"]
        assert e_poly(1, 2).eval(witness.point) == 0

    def test_top_values_order_three(self):
        point = roots_of_unity_witness(3).point
        assert e_poly(3, 3).eval(point) == 1
        assert h_poly(3, 3).eval(point) == 1
        assert p_poly(3, 3).eval(point) == 3

    def test_h_values_match_series_identity(self):
        # independent oracle: E(t) H(-t) = 1, coefficient by coefficient, in
        # scalar arithmetic at the witness
        n = 4
        point = roots_of_unity_witness(n).point
        e_values = [e_poly(k, n).eval(point) for k in range(n + 1)]
        h_values = [h_poly(k, n).eval(point) for k in range(n + 1)]
        assert h_values[0] == 1
        for k in range(1, n + 1):
            total = sum((-1) ** i * e_values[i] * h_values[k - i] for i in range(k + 1))
            assert total == 0


class TestWitnessCheck:
    def test_elementary_pair_at_witness(self):
        point = roots_of_unity_witness(3).point
        assert is_independence_witness([e_poly(1, 3), e_poly(2, 3)], point)

    def test_origin_fails_rank_condition(self):
        assert not is_independence_witness(
            [e_poly(1, 2), e_poly(2, 2)], [Rat(0), Rat(0)]
        )

    def test_nonzero_value_fails(self):
        assert not is_independence_witness([Poly.variable(1, 0)], [Rat(1)])

    @pytest.mark.parametrize("n", [3, 4])
    def test_subset_closure(self, n):
        point = roots_of_unity_witness(n).point
        family = [e_poly(k, n) for k in range(1, n)]
        for size in range(1, n):
            for subset in itertools.combinations(family, size):
                assert is_independence_witness(list(subset), point)


class TestWitnessJacobian:
    def test_returns_the_evaluated_jacobian(self):
        point = roots_of_unity_witness(4).point
        polys = [h_poly(k, 4) for k in (1, 3)]
        assert witness_jacobian(polys, point) == jacobian_at(jacobian(polys), point)

    def test_off_the_zero_set_rejected(self):
        with pytest.raises(InvalidWitness):
            witness_jacobian([e_poly(1, 2)], [Rat(1), Rat(0)])

    def test_dependent_pair_rejected(self):
        x = Poly.variable(2, 0)
        with pytest.raises(InvalidWitness):
            witness_jacobian([x, x * 2], [Rat(0), Rat(0)])


class TestJacobianMinorIdentity:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_leading_minor_is_scalar_multiple_of_difference_product(self, n):
        from schurkit.symmetric import det_poly_matrix

        jac = jacobian([e_poly(k, n) for k in range(1, n)])
        minor = [[jac[i][j] for j in range(n - 1)] for i in range(n - 1)]
        det = det_poly_matrix(minor)
        product = Poly.constant(n, 1)
        for i in range(n - 1):
            for j in range(i + 1, n - 1):
                product = product * (Poly.variable(n, i) - Poly.variable(n, j))
        ratio = det.divide_exact(product)
        assert ratio.total_degree() == 0
        assert not ratio.is_zero()


class TestShiftedWitness:
    def test_plain_variables(self):
        shifts, c = shifted_witness([Poly.variable(2, 0), Poly.variable(2, 1)], seed=3)
        assert shifts == c

    def test_degenerate_point_rejected(self):
        shifts, c = shifted_witness([Poly.monomial(2, (2, 0)), Poly.variable(2, 1)], seed=0)
        assert c[0] != 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_elementary_family(self, seed):
        polys = [e_poly(k, 3) for k in (1, 2, 3)]
        shifts, c = shifted_witness(polys, seed=seed)
        shifted = [q - Poly.constant(3, a) for q, a in zip(polys, shifts)]
        assert is_independence_witness(shifted, c)

    def test_dependent_family_rejected(self):
        q = Poly.variable(2, 0)
        with pytest.raises(InvalidWitness):
            shifted_witness([q, q], seed=0)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("family", [e_poly, h_poly, p_poly])
    def test_matches_two_walk_reference(self, family, n):
        polys = [family(k, n) for k in range(1, n + 1)]
        for seed in range(21):
            got = outcome(shifted_witness, polys, seed)
            assert got == outcome(naive_shifted_witness, polys, seed), seed
            assert isinstance(got, tuple), seed

    @pytest.mark.parametrize(
        "polys",
        [
            [Poly.variable(2, 0), Poly.variable(2, 0)],
            [Poly.variable(2, 0), Poly.variable(2, 1), Poly.variable(2, 0) * Poly.variable(2, 1)],
        ],
        ids=["x1-twice", "three-in-two-variables"],
    )
    def test_dependent_families_raise_invalid_witness(self, polys):
        for seed in range(3):
            assert outcome(shifted_witness, polys, seed) is InvalidWitness
            assert outcome(naive_shifted_witness, polys, seed) is InvalidWitness


class TestOneGridWalk:
    def test_shifted_item_evaluates_draws_plus_one_points(self, monkeypatch):
        # the two-walk search and its check evaluate 10 points here
        points = counted_jacobian_at(monkeypatch)
        polys = [e_poly(k, 6) for k in range(1, 7)]
        shifts, c = shifted_witness(polys, seed=11)
        draws = len(points)
        assert points[-1] == c
        shifted = [q - Poly.constant(6, a) for q, a in zip(polys, shifts)]
        assert is_independence_witness(shifted, c, seed=11)
        assert len(points) == draws + 1 == 4

    def test_dependent_family_stops_after_rank_trials(self, monkeypatch):
        # decided at draw RANK_TRIALS from the walk's own best rank: the
        # points symbolic_rank would evaluate are not evaluated again
        points = counted_jacobian_at(monkeypatch)
        polys = [e_poly(k, 6) for k in range(1, 6)] + [e_poly(1, 6) ** 2]
        with pytest.raises(InvalidWitness):
            shifted_witness(polys, seed=11)
        assert len(points) == independence.RANK_TRIALS

    def test_full_rank_point_needs_no_symbolic_rank(self, monkeypatch):
        def unreachable(jac, seed=0):
            raise AssertionError("symbolic_rank called")

        monkeypatch.setattr(independence, "symbolic_rank", unreachable)
        polys = [e_poly(k, 4) for k in range(1, 5)]
        shifts, c = shifted_witness(polys, seed=2)
        shifted = [q - Poly.constant(4, a) for q, a in zip(polys, shifts)]
        assert is_independence_witness(shifted, c, seed=2)
        point = roots_of_unity_witness(4).point
        assert is_independence_witness([e_poly(1, 4), e_poly(2, 4)], point)

    def test_rank_deficient_point_consults_symbolic_rank(self, monkeypatch):
        calls = []
        rank = independence.symbolic_rank

        def counting(jac, seed=0):
            calls.append(seed)
            return rank(jac, seed=seed)

        monkeypatch.setattr(independence, "symbolic_rank", counting)
        x = Poly.variable(2, 0)
        # rank 1 at the point, below min(k, n) = 2 but equal to the symbolic rank
        assert is_independence_witness([x, x], [Rat(0), Rat(5)], seed=4)
        assert calls == [4]

    def test_exact_elimination_decides_a_small_rank(self, monkeypatch):
        # every seeded point is the origin, where the Jacobian of x1^2, x2^2
        # vanishes; k * n = 4, so bareiss over the entries gives the rank 2
        def origin_only(arity, bound, seed, count=GRID_ATTEMPTS):
            for _ in range(count):
                yield (Rat(0),) * arity

        monkeypatch.setattr(independence, "grid_points", origin_only)
        polys = [Poly.variable(2, 0) ** 2, Poly.variable(2, 1) ** 2]
        assert symbolic_rank(jacobian(polys)) == 2
        with pytest.raises(GridExhausted):
            shifted_witness(polys)


def test_jacobian_at_evaluates_entrywise():
    polys = [e_poly(1, 2), e_poly(2, 2)]
    m = jacobian_at(jacobian(polys), [Rat(2), Rat(5)])
    assert m.to_rows() == [[1, 1], [5, 2]]


def rational_coefficients():
    return st.fractions(min_value=-6, max_value=6, max_denominator=12)


def cyclotomic_coefficients(order):
    return st.lists(rational_coefficients(), min_size=1, max_size=order).map(
        lambda coeffs: CyclotomicScalar(order, coeffs)
    )


@st.composite
def root_point_families(draw):
    """1-4 polys in 1-4 variables at (w^p_1, ..., w^p_n), w = omega(n) for
    n = 1..12: zero, constant, linear and general members (exponents up to
    3, so often a variable is missing and its partial is zero), with
    rational coefficients or rational and order-n ones."""
    order = draw(st.integers(1, 12))
    arity = draw(st.integers(1, 4))
    rational = rational_coefficients()
    mixed = st.one_of(rational, cyclotomic_coefficients(order))
    coefficient = draw(st.sampled_from([rational, mixed]))
    units = [tuple(int(i == j) for i in range(arity)) for j in range(arity)]
    shapes = {
        "zero": st.just({}),
        "constant": coefficient.map(lambda c: {(0,) * arity: c}),
        "linear": st.dictionaries(st.sampled_from([(0,) * arity] + units), coefficient),
        "general": st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * arity), coefficient, min_size=1, max_size=6
        ),
    }
    polys = [
        Poly(arity, draw(shapes[draw(st.sampled_from(sorted(shapes)))]))
        for _ in range(draw(st.integers(1, 4)))
    ]
    w = omega(order)
    exponents = draw(st.lists(st.integers(0, order - 1), min_size=arity, max_size=arity))
    return polys, [w**p for p in exponents]


def vanishing(polys, point):
    """Each poly minus its value at the point."""
    return [q - Poly.constant(q.arity, q.eval(point)) for q in polys]


def kinds(matrix):
    return [(type(x), getattr(x, "order", None)) for x in matrix.entries]


class TestOnePassJacobian:
    """At a root-of-unity point the values and the Jacobian come from one
    pass over each poly's terms; `q.eval` and `jacobian_at(jacobian(polys),
    point)` are the reference."""

    @given(root_point_families())
    @settings(max_examples=200, deadline=None)
    def test_one_pass_matches_the_derivative_route(self, case):
        polys, point = case
        order, exponents = root_exponents(point)
        for q in polys:
            value, gradient = root_value_and_gradient(q.terms, order, exponents)
            assert value == q.eval(point)
            assert gradient == [q.derivative(j).eval(point) for j in range(q.arity)]

    @given(root_point_families())
    @settings(max_examples=200, deadline=None)
    def test_matrix_matches_the_reference_in_value_and_kind(self, case):
        polys, point = case
        polys = vanishing(polys, point)
        got = independence._jacobian_at_common_zero(polys, point)
        expected = jacobian_at(jacobian(polys), point)
        assert got == expected
        assert got.order == expected.order
        assert kinds(got) == kinds(expected)

    def test_zero_partials_and_constant_members(self):
        x1, x2, x3 = (Poly.variable(3, i) for i in range(3))
        point = [omega(5) ** p for p in (0, 2, 4)]
        polys = vanishing([x1 * x1 * x2, Poly.zero(3), x2 * x2 - x1 * x3, x1 + x2], point)
        got = independence._jacobian_at_common_zero(polys, point)
        assert got == jacobian_at(jacobian(polys), point)
        assert kinds(got) == kinds(jacobian_at(jacobian(polys), point))
        assert got.entry(0, 2) == 0 and list(got.row(1)) == [0, 0, 0]

    def test_linear_members_keep_a_rational_matrix(self):
        # every partial is a rational constant: the matrix stays over Q, as
        # the derivative route gives it
        polys = [e_poly(1, 2)]
        jac = witness_jacobian(polys, roots_of_unity_witness(2).point)
        assert jac.order is None
        assert kinds(jac) == [(Rat, None), (Rat, None)]

    def test_root_points_build_no_derivative_poly(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("derivative route taken")

        monkeypatch.setattr(independence, "jacobian", unreachable)
        monkeypatch.setattr(independence, "jacobian_at", unreachable)
        for n in range(3, 7):
            for builder in (roots_of_unity_witness, h_family_witness, p_family_witness):
                assert builder(n).rank == n - 1
        point = roots_of_unity_witness(4).point
        assert is_independence_witness([e_poly(2, 4), e_poly(3, 4)], point)
        report = product_pdc_check([e_poly(k, 4) for k in (1, 2, 3)], point)
        assert report.dimension == 47

    @pytest.mark.parametrize("other", ["rational", "all rational", "w+1", "w/2", "2w"])
    def test_other_points_take_the_derivative_route(self, monkeypatch, other):
        def unreachable(*args, **kwargs):
            raise AssertionError("one-pass route taken")

        monkeypatch.setattr(independence, "root_value_and_gradient", unreachable)
        calls = counted_jacobian_at(monkeypatch)
        w = omega(6)
        point = [w, w**2, w**3]
        point[1] = {
            "rational": Rat(1),
            "all rational": Rat(1),
            "w+1": w + 1,
            "w/2": point[1] / 2,
            "2w": w * 2,
        }[other]
        if other == "all rational":
            point = [Rat(2), Rat(1), Rat(-3, 2)]
        polys = vanishing([e_poly(2, 3), h_poly(2, 3), p_poly(3, 3)], point)
        got = independence._jacobian_at_common_zero(polys, point)
        assert calls == [tuple(point)]
        assert got == jacobian_at(jacobian(polys), point)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_a_coefficient_of_another_order_raises(self, degree):
        x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
        member = (x1 if degree == 1 else x1 * x2) * omega(3)
        point = roots_of_unity_witness(2).point
        with pytest.raises(DomainMismatch):
            witness_jacobian([x1 + x2, member], point)
        with pytest.raises(DomainMismatch):
            is_independence_witness([x1 + x2, member], point)
        with pytest.raises(DomainMismatch):
            root_value_and_gradient((x1 * x2 * omega(3)).terms, 2, [0, 1])

    def test_a_member_that_does_not_vanish_is_found_first(self):
        # member 1 fails before member 2, whose coefficient is of another
        # order, is read
        point = roots_of_unity_witness(3).point
        foreign = e_poly(2, 3) * omega(5)
        with pytest.raises(InvalidWitness, match="member 1 does not vanish"):
            witness_jacobian([e_poly(1, 3) + 1, foreign], point)
        assert not is_independence_witness([e_poly(1, 3) + 1, foreign], point)

    def test_invalid_witness_messages(self):
        point = roots_of_unity_witness(4).point
        with pytest.raises(InvalidWitness) as raised:
            witness_jacobian([h_poly(1, 4), h_poly(2, 4) + 1], point)
        assert str(raised.value) == (
            "the point is not a common zero of the family: member 2 does not vanish"
        )
        with pytest.raises(InvalidWitness) as raised:
            witness_jacobian([h_poly(2, 4), h_poly(2, 4) * 3], point)
        assert str(raised.value) == "Jacobian rank at the point is below the family size"

    def test_arity_is_checked_member_by_member(self):
        point = roots_of_unity_witness(4).point
        with pytest.raises(ArityMismatch):
            witness_jacobian([h_poly(2, 3)], point)
        with pytest.raises(ArityMismatch):
            witness_jacobian([h_poly(2, 4), h_poly(2, 3)], point)
        with pytest.raises(ValueError, match="at least one"):
            witness_jacobian([], point)
