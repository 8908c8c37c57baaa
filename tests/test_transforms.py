import inspect
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit import circuits, independence, poly, transforms
from schurkit.circuits import (
    Formula,
    const,
    det_abp,
    formula_from_poly,
    inp,
    prod_node,
    sum_node,
)
from schurkit.errors import (
    BudgetExceeded,
    InvalidWitness,
    NotDivisible,
    NotReducible,
    ReductionMismatch,
    VerificationFailed,
)
from schurkit.field import Rat, ScalarMatrix
from schurkit.independence import h_family_witness, roots_of_unity_witness
from schurkit.partitions import Partition, partitions_of, staircase
from schurkit.poly import Poly
from schurkit.symmetric import (
    det_poly_matrix,
    e_poly,
    generalized_vandermonde,
    h_poly,
    jacobi_trudi_labels,
    schur_bialternant,
    schur_jt_h,
    schur_term_count,
)
from schurkit.transforms import (
    _check_leibniz_input,
    _lowest_component,
    _recover_traced,
    det_poly,
    divide_formula,
    homogeneous_component_formula,
    jacobi_trudi_formula,
    recover_outer_formula,
    reduction_hypothesis_holds,
    schur_to_det_reduce,
    shift_formula,
)

from helpers import counted, counted_walks, leibniz_mutants, random_formula


def one_plus_x_product():
    return Formula(
        prod_node(
            [sum_node([const(1), inp(0)]), sum_node([const(1), inp(1)])]
        ),
        2,
    )


class TestHomogeneousExtraction:
    def test_degree_one(self):
        f = one_plus_x_product()
        assert homogeneous_component_formula(f, 1).expand() == Poly(
            2, {(1, 0): 1, (0, 1): 1}
        )

    def test_degree_zero(self):
        f = one_plus_x_product()
        assert homogeneous_component_formula(f, 0).expand() == Poly.constant(2, 1)

    def test_beyond_size_is_zero(self):
        f = one_plus_x_product()
        assert homogeneous_component_formula(f, f.size() + 1).expand().is_zero()

    def test_completeness_and_size_growth(self):
        rng = random.Random(21)
        for _ in range(8):
            f = random_formula(rng, arity=2)
            expansion = f.expand()
            total = Poly.zero(2)
            for d in range(f.size() + 1):
                g = homogeneous_component_formula(f, d)
                component = g.expand()
                assert component.is_homogeneous()
                assert g.size() <= 8 * f.size() ** 2
                assert g.depth() <= f.depth() + 2
                total = total + component
                if d > expansion.total_degree() >= 0:
                    assert component.is_zero()
            assert total == expansion

    def test_copies_stop_at_structural_degree(self):
        # (1 + x)(1 + y) has structural degree 2: three scaled copies,
        # t = 0..2, not one per node of the formula
        f = one_plus_x_product()
        assert f.degree() == 2
        g = homogeneous_component_formula(f, 1)
        assert g.expand() == Poly(2, {(1, 0): 1, (0, 1): 1})
        assert len(g.root.children) == 3
        assert g.size() == 3 * (f.size() + 2) + 1


class TestShift:
    def test_square(self):
        f = Formula(prod_node([inp(0), inp(0)]), 1)
        assert shift_formula(f, [1]).expand() == Poly(1, {(2,): 1, (1,): 2, (0,): 1})

    def test_zero_shift_is_identity(self):
        f = one_plus_x_product()
        g = shift_formula(f, [0, 0])
        assert g.expand() == f.expand()
        assert g.size() == f.size()

    def test_product_shift(self):
        f = Formula(prod_node([inp(0), inp(1)]), 2)
        expected = Poly(2, {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1})
        assert shift_formula(f, [1, 1]).expand() == expected


class TestDivideFormula:
    def test_difference_of_squares(self):
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        p = formula_from_poly(x * x - y * y)
        r = formula_from_poly(x - y)
        assert divide_formula(p, r, 1).expand() == x + y

    def test_divide_by_one(self):
        p = one_plus_x_product()
        r = Formula(const(1), 2)
        assert divide_formula(p, r, 2).expand() == p.expand()

    def test_bialternant_pair(self):
        lam = Partition((1, 1))
        n = 2
        shifted = tuple(lam.part(j) + staircase(n)[j] for j in range(n))
        p = formula_from_poly(generalized_vandermonde(shifted, n))
        r = formula_from_poly(generalized_vandermonde(staircase(n), n))
        q = divide_formula(p, r, lam.weight)
        assert q.expand() == schur_bialternant(lam, n)

    def test_not_divisible(self):
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        with pytest.raises(NotDivisible):
            divide_formula(formula_from_poly(x * x + y), formula_from_poly(x + y), 2)

    def test_product_round_trip(self):
        rng = random.Random(17)
        done = 0
        while done < 6:
            p = random_formula(rng, arity=2, max_depth=3)
            r = random_formula(rng, arity=2, max_depth=2)
            r_poly = r.expand()
            if r_poly.is_zero():
                continue
            product = Formula(prod_node([p.root, r.root]), 2)
            bound = max(p.expand().total_degree(), 0)
            assert divide_formula(product, r, bound, seed=done).expand() == p.expand()
            done += 1


class TestRecoverOuter:
    def setup_method(self):
        self.witness = roots_of_unity_witness(3)
        self.inner = [e_poly(1, 3), e_poly(2, 3)]
        self.e_formulas = {i: formula_from_poly(q) for i, q in enumerate(self.inner)}

    def compose(self, g: Formula) -> Formula:
        return g.substitute(self.e_formulas)

    def test_product_of_two(self):
        g = Formula(prod_node([inp(0), inp(1)]), 2)
        recovered = recover_outer_formula(
            self.compose(g), self.inner, 2, self.witness.point
        )
        assert recovered.expand() == Poly.monomial(2, (1, 1))

    def test_single_variable(self):
        g = Formula(inp(0), 1)
        f = g.substitute({0: formula_from_poly(self.inner[0])})
        recovered = recover_outer_formula(f, [self.inner[0]], 1, self.witness.point)
        assert recovered.expand() == Poly.variable(1, 0)

    def test_quadratic_mix(self):
        g_poly = Poly(2, {(2, 0): 1, (1, 1): 1})
        g = formula_from_poly(g_poly)
        recovered = recover_outer_formula(
            self.compose(g), self.inner, 2, self.witness.point
        )
        assert recovered.expand() == g_poly

    def test_round_trip_random_homogeneous(self):
        rng = random.Random(31)
        for k in (1, 2, 3):
            n = k + 1
            witness = roots_of_unity_witness(n)
            inner = [e_poly(j, n) for j in range(1, k + 1)]
            inner_formulas = {j: formula_from_poly(q) for j, q in enumerate(inner)}
            for _ in range(3):
                degree = rng.randint(1, 3)
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    exps = [0] * k
                    for _ in range(degree):
                        exps[rng.randrange(k)] += 1
                    terms[tuple(exps)] = Rat(rng.randint(-3, 3))
                g_poly = Poly(k, terms)
                if g_poly.is_zero():
                    continue
                f = formula_from_poly(g_poly).substitute(inner_formulas)
                recovered = recover_outer_formula(f, inner, degree, witness.point)
                assert recovered.expand() == g_poly

    def test_bad_witness_rejected(self):
        g = Formula(prod_node([inp(0), inp(1)]), 2)
        with pytest.raises(InvalidWitness):
            recover_outer_formula(
                self.compose(g), self.inner, 2, (Rat(0), Rat(0), Rat(0))
            )
        # a dependent family has no witness anywhere
        e1 = self.inner[0]
        with pytest.raises(InvalidWitness):
            recover_outer_formula(formula_from_poly(e1 * e1), [e1, e1], 2, self.witness.point)

    def test_rank_deficient_witness_rows_rejected(self, monkeypatch):
        # the pass checks the witness itself, so rows of rank below k reach
        # the elimination only past a faulty check, and still stop the pass
        f = self.compose(Formula(prod_node([inp(0), inp(1)]), 2))
        result, _ = _recover_traced(f, f.expand().total_degree(), self.inner, 2, self.witness.point)
        assert result.expand() == Poly.monomial(2, (1, 1))
        row = self.witness.jacobian.to_rows()[0]
        monkeypatch.setattr(
            transforms, "witness_jacobian", lambda polys, point: ScalarMatrix(2, 3, row + row)
        )
        with pytest.raises(VerificationFailed, match="rank below 2"):
            _recover_traced(f, f.expand().total_degree(), self.inner, 2, self.witness.point)

    def test_input_expanded_before_the_witness_check(self, monkeypatch):
        # a bad witness and an input over the term budget: the budget trips
        # first, since the recovery pass checks the witness after expansion
        g = Formula(prod_node([inp(0), inp(1)]), 2)
        monkeypatch.setattr(circuits, "DEFAULT_TERM_BUDGET", 2)
        with pytest.raises(BudgetExceeded):
            recover_outer_formula(self.compose(g), self.inner, 2, (Rat(0), Rat(0), Rat(0)))

    def test_non_homogeneous_detected(self):
        # e1 + e1*e2 is a composition with a non-homogeneous outer polynomial
        g = Formula(
            sum_node([inp(0), prod_node([inp(0), inp(1)])]),
            2,
        )
        with pytest.raises(ReductionMismatch):
            recover_outer_formula(self.compose(g), self.inner, 2, self.witness.point)

    @pytest.mark.parametrize("extra", [inp(0), const(1)])
    def test_input_that_is_no_composition_refused(self, extra):
        # e1*e2 + x1 is no composition of the family, and e1*e2 + 1 does
        # not vanish at the witness: the shifted input has components below
        # degree 2, which leak into the extraction on t = 1..D - 1
        f = self.compose(Formula(prod_node([inp(0), inp(1)]), 2))
        g = Formula(sum_node([f.root, extra]), 3)
        with pytest.raises(ReductionMismatch):
            recover_outer_formula(g, self.inner, 2, self.witness.point)

    def test_constant_offset_on_one_copy_refused(self):
        # e1 + 1 with degree 1: D - d + 1 = 1 copy, at t = 1, which is the
        # shifted input itself, so the result computes z + 1, and (z + 1)(e1)
        # is the input; only the homogeneity check refuses it
        f = Formula(sum_node([formula_from_poly(self.inner[0]).root, const(1)]), 3)
        with pytest.raises(ReductionMismatch, match="not homogeneous of degree 1"):
            recover_outer_formula(f, [self.inner[0]], 1, self.witness.point)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 3).flatmap(
        lambda ell: st.tuples(
            st.just(ell),
            st.lists(st.integers(-50, 50), min_size=1, max_size=11),
        )
    )
)
def test_lowest_component_weights(case):
    # for P(t) = sum_(d=l..D) a_d t^d the copies at t = 1..D - l + 1 of
    # P(t*x) sum, weighted, to a_l x^l: at x = 1, sum_t w_t P(t) = a_l
    ell, coeffs = case
    bound = ell + len(coeffs) - 1
    p = Poly(1, {(ell + i,): Rat(a) for i, a in enumerate(coeffs)})
    out = _lowest_component(formula_from_poly(p), bound, ell)
    assert len(out.root.children) == bound - ell + 1
    assert out.eval((Rat(1),)) == coeffs[0]
    assert out.expand() == Poly(1, {(ell,): Rat(coeffs[0])})


def naive_reduction_hypothesis(lam, n):
    """Reference: the gap condition on the parts, consecutive parts at least
    l - 1 apart, the last part at least l, and n >= lam_1 + l."""
    ell = lam.length
    if ell == 0:
        return False
    for i in range(ell - 1):
        if lam.part(i) < lam.part(i + 1) + (ell - 1):
            return False
    if lam.part(ell - 1) < ell:
        return False
    return n >= lam.part(0) + ell


class TestHypothesis:
    def test_label_condition_is_the_gap_condition(self):
        cases = holds = 0
        for weight in range(21):
            for parts in partitions_of(weight):
                lam = Partition(parts)
                for n in range(1, 25):
                    expected = naive_reduction_hypothesis(lam, n)
                    assert reduction_hypothesis_holds(lam, n) == expected, (parts, n)
                    cases += 1
                    holds += expected
        assert (cases, holds) == (65_136, 1_372)

    def test_long_partition_builds_no_labels(self, monkeypatch):
        # l^2 distinct labels in [1, n-1] need l^2 <= n - 1
        def unreachable(lam, mu=None):
            raise AssertionError("labels built")

        monkeypatch.setattr(transforms, "jacobi_trudi_labels", unreachable)
        assert not reduction_hypothesis_holds(Partition((1,) * 1000), 10**5)

    def test_examples(self):
        assert reduction_hypothesis_holds(Partition((3, 2)), 5)
        assert not reduction_hypothesis_holds(Partition((2, 2)), 5)
        assert not reduction_hypothesis_holds(Partition((3, 2)), 4)
        assert not reduction_hypothesis_holds(Partition((3, 1)), 6)
        assert reduction_hypothesis_holds(Partition((2,)), 3)
        assert not reduction_hypothesis_holds(Partition(()), 3)


class TestSchurToDet:
    def test_smallest_instance(self):
        lam = Partition((3, 2))
        out, report = schur_to_det_reduce(lam, 5)
        expected = Poly(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
        assert out.expand() == expected
        assert out.expand() == det_poly(2)
        assert report.depth_increase() == 4
        assert report.size_bound_ok()
        assert [p.name for p in report.passes] == [
            "shift-to-witness",
            "extract-degree-2",
            "substitute-inverse-linear-forms",
            "relabel-to-matrix-layout",
        ]

    def test_rejects_bad_partition(self):
        with pytest.raises(NotReducible):
            schur_to_det_reduce(Partition((2, 2)), 5)

    def test_rejects_wrong_input_formula(self):
        with pytest.raises(ValueError):
            schur_to_det_reduce(Partition((3, 2)), 5, Formula(const(1), 5))

    def test_rejects_input_of_another_arity_before_expanding_it(self, monkeypatch):
        def expand(self, budget=None):
            raise Sentinel("the input was expanded")

        monkeypatch.setattr(Formula, "expand", expand)
        for arity in (3, 100_000_000):
            with pytest.raises(ValueError, match=f"arity {arity}"):
                schur_to_det_reduce(Partition((3, 2)), 5, Formula(inp(0), arity))

    def test_report_json_shape(self):
        _, report = schur_to_det_reduce(Partition((3, 2)), 5)
        blob = report.to_json()
        assert blob["depth_increase"] == 4
        assert blob["size_bound"]["satisfied"] is True
        assert len(blob["witness"]) == 5
        assert len(blob["passes"]) == 4


class Sentinel(Exception):
    """Raised by a patched function that the code under test must not reach."""


class TestEachIdentityOnce:
    """`schur_to_det_reduce` checks the input against s_lambda and the output
    against det_l, and no composition: the premises of that argument, its
    failure paths and the work it saves."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_witness_polys_are_the_h_polys(self, n):
        polys = h_family_witness(n).polys
        assert len(polys) == n - 1
        for m in range(1, n):
            assert polys[m - 1] == h_poly(m, n)

    @pytest.mark.parametrize("parts, n", [((3, 2), 5), ((4, 2), 6)])
    def test_schur_is_det_of_the_labelled_h(self, parts, n):
        lam = Partition(parts)
        labels = jacobi_trudi_labels(lam)
        hs = [h_poly(m, n) for row in labels for m in row]
        assert det_poly(lam.length).compose(hs) == schur_jt_h(lam, n)

    def test_wrong_determinant_fails_verification(self, monkeypatch):
        monkeypatch.setattr(transforms, "det_poly", lambda ell: Poly.zero(ell * ell))
        with pytest.raises(VerificationFailed, match="determinant"):
            schur_to_det_reduce(Partition((3, 2)), 5)

    @pytest.mark.parametrize("parts, n", [((3, 2), 5), ((4, 2), 6)])
    def test_one_witness_check_on_the_labelled_h(self, monkeypatch, parts, n):
        # the recovery pass checks the l^2 h's it recovers through, in
        # sorted-label order, and never the whole h-family
        checked = []
        check = transforms.witness_jacobian

        def counted_check(polys, point):
            checked.append((list(polys), point))
            return check(polys, point)

        families = []
        monkeypatch.setattr(transforms, "witness_jacobian", counted_check)
        monkeypatch.setattr(
            independence, "h_family_witness", lambda n: families.append(n)
        )
        lam = Partition(parts)
        out, report = schur_to_det_reduce(lam, n)
        labels = sorted(m for row in jacobi_trudi_labels(lam) for m in row)
        assert checked == [([h_poly(m, n) for m in labels], h_family_witness(n).point)]
        assert report.witness == h_family_witness(n).point
        assert families == []
        assert not hasattr(transforms, "h_family_witness")
        assert out.expand() == det_poly(lam.length)

    def test_two_expansions_and_no_composition(self, monkeypatch):
        # the input's distinct leaves are expanded in one walk, the whole
        # input never, and the output once; nothing is composed
        walks = counted_walks(monkeypatch)
        built = []
        build = transforms.jacobi_trudi_formula
        monkeypatch.setattr(
            transforms, "jacobi_trudi_formula", lambda lam, n: built.append(build(lam, n)) or built[-1]
        )
        expands = counted(monkeypatch, Formula, "expand")
        composes = counted(monkeypatch, Poly, "compose")
        out, _ = schur_to_det_reduce(Partition((3, 2)), 5)
        (f,) = built
        leaves = {id(leaf) for c in f.root.children for leaf in c.children}
        assert [(arity, {id(r) for r in roots}) for roots, arity in walks] == [
            (5, leaves),
            (4, {id(out.root)}),
        ]
        assert len(leaves) == 4 and id(f.root) not in leaves
        assert (expands, len(composes)) == ([out], 0)
        assert out.expand() == det_poly(2)

    def test_given_input_is_expanded_in_full(self, monkeypatch):
        lam = Partition((3, 2))
        f = jacobi_trudi_formula(lam, 5)
        walks = counted_walks(monkeypatch)
        expands = counted(monkeypatch, Formula, "expand")
        out, _ = schur_to_det_reduce(lam, 5, f)
        assert expands == [f, out]
        assert [[id(r) for r in roots] for roots, _ in walks] == [[id(f.root)], [id(out.root)]]

    @pytest.mark.parametrize(
        "parts, n, least", [((3, 2), 5, 20), ((6, 3), 8, 56), ((500, 2), 502, 251_502)]
    )
    def test_budget_trips_before_the_build(self, monkeypatch, parts, n, least):
        # s_lambda's exact term count is held against the budget; it counts
        # lambda's own n!/(n-l)! rearrangements first, so a budget below
        # those is refused at once, and so is one below the count: 101 for
        # (3,2)/5, 11,152 for (6,3)/8, past 251,502 for (500,2)/502
        def build(lam, n):
            raise Sentinel

        monkeypatch.setattr(transforms, "jacobi_trudi_formula", build)
        lam = Partition(parts)
        terms = {20: 101, 56: 11_152}.get(least)
        for budget in (least - 1, least if terms is None else terms - 1):
            with pytest.raises(BudgetExceeded, match=f"exceeded {budget} terms"):
                schur_to_det_reduce(lam, n, budget=budget)
        if terms is not None:
            with pytest.raises(Sentinel):
                schur_to_det_reduce(lam, n, budget=terms)

    def test_least_term_count_is_the_rearrangements(self):
        for parts, n in [((3, 2), 5), ((4, 2), 6), ((2,), 3), ((5, 3), 7)]:
            lam = Partition(parts)
            exponents = sorted(parts + (0,) * (n - len(parts)))
            terms = schur_jt_h(lam, n).terms
            assert sum(sorted(e) == exponents for e in terms) == math.perm(n, lam.length)

    def test_input_formula_is_checked_before_the_budget(self):
        # the count of s_(3,2) is 20, over the budget; a wrong input of one
        # term still fails as a wrong input
        with pytest.raises(ValueError, match="Schur polynomial"):
            schur_to_det_reduce(Partition((3, 2)), 5, Formula(const(1), 5), budget=10)


#: every (lambda, n) with n <= 8 that meets the reduction hypothesis
QUALIFYING = [
    (parts, n)
    for n in range(2, 9)
    for weight in range(1, 2 * n)
    for parts in partitions_of(weight)
    if reduction_hypothesis_holds(Partition(parts), n)
]


class TestLeibnizInputCheck:
    """The pipeline checks the input it builds without expanding it: its
    leaves against the h's, and the signed sum of their products against
    s_lambda on the coefficients of partitions."""

    def test_qualifying_pairs(self):
        assert len(QUALIFYING) == 48
        assert ((6, 3), 8) in QUALIFYING and ((6, 5), 8) in QUALIFYING

    @pytest.mark.parametrize("parts, n", QUALIFYING)
    def test_term_count_is_exact(self, parts, n):
        lam = Partition(parts)
        terms = len(schur_jt_h(lam, n).terms)
        assert schur_term_count(lam, n, terms) == terms
        assert schur_term_count(lam, n, terms - 1) > terms - 1
        with pytest.raises(BudgetExceeded, match=f"exceeded {terms - 1} terms"):
            schur_to_det_reduce(lam, n, budget=terms - 1)

    @pytest.mark.parametrize("parts, n", QUALIFYING)
    def test_agrees_with_full_expansion(self, parts, n):
        # each mutant is refused; expanding them all takes a minute at
        # n = 8, so the expansions confirm them up to n = 6
        lam = Partition(parts)
        schur = schur_jt_h(lam, n)
        for name, f in leibniz_mutants(lam, n).items():
            try:
                _check_leibniz_input(f, lam, n, {}, None)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == (name == "built")
            if n <= 6 or accepted:
                assert (f.expand() == schur) == accepted

    @pytest.mark.parametrize(
        "name",
        ["leaf-to-next-h", "flipped-sign", "moved-factor", "leaf-missing-a-term"],
    )
    def test_mutant_input_is_refused(self, monkeypatch, name):
        lam = Partition((3, 2))
        mutant = leibniz_mutants(lam, 5)[name]
        monkeypatch.setattr(transforms, "jacobi_trudi_formula", lambda lam, n: mutant)
        with pytest.raises(ValueError, match="Schur polynomial"):
            schur_to_det_reduce(lam, 5)

    def test_leaves_are_held_to_the_budget(self):
        # h_4 on 5 variables has 70 terms, under the 101 of s_(3,2)
        lam = Partition((3, 2))
        f = jacobi_trudi_formula(lam, 5)
        _check_leibniz_input(f, lam, 5, {}, 70)
        with pytest.raises(BudgetExceeded):
            _check_leibniz_input(f, lam, 5, {}, 69)


def test_jacobi_trudi_formula_expands_to_schur():
    from schurkit.symmetric import schur_jt_h

    for parts, n in [((2, 1), 3), ((3, 2), 5)]:
        lam = Partition(parts)
        assert jacobi_trudi_formula(lam, n).expand() == schur_jt_h(lam, n)


@pytest.mark.parametrize(
    "parts, n", [((3, 2), 5), ((4, 2), 6), ((6, 3), 8), ((7, 5, 3), 10)]
)
def test_jacobi_trudi_structural_degree_is_the_weight(parts, n):
    # the extraction bound of the reduction is read off this structure
    lam = Partition(parts)
    assert jacobi_trudi_formula(lam, n).degree() == lam.weight


def test_jacobi_trudi_formula_does_not_recurse():
    # a recursion over the h-states would need about lambda_1 = 150 frames
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        f = jacobi_trudi_formula(Partition((150, 2)), 152)
    finally:
        sys.setrecursionlimit(limit)
    assert f.degree() == 152


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_det_poly_matches_the_determinant_abp(ell):
    assert det_poly(ell) == det_abp(ell).expand()


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_det_poly_forms_no_product(monkeypatch, ell):
    # the reduction's output check compares the output's expansion with a
    # determinant that shares no kernel with that expansion
    arity = ell * ell
    want = det_poly_matrix([[Poly.variable(arity, i * ell + j) for j in range(ell)] for i in range(ell)])

    def refuse(*args):
        raise AssertionError("det_poly formed a product")

    monkeypatch.setattr(poly, "packed_product", refuse)
    assert det_poly(ell) == want


@pytest.mark.parametrize("ell", [0, -1])
def test_det_poly_needs_a_row(ell):
    with pytest.raises(ValueError):
        det_poly(ell)


def test_extraction_bound_comes_from_the_expansion():
    # +x1^10 - x1^10 under a root sum lifts the structural degree to 10,
    # but the input still expands to s_(3,2), of degree 5: the extraction
    # of degree 2 takes the scaled copies at t = 1..4, 4 instead of 9
    lam = Partition((3, 2))
    power = prod_node([inp(0)] * 10)
    padded = Formula(
        sum_node([jacobi_trudi_formula(lam, 5).root, power, power], [1, 1, -1]), 5
    )
    assert padded.degree() == 10
    out, report = schur_to_det_reduce(lam, 5, padded)
    assert out.expand() == det_poly(2)
    assert report.depth_increase() == 4
    assert report.output_size == 7545


def test_depth_increase_is_at_most_four():
    # the passes deepen a variable leaf by 4 and a constant leaf by 1 (the
    # combining gate), so a deepest path ending in a constant leaf gives
    # less: 40 single-child sum gates over 1, minus 1, still compute s_(3,2)
    lam = Partition((3, 2))
    chain = const(1)
    for _ in range(40):
        chain = sum_node([chain])
    padded = Formula(
        sum_node([jacobi_trudi_formula(lam, 5).root, chain, const(1)], [1, 1, -1]), 5
    )
    out, report = schur_to_det_reduce(lam, 5, padded)
    assert out.expand() == det_poly(2)
    assert (report.input_depth, report.output_depth) == (41, 42)
    assert report.output_depth <= report.input_depth + 4
    assert report.depth_increase() == 1
