"""Acceptance battery: one test per criterion, exact tolerances throughout.

Every check is an exact polynomial identity (no tolerances to tune); each
test prints one PASS line with its runtime when it completes.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from itertools import permutations

from schurkit.circuits import Formula, det_abp, formula_from_poly, prod_node
from schurkit.derivatives import (
    pdc_dimension,
    product_pdc_check,
    shifted_product_pdc_check,
)
from schurkit.field import Rat, ScalarMatrix
from schurkit.independence import (
    h_family_witness,
    jacobian,
    p_family_witness,
    roots_of_unity_witness,
    symbolic_rank,
)
from schurkit.partitions import Partition, partitions_up_to_weight, staircase
from schurkit.poly import Poly
from schurkit.symmetric import (
    det_poly_matrix,
    distinct_label_family,
    all_distinct,
    e_in_h_basis,
    e_in_p_basis,
    e_poly,
    express_in_e_basis,
    generalized_vandermonde,
    h_poly,
    is_symmetric,
    jacobi_trudi_labels,
    p_poly,
    scaled_staircase_partition,
    scaled_staircase_schur,
    schur_bialternant,
    schur_jt_e,
    schur_jt_h,
    schur_ssyt,
    skew_schur_h,
)
from schurkit.transforms import (
    REDUCTION_SIZE_CONSTANT,
    det_poly,
    divide_formula,
    homogeneous_component_formula,
    recover_outer_formula,
    schur_to_det_reduce,
)

from helpers import random_formula, symmetrize

SIZE_GROWTH_CONSTANT = 8  # fixed once for the whole corpus


def report(number, name, started, detail=""):
    elapsed = time.perf_counter() - started
    suffix = f" [{detail}]" if detail else ""
    print(f"PASS criterion {number}: {name}{suffix} ({elapsed:.1f}s)")


def criterion_pairs():
    yield Partition(()), 1
    for lam in partitions_up_to_weight(6):
        for n in range(lam.length, 6):
            if n >= 1:
                yield lam, n


def test_criterion_01_schur_route_agreement():
    started = time.perf_counter()
    checked = 0
    for lam, n in criterion_pairs():
        values = [
            schur_bialternant(lam, n),
            schur_jt_h(lam, n),
            schur_jt_e(lam, n),
            schur_ssyt(lam, n),
        ]
        assert all(v == values[0] for v in values), (lam.parts, n)
        checked += 1
    report(1, "four Schur routes agree exactly", started, f"{checked} (lambda, n) pairs")


def test_criterion_02_main_pipeline():
    started = time.perf_counter()
    expected = Poly(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    assert expected == det_poly(2)
    depth_diffs = []
    for parts, n in (((3, 2), 5), ((4, 2), 6), ((6, 3), 8)):
        lam = Partition(parts)
        output, rep = schur_to_det_reduce(lam, n)
        assert output.expand() == expected, (parts, n)
        assert rep.output_size <= REDUCTION_SIZE_CONSTANT * rep.input_size**2 * n
        depth_diffs.append(rep.depth_increase())
    assert len(set(depth_diffs)) == 1, depth_diffs
    report(
        2,
        "pipeline reduces to the 2x2 determinant",
        started,
        f"depth increase {depth_diffs[0]} on all instances",
    )


def test_criterion_03_composition_round_trip():
    started = time.perf_counter()
    rng = random.Random(2024)
    done = 0
    while done < 10:
        k = rng.randint(1, 3)
        n = k + 1
        degree = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = [0] * k
            for _ in range(degree):
                exps[rng.randrange(k)] += 1
            terms[tuple(exps)] = Rat(rng.randint(-3, 3))
        g = Poly(k, terms)
        if g.is_zero():
            continue
        inner = [e_poly(j, n) for j in range(1, k + 1)]
        witness = roots_of_unity_witness(n)
        composed = formula_from_poly(g).substitute(
            {j: formula_from_poly(q) for j, q in enumerate(inner)}
        )
        recovered = recover_outer_formula(composed, inner, degree, witness.point)
        assert recovered.expand() == g
        done += 1
    report(3, "outer-polynomial recovery round-trips", started, "10 seeded cases")


def test_criterion_04_witnesses():
    started = time.perf_counter()
    for n in range(2, 9):
        for builder in (roots_of_unity_witness, h_family_witness, p_family_witness):
            witness = builder(n)
            assert witness.rank == n - 1
            for q in witness.polys:
                assert q.eval(witness.point) == 0
    report(4, "e/h/p witnesses verify for n in 2..8", started)


def test_criterion_05_jacobian_minor_identity():
    started = time.perf_counter()
    for n in (3, 4, 5):
        jac = jacobian([e_poly(k, n) for k in range(1, n)])
        minor = [[jac[i][j] for j in range(n - 1)] for i in range(n - 1)]
        det = det_poly_matrix(minor)
        product = Poly.constant(n, 1)
        for i in range(n - 1):
            for j in range(i + 1, n - 1):
                product = product * (Poly.variable(n, i) - Poly.variable(n, j))
        ratio = det.divide_exact(product)
        assert ratio.total_degree() == 0 and not ratio.is_zero()
    report(5, "leading Jacobian minor is a scalar times the difference product", started)


def test_criterion_06_division_elimination():
    started = time.perf_counter()
    for parts in ((1, 1), (2, 1)):
        lam = Partition(parts)
        for n in (2, 3):
            if lam.length > n:
                continue
            delta = staircase(n)
            shifted = tuple(lam.part(j) + delta[j] for j in range(n))
            p = formula_from_poly(generalized_vandermonde(shifted, n))
            r = formula_from_poly(generalized_vandermonde(delta, n))
            quotient = divide_formula(p, r, lam.weight)
            assert quotient.expand() == schur_bialternant(lam, n)
    rng = random.Random(77)
    done = 0
    while done < 10:
        p = random_formula(rng, arity=2, max_depth=3)
        r = random_formula(rng, arity=2, max_depth=2)
        if r.expand().is_zero():
            continue
        product = Formula(prod_node([p.root, r.root]), 2)
        bound = max(p.expand().total_degree(), 0)
        assert divide_formula(product, r, bound, seed=done).expand() == p.expand()
        done += 1
    report(6, "division elimination reproduces quotients", started)


def test_criterion_07_homogeneous_extraction():
    started = time.perf_counter()
    rng = random.Random(4096)
    built = 0
    while built < 20:
        f = random_formula(rng, arity=3, max_depth=4)
        if f.size() > 40:
            continue
        expansion = f.expand()
        total = Poly.zero(3)
        for d in range(f.size() + 1):
            g = homogeneous_component_formula(f, d)
            component = g.expand()
            assert component.is_homogeneous()
            assert g.size() <= SIZE_GROWTH_CONSTANT * f.size() ** 2
            total = total + component
        assert total == expansion
        built += 1
    report(7, "extraction is complete with bounded size growth", started, "20 formulas")


def test_criterion_08_scaled_staircase_closed_form():
    started = time.perf_counter()
    for step, n in ((1, 2), (1, 3), (2, 2), (2, 3)):
        lam = scaled_staircase_partition(step, n)
        assert scaled_staircase_schur(step, n) == schur_bialternant(lam, n)
    report(8, "scaled-staircase closed form matches the bialternant", started)


def test_criterion_09_skew_family():
    started = time.perf_counter()
    for l in (2, 3, 4):
        for mu1 in (1, 2):
            lam, mu = distinct_label_family(l, mu1)
            assert all_distinct(jacobi_trudi_labels(lam, mu)), (l, mu1)
    empty = Partition(())
    for lam in partitions_up_to_weight(6):
        if lam.length > 5:
            continue
        assert skew_schur_h(lam, empty, 5) == schur_jt_h(lam, 5)
    report(9, "skew labels distinct; empty inner shape reduces to straight", started)


def test_criterion_10_basis_conversions():
    started = time.perf_counter()
    n = 6
    hs = [h_poly(j, n) for j in range(1, n + 1)]
    ps = [p_poly(j, n) for j in range(1, n + 1)]
    for k in range(1, 6):
        assert e_in_h_basis(k, n).compose(hs[:k]) == e_poly(k, n)
        assert e_in_p_basis(k, n).compose(ps[:k]) == e_poly(k, n)
    rng = random.Random(55)
    done = 0
    while done < 10:
        arity = rng.randint(2, 4)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * arity
            for _ in range(rng.randint(0, 4)):
                exps[rng.randrange(arity)] += 1
            terms[tuple(exps)] = Rat(rng.randint(-3, 3))
        f = symmetrize(Poly(arity, terms))
        if f.is_zero():
            continue
        assert is_symmetric(f)
        g = express_in_e_basis(f)
        assert g.compose([e_poly(j, arity) for j in range(1, arity + 1)]) == f
        done += 1
    report(10, "basis conversions verify by substitution", started)


def test_criterion_11_pdc_suite():
    started = time.perf_counter()
    for k in range(1, 5):
        assert pdc_dimension(Poly.monomial(k, (1,) * k)) == 2**k
    rng = random.Random(999)
    for _ in range(5):
        arity = rng.randint(2, 3)
        terms = {
            tuple(rng.randint(0, 2) for _ in range(arity)): rng.randint(-2, 2)
            for _ in range(3)
        }
        p = Poly(arity, terms)
        if p.is_zero():
            continue
        base = pdc_dimension(p)
        point = [Rat(rng.randint(-2, 2)) for _ in range(arity)]
        shifted = p.compose([Poly.variable(arity, i) + a for i, a in enumerate(point)])
        assert pdc_dimension(shifted) == base
        while True:
            entries = [Rat(rng.randint(-2, 2)) for _ in range(arity * arity)]
            if ScalarMatrix(arity, arity, entries).det():
                break
        forms = [
            Poly(
                arity,
                {
                    tuple(1 if t == j else 0 for t in range(arity)): entries[i * arity + j]
                    for j in range(arity)
                    if entries[i * arity + j]
                },
            )
            for i in range(arity)
        ]
        assert pdc_dimension(p.compose(forms)) == base
    for k in (1, 2, 3):
        n = k + 1
        witness = roots_of_unity_witness(n)
        result = product_pdc_check([e_poly(j, n) for j in range(1, k + 1)], witness.point)
        assert result.passed, k
    seeds_done = 0
    seed = 0
    while seeds_done < 5:
        rng = random.Random(seed)
        k = rng.randint(2, 3)
        polys = []
        for _ in range(k):
            terms = {
                tuple(rng.randint(0, 2) for _ in range(k)): rng.randint(-2, 2)
                for _ in range(3)
            }
            polys.append(Poly(k, terms))
        seed += 1
        if any(p.is_zero() for p in polys):
            continue
        if symbolic_rank(jacobian(polys)) != k:
            continue
        result = shifted_product_pdc_check(polys, seed=seed)
        assert result.passed
        seeds_done += 1
    report(11, "partial-derivative dimension bounds hold", started)


def test_criterion_12_det_abp():
    started = time.perf_counter()
    for n in range(1, 5):
        arity = n * n
        expected = Poly.zero(arity)
        for sigma in permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if sigma[i] > sigma[j]:
                        sign = -sign
            exps = [0] * arity
            for i in range(n):
                exps[i * n + sigma[i]] += 1
            expected = expected + Poly.monomial(arity, exps, sign)
        assert det_abp(n).expand() == expected
    report(12, "determinant branching program matches the cofactor oracle", started)
