"""Checks against sympy, an implementation written by other people: the
package's own routes share one product kernel and one elimination, so a
fault there can agree with itself.  Skipped when sympy is not installed."""

import itertools
import json
import random

import pytest

sympy = pytest.importorskip("sympy", reason="sympy is not installed: the oracle checks need it")

from schurkit.cli import main
from schurkit.derivatives import pdc_dimension
from schurkit.field import CyclotomicScalar, Rat, ScalarMatrix, bareiss, fold_constants
from schurkit.independence import h_family_witness, p_family_witness, roots_of_unity_witness
from schurkit.partitions import Partition, staircase
from schurkit.poly import Poly
from schurkit.symmetric import (
    e_poly,
    jacobi_trudi_labels,
    schur_bialternant,
    schur_jt_e,
    schur_jt_h,
    schur_ssyt,
    skew_schur_h,
)

from helpers import partial, random_formula


def rational(c):
    return sympy.Rational(c.numerator, c.denominator)


def scalar_in(c, z):
    """A scalar as a sympy expression: a rational, or a cyclotomic scalar's
    power-basis coefficients as a polynomial in `z`."""
    if isinstance(c, CyclotomicScalar):
        return sympy.Add(*(rational(a) * z**i for i, a in enumerate(c.coeffs)))
    return rational(c)


def to_sympy(p, xs, z=None):
    """A `Poly` as a sympy expression in the symbols `xs`, its cyclotomic
    coefficients as polynomials in `z`."""
    return sympy.Add(
        *(scalar_in(c, z) * sympy.Mul(*(x**k for x, k in zip(xs, e))) for e, c in p.terms.items())
    )


def random_rational(rng):
    return Rat(rng.randint(-9, 9), rng.randint(1, 4))


def random_poly(rng, arity, degree, terms, scalar=random_rational):
    out = {}
    for _ in range(terms):
        exps = [0] * arity
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(arity)] += 1
        out[tuple(exps)] = scalar(rng)
    return Poly(arity, out)


def random_cyclotomic(order):
    deg = fold_constants(order)[0]
    return lambda rng: CyclotomicScalar(order, [random_rational(rng) for _ in range(deg)])


@pytest.mark.parametrize("seed", range(12))
def test_ring_ops_over_q(seed):
    """`*`, `divide_exact` of a product, `derivative` and `compose` against
    `sympy.Poly` over QQ."""
    rng = random.Random(seed)
    arity = 1 + seed % 3
    xs = sympy.symbols(f"x0:{arity}")

    def oracle(p):
        return sympy.Poly(to_sympy(p, xs), *xs, domain="QQ")

    p = random_poly(rng, arity, 4, 6)
    q = random_poly(rng, arity, 3, 4) + 1
    product = p * q
    assert oracle(product) == oracle(p) * oracle(q)
    quotient, remainder = sympy.div(oracle(product), oracle(q))
    assert remainder.is_zero
    assert oracle(product.divide_exact(q)) == quotient == oracle(p)
    for i, x in enumerate(xs):
        assert oracle(p.derivative(i)) == oracle(p).diff(x)
    values = [random_poly(rng, arity, 2, 3) for _ in range(arity)]
    composed = oracle(p).as_expr().subs(
        {x: to_sympy(v, xs) for x, v in zip(xs, values)}, simultaneous=True
    )
    assert oracle(p.compose(values)) == sympy.Poly(composed, *xs, domain="QQ")


@pytest.mark.parametrize("order", [3, 5, 8, 12])
def test_cyclotomic_product(order):
    """`Poly.__mul__` with cyclotomic coefficients against the sympy product
    reduced modulo the order-n cyclotomic polynomial."""
    rng = random.Random(order)
    xs = sympy.symbols("x0:2")
    z = sympy.Symbol("z")
    phi = sympy.Poly(sympy.cyclotomic_poly(order, z), z)
    p = random_poly(rng, 2, 3, 4, random_cyclotomic(order))
    q = random_poly(rng, 2, 3, 4, random_cyclotomic(order)) + random_poly(rng, 2, 2, 2)
    expected = sympy.Poly(to_sympy(p, xs, z) * to_sympy(q, xs, z), z).rem(phi)
    got = sympy.Poly(to_sympy(p * q, xs, z), z)
    assert (got - expected).is_zero
    assert {type(c) for c in (p * q).terms.values()} == {CyclotomicScalar}


def test_cyclotomic_scalar_product_and_inverse():
    """`CyclotomicScalar` `*` and `inverse` against `rem` and `invert` modulo
    the order-n cyclotomic polynomial, for seeded orders up to 40."""
    rng = random.Random(40)
    z = sympy.Symbol("z")
    for order in sorted(rng.sample(range(1, 41), 12)) + [40]:
        phi = sympy.Poly(sympy.cyclotomic_poly(order, z), z)
        a, b = (random_cyclotomic(order)(rng) for _ in range(2))
        if not a:
            continue
        za, zb = (sympy.Poly(scalar_in(c, z), z, domain="QQ") for c in (a, b))
        assert sympy.Poly(scalar_in(a * b, z), z, domain="QQ") == (za * zb).rem(phi), order
        inverse = sympy.Poly(sympy.invert(za.as_expr(), phi.as_expr(), z), z, domain="QQ")
        assert sympy.Poly(scalar_in(a.inverse(), z), z, domain="QQ") == inverse.rem(phi), order


@pytest.mark.parametrize("seed", range(8))
def test_bareiss_rank_and_determinant(seed):
    """`bareiss` rank and determinant against `sympy.Matrix` over QQ, on
    square and rectangular matrices of every rank up to full."""
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    rank = rng.randint(0, min(rows, cols))
    left = [[random_rational(rng) for _ in range(rank)] for _ in range(rows)]
    right = [[random_rational(rng) for _ in range(cols)] for _ in range(rank)]
    m = [[sum((l[k] * right[k][j] for k in range(rank)), Rat(0)) for j in range(cols)] for l in left]
    oracle = sympy.Matrix([[rational(v) for v in row] for row in m])
    got_rank, got_det = bareiss(m)
    assert got_rank == oracle.rank()
    if rows == cols:
        assert rational(got_det) == oracle.det()
    assert ScalarMatrix(rows, cols, [v for row in m for v in row]).rank() == oracle.rank()


def test_pdc_order_ranks_of_e1_e2_e3():
    p = e_poly(1, 4) * e_poly(2, 4) * e_poly(3, 4)
    xs = sympy.symbols("x0:4")
    f = sympy.Poly(to_sympy(p, xs), *xs)
    ranks = []
    for j in range(p.total_degree() + 1):
        multis = [m for m in itertools.product(range(j + 1), repeat=p.arity) if sum(m) == j]
        package = [partial(p, multi) for multi in multis]
        oracle = []
        for multi in multis:
            d = f
            for x, m in zip(xs, multi):
                if m:
                    d = d.diff((x, m))
            oracle.append(d)
        monomials = sorted(
            {e for q in package for e in q.terms} | {e for d in oracle for e in d.monoms()}
        )
        rank = sympy.Matrix([[d.coeff_monomial(e) for e in monomials] for d in oracle]).rank()
        entries = [q.terms.get(e, 0) for q in package for e in monomials]
        assert ScalarMatrix(len(multis), len(monomials), entries).rank() == rank, j
        ranks.append(rank)
    assert ranks == [1, 4, 10, 17, 10, 4, 1]
    assert pdc_dimension(p) == sum(ranks) == 47


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize(
    "builder", [roots_of_unity_witness, h_family_witness, p_family_witness], ids="ehp"
)
def test_root_of_unity_jacobian(builder, n):
    """Entry (m, j) is d q_m / d x_j at x_i = z^i, reduced modulo the n-th
    cyclotomic polynomial in z: its power-basis coefficients."""
    witness = builder(n)
    xs = sympy.symbols(f"x0:{n}")
    z = sympy.Symbol("z")
    phi = sympy.Poly(sympy.cyclotomic_poly(n, z), z)
    at_point = {x: z**i for i, x in enumerate(xs)}
    deg = phi.degree()
    for m, q in enumerate(witness.polys):
        f = to_sympy(q, xs)
        for j, x in enumerate(xs):
            value = sympy.Poly(sympy.diff(f, x).xreplace(at_point), z).rem(phi)
            expected = [value.coeff_monomial(z**i) for i in range(deg)]
            entry = witness.jacobian.entry(m, j)
            got = list(getattr(entry, "coeffs", (entry,)))
            got += [0] * (deg - len(got))
            assert got == expected, (m, j)


@pytest.mark.parametrize("parts", [(2, 1), (3, 1, 1), (2, 2, 1, 1), (4, 2, 1)])
def test_bialternant_is_the_ratio_of_sympy_determinants(parts):
    """`schur_bialternant` on 4 variables against `sympy.div` of the two
    generalized Vandermonde determinants det(x_i^(lam_j + delta_j)) and
    det(x_i^(delta_j)), each taken by sympy's Berkowitz expansion: the
    remainder is zero and the quotient is the route's polynomial."""
    n = 4
    xs = sympy.symbols(f"x0:{n}")
    lam = Partition(parts)
    delta = staircase(n)

    def alternant(exps):
        det = sympy.Matrix(n, n, lambda i, j: xs[i] ** exps[j]).det(method="berkowitz")
        return sympy.Poly(det, *xs, domain="QQ")

    shifted = [lam.part(j) + delta[j] for j in range(n)]
    quotient, remainder = sympy.div(alternant(shifted), alternant(delta))
    assert remainder.is_zero
    assert sympy.Poly(to_sympy(schur_bialternant(lam, n), xs), *xs, domain="QQ") == quotient


def complete(xs, k):
    """h_k in the symbols `xs` as a sympy expression: 0 below degree 0."""
    if k < 0:
        return sympy.Integer(0)
    return sympy.Add(*(sympy.Mul(*c) for c in itertools.combinations_with_replacement(xs, k)))


def elementary(xs, k):
    """e_k in the symbols `xs`: 0 below degree 0 and above len(xs)."""
    if k < 0:
        return sympy.Integer(0)
    return sympy.Add(*(sympy.Mul(*c) for c in itertools.combinations(xs, k)))


@pytest.mark.parametrize("parts, n", [((3, 1), 4), ((2, 2, 1), 4), ((4, 2), 3), ((3, 2, 1), 4)])
def test_schur_routes_are_sympy_jacobi_trudi_determinants(parts, n):
    """`schur_jt_h`, `schur_jt_e` and `schur_ssyt` against sympy's
    determinants of (h_(lam_i - i + j)) and (e_(lam'_i - i + j)), with the
    entries built in sympy from the symbols."""
    xs = sympy.symbols(f"x0:{n}")
    conjugate = [sum(p > j for p in parts) for j in range(parts[0])]

    def jacobi_trudi(entry, shape):
        size = len(shape)
        det = sympy.Matrix(size, size, lambda i, j: entry(xs, shape[i] - i + j)).det(method="berkowitz")
        return sympy.Poly(det, *xs, domain="QQ")

    h_det = jacobi_trudi(complete, parts)
    assert h_det == jacobi_trudi(elementary, conjugate)
    lam = Partition(parts)
    for route in (schur_jt_h, schur_jt_e, schur_ssyt):
        assert sympy.Poly(to_sympy(route(lam, n), xs), *xs, domain="QQ") == h_det, route.__name__


@pytest.mark.parametrize(
    "outer, inner, n",
    [((5, 3), (1,), 4), ((4, 3, 1), (2, 1), 4), ((3, 3, 2), (2,), 3), ((4, 2, 2), (2, 2), 4)],
)
def test_skew_schur_is_the_sympy_determinant_of_its_h_entries(outer, inner, n):
    """`skew_schur_h` against sympy's determinant of (h_(lam_i - mu_j - i + j)),
    the entries built in sympy from the symbols, 0 at a negative label."""
    xs = sympy.symbols(f"x0:{n}")
    labels = jacobi_trudi_labels(Partition(outer), Partition(inner))
    size = len(labels)
    det = sympy.Matrix(size, size, lambda i, j: complete(xs, labels[i][j])).det(method="berkowitz")
    got = skew_schur_h(Partition(outer), Partition(inner), n)
    assert sympy.Poly(to_sympy(got, xs), *xs, domain="QQ") == sympy.Poly(det, *xs, domain="QQ")


@pytest.mark.parametrize("seed", range(10))
def test_formula_expand_against_sympy_expand(seed):
    """`Formula.expand` of seeded random formulas against `sympy.expand` of
    the same trees, their weights and constants as sympy rationals."""
    rng = random.Random(seed)
    arity = 1 + seed % 3
    xs = sympy.symbols(f"x0:{arity}")

    def tree(node):
        if node.kind == "input":
            return xs[node.var]
        if node.kind == "const":
            return rational(node.value)
        children = [tree(c) for c in node.children]
        if node.kind == "sum":
            return sympy.Add(*(rational(w) * c for w, c in zip(node.weights, children)))
        return sympy.Mul(*children)

    for _ in range(4):
        f = random_formula(rng, arity, max_depth=4)
        expected = sympy.Poly(sympy.expand(tree(f.root)), *xs, domain="QQ")
        assert sympy.Poly(to_sympy(f.expand(), xs), *xs, domain="QQ") == expected


def test_reduce_out_file_is_the_determinant(tmp_path):
    """The (3,2)/5 `--out` file, read by the stdlib parser and expanded by
    sympy alone in QQ[w, z0..z3] modulo Phi_5(w): the one check of the
    reduction's output that goes through no schurkit code past the CLI."""
    out_file = tmp_path / "det.json"
    assert main(["reduce", "--lambda", "3,2", "--n", "5", "--out", str(out_file)]) == 0
    # the hook sees each object after its members, so a node's children are
    # already interned; a node becomes its index among the distinct ones
    keys = {}

    def intern(pairs):
        key = tuple((k, tuple(v) if isinstance(v, list) else v) for k, v in pairs)
        return keys.setdefault(key, len(keys))

    top = json.loads(out_file.read_text(), object_pairs_hook=intern)
    objects = [dict(key) for key in keys]
    nodes = [obj for obj in objects if "kind" in obj]
    assert len(nodes) == 209
    document = objects[top]
    assert document["arity"] == 4

    w = sympy.Symbol("w")
    zs = sympy.symbols("z0:4")
    gens = (w, *zs)
    phi = sympy.Poly(sympy.cyclotomic_poly(5, w), *gens, domain="QQ")

    def scalar(value):
        if isinstance(value, int):  # an interned {"order": 5, "value": text}
            spec = objects[value]
            assert spec["order"] == 5
            return sympy.sympify(spec["value"].replace("^", "**"), locals={"w": w})
        return sympy.Rational(value)

    values = {}
    for index, obj in enumerate(objects):
        kind = obj.get("kind")
        if kind == "input":
            value = zs[obj["var"]]
        elif kind == "const":
            value = scalar(obj["value"])
        elif kind == "sum":
            value = sum(
                (scalar(c) * values[child] for c, child in zip(obj["weights"], obj["children"])),
                sympy.Poly(0, *gens, domain="QQ"),
            )
        elif kind == "product":
            value = sympy.Poly(1, *gens, domain="QQ")
            for child in obj["children"]:
                value = (value * values[child]).rem(phi)
        else:
            continue
        values[index] = sympy.Poly(value, *gens, domain="QQ").rem(phi)
    z0, z1, z2, z3 = zs
    assert values[document["root"]] == sympy.Poly(z0 * z3 - z1 * z2, *gens, domain="QQ")
