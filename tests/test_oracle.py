"""Checks against sympy, an implementation written by other people: the
package's own routes share one product kernel and one elimination, so a
fault there can agree with itself.  Skipped when sympy is not installed."""

import itertools

import pytest

sympy = pytest.importorskip("sympy", reason="sympy is not installed: the oracle checks need it")

from schurkit.derivatives import pdc_dimension
from schurkit.field import ScalarMatrix
from schurkit.independence import h_family_witness, p_family_witness, roots_of_unity_witness
from schurkit.symmetric import e_poly

from helpers import partial


def to_sympy(p, xs):
    """A rational `Poly` as a sympy expression in the symbols `xs`."""
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(x**k for x, k in zip(xs, e)))
            for e, c in p.terms.items()
        )
    )


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
