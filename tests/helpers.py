"""Input builders and a call counter shared by the test files; the package
itself needs none of them."""

import itertools
import random

from schurkit import circuits, transforms
from schurkit.circuits import Formula, const, inp, prod_node, sum_node
from schurkit.errors import LengthMismatch
from schurkit.field import ONE, Rat, interpolation_weights
from schurkit.partitions import Partition, staircase
from schurkit.poly import Poly
from schurkit.symmetric import det_poly_matrix, e_poly, generalized_vandermonde, h_poly
from schurkit.transforms import jacobi_trudi_formula


def random_formula(rng: random.Random, arity: int, max_depth: int = 4) -> Formula:
    """A small random formula; coefficients are small rationals."""

    def build(depth: int):
        if depth <= 0 or rng.random() < 0.3:
            if rng.random() < 0.25:
                return const(rng.randint(-3, 3))
            return inp(rng.randrange(arity))
        fan = rng.randint(2, 3)
        children = [build(depth - 1) for _ in range(fan)]
        if rng.random() < 0.5:
            return sum_node(children, [rng.randint(-2, 2) or 1 for _ in children])
        return prod_node(children)

    return Formula(build(max_depth), arity)


def tree_metrics(node, point) -> tuple:
    """(size, depth, degree, value at `point`) of the formula below `node`,
    by plain recursion over the unfolded tree: the reference for the
    metrics and evaluation of `Formula`.  Size and depth count every child;
    degree and value skip the children of zero-weight edges."""
    below = [tree_metrics(c, point) for c in node.children]
    size = 1 + sum(m[0] for m in below)
    depth = 1 + max(m[1] for m in below) if below else 0
    if node.kind == "input":
        return size, depth, 1, point[node.var]
    if node.kind == "const":
        return size, depth, 0, node.value
    if node.kind == "sum":
        live = [(w, m) for w, m in zip(node.weights, below) if w != 0]
        value = sum((w * m[3] for w, m in live), Rat(0))
        return size, depth, max((m[2] for _, m in live), default=0), value
    value = Rat(1)
    for m in below:
        value = value * m[3]
    return size, depth, sum(m[2] for m in below), value


def symmetrize(p: Poly) -> Poly:
    """Sum of p over all variable permutations."""
    out = Poly.zero(p.arity)
    for perm in itertools.permutations(range(p.arity)):
        out = out + p.permute_vars(perm)
    return out


def partial(p: Poly, multi) -> Poly:
    """The derivative of p of multi-index `multi`, by repeated
    `Poly.derivative`."""
    for i, m in enumerate(multi):
        for _ in range(m):
            p = p.derivative(i)
    return p


def counted(monkeypatch, cls, name) -> list:
    """Patch the method cls.name with a wrapper that appends each receiver
    to the returned list, then calls the original."""
    calls = []
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


def full_lattice_extraction(monkeypatch):
    """Put back the reduction's earlier degree extraction, the D + 1 scaled
    copies at t = 0..D, in place of the D - l + 1 at t = 1..D - l + 1."""
    monkeypatch.setattr(
        transforms,
        "_lowest_component",
        lambda f, bound, degree: transforms._interpolated_combination(f, bound, (degree,)),
    )


def counted_walks(monkeypatch) -> list:
    """Patch `expand_nodes`, in `circuits` (where `Formula.expand` calls
    it) and in `transforms`, with a wrapper that appends each call's
    (roots, arity) to the returned list, then calls the original."""
    calls = []
    original = circuits.expand_nodes

    def wrapper(roots, arity, budget=None):
        calls.append((list(roots), arity))
        return original(roots, arity, budget)

    for module in (circuits, transforms):
        monkeypatch.setattr(module, "expand_nodes", wrapper)
    return calls


def coefficient_kinds(terms: dict) -> dict:
    """Each monomial's coefficient type, with its cyclotomic order (None
    for a rational)."""
    return {e: (type(c), getattr(c, "order", None)) for e, c in terms.items()}


def elementary_symmetric_formula(k: int, n: int) -> Formula:
    """A depth-3 formula for e_k(x_1..x_n) by interpolation.

    Expands prod_i (1 + a*x_i) at a = 0..n and weights each copy by the a^k
    coefficient of its Lagrange basis polynomial on those nodes, which
    isolates the coefficient of a^k, that is e_k.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    weights = interpolation_weights(n, (k,))
    children = [
        prod_node([sum_node([const(1), inp(i)], [ONE, Rat(a)]) for i in range(n)])
        for a in range(n + 1)
    ]
    return Formula(sum_node(children, weights), n)


def divide_bialternant(lam: Partition, n: int) -> Poly:
    """s_lam by the bialternant's definition: both alternants expanded by
    Leibniz, n! terms each, and divided by `Poly.divide_exact`.  The
    reference for `schur_bialternant`, which divides on the alternants'
    strictly decreasing exponents only."""
    if lam.length > n:
        raise LengthMismatch(f"partition has {lam.length} parts but only {n} variables")
    delta = staircase(n)
    shifted = tuple(lam.part(j) + delta[j] for j in range(n))
    return generalized_vandermonde(shifted, n).divide_exact(generalized_vandermonde(delta, n))


def packed_jacobi_trudi(labels, n: int, basis=h_poly) -> Poly:
    """det(basis(labels[i][j], n)) by `det_poly_matrix` over the full h or
    e polynomials, a negative label a zero entry: the reference for the
    determinant routes, which multiply on coefficients of partitions."""
    if not labels:
        return Poly.constant(n, 1)
    entries = {m: basis(m, n) if m >= 0 else Poly.zero(n) for row in labels for m in row}
    return det_poly_matrix([[entries[m] for m in row] for row in labels])


def leibniz_mutants(lam: Partition, n: int) -> dict:
    """`jacobi_trudi_formula(lam, n)` ("built") and mutants of it, by name:
    its first leaf h_m swapped for h_(m+1), its first sign flipped, the
    first factor of its first product moved to the second product (with
    two products or more), and its first leaf missing the term x1^m."""
    f = jacobi_trudi_formula(lam, n)
    weights = list(f.root.weights)
    products = [list(c.children) for c in f.root.children]
    leaf, *others = products[0]
    m = Formula(leaf, n).degree()

    def rebuilt(first, rest=products[1:], weights=weights):
        return Formula(sum_node([prod_node(p) for p in [first, *rest]], weights), n)

    next_h = jacobi_trudi_formula(Partition((m + 1,)), n).root.children[0].children[0]
    mutants = {
        "built": f,
        "leaf-to-next-h": rebuilt([next_h, *others]),
        "flipped-sign": rebuilt(products[0], weights=[-weights[0], *weights[1:]]),
        "leaf-missing-a-term": rebuilt([sum_node([leaf, prod_node([inp(0)] * m)], [1, -1]), *others]),
    }
    if len(products) > 1:
        mutants["moved-factor"] = rebuilt(others, [products[1] + [leaf], *products[2:]])
    return mutants
