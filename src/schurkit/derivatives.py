"""Dimension of the span of all partial derivatives, and product lower bounds.

The dimension counts the order-zero derivative (the polynomial itself): the
product of k distinct variables must come out at exactly 2^k, one derivative
per variable subset, and that count needs the full monomial and the constant.

The span is found by fraction-free elimination over the integers, on the
packed integer form that `poly` owns (`field` owns only its scalar side):
a row maps packed keys, in graded-lex order, to integer numerators
(`poly.packed_encode`), the polynomial's common denominator dropped, since
scaling a row does not change a rank.  A derivative is taken on those
entries directly (`poly.packed_partial`).  The echelon form maps each
pivot's leading key to its row divided by its content (the gcd of its
entries), so no rational is ever formed and the entries stay short.

The derivatives are taken breadth first, one order at a time, and each
order's rows are reduced sparsest first (by entry count, in a stable sort):
a dense row taken early becomes a pivot that every later row fills in
against.  An order's rows lie in the span of the earlier orders' pivots plus
the coordinate space of the monomials they touch (times the powers of w
below deg over Q(w)), so once the pivots are as many as that sum's dimension
bound they span it, and every further row of the order would reduce to
zero.  Such a row is skipped together with its derivatives: it is a
combination of rows already reduced, of this order and the earlier ones, so
its derivatives are combinations of theirs, which the next order holds or
the span already has.

For a homogeneous polynomial f of degree d the derivatives of order j are
homogeneous of degree d - j, so no two orders share a monomial and an
order's rows never reduce against an earlier order's pivots: each order's
pivot count is the rank of its own span.  Those ranks are mirrored: the
coefficient matrix of the order-j derivatives (rows by multi-index alpha,
columns by monomial x^beta, entry c_(alpha+beta) (alpha+beta)! / beta!) and
that of order d - j are transposes of one another up to the non-zero row
and column scalings alpha! and 1 / beta!, the catalecticant symmetry of
Macaulay's inverse systems (Iarrobino & Kanev, Power Sums, Gorenstein
Algebras and Determinantal Loci, 1999).  So only orders 0 .. d // 2 are
reduced, with no derivatives taken of the last, and each order below d / 2
counts twice.

Over Q(w), w a primitive n-th root of unity, the same integer routine runs
on more rows.  Q(w) is a Q-space of dimension deg = deg Phi_n, and the
Q(w)-span of the derivatives q, seen as a Q-space, is spanned by the rows
w^i * q for i < deg: its Q-dimension, the rank of those rows, is deg times
its Q(w)-dimension.  So the dimension over Q(w) is that rank divided by
deg, and a rank that deg does not divide is an error.

The product checks certify the 2^k lower bound for products of algebraically
independent families: at a common-zero witness every factor shifts to a
polynomial with zero constant term whose degree-one parts are linearly
independent, so the lowest homogeneous component of the shifted product is a
product of independent linear forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .errors import BudgetExceeded, ZeroPolynomial
from .field import common_order, fold_constants, omega, scalar_to_json
from .independence import shifted_witness, witness_jacobian
from .poly import Poly, packed_encode, packed_monomials, packed_partial, packed_product

DEFAULT_DERIVATIVE_BUDGET = 8192


def _add_row(pivots: dict, work: dict) -> dict | None:
    """Reduce the integer row `work` against the echelon form `pivots`,
    {lead key: content-free row}, and add what is left, if non-zero, divided
    by its content; returns that new pivot row, or None when `work` reduced
    to zero.  Each step clears the lead of `work` by
    work = a * work - b * pivot, a / b the pivot's lead over work's lead in
    lowest terms with a > 0, so every entry stays an integer and a = 1
    needs no scaling.  `work` is updated in place, so it must be the
    caller's own fresh row."""
    while work:
        lead = max(work)
        pivot = pivots.get(lead)
        if pivot is None:
            g = math.gcd(*work.values())
            row = {k: v // g for k, v in work.items()} if g > 1 else work
            pivots[lead] = row
            return row
        a, b = pivot[lead], work[lead]
        g = math.gcd(a, b) if a > 0 else -math.gcd(a, b)
        a //= g
        b //= g
        if a != 1:
            work = {k: a * v for k, v in work.items()}
        get = work.get
        for k, v in pivot.items():
            x = get(k, 0) - b * v
            if x:
                work[k] = x
            else:
                del work[k]
    return None


def pdc_dimension(p: Poly, budget: int | None = None) -> int:
    """Dimension of the span of all partial derivatives of all orders, order
    zero included.

    Derivatives beyond the per-variable degrees vanish, so the enumeration is
    finite; it is guarded by a budget (DEFAULT_DERIVATIVE_BUDGET when None)
    on the number of derivative multi-indices it may reach, counted before
    any work: those within the per-variable degrees of order at most the
    total degree d (every higher order vanishes), and for homogeneous input
    only those of order at most d // 2.

    Each derivative q, as packed integer entries, is reduced into an
    integer echelon form (`_add_row`); over Q the dimension is the rank.
    The derivatives of one order are reduced in order of increasing entry
    count.  An order stops, taking no further derivatives either, once the
    pivots number those from the earlier orders plus deg times the distinct
    monomials of its rows: they then span every row the order has left.
    Homogeneous input of degree d reduces orders 0 .. d // 2 only, r_j
    pivots at order j, and its rank is the sum of 2 * r_j over j < d / 2
    plus r_(d/2) when d is even (the module docstring gives the mirror).

    Over Q(w) the rows are w^i * q for i < deg, with one saving that keeps
    the rank: after each derivative the rows span a Q(w)-space.  So a q
    that reduces to zero has every w^i * q in the span and adds no row, and
    a q that leaves a remainder r adds r and w^i * r for 0 < i < deg, the
    same span as the w^i * q (r - q lies in it), each one a new pivot, and
    each shorter to reduce than w^i * q.
    """
    budget = DEFAULT_DERIVATIVE_BUDGET if budget is None else budget
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial spans nothing")
    arity = p.arity
    var_degrees = [p.degree_in(i) for i in range(arity)]
    top = p.total_degree()
    # orders 0 .. last are reduced, the last with no derivatives taken: a
    # homogeneous input of degree top mirrors order j onto order top - j,
    # and any other input has only constants at order top
    homogeneous = p.is_homogeneous()
    last = top // 2 if homogeneous else top
    # the multi-indices within the per-variable degrees by order, up to
    # last; an order past the budget is dropped, as the orders below it
    # then hold more than the budget
    reach = min(last, budget)
    counts = [1] + [0] * reach
    for d in filter(None, var_degrees):
        if sum(counts) > budget:
            break
        prefix = [0, *itertools.accumulate(counts)]
        counts = [prefix[j + 1] - prefix[max(0, j - d)] for j in range(reach + 1)]
    if sum(counts) > budget:
        raise BudgetExceeded(
            f"would enumerate more than {budget} derivative multi-indices of order at most {last}"
        )
    order = common_order(p.terms.values())
    deg = 1 if order is None else fold_constants(order)[0]
    width = top.bit_length()
    entries, _ = packed_encode(p, width, order)
    # the rows w^i * r of a new pivot r, 0 < i < deg, over Q(w)
    powers = [
        packed_encode(Poly.constant(arity, omega(order) ** i), width, order)[0]
        for i in range(1, deg)
    ]
    ranks: list[int] = []
    pivots: dict[int, dict] = {}
    frontier = {(0,) * arity: entries}
    seen = set(frontier)
    while frontier:
        rows = sorted(frontier.items(), key=lambda item: len(item[1]))
        cap = len(pivots) + deg * packed_monomials((k for _, q in rows for k, _ in q), order)
        start = len(pivots)
        next_frontier: dict[tuple, list] = {}
        for multi, q in rows:
            if len(pivots) >= cap:
                break
            row = _add_row(pivots, dict(q))
            if row is not None:
                for power in powers:
                    _add_row(pivots, packed_product(row.items(), power, order))
            if len(ranks) == last:
                continue
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
        ranks.append(len(pivots) - start)
        frontier = next_frontier
    if homogeneous:
        rank = sum(r if 2 * j == top else 2 * r for j, r in enumerate(ranks))
    else:
        rank = len(pivots)
    assert rank % deg == 0, "a Q(w)-span has a Q-dimension divisible by deg"
    return rank // deg


@dataclass(frozen=True)
class ProductBoundReport:
    dimension: int
    bound: int
    passed: bool
    point: tuple
    shifts: tuple = ()

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "bound": self.bound,
            "passed": self.passed,
            "point": [scalar_to_json(x) for x in self.point],
            "shifts": [scalar_to_json(x) for x in self.shifts],
        }


def product_pdc_check(polys, point, budget: int | None = None) -> ProductBoundReport:
    """Check dimension(prod q_i) >= 2^k at a verified common-zero witness.

    Also re-verifies the shift structure underlying the bound: at the witness
    every factor has a zero constant term and the degree-one components (the
    Jacobian rows there) are linearly independent (`witness_jacobian`).
    """
    polys = list(polys)
    k = len(polys)
    witness_jacobian(polys, point)
    product = Poly.constant(polys[0].arity, 1)
    for q in polys:
        product = product * q
    dim = pdc_dimension(product, budget=budget)
    bound = 2**k
    return ProductBoundReport(
        dimension=dim, bound=bound, passed=dim >= bound, point=tuple(point)
    )


def shifted_product_pdc_check(
    polys, seed: int = 0, budget: int | None = None
) -> ProductBoundReport:
    """Check dimension(prod (q_i - a_i)) >= 2^k for constructed shifts a_i.

    The shifts come from `shifted_witness`: a_i = q_i(c) for a point c where
    the Jacobian is non-singular, which places a common zero of the shifted
    family at c.  The report is `product_pdc_check` of the shifted family at
    c, which re-checks that witness, with the shifts attached.
    """
    polys = list(polys)
    shifts, c = shifted_witness(polys, seed=seed)
    arity = polys[0].arity
    shifted = [q - Poly.constant(arity, a) for q, a in zip(polys, shifts)]
    return replace(product_pdc_check(shifted, c, budget=budget), shifts=shifts)
