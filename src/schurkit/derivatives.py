"""Dimension of the span of all partial derivatives, and product lower bounds.

The dimension counts the order-zero derivative (the polynomial itself): the
product of k distinct variables must come out at exactly 2^k, one derivative
per variable subset, and that count needs the full monomial and the constant.

The product checks certify the 2^k lower bound for products of algebraically
independent families: at a common-zero witness every factor shifts to a
polynomial with zero constant term whose degree-one parts are linearly
independent, so the lowest homogeneous component of the shifted product is a
product of independent linear forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, ZeroPolynomial
from .field import ONE
from .independence import shifted_witness, witness_jacobian
from .poly import Poly, grlex_key

DEFAULT_DERIVATIVE_BUDGET = 8192


class _Span:
    """Incremental row space over the scalar field, rows keyed by monomial."""

    def __init__(self):
        self.rows: dict[tuple, dict] = {}

    def add(self, p: Poly):
        """Reduce p against the span, and add what is left if non-zero."""
        work = dict(p.terms)
        while work:
            lead = max(work, key=grlex_key)
            pivot_row = self.rows.get(lead)
            if pivot_row is None:
                inv = ONE / work[lead]
                self.rows[lead] = {e: c * inv for e, c in work.items()}
                return
            factor = work[lead]
            for e, c in pivot_row.items():
                acc = work.get(e)
                sub = factor * c
                if acc is None:
                    work[e] = -sub
                else:
                    acc = acc - sub
                    if acc:
                        work[e] = acc
                    else:
                        del work[e]


def pdc_dimension(p: Poly, budget: int | None = None) -> int:
    """Dimension of the span of all partial derivatives of all orders, order
    zero included.

    Derivatives beyond the per-variable degrees vanish, so the enumeration is
    finite; it is guarded by a budget on the number of derivative
    multi-indices (DEFAULT_DERIVATIVE_BUDGET when None).
    """
    budget = DEFAULT_DERIVATIVE_BUDGET if budget is None else budget
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial spans nothing")
    var_degrees = [p.degree_in(i) for i in range(p.arity)]
    count = 1
    for d in var_degrees:
        count *= d + 1
        if count > budget:
            raise BudgetExceeded(
                f"would enumerate more than {budget} derivative multi-indices"
            )
    span = _Span()
    span.add(p)
    frontier = {(0,) * p.arity: p}
    seen = set(frontier)
    while frontier:
        next_frontier: dict[tuple, Poly] = {}
        for order, q in frontier.items():
            for i in range(p.arity):
                if order[i] + 1 > var_degrees[i]:
                    continue
                key = order[:i] + (order[i] + 1,) + order[i + 1 :]
                if key in seen:
                    continue
                seen.add(key)
                dq = q.derivative(i)
                if dq.is_zero():
                    continue
                next_frontier[key] = dq
                span.add(dq)
        frontier = next_frontier
    return len(span.rows)


@dataclass(frozen=True)
class ProductBoundReport:
    dimension: int
    bound: int
    passed: bool
    point: tuple
    shifts: tuple = ()

    def to_json(self) -> dict:
        from .field import scalar_to_json

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
    family at c and reduces to the unshifted product bound.
    """
    polys = list(polys)
    k = len(polys)
    shifts, c = shifted_witness(polys, seed=seed)
    arity = polys[0].arity
    shifted = [q - Poly.constant(arity, a) for q, a in zip(polys, shifts)]
    product = Poly.constant(arity, 1)
    for q in shifted:
        product = product * q
    dim = pdc_dimension(product, budget=budget)
    bound = 2**k
    return ProductBoundReport(
        dimension=dim, bound=bound, passed=dim >= bound, point=c, shifts=shifts
    )
