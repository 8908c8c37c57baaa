"""Jacobians, algebraic-independence testing, and common-zero witnesses.

A family q_1..q_k in n variables is algebraically independent over
characteristic zero iff its Jacobian has symbolic rank k.  The rank at a
point never exceeds the symbolic rank, itself at most min(k, n), so one point
of rank min(k, n) settles it exactly: the seeded searches stop at the first
such point and settle the symbolic rank only after a miss.  The
transformation passes additionally need a *witness*: a point where every q_i
vanishes while the Jacobian still attains its symbolic rank.  For the
elementary, complete homogeneous and power-sum families the witness is the
vector of n-th roots of unity, so the verification runs in an exact
cyclotomic field.  Witnesses are always checked by explicit re-evaluation,
never trusted from their construction, and every witness check is
`witness_jacobian`: each member vanishes and the Jacobian at the point has
full row rank.  The root-of-unity families also check that their n-th
member does not vanish there, and the h-family's Jacobian is checked
against its closed form.

At a point (w^p_1, ..., w^p_n) of powers of one root of unity, which
`field.root_exponents` recognises, the members' values and their Jacobian
come from one pass over each member's terms by exponent arithmetic
(`field.root_value_and_gradient`): no derivative `Poly` is built and no
scalar multiplied.  `witness_jacobian` and `is_independence_witness` take
that route by themselves; at any other point they evaluate
`jacobian_at(jacobian(polys), point)`, the entries one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArityMismatch, GridExhausted, InvalidWitness, VerificationFailed
from .field import (
    GRID_ATTEMPTS,
    ScalarMatrix,
    bareiss,
    grid_points,
    omega,
    root_exponents,
    root_value_and_gradient,
)
from .poly import Poly
from .symmetric import e_poly, h_poly, p_poly

#: seeded grid points at which `symbolic_rank` evaluates the Jacobian, and
#: the draws after which `shifted_witness` decides from its own best rank
RANK_TRIALS = 20


@dataclass(frozen=True)
class CommonZeroWitness:
    """A verified common zero at which the Jacobian attains its symbolic rank.

    `jacobian` is the Jacobian of `polys` evaluated at `point`, the matrix
    whose rank was checked; row i belongs to polys[i].
    """

    point: tuple
    polys: tuple[Poly, ...]
    rank: int
    jacobian: ScalarMatrix


def jacobian(polys: list[Poly] | tuple[Poly, ...]) -> list[list[Poly]]:
    """The k x n matrix of first partials, row i = gradient of polys[i]."""
    polys = list(polys)
    if not polys:
        raise ValueError("need at least one polynomial")
    arity = polys[0].arity
    for q in polys:
        if q.arity != arity:
            raise ArityMismatch("polynomials disagree on arity")
    return [[q.derivative(j) for j in range(arity)] for q in polys]


def jacobian_at(jac: list[list[Poly]], point) -> ScalarMatrix:
    rows = len(jac)
    cols = len(jac[0])
    return ScalarMatrix(
        rows, cols, [jac[i][j].eval(point) for i in range(rows) for j in range(cols)]
    )


def _minor_degree_bound(jac: list[list[Poly]]) -> int:
    """Degree bound for any maximal minor: sum over rows of the max entry degree."""
    total = 0
    for row in jac:
        total += max((p.total_degree() for p in row if not p.is_zero()), default=0)
    return max(total, 1)


def symbolic_rank(jac: list[list[Poly]], seed: int = 0) -> int:
    """Rank of the Jacobian over the rational function field.

    Evaluates at seeded random grid points (the grid is large enough that by
    Schwartz-Zippel an undershoot is vanishingly unlikely), stopping early
    once the structural maximum is reached; small instances are additionally
    confirmed by exact fraction-free elimination over the polynomial entries.
    """
    k = len(jac)
    n = len(jac[0])
    max_rank = min(k, n)
    best = 0
    for point in grid_points(n, 2 * _minor_degree_bound(jac), seed, RANK_TRIALS):
        best = max(best, jacobian_at(jac, point).rank())
        if best == max_rank:
            break
    return _confirmed_rank(jac, best)


def _confirmed_rank(jac: list[list[Poly]], best: int) -> int:
    """The symbolic rank, given `best`, the largest rank of the Jacobian at
    the first RANK_TRIALS seeded grid points (or at the first point of rank
    min(k, n)); a k x n Jacobian with k * n <= 16 is confirmed by exact
    fraction-free elimination over its polynomial entries."""
    if len(jac) * len(jac[0]) > 16:
        return best
    exact, _ = bareiss(jac)
    if exact < best:
        raise VerificationFailed(
            "exact elimination disagrees with evaluated rank; arithmetic bug"
        )
    return exact


def _jacobian_at_common_zero(polys: list, point) -> ScalarMatrix:
    """The Jacobian of `polys` at `point`; raises InvalidWitness at the
    first poly that does not vanish there, before any later poly is read.

    At a point that `field.root_exponents` recognises, a poly of total
    degree two or more gives its value and its row in one pass over its
    terms (`field.root_value_and_gradient`); one of degree at most one
    takes `Poly.eval` on itself and on its constant partials, so its row
    keeps their types, and a point of the wrong length raises there.  Any
    other point takes `jacobian_at(jacobian(polys), point)`.
    """
    roots = root_exponents(point) if polys and len(point) == polys[0].arity else None
    rows = []
    for i, q in enumerate(polys, start=1):
        if roots is None:
            value, gradient = q.eval(point), None
        elif q.arity != len(point) or q.total_degree() <= 1:
            value = q.eval(point)
            gradient = [q.derivative(j).eval(point) for j in range(q.arity)]
        else:
            value, gradient = root_value_and_gradient(q.terms, *roots)
        if value != 0:
            raise InvalidWitness(
                f"the point is not a common zero of the family: member {i} does not vanish"
            )
        rows.append(gradient)
    if roots is None:
        return jacobian_at(jacobian(polys), point)
    return ScalarMatrix(len(rows), len(rows[0]), [x for row in rows for x in row])


def is_independence_witness(polys, point, seed: int = 0) -> bool:
    """True iff every poly vanishes at the point and the Jacobian rank there
    equals its symbolic rank.

    A rank of min(k, n) at the point is the symbolic rank, with no search;
    only a rank-deficient point is compared with `symbolic_rank(jac, seed)`.
    """
    polys = list(polys)
    try:
        jac = _jacobian_at_common_zero(polys, point)
    except InvalidWitness:
        return False
    rank = jac.rank()
    return rank == min(jac.rows, jac.cols) or rank == symbolic_rank(jacobian(polys), seed=seed)


def witness_jacobian(polys, point) -> ScalarMatrix:
    """The Jacobian of `polys` at `point`; raises InvalidWitness unless every
    poly vanishes there and that Jacobian has full row rank len(polys)."""
    polys = list(polys)
    jac = _jacobian_at_common_zero(polys, point)
    if jac.rank() != len(polys):
        raise InvalidWitness("Jacobian rank at the point is below the family size")
    return jac


def roots_of_unity_point(n: int) -> tuple:
    """(1, w, w^2, ..., w^(n-1)) with w a primitive n-th root of unity."""
    w = omega(n)
    return tuple(w**i for i in range(n))


def _family_witness(n: int, family, name: str) -> CommonZeroWitness:
    """The root-of-unity witness of family(1, n) .. family(n-1, n), checked
    by `witness_jacobian`; family(n, n) must not vanish at the point."""
    if n < 2:
        raise ValueError("need n >= 2")
    point = roots_of_unity_point(n)
    polys = tuple(family(k, n) for k in range(1, n))
    jac = witness_jacobian(polys, point)
    if not family(n, n).eval(point):
        raise VerificationFailed(
            f"{name}_{n} unexpectedly vanishes at the root-of-unity point for n={n}"
        )
    return CommonZeroWitness(point=point, polys=polys, rank=n - 1, jacobian=jac)


def roots_of_unity_witness(n: int) -> CommonZeroWitness:
    """Verified witness for the elementary family e_1..e_(n-1) on n variables.

    The point is the full set of n-th roots of unity: they are the roots of
    z^n - 1, whose non-extreme coefficients all vanish, so every e_k with
    k < n is zero there; distinctness of the coordinates keeps the Jacobian
    at full rank.
    """
    return _family_witness(n, e_poly, "e")


def h_family_witness(n: int) -> CommonZeroWitness:
    """Verified witness for h_1..h_(n-1); same point as the elementary family.

    The evaluated Jacobian is also checked against its closed form
    J[m][j] = w^(j(m-1)) (rows m = 1..n-1, columns j = 0..n-1): from
    H(t) = prod 1/(1 - x_i t), dh_m/dx_j = sum_{a=1..m} x_j^(a-1) h_(m-a),
    and h_r vanishes at the point for 1 <= r <= n-1, leaving x_j^(m-1).
    """
    witness = _family_witness(n, h_poly, "h")
    point = witness.point
    for m in range(1, n):
        for j in range(n):
            if witness.jacobian.entry(m - 1, j) != point[j * (m - 1) % n]:
                raise VerificationFailed(
                    f"Jacobian entry ({m}, {j}) of the h-family differs from "
                    f"w^{j * (m - 1) % n} at the root-of-unity point for n={n}"
                )
    return witness


def p_family_witness(n: int) -> CommonZeroWitness:
    """Verified witness for p_1..p_(n-1); same point as the elementary family."""
    return _family_witness(n, p_poly, "p")


def shifted_witness(polys, seed: int = 0):
    """Shifts a_i and a point c making {q_i - a_i} vanish at c with full rank.

    Walks `grid_points` over a grid larger than the degree of any maximal
    Jacobian minor (Schwartz-Zippel) to the first c where the Jacobian has
    rank k = len(polys), which certifies independence, and sets a_i = q_i(c).
    Raises InvalidWitness for k > n (before sampling) or a dependent family,
    GridExhausted if an independent one finds no such c in GRID_ATTEMPTS
    draws (overwhelmingly unlikely).  A walk with no such c in its first
    RANK_TRIALS draws has met the points `symbolic_rank` would evaluate, so
    it decides there from its own best rank (confirmed exactly for small
    Jacobians, as `symbolic_rank` does): a rank below k raises
    InvalidWitness at once, and rank k lets the walk go on.
    """
    polys = list(polys)
    jac = jacobian(polys)
    k = len(polys)
    n = polys[0].arity
    if k > n:
        raise InvalidWitness("more polynomials than variables are never independent")
    best = 0
    for draw, c in enumerate(grid_points(n, 2 * _minor_degree_bound(jac), seed)):
        if draw == RANK_TRIALS and _confirmed_rank(jac, best) != k:
            raise InvalidWitness("polynomials are not algebraically independent")
        rank = jacobian_at(jac, c).rank()
        if rank == k:
            return tuple(q.eval(c) for q in polys), c
        best = max(best, rank)
    raise GridExhausted(f"no non-singular point found in {GRID_ATTEMPTS} samples")
