"""Formula rewriting passes.

Every pass here takes a formula and returns a formula whose expansion is a
specified transform of the input's expansion, so each one is directly
checkable by the brute-force expansion oracle:

* homogeneous-component extraction by Lagrange interpolation over the input
  scalings t = 0..f.degree() (weights from `field.interpolation_weights`),
* shifting the inputs by a point,
* division elimination through a truncated geometric series around a
  non-vanishing point of the divisor,
* recovery of the outer polynomial from a formula computing a composition
  g(q_1, ..., q_k) with g homogeneous of degree d and the q_i an
  algebraically independent family, through a common-zero witness that
  the pass checks itself (`witness_jacobian`).  At the witness the shifted
  formula has no component below d, so the degree-d one comes from the
  D - d + 1 scaled copies at t = 1..D - d + 1 (D the total degree), not
  the D + 1 at t = 0..D: the copy at 0 and the low degrees drop out.
  The linear forms are undone by one Gauss-Jordan elimination of the
  Jacobian augmented with the identity; the result is checked to be
  homogeneous of degree d and by composing its expansion with the family,
* the end-to-end pipeline taking a formula for s_lambda to a formula for
  the l x l determinant, under one hypothesis: the l^2 Jacobi-Trudi labels
  are distinct members of h_1..h_(n-1) (`reduction_hypothesis_holds`).
  It checks the input against s_lambda and expands the output against
  det_l, and needs no composition: those two imply it.  An input formula
  given to it is expanded; the one it builds itself, the Leibniz
  expansion of det(h_(lam_i - i + j)), never is: its leaves are expanded
  and compared with the h's, and the signed sum of their products is
  taken on the coefficients of partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuits import (
    DEFAULT_TERM_BUDGET,
    Formula,
    const,
    constant_formula,
    expand_nodes,
    fold,
    inp,
    postorder,
    prod_node,
    size_depth,
    sum_node,
    variable_formula,
)
from .errors import (
    ArityMismatch,
    BudgetExceeded,
    NoNonvanishingPoint,
    NotReducible,
    ReductionMismatch,
    VerificationFailed,
)
from .field import (
    GRID_ATTEMPTS,
    ONE,
    ZERO,
    Rat,
    demote,
    gauss_jordan,
    grid_points,
    interpolation_weights,
    scalar_to_json,
)
from .independence import roots_of_unity_point, witness_jacobian
from .partitions import Partition
from .poly import Poly
from .symmetric import (
    all_distinct,
    det_poly_matrix,
    h_poly,
    h_product_sum,
    jacobi_trudi_labels,
    schur_jt_h,
    schur_partition_form,
    schur_term_count,
    signed_permutations,
)

#: asserted bound: output size <= this constant * input_size^2 * n
REDUCTION_SIZE_CONSTANT = 8


def _scaled_combination(f: Formula, scales, weights) -> Formula:
    """sum of w * f(t*x) over the paired scales t and weights w, one sum
    gate over the scaled copies."""
    copies = [
        f.substitute(
            {i: Formula(sum_node([inp(i)], [Rat(t)]), f.arity) for i in range(f.arity)}
        )
        for t in scales
    ]
    return Formula.combine(copies, weights)


def _interpolated_combination(f: Formula, bound: int, degrees) -> Formula:
    """sum_t w_t * f(t*x) over t = 0..bound, with the Lagrange weights that
    keep the components of f of the given degrees."""
    return _scaled_combination(f, range(bound + 1), interpolation_weights(bound, degrees))


def _lowest_component(f: Formula, bound: int, degree: int) -> Formula:
    """The degree-d component of f, for an f with no component below d.

    f(t*x) = sum_(e=d..D) t^e f_e(x), D = bound, so f(t*x) / t^d is a
    polynomial in t of degree m - 1, m = D - d + 1, whose value at t = 0
    is f_d.  The m copies at t = 1..m recover it with the Lagrange weights
    for the value at 0 on those nodes, (-1)^(t-1) * C(m, t), each divided
    by t^d.  A component of f below d would leak into the result.
    """
    m = bound - degree + 1
    scales = range(1, m + 1)
    weights = [Rat((-1) ** (t - 1) * math.comb(m, t), t**degree) for t in scales]
    return _scaled_combination(f, scales, weights)


def homogeneous_component_formula(f: Formula, degree: int) -> Formula:
    """A formula for the degree-d homogeneous component of f.

    Interpolation over input scalings: f(t*x) is a polynomial in t whose
    t^d coefficient is the wanted component, so the scaled copies at
    t = 0..D weighted by the t^d coefficients of the Lagrange basis on those
    nodes isolate it.  D is `f.degree()`, the degree bound read off the
    structure; a component above it is zero.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    bound = f.degree()
    if degree > bound:
        return constant_formula(f.arity, 0)
    return _interpolated_combination(f, bound, (degree,))


def shift_formula(f: Formula, point) -> Formula:
    """The formula x -> f(point + x); one affine leaf per shifted input."""
    if len(point) != f.arity:
        raise ArityMismatch(f"point length {len(point)} vs arity {f.arity}")
    mapping = {}
    for i, a in enumerate(point):
        if a:
            mapping[i] = Formula(sum_node([inp(i), const(a)], [ONE, ONE]), f.arity)
    if not mapping:
        return f
    return f.substitute(mapping)


def _nonvanishing_point(r: Formula, seed: int) -> tuple:
    """A grid point where the formula evaluates to something non-zero.

    Walks `grid_points` over {0, ..., 2*size}^arity; a non-zero polynomial
    of degree <= size vanishes on under half of that grid.
    """
    for point in grid_points(r.arity, 2 * r.size(), seed):
        if r.eval(point):
            return point
    raise NoNonvanishingPoint(
        f"divisor vanished on {GRID_ATTEMPTS} grid samples; check the degree setup"
    )


def divide_formula(
    p: Formula, r: Formula, degree_bound: int, seed: int = 0
) -> Formula:
    """A division-free formula for the exact quotient expand(p) / expand(r).

    Divisibility is checked by expansion (raising NotDivisible otherwise).
    The construction shifts both formulas to a point where r is non-zero,
    multiplies p by a truncated geometric series for 1/r there, extracts the
    components of degree <= degree_bound, and shifts back.
    """
    if p.arity != r.arity:
        raise ArityMismatch(f"arity {p.arity} vs {r.arity}")
    arity = p.arity
    p_poly = p.expand()
    r_poly = r.expand()
    if r_poly.is_zero():
        raise ZeroDivisionError("division by a formula computing zero")
    quotient = p_poly.divide_exact(r_poly)
    if quotient.is_zero():
        return constant_formula(arity, 0)
    if degree_bound < quotient.total_degree():
        raise ValueError(
            f"degree bound {degree_bound} below quotient degree {quotient.total_degree()}"
        )
    a = _nonvanishing_point(r, seed)
    r0 = r.eval(a)
    p1 = shift_formula(p, a)
    r1 = shift_formula(r, a)
    # s computes 1 - r1/r0, which has zero constant term
    s = sum_node([const(1), r1.root], [ONE, -(ONE / r0)])
    geom_children = [const(1)] + [
        prod_node([s] * i) if i > 1 else s for i in range(1, degree_bound + 1)
    ]
    candidate = Formula(
        prod_node([p1.root, sum_node(geom_children), const(ONE / r0)]), arity
    )
    bound = candidate.degree()
    truncated = _interpolated_combination(
        candidate, bound, range(min(degree_bound, bound) + 1)
    )
    return shift_formula(truncated, tuple(-x for x in a))


# ---------------------------------------------------------------------------
# recovering the outer polynomial of a composition
# ---------------------------------------------------------------------------

def _recover_traced(f, bound, inner, degree, point):
    """The passes of `recover_outer_formula` and their trace: returns
    (formula for g, [(pass name, formula)]); `bound` is the total degree
    of f's expansion.

    The witness is checked here, once, by `witness_jacobian`: every inner
    polynomial vanishes at `point` and their Jacobian there has rank k
    (else InvalidWitness).  The result itself is unchecked; each caller
    checks it against what it knows: `recover_outer_formula` composes it
    with the inner family, `schur_to_det_reduce` compares the relabelled
    output with det_l.

    The degree extraction takes bound - degree + 1 scaled copies at
    t = 1..bound - degree + 1 (`_lowest_component`): shifting keeps the
    total degree, so that bound holds for the shifted formula, and a
    cancelling pair of high-degree terms, which inflates `f.degree()`, does
    not inflate it.  No copy at t = 0 and none for the degrees below
    `degree` is needed because f is taken to be g(q_1..q_k) with g
    homogeneous of that degree: the q_i vanish at the witness, so each
    q_i(point + x) has no constant term and the shifted formula no
    component below `degree`.  Soundness rests on that precondition; an
    input that breaks it yields a wrong result, which the caller's check
    refuses.
    """
    inner = list(inner)
    k = len(inner)
    arity = f.arity
    for q in inner:
        if q.arity != arity:
            raise ArityMismatch("inner polynomials disagree with formula arity")
    rows = witness_jacobian(inner, point).to_rows()
    trace = []

    shifted = shift_formula(f, point)
    trace.append(("shift-to-witness", shifted))

    if degree > bound:
        extracted = constant_formula(arity, 0)
    else:
        extracted = _lowest_component(shifted, bound, degree)
    trace.append((f"extract-degree-{degree}", extracted))

    # one elimination of [J | I_k] gives [R | E] with E*J = R and
    # R[:, cols] = I, so row m of E is row m of the inverse of J[:, cols]
    reduced, cols = gauss_jordan(
        [
            list(row) + [ONE if i == j else ZERO for j in range(k)]
            for i, row in enumerate(rows)
        ],
        arity,
    )
    if len(cols) < k:
        raise VerificationFailed(
            f"Jacobian rank below {k}; witness rank check should have caught this"
        )
    mapping = {}
    for m, c in enumerate(cols):
        row = reduced[m][arity:]
        children = [inp(i) for i in range(k) if row[i]]
        weights = [w for w in row if w]
        mapping[c] = Formula(sum_node(children, weights), k)
    # unselected inputs become zero, wrapped in a gate so that this pass
    # deepens every variable leaf by one (see `ReductionReport` on depth)
    zero_form = Formula(sum_node([const(0)]), k)
    for j in range(arity):
        if j not in mapping:
            mapping[j] = zero_form
    result = extracted.substitute(mapping, arity=k)
    trace.append(("substitute-inverse-linear-forms", result))
    return result, trace


def recover_outer_formula(f: Formula, inner, degree: int, point) -> Formula:
    """Given a formula for g(q_1..q_k) with g homogeneous of the stated degree,
    build a formula for g itself.

    `inner` is the algebraically independent family (q_i) and `point` a
    common zero at which their Jacobian attains full rank (obtainable from
    `schurkit.independence`).  The pipeline shifts to the witness, extracts
    the degree-d component (which equals g applied to the Jacobian's linear
    forms), and undoes those linear forms through an exact matrix inverse.
    The extraction interpolates over t = 1..D - d + 1 only, D the input's
    total degree, which is sound only for such a composition: only then
    does the shifted input have no component below d.

    The result is expanded, must be homogeneous of the stated degree, and
    is re-composed with the inner family; a failure of either (e.g. a
    non-homogeneous g, or an input that is no composition) raises
    ReductionMismatch.  These checks are what guard the precondition:
    passing both, the result composed with the family is the input, with
    an outer polynomial homogeneous of that degree.  A point that is not a
    common zero with Jacobian rank k raises InvalidWitness.  The input is
    expanded before the witness is checked, so an input over the term
    budget raises BudgetExceeded first.
    """
    inner = list(inner)
    expanded = f.expand()
    result, _ = _recover_traced(f, expanded.total_degree(), inner, degree, point)
    # the recovered coefficients are rationals stored in the witness's
    # cyclotomic field; demoted, the composition runs over Q
    recovered = result.expand().map_coefficients(demote)
    if not (recovered.is_homogeneous() and recovered.total_degree() in (degree, -1)):
        raise ReductionMismatch(
            f"the recovered polynomial is not homogeneous of degree {degree}; "
            "the input was not a homogeneous composition of this family"
        )
    if recovered.compose(inner) != expanded:
        raise ReductionMismatch(
            "composing the recovered polynomial with the inner family does "
            "not reproduce the input; the input was not a homogeneous "
            "composition of this family"
        )
    return result


# ---------------------------------------------------------------------------
# the Schur-to-determinant pipeline
# ---------------------------------------------------------------------------

def reduction_hypothesis_holds(lam: Partition, n: int) -> bool:
    """Whether the l^2 Jacobi-Trudi labels lam_i - i + j are distinct and
    lie in [1, n-1], so that s_lambda is det_l composed with distinct
    members of h_1..h_(n-1) (l = l(lam) >= 1).

    This is the gap condition on the parts.  Row i of the labels is the
    interval of the l consecutive integers from lam_i - i, and these starts
    fall strictly from row to row, so the rows are disjoint iff adjacent
    ones are, that is iff lam_i >= lam_(i+1) + l - 1.  The least label is
    lam_l - l + 1 and the greatest lam_1 + l - 1, so the range bounds read
    lam_l >= l and n >= lam_1 + l.  l^2 distinct labels in [1, n-1] need
    l^2 <= n - 1, tested first so that a long lambda builds no labels.
    """
    ell = lam.length
    if not 1 <= ell * ell <= n - 1:
        return False
    labels = jacobi_trudi_labels(lam)
    return all_distinct(labels) and all(1 <= m <= n - 1 for row in labels for m in row)


@dataclass(frozen=True)
class PassRecord:
    name: str
    size: int
    depth: int


@dataclass(frozen=True)
class ReductionReport:
    """Sizes, depths and the witness used, pass by pass.  The shift, the
    scaling, the combining gate and the substitution each deepen a variable
    leaf by one, a constant leaf gets the combining gate only: the depth
    increase is at most 4, exactly 4 when a deepest input leaf is a variable."""

    input_size: int
    input_depth: int
    output_size: int
    output_depth: int
    witness: tuple
    passes: tuple[PassRecord, ...]
    variables: int

    def depth_increase(self) -> int:
        return self.output_depth - self.input_depth

    def size_bound_ok(self) -> bool:
        return self.output_size <= REDUCTION_SIZE_CONSTANT * self.input_size**2 * self.variables

    def to_json(self) -> dict:
        return {
            "input": {"size": self.input_size, "depth": self.input_depth},
            "output": {"size": self.output_size, "depth": self.output_depth},
            "depth_increase": self.depth_increase(),
            "witness": [scalar_to_json(x) for x in self.witness],
            "passes": [
                {"name": p.name, "size": p.size, "depth": p.depth}
                for p in self.passes
            ],
            "size_bound": {
                "constant": REDUCTION_SIZE_CONSTANT,
                "variables": self.variables,
                "satisfied": self.size_bound_ok(),
            },
        }


def jacobi_trudi_formula(lam: Partition, n: int) -> Formula:
    """A formula for s_lambda from the h-determinant, expanded over permutations.

    Each h_m entry is built by the first-variable recursion
    h_m(x_i..x_n) = x_i * h_{m-1}(x_i..x_n) + h_m(x_{i+1}..x_n), with
    recurring subtrees physically shared.  The object still denotes the
    unfolded tree (size and depth count occurrences); sharing only keeps
    construction and expansion at desk scale.  The states h_m(x_i..x_n)
    form a table over (i, m), filled from the last variable up, so nothing
    recurses.
    """
    ell = lam.length
    if ell == 0:
        return constant_formula(n, 1)
    labels = jacobi_trudi_labels(lam)
    top = max(map(max, labels))
    one = const(1)
    last = inp(n - 1)
    # states[m] is h_m(x_i..x_n), for i from n - 1 down to 0
    states = [one, last] + [prod_node([last] * m) for m in range(2, top + 1)]
    for i in range(n - 2, -1, -1):
        x = inp(i)
        row = [one]
        for m in range(1, top + 1):
            row.append(sum_node([prod_node([x, row[m - 1]]), states[m]]))
        states = row

    children = []
    weights = []
    for sigma, sign in signed_permutations(range(ell)):
        idx = [labels[i][sigma[i]] for i in range(ell)]
        if any(m < 0 for m in idx):
            continue
        children.append(prod_node([states[m] for m in idx]))
        weights.append(sign)
    return Formula(sum_node(children, weights), n)


def _check_leibniz_input(f: Formula, lam: Partition, n: int, hs: dict, budget: int | None):
    """Raises ValueError unless f computes s_lambda in n variables, checked
    without expanding anything above its leaves.

    f is read as a signed sum of products of leaves, as
    `jacobi_trudi_formula` builds it: a root that is no sum gate is one
    term of weight 1, and a term that is no product gate is its one factor.
    Each distinct leaf is expanded once, all in one walk held to `budget`
    (`expand_nodes`), and must be h_m, m its total degree (`hs` holds some
    h_m already built).  The signed sum of the products of those h_m is
    then taken on the coefficients of partitions (`h_product_sum`) and
    compared with those of s_lambda from the e-determinant
    (`schur_partition_form`), whose kernel shares no code with the h side.
    """
    root = f.root
    terms = zip(root.weights, root.children) if root.kind == "sum" else [(ONE, root)]
    terms = [(w, c.children if c.kind == "product" else (c,)) for w, c in terms if w]
    # a Node hashes by identity, so a shared leaf is one key
    labels = dict.fromkeys(leaf for _, factors in terms for leaf in factors)
    for leaf, p in zip(list(labels), expand_nodes(list(labels), n, budget)):
        m = p.total_degree()
        if m < 0 or p != (hs[m] if m in hs else h_poly(m, n)):
            raise ValueError("input formula does not compute the Schur polynomial: a leaf is no h_m")
        labels[leaf] = m
    products = [(w, [labels[leaf] for leaf in factors]) for w, factors in terms]
    if h_product_sum(products, n) != schur_partition_form(lam, n):
        raise ValueError("input formula does not compute the Schur polynomial")


def schur_to_det_reduce(
    lam: Partition, n: int, f: Formula | None = None, budget: int | None = None
) -> tuple[Formula, ReductionReport]:
    """Turn a formula for a qualifying s_lambda into one for the l x l determinant.

    The h-determinant entries of such a lambda are distinct h_m with
    1 <= m <= n-1, so s_lambda is a composition of the determinant (as the
    outer homogeneous polynomial, degree l) with a subfamily of the
    h-polynomials, whose common zero at the n-th roots of unity the recovery
    pass checks.  Recovering the outer polynomial and relabeling its
    variables to the matrix layout yields the determinant formula, at most 4
    deeper than the input (see `ReductionReport`).  Output variables are
    row-major: z_{i,j} is variable (i-1)*l + (j-1).  `budget` bounds the
    term count of the pipeline's expansions, as in `Formula.expand`: of a
    given input formula and of the output.  With no input formula it is
    first held against the exact term count of s_lambda
    (`schur_term_count`), so that an instance whose s_lambda is over it
    raises BudgetExceeded before the formula is built, and then bounds the
    expansion of the built formula's leaves.

    Each identity is checked once.  The input must have arity n and
    compute s_lambda (else ValueError), and the output must expand to
    `det_poly(l)` (else VerificationFailed).  A given input formula is
    expanded and compared with `schur_jt_h(lam, n)`.  The input the
    pipeline builds, the Leibniz expansion of det(h_(lam_i - i + j)), is
    checked without expanding it (`_check_leibniz_input`):

    * each distinct leaf expands to h_m, m its degree, so the formula
      computes the signed sum of the products of those h_m;
    * that sum is symmetric, and so is s_lambda, and a symmetric
      polynomial in n variables is fixed by its coefficients on
      partitions; so the two are equal when the sum, taken on partitions,
      equals det(e_(lam'_i - i + j)) there, which is det(h_(lam_i - i +
      j)) = s_lambda (the dual Jacobi-Trudi identity, Macdonald I.3).

    So s_lambda is the input's polynomial, and its degree |lam| bounds the
    degree extraction.  It is det_l of h's that vanish at the witness, the
    precondition of the extraction's t = 1..|lam| - l + 1 lattice, so the
    input check also makes that extraction sound.  The input and output
    checks together imply that the recovered polynomial composed with the
    inner family reproduces the input, the check `recover_outer_formula`
    makes:

    * s_lambda is det(h_labels), that is det_l composed with the labelled
      h's, and `inner` is those h's in sorted-label order, so s_lambda is
      det_l relabelled, composed with `inner`;
    * the relabelling is a bijection on the variables, so an output that
      expands to det_l comes from a recovered polynomial that is det_l
      relabelled, and its composition with `inner` is s_lambda, the
      input's polynomial.
    """
    if not reduction_hypothesis_holds(lam, n):
        raise NotReducible(f"lambda={lam} with n={n} fails the gap hypothesis")
    ell = lam.length
    labels = jacobi_trudi_labels(lam)
    built = f is None
    if built:
        limit = DEFAULT_TERM_BUDGET if budget is None else budget
        count = schur_term_count(lam, n, limit)
        if count > limit:
            raise BudgetExceeded(
                f"expansion exceeded {limit} terms before the build: "
                f"s_{lam} on {n} variables has at least {count}"
            )
        f = jacobi_trudi_formula(lam, n)
    elif f.arity != n:
        # checked before the expansion, which builds arity-long exponent vectors
        raise ValueError(f"input formula has arity {f.arity}; s_{lam} has {n} variables")
    elif f.expand(budget=budget) != schur_jt_h(lam, n):
        raise ValueError("input formula does not compute the Schur polynomial")

    sorted_labels = sorted(m for row in labels for m in row)
    inner = [h_poly(m, n) for m in sorted_labels]
    if built:
        _check_leibniz_input(f, lam, n, dict(zip(sorted_labels, inner)), budget)
    # s_lambda is homogeneous of degree |lambda|, non-zero as l <= n
    point = roots_of_unity_point(n)
    recovered, trace = _recover_traced(f, lam.weight, inner, ell, point)

    k = ell * ell
    position = {labels[i][j]: i * ell + j for i in range(ell) for j in range(ell)}
    mapping = {
        t: variable_formula(k, position[m]) for t, m in enumerate(sorted_labels)
    }
    output = recovered.substitute(mapping, arity=k)
    trace.append(("relabel-to-matrix-layout", output))

    passes = tuple(PassRecord(name, *fold(postorder(g.root), size_depth)) for name, g in trace)
    input_size, input_depth = fold(postorder(f.root), size_depth)
    report = ReductionReport(
        input_size=input_size,
        input_depth=input_depth,
        output_size=passes[-1].size,
        output_depth=passes[-1].depth,
        witness=point,
        passes=passes,
        variables=n,
    )
    if not report.size_bound_ok():
        raise VerificationFailed(
            f"output size {report.output_size} violates the recorded bound"
        )
    if output.expand(budget=budget) != det_poly(ell):
        raise VerificationFailed("output expansion does not equal the determinant")
    return output, report


def det_poly(ell: int) -> Poly:
    """The l x l determinant on row-major variables, as a polynomial."""
    arity = ell * ell
    return det_poly_matrix(
        [[Poly.variable(arity, i * ell + j) for j in range(ell)] for i in range(ell)]
    )
