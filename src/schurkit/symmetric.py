"""Symmetric polynomial families, built by every route we can cross-check.

The Schur polynomial for a partition is constructed four independent ways:

* bialternant: the ratio of two generalized Vandermonde determinants
  (alternants), divided exactly on the alternants' strictly decreasing
  exponents, so neither n!-term alternant is expanded,
* a determinant in the complete homogeneous basis (h),
* a determinant in the elementary basis (e) over the conjugate partition,
  both held, entry and minor alike, as coefficients on partitions (the
  monomial-symmetric basis), each minor multiplied by h_a or e_a there,
* the tableau generating function (column-strict fillings / Kostka counts),
  counted shape by shape by the branching rule.

Exact equality of the four expansions is the package's core sanity battery.
Symmetric polynomials are tested, rewritten and compared only on their
coefficients on partitions (`partition_form`).  `expand_orbits` expands
each into the distinct rearrangements of its exponents (`_rearrangements`);
the two determinants end there, and the bialternant inline, as its
subtraction walks the same rearrangements.  The tableau route builds every
exponent vector itself and assumes no symmetry, so a fault in that
expansion shows as a disagreement with it.
No route recurses: the bialternant runs one loop over the leading alternant
of its remainder, the determinants one loop per row over bit masks of free
columns, and the tableau route one loop per entry over shapes.
Also here: s_lambda on the coefficients of partitions and its exact term
count, skew determinants, the closed form for the scaled-staircase
family, e_k over the h and p bases by the classical recurrences (E(t) H(-t)
= 1 and Newton's identities), any symmetric polynomial over the elementary
basis by the leading-term reduction.  Determinants of general polynomial
matrices (`det_poly_matrix`) run the Schur determinants' mask loop
(`_cofactor_expansion`) in `Poly` arithmetic.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from operator import itemgetter
from typing import Sequence

from .errors import ArityMismatch, LengthMismatch, NotContained, NotSymmetric
from .field import ONE, Rat, common_order, embed
from .partitions import Partition, staircase
from .poly import Poly


# ---------------------------------------------------------------------------
# the three classical bases
# ---------------------------------------------------------------------------

def _monomial_sum(n: int, combos) -> Poly:
    """The sum of the monomials x_i1 * ... * x_ik, one per index tuple in
    `combos` (the tuples name distinct monomials)."""
    terms = {}
    for combo in combos:
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        terms[tuple(exps)] = ONE
    return Poly._raw(n, terms)


def e_poly(k: int, n: int) -> Poly:
    """Elementary symmetric polynomial: sum of all squarefree degree-k monomials."""
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    return _monomial_sum(n, itertools.combinations(range(n), k))


def h_poly(k: int, n: int) -> Poly:
    """Complete homogeneous symmetric polynomial: all degree-k monomials."""
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    return _monomial_sum(n, itertools.combinations_with_replacement(range(n), k))


def p_poly(k: int, n: int) -> Poly:
    """Power sum: x1^k + ... + xn^k."""
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    if k == 0:
        return Poly.constant(n, n)
    return _monomial_sum(n, ((i,) * k for i in range(n)))


# ---------------------------------------------------------------------------
# determinant expansion over polynomial entries
# ---------------------------------------------------------------------------

def _cofactor_expansion(rows, one, combine):
    """The determinant of the square matrix whose row i holds the non-zero
    entries rows[i] = {column: entry}, columns ascending, by cofactor
    expansion, each row along the columns the rows above it leave free.

    A set of free columns is a bit mask.  The minor of rows r..m-1 on mask
    M is the signed sum, over the j in M where row r is non-zero, of
    row[r][j] times the minor of rows r+1..m-1 on M minus j.  So the only
    masks ever needed are those reached from all columns by deleting, row
    by row, a column where the row is non-zero: a forward pass collects
    them, and a backward pass builds each one's minor from the next row's.
    That is O(2^m) products instead of m!, and each mask visits only its
    row's non-zero columns.  `one` is the minor of no rows,
    and `combine` takes a mask's (entry, minor, sign) parts to the minor
    sum of sign * entry * minor, or to None when that is zero; a zero
    minor is never a part.  Returns None for a zero determinant, and `one`
    for no rows.
    """
    m = len(rows)
    full = (1 << m) - 1
    levels = [{full}]
    for row in rows[:-1]:
        levels.append({mask ^ 1 << j for mask in levels[-1] for j in row if mask >> j & 1})
    minors = {0: one}
    for row, level in zip(reversed(rows), reversed(levels)):
        above = {}
        for mask in level:
            parts = []
            for j, entry in row.items():
                sub = minors.get(mask ^ 1 << j) if mask >> j & 1 else None
                if sub is not None:
                    # the sign of column j is that of its place among the free columns
                    pos = (mask & (1 << j) - 1).bit_count()
                    parts.append((entry, sub, -1 if pos & 1 else 1))
            minor = combine(parts) if parts else None
            if minor is not None:
                above[mask] = minor
        minors = above
    return minors.get(full)


def det_poly_matrix(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a matrix of polynomials by `_cofactor_expansion`, in
    `Poly` arithmetic.  Entries of two arities raise ArityMismatch.  The
    coefficients are all rational when every entry is, else all
    `CyclotomicScalar`s of the entries' one order (two orders raise
    DomainMismatch, even where they never meet in a product).
    """
    if not rows:
        raise ValueError("empty matrix needs an explicit arity; handle at call site")
    arity = rows[0][0].arity
    if any(p.arity != arity for row in rows for p in row):
        raise ArityMismatch("matrix entries disagree on arity")
    order = common_order(*(p.terms.values() for row in rows for p in row))
    # a cyclotomic minor of no rows makes every product, so every minor, cyclotomic
    one = Poly.constant(arity, ONE if order is None else embed(ONE, order))

    def combine(parts):
        acc = Poly.zero(arity)
        for entry, sub, sign in parts:
            acc = acc + entry * sub if sign > 0 else acc - entry * sub
        return acc or None

    det = _cofactor_expansion([{j: p for j, p in enumerate(row) if p.terms} for row in rows], one, combine)
    return Poly.zero(arity) if det is None else det


# ---------------------------------------------------------------------------
# generalized Vandermonde determinants and the bialternant route
# ---------------------------------------------------------------------------

def _check_exponent_vector(exps: Sequence[int], n: int):
    if len(exps) != n:
        raise LengthMismatch(f"{len(exps)} exponents for {n} variables")
    for a, b in zip(exps, exps[1:]):
        if a <= b:
            raise ValueError(f"exponents must strictly decrease: {tuple(exps)}")
    if exps[-1] < 0:
        raise ValueError("exponents must be non-negative")


def signed_permutations(items: Sequence) -> list[tuple[tuple, Rat]]:
    """Every arrangement of `items` with the sign of its permutation, in
    lexicographic order of positions.  Layer i takes the j-th of the items
    that layers 0..i-1 left, which puts it before the j of them that came
    first (j inversions), so the sign flips when j is odd."""
    items = tuple(items)
    layer = [((), ONE, items)]
    for _ in items:
        layer = [
            (head + (rest[j],), -sign if j & 1 else sign, rest[:j] + rest[j + 1 :])
            for head, sign, rest in layer
            for j in range(len(rest))
        ]
    return [(head, sign) for head, sign, _ in layer]


def generalized_vandermonde(exps: Sequence[int], n: int) -> Poly:
    """det(x_i^{mu_j}) for a strictly decreasing exponent vector mu, by
    Leibniz: one signed monomial per permutation, x_i^{mu_sigma(i)}.  The
    exponents are distinct, so no two of the n! monomials coincide."""
    exps = tuple(exps)
    _check_exponent_vector(exps, n)
    return Poly._raw(n, dict(signed_permutations(exps)))


def _rearrangements(values: Sequence[int]) -> list[tuple[int, ...]]:
    """Each distinct rearrangement of `values` once, built value by value,
    the rarest first: with the rearrangements of the values placed so far,
    each set of slots among the grown length that they take, in order,
    leaves the others to the next value.  So there are n! /
    prod(multiplicity!) of them, no permutation of all n positions is ever
    formed, and each is made by one `itemgetter` call on an earlier one
    with the next value appended."""
    groups = sorted(Counter(values).items(), key=itemgetter(1))
    if len(groups) < 2:
        return [tuple(values)]
    (value, count), *rest = groups
    layer = [(value,) * count]
    size = count
    for value, count in rest:
        size += count
        getters = []
        for slots in itertools.combinations(range(size), size - count):
            index = [size - count] * size
            for k, i in enumerate(slots):
                index[i] = k
            getters.append(itemgetter(*index))
        layer = [get(row + (value,)) for row in layer for get in getters]
    return layer


def schur_bialternant(lam: Partition, n: int) -> Poly:
    """Schur polynomial as the exact ratio of alternants a_(lam+delta) /
    a_delta, divided on the alternants' own coordinates.

    Write a_gamma = det(x_i^(gamma_j)) = sum over permutations sigma of
    sign(sigma) x^(sigma gamma) for any exponent vector gamma: it is zero
    when gamma repeats an entry, and sign * a_(sort gamma) otherwise, sort
    gamma the decreasing rearrangement and sign that of the sorting
    permutation.  An antisymmetric polynomial is fixed by its coefficients
    on strictly decreasing exponents, so it is the sum of those
    coefficients times the a_nu; the ratio of two alternants is symmetric,
    a sum of c_mu times the monomial symmetric m_mu over partitions mu.
    Multiplying by a_delta, and reindexing the permutations,

        m_mu * a_delta = sum over the distinct rearrangements beta of mu
                         of a_(beta + delta).

    For beta != mu, sort(beta + delta) is dominated by mu + delta and is
    lex-smaller: the k largest entries of beta + delta sum to at most the k
    largest of beta plus the k largest of delta, the first k of mu + delta;
    and equal vectors would have equal sums of squares, so sum beta_i
    delta_i = sum mu_i delta_i, which by the rearrangement inequality, as
    delta strictly decreases, holds only at beta = mu.  So a_(mu+delta) has
    coefficient 1 in m_mu * a_delta and none in any m_mu' * a_delta with
    mu' + delta lex-smaller: the system a_(lam+delta) = sum c_mu m_mu
    a_delta is unitriangular.

    The remainder maps each strictly decreasing nu to the coefficient of
    a_nu, from {lam + delta: 1}.  Its lex-largest nu (all have weight
    |lam| + |delta|, so that is also the graded-lex leader) gives
    c_(nu-delta), and m_(nu-delta) * a_delta is subtracted from it, one
    sorted, signed a_(beta+delta) per rearrangement beta, the
    repeated-entry ones skipped.  This is the leading-term reduction that
    `Poly.divide_exact` runs on the n!-term alternants, taken on their
    antisymmetric coordinates, and an exact quotient is unique, so the two
    agree; the work is one step per term of s_lam, not one per pair of a
    quotient term and one of the n! divisor terms.  The coefficients are
    integers (they count tableaux) and come out as `Rat`s.
    """
    if lam.length > n:
        raise LengthMismatch(
            f"partition has {lam.length} parts but only {n} variables"
        )
    delta = staircase(n)
    remainder = {tuple(lam.part(j) + delta[j] for j in range(n)): 1}
    terms = {}
    while remainder:
        nu = max(remainder)
        c = remainder.pop(nu)
        mu = tuple(a - d for a, d in zip(nu, delta))
        coeff = Rat(c)
        for beta in _rearrangements(mu):
            terms[beta] = coeff
            if beta == mu:
                continue
            gamma = [b + d for b, d in zip(beta, delta)]
            if len(set(gamma)) < n:
                continue
            inversions = sum(a < b for i, a in enumerate(gamma) for b in gamma[i + 1 :])
            key = tuple(sorted(gamma, reverse=True))
            left = remainder.get(key, 0) + (c if inversions & 1 else -c)
            if left:
                remainder[key] = left
            else:
                del remainder[key]
    return Poly._raw(n, terms)


# ---------------------------------------------------------------------------
# determinant routes in the h and e bases
# ---------------------------------------------------------------------------

def _h_images(nu: tuple[int, ...], a: int, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The (mu, count) with count the coefficient of x^mu in m_nu * h_a, in
    n variables: the x^beta * x^alpha with beta a rearrangement of nu and
    |alpha| = a that give x^mu, one per beta <= mu (alpha = mu - beta).

    So mu holds nu, a cells more, at most n rows.  The rows are grown one
    at a time, each within its row above, and by at least what the rows
    below it, each at most as long, cannot take of what is left; so the
    last row takes the rest, and a huge a costs no more than a small one.
    With mu sorted, the rows at least v long are a prefix, so the beta
    come block by block of nu, largest value first: the m parts v go to m
    of the rows at least v long that larger parts left free, which
    multiplies count by a binomial."""
    if a == 0:
        return ((nu, 1),)
    size = min(n, len(nu) + a)
    nu += (0,) * (size - len(nu))
    below = list(itertools.accumulate(reversed(nu), initial=0))[::-1]
    grown = []
    layer = [((), a)]
    for i, v in enumerate(nu[:-1]):
        rows_below = size - i - 1
        nxt = []
        for prefix, rem in layer:
            if rem == 0:
                grown.append(prefix + nu[i:])
                continue
            least = max(0, -(-(rem - rows_below * v + below[i + 1]) // (rows_below + 1)))
            most = min(rem, prefix[-1] - v if prefix else rem)
            nxt.extend((prefix + (v + t,), rem - t) for t in range(least, most + 1))
        layer = nxt
    grown.extend(prefix + (nu[-1] + rem,) for prefix, rem in layer)
    blocks = []
    placed = 0
    for v, run in itertools.groupby(nu):
        if v:
            m = len(list(run))
            blocks.append((v, m, placed))
            placed += m
    images = []
    for mu in grown:
        count = 1
        for v, m, placed in blocks:
            rows = placed + m
            while rows < size and mu[rows] >= v:
                rows += 1
            count *= math.comb(rows - placed, m)
        images.append((mu[: size - mu.count(0)], count))
    return tuple(images)


def _e_images(nu: tuple[int, ...], a: int, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The (mu, count) with count the coefficient of x^mu in m_nu * e_a, in
    n variables: mu is nu with one added to a parts, and count is the
    number of a-subsets S with sort(mu - 1_S) = nu.

    Of a block of m parts v of nu (zeros included), adding one to k of them
    leaves the sorted order if they are the block's first k, so mu is
    sorted as built.  Its k parts v + 1 join the m' - k' parts v + 1 the
    block before left unraised, if that block's value is v + 1; a subset S
    that gives back nu lowers, among those k + (m' - k') equal parts of mu,
    exactly k, so count is the product of C(k + m' - k', k) over blocks.
    Each block takes at least what the later blocks cannot, so the last
    takes the rest."""
    blocks = [(v, len(list(run))) for v, run in itertools.groupby(nu)]
    if len(nu) < n:
        blocks.append((0, n - len(nu)))
    after = list(itertools.accumulate((m for _, m in reversed(blocks)), initial=0))[::-1]
    layer = [((), a, 1, None, 0)]
    for (v, m), later in zip(blocks, after[1:]):
        layer = [
            (
                parts + (v + 1,) * k + (v,) * (m - k if v else 0),
                rem - k,
                count * math.comb(k + (left if prev == v + 1 else 0), k),
                v,
                m - k,
            )
            for parts, rem, count, prev, left in layer
            for k in range(max(0, rem - later), min(rem, m) + 1)
        ]
    return tuple((parts, count) for parts, _, count, _, _ in layer)


def _images_sum(parts, n: int, images) -> dict | None:
    """The sum of sign * f_a * minor over the `parts` (a, minor, sign), with
    f_a = h_a or e_a as `images` is `_h_images` or `_e_images`, in n
    variables; each minor and the result are held as their coefficients on
    partitions, and each nu of a minor adds its coefficient times count to
    each mu of `images(nu, a, n)`.  None when the sum is zero."""
    acc = {}
    get = acc.get
    for a, minor, sign in parts:
        for nu, c in minor.items():
            c *= sign
            for mu, count in images(nu, a, n):
                acc[mu] = get(mu, 0) + count * c
    return {mu: c for mu, c in acc.items() if c} or None


def _jacobi_trudi_partitions(rows: list[dict[int, int]], n: int, elementary: bool = False) -> dict:
    """det(h_(labels[i][j])), or det(e_(labels[i][j])) when `elementary`,
    in n variables, as its coefficients on partitions, {mu: coefficient of
    x^mu} (mu's positive parts, at most n of them; {} for zero).
    rows[i] = {j: labels[i][j]} holds only the labels of row i that can
    give a non-zero entry: none negative, and for e none past n.  No rows
    give {(): 1}.

    Every entry and every minor is symmetric, so it is held on partitions
    too, and `_cofactor_expansion` multiplies a minor by h_a or e_a there
    (`_images_sum`).  The coefficients are integers.  A label past
    sys.maxsize raises OverflowError, as `h_poly` and `e_poly` do for such
    a degree.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    largest = max((max(row.values()) for row in rows if row), default=0)
    if largest > sys.maxsize:
        raise OverflowError(f"label {largest} is past sys.maxsize")
    images = _e_images if elementary else _h_images
    return _cofactor_expansion(rows, {(): 1}, lambda parts: _images_sum(parts, n, images)) or {}


def expand_orbits(form: dict, n: int) -> Poly:
    """The polynomial in n variables with rational coefficients {mu: c} on
    partitions: c on each distinct rearrangement of mu's n exponents."""
    terms = {}
    for mu, c in form.items():
        coeff = Rat(c)
        for beta in _rearrangements(mu + (0,) * (n - len(mu))):
            terms[beta] = coeff
    return Poly._raw(n, terms)


def _band_labels(lam: Partition, top) -> list[dict[int, int]]:
    """The labels lam_i - i + j of `jacobi_trudi_labels(lam)` in 0..top,
    row by row as {j: label}: lam_i - i falls as i grows, so row i's lie in
    the band of columns i - lam_i .. i - lam_i + top, and only those are
    built."""
    ell = lam.length
    return [
        {j: p - i + j for j in range(max(0, i - p), min(ell, i - p + top + 1))}
        for i, p in enumerate(lam.parts)
    ]


def schur_jt_h(lam: Partition, n: int) -> Poly:
    """Schur polynomial as det(h_{lam_i - i + j}) of size l(lam)."""
    return expand_orbits(_jacobi_trudi_partitions(_band_labels(lam, math.inf), n), n)


def schur_jt_e(lam: Partition, n: int) -> Poly:
    """Schur polynomial as det(e_{lam'_i - i + j}) over the conjugate partition."""
    return expand_orbits(schur_partition_form(lam, n), n)


def schur_partition_form(lam: Partition, n: int) -> dict:
    """s_lambda in n variables as its coefficients on partitions, {mu:
    coefficient of x^mu}: `schur_jt_e` before its expansion.  A symmetric
    polynomial in n variables is the sum of its
    coefficients times the monomial symmetric m_mu, so two are equal
    exactly when these coefficients are."""
    return _jacobi_trudi_partitions(_band_labels(lam.conjugate(), n), n, elementary=True)


def _product_sum(products, n: int, images) -> dict:
    """The sum of w * f_(a_1) * ... * f_(a_k) over the (w, (a_1, ..., a_k))
    in `products`, in n variables, with f_a = h_a or e_a as `images` is
    `_h_images` or `_e_images`, as its coefficients on partitions: each
    product is grown factor by factor, the empty product being f_0 = 1."""
    parts = []
    for w, labels in products:
        first, *rest = labels or (0,)
        minor = {(): 1}
        for a in rest:
            minor = _images_sum([(a, minor, 1)], n, images) or {}
        parts.append((first, minor, w))
    return _images_sum(parts, n, images) or {}


def h_product_sum(products, n: int) -> dict:
    """`_product_sum` of products of h's."""
    return _product_sum(products, n, _h_images)


def _orbit_size(mu: tuple[int, ...], n: int) -> int:
    """The number of distinct rearrangements of the partition mu padded to
    n entries: n! / ((n - l(mu))! prod_i m_i(mu)!), m_i the parts i."""
    orbit = math.perm(n, len(mu))
    for m in Counter(mu).values():
        orbit //= math.factorial(m)
    return orbit


def schur_term_count(lam: Partition, n: int, limit: int) -> int:
    """The number of terms of s_lambda in n variables, or, should it pass
    `limit`, the first partial count that does.

    s_lambda is the sum of K_(lam,mu) m_mu over partitions mu, and the
    Kostka number K_(lam,mu) is positive exactly when mu is dominated by
    lambda (Macdonald, Symmetric Functions and Hall Polynomials, I.6;
    Stanley, EC2, 7.10).  So the terms are the rearrangements of the mu of
    weight |lam| and at most n parts with mu_1 + ... + mu_k <= lam_1 + ... +
    lam_k for every k, `_orbit_size(mu, n)` of each.  The mu
    are grown part by part, each part within the one before, within that
    bound, and large enough that the parts left can hold the rest, and the
    largest part is tried first: lambda itself, with its n!/(n - l)!
    rearrangements, is the first mu counted.
    """
    weight = lam.weight
    bounds = list(itertools.accumulate(lam.parts))
    total = 0
    stack = [((), 0)]
    while stack:
        mu, size = stack.pop()
        k = len(mu)
        rest = weight - size
        if not rest:
            total += _orbit_size(mu, n)
            if total > limit:
                break
            continue
        # n - k > 0: each part leaves the n - k - 1 after it room for the rest
        most = min(mu[-1] if mu else rest, rest, (bounds[k] if k < len(bounds) else weight) - size)
        least = -(-rest // (n - k))
        stack.extend((mu + (v,), size + v) for v in range(least, most + 1))
    return total


# ---------------------------------------------------------------------------
# tableau route
# ---------------------------------------------------------------------------

def schur_ssyt(lam: Partition, n: int) -> Poly:
    """Schur polynomial as the generating function of column-strict tableaux
    (rows weakly increase, columns strictly increase, entries 1..n), counted
    by the branching rule rather than enumerated.

    The cells of a tableau holding its largest entry k form a horizontal
    strip at the foot of their columns (column strictness), and removing
    them leaves a tableau with entries below k of a shape mu, at most k - 1
    rows long, with shape_(i+1) <= mu_i <= shape_i; every such mu and
    tableau of shape mu extends back.  So one loop over k = n .. 1 keeps,
    for each shape still to fill, the exponents of x_k..x_n that its
    fillings by k..n spent and how many fillings spent them, and moves each
    shape to every such mu with |shape| - |mu| on x_k.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if lam.length > n:
        return Poly.zero(n)
    # each shape is padded to k parts, the rows that entries 1..k may fill
    layer = {lam.parts + (0,) * (n - lam.length): {(): 1}}
    for k in range(n, 0, -1):
        inner = {}
        for shape, counts in layer.items():
            size = sum(shape)
            for mu in itertools.product(*(range(shape[i + 1], shape[i] + 1) for i in range(k - 1))):
                strip = size - sum(mu)
                into = inner.setdefault(mu, {})
                for exps, count in counts.items():
                    key = (strip,) + exps
                    into[key] = into.get(key, 0) + count
        layer = inner
    return Poly._raw(n, {exps: Rat(count) for exps, count in layer[()].items()})


# ---------------------------------------------------------------------------
# skew determinants
# ---------------------------------------------------------------------------

def jacobi_trudi_labels(lam: Partition, mu: Partition | None = None) -> list[list[int]]:
    """The matrix of h-indices lam_i - mu_j - i + j (mu padded with zeros)."""
    mu = mu or Partition(())
    ell = lam.length
    return [
        [lam.part(i) - mu.part(j) - (i + 1) + (j + 1) for j in range(ell)]
        for i in range(ell)
    ]


def all_distinct(labels: Sequence[Sequence[int]]) -> bool:
    flat = [v for row in labels for v in row]
    return len(flat) == len(set(flat))


def skew_schur_h(lam: Partition, mu: Partition, n: int) -> Poly:
    """Skew Schur polynomial det(h_{lam_i - mu_j - i + j}) in n variables."""
    if not lam.contains(mu):
        raise NotContained(f"{mu} does not fit inside {lam}")
    rows = [{j: m for j, m in enumerate(row) if m >= 0} for row in jacobi_trudi_labels(lam, mu)]
    return expand_orbits(_jacobi_trudi_partitions(rows, n), n)


def distinct_label_family(l: int, mu1: int) -> tuple[Partition, Partition]:
    """The skew family whose h-determinant provably has all-distinct entries.

    Outer parts are lam_i = (l - i + 1) * l + mu1 (1-based i); the inner
    partition repeats mu1 except for a final mu1 - 1.
    """
    if l < 2 or mu1 < 1:
        raise ValueError("need l >= 2 and mu1 >= 1")
    lam = Partition(tuple((l - i) * l + mu1 for i in range(l)))
    mu = Partition(tuple([mu1] * (l - 1) + [mu1 - 1]))
    return lam, mu


# ---------------------------------------------------------------------------
# the scaled-staircase closed form
# ---------------------------------------------------------------------------

def scaled_staircase_partition(step: int, n: int) -> Partition:
    """(n*step, (n-1)*step, ..., step): an arithmetic progression with gap step."""
    if step < 1 or n < 1:
        raise ValueError("need step >= 1 and n >= 1")
    return Partition(tuple(step * i for i in range(n, 0, -1)))


def scaled_staircase_schur(step: int, n: int) -> Poly:
    """Closed form for the Schur polynomial of the scaled staircase.

    Equals (prod_i x_i^step) * prod_{i<j}(x_j^{step+1} - x_i^{step+1})
    divided exactly by prod_{i<j}(x_j - x_i), which matches the bialternant
    route for the partition (n*step, ..., 2*step, step).
    """
    if step < 1 or n < 2:
        raise ValueError("need step >= 1 and n >= 2")
    numerator = Poly.monomial(n, (step,) * n)
    denominator = Poly.constant(n, 1)
    for i in range(n):
        for j in range(i + 1, n):
            xi = Poly.variable(n, i)
            xj = Poly.variable(n, j)
            numerator = numerator * (xj ** (step + 1) - xi ** (step + 1))
            denominator = denominator * (xj - xi)
    return numerator.divide_exact(denominator)


# ---------------------------------------------------------------------------
# basis conversions by the classical recurrences
# ---------------------------------------------------------------------------

def _e_by_recurrence(k: int, n: int, newton: bool) -> Poly:
    """e_k over formal variables g_1..g_k from
    c_j * e_j = sum_{i=1..j} (-1)^(i-1) * g_i * e_(j-i), e_0 = 1,
    with c_j = j for Newton's identities (g = p) and c_j = 1 for
    E(t) H(-t) = 1 (g = h)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    es = [Poly.constant(k, 1)]
    for j in range(1, k + 1):
        acc = Poly.zero(k)
        for i in range(1, j + 1):
            term = Poly.variable(k, i - 1) * es[j - i]
            acc = acc + term if i % 2 else acc - term
        es.append(acc / j if newton else acc)
    return es[k]


def e_in_h_basis(k: int, n: int) -> Poly:
    """e_k written as a polynomial in formal variables h_1..h_k.

    From E(t) H(-t) = 1: e_j = sum_{i=1..j} (-1)^(i-1) h_i e_(j-i).
    Substituting actual h-polynomials for the formal variables reproduces
    e_k exactly.
    """
    return _e_by_recurrence(k, n, newton=False)


def e_in_p_basis(k: int, n: int) -> Poly:
    """e_k written as a polynomial in formal variables p_1..p_k.

    From Newton's identities: j e_j = sum_{i=1..j} (-1)^(i-1) p_i e_(j-i).
    """
    return _e_by_recurrence(k, n, newton=True)


def partition_form(p: Poly) -> dict | None:
    """p's coefficients {mu: coefficient of x^mu} on partitions, in one pass
    over the terms, or None when p is not symmetric: when the terms of one
    sorted exponent mu hold two coefficients or fewer than _orbit_size(mu,
    n) exponents.  No orbit is expanded (x1 * x2^2 * ... * x20^20 has 20!).
    Each mu keeps the coefficient of x^mu itself, whose kind can differ
    from equal ones (a rational and a cyclotomic scalar of that value)."""
    form, counts = {}, Counter()
    for exps, c in p.terms.items():
        mu = tuple(sorted(filter(None, exps), reverse=True))
        if form.setdefault(mu, c) != c:
            return None
        counts[mu] += 1
        if exps[: len(mu)] == mu:
            form[mu] = c
    return form if all(m == _orbit_size(mu, p.arity) for mu, m in counts.items()) else None


def is_symmetric(p: Poly) -> bool:
    """Invariance under every permutation of the variables (`partition_form`)."""
    return partition_form(p) is not None


def express_in_e_basis(f: Poly) -> Poly:
    """The unique polynomial g with g(e_1, ..., e_n) = f, for symmetric f,
    over formal variables e_1..e_n.

    The fundamental theorem's leading-term reduction, on partitions: the
    graded-lex leading term c * x^a of a symmetric f has a non-increasing,
    and it is also the leading term of c * e_1^(a1-a2) ... e_n^an, the
    product of the e_k over the parts k of a's conjugate.
    """
    n = f.arity
    form = partition_form(f)
    if form is None:
        raise NotSymmetric("input is not invariant under variable permutations")
    terms = {}
    while form:
        a = max(form, key=lambda mu: (sum(mu), mu))
        c = form[a]
        labels = Partition(a).conjugate().parts
        terms[tuple(map(labels.count, range(1, n + 1)))] = c
        for mu, v in _product_sum([(c, labels)], n, _e_images).items():
            left = form.get(mu, 0) - v
            if left:
                form[mu] = left
            else:
                del form[mu]
    return Poly(n, terms)
