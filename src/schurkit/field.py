"""Exact scalar arithmetic and exact linear algebra.

Two coefficient domains are supported everywhere in the package:

* arbitrary-precision rationals, and
* cyclotomic field elements, i.e. residues in Q[w]/(Phi_n(w)) where Phi_n is
  the n-th cyclotomic polynomial, so w behaves as a primitive n-th root of
  unity.

Rationals are `fractions.Fraction` values (`Rat`).  Mixing the two domains
is an error except for the one legitimate coercion: embedding a rational into
a cyclotomic field.

A cyclotomic scalar stores integer numerators over one positive common
denominator, so its arithmetic is integer arithmetic plus one gcd per result
rather than rational arithmetic per coefficient.  Every reduction modulo
Phi_n, of a product, a conjugate or a sum of powers of w, folds exponents
modulo n (w^n = 1) and then takes the remainder of one long division by
Phi_n (`_divmod_monic`); Phi_n itself is a Moebius product of sparse
binomials x^d - 1 (`cyclotomic_polynomial`).  A scalar's inverse stays in
that arithmetic: the conjugates sigma_k(a) (w -> w^k, 1 < k < n,
gcd(k, n) = 1) are index permutations of the numerators, their product
times a is the rational norm of a, so the inverse is that product divided
by the norm.

This module is the one place that inverts a scalar or eliminates exactly:
callers divide by any scalar with `ONE / c`, `bareiss` gives the rank and
determinant over any integral domain, `gauss_jordan` the reduced echelon
form over a field, and `interpolation_weights` the Lagrange weights that
read coefficients off a polynomial's values at 0, 1, 2, ....  It owns the
scalar side of the packed integer form behind `poly` (which owns the keys,
the product kernel and the codec): `common_order` finds the one field of
some scalars, `int_numerators` writes scalars as integer numerators over a
common denominator, `scalar_from_numerators` builds a scalar from its
numerators, and `fold_constants` gives the per-field constants the
kernel's slot width depends on.  The same numerators evaluate a polynomial
at a point of powers of w: `root_exponents` recognises such a point,
coordinate by coordinate, in a cached table of w^0 .. w^(n-1), and
`root_power_sum` drops each numerator into one of n buckets by its power
of w modulo n and reduces the buckets once.  `Poly.eval` takes that route
by itself whenever its point qualifies; `root_value_and_gradient` fills
the buckets of the value and of each partial derivative in one pass over
the terms, for the Jacobians of `independence`.  `grid_points` is the one
seeded grid sampler.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainMismatch, NotSquare, SingularMatrix

Rat = Fraction

#: accepted wherever a rational scalar is expected
RATIONAL_TYPES = (int, Fraction)

ZERO = Rat(0)
ONE = Rat(1)

#: seeded grid points a search for a non-singular or non-vanishing point tries
GRID_ATTEMPTS = 128


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _division_steps(den: tuple) -> tuple:
    """The non-zero lower coefficients of the monic `den` (little-endian),
    as (deg - i, den[i]) pairs: what one step of a long division by `den`
    subtracts, at those distances below the top entry."""
    deg = len(den) - 1
    return tuple((deg - i, d) for i, d in enumerate(den[:deg]) if d)


def _divmod_monic(num: Sequence[int], den: Sequence[int]) -> list:
    """Long division of an integer polynomial (little-endian) by the monic
    `den`, of degree deg.  Returns one list of max(len(num), deg) entries:
    the remainder in the first deg, the quotient in the rest.  A step reads
    the top entry c as the quotient digit, leaves it there, and subtracts c
    times the lower coefficients of `den`, only the non-zero ones
    (`_division_steps`)."""
    deg = len(den) - 1
    steps = _division_steps(tuple(den))
    work = list(num)
    if len(work) < deg:
        work += [0] * (deg - len(work))
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            for offset, d in steps:
                work[k - offset] -= c * d
    return work


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n >= 1, by trial division."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients (little-endian) of the n-th cyclotomic polynomial.

    Phi_n(x) = Phi_r(x^(n/r)) for r = rad(n), the product of the primes
    dividing n.  For a squarefree r > 1, Phi_r(x) is the product over
    d | r of (1 - x^d)^mu(r/d): the Moebius product of x^d - 1, whose signs
    cancel as the mu(r/d) sum to 0.  It is taken as a power series cut
    above phi(r), the degree of Phi_r, so each factor is one linear pass:
    multiplying by 1 - x^d subtracts the series shifted up by d, dividing
    by it adds the shifted series back, running upward.
    """
    if n < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    primes = _prime_factors(n)
    r = math.prod(primes)
    deg = math.prod(p - 1 for p in primes)
    series = [1] + [0] * deg
    for k in range(len(primes) + 1):
        for chosen in itertools.combinations(primes, k):
            d = r // math.prod(chosen)
            if k % 2:
                for i in range(d, deg + 1):
                    series[i] += series[i - d]
            else:
                for i in range(deg, d - 1, -1):
                    series[i] -= series[i - d]
    stride = n // r
    poly = [0] * (deg * stride + 1)
    poly[::stride] = series
    return tuple(poly)


def _reduce_ints(n: int, vec: list) -> list:
    """Reduce an integer coefficient vector of any length modulo Phi_n:
    exponents first fold modulo n (w^n = 1), then the remainder of one long
    division by Phi_n gives the deg power-basis numerators."""
    if len(vec) > n:
        folded = [0] * n
        for j, c in enumerate(vec):
            folded[j % n] += c
        vec = folded
    phi = cyclotomic_polynomial(n)
    return _divmod_monic(vec, phi)[: len(phi) - 1]


# ---------------------------------------------------------------------------
# cyclotomic scalars
# ---------------------------------------------------------------------------

def scalar_from_numerators(order: int, nums: list, den: int) -> "CyclotomicScalar":
    """The order-n scalar with power-basis numerators `nums` over `den`
    (den > 0, nums reduced modulo Phi_n), in canonical form: the common
    factor of den and all numerators divided out, one gcd per value."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    self = _new_scalar(CyclotomicScalar)
    _set_order(self, order)
    _set_nums(self, tuple(nums))
    _set_den(self, den)
    return self


def _one(order: int, deg: int) -> "CyclotomicScalar":
    return scalar_from_numerators(order, [1] + [0] * (deg - 1), 1)


class CyclotomicScalar:
    """An element of Q(w), with w a primitive n-th root of unity.

    Stored over the power basis 1, w, ..., w^(deg-1) of Q[x]/(Phi_n(x)) as
    integer numerators `nums` over one positive denominator `den`, in
    canonical form: gcd(den, *nums) == 1, so zero is stored with den == 1.
    A product is an integer convolution reduced modulo the monic integer
    polynomial Phi_n by one long division (`_reduce_ints`) and normalised
    by one gcd, instead of one rational product (and gcd) per pair of
    coefficients.  `coeffs` gives the rational coefficients.  Instances are
    immutable.  Rational operands embed automatically; cyclotomic operands
    of a different order raise DomainMismatch.
    """

    __slots__ = ("order", "nums", "den")

    def __new__(cls, order: int, coeffs: Iterable = ()):
        vec = [c if type(c) is Fraction else Rat(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in vec)) if vec else 1
        nums = [c.numerator * (den // c.denominator) for c in vec]
        return scalar_from_numerators(order, _reduce_ints(order, nums), den)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicScalar is immutable")

    def __reduce__(self):
        return CyclotomicScalar, (self.order, self.coeffs)

    @property
    def coeffs(self) -> tuple:
        """The rational coefficients over the power basis."""
        den = self.den
        return tuple(Rat(c, den) for c in self.nums)

    # -- helpers ------------------------------------------------------------

    def _operand(self, other):
        """(nums, den) of a same-order scalar or an embedded rational; None
        for any other type."""
        if isinstance(other, CyclotomicScalar):
            if other.order != self.order:
                raise DomainMismatch(
                    f"cyclotomic orders differ: {self.order} vs {other.order}"
                )
            return other.nums, other.den
        if isinstance(other, RATIONAL_TYPES):
            pad = (0,) * (len(self.nums) - 1)
            return (other.numerator, *pad), other.denominator
        return None

    def _add(self, other, sign: int):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        onums, oden = o
        den = self.den
        if den == oden:
            nums = [a + sign * b for a, b in zip(self.nums, onums)]
        else:
            nums = [a * oden + sign * b * den for a, b in zip(self.nums, onums)]
            den *= oden
        return scalar_from_numerators(self.order, nums, den)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self):
        if not self.is_rational():
            raise DomainMismatch(f"{self!r} is not rational")
        return Rat(self.nums[0], self.den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        diff = self._add(other, -1)
        return diff if diff is NotImplemented else -diff

    def __mul__(self, other):
        if not isinstance(other, CyclotomicScalar):
            if not isinstance(other, RATIONAL_TYPES):
                return NotImplemented
            num = other.numerator
            return scalar_from_numerators(
                self.order, [c * num for c in self.nums], self.den * other.denominator
            )
        if other.order != self.order:
            raise DomainMismatch(
                f"cyclotomic orders differ: {self.order} vs {other.order}"
            )
        a, b = self.nums, other.nums
        deg = len(a)
        acc = [0] * (2 * deg - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    if cb:
                        acc[j] += ca * cb
        return scalar_from_numerators(
            self.order, _reduce_ints(self.order, acc), self.den * other.den
        )

    __rmul__ = __mul__

    def __neg__(self):
        return scalar_from_numerators(self.order, [-c for c in self.nums], self.den)

    def __pos__(self):
        return self

    def _conjugate(self, k: int) -> "CyclotomicScalar":
        """sigma_k(self), the image under the automorphism w -> w^k."""
        n = self.order
        vec = [0] * n
        for j, c in enumerate(self.nums):
            vec[j * k % n] += c
        return scalar_from_numerators(n, _reduce_ints(n, vec), self.den)

    def inverse(self) -> "CyclotomicScalar":
        """The product of the other conjugates sigma_k(self), 1 < k < n with
        gcd(k, n) == 1, divided by the rational norm self * that product."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        n = self.order
        others = _one(n, len(self.nums))
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                others = others * self._conjugate(k)
        return others * (ONE / (self * others).rational_value())

    def __truediv__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            if not other:
                raise ZeroDivisionError("division by zero scalar")
            return self * (ONE / other)
        if not isinstance(other, CyclotomicScalar):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, RATIONAL_TYPES):
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = _one(self.order, len(self.nums))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CyclotomicScalar):
            if other.order == self.order:
                return self.den == other.den and self.nums == other.nums
            return (
                self.is_rational()
                and other.is_rational()
                and self.den == other.den
                and self.nums[0] == other.nums[0]
            )
        if isinstance(other, RATIONAL_TYPES):
            return (
                self.is_rational()
                and self.nums[0] == other.numerator
                and self.den == other.denominator
            )
        return NotImplemented

    def __bool__(self):
        return any(self.nums)

    def __hash__(self):
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"CyclotomicScalar({self.order}, {scalar_to_text(self)!r})"


# the slot setters, which skip the immutability guard of __setattr__
_new_scalar = object.__new__
_set_order = CyclotomicScalar.order.__set__
_set_nums = CyclotomicScalar.nums.__set__
_set_den = CyclotomicScalar.den.__set__


def omega(n: int) -> CyclotomicScalar:
    """A primitive n-th root of unity (the residue class of x mod Phi_n)."""
    return CyclotomicScalar(n, (0, 1))


def embed(value, order: int) -> CyclotomicScalar:
    """Embed a rational into the order-n cyclotomic field."""
    return CyclotomicScalar(order, (value,))


def demote(x):
    """A cyclotomic scalar with a rational value as that rational; any other
    scalar unchanged."""
    if isinstance(x, CyclotomicScalar) and x.is_rational():
        return x.rational_value()
    return x


def as_scalar(x):
    """Normalize an input to a package scalar (Rat or CyclotomicScalar)."""
    if isinstance(x, CyclotomicScalar):
        return x
    return x if type(x) is Fraction else Rat(x)


# ---------------------------------------------------------------------------
# integer numerators, the scalar side of the packed form in `poly`
# ---------------------------------------------------------------------------

def common_order(*groups: Iterable) -> int | None:
    """The cyclotomic order of the scalars in `groups`, None when all are
    rational.  Two orders raise DomainMismatch, whether they meet within one
    group or across groups."""
    order = None
    for group in groups:
        for c in group:
            if isinstance(c, CyclotomicScalar) and c.order != order:
                if order is not None:
                    raise DomainMismatch(
                        f"cyclotomic orders differ: {order} vs {c.order}"
                    )
                order = c.order
    return order


def power_bits(order: int | None) -> int:
    """Bits of the low key field that holds a power-basis index of the
    order-n field (0 .. deg - 1); 0 over Q."""
    if order is None:
        return 0
    return (len(cyclotomic_polynomial(order)) - 2).bit_length()


def int_numerators(pairs: list) -> tuple[list, int]:
    """The (key, scalar) pairs as (key + power of w, integer numerator)
    pairs, one per non-zero power-basis numerator, over one positive common
    denominator.  A power is a power-basis index, below deg, and a rational
    sits at power 0, so a product kernel passes its keys shifted left by
    `power_bits` of the scalars' order."""
    dens = [
        c.den if isinstance(c, CyclotomicScalar) else c.denominator
        for _, c in pairs
    ]
    den = math.lcm(*dens)
    out = []
    append = out.append
    for (k, c), d in zip(pairs, dens):
        s = den // d
        if isinstance(c, CyclotomicScalar):
            for v in c.nums:
                if v:
                    append((k, v * s))
                k += 1
        else:
            append((k, c.numerator * s))
    return out, den


def root_power_sum(pairs: list, order: int) -> CyclotomicScalar:
    """The sum of c * w^s over the (s, c) pairs, w a primitive order-n root
    of unity: the value of a polynomial at a point of powers of w, where
    term c * x^e contributes its exponent dot product s.

    The numerators (`int_numerators`) fall into n buckets by their power of
    w modulo n, so a coefficient c of the same order spreads over buckets
    (s + j) mod n; one reduction modulo Phi_n and one gcd give the value.
    A coefficient of another order raises DomainMismatch.
    """
    found = common_order(c for _, c in pairs)
    if found not in (None, order):
        raise DomainMismatch(f"cyclotomic orders differ: {order} vs {found}")
    nums, den = int_numerators(pairs)
    buckets = [0] * order
    for s, v in nums:
        buckets[s % order] += v
    return scalar_from_numerators(order, _reduce_ints(order, buckets), den)


def root_value_and_gradient(terms: dict, order: int, exponents: Sequence[int]):
    """The value and the gradient, as n scalars, of the polynomial with
    `terms` ({exponent tuple: scalar}) at (w^p_1, ..., w^p_n), p =
    `exponents` and w a primitive order-n root of unity, in one pass over
    the terms.

    There c * x^e is c * w^(p . e) and its partial in x_j is
    e_j * c * w^(p . e - p_j), so each numerator v of c (`int_numerators`),
    at its power i of w, adds v to bucket (p . e + i) mod n of the value
    and e_j * v to bucket (p . e + i - p_j) mod n of column j.  Each entry
    is then one reduction modulo Phi_n and one gcd, as in `root_power_sum`;
    no derivative is formed and no scalar multiplied.  A coefficient of
    another order raises DomainMismatch.
    """
    found = common_order(terms.values())
    if found not in (None, order):
        raise DomainMismatch(f"cyclotomic orders differ: {order} vs {found}")
    bits = power_bits(order)
    mask = (1 << bits) - 1
    keys = list(terms)
    nums, den = int_numerators([(t << bits, c) for t, c in enumerate(terms.values())])
    value = [0] * order
    columns = [[0] * order for _ in exponents]
    for k, v in nums:
        e = keys[k >> bits]
        s = sum(map(operator.mul, exponents, e)) + (k & mask)
        value[s % order] += v
        for e_j, p_j, column in zip(e, exponents, columns):
            if e_j:
                column[(s - p_j) % order] += e_j * v
    return scalar_from_numerators(order, _reduce_ints(order, value), den), [
        scalar_from_numerators(order, _reduce_ints(order, column), den) for column in columns
    ]


@functools.lru_cache(maxsize=None)
def _root_power_table(n: int) -> dict:
    """The power-basis numerators of w^p, mapped to p, for p = 0 .. n-1."""
    return {tuple(_reduce_ints(n, [0] * p + [1])): p for p in range(n)}


def root_exponents(point: Sequence) -> tuple[int, list[int]] | None:
    """(n, [p_1, ..., p_k]) when the non-empty `point` is
    (w^p_1, ..., w^p_k), w = omega(n) and 0 <= p_i < n; None for any other
    point.  Each coordinate is looked up by its numerators, over
    denominator 1, in a cached table of w^0 .. w^(n-1)."""
    if not isinstance(point[0], CyclotomicScalar):
        return None
    order = point[0].order
    table = _root_power_table(order)
    powers = []
    for x in point:
        if not (isinstance(x, CyclotomicScalar) and x.order == order and x.den == 1):
            return None
        p = table.get(x.nums)
        if p is None:
            return None
        powers.append(p)
    return order, powers


@functools.lru_cache(maxsize=None)
def fold_constants(n: int) -> tuple[int, int, int]:
    """(deg, power_bits(n), R) for the order-n field, deg = deg Phi_n: R is
    the largest |coefficient| of w^p reduced modulo Phi_n (`_reduce_ints`)
    over the powers p = 0 .. 2*deg - 2 that the unreduced product of two
    power-basis vectors reaches."""
    deg = len(cyclotomic_polynomial(n)) - 1
    reach = max(
        abs(c) for p in range(2 * deg - 1) for c in _reduce_ints(n, [0] * p + [1])
    )
    return deg, power_bits(n), reach


# ---------------------------------------------------------------------------
# text and JSON forms
# ---------------------------------------------------------------------------

_CYCLO_TERM = re.compile(r"^\s*(?P<coeff>[+-]?\d+(?:/\d+)?)?\s*(?:\*?\s*w(?:\^(?P<exp>\d+))?)?\s*$")


def scalar_to_text(s) -> str:
    """Canonical text: "p/q" for rationals, "c0 + c1*w + c2*w^2 ..." otherwise."""
    if isinstance(s, RATIONAL_TYPES):
        return str(Rat(s))
    if not isinstance(s, CyclotomicScalar):
        raise TypeError(f"not a scalar: {s!r}")
    parts = []
    for k, c in enumerate(s.coeffs):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append(f"{c}*w")
        else:
            parts.append(f"{c}*w^{k}")
    return " + ".join(parts) if parts else "0"


def rat_from_text(text: str):
    """The rational "p" or "p/q"; ValueError naming it for a zero q."""
    try:
        return Rat(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None


def cyclotomic_from_text(order: int, text: str, max_order: int | None = None) -> CyclotomicScalar:
    """Parse the text of `scalar_to_text` as an order-n scalar.  Exponents
    are taken modulo n (w^n = 1), so the power-basis vector has at most n
    entries whatever exponent the text names.  An order above `max_order`
    raises ValueError once the terms are read, before the field is built."""
    terms = []
    for raw in text.replace("- ", "+ -").split("+"):
        part = raw.strip()
        if not part:
            continue
        m = _CYCLO_TERM.match(part)
        if not m or (m.group("coeff") is None and "w" not in part):
            raise ValueError(f"cannot parse cyclotomic term {part!r}")
        coeff = rat_from_text(m.group("coeff")) if m.group("coeff") else ONE
        terms.append((int(m.group("exp") or 1) if "w" in part else 0, coeff))
    if max_order is not None and order > max_order:
        raise ValueError(f"cyclotomic order {order} is above {max_order}, the largest read here")
    vec: list = []
    for exp, coeff in terms:
        exp %= order
        vec += [ZERO] * (exp + 1 - len(vec))
        vec[exp] += coeff
    return CyclotomicScalar(order, vec)


def scalar_to_json(s):
    if isinstance(s, CyclotomicScalar):
        return {"order": s.order, "value": scalar_to_text(s)}
    return scalar_to_text(s)


def json_field(spec, key: str, kind: type, what: str):
    """spec[key], checked to be a `kind` (a bool is not an int); ValueError,
    with `what` naming the document, if spec is not a JSON object or the key
    is missing or ill-typed."""
    if not isinstance(spec, dict):
        raise ValueError(f"{what}: expected an object, got {type(spec).__name__}")
    value = spec.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{what}: {key!r} must be of type {kind.__name__}")
    return value


def scalar_from_json(obj, max_order: int | None = None):
    """A `Rat` from a string or int, or a `CyclotomicScalar` from
    {"order": n, "value": text}; an order above `max_order` raises
    ValueError (`cyclotomic_from_text`)."""
    if isinstance(obj, dict):
        order, value = obj.get("order"), obj.get("value")
        if type(order) is int and order >= 1 and isinstance(value, str):
            return cyclotomic_from_text(order, value, max_order)
    elif isinstance(obj, (str, int)) and not isinstance(obj, bool):
        return rat_from_text(str(obj))
    raise ValueError(f"cannot parse scalar from {obj!r}")


# ---------------------------------------------------------------------------
# exact elimination (generic over any ring with exact division)
# ---------------------------------------------------------------------------

def bareiss(rows: list[list]) -> tuple:
    """Rank and determinant by fraction-free elimination with column pivoting.

    Works over any integral domain whose elements support *, -, exact `/`
    and truthiness; intermediate entries stay in the domain (Bareiss).  Rows
    of Python ints divide with `//`, which is exact there.  The determinant
    is the last pivot, its sign flipped once per row swap, when the matrix
    is square of full rank, and a zero of the entries' domain otherwise.
    """
    m = [list(r) for r in rows]
    if all(type(v) is int for r in m for v in r):
        divide = operator.floordiv
    else:
        divide = operator.truediv
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        pivot = m[r][c]
        row_r = m[r]
        for i in range(r + 1, nrows):
            row_i = m[i]
            head = row_i[c]
            for j in range(c + 1, ncols):
                row_i[j] = divide(row_i[j] * pivot - head * row_r[j], prev)
        prev = pivot
        r += 1
    if r == nrows == ncols:
        return r, prev if sign > 0 else -prev
    return r, m[0][0] * 0 if ncols else ZERO


def gauss_jordan(rows: list[list], ncols: int | None = None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form by exact elimination over a field.

    Pivots are sought left to right in the first `ncols` columns (all by
    default); a column with no pivot is skipped, so the pivot columns are the
    leftmost linearly independent ones.  Later columns ride along, as an
    augmented block.  Returns the reduced rows, pivot rows first and scaled
    to a leading one, and the pivot columns.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def interpolation_weights(bound: int, degrees: Iterable[int]) -> list:
    """Weights w_0..w_bound with sum_t w_t * p(t) = sum over d in `degrees`
    of the x^d coefficient of p, for every polynomial p of degree <= bound.

    w_t sums the x^d coefficients of the Lagrange basis polynomial
    l_t(x) = prod_{s != t} (x - s) / (t - s) on the nodes 0..bound, so the
    weights are the sum of those rows of the inverse Vandermonde matrix.
    l_t is N(x) / (x - t) for N(x) = prod_s (x - s), one synthetic division
    over the integers, over the denominator (-1)^(bound-t) * t! * (bound-t)!.
    """
    degrees = list(degrees)
    if any(not 0 <= d <= bound for d in degrees):
        raise ValueError(f"degrees must lie in 0..{bound}")
    big = [1]  # coefficients of N(x), constant term first
    for s in range(bound + 1):
        big = [a - s * b for a, b in zip([0] + big, big + [0])]
    weights = []
    for t in range(bound + 1):
        quotient = [0] * (bound + 1)
        carry = 0
        for i in range(bound + 1, 0, -1):
            carry = big[i] + t * carry
            quotient[i - 1] = carry
        den = math.factorial(t) * math.factorial(bound - t)
        if (bound - t) % 2:
            den = -den
        weights.append(Rat(sum(quotient[d] for d in degrees), den))
    return weights


def grid_points(arity: int, bound: int, seed: int, count: int = GRID_ATTEMPTS):
    """`count` seeded pseudorandom points of the grid {0, ..., bound}^arity;
    a non-zero polynomial of degree d vanishes on at most d / (bound + 1) of
    it (Schwartz-Zippel)."""
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(Rat(rng.randint(0, bound)) for _ in range(arity))


# ---------------------------------------------------------------------------
# matrices over one scalar domain
# ---------------------------------------------------------------------------

class ScalarMatrix:
    """Immutable matrix whose entries all live in one scalar domain.

    Entries are either all rational or all cyclotomic of a single order;
    rationals embed when at least one entry is cyclotomic.
    """

    __slots__ = ("rows", "cols", "entries", "order")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        order = common_order(entries)
        if order is None:
            entries = [as_scalar(e) for e in entries]
        else:
            entries = [
                e if isinstance(e, CyclotomicScalar) else embed(as_scalar(e), order)
                for e in entries
            ]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarMatrix is immutable")

    def __reduce__(self):
        return ScalarMatrix, (self.rows, self.cols, self.entries)

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def rank(self) -> int:
        """Rank by `bareiss`.  A rational matrix is ranked over the
        integers: each row is multiplied by the lcm of its denominators,
        which keeps the rank, so no rational is formed."""
        rows = self.to_rows()
        if self.order is not None:
            return bareiss(rows)[0]
        int_rows = []
        for row in rows:
            den = math.lcm(*(v.denominator for v in row))
            int_rows.append([v.numerator * (den // v.denominator) for v in row])
        return bareiss(int_rows)[0]

    def det(self):
        if self.rows != self.cols:
            raise NotSquare(f"{self.rows}x{self.cols} matrix has no determinant")
        return bareiss(self.to_rows())[1] if self.rows else ONE

    def inverse(self) -> "ScalarMatrix":
        if self.rows != self.cols:
            raise NotSquare(f"{self.rows}x{self.cols} matrix has no inverse")
        n = self.rows
        aug = [
            list(self.row(i)) + [ONE if i == j else ZERO for j in range(n)]
            for i in range(n)
        ]
        reduced, pivots = gauss_jordan(aug, n)
        if len(pivots) < n:
            raise SingularMatrix("matrix is singular")
        return ScalarMatrix(n, n, [v for row in reduced for v in row[n:]])

    def __eq__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(scalar_to_text(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"ScalarMatrix({self.rows}x{self.cols}: {body})"
