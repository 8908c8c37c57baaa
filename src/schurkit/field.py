"""Exact scalar arithmetic and exact linear algebra.

Two coefficient domains are supported everywhere in the package:

* arbitrary-precision rationals, and
* cyclotomic field elements, i.e. residues in Q[w]/(Phi_n(w)) where Phi_n is
  the n-th cyclotomic polynomial, so w behaves as a primitive n-th root of
  unity.

Rationals are `fractions.Fraction` values, transparently replaced by gmpy2's
`mpq` when gmpy2 is installed (identical semantics, much faster).  Mixing the
two domains is an error except for the one legitimate coercion: embedding a
rational into a cyclotomic field.

A cyclotomic scalar stores integer numerators over one positive common
denominator, so its arithmetic is integer arithmetic plus one gcd per result
rather than rational arithmetic per coefficient.  Its inverse stays in that
arithmetic: the conjugates sigma_k(a) (w -> w^k, 1 < k < n, gcd(k, n) = 1)
are index permutations of the numerators, their product times a is the
rational norm of a, so the inverse is that product divided by the norm.  It
reads rationals only through `numerator` and `denominator` and normalises
with `math.gcd`, so it also runs with `mpq` as `Rat`; that combination is
untested, as the test suite has only been run without gmpy2.

This module is the one place that inverts a scalar or eliminates exactly:
callers divide by any scalar with `ONE / c`, `bareiss` gives the rank and
determinant over any integral domain, and `gauss_jordan` the reduced
echelon form over a field.  It also owns the coefficient side of the `Poly`
product kernel: `common_order` finds the one field of both operands,
`int_numerators` writes coefficients as integer numerators over a common
denominator, and `from_int_numerators` turns the summed numerators back into
scalars.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainMismatch, NotSquare, SingularMatrix

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - gmpy2 is an optional speedup
    Rat = Fraction

#: accepted wherever a rational scalar is expected
RATIONAL_TYPES = (int, Fraction, Rat)

ZERO = Rat(0)
ONE = Rat(1)


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

def _divexact_int(num: list[int], den: Sequence[int]) -> list[int]:
    """Exact division of integer polynomials (little-endian), monic divisor."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        if c:
            q, r = divmod(c, lead)
            assert r == 0, "division of cyclotomic factors must be exact"
            out[k] = q
            for i, d in enumerate(den):
                num[k + i] -= q * d
    assert not any(num), "division of cyclotomic factors must be exact"
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients (little-endian) of the n-th cyclotomic polynomial.

    Computed by exact division: Phi_n = (x^n - 1) / prod of Phi_d over proper
    divisors d of n.  No factorization machinery is needed.
    """
    if n < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            poly = _divexact_int(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def _power_reductions(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row j - deg holds w^j reduced modulo Phi_n, for deg <= j < n.

    Each row lists the (index, coefficient) pairs of its non-zero entries.
    Phi_n is monic with integer coefficients, so every entry is an integer.
    """
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    row0 = [-c for c in phi[:deg]]
    cur = row0
    rows = []
    for _ in range(deg, n):
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c + top * r for c, r in zip(cur, row0)]
    return tuple(rows)


def _reduce_ints(n: int, deg: int, vec: list) -> list:
    """Reduce an integer coefficient vector of any length modulo Phi_n.

    Exponents first fold modulo n (w^n = 1), then each w^j with j >= deg is
    replaced by its row of `_power_reductions`.
    """
    if len(vec) > n:
        folded = [0] * n
        for j, c in enumerate(vec):
            folded[j % n] += c
        vec = folded
    if len(vec) <= deg:
        return vec + [0] * (deg - len(vec))
    rows = _power_reductions(n)
    out = vec[:deg]
    for j in range(deg, len(vec)):
        c = vec[j]
        if c:
            for i, r in rows[j - deg]:
                out[i] += c * r
    return out


# ---------------------------------------------------------------------------
# cyclotomic scalars
# ---------------------------------------------------------------------------

_setattr = object.__setattr__


def _canonical(order: int, nums: list, den: int) -> "CyclotomicScalar":
    """The scalar nums/den (den > 0, nums reduced modulo Phi_n), with the
    common factor of den and all numerators divided out: one gcd per value."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    self = object.__new__(CyclotomicScalar)
    _setattr(self, "order", order)
    _setattr(self, "nums", tuple(nums))
    _setattr(self, "den", den)
    return self


def _one(order: int, deg: int) -> "CyclotomicScalar":
    return _canonical(order, [1] + [0] * (deg - 1), 1)


class CyclotomicScalar:
    """An element of Q(w), with w a primitive n-th root of unity.

    Stored over the power basis 1, w, ..., w^(deg-1) of Q[x]/(Phi_n(x)) as
    integer numerators `nums` over one positive denominator `den`, in
    canonical form: gcd(den, *nums) == 1, so zero is stored with den == 1.
    A product is an integer convolution reduced modulo the monic integer
    polynomial Phi_n, normalised by one gcd, instead of one rational product
    (and gcd) per pair of coefficients.  `coeffs` gives the rational
    coefficients.  Instances are immutable.  Rational operands embed
    automatically; cyclotomic operands of a different order raise
    DomainMismatch.
    """

    __slots__ = ("order", "nums", "den")

    def __new__(cls, order: int, coeffs: Iterable = ()):
        vec = [c if type(c) is type(ONE) else Rat(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in vec)) if vec else 1
        nums = [c.numerator * (den // c.denominator) for c in vec]
        deg = len(cyclotomic_polynomial(order)) - 1
        return _canonical(order, _reduce_ints(order, deg, nums), den)

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
        return _canonical(self.order, nums, den)

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
            return _canonical(
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
        return _canonical(
            self.order, _reduce_ints(self.order, deg, acc), self.den * other.den
        )

    __rmul__ = __mul__

    def __neg__(self):
        return _canonical(self.order, [-c for c in self.nums], self.den)

    def __pos__(self):
        return self

    def _conjugate(self, k: int) -> "CyclotomicScalar":
        """sigma_k(self), the image under the automorphism w -> w^k."""
        n = self.order
        vec = [0] * n
        for j, c in enumerate(self.nums):
            vec[j * k % n] += c
        return _canonical(n, _reduce_ints(n, len(self.nums), vec), self.den)

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
    return x if type(x) is type(ONE) else Rat(x)


# ---------------------------------------------------------------------------
# integer numerators, for the polynomial product kernel
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
    """Bits of a field that holds the power of w in a product of two power-
    basis entries (0 .. 2*deg - 2) of the order-n field; 0 over Q."""
    if order is None:
        return 0
    return (2 * len(cyclotomic_polynomial(order)) - 4).bit_length()


def int_numerators(terms: dict) -> tuple[list, int]:
    """The scalars of {key: scalar} as (key + power of w, integer numerator)
    pairs, one per non-zero power-basis numerator, over one positive common
    denominator.  Keys come shifted left by `power_bits` of the scalars'
    order, and a rational sits at power 0."""
    dens = [
        c.den if isinstance(c, CyclotomicScalar) else c.denominator
        for c in terms.values()
    ]
    den = math.lcm(*dens)
    out = []
    for (k, c), d in zip(terms.items(), dens):
        s = den // d
        if isinstance(c, CyclotomicScalar):
            out += [(k + j, v * s) for j, v in enumerate(c.nums) if v]
        else:
            out.append((k, c.numerator * s))
    return out, den


def from_int_numerators(acc: dict, order: int | None, den: int) -> dict:
    """Inverse of `int_numerators` after a product: `acc` maps
    (key << power_bits(order)) + power of w to an integer numerator over
    `den`.  Returns {key: scalar} without zeros, every scalar in the order-n
    field (rational when `order` is None)."""
    if order is None:
        return {k: Rat(v, den) for k, v in acc.items() if v}
    deg = len(cyclotomic_polynomial(order)) - 1
    bits = power_bits(order)
    mask = (1 << bits) - 1
    vecs: dict[int, list] = {}
    for k, v in acc.items():
        if v:
            vec = vecs.get(k >> bits)
            if vec is None:
                vec = vecs[k >> bits] = [0] * (2 * deg - 1)
            vec[k & mask] += v
    out = {}
    for k, vec in vecs.items():
        nums = _reduce_ints(order, deg, vec)
        if any(nums):
            out[k] = _canonical(order, nums, den)
    return out


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


def cyclotomic_from_text(order: int, text: str) -> CyclotomicScalar:
    vec: list = []
    for raw in text.replace("- ", "+ -").split("+"):
        part = raw.strip()
        if not part:
            continue
        m = _CYCLO_TERM.match(part)
        if not m or (m.group("coeff") is None and "w" not in part):
            raise ValueError(f"cannot parse cyclotomic term {part!r}")
        coeff = Rat(m.group("coeff")) if m.group("coeff") else ONE
        if "w" in part:
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        vec += [ZERO] * (exp + 1 - len(vec))
        vec[exp] += coeff
    return CyclotomicScalar(order, vec)


def parse_rational(text: str):
    return Rat(text.strip())


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


def scalar_from_json(obj):
    if isinstance(obj, dict):
        order, value = obj.get("order"), obj.get("value")
        if type(order) is int and order >= 1 and isinstance(value, str):
            return cyclotomic_from_text(order, value)
    elif isinstance(obj, (str, int)) and not isinstance(obj, bool):
        return Rat(str(obj))
    raise ValueError(f"cannot parse scalar from {obj!r}")


# ---------------------------------------------------------------------------
# exact elimination (generic over any ring with exact division)
# ---------------------------------------------------------------------------

def bareiss(rows: list[list]) -> tuple:
    """Rank and determinant by fraction-free elimination with column pivoting.

    Works over any integral domain whose elements support *, -, exact `/`
    and truthiness; intermediate entries stay in the domain (Bareiss).  The
    determinant is the last pivot, its sign flipped once per row swap, when
    the matrix is square of full rank, and a zero of the entries' domain
    otherwise.
    """
    m = [list(r) for r in rows]
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
                row_i[j] = (row_i[j] * pivot - head * row_r[j]) / prev
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


def solve_exact(rows: list[list], rhs: list) -> list | None:
    """Solve A x = b exactly over a field.

    Requires the columns of A to be linearly independent (unique solution if
    one exists).  Returns the solution, or None when the system is
    inconsistent.
    """
    ncols = len(rows[0]) if rows else 0
    reduced, pivots = gauss_jordan([list(r) + [b] for r, b in zip(rows, rhs)], ncols)
    if len(pivots) < ncols:
        raise SingularMatrix("columns are linearly dependent")
    if any(row[ncols] for row in reduced[ncols:]):
        return None
    return [row[ncols] for row in reduced[:ncols]]


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
        order = None
        for e in entries:
            if isinstance(e, CyclotomicScalar):
                if order is not None and e.order != order:
                    raise DomainMismatch(
                        f"matrix mixes cyclotomic orders {order} and {e.order}"
                    )
                order = e.order
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

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ScalarMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = [e for row in rows for e in row]
        return cls(nrows, ncols, flat)

    @classmethod
    def identity(cls, n: int) -> "ScalarMatrix":
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "ScalarMatrix":
        return ScalarMatrix(
            self.cols,
            self.rows,
            [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def mul(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = ZERO
                for k in range(self.cols):
                    acc = acc + self.entry(i, k) * other.entry(k, j)
                out.append(acc)
        return ScalarMatrix(self.rows, other.cols, out)

    def rank(self) -> int:
        return bareiss(self.to_rows())[0]

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
