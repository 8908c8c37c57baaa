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
"""

from __future__ import annotations

import functools
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
def _power_reductions(n: int) -> tuple[tuple, ...]:
    """Row j holds the coefficients of w^(deg+j) reduced modulo Phi_n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    cur = [-Rat(c) for c in phi[:deg]]
    rows = [tuple(cur)]
    for _ in range(max(0, deg - 2)):
        top = cur[deg - 1]
        cur = [ZERO] + cur[: deg - 1]
        if top:
            cur = [c + top * r for c, r in zip(cur, rows[0])]
        rows.append(tuple(cur))
    return tuple(rows)


def _reduce_coeffs(n: int, vec: list) -> list:
    """Reduce a coefficient vector of any length modulo Phi_n.

    Folds the top coefficient through x^deg = -(Phi_n - x^deg) repeatedly;
    each fold strictly lowers the top degree.
    """
    deg = len(cyclotomic_polynomial(n)) - 1
    if len(vec) <= deg:
        return vec + [ZERO] * (deg - len(vec))
    row0 = _power_reductions(n)[0]
    out = list(vec)
    for j in range(len(out) - 1, deg - 1, -1):
        c = out[j]
        if c:
            out[j] = ZERO
            base = j - deg
            for i in range(deg):
                if row0[i]:
                    out[base + i] += c * row0[i]
    return out[:deg]


# ---------------------------------------------------------------------------
# rational univariate helpers (for inversion modulo Phi_n)
# ---------------------------------------------------------------------------

def _rp_trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _rp_divmod(a: list, b: list) -> tuple[list, list]:
    a = list(a)
    db = len(b) - 1
    inv_lead = ONE / b[-1]
    q = [ZERO] * max(0, len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db] * inv_lead
        if c:
            q[k] = c
            for i, bc in enumerate(b):
                a[k + i] -= c * bc
    return q, _rp_trim(a[:db])


def _rp_sub_mul(u0: list, q: list, u1: list) -> list:
    """u0 - q*u1 over little-endian rational polynomials."""
    prod_len = len(q) + len(u1) - 1 if q and u1 else 0
    prod = [ZERO] * prod_len
    for i, qc in enumerate(q):
        if qc:
            for j, uc in enumerate(u1):
                prod[i + j] += qc * uc
    out = [ZERO] * max(len(u0), len(prod))
    for i, c in enumerate(u0):
        out[i] = c
    for i, c in enumerate(prod):
        out[i] -= c
    return _rp_trim(out)


def _invert_mod_phi(n: int, coeffs: Sequence) -> list:
    """Inverse of the residue class `coeffs` in Q[x]/(Phi_n)."""
    phi = [Rat(c) for c in cyclotomic_polynomial(n)]
    r0, r1 = phi, _rp_trim(list(coeffs))
    if not r1:
        raise ZeroDivisionError("inverse of zero cyclotomic element")
    u0, u1 = [], [ONE]
    while len(r1) > 1:
        q, rem = _rp_divmod(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, _rp_sub_mul(u0, q, u1)
    # r1 is a non-zero constant: Phi_n is irreducible over Q
    inv_c = ONE / r1[0]
    return [c * inv_c for c in u1]


# ---------------------------------------------------------------------------
# cyclotomic scalars
# ---------------------------------------------------------------------------

class CyclotomicScalar:
    """An element of Q(w), with w a primitive n-th root of unity.

    Stored as a coefficient vector over the power basis 1, w, ..., w^(deg-1)
    of Q[x]/(Phi_n(x)).  Instances are immutable; all arithmetic reduces
    modulo Phi_n.  Rational operands embed automatically; cyclotomic operands
    of a different order raise DomainMismatch.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable = ()):
        vec = [c if type(c) is type(ONE) else Rat(c) for c in coeffs]
        vec = _reduce_coeffs(order, vec)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(vec))

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicScalar is immutable")

    @classmethod
    def _raw(cls, order: int, coeffs: tuple) -> "CyclotomicScalar":
        """Internal fast path: coeffs must already be reduced Rat values."""
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    # -- helpers ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CyclotomicScalar):
            if other.order != self.order:
                raise DomainMismatch(
                    f"cyclotomic orders differ: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, RATIONAL_TYPES):
            return CyclotomicScalar(self.order, (other,))
        return None

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise DomainMismatch(f"{self!r} is not rational")
        return self.coeffs[0]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicScalar._raw(
            self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicScalar._raw(
            self.order, tuple(a - b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicScalar._raw(
            self.order, tuple(b - a for a, b in zip(self.coeffs, o.coeffs))
        )

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            other = Rat(other)
            if not other:
                return CyclotomicScalar._raw(self.order, (ZERO,) * len(self.coeffs))
            return CyclotomicScalar._raw(
                self.order, tuple(c * other for c in self.coeffs)
            )
        if not isinstance(other, CyclotomicScalar):
            return NotImplemented
        if other.order != self.order:
            raise DomainMismatch(
                f"cyclotomic orders differ: {self.order} vs {other.order}"
            )
        a, b = self.coeffs, other.coeffs
        if sum(1 for c in b if c) < sum(1 for c in a if c):
            a, b = b, a
        deg = len(a)
        acc = [ZERO] * (2 * deg - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        acc[i + j] += ca * cb
        if deg > 1:
            rows = _power_reductions(self.order)
            for j in range(2 * deg - 2, deg - 1, -1):
                c = acc[j]
                if c:
                    row = rows[j - deg]
                    for i in range(deg):
                        if row[i]:
                            acc[i] += c * row[i]
        return CyclotomicScalar._raw(self.order, tuple(acc[:deg]))

    __rmul__ = __mul__

    def __neg__(self):
        return CyclotomicScalar._raw(self.order, tuple(-c for c in self.coeffs))

    def __pos__(self):
        return self

    def inverse(self) -> "CyclotomicScalar":
        return CyclotomicScalar(self.order, _invert_mod_phi(self.order, self.coeffs))

    def __truediv__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            if not other:
                raise ZeroDivisionError("division by zero scalar")
            return self * (ONE / other)
        if not isinstance(other, CyclotomicScalar):
            return NotImplemented
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CyclotomicScalar(self.order, (ONE,))
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
                return self.coeffs == other.coeffs
            return (
                self.is_rational()
                and other.is_rational()
                and self.coeffs[0] == other.coeffs[0]
            )
        if isinstance(other, RATIONAL_TYPES):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __bool__(self):
        return any(self.coeffs)

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"CyclotomicScalar({self.order}, {scalar_to_text(self)!r})"


def omega(n: int) -> CyclotomicScalar:
    """A primitive n-th root of unity (the residue class of x mod Phi_n)."""
    return CyclotomicScalar(n, (0, 1))


def embed(value, order: int) -> CyclotomicScalar:
    """Embed a rational into the order-n cyclotomic field."""
    return CyclotomicScalar(order, (value,))


def is_rational_scalar(x) -> bool:
    return isinstance(x, RATIONAL_TYPES)


def as_scalar(x):
    """Normalize an input to a package scalar (Rat or CyclotomicScalar)."""
    if isinstance(x, CyclotomicScalar):
        return x
    return x if type(x) is type(ONE) else Rat(x)


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
    deg = len(cyclotomic_polynomial(order)) - 1
    vec = [ZERO] * max(deg, 1)
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
        tmp = [ZERO] * (exp + 1)
        tmp[exp] = coeff
        vec = [a + b for a, b in zip(vec, _reduce_coeffs(order, tmp))]
    return CyclotomicScalar(order, vec)


def parse_rational(text: str):
    return Rat(text.strip())


def scalar_to_json(s):
    if isinstance(s, CyclotomicScalar):
        return {"order": s.order, "value": scalar_to_text(s)}
    return scalar_to_text(s)


def scalar_from_json(obj):
    if isinstance(obj, dict):
        return cyclotomic_from_text(obj["order"], obj["value"])
    if isinstance(obj, (str, int)):
        return Rat(str(obj))
    raise ValueError(f"cannot parse scalar from {obj!r}")


# ---------------------------------------------------------------------------
# exact elimination (generic over any ring with exact division)
# ---------------------------------------------------------------------------

def bareiss_det(rows: list[list]):
    """Fraction-free determinant of a square list-of-lists.

    Works over any integral domain whose elements support *, -, exact `/`
    and truthiness; intermediate entries stay in the domain (Bareiss).
    """
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return m[0][0] * 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i, row_k = m[i], m[k]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) / prev
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def bareiss_rank(rows: list[list]) -> int:
    """Rank by fraction-free elimination with column pivoting."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        for i in range(r + 1, nrows):
            row_i, row_r = m[i], m[r]
            head = row_i[c]
            for j in range(c + 1, ncols):
                row_i[j] = (row_i[j] * pivot - head * row_r[j]) / prev
            row_i[c] = head * 0
        prev = pivot
        r += 1
    return r


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
        return bareiss_rank(self.to_rows())

    def det(self):
        if self.rows != self.cols:
            raise NotSquare(f"{self.rows}x{self.cols} matrix has no determinant")
        if self.rows == 0:
            return ONE
        return bareiss_det(self.to_rows())

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
