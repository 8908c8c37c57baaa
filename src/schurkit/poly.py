"""Sparse multivariate polynomials with exact coefficients.

A polynomial holds a map from exponent tuples (one entry per variable slot)
to non-zero scalars; coefficients are exact rationals or cyclotomic field
elements from `schurkit.field`.  The canonical monomial order everywhere is
graded lexicographic: higher total degree first, ties broken by the exponent
tuple with x1 heaviest.

This module owns the packed integer form that products, exact division,
formula expansion, polynomial determinants and derivative spans run on;
`field` owns only its scalar side.  An exponent tuple becomes one int, its
graded key, holding the total degree in the top field, then x1 .. xn, each
field `width` bits wide, where `width` is the bit length of the largest
total degree the operation can reach (deg a + deg b for a product, the
dividend's degree for a division).  No field can carry, so
key(a * b) == key(a) + key(b), and integer order is graded-lex order: a
heap of keys finds the leading term without a key function.  An operand
is packed keys with integer numerators over one common denominator
(`field.int_numerators`); a cyclotomic coefficient contributes one entry
per non-zero power-basis numerator, with its power-basis index (below
deg Phi_n) in an extra low field, `field.power_bits` wide.  Other modules
name only a width and an order: `packed_encode` turns a polynomial into
an operand, `packed_decode` turns kernel numerators back into one,
`packed_partial` differentiates an operand and `packed_monomials` counts
its monomials.

A product is an integer kernel, `packed_product`, with five callers:
`Poly.__mul__`, `Formula.expand`, `symmetric.det_poly_matrix` (general
polynomial matrices, such as `transforms.det_poly`; the Schur determinant
routes multiply on coefficients of partitions instead),
`derivatives.pdc_dimension` for its w^i rows and, over a cyclotomic field,
`Poly.divide_exact`.  Over Q the inner loop adds keys and multiplies
ints.  In the order-n field it multiplies each monomial's numerators as
one int, the power basis evaluated at w = 2^S (Kronecker substitution),
and reduces each result monomial once modulo Phi_n(2^S)
back into power-basis numerators, so a result can be the next product's
operand.  `Poly.__mul__` encodes its two operands and decodes the result;
`Formula.expand` and `det_poly_matrix` encode each leaf or entry once and
decode only the root, and both add packed values with `packed_sum`.
Rational operands give rational coefficients; if either operand has a
cyclotomic coefficient, every product coefficient lies in that one
cyclotomic field, and two orders raise DomainMismatch.

Exact division (`Poly.divide_exact`) encodes its operands the same way,
runs one fraction-free loop over integer numerators for both domains, with
a heap of pending keys for each step's leading term, and decodes the
quotient once, at the end.

`eval` is the one evaluation entry point.  At a point of powers of one
root of unity, (w^p_1, ..., w^p_n), which `field.root_exponents` recognises,
it works by exponent arithmetic: x^e is w^(p . e mod n), so each term adds
its numerators to one power of w (`field.root_power_sum`) and no scalar is
multiplied.  A polynomial with rational coefficients at a rational point
is evaluated in integer arithmetic: the point over one common denominator
D, the coefficients as integer numerators over theirs, each term lifted by
a power of D to the total degree, and one rational formed at the end, so
no partial product is normalised by a gcd.  Any other point takes scalar
products and powers.  All routes give the same value and type.
"""

from __future__ import annotations

import functools
import heapq
import math
import re
from operator import itemgetter, mul
from typing import Callable, Mapping, Sequence

from .errors import ArityMismatch, NotDivisible
from .field import (
    ONE,
    ZERO,
    CyclotomicScalar,
    Rat,
    as_scalar,
    common_order,
    cyclotomic_polynomial,
    fold_constants,
    int_numerators,
    json_field,
    power_bits,
    rat_from_text,
    root_exponents,
    root_power_sum,
    scalar_from_json,
    scalar_from_numerators,
    scalar_to_json,
    scalar_to_text,
)


def grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


_second = itemgetter(1)


def _pack(exps: Sequence[int], width: int) -> int:
    """The packed graded key: total degree, then x1 .. xn, `width` bits each."""
    key = sum(exps)
    for e in exps:
        key = key << width | e
    return key


def _unpack(key: int, arity: int, width: int) -> tuple[int, ...]:
    """The exponent tuple of a packed key with `arity` variable fields."""
    mask = (1 << width) - 1
    exps = [0] * arity
    for i in range(arity - 1, -1, -1):
        exps[i] = key & mask
        key >>= width
    return tuple(exps)


def packed_encode(p: Poly, width: int, order: int | None) -> tuple[list, int]:
    """The kernel operand of `p`: ((graded key << power_bits(order)) +
    power of w, integer numerator) pairs, one per non-zero power-basis
    numerator, over one positive common denominator.  `width` must hold
    the largest total degree the operation reaches, and `order` is the one
    cyclotomic order of every operand (None over Q)."""
    bits = power_bits(order)
    return int_numerators([(_pack(e, width) << bits, c) for e, c in p.terms.items()])


def packed_decode(acc: dict, den: int, arity: int, width: int, order: int | None) -> Poly:
    """Inverse of `packed_encode`: the polynomial whose packed numerators
    over `den` are `acc`, as `packed_product` gives them (no zero
    numerator, every power of w below the field's degree).  Keys and
    scalars are decoded in one pass; every coefficient is rational when
    `order` is None, else in the order-n field."""
    if order is None:
        return Poly._raw(arity, {_unpack(k, arity, width): Rat(v, den) for k, v in acc.items()})
    deg, bits, _ = fold_constants(order)
    mask = (1 << bits) - 1
    vecs: dict[int, list] = {}
    for k, v in acc.items():
        vec = vecs.get(k >> bits)
        if vec is None:
            vec = vecs[k >> bits] = [0] * deg
        vec[k & mask] = v
    return Poly._raw(arity, {
        _unpack(k, arity, width): scalar_from_numerators(order, vec, den) for k, vec in vecs.items()
    })


def packed_partial(entries, var: int, arity: int, width: int, order: int | None) -> list:
    """The partial derivative in variable `var` of the packed operand
    `entries`, as `packed_encode` gives it: each entry with a non-zero
    exponent e of x_var loses one from that field and one from the total
    degree, and its numerator is multiplied by e."""
    bits = power_bits(order)
    shift = bits + width * (arity - 1 - var)
    step = (1 << shift) + (1 << bits + width * arity)
    mask = (1 << width) - 1
    return [(k - step, v * e) for k, v in entries if (e := k >> shift & mask)]


def packed_monomials(keys, order: int | None) -> int:
    """The number of distinct monomials among the packed `keys`."""
    bits = power_bits(order)
    return len({k >> bits for k in keys})


def packed_product(pa, pb, order: int | None) -> dict:
    """The product kernel: the product of two packed operands, canonical
    (no zero numerator; every power of w a power-basis index, below deg).

    An operand is a sized collection of pairs, read more than once (a list
    or a dict view): (key << power_bits(order)) + power of w, and an
    integer numerator.  Keys add and numerators
    multiply, so the result is over the product of the operands'
    denominators.  Every power of w in an operand must be below the field's
    degree, and the two total degrees together must fit the key width.

    Over Q the loop runs on the entries.  In the order-n field every
    monomial's numerators c_p become one integer, sum c_p * 2^(S*p): the
    power basis evaluated at w = 2^S (Kronecker substitution).  The loop
    then runs on monomials, and each result monomial is reduced once,
    x = (x + H) % M - H with M = Phi_n(2^S) and H = M >> 1, and split into
    balanced base-2^S digits, the folded numerators r_0 .. r_(deg-1); the
    bias of `_fold_plan` turns that split into deg shifts and masks.

    This is exact.  w -> 2^S is a ring map Z[w] -> Z, and Phi_n is monic,
    so a monomial's unreduced product c(w) = q(w) Phi_n(w) + r(w) with
    integer q and r, and its packed value is congruent to r(2^S) modulo M.
    Let A and B be the operands' largest |numerator|, L the smaller
    operand's entry count, which bounds its monomial count, and R as in
    `field.fold_constants`.  At most L monomial pairs meet on one result
    monomial, each adds at most deg products to a coefficient of c(w), and
    r_i sums the 2*deg - 1 coefficients, each times a fold entry of size at
    most R.  So |r_i| <= A*B*L*deg*(2*deg - 1)*R < 2^S / 4 for S =
    `slot_bits`, and |r(2^S)| < 2^(S*deg) / 4.  That S also gives
    2^S >= 2 * sum |phi_i| over the lower coefficients of Phi_n (each
    |phi_i| <= R, and there is one when deg = 1), so M >= 2^(S*deg) / 2
    and H >= 2^(S*deg) / 4.  The remainder therefore is r(2^S) itself, and
    its balanced digits, each below 2^(S-1) in size, are the r_i.
    """
    if order is None:
        if len(pb) < len(pa):
            pa, pb = pb, pa
        acc: dict[int, int] = {}
        get = acc.get
        for ka, ca in pa:
            for kb, cb in pb:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
        return {k: v for k, v in acc.items() if v}
    if not pa or not pb:
        return {}
    deg, bits, reach = fold_constants(order)
    slot = slot_bits(pa, pb, deg, reach)
    mask = (1 << bits) - 1
    # key with power 0 -> sum of c_p * 2^(S*p); one loop per operand, not a
    # helper, as a call per operand shows on the many one-term products
    ia: dict[int, int] = {}
    get = ia.get
    for k, v in pa:
        p = k & mask
        ia[k - p] = get(k - p, 0) + (v << slot * p)
    ib: dict[int, int] = {}
    get = ib.get
    for k, v in pb:
        p = k & mask
        ib[k - p] = get(k - p, 0) + (v << slot * p)
    if len(ib) < len(ia):
        ia, ib = ib, ia
    acc = {}
    get = acc.get
    pairs = ib.items()
    for ka, ca in ia.items():
        for kb, cb in pairs:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    modulus, half, offset, digits, digit_mask, digit_half = _fold_plan(order, slot)
    out = {}
    for k, x in acc.items():
        x = (x + half) % modulus + offset
        for i, shift in digits:
            r = (x >> shift & digit_mask) - digit_half
            if r:
                out[k + i] = r
    return out


@functools.lru_cache(maxsize=1024)
def _fold_plan(order: int, slot: int) -> tuple:
    """The constants of `packed_product`'s fold at w = 2^slot: M =
    Phi_n(2^slot), H = M >> 1, bias - H, (i, slot * i) for each power-basis
    index i, the digit mask and 2^(slot-1).  bias adds 2^(slot-1) to every
    base-2^slot digit, so that balanced digits read as plain bit fields."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    modulus = sum(c << slot * i for i, c in enumerate(phi))
    digit_half = 1 << slot - 1
    bias = sum(digit_half << slot * i for i in range(deg))
    half = modulus >> 1
    digits = tuple((i, slot * i) for i in range(deg))
    return modulus, half, bias - half, digits, (1 << slot) - 1, digit_half


def slot_bits(pa, pb, deg: int, reach: int) -> int:
    """The slot width S at which `packed_product` packs the operands `pa`
    and `pb` of a product in a field of degree `deg`, with R = `reach` from
    `field.fold_constants`:
    S = bitlen(A) + bitlen(B) + bitlen(L * deg * (2*deg - 1) * R) + 2,
    A and B the non-empty operands' largest |numerator| and L the smaller
    operand's entry count."""
    top = max(map(abs, map(_second, pa))).bit_length()
    top += max(map(abs, map(_second, pb))).bit_length()
    headroom = min(len(pa), len(pb)) * deg * (2 * deg - 1) * reach
    return top + headroom.bit_length() + 2


def packed_sum(parts) -> tuple[dict, int]:
    """The sum of packed values, as `content_free` (numerators, denominator).

    Each part is (numerators, integer factor, denominator): a dict from
    packed key to a non-zero integer numerator over that denominator, as
    `packed_product` gives, and a non-zero integer it is multiplied by.  The
    parts are added in order over the lcm of their denominators, and a key
    is dropped as soon as its numerator sums to zero, so over Q the keys
    come out in the order `Poly.__add__` and `Poly.__sub__` give.
    """
    den = math.lcm(*(d for _, _, d in parts))
    acc: dict[int, int] = {}
    get = acc.get
    for nums, a, d in parts:
        m = a * (den // d)
        for k, v in nums.items():
            v = get(k, 0) + v * m
            if v:
                acc[k] = v
            else:
                del acc[k]
    return content_free(acc, den)


def content_free(acc: dict, den: int) -> tuple[dict, int]:
    """Integer numerators over `den` with the gcd of `den` and all of them
    divided out; zero is stored over 1."""
    if den != 1:
        g = math.gcd(den, *acc.values())
        if g != 1:
            acc = {k: v // g for k, v in acc.items()}
            den //= g
    return acc, den


class Poly:
    """An immutable sparse multivariate polynomial."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[tuple, object] | None = None):
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        clean: dict[tuple[int, ...], object] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != arity or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for arity {arity}")
            coeff = as_scalar(coeff)
            if exps in clean:
                coeff = clean[exps] + coeff
            if coeff:
                clean[exps] = coeff
            elif exps in clean:
                del clean[exps]
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly, (self.arity, self.terms)

    @classmethod
    def _raw(cls, arity: int, terms: dict) -> "Poly":
        """Internal fast path: terms must already be canonical."""
        self = object.__new__(cls)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "Poly":
        return cls._raw(arity, {})

    @classmethod
    def constant(cls, arity: int, value) -> "Poly":
        value = as_scalar(value)
        return cls._raw(arity, {(0,) * arity: value} if value else {})

    @classmethod
    def variable(cls, arity: int, index: int) -> "Poly":
        if not 0 <= index < arity:
            raise IndexError(f"variable index {index} out of range for arity {arity}")
        exps = tuple(1 if i == index else 0 for i in range(arity))
        return cls._raw(arity, {exps: ONE})

    @classmethod
    def monomial(cls, arity: int, exps: Sequence[int], coeff=1) -> "Poly":
        return cls(arity, {tuple(exps): coeff})

    # -- basic queries ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def degree_in(self, var: int) -> int:
        if not 0 <= var < self.arity:
            raise IndexError(f"variable index {var} out of range")
        return max((e[var] for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def num_terms(self) -> int:
        return len(self.terms)

    def _lead(self) -> tuple[tuple[int, ...], object]:
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def _check_arity(self, other: "Poly"):
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    # -- ring operations -------------------------------------------------------

    def _combine(self, other, sign: int):
        """self + other when sign is 1, self - other when it is -1."""
        if not isinstance(other, Poly):
            other = Poly.constant(self.arity, other)
        self._check_arity(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps)
            if acc is None:
                out[exps] = coeff if sign > 0 else -coeff
            else:
                acc = acc + coeff if sign > 0 else acc - coeff
                if acc:
                    out[exps] = acc
                else:
                    del out[exps]
        return Poly._raw(self.arity, out)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return Poly.constant(self.arity, other) - self

    def __neg__(self):
        return Poly._raw(self.arity, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = as_scalar(other)
            if not other:
                return Poly.zero(self.arity)
            return Poly._raw(self.arity, {e: c * other for e, c in self.terms.items()})
        self._check_arity(other)
        if not self.terms or not other.terms:
            return Poly.zero(self.arity)
        order = common_order(self.terms.values(), other.terms.values())
        width = (self.total_degree() + other.total_degree()).bit_length()
        pa, da = packed_encode(self, width, order)
        pb, db = packed_encode(other, width, order)
        return packed_decode(packed_product(pa, pb, order), da * db, self.arity, width, order)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = Poly.constant(self.arity, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, Poly):
            return self.divide_exact(other)
        other = as_scalar(other)
        if not other:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        inv = ONE / other
        return Poly._raw(self.arity, {e: c * inv for e, c in self.terms.items()})

    def divide_exact(self, divisor: "Poly") -> "Poly":
        """Exact division under graded-lex leading-term reduction.

        Raises NotDivisible as soon as a leading term fails to divide, which
        for a single divisor happens exactly when the division is not exact.

        The loop is fraction-free (Bareiss 1968) and serves both domains.
        Both operands are packed once, as in `__mul__`: the remainder maps
        packed key + power of w to an integer numerator over da * `scale`,
        da the dividend's common denominator, and the divisor is integer
        numerators over db.  A leading coefficient c that is not rational
        is made 1 first: the loop divides by divisor * c^-1, and the
        quotient is multiplied by c^-1 at the end.  So the divisor's leading
        coefficient is one integer numerator d, and every gcd is over Z.

        The leading monomial comes from a max-heap of the remainder's keys
        (Monagan and Pearce 2007), with lazy deletion: a key is pushed when
        a subtraction creates it, a popped key no longer in the remainder
        is skipped, and the heap is rebuilt from the remainder once it
        holds more than about twice as many keys.  Each step takes the
        leading monomial's numerators v and g = gcd(d, v) with the sign of
        d.  If a = d / g is not 1, the remainder, the quotient so far and
        `scale` are multiplied by a.  The quotient term is then the integer
        vector v / g, and its product with the divisor is subtracted from
        the remainder in place: over Q the term is one entry, so that is
        one loop over the divisor; over a cyclotomic field the product goes
        through `packed_product`, which folds it.  As each step scales
        by only the factor its own term needs, `scale` is the least s that
        makes every quotient coefficient so far, times s * da / db, an
        integer vector: it is bounded by the quotient's own denominators,
        not by the number of steps.  The quotient is decoded once, over
        da * scale / db (`packed_decode`): rational when both operands
        are, else every coefficient in their one cyclotomic field.
        """
        self._check_arity(divisor)
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        arity = self.arity
        lead_e, lead_c = divisor._lead()
        inv = None
        if isinstance(lead_c, CyclotomicScalar) and not lead_c.is_rational():
            inv = lead_c.inverse()
            divisor = divisor * inv
        order = common_order(self.terms.values(), divisor.terms.values())
        bits = power_bits(order)
        powers = range(fold_constants(order)[0] if order else 1)
        width = self.total_degree().bit_length()
        pa, da = packed_encode(self, width, order)
        pb, db = packed_encode(divisor, width, order)
        lead_k = _pack(lead_e, width) << bits
        d = dict(pb)[lead_k]
        rem = dict(pa)
        get = rem.get
        # pending keys, negated for a max-heap; a key that left rem is stale
        heap = [-k for k in rem]
        heapq.heapify(heap)
        out: dict[int, int] = {}
        scale = 1
        while rem:
            if len(heap) > 2 * len(rem) + 8:
                heap = [-k for k in rem]
                heapq.heapify(heap)
            k = -heapq.heappop(heap) >> bits << bits
            shift = k - lead_k
            lead = [(shift + p, rem[k + p]) for p in powers if k + p in rem]
            if not lead:
                continue
            exps = _unpack(k >> bits, arity, width)
            if any(x < y for x, y in zip(exps, lead_e)):
                raise NotDivisible(
                    f"remainder has leading monomial {exps} not divisible by {lead_e}"
                )
            g = math.gcd(d, *map(_second, lead))
            if d < 0:
                g = -g
            a = d // g
            if a != 1:
                for key in rem:
                    rem[key] *= a
                out = {key: v * a for key, v in out.items()}
                scale *= a
            term = [(key, v // g) for key, v in lead]
            out.update(term)
            if order is None:
                # one entry: its product with the divisor is one loop, here
                ((shift, c),) = term
                pairs = pb
            else:
                pairs, shift, c = packed_product(term, pb, order).items(), 0, 1
            for kb, cb in pairs:
                key = shift + kb
                v = c * cb
                old = get(key)
                if old is None:
                    rem[key] = -v
                    heapq.heappush(heap, -key)
                elif old == v:
                    del rem[key]
                else:
                    rem[key] = old - v
        quotient = packed_decode({k: v * db for k, v in out.items()}, da * scale, arity, width, order)
        return quotient if inv is None else quotient * inv

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.arity == other.arity and self.terms == other.terms
        try:
            return self == Poly.constant(self.arity, other)
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    # -- calculus and structure ------------------------------------------------

    def eval(self, point: Sequence):
        """Exact evaluation; the point may mix rationals into a cyclotomic field.

        At a point (w^p_1, ..., w^p_n) of powers of one root of unity, x^e is
        w^s with s the dot product of p and e, so the value is one pass over
        the terms (`field.root_power_sum`).  A constant polynomial always
        takes the generic route, so its value keeps its coefficient's type.
        Rational coefficients at a rational point take `_eval_rational`.
        """
        if len(point) != self.arity:
            raise ArityMismatch(f"point length {len(point)} vs arity {self.arity}")
        point = [as_scalar(p) for p in point]
        roots = root_exponents(point)
        if roots is not None and any(map(any, self.terms)):
            order, exponents = roots
            return root_power_sum(
                [(sum(map(mul, exponents, e)), c) for e, c in self.terms.items()], order
            )
        if (
            any(map(any, self.terms))
            and not any(isinstance(p, CyclotomicScalar) for p in point)
            and common_order(self.terms.values()) is None
        ):
            return self._eval_rational(point)
        return _power_sum(self.terms.items(), point, ZERO)

    def _eval_rational(self, point: list):
        """The value at a rational point of a polynomial with rational
        coefficients, in integer arithmetic.  With x_i = a_i / D over the
        point's common denominator D, coefficients N_e / den over theirs and
        top the total degree, the value is
        sum(N_e * a^e * D^(top - |e|)) / (den * D^top)."""
        scale = math.lcm(*(p.denominator for p in point))
        nums = [p.numerator * (scale // p.denominator) for p in point]
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        top = self.total_degree()
        lifts = [scale**d for d in range(top + 1)] if scale != 1 else None
        powers: list[dict[int, int]] = [{1: a} for a in nums]
        total = 0
        for exps, c in self.terms.items():
            value = c.numerator if den == 1 else c.numerator * (den // c.denominator)
            for i, e in enumerate(exps):
                if e:
                    cache = powers[i]
                    p = cache.get(e)
                    if p is None:
                        p = cache[e] = nums[i] ** e
                    value *= p
            if lifts:
                value *= lifts[top - sum(exps)]
            total += value
        return Rat(total, den * lifts[top] if lifts else den)

    def derivative(self, var: int) -> "Poly":
        if not 0 <= var < self.arity:
            raise IndexError(f"variable index {var} out of range for arity {self.arity}")
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[var]
            if e:
                key = exps[:var] + (e - 1,) + exps[var + 1 :]
                out[key] = coeff * e if e > 1 else coeff
        return Poly._raw(self.arity, out)

    def compose(self, values: Sequence["Poly"]) -> "Poly":
        """Substitute values[i] for variable i; all values share one arity."""
        if len(values) != self.arity:
            raise ArityMismatch(f"{len(values)} substitutions for arity {self.arity}")
        arity = values[0].arity
        for v in values:
            if v.arity != arity:
                raise ArityMismatch("substituted polynomials disagree on arity")
        terms = ((e, Poly.constant(arity, c)) for e, c in self.terms.items())
        return _power_sum(terms, values, Poly.zero(arity))

    def permute_vars(self, perm: Sequence[int]) -> "Poly":
        """Relabel variables: new variable perm[i] receives old variable i."""
        if sorted(perm) != list(range(self.arity)):
            raise ValueError(f"not a permutation of 0..{self.arity - 1}: {perm}")
        out = {}
        for exps, coeff in self.terms.items():
            new = [0] * self.arity
            for i, e in enumerate(exps):
                new[perm[i]] = e
            out[tuple(new)] = coeff
        return Poly._raw(self.arity, out)

    def map_coefficients(self, fn: Callable) -> "Poly":
        return Poly(self.arity, {e: fn(c) for e, c in self.terms.items()})

    # -- text and JSON forms -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def to_text(self, var_prefix: str = "x") -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"{var_prefix}{i + 1}")
                elif e > 1:
                    factors.append(f"{var_prefix}{i + 1}^{e}")
            coeff_text = scalar_to_text(coeff)
            if isinstance(coeff, CyclotomicScalar) and not coeff.is_rational():
                coeff_text = f"({coeff_text})"
            parts.append("*".join([coeff_text] + factors))
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "terms": [
                {"exps": list(e), "coeff": scalar_to_json(c)}
                for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict, max_order: int | None = None) -> "Poly":
        """Inverse of `to_json`.  Raises ValueError when a key is missing or
        ill-typed, an exponent vector does not fit the arity, or a
        coefficient's cyclotomic order is above `max_order`."""
        arity = json_field(obj, "arity", int, "polynomial JSON")
        terms = {}
        for t in json_field(obj, "terms", list, "polynomial JSON"):
            exps = json_field(t, "exps", list, "polynomial JSON")
            if len(exps) != arity or any(type(e) is not int for e in exps):
                raise ValueError(
                    f"polynomial JSON: exponent vector {exps} does not fit arity {arity}"
                )
            terms[tuple(exps)] = scalar_from_json(t.get("coeff"), max_order)
        return cls(arity, terms)

    def __repr__(self):
        return f"Poly({self.arity}, {self.to_text()})"


def _power_sum(terms, point: Sequence, total):
    """`total` plus the sum of c * x^e over the (e, c) pairs `terms` at
    x = `point`, whose coordinates may be scalars or polynomials: each
    power x_i^e is computed once, and each term multiplies c by its powers
    from the left."""
    powers: list[dict[int, object]] = [{1: x} for x in point]
    for exps, value in terms:
        for i, e in enumerate(exps):
            if e:
                cache = powers[i]
                p = cache.get(e)
                if p is None:
                    p = cache[e] = cache[1] ** e
                value = value * p
        total = total + value
    return total


_TERM_RE = re.compile(
    r"^(?P<coeff>[+-]?\d+(?:/\d+)?)?(?P<vars>(?:\*?[a-zA-Z]+\d+(?:\^\d+)?)*)$"
)
_VAR_RE = re.compile(r"([a-zA-Z]+)(\d+)(?:\^(\d+))?")


def poly_from_text(text: str, arity: int | None = None, max_arity: int | None = None) -> Poly:
    """Parse the canonical text form (sum of coeff*x1^e1*... terms).

    The text names only the variables a term uses, so, unlike the JSON
    form, its length does not bound the exponent vectors: a variable past
    `max_arity` raises ValueError before any vector is built."""
    text = text.strip()
    raw_terms = []
    max_var = 0
    for raw in text.replace("- ", "+ -").split("+"):
        part = raw.strip().replace(" ", "")
        if not part or part == "0":
            continue
        m = _TERM_RE.match(part)
        if not m:
            raise ValueError(f"cannot parse polynomial term {part!r}")
        coeff = rat_from_text(m.group("coeff")) if m.group("coeff") else ONE
        exps: dict[int, int] = {}
        for name, idx, e in _VAR_RE.findall(m.group("vars") or ""):
            if name != "x":
                raise ValueError(f"unexpected variable {name!r} (expected 'x')")
            i = int(idx)
            max_var = max(max_var, i)
            exps[i - 1] = exps.get(i - 1, 0) + (int(e) if e else 1)
        raw_terms.append((exps, coeff))
    if max_arity is not None and max_var > max_arity:
        raise ValueError(f"variable x{max_var} is past x{max_arity}, the largest read here")
    if arity is None:
        arity = max(max_var, 1)
    terms: dict[tuple, object] = {}
    for exps, coeff in raw_terms:
        key = tuple(exps.get(i, 0) for i in range(arity))
        terms[key] = terms.get(key, ZERO) + coeff
    return Poly(arity, terms)
