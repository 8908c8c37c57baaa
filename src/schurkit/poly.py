"""Sparse multivariate polynomials with exact coefficients.

A polynomial holds a map from exponent tuples (one entry per variable slot)
to non-zero scalars; coefficients are exact rationals or cyclotomic field
elements from `schurkit.field`.  The canonical monomial order everywhere is
graded lexicographic: higher total degree first, ties broken by the exponent
tuple with x1 heaviest.

Products and exact division work on packed graded keys: an exponent tuple
becomes one int holding the total degree in the top field, then x1 .. xn,
each field `width` bits wide, where `width` is the bit length of the largest
total degree the operation can reach (deg a + deg b for a product, the
dividend's degree for a division).  No field can carry, so
key(a * b) == key(a) + key(b), and integer order is graded-lex order:
`max` over keys finds the leading term without a key function.

A product is an integer kernel.  Each operand becomes packed keys with
integer numerators over one common denominator (`field.int_numerators`); a
cyclotomic coefficient contributes one entry per non-zero power-basis
numerator, with the power of w in an extra low field.  The inner loop adds
keys and multiplies ints, and each output monomial is turned back into a
scalar once (`field.from_int_numerators`).  Rational operands give rational
coefficients; if either operand has a cyclotomic coefficient, every product
coefficient lies in that one cyclotomic field, and two orders raise
DomainMismatch.  Exact division keeps its scalar arithmetic, as the
divisor's leading coefficient is in general no unit, but finds each leading
term and each target monomial on packed keys.

Also provides truncated univariate power series whose coefficients are
polynomials, for the generating-function identities between the symmetric
bases.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    ArityMismatch,
    NonUnitConstantTerm,
    NonZeroConstantTerm,
    NotDivisible,
    ZeroPolynomial,
)
from .field import (
    ONE,
    ZERO,
    CyclotomicScalar,
    Rat,
    as_scalar,
    common_order,
    from_int_numerators,
    int_numerators,
    json_field,
    power_bits,
    scalar_from_json,
    scalar_to_json,
    scalar_to_text,
)


def grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


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

    def min_degree(self) -> int:
        return min((sum(e) for e in self.terms), default=-1)

    def degree_in(self, var: int) -> int:
        if not 0 <= var < self.arity:
            raise IndexError(f"variable index {var} out of range")
        return max((e[var] for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def coefficient(self, exps: Sequence[int]):
        return self.terms.get(tuple(exps), ZERO)

    def constant_term(self):
        return self.terms.get((0,) * self.arity, ZERO)

    def num_terms(self) -> int:
        return len(self.terms)

    def _lead(self) -> tuple[tuple[int, ...], object]:
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def _check_arity(self, other: "Poly"):
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            return self + Poly.constant(self.arity, other)
        self._check_arity(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps)
            if acc is None:
                out[exps] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[exps] = acc
                else:
                    del out[exps]
        return Poly._raw(self.arity, out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return self - Poly.constant(self.arity, other)
        self._check_arity(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps)
            if acc is None:
                out[exps] = -coeff
            else:
                acc = acc - coeff
                if acc:
                    out[exps] = acc
                else:
                    del out[exps]
        return Poly._raw(self.arity, out)

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
        a, b = self.terms, other.terms
        if len(b) < len(a):
            a, b = b, a
        order = common_order(a.values(), b.values())
        bits = power_bits(order)
        width = (self.total_degree() + other.total_degree()).bit_length()
        pa, da = int_numerators({_pack(e, width) << bits: c for e, c in a.items()})
        pb, db = int_numerators({_pack(e, width) << bits: c for e, c in b.items()})
        acc: dict[int, int] = {}
        get = acc.get
        for ka, ca in pa:
            for kb, cb in pb:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
        arity = self.arity
        out = from_int_numerators(acc, order, da * db)
        return Poly._raw(arity, {_unpack(k, arity, width): c for k, c in out.items()})

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
        """
        self._check_arity(divisor)
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        arity = self.arity
        lead_e, lead_c = divisor._lead()
        width = self.total_degree().bit_length()
        lead_k = _pack(lead_e, width)
        inv = ONE / lead_c
        rem = {_pack(e, width): c for e, c in self.terms.items()}
        div = [(_pack(e, width), c) for e, c in divisor.terms.items()]
        out: dict = {}
        while rem:
            k = max(rem)
            coeff = rem[k]
            exps = _unpack(k, arity, width)
            if any(a < b for a, b in zip(exps, lead_e)):
                raise NotDivisible(
                    f"remainder has leading monomial {exps} not divisible by {lead_e}"
                )
            shift = k - lead_k
            q = coeff * inv
            out[shift] = q
            for dk, dc in div:
                dk += shift
                acc = rem.get(dk)
                sub = q * dc
                if acc is None:
                    rem[dk] = -sub
                else:
                    acc = acc - sub
                    if acc:
                        rem[dk] = acc
                    else:
                        del rem[dk]
        return Poly._raw(arity, {_unpack(k, arity, width): q for k, q in out.items()})

    def __eq__(self, other):
        if isinstance(other, Poly):
            if self.arity != other.arity:
                return False
            if self.terms.keys() != other.terms.keys():
                return False
            return all(other.terms[e] == c for e, c in self.terms.items())
        try:
            return self == Poly.constant(self.arity, other)
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    # -- calculus and structure ------------------------------------------------

    def eval(self, point: Sequence):
        """Exact evaluation; the point may mix rationals into a cyclotomic field."""
        if len(point) != self.arity:
            raise ArityMismatch(f"point length {len(point)} vs arity {self.arity}")
        point = [as_scalar(p) for p in point]
        powers: list[dict[int, object]] = [{0: ONE, 1: p} for p in point]
        total = ZERO
        for exps, coeff in self.terms.items():
            value = coeff
            for i, e in enumerate(exps):
                if e:
                    cache = powers[i]
                    p = cache.get(e)
                    if p is None:
                        p = cache[1] ** e
                        cache[e] = p
                    value = value * p
            total = total + value
        return total

    def derivative(self, var: int) -> "Poly":
        if not 0 <= var < self.arity:
            raise IndexError(f"variable index {var} out of range for arity {self.arity}")
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[var]
            if e:
                key = exps[:var] + (e - 1,) + exps[var + 1 :]
                out[key] = coeff * e
        return Poly._raw(self.arity, out)

    def homogeneous_component(self, degree: int) -> "Poly":
        if degree < 0:
            raise ValueError("degree must be non-negative")
        return Poly._raw(
            self.arity, {e: c for e, c in self.terms.items() if sum(e) == degree}
        )

    def homogeneous_components(self) -> dict[int, "Poly"]:
        buckets: dict[int, dict] = {}
        for exps, coeff in self.terms.items():
            buckets.setdefault(sum(exps), {})[exps] = coeff
        return {d: Poly._raw(self.arity, t) for d, t in sorted(buckets.items())}

    def lowest_component(self) -> tuple[int, "Poly"]:
        """The minimal degree with a non-zero homogeneous component, and that component."""
        d = self.min_degree()
        if d < 0:
            raise ZeroPolynomial("the zero polynomial has no non-zero component")
        return d, self.homogeneous_component(d)

    def compose(self, values: Sequence["Poly"]) -> "Poly":
        """Substitute values[i] for variable i; all values share one arity."""
        if len(values) != self.arity:
            raise ArityMismatch(f"{len(values)} substitutions for arity {self.arity}")
        if not values:
            raise ValueError("empty substitution")
        arity = values[0].arity
        for v in values:
            if v.arity != arity:
                raise ArityMismatch("substituted polynomials disagree on arity")
        result = Poly.zero(arity)
        power_cache: list[dict[int, Poly]] = [{} for _ in values]
        for exps, coeff in self.terms.items():
            term = Poly.constant(arity, coeff)
            for i, e in enumerate(exps):
                if e:
                    cache = power_cache[i]
                    p = cache.get(e)
                    if p is None:
                        p = values[i] ** e
                        cache[e] = p
                    term = term * p
            result = result + term
        return result

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

    def shift(self, point: Sequence) -> "Poly":
        """The polynomial x -> self(point + x)."""
        if len(point) != self.arity:
            raise ArityMismatch(f"point length {len(point)} vs arity {self.arity}")
        values = []
        for i, a in enumerate(point):
            v = Poly.variable(self.arity, i)
            values.append(v + Poly.constant(self.arity, a) if as_scalar(a) else v)
        return self.compose(values)

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
    def from_json(cls, obj: dict) -> "Poly":
        """Inverse of `to_json`.  Raises ValueError when a key is missing or
        ill-typed, or an exponent vector does not fit the arity."""
        arity = json_field(obj, "arity", int, "polynomial JSON")
        terms = {}
        for t in json_field(obj, "terms", list, "polynomial JSON"):
            exps = json_field(t, "exps", list, "polynomial JSON")
            if len(exps) != arity or any(type(e) is not int for e in exps):
                raise ValueError(
                    f"polynomial JSON: exponent vector {exps} does not fit arity {arity}"
                )
            terms[tuple(exps)] = scalar_from_json(t.get("coeff"))
        return cls(arity, terms)

    def __repr__(self):
        return f"Poly({self.arity}, {self.to_text()})"


_TERM_RE = re.compile(
    r"^(?P<coeff>[+-]?\d+(?:/\d+)?)?(?P<vars>(?:\*?[a-zA-Z]+\d+(?:\^\d+)?)*)$"
)
_VAR_RE = re.compile(r"([a-zA-Z]+)(\d+)(?:\^(\d+))?")


def poly_from_text(text: str, arity: int | None = None, var_prefix: str = "x") -> Poly:
    """Parse the canonical text form (sum of coeff*x1^e1*... terms)."""
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
        coeff = Rat(m.group("coeff")) if m.group("coeff") else ONE
        exps: dict[int, int] = {}
        for name, idx, e in _VAR_RE.findall(m.group("vars") or ""):
            if name != var_prefix:
                raise ValueError(f"unexpected variable {name!r} (expected {var_prefix!r})")
            i = int(idx)
            max_var = max(max_var, i)
            exps[i - 1] = exps.get(i - 1, 0) + (int(e) if e else 1)
        raw_terms.append((exps, coeff))
    if arity is None:
        arity = max(max_var, 1)
    terms: dict[tuple, object] = {}
    for exps, coeff in raw_terms:
        key = tuple(exps.get(i, 0) for i in range(arity))
        terms[key] = terms.get(key, ZERO) + coeff
    return Poly(arity, terms)


# ---------------------------------------------------------------------------
# truncated power series over Poly coefficients
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """A power series in t, truncated above t^cap, with Poly coefficients."""

    __slots__ = ("arity", "cap", "coeffs")

    def __init__(self, arity: int, cap: int, coeffs: Iterable[Poly] = ()):
        if cap < 0:
            raise ValueError("cap must be non-negative")
        coeffs = list(coeffs)[: cap + 1]
        for c in coeffs:
            if c.arity != arity:
                raise ArityMismatch("series coefficient arity mismatch")
        coeffs += [Poly.zero(arity)] * (cap + 1 - len(coeffs))
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __reduce__(self):
        return TruncatedSeries, (self.arity, self.cap, self.coeffs)

    @classmethod
    def constant(cls, arity: int, cap: int, value) -> "TruncatedSeries":
        return cls(arity, cap, [Poly.constant(arity, value)])

    def term(self, k: int) -> Poly:
        return self.coeffs[k] if k <= self.cap else Poly.zero(self.arity)

    def _check(self, other: "TruncatedSeries"):
        if self.arity != other.arity:
            raise ArityMismatch("series arity mismatch")
        if self.cap != other.cap:
            raise ArityMismatch("series caps differ")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(
            self.arity, self.cap, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(
            self.arity, self.cap, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        out = [Poly.zero(self.arity) for _ in range(self.cap + 1)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > self.cap:
                    break
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(self.arity, self.cap, out)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse modulo t^(cap+1)."""
        c0 = self.coeffs[0]
        if c0.total_degree() != 0:
            raise NonUnitConstantTerm(
                "series inversion needs a non-zero scalar constant term"
            )
        inv0 = Poly.constant(self.arity, 1) / c0.constant_term()
        out = [inv0]
        for k in range(1, self.cap + 1):
            acc = Poly.zero(self.arity)
            for i in range(1, k + 1):
                if self.coeffs[i]:
                    acc = acc + self.coeffs[i] * out[k - i]
            out.append(-(inv0 * acc))
        return TruncatedSeries(self.arity, self.cap, out)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, modulo t^(cap+1)."""
        if self.coeffs[0]:
            raise NonZeroConstantTerm("series exp needs zero constant term")
        result = TruncatedSeries.constant(self.arity, self.cap, 1)
        power = TruncatedSeries.constant(self.arity, self.cap, 1)
        factorial = 1
        for i in range(1, self.cap + 1):
            power = power * self
            factorial *= i
            scaled = TruncatedSeries(
                self.arity, self.cap, [c / factorial for c in power.coeffs]
            )
            result = result + scaled
        return result

    def integrate(self) -> "TruncatedSeries":
        """Formal antiderivative with zero constant term, truncated at cap."""
        out = [Poly.zero(self.arity)]
        for k, c in enumerate(self.coeffs):
            if k + 1 > self.cap:
                break
            out.append(c / (k + 1))
        return TruncatedSeries(self.arity, self.cap, out)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.cap == other.cap
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __repr__(self):
        body = " + ".join(f"({c.to_text()})*t^{k}" for k, c in enumerate(self.coeffs) if c)
        return f"TruncatedSeries(cap={self.cap}: {body or '0'})"
