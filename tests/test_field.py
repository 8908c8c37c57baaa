import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from schurkit import field
from schurkit.errors import DomainMismatch, NotSquare, SingularMatrix
from schurkit.field import (
    CyclotomicScalar,
    Rat,
    ScalarMatrix,
    bareiss,
    cyclotomic_from_text,
    cyclotomic_polynomial,
    demote,
    embed,
    fold_constants,
    gauss_jordan,
    interpolation_weights,
    omega,
    scalar_from_json,
    scalar_to_json,
    scalar_to_text,
)


ROOT = Path(__file__).resolve().parent.parent


def poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCyclotomicPolynomials:
    def test_frozen_small_orders(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    @pytest.mark.parametrize("n", range(1, 301))
    def test_product_over_divisors_is_x_n_minus_1(self, n):
        # independent oracle: multiply the factors back together
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = poly_mul_int(product, list(cyclotomic_polynomial(d)))
        expected = [0] * (n + 1)
        expected[0], expected[n] = -1, 1
        assert product == expected

    def test_large_orders_finish(self):
        # 55440 = 2^4 * 3^2 * 5 * 7 * 11: one pass per squarefree divisor of
        # 2310 over 481 coefficients; a subprocess, so that a slow build
        # fails by timeout
        code = (
            "from schurkit.field import cyclotomic_polynomial as phi\n"
            "assert len(phi(55440)) == 11521 and len(phi(27720)) == 5761\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("n", range(1, 11))
    def test_omega_is_primitive(self, n):
        w = omega(n)
        assert w**n == 1
        for k in range(1, n):
            assert w**k != 1

    @pytest.mark.parametrize("n", range(2, 10))
    def test_geometric_sum_vanishes(self, n):
        total = embed(Rat(0), n)
        for k in range(n):
            total = total + omega(n) ** k
        assert not total


class TestScalarArithmetic:
    def test_rational_examples(self):
        assert Rat(1) / Rat(2, 3) == Rat(3, 2)
        assert Rat(1, 2) + Rat(1, 3) == Rat(5, 6)

    def test_omega_product_order_three(self):
        w = omega(3)
        assert w * w**2 == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            embed(Rat(0), 3).inverse()

    def test_mixed_orders_rejected(self):
        with pytest.raises(DomainMismatch):
            omega(3) + omega(4)
        with pytest.raises(DomainMismatch):
            omega(3) * omega(5)

    def test_rational_embedding_allowed(self):
        w = omega(4)
        assert (w + Rat(1, 2)) - w == Rat(1, 2)
        assert w * 2 == 2 * w

    @given(
        st.integers(2, 8),
        st.lists(st.fractions(max_denominator=6), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_inverse_round_trip(self, n, coeffs):
        value = CyclotomicScalar(n, [Rat(c) for c in coeffs])
        if not value:
            return
        assert value * value.inverse() == 1

    @given(st.integers(2, 8), st.lists(st.fractions(max_denominator=5), max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_text_round_trip(self, n, coeffs):
        value = CyclotomicScalar(n, [Rat(c) for c in coeffs])
        assert cyclotomic_from_text(n, scalar_to_text(value)) == value

    def test_json_round_trip(self):
        for s in (Rat(-7, 3), Rat(5), omega(5) + Rat(1, 2), embed(Rat(0), 6)):
            assert scalar_from_json(scalar_to_json(s)) == s

    @given(
        st.integers(1, 12),
        st.integers(0, 1000),
        st.integers(0, 11),
        st.fractions(max_denominator=5),
    )
    @settings(max_examples=60, deadline=None)
    @example(8, 10**30, 7, Fraction(-1, 2))
    def test_exponents_are_taken_modulo_the_order(self, n, k, r, c):
        # w^n = 1, so no exponent allocates more than n coefficients; k is
        # small, or too large for any allocation to start
        r %= n
        expected = CyclotomicScalar(n, [Rat(0)] * r + [Rat(c)])
        assert cyclotomic_from_text(n, f"{c}*w^{k * n + r}") == expected
        assert scalar_from_json({"order": n, "value": f"{c}*w^{k * n + r}"}) == expected

    @pytest.mark.parametrize(
        "obj",
        ["1/0", "-3/0", {"order": 8, "value": "1/0*w"}, {"order": 8, "value": "1 + 2/0"}],
    )
    def test_zero_denominator_is_a_value_error(self, obj):
        with pytest.raises(ValueError, match="zero denominator in scalar '-?[0-9]+/0'"):
            scalar_from_json(obj)

    @pytest.mark.parametrize("order", [9, 10**6, 10**8])
    def test_order_above_the_limit_is_a_value_error(self, order):
        # refused before the order-10^8 field is built
        assert scalar_from_json({"order": 8, "value": "w^3"}, max_order=8) == omega(8) ** 3
        with pytest.raises(ValueError, match=f"cyclotomic order {order} is above 8"):
            scalar_from_json({"order": order, "value": "w^3"}, max_order=8)
        # the terms are read first: a bad term is reported as such
        with pytest.raises(ValueError, match="zero denominator"):
            cyclotomic_from_text(order, "1/0*w", max_order=8)

    @given(st.fractions(max_denominator=10**6))
    @settings(max_examples=60, deadline=None)
    def test_rational_parse_print_parse_identity(self, q):
        value = Rat(q)
        assert Rat(scalar_to_text(value)) == value
        assert scalar_to_text(Rat(scalar_to_text(value))) == scalar_to_text(value)


# reference arithmetic: Fraction (or int) vectors over the power basis,
# reduced by long division by Phi_n; shares nothing with CyclotomicScalar but
# the (independently tested) cyclotomic polynomial
def ref_reduce(vec, n):
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    vec = list(vec)
    for top in range(len(vec) - 1, deg - 1, -1):
        c = vec[top]
        for i, p in enumerate(phi):
            vec[top - deg + i] -= c * p
    return vec[:deg] + [0] * (deg - len(vec))


def ref_mul(a, b, n):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_reduce(out, n)


def ref_pow(a, e, n):
    out = ref_reduce([1], n)
    for _ in range(e):
        out = ref_mul(out, a, n)
    return out


def assert_canonical(x):
    assert x.den > 0
    assert all(type(c) is int for c in x.nums)
    assert math.gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x.den == 1


cyclotomic_pairs = st.integers(1, 16).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.fractions(max_denominator=9, min_value=-20, max_value=20), max_size=2 * n),
        st.lists(st.fractions(max_denominator=9, min_value=-20, max_value=20), max_size=2 * n),
        st.integers(-3, 4),
    )
)


class TestReductionModuloPhi:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_integer_vectors_of_every_length(self, n):
        # below deg, between deg and n, above n, and the zero vector
        rng = random.Random(n)
        for length in range(3 * n + 1):
            vec = [rng.randint(-9, 9) for _ in range(length)]
            assert CyclotomicScalar(n, vec).nums == tuple(ref_reduce(vec, n))
        zero = [0] * (3 * n)
        assert CyclotomicScalar(n, zero).nums == tuple(ref_reduce(zero, n))

    def test_long_vectors_fold_modulo_n_before_the_division(self, monkeypatch):
        # w^n = 1, so the long division by Phi_n never sees more than n
        # coefficients: its cost does not grow with the vector's length
        orders = (1, 2, 7, 8, 12, 15)
        for n in orders:
            cyclotomic_polynomial(n)
        lengths = []
        divide = field._divmod_monic

        def recorded(num, den):
            lengths.append((len(num), len(den) - 1))
            return divide(num, den)

        monkeypatch.setattr(field, "_divmod_monic", recorded)
        for n in orders:
            lengths.clear()
            vec = list(range(1, 5 * n + 2))
            assert CyclotomicScalar(n, vec).nums == tuple(ref_reduce(vec, n))
            assert lengths == [(n, len(cyclotomic_polynomial(n)) - 1)]

    def test_fold_constants(self):
        for n in range(1, 201):
            deg = len(cyclotomic_polynomial(n)) - 1
            # w^0 .. w^(2*deg - 2), each one reference step from the last
            power, reach = ref_reduce([1], n), 1
            for _ in range(2 * deg - 2):
                power = ref_reduce([0] + power, n)
                reach = max(reach, *(abs(c) for c in power))
            assert fold_constants(n)[::2] == (deg, reach)


class TestIntegerNumeratorStorage:
    @given(cyclotomic_pairs)
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_vector_reference(self, case):
        n, u, v, e = case
        x, y = CyclotomicScalar(n, u), CyclotomicScalar(n, v)
        ru, rv = ref_reduce(u, n), ref_reduce(v, n)
        assert list(x.coeffs) == ru
        expected = [
            (x + y, [p + q for p, q in zip(ru, rv)]),
            (x - y, [p - q for p, q in zip(ru, rv)]),
            (x * y, ref_mul(ru, rv, n)),
        ]
        if any(ru):
            inv = x.inverse()
            assert_canonical(inv)
            assert ref_mul(ru, list(inv.coeffs), n) == ref_reduce([1], n)
            base = ru if e >= 0 else list(inv.coeffs)
            expected.append((x**e, ref_pow(base, abs(e), n)))
        else:
            expected.append((x ** abs(e), ref_pow(ru, abs(e), n)))
        for got, want in expected:
            assert_canonical(got)
            assert list(got.coeffs) == want

    @given(st.integers(1, 16), st.fractions(max_denominator=50))
    @settings(max_examples=60, deadline=None)
    def test_embedded_rational_hashes_and_compares_as_itself(self, n, q):
        x = embed(q, n)
        assert_canonical(x)
        assert x == q and hash(x) == hash(q)
        assert x.rational_value() == q

    def test_canonical_form(self):
        w = omega(8)
        half = w * Rat(1, 2)
        assert (half.nums, half.den) == ((0, 1, 0, 0), 2)
        assert ((half + Rat(1, 2)) - half).den == 2
        # w/2 + w/2: the common factor 2 of numerators and denominator goes
        assert ((half + half).nums, (half + half).den) == ((0, 1, 0, 0), 1)
        zero = half - half
        assert (zero.nums, zero.den) == ((0, 0, 0, 0), 1)
        assert CyclotomicScalar(8, [Rat(2, 6), Rat(4, 6)]).nums == (1, 2, 0, 0)

    def test_demote(self):
        q = Rat(-5, 3)
        assert type(demote(embed(q, 8))) is Rat and demote(embed(q, 8)) == q
        w = omega(8)
        assert demote(w) is w
        assert demote(q) is q

    def test_coeffs_are_rationals(self):
        x = omega(8) * Rat(3, 4) + 2
        assert isinstance(x.coeffs, tuple)
        assert all(type(c) is Rat for c in x.coeffs)
        assert x.coeffs == (Rat(2), Rat(3, 4), Rat(0), Rat(0))
        with pytest.raises(AttributeError):
            x.nums = (1, 0, 0, 0)


rational_matrices = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def matrix(rows):
    """The ScalarMatrix with these rows."""
    return ScalarMatrix(len(rows), len(rows[0]), [e for row in rows for e in row])


def identity(n):
    return matrix([[int(i == j) for j in range(n)] for i in range(n)])


def matmul(a, b):
    """The product of two ScalarMatrix values, entry by entry."""
    cols = list(zip(*b.to_rows()))
    return matrix(
        [[sum((x * y for x, y in zip(row, col)), Rat(0)) for col in cols] for row in a.to_rows()]
    )


class TestScalarMatrix:
    def test_det_examples(self):
        assert matrix([[1, 2], [3, 4]]).det() == -2
        assert identity(4).det() == 1
        assert matrix([[1, 1], [1, 1]]).det() == 0

    def test_det_requires_square(self):
        with pytest.raises(NotSquare):
            ScalarMatrix(2, 3, [1] * 6).det()

    def test_rank_examples(self):
        assert identity(3).rank() == 3
        assert ScalarMatrix(2, 4, [0] * 8).rank() == 0
        assert matrix([[1, 2], [2, 4]]).rank() == 1

    def test_inverse_examples(self):
        assert identity(3).inverse() == identity(3)
        assert matrix([[2, 0], [0, 4]]).inverse() == matrix(
            [[Rat(1, 2), 0], [0, Rat(1, 4)]]
        )
        assert matrix([[1, 1], [0, 1]]).inverse() == matrix(
            [[1, -1], [0, 1]]
        )

    def test_gauss_jordan_skips_pivotless_columns(self):
        reduced, pivots = gauss_jordan([[1, 2, 0, 1], [2, 4, 1, 0]])
        assert pivots == [0, 2]
        assert reduced == [[1, 2, 0, 1], [0, 0, 1, -2]]

    def test_gauss_jordan_carries_augmented_columns(self):
        reduced, pivots = gauss_jordan([[0, 2, 1], [0, 0, 3]], ncols=2)
        assert pivots == [1]
        assert reduced == [[0, 1, Rat(1, 2)], [0, 0, 3]]

    def test_singular_inverse_raises(self):
        with pytest.raises(SingularMatrix):
            matrix([[1, 1], [1, 1]]).inverse()

    @given(rational_matrices)
    @settings(max_examples=60, deadline=None)
    def test_rank_transpose_and_inverse_round_trip(self, rows):
        m = matrix(rows)
        assert m.rank() == matrix(list(zip(*rows))).rank()
        if m.det():
            n = m.rows
            assert matmul(m, m.inverse()) == identity(n)

    @given(rational_matrices)
    @settings(max_examples=60, deadline=None)
    def test_rational_rank_matches_gauss_jordan(self, rows):
        # rank() clears denominators row by row and eliminates over the ints
        assert matrix(rows).rank() == len(gauss_jordan(rows)[1])

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_one_elimination_gives_pivots_and_inverse_rows(self, data):
        # reducing [J | I_k] once finds the pivot columns cols of J and, in
        # the identity block, the rows of the inverse of J[:, cols]
        order = data.draw(st.sampled_from([None, 8]), label="order")
        n = data.draw(st.integers(1, 4), label="n")
        k = data.draw(st.integers(1, n), label="k")
        rational = st.fractions(min_value=-4, max_value=4, max_denominator=3)
        entry = rational if order is None else st.lists(rational, max_size=4).map(
            lambda coeffs: CyclotomicScalar(order, coeffs)
        )
        rows = data.draw(
            st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k)
        )
        _, cols = gauss_jordan(rows)
        assume(len(cols) == k)
        augmented = [list(row) + [Rat(int(i == j)) for j in range(k)] for i, row in enumerate(rows)]
        reduced, pivots = gauss_jordan(augmented, n)
        assert pivots == cols
        inverse = ScalarMatrix(k, k, [rows[i][c] for i in range(k) for c in cols]).inverse()
        assert [tuple(row[n:]) for row in reduced] == [inverse.row(m) for m in range(k)]

    def test_cyclotomic_matrix_inverse(self):
        w = omega(5)
        m = matrix([[w, 1], [Rat(1, 3), w**3]])
        assert matmul(m, m.inverse()) == identity(2)

    def test_mixed_order_matrix_rejected(self):
        with pytest.raises(DomainMismatch):
            ScalarMatrix(1, 2, [omega(3), omega(4)])


class TestInterpolationWeights:
    @pytest.mark.parametrize("bound", range(13))
    def test_rows_and_prefix_sums_of_inverse_vandermonde(self, bound):
        # the reference: Gauss-Jordan inverse of the Vandermonde matrix on
        # the nodes 0..bound, whose row d holds the x^d Lagrange coefficients
        nodes = range(bound + 1)
        inverse = matrix([[Rat(t) ** j for j in nodes] for t in nodes]).inverse()
        for d in nodes:
            assert interpolation_weights(bound, (d,)) == list(inverse.row(d))
            prefix = [sum((inverse.entry(e, t) for e in range(d + 1)), Rat(0)) for t in nodes]
            assert interpolation_weights(bound, range(d + 1)) == prefix
        assert interpolation_weights(bound, ()) == [0] * (bound + 1)
        assert all(type(w) is Rat for w in interpolation_weights(bound, nodes))

    @pytest.mark.parametrize("degrees", [(4,), (-1,), (0, 5)])
    def test_degree_outside_the_nodes_rejected(self, degrees):
        with pytest.raises(ValueError):
            interpolation_weights(3, degrees)


def leibniz_det(rows):
    n = len(rows)
    total = Rat(0)
    for sigma in itertools.permutations(range(n)):
        inversions = sum(sigma[i] > sigma[j] for i in range(n) for j in range(i + 1, n))
        term = Rat(-1) ** inversions
        for i in range(n):
            term = term * rows[i][sigma[i]]
        total = term + total
    return total


def random_entry(rng, order):
    if order is None:
        return Rat(rng.choice([0, 0, rng.randint(-3, 3)]), rng.randint(1, 3))
    return CyclotomicScalar(order, [Rat(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(rng.randint(0, 4))])


class TestBareiss:
    @pytest.mark.parametrize("order", [None, 5])
    def test_matches_gauss_jordan_and_leibniz(self, order):
        rng = random.Random(order or 0)
        for _ in range(60):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[random_entry(rng, order) for _ in range(ncols)] for _ in range(nrows)]
            if rng.random() < 0.3 and nrows > 1:
                # force a dependent row
                rows[-1] = [a * 2 - b for a, b in zip(rows[0], rows[1])]
            rank, det = bareiss(rows)
            assert rank == len(gauss_jordan(rows)[1])
            if order is None:
                # integer rows divide with //: same rank, det scaled by the row factors
                dens = [math.lcm(*(v.denominator for v in row)) for row in rows]
                ints = [[int(v * d) for v in row] for row, d in zip(rows, dens)]
                int_rank, int_det = bareiss(ints)
                assert int_rank == rank and type(int_det) is int
                if nrows == ncols:
                    assert int_det == det * math.prod(dens)
                else:
                    assert int_det == 0
            if nrows == ncols:
                assert det == leibniz_det(rows)
            else:
                assert not det
            if order is not None:
                assert isinstance(det, CyclotomicScalar)
