import copy
import json
import pickle
import random
import sys
from itertools import permutations

import pytest

from schurkit.circuits import (
    ABP,
    Formula,
    const,
    constant_formula,
    det_abp,
    formula_from_poly,
    inp,
    prod_node,
    random_formula,
    sum_node,
    variable_formula,
)
from schurkit.errors import ArityMismatch, BudgetExceeded, LengthMismatch
from schurkit.field import ONE, Rat, ScalarMatrix, ZERO, omega
from schurkit.poly import Poly, TruncatedSeries


def sum_formula(arity=2):
    return Formula(sum_node([inp(0), inp(1)]), arity)


class TestEvalAndExpand:
    def test_eval_sum(self):
        assert sum_formula().eval([1, 2]) == 3

    def test_eval_constant(self):
        assert Formula(const(7), 3).eval([9, 9, 9]) == 7

    def test_eval_square(self):
        f = Formula(prod_node([inp(0), inp(0)]), 1)
        assert f.eval([3]) == 9

    def test_expand_product_of_conjugates(self):
        f = Formula(
            prod_node(
                [sum_node([inp(0), inp(1)]), sum_node([inp(0), inp(1)], [1, -1])]
            ),
            2,
        )
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        assert f.expand() == x * x - y * y

    def test_expand_leaf(self):
        assert variable_formula(3, 2).expand() == Poly.variable(3, 2)

    def test_expand_weighted_sum(self):
        f = Formula(sum_node([inp(0), inp(1)], [2, 3]), 2)
        assert f.expand() == Poly(2, {(1, 0): 2, (0, 1): 3})

    def test_eval_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            sum_formula().eval([1])

    def test_eval_matches_expansion_on_random_formulas(self):
        rng = random.Random(7)
        for _ in range(20):
            f = random_formula(rng, arity=3)
            expansion = f.expand()
            for _ in range(5):
                point = [Rat(rng.randint(-3, 3)) for _ in range(3)]
                assert f.eval(point) == expansion.eval(point)

    def test_degree_bounded_by_size(self):
        rng = random.Random(11)
        for _ in range(25):
            f = random_formula(rng, arity=2)
            assert f.expand().total_degree() <= f.size()

    def test_budget_guard(self):
        # (x+1)^(2^6) by repeated squaring has 65 distinct terms
        node = sum_node([inp(0), const(1)])
        for _ in range(6):
            node = prod_node([node, node])
        f = Formula(node, 1)
        with pytest.raises(BudgetExceeded):
            f.expand(budget=10)
        # an earlier unbudgeted expansion does not lift the budget
        assert f.expand().num_terms() == 65
        with pytest.raises(BudgetExceeded):
            f.expand(budget=10)


class TestMetrics:
    def test_leaf_conventions(self):
        leaf = variable_formula(1, 0)
        assert leaf.size() == 1
        assert leaf.depth() == 0

    def test_sum_conventions(self):
        f = sum_formula()
        assert f.size() == 3
        assert f.depth() == 1

    def test_nested_conventions(self):
        f = Formula(prod_node([sum_node([inp(0), inp(1)]), inp(2)]), 3)
        assert f.size() == 5
        assert f.depth() == 2

    def test_shared_nodes_count_as_tree(self):
        leaf = inp(0)
        pair = prod_node([leaf, leaf])
        f = Formula(prod_node([pair, pair]), 1)
        assert f.size() == 7
        assert f.expand() == Poly.monomial(1, (4,))


class TestSubstitute:
    def test_square_of_sum(self):
        f = Formula(prod_node([inp(0), inp(0)]), 1)
        g = f.substitute({0: sum_formula()})
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        assert g.expand() == x * x + 2 * x * y + y * y

    def test_identity_map(self):
        f = sum_formula()
        g = f.substitute({0: variable_formula(2, 0), 1: variable_formula(2, 1)})
        assert g.expand() == f.expand()

    def test_map_to_zero(self):
        f = sum_formula()
        zero = Formula(const(0), 2)
        assert f.substitute({0: zero, 1: zero}).expand().is_zero()

    def test_replacement_arity_conflict(self):
        with pytest.raises(ArityMismatch):
            sum_formula().substitute(
                {0: variable_formula(2, 0), 1: variable_formula(3, 0)}
            )


class TestCombine:
    def test_single(self):
        f = sum_formula()
        g = Formula.combine([f], [1])
        assert g.expand() == f.expand()
        assert g.size() == f.size() + 1

    def test_cancellation(self):
        f = sum_formula()
        assert Formula.combine([f, f], [1, -1]).expand().is_zero()

    def test_weighted(self):
        g = Formula.combine([variable_formula(2, 0), variable_formula(2, 1)], [2, 3])
        assert g.expand() == Poly(2, {(1, 0): 2, (0, 1): 3})
        assert g.depth() == 1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            Formula.combine([sum_formula()], [1, 2])


class TestSerialization:
    def test_round_trip_identity(self):
        rng = random.Random(3)
        for _ in range(10):
            f = random_formula(rng, arity=2)
            blob = json.dumps(f.to_json(), sort_keys=True)
            g = Formula.from_json(json.loads(blob))
            assert json.dumps(g.to_json(), sort_keys=True) == blob
            assert g.expand() == f.expand()

    def test_cyclotomic_constants_round_trip(self):
        from schurkit.field import omega

        f = Formula(sum_node([inp(0), const(omega(5))], [Rat(1, 2), 1]), 1)
        g = Formula.from_json(f.to_json())
        assert g.expand() == f.expand()


class TestNodeImmutability:
    def test_slots_cannot_be_assigned(self):
        node = sum_node([inp(0), inp(1)])
        for slot, value in [
            ("kind", "product"),
            ("var", 0),
            ("value", ONE),
            ("children", ()),
            ("weights", None),
        ]:
            with pytest.raises(AttributeError):
                setattr(node, slot, value)
        assert node.kind == "sum" and len(node.children) == 2


DEEP = 5000


def deep_chain(kind: str) -> Formula:
    """x0 * x1^DEEP or x0 + DEEP*x1, one gate per level."""
    gate = prod_node if kind == "product" else sum_node
    x1 = inp(1)
    node = inp(0)
    for _ in range(DEEP):
        node = gate([node, x1])
    return Formula(node, 2)


def test_deep_chains_exceed_the_recursion_limit():
    assert DEEP > sys.getrecursionlimit()


@pytest.mark.parametrize("kind", ["product", "sum"])
class TestDeepFormulas:
    """Every walker handles chains far deeper than the recursion limit."""

    def test_size_and_depth(self, kind):
        f = deep_chain(kind)
        assert f.size() == 2 * DEEP + 1
        assert f.depth() == DEEP

    def test_eval_and_expand(self, kind):
        f = deep_chain(kind)
        if kind == "product":
            assert f.eval([3, 1]) == 3
            assert f.expand() == Poly.monomial(2, (1, DEEP))
        else:
            assert f.eval([3, 1]) == 3 + DEEP
            assert f.expand() == Poly(2, {(1, 0): 1, (0, 1): DEEP})

    def test_substitute(self, kind):
        g = deep_chain(kind).substitute({1: constant_formula(2, 1)})
        assert g.depth() == DEEP
        expected = 1 if kind == "product" else 1 + DEEP
        assert g.eval([1, 7]) == expected

    def test_dict_round_trip(self, kind):
        f = deep_chain(kind)
        g = Formula.from_json(f.to_json())
        assert (g.size(), g.depth()) == (f.size(), f.depth())
        assert g.expand() == f.expand()

    def test_pickle_and_deepcopy(self, kind):
        f = deep_chain(kind)
        for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert (g.size(), g.depth()) == (f.size(), f.depth())
            assert g.expand() == f.expand()


def test_dict_round_trip_keeps_sharing():
    node = inp(0)
    for _ in range(12):
        node = prod_node([node, node])
    f = Formula(node, 1)
    blob = f.to_json()
    assert blob["root"]["children"][0] is blob["root"]["children"][1]
    g = Formula.from_json(blob)
    assert g.root.children[0] is g.root.children[1]
    assert g.size() == f.size() == 2**13 - 1
    assert g.expand() == Poly.monomial(1, (2**12,))


def perm_det_poly(n):
    arity = n * n
    out = Poly.zero(arity)
    for sigma in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if sigma[i] > sigma[j]:
                    sign = -sign
        exps = [0] * arity
        for i in range(n):
            exps[i * n + sigma[i]] += 1
        out = out + Poly.monomial(arity, exps, sign)
    return out


class TestABP:
    def test_single_edge_variable(self):
        abp = ABP(1, [["s"], ["t"]], [("s", "t", 0, [1])])
        assert abp.expand() == Poly.variable(1, 0)

    def test_two_parallel_paths(self):
        edges = [
            ("s", "a", 0, [1, 0, 0, 0]),
            ("s", "b", 0, [0, 0, 1, 0]),
            ("a", "t", 0, [0, 1, 0, 0]),
            ("b", "t", 0, [0, 0, 0, 1]),
        ]
        abp = ABP(4, [["s"], ["a", "b"], ["t"]], edges)
        expected = Poly.monomial(4, (1, 1, 0, 0)) + Poly.monomial(4, (0, 0, 1, 1))
        assert abp.expand() == expected

    def test_constant_edge(self):
        abp = ABP(1, [["s"], ["t"]], [("s", "t", 5, [0])])
        assert abp.expand() == Poly.constant(1, 5)

    def test_edges_must_join_consecutive_layers(self):
        with pytest.raises(ValueError):
            ABP(1, [["s"], ["a"], ["t"]], [("s", "t", 0, [1])])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_det_abp_matches_cofactor_oracle(self, n):
        assert det_abp(n).expand() == perm_det_poly(n)

    def test_det_abp_node_count_polynomial(self):
        for n in range(1, 7):
            assert det_abp(n).num_nodes() <= n**3 + 2

    def test_json_round_trip(self):
        abp = det_abp(3)
        blob = json.dumps(abp.to_json(), sort_keys=True)
        back = ABP.from_json(json.loads(blob))
        assert json.dumps(back.to_json(), sort_keys=True) == blob
        assert back.expand() == abp.expand()


def test_formula_from_poly_round_trip():
    p = Poly(2, {(2, 1): Rat(3, 2), (0, 0): -2, (1, 0): 1})
    assert formula_from_poly(p).expand() == p
    assert formula_from_poly(Poly.zero(2)).expand().is_zero()


def _shared_formula():
    shared = sum_node([inp(0), const(omega(8))], [Rat(1, 2), ONE])
    return Formula(prod_node([shared, shared, inp(1)]), 2)


@pytest.mark.parametrize(
    "value, key",
    [
        (omega(8), None),
        (omega(8) * Rat(3, 4) - Rat(1, 6), None),
        (Poly(2, {(1, 0): omega(5), (0, 2): Rat(-2, 3)}), None),
        (ScalarMatrix.from_rows([[omega(3), 1], [Rat(1, 2), 0]]), None),
        (TruncatedSeries(1, 2, [Poly.constant(1, 1), Poly.variable(1, 0)]), None),
        (_shared_formula().root, lambda node: Formula(node, 2).to_json()),
        (_shared_formula(), Formula.to_json),
    ],
    ids=["omega", "cyclotomic", "poly", "matrix", "series", "node", "formula"],
)
def test_immutable_values_copy_and_pickle(value, key):
    key = key or (lambda v: v)
    for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert key(twin) == key(value)
