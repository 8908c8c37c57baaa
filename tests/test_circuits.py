import ast
import copy
import inspect
import json
import pickle
import random
import sys
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurkit import circuits, transforms
from schurkit.circuits import (
    ABP,
    Formula,
    _live_children,
    postorder,
    const,
    constant_formula,
    det_abp,
    formula_from_poly,
    inp,
    prod_node,
    sum_node,
    variable_formula,
)
from schurkit.errors import ArityMismatch, BudgetExceeded, DomainMismatch, LengthMismatch
from schurkit.field import ONE, CyclotomicScalar, Rat, ScalarMatrix, ZERO, omega
from schurkit.partitions import Partition
from schurkit.poly import Poly
from schurkit.transforms import schur_to_det_reduce

from helpers import random_formula, tree_metrics


def schoolbook_product(p: Poly, q: Poly) -> Poly:
    """p * q by scalar products on exponent tuples, apart from the packed
    kernel that `Poly.__mul__` and `Formula.expand` share."""
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return Poly(p.arity, out)


def naive_expand(f: Formula) -> Poly:
    """Gate-by-gate `Poly` arithmetic with `schoolbook_product`: the
    reference for the packed integer expansion behind `Formula.expand`.
    Its coefficients may mix `Rat` and `CyclotomicScalar` values."""
    arity = f.arity
    zero = Poly.zero(arity)
    values: dict[int, Poly] = {}
    for node in postorder(f.root, _live_children):
        if node.kind == "input":
            value = Poly.variable(arity, node.var)
        elif node.kind == "const":
            value = Poly.constant(arity, node.value)
        elif node.kind == "sum":
            value = zero
            for w, c in zip(node.weights, node.children):
                if w:
                    value = value + values[id(c)] * w
        else:
            value = Poly.constant(arity, 1)
            for c in node.children:
                value = schoolbook_product(value, values[id(c)])
        values[id(node)] = value
    return values[id(f.root)]


def live_orders(f: Formula) -> set:
    """The orders of the cyclotomic constants and non-zero weights that a
    walk from the root along non-zero edges reaches."""
    orders = set()
    stack = [f.root]
    while stack:
        node = stack.pop()
        scalars = [node.value] if node.kind == "const" else [w for w in node.weights or () if w]
        orders |= {c.order for c in scalars if isinstance(c, CyclotomicScalar)}
        stack.extend(_live_children(node))
    return orders


def assert_expands_as_reference(f: Formula) -> Poly:
    """f.expand() equals the reference, hashes alike, and has one domain:
    all `Rat` with no live cyclotomic scalar, else all `CyclotomicScalar`
    of the one live order."""
    got, expected = f.expand(), naive_expand(f)
    assert got == expected
    assert hash(got) == hash(expected)
    assert all(got.terms.values())
    orders = live_orders(f)
    types = {type(c) for c in got.terms.values()}
    if orders:
        assert types <= {CyclotomicScalar}
        assert {c.order for c in got.terms.values()} <= orders
    else:
        assert types <= {type(ONE)}
    return got


def random_scalar(rng: random.Random, order):
    """A small rational or, for an order, a cyclotomic value; zero at times."""
    if order is None or rng.random() < 0.4:
        return Rat(rng.randint(-3, 3), rng.randint(1, 3))
    nums = [Rat(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(rng.randint(1, order))]
    return CyclotomicScalar(order, nums)


def random_weighted_formula(rng: random.Random, arity: int, order, max_depth: int = 3) -> Formula:
    """Random sums and products with constants and weights from
    `random_scalar` (some edges of weight zero) over `arity` inputs."""

    def build(depth: int):
        if depth <= 0 or rng.random() < 0.25:
            if rng.random() < 0.2:
                return const(random_scalar(rng, order))
            return inp(rng.randrange(arity))
        children = [build(depth - 1) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            return prod_node(children)
        return sum_node(children, [random_scalar(rng, order) for _ in children])

    return Formula(build(max_depth), arity)


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

    def test_structural_degree_bounds_expansion(self):
        rng = random.Random(13)
        for _ in range(40):
            f = random_formula(rng, arity=3)
            assert f.degree() >= f.expand().total_degree()

    def test_structural_degree_skips_zero_weight_edges(self):
        square = prod_node([inp(0), inp(0)])
        f = Formula(sum_node([inp(1), square], [1, 0]), 2)
        assert f.degree() == 1
        assert Formula(sum_node([square], [0]), 2).degree() == 0
        assert Formula(prod_node([square, const(3), inp(1)]), 2).degree() == 3

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


class TestPackedExpansion:
    """`Formula.expand` against the gate-by-gate reference `naive_expand`."""

    @pytest.mark.parametrize("order", [None, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15])
    def test_random_formulas(self, order):
        rng = random.Random(order or 1)
        for _ in range(25):
            assert_expands_as_reference(random_weighted_formula(rng, 3, order))

    @pytest.mark.parametrize("order", [None, 3, 5, 8, 12])
    def test_cancellation_to_zero(self, order):
        rng = random.Random(100 + (order or 1))
        for _ in range(10):
            g = random_weighted_formula(rng, 2, order)
            c = random_scalar(rng, order) or ONE
            f = Formula(sum_node([g.root, g.root], [c, -c]), 2)
            assert assert_expands_as_reference(f).is_zero()

    @pytest.mark.parametrize("order", [None, 5, 8])
    def test_product_with_a_zero_factor(self, order):
        rng = random.Random(200 + (order or 1))
        x = inp(0)
        vanishing = sum_node([x, x], [ONE, -ONE])
        for zero in (const(0), vanishing, sum_node([x], [0])):
            g = random_weighted_formula(rng, 2, order)
            f = Formula(prod_node([g.root, zero, inp(1)]), 2)
            assert assert_expands_as_reference(f).is_zero()

    def test_zero_weight_edges_are_skipped(self):
        w = omega(5)
        square = prod_node([inp(0), inp(0)])
        f = Formula(sum_node([inp(1), square, const(w)], [w, 0, CyclotomicScalar(5, [])]), 2)
        assert assert_expands_as_reference(f) == Poly(2, {(0, 1): w})

    @pytest.mark.parametrize("order", [None, 1, 2, 4, 7, 9, 12, 15])
    def test_coefficients_near_2_200(self, order):
        rng = random.Random(300 + (order or 0))

        def huge():
            def rat():
                return Rat(rng.choice((-1, 1)) * (2**200 + rng.randrange(2**64)), 2**199 + rng.randrange(3))
            return rat() if order is None else CyclotomicScalar(order, [rat() for _ in range(order)])

        for _ in range(3):
            forms = [sum_node([inp(i % 3), inp((i + 1) % 3), const(huge())], [huge(), huge(), 1]) for i in range(4)]
            f = Formula(sum_node([prod_node(forms[:3]), prod_node(forms[1:])], [huge(), huge()]), 3)
            assert_expands_as_reference(f)

    @pytest.mark.parametrize("order", [1, 2, 4, 7, 9, 12, 15])
    def test_dense_factors_collide_on_few_keys(self, order):
        # factors with every monomial of degree 9 in x, y: up to 10 monomial
        # pairs meet on one key of a product; with one coefficient of equal
        # large numerators throughout, their products add up without
        # cancelling
        rng = random.Random(400 + order)
        aligned = CyclotomicScalar(order, [2**60 - 1] * order)
        for scalar in (lambda: random_scalar(rng, order) or ONE, lambda: aligned):
            factors = [
                formula_from_poly(Poly(2, {(i, 9 - i): scalar() for i in range(10)})).root
                for _ in range(3)
            ]
            assert_expands_as_reference(Formula(prod_node(factors), 2))

    def test_one_walk_of_the_dag(self, monkeypatch):
        from schurkit import circuits

        walks = []

        def counting(*args):
            walks.append(args)
            return postorder(*args)

        monkeypatch.setattr(circuits, "postorder", counting)
        x = inp(0)
        shared = sum_node([x, const(omega(8))])
        Formula(prod_node([shared, shared, inp(1)]), 2).expand()
        assert len(walks) == 1

    def test_order_five_folds_powers_modulo_five(self):
        # w^2 * w^3 = w^5 = 1 needs the fold modulo n before Phi_5's rows
        w = omega(5)
        f = Formula(prod_node([sum_node([inp(0)], [w**3]), sum_node([inp(0)], [w**2 + w**3])]), 1)
        assert assert_expands_as_reference(f) == Poly(1, {(2,): 1 + w})


class TestCoefficientDomain:
    def test_rational_formula_has_rational_coefficients(self):
        f = Formula(sum_node([prod_node([inp(0), inp(1)]), const(3)], [Rat(1, 2), ONE]), 2)
        assert {type(c) for c in f.expand().terms.values()} == {type(ONE)}

    def test_one_live_order_lifts_every_coefficient(self):
        # the reference keeps x2 rational; the expansion stores it in Q(w)
        w = omega(8)
        f = Formula(sum_node([inp(0), inp(1)], [w, ONE]), 2)
        got, mixed = f.expand(), naive_expand(f)
        assert {type(c) for c in mixed.terms.values()} == {CyclotomicScalar, type(ONE)}
        assert {type(c) for c in got.terms.values()} == {CyclotomicScalar}
        assert got == mixed and hash(got) == hash(mixed)
        assert got.terms[(0, 1)] == 1 and got.terms[(0, 1)].order == 8

    def test_two_live_orders_raise(self):
        # the two orders never meet in one coefficient, yet both are live
        f = Formula(sum_node([inp(0), inp(1)], [omega(5), omega(8)]), 2)
        with pytest.raises(DomainMismatch):
            f.expand()

    def test_a_dead_order_is_ignored(self):
        f = Formula(sum_node([inp(0), const(omega(5))], [omega(8), 0]), 2)
        assert f.expand() == Poly(2, {(1, 0): omega(8)})


def test_budget_counts_monomials():
    # (x + w y)(x + w^3 y)(x + (1 + w) y) over Q(w), w of order 8: the largest
    # intermediate is the product itself, with P = 4 monomials, and its
    # coefficients have more power-basis entries than that
    w = omega(8)
    forms = [sum_node([inp(0), inp(1)], [ONE, c]) for c in (w, w**3, 1 + w)]
    f = Formula(prod_node(forms), 2)
    product = f.expand(budget=4)
    assert product.num_terms() == 4
    assert sum(sum(map(bool, c.nums)) for c in product.terms.values()) > 4
    with pytest.raises(BudgetExceeded):
        f.expand(budget=3)


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


@pytest.mark.parametrize("module", [circuits, transforms], ids=lambda m: m.__name__)
def test_only_postorder_and_fold_key_tables_by_identity(module):
    # every walk of the formula DAG is a visit function for `fold`, so no
    # other function keeps a table keyed by `id`
    tree = ast.parse(inspect.getsource(module))
    allowed = {
        id(inner)
        for func in tree.body
        if isinstance(func, ast.FunctionDef) and func.name in ("postorder", "fold")
        for inner in ast.walk(func)
    }
    uses = [
        node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "id"
    ]
    assert [node.lineno for node in uses if id(node) not in allowed] == []
    # the two allowed functions are found: circuits calls `id` in them
    assert bool(uses) == (module is circuits)


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


def dumps(f: Formula) -> str:
    return json.dumps(f.to_json(), indent=2, sort_keys=True)


def written(f: Formula) -> str:
    return "".join(f.json_pieces())


SCALARS = st.one_of(
    st.builds(Rat, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(lambda k, c: omega(8) ** k * c, st.integers(0, 7), st.integers(-2, 2)),
)


@st.composite
def shared_formulas(draw):
    """Formulas over 3 inputs whose gates may take one node as several
    children, with rational and cyclotomic constants and weights, zero
    among them, and empty sum and product gates."""
    pool = [inp(i) for i in range(3)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["const", "sum", "product"]))
        if kind == "const":
            pool.append(const(draw(SCALARS)))
            continue
        children = draw(st.lists(st.sampled_from(pool), max_size=4))
        if kind == "sum":
            pool.append(sum_node(children, [draw(SCALARS) for _ in children]))
        else:
            pool.append(prod_node(children))
    return Formula(pool[-1], 3)


@settings(max_examples=300, deadline=None)
@given(shared_formulas(), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
@example(Formula(sum_node([inp(0), prod_node([inp(0), inp(1)])], [ONE, ZERO]), 3), [2, 3, 5])
def test_metrics_match_the_unfolded_tree(f, point):
    size, depth, degree, value = tree_metrics(f.root, [Rat(x) for x in point])
    assert (f.size(), f.depth(), f.degree()) == (size, depth, degree)
    assert f.eval(point) == value
    assert repr(f) == f"Formula(arity=3, size={size}, depth={depth})"


class TestJsonPieces:
    """`Formula.json_pieces` writes the text of `json.dumps(f.to_json(),
    indent=2, sort_keys=True)`."""

    @settings(max_examples=300, deadline=None)
    @given(shared_formulas(), st.sampled_from([0, 1, 40, 4096]))
    @example(Formula(sum_node([]), 1), 0)
    @example(Formula(sum_node([prod_node([]), const(omega(8))], [0, omega(8)]), 1), 0)
    def test_matches_json_dumps(self, f, short):
        # below `_SHORT_TEXT` a node is one string; a smaller bound keeps
        # small nodes as ropes, so the explicit stack emits them
        saved = circuits._SHORT_TEXT
        circuits._SHORT_TEXT = short
        try:
            assert written(f) == dumps(f)
        finally:
            circuits._SHORT_TEXT = saved

    def test_streaming_holds_a_fraction_of_the_text(self):
        # the (4,2)/6 output is 13.2 MB of text from 363 distinct nodes; a
        # writer that joins shared nodes' texts peaks at about half the text
        f = schur_to_det_reduce(Partition((4, 2)), 6)[0]
        tracemalloc.start()
        try:
            size = sum(len(piece) for piece in f.json_pieces())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size == 13_160_451
        assert peak < 3_000_000

    def test_product_chain_deeper_than_the_recursion_limit(self):
        # 1,500 product gates nest 3,002 JSON containers; the input x1 is one
        # node shared at every level
        x1 = inp(1)
        node = inp(0)
        for level in range(1500):
            node = prod_node([node, x1])
            if level == 59:
                inner = Formula(node, 2)
        f = Formula(node, 2)
        assert sys.getrecursionlimit() < 3000
        text = written(f)
        assert text.count("[") == 1500
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)
        try:
            assert json.loads(text) == f.to_json()
        finally:
            sys.setrecursionlimit(limit)
        # the text of the 60-gate chain inside it is exactly what json.dumps writes
        assert written(inner) == dumps(inner)


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
        assert f.degree() == (DEEP + 1 if kind == "product" else 1)

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
        # a bare node, outside any Formula, copies just as flat
        for root in (pickle.loads(pickle.dumps(f.root)), copy.deepcopy(f.root)):
            g = Formula(root, f.arity)
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


def naive_abp_expand(abp):
    """Reference: the layer-by-layer `Poly` evaluator, which pushes each
    node's value along its outgoing edges, times the edge's label."""
    def label(c, coeffs):
        terms = {(0,) * abp.arity: c} if c else {}
        for i, w in enumerate(coeffs):
            if w:
                terms[tuple(int(j == i) for j in range(abp.arity))] = w
        return Poly(abp.arity, terms)

    outgoing = {}
    for u, v, c, coeffs in abp.edges:
        outgoing.setdefault(u, []).append((v, label(c, coeffs)))
    values = {abp.layers[0][0]: Poly.constant(abp.arity, 1)}
    for layer in abp.layers[:-1]:
        next_values = {}
        for u in layer:
            value = values.get(u)
            if value is None or value.is_zero():
                continue
            for v, lab in outgoing.get(u, ()):
                contribution = value * lab
                acc = next_values.get(v)
                next_values[v] = contribution if acc is None else acc + contribution
        values = next_values
    return values.get(abp.layers[-1][0], Poly.zero(abp.arity))


def cyclotomic_abp(seed):
    """A seeded layered program on 3 inputs with order-8 and rational labels,
    zero constants and zero coefficients among them."""
    rng = random.Random(seed)
    w = omega(8)

    def scalar():
        kind = rng.randrange(3)
        if kind == 0:
            return ZERO
        if kind == 1:
            return Rat(rng.randint(-3, 3), rng.randint(1, 2))
        return w ** rng.randint(0, 7) * rng.choice([-2, -1, 1, 2])

    layers = [["s"], ["a", "b", "c"], ["d", "e"], ["t"]]
    edges = [
        (u, v, scalar(), [scalar() for _ in range(3)])
        for before, after in zip(layers, layers[1:])
        for u in before
        for v in after
        if rng.random() < 0.8
    ]
    return ABP(3, layers, edges)


class TestABPExpandsThroughTheFormulaOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_det_abp(self, n):
        abp = det_abp(n)
        assert abp.expand() == naive_abp_expand(abp)

    @pytest.mark.parametrize("seed", range(8))
    def test_order_8_labels(self, seed):
        abp = cyclotomic_abp(seed)
        assert abp.expand() == naive_abp_expand(abp)

    def test_node_with_no_incoming_edge(self):
        # b has no incoming edge, so every path through it contributes zero
        edges = [("s", "a", 1, [1, 0]), ("a", "t", 0, [0, 1]), ("b", "t", 7, [1, 1])]
        abp = ABP(2, [["s"], ["a", "b"], ["t"]], edges)
        assert abp.expand() == naive_abp_expand(abp) == Poly(2, {(0, 1): 1, (1, 1): 1})

    def test_all_zero_label(self):
        edges = [
            ("s", "a", 0, [0, 0]),
            ("s", "b", 2, [0, 0]),
            ("a", "t", 1, [1, 0]),
            ("b", "t", 0, [0, 3]),
        ]
        abp = ABP(2, [["s"], ["a", "b"], ["t"]], edges)
        assert abp.expand() == naive_abp_expand(abp) == Poly(2, {(0, 1): 6})
        dead = ABP(2, [["s"], ["t"]], [("s", "t", 0, [0, 0])])
        assert dead.expand() == naive_abp_expand(dead) == Poly.zero(2)

    def test_budget_bounds_every_gate(self):
        # det_3 has 6 monomials, so its sink gate is over a budget of 5
        assert det_abp(3).expand(budget=6) == perm_det_poly(3)
        with pytest.raises(BudgetExceeded):
            det_abp(3).expand(budget=5)
        with pytest.raises(BudgetExceeded):
            det_abp(4).expand(budget=2)


def pruned_det_abp(n: int) -> ABP:
    """Reference for `det_abp`: the source edges by their own rule, a special
    case for n = 1, every reopened walk kept, and the states that cannot
    reach the sink removed afterwards by a backward pass from the sink."""
    arity = n * n

    def name(l, c, h):
        return f"w{l}:{c},{h}"

    def label(i, j, negate):
        coeffs = [ZERO] * arity
        coeffs[i * n + j] = -ONE if negate else ONE
        return coeffs

    source, sink = "s", "t"
    final_negate = n % 2 == 0
    if n == 1:
        return ABP(arity, [(source,), (sink,)], [(source, sink, ZERO, label(0, 0, final_negate))])
    states = {l: set() for l in range(1, n)}
    edges = []
    for c in range(n):
        for v in range(c + 1, n):
            edges.append((source, name(1, c, v), ZERO, label(c, v, False)))
            states[1].add((c, v))
        for c2 in range(c + 1, n):
            edges.append((source, name(1, c2, c2), ZERO, label(c, c, True)))
            states[1].add((c2, c2))
    for l in range(1, n):
        for c, h in sorted(states[l]):
            if l + 1 < n:
                for v in range(c + 1, n):
                    edges.append((name(l, c, h), name(l + 1, c, v), ZERO, label(h, v, False)))
                    states[l + 1].add((c, v))
                for c2 in range(c + 1, n):
                    edges.append((name(l, c, h), name(l + 1, c2, c2), ZERO, label(h, c, True)))
                    states[l + 1].add((c2, c2))
            else:
                edges.append((name(l, c, h), sink, ZERO, label(h, c, final_negate)))
    incoming = {}
    for u, v, _, _ in edges:
        incoming.setdefault(v, []).append(u)
    alive, frontier = {sink}, [sink]
    while frontier:
        for u in incoming.get(frontier.pop(), ()):
            if u not in alive:
                alive.add(u)
                frontier.append(u)
    layers = [(source,)]
    for l in range(1, n):
        layers.append(tuple(name(l, c, h) for c, h in sorted(states[l]) if name(l, c, h) in alive))
    layers.append((sink,))
    return ABP(arity, layers, [e for e in edges if e[0] in alive and e[1] in alive])


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

    def test_edge_to_a_node_in_no_layer(self):
        with pytest.raises(ValueError, match="'x'"):
            ABP(1, [["s"], ["t"]], [("s", "x", 0, [1])])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_det_abp_matches_pruned_reference(self, n):
        abp, reference = det_abp(n), pruned_det_abp(n)
        assert abp.layers == reference.layers
        assert abp.edges == reference.edges

    @pytest.mark.parametrize("n", range(1, 9))
    def test_det_abp_has_only_live_nodes(self, n):
        abp = det_abp(n)
        (source,), (sink,) = abp.layers[0], abp.layers[-1]
        nodes = {name for layer in abp.layers for name in layer}
        assert {u for u, _, _, _ in abp.edges} == nodes - {sink}
        assert {v for _, v, _, _ in abp.edges} == nodes - {source}


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
        (ScalarMatrix(2, 2, [omega(3), 1, Rat(1, 2), 0]), None),
        (_shared_formula().root, lambda node: Formula(node, 2).to_json()),
        (_shared_formula(), Formula.to_json),
    ],
    ids=["omega", "cyclotomic", "poly", "matrix", "node", "formula"],
)
def test_immutable_values_copy_and_pickle(value, key):
    key = key or (lambda v: v)
    for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert key(twin) == key(value)
