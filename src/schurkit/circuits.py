"""Arithmetic intermediate representation: formulas (trees) and ABPs.

Formulas are trees of sum/product gates over input and constant leaves; sum
gates carry one scalar edge weight per child.  Node objects are immutable and
may be physically shared between trees; sharing is purely an implementation
economy, the semantics (and the size/depth metrics) always count occurrences,
i.e. treat the structure as a tree.

Full symbolic expansion to a `Poly` is the brute-force oracle that every
transformation pass in this package is checked against, so it is guarded by a
term budget rather than being clever.

An ABP is a layered graph with one source and one sink whose edges carry
affine labels; it computes the sum over source-to-sink paths of the product
of the labels.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from .errors import ArityMismatch, BudgetExceeded, LengthMismatch
from .field import (
    ONE,
    ZERO,
    as_scalar,
    json_field,
    scalar_from_json,
    scalar_to_json,
)
from .poly import Poly

DEFAULT_TERM_BUDGET = 500_000


class Node:
    """A formula node: "input", "const", "sum" or "product"; immutable."""

    __slots__ = ("kind", "var", "value", "children", "weights")

    def __init__(self, kind, var=None, value=None, children=(), weights=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "children", tuple(children))
        object.__setattr__(self, "weights", tuple(weights) if weights is not None else None)

    def __setattr__(self, name, value):
        raise AttributeError("Node is immutable")

    def __reduce__(self):
        return Node, (self.kind, self.var, self.value, self.children, self.weights)


def _postorder(root, children=lambda node: node.children) -> list:
    """Every distinct object reachable from `root`, children before parents.

    Objects are told apart by identity, so a shared subtree appears once.
    The walk keeps an explicit stack, so depth is limited by memory rather
    than by the interpreter's recursion limit.
    """
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        item, done = stack.pop()
        if done:
            order.append(item)
        elif id(item) not in seen:
            seen.add(id(item))
            stack.append((item, True))
            stack.extend((c, False) for c in reversed(children(item)))
    return order


def _live_children(node: Node):
    """The children that can affect the value: zero-weight edges are skipped."""
    if node.kind == "sum":
        return [c for w, c in zip(node.weights, node.children) if w]
    return node.children


def inp(var: int) -> Node:
    return Node("input", var=var)


def const(value) -> Node:
    return Node("const", value=as_scalar(value))


def sum_node(children: Sequence[Node], weights: Sequence | None = None) -> Node:
    children = tuple(children)
    if weights is None:
        weights = (ONE,) * len(children)
    else:
        weights = tuple(as_scalar(w) for w in weights)
    if len(weights) != len(children):
        raise LengthMismatch(
            f"{len(children)} children but {len(weights)} weights"
        )
    return Node("sum", children=children, weights=weights)


def prod_node(children: Sequence[Node]) -> Node:
    return Node("product", children=tuple(children))


class Formula:
    """An arithmetic formula with a fixed input arity."""

    __slots__ = ("root", "arity")

    def __init__(self, root: Node, arity: int):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.root = root
        self.arity = arity

    def __reduce__(self):
        """A flat encoding, so that pickle and deepcopy do not recurse once
        per level: the distinct nodes in post-order, each naming its
        children by their index in that list."""
        nodes = _postorder(self.root)
        index = {id(node): i for i, node in enumerate(nodes)}
        flat = [
            (n.kind, n.var, n.value, tuple(index[id(c)] for c in n.children), n.weights)
            for n in nodes
        ]
        return _formula_from_flat, (flat, self.arity)

    # -- metrics -----------------------------------------------------------

    def size(self) -> int:
        """Total node count, leaves included; edge weights are free."""
        sizes: dict[int, int] = {}
        for node in _postorder(self.root):
            sizes[id(node)] = 1 + sum(sizes[id(c)] for c in node.children)
        return sizes[id(self.root)]

    def depth(self) -> int:
        """Longest root-to-leaf path counted in gate edges (a leaf has depth 0)."""
        depths: dict[int, int] = {}
        for node in _postorder(self.root):
            depths[id(node)] = 1 + max(depths[id(c)] for c in node.children) if node.children else 0
        return depths[id(self.root)]

    # -- semantics -----------------------------------------------------------

    def eval(self, point: Sequence):
        """Exact evaluation, one step per distinct node."""
        if len(point) != self.arity:
            raise ArityMismatch(f"point length {len(point)} vs arity {self.arity}")
        point = [as_scalar(p) for p in point]
        values: dict[int, object] = {}
        for node in _postorder(self.root, _live_children):
            if node.kind == "input":
                value = point[node.var]
            elif node.kind == "const":
                value = node.value
            elif node.kind == "sum":
                value = ZERO
                for w, c in zip(node.weights, node.children):
                    if w:
                        value = value + w * values[id(c)]
            else:
                value = ONE
                for c in node.children:
                    value = value * values[id(c)]
            values[id(node)] = value
        return values[id(self.root)]

    def expand(self, budget: int | None = None) -> Poly:
        """Full symbolic expansion (the brute-force oracle).

        Guarded by a term budget on every intermediate polynomial.  Nothing is
        cached: each call expands afresh under its own budget.
        """
        budget = DEFAULT_TERM_BUDGET if budget is None else budget
        arity = self.arity
        zero = Poly.zero(arity)
        values: dict[int, Poly] = {}
        for node in _postorder(self.root, _live_children):
            if node.kind == "input":
                value = Poly.variable(arity, node.var)
            elif node.kind == "const":
                value = Poly.constant(arity, node.value)
            elif node.kind == "sum":
                value = zero
                for w, c in zip(node.weights, node.children):
                    if w:
                        value = value + values[id(c)] * w
                if value.num_terms() > budget:
                    raise BudgetExceeded(
                        f"expansion exceeded {budget} terms at a sum gate"
                    )
            else:
                factors = [values[id(c)] for c in node.children]
                if any(f.is_zero() for f in factors):
                    value = zero
                else:
                    factors.sort(key=lambda f: f.num_terms())
                    value = Poly.constant(arity, 1)
                    for f in factors:
                        value = value * f
                        if value.num_terms() > budget:
                            raise BudgetExceeded(
                                f"expansion exceeded {budget} terms at a product gate"
                            )
            values[id(node)] = value
        return values[id(self.root)]

    # -- structural passes ---------------------------------------------------

    def substitute(
        self, mapping: Mapping[int, "Formula"], arity: int | None = None
    ) -> "Formula":
        """Replace input leaves by whole formulas.

        All replacement formulas must share one arity, which becomes the arity
        of the result; input indices absent from the mapping pass through
        unchanged (and must therefore be valid in the target arity).
        """
        arities = {f.arity for f in mapping.values()}
        if len(arities) > 1:
            raise ArityMismatch(f"replacement formulas disagree on arity: {arities}")
        if arity is None:
            arity = arities.pop() if arities else self.arity
        elif arities and arities != {arity}:
            raise ArityMismatch("explicit arity disagrees with replacements")
        roots = {var: f.root for var, f in mapping.items()}
        replaced: dict[int, Node] = {}
        for node in _postorder(self.root):
            if node.kind == "input":
                new = roots.get(node.var)
                if new is None:
                    if node.var >= arity:
                        raise ArityMismatch(
                            f"unmapped input x{node.var + 1} exceeds target arity {arity}"
                        )
                    new = node
            elif node.kind in ("sum", "product"):
                new = Node(
                    node.kind,
                    children=[replaced[id(c)] for c in node.children],
                    weights=node.weights,
                )
            else:
                new = node
            replaced[id(node)] = new
        return Formula(replaced[id(self.root)], arity)

    @staticmethod
    def combine(formulas: Sequence["Formula"], weights: Sequence) -> "Formula":
        """One sum gate over the given formulas with the given edge weights."""
        if len(formulas) != len(weights):
            raise LengthMismatch(
                f"{len(formulas)} formulas but {len(weights)} weights"
            )
        if not formulas:
            raise LengthMismatch("need at least one formula")
        arities = {f.arity for f in formulas}
        if len(arities) != 1:
            raise ArityMismatch(f"formulas disagree on arity: {arities}")
        return Formula(
            sum_node([f.root for f in formulas], weights), arities.pop()
        )

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        """The formula as nested dicts, for `json.dumps`.

        A shared subtree becomes one shared dict, so the result is as small as
        the node graph; the JSON text still spells out the whole tree.  The
        stdlib `json` module recurses, so text for a formula a few hundred
        levels deep cannot be written or read back by it; the dicts
        themselves round-trip through `from_json` at any depth.
        """
        encoded: dict[int, dict] = {}
        for node in _postorder(self.root):
            if node.kind == "input":
                out = {"kind": "input", "var": node.var}
            elif node.kind == "const":
                out = {"kind": "const", "value": scalar_to_json(node.value)}
            else:
                out = {"kind": node.kind, "children": [encoded[id(c)] for c in node.children]}
                if node.kind == "sum":
                    out["weights"] = [scalar_to_json(w) for w in node.weights]
            encoded[id(node)] = out
        return {"arity": self.arity, "root": encoded[id(self.root)]}

    @classmethod
    def from_json(cls, obj: dict) -> "Formula":
        """Inverse of `to_json`, at any depth; a shared dict decodes to one
        shared node.  Text parsed by the stdlib `json` module is limited to a
        few hundred levels by its parser (see `to_json`).  Raises ValueError
        when a key is missing or has the wrong type, or an input index is
        out of range."""
        arity = json_field(obj, "arity", int, "formula JSON")

        def child_specs(spec):
            if json_field(spec, "kind", str, "formula JSON") in ("sum", "product"):
                return json_field(spec, "children", list, "formula JSON")
            return ()

        decoded: dict[int, Node] = {}
        for spec in _postorder(json_field(obj, "root", dict, "formula JSON"), child_specs):
            kind = spec["kind"]
            if kind == "input":
                var = json_field(spec, "var", int, "formula JSON")
                if not 0 <= var < arity:
                    raise ValueError(f"formula JSON: input x{var + 1} outside arity {arity}")
                node = inp(var)
            elif kind == "const":
                node = const(scalar_from_json(spec.get("value")))
            elif kind == "sum":
                node = sum_node(
                    [decoded[id(c)] for c in spec["children"]],
                    [
                        scalar_from_json(w)
                        for w in json_field(spec, "weights", list, "formula JSON")
                    ],
                )
            elif kind == "product":
                node = prod_node([decoded[id(c)] for c in spec["children"]])
            else:
                raise ValueError(f"unknown node kind {kind!r}")
            decoded[id(spec)] = node
        return cls(decoded[id(obj["root"])], arity)

    def __repr__(self):
        return f"Formula(arity={self.arity}, size={self.size()}, depth={self.depth()})"


def _formula_from_flat(flat: list, arity: int) -> Formula:
    """Inverse of `Formula.__reduce__`; shared nodes stay shared."""
    nodes: list[Node] = []
    for kind, var, value, children, weights in flat:
        nodes.append(Node(kind, var, value, [nodes[i] for i in children], weights))
    return Formula(nodes[-1], arity)


def constant_formula(arity: int, value) -> Formula:
    return Formula(const(value), arity)


def variable_formula(arity: int, var: int) -> Formula:
    if not 0 <= var < arity:
        raise IndexError(f"variable index {var} out of range for arity {arity}")
    return Formula(inp(var), arity)


def formula_from_poly(p: Poly) -> Formula:
    """A dense sum-of-monomials formula computing the given polynomial."""
    if p.is_zero():
        return constant_formula(p.arity, 0)
    children = []
    weights = []
    for exps, coeff in p.sorted_terms():
        leaves = []
        for i, e in enumerate(exps):
            leaves.extend(inp(i) for _ in range(e))
        if leaves:
            children.append(prod_node(leaves) if len(leaves) > 1 else leaves[0])
        else:
            children.append(const(1))
        weights.append(coeff)
    if len(children) == 1 and weights[0] == ONE:
        return Formula(children[0], p.arity)
    return Formula(sum_node(children, weights), p.arity)


def random_formula(rng: random.Random, arity: int, max_depth: int = 4) -> Formula:
    """A small random formula; coefficients are small rationals."""

    def build(depth: int) -> Node:
        if depth <= 0 or rng.random() < 0.3:
            if rng.random() < 0.25:
                return const(rng.randint(-3, 3))
            return inp(rng.randrange(arity))
        fan = rng.randint(2, 3)
        children = [build(depth - 1) for _ in range(fan)]
        if rng.random() < 0.5:
            return sum_node(children, [rng.randint(-2, 2) or 1 for _ in children])
        return prod_node(children)

    return Formula(build(max_depth), arity)


# ---------------------------------------------------------------------------
# algebraic branching programs
# ---------------------------------------------------------------------------

class ABP:
    """A layered branching program over affine edge labels.

    `layers` is a list of node-name tuples; the first and last layer must be
    singletons (the source and the sink).  Each edge runs between consecutive
    layers and is labeled by an affine form: a constant plus a coefficient
    per variable.
    """

    __slots__ = ("arity", "layers", "edges")

    def __init__(self, arity: int, layers: Sequence[Sequence], edges: Sequence[tuple]):
        layers = tuple(tuple(layer) for layer in layers)
        if not layers or len(layers[0]) != 1 or len(layers[-1]) != 1:
            raise ValueError("ABP needs singleton source and sink layers")
        position = {}
        for li, layer in enumerate(layers):
            for name in layer:
                if name in position:
                    raise ValueError(f"duplicate node name {name!r}")
                position[name] = li
        clean = []
        for u, v, c, coeffs in edges:
            coeffs = tuple(as_scalar(x) for x in coeffs)
            if len(coeffs) != arity:
                raise ArityMismatch(f"edge {u}->{v} has {len(coeffs)} coefficients")
            if position[v] != position[u] + 1:
                raise ValueError(f"edge {u}->{v} does not join consecutive layers")
            clean.append((u, v, as_scalar(c), coeffs))
        self.arity = arity
        self.layers = layers
        self.edges = tuple(clean)

    def num_nodes(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def _label_poly(self, c, coeffs) -> Poly:
        terms = {}
        if c:
            terms[(0,) * self.arity] = c
        for i, w in enumerate(coeffs):
            if w:
                exps = tuple(1 if j == i else 0 for j in range(self.arity))
                terms[exps] = w
        return Poly(self.arity, terms)

    def expand(self, budget: int | None = None) -> Poly:
        """Sum over source-to-sink paths of the product of edge labels."""
        budget = DEFAULT_TERM_BUDGET if budget is None else budget
        outgoing: dict[object, list] = {}
        for u, v, c, coeffs in self.edges:
            outgoing.setdefault(u, []).append((v, self._label_poly(c, coeffs)))
        source = self.layers[0][0]
        sink = self.layers[-1][0]
        values: dict[object, Poly] = {source: Poly.constant(self.arity, 1)}
        for layer in self.layers[:-1]:
            next_values: dict[object, Poly] = {}
            for u in layer:
                value = values.get(u)
                if value is None or value.is_zero():
                    continue
                for v, label in outgoing.get(u, ()):
                    contribution = value * label
                    acc = next_values.get(v)
                    next_values[v] = contribution if acc is None else acc + contribution
                    if next_values[v].num_terms() > budget:
                        raise BudgetExceeded(f"ABP expansion exceeded {budget} terms")
            values = next_values
        return values.get(sink, Poly.zero(self.arity))

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "layers": [list(layer) for layer in self.layers],
            "edges": [
                {
                    "from": u,
                    "to": v,
                    "const": scalar_to_json(c),
                    "coeffs": [scalar_to_json(w) for w in coeffs],
                }
                for u, v, c, coeffs in self.edges
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ABP":
        edges = [
            (
                e["from"],
                e["to"],
                scalar_from_json(e["const"]),
                [scalar_from_json(w) for w in e["coeffs"]],
            )
            for e in obj["edges"]
        ]
        return cls(obj["arity"], obj["layers"], edges)

    def __repr__(self):
        return f"ABP(arity={self.arity}, layers={len(self.layers)}, nodes={self.num_nodes()})"


def det_abp(n: int) -> ABP:
    """A division-free ABP computing the determinant of the symbolic n x n matrix.

    Variables are row-major: entry (i, j) of the matrix is variable i*n + j
    (0-based).  The program sums signed closed-walk sequences layer by layer
    (the classical division-free dynamic program); its node count is O(n^3).

    State (l, c, h) means: l edge labels consumed so far, the currently open
    walk has minimal vertex c and sits at vertex h (h == c right after the
    walk opens).  Closing a walk contributes a factor -A[h][c]; the final
    closing edge also carries the global (-1)^n sign.
    """
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    arity = n * n

    def _state_name(l: int, c: int, h: int) -> str:
        return f"w{l}:{c},{h}"

    def label(i: int, j: int, negate: bool) -> list:
        coeffs = [ZERO] * arity
        coeffs[i * n + j] = -ONE if negate else ONE
        return coeffs

    source, sink = "s", "t"
    # the final closing edge carries (-1)^(n+1): negated exactly when n is even
    final_negate = n % 2 == 0
    if n == 1:
        return ABP(
            arity, [(source,), (sink,)], [(source, sink, ZERO, label(0, 0, final_negate))]
        )

    states: dict[int, set[tuple[int, int]]] = {l: set() for l in range(1, n)}
    edges: list[tuple] = []

    # out of the source: open the first walk at head c, consume one label
    for c in range(n):
        for v in range(c + 1, n):
            edges.append((source, _state_name(1, c, v), ZERO, label(c, v, False)))
            states[1].add((c, v))
        for c2 in range(c + 1, n):
            # length-1 walk at c (self loop), then reopen at head c2
            edges.append((source, _state_name(1, c2, c2), ZERO, label(c, c, True)))
            states[1].add((c2, c2))

    for l in range(1, n):
        for (c, h) in sorted(states[l]):
            name = _state_name(l, c, h)
            if l + 1 < n:
                for v in range(c + 1, n):
                    edges.append((name, _state_name(l + 1, c, v), ZERO, label(h, v, False)))
                    states[l + 1].add((c, v))
                for c2 in range(c + 1, n):
                    edges.append(
                        (name, _state_name(l + 1, c2, c2), ZERO, label(h, c, True))
                    )
                    states[l + 1].add((c2, c2))
            else:
                edges.append((name, sink, ZERO, label(h, c, final_negate)))

    # prune states that cannot reach the sink (e.g. a freshly opened walk at
    # the largest head with no room left to close)
    incoming: dict[object, list[object]] = {}
    for u, v, _, _ in edges:
        incoming.setdefault(v, []).append(u)
    alive = {sink}
    frontier = [sink]
    while frontier:
        node = frontier.pop()
        for u in incoming.get(node, ()):
            if u not in alive:
                alive.add(u)
                frontier.append(u)

    layers: list[tuple] = [(source,)]
    for l in range(1, n):
        layers.append(
            tuple(
                _state_name(l, c, h)
                for (c, h) in sorted(states[l])
                if _state_name(l, c, h) in alive
            )
        )
    layers.append((sink,))
    edges = [e for e in edges if e[0] in alive and e[1] in alive]
    return ABP(arity, layers, edges)
