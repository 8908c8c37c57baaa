"""Arithmetic intermediate representation: formulas (trees) and ABPs.

Formulas are trees of sum/product gates over input and constant leaves; sum
gates carry one scalar edge weight per child.  Node objects are immutable and
may be physically shared between trees; sharing is purely an implementation
economy, the semantics (and the size/depth metrics) always count occurrences,
i.e. treat the structure as a tree.

Every metric, evaluation, rewrite and serialization of a formula is one
`fold` over its distinct nodes in `postorder`: a visit function computes a
node's value from its children's, once per distinct node, without
recursion.  Degree, evaluation and expansion walk the live children only
(`_live_children`: zero-weight edges are skipped); the others walk all.

Full symbolic expansion to a `Poly` is the brute-force oracle that every
transformation pass in this package is checked against, so it is guarded by a
term budget that counts monomials.  It runs in the packed integer form of
the `Poly` product kernel, which `poly` owns (`field` owns only its scalar
side): each leaf is encoded once (`poly.packed_encode`), every product gate
calls the kernel that `Poly.__mul__` calls (`poly.packed_product`), sum
gates add integer numerators, and only the root is decoded into a `Poly`
(`poly.packed_decode`).  This module names a key width and a field order,
never the key layout.

An ABP is a layered graph with one source and one sink whose edges carry
affine labels; it computes the sum over source-to-sink paths of the product
of the labels.  It is expanded by the formula oracle, on the formula DAG
with a sum gate per node and a product gate per edge.
"""

from __future__ import annotations

import json
from itertools import compress
from typing import Iterator, Mapping, Sequence

from .errors import ArityMismatch, BudgetExceeded, LengthMismatch
from .field import (
    ONE,
    ZERO,
    CyclotomicScalar,
    as_scalar,
    common_order,
    json_field,
    scalar_from_json,
    scalar_to_json,
)
from .poly import Poly, content_free, packed_decode, packed_encode, packed_monomials, packed_product, packed_sum

DEFAULT_TERM_BUDGET = 500_000

#: the longest level-0 text, in characters, that a node is kept as one
#: string for, and that its parents join into their own fragments; on the
#: reduce outputs a shorter bound emits more pieces and a longer one copies
#: more, and 2048..8192 wrote fastest
_SHORT_TEXT = 4096


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
        """A flat encoding, so that pickle and deepcopy do not recurse once
        per level: the distinct nodes in post-order, each naming its
        children by their index in that list."""
        flat = []

        def visit(n, below):
            flat.append((n.kind, n.var, n.value, tuple(below), n.weights))
            return len(flat) - 1

        fold(postorder(self), visit)
        return _node_from_flat, (flat,)


def _node_from_flat(flat: list) -> Node:
    """Inverse of `Node.__reduce__`; shared nodes stay shared."""
    nodes: list[Node] = []
    for kind, var, value, children, weights in flat:
        nodes.append(Node(kind, var, value, [nodes[i] for i in children], weights))
    return nodes[-1]


def postorder(root, children=lambda node: node.children) -> list:
    """Every distinct object reachable from `root`, children before parents.

    Objects are told apart by identity, so a shared subtree appears once.
    The walk keeps an explicit stack, so depth is limited by memory rather
    than by the interpreter's recursion limit.
    """
    order = []
    seen = {id(root)}
    stack = [(root, iter(children(root)))]
    while stack:
        item, pending = stack[-1]
        for c in pending:
            if id(c) not in seen:
                seen.add(id(c))
                stack.append((c, iter(children(c))))
                break
        else:
            stack.pop()
            order.append(item)
    return order


def fold(nodes: list, visit, children=lambda node: node.children):
    """The value of the root of `nodes`, a list `postorder(root, children)`
    (whose last node is the root).

    `visit(node, below)` gives a node's value from `below`, the list of
    the values of `children(node)`, in order.  It is called once per
    distinct node, children first, so a shared subtree is computed once
    however often it occurs.
    """
    values = {}
    for node in nodes:
        values[id(node)] = visit(node, [values[id(c)] for c in children(node)])
    return values[id(nodes[-1])]


def _live_children(node: Node):
    """The children that can affect the value: zero-weight edges are skipped."""
    if node.kind == "sum":
        return list(compress(node.children, node.weights))
    return node.children


def size_depth(node: Node, below: list) -> tuple[int, int]:
    """The `fold` visit giving `Formula.size` and `Formula.depth` of a
    node from the (size, depth) pairs of all its children."""
    size, depth = 1, -1
    for child_size, child_depth in below:
        size += child_size
        depth = max(depth, child_depth)
    return size, depth + 1


def _degree(node: Node, below: list) -> int:
    """The `fold` visit of `Formula.degree`, over the live children."""
    if node.kind == "input":
        return 1
    if node.kind == "sum":
        return max(below, default=0)
    return sum(below)  # a product, or a constant with no children


def _json_fields(node: Node) -> dict:
    """A node's fields in the JSON format of `Formula.to_json`, all but
    the "children" of a gate."""
    if node.kind == "input":
        return {"kind": "input", "var": node.var}
    if node.kind == "const":
        return {"kind": "const", "value": scalar_to_json(node.value)}
    out = {"kind": node.kind}
    if node.kind == "sum":
        out["weights"] = [scalar_to_json(w) for w in node.weights]
    return out


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
        return Formula, (self.root, self.arity)

    # -- metrics -----------------------------------------------------------

    def size(self) -> int:
        """Total node count, leaves included; edge weights are free."""
        return fold(postorder(self.root), lambda node, sizes: 1 + sum(sizes))

    def depth(self) -> int:
        """Longest root-to-leaf path counted in gate edges (a leaf has depth 0)."""
        return fold(postorder(self.root), lambda node, depths: 1 + max(depths, default=-1))

    def degree(self) -> int:
        """An upper bound on the total degree, read off the structure: an
        input has degree 1 and a constant 0, a sum gate the largest degree
        of its live children and a product gate the sum of its children's."""
        return fold(postorder(self.root, _live_children), _degree, _live_children)

    # -- semantics -----------------------------------------------------------

    def eval(self, point: Sequence):
        """Exact evaluation at `point`, in the domain of its coordinates and
        the formula's scalars."""
        if len(point) != self.arity:
            raise ArityMismatch(f"point length {len(point)} vs arity {self.arity}")
        point = [as_scalar(p) for p in point]

        def visit(node, below):
            if node.kind == "input":
                return point[node.var]
            if node.kind == "const":
                return node.value
            if node.kind == "sum":
                value = ZERO
                for w, v in zip(filter(None, node.weights), below):
                    value = value + w * v
                return value
            value = ONE
            for v in below:
                value = value * v
            return value

        return fold(postorder(self.root, _live_children), visit, _live_children)

    def expand(self, budget: int | None = None) -> Poly:
        """Full symbolic expansion (the brute-force oracle): `expand_nodes`
        on the root.  Nothing is cached: each call expands afresh under its
        own budget."""
        return expand_nodes([self.root], self.arity, budget)[0]

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

        def visit(node, below):
            if node.kind in ("sum", "product"):
                return Node(node.kind, children=below, weights=node.weights)
            if node.kind == "input" and node.var in roots:
                return roots[node.var]
            if node.kind == "input" and node.var >= arity:
                raise ArityMismatch(
                    f"unmapped input x{node.var + 1} exceeds target arity {arity}"
                )
            return node

        return Formula(fold(postorder(self.root), visit), arity)

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
        """The formula as nested dicts, for a JSON writer.

        A shared subtree becomes one shared dict, so the result is as small as
        the node graph; the JSON text still spells out the whole tree.
        `json_pieces` writes that text from the nodes, at any depth.  Only
        the stdlib parser limits depth: it cannot read back text a few
        hundred levels deep, and the CLI reports such a file as bad input.
        The dicts themselves round-trip through `from_json` at any depth.
        """

        def visit(node, below):
            out = _json_fields(node)
            if node.kind in ("sum", "product"):
                out["children"] = below
            return out

        return {"arity": self.arity, "root": fold(postorder(self.root), visit)}

    def json_pieces(self) -> Iterator[str]:
        """The text of `json.dumps(self.to_json(), indent=2, sort_keys=True)`,
        in pieces, written from the nodes.

        A JSON string holds no raw newline, so a node's text at nesting
        level L is its level-0 text with each "\n" followed by 2L more
        spaces.  Each distinct node is built once, children before parents,
        as a rope (Boehm, Atkinson and Plass 1995): the level-0 fragments of
        its own text, with the ropes of its children between them.  A node
        whose text is one fragment of at most `_SHORT_TEXT` characters is
        kept as that string instead, and its parents join it into their
        fragments, so building copies a few short strings per edge between
        distinct nodes, however large the tree.  The pieces are the
        fragments, each re-indented as an explicit stack of ropes emits it:
        a child sits two levels below its gate, inside "children", and the
        root one level below the document.  So each byte of the output is
        copied at most once before the write, memory holds the distinct
        nodes' fragments, not the output, and nothing recurses.
        """

        def visit(node, below):
            fields = json.dumps(_json_fields(node), indent=2, sort_keys=True)
            if node.kind in ("input", "const"):
                return fields
            # "children" sorts before the other keys, so it opens the text
            rope = []
            fragment = ['{\n  "children": [']
            separator = "\n    "
            for part in below:
                fragment.append(separator)
                separator = ",\n    "
                if isinstance(part, str):
                    fragment.append(part.replace("\n", "\n    "))
                else:
                    rope += ["".join(fragment), part]
                    fragment = []
            fragment.append(("\n  ]," if below else "],") + fields[1:])
            text = "".join(fragment)
            return text if not rope and len(text) <= _SHORT_TEXT else rope + [text]

        top = fold(postorder(self.root), visit)
        yield '{\n  "arity": ' + json.dumps(self.arity) + ',\n  "root": '
        stack = [(iter([top] if isinstance(top, str) else top), "\n  ")]
        while stack:
            items, indent = stack[-1]
            for item in items:
                if isinstance(item, str):
                    yield item.replace("\n", indent)
                else:
                    stack.append((iter(item), indent + "    "))
                    break
            else:
                stack.pop()
        yield "\n}"

    @classmethod
    def from_json(cls, obj: dict, max_order: int | None = None) -> "Formula":
        """Inverse of `to_json`, at any depth; a shared dict decodes to one
        shared node.  Text parsed by the stdlib `json` module is limited to a
        few hundred levels by its parser (see `to_json`).  Raises ValueError
        when a key is missing or has the wrong type, an input index is out
        of range, or a scalar's cyclotomic order is above `max_order`."""
        arity = json_field(obj, "arity", int, "formula JSON")

        def child_specs(spec):
            if json_field(spec, "kind", str, "formula JSON") in ("sum", "product"):
                return json_field(spec, "children", list, "formula JSON")
            return ()

        def visit(spec, below):
            kind = spec["kind"]
            if kind == "input":
                var = json_field(spec, "var", int, "formula JSON")
                if not 0 <= var < arity:
                    raise ValueError(f"formula JSON: input x{var + 1} outside arity {arity}")
                return inp(var)
            if kind == "const":
                return const(scalar_from_json(spec.get("value"), max_order))
            if kind == "sum":
                weights = json_field(spec, "weights", list, "formula JSON")
                return sum_node(below, [scalar_from_json(w, max_order) for w in weights])
            if kind == "product":
                return prod_node(below)
            raise ValueError(f"unknown node kind {kind!r}")

        root = json_field(obj, "root", dict, "formula JSON")
        return cls(fold(postorder(root, child_specs), visit, child_specs), arity)

    def __repr__(self):
        size, depth = fold(postorder(self.root), size_depth)
        return f"Formula(arity={self.arity}, size={size}, depth={depth})"


def expand_nodes(roots: Sequence[Node], arity: int, budget: int | None = None) -> list[Poly]:
    """The expansions of the nodes `roots`, in one walk of their distinct
    descendants, so a subtree they share is expanded once.

    Guarded by a term budget: the value of every sum gate and every
    partial product of a product gate may have at most `budget` monomials.

    The coefficient domain is fixed by the live scalars, the constants and
    non-zero edge weights reachable from the roots through non-zero edges.
    With no live cyclotomic scalar every coefficient is a `Rat`; otherwise
    every coefficient is a `CyclotomicScalar` of that one order, as in
    `Poly.__mul__`, and two live orders raise DomainMismatch.

    The roots are the children of one top product gate, whose value is
    the list of theirs.  Two folds over its live node list give the degree
    bound of `Formula.degree`, whose bit length is the one key width for
    every node (no live node's degree exceeds the top's bound), and the
    values.  A node's value is a packed operand as a dict, over one
    denominator.  A product gate runs `packed_product`; a sum gate adds
    the weight-scaled numerators of all its children over the lcm of their
    denominators (`poly.packed_sum`).  Each gate's value has its zeros
    dropped and one gcd divided out; only the roots are decoded into
    scalars.
    """
    budget = DEFAULT_TERM_BUDGET if budget is None else budget
    top = prod_node(roots)
    nodes = postorder(top, _live_children)
    width = max(1, fold(nodes, _degree, _live_children)).bit_length()
    order = common_order(
        [n.value for n in nodes if n.kind == "const"],
        [w for n in nodes if n.kind == "sum" for w in n.weights if w],
    )

    def over_budget(d: dict) -> bool:
        # entries bound monomials from above, so most gates skip the count
        return len(d) > budget and packed_monomials(d, order) > budget

    def visit(node, below):
        if node is top:
            return below
        if node.kind == "input":
            nums, den = packed_encode(Poly.variable(arity, node.var), width, order)
            return dict(nums), den
        if node.kind == "const":
            nums, den = packed_encode(Poly.constant(arity, node.value), width, order)
            return dict(nums), den
        if node.kind == "sum":
            parts = []  # (numerators, integer factor, denominator)
            for w, (child, den) in zip(filter(None, node.weights), below):
                if isinstance(w, CyclotomicScalar):
                    nums, wden = packed_encode(Poly.constant(arity, w), width, order)
                    child = packed_product(child.items(), nums, order)
                    parts.append((child, 1, den * wden))
                else:
                    parts.append((child, w.numerator, den * w.denominator))
            value = packed_sum(parts)
            if over_budget(value[0]):
                raise BudgetExceeded(
                    f"expansion exceeded {budget} terms at a sum gate"
                )
            return value
        if not below:
            return {0: 1}, 1
        if not all(d for d, _ in below):
            return {}, 1
        # smallest first; with two factors the order changes no
        # intermediate, so the count is skipped
        if len(below) > 2:
            below.sort(key=lambda f: packed_monomials(f[0], order))
        acc, den = below[0]
        for d, fden in below[1:]:
            acc = packed_product(acc.items(), d.items(), order)
            den *= fden
            if over_budget(acc):
                raise BudgetExceeded(
                    f"expansion exceeded {budget} terms at a product gate"
                )
        return content_free(acc, den)

    return [packed_decode(acc, den, arity, width, order) for acc, den in fold(nodes, visit, _live_children)]


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
            for end in (u, v):
                if end not in position:
                    raise ValueError(f"edge {u}->{v} names node {end!r}, which is in no layer")
            if position[v] != position[u] + 1:
                raise ValueError(f"edge {u}->{v} does not join consecutive layers")
            clean.append((u, v, as_scalar(c), coeffs))
        self.arity = arity
        self.layers = layers
        self.edges = tuple(clean)

    def num_nodes(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def expand(self, budget: int | None = None) -> Poly:
        """Sum over source-to-sink paths of the product of edge labels.

        The program is expanded by `Formula.expand` on the same DAG: the
        source is the constant 1, every other node a sum gate over its
        incoming edges, and each edge a product gate of its affine label (a
        sum gate over const(1) and the inputs, weighted by the edge's
        constant and coefficients) and the gate of its tail.  So `budget`
        means what it means for formulas: it bounds the monomials of every
        sum gate and every partial product.
        """
        incoming: dict[object, list] = {}
        for u, v, c, coeffs in self.edges:
            incoming.setdefault(v, []).append((u, c, coeffs))
        leaves = [const(1)] + [inp(i) for i in range(self.arity)]
        gates = {self.layers[0][0]: const(1)}
        for layer in self.layers[1:]:
            for v in layer:
                gates[v] = sum_node(
                    prod_node([sum_node(leaves, (c, *coeffs)), gates[u]])
                    for u, c, coeffs in incoming.get(v, ())
                )
        return Formula(gates[self.layers[-1][0]], self.arity).expand(budget)

    def __repr__(self):
        return f"ABP(arity={self.arity}, layers={len(self.layers)}, nodes={self.num_nodes()})"


def det_abp(n: int) -> ABP:
    """A division-free ABP computing the determinant of the symbolic n x n matrix.

    Variables are row-major: entry (i, j) of the matrix is variable i*n + j
    (0-based).  The program sums signed closed-walk sequences layer by layer
    (the classical division-free dynamic program); its node count is O(n^3).

    State (l, c, h) means: l edge labels consumed so far, the currently open
    walk has minimal vertex c and sits at vertex h (h == c right after the
    walk opens).  The source is the layer-0 state (0, c, c) for every head c,
    so one edge rule builds every layer.  Closing a walk contributes a factor
    -A[h][c]; the final closing edge also carries the global (-1)^n sign.

    Only live states are built: a walk may reopen at head n-1 only when the
    next layer is the last one.  A walk opened at head n-1 has no vertex above
    its head to move to, so it can only close, and it can close only on the
    last layer.  So every node but the sink has an outgoing edge.
    """
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    arity = n * n

    def label(i: int, j: int, negate: bool) -> list:
        coeffs = [ZERO] * arity
        coeffs[i * n + j] = -ONE if negate else ONE
        return coeffs

    tails = [("s", c, c) for c in range(n)]
    layers: list[tuple] = [("s",)]
    edges: list[tuple] = []
    for l in range(1, n):
        top_head = n if l == n - 1 else n - 1
        states: set[tuple[int, int]] = set()
        for tail, c, h in tails:
            for v in range(c + 1, n):
                edges.append((tail, f"w{l}:{c},{v}", ZERO, label(h, v, False)))
                states.add((c, v))
            for c2 in range(c + 1, top_head):
                edges.append((tail, f"w{l}:{c2},{c2}", ZERO, label(h, c, True)))
                states.add((c2, c2))
        tails = [(f"w{l}:{c},{h}", c, h) for c, h in sorted(states)]
        layers.append(tuple(name for name, _, _ in tails))
    # the final closing edge carries (-1)^(n+1): negated exactly when n is even
    edges += [(tail, "t", ZERO, label(h, c, n % 2 == 0)) for tail, c, h in tails]
    layers.append(("t",))
    return ABP(arity, layers, edges)
