"""Input builders and a call counter shared by the test files; the package
itself needs none of them."""

import itertools
import random

from schurkit.circuits import Formula, const, inp, prod_node, sum_node
from schurkit.poly import Poly


def random_formula(rng: random.Random, arity: int, max_depth: int = 4) -> Formula:
    """A small random formula; coefficients are small rationals."""

    def build(depth: int):
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


def symmetrize(p: Poly) -> Poly:
    """Sum of p over all variable permutations."""
    out = Poly.zero(p.arity)
    for perm in itertools.permutations(range(p.arity)):
        out = out + p.permute_vars(perm)
    return out


def counted(monkeypatch, cls, name) -> list:
    """Patch the method cls.name with a wrapper that appends each receiver
    to the returned list, then calls the original."""
    calls = []
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls
