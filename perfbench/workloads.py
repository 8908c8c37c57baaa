"""The four benchmark workloads: their ops and the per-op correctness gates.

Each workload is a closed loop with one client.  An op is one unit of
work; `prepare` builds its inputs fresh (a `Formula` caches its own
expansion, so a reused input would time a cache hit), `run` is the timed
call into schurkit, and `check` is the correctness gate, timed apart from
the op.  The gates compare against references that do not come from the
code under test: hard-coded values, digests recorded at the seed commit,
and independent evaluation in the benchmark's own arithmetic.
"""

from __future__ import annotations

import cmath
import hashlib
import itertools
import json
import os
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

#: the 2x2 determinant z0*z3 - z1*z2, as in acceptance criterion 2
DET2 = {(1, 0, 0, 1): Fraction(1), (0, 1, 1, 0): Fraction(-1)}
#: every reduce instance raises the depth by exactly this much
DEPTH_INCREASE = 4
#: the size bound output <= C * input^2 * n, with C from acceptance criterion 2
SIZE_CONSTANT = 8
#: dimension of the derivative span of e_1 * ... * e_k on k + 1 variables
PDC_DIMENSIONS = {2: 8, 3: 47, 4: 367}


class GateFailure(Exception):
    """An op's output failed the benchmark's independent check."""


def _require(condition: bool, what: str):
    if not condition:
        raise GateFailure(what)


# ---------------------------------------------------------------------------
# independent helpers: plain Fraction / complex arithmetic and tree walks
# ---------------------------------------------------------------------------

def partitions_up_to(weight: int, max_length: int) -> list[tuple[int, ...]]:
    """Partitions of 1..weight with at most max_length parts, largest part first."""
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for first in range(min(remaining, cap), 0, -1):
            if len(prefix) < max_length:
                rec(remaining - first, first, prefix + (first,))

    for d in range(1, weight + 1):
        rec(d, d, ())
    return out


def route_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_route_digests() -> dict:
    return json.loads(REFERENCES.read_text())["routes"]


def _rational(c) -> Fraction:
    """A coefficient as a Fraction; a cyclotomic one must be rational."""
    coeffs = getattr(c, "coeffs", None)
    if coeffs is None:
        return Fraction(c)
    _require(not any(coeffs[1:]), "coefficient is not rational")
    return Fraction(coeffs[0])


def _tree_size_depth(root, children) -> tuple[int, int]:
    """Size (node occurrences) and depth (gate edges) of a shared tree."""
    memo = {}
    todo = [root]
    while todo:
        node = todo[-1]
        if id(node) in memo:
            todo.pop()
            continue
        kids = children(node)
        pending = [c for c in kids if id(c) not in memo]
        if pending:
            todo.extend(pending)
            continue
        todo.pop()
        sizes = [memo[id(c)] for c in kids]
        memo[id(node)] = (
            1 + sum(s for s, _ in sizes),
            1 + max(d for _, d in sizes) if sizes else 0,
        )
    return memo[id(root)]


def formula_size_depth(formula) -> tuple[int, int]:
    return _tree_size_depth(formula.root, lambda node: node.children)


def json_size_depth(obj: dict) -> tuple[int, int]:
    return _tree_size_depth(obj["root"], lambda spec: spec.get("children", ()))


def _family_terms(family: str, k: int, n: int) -> dict:
    """Monomials of e_k, h_k or p_k on n variables, all with coefficient 1."""
    if family == "p":
        combos = [(i,) * k for i in range(n)]
    elif family == "e":
        combos = itertools.combinations(range(n), k)
    else:
        combos = itertools.combinations_with_replacement(range(n), k)
    terms = {}
    for combo in combos:
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        terms[tuple(exps)] = Fraction(1)
    return terms


def _eval_terms(terms: dict, point, one):
    total = one * 0
    for exps, c in terms.items():
        value = one * c
        for x, e in zip(point, exps):
            if e:
                value *= x**e
        total += value
    return total


def _derivative_terms(terms: dict, var: int) -> dict:
    out = {}
    for exps, c in terms.items():
        e = exps[var]
        if e:
            out[exps[:var] + (e - 1,) + exps[var + 1 :]] = c * e
    return out


def _rank(rows: list[list], is_zero) -> int:
    """Row rank by Gaussian elimination with partial pivoting."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = max(range(rank, len(m)), key=lambda i: abs(m[i][col]), default=None)
        if pivot is None or is_zero(m[pivot][col]):
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _jacobian_rank_at(polys_terms: list[dict], point, one, is_zero) -> int:
    n = len(point)
    rows = [
        [_eval_terms(_derivative_terms(t, j), point, one) for j in range(n)]
        for t in polys_terms
    ]
    return _rank(rows, is_zero)


def _terms_of(poly) -> dict:
    return {e: _rational(c) for e, c in poly.terms.items()}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Base: a seeded op order per round, fresh inputs, a gate per op."""

    def __init__(self, mods: dict, seed: int, scratch: Path):
        self.mods = mods
        self.seed = seed
        self.scratch = scratch
        self.rng = random.Random(seed)
        self.keys = self.op_keys()

    def op_keys(self) -> list:
        raise NotImplementedError

    def round(self) -> list:
        """The ops of one round, in a seeded order."""
        keys = list(self.keys)
        self.rng.shuffle(keys)
        return keys

    def prepare(self, key):
        return key

    def run(self, key, inputs, phases: dict):
        raise NotImplementedError

    def check(self, key, inputs, output):
        raise NotImplementedError

    def release(self, key, inputs) -> dict:
        """Drop per-op files once checked; return per-op counts to note."""
        return {}

    def warm_up(self):
        raise NotImplementedError


class ReduceLarge(Workload):
    """schur_to_det_reduce((6,3), 8) and the output expansion check, as
    library calls with no serialization."""

    LAM, N = (6, 3), 8

    def op_keys(self):
        return [(self.LAM, self.N)]

    def _reduce(self, lam, n, phases):
        transforms, partitions = self.mods["transforms"], self.mods["partitions"]
        t0 = time.perf_counter()
        output, report = transforms.schur_to_det_reduce(partitions.Partition(lam), n)
        t1 = time.perf_counter()
        verified = output.expand() == transforms.det_poly(len(lam))
        t2 = time.perf_counter()
        phases["build_s"] = t1 - t0
        phases["verify_s"] = t2 - t1
        return output, report, verified

    def run(self, key, inputs, phases):
        return self._reduce(*key, phases)

    def check(self, key, inputs, output):
        lam, n = key
        formula, report, verified = output
        _require(verified is True, "output expansion differs from det_poly")
        expanded = {e: _rational(c) for e, c in formula.expand().terms.items()}
        _require(expanded == DET2, "output does not expand to z0*z3 - z1*z2")
        source = self.mods["transforms"].jacobi_trudi_formula(
            self.mods["partitions"].Partition(lam), n
        )
        in_size, in_depth = formula_size_depth(source)
        out_size, out_depth = formula_size_depth(formula)
        _require(out_depth - in_depth == DEPTH_INCREASE, f"depth increase {out_depth - in_depth}")
        _require(report.depth_increase() == DEPTH_INCREASE, "report depth increase")
        _require((report.input_size, report.output_size) == (in_size, out_size), "report sizes")
        _require(out_size <= SIZE_CONSTANT * in_size**2 * n, "size bound violated")

    def warm_up(self):
        # an l = 1 instance: same passes, far smaller, reduces to det_1
        _, _, verified = self._reduce((2,), 3, {})
        _require(verified is True, "warm-up output expansion differs from det_poly")


class ReduceCli(Workload):
    """`schurkit reduce` in-process on (3,2)/5 and (4,2)/6; one op runs both,
    in a seeded order, with --out and --report-out in a scratch directory."""

    INSTANCES = (("3,2", 5), ("4,2", 6))
    ROUND_TRIP = "3,2"

    def op_keys(self):
        return ["pair"]

    def prepare(self, key):
        order = list(self.INSTANCES)
        self.rng.shuffle(order)
        return [
            (lam, n, self.scratch / f"out-{lam}.json", self.scratch / f"report-{lam}.json")
            for lam, n in order
        ]

    @contextmanager
    def _phase_probe(self, marks: dict):
        """Time schur_to_det_reduce and the expansion check inside cli.main."""
        cli = self.mods["cli"]
        reduce_fn, det_fn = cli.schur_to_det_reduce, cli.det_poly

        def reduce_probe(*args, **kwargs):
            marks["start"] = time.perf_counter()
            try:
                return reduce_fn(*args, **kwargs)
            finally:
                marks["built"] = time.perf_counter()

        def det_probe(*args, **kwargs):
            try:
                return det_fn(*args, **kwargs)
            finally:
                marks["verified"] = time.perf_counter()

        cli.schur_to_det_reduce, cli.det_poly = reduce_probe, det_probe
        try:
            yield
        finally:
            cli.schur_to_det_reduce, cli.det_poly = reduce_fn, det_fn

    def _call(self, lam, n, out, report):
        argv = ["reduce", "--lambda", lam, "--n", str(n), "--out", str(out),
                "--report-out", str(report)]
        return self.mods["cli"].main(argv)

    def run(self, key, inputs, phases):
        codes = []
        build = verify = 0.0
        for lam, n, out, report in inputs:
            marks = {}
            with self._phase_probe(marks):
                codes.append(self._call(lam, n, out, report))
            if "verified" in marks:
                build += marks["built"] - marks["start"]
                verify += marks["verified"] - marks["built"]
        phases["build_s"] = build
        phases["verify_s"] = verify
        return codes

    def _check_one(self, lam, n, out, report_path, code):
        _require(code == 0, f"exit code {code} on ({lam})/{n}")
        report = json.loads(report_path.read_text())
        _require(report["verified_against_determinant"] is True, "not verified")
        sizes = report["input"]["size"], report["output"]["size"]
        depths = report["input"]["depth"], report["output"]["depth"]
        _require(depths[1] - depths[0] == DEPTH_INCREASE, "depth increase")
        _require(report["depth_increase"] == DEPTH_INCREASE, "reported depth increase")
        _require(sizes[1] <= SIZE_CONSTANT * sizes[0] ** 2 * n, "size bound violated")
        _require(report["size_bound"]["satisfied"] is True, "size bound not satisfied")
        if lam == self.ROUND_TRIP:
            obj = json.loads(out.read_text())
            _require(json_size_depth(obj) == (sizes[1], depths[1]), "--out tree vs report")
            formula = self.mods["circuits"].Formula.from_json(obj)
            _require(formula.arity == 4, "round-tripped arity")
            _require(formula.to_json() == obj, "--out JSON does not round-trip")

    def check(self, key, inputs, output):
        for (lam, n, out, report), code in zip(inputs, output):
            self._check_one(lam, n, out, report, code)

    def release(self, key, inputs):
        out_bytes = 0
        for _, _, out, report in inputs:
            if out.exists():
                out_bytes += out.stat().st_size
            for path in (out, report):
                if path.exists():
                    os.unlink(path)
        return {"cli.out_bytes": out_bytes}

    def warm_up(self):
        inputs = [("2", 3, self.scratch / "out-warm.json", self.scratch / "report-warm.json")]
        codes = [self._call(*inputs[0])]
        self._check_one(*inputs[0], codes[0])
        self.release(None, inputs)


class Routes(Workload):
    """All four Schur routes on every partition of weight <= 7, n = 5."""

    N = 5
    ROUTES = ("schur_bialternant", "schur_jt_h", "schur_jt_e", "schur_ssyt")

    def __init__(self, mods, seed, scratch):
        super().__init__(mods, seed, scratch)
        self.digests = load_route_digests()

    def op_keys(self):
        return partitions_up_to(7, self.N)

    def run(self, key, inputs, phases):
        symmetric = self.mods["symmetric"]
        lam = self.mods["partitions"].Partition(key)
        results = [getattr(symmetric, name)(lam, self.N) for name in self.ROUTES]
        agree = all(p == results[0] for p in results)
        return results, agree

    def check(self, key, inputs, output):
        results, agree = output
        _require(agree is True, "routes disagree")
        want = self.digests[",".join(map(str, key))]
        for name, poly in zip(self.ROUTES, results):
            _require(route_digest(poly.to_text()) == want, f"{name} digest on {key}")

    def warm_up(self):
        self.check((2, 1), None, self.run((2, 1), None, {}))


class Independence(Workload):
    """Root-of-unity witnesses for e/h/p, shifted e-family witnesses, and
    the product partial-derivative checks.  One op runs every item at one
    n: the e/h/p witnesses for n, the shifted witness for n in 3..6, and the
    pdc check of e_1..e_k on n = k + 1 variables for k in 2..4.  Per-item
    ops would put the median between two item kinds whose costs differ by
    ~40 %, so it would jump with noise and with the seed."""

    FAMILIES = {"e": "roots_of_unity_witness", "h": "h_family_witness", "p": "p_family_witness"}

    def op_keys(self):
        return list(range(2, 9))

    @staticmethod
    def _items(n):
        items = [(family, n) for family in "ehp"]
        if 3 <= n <= 6:
            items.append(("shifted", n))
        if 3 <= n <= 5:
            items.append(("pdc", n - 1))
        return items

    def prepare(self, key):
        return [(item, self._prepare_item(item)) for item in self._items(key)]

    def run(self, key, inputs, phases):
        return [self._run_item(item, item_inputs) for item, item_inputs in inputs]

    def check(self, key, inputs, output):
        for (item, item_inputs), item_output in zip(inputs, output):
            self._check_item(item, item_inputs, item_output)

    def warm_up(self):
        inputs = self.prepare(3)
        self.check(3, inputs, self.run(3, inputs, {}))

    def _prepare_item(self, item):
        kind, n = item
        symmetric = self.mods["symmetric"]
        if kind == "shifted":
            return [symmetric.e_poly(k, n) for k in range(1, n + 1)]
        if kind == "pdc":
            polys = [symmetric.e_poly(j, n + 1) for j in range(1, n + 1)]
            point = self.mods["independence"].roots_of_unity_point(n + 1)
            return polys, point
        return None

    def _run_item(self, item, inputs):
        kind, n = item
        independence = self.mods["independence"]
        if kind == "shifted":
            shifts, point = independence.shifted_witness(inputs, seed=self.seed)
            poly_cls = self.mods["poly"].Poly
            shifted = [q - poly_cls.constant(n, a) for q, a in zip(inputs, shifts)]
            ok = independence.is_independence_witness(shifted, point, seed=self.seed)
            return shifted, point, ok
        if kind == "pdc":
            return self.mods["derivatives"].product_pdc_check(*inputs)
        return getattr(independence, self.FAMILIES[kind])(n)

    def _check_item(self, item, inputs, output):
        kind, n = item
        if kind == "shifted":
            shifted, point, ok = output
            _require(ok is True, "shifted witness rejected by the package")
            point = [Fraction(x) for x in point]
            terms = [_terms_of(q) for q in shifted]
            for q, t in zip(inputs, terms):
                base = _terms_of(q)
                _require({e: c for e, c in t.items() if any(e)} == base, "shift changed q")
            _require(all(_eval_terms(t, point, Fraction(1)) == 0 for t in terms), "residual")
            rank = _jacobian_rank_at(terms, point, Fraction(1), lambda x: x == 0)
            _require(rank == n, f"shifted Jacobian rank {rank} != {n}")
        elif kind == "pdc":
            _require(output.dimension == PDC_DIMENSIONS[n], f"pdc dimension {output.dimension}")
            _require(output.bound == 2**n and output.passed is True, "pdc bound")
        else:
            self._check_root_of_unity(kind, n, output)

    @staticmethod
    def _check_root_of_unity(family, n, witness):
        """Residuals 0 and Jacobian rank n - 1, in complex floating point."""
        _require(witness.rank == n - 1, f"reported rank {witness.rank}")
        w = cmath.exp(2j * cmath.pi / n)
        point = [
            sum(complex(_rational(c)) * w**k for k, c in enumerate(x.coeffs))
            for x in witness.point
        ]
        _require(all(abs(z**n - 1) < 1e-9 for z in point), "point is not n-th roots of 1")
        _require(
            all(abs(a - b) > 1e-6 for a, b in itertools.combinations(point, 2)),
            "point coordinates repeat",
        )
        terms = [_family_terms(family, k, n) for k in range(1, n)]
        _require([_terms_of(q) for q in witness.polys] == terms, f"{family} family terms")
        for t in terms:
            _require(abs(_eval_terms(t, point, 1 + 0j)) < 1e-9 * len(t), "residual")
        rank = _jacobian_rank_at(terms, point, 1 + 0j, lambda x: abs(x) < 1e-9)
        _require(rank == n - 1, f"Jacobian rank {rank} != {n - 1}")



WORKLOADS = {
    "reduce-cli": ReduceCli,
    "reduce-large": ReduceLarge,
    "routes": Routes,
    "independence": Independence,
}
