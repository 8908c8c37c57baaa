"""In-memory span tracing for the traced benchmark run.

The wrappers live in the benchmark, not in the package: `Tracer.install`
rebinds each target below in every schurkit module (and module-level dict)
that holds it, so a name imported with ``from .x import f`` is traced as
well as the definition.  Nothing under ``src/`` changes.

Two kinds of target:

* spanned: each call records a span (name, start, end, parent span, op id).
  A layer's self time is the span's duration minus the part covered by its
  child spans.
* counted: each call only bumps a per-op counter.  These are the scalar and
  polynomial products, called up to ~10^6 times per op; a span per call
  would cost more memory than the op, and timing them would move their
  cost out of every caller's self time.  Their time stays in the enclosing
  span's self time.
"""

from __future__ import annotations

import time
from collections import Counter

#: (metric prefix, module, attribute); "Class.method" names a method
SPANNED = (
    ("field.matrix_rank", "field", "ScalarMatrix.rank"),
    ("field.matrix_inverse", "field", "ScalarMatrix.inverse"),
    ("poly.eval", "poly", "Poly.eval"),
    ("poly.compose", "poly", "Poly.compose"),
    ("poly.divide_exact", "poly", "Poly.divide_exact"),
    ("circuits.expand", "circuits", "Formula.expand"),
    ("circuits.substitute", "circuits", "Formula.substitute"),
    ("circuits.size", "circuits", "Formula.size"),
    ("circuits.depth", "circuits", "Formula.depth"),
    ("circuits.to_json", "circuits", "Formula.to_json"),
    ("circuits.from_json", "circuits", "Formula.from_json"),
    ("symmetric.schur_bialternant", "symmetric", "schur_bialternant"),
    ("symmetric.schur_jt_h", "symmetric", "schur_jt_h"),
    ("symmetric.schur_jt_e", "symmetric", "schur_jt_e"),
    ("symmetric.schur_ssyt", "symmetric", "schur_ssyt"),
    ("symmetric.det_poly_matrix", "symmetric", "det_poly_matrix"),
    ("independence.jacobian", "independence", "jacobian"),
    ("independence.jacobian_at", "independence", "jacobian_at"),
    ("independence.symbolic_rank", "independence", "symbolic_rank"),
    ("independence.is_independence_witness", "independence", "is_independence_witness"),
    ("independence.roots_of_unity_witness", "independence", "roots_of_unity_witness"),
    ("independence.h_family_witness", "independence", "h_family_witness"),
    ("independence.p_family_witness", "independence", "p_family_witness"),
    ("independence.shifted_witness", "independence", "shifted_witness"),
    ("transforms.schur_to_det_reduce", "transforms", "schur_to_det_reduce"),
    ("transforms.jacobi_trudi_formula", "transforms", "jacobi_trudi_formula"),
    ("transforms.shift_formula", "transforms", "shift_formula"),
    ("transforms.homogeneous_component_formula", "transforms", "homogeneous_component_formula"),
    ("transforms.det_poly", "transforms", "det_poly"),
    ("derivatives.pdc_dimension", "derivatives", "pdc_dimension"),
    ("derivatives.product_pdc_check", "derivatives", "product_pdc_check"),
    ("cli.main", "cli", "main"),
)

COUNTED = (
    ("field.cyclo_mul", "field", "CyclotomicScalar.__mul__"),
    ("field.cyclo_inverse", "field", "CyclotomicScalar.inverse"),
    ("poly.mul", "poly", "Poly.__mul__"),
)

#: per-op counts that are not call counts: (metric, unit)
EXTRA_COUNTS = (("circuits.expand.peak_terms", "count"), ("cli.out_bytes", "B"))

#: tracing overhead, from untraced and traced copies of the same ops
OVERHEAD = (("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"))


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {}
    for name, _, _ in SPANNED:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name, _, _ in COUNTED:
        units[f"{name}.calls"] = "count"
    units.update(EXTRA_COUNTS)
    units.update(OVERHEAD)
    return units


class Tracer:
    """Spans and per-op counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.op_counts: list[Counter] = []
        self._stack: list[int] = []
        self._counts: Counter | None = None
        self._op = -1
        self._restore: list = []

    # -- op boundaries ---------------------------------------------------

    def begin_op(self) -> int:
        self._op = len(self.op_counts)
        self._counts = Counter()
        self.op_counts.append(self._counts)
        return self._op

    def end_op(self):
        self._counts = None
        self._stack.clear()

    def note(self, op: int, name: str, value: int):
        """Add a non-call count to op `op`."""
        self.op_counts[op][name] += value

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack = self.spans, self._stack
        peak = name == "circuits.expand"

        def wrapper(*args, **kwargs):
            if self._counts is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)
            if peak:
                counts = self.op_counts[self._op]
                terms = result.num_terms()
                if terms > counts["circuits.expand.peak_terms"]:
                    counts["circuits.expand.peak_terms"] = terms
            return result

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            counts = self._counts
            if counts is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, container, key, new):
        if isinstance(container, dict):
            self._restore.append((container, key, container[key]))
            container[key] = new
        else:
            self._restore.append((container, key, vars(container)[key]))
            setattr(container, key, new)

    def install(self, modules: dict):
        """Wrap every target in `modules` (name -> module, package included).

        Raises RuntimeError if any module still holds an unwrapped target.
        """
        originals = []
        for targets, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, module, attr in targets:
                owner_name, _, method = attr.rpartition(".")
                if owner_name:
                    owner = getattr(modules[module], owner_name)
                    raw = vars(owner)[method]
                    func = raw.__func__ if isinstance(raw, classmethod) else raw
                    wrapped = make(name, func)
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(wrapped)
                    # aliases such as __rmul__ = __mul__ share the object
                    for key, value in list(vars(owner).items()):
                        if value is raw:
                            self._rebind(owner, key, wrapped)
                    originals.append(raw)
                else:
                    func = getattr(modules[module], attr)
                    wrapped = make(name, func)
                    for site, key in _binding_sites(modules, func):
                        self._rebind(site, key, wrapped)
                    originals.append(func)
        for func in originals:
            left = _binding_sites(modules, func)
            if left:
                raise RuntimeError(f"unwrapped binding left: {left[0][1]}")

    def uninstall(self):
        for container, key, old in reversed(self._restore):
            if isinstance(container, dict):
                container[key] = old
            else:
                setattr(container, key, old)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def per_op_calls(self) -> list[Counter]:
        """Call counts (spanned and counted) and extra counts, one Counter per op."""
        out = [Counter(c) for c in self.op_counts]
        for name, _, _, _, op in self.spans:
            out[op][f"{name}.calls"] += 1
        for counts in out:
            for name, _, _ in COUNTED:
                if name in counts:
                    counts[f"{name}.calls"] = counts.pop(name)
        return out

    def self_times(self) -> Counter:
        """Total self time per spanned name, derived from the span records."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[f"{name}.self_s"] += end - start - covered[i]
        return totals


def _binding_sites(modules: dict, func) -> list:
    """Every (container, key) in the modules' globals and module-level dicts
    that holds `func`."""
    sites = []
    for mod in modules.values():
        for key, value in vars(mod).items():
            if value is func:
                sites.append((mod, key))
            elif isinstance(value, dict) and not key.startswith("__"):
                sites.extend((value, k) for k, v in value.items() if v is func)
    return sites
