"""Command-line surface: schur, reduce, witness, pdc, convert.

Outputs are deterministic for a fixed command line and seed, files are
written atomically, and the exit code is 0 only when every internal
verification passed: 1 for route disagreement or bad input (a usage error
included, such as a flag the chosen mode does not read, a skew shape given
to `reduce`, a negative `--budget`, a number too large for the interpreter's
index type, or an input file nested too deeply for the stdlib JSON parser),
2 when a partition fails the reduction hypothesis, 3 when a verification
fails (`VerificationFailed`, `InvalidWitness`, `ReductionMismatch`,
`GridExhausted`, `NoNonvanishingPoint`, `NotDivisible`), 4 when a term
budget is exceeded.
Every subcommand takes `--out`; only `witness` takes `--seed`, and only
`reduce` and `pdc` take `--budget`.

Every JSON output is the text of `json.dumps(obj, indent=2, sort_keys=True)`
plus a newline, streamed by `_json_pieces`: it does not recurse, and it
renders each shared container of the payload once, not once per occurrence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from collections import Counter
from typing import Iterable, Iterator

from .circuits import Formula, _postorder
from .errors import (
    BudgetExceeded,
    DomainMismatch,
    GridExhausted,
    InvalidWitness,
    NoNonvanishingPoint,
    NotDivisible,
    NotReducible,
    ReductionMismatch,
    VerificationFailed,
)
from .field import scalar_to_json, scalar_to_text
from .independence import (
    h_family_witness,
    p_family_witness,
    roots_of_unity_witness,
    shifted_witness,
    witness_jacobian,
)
from .derivatives import pdc_dimension
from .partitions import Partition
from .poly import Poly, poly_from_text
from .symmetric import (
    e_in_h_basis,
    e_in_p_basis,
    e_poly,
    express_in_e_basis,
    schur_bialternant,
    schur_jt_e,
    schur_jt_h,
    schur_ssyt,
    skew_schur_h,
)
# det_poly stays bound here: the reduce-cli benchmark probe wraps cli.det_poly
from .transforms import det_poly, schur_to_det_reduce  # noqa: F401


def _write_output(path: str | None, pieces: Iterable[str]):
    """Write the concatenated `pieces` and a newline to stdout or atomically
    to the file `path`."""
    if path is None:
        sys.stdout.writelines(pieces)
        sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-schurkit-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(pieces)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_CONTAINERS = (dict, list, tuple)


def _json_children(value) -> list:
    """The containers directly inside a JSON container."""
    items = value.values() if isinstance(value, dict) else value
    return [v for v in items if isinstance(v, _CONTAINERS)]


def _json_key(key) -> str:
    """A dict key as `json.dumps` writes it: a str, int, float, bool or None
    key becomes a JSON string."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = json.dumps(key)
    return json.dumps(key)


def _json_pieces(obj) -> Iterator[str]:
    """The text of `json.dumps(obj, indent=2, sort_keys=True)`, in pieces.

    A JSON string holds no raw newline, so a container's text at nesting
    level L is its level-0 text with each "\n" followed by 2L more spaces.
    Containers (dicts, lists and tuples) are told apart by identity.  One
    that occurs once in the tree, as the root and its unshared descendants
    do, is walked and yielded piece by piece.  Every other one is rendered
    once at level 0, children before parents, and each occurrence
    re-indents that text with one `str.replace`; the text is dropped once
    its last parent has used it.  So a formula that is small as a graph but
    large as a tree costs a few passes over its text, not one per level of
    sharing.  Nothing recurses, so depth is limited only by memory.
    """
    if not isinstance(obj, _CONTAINERS):
        yield json.dumps(obj)
        return
    order = _postorder(obj, _json_children)
    uses = Counter(id(c) for node in order for c in _json_children(node))
    if uses[id(obj)]:
        raise ValueError("Circular reference detected")
    walked = {id(obj)}
    for node in reversed(order):
        if id(node) in walked:
            walked.update(id(c) for c in _json_children(node) if uses[id(c)] == 1)
    texts: dict[int, str] = {}

    def rendered(value, indent: str) -> str:
        """A scalar, or the text of a rendered container at `indent` (a
        newline and the spaces of its level)."""
        if not isinstance(value, _CONTAINERS):
            return json.dumps(value)
        key = id(value)
        if key not in texts:
            raise ValueError("Circular reference detected")
        text = texts[key]
        uses[key] -= 1
        if not uses[key]:
            del texts[key]
        return text.replace("\n", indent)

    def container(node, indent: str):
        """The pieces of `node` at `indent`; a walked child is yielded as
        (child, its indent) for the caller to descend into."""
        opening, closing = "{}" if isinstance(node, dict) else "[]"
        if not node:
            yield opening + closing
            return
        if isinstance(node, dict):
            entries = [(_json_key(k) + ": ", v) for k, v in sorted(node.items())]
        else:
            entries = [("", v) for v in node]
        inner = indent + "  "
        separator = opening + inner
        for prefix, value in entries:
            yield separator + prefix
            if isinstance(value, _CONTAINERS) and id(value) in walked:
                yield value, inner
            else:
                yield rendered(value, inner)
            separator = "," + inner
        yield indent + closing

    def walk(top) -> Iterator[str]:
        stack = [container(top, "\n")]
        while stack:
            for piece in stack[-1]:
                if isinstance(piece, str):
                    yield piece
                else:
                    stack.append(container(*piece))
                    break
            else:
                stack.pop()

    for node in order:
        if id(node) not in walked:
            texts[id(node)] = "".join(walk(node))
    yield from walk(obj)


def _load_json(path: str):
    """The JSON document in the file `path`.  Raises ValueError, not
    RecursionError, when it is nested too deeply for the stdlib parser."""
    with open(path) as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: nested too deeply for the JSON parser") from None


def _read_poly(path: str) -> Poly:
    """A polynomial file, in the JSON shape of `Poly.to_json` or as text."""
    try:
        return Poly.from_json(_load_json(path))
    except json.JSONDecodeError as exc:
        return poly_from_text(exc.doc)


def _parse_partition(text: str) -> tuple[Partition, Partition | None]:
    """Parse "3,2,1" or the skew form "5,3/1"."""
    if "/" in text:
        outer, inner = text.split("/", 1)
        return Partition.parse(outer), Partition.parse(inner)
    return Partition.parse(text), None


ROUTES = {
    "bialternant": schur_bialternant,
    "jt-h": schur_jt_h,
    "jt-e": schur_jt_e,
    "ssyt": schur_ssyt,
}


def _cmd_schur(args) -> int:
    lam, mu = _parse_partition(args.lam)
    if args.mu:
        if mu is not None:
            raise ValueError("give the inner partition inline in --lambda or with --mu, not both")
        mu = Partition.parse(args.mu)
    n = args.n
    if mu is not None:
        if args.route is not None:
            raise ValueError("--route applies to straight shapes only; a skew shape uses its h-determinant")
        result = skew_schur_h(lam, mu, n)
        payload = {
            "lambda": str(lam),
            "mu": str(mu),
            "n": n,
            "route": "skew-jt-h",
            "polynomial": result.to_text(),
        }
        _write_output(
            args.out,
            _json_pieces(payload) if args.format == "json" else [result.to_text()],
        )
        return 0
    route = args.route or "all"
    if route == "all":
        if args.format == "text":
            raise ValueError("--route all prints JSON only; drop --format text")
        results = {name: fn(lam, n) for name, fn in ROUTES.items()}
        reference = results["bialternant"]
        agree = all(p == reference for p in results.values())
        payload = {
            "lambda": str(lam),
            "n": n,
            "agree": agree,
            "routes": {name: p.to_text() for name, p in results.items()},
        }
        _write_output(args.out, _json_pieces(payload))
        return 0 if agree else 1
    result = ROUTES[route](lam, n)
    if args.format == "json":
        payload = {
            "lambda": str(lam),
            "n": n,
            "route": route,
            "polynomial": result.to_text(),
            "terms": result.to_json()["terms"],
        }
        _write_output(args.out, _json_pieces(payload))
    else:
        _write_output(args.out, [result.to_text()])
    return 0


def _cmd_reduce(args) -> int:
    lam, mu = _parse_partition(args.lam)
    if mu is not None:
        raise ValueError(f"reduce takes a straight shape; {args.lam} is skew")
    n = args.n
    # with no input file the pipeline builds its own, after the hypothesis check
    f = Formula.from_json(_load_json(args.formula_in)) if args.formula_in else None
    # raises VerificationFailed unless the output expands to det_l
    output, report = schur_to_det_reduce(lam, n, f, budget=args.budget)
    ell = lam.length
    _write_output(args.out, _json_pieces(output.to_json()))
    report_json = report.to_json()
    report_json["verified_against_determinant"] = True
    report_json["lambda"] = str(lam)
    report_json["n"] = n
    if args.report_out:
        _write_output(args.report_out, _json_pieces(report_json))
    else:
        sys.stderr.write(
            f"reduced s_{lam} (n={n}) to det_{ell}: size {report.input_size} -> "
            f"{report.output_size}, depth +{report.depth_increase()}, verified\n"
        )
    return 0


def _cmd_witness(args) -> int:
    n = args.n
    if args.family == "shifted":
        polys = [e_poly(k, n) for k in range(1, n + 1)]
        shifts, point = shifted_witness(polys, seed=args.seed)
        shifted = [q - Poly.constant(n, a) for q, a in zip(polys, shifts)]
        # full row rank at the point implies the symbolic rank is n as well
        witness_jacobian(shifted, point)
        payload = {
            "family": "shifted",
            "n": n,
            "seed": args.seed,
            "point": [scalar_to_json(x) for x in point],
            "shifts": [scalar_to_json(a) for a in shifts],
            "residuals": [scalar_to_text(q.eval(point)) for q in shifted],
            "certified_rank": n,
        }
    else:
        builder = {
            "e": roots_of_unity_witness,
            "h": h_family_witness,
            "p": p_family_witness,
        }[args.family]
        witness = builder(n)
        payload = {
            "family": args.family,
            "n": n,
            "cyclotomic_order": n,
            "point": [scalar_to_json(x) for x in witness.point],
            "residuals": [scalar_to_text(q.eval(witness.point)) for q in witness.polys],
            "certified_rank": witness.rank,
        }
    _write_output(args.out, _json_pieces(payload))
    return 0


def _cmd_pdc(args) -> int:
    if args.monomial is not None:
        k = args.monomial
        source = Poly.monomial(k, (1,) * k)
        label = f"x1*...*x{k}"
    else:
        source = _read_poly(args.input)
        label = args.input
    dim = pdc_dimension(source, budget=args.budget)
    payload = {
        "source": label,
        "arity": source.arity,
        "terms": source.num_terms(),
        "dimension": dim,
    }
    _write_output(args.out, _json_pieces(payload))
    return 0


def _cmd_convert(args) -> int:
    if args.mode == "to-e-basis":
        if not args.input:
            raise ValueError("--to-e-basis needs --input")
        if args.k is not None:
            raise ValueError("--k applies to --e-to-h and --e-to-p only")
        result = express_in_e_basis(_read_poly(args.input))
        prefix = "e"
    else:
        k = args.k
        if k is None:
            raise ValueError("--e-to-h and --e-to-p need --k")
        if args.input is not None:
            raise ValueError("--input applies to --to-e-basis only")
        # e_k over h_1..h_k or p_1..p_k does not depend on the variable count
        if args.mode == "e-to-h":
            result = e_in_h_basis(k, k)
            prefix = "h"
        else:
            result = e_in_p_basis(k, k)
            prefix = "p"
    if args.format == "json":
        _write_output(args.out, _json_pieces(result.to_json()))
    else:
        _write_output(args.out, [result.to_text(prefix)])
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as bad input (exit 1, one `error:` line), since
    argparse's own exit code 2 means a failed reduction hypothesis here."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _budget(text: str) -> int:
    """A --budget value: an int, at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="schurkit",
        description="Exact symmetric polynomials and formula reduction passes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        return p

    p = command("schur", "construct a Schur polynomial by chosen routes")
    p.add_argument("--route", choices=[*ROUTES, "all"], default=None, help="default all")
    p.add_argument("--lambda", dest="lam", required=True, help='partition, e.g. "3,2,1" or skew "5,3/1"')
    p.add_argument("--mu", default=None, help="inner partition for a skew polynomial (not with an inline /mu)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default=None, help="default text (JSON for --route all)")

    p = command("reduce", "reduce a Schur formula to a determinant formula")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--formula-in", default=None, help="input formula JSON (defaults to the auto-built determinant form)")
    p.add_argument("--report-out", default=None)
    p.add_argument("--budget", type=_budget, default=None, help="term budget of every expansion")

    p = command("witness", "construct and verify a common-zero witness")
    p.add_argument("--family", choices=["e", "h", "p", "shifted"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="seed of the shifted family")

    p = command("pdc", "dimension of the span of all partial derivatives")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--monomial", type=int, default=None, help="use x1*...*xk")
    group.add_argument("--input", default=None, help="polynomial file (JSON or text)")
    p.add_argument("--budget", type=_budget, default=None, help="bound on the derivative multi-indices")

    p = command("convert", "rewrite between symmetric bases")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--e-to-h", dest="mode", action="store_const", const="e-to-h")
    group.add_argument("--e-to-p", dest="mode", action="store_const", const="e-to-p")
    group.add_argument("--to-e-basis", dest="mode", action="store_const", const="to-e-basis")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--input", default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")

    return parser


_HANDLERS = {
    "schur": _cmd_schur,
    "reduce": _cmd_reduce,
    "witness": _cmd_witness,
    "pdc": _cmd_pdc,
    "convert": _cmd_convert,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except NotReducible as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (VerificationFailed, InvalidWitness, ReductionMismatch,
            GridExhausted, NoNonvanishingPoint, NotDivisible) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except BudgetExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except (ValueError, OverflowError, OSError, DomainMismatch) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
