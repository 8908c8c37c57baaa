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
budget is exceeded (by `schur`, before any route runs, when an a-priori
bound on the terms exceeds it, or a count of a route's work exceeds
`WORK_PER_BUDGET_TERM` = 100 times it).
Every subcommand takes `--out`; only `witness` takes `--seed`, and
`schur`, `reduce` and `pdc` take `--budget`.

Input files are held to what the command can use, or to its budget, before
anything is built from them: building the order-k cyclotomic field takes
seconds for k in the ten thousands.  `reduce --formula-in` reads
cyclotomic orders up to n, the order of its witness, which every other
order meets in a DomainMismatch.  `pdc --input` reads orders, and
variables of the text form, up to its `--budget` (default
`DEFAULT_DERIVATIVE_BUDGET` = 8192); `convert --input`, which takes no
budget, up to that default.  Anything past them is bad input (exit 1).

Every JSON output is the text of `json.dumps(obj, indent=2, sort_keys=True)`
plus a newline, streamed by `_json_pieces`: a formula writes its own text
(`Formula.json_pieces`, which holds its distinct nodes, not the whole tree),
and every other payload goes through the stdlib encoder's `iterencode`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
from typing import Iterable, Iterator

from .circuits import DEFAULT_TERM_BUDGET, Formula
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
from .derivatives import DEFAULT_DERIVATIVE_BUDGET, pdc_dimension
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


def _json_pieces(obj) -> Iterator[str]:
    """The text of `json.dumps(obj, indent=2, sort_keys=True)`, in pieces.
    A `Formula` stands for its `to_json` dicts."""
    if isinstance(obj, Formula):
        return obj.json_pieces()
    return json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)


def _load_json(path: str):
    """The JSON document in the file `path`.  Raises ValueError, not
    RecursionError, when it is nested too deeply for the stdlib parser."""
    with open(path) as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: nested too deeply for the JSON parser") from None


def _read_poly(path: str, limit: int) -> Poly:
    """A polynomial file, in the JSON shape of `Poly.to_json` or as text;
    a cyclotomic order or a text-form variable past `limit` is refused."""
    try:
        return Poly.from_json(_load_json(path), max_order=limit)
    except json.JSONDecodeError as exc:
        return poly_from_text(exc.doc, max_arity=limit)


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


#: the work counts of `_check_schur_budget` are held against this multiple
#: of the budget: a count is terms times steps per term, not terms
WORK_PER_BUDGET_TERM = 100

#: each route's steps per term of s_lambda, as a power of n: the
#: bialternant reduces and expands each orbit over n-long exponent vectors
#: about n times, the tableau route extends every filling's exponent tuple
#: at each of its n layers, and the determinant routes expand only the
#: determinant, each term an n-long exponent vector once
ROUTE_WORK_POWER = {"bialternant": 2, "ssyt": 2, "jt-h": 1, "jt-e": 1}


def _check_schur_budget(lam: Partition, weight: int, n: int, routes, budget: int):
    """Raises BudgetExceeded, before any route runs, when an a-priori bound
    on the work of `routes` exceeds its limit: the C(weight + n - 1, n - 1)
    monomials of that degree in n variables, which bound every route's
    terms, against `budget`; that count times n^p, p the route's
    `ROUTE_WORK_POWER`, against `WORK_PER_BUDGET_TERM` * `budget`; and the
    lambda_1 * (n + 1) entries of the e-determinant that can be non-zero
    (e_m = 0 for m > n), against `budget`.
    Each bound is a running product of integer steps a / b that never
    decreases, so it stops once past its limit (C(a, k) with k <= a - k at
    least doubles per step), and a huge n or part costs nothing."""
    k = min(n - 1, weight)
    terms = f"C({weight + n - 1}, {n - 1}) terms of s_{lam} on {n} variables"

    def count(*more):
        return itertools.chain(((weight + n - 1 - k + i, i) for i in range(1, k + 1)), more)

    bounds = [(budget, f"term budget {budget}", terms, count())]
    if routes:
        route = max(routes, key=ROUTE_WORK_POWER.__getitem__)
        power = ROUTE_WORK_POWER[route]
        bounds.append((
            WORK_PER_BUDGET_TERM * budget,
            f"work budget {WORK_PER_BUDGET_TERM} * {budget}",
            f"{terms}, {n}^{power} steps each in route {route}",
            count(*[(n, 1)] * power),
        ))
    if "jt-e" in routes:
        entries = f"{lam.part(0)} * {n + 1} non-zero e-determinant entries"
        bounds.append((budget, f"term budget {budget}", entries, [(lam.part(0) * (n + 1), 1)]))
    for limit, name, what, steps in bounds:
        value = 1
        for a, b in steps:
            value = value * a // b
            if value > limit:
                raise BudgetExceeded(f"{name} exceeded before the build: up to {what}")


def _cmd_schur(args) -> int:
    lam, mu = _parse_partition(args.lam)
    if args.mu:
        if mu is not None:
            raise ValueError("give the inner partition inline in --lambda or with --mu, not both")
        mu = Partition.parse(args.mu)
    n = args.n
    budget = DEFAULT_TERM_BUDGET if args.budget is None else args.budget
    if mu is not None:
        if args.route is not None:
            raise ValueError("--route applies to straight shapes only; a skew shape uses its h-determinant")
        _check_schur_budget(lam, lam.weight - mu.weight, n, ("jt-h",), budget)
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
    if route == "all" and args.format == "text":
        raise ValueError("--route all prints JSON only; drop --format text")
    _check_schur_budget(lam, lam.weight, n, ROUTES if route == "all" else (route,), budget)
    if route == "all":
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
    f = Formula.from_json(_load_json(args.formula_in), max_order=n) if args.formula_in else None
    # raises VerificationFailed unless the output expands to det_l
    output, report = schur_to_det_reduce(lam, n, f, budget=args.budget)
    ell = lam.length
    _write_output(args.out, _json_pieces(output))
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
        source = _read_poly(args.input, DEFAULT_DERIVATIVE_BUDGET if args.budget is None else args.budget)
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
        result = express_in_e_basis(_read_poly(args.input, DEFAULT_DERIVATIVE_BUDGET))
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
    p.add_argument("--budget", type=_budget, default=None, help="bound on the terms and entries a route may build")

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
