"""Command-line surface: schur, reduce, witness, pdc, convert, bench.

Outputs are deterministic for a fixed command line and seed (the bench
timing column is the one deliberate exception), files are written
atomically, and the exit code is 0 only when every internal verification
passed: 1 for route disagreement or bad input, 2 when a partition fails the
reduction hypothesis, 3 when a witness fails verification, 4 when a term
budget is exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import time

from .circuits import Formula
from .errors import BudgetExceeded, DomainMismatch, NotReducible, VerificationFailed
from .field import scalar_to_json, scalar_to_text
from .independence import (
    h_family_witness,
    is_independence_witness,
    p_family_witness,
    roots_of_unity_witness,
    shifted_witness,
)
from .derivatives import pdc_dimension
from .partitions import Partition, partitions_up_to_weight
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
from .transforms import det_poly, jacobi_trudi_formula, schur_to_det_reduce


def _write_output(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-schurkit-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


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
    lam, mu_inline = _parse_partition(args.lam)
    mu = Partition.parse(args.mu) if args.mu else mu_inline
    n = args.n
    if mu is not None:
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
            _dump_json(payload) if args.format == "json" else result.to_text(),
        )
        return 0
    if args.route == "all":
        results = {name: fn(lam, n) for name, fn in ROUTES.items()}
        reference = results["bialternant"]
        agree = all(p == reference for p in results.values())
        payload = {
            "lambda": str(lam),
            "n": n,
            "agree": agree,
            "routes": {name: p.to_text() for name, p in results.items()},
        }
        _write_output(args.out, _dump_json(payload))
        return 0 if agree else 1
    result = ROUTES[args.route](lam, n)
    if args.format == "json":
        payload = {
            "lambda": str(lam),
            "n": n,
            "route": args.route,
            "polynomial": result.to_text(),
            "terms": result.to_json()["terms"],
        }
        _write_output(args.out, _dump_json(payload))
    else:
        _write_output(args.out, result.to_text())
    return 0


def _cmd_reduce(args) -> int:
    lam, _ = _parse_partition(args.lam)
    n = args.n
    if args.formula_in:
        with open(args.formula_in) as handle:
            try:
                spec = json.load(handle)
            except RecursionError:
                raise ValueError(
                    f"{args.formula_in}: formula nested too deeply for the JSON parser"
                ) from None
        f = Formula.from_json(spec)
    else:
        f = jacobi_trudi_formula(lam, n)
    output, report = schur_to_det_reduce(lam, n, f, budget=args.budget)
    ell = lam.length
    verified = output.expand(budget=args.budget) == det_poly(ell)
    if not verified:
        raise VerificationFailed("output expansion does not equal the determinant")
    _write_output(args.out, _dump_json(output.to_json()))
    report_json = report.to_json()
    report_json["verified_against_determinant"] = verified
    report_json["lambda"] = str(lam)
    report_json["n"] = n
    if args.report_out:
        _write_output(args.report_out, _dump_json(report_json))
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
        if not is_independence_witness(shifted, point, seed=args.seed):
            raise VerificationFailed("shifted family failed the witness check")
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
    _write_output(args.out, _dump_json(payload))
    return 0


def _cmd_pdc(args) -> int:
    if args.monomial is not None:
        k = args.monomial
        source = Poly.monomial(k, (1,) * k)
        label = f"x1*...*x{k}"
    else:
        with open(args.input) as handle:
            text = handle.read()
        try:
            source = Poly.from_json(json.loads(text))
        except json.JSONDecodeError:
            source = poly_from_text(text)
        label = args.input
    dim = pdc_dimension(source, budget=args.budget)
    payload = {
        "source": label,
        "arity": source.arity,
        "terms": source.num_terms(),
        "dimension": dim,
    }
    _write_output(args.out, _dump_json(payload))
    return 0


def _cmd_convert(args) -> int:
    if args.mode == "to-e-basis":
        if not args.input:
            raise ValueError("--to-e-basis needs --input")
        with open(args.input) as handle:
            text = handle.read()
        try:
            source = Poly.from_json(json.loads(text))
        except json.JSONDecodeError:
            source = poly_from_text(text)
        result = express_in_e_basis(source)
        prefix = "e"
    else:
        k = args.k
        if k is None:
            raise ValueError("--e-to-h and --e-to-p need --k")
        n = args.n if args.n is not None else k
        if args.mode == "e-to-h":
            result = e_in_h_basis(k, n)
            prefix = "h"
        else:
            result = e_in_p_basis(k, n)
            prefix = "p"
    if args.format == "json":
        _write_output(args.out, _dump_json(result.to_json()))
    else:
        _write_output(args.out, result.to_text(prefix))
    return 0


def _cmd_bench(args) -> int:
    if args.suite != "schur-routes":
        raise ValueError(f"unknown suite {args.suite!r}")
    n = args.n
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["lambda", "n", "route", "size", "depth", "millis"])
    for lam in partitions_up_to_weight(args.max_weight):
        if lam.length > n:
            continue
        for name, fn in ROUTES.items():
            start = time.perf_counter()
            poly = fn(lam, n)
            millis = int((time.perf_counter() - start) * 1000)
            writer.writerow([str(lam), n, name, poly.num_terms(), poly.total_degree(), millis])
    _write_output(args.out, buffer.getvalue())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurkit",
        description="Exact symmetric polynomials and formula reduction passes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("schur", help="construct a Schur polynomial by chosen routes")
    p.add_argument("--route", choices=[*ROUTES, "all"], default="all")
    p.add_argument("--lambda", dest="lam", required=True, help='partition, e.g. "3,2,1" or skew "5,3/1"')
    p.add_argument("--mu", default=None, help="inner partition for a skew polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    common(p)

    p = sub.add_parser("reduce", help="reduce a Schur formula to a determinant formula")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--formula-in", default=None, help="input formula JSON (defaults to the auto-built determinant form)")
    p.add_argument("--report-out", default=None)
    common(p)

    p = sub.add_parser("witness", help="construct and verify a common-zero witness")
    p.add_argument("--family", choices=["e", "h", "p", "shifted"], required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("pdc", help="dimension of the span of all partial derivatives")
    p.add_argument("--monomial", type=int, default=None, help="use x1*...*xk")
    p.add_argument("--input", default=None, help="polynomial file (JSON or text)")
    common(p)

    p = sub.add_parser("convert", help="rewrite between symmetric bases")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--e-to-h", dest="mode", action="store_const", const="e-to-h")
    group.add_argument("--e-to-p", dest="mode", action="store_const", const="e-to-p")
    group.add_argument("--to-e-basis", dest="mode", action="store_const", const="to-e-basis")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--input", default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    common(p)

    p = sub.add_parser("bench", help="CSV of sizes/degrees/timings per route")
    p.add_argument("--suite", default="schur-routes")
    p.add_argument("--max-weight", type=int, default=6)
    p.add_argument("--n", type=int, default=5)
    common(p)

    return parser


_HANDLERS = {
    "schur": _cmd_schur,
    "reduce": _cmd_reduce,
    "witness": _cmd_witness,
    "pdc": _cmd_pdc,
    "convert": _cmd_convert,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except NotReducible as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except VerificationFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except BudgetExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except (ValueError, OSError, DomainMismatch) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
