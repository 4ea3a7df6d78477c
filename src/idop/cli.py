"""Command-line front end: normalization, actions, decompositions, the matrix
oracle, the dimension engine and the verification suites.

Exit codes: 0 on success, 1 on syntax or usage errors, 2 when a verification
suite reports a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .expr import (
    bn_to_json,
    element1_to_json,
    elementn_to_json,
    format_poly,
    matrix_to_json,
    parse_element,
    parse_element_list,
    parse_poly,
    poly_to_json,
)
from .oracle import to_matrix_n
from .structure import (
    bimodule_filtration_dims,
    census,
    multiplicity_report,
    socle_level,
    split,
)
from .tensor import apply_n, project_bn, to_element1
from .verify import SUITES, run_suites


class _CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise _CliError(message)

    def _parse_optional(self, arg_string):
        # A single-dash token that names no option, such as "-x-d", is an
        # expression with a leading minus sign, not an unknown option.  An
        # unknown option comes back with action None; newer Pythons return a
        # list of such candidates instead of one.
        option = super()._parse_optional(arg_string)
        if option is None or arg_string.startswith("--"):
            return option
        tuples = option if isinstance(option, list) else [option]
        return None if all(t[0] is None for t in tuples) else option


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text", help="output encoding")
    common = argparse.ArgumentParser(add_help=False, parents=[fmt])
    common.add_argument("--n", type=_positive_int, default=1, help="tensor rank (default 1)")

    parser = _Parser(prog="idop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", parents=[common], help="print the canonical form")
    p.add_argument("expr")
    p = sub.add_parser("apply", parents=[common], help="act on a polynomial in x1..xn")
    p.add_argument("expr")
    p.add_argument("poly")
    p = sub.add_parser("split", parents=[common], help="print the A/F/L decomposition (rank 1)")
    p.add_argument("expr")
    p = sub.add_parser("socle", parents=[common], help="print socle level and census")
    p.add_argument("expr")
    p = sub.add_parser("fdeg", parents=[common], help="print the F-degree (rank 1)")
    p.add_argument("expr")
    p = sub.add_parser("quot", parents=[common], help="print the image in the skew Laurent quotient")
    p.add_argument("expr")
    p = sub.add_parser("matrix", parents=[common], help="print the truncated matrix")
    p.add_argument("expr")
    p.add_argument("--size", type=_positive_int, default=8, help="truncation size N (default 8)")
    p = sub.add_parser("dims", parents=[common], help="two-sided filtration dimensions (rank 1)")
    p.add_argument("--gen", required=True, help="comma-separated generator expressions")
    p.add_argument("--max", dest="i_max", type=int, required=True, help="largest filtration index")
    p = sub.add_parser("verify", parents=[fmt], help="run the verification suites")
    p.add_argument(
        "--suite",
        default="all",
        choices=sorted(SUITES) + ["all"],
        help="which suite to run (default all)",
    )
    p.add_argument(
        "--samples", type=_positive_int, default=None, help="override randomized sample counts"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    return parser


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _cmd_norm(args) -> int:
    e = parse_element(args.expr, args.n)
    _emit(args, elementn_to_json(e), str(e))
    return 0


def _cmd_apply(args) -> int:
    e = parse_element(args.expr, args.n)
    p = parse_poly(args.poly, args.n)
    q = apply_n(e, p)
    _emit(args, poly_to_json(q, args.n), format_poly(q, args.n))
    return 0


def _cmd_split(args) -> int:
    parts = split(parse_element(args.expr, args.n))
    payload = {name: element1_to_json(part) for name, part in parts._asdict().items()}
    text = "\n".join(f"{label}: {part}" for label, part in zip("AFL", parts))
    _emit(args, payload, text)
    return 0


def _cmd_socle(args) -> int:
    e = parse_element(args.expr, args.n)
    level = socle_level(e)
    labels = sorted(census(e))
    payload = {"level": level, "census": [list(l) for l in labels]}
    text = f"level: {level}\ncensus: " + " ".join("(" + ",".join(l) + ")" for l in labels)
    _emit(args, payload, text)
    return 0


def _cmd_fdeg(args) -> int:
    e = to_element1(parse_element(args.expr, args.n))
    _emit(args, {"fdegree": e.fdegree()}, str(e.fdegree()))
    return 0


def _cmd_quot(args) -> int:
    e = parse_element(args.expr, args.n)
    b = project_bn(e)
    _emit(args, bn_to_json(b), str(b))
    return 0


def _cmd_matrix(args) -> int:
    mat = to_matrix_n(parse_element(args.expr, args.n), args.size)
    _emit(args, matrix_to_json(mat), repr(mat))
    return 0


def _cmd_dims(args) -> int:
    dims = bimodule_filtration_dims(parse_element_list(args.gen, args.n), args.i_max)
    rep = multiplicity_report(dims)
    report = None if rep is None else rep._asdict()
    fit = "inconclusive" if report is None else " ".join(f"{k}={v}" for k, v in report.items())
    text = "dims: " + " ".join(str(v) for v in dims) + "\nreport: " + fit
    _emit(args, {"dims": dims, "report": report}, text)
    return 0


def _cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed, samples=args.samples)
    passed = sum(1 for _, c in results if c.ok)
    payload = {
        "suites": names,
        "checks": [
            {"suite": s, "name": c.name, "ok": c.ok, "detail": c.detail} for s, c in results
        ],
        "passed": passed,
        "total": len(results),
    }
    lines = []
    for s, c in results:
        line = f"{'PASS' if c.ok else 'FAIL'} {s}: {c.name}"
        if not c.ok and c.detail:
            line += f" -- {c.detail}"
        lines.append(line)
    lines.append(f"{passed}/{len(results)} checks passed")
    _emit(args, payload, "\n".join(lines))
    return 0 if passed == len(results) else 2


_COMMANDS = {
    "norm": _cmd_norm,
    "apply": _cmd_apply,
    "split": _cmd_split,
    "socle": _cmd_socle,
    "fdeg": _cmd_fdeg,
    "quot": _cmd_quot,
    "matrix": _cmd_matrix,
    "dims": _cmd_dims,
    "verify": _cmd_verify,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # so that a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Send what is still buffered to the null device, so that the flush at
        # exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed", file=sys.stderr)
        return 1


def _run(argv: Optional[list[str]]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ValueError as exc:  # syntax, usage and library errors alike
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help and friends
        code = exc.code
        return 0 if code in (0, None) else 1


if __name__ == "__main__":
    sys.exit(main())
