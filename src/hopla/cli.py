"""Command-line interface.

Verbs: check, derive, coderive, generate, selftest.
Exit codes: 0 all checks pass, 1 a mathematical check failed (a witness is
printed), 2 malformed input or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .coalgebra import PERM, TENSOR, WEDGE
from .docio import MAX_ARITY, parse_document, serialize_document
from .drivers import (generate_random, run_check, run_coderive, run_derive,
                      run_selftest)
from .equations import ASSOC, LIE, PRELIE
from .errors import AlgebraError, DocumentError, SymmetryError
from .graded import HAT, UNHAT

EXIT_PASS = 0
EXIT_MATH_FAIL = 1
EXIT_INPUT = 2


def _read_document(path: str):
    try:
        with open(path, "rb") as handle:
            return parse_document(handle.read())
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None


def _int_list(flag: str, text: str) -> list:
    try:
        return [int(d) for d in text.split(",") if d.strip() != ""]
    except ValueError as exc:
        raise DocumentError(f"{flag} must list integers: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise DocumentError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _emit_report(report, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.to_text())
    return EXIT_PASS if report.passed else EXIT_MATH_FAIL


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="hopla",
        description="exact checks for homotopy associative / pre-Lie / Lie structures")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="run structure-equation residuals on a document")
    p.add_argument("file")
    p.add_argument("--flavor", required=True, choices=[ASSOC, PRELIE, LIE])
    p.add_argument("--max-arity", type=int, default=None,
                   help=f"check residuals up to this arity (1..{MAX_ARITY}; "
                        "default: the document's max_arity)")
    p.add_argument("--no-precondition-check", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("derive", help="apply a functor and print the derived document")
    p.add_argument("file")
    p.add_argument("--functor", required=True,
                   choices=["suspend", "desuspend", "commutator-alpha",
                            "commutator-beta", "commutator-gamma", "nary-embed",
                            "nary-commutator-prelie", "nary-commutator-lie"])
    p.add_argument("--n", type=int, default=None, help="arity for nary-embed")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--no-precondition-check", action="store_true")

    p = sub.add_parser("coderive", help="build a coderivation and report its square")
    p.add_argument("file")
    p.add_argument("--kind", required=True, choices=[TENSOR, WEDGE, PERM])
    p.add_argument("--weight-cap", type=int, default=4,
                   help=f"build and check up to this weight (1..{MAX_ARITY}; default 4)")
    p.add_argument("--no-precondition-check", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("generate", help="emit a seeded random document")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--degrees", default="0",
                   help="comma-separated degrees sampled for the basis, e.g. 0,1; "
                        "a list that starts with a negative degree must be joined "
                        "to the flag: --degrees=-1,0,1")
    p.add_argument("--arities", default="2",
                   help="comma-separated arities, e.g. 2,3 (--arities=2,3 also works)")
    p.add_argument("--sparsity", type=float, default=0.5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--convention", choices=[HAT, UNHAT], default=UNHAT)
    p.add_argument("--symmetrize", choices=["none", "partial", "full"], default="none")
    p.add_argument("--nilpotent", action="store_true",
                   help="source/sink structure: all composites vanish, so every "
                        "residual system is satisfied")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("selftest", help="run the cross-module invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fast", action="store_true")
    p.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a cap below 1 leaves nothing to check and would pass vacuously
    for flag, value in (("--max-arity", getattr(args, "max_arity", None)),
                        ("--weight-cap", getattr(args, "weight_cap", None))):
        if value is not None and value < 1:
            print(f"input error: {flag} must be at least 1, got {value}", file=sys.stderr)
            return EXIT_INPUT
    if getattr(args, "max_arity", None) is not None and args.max_arity > MAX_ARITY:
        print(f"input error: --max-arity must be at most {MAX_ARITY}, got {args.max_arity}",
              file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.verb == "check":
            doc = _read_document(args.file)
            report = run_check(doc, args.flavor, args.max_arity,
                               check_preconditions=not args.no_precondition_check)
            return _emit_report(report, args.json)

        if args.verb == "derive":
            doc = _read_document(args.file)
            try:
                derived = run_derive(doc, args.functor, n=args.n,
                                     check_preconditions=not args.no_precondition_check)
            except SymmetryError as exc:
                print(f"precondition failed: {exc}", file=sys.stderr)
                return EXIT_MATH_FAIL
            _emit(serialize_document(derived), args.output)
            return EXIT_PASS

        if args.verb == "coderive":
            doc = _read_document(args.file)
            report = run_coderive(doc, args.kind, args.weight_cap,
                                  check_preconditions=not args.no_precondition_check)
            return _emit_report(report, args.json)

        if args.verb == "generate":
            degrees = _int_list("--degrees", args.degrees)
            arities = _int_list("--arities", args.arities)
            doc = generate_random(args.dim, degrees, arities, args.sparsity,
                                  args.seed, convention=args.convention,
                                  symmetrize=args.symmetrize,
                                  nilpotent=args.nilpotent)
            _emit(serialize_document(doc), args.output)
            return EXIT_PASS

        if args.verb == "selftest":
            report = run_selftest(seed=args.seed, fast=args.fast)
            return _emit_report(report, args.json)
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    parser.error(f"unknown verb {args.verb!r}")


if __name__ == "__main__":
    sys.exit(main())
