"""Command-line surface: evaluate terms, compose/normalize literals, run checks.

Exit codes: 0 success (or expected verdict), 1 check failure / unexpected
verdict, 2 user error (parse or type), 3 "not equal" for the equal command.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import CorelateError
from .corelrel import gamma, rel_canonical
from .diagrams import eval_term, get_theory, parse_term, term_equal
from .literals import (
    format_canonical,
    format_cospan,
    format_span,
    parse_pair_literal,
)
from .spancospan import (
    cospan_canonical,
    cospan_compose,
    get_ambient,
    span_canonical,
    span_compose,
)
from . import verify


def _emit(report: verify.CheckReport, output: str) -> None:
    if output == "records":
        print(json.dumps(report.to_record(), default=str))
        return
    print(
        f"check={report.name} C={report.c_name} A={report.a_name} "
        f"bound={report.bound} verdict={report.verdict}"
    )
    for label, holds in report.details:
        print(f"  law {label}: {'holds' if holds else 'fails'}")
    for ce in report.counterexamples[:10]:
        rendered = " ".join(f"{k}=[{v}]" for k, v in ce)
        print(f"  counterexample: {rendered}")
    if len(report.counterexamples) > 10:
        print(f"  ... {len(report.counterexamples) - 10} more")


def cmd_eval(args) -> int:
    try:
        th = get_theory(args.theory)
        term = parse_term(args.term)
        result = eval_term(term, th)
    except CorelateError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    text = format_canonical(result)
    if args.format == "records":
        print(json.dumps({"term": args.term, "type": [term.dom, term.cod], "canonical": text}))
    else:
        print(text)
    return 0


def cmd_equal(args) -> int:
    try:
        th = get_theory(args.theory)
        t1, t2 = parse_term(args.term1), parse_term(args.term2)
        equal = term_equal(t1, t2, th)
    except CorelateError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print("equal" if equal else "not equal")
    return 0 if equal else 3


def cmd_compose(args) -> int:
    try:
        amb = get_ambient(args.ambient, args.a)
        kind1, x1 = parse_pair_literal(args.first, amb)
        kind2, x2 = parse_pair_literal(args.second, amb)
        if kind1 != kind2:
            print("error: cannot compose a span with a cospan", file=sys.stderr)
            return 2
        if kind1 == "cospan":
            out = cospan_canonical(cospan_compose(x1, x2, amb), amb)
            print(format_cospan(out))
        else:
            out = span_canonical(span_compose(x1, x2, amb), amb)
            print(format_span(out))
    except CorelateError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


def cmd_normalize(args) -> int:
    try:
        amb = get_ambient(args.ambient, args.a)
        kind, x = parse_pair_literal(args.literal, amb)
        if args.quotient:
            if kind == "cospan":
                print(format_canonical(gamma(x, amb)))
            else:
                print(format_canonical(rel_canonical(x, amb)))
        elif kind == "cospan":
            print(format_cospan(cospan_canonical(x, amb)))
        else:
            print(format_span(span_canonical(x, amb)))
    except CorelateError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


def _run_check(args) -> verify.CheckReport:
    name = args.check
    if name == "frobenius":
        scalars = None
        if args.scalars:
            try:
                scalars = tuple(Fraction(s) for s in args.scalars.split(","))
            except (ValueError, ZeroDivisionError):
                raise CorelateError(f"--scalars takes comma-separated rationals, got {args.scalars!r}") from None
        return verify.check_frobenius(args.theory, scalars)
    amb = get_ambient(args.C, args.A)
    if name == "assumption31":
        return verify.check_assumption31(amb, args.bound, args.entry_bound, args.seed)
    if name == "assumption33":
        return verify.check_assumption33(amb, args.bound, args.entry_bound, args.seed)
    if name == "square":
        return verify.check_square_commutes(amb, args.bound, args.entry_bound)
    if name == "pi-functorial":
        return verify.check_pi_functorial(amb, args.bound, args.entry_bound, args.seed, args.samples)
    if name == "tensor-functorial":
        return verify.check_tensor_functorial(amb, args.bound, args.entry_bound, args.seed, args.samples)
    if name == "laws":
        return verify.check_category_laws(amb, args.bound, args.entry_bound, args.seed, args.samples)
    raise CorelateError(f"unknown check {name!r}")


def cmd_check(args) -> int:
    try:
        report = _run_check(args)
    except CorelateError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    _emit(report, args.format)
    expected = args.expect or verify.expected_verdict(report)
    return 0 if report.verdict == expected else 1


def _default_suite(bound: int, entry_bound: int, seed: int, samples: int):
    mk = get_ambient
    yield verify.check_assumption31(mk("f", "inj"), bound)
    yield verify.check_assumption31(mk("f", "all"), min(bound, 2))
    yield verify.check_assumption31(mk("pf", "inj"), min(bound, 2))
    yield verify.check_assumption31(mk("gf2"), 2, entry_bound)
    yield verify.check_assumption31(mk("z", "split"), 2, entry_bound)
    yield verify.check_assumption33(mk("gf2"), 2, entry_bound)
    yield verify.check_assumption33(mk("q"), 2, 1)
    yield verify.check_assumption33(mk("f", "all"), bound)
    yield verify.check_square_commutes(mk("f", "inj"), bound)
    yield verify.check_square_commutes(mk("pf", "inj"), min(bound, 2))
    yield verify.check_square_commutes(mk("z", "split"), 2, entry_bound)
    yield verify.check_pi_functorial(mk("f", "inj"), bound, entry_bound, seed, samples)
    yield verify.check_pi_functorial(mk("z", "split"), 2, entry_bound, seed, samples)
    for name in ("f", "pf", "gf2", "q", "z"):
        yield verify.check_tensor_functorial(mk(name), 2, 2, seed, max(40, samples // 5))
    for name in ("f", "pf", "gf2", "q", "z"):
        yield verify.check_category_laws(mk(name), 2, 2, seed, max(60, samples // 5))
    for theory in ("er", "per", "gf2-subspace", "q-subspace", "z-corel"):
        yield verify.check_frobenius(theory)


def cmd_report(args) -> int:
    bad = 0
    for report in _default_suite(args.bound, args.entry_bound, args.seed, args.samples):
        _emit(report, args.format)
        if report.verdict != verify.expected_verdict(report):
            bad += 1
    if bad:
        print(f"{bad} checks returned unexpected verdicts", file=sys.stderr)
    return 1 if bad else 0


def _count(text: str) -> int:
    """Argument type of bounds and sample counts: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corelate",
        description="exact spans, cospans, relations and corelations with a verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a diagram term to canonical form")
    p_eval.add_argument("--theory", required=True)
    p_eval.add_argument("--format", choices=("text", "records"), default="text")
    p_eval.add_argument("term")
    p_eval.set_defaults(func=cmd_eval)

    p_equal = sub.add_parser("equal", help="decide semantic equality of two terms")
    p_equal.add_argument("--theory", required=True)
    p_equal.add_argument("term1")
    p_equal.add_argument("term2")
    p_equal.set_defaults(func=cmd_equal)

    p_compose = sub.add_parser("compose", help="compose two span/cospan literals")
    p_compose.add_argument("--ambient", required=True)
    p_compose.add_argument("--A", dest="a", default=None)
    p_compose.add_argument("first")
    p_compose.add_argument("second")
    p_compose.set_defaults(func=cmd_compose)

    p_norm = sub.add_parser("normalize", help="canonical form of a span/cospan literal")
    p_norm.add_argument("--ambient", required=True)
    p_norm.add_argument("--A", dest="a", default=None)
    p_norm.add_argument(
        "--quotient",
        action="store_true",
        help="quotient to a corelation (cospans) or relation (spans) instead of the iso-class form",
    )
    p_norm.add_argument("literal")
    p_norm.set_defaults(func=cmd_normalize)

    p_check = sub.add_parser("check", help="run one verification check")
    p_check.add_argument(
        "check",
        choices=(
            "assumption31",
            "assumption33",
            "square",
            "pi-functorial",
            "tensor-functorial",
            "laws",
            "frobenius",
        ),
    )
    p_check.add_argument("--C", default="f")
    p_check.add_argument("--A", default=None)
    p_check.add_argument("--theory", default="er")
    p_check.add_argument("--scalars", default=None, help="comma-separated scalars for frobenius")
    p_check.add_argument("--bound", type=_count, default=2)
    p_check.add_argument("--entry-bound", dest="entry_bound", type=_count, default=3)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--samples", type=_count, default=200)
    p_check.add_argument("--expect", choices=("pass", "fail"), default=None)
    p_check.add_argument("--format", choices=("text", "records"), default="text")
    p_check.set_defaults(func=cmd_check)

    p_report = sub.add_parser("report", help="run the default check suite")
    p_report.add_argument("--bound", type=_count, default=3)
    p_report.add_argument("--entry-bound", dest="entry_bound", type=_count, default=3)
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument("--samples", type=_count, default=200)
    p_report.add_argument("--format", choices=("text", "records"), default="text")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
