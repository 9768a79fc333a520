"""Command-line surface: evaluate terms, compose/normalize literals, run checks.

Exit codes: 0 success (or expected verdict), 1 check failure / unexpected
verdict, 2 user error (parse or type), 3 "not equal" for the equal command.
Every command raises a user error as a ``CorelateError``; ``main`` alone
turns it into one ``error:`` line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import BadScalar, CorelateError, TypeMismatch, ZeroDenominator
from .exactnum import QQ, ZZ
from .corelrel import gamma, rel_canonical
from .diagrams import eval_term, get_theory, parse_term, term_equal
from .literals import format_canonical, format_pair, parse_pair
from .spancospan import (
    Cospan,
    Span,
    cospan_canonical,
    cospan_compose,
    get_ambient,
    span_canonical,
    span_compose,
)
from . import verify


def _emit(report: verify.CheckReport, output: str) -> None:
    if output == "records":
        print(json.dumps(report.to_record()))
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
    th = get_theory(args.theory)
    term = parse_term(args.term)
    text = format_canonical(eval_term(term, th))
    if args.format == "records":
        print(json.dumps({"term": args.term, "type": [term.dom, term.cod], "canonical": text}))
    else:
        print(text)
    return 0


def cmd_equal(args) -> int:
    th = get_theory(args.theory)
    equal = term_equal(parse_term(args.term1), parse_term(args.term2), th)
    print("equal" if equal else "not equal")
    return 0 if equal else 3


# pair type -> (composite, canonical form, quotient to a (co)relation)
_PAIR_OPS = {
    Cospan: (cospan_compose, cospan_canonical, gamma),
    Span: (span_compose, span_canonical, rel_canonical),
}


def cmd_compose(args) -> int:
    amb = get_ambient(args.ambient, args.a)
    x1, x2 = parse_pair(args.first, amb), parse_pair(args.second, amb)
    if type(x1) is not type(x2):
        raise TypeMismatch("cannot compose a span with a cospan")
    compose, canonical, _ = _PAIR_OPS[type(x1)]
    print(format_pair(canonical(compose(x1, x2, amb), amb)))
    return 0


def cmd_normalize(args) -> int:
    amb = get_ambient(args.ambient, args.a)
    x = parse_pair(args.literal, amb)
    _, canonical, quotient = _PAIR_OPS[type(x)]
    print(format_canonical(quotient(x, amb)) if args.quotient else format_pair(canonical(x, amb)))
    return 0


# check name -> (its verify function, looked up per call so that a wrapper
# installed on the module sees the call; the flags it takes, in the order of
# the function's arguments, where C and A name the ambient)
_CHECKS = {
    "assumption31": ("check_assumption31", ("C", "A", "bound", "entry_bound", "seed")),
    "assumption33": ("check_assumption33", ("C", "A", "bound", "entry_bound", "seed")),
    "square": ("check_square_commutes", ("C", "A", "bound", "entry_bound")),
    "pi-functorial": ("check_pi_functorial", ("C", "A", "bound", "entry_bound", "seed", "samples")),
    "tensor-functorial": ("check_tensor_functorial", ("C", "A", "bound", "entry_bound", "seed", "samples")),
    "laws": ("check_category_laws", ("C", "A", "bound", "entry_bound", "seed", "samples")),
    "frobenius": ("check_frobenius", ("theory", "scalars")),
}

# each flag of `check` that some checks take -> its value when not given
_CHECK_DEFAULTS = {
    "C": "f",
    "A": None,
    "theory": "er",
    "scalars": None,
    "bound": 2,
    "entry_bound": 3,
    "seed": 0,
    "samples": 200,
}


def _scalars(text):
    try:
        return tuple(QQ.parse(s) for s in text.split(",")) if text else None
    except (BadScalar, ZeroDenominator):
        raise CorelateError(f"--scalars takes comma-separated rationals, got {text!r}") from None


def cmd_check(args) -> int:
    name, flags = _CHECKS[args.check]
    given = {flag: getattr(args, flag) for flag in _CHECK_DEFAULTS if getattr(args, flag) is not None}
    refused = [f"--{flag.replace('_', '-')}" for flag in given if flag not in flags]
    if refused:
        raise CorelateError(f"check {args.check} does not take {', '.join(refused)}")
    values = [given.get(flag, _CHECK_DEFAULTS[flag]) for flag in flags]
    if args.check == "frobenius":
        theory, scalars = values
        values = [theory, _scalars(scalars)]
    else:
        values = [get_ambient(*values[:2]), *values[2:]]
    report = getattr(verify, name)(*values)
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


def _integer(text: str) -> int:
    """Argument type of seeds: an integer in ASCII numerals."""
    try:
        return ZZ.parse(text)
    except BadScalar:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _count(text: str) -> int:
    """Argument type of bounds and sample counts: a non-negative integer."""
    try:
        value = ZZ.parse(text)
    except BadScalar:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line on stderr, with exit 2,
    like every other user error; ``-h`` still prints the usage."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
    parser = _ArgumentParser(
        prog="corelate",
        description="exact spans, cospans, relations and corelations with a verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a diagram term to canonical form")
    p_eval.add_argument("--theory", required=True)
    p_eval.add_argument("--format", choices=("text", "records"), default="text")
    p_eval.add_argument("term")

    p_equal = sub.add_parser("equal", help="decide semantic equality of two terms")
    p_equal.add_argument("--theory", required=True)
    p_equal.add_argument("term1")
    p_equal.add_argument("term2")

    p_compose = sub.add_parser("compose", help="compose two span/cospan literals")
    p_compose.add_argument("--ambient", required=True)
    p_compose.add_argument("--A", dest="a", default=None)
    p_compose.add_argument("first")
    p_compose.add_argument("second")

    p_norm = sub.add_parser("normalize", help="canonical form of a span/cospan literal")
    p_norm.add_argument("--ambient", required=True)
    p_norm.add_argument("--A", dest="a", default=None)
    p_norm.add_argument(
        "--quotient",
        action="store_true",
        help="quotient to a corelation (cospans) or relation (spans) instead of the iso-class form",
    )
    p_norm.add_argument("literal")

    p_check = sub.add_parser("check", help="run one verification check")
    # defaults are in _CHECK_DEFAULTS, so that a flag the check does not take
    # reads None when it was not given
    p_check.add_argument("check", choices=_CHECKS)
    p_check.add_argument("--C")
    p_check.add_argument("--A")
    p_check.add_argument("--theory")
    p_check.add_argument("--scalars", help="comma-separated scalars for frobenius")
    p_check.add_argument("--bound", type=_count)
    p_check.add_argument("--entry-bound", dest="entry_bound", type=_count)
    p_check.add_argument("--seed", type=_integer)
    p_check.add_argument("--samples", type=_count)
    p_check.add_argument("--expect", choices=("pass", "fail"), default=None)
    p_check.add_argument("--format", choices=("text", "records"), default="text")

    p_report = sub.add_parser("report", help="run the default check suite")
    p_report.add_argument("--bound", type=_count, default=3)
    p_report.add_argument("--entry-bound", dest="entry_bound", type=_count, default=3)
    p_report.add_argument("--seed", type=_integer, default=0)
    p_report.add_argument("--samples", type=_count, default=200)
    p_report.add_argument("--format", choices=("text", "records"), default="text")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so that a wrapper installed on the module sees it
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except CorelateError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
