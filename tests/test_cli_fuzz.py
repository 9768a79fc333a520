"""Contract fuzz of the command line, in-process.

Draws argv for ``eval``, ``equal``, ``compose``, ``normalize`` and ``check``
from a small grammar of names, flags, terms and literals, with up to two
characters of each term or literal mutated; ``check`` draws now and then
get a flag their check does not take, or a seed numeral that is not ASCII
digits.  Asserts the exit-code contract: 0 with an empty stderr, 1 only
from ``check``, 3 only from ``equal``, and 2 with exactly one ``error:``
line on stderr, also when argparse refuses the argv.  ``report`` is left
out: its fixed checks take seconds.
"""

import contextlib
import io
import re

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from corelate.cli import main

SIZES = st.integers(0, 3)
# characters of the term and literal grammars, for replacing mutations
GRAMMAR = "[](){}=,;:@_/->x.0123456789 "
THEORIES = ("er", "per", "z-corel", "q-subspace", "gf2-subspace", "gf3-subspace", "gf4-subspace", "bogus")
AMBIENTS = ("f", "pf", "gf2", "gf3", "q", "z", "gf4", "foo")
SUBCATEGORIES = ("inj", "all", "split", "f", "gf2", "bogus")
# the flags each check takes, besides --expect and --format
CHECK_FLAGS = {
    "assumption31": ("--C", "--A", "--bound", "--entry-bound", "--seed"),
    "assumption33": ("--C", "--A", "--bound", "--entry-bound", "--seed"),
    "square": ("--C", "--A", "--bound", "--entry-bound"),
    "pi-functorial": ("--C", "--A", "--bound", "--entry-bound", "--seed", "--samples"),
    "tensor-functorial": ("--C", "--A", "--bound", "--entry-bound", "--seed", "--samples"),
    "laws": ("--C", "--A", "--bound", "--entry-bound", "--seed", "--samples"),
    "frobenius": ("--theory", "--scalars"),
}
# the values drawn for each flag of check; the seeds include numerals that
# int() reads but the CLI refuses (underscored, Arabic-Indic, fullwidth)
CHECK_VALUES = {
    "--C": AMBIENTS,
    "--A": SUBCATEGORIES,
    "--theory": THEORIES,
    "--scalars": ("2", "1,-1", "1/2", "x", "1/0"),
    "--bound": (0, 1),
    "--entry-bound": (0, 1),
    "--samples": (0, 1, 2),
    "--seed": (0, 1, -1, "1_0", "\u0663", "-\u0661", "\uff11"),
    "--expect": ("pass", "fail"),
    "--format": ("text", "records"),
}


@st.composite
def mutated(draw, text):
    """``text`` with up to two characters deleted, duplicated or replaced by
    a grammar character; half of the mutations hit a bracket, where the
    parsers decide the structure."""
    for _ in range(draw(st.integers(0, 2))):
        if not text:
            break
        structural = [i for i, c in enumerate(text) if c in "[](){}"]
        if structural and draw(st.booleans()):
            i = draw(st.sampled_from(structural))
        else:
            i = draw(st.integers(0, len(text) - 1))
        how = draw(st.sampled_from(("delete", "duplicate", "replace")))
        new = {"delete": "", "duplicate": text[i] * 2, "replace": draw(st.sampled_from(GRAMMAR))}[how]
        text = text[:i] + new + text[i + 1 :]
    # three-digit sizes are the open memory-guard item, not this contract
    assume(not re.search(r"[0-9]{3}", text))
    return text


# the leg kinds each ambient holds; an unknown ambient is given any kind
LEG_KINDS = {"f": ("fn",), "pf": ("fn", "par"), "gf2": ("gf2",), "gf3": ("gf3",), "q": ("q",), "z": ("z",)}
ANY_KIND = ("fn", "par", "gf2", "gf3", "q", "z")
ENTRIES = {"gf2": ("0", "1"), "gf3": ("0", "1", "2"), "q": ("0", "1", "-1", "1/2", "-2/3"), "z": ("0", "1", "-1", "2")}


@st.composite
def morphisms(draw, kind, dom, cod):
    if kind not in ("fn", "par"):
        entry = st.sampled_from(ENTRIES[kind])
        rows = ",".join("[" + ",".join(draw(entry) for _ in range(dom)) + "]" for _ in range(cod))
        return f"mat {kind} {cod}x{dom} : [{rows}]"
    values = [str(v) for v in range(cod)] + (["_"] if kind == "par" else [])
    table = ",".join(draw(st.sampled_from(values)) for _ in range(dom)) if values else ""
    return f"{kind} {dom} -> {cod} : [{table}]"


@st.composite
def pair_literals(draw, ambient, pair, x, y):
    """A ``pair`` literal from x to y, its legs mostly of a kind that
    ``ambient`` holds."""
    kinds = ANY_KIND if draw(st.integers(0, 5)) == 0 else LEG_KINDS.get(ambient, ANY_KIND)
    apex = draw(SIZES)
    legs = ((apex, x), (apex, y)) if pair == "span" else ((x, apex), (y, apex))
    left, right = (draw(morphisms(draw(st.sampled_from(kinds)), *leg)) for leg in legs)
    return draw(mutated(f"{pair} {{ left = {left}, right = {right} }}"))


# generators with their (dom, cod); which ones a theory binds varies
ATOMS = (
    [(f"id({n})", n, n) for n in range(4)]
    + [(f"sym({n},{m})", n + m, n + m) for n in range(3) for m in range(3)]
    + [("mult", 2, 1), ("comult", 1, 2), ("unit", 0, 1), ("counit", 1, 0), ("undef", 1, 0)]
    + [("w.mult", 2, 1), ("b.comult", 1, 2), ("w.unit", 0, 1), ("b.counit", 1, 0)]
    + [(f"{g}({r})", 1, 1) for g in ("scalar", "coscalar") for r in ("2", "-1", "1/2", "0")]
)


@st.composite
def terms(draw):
    """A term whose ``;`` parts mostly meet, with mutations."""
    text, dom, cod = draw(st.sampled_from(ATOMS))
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            atom, d, c = draw(st.sampled_from(ATOMS))
            text, dom, cod = f"({text}) @ {atom}", dom + d, cod + c
        else:
            meeting = [a for a in ATOMS if a[1] == cod] or [(f"id({cod})", cod, cod)]
            atom, _, cod = draw(st.sampled_from(meeting if draw(st.integers(0, 5)) else ATOMS))
            text = f"{text} ; {atom}"
    return draw(mutated(text))


def _option(flag, values):
    return st.one_of(st.just([]), st.builds(lambda v: [flag, str(v)], st.sampled_from(values)))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("eval", "equal", "compose", "normalize", "check")))
    theory = ["--theory", draw(st.sampled_from(THEORIES))]
    ambient = ["--ambient", draw(st.sampled_from(AMBIENTS))] + draw(_option("--A", SUBCATEGORIES))
    if command == "eval":
        return ["eval", *theory, *draw(_option("--format", ("text", "records"))), draw(terms())]
    if command == "equal":
        first = draw(terms())
        return ["equal", *theory, first, draw(st.one_of(st.just(first), terms()))]
    name = ambient[1]
    pair = draw(st.sampled_from(("span", "cospan")))
    x, y, z = draw(SIZES), draw(SIZES), draw(SIZES)
    if command == "compose":
        second = pair if draw(st.integers(0, 5)) else {"span": "cospan", "cospan": "span"}[pair]
        literals = draw(pair_literals(name, pair, x, y)), draw(pair_literals(name, second, y, z))
        return ["compose", *ambient, *literals]
    if command == "normalize":
        quotient = draw(st.sampled_from(([], ["--quotient"])))
        return ["normalize", *ambient, *quotient, draw(pair_literals(name, pair, x, y))]
    check = draw(st.sampled_from(tuple(CHECK_FLAGS)))
    flags = (*CHECK_FLAGS[check], "--expect", "--format")
    argv = ["check", check]
    for flag in flags:
        argv += draw(_option(flag, CHECK_VALUES[flag]))
    if draw(st.integers(0, 5)) == 0:  # a flag the check does not take
        flag = draw(st.sampled_from([f for f in CHECK_VALUES if f not in flags]))
        argv += [flag, str(draw(st.sampled_from(CHECK_VALUES[flag])))]
    return argv


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(argvs())
def test_cli_exit_codes_keep_their_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 2, (argv, exc.code)
            code = None
    err = err.getvalue()
    if code is None or code == 2:
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
        return
    assert code in (0, 1, 3), (argv, code)
    assert code != 1 or argv[0] == "check", (argv, code)
    assert code != 3 or argv[0] == "equal", (argv, code)
    assert code != 0 or err == "", (argv, err)
