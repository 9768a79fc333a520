import hashlib
import random
import re
from fractions import Fraction

import pytest

from corelate.errors import (
    TermSyntaxError,
    TermTypeError,
    UnknownGenerator,
    UnknownTheory,
)
from corelate import corelrel, diagrams
from corelate.cli import main
from corelate.diagrams import (
    GENERATOR_ARITIES,
    MAX_LEAF_WIRES,
    GenTerm,
    IdTerm,
    SeqTerm,
    SymTerm,
    TensorTerm,
    eval_term,
    get_theory,
    parse_term,
    print_term,
    term_equal,
)
from corelate.corelrel import Relation, corel_identity, gamma, rel_canonical
from corelate.spancospan import cospan_tensor, span_tensor
from oracle_utils import q_circuit_rows, time_limit


# --- parsing -------------------------------------------------------------------


def test_parse_seq_types():
    t = parse_term("unit ; counit")
    assert (t.dom, t.cod) == (0, 0)
    t = parse_term("mult ; comult")
    assert (t.dom, t.cod) == (2, 2)


def test_parse_type_error_carries_arities():
    with pytest.raises(TermTypeError) as err:
        parse_term("unit ; mult")
    assert err.value.expected == 1
    assert err.value.actual == 2


def test_parse_syntax_error_position():
    with pytest.raises(TermSyntaxError) as err:
        parse_term("mult ; %")
    assert err.value.position == 7
    with pytest.raises(TermSyntaxError):
        parse_term("(mult ; comult")
    with pytest.raises(TermSyntaxError):
        parse_term("id(1) id(1)")


def test_parse_unknown_generator():
    with pytest.raises(UnknownGenerator):
        parse_term("frobnicate")


def test_parse_scalars():
    t = parse_term("scalar(1/2)")
    assert t.args == (Fraction(1, 2),)
    t = parse_term("scalar(-3)")
    assert t.args == (Fraction(-3),)


@pytest.mark.parametrize("src, position", [("scalar(1/0)", 9), ("w.mult ; scalar(-12/0)", 20)])
def test_parse_zero_denominator(src, position):
    with pytest.raises(TermSyntaxError) as err:
        parse_term(src)
    assert err.value.position == position
    numerator = src[src.index("(") + 1 : src.index("/")]
    assert str(err.value) == f"scalar {numerator}/0 has a zero denominator (at position {position})"


def test_parse_colors():
    t = parse_term("w.mult ; b.comult")
    assert isinstance(t, SeqTerm)
    assert [u.name for u in t.parts] == ["w.mult", "b.comult"]


@pytest.mark.parametrize(
    "src, message",
    [
        ("(id(1)", "expected ')', found '' (at position 6)"),
        ("id(1))", "trailing input ')' (at position 5)"),
        ("(id(1) id(1))", "expected ')', found 'id' (at position 7)"),
        ("()", "expected an atom, found ')' (at position 1)"),
        ("id(1) @", "expected an atom, found '' (at position 7)"),
        ("((mult ; comult)", "expected ')', found '' (at position 16)"),
        ("(mult ; comult))", "trailing input ')' (at position 15)"),
    ],
)
def test_parse_syntax_error_messages(src, message):
    with pytest.raises(TermSyntaxError) as err:
        parse_term(src)
    assert str(err.value) == message


def test_parse_deep_nesting_without_recursion():
    depth = 5000  # far beyond the interpreter's recursion limit
    t = parse_term("(" * depth + "id(1)" + ")" * depth)
    assert t == IdTerm(1, 1, 1)
    t = parse_term(" ; ".join(["(comult ; mult)"] * depth))
    assert (t.dom, t.cod) == (1, 1)
    assert isinstance(t, SeqTerm) and len(t.parts) == 2 * depth
    with pytest.raises(TermSyntaxError):
        parse_term("(" * depth + "id(1)" + ")" * (depth - 1))


# --- pinned parser outcomes ---------------------------------------------------------
#
# One outcome per source string: the error's class, message and position, or
# the parsed term's type.  The sources are the fixed ones of this file and
# seeded random strings over the token alphabet, some of them token soup and
# the rest typed terms with a few tokens mutated, so a rewrite of the parser must
# keep every message, position and arity.

PIN_SOURCES = [
    "unit ; counit", "mult ; comult", "unit ; mult", "mult ; %", "(mult ; comult", "id(1) id(1)",
    "frobnicate", "scalar(1/2)", "scalar(-3)", "scalar(1/0)", "w.mult ; scalar(-12/0)",
    "w.mult ; b.comult", "(id(1)", "id(1))", "(id(1) id(1))", "()", "id(1) @", "((mult ; comult)",
    "(mult ; comult))", "unit @ unit ; mult", "(mult @ id(1)) ; mult", "w.mult ; scalar(2)",
    "sym(1,2) ; (id(2) @ id(1))", "comult ; (counit @ id(1))",
    "(unit @ unit) ; mult ; comult ; (counit @ counit)", "scalar(2) ; coscalar(2)",
    "(comult @ id(1)) ; (id(1) @ mult)", "(id(1) @ comult) ; (mult @ id(1))", "scalar(2);coscalar(2)",
    "comult ; (undef @ undef)", "scalar(3) ; scalar(2)", "", " ", "w.", "w.(", "id", "id(", "id(1",
    "sym(1)", "sym(1,)", "scalar", "scalar(", "scalar(-)", "scalar(1/)", "scalar(x)", "b.1", "x.mult",
]
PIN_TOKENS = [
    "(", ")", ";", "@", ",", ".", "/", "-", "id", "sym", "unit", "counit", "mult", "comult", "undef",
    "scalar", "coscalar", "w", "b", "x", "0", "1", "2", "3", "12",
]
PIN_LEAVES = {
    0: ["unit", "w.unit", "b.unit", "id(0)"],
    1: ["id(1)", "scalar(1/2)", "scalar(-3)", "coscalar(2)", "counit", "comult", "undef", "w.counit"],
    2: ["id(2)", "sym(1,1)", "mult", "b.mult", "w.mult"],
    3: ["id(3)", "sym(1,2)", "sym(2,1)"],
}


def _pin_term(rng, dom, depth):
    """Text, dom and cod of a random term from ``dom`` wires, mostly well-typed."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        text = rng.choice(PIN_LEAVES.get(dom, [f"id({dom})"]))
        leaf = parse_term(text)
        return text, leaf.dom, leaf.cod
    if roll < 0.65:  # a ; chain, each part typed against the last unless it slips
        parts, d = [], dom
        for _ in range(rng.randint(2, 4)):
            start = d if rng.random() < 0.95 else rng.randint(0, 3)
            text, _, d = _pin_term(rng, start, depth - 1)
            parts.append(text)
        text = " ; ".join(f"({p})" if rng.random() < 0.4 else p for p in parts)
        return text, dom, d
    parts, cod, left = [], 0, dom  # an @ row that splits the wires
    while True:
        take = left if left <= 1 or rng.random() < 0.3 else rng.randint(0, left)
        text, _, c = _pin_term(rng, take, depth - 1)
        parts.append(text if rng.random() < 0.5 else f"({text})")
        cod, left = cod + c, left - take
        if left == 0 and len(parts) >= 2:
            break
    return "(" + " @ ".join(parts) + ")", dom, cod


def _pin_source(rng):
    if rng.random() < 0.4:
        tokens = [rng.choice(PIN_TOKENS) + rng.choice(["", " ", " ", "  "]) for _ in range(rng.randint(0, 12))]
        if rng.random() < 0.1:  # a character that starts no token
            tokens.insert(rng.randint(0, len(tokens)), rng.choice("%#\u00e9\u0663"))
        return "".join(tokens)
    text = _pin_term(rng, rng.randint(0, 3), rng.randint(1, 4))[0]
    tokens = re.findall(r"[0-9]+|[A-Za-z_][A-Za-z_0-9]*|\S", text)
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        k = rng.randrange(len(tokens) + 1)
        edit = rng.random()
        if edit < 0.3:
            tokens[k:k] = [rng.choice(PIN_TOKENS)]
        elif tokens and edit < 0.6:
            del tokens[min(k, len(tokens) - 1)]
        elif tokens:
            tokens[min(k, len(tokens) - 1)] = rng.choice(PIN_TOKENS)
    return " ".join(tokens)


def test_parser_outcomes_pinned():
    rng = random.Random("parser-pin")
    digest = hashlib.sha256()
    parsed = 0
    for src in PIN_SOURCES + [_pin_source(rng) for _ in range(20000)]:
        try:
            t = parse_term(src)
        except (TermSyntaxError, TermTypeError, UnknownGenerator) as err:
            outcome = (type(err).__name__, str(err), getattr(err, "position", None))
        else:
            outcome = (t.dom, t.cod)
            assert parse_term(print_term(t)) == t
            parsed += 1
        digest.update(f"{src!r} {outcome!r}\n".encode())
    assert parsed > 4000
    assert digest.hexdigest() == "b1c6709e28d460329407543cb289ea2a9c5e8933492c69b5ab23990199bf424f"


def test_tokenizer_agrees_with_the_regex():
    # the split tokenizer is the regex's fast path: on every source the
    # parser tokenizes (one that _BAD accepts) it returns what findall does,
    # with numerals that run into names and every kind of whitespace
    rng = random.Random("tokenizer")
    glued = ["1x", "12abc", "a1", "_1", "0_", "3id", "x12y"]
    gaps = ["", " ", "\t", "\n", "\x1c", "\u3000"]
    sources = [src for src in PIN_SOURCES if not diagrams._BAD.search(src)]
    assert len(sources) == len(PIN_SOURCES) - 1  # all but "mult ; %"
    for _ in range(20000):
        words = [rng.choice(PIN_TOKENS if rng.random() < 0.9 else glued) for _ in range(rng.randint(0, 12))]
        sources.append("".join(w + rng.choice(gaps) for w in words))
    for src in sources:
        assert not diagrams._BAD.search(src)
        assert diagrams._tokens(src) == diagrams._TOKEN.findall(src), src


def test_each_distinct_leaf_is_read_once_per_parse(monkeypatch):
    reads = []
    leaf = diagrams._leaf
    monkeypatch.setattr(diagrams, "_leaf", lambda src, tokens, i: reads.append(tokens[i]) or leaf(src, tokens, i))
    block = "(id(1) @ sym(1,1) @ scalar(-1/2)) ; (scalar(-1/2) @ id(1) @ sym(1, 1))"
    t = parse_term(" ; ".join([block] * 10) + " ; (w.mult @ w . mult) ; w.mult")
    assert (t.dom, t.cod) == (4, 1)
    assert sorted(reads) == ["id", "scalar", "sym", "w"]
    leaves = {id(u) for u in _nodes(t) if not isinstance(u, (SeqTerm, TensorTerm))}
    assert len(leaves) == 4
    # a second parse reads them again
    parse_term(block)
    assert len(reads) == 7


# Spellings with equal tokens, or with distinct tokens that concatenate
# alike, and the outcomes the parser has always given them: a leaf is one
# object with a leaf of the same tokens only, and one whose tokens differ
# is read on its own, and raises where it always did.
LEAF_SPELLINGS = {
    "id(1) ; i d(1)": ("UnknownGenerator", "unknown generator 'i'", None),
    "w.mult @ w . mult": (4, 2),
    "id(1) @ id (1)": (2, 2),
    "id(1) @ sym(1,1) @ id(1) @ sym(1 , 1)": (6, 6),
    "scalar(-1/2) ; scalar(-1/ 2)": (1, 1),
    "id(11) ; id(1 1)": ("TermSyntaxError", "expected ')', found '1' (at position 14)", 14),
    "scalar(12) ; scalar(1 2)": ("TermSyntaxError", "expected ')', found '2' (at position 22)", 22),
    "sym(1,12) ; sym(1,1 2)": ("TermSyntaxError", "expected ')', found '2' (at position 20)", 20),
    "scalar(-12/3) ; scalar(- 1 2/3)": ("TermSyntaxError", "expected ')', found '2' (at position 27)", 27),
    "scalar(2/12) ; scalar(2/1 2)": ("TermSyntaxError", "expected ')', found '2' (at position 26)", 26),
}


@pytest.mark.parametrize("src", LEAF_SPELLINGS)
def test_leaf_spellings_keep_their_outcomes(src):
    try:
        t = parse_term(src)
    except (TermSyntaxError, TermTypeError, UnknownGenerator) as err:
        outcome = (type(err).__name__, str(err), getattr(err, "position", None))
    else:
        outcome = (t.dom, t.cod)
        # equal tokens are one leaf
        assert len({id(u) for u in t.parts}) == len(set(t.parts))
    assert outcome == LEAF_SPELLINGS[src]


def test_tensor_binds_tighter_than_seq():
    t = parse_term("unit @ unit ; mult")
    assert isinstance(t, SeqTerm)
    assert isinstance(t.parts[0], TensorTerm)


@pytest.mark.parametrize(
    "srcs",
    [
        ["(unit ; counit) ; id(0)", "unit ; (counit ; id(0))", "unit ; counit ; id(0)", "((unit ; counit) ; (id(0)))"],
        ["(id(1) @ mult) @ unit", "id(1) @ (mult @ unit)", "id(1) @ mult @ unit"],
    ],
)
def test_brackets_around_the_same_operator_only_regroup(srcs):
    terms = [parse_term(src) for src in srcs]
    assert len(terms[0].parts) == 3
    assert all(t == terms[0] and hash(t) == hash(terms[0]) for t in terms)
    assert print_term(terms[0]) == srcs[2]


def test_parsed_terms_have_no_part_of_their_own_class():
    t = parse_term("(comult ; (id(1) @ (comult ; mult)) ; mult) ; ((comult @ id(0)) @ unit) ; (mult @ id(1)) ; mult")
    todo = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, (SeqTerm, TensorTerm)):
            assert len(u.parts) >= 2
            assert not any(type(p) is type(u) for p in u.parts)
            todo += u.parts
    assert print_term(t) == "comult ; id(1) @ (comult ; mult) ; mult ; comult @ id(0) @ unit ; mult @ id(1) ; mult"


# --- printing round trip ----------------------------------------------------------


ROUND_TRIP_SOURCES = [
    "unit ; counit",
    "(mult @ id(1)) ; mult",
    "w.mult ; scalar(2)",
    "scalar(1/2)",
    "sym(1,2) ; (id(2) @ id(1))",
    "comult ; (counit @ id(1))",
    "(unit @ unit) ; mult ; comult ; (counit @ counit)",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_round_trip_fixed(src):
    t = parse_term(src)
    assert parse_term(print_term(t)) == t


def random_term(rng, depth=3):
    atoms = [
        IdTerm(1, 1, 1),
        IdTerm(0, 0, 0),
        SymTerm(2, 2, 1, 1),
        GenTerm(0, 1, "unit", ()),
        GenTerm(1, 0, "counit", ()),
        GenTerm(2, 1, "mult", ()),
        GenTerm(1, 2, "comult", ()),
    ]
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(atoms)
    if rng.random() < 0.5:
        parts = []
        for _ in range(rng.randint(2, 3)):
            u = random_term(rng, depth - 1)
            parts += u.parts if isinstance(u, TensorTerm) else [u]
        return TensorTerm(sum(u.dom for u in parts), sum(u.cod for u in parts), tuple(parts))
    a = random_term(rng, depth - 1)
    # force a composable right factor
    b = IdTerm(a.cod, a.cod, a.cod)
    return SeqTerm(a.dom, b.cod, (*(a.parts if isinstance(a, SeqTerm) else [a]), b))


def test_print_term_deep_chain_without_recursion():
    layers = " ; ".join(["(comult ; mult)"] * 2000)
    printed = print_term(parse_term(layers))
    assert printed == " ; ".join(["comult ; mult"] * 2000)
    assert print_term(parse_term(printed)) == printed


def test_term_equality_and_hash_are_structural():
    """On shallow terms, == agrees with the printed form (which reparses to
    an identical tree), and equal terms hash equal."""
    rng = random.Random(7)
    terms = [random_term(rng) for _ in range(150)] + [parse_term(src) for src in ROUND_TRIP_SOURCES]
    for t in terms:
        for u in terms[:40]:
            same = type(t) is type(u) and (t.dom, t.cod) == (u.dom, u.cod) and print_term(t) == print_term(u)
            assert (t == u) == same
            if same:
                assert hash(t) == hash(u)
    assert IdTerm(1, 1, 1) != GenTerm(1, 1, "scalar", (Fraction(1),))
    assert GenTerm(1, 1, "scalar", (Fraction(1, 2),)) != GenTerm(1, 1, "scalar", (Fraction(2),))
    # one printed form, two types
    assert print_term(GenTerm(1, 1, "mult", ())) == print_term(GenTerm(2, 1, "mult", ()))
    assert GenTerm(1, 1, "mult", ()) != GenTerm(2, 1, "mult", ())


def test_term_equality_and_hash_of_deep_chain_without_recursion():
    layers = ["(comult ; mult)"] * 2000
    t = parse_term(" ; ".join(layers))
    assert t == parse_term(" ; ".join(layers))
    assert hash(t) == hash(parse_term(" ; ".join(layers)))
    layers[1000] = "(comult ; sym(1,1) ; mult)"
    assert t != parse_term(" ; ".join(layers))


def test_round_trip_random_terms():
    rng = random.Random(0)
    for _ in range(200):
        t = random_term(rng)
        assert parse_term(print_term(t)) == t


# --- evaluation --------------------------------------------------------------------


def test_eval_er_extra_law():
    er = get_theory("er")
    assert eval_term(parse_term("unit ; counit"), er) == corel_identity(0, er.ambient)


def test_eval_er_special_law():
    er = get_theory("er")
    assert eval_term(parse_term("comult ; mult"), er) == corel_identity(1, er.ambient)


def test_eval_subspace_scalar_cancel():
    qs = get_theory("q-subspace")
    assert eval_term(parse_term("scalar(2) ; coscalar(2)"), qs) == qs.identity(1)


def test_term_equal_frobenius_er():
    er = get_theory("er")
    lhs = parse_term("(comult @ id(1)) ; (id(1) @ mult)")
    rhs = parse_term("(id(1) @ comult) ; (mult @ id(1))")
    assert term_equal(lhs, rhs, er)
    assert term_equal(lhs, parse_term("mult ; comult"), er)


def test_term_equal_z_scalars():
    zc = get_theory("z-corel")
    assert not term_equal(parse_term("scalar(2);coscalar(2)"), parse_term("id(1)"), zc)
    assert term_equal(parse_term("scalar(1);coscalar(1)"), parse_term("id(1)"), zc)
    assert term_equal(parse_term("scalar(-1);coscalar(-1)"), parse_term("id(1)"), zc)


def test_term_equal_reflexive():
    er = get_theory("er")
    t = parse_term("mult ; comult")
    assert term_equal(t, t, er)


def test_term_equal_type_mismatch():
    er = get_theory("er")
    with pytest.raises(TermTypeError):
        term_equal(parse_term("unit"), parse_term("counit"), er)


@pytest.mark.parametrize("theory", ["er", "per", "z-corel", "gf2-subspace", "gf3-subspace", "q-subspace"])
def test_theory_legs_have_the_generator_arities(theory):
    # a forward leg f: n -> m is a generator n -> m, a backward one m -> n
    th = get_theory(theory)
    for name, (way, f) in th.legs.items():
        assert way in ("f", "b"), name
        assert GENERATOR_ARITIES[name] == ((f.dom, f.cod) if way == "f" else (f.cod, f.dom)), name
        value = eval_term(parse_term(name), th)
        assert (value.dom, value.cod) == GENERATOR_ARITIES[name], name


def test_get_theory_builds_each_theory_once(capsys):
    assert get_theory(" ER ") is get_theory("er")
    assert get_theory("GF3-Subspace") is get_theory("gf3-subspace")
    # an unknown name is still a user error, and nothing is kept for it
    assert main(["eval", "--theory", " Nope ", "id(1)"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert "nope" not in diagrams._THEORIES


def test_unknown_theory_and_generator():
    with pytest.raises(UnknownTheory):
        get_theory("nope")
    er = get_theory("er")
    with pytest.raises(UnknownGenerator):
        eval_term(parse_term("w.mult"), er)
    zc = get_theory("z-corel")
    with pytest.raises(UnknownGenerator):
        eval_term(parse_term("scalar(1/2)"), zc)
    # leaves are evaluated left to right: the first that fails is reported
    for src in ("w.mult @ scalar(2)", "comult ; w.mult ; scalar(2)", "(comult ; w.mult) @ (b.mult ; scalar(2))"):
        with pytest.raises(UnknownGenerator, match="'w.mult'"):
            eval_term(parse_term(src), er)


def test_eval_is_monoidal_on_terms():
    # interchange holds because the target satisfies it
    er = get_theory("er")
    t1, t2 = parse_term("comult"), parse_term("mult")
    t3, t4 = parse_term("mult"), parse_term("comult")
    lhs = SeqTerm(3, 3, (TensorTerm(3, 4, (t1, t2)), TensorTerm(4, 3, (t3, t4))))
    rhs = TensorTerm(3, 3, (SeqTerm(1, 1, (t1, t3)), SeqTerm(2, 2, (t2, t4))))
    assert term_equal(lhs, rhs, er)


def test_sym_natural_in_er():
    er = get_theory("er")
    assert term_equal(parse_term("sym(1,1) ; sym(1,1)"), parse_term("id(2)"), er)
    assert term_equal(parse_term("sym(1,1) ; mult"), parse_term("mult"), er)


def test_per_undef_generator():
    per = get_theory("per")
    undef = eval_term(parse_term("undef"), per)
    assert undef.apex == 0
    assert not term_equal(parse_term("undef"), parse_term("counit"), per)
    # undefined absorbs: comult ; (undef @ undef) = undef
    assert term_equal(parse_term("comult ; (undef @ undef)"), parse_term("undef"), per)


def test_gf_subspace_theories_parametric():
    g5 = get_theory("gf5-subspace")
    assert term_equal(parse_term("scalar(2) ; coscalar(2)"), parse_term("id(1)"), g5)
    assert term_equal(parse_term("scalar(3) ; scalar(2)"), parse_term("id(1)"), g5)


# --- evaluation strategy ---------------------------------------------------------


def test_eval_deep_terms_without_recursion():
    er = get_theory("er")
    layers = " ; ".join(["(comult ; mult)"] * 3000)
    assert eval_term(parse_term(layers), er) == corel_identity(1, er.ambient)
    nested_row = parse_term("id(1) @ (" * 3000 + "id(1)" + ")" * 3000)
    assert isinstance(nested_row, TensorTerm) and len(nested_row.parts) == 3001
    assert eval_term(nested_row, er) == corel_identity(3001, er.ambient)


def _nodes(t) -> list:
    """Every occurrence of every node of t."""
    out, todo = [], [t]
    while todo:
        u = todo.pop()
        out.append(u)
        if isinstance(u, (SeqTerm, TensorTerm)):
            todo += u.parts
    return out


def _unshared(t):
    """A copy of t built node by node, with a new object for every occurrence."""
    built: list = []
    todo = [(t, False)]
    while todo:
        u, parts_built = todo.pop()
        if not isinstance(u, (SeqTerm, TensorTerm)):
            built.append(type(u)(*(getattr(u, name) for name in u.__dataclass_fields__)))
        elif parts_built:
            parts = tuple(built[-len(u.parts) :])
            del built[-len(u.parts) :]
            built.append(type(u)(u.dom, u.cod, parts))
        else:
            todo.append((u, True))
            todo += ((p, False) for p in reversed(u.parts))
    return built[0]


def test_shared_and_unshared_terms_agree():
    # the parser shares equal subterms; a copy that shares nothing evaluates,
    # compares, hashes and prints the same, in every theory
    shared_nodes = occurrences = 0
    for theory, text in _eval_pin_corpus():
        t = parse_term(text)
        u = _unshared(t)
        nodes, copy_nodes = _nodes(t), _nodes(u)
        assert len({id(v) for v in copy_nodes}) == len(copy_nodes) == len(nodes)
        shared_nodes, occurrences = shared_nodes + len({id(v) for v in nodes}), occurrences + len(nodes)
        assert t == u and u == t and hash(t) == hash(u) and print_term(t) == print_term(u) == print_term(parse_term(text))
        th = get_theory(theory)
        value, copy_value = eval_term(t, th), eval_term(u, th)
        assert value == copy_value and repr(value) == repr(copy_value)
    assert shared_nodes < occurrences  # 8,240 of 13,325


def test_parse_shares_equal_subterms_within_one_parse_only():
    text = "(comult ; mult) @ id(1) @ (comult ; mult) ; (id(1) @ (comult ; mult) @ id(1))"
    t = parse_term(text)
    first, second = t.parts
    assert first.parts[0] is first.parts[2] is second.parts[1]
    assert first.parts[1] is second.parts[0] is second.parts[2]
    assert not {id(u) for u in _nodes(t)} & {id(u) for u in _nodes(parse_term(text))}


def test_a_repeated_block_is_evaluated_once_per_call(monkeypatch):
    calls = []
    compose = corelrel.corel_compose
    monkeypatch.setattr(corelrel, "corel_compose", lambda a, b: calls.append(1) or compose(a, b))
    k, er = 12, get_theory("er")
    t = parse_term(" @ ".join(["(comult ; mult)"] * k))
    assert isinstance(t, TensorTerm) and len(t.parts) == k
    assert eval_term(t, er) == corel_identity(k, er.ambient)
    assert len(calls) == 1
    # no value outlives its call: a second evaluation composes again
    assert eval_term(t, er) == corel_identity(k, er.ambient)
    assert len(calls) == 2
    # a copy that shares nothing composes each occurrence
    assert eval_term(_unshared(t), er) == corel_identity(k, er.ambient)
    assert len(calls) == 2 + k


def _alternating_nest(levels, core="id(1)"):
    """``comult ; (id(1) @ (...)) ; mult`` around ``core``: a bracket nest
    2 * levels deep whose groups alternate ``;`` and ``@``."""
    return "comult ; (id(1) @ (" * levels + core + ")) ; mult" * levels


def test_deep_alternating_nest_without_recursion():
    levels = 2000  # 4000 nested groups, none spliced into its parent
    t = parse_term(_alternating_nest(levels))
    depth, u = 0, t
    while isinstance(u, (SeqTerm, TensorTerm)):
        depth, u = depth + 1, u.parts[1]
    assert depth == 2 * levels
    assert t == parse_term(_alternating_nest(levels))
    assert hash(t) == hash(parse_term(_alternating_nest(levels)))
    other = parse_term(_alternating_nest(levels, "comult ; mult"))
    assert t != other
    printed = print_term(t)
    assert printed.startswith("comult ; id(1) @ (comult ; id(1) @ (")
    assert parse_term(printed) == t
    assert repr(t) == f"SeqTerm(1 -> 1: {printed})"
    er = get_theory("er")
    assert eval_term(t, er) == eval_term(other, er) == corel_identity(1, er.ambient)


def test_repr_deep_terms_without_recursion():
    chain = parse_term(" ; ".join(["(comult ; mult)"] * 2000))
    text = repr(chain)
    assert text == "SeqTerm(1 -> 1: " + " ; ".join(["comult ; mult"] * 2000) + ")"
    assert parse_term(text[len("SeqTerm(1 -> 1: ") : -1]) == chain
    nested = parse_term("id(1) @ (" * 3000 + "id(1)" + ")" * 3000)
    assert repr(nested) == "TensorTerm(3001 -> 3001: " + " @ ".join(["id(1)"] * 3001) + ")"
    assert repr(parse_term("scalar(-1/2)")) == "GenTerm(1 -> 1: scalar(-1/2))"


ROW_ATOMS = {
    "er": ["id(1)", "id(2)", "sym(1,2)", "unit", "counit", "mult", "comult", "(comult ; mult)"],
    "per": ["id(1)", "sym(2,1)", "unit", "counit", "mult", "comult", "undef", "(mult ; undef)"],
    "gf2-subspace": ["id(1)", "sym(1,1)", "w.mult", "b.comult", "w.unit", "b.counit", "scalar(1)"],
    "q-subspace": ["id(2)", "sym(1,2)", "w.comult", "b.mult", "scalar(1/2)", "coscalar(-3)"],
    "z-corel": ["id(1)", "sym(2,1)", "w.mult", "b.comult", "w.counit", "scalar(2)", "coscalar(3)"],
}


@pytest.mark.parametrize("theory", sorted(ROW_ATOMS))
def test_flattened_row_equals_nested_binary_fold(theory):
    # one n-ary tensor per @ row, against the binary gamma / rel_canonical fold
    th = get_theory(theory)
    amb = th.ambient
    rng = random.Random(theory)
    for _ in range(40):
        atoms = [rng.choice(ROW_ATOMS[theory]) for _ in range(rng.randint(1, 7))]
        values = [eval_term(parse_term(a), th) for a in atoms]
        fold = values[0]
        for v in values[1:]:
            if th.kind is Relation:
                fold = rel_canonical(span_tensor(fold.span, v.span, amb), amb)
            else:
                fold = gamma(cospan_tensor(fold.cospan, v.cospan, amb), amb)
        flat = eval_term(parse_term(" @ ".join(atoms)), th)
        right_nested = eval_term(parse_term(" @ (".join(atoms) + ")" * (len(atoms) - 1)), th)
        assert flat == right_nested == fold
        assert repr(flat) == repr(fold)


# --- pinned evaluation outputs ------------------------------------------------------
#
# A seeded corpus of string diagrams from the benchmark's circuit generator,
# in all five theories.  The hash covers each term's printed canonical form
# and, for relations, the repr of the span and the subspace rows, so a
# refactor of the semantic layers must leave every evaluated value
# byte-identical; a deliberate change of output updates the pin.


def _eval_pin_corpus():
    import oracle_utils  # noqa: F401  (puts perfbench/ on the path)
    import circuits

    blocks = {"er": circuits.ER_BLOCKS, "per": circuits.PER_BLOCKS, **circuits.LINEAR_BLOCKS}
    for theory in ("er", "per", "gf2-subspace", "q-subspace", "z-corel"):
        rng = random.Random(f"eval-pin:{theory}")
        for k in range(120):
            layers = circuits.random_circuit(rng, blocks[theory], 1 + k % 6, 1 + k % 4)
            yield theory, circuits.circuit_text(layers)


def test_eval_outputs_pinned():
    from corelate.corelrel import rel_subspace_rows
    from corelate.literals import format_canonical

    digest = hashlib.sha256()
    for theory, text in _eval_pin_corpus():
        value = eval_term(parse_term(text), get_theory(theory))
        lines = [theory, text, format_canonical(value)]
        if isinstance(value, Relation):
            lines += [repr(value.span), repr(rel_subspace_rows(value))]
        digest.update(("\n".join(lines) + "\n").encode())
    assert digest.hexdigest() == "39706e9b51f56ed4d75ecd1e285c83e2261fcee0d10065a3406559b76d6eea94"


@time_limit(60)
def test_wide_q_circuits_match_the_fraction_oracle():
    # no check of the suite goes past 3x3 legs, and the growth of the Q
    # core's integer rows only shows on wide inputs: q-subspace circuits of
    # width and depth 24, from the benchmark's linear blocks with scalars
    # 2, -1, 1/2 and -2/3, against a Fraction elimination apart from linmap;
    # rows that grow without bound fail the time limit instead of hanging
    import circuits  # on the path through oracle_utils
    from corelate.corelrel import rel_subspace_rows

    assert circuits.LINEAR_SCALARS["q-subspace"] == (2, -1, Fraction(1, 2), Fraction(-2, 3))
    theory = get_theory("q-subspace")
    non_integral = 0
    for seed in range(3):
        layers = circuits.random_circuit(random.Random(f"wide-q:{seed}"), circuits.LINEAR_BLOCKS["q-subspace"], 24, 24)
        rows = rel_subspace_rows(eval_term(parse_term(circuits.circuit_text(layers)), theory))
        assert all(type(v) is Fraction for row in rows for v in row)
        assert rows == q_circuit_rows(layers, 24), seed
        non_integral += sum(v.denominator > 1 for row in rows for v in row)
    assert non_integral > 0


def test_leaves_up_to_the_wire_limit_parse():
    n = MAX_LEAF_WIRES
    assert parse_term(f"id({n})") == IdTerm(n, n, n)
    assert parse_term(f"sym(1,{n - 1})") == SymTerm(n, n, 1, n - 1)
    assert eval_term(parse_term(f"id({n})"), get_theory("er")) == corel_identity(n, get_theory("er").ambient)
    for text in (f"id({n + 1})", f"sym({n},1)", f"id(1) @ sym(0,{n + 1})"):
        with pytest.raises(TermSyntaxError, match=f"more than the {n} a leaf may have"):
            parse_term(text)
