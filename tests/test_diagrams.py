import random
from fractions import Fraction

import pytest

from corelate.errors import (
    TermSyntaxError,
    TermTypeError,
    UnknownGenerator,
    UnknownTheory,
)
from corelate.diagrams import (
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
from corelate.corelrel import corel_identity, gamma, rel_canonical, rel_identity
from corelate.spancospan import cospan_tensor, span_tensor


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


def test_parse_colors():
    t = parse_term("w.mult ; b.comult")
    assert isinstance(t, SeqTerm)
    assert t.first.name == "w.mult"
    assert t.second.name == "b.comult"


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
    with pytest.raises(TermSyntaxError):
        parse_term("(" * depth + "id(1)" + ")" * (depth - 1))


def test_tensor_binds_tighter_than_seq():
    t = parse_term("unit @ unit ; mult")
    assert isinstance(t, SeqTerm)
    assert isinstance(t.first, TensorTerm)


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
    a = random_term(rng, depth - 1)
    if rng.random() < 0.5:
        b = random_term(rng, depth - 1)
        return TensorTerm(a.dom + b.dom, a.cod + b.cod, a, b)
    # force a composable right factor
    b = IdTerm(a.cod, a.cod, a.cod)
    return SeqTerm(a.dom, b.cod, a, b)


def test_print_term_deep_chain_without_recursion():
    layers = " ; ".join(["(comult ; mult)"] * 2000)
    printed = print_term(parse_term(layers))
    assert print_term(parse_term(printed)) == printed


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
    assert eval_term(parse_term("scalar(2) ; coscalar(2)"), qs) == rel_identity(1, qs.ambient)


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


def test_unknown_theory_and_generator():
    with pytest.raises(UnknownTheory):
        get_theory("nope")
    er = get_theory("er")
    with pytest.raises(UnknownGenerator):
        eval_term(parse_term("w.mult"), er)
    zc = get_theory("z-corel")
    with pytest.raises(UnknownGenerator):
        eval_term(parse_term("scalar(1/2)"), zc)


def test_eval_is_monoidal_on_terms():
    # interchange holds because the target satisfies it
    er = get_theory("er")
    t1, t2 = parse_term("comult"), parse_term("mult")
    t3, t4 = parse_term("mult"), parse_term("comult")
    lhs = SeqTerm(3, 3, TensorTerm(3, 4, t1, t2), TensorTerm(4, 3, t3, t4))
    rhs = TensorTerm(3, 3, SeqTerm(1, 1, t1, t3), SeqTerm(2, 2, t2, t4))
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
    nested_row = "id(1) @ (" * 3000 + "id(1)" + ")" * 3000
    assert eval_term(parse_term(nested_row), er) == corel_identity(3001, er.ambient)


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
            if th.kind == "corel":
                fold = gamma(cospan_tensor(fold.cospan, v.cospan, amb), amb)
            else:
                fold = rel_canonical(span_tensor(fold.span, v.span, amb), amb)
        flat = eval_term(parse_term(" @ ".join(atoms)), th)
        right_nested = eval_term(parse_term(" @ (".join(atoms) + ")" * (len(atoms) - 1)), th)
        assert flat == right_nested == fold
        assert repr(flat) == repr(fold)
