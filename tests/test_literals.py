import random

import pytest

from corelate.errors import TypeMismatch
from corelate.exactnum import GF, QQ, ZZ
from corelate.finfn import fn, par
from corelate.linmap import mat
from corelate.corelrel import corel_identity, gamma
from corelate.literals import (
    format_canonical,
    format_corelation,
    format_morphism,
    format_pair,
    format_partition_blocks,
    format_relation,
    parse_morphism,
    parse_pair,
)
from corelate.spancospan import Cospan, Span, get_ambient
from oracle_utils import rel_from_subspace_rows

F = get_ambient("f")
PF = get_ambient("pf")
Z = get_ambient("z")


def test_finmap_round_trip():
    f = fn(3, 2, [0, 1, 1])
    text = format_morphism(f)
    assert text == "fn 3 -> 2 : [0,1,1]"
    assert parse_morphism(text) == f


def test_parmap_round_trip():
    f = par(2, 2, [None, 0])
    text = format_morphism(f)
    assert text == "par 2 -> 2 : [_,0]"
    assert parse_morphism(text) == f


def test_matrix_round_trip():
    a = mat(QQ, 2, 3, [[1, 0, 2], [0, 1, -1]])
    text = format_morphism(a)
    assert text == "mat q 2x3 : [[1,0,2],[0,1,-1]]"
    assert parse_morphism(text) == a


def test_matrix_rational_entries():
    a = mat(QQ, 1, 2, [["1/2", "-3/4"]])
    text = format_morphism(a)
    assert text == "mat q 1x2 : [[1/2,-3/4]]"
    assert parse_morphism(text) == a


def test_matrix_gf_and_z_tags():
    a = mat(GF(5), 1, 1, [[3]])
    assert parse_morphism(format_morphism(a)) == a
    b = mat(ZZ, 0, 2, [])
    assert format_morphism(b) == "mat z 0x2 : []"
    assert parse_morphism("mat z 0x2 : []") == b


def test_empty_tables():
    assert parse_morphism("fn 0 -> 3 : []") == fn(0, 3, [])
    assert format_morphism(fn(0, 3, [])) == "fn 0 -> 3 : []"


def test_random_round_trips():
    rng = random.Random(0)
    for _ in range(100):
        kind = rng.choice(("fn", "par", "mat"))
        if kind == "fn":
            f = F.random_morphism(rng, rng.randint(0, 4), rng.randint(1, 4))
        elif kind == "par":
            f = PF.random_morphism(rng, rng.randint(0, 4), rng.randint(0, 3))
        else:
            amb = get_ambient(rng.choice(("q", "z", "gf2")))
            f = amb.random_morphism(rng, rng.randint(0, 3), rng.randint(0, 3), 5)
        assert parse_morphism(format_morphism(f)) == f


def test_cospan_span_literals():
    c = Cospan(fn(1, 2, [0]), fn(1, 2, [1]))
    text = format_pair(c)
    assert parse_pair(text, F, Cospan) == c
    s = Span(fn(2, 1, [0, 0]), fn(2, 2, [0, 1]))
    assert parse_pair(format_pair(s), F, Span) == s
    # a NamedTuple span equals the cospan of the same legs: compare types too
    assert [type(parse_pair(format_pair(x), F)) for x in (c, s)] == [Cospan, Span]
    with pytest.raises(TypeMismatch, match="^expected a cospan literal$"):
        parse_pair(format_pair(s), F, Cospan)
    with pytest.raises(TypeMismatch):
        parse_morphism("fn oops")


def test_partition_printout():
    assert format_partition_blocks(((0, 2), (1,)), 2) == "{{x0,y0},{x1}}"
    assert format_partition_blocks((), 0) == "{}"


def test_corelation_printouts():
    c = gamma(Cospan(fn(2, 1, [0, 0]), fn(1, 1, [0])), F)
    assert format_corelation(c) == "corel f 2 -> 1 : {{x0,x1,y0}}"
    zc = gamma(Cospan(mat(ZZ, 1, 1, [[2]]), mat(ZZ, 1, 1, [[2]])), Z)
    assert (
        format_corelation(zc)
        == "corel z 1 -> 1 : cospan { left = mat z 1x1 : [[2]], right = mat z 1x1 : [[2]] }"
    )


def test_relation_printout():
    r = rel_from_subspace_rows([(1, 2)], 1, 1, get_ambient("q"))
    assert format_relation(r) == "subspace q 1 -> 1 : [[1,2]]"
    assert format_canonical(r) == format_relation(r)
    assert format_canonical(corel_identity(0, F)) == "corel f 0 -> 0 : {}"
