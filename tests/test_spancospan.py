import random
from itertools import product

import pytest

from corelate.errors import CorelateError, NoSuchMorphism, TypeMismatch, UnknownAmbient
from corelate.exactnum import GF, ZZ
from corelate.finfn import ParMap, enumerate_parmaps, fn, fn_compose, par
from corelate.linmap import mat
from corelate.spancospan import (
    Cospan,
    Span,
    cospan_canonical,
    cospan_compose,
    cospan_identity,
    cospan_tensor,
    embed_bwd_cospan,
    embed_fwd_cospan,
    embed_fwd_span,
    get_ambient,
    make_cospan,
    span_canonical,
    span_compose,
    span_identity,
    span_tensor,
)
from oracle_utils import (
    reference_par_canonical_cospan,
    reference_par_canonical_span,
    reference_par_pullback_mediator,
    reference_par_pushout_mediator,
)

F = get_ambient("f")
INJ_ALL = get_ambient("f", "all")
PF = get_ambient("pf")
G2 = get_ambient("gf2")
Z = get_ambient("z")
AMBIENTS = (F, PF, G2, get_ambient("q"), Z)


def test_registry():
    assert get_ambient("f").a_name == "inj"
    assert get_ambient("f", "f").a_name == "all"
    assert get_ambient("z").a_name == "split"
    assert get_ambient("gf5").ring == GF(5)
    with pytest.raises(ValueError):
        get_ambient("nope")
    with pytest.raises(ValueError):
        get_ambient("q", "split")


def test_ambient_equality_by_name():
    assert get_ambient("f") == get_ambient("f", "inj")
    assert get_ambient("f") != get_ambient("f", "all")
    assert get_ambient("gf2") == get_ambient("gf2")


def test_make_cospan_validates_apex():
    with pytest.raises(TypeMismatch):
        make_cospan(fn(1, 2, [0]), fn(1, 3, [0]), F)


def test_make_cospan_refuses_legs_of_another_ambient():
    with pytest.raises(TypeMismatch, match="a par leg is not a morphism of ambient f"):
        make_cospan(par(1, 1, [None]), fn(1, 1, [0]), F)
    assert make_cospan(fn(1, 1, [0]), par(1, 1, [None]), get_ambient("pf")) == (fn(1, 1, [0]), par(1, 1, [None]))


def test_cospan_compose_identity():
    c = Cospan(fn(2, 3, [0, 1]), fn(1, 3, [2]))
    lhs = cospan_canonical(cospan_compose(cospan_identity(2, F), c, F), F)
    assert lhs == cospan_canonical(c, F)
    rhs = cospan_canonical(cospan_compose(c, cospan_identity(1, F), F), F)
    assert rhs == cospan_canonical(c, F)


def test_cospan_compose_example():
    # multiplication then comultiplication glues everything to one point
    mult = Cospan(fn(2, 1, [0, 0]), fn(1, 1, [0]))
    comult = Cospan(fn(1, 1, [0]), fn(2, 1, [0, 0]))
    out = cospan_compose(mult, comult, F)
    assert out == Cospan(fn(2, 1, [0, 0]), fn(2, 1, [0, 0]))


def test_cospan_compose_foot_mismatch():
    with pytest.raises(TypeMismatch):
        cospan_compose(cospan_identity(1, F), cospan_identity(2, F), F)


def test_span_compose_identity_and_example():
    s = Span(fn(2, 1, [0, 0]), fn(2, 2, [0, 1]))
    assert span_canonical(span_compose(span_identity(1, F), s, F), F) == span_canonical(s, F)
    # composing with the reversed span yields a two-element apex
    rev = Span(fn(2, 2, [0, 1]), fn(2, 1, [0, 0]))
    out = span_compose(s, rev, F)
    assert out.left.dom == 2


def test_span_compose_empty_injections():
    s = Span(fn(0, 0, []), fn(0, 0, []))
    assert span_compose(s, s, F) == s


def test_cospan_canonical_relabels_by_first_occurrence():
    c = Cospan(fn(1, 2, [1]), fn(1, 2, [0]))
    assert cospan_canonical(c, F) == Cospan(fn(1, 2, [0]), fn(1, 2, [1]))
    ident = cospan_identity(2, F)
    assert cospan_canonical(ident, F) == ident
    unhit = Cospan(fn(0, 1, []), fn(0, 1, []))
    assert cospan_canonical(unhit, F) == unhit


def test_cospan_canonical_complete_invariant_f():
    # canonical forms agree exactly on iso classes (exhaustive, small)
    from itertools import permutations

    from corelate.finfn import enumerate_finmaps

    for n, m, apex in ((1, 1, 2), (2, 1, 2), (2, 2, 2)):
        cospans = [
            Cospan(f, g)
            for f in enumerate_finmaps(n, apex)
            for g in enumerate_finmaps(m, apex)
        ]
        for c1 in cospans:
            for c2 in cospans:
                iso = any(
                    fn_compose(c1.left, p) == c2.left and fn_compose(c1.right, p) == c2.right
                    for perm in permutations(range(apex))
                    for p in [fn(apex, apex, perm)]
                )
                assert iso == (cospan_canonical(c1, F) == cospan_canonical(c2, F))


def test_matrix_canonical_forms_invariant_under_apex_change():
    from corelate.linmap import mat_mul

    g = mat(ZZ, 2, 2, [[1, 1], [0, 1]])  # unimodular
    c = Cospan(mat(ZZ, 2, 1, [[2], [0]]), mat(ZZ, 2, 2, [[1, 0], [1, 3]]))
    moved = Cospan(mat_mul(g, c.left), mat_mul(g, c.right))
    assert cospan_canonical(c, Z) == cospan_canonical(moved, Z)


def test_embed_fwd_functorial():
    rng = random.Random(2)
    for amb in AMBIENTS:
        for _ in range(20):
            a, b, c = rng.randint(0, 3), rng.randint(1, 3), rng.randint(1, 3)
            f = amb.random_morphism(rng, a, b)
            g = amb.random_morphism(rng, b, c)
            fg = amb.compose(f, g)
            lhs = cospan_compose(embed_fwd_cospan(f, amb), embed_fwd_cospan(g, amb), amb)
            assert cospan_canonical(lhs, amb) == cospan_canonical(embed_fwd_cospan(fg, amb), amb)
            slhs = span_compose(embed_fwd_span(f, amb), embed_fwd_span(g, amb), amb)
            assert span_canonical(slhs, amb) == span_canonical(embed_fwd_span(fg, amb), amb)


def test_embed_bwd_contravariant():
    rng = random.Random(3)
    for amb in AMBIENTS:
        for _ in range(20):
            a, b, c = rng.randint(0, 3), rng.randint(1, 3), rng.randint(1, 3)
            g = amb.random_morphism(rng, a, b)
            h = amb.random_morphism(rng, b, c)
            hg = amb.compose(g, h)
            lhs = cospan_compose(embed_bwd_cospan(h, amb), embed_bwd_cospan(g, amb), amb)
            assert cospan_canonical(lhs, amb) == cospan_canonical(embed_bwd_cospan(hg, amb), amb)


def test_identity_cospan_neutral_all_ambients():
    rng = random.Random(4)
    for amb in AMBIENTS:
        for _ in range(15):
            n, m = rng.randint(0, 3), rng.randint(0, 3)
            apex = max(n, m, 1)
            c = Cospan(amb.random_morphism(rng, n, apex), amb.random_morphism(rng, m, apex))
            lhs = cospan_compose(cospan_identity(n, amb), c, amb)
            assert cospan_canonical(lhs, amb) == cospan_canonical(c, amb)


def test_tensor_with_empty_unit():
    for amb in AMBIENTS:
        c = cospan_identity(2, amb)
        unit = cospan_identity(0, amb)
        assert cospan_tensor(c, unit, amb) == c
        s = span_identity(2, amb)
        assert span_tensor(s, span_identity(0, amb), amb) == s


def test_pullbacks_of_a_spans_stay_in_a():
    # injections and split monos are stable under pullback
    rng = random.Random(5)
    for amb in (F, Z):
        for _ in range(30):
            b = rng.randint(0, 3) if amb is F else rng.randint(0, 2)
            f = amb.random_a_morphism(rng, rng.randint(0, b), b, 2)
            g = amb.random_a_morphism(rng, rng.randint(0, b), b, 2)
            p1, p2 = amb.pullback(f, g)
            assert amb.in_a(p1) and amb.in_a(p2)


def test_random_a_morphism_refuses_empty_boxes():
    rng = random.Random(6)
    for amb in (F, PF, Z):
        with pytest.raises(NoSuchMorphism):
            amb.random_a_morphism(rng, 3, 2, 2)
    # no 0/0 matrix is split mono, but the empty matrix 0 -> 2 is
    with pytest.raises(NoSuchMorphism):
        Z.random_a_morphism(rng, 1, 2, 0)
    assert Z.random_a_morphism(rng, 0, 2, 0) == mat(ZZ, 2, 0, [[], []])
    assert Z.in_a(Z.random_a_morphism(rng, 2, 2, 1))


def test_unknown_ambients_are_corelate_errors():
    for name, a_name in (("foo", None), ("gf4", None), ("f", "split"), ("q", "split"), ("z", "inj")):
        with pytest.raises(CorelateError):
            get_ambient(name, a_name)
    with pytest.raises(UnknownAmbient):
        get_ambient("foo")


def test_partial_ambient_matches_the_case_by_case_references():
    # every partial span and cospan with feet and apex <= 3; equal by repr,
    # so the partial ambient's results stay ParMaps
    same = lambda x, y: repr(x) == repr(y)
    maps = {(d, c): list(enumerate_parmaps(d, c)) for d in range(4) for c in range(4)}
    for apex, x, y in product(range(4), repeat=3):
        for f, g in product(maps[(apex, x)], maps[(apex, y)]):
            s = Span(f, g)
            assert same(PF.canonical_span(s), reference_par_canonical_span(s))
            q1, q2 = PF.pushout(f, g)
            r1, r2 = PF.pullback(q1, q2)
            assert same(PF.pullback_mediator(r1, r2, f, g), reference_par_pullback_mediator(r1, r2, f, g))
        for u, v in product(maps[(x, apex)], maps[(y, apex)]):
            c = Cospan(u, v)
            assert same(PF.canonical_cospan(c), reference_par_canonical_cospan(c))
            p1, p2 = PF.pullback(u, v)
            q1, q2 = PF.pushout(p1, p2)
            for cocone in ((u, v), (q1, q2)):
                try:
                    got = PF.pushout_mediator(q1, q2, *cocone)
                except TypeMismatch as err:
                    got = str(err)
                assert same(got, reference_par_pushout_mediator(q1, q2, *cocone))
    for n, m in product(range(4), repeat=2):
        assert same(PF.identity(n), ParMap(n, n, tuple(range(n))))
        assert same(PF.symmetry(n, m), ParMap(n + m, m + n, tuple(range(m, m + n)) + tuple(range(m))))


def test_one_kernel_per_ambient():
    # matrix methods leave the ring to the echelon core, pi is the pushout,
    # and the function ambients glue with one union-find
    import ast
    import inspect
    from pathlib import Path

    import corelate.corelrel as corelrel
    import corelate.diagrams as diagrams
    import corelate.exactnum as exactnum
    import corelate.finfn as finfn
    import corelate.linmap as linmap
    import corelate.spancospan as spancospan

    assert "is_field" not in inspect.getsource(spancospan.MatrixAmbient)
    ambients = (spancospan.Ambient, spancospan.FinFnAmbient, spancospan.ParFnAmbient, spancospan.MatrixAmbient)
    for cls in ambients:
        assert "span_corelation" not in vars(cls), cls
    # the factorise-and-solve slow path and the Smith form, with every
    # helper it ever had, live with the test references, not in the package
    gone = {
        linmap: ("rcef", "hnf_col", "field_factorize", "pid_factorize", "_rows_each", "factorize", "kernel_basis")
        + ("mat_solve", "snf", "SmithDecomposition", "_eye", "_least_entry", "det_int", "_snf_engine", "_Smith")
        + ("_SnfState", "row_basis", "row_basis_meet", "mat_zero", "mat_vcat")
        # one echelon core for every ring: no field core, no integer core,
        # and no test-only wrapper of either
        + ("_rref", "_hnf", "rref", "hnf_row", "_require_integers"),
        finfn: ("fn_factorize", "partition", "enumerate_partitions"),
        # one copy of each construction: the theories' identities and
        # symmetries, gamma of the forward embedding and rel_canonical of a
        # graph are the program's copies; the relation/corelation
        # isomorphism and the oracle inputs live with the test references
        corelrel: ("corel_from_morphism", "rel_from_morphism", "rel_identity", "rel_symmetry", "rel_corel_iso")
        + ("rel_to_corel", "corel_to_rel", "corelation_from_er", "rel_from_subspace_rows"),
        # eval_term and term_equal call corelrel's operations themselves
        diagrams.Theory: ("compose", "tensor", "equal"),
    }
    # a leg carries its feet: no ambient forwards them
    gone.update((cls, ("factorize", "copair", "split_copair", "solve_postcompose", "dom", "cod")) for cls in ambients)
    assert [(where.__name__, name) for where, names in gone.items() for name in names if hasattr(where, name)] == []
    # a map is its table, not a callable
    assert not callable(finfn.FinMap(0, 0, ())) and not callable(finfn.ParMap(0, 0, ()))
    # one first-occurrence numbering: the quotient of a function cospan is
    # not a composite with the identity corelation
    assert "glue_compose" not in inspect.getsource(spancospan.FinFnAmbient.corelation_cospan)
    # spans are cospans of transposed legs: no column family, and one key
    # path on every ring
    assert not [name for name in vars(linmap) if name.startswith("column_echelon")]
    assert not any(hasattr(spancospan.MatrixAmbient, name) for name in ("pair", "split_pair"))
    source = inspect.getsource(linmap.echelon_rows_each)
    assert "is_field" not in source and "_modulus" not in source
    # the core reads whether the ring is a field, and one function whether
    # it is Q, whose matrices read their entries as Fractions; nothing else
    # in linmap asks, so no caller picks between cores, or between
    # Fractions and integer rows
    functions = [f for f in vars(linmap).values() if inspect.isfunction(f) and f.__module__ == linmap.__name__]
    assert [f.__name__ for f in functions if "is_field" in inspect.getsource(f)] == ["_kind", "_echelon"]
    # one matrix format on every ring, an integer table over a denominator
    # that is 1 outside Q: no kernel asks whether a matrix has one, and no
    # module but linmap reads or passes it
    assert [name for name in ("_stored", "_kept_den", "_rational", "echelon_rows") if hasattr(linmap, name)] == []
    assert not any(phrase in inspect.getsource(linmap) for phrase in ("den is None", "d is None", "den: Optional"))
    called = {
        node.attr
        for node in ast.walk(ast.parse(inspect.getsource(spancospan)))
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "linmap"
    }
    assert "echelon_rows_each" in called and called & {"split_rows", "echelon_rows"} == set()
    # one loop reduces the rows above and below a pivot, with one integer
    # or Q update and one mod-p update: a second copy of it would add two
    assert inspect.getsource(linmap._echelon).count("for c, w in support") == 2
    assert not hasattr(finfn, "UnionFind")
    # a ring is data: no ring does arithmetic, linmap has no helper that
    # reads its modulus, and nothing asks a ring whether it has one
    rings = [cls for cls in vars(exactnum).values() if isinstance(cls, type) and issubclass(cls, exactnum.Ring)]
    ops = ("add", "neg", "mul", "sub", "inv")
    assert [(cls.__name__, op) for cls in rings for op in ops if op in vars(cls)] == []
    assert not any(hasattr(linmap, name) for name in ("_modulus", "_negate"))
    probes = [
        (path.name, node.lineno)
        for path in sorted(Path(linmap.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("hasattr", "getattr")
        if any(isinstance(arg, ast.Constant) and arg.value == "p" for arg in node.args)
    ]
    assert probes == []


def _mediator_cases(amb, rng, into_apex: bool):
    """Small seeded cocones of pushouts (``into_apex``) or cones of
    pullbacks, each with the unique mediator found by enumeration, and
    the pairs of legs that are no cocone (cone)."""
    box = 2 if amb.ring == ZZ else 1  # every GF(p) residue, or [-2, 2]
    a, b = (rng.randint(0, 1) for _ in range(2))
    w = rng.randint(0, 2)
    if into_apex:  # the span (f, g) : w -> a, w -> b and its pushout
        f, g = amb.random_morphism(rng, w, a, 1), amb.random_morphism(rng, w, b, 1)
        legs = amb.pushout(f, g)
    else:  # the cospan (f, g) : a -> w, b -> w and its pullback
        f, g = amb.random_morphism(rng, a, w, 1), amb.random_morphism(rng, b, w, 1)
        legs = amb.pullback(f, g)
    apex = legs[0].cod if into_apex else legs[0].dom
    for z in range(3):
        if into_apex:
            through = lambda h: (amb.compose(legs[0], h), amb.compose(legs[1], h))
            hs = amb.enumerate_morphisms(apex, z, box)
            pairs = product(amb.enumerate_morphisms(a, z, 1), amb.enumerate_morphisms(b, z, 1))
            commutes = lambda u, v: amb.compose(f, u) == amb.compose(g, v)
        else:
            through = lambda h: (amb.compose(h, legs[0]), amb.compose(h, legs[1]))
            hs = amb.enumerate_morphisms(z, apex, box)
            pairs = product(amb.enumerate_morphisms(z, a, 1), amb.enumerate_morphisms(z, b, 1))
            commutes = lambda u, v: amb.compose(u, f) == amb.compose(v, g)
        found = {}
        for h in hs:
            found.setdefault(through(h), []).append(h)
        for u, v in pairs:
            yield legs, u, v, found.get((u, v)) if commutes(u, v) else None


@pytest.mark.parametrize("into_apex", [True, False], ids=["pushout", "pullback"])
@pytest.mark.parametrize("name", ["gf2", "gf3", "z"])
def test_matrix_mediators_are_the_unique_enumerated_ones(name, into_apex):
    # each (co)cone with entries at most 1 has exactly one mediator in the
    # box, and it is the ambient's; a pair that is no (co)cone is refused
    amb = get_ambient(name, "all")
    mediator = amb.pushout_mediator if into_apex else amb.pullback_mediator
    rng = random.Random(20)
    seen = {"cone": 0, "not a cone": 0}
    for _ in range(60):
        for legs, u, v, expected in _mediator_cases(amb, rng, into_apex):
            if expected is None:
                with pytest.raises(TypeMismatch):
                    mediator(*legs, u, v)
                seen["not a cone"] += 1
            else:
                assert [mediator(*legs, u, v)] == expected, (legs, u, v)
                seen["cone"] += 1
    assert min(seen.values()) >= 50, seen


# --- the one-pass matrix composites -------------------------------------------------


def _composable_legs(amb, rng=None):
    """Legs (l1, r1, l2, r2) of composable cospans x -> a <- y -> b <- z,
    every one with feet and apexes at most 1 and entries in [-1, 1] (every
    residue over GF(p)), then, with ``rng``, 300 seeded random ones with
    feet and apexes at most 3 and entries at most 3.  The spans with the
    same feet and apexes are the transposed legs."""
    if rng is None:
        for x, y, z, a, b in product(range(2), repeat=5):
            shapes = ((x, a), (y, a), (y, b), (z, b))
            yield from product(*(list(amb.enumerate_morphisms(dom, cod, 1)) for dom, cod in shapes))
        return
    for _ in range(300):
        x, y, z, a, b = (rng.randint(0, 3) for _ in range(5))
        yield tuple(amb.random_morphism(rng, dom, cod, 3) for dom, cod in ((x, a), (y, a), (y, b), (z, b)))


@pytest.mark.parametrize("name", ["z", "q", "gf2", "gf3", "gf5"])
def test_one_pass_composites_equal_the_limit_then_compose(name):
    # a matrix (co)span composite is one echelon pass; the base ambient's
    # is the pushout (pullback) of the inner legs, then two composites.
    # They agree value for value and type for type (the repr tells an int
    # from a Fraction) on every composable pair with feet and apexes at
    # most 1 and on seeded random ones up to 3.  A composite that left out
    # the pushout's own columns would give the image basis instead, which
    # differs on many of these pairs
    from corelate import linmap
    from corelate.spancospan import Ambient

    amb = get_ambient(name, "all")
    rng = random.Random(31)
    counts = {"cospan": 0, "span": 0, "cospan image differs": 0, "span image differs": 0}
    for legs in (*_composable_legs(amb), *_composable_legs(amb, rng)):
        l1, r1, l2, r2 = legs
        t = linmap.mat_transpose
        c1, c2 = Cospan(l1, r1), Cospan(l2, r2)
        s1, s2 = Span(t(l1), t(r1)), Span(t(l2), t(r2))
        for kind, x1, x2, compose, reference in (
            ("cospan", c1, c2, cospan_compose, Ambient.compose_cospans),
            ("span", s1, s2, span_compose, Ambient.compose_spans),
        ):
            expected = reference(amb, x1, x2)
            got = compose(x1, x2, amb)
            assert got == expected and repr(got) == repr(expected), (kind, x1, x2)
            image = linmap._glued_composite(x1.left, x1.right, x2.left, x2.right, False, kind == "span")
            counts[kind] += 1
            counts[f"{kind} image differs"] += repr(image) != repr(tuple(expected))
    assert counts["cospan"] == counts["span"] > 300, counts
    assert min(counts.values()) >= counts["cospan"] // 4, counts


def test_span_half_builds_no_transpose(monkeypatch):
    # the span half reads the legs' columns as rows and cuts its results
    # as columns: a canonical span, a pullback, its mediator, a span
    # composite and the span keys build no transpose, and the mediators
    # share one solve pass with no block matrix; the ambient, not a type
    # test, picks the composite
    import inspect

    from corelate import linmap
    from corelate import spancospan

    for method in ("canonical_span", "pullback", "pullback_mediator"):
        assert "mat_transpose" not in inspect.getsource(getattr(spancospan.MatrixAmbient, method)), method
    assert not any(hasattr(linmap, name) for name in ("mat_hcat", "mat_solve_left"))
    for compose in (spancospan.cospan_compose, spancospan.span_compose):
        assert "isinstance" not in inspect.getsource(compose)

    def refuse(a):
        raise AssertionError("a transpose was built")

    monkeypatch.setattr(linmap, "mat_transpose", refuse)
    rng = random.Random(32)
    for name in ("z", "q", "gf3"):
        amb = get_ambient(name, "all")
        for _ in range(50):
            x, y, z, a, b = (rng.randint(0, 3) for _ in range(5))
            l1, r1 = amb.random_morphism(rng, a, x, 3), amb.random_morphism(rng, a, y, 3)
            l2, r2 = amb.random_morphism(rng, b, y, 3), amb.random_morphism(rng, b, z, 3)
            amb.canonical_span(Span(l1, r1))
            p1, p2 = amb.pullback(r1, l2)
            amb.pullback_mediator(p1, p2, p1, p2)
            span_compose(Span(l1, r1), Span(l2, r2), amb)
            list(amb.span_keys([l1], [r1]))
