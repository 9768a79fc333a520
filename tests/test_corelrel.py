import random
from itertools import product

import pytest

from corelate.errors import NotAbelian, NotInA, TypeMismatch
from corelate.exactnum import GF, QQ, ZZ
from corelate.finfn import Partition, enumerate_finmaps, enumerate_parmaps, fn, par
from corelate.linmap import mat, mat_identity
from corelate.corelrel import (
    Corelation,
    Relation,
    corel_compose,
    corel_equal,
    corel_identity,
    corel_symmetry,
    corel_tensor,
    er_from_corelation,
    gamma,
    pi,
    rel_canonical,
    rel_subspace_rows,
)
from corelate.diagrams import get_theory
from corelate.spancospan import (
    Cospan,
    Span,
    cospan_compose,
    cospan_identity,
    cospan_tensor,
    embed_fwd_cospan,
    get_ambient,
    span_compose,
    span_identity,
    span_tensor,
)
from oracle_utils import (
    corel_to_rel,
    corelation_from_er,
    enumerate_partitions,
    mat_vcat,
    reference_copair,
    reference_factorize,
    reference_split_copair,
    rel_from_subspace_rows,
    rel_to_corel,
)

F = get_ambient("f")
PF = get_ambient("pf")
G2 = get_ambient("gf2")
Q = get_ambient("q")
Z = get_ambient("z")
QS = get_theory("q-subspace")


# --- gamma --------------------------------------------------------------------


def test_gamma_empty_feet_unit_counit():
    c = gamma(Cospan(fn(0, 1, []), fn(0, 1, [])), F)
    assert c == corel_identity(0, F)


def test_gamma_keeps_jointly_epi():
    c = Cospan(fn(2, 2, [0, 1]), fn(1, 2, [0]))
    assert gamma(c, F).cospan == c


def test_gamma_example_shrinks_apex():
    g = gamma(Cospan(fn(1, 2, [0]), fn(1, 2, [0])), F)
    assert g.cospan == Cospan(fn(1, 1, [0]), fn(1, 1, [0]))


def test_gamma_fullness_exhaustive_small():
    # gamma of a canonical corelation's underlying cospan is itself
    for n, m, apex in product(range(3), range(3), range(4)):
        for f in enumerate_finmaps(n, apex):
            for g in enumerate_finmaps(m, apex):
                c = gamma(Cospan(f, g), F)
                assert gamma(c.cospan, F) == c


# --- pi -----------------------------------------------------------------------


def test_pi_identity_span():
    assert pi(Span(fn(1, 1, [0]), fn(1, 1, [0])), F) == corel_identity(1, F)


def test_pi_empty_span_matches_gamma():
    assert pi(Span(fn(0, 0, []), fn(0, 0, [])), F) == gamma(
        Cospan(fn(0, 1, []), fn(0, 1, [])), F
    )


def test_pi_example():
    s = Span(fn(1, 2, [0]), fn(1, 1, [0]))
    out = pi(s, F)
    assert out.cospan == Cospan(fn(2, 2, [0, 1]), fn(1, 2, [0]))


def test_pi_rejects_non_a_legs():
    with pytest.raises(NotInA):
        pi(Span(fn(2, 1, [0, 0]), fn(2, 2, [0, 1])), F)
    with pytest.raises(NotInA):
        pi(Span(mat(ZZ, 1, 1, [[2]]), mat_identity(ZZ, 1)), Z)


# --- corelation composition ----------------------------------------------------


def test_corel_compose_identity():
    a = gamma(Cospan(fn(2, 2, [0, 0]), fn(1, 2, [1])), F)
    assert corel_compose(a, corel_identity(1, F)) == a
    assert corel_compose(corel_identity(2, F), a) == a


def test_corel_compose_er_example():
    p1 = Partition(3, ((0, 2), (1,)))
    p2 = Partition(3, ((0, 1, 2),))
    a = corelation_from_er(p1, 2, 1, F)
    b = corelation_from_er(p2, 1, 2, F)
    assert er_from_corelation(corel_compose(a, b)) == Partition(4, ((0, 2, 3), (1,)))


def test_corel_compose_integer_scalars():
    two = Cospan(mat(ZZ, 1, 1, [[2]]), mat(ZZ, 1, 1, [[2]]))
    a = gamma(two, Z)
    assert a.cospan == two
    assert corel_compose(a, a).cospan == two


def test_corel_equal_basics():
    a = gamma(Cospan(fn(1, 2, [0]), fn(1, 2, [1])), F)
    assert corel_equal(a, a)
    one = gamma(Cospan(mat(ZZ, 1, 1, [[1]]), mat(ZZ, 1, 1, [[1]])), Z)
    two = gamma(Cospan(mat(ZZ, 1, 1, [[2]]), mat(ZZ, 1, 1, [[2]])), Z)
    assert not corel_equal(one, two)


def test_corel_equal_direct_witness():
    # postcomposing both legs with an injection does not change the corelation
    rng = random.Random(1)
    for _ in range(30):
        n, m, apex = rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 3)
        c = Cospan(F.random_morphism(rng, n, apex), F.random_morphism(rng, m, apex))
        target = rng.randint(apex, 4)
        w = F.random_a_morphism(rng, apex, target)
        moved = Cospan(F.compose(c.left, w), F.compose(c.right, w))
        assert corel_equal(gamma(c, F), gamma(moved, F))


def test_corel_feet_mismatch():
    a = corel_identity(1, F)
    b = corel_identity(2, F)
    with pytest.raises(TypeMismatch):
        corel_compose(a, b)


# --- relations ------------------------------------------------------------------


def test_rel_identity_and_graph():
    graph = lambda f: rel_canonical(Span(mat_identity(QQ, 1), f), Q)
    r = graph(mat(QQ, 1, 1, [[2]]))
    rows = rel_subspace_rows(r)
    assert rows == ((1, 2),)
    assert corel_equal(QS.identity(1), graph(mat_identity(QQ, 1)))


def test_rel_compose_subspace_example():
    v = rel_from_subspace_rows([(1, 0)], 1, 1, G2)
    w = rel_from_subspace_rows([(1, 1)], 1, 1, G2)
    assert rel_subspace_rows(corel_compose(v, w)) == ((1, 0),)


def test_rel_compose_graph_converse_is_identity():
    two = mat(QQ, 1, 1, [[2]])
    graph = rel_canonical(Span(mat_identity(QQ, 1), two), Q)
    conv = rel_canonical(Span(two, mat_identity(QQ, 1)), Q)
    assert corel_compose(graph, conv) == QS.identity(1)


def test_relations_are_corelations_of_transposed_legs():
    # one value type and one set of operations; the two types never mix
    import corelate.corelrel as corelrel
    import corelate.spancospan as spancospan

    two = mat(QQ, 1, 1, [[2]])
    r = rel_canonical(Span(mat_identity(QQ, 1), two), Q)
    assert isinstance(r, Corelation)
    assert r.cospan == Cospan(mat(QQ, 1, 1, [[1]]), mat(QQ, 1, 1, [[2]]))
    assert r.span == Span(mat(QQ, 1, 1, [[1]]), two)
    assert (r.dom, r.cod, r.apex) == (1, 1, 1)
    assert type(corel_compose(r, r)) is Relation and type(corel_tensor(r, r)) is Relation
    c = corel_identity(1, Q)
    assert QS.identity(1).cospan == c.cospan and QS.identity(1) != c
    assert QS.symmetry(1, 2).cospan == corel_symmetry(1, 2, Q).cospan
    for op in (corel_compose, corel_tensor, corel_equal):
        with pytest.raises(TypeMismatch):
            op(QS.identity(1), c)
        with pytest.raises(TypeMismatch):
            op(c, QS.identity(1))
    for name in ("rel_compose", "rel_tensor", "rel_equal"):
        assert not hasattr(corelrel, name)
    for name in ("relation_span", "compose_relations"):
        assert not hasattr(spancospan.MatrixAmbient, name)


def test_rel_requires_field_ambient():
    with pytest.raises(NotAbelian):
        rel_canonical(Span(fn(1, 1, [0]), fn(1, 1, [0])), F)
    with pytest.raises(NotAbelian):
        rel_canonical(span_identity(1, Z), Z)


def test_same_relation_iff_mono_parts_agree_gf2():
    # two spans name the same relation exactly when their pairings span the
    # same subspace (exhaustive at dimension <= 2, apex <= 2)
    from corelate.linmap import enumerate_matrices
    from oracle_utils import span_rows

    n = m = 1
    for apex1 in range(3):
        for apex2 in range(3):
            for l1 in enumerate_matrices(GF(2), n, apex1, 1):
                for r1 in enumerate_matrices(GF(2), m, apex1, 1):
                    for l2 in enumerate_matrices(GF(2), n, apex2, 1):
                        for r2 in enumerate_matrices(GF(2), m, apex2, 1):
                            s1, s2 = Span(l1, r1), Span(l2, r2)
                            sub1 = span_rows(
                                list(zip(*(l1.entries + r1.entries))) if apex1 else [],
                                n + m,
                                GF(2),
                            )
                            sub2 = span_rows(
                                list(zip(*(l2.entries + r2.entries))) if apex2 else [],
                                n + m,
                                GF(2),
                            )
                            assert (rel_canonical(s1, G2) == rel_canonical(s2, G2)) == (
                                sub1 == sub2
                            )


# --- abelian iso -----------------------------------------------------------------


def test_rel_corel_iso_identity():
    r = get_theory("gf2-subspace").identity(1)
    c = rel_to_corel(r)
    assert c == corel_identity(1, G2)
    assert corel_to_rel(c) == r


def test_rel_corel_iso_example():
    r = rel_canonical(Span(mat_identity(GF(2), 1), mat(GF(2), 1, 1, [[0]])), G2)
    c = rel_to_corel(r)
    assert c.cospan == Cospan(mat(GF(2), 1, 1, [[0]]), mat(GF(2), 1, 1, [[1]]))
    assert corel_to_rel(c) == r
    assert rel_to_corel(r) == c


def test_rel_corel_iso_zero_subspace():
    r = rel_from_subspace_rows([], 1, 1, G2)
    c = rel_to_corel(r)
    assert c.apex == 2
    assert c.cospan.left == mat(GF(2), 2, 1, [[1], [0]])
    assert c.cospan.right == mat(GF(2), 2, 1, [[0], [1]])
    assert corel_to_rel(c) == r


def test_rel_corel_iso_requires_field():
    with pytest.raises(NotAbelian):
        rel_to_corel(
            Relation(ambient=Z, cospan=Cospan(mat_identity(ZZ, 1), mat_identity(ZZ, 1)))
        )


# --- partitions and PERs ----------------------------------------------------------


def test_er_round_trip_exhaustive():
    for n, m in product(range(3), range(3)):
        for p in enumerate_partitions(n + m):
            c = corelation_from_er(p, n, m, F)
            assert er_from_corelation(c) == p


def test_er_identity_partition():
    assert er_from_corelation(corel_identity(1, F)) == Partition(2, ((0, 1),))


def test_er_single_fiber():
    c = gamma(Cospan(fn(2, 1, [0, 0]), fn(1, 1, [0])), F)
    assert er_from_corelation(c) == Partition(3, ((0, 1, 2),))


def test_per_round_trip_exhaustive():
    # a PER on the feet is a partition with one more point, the basepoint
    for n, m in product(range(3), range(3)):
        for p in enumerate_partitions(n + m + 1):
            c = corelation_from_er(p, n, m, PF)
            assert er_from_corelation(c) == p


def test_per_undefined_point():
    c = gamma(Cospan(par(1, 1, [None]), par(1, 1, [0])), PF)
    assert er_from_corelation(c) == Partition(3, ((0, 2), (1,)))


def test_partial_partition_counts():
    # the PERs on k points, the partial-function corelations k -> 0, are
    # counted by Bell(k+1)
    bells = [1, 2, 5, 15, 52, 203]
    for k, b in enumerate(bells):
        corelations = {
            gamma(Cospan(f, par(0, apex, [])), PF)
            for apex in range(k + 1)
            for f in enumerate_parmaps(k, apex)
        }
        assert len(corelations) == b


def test_corel_tensor_well_defined_on_representatives():
    rng = random.Random(6)
    for _ in range(30):
        n, m, apex = rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 2)
        c1 = Cospan(F.random_morphism(rng, n, apex), F.random_morphism(rng, m, apex))
        w = F.random_a_morphism(rng, apex, rng.randint(apex, 3))
        c1b = Cospan(F.compose(c1.left, w), F.compose(c1.right, w))
        c2 = Cospan(F.random_morphism(rng, 1, 2), F.random_morphism(rng, 1, 2))
        t1 = corel_tensor(gamma(c1, F), gamma(c2, F))
        t2 = corel_tensor(gamma(c1b, F), gamma(c2, F))
        assert corel_equal(t1, t2)


def test_corel_from_morphism_graph_name():
    f = fn(2, 1, [0, 0])
    c = gamma(embed_fwd_cospan(f, F), F)
    assert er_from_corelation(c) == Partition(3, ((0, 1, 2),))


# --- fast paths against the generic path -------------------------------------------
#
# Composition over f and pf is one union-find pass, tensors skip the image
# factorisation, and identities and symmetries are built canonical.  Each is
# checked against gamma / rel_canonical of the plain (co)span operation, by
# repr as well, so that stored value types agree too.

GF3 = get_ambient("gf3")
ALL_AMBIENTS = (F, PF, G2, GF3, Q, Z)
FIELD_AMBIENTS = (G2, GF3, Q)


def _same(x, y) -> bool:
    return x == y and repr(x) == repr(y)


def _reference_corelation_cospan(c, amb):
    """Factorise the copairing, keep the epi part, canonicalise the apex:
    the slow path that the ambients replace with one echelon or gluing
    pass, with the reference factorisation, which shares no code with it."""
    n, m = c.left.dom, c.right.dom
    e, _ = reference_factorize(amb, reference_copair(amb, c.left, c.right))
    left, right = reference_split_copair(amb, e, n, m)
    return amb.canonical_cospan(Cospan(left, right))


def _generic_compose(c1, c2, amb):
    """Pushout, then the slow-path corelation of the composite cospan."""
    return _reference_corelation_cospan(cospan_compose(c1, c2, amb), amb)


@pytest.mark.parametrize("amb", [F, PF], ids=["f", "pf"])
def test_fused_compose_exhaustive_small(amb):
    maps = {}

    def all_maps(dom, cod):
        if (dom, cod) not in maps:
            source = enumerate_finmaps if amb is F else enumerate_parmaps
            maps[dom, cod] = list(source(dom, cod))
        return maps[dom, cod]

    cases = 0
    for n, m, k, a1, a2 in product(range(3), repeat=5):
        for l1, r1 in product(all_maps(n, a1), all_maps(m, a1)):
            for l2, r2 in product(all_maps(m, a2), all_maps(k, a2)):
                c1, c2 = Cospan(l1, r1), Cospan(l2, r2)
                assert _same(amb.compose_corelations(c1, c2), _generic_compose(c1, c2, amb))
                cases += 1
    values = lambda cod: cod + (amb is PF)  # pf maps may also be undefined
    assert cases == sum(
        values(a1) ** (n + m) * values(a2) ** (m + k) for n, m, k, a1, a2 in product(range(3), repeat=5)
    )


@pytest.mark.parametrize("amb", [F, PF], ids=["f", "pf"])
def test_fused_compose_random_wide(amb):
    rng = random.Random(2024)
    for _ in range(2000):
        n, m, k = (rng.randint(0, 16) for _ in range(3))
        a1, a2 = rng.randint(1, 16), rng.randint(1, 16)
        c1 = Cospan(amb.random_morphism(rng, n, a1), amb.random_morphism(rng, m, a1))
        c2 = Cospan(amb.random_morphism(rng, m, a2), amb.random_morphism(rng, k, a2))
        assert _same(amb.compose_corelations(c1, c2), _generic_compose(c1, c2, amb))
        # and on canonical corelations, through corel_compose
        g1, g2 = gamma(c1, amb), gamma(c2, amb)
        assert _same(corel_compose(g1, g2).cospan, _generic_compose(g1.cospan, g2.cospan, amb))


def test_fused_compose_rejects_mismatched_feet():
    with pytest.raises(TypeMismatch):
        F.compose_corelations(Cospan(fn(1, 1, [0]), fn(1, 1, [0])), Cospan(fn(2, 1, [0, 0]), fn(0, 1, [])))


def _recanonicalised_tensor(parts, amb):
    """The reference for ``corel_tensor``: the legs side by side, then the
    full canonical pass that the ambient's tensor of corelations skips."""
    cs = [p.cospan for p in parts]
    return amb.canonical_cospan(Cospan(amb.tensor(*(c.left for c in cs)), amb.tensor(*(c.right for c in cs))))


def _tensor_feet(rng):
    """Feet of a tensor part: 0-4 wires, and one part in ten 16 wide."""
    wide = rng.random() < 0.1
    return rng.randint(0, 16 if wide else 4), rng.randint(0, 16 if wide else 4)


def _random_corelation(rng, amb):
    n, m = _tensor_feet(rng)
    apex = rng.randint(0, 4)
    if amb is F and apex == 0:  # no total map reaches an empty apex
        n = m = 0
    bound = 3 if amb is Z else None
    c = Cospan(amb.random_morphism(rng, n, apex, bound), amb.random_morphism(rng, m, apex, bound))
    return gamma(c, amb)


@pytest.mark.parametrize("amb", ALL_AMBIENTS, ids=lambda a: a.name)
def test_variadic_corel_tensor_equals_binary_gamma_fold(amb):
    rng = random.Random(11)
    for _ in range(400):
        parts = [_random_corelation(rng, amb) for _ in range(rng.randint(1, 6))]
        fold = parts[0]
        for c in parts[1:]:
            fold = gamma(cospan_tensor(fold.cospan, c.cospan, amb), amb)
        tensor = corel_tensor(*parts)
        assert _same(tensor, fold)
        assert _same(tensor.cospan, _recanonicalised_tensor(parts, amb))
        if len(parts) == 2:
            assert _same(corel_tensor(parts[0], parts[1]), fold)


@pytest.mark.parametrize("amb", FIELD_AMBIENTS, ids=lambda a: a.name)
def test_variadic_rel_tensor_equals_binary_rel_canonical_fold(amb):
    rng = random.Random(12)
    for _ in range(400):
        parts = []
        for _ in range(rng.randint(1, 6)):
            n, m = _tensor_feet(rng)
            apex = rng.randint(0, 4)
            s = Span(amb.random_morphism(rng, apex, n), amb.random_morphism(rng, apex, m))
            parts.append(rel_canonical(s, amb))
        fold = parts[0]
        for r in parts[1:]:
            fold = rel_canonical(span_tensor(fold.span, r.span, amb), amb)
        tensor = corel_tensor(*parts)
        assert _same(tensor, fold)
        assert _same(tensor.cospan, _recanonicalised_tensor(parts, amb))


# The tensor of canonical corelations is assembled, not re-canonicalised.
# Over matrices its rows are the parts' rows padded and ordered by pivot
# column: every part's rows with a pivot in the left feet, then the others.
# Over functions its apex points are numbered by first occurrence over every
# left leg, then every right leg.


def test_z_tensor_merges_hermite_rows_by_pivot_column():
    import oracle_utils

    # pivots 2, 3 and 4, with entries above them in [0, pivot); the first
    # part's last row has its pivot in the right feet, the second part's
    # first row in the left feet
    first = gamma(Cospan(mat(ZZ, 3, 2, [[2, 1], [0, 3], [0, 0]]), mat(ZZ, 3, 1, [[1], [1], [4]])), Z)
    second = gamma(Cospan(mat(ZZ, 2, 1, [[3], [0]]), mat(ZZ, 2, 1, [[2], [5]])), Z)
    assert first.cospan.left.entries == ((2, 1), (0, 3), (0, 0))
    assert second.cospan.right.entries == ((2,), (5,))
    tensor = corel_tensor(first, second)
    rows = tuple(left + right for left, right in zip(tensor.cospan.left.entries, tensor.cospan.right.entries))
    assert rows == (
        (2, 1, 0, 1, 0),
        (0, 3, 0, 1, 0),
        (0, 0, 3, 0, 2),
        (0, 0, 0, 4, 0),
        (0, 0, 0, 0, 5),
    )
    blocks = [(l1 + (0,), r1 + (0,)) for l1, r1 in zip(first.cospan.left.entries, first.cospan.right.entries)]
    blocks += [((0, 0) + l2, (0,) + r2) for l2, r2 in zip(second.cospan.left.entries, second.cospan.right.entries)]
    assert rows == oracle_utils.oracles.hnf([left + right for left, right in blocks], 5)
    assert _same(tensor.cospan, _recanonicalised_tensor([first, second], Z))


@pytest.mark.parametrize("amb", [F, PF], ids=["f", "pf"])
def test_function_tensor_numbers_right_leg_points_after_every_left_leg(amb):
    # the first part's output is not glued to its input, so the point its
    # right leg reaches is first seen after the second part's left leg
    make = amb.map_type
    first = gamma(Cospan(make(1, 2, (0,)), make(1, 2, (1,))), amb)
    second = gamma(Cospan(make(1, 1, (0,)), make(1, 1, (0,))), amb)
    tensor = corel_tensor(first, second)
    assert _same(tensor.cospan, Cospan(make(2, 3, (0, 1)), make(2, 3, (2, 1))))
    assert _same(tensor.cospan, _recanonicalised_tensor([first, second], amb))
    if amb is PF:
        undefined = gamma(Cospan(make(2, 1, (None, 0)), make(1, 1, (0,))), amb)
        tensor = corel_tensor(first, undefined, second)
        assert _same(tensor.cospan, Cospan(make(4, 4, (0, None, 1, 2)), make(3, 4, (3, 1, 2))))
        assert _same(tensor.cospan, _recanonicalised_tensor([first, undefined, second], amb))


def test_corel_tensor_runs_no_echelon_pass_and_no_canonical_cospan(monkeypatch):
    """The benchmark's circuit workloads, with every echelon core and both
    canonical_cospan methods refusing to run inside corel_tensor, still
    give outputs that the benchmark's oracles accept."""
    import oracle_utils  # noqa: F401  (puts perfbench/ on the path)
    import workloads
    from corelate import corelrel, linmap
    from corelate.spancospan import FinFnAmbient, MatrixAmbient

    seen, depth = set(), [0]
    real_tensor = corelrel.corel_tensor

    def tensor(*parts):
        seen.add(parts[0].ambient.name)
        depth[0] += 1
        try:
            return real_tensor(*parts)
        finally:
            depth[0] -= 1

    def refuse_inside_tensor(fn):
        def refusing(*args, **kwargs):
            if depth[0]:
                raise AssertionError(f"{fn.__name__} ran inside corel_tensor")
            return fn(*args, **kwargs)

        return refusing

    monkeypatch.setattr(corelrel, "corel_tensor", tensor)
    monkeypatch.setattr(linmap, "_echelon", refuse_inside_tensor(linmap._echelon))
    for cls in (FinFnAmbient, MatrixAmbient):
        monkeypatch.setattr(cls, "canonical_cospan", refuse_inside_tensor(cls.canonical_cospan))
    for name in ("fn-circuits", "linear-circuits"):
        wl = workloads.WORKLOADS[name]()
        wl.setup()
        for op in wl.make_ops(1):
            assert wl.check_op(op, wl.run_op(op)), op.label
    assert seen == {"f", "pf", "gf2", "q", "z"}


@pytest.mark.parametrize("amb", ALL_AMBIENTS, ids=lambda a: a.name)
def test_direct_identity_and_symmetry_are_canonical(amb):
    for n in range(5):
        assert _same(corel_identity(n, amb), gamma(cospan_identity(n, amb), amb))
        for m in range(5):
            via_gamma = gamma(embed_fwd_cospan(amb.symmetry(n, m), amb), amb)
            assert _same(corel_symmetry(n, m, amb), via_gamma)


@pytest.mark.parametrize("amb", FIELD_AMBIENTS, ids=lambda a: a.name)
def test_direct_rel_identity_and_symmetry_are_canonical(amb):
    th = get_theory(f"{amb.name}-subspace")
    for n in range(5):
        assert _same(th.identity(n), rel_canonical(span_identity(n, amb), amb))
        for m in range(5):
            via_canonical = rel_canonical(Span(amb.identity(n + m), amb.symmetry(n, m)), amb)
            assert _same(th.symmetry(n, m), via_canonical)


# Matrix (co)relations are one echelon pass: gamma keeps the canonical basis
# of the rows of [L | R], composition the rows of [C | diag(L1, R2)] whose
# C-part vanishes, and pi is the pushout; relations are the same over the
# transposed legs.  Over functions gamma is one gluing pass, the composite
# with the identity corelation, and pi is the pushout.  Each is checked by
# value and repr against the slow path: pushout or pullback, factorisation,
# canonical form.
#
# Exhaustive: every cospan and span with feet and apex <= 2 and entries in
# the probe set ({0, 1} over GF(2), {0, 1, 2} over GF(3), {-1, 0, 1} over Q
# and Z, every map over f and pf); every pair of the corelations and
# relations they reach, over f, pf and GF(2); over GF(3), Q and Z the pairs
# whose shared foot is at most 1 (the pairs through a foot of 2 number
# 43,000 to 270,000 there and are left to the seeded sweep).  Seeded: 2,000
# matrix pairs up to width 8, and 700 each over f and pf.

MATRIX_AMBIENTS = (G2, GF3, Q, get_ambient("z", "all"))
FUNCTION_AMBIENTS = (get_ambient("f", "all"), get_ambient("pf", "all"))
SLOW_PATH_AMBIENTS = FUNCTION_AMBIENTS + MATRIX_AMBIENTS


def _reference_pi(s, amb):
    q1, q2 = amb.pushout(s.left, s.right)
    return _reference_corelation_cospan(Cospan(q1, q2), amb)


def _reference_relation_span(s, amb):
    n, m = s.left.cod, s.right.cod
    _, mono = reference_factorize(amb, mat_vcat(s.left, s.right))
    left, right = mono.entries[:n], mono.entries[n:]
    return amb.canonical_span(Span(mat(amb.ring, n, mono.cols, left), mat(amb.ring, m, mono.cols, right)))


def _reference_rel_compose(s1, s2, amb):
    return _reference_relation_span(span_compose(s1, s2, amb), amb)


def _small_pairs(amb, kind):
    """Every cospan (or span) with feet and apex <= 2 and entries in the
    probe set, keyed by its feet."""
    out = {}
    for n, m, apex in product(range(3), repeat=3):
        legs = lambda foot: list(
            amb.enumerate_morphisms(foot, apex, 1) if kind is Cospan else amb.enumerate_morphisms(apex, foot, 1)
        )
        out.setdefault((n, m), []).extend(kind(f, g) for f in legs(n) for g in legs(m))
    return out


def _composable(canonical, amb):
    """Pairs (x, y) of canonical forms with x: n -> k and y: k -> m, all
    feet <= 2; over f, pf and GF(2) every k <= 2, elsewhere k <= 1."""
    middle = range(3) if amb is G2 or amb in FUNCTION_AMBIENTS else range(2)
    for n, k, m in product(range(3), middle, range(3)):
        for x in canonical[(n, k)]:
            for y in canonical[(k, m)]:
                yield x, y


@pytest.mark.parametrize("amb", SLOW_PATH_AMBIENTS, ids=lambda a: a.name)
def test_echelon_corelations_match_slow_path_exhaustive(amb):
    canonical = {}
    for feet, cospans in _small_pairs(amb, Cospan).items():
        forms = canonical.setdefault(feet, set())
        for c in cospans:
            out = amb.corelation_cospan(c)
            assert _same(out, _reference_corelation_cospan(c, amb))
            forms.add(out)
    for feet, spans in _small_pairs(amb, Span).items():
        for s in spans:
            assert _same(pi(s, amb).cospan, _reference_pi(s, amb))
    canonical = {feet: sorted(forms, key=repr) for feet, forms in canonical.items()}
    for c1, c2 in _composable(canonical, amb):
        out = corel_compose(Corelation(amb, c1), Corelation(amb, c2)).cospan
        assert _same(out, _generic_compose(c1, c2, amb))


@pytest.mark.parametrize("amb", FIELD_AMBIENTS, ids=lambda a: a.name)
def test_echelon_relations_match_slow_path_exhaustive(amb):
    canonical = {}
    for feet, spans in _small_pairs(amb, Span).items():
        forms = canonical.setdefault(feet, set())
        for s in spans:
            r = rel_canonical(s, amb)
            assert _same(r.span, _reference_relation_span(s, amb))
            forms.add(r.cospan)
    canonical = {feet: sorted(forms, key=repr) for feet, forms in canonical.items()}
    for c1, c2 in _composable(canonical, amb):
        r1, r2 = Relation(amb, c1), Relation(amb, c2)
        assert _same(corel_compose(r1, r2).span, _reference_rel_compose(r1.span, r2.span, amb))


# seeded pairs per ambient: 2,000 over the rings, fewer over Q, whose slow
# path is slowest; 700 each over f and pf
WIDE_PAIRS = {"gf2": 700, "gf3": 600, "z": 450, "q": 250, "f": 700, "pf": 700}


@pytest.mark.parametrize("amb", SLOW_PATH_AMBIENTS, ids=lambda a: a.name)
def test_echelon_paths_match_slow_path_random_wide(amb):
    rng = random.Random(f"echelon:{amb.name}")
    rand = lambda dom, cod: amb.random_morphism(rng, dom, cod, 2)
    low = 1 if amb.name == "f" else 0  # no total map from a point to nothing
    for _ in range(WIDE_PAIRS[amb.name]):
        n, k, m = (rng.randint(low, 8) for _ in range(3))
        a1, a2 = rng.randint(low, 8), rng.randint(low, 8)
        c1, c2 = Cospan(rand(n, a1), rand(k, a1)), Cospan(rand(k, a2), rand(m, a2))
        assert _same(amb.corelation_cospan(c1), _reference_corelation_cospan(c1, amb))
        assert _same(amb.compose_corelations(c1, c2), _generic_compose(c1, c2, amb))
        g1, g2 = gamma(c1, amb), gamma(c2, amb)
        assert _same(corel_compose(g1, g2).cospan, _generic_compose(g1.cospan, g2.cospan, amb))
        s = Span(rand(a1, n), rand(a1, k))
        assert _same(pi(s, amb).cospan, _reference_pi(s, amb))
        if amb in FIELD_AMBIENTS:
            t = Span(rand(a2, k), rand(a2, m))
            r1, r2 = rel_canonical(s, amb), rel_canonical(t, amb)
            assert _same(r1.span, _reference_relation_span(s, amb))
            assert _same(corel_compose(r1, r2).span, _reference_rel_compose(r1.span, r2.span, amb))


def test_echelon_compose_rejects_mismatched_feet():
    with pytest.raises(TypeMismatch):
        G2.compose_corelations(Cospan(mat_identity(GF(2), 1), mat_identity(GF(2), 1)), cospan_identity(2, G2))
