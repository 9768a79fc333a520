import random

import pytest

from corelate.errors import TypeMismatch
from corelate.finfn import (
    FinMap,
    ParMap,
    Partition,
    enumerate_finmaps,
    fn,
    fn_compose,
    fn_identity,
    fn_is_injective,
    fn_is_surjective,
    fn_pullback,
    fn_pushout,
    fn_symmetry,
    fn_tensor,
    enumerate_parmaps,
    glue_compose,
    par,
)
from corelate.spancospan import get_ambient
from oracle_utils import (
    enumerate_partitions,
    partition,
    reference_factorize,
    reference_glue,
    reference_par_compose,
    reference_par_is_injection,
    reference_par_is_surjection,
    reference_par_pullback,
    reference_par_pushout,
    reference_par_tensor,
)


def all_maps(max_size):
    for dom in range(max_size + 1):
        for cod in range(max_size + 1):
            yield from enumerate_finmaps(dom, cod)


# --- composition, tensor, classification -----------------------------------


def test_compose_identity():
    f = fn(3, 2, [0, 1, 1])
    assert fn_compose(fn_identity(3), f) == f
    assert fn_compose(f, fn_identity(2)) == f


def test_compose_pointwise():
    assert fn_compose(fn(3, 2, [0, 1, 1]), fn(2, 2, [1, 0])) == fn(3, 2, [1, 0, 0])


def test_compose_arity_check():
    with pytest.raises(TypeMismatch):
        fn_compose(fn(1, 2, [0]), fn(3, 2, [0, 1, 1]))
    # both constructors refuse a table of the wrong length or an entry
    # outside the codomain, with one message each
    for make in (fn, par):
        with pytest.raises(TypeMismatch, match=r"^table length 2 != dom 3$"):
            make(3, 2, [0, 1])
        with pytest.raises(TypeMismatch, match=r"^entry 2 outside codomain 2$"):
            make(2, 2, [0, 2])
        with pytest.raises(TypeMismatch, match=r"^entry -1 outside codomain 2$"):
            make(1, 2, [-1])
    assert par(2, 2, [None, 1]) == ParMap(2, 2, (None, 1))


def test_tensor():
    assert fn_tensor(fn_identity(1), fn_identity(1)) == fn_identity(2)
    assert fn_tensor(fn(2, 1, [0, 0]), fn(1, 1, [0])) == fn(3, 2, [0, 0, 1])
    f = fn(3, 2, [0, 1, 1])
    assert fn_tensor(f, fn_identity(0)) == f
    assert fn_tensor(fn_identity(0), f) == f


def test_classify():
    classify = lambda f: (fn_is_injective(f), fn_is_surjective(f))
    assert classify(fn_identity(2)) == (True, True)
    assert classify(fn(2, 1, [0, 0])) == (False, True)
    assert classify(fn(1, 2, [1])) == (True, False)


def test_symmetry_involution():
    s = fn_symmetry(2, 3)
    assert fn_compose(s, fn_symmetry(3, 2)) == fn_identity(5)


# --- factorisation: the reference, against the composite and E and M tests ---

F, PF = get_ambient("f"), get_ambient("pf")


def test_factorize_bijection():
    b = fn(3, 3, [2, 0, 1])
    e, m = reference_factorize(F, b)
    assert e == b and m == fn_identity(3)


def test_factorize_examples():
    e, m = reference_factorize(F, fn(3, 3, [1, 1, 0]))
    assert e == fn(3, 2, [1, 1, 0]) and m == fn(2, 3, [0, 1])
    e, m = reference_factorize(F, fn(2, 3, [0, 0]))
    assert e == fn(2, 1, [0, 0]) and m == fn(1, 3, [0])


def test_factorize_invariants_exhaustive():
    for f in all_maps(4):
        e, m = reference_factorize(F, f)
        assert fn_compose(e, m) == f
        assert fn_is_surjective(e)
        assert fn_is_injective(m)


def bijections(n):
    from itertools import permutations

    for p in permutations(range(n)):
        yield FinMap(n, n, tuple(p))


def test_factorize_mono_part_invariant_under_bijections():
    # the image inclusion of f is unchanged by precomposing a bijection
    for f in all_maps(4):
        _, m = reference_factorize(F, f)
        for b in bijections(f.dom):
            _, m2 = reference_factorize(F, fn_compose(b, f))
            assert m2 == m


# --- pullbacks and pushouts -------------------------------------------------


def test_pullback_examples():
    p1, p2 = fn_pullback(fn(0, 1, []), fn(0, 1, []))
    assert p1.dom == 0 and p2.dom == 0
    p1, p2 = fn_pullback(fn_identity(1), fn_identity(1))
    assert p1 == fn_identity(1) and p2 == fn_identity(1)
    p1, p2 = fn_pullback(fn(2, 1, [0, 0]), fn(2, 1, [0, 0]))
    assert p1 == fn(4, 2, [0, 0, 1, 1]) and p2 == fn(4, 2, [0, 1, 0, 1])


def test_pushout_examples():
    q1, q2 = fn_pushout(fn_identity(2), fn_identity(2))
    assert q1 == fn_identity(2) and q2 == fn_identity(2)
    q1, q2 = fn_pushout(fn(0, 0, []), fn(0, 2, []))
    assert q1 == fn(0, 2, []) and q2 == fn_identity(2)
    q1, q2 = fn_pushout(fn(2, 1, [0, 0]), fn(2, 2, [0, 1]))
    assert q1 == fn(1, 1, [0]) and q2 == fn(2, 1, [0, 0])


def test_pullback_universal_property():
    # every competing cone admits exactly one mediating map
    rng = random.Random(1)
    cospans = [
        (fn(2, 2, [0, 0]), fn(2, 2, [0, 1])),
        (fn(3, 2, [0, 1, 1]), fn(2, 2, [1, 1])),
        (fn(2, 1, [0, 0]), fn(3, 1, [0, 0, 0])),
        (fn(0, 2, []), fn(2, 2, [0, 1])),
    ]
    for f, g in cospans:
        p1, p2 = fn_pullback(f, g)
        for z in range(3):
            for u in enumerate_finmaps(z, f.dom):
                for v in enumerate_finmaps(z, g.dom):
                    if fn_compose(u, f) != fn_compose(v, g):
                        continue
                    mediators = [
                        h
                        for h in enumerate_finmaps(z, p1.dom)
                        if fn_compose(h, p1) == u and fn_compose(h, p2) == v
                    ]
                    assert len(mediators) == 1


def test_pushout_universal_property():
    spans = [
        (fn(2, 2, [0, 0]), fn(2, 2, [0, 1])),
        (fn(1, 2, [0]), fn(1, 1, [0])),
        (fn(0, 2, []), fn(0, 1, [])),
        (fn(3, 2, [0, 0, 1]), fn(3, 2, [0, 1, 0])),
    ]
    for f, g in spans:
        q1, q2 = fn_pushout(f, g)
        for z in range(3):
            for u in enumerate_finmaps(f.cod, z):
                for v in enumerate_finmaps(g.cod, z):
                    if fn_compose(f, u) != fn_compose(g, v):
                        continue
                    mediators = [
                        h
                        for h in enumerate_finmaps(q1.cod, z)
                        if fn_compose(q1, h) == u and fn_compose(q2, h) == v
                    ]
                    assert len(mediators) == 1


def test_stability_exhaustive_size3():
    # pulling a surjection back along any map yields a surjection
    for a in range(4):
        for n in range(4):
            for m in range(4):
                for f in enumerate_finmaps(n, a):
                    for s in enumerate_finmaps(m, a):
                        if not fn_is_surjective(s):
                            continue
                        p1, _ = fn_pullback(f, s)
                        assert fn_is_surjective(p1)


def test_costability_exhaustive_size3():
    # pushing an injection out along any map yields an injection
    for a in range(4):
        for n in range(4):
            for m in range(4):
                for i in enumerate_finmaps(a, n):
                    if not fn_is_injective(i):
                        continue
                    for h in enumerate_finmaps(a, m):
                        _, q2 = fn_pushout(i, h)
                        assert fn_is_injective(q2)


def canonical_cospan_key(q1, q2):
    relabel = {}
    for v in q1.table + q2.table:
        if v not in relabel:
            relabel[v] = len(relabel)
    unhit = q1.cod - len(relabel)
    return (
        tuple(relabel[v] for v in q1.table),
        tuple(relabel[v] for v in q2.table),
        unhit,
    )


def test_tensor_preserves_pushouts_and_pullbacks():
    rng = random.Random(7)

    def rand_map(dom, cod):
        return FinMap(dom, cod, tuple(rng.randrange(cod) for _ in range(dom))) if cod else FinMap(0, 0, ())

    for _ in range(200):
        a, n, m = rng.randint(0, 3), rng.randint(1, 3), rng.randint(1, 3)
        a2, n2, m2 = rng.randint(0, 3), rng.randint(1, 3), rng.randint(1, 3)
        f, g = rand_map(a, n), rand_map(a, m)
        f2, g2 = rand_map(a2, n2), rand_map(a2, m2)
        q = fn_pushout(fn_tensor(f, f2), fn_tensor(g, g2))
        q1a, q2a = fn_pushout(f, g)
        q1b, q2b = fn_pushout(f2, g2)
        qt = (fn_tensor(q1a, q1b), fn_tensor(q2a, q2b))
        assert canonical_cospan_key(*q) == canonical_cospan_key(*qt)


def test_tensor_preserves_pullbacks():
    rng = random.Random(8)
    for _ in range(200):
        a, n, m = rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 3)
        a2, n2, m2 = rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 3)
        f = FinMap(n, a, tuple(rng.randrange(a) for _ in range(n)))
        g = FinMap(m, a, tuple(rng.randrange(a) for _ in range(m)))
        f2 = FinMap(n2, a2, tuple(rng.randrange(a2) for _ in range(n2)))
        g2 = FinMap(m2, a2, tuple(rng.randrange(a2) for _ in range(m2)))
        p1, p2 = fn_pullback(fn_tensor(f, f2), fn_tensor(g, g2))
        p1a, p2a = fn_pullback(f, g)
        p1b, p2b = fn_pullback(f2, g2)
        t1, t2 = fn_tensor(p1a, p1b), fn_tensor(p2a, p2b)
        # compare up to apex bijection: sort the (left, right) pair tables
        assert sorted(zip(p1.table, p2.table)) == sorted(zip(t1.table, t2.table))


# --- partial maps ------------------------------------------------------------
#
# The kernels above serve partial maps too, as pointed total maps.


def test_par_compose_strictness():
    bot = par(2, 2, [None, None])
    g = par(2, 2, [0, 1])
    assert fn_compose(bot, g) == bot
    assert fn_compose(par(1, 2, [0]), par(2, 1, [None, 0])) == par(1, 1, [None])


def test_par_factorize_example():
    e, m = reference_factorize(PF, par(2, 2, [None, 0]))
    assert e == par(2, 1, [None, 0])
    assert m == par(1, 2, [0])
    assert fn_compose(e, m) == par(2, 2, [None, 0])
    assert fn_is_surjective(e) and fn_is_injective(m)


def test_par_injective_means_total():
    assert not fn_is_injective(par(1, 1, [None]))
    assert not fn_is_injective(par(2, 2, [None, 0]))
    assert fn_is_surjective(par(2, 1, [None, 0]))


def test_par_pushout_example():
    q1, q2 = fn_pushout(par(1, 1, [None]), par(1, 1, [0]))
    assert q1 == par(1, 1, [0])
    assert q2 == par(1, 1, [None])


def test_par_pullback_restricts_to_total():
    f = par(2, 2, [0, 1])
    g = par(2, 2, [0, 0])
    p1, p2 = fn_pullback(f, g)
    fp1, fp2 = fn_pullback(fn(2, 2, [0, 1]), fn(2, 2, [0, 0]))
    assert p1.table == fp1.table and p2.table == fp2.table


def test_par_tensor_shifts():
    assert fn_tensor(par(1, 1, [None]), par(1, 2, [1])) == par(2, 3, [None, 2])


def all_parmaps(max_size):
    for dom in range(max_size + 1):
        for cod in range(max_size + 1):
            yield from enumerate_parmaps(dom, cod)


def test_kernels_match_the_case_by_case_partial_references():
    # equal by repr, so a ParMap stays a ParMap
    same = lambda x, y: repr(x) == repr(y)
    maps = list(all_parmaps(3))
    for f in maps:
        e, m = reference_factorize(PF, f)
        assert same(fn_compose(e, m), f) and fn_is_surjective(e) and fn_is_injective(m)
        assert fn_is_injective(f) == reference_par_is_injection(f)
        assert fn_is_surjective(f) == reference_par_is_surjection(f)
        for g in maps:
            assert same(fn_tensor(f, g), reference_par_tensor(f, g))
            if f.cod == g.dom:
                assert same(fn_compose(f, g), reference_par_compose(f, g))
            if f.dom == g.dom:
                assert same(fn_pushout(f, g), reference_par_pushout(f, g))
            if f.cod == g.cod:
                assert same(fn_pullback(f, g), reference_par_pullback(f, g))


# --- partitions ---------------------------------------------------------------


def _random_table(rng, dom, cod, partial):
    """A table dom -> cod, total unless ``partial``, when about a fifth of
    its entries are undefined."""
    if partial:
        return [None if cod == 0 or rng.random() < 0.2 else rng.randrange(cod) for _ in range(dom)]
    return [rng.randrange(cod) for _ in range(dom)]


def _chain_feet(rng, n):
    """Feet (a, b), each gluing point a of the first apex to point b of the
    second: (x, x) and (x - 1, x) for x from n - 1 down, over the points in
    a random order half the time: in order, each union hangs the last root
    under the next point, and the class becomes a chain n deep.  Then a few
    random feet, whose finds halve that chain."""
    order = list(range(n))
    if rng.random() < 0.5:
        rng.shuffle(order)
    feet = []
    for k in range(n - 1, -1, -1):
        feet.append((order[k], order[k]))
        if k:
            feet.append((order[k - 1], order[k]))
    return feet + [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 8))]


def test_glue_compose_matches_reference_gluing():
    rng = random.Random("glue-compose")
    for case in range(600):
        partial = case % 2 == 1
        make = ParMap if partial else FinMap
        n1, n2 = rng.randint(1, 64), rng.randint(1, 64)
        if case % 3 == 0:  # long chains
            n1 = n2 = max(n1, n2)
            feet = _chain_feet(rng, n1)
            r1, l2 = [a for a, _ in feet], [b for _, b in feet]
        else:
            k = rng.randint(0, 96)
            r1, l2 = _random_table(rng, k, n1, partial), _random_table(rng, k, n2, partial)
        d1, d2 = rng.randint(0, 64), rng.randint(0, 64)
        left1 = make(d1, n1, tuple(_random_table(rng, d1, n1, partial)))
        right2 = make(d2, n2, tuple(_random_table(rng, d2, n2, partial)))
        right1, left2 = make(len(r1), n1, tuple(r1)), make(len(l2), n2, tuple(l2))
        lt, rt, apex = reference_glue(left1, right1, left2, right2)
        assert glue_compose(left1, right1, left2, right2) == (make(len(lt), apex, lt), make(len(rt), apex, rt))


def test_partition_validation():
    assert partition(3, [[0, 2], [1]]) == Partition(3, ((0, 2), (1,)))
    with pytest.raises(ValueError, match="overlap"):
        partition(3, ((0,), (0, 1), (2,)))
    with pytest.raises(ValueError, match="cover"):
        partition(3, ((0,),))
    with pytest.raises(ValueError, match="ordered by minimum"):
        partition(2, ((1,), (0,)))
    with pytest.raises(ValueError, match="not sorted and nonempty"):
        partition(2, ((1, 0),))


def test_enumerate_partitions_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52]
    for n, b in enumerate(bell):
        assert sum(1 for _ in enumerate_partitions(n)) == b
