import random

import pytest

from corelate.errors import RingMismatch, TypeMismatch
from corelate.exactnum import GF, QQ, ZZ
from corelate.linmap import (
    _snf_engine,
    det_int,
    enumerate_matrices,
    field_factorize,
    hnf_col,
    hnf_row,
    is_split_mono,
    kernel_basis,
    mat,
    mat_compose,
    mat_hcat,
    mat_identity,
    mat_mul,
    mat_pullback,
    mat_pushout,
    mat_rank,
    mat_solve,
    mat_tensor,
    mat_transpose,
    mat_vcat,
    mat_zero,
    pid_factorize,
    rref,
    snf,
)
from oracle_utils import invariant_factors, reference_mat_mul, reference_rref


def rand_mat(rng, ring, rows, cols, bound=4):
    return mat(ring, rows, cols, [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


# --- basic algebra -----------------------------------------------------------


def test_compose_identity():
    a = mat(QQ, 2, 3, [[1, 0, 2], [0, 1, -1]])
    assert mat_compose(a, mat_identity(QQ, 2)) == a
    assert mat_compose(mat_identity(QQ, 3), a) == a


def test_compose_gf2():
    row = mat(GF(2), 1, 2, [[1, 1]])  # 2 -> 1
    col = mat(GF(2), 2, 1, [[1], [1]])  # 1 -> 2
    assert mat_compose(col, row) == mat(GF(2), 1, 1, [[0]])


def test_compose_ring_mismatch():
    with pytest.raises(RingMismatch):
        mat_compose(mat_identity(GF(2), 1), mat_identity(QQ, 1))


def test_tensor():
    a = mat(ZZ, 1, 1, [[2]])
    b = mat(ZZ, 1, 1, [[3]])
    assert mat_tensor(a, b) == mat(ZZ, 2, 2, [[2, 0], [0, 3]])
    assert mat_tensor(a, mat_zero(ZZ, 0, 0)) == a
    assert mat_tensor(mat_identity(ZZ, 1), mat_identity(ZZ, 1)) == mat_identity(ZZ, 2)


# --- kernels ------------------------------------------------------------------


def test_kernel_zero_map():
    k = kernel_basis(mat(QQ, 1, 2, [[0, 0]]))
    assert k.cols == 2
    assert mat_rank(k) == 2


def test_kernel_gf2():
    k = kernel_basis(mat(GF(2), 1, 2, [[1, 1]]))
    assert k.cols == 1
    assert tuple(r[0] for r in k.entries) == (1, 1)


def test_kernel_integers_primitive():
    a = mat(ZZ, 1, 2, [[2, -2]])
    k = kernel_basis(a)
    assert k.cols == 1
    v = tuple(r[0] for r in k.entries)
    assert v in ((1, 1), (-1, -1))
    assert mat_mul(a, k) == mat_zero(ZZ, 1, 1)
    # primitivity via Smith form: the basis vector is part of a basis
    assert is_split_mono(k)


def test_kernel_random_annihilates():
    rng = random.Random(3)
    for ring in (QQ, GF(5), ZZ):
        for _ in range(30):
            a = rand_mat(rng, ring, rng.randint(1, 4), rng.randint(1, 4))
            k = kernel_basis(a)
            assert mat_mul(a, k) == mat_zero(ring, a.rows, k.cols)
            assert mat_rank(k) == k.cols == a.cols - mat_rank(a)


# --- Smith normal form --------------------------------------------------------


def test_snf_identity_and_zero():
    dec = snf(mat_identity(ZZ, 3))
    assert dec.d == mat_identity(ZZ, 3)
    dec = snf(mat_zero(ZZ, 2, 3))
    assert dec.d == mat_zero(ZZ, 2, 3)
    assert dec.rank == 0


def test_snf_example():
    a = mat(ZZ, 2, 2, [[2, 4], [6, 8]])
    dec = snf(a)
    assert mat_mul(mat_mul(dec.u, a), dec.v) == dec.d
    assert dec.diagonal == (2, 4)
    assert abs(det_int(dec.u)) == 1
    assert abs(det_int(dec.v)) == 1


def test_snf_invariant_factors_match_minors():
    rng = random.Random(11)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_mat(rng, ZZ, rows, cols, 6)
        dec = snf(a)
        nonzero = tuple(d for d in dec.diagonal if d)
        assert nonzero == invariant_factors(a)
        for i in range(len(nonzero) - 1):
            assert nonzero[i + 1] % nonzero[i] == 0


def test_snf_deterministic():
    a = mat(ZZ, 3, 3, [[4, -2, 6], [2, 8, 10], [0, 6, -4]])
    assert snf(a) == snf(a)


def test_snf_requires_integers():
    with pytest.raises(RingMismatch):
        snf(mat_identity(QQ, 2))


# --- the raw-value kernels against the Ring-dispatch reference ---------------

FIELDS = (GF(2), GF(3), GF(5), QQ)


def typed(a):
    """Entries paired with their Python types, so that an int 1 and
    Fraction(1) compare unequal."""
    return tuple(tuple((type(v), v) for v in row) for row in a.entries)


def kernel_inputs(ring, rng):
    """Every matrix up to 2x2 (over Q, entries in [-1, 1]), then seeded
    random ones of mixed density, 0-row and 0-column shapes included."""
    for rows in range(3):
        for cols in range(3):
            yield from enumerate_matrices(ring, rows, cols, 1)
    for _ in range(150):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        density = rng.random()
        yield mat(ring, rows, cols, [
            [rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ])


def test_rref_matches_reference():
    rng = random.Random(31)
    for ring in FIELDS:
        for a in kernel_inputs(ring, rng):
            r, pivots = rref(a)
            ref, ref_pivots = reference_rref(a)
            assert pivots == ref_pivots
            assert typed(r) == typed(ref), a


def test_mat_mul_matches_reference():
    rng = random.Random(32)
    for ring in FIELDS + (ZZ,):
        inputs = list(kernel_inputs(ring, rng))
        for a in inputs:
            for _ in range(3):
                b = rng.choice(inputs)
                if b.rows != a.cols:
                    b = rand_mat(rng, ring, a.cols, rng.randint(0, 4))
                assert typed(mat_mul(a, b)) == typed(reference_mat_mul(a, b)), (a, b)


# --- Smith engine: partial tracking ------------------------------------------

TRANSFORMS = ("u", "uinv", "v", "vinv")


def test_snf_partial_tracking_matches_full():
    """Every subset of transforms gives the full run's d, rank and those
    transforms, and leaves the rest untracked."""
    rng = random.Random(33)
    subsets = [tuple(t for k, t in enumerate(TRANSFORMS) if mask >> k & 1) for mask in range(16)]
    for _ in range(120):
        a = rand_mat(rng, ZZ, rng.randint(0, 5), rng.randint(0, 5), rng.choice((1, 3, 9)))
        full = _snf_engine(a, TRANSFORMS)
        assert mat_mul(mat_mul(full.u, a), full.v) == full.d
        assert mat_mul(full.u, full.uinv) == mat_identity(ZZ, a.rows)
        assert mat_mul(full.v, full.vinv) == mat_identity(ZZ, a.cols)
        for track in subsets:
            part = _snf_engine(a, track)
            assert (part.d, part.rank) == (full.d, full.rank)
            for name in TRANSFORMS:
                assert getattr(part, name) == (getattr(full, name) if name in track else None)


@pytest.mark.parametrize(
    "entries, expected",
    [
        (
            [[4, 2, 3, 0], [2, -1, 6, 2], [5, 1, 2, -3]],
            {
                "u": [[0, -1, 0], [0, -1, -1], [1, 6, 4]],
                "uinv": [[2, 4, 1], [-1, 0, 0], [1, -1, 0]],
                "v": [[0, 0, 17, -47], [1, 2, -14, 40], [0, 0, -13, 36], [0, 1, 15, -41]],
                "vinv": [[-2, 1, -6, -2], [-7, 0, -8, 1], [36, 0, 47, 0], [13, 0, 17, 0]],
            },
        ),
        (
            # the divisibility step runs: 2 does not divide 3
            [[2, 0, 4], [0, 3, -3]],
            {
                "u": [[1, 1], [3, 2]],
                "uinv": [[-2, 1], [3, -1]],
                "v": [[-1, 3, -2], [1, -2, 1], [0, 0, 1]],
                "vinv": [[2, 3, 1], [1, 1, 1], [0, 0, 1]],
            },
        ),
    ],
)
def test_snf_transforms_pinned(entries, expected):
    """The pivot order fixes the (non-canonical) transforms, and check
    records print mediators built from them, so they must not drift."""
    a = mat(ZZ, len(entries), len(entries[0]), entries)
    s = _snf_engine(a, TRANSFORMS)
    for name, rows in expected.items():
        assert [list(r) for r in getattr(s, name).entries] == rows


def test_snf_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(34)
    for _ in range(80):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        a = rand_mat(rng, ZZ, rows, cols, rng.choice((2, 6, 30)))
        expected = smith_normal_form(sympy.Matrix(rows, cols, [v for row in a.entries for v in row]), domain=sympy.ZZ)
        diagonal = tuple(abs(int(expected[i, i])) for i in range(min(rows, cols)))
        assert snf(a).diagonal == diagonal
        assert mat_rank(a) == sum(1 for d in diagonal if d)


# --- echelon forms ------------------------------------------------------------


def test_rref_canonical_idempotent():
    rng = random.Random(5)
    for ring in (QQ, GF(2), GF(5)):
        for _ in range(30):
            a = rand_mat(rng, ring, rng.randint(1, 4), rng.randint(1, 4))
            r, pivots = rref(a)
            r2, pivots2 = rref(r)
            assert r == r2 and pivots == pivots2


def test_hnf_row_canonical_under_left_unimodular():
    rng = random.Random(6)
    unimods = [
        mat(ZZ, 2, 2, [[1, 0], [0, 1]]),
        mat(ZZ, 2, 2, [[1, 1], [0, 1]]),
        mat(ZZ, 2, 2, [[0, 1], [1, 0]]),
        mat(ZZ, 2, 2, [[1, 0], [3, 1]]),
        mat(ZZ, 2, 2, [[-1, 0], [1, 1]]),
    ]
    for _ in range(40):
        a = rand_mat(rng, ZZ, 2, rng.randint(1, 3), 5)
        h = hnf_row(a)
        for u in unimods:
            assert hnf_row(mat_mul(u, a)) == h
        assert hnf_row(h) == h


def _reference_hnf_row(a):
    """Row Hermite form by whole-row operations, re-scanning each column for
    its least entry: the slow path the library's hnf_row replaced."""
    rows = [list(r) for r in a.entries]
    m, n = a.rows, a.cols
    r = 0
    for j in range(n):
        while True:
            nz = [i for i in range(r, m) if rows[i][j] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(rows[i][j]), i))
            rows[r], rows[i0] = rows[i0], rows[r]
            if rows[r][j] < 0:
                rows[r] = [-x for x in rows[r]]
            done = True
            for i in range(r + 1, m):
                if rows[i][j]:
                    q = rows[i][j] // rows[r][j]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if rows[i][j]:
                        done = False
            if done:
                break
        if r < m and rows[r][j] != 0:
            for i in range(r):
                q = rows[i][j] // rows[r][j]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
            r += 1
            if r == m:
                break
    return mat(ZZ, m, n, rows)


def test_hnf_row_matches_reference():
    rng = random.Random(16)
    for _ in range(5000):
        rows, cols, bound = rng.randint(0, 7), rng.randint(0, 7), rng.choice((1, 2, 5, 1000))
        a = mat(ZZ, rows, cols, [[rng.randint(-bound, bound) * (rng.random() < 0.7) for _ in range(cols)] for _ in range(rows)])
        h = hnf_row(a)
        assert h == _reference_hnf_row(a) and repr(h) == repr(_reference_hnf_row(a)), a


def test_hnf_col_transpose_consistency():
    a = mat(ZZ, 2, 2, [[2, 4], [6, 8]])
    assert hnf_col(a) == mat_transpose(hnf_row(mat_transpose(a)))


# --- factorisations -----------------------------------------------------------


def test_field_factorize_invertible():
    a = mat(QQ, 2, 2, [[1, 1], [0, 1]])
    e, m = field_factorize(a)
    assert m == mat_identity(QQ, 2)
    assert e == a


def test_field_factorize_zero():
    e, m = field_factorize(mat_zero(QQ, 3, 2))
    assert e.rows == 0 and e.cols == 2
    assert m.rows == 3 and m.cols == 0


def test_field_factorize_mono():
    a = mat(GF(2), 2, 1, [[1], [1]])
    e, m = field_factorize(a)
    assert e == mat(GF(2), 1, 1, [[1]])
    assert m == a


def test_field_factorize_invariants():
    rng = random.Random(13)
    for ring in (GF(2), GF(5), QQ):
        for _ in range(40):
            a = rand_mat(rng, ring, rng.randint(0, 4), rng.randint(0, 4))
            e, m = field_factorize(a)
            assert mat_mul(m, e) == a
            r = mat_rank(a)
            assert mat_rank(e) == e.rows == r
            assert mat_rank(m) == m.cols == r


def test_field_factorize_mono_part_invariant():
    # the column space representative ignores invertible precomposition
    rng = random.Random(14)
    invertibles = [
        mat(QQ, 2, 2, [[1, 2], [0, 1]]),
        mat(QQ, 2, 2, [[0, 1], [1, 0]]),
        mat(QQ, 2, 2, [[2, 0], [0, 1]]),
    ]
    for _ in range(20):
        a = rand_mat(rng, QQ, rng.randint(1, 4), 2)
        _, m = field_factorize(a)
        for g in invertibles:
            _, m2 = field_factorize(mat_mul(a, g))
            assert m2 == m


def test_pid_factorize_examples():
    e, m = pid_factorize(mat(ZZ, 1, 1, [[2]]))
    assert m == mat_identity(ZZ, 1)
    assert e == mat(ZZ, 1, 1, [[2]])
    e, m = pid_factorize(mat(ZZ, 2, 1, [[2], [0]]))
    assert mat_mul(m, e) == mat(ZZ, 2, 1, [[2], [0]])
    assert is_split_mono(m)
    assert m.cols == 1
    e, m = pid_factorize(mat_zero(ZZ, 1, 1))
    assert e.rows == 0 and m.cols == 0


def test_pid_factorize_invariants():
    rng = random.Random(15)
    for _ in range(60):
        a = rand_mat(rng, ZZ, rng.randint(0, 4), rng.randint(0, 4))
        e, m = pid_factorize(a)
        assert mat_mul(m, e) == a
        assert is_split_mono(m)
        assert e.rows == m.cols == mat_rank(a)
        assert mat_rank(e) == e.rows


def test_is_split_mono():
    assert is_split_mono(mat_identity(ZZ, 2))
    assert not is_split_mono(mat(ZZ, 1, 1, [[2]]))
    assert is_split_mono(mat(ZZ, 2, 1, [[1], [0]]))
    assert is_split_mono(mat(ZZ, 2, 1, [[3], [2]]))
    assert not is_split_mono(mat(ZZ, 2, 1, [[2], [4]]))


def _smith_split(a):
    """Split mono by the Smith diagonal: rank cols, every invariant factor 1."""
    s = _snf_engine(a)
    return s.rank == a.cols and all(s.d.entries[i][i] == 1 for i in range(s.rank))


def test_is_split_mono_matches_smith_diagonal():
    # every matrix up to 3x3 with entries in [-2, 2], except that the 3x3
    # box (5^9 matrices, about a minute) is covered exhaustively in [-1, 1]
    # and by 10,000 seeded draws in [-2, 2]
    cases = 0
    for rows in range(4):
        for cols in range(4):
            bound = 1 if rows == cols == 3 else 2
            for a in enumerate_matrices(ZZ, rows, cols, bound):
                assert is_split_mono(a) == _smith_split(a), a
                cases += 1
    assert cases == sum(5 ** (r * c) for r in range(4) for c in range(4)) - 5**9 + 3**9
    rng = random.Random(33)
    for _ in range(10_000):
        a = rand_mat(rng, ZZ, 3, 3, bound=2)
        assert is_split_mono(a) == _smith_split(a), a


def test_is_split_mono_reads_the_row_hermite_form_of_the_matrix():
    # (2,1)^T : Z -> Z^2 is split, with left inverse (0, 1), although the
    # Hermite form of its transpose [2 1] has pivot 2
    a = mat(ZZ, 2, 1, [[2], [1]])
    assert is_split_mono(a)
    assert mat_mul(mat(ZZ, 1, 2, [[0, 1]]), a) == mat_identity(ZZ, 1)
    assert hnf_row(a) == mat(ZZ, 2, 1, [[1], [0]])
    assert hnf_row(mat_transpose(a)) == mat(ZZ, 1, 2, [[2, 1]])


# --- pullbacks and pushouts ----------------------------------------------------


def test_pullback_identity():
    p1, p2 = mat_pullback(mat_identity(QQ, 2), mat_identity(QQ, 2))
    assert p1.cols == 2 and mat_rank(p1) == 2
    assert p1 == p2


def test_pullback_rational_example():
    a, b = mat(QQ, 1, 1, [[2]]), mat(QQ, 1, 1, [[1]])
    p1, p2 = mat_pullback(a, b)
    assert p1.cols == 1
    assert mat_mul(a, p1) == mat_mul(b, p2)
    # up to apex scaling the legs are (1) and (2)
    ratio = p2.entries[0][0] / p1.entries[0][0]
    assert ratio == 2


def test_pullback_integer_example():
    a, b = mat(ZZ, 1, 1, [[2]]), mat(ZZ, 1, 1, [[2]])
    p1, p2 = mat_pullback(a, b)
    assert (abs(p1.entries[0][0]), abs(p2.entries[0][0])) == (1, 1)


def test_pushout_examples():
    q1, q2 = mat_pushout(mat_identity(ZZ, 1), mat_identity(ZZ, 1))
    assert abs(q1.entries[0][0]) == 1 and q1 == q2
    q1, q2 = mat_pushout(mat(GF(2), 1, 1, [[1]]), mat(GF(2), 1, 1, [[0]]))
    assert (q1.entries, q2.entries) == (((0,),), ((1,),))
    q1, q2 = mat_pushout(mat(ZZ, 1, 1, [[2]]), mat(ZZ, 1, 1, [[2]]))
    assert q1 == mat(ZZ, 1, 1, [[1]]) and q2 == mat(ZZ, 1, 1, [[1]])


def test_pushout_commutes_and_torsion_free():
    rng = random.Random(16)
    for _ in range(40):
        w, x, y = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        a, b = rand_mat(rng, ZZ, x, w), rand_mat(rng, ZZ, y, w)
        q1, q2 = mat_pushout(a, b)
        assert mat_mul(q1, a) == mat_mul(q2, b)
        # apex stays free with no hidden torsion: joint map is split epi
        joint = mat_hcat(q1, q2)
        d = snf(joint).diagonal
        assert all(v == 1 for v in d if v)
        assert mat_rank(joint) == joint.rows


def test_pullback_pushout_universal_property_gf2():
    ring = GF(2)
    rng = random.Random(17)
    for _ in range(12):
        w = rng.randint(0, 2)
        x, y = rng.randint(0, 2), rng.randint(0, 2)
        a, b = rand_mat(rng, ring, x, w, 1), rand_mat(rng, ring, y, w, 1)
        q1, q2 = mat_pushout(a, b)
        for z in range(0, 3):
            for u in enumerate_matrices(ring, z, x, 1):
                for v in enumerate_matrices(ring, z, y, 1):
                    if mat_mul(u, a) != mat_mul(v, b):
                        continue
                    mediators = [
                        h
                        for h in enumerate_matrices(ring, z, q1.rows, 1)
                        if mat_mul(h, q1) == u and mat_mul(h, q2) == v
                    ]
                    assert len(mediators) == 1

        f, g = rand_mat(rng, ring, w, x, 1), rand_mat(rng, ring, w, y, 1)
        p1, p2 = mat_pullback(f, g)
        for z in range(0, 3):
            for u in enumerate_matrices(ring, x, z, 1):
                for v in enumerate_matrices(ring, y, z, 1):
                    if mat_mul(f, u) != mat_mul(g, v):
                        continue
                    mediators = [
                        h
                        for h in enumerate_matrices(ring, p1.cols, z, 1)
                        if mat_mul(p1, h) == u and mat_mul(p2, h) == v
                    ]
                    assert len(mediators) == 1


def test_self_duality_pullback_transpose_is_pushout():
    rng = random.Random(18)
    for _ in range(40):
        w, x, y = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        a, b = rand_mat(rng, ZZ, x, w), rand_mat(rng, ZZ, y, w)
        q1, q2 = mat_pushout(a, b)
        p1, p2 = mat_pullback(mat_transpose(a), mat_transpose(b))
        lhs = hnf_row(mat_hcat(mat_transpose(p1), mat_transpose(p2)))
        rhs = hnf_row(mat_hcat(q1, q2))
        assert lhs == rhs


def test_abelian_bistability():
    rng = random.Random(19)
    for ring in (GF(2), GF(5), QQ):
        for _ in range(40):
            w = rng.randint(0, 4)
            x, y = rng.randint(0, 4), rng.randint(0, 4)
            # pulled-back epis stay epi
            f = rand_mat(rng, ring, w, x)
            s = rand_mat(rng, ring, w, y)
            if mat_rank(s) == w:
                p1, _ = mat_pullback(f, s)
                assert mat_rank(p1) == p1.rows
            # pushed-out monos stay mono
            m = rand_mat(rng, ring, x, w)
            h = rand_mat(rng, ring, y, w)
            if mat_rank(m) == w:
                _, q2 = mat_pushout(m, h)
                assert mat_rank(q2) == q2.cols


# --- solving -------------------------------------------------------------------


def test_mat_solve_field():
    a = mat(QQ, 2, 2, [[1, 2], [3, 4]])
    b = mat(QQ, 2, 1, [[5], [6]])
    x = mat_solve(a, b)
    assert mat_mul(a, x) == b
    assert mat_solve(mat_zero(QQ, 2, 2), b) is None


def test_mat_solve_integers():
    assert mat_solve(mat(ZZ, 1, 1, [[2]]), mat(ZZ, 1, 1, [[1]])) is None
    x = mat_solve(mat(ZZ, 2, 2, [[2, 0], [0, 3]]), mat(ZZ, 2, 1, [[4], [9]]))
    assert x == mat(ZZ, 2, 1, [[2], [3]])


def test_mat_solve_random_roundtrip():
    rng = random.Random(20)
    for ring in (QQ, GF(3), ZZ):
        for _ in range(30):
            a = rand_mat(rng, ring, rng.randint(1, 3), rng.randint(1, 3))
            x0 = rand_mat(rng, ring, a.cols, rng.randint(1, 2))
            b = mat_mul(a, x0)
            x = mat_solve(a, b)
            assert x is not None
            assert mat_mul(a, x) == b


def test_shape_errors():
    with pytest.raises(TypeMismatch):
        mat_vcat(mat_identity(ZZ, 2), mat_identity(ZZ, 3))
    with pytest.raises(TypeMismatch):
        mat_pullback(mat_identity(ZZ, 2), mat_identity(ZZ, 3))
    with pytest.raises(TypeMismatch):
        det_int(mat_zero(ZZ, 2, 3))
