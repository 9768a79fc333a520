import random
from fractions import Fraction
from itertools import product

import pytest

from corelate.errors import RingMismatch, TypeMismatch
from corelate.exactnum import GF, QQ, ZZ
from corelate.linmap import (
    echelon_legs,
    echelon_rows_each,
    enumerate_matrices,
    is_split_mono,
    mat,
    mat_compose,
    mat_identity,
    mat_mul,
    mat_pullback,
    mat_pushout,
    mat_rank,
    mat_tensor,
    mat_transpose,
    split_rows,
)
from corelate.spancospan import Span, get_ambient
from oracle_utils import (
    det_int,
    echelon_values,
    invariant_factors,
    key_table,
    mat_hcat,
    mat_solve_left,
    mat_vcat,
    mat_zero,
    oracles,
    reference_factorize,
    reference_kernel_basis,
    reference_mat_mul,
    reference_mat_pullback,
    reference_mat_pushout,
    reference_mat_solve,
    reference_rref,
    scalar_neg,
    rows_beside,
    snf,
    time_limit,
)

# the random-reference tests of the echelon cores run under a time limit: a
# core whose Euclid loop never ends fails them instead of hanging the suite
CORE_LIMIT_S = 60


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
    k = reference_kernel_basis(mat(QQ, 1, 2, [[0, 0]]))
    assert k.cols == 2
    assert mat_rank(k) == 2


def test_kernel_gf2():
    k = reference_kernel_basis(mat(GF(2), 1, 2, [[1, 1]]))
    assert k.cols == 1
    assert tuple(r[0] for r in k.entries) == (1, 1)


def test_kernel_integers_primitive():
    a = mat(ZZ, 1, 2, [[2, -2]])
    k = reference_kernel_basis(a)
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
            k = reference_kernel_basis(a)
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


def test_snf_is_the_only_smith_body():
    # one elimination computes u, d and v; nothing tracks a subset of them,
    # and the package carries no Smith form of its own
    import corelate.linmap as linmap
    import oracle_utils

    for name in ("_snf_engine", "_Smith", "_SnfState", "row_basis", "row_basis_meet"):
        assert not hasattr(linmap, name), name
        assert not hasattr(oracle_utils, name), name
    assert not hasattr(linmap, "snf")


# --- the raw-value kernels against the Ring-dispatch reference ---------------

FIELDS = (GF(2), GF(3), GF(5), QQ)


def echelon(a):
    """The canonical echelon form of a and its pivot columns, through the
    program's ``echelon_legs`` with an empty right block."""
    reduced = echelon_legs(a, mat_zero(a.ring, a.rows, 0))[0]
    pivots = tuple(next(j for j, v in enumerate(row) if v) for row in reduced.entries if any(row))
    return reduced, pivots


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
    # over Q, left entries 1 and -1 next to others, against rights with
    # non-integer entries: both unit branches add fractions
    values = (-1, 1, 0, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2))
    units = {1: 0, -1: 0}
    for _ in range(400):
        rows, inner, cols = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a = mat(QQ, rows, inner, [[rng.choice(values) for _ in range(inner)] for _ in range(rows)])
        b = mat(QQ, inner, cols, [[rng.choice(values) for _ in range(cols)] for _ in range(inner)])
        assert typed(mat_mul(a, b)) == typed(reference_mat_mul(a, b)), (a, b)
        for row in a.entries:
            for x, brow in zip(row, b.entries):
                if x in units and any(v.denominator > 1 for v in brow):
                    units[x] += 1
    assert min(units.values()) >= 100, units


# --- Smith transforms -----------------------------------------------------------


def test_snf_transforms_are_unimodular():
    """u * a * v = d, with u and v of determinant +-1."""
    rng = random.Random(33)
    for _ in range(120):
        a = rand_mat(rng, ZZ, rng.randint(0, 5), rng.randint(0, 5), rng.choice((1, 3, 9)))
        s = snf(a)
        assert mat_mul(mat_mul(s.u, a), s.v) == s.d
        assert abs(det_int(s.u)) == abs(det_int(s.v)) == 1


@pytest.mark.parametrize(
    "entries, expected",
    [
        (
            [[4, 2, 3, 0], [2, -1, 6, 2], [5, 1, 2, -3]],
            {
                "u": [[0, -1, 0], [0, -1, -1], [1, 6, 4]],
                "v": [[0, 0, 17, -47], [1, 2, -14, 40], [0, 0, -13, 36], [0, 1, 15, -41]],
            },
        ),
        (
            # the divisibility step runs: 2 does not divide 3
            [[2, 0, 4], [0, 3, -3]],
            {
                "u": [[1, 1], [3, 2]],
                "v": [[-1, 3, -2], [1, -2, 1], [0, 0, 1]],
            },
        ),
    ],
)
def test_snf_transforms_pinned(entries, expected):
    """The pivot order fixes the (non-canonical) transforms, so they must
    not drift."""
    a = mat(ZZ, len(entries), len(entries[0]), entries)
    s = snf(a)
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


@time_limit(CORE_LIMIT_S)
def test_rref_canonical_idempotent():
    rng = random.Random(5)
    for ring in (QQ, GF(2), GF(5)):
        for _ in range(30):
            a = rand_mat(rng, ring, rng.randint(1, 4), rng.randint(1, 4))
            r, pivots = echelon(a)
            r2, pivots2 = echelon(r)
            assert r == r2 and pivots == pivots2


@time_limit(CORE_LIMIT_S)
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
        h = echelon(a)[0]
        for u in unimods:
            assert echelon(mat_mul(u, a))[0] == h
        assert echelon(h)[0] == h


@time_limit(CORE_LIMIT_S)
def test_rref_matches_reference():
    # the one core on each field: the reduced echelon form of the
    # ring-dispatch reference and its pivots; the repr tells an int from a
    # Fraction
    rng = random.Random(31)
    for ring in FIELDS:
        for a in kernel_inputs(ring, rng):
            assert repr(echelon(a)) == repr(reference_rref(a)), a


# over Q the core eliminates integer rows and builds each kept Fraction
# once: entries with a non-integral one, every k, and long numerators
Q_CORE_VALUES = (0, 1, -1, 2, Fraction(1, 2))


def q_core_inputs(rng, count):
    """Every Q matrix up to 2x3 over Q_CORE_VALUES, then ``count`` seeded
    random ones up to 8x12 of mixed density, with numerators up to 2^20
    and denominators up to 12."""
    for rows in range(3):
        for cols in range(4):
            for flat in product(Q_CORE_VALUES, repeat=rows * cols):
                yield mat(QQ, rows, cols, [flat[i * cols : (i + 1) * cols] for i in range(rows)])
    for _ in range(count):
        rows, cols, density = rng.randint(0, 8), rng.randint(0, 12), rng.random()
        yield mat(QQ, rows, cols, [
            [Fraction(rng.randint(-(2**20), 2**20), rng.randint(1, 12)) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ])


def q_core_outputs(a):
    """The program's Q core on a's integer table: for every k in 0..cols
    the pivots of the pass and the rows ``_meet`` keeps, read as the
    matrix ``split_rows`` builds of them over the denominator the pass
    returns, then ``echelon_legs``, ``mat_rank`` and ``is_split_mono``;
    the reprs tell an int from a Fraction."""
    import corelate.linmap as linmap

    passes = []
    for k in range(a.cols + 1):
        kept = split_rows(QQ, a.cols - k, 0, *linmap._meet(QQ, [list(row) for row in a.table], a.cols, k))[0]
        pivots, _ = linmap._echelon(QQ, [list(row) for row in a.table], a.cols, k)
        passes.append((pivots, repr([list(row) for row in kept.entries])))
    return passes, repr(echelon(a)[0].entries), mat_rank(a), is_split_mono(a)


def q_expected_outputs(a, rows, pivots):
    """The same outputs, read off a's reduced echelon rows and pivots: the
    meet with the first k columns is spanned by the rows with a pivot at k
    or later, cut there, and over a field a split mono is a matrix of full
    column rank."""
    pivots = list(pivots)
    passes = [(pivots, repr([list(row[k:]) for row, j in zip(rows, pivots) if j >= k])) for k in range(a.cols + 1)]
    return passes, repr(tuple(map(tuple, rows))), len(pivots), len(pivots) == a.cols


@time_limit(CORE_LIMIT_S)
def test_q_core_matches_reference():
    rng = random.Random(29)
    checked = 0
    for a in q_core_inputs(rng, 150):
        reduced, pivots = reference_rref(a)
        assert q_core_outputs(a) == q_expected_outputs(a, reduced.entries, pivots), a
        checked += 1
    assert checked == sum(5 ** (rows * cols) for rows in range(3) for cols in range(4)) + 150


@time_limit(CORE_LIMIT_S)
def test_q_core_matches_sympy():
    # every seventh exhaustive matrix and every random one against sympy's
    # own rref, whose Rationals are read back as Fractions
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)
    for i, a in enumerate(q_core_inputs(rng, 150)):
        if a.rows <= 2 and a.cols <= 3 and i % 7:
            continue
        flat = [sympy.Rational(v.numerator, v.denominator) for row in a.entries for v in row]
        reduced, pivots = sympy.Matrix(a.rows, a.cols, flat).rref()
        rows = [[Fraction(int(reduced[i, j].p), int(reduced[i, j].q)) for j in range(a.cols)] for i in range(a.rows)]
        assert q_core_outputs(a) == q_expected_outputs(a, rows, pivots), a


def test_every_pass_over_q_returns_fractions():
    # Fraction(1) == 1, so no value test or record pin would see an int (or
    # a float from int / int) leave a Q kernel; this reads the type of
    # every entry that each Q kernel returns, on 300 seeded cases.  A Q
    # result is stored as integers over a denominator and compared and
    # hashed in lowest terms: each must equal, and hash as, the matrix read
    # from its own entries, and its integers over its denominator must be
    # its entries; a sweep key, compared and hashed as it is, must be in
    # lowest terms already, and paired with its denominator only when that
    # is not 1
    import corelate.linmap as linmap
    from corelate.linmap import composite, corelation_composite, corelation_tensor, mat_mediator
    from corelate.spancospan import Cospan

    rng = random.Random(29)
    values = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))
    amb = get_ambient("q", "all")

    def draw(rows, cols):
        return mat(QQ, rows, cols, [[rng.choice(values) for _ in range(cols)] for _ in range(rows)])

    seen = {}

    def keep(kernel, *matrices):
        entries = seen.setdefault(kernel, [])
        for m in matrices:
            read = mat(QQ, m.rows, m.cols, m.entries)
            assert m == read and hash(m) == hash(read), (kernel, m)
            assert [[Fraction(v, m.den) for v in row] for row in m.table] == [list(row) for row in m.entries], (kernel, m)
            entries += [v for row in m.entries for v in row]

    def stored(rows, cols, key):
        # the matrix a sweep key stands for
        return linmap._new(linmap.QMatrix, (QQ, rows, cols, *key_table(key)))

    for _ in range(300):
        n, m, k, a_apex, b_apex, z = (rng.randint(0, 3) for _ in range(6))
        l1, r1, l2, r2 = draw(a_apex, n), draw(a_apex, m), draw(b_apex, m), draw(b_apex, k)
        t1, t2, t3, t4 = (mat_transpose(leg) for leg in (l1, r1, l2, r2))
        q1, q2 = mat_pushout(t1, t2)
        keep("pushout", q1, q2)
        p1, p2 = mat_pullback(l1, r1)
        keep("pullback", p1, p2)
        keep("cospan composite", *composite(l1, r1, l2, r2))
        keep("span composite", *composite(t1, t2, t3, t4, columns=True))
        keep("corelation composite", *corelation_composite(l1, r1, l2, r2))
        h = draw(z, q1.rows)
        keep("pushout mediator", mat_mediator(q1, q2, mat_mul(h, q1), mat_mul(h, q2)))
        h = draw(p1.cols, z)
        keep("pullback mediator", mat_mediator(p1, p2, mat_mul(p1, h), mat_mul(p2, h), columns=True))
        canonical = amb.canonical_cospan(Cospan(l1, r1))
        keep("canonical cospan", *canonical)
        keep("canonical span", *amb.canonical_span(Span(t1, t2)))
        for columns, legs in ((False, (l1, r1, l2)), (True, (t1, t2, t3))):
            lefts, rights = (legs[0], legs[0]), (legs[1],)
            left, right = (mat_transpose(leg) if columns else leg for leg in legs[:2])
            for h_rows, blocks in echelon_rows_each(lefts, rights, columns):
                for key in (h_rows, *blocks):
                    table, den = key_table(key)
                    assert linmap._lowest(table, den) == (table, den) and (den == 1) == (key is table), key
                keep("sweep keys", stored(left.rows, left.cols, h_rows), *[stored(right.cols, right.rows, b) for b in blocks])
        keep("mat_mul", mat_mul(l1, draw(n, z)), mat_mul(draw(z, a_apex), l1))
        other = amb.canonical_cospan(Cospan(l2, r2))
        keep("corelation tensor", *corelation_tensor([(canonical.left, canonical.right), (other.left, other.right)]))
    assert {kernel: {type(v) for v in entries} for kernel, entries in seen.items()} == {kernel: {Fraction} for kernel in seen}
    assert len(seen) == 12
    # every kernel returned non-integral entries as well as shared zeros
    for kernel, entries in seen.items():
        assert sum(v.denominator > 1 for v in entries) >= 20, kernel
        assert any(v is QQ.zero for v in entries), kernel


def test_replaced_fields_read_as_their_entries_over_every_ring():
    # every matrix stores an integer table over a denominator, so a
    # _replace of its table is a matrix of the same kind, equal to and
    # hashing as the matrix read from its own entries; its entries are no
    # field, and replacing them is refused on every ring
    for ring, values in ((QQ, (Fraction(1, 2), -3, Fraction(-2, 3))), (ZZ, (1, -3, 2)), (GF(3), (1, 0, 2))):
        a = mat(ring, 2, 3, [values, values[::-1]])
        b = a._replace(rows=3, table=a.table + a.table[:1])
        read = mat(ring, 3, 3, b.entries)
        assert type(b) is type(a) and b == read and hash(b) == hash(read), ring
        assert b.entries == a.entries + a.entries[:1], ring
        with pytest.raises(ValueError):
            a._replace(rows=3, entries=a.entries + a.entries[:1])


def test_matrices_copy_and_pickle_over_every_ring():
    # a Q matrix stores integers over a denominator, and copy and pickle
    # rebuild it from its entries, as they rebuild every other matrix
    import copy
    import pickle

    for ring, values in ((QQ, (Fraction(1, 2), -3, Fraction(-2, 3))), (ZZ, (1, -3, 2)), (GF(3), (1, 0, 2))):
        a = mat(ring, 2, 3, [values, values[::-1]])
        for read in (copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))):
            b = read(a)
            assert type(b) is type(a) and b == a and repr(b) == repr(a), (ring, read)


@time_limit(CORE_LIMIT_S)
def test_hnf_row_matches_reference():
    # the same core over the integers: the benchmark's Hermite form, by
    # whole-row operations that re-scan each column for its least entry,
    # then the zero rows; and at every k the meet with the first k columns,
    # for which the core leaves the rows with a pivot before k unreduced:
    # the reference's rows with their pivot at k or later, cut at k
    import corelate.linmap as linmap

    rng = random.Random(16)
    for _ in range(5000):
        rows, cols, bound = rng.randint(0, 7), rng.randint(0, 7), rng.choice((1, 2, 5, 1000))
        a = mat(ZZ, rows, cols, [[rng.randint(-bound, bound) * (rng.random() < 0.7) for _ in range(cols)] for _ in range(rows)])
        basis = oracles.hnf(a.entries, cols)
        expected = mat(ZZ, rows, cols, basis + ((0,) * cols,) * (rows - len(basis)))
        assert repr(echelon(a)[0]) == repr(expected), a
        pivots = [next(j for j, v in enumerate(row) if v) for row in basis]
        for k in range(cols + 1):
            meet = [row[k:] for row, j in zip(basis, pivots) if j >= k]
            assert linmap._meet(ZZ, [list(row) for row in a.entries], cols, k) == ([list(row) for row in meet], 1), (a, k)


@time_limit(CORE_LIMIT_S)
def test_echelon_rows_each_equals_one_pass_per_right():
    # one path on every ring: batches of left legs that share one block of
    # rights, each left of full row rank or below it (zero and repeated
    # rows included), apex 0, empty and one-element blocks, rights of
    # width 0; read from the legs' rows (cospans) and from the columns of
    # their transposes (spans), each left's H beside each right's block
    # columns is its own pair's echelon rows, and the ambient's keys, per
    # ring and half, are equal exactly when two pairs of one (apex, n, m)
    # block have equal rows, and never equal across blocks
    rng = random.Random(17)
    rings = (ZZ, QQ, GF(2), GF(3), GF(5))
    seen = {"apex 0": 0, "one right": 0, "several lefts": 0, "both ranks in one batch": 0}
    ranks = {(ring.name, kind): 0 for ring in rings for kind in ("full rank", "rank below apex")}
    for ring in rings:
        amb = get_ambient(ring.name, "all")
        pair_of, key_of = {False: {}, True: {}}, {False: {}, True: {}}
        for _ in range(300):
            apex = rng.randint(0, 4)
            lefts = []
            for _ in range(rng.randint(1, 4)):
                n = rng.randint(0, 4)
                left = rand_mat(rng, ring, apex, n, rng.choice((1, 3)))
                if apex > 1 and rng.random() < 0.3:
                    left = mat(ring, apex, n, left.entries[:-1] + left.entries[:1])
                lefts.append(left)
            rights = [rand_mat(rng, ring, apex, rng.randint(0, 3), rng.choice((1, 3))) for _ in range(rng.randint(0, 4))]
            expected = [[echelon_values(left, r) for r in rights] for left in lefts]
            for columns in (False, True):
                read = mat_transpose if columns else (lambda a: a)
                ls, rs = [read(a) for a in lefts], [read(a) for a in rights]
                each = list(echelon_rows_each(ls, rs, columns))
                # the repr tells an int from a Fraction
                rebuilt = [[rows_beside(ring, h, block) for block in blocks] for h, blocks in each]
                assert repr(rebuilt) == repr(expected), (lefts, rights, columns)
                keys_of = amb.span_keys if columns else amb.cospan_keys
                for left, keys, rows in zip(lefts, keys_of(ls, rs), expected):
                    for right, key, pair_rows in zip(rights, keys, rows):
                        pair = (apex, left.cols, right.cols, pair_rows)
                        assert pair_of[columns].setdefault(key, pair) == pair
                        assert key_of[columns].setdefault(pair, key) == key
            kinds = {"full rank" if mat_rank(left) == apex else "rank below apex" for left in lefts}
            for kind in kinds if apex else ():
                ranks[(ring.name, kind)] += 1
            seen["apex 0"] += apex == 0
            seen["one right"] += len(rights) == 1
            seen["several lefts"] += len(lefts) > 1
            seen["both ranks in one batch"] += apex > 0 and len(kinds) == 2
        # keys were compared across many blocks, and repeated pairs met
        # the key they had before
        for columns in (False, True):
            assert len({pair[:3] for pair in pair_of[columns].values()}) >= 50
    assert min(seen.values()) >= 50, seen
    assert min(ranks.values()) >= 50, ranks
    assert list(echelon_rows_each([], [mat_identity(ZZ, 2)])) == []
    # every leg is checked before the first result
    with pytest.raises(RingMismatch):
        echelon_rows_each([mat_identity(QQ, 2)], [mat_identity(QQ, 2), mat_identity(ZZ, 2)])
    with pytest.raises(TypeMismatch):
        echelon_rows_each([mat_identity(ZZ, 2), mat_identity(ZZ, 1)], [mat_identity(ZZ, 2)])
    with pytest.raises(TypeMismatch):
        echelon_rows_each([mat(ZZ, 1, 2, [[1, 0]])], [mat(ZZ, 2, 1, [[1], [0]])], columns=True)


def test_hnf_col_transpose_consistency():
    # a canonical span's stacked legs are the column form of [top; bottom]:
    # the row form of their transpose, transposed back; Hermite over Z,
    # reduced over a field
    a = mat(ZZ, 2, 2, [[2, 4], [6, 8]])
    span = get_ambient("z", "all").canonical_span(Span(mat(ZZ, 1, 2, [[2, 4]]), mat(ZZ, 1, 2, [[6, 8]])))
    assert mat_vcat(*span) == mat_transpose(echelon(mat_transpose(a))[0])
    rng = random.Random(17)
    for ring in (GF(2), GF(3), QQ, ZZ):
        amb = get_ambient(ring.name, "all")
        for _ in range(300):
            x, y, apex = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
            top, bottom = rand_mat(rng, ring, x, apex, 2), rand_mat(rng, ring, y, apex, 2)
            rows = mat_transpose(mat_vcat(top, bottom))
            reduced = mat_transpose(echelon(rows)[0])
            out = mat_vcat(*amb.canonical_span(Span(top, bottom)))
            assert out == reduced and repr(out) == repr(reduced)


# --- factorisations -----------------------------------------------------------
#
# The reference image factorisation, the slow path of the corelation and
# relation cross-checks: m spans the column space over a field, its
# saturation over the integers.  The tests run over GF(2), GF(5), Q and Z,
# except the integer examples of saturation.

FACTORIZE_RINGS = (GF(2), GF(5), QQ, ZZ)


def image_factorize(a):
    return reference_factorize(get_ambient(a.ring.name, "all"), a)


def test_field_factorize_invertible():
    for ring in FACTORIZE_RINGS:
        a = mat(ring, 2, 2, [[1, 1], [0, 1]])
        e, m = image_factorize(a)
        assert m == mat_identity(ring, 2)
        assert e == a


def test_field_factorize_zero():
    for ring in FACTORIZE_RINGS:
        e, m = image_factorize(mat_zero(ring, 3, 2))
        assert e.rows == 0 and e.cols == 2
        assert m.rows == 3 and m.cols == 0


def test_field_factorize_mono():
    for ring in FACTORIZE_RINGS:
        a = mat(ring, 2, 1, [[1], [1]])
        e, m = image_factorize(a)
        assert e == mat(ring, 1, 1, [[1]])
        assert m == a


def test_field_factorize_invariants():
    rng = random.Random(13)
    for ring in FACTORIZE_RINGS:
        for _ in range(40):
            a = rand_mat(rng, ring, rng.randint(0, 4), rng.randint(0, 4))
            e, m = image_factorize(a)
            assert mat_mul(m, e) == a
            r = mat_rank(a)
            assert mat_rank(e) == e.rows == r
            assert mat_rank(m) == m.cols == r
            if ring.is_field:  # m spans the image
                assert canonical_rows(ring, columns(m), a.rows) == canonical_rows(ring, columns(a), a.rows)


def test_field_factorize_mono_part_invariant():
    # the mono part ignores precomposition with a matrix invertible over
    # the fraction field: over Z, the saturation of the column span
    rng = random.Random(14)
    for ring in FACTORIZE_RINGS:
        invertibles = [[[1, 2], [0, 1]], [[0, 1], [1, 0]]] + ([[[2, 0], [0, 1]]] if ring != GF(2) else [])
        for _ in range(20):
            a = rand_mat(rng, ring, rng.randint(1, 4), 2)
            _, m = image_factorize(a)
            for g in invertibles:
                _, m2 = image_factorize(mat_mul(a, mat(ring, 2, 2, g)))
                assert canonical_rows(ring, columns(m2), m.rows) == canonical_rows(ring, columns(m), m.rows)


def test_pid_factorize_examples():
    # over Z, m is the saturation of the column span, not the span itself
    e, m = image_factorize(mat(ZZ, 1, 1, [[2]]))
    assert m == mat_identity(ZZ, 1)
    assert e == mat(ZZ, 1, 1, [[2]])
    e, m = image_factorize(mat(ZZ, 2, 1, [[2], [0]]))
    assert mat_mul(m, e) == mat(ZZ, 2, 1, [[2], [0]])
    assert is_split_mono(m)
    assert m.cols == 1
    e, m = image_factorize(mat_zero(ZZ, 1, 1))
    assert e.rows == 0 and m.cols == 0


def test_pid_factorize_invariants():
    rng = random.Random(15)
    for ring in FACTORIZE_RINGS:
        for _ in range(60):
            a = rand_mat(rng, ring, rng.randint(0, 4), rng.randint(0, 4))
            e, m = image_factorize(a)
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
    s = snf(a)
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


def test_is_split_mono_is_full_column_rank_over_fields():
    for ring in (GF(2), GF(3), QQ):
        for rows, cols in product(range(4), repeat=2):
            for a in enumerate_matrices(ring, rows, cols, 1):
                assert is_split_mono(a) == (mat_rank(a) == a.cols), a


def test_is_split_mono_reads_the_row_hermite_form_of_the_matrix():
    # (2,1)^T : Z -> Z^2 is split, with left inverse (0, 1), although the
    # Hermite form of its transpose [2 1] has pivot 2
    a = mat(ZZ, 2, 1, [[2], [1]])
    assert is_split_mono(a)
    assert mat_mul(mat(ZZ, 1, 2, [[0, 1]]), a) == mat_identity(ZZ, 1)
    assert echelon(a)[0] == mat(ZZ, 2, 1, [[1], [0]])
    assert echelon(mat_transpose(a))[0] == mat(ZZ, 1, 2, [[2, 1]])


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
        lhs = echelon(mat_hcat(mat_transpose(p1), mat_transpose(p2)))
        rhs = echelon(mat_hcat(q1, q2))
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
    x = reference_mat_solve(a, b)
    assert mat_mul(a, x) == b
    assert reference_mat_solve(mat_zero(QQ, 2, 2), b) is None


def test_mat_solve_integers():
    assert reference_mat_solve(mat(ZZ, 1, 1, [[2]]), mat(ZZ, 1, 1, [[1]])) is None
    x = reference_mat_solve(mat(ZZ, 2, 2, [[2, 0], [0, 3]]), mat(ZZ, 2, 1, [[4], [9]]))
    assert x == mat(ZZ, 2, 1, [[2], [3]])


def test_mat_solve_random_roundtrip():
    rng = random.Random(20)
    for ring in (QQ, GF(3), ZZ):
        for _ in range(30):
            a = rand_mat(rng, ring, rng.randint(1, 3), rng.randint(1, 3))
            x0 = rand_mat(rng, ring, a.cols, rng.randint(1, 2))
            b = mat_mul(a, x0)
            x = reference_mat_solve(a, b)
            assert x is not None
            assert mat_mul(a, x) == b


# --- the echelon limits against independent oracles ---------------------------


def limit_inputs(ring, seed, count):
    """Pairs (a, b) with a common row count: every one with all three sides
    at most 2 and entries in {-1, 0, 1} (all residues over GF(p)), then
    ``count`` seeded ones with sides up to 4, of mixed density."""
    for d, x, y in product(range(3), repeat=3):
        for a in enumerate_matrices(ring, d, x, 1):
            for b in enumerate_matrices(ring, d, y, 1):
                yield a, b
    rng = random.Random(seed)
    for _ in range(count):
        d, x, y = (rng.randint(0, 4) for _ in range(3))
        density = rng.random()
        a, b = (
            mat(ring, d, w, [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(w)] for _ in range(d)])
            for w in (x, y)
        )
        if rng.random() < 0.5:  # a solvable a*x = b
            b = mat_mul(a, rand_mat(rng, ring, x, y, 2))
        yield a, b


def canonical_rows(ring, rows, ncols):
    """Canonical basis of the row space (lattice) of the rows, computed
    apart from linmap: the benchmark's Hermite form over the integers, the
    reference rref over a field."""
    if ring == ZZ:
        return oracles.hnf(rows, ncols)
    red, pivots = reference_rref(mat(ring, len(rows), ncols, rows))
    return red.entries[: len(pivots)]


def columns(a):
    return list(zip(*a.entries)) if a.rows else [()] * a.cols


def negated(ring, rows):
    return [tuple(scalar_neg(ring, v) for v in row) for row in rows]


def in_column_span(a, b):
    """Whether every column of b lies in the column lattice (space) of a."""
    span = canonical_rows(a.ring, columns(a), a.rows)
    return all(canonical_rows(a.ring, columns(a) + [col], a.rows) == span for col in columns(b))


@pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3), QQ], ids=lambda r: r.name)
@time_limit(CORE_LIMIT_S)
def test_limits_match_oracles(ring):
    """Kernels, pullbacks and pushouts are the canonical bases of the
    kernels of the reference bodies (and, over the integers, of the
    benchmark's lattice oracle); exact solves solve, and exist exactly when
    every column of b lies in the column span of a.  2,000 seeded cases
    over the integers, 500 over each field."""
    seed = {"z": 40, "gf2": 41, "gf3": 42, "q": 43}[ring.name]
    nonzero_solutions = 0
    for a, b in limit_inputs(ring, seed, 2000 if ring == ZZ else 500):
        d, x, y = a.rows, a.cols, b.cols
        # kernel of a, the pullback of the cospan (a, 0 -> d), and pullback
        # of the cospan (a, b): rows of [a^T | I]
        kernel = canonical_rows(ring, mat_transpose(reference_kernel_basis(a)).entries, x)
        assert mat_transpose(mat_pullback(a, mat_zero(ring, d, 0))[0]).entries == kernel, a
        p1, p2 = mat_pullback(a, b)
        pulled = mat_transpose(mat_vcat(p1, p2)).entries
        r1, r2 = reference_mat_pullback(a, b)
        assert pulled == canonical_rows(ring, mat_transpose(mat_vcat(r1, r2)).entries, x + y), (a, b)
        # pushout of the span (a^T, b^T): the left kernel of [a^T; -b^T]
        at, bt = mat_transpose(a), mat_transpose(b)
        q1, q2 = mat_pushout(at, bt)
        pushed = mat_hcat(q1, q2).entries
        s1, s2 = reference_mat_pushout(at, bt)
        assert pushed == canonical_rows(ring, mat_hcat(s1, s2).entries, x + y), (a, b)
        if ring == ZZ:
            assert kernel == oracles.hnf(oracles.left_kernel(columns(a), d), x)
            joint = columns(a) + negated(ring, columns(b))
            assert pulled == oracles.hnf(oracles.left_kernel(joint, d), x + y)
            assert pushed == oracles.hnf(oracles.left_kernel(at.entries + tuple(negated(ring, bt.entries)), d), x + y)
        # a*x = b, i.e. x^T * a^T = b^T
        sol = mat_solve_left(at, bt)
        sol = None if sol is None else mat_transpose(sol)
        solvable = in_column_span(a, b)
        assert (sol is not None) == solvable == (reference_mat_solve(a, b) is not None), (a, b)
        if sol is not None:
            assert mat_mul(a, sol) == b, (a, b)
            nonzero_solutions += any(map(any, sol.entries))
    assert nonzero_solutions > 100


@pytest.mark.parametrize("ring", [GF(2), GF(3)], ids=lambda r: r.name)
def test_every_pass_of_the_core_reads_residues(ring, monkeypatch):
    # the core works on stored values, so over GF(p) each glued pass, whose
    # bottom rows are negated, hands it entries in [0, p) as well; a
    # negation left unreduced changes no result, since those columns are
    # dropped and every update of them is reduced, and only this sees it
    import corelate.linmap as linmap

    core, passes = linmap._echelon, []

    def reading(ring, rows, ncols, k=0):
        passes.append(all(0 <= v < ring.p for row in rows for v in row))
        return core(ring, rows, ncols, k)

    monkeypatch.setattr(linmap, "_echelon", reading)
    rng = random.Random(7)
    for _ in range(100):
        n, m, k = (rng.randint(1, 3) for _ in range(3))
        a, b = rand_mat(rng, ring, k, n), rand_mat(rng, ring, k, m)
        at, bt = mat_transpose(a), mat_transpose(b)
        linmap.mat_pullback(a, b)
        linmap.mat_pushout(at, bt)
        linmap.composite(a, b, b, a)
        linmap.composite(at, bt, bt, at, columns=True)
        linmap.corelation_composite(a, b, b, a)
        linmap.mat_mediator(a, b, a, b)
        linmap.mat_mediator(at, bt, at, bt, columns=True)
    assert len(passes) == 700 and all(passes)


def test_shape_errors():
    with pytest.raises(TypeMismatch):
        mat_vcat(mat_identity(ZZ, 2), mat_identity(ZZ, 3))
    with pytest.raises(TypeMismatch):
        mat_pullback(mat_identity(ZZ, 2), mat_identity(ZZ, 3))
    with pytest.raises(TypeMismatch):
        det_int(mat_zero(ZZ, 2, 3))
