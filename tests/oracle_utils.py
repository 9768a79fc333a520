"""Shared brute-force helpers for the test suite."""

import signal
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Optional

from corelate.corelrel import Corelation, Relation, _require_products, gamma, rel_canonical
from corelate.errors import RingMismatch, TypeMismatch, ZeroInverse
from corelate.exactnum import ZZ, Ring
from corelate.finfn import FinMap, ParMap, Partition
from corelate.linmap import ExactMatrix, _require_same_ring, echelon_legs, mat_mediator, mat_transpose
from corelate.spancospan import Ambient, Cospan, Span

# the benchmark's oracles, which share no code with corelate
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))
import oracles  # noqa: E402


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the main thread once ``seconds`` have passed,
    so a loop that never ends fails its test instead of hanging the suite.
    Also a decorator; it needs no plugin."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# scalar arithmetic for the references, one operation at a time on the
# stored values of a ring: a result over GF(p) is reduced into [0, p).  The
# program's echelon core has its own loops and shares none of this.


def _reduce(ring, v):
    return v if ring.p is None else v % ring.p


def scalar_add(ring, a, b):
    return _reduce(ring, a + b)


def scalar_neg(ring, a):
    return _reduce(ring, -a)


def scalar_mul(ring, a, b):
    return _reduce(ring, a * b)


def scalar_sub(ring, a, b):
    return scalar_add(ring, a, scalar_neg(ring, b))


def scalar_inv(ring, a):
    """The inverse of a stored value: ``ZeroInverse`` for 0, and an
    ``ArithmeticError`` for an integer other than 1 or -1."""
    if _reduce(ring, a) == 0:
        raise ZeroInverse(f"0 has no inverse in {ring.name}")
    if ring.p is not None:
        return pow(a, -1, ring.p)
    if ring.is_field:
        return 1 / Fraction(a)
    if a in (1, -1):
        return a
    raise ArithmeticError(f"{a} is not a unit in the integers")


def reference_mat_mul(x, y):
    """Matrix product x*y through the scalar operations above.

    The reference for ``linmap.mat_mul``, which works on the stored values.
    """
    ring = x.ring
    ycols = [()] * y.cols if y.rows == 0 else list(zip(*y.entries))
    out = []
    for row in x.entries:
        out_row = []
        for col in ycols:
            acc = ring.zero
            for a, b in zip(row, col):
                acc = scalar_add(ring, acc, scalar_mul(ring, a, b))
            out_row.append(acc)
        out.append(tuple(out_row))
    return ExactMatrix(ring, x.rows, y.cols, tuple(out))


def reference_rref(a):
    """Reduced row echelon form and pivot columns through the scalar
    operations above, over a field.

    The reference for ``linmap``'s echelon core on a field, which works on
    the stored values.
    """
    ring = a.ring
    rows = [list(r) for r in a.entries]
    m, n = a.rows, a.cols
    pivots = []
    r = 0
    for j in range(n):
        pivot_row = None
        for i in range(r, m):
            if rows[i][j] != ring.zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = scalar_inv(ring, rows[r][j])
        rows[r] = [scalar_mul(ring, inv, v) for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][j] != ring.zero:
                c = rows[i][j]
                rows[i] = [scalar_sub(ring, v, scalar_mul(ring, c, w)) for v, w in zip(rows[i], rows[r])]
        pivots.append(j)
        r += 1
        if r == m:
            break
    return ExactMatrix(ring, m, n, tuple(tuple(r_) for r_ in rows)), tuple(pivots)


# ---------------------------------------------------------------------------
# constructors that only the tests build with


def mat_zero(ring: Ring, rows: int, cols: int) -> ExactMatrix:
    zero = ring.zero
    return ExactMatrix(ring, rows, cols, tuple((zero,) * cols for _ in range(rows)))


def mat_vcat(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    _require_same_ring(a, b)
    if a.cols != b.cols:
        raise TypeMismatch("column counts differ")
    return ExactMatrix(a.ring, a.rows + b.rows, a.cols, a.entries + b.entries)


def mat_hcat(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    _require_same_ring(a, b)
    if a.rows != b.rows:
        raise TypeMismatch("row counts differ")
    return ExactMatrix(a.ring, a.rows, a.cols + b.cols, tuple(ra + rb for ra, rb in zip(a.entries, b.entries)))


def key_table(key) -> tuple:
    """The integer table and the denominator of a key that
    ``linmap.echelon_rows_each`` gives: the key itself when it is a pair
    (table, den), whose last item is an int, never a row; else the key,
    a table, over 1."""
    return key if key and type(key[-1]) is int else (key, 1)


def rows_beside(ring: Ring, h, block) -> tuple:
    """The rows of [H | block], from the keys of H and of the block's
    columns, as ``linmap.echelon_rows_each`` and the matrix sweep keys give
    them; over Q a key is read as the Fractions it stands for."""
    (h, hden), (block, bden) = key_table(h), key_table(block)
    if ring.p is None and ring.is_field:
        h = tuple(tuple(Fraction(v, hden) for v in row) for row in h)
        block = tuple(tuple(Fraction(v, bden) for v in col) for col in block)
    rows = zip(*block) if block else [()] * len(h)
    return tuple(hrow + brow for hrow, brow in zip(h, rows))


def echelon_values(left: ExactMatrix, right: ExactMatrix, columns: bool = False) -> tuple:
    """The rows of the canonical echelon form of [left | right] (with
    ``columns``, of their transposes) whose legs ``linmap.echelon_legs``
    gives, as the entries they stand for."""
    legs = echelon_legs(left, right, columns)
    lrows, rrows = (mat_transpose(leg).entries if columns else leg.entries for leg in legs)
    return tuple(l + r for l, r in zip(lrows, rrows))


def mat_solve_left(a: ExactMatrix, b: ExactMatrix) -> Optional[ExactMatrix]:
    """Some x with x * a = b, or None: the package's one mediator pass,
    with second legs of no columns."""
    return mat_mediator(a, mat_zero(a.ring, a.rows, 0), b, mat_zero(b.ring, b.rows, 0))


def partition(ground: int, blocks) -> Partition:
    """Validated Partition constructor."""
    blocks = tuple(tuple(block) for block in blocks)
    seen: set[int] = set()
    for block in blocks:
        if not block or list(block) != sorted(block):
            raise ValueError(f"block {block} not sorted and nonempty")
        if seen & set(block):
            raise ValueError("blocks overlap")
        seen |= set(block)
    if seen != set(range(ground)):
        raise ValueError("blocks do not cover the ground set")
    if [b[0] for b in blocks] != sorted(b[0] for b in blocks):
        raise ValueError("blocks not ordered by minimum")
    return Partition(ground, blocks)


def enumerate_partitions(ground: int):
    """All partitions of {0, ..., ground-1} (restricted-growth strings)."""

    def rec(i: int, blocks: list[list[int]]):
        if i == ground:
            yield Partition(ground, tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def corelation_from_er(p: Partition, n: int, m: int, amb: Ambient) -> Corelation:
    """Cospan with one apex point per block, undefined on the basepoint's;
    inverse of er_from_corelation."""
    basepoint = n + m if amb.map_type is ParMap else None
    if p.ground != n + m + (basepoint is not None):
        raise TypeMismatch(f"partition ground {p.ground} does not fit feet {n}, {m} over {amb.name}")
    index: dict = {}
    apex = 0
    for block in p.blocks:
        if block[-1] == basepoint:
            label = None
        else:
            label, apex = apex, apex + 1
        for e in block:
            index[e] = label
    make = amb.map_type
    left = make(n, apex, tuple(index[i] for i in range(n)))
    right = make(m, apex, tuple(index[n + j] for j in range(m)))
    return gamma(Cospan(left, right), amb)


# ---------------------------------------------------------------------------
# relations over a field: built from subspace rows, and the abelian
# isomorphism between relations and corelations


def rel_from_subspace_rows(rows, n: int, m: int, amb: Ambient) -> Relation:
    """Relation n -> m spanned by the given vectors of k^(n+m): the
    corelation whose copairing [L | R] has those rows."""
    amb = _require_products(amb)
    rows = tuple(tuple(amb.ring.coerce(v) for v in row) for row in rows)
    if any(len(row) != n + m for row in rows):
        raise TypeMismatch(f"vectors must live in dimension {n + m}")
    left = ExactMatrix(amb.ring, len(rows), n, tuple(row[:n] for row in rows))
    right = ExactMatrix(amb.ring, len(rows), m, tuple(row[n:] for row in rows))
    return Relation(amb, amb.corelation_cospan(Cospan(left, right)))


def rel_to_corel(r: Relation) -> Corelation:
    """Jointly-epi part of the pushout cospan of the underlying span."""
    amb = _require_products(r.ambient)
    q1, q2 = amb.pushout(r.span.left, r.span.right)
    return gamma(Cospan(q1, q2), amb)


def corel_to_rel(c: Corelation) -> Relation:
    """Jointly-mono part of the pullback span of the underlying cospan."""
    amb = _require_products(c.ambient)
    p1, p2 = amb.pullback(c.cospan.left, c.cospan.right)
    return rel_canonical(Span(p1, p2), amb)


# ---------------------------------------------------------------------------
# Smith normal form: the integer reference of the kernels and solves below


@dataclass(frozen=True)
class SmithDecomposition:
    """U*A*V = D with U, V unimodular and D diagonal, d_i >= 0, d_i | d_(i+1)."""

    u: ExactMatrix
    d: ExactMatrix
    v: ExactMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d.entries[i][i] for i in range(min(self.d.rows, self.d.cols)))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def _eye(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _least_entry(rows, t: int, m: int, n: int) -> Optional[tuple[int, int]]:
    """Position of the first nonzero entry of least absolute value in the
    submatrix rows[t:m][t:n], scanned row-major; None when it is zero."""
    best = None
    for i in range(t, m):
        row = rows[i]
        for j in range(t, n):
            v = row[j]
            if v and (best is None or abs(v) < best[0]):
                if v == 1 or v == -1:  # nothing later can be smaller
                    return i, j
                best = (abs(v), i, j)
    return None if best is None else best[1:]


def snf(a: ExactMatrix) -> SmithDecomposition:
    """Smith normal form of an integer matrix.

    Pivots are chosen as the minimal-absolute-value nonzero entry of the
    remaining submatrix, scanned row-major, so the decomposition is
    reproducible.  Every row operation on the matrix is applied to u, and
    every column operation to v, so u * a * v stays the current matrix.
    """
    if a.ring != ZZ:
        raise RingMismatch("Smith normal form needs integer entries")
    m, n = a.rows, a.cols
    rows = [list(row) for row in a.entries]
    u, v = _eye(m), _eye(n)

    def row_swap(i, k):
        rows[i], rows[k] = rows[k], rows[i]
        u[i], u[k] = u[k], u[i]

    def row_add(i, k, c):  # row i += c * row k
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[k])]
        u[i] = [x + c * y for x, y in zip(u[i], u[k])]

    def col_swap(j, l):
        for row in rows + v:
            row[j], row[l] = row[l], row[j]

    def col_add(j, l, c):  # col j += c * col l
        for row in rows + v:
            row[j] += c * row[l]

    for t in range(min(m, n)):
        best = _least_entry(rows, t, m, n)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        while True:
            if rows[t][t] < 0:
                rows[t] = [-x for x in rows[t]]
                u[t] = [-x for x in u[t]]
            pivot = rows[t][t]
            # reduce the edging by floor division; remainders shrink strictly
            for i in range(t + 1, m):
                q = rows[i][t] // pivot
                if q:
                    row_add(i, t, -q)
            for j in range(t + 1, n):
                q = rows[t][j] // pivot
                if q:
                    col_add(j, t, -q)
            residue = next((i for i in range(t + 1, m) if rows[i][t]), None)
            if residue is not None:
                row_swap(t, residue)
                continue
            residue = next((j for j in range(t + 1, n) if rows[t][j]), None)
            if residue is not None:
                col_swap(t, residue)
                continue
            # edging clear; enforce divisibility of the remaining block
            if pivot == 1:
                break
            offender = next(
                (i for i in range(t + 1, m) if any(x % pivot for x in rows[i][t + 1 :])), None
            )
            if offender is None:
                break
            row_add(t, offender, 1)

    square = lambda k, rs: ExactMatrix(ZZ, k, k, tuple(map(tuple, rs)))
    return SmithDecomposition(square(m, u), ExactMatrix(ZZ, m, n, tuple(map(tuple, rows))), square(n, v))


def det_int(a: ExactMatrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    if a.rows != a.cols:
        raise TypeMismatch("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# The limits as they were computed before they became echelon meets: from
# the free columns of a reduced row echelon form over a field, and from the
# transforms of a Smith normal form over the integers.  They share no code
# with the program's echelon core.


def _reference_neg(a):
    ring = a.ring
    return ExactMatrix(ring, a.rows, a.cols, tuple(tuple(scalar_neg(ring, v) for v in row) for row in a.entries))


def _reference_transpose(a):
    return ExactMatrix(a.ring, a.cols, a.rows, tuple(zip(*a.entries)) if a.rows else ((),) * a.cols)


def _reference_cols(a, lo, hi):
    return ExactMatrix(a.ring, a.rows, hi - lo, tuple(row[lo:hi] for row in a.entries))


def reference_kernel_basis(a):
    """Columns spanning ker a: one per free column of the reference rref,
    or the last columns of the Smith transform v."""
    ring = a.ring
    if ring.is_field:
        red, pivots = reference_rref(a)
        cols = []
        for j in (j for j in range(a.cols) if j not in pivots):
            vec = [ring.zero] * a.cols
            vec[j] = ring.one
            for i, pj in enumerate(pivots):
                vec[pj] = scalar_neg(ring, red.entries[i][j])
            cols.append(vec)
        return ExactMatrix(ring, a.cols, len(cols), tuple(tuple(col[i] for col in cols) for i in range(a.cols)))
    s = snf(a)
    return _reference_cols(s.v, s.rank, a.cols)


def reference_mat_pullback(a, b):
    """The kernel of [a | -b], cut into its two blocks of rows."""
    joint = ExactMatrix(a.ring, a.rows, a.cols + b.cols, tuple(x + y for x, y in zip(a.entries, _reference_neg(b).entries)))
    k = reference_kernel_basis(joint)
    return (
        ExactMatrix(a.ring, a.cols, k.cols, k.entries[: a.cols]),
        ExactMatrix(a.ring, b.cols, k.cols, k.entries[a.cols :]),
    )


def reference_mat_pushout(a, b):
    """The cokernel of [a; -b] over a field; over the integers the last
    rows of the Smith transform u, the quotient by the saturation."""
    c = ExactMatrix(a.ring, a.rows + b.rows, a.cols, a.entries + _reference_neg(b).entries)
    if a.ring.is_field:
        q = _reference_transpose(reference_kernel_basis(_reference_transpose(c)))
    else:
        s = snf(c)
        q = ExactMatrix(a.ring, c.rows - s.rank, c.rows, s.u.entries[s.rank :])
    return _reference_cols(q, 0, a.rows), _reference_cols(q, a.rows, c.rows)


def reference_mat_solve(a, b):
    """x with a*x = b, or None: free variables zero over a field, the
    Smith diagonal over the integers."""
    ring = a.ring
    if ring.is_field:
        joint = ExactMatrix(ring, a.rows, a.cols + b.cols, tuple(x + y for x, y in zip(a.entries, b.entries)))
        red, pivots = reference_rref(joint)
        if any(p >= a.cols for p in pivots):
            return None
        out = [[ring.zero] * b.cols for _ in range(a.cols)]
        for i, pj in enumerate(pivots):
            out[pj] = list(red.entries[i][a.cols :])
        return ExactMatrix(ring, a.cols, b.cols, tuple(map(tuple, out)))
    s = snf(a)
    y = reference_mat_mul(s.u, b)
    if any(any(row) for row in y.entries[s.rank :]):
        return None
    w = [[0] * b.cols for _ in range(a.cols)]
    for i in range(s.rank):
        di = s.d.entries[i][i]
        for j in range(b.cols):
            if y.entries[i][j] % di:
                return None
            w[i][j] = y.entries[i][j] // di
    return reference_mat_mul(s.v, ExactMatrix(ring, a.cols, b.cols, tuple(map(tuple, w))))


def invariant_factors(a) -> tuple:
    """The nonzero invariant factors of an integer matrix, from the
    benchmark's gcd-of-minors oracle (its own Fraction determinants)."""
    return tuple(d for d in oracles.invariant_factors(a.entries, a.cols) if d)


# ---------------------------------------------------------------------------
# subspaces of GF(p)^n, through the benchmark's elimination


def span_rows(vectors, dim, ring):
    """Canonical reduced-echelon rows spanning the given vectors of GF(p)^dim."""
    rows, _ = oracles.field_rref(vectors, dim, ring.p)
    return tuple(map(tuple, rows))


def subspace_contains(rows, vec, ring) -> bool:
    """Whether the subspace with canonical echelon rows ``rows`` holds vec."""
    return span_rows(rows + (vec,), len(vec), ring) == rows


def random_subspace_rows(rng, dim, ring):
    """Canonical echelon rows of a random subspace of ring^dim."""
    k = rng.randint(0, dim)
    vectors = [[rng.randrange(ring.p) for _ in range(dim)] for _ in range(k)]
    return span_rows(vectors, dim, ring)


def enumerate_subspaces(dim, ring):
    """All subspaces of GF(p)^dim as canonical echelon row tuples."""
    seen = set()
    vectors = [v for v in product(range(ring.p), repeat=dim) if any(v)]
    yield ()

    def rec(basis, start):
        for i in range(start, len(vectors)):
            cand = basis + [vectors[i]]
            rows = span_rows(cand, dim, ring)
            if len(rows) == len(cand) and rows not in seen:
                seen.add(rows)
                yield rows
                yield from rec(cand, i + 1)

    yield from rec([], 0)


def oracle_subspace_compose(v_rows, w_rows, n, z, m, ring):
    """Relational composition by exhaustive vector enumeration over GF(p):
    (v, w) for every (v, u) in V and (u, w) in W."""
    vs = [x for x in product(range(ring.p), repeat=n + z) if subspace_contains(v_rows, x, ring)]
    ws = [y for y in product(range(ring.p), repeat=z + m) if subspace_contains(w_rows, y, ring)]
    return span_rows({x[:n] + y[z:] for x in vs for y in ws if x[n:] == y[:z]}, n + m, ring)


def q_circuit_rows(layers, width: int) -> tuple:
    """The canonical reduced-echelon basis of a benchmark circuit's relation
    over Q, width -> width, as rows of Fractions: the benchmark's own
    Fraction elimination over its constraint systems, which shares no code
    with linmap."""
    return tuple(tuple(Fraction(v) for v in row) for row in oracles.field_relation_rows(layers, width, 0))


# ---------------------------------------------------------------------------
# gluing oracles for equivalence relations and partial ones


def oracle_er_compose(p1, p2, n, z, m):
    """Glue equivalence classes along shared middle witnesses, then restrict."""
    if p1.ground != n + z or p2.ground != z + m:
        raise TypeMismatch("partition grounds do not match the feet")
    return Partition(n + m, _glue(p1.blocks, p2.blocks, n, z, m))


def oracle_per_compose(p1, p2, n, z, m):
    """Pointed gluing of partitions with basepoints n + z and z + m.

    The basepoint of p1 is read as one more middle point, and the basepoint
    block of p2 joins it on its way to the composite's basepoint n + m, so
    the total gluing does the rest.
    """
    if p1.ground != n + z + 1 or p2.ground != z + m + 1:
        raise TypeMismatch("partition grounds do not match the feet")
    lifted = [
        tuple(e for e in block if e < z)
        + ((z,) if block[-1] == z + m else ())
        + tuple(e + 1 for e in block if e >= z)
        for block in p2.blocks
    ]
    return Partition(n + m + 1, _glue(p1.blocks, lifted, n, z + 1, m + 1))


def _glue(blocks1, blocks2, n, z, m):
    """Blocks of n + m from blocks of n + z and of z + m, by relabelling:
    each point of n + z + m carries the label of its class, and every block
    of the second side relabels all the classes it meets to one."""
    label = list(range(n + z + m))
    for block in blocks1:
        for e in block:
            label[e] = block[0]
    for block in blocks2:
        met = {label[n + e] for e in block}
        if len(met) > 1:
            to = min(met)
            label = [to if x in met else x for x in label]
    # first occurrence in increasing order lists the blocks by their minimum
    groups = {}
    for e in range(n):
        groups.setdefault(label[e], []).append(e)
    for e in range(n + z, n + z + m):
        groups.setdefault(label[e], []).append(e - z)
    return tuple(tuple(g) for g in groups.values())


def reference_glue(left1, right1, left2, right2):
    """The tables and apex of the canonical composite of the cospans
    (left1, right1) and (left2, right2) of total or partial maps, by a
    graph search: the points of both apexes and the basepoint ``None`` are
    nodes, foot j joins right1[j] to left2[j], and the components that
    left1 or right2 reach are numbered by first occurrence, scanning left1
    then right2.  The component of ``None`` stays ``None``."""
    node1 = lambda v: None if v is None else (1, v)
    node2 = lambda v: None if v is None else (2, v)
    edges = {}
    for a, b in zip(right1.table, left2.table):
        edges.setdefault(node1(a), []).append(node2(b))
        edges.setdefault(node2(b), []).append(node1(a))
    component = {}
    for start in [None, *map(node1, range(left1.cod)), *map(node2, range(left2.cod))]:
        if start in component:
            continue
        component[start] = start
        stack = [start]
        while stack:
            for other in edges.get(stack.pop(), ()):
                if other not in component:
                    component[other] = start
                    stack.append(other)
    number = {None: None}
    tables = []
    for nodes in (map(node1, left1.table), map(node2, right2.table)):
        table = []
        for v in nodes:
            c = component[v]
            if c not in number:
                number[c] = len(number) - 1
            table.append(number[c])
        tables.append(tuple(table))
    return tables[0], tables[1], len(number) - 1


# ---------------------------------------------------------------------------
# witness closure: corelation equality by search over M-witness moves


def witness_reachable(c, amb, depth=3, apex_bound=3, entry_bound=2, witness_cache=None):
    """Cospans reachable from c by at most ``depth`` M-witness moves.

    A forward move postcomposes both legs with a mono witness, a backward
    move strips one off when both legs factor through it exactly.  States
    are whole cospans compared verbatim, and apex isomorphisms count as
    witnesses like any other mono.  The apex size and the depth are capped,
    matrix states' entries at 4 * entry_bound; witnesses have entries
    bounded by ``entry_bound``.  ``witness_cache`` keeps the witnesses of
    each (dom, cod) across calls on one ambient.
    """
    witnesses = witness_cache if witness_cache is not None else {}
    cap = 4 * entry_bound

    def monos(dom, cod):
        if (dom, cod) not in witnesses:
            witnesses[(dom, cod)] = [m for m in amb.enumerate_morphisms(dom, cod, entry_bound) if amb.in_m(m)]
        return witnesses[(dom, cod)]

    def moves(state):
        apex = state.left.cod
        for new_apex in range(apex_bound + 1):
            for m in monos(apex, new_apex):
                yield Cospan(amb.compose(state.left, m), amb.compose(state.right, m))
            for m in monos(new_apex, apex):
                left = reference_solve_postcompose(amb, m, state.left)
                right = None if left is None else reference_solve_postcompose(amb, m, state.right)
                if right is not None:
                    yield Cospan(left, right)

    def within_cap(cand):
        return all(abs(v) <= cap for leg in cand for row in getattr(leg, "entries", ()) for v in row)

    frontier, visited = {c}, {c}
    for _ in range(depth):
        frontier = {cand for state in frontier for cand in moves(state) if cand not in visited and within_cap(cand)}
        visited |= frontier
    return frozenset(visited)


# ---------------------------------------------------------------------------
# partial maps, one case at a time
#
# The references for the finfn kernels and FinFnAmbient methods, which serve
# total and partial maps in one body: these read None as undefined case by
# case, and take the pointed encoding explicitly where the kernels take it
# implicitly.


def _to_pointed(f):
    # the basepoint is the last element on each side
    bot = f.cod
    table = tuple(bot if v is None else v for v in f.table) + (bot,)
    return FinMap(f.dom + 1, f.cod + 1, table)


def reference_par_compose(f, g):
    gt = g.table
    return ParMap(f.dom, g.cod, tuple(None if v is None else gt[v] for v in f.table))


def reference_par_tensor(*fs):
    table = []
    shift = 0
    for f in fs:
        table.extend(None if v is None else v + shift for v in f.table)
        shift += f.cod
    return ParMap(len(table), shift, tuple(table))


def reference_par_is_injection(f):
    return all(v is not None for v in f.table) and len(set(f.table)) == f.dom


def reference_par_is_surjection(f):
    return len({v for v in f.table if v is not None}) == f.cod


def reference_par_factorize(f):
    image = sorted({v for v in f.table if v is not None})
    index = {v: i for i, v in enumerate(image)}
    e = ParMap(f.dom, len(image), tuple(None if v is None else index[v] for v in f.table))
    return e, ParMap(len(image), f.cod, tuple(image))


def reference_par_pullback(f, g):
    pf, pg = _to_pointed(f), _to_pointed(g)
    botf, botg = f.dom, g.dom
    pairs = [
        (x, y)
        for x in range(pf.dom)
        for y in range(pg.dom)
        if pf.table[x] == pg.table[y] and not (x == botf and y == botg)
    ]
    p1 = ParMap(len(pairs), f.dom, tuple(None if x == botf else x for x, _ in pairs))
    p2 = ParMap(len(pairs), g.dom, tuple(None if y == botg else y for _, y in pairs))
    return p1, p2


def reference_par_pushout(f, g):
    n1, n2 = f.cod, g.cod
    bot = n1 + n2
    parent = list(range(bot + 1))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in zip(f.table, g.table):
        ra, rb = find(bot if a is None else a), find(bot if b is None else n1 + b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    bot_root = find(bot)
    index = {}
    q = []
    for e in range(n1 + n2):
        root = find(e)
        if root == bot_root:
            q.append(None)
            continue
        if root not in index:
            index[root] = len(index)
        q.append(index[root])
    apex = len(index)
    return ParMap(n1, apex, tuple(q[:n1])), ParMap(n2, apex, tuple(q[n1:]))


def reference_par_pushout_mediator(q1, q2, f, g):
    """The mediator, or the message of the TypeMismatch it raises."""
    table = [()] * q1.cod  # () means "not yet set"
    for x in range(q1.dom):
        a = q1.table[x]
        if a is not None:
            table[a] = f.table[x]
    for y in range(q2.dom):
        a = q2.table[y]
        if a is not None:
            v = g.table[y]
            if table[a] != () and table[a] != v:
                return "not a cocone"
            table[a] = v
    if any(v == () for v in table):
        return "pushout legs not jointly surjective"
    return ParMap(q1.cod, f.cod, tuple(table))


def reference_par_pullback_mediator(p1, p2, f, g):
    index = {(p1.table[i], p2.table[i]): i for i in range(p1.dom)}
    table = []
    for z in range(f.dom):
        key = (f.table[z], g.table[z])
        table.append(None if key == (None, None) else index[key])
    return ParMap(f.dom, p1.dom, tuple(table))


def reference_par_solve_postcompose(m, f):
    inverse = {v: i for i, v in enumerate(m.table) if v is not None}
    table = []
    for v in f.table:
        if v is None:
            table.append(None)
        elif v in inverse:
            table.append(inverse[v])
        else:
            return None
    return ParMap(f.dom, m.dom, tuple(table))


def reference_par_canonical_cospan(c):
    lt, rt = c.left.table, c.right.table
    apex = c.left.cod
    relabel = {}
    for v in lt + rt:
        if v is not None and v not in relabel:
            relabel[v] = len(relabel)
    for v in range(apex):
        if v not in relabel:
            relabel[v] = len(relabel)
    remap = lambda v: None if v is None else relabel[v]
    return Cospan(
        ParMap(len(lt), apex, tuple(remap(v) for v in lt)),
        ParMap(len(rt), apex, tuple(remap(v) for v in rt)),
    )


def reference_par_canonical_span(s):
    key = lambda p: tuple(-1 if v is None else v for v in p)
    pairs = sorted(zip(s.left.table, s.right.table), key=key)
    return Span(
        ParMap(len(pairs), s.left.cod, tuple(x for x, _ in pairs)),
        ParMap(len(pairs), s.right.cod, tuple(y for _, y in pairs)),
    )


# ---------------------------------------------------------------------------
# an ambient's slow path, from the references above


def reference_factorize(amb, f):
    """(e, m) with e;m = f, e in E and m in M.  Over a field m is the image's
    reduced column echelon basis, from one rref of f^T, and e the pivot rows
    of f; over Z m is the kernel of the left kernel, and e solves m * e = f."""
    if not isinstance(f, ExactMatrix):
        e, m = reference_par_factorize(f)
        return amb.map_type(*e), amb.map_type(*m)
    ring = f.ring
    if ring.is_field:
        red, pivots = reference_rref(_reference_transpose(f))
        m = _reference_transpose(ExactMatrix(ring, len(pivots), f.rows, red.entries[: len(pivots)]))
        return ExactMatrix(ring, len(pivots), f.cols, tuple(f.entries[j] for j in pivots)), m
    m = reference_kernel_basis(_reference_transpose(reference_kernel_basis(_reference_transpose(f))))
    return reference_mat_solve(m, f), m


def reference_copair(amb, f, g):
    """The map out of the tensor that is f on the left and g on the right."""
    if not isinstance(f, ExactMatrix):
        return amb.map_type(f.dom + g.dom, f.cod, f.table + g.table)
    return ExactMatrix(f.ring, f.rows, f.cols + g.cols, tuple(x + y for x, y in zip(f.entries, g.entries)))


def reference_split_copair(amb, h, n, m):
    """The halves (f, g) of a map h out of the tensor n + m: the inverse of
    ``reference_copair``."""
    if not isinstance(h, ExactMatrix):
        return amb.map_type(n, h.cod, h.table[:n]), amb.map_type(m, h.cod, h.table[n:])
    return _reference_cols(h, 0, n), _reference_cols(h, n, n + m)


def reference_solve_postcompose(amb, m, f):
    """Some x with x;m = f, or None, for a mono m.  On matrices the witness
    search is too slow through Smith, so this is ``mat_solve_left`` on the
    transposes, which ``test_limits_match_oracles`` checks."""
    if not isinstance(m, ExactMatrix):
        x = reference_par_solve_postcompose(m, f)
        return None if x is None else amb.map_type(*x)
    x = mat_solve_left(mat_transpose(m), mat_transpose(f))
    return None if x is None else mat_transpose(x)
