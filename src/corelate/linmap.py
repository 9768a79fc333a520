"""Exact dense linear algebra over GF(p), the rationals, and the integers.

A morphism n -> m is stored as an m-by-n matrix; diagrammatic composition
"first A, then B" is the matrix product B*A.  Field computations run on
reduced row echelon forms.  Over the integers, canonical forms and the
split-mono test run on row Hermite normal forms, and pushouts, kernels,
exact solves and factorisations on a Smith normal form engine that tracks
the unimodular transforms and their inverses, so saturations never leave
the integers.  A canonical (co)relation is one echelon pass: the canonical
basis of a row space (lattice), or of its rows that vanish on a block of
columns (:func:`row_basis`, :func:`row_basis_meet`).

The kernels work on the stored values themselves, without calling the
ring's scalar operations: ``int`` residues reduced mod p for GF(p),
``Fraction`` for the rationals, ``int`` for the integers.  The Smith engine
tracks only the transforms its caller reads (none for a rank or a
split-mono test, v for a kernel, u for a pushout, u^-1 and v^-1 for a
factorisation, u and v for a solve).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import RingMismatch, TypeMismatch
from .exactnum import ZZ, Ring


class ExactMatrix(NamedTuple):
    ring: Ring
    rows: int
    cols: int
    entries: tuple[tuple, ...]  # tuple of row tuples

    @property
    def dom(self) -> int:
        return self.cols

    @property
    def cod(self) -> int:
        return self.rows

    def at(self, i: int, j: int):
        return self.entries[i][j]


def mat(ring: Ring, rows: int, cols: int, entries) -> ExactMatrix:
    """Validated constructor; coerces every entry into the ring."""
    table = tuple(tuple(ring.coerce(v) for v in row) for row in entries)
    if len(table) != rows or any(len(row) != cols for row in table):
        raise TypeMismatch(f"entries do not form a {rows}x{cols} matrix")
    return ExactMatrix(ring, rows, cols, table)


def mat_identity(ring: Ring, n: int) -> ExactMatrix:
    one, zero = ring.one, ring.zero
    return ExactMatrix(
        ring, n, n, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    )


def mat_zero(ring: Ring, rows: int, cols: int) -> ExactMatrix:
    zero = ring.zero
    return ExactMatrix(ring, rows, cols, tuple((zero,) * cols for _ in range(rows)))


def _modulus(ring: Ring) -> Optional[int]:
    """p for GF(p); None for the rationals and the integers, whose stored
    values need no reduction."""
    return getattr(ring, "p", None)


def _negate(ring: Ring):
    """Negation of one stored value, without ring dispatch."""
    p = _modulus(ring)
    return operator.neg if p is None else (lambda x: -x % p)


def _require_same_ring(a: ExactMatrix, b: ExactMatrix) -> None:
    if a.ring is not b.ring and a.ring != b.ring:
        raise RingMismatch(f"{a.ring.name} vs {b.ring.name}")


def mat_mul(x: ExactMatrix, y: ExactMatrix) -> ExactMatrix:
    """Raw matrix product x*y.

    Works on the stored values, skipping zero entries of both factors;
    over GF(p) each entry is reduced once, after its sum.
    """
    _require_same_ring(x, y)
    if x.cols != y.rows:
        raise TypeMismatch(f"cannot multiply {x.rows}x{x.cols} by {y.rows}x{y.cols}")
    ring = x.ring
    p = _modulus(ring)
    zero = ring.zero
    y_support = [[(c, b) for c, b in enumerate(row) if b] for row in y.entries]
    out = []
    for row in x.entries:
        acc = [zero] * y.cols
        for a, support in zip(row, y_support):
            if a:
                for c, b in support:
                    acc[c] += a * b
        if p is not None:
            acc = [v % p for v in acc]
        out.append(tuple(acc))
    return ExactMatrix(ring, x.rows, y.cols, tuple(out))


def mat_compose(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Diagrammatic composite: first a: n -> z, then b: z -> m, i.e. b*a."""
    _require_same_ring(a, b)
    if a.rows != b.cols:
        raise TypeMismatch(f"cod {a.rows} != dom {b.cols}")
    return mat_mul(b, a)


def mat_tensor(first: ExactMatrix, *rest: ExactMatrix) -> ExactMatrix:
    """Direct sum diag(first, *rest) of one or more matrices."""
    for b in rest:
        _require_same_ring(first, b)
    blocks = (first,) + rest
    ring, zero = first.ring, first.ring.zero
    cols = sum(b.cols for b in blocks)
    out = []
    before = 0
    for b in blocks:
        pad_left, pad_right = (zero,) * before, (zero,) * (cols - before - b.cols)
        out.extend(pad_left + row + pad_right for row in b.entries)
        before += b.cols
    return ExactMatrix(ring, len(out), cols, tuple(out))


def mat_symmetry(ring: Ring, n: int, m: int) -> ExactMatrix:
    """Block swap n + m -> m + n."""
    one, zero = ring.one, ring.zero
    out = []
    for i in range(m):
        out.append(tuple(one if j == n + i else zero for j in range(n + m)))
    for i in range(n):
        out.append(tuple(one if j == i else zero for j in range(n + m)))
    return ExactMatrix(ring, m + n, n + m, tuple(out))


def mat_transpose(a: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(a.ring, a.cols, a.rows, tuple(zip(*a.entries)) if a.entries else tuple(() for _ in range(a.cols)))


def mat_neg(a: ExactMatrix) -> ExactMatrix:
    neg = _negate(a.ring)
    return ExactMatrix(a.ring, a.rows, a.cols, tuple(tuple(neg(v) for v in row) for row in a.entries))


def mat_hcat(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    _require_same_ring(a, b)
    if a.rows != b.rows:
        raise TypeMismatch("row counts differ")
    return ExactMatrix(a.ring, a.rows, a.cols + b.cols, tuple(ra + rb for ra, rb in zip(a.entries, b.entries)))


def mat_vcat(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    _require_same_ring(a, b)
    if a.cols != b.cols:
        raise TypeMismatch("column counts differ")
    return ExactMatrix(a.ring, a.rows + b.rows, a.cols, a.entries + b.entries)


def _submatrix_rows(a: ExactMatrix, lo: int, hi: int) -> ExactMatrix:
    return ExactMatrix(a.ring, hi - lo, a.cols, a.entries[lo:hi])


def _submatrix_cols(a: ExactMatrix, lo: int, hi: int) -> ExactMatrix:
    return ExactMatrix(a.ring, a.rows, hi - lo, tuple(row[lo:hi] for row in a.entries))


# ---------------------------------------------------------------------------
# echelon forms over fields


def rref(a: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns, over a field.

    Gauss-Jordan elimination on the stored values: ``int`` residues reduced
    mod p for GF(p), ``Fraction`` for the rationals.  Zero entries of the
    pivot row are skipped, and so are rows with a zero in the pivot column.
    """
    ring = a.ring
    if not ring.is_field:
        raise RingMismatch("row reduction needs a field")
    p = _modulus(ring)
    zero = ring.zero
    rows = [list(r) for r in a.entries]
    m, n = a.rows, a.cols
    pivots = []
    r = 0
    for j in range(n):
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if rows[i][j]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        # rows r.. are zero left of column j, so only the tail can change
        x = prow[j]
        if x != 1:
            if p is None:
                prow[j:] = [v / x if v else v for v in prow[j:]]
            else:
                inv = pow(x, -1, p)
                prow[j:] = [v * inv % p for v in prow[j:]]
        support = [(k, w) for k, w in enumerate(prow[j + 1 :], j + 1) if w]
        for i in range(m):
            row = rows[i]
            c = row[j]
            if c and i != r:
                row[j] = zero
                if p is None:
                    for k, w in support:
                        row[k] -= c * w
                else:
                    for k, w in support:
                        row[k] = (row[k] - c * w) % p
        pivots.append(j)
        r += 1
    return ExactMatrix(ring, m, n, tuple(tuple(r_) for r_ in rows)), tuple(pivots)


def rcef(a: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced column echelon form and pivot rows, over a field."""
    r, pivots = rref(mat_transpose(a))
    return mat_transpose(r), pivots


def mat_rank(a: ExactMatrix) -> int:
    """Rank; for integer matrices this is the rank over the rationals,
    read off the Smith diagonal."""
    if a.ring.is_field:
        return len(rref(a)[1])
    return _snf_engine(a).rank


# ---------------------------------------------------------------------------
# Smith normal form


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


class _Smith(NamedTuple):
    """One Smith elimination: u * a * v = d, with uinv and vinv the inverses
    of u and v.  A transform the caller did not ask to track is None."""

    d: ExactMatrix
    rank: int
    u: Optional[ExactMatrix]
    uinv: Optional[ExactMatrix]
    v: Optional[ExactMatrix]
    vinv: Optional[ExactMatrix]


def _eye(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


class _SnfState:
    """Mutable elimination state: the matrix plus the tracked transforms.

    Maintains a = u * a_original * v, with uinv and vinv the exact inverses
    of u and v; a transform that is not tracked is None and never updated.
    """

    def __init__(self, a: ExactMatrix, track):
        self.m, self.n = a.rows, a.cols
        self.a = [list(row) for row in a.entries]
        self.u = _eye(self.m) if "u" in track else None
        self.uinv = _eye(self.m) if "uinv" in track else None
        self.v = _eye(self.n) if "v" in track else None
        self.vinv = _eye(self.n) if "vinv" in track else None

    def row_swap(self, i, k):
        if i == k:
            return
        self.a[i], self.a[k] = self.a[k], self.a[i]
        if self.u is not None:
            self.u[i], self.u[k] = self.u[k], self.u[i]
        if self.uinv is not None:
            for row in self.uinv:
                row[i], row[k] = row[k], row[i]

    def row_neg(self, i):
        self.a[i] = [-x for x in self.a[i]]
        if self.u is not None:
            self.u[i] = [-x for x in self.u[i]]
        if self.uinv is not None:
            for row in self.uinv:
                row[i] = -row[i]

    def row_add(self, i, k, c):
        # row i += c * row k
        self.a[i] = [x + c * y for x, y in zip(self.a[i], self.a[k])]
        if self.u is not None:
            self.u[i] = [x + c * y for x, y in zip(self.u[i], self.u[k])]
        if self.uinv is not None:
            for row in self.uinv:
                row[k] -= c * row[i]

    def col_swap(self, j, l):
        if j == l:
            return
        for row in self.a:
            row[j], row[l] = row[l], row[j]
        if self.v is not None:
            for row in self.v:
                row[j], row[l] = row[l], row[j]
        if self.vinv is not None:
            self.vinv[j], self.vinv[l] = self.vinv[l], self.vinv[j]

    def col_add(self, j, l, c):
        # col j += c * col l
        for row in self.a:
            row[j] += c * row[l]
        if self.v is not None:
            for row in self.v:
                row[j] += c * row[l]
        if self.vinv is not None:
            self.vinv[l] = [x - c * y for x, y in zip(self.vinv[l], self.vinv[j])]


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


def _snf_engine(a: ExactMatrix, track: tuple[str, ...] = ()) -> _Smith:
    """Run Smith elimination, tracking only the transforms named in
    ``track`` (any of "u", "uinv", "v", "vinv").

    Pivots are chosen as the minimal-absolute-value nonzero entry of the
    remaining submatrix, scanned row-major, so the decomposition is
    reproducible; the steps do not depend on which transforms are tracked.
    """
    if a.ring != ZZ:
        raise RingMismatch("Smith normal form needs integer entries")
    st = _SnfState(a, track)
    m, n = st.m, st.n
    rows = st.a  # row operations assign into this list, so it stays current
    rank = 0
    for t in range(min(m, n)):
        best = _least_entry(rows, t, m, n)
        if best is None:
            break
        st.row_swap(t, best[0])
        st.col_swap(t, best[1])
        while True:
            if rows[t][t] < 0:
                st.row_neg(t)
            pivot = rows[t][t]
            # reduce the edging by floor division; remainders shrink strictly
            for i in range(t + 1, m):
                q = rows[i][t] // pivot
                if q:
                    st.row_add(i, t, -q)
            for j in range(t + 1, n):
                q = rows[t][j] // pivot
                if q:
                    st.col_add(j, t, -q)
            residue = next((i for i in range(t + 1, m) if rows[i][t]), None)
            if residue is not None:
                st.row_swap(t, residue)
                continue
            residue = next((j for j in range(t + 1, n) if rows[t][j]), None)
            if residue is not None:
                st.col_swap(t, residue)
                continue
            # edging clear; enforce divisibility of the remaining block
            if pivot == 1:
                break
            offender = next(
                (i for i in range(t + 1, m) if any(x % pivot for x in rows[i][t + 1 :])), None
            )
            if offender is None:
                break
            st.row_add(t, offender, 1)
        rank += 1

    def square(rows, k):
        return None if rows is None else ExactMatrix(ZZ, k, k, tuple(tuple(r) for r in rows))

    d = ExactMatrix(ZZ, m, n, tuple(tuple(r) for r in st.a))
    return _Smith(d, rank, square(st.u, m), square(st.uinv, m), square(st.v, n), square(st.vinv, n))


def snf(a: ExactMatrix) -> SmithDecomposition:
    """Smith normal form of an integer matrix."""
    s = _snf_engine(a, ("u", "v"))
    return SmithDecomposition(s.u, s.d, s.v)


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


# ---------------------------------------------------------------------------
# Hermite normal forms (canonical representatives of GL_Z orbits)


def hnf_row(a: ExactMatrix) -> ExactMatrix:
    """Canonical row-style Hermite normal form (left unimodular action).

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows sink to the bottom.  Each column is cleared below its pivot by
    repeated floor division by the least nonzero entry; rows r.. are zero
    left of column j, so only their tails change.
    """
    if a.ring is not ZZ and a.ring != ZZ:
        raise RingMismatch("Hermite normal form needs integer entries")
    m, n = a.rows, a.cols
    rows = [list(row) for row in a.entries]
    r = 0
    for j in range(n):
        while True:
            best = -1
            for i in range(r, m):
                v = rows[i][j]
                if v:
                    if v == 1 or v == -1:  # nothing can be smaller
                        best, least = i, 1
                        break
                    v = abs(v)
                    if best < 0 or v < least:
                        best, least = i, v
            if best < 0:
                break
            prow = rows[best]
            rows[r], rows[best] = prow, rows[r]
            if prow[j] < 0:
                for k in range(j, n):
                    prow[k] = -prow[k]
            residue = False
            for i in range(r + 1, m):
                row = rows[i]
                q = row[j] // least
                if q:
                    for k in range(j, n):
                        if prow[k]:
                            row[k] -= q * prow[k]
                if row[j]:
                    residue = True
            if not residue:
                break
        if best < 0:
            continue
        for i in range(r):
            row = rows[i]
            q = row[j] // least
            if q:
                for k in range(j, n):
                    if prow[k]:
                        row[k] -= q * prow[k]
        r += 1
        if r == m:
            break
    return ExactMatrix(ZZ, m, n, tuple(map(tuple, rows)))


def hnf_col(a: ExactMatrix) -> ExactMatrix:
    """Canonical column-style Hermite normal form (right unimodular action)."""
    return mat_transpose(hnf_row(mat_transpose(a)))


def row_basis(a: ExactMatrix) -> ExactMatrix:
    """Canonical basis of the row space (over a field) or the row lattice
    (over the integers): the nonzero rows of the reduced row echelon form,
    or of the row Hermite normal form, top to bottom."""
    if a.ring.is_field:
        reduced, pivots = rref(a)
        rows = reduced.entries[: len(pivots)]
    else:
        rows = tuple(row for row in hnf_row(a).entries if any(row))
    return ExactMatrix(a.ring, len(rows), a.cols, rows)


def row_basis_meet(a: ExactMatrix, k: int) -> ExactMatrix:
    """Canonical basis of the vectors of the row space (lattice) of a that
    vanish on the first k columns, with those k columns dropped.

    An echelon basis spans such vectors by its rows that vanish there, and
    those rows, cut down, are again in canonical form.
    """
    rows = tuple(row[k:] for row in row_basis(a).entries if not any(row[:k]))
    return ExactMatrix(a.ring, len(rows), a.cols - k, rows)


# ---------------------------------------------------------------------------
# kernels, factorisations, (co)limits


def kernel_basis(a: ExactMatrix) -> ExactMatrix:
    """Matrix whose columns form a basis of ker a.

    Over a field the basis comes from the reduced row echelon form; over the
    integers from Smith normal form, so the basis spans a saturated (pure)
    submodule and is a genuine Z-basis.
    """
    if a.ring.is_field:
        ring = a.ring
        neg = _negate(ring)
        r, pivots = rref(a)
        pivot_set = set(pivots)
        free = [j for j in range(a.cols) if j not in pivot_set]
        cols = []
        for j in free:
            vec = [ring.zero] * a.cols
            vec[j] = ring.one
            for i, pj in enumerate(pivots):
                vec[pj] = neg(r.entries[i][j])
            cols.append(vec)
        entries = tuple(tuple(col[i] for col in cols) for i in range(a.cols))
        return ExactMatrix(ring, a.cols, len(free), entries)
    s = _snf_engine(a, ("v",))
    return _submatrix_cols(s.v, s.rank, a.cols)


def field_factorize(a: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Factor a = m * e with e surjective and m injective, over a field.

    m is the reduced column echelon basis of the column space, so the
    factorisation is canonical.
    """
    if not a.ring.is_field:
        raise RingMismatch("epi-mono factorisation needs a field")
    ring = a.ring
    c, pivot_rows = rcef(a)
    r = len(pivot_rows)
    m = _submatrix_cols(c, 0, r)
    # solve m * e = a; rref([m | a]) = [I_r, e; 0, 0] since m has full column rank
    red, _ = rref(mat_hcat(m, a))
    e = _submatrix_cols(_submatrix_rows(red, 0, r), m.cols, m.cols + a.cols)
    return e, m


def pid_factorize(a: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Factor an integer matrix a = m * e with m a split mono.

    m is the inclusion of the saturation (pure closure) of the column span,
    read off the Smith transform; e has full row rank over the rationals.
    """
    s = _snf_engine(a, ("uinv", "vinv"))
    m = _submatrix_cols(s.uinv, 0, s.rank)
    e_rows = tuple(tuple(s.d.entries[i][i] * x for x in s.vinv.entries[i]) for i in range(s.rank))
    e = ExactMatrix(ZZ, s.rank, a.cols, e_rows)
    return e, m


def is_split_mono(a: ExactMatrix) -> bool:
    """True iff a has a left inverse, i.e. its rows span Z^cols: the row
    Hermite form is the identity on top of zero rows."""
    if a.ring is not ZZ and a.ring != ZZ:
        raise RingMismatch("split-mono test is for integer matrices")
    if a.rows < a.cols:
        return False
    h = hnf_row(a).entries
    return all(h[i][i] == 1 for i in range(a.cols))


def mat_pullback(a: ExactMatrix, b: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Pullback of the cospan (a, b): kernel of the joint map [a | -b]."""
    _require_same_ring(a, b)
    if a.rows != b.rows:
        raise TypeMismatch(f"cospan feet disagree: {a.rows} vs {b.rows}")
    k = kernel_basis(mat_hcat(a, mat_neg(b)))
    p1 = _submatrix_rows(k, 0, a.cols)
    p2 = _submatrix_rows(k, a.cols, a.cols + b.cols)
    return p1, p2


def mat_pushout(a: ExactMatrix, b: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Pushout of the span (a, b).

    Over a field: the cokernel of the stacked map [a; -b].  Over the
    integers: the quotient by the saturation of its image (free reflection),
    so the apex is again free and torsion cannot appear.
    """
    _require_same_ring(a, b)
    if a.cols != b.cols:
        raise TypeMismatch(f"span apexes disagree: {a.cols} vs {b.cols}")
    c = mat_vcat(a, mat_neg(b))
    if a.ring.is_field:
        n = kernel_basis(mat_transpose(c))
        q = mat_transpose(n)
    else:
        s = _snf_engine(c, ("u",))
        q = _submatrix_rows(s.u, s.rank, c.rows)
    q1 = _submatrix_cols(q, 0, a.rows)
    q2 = _submatrix_cols(q, a.rows, a.rows + b.rows)
    return q1, q2


def mat_solve(a: ExactMatrix, b: ExactMatrix) -> Optional[ExactMatrix]:
    """Exact solution x of a*x = b, or None when none exists.

    Over the integers the solution must itself be integral.  Free variables
    are set to zero, so the solution is deterministic.
    """
    _require_same_ring(a, b)
    if a.rows != b.rows:
        raise TypeMismatch("row counts differ")
    ring = a.ring
    if ring.is_field:
        red, pivots = rref(mat_hcat(a, b))
        rank = len([p for p in pivots if p < a.cols])
        if any(p >= a.cols for p in pivots):
            return None
        out = [[ring.zero] * b.cols for _ in range(a.cols)]
        for i, pj in enumerate(pivots):
            for j in range(b.cols):
                out[pj][j] = red.entries[i][a.cols + j]
        return ExactMatrix(ring, a.cols, b.cols, tuple(tuple(r) for r in out))
    s = _snf_engine(a, ("u", "v"))
    y = mat_mul(s.u, b)
    for i in range(s.rank, a.rows):
        if any(y.entries[i][j] != 0 for j in range(b.cols)):
            return None
    w = [[0] * b.cols for _ in range(a.cols)]
    for i in range(s.rank):
        di = s.d.entries[i][i]
        for j in range(b.cols):
            if y.entries[i][j] % di != 0:
                return None
            w[i][j] = y.entries[i][j] // di
    return mat_mul(s.v, ExactMatrix(ZZ, a.cols, b.cols, tuple(tuple(r) for r in w)))


def enumerate_matrices(ring: Ring, rows: int, cols: int, entry_bound: int):
    """All rows-by-cols matrices with entries from the ring's probe set.

    GF(p) uses all residues; the integers and rationals use the integer box
    [-entry_bound, entry_bound].
    """
    if hasattr(ring, "p"):
        values = [ring.coerce(v) for v in range(ring.p)]
    else:
        values = [ring.coerce(v) for v in range(-entry_bound, entry_bound + 1)]
    total = rows * cols
    if total == 0:
        yield ExactMatrix(ring, rows, cols, tuple(() for _ in range(rows)))
        return
    idx = [0] * total
    k = len(values)
    while True:
        flat = [values[i] for i in idx]
        yield ExactMatrix(
            ring, rows, cols, tuple(tuple(flat[r * cols : (r + 1) * cols]) for r in range(rows))
        )
        i = total - 1
        while i >= 0 and idx[i] == k - 1:
            idx[i] = 0
            i -= 1
        if i < 0:
            return
        idx[i] += 1
