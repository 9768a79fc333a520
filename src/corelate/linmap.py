"""Exact dense linear algebra over GF(p), the rationals, and the integers.

A morphism n -> m is stored as an m-by-n matrix; diagrammatic composition
"first A, then B" is the matrix product B*A.  Every canonical form, rank,
split-mono test, pullback, pushout and exact solve is one pass of the one
echelon core, ``_echelon``, on a list of rows: the row Hermite normal form,
which over a field is the reduced row echelon form.  A limit is the
canonical basis of the rows of one stacked matrix that vanish on a block of
columns (``_meet``); the left kernels it reads are saturated, so over the
integers nothing leaves the integers and no Smith form is needed.

The core works on the stored values themselves, without calling the
ring's scalar operations: ``int`` residues reduced mod p for GF(p),
``Fraction`` for the rationals, ``int`` for the integers.
"""

from __future__ import annotations

import operator
from itertools import product
from typing import NamedTuple, Optional

from .errors import RingMismatch, TypeMismatch
from .exactnum import Ring


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


def _row_support(y: ExactMatrix) -> list:
    """The nonzero (column, value) pairs of each row of y."""
    return [[(c, b) for c, b in enumerate(row) if b] for row in y.entries]


def mat_mul(x: ExactMatrix, y: ExactMatrix, y_support: Optional[list] = None) -> ExactMatrix:
    """Raw matrix product x*y.

    Works on the stored values, skipping zero entries of both factors; an
    entry of x that is 1 or -1 adds or subtracts the row of y without a
    product (over GF(p) the stored values are residues, so p - 1 takes the
    general branch); over GF(p) each entry is reduced once, after its sum.
    A caller that multiplies many matrices by one y passes y's
    ``_row_support`` once built.
    """
    _require_same_ring(x, y)
    if x.cols != y.rows:
        raise TypeMismatch(f"cannot multiply {x.rows}x{x.cols} by {y.rows}x{y.cols}")
    ring = x.ring
    p = _modulus(ring)
    zero = ring.zero
    if y_support is None:
        y_support = _row_support(y)
    out = []
    for row in x.entries:
        acc = [zero] * y.cols
        for a, support in zip(row, y_support):
            if a:
                if a == 1:
                    for c, b in support:
                        acc[c] += b
                elif a == -1:
                    for c, b in support:
                        acc[c] -= b
                else:
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
    return ExactMatrix(a.ring, a.cols, a.rows, tuple(zip(*a.entries)) if a.entries else ((),) * a.cols)


def mat_hcat(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    _require_same_ring(a, b)
    if a.rows != b.rows:
        raise TypeMismatch("row counts differ")
    return ExactMatrix(a.ring, a.rows, a.cols + b.cols, tuple(ra + rb for ra, rb in zip(a.entries, b.entries)))



# ---------------------------------------------------------------------------
# the echelon core: in place on a list of row lists
#
# One loop serves every ring: the row Hermite form over a Euclidean ring
# (Cohen, A Course in Computational Algebraic Number Theory, 2.4) is the
# reduced row echelon form on a field, where every nonzero entry is a unit.
# The core reads two facts of the ring once per call: its modulus p, for the
# ``% p`` of a GF(p) row update, and whether it is a field.
#
# It takes a column k and skips the reduction of a row that has its pivot
# before column k against any later pivot row: such rows leave the meet
# with the first k columns (see ``_meet``), and their reduction never feeds
# back into the rows that stay.  With k = 0 the result is the full
# canonical form; with k = ncols it is forward elimination only, enough for
# a rank or for the pivots themselves.


def _echelon(ring: Ring, rows: list, ncols: int, k: int = 0) -> list:
    """Row Hermite form in place; returns the pivot columns.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows sink to the bottom.  Each column is cleared below its pivot by
    repeated floor division by the least nonzero entry.  On a field that is
    the first nonzero entry, made 1 by its inverse, so one step clears the
    column and the form is the rref; over the integers the pivot is made
    positive by its sign.  Rows r.. are zero left of column j, so only the
    nonzero tail of the pivot row is read, and the pivot column is written
    directly.
    """
    p = _modulus(ring)
    field = ring.is_field
    zero = ring.zero
    m = len(rows)
    pivots = []
    r = lo = 0
    for j in range(ncols):
        if r == m:
            break
        if j <= k:
            lo = r
        while True:
            best = -1
            for i in range(r, m):
                v = rows[i][j]
                if v:
                    if field or v == 1 or v == -1:  # nothing can be smaller
                        best = i
                        break
                    v = abs(v)
                    if best < 0 or v < least:
                        best, least = i, v
            if best < 0:
                break
            prow = rows[best]
            rows[r], rows[best] = prow, rows[r]
            x = prow[j]
            if field:
                if x != 1:
                    if p is None:
                        prow[j:] = [v / x if v else v for v in prow[j:]]
                    else:
                        inv = pow(x, -1, p)
                        prow[j:] = [v * inv % p for v in prow[j:]]
            elif x < 0:
                for c in range(j, ncols):
                    prow[c] = -prow[c]
            pivot = prow[j]
            unit = field or pivot == 1
            support = None  # built on first use, for this pivot row
            residue = False
            for i in range(r + 1, m):
                row = rows[i]
                x = row[j]
                if x:
                    q = x if unit else x // pivot
                    if q:
                        support = support or [(c, w) for c, w in enumerate(prow[j + 1 :], j + 1) if w]
                        if p is None:
                            for c, w in support:
                                row[c] -= q * w
                        else:
                            for c, w in support:
                                row[c] = (row[c] - q * w) % p
                        x = row[j] = zero if unit else x - q * pivot
                    if not unit and x:  # a unit pivot clears its column in one step
                        residue = True
            if not residue:
                break
        if best < 0:
            continue
        for i in range(lo, r):
            row = rows[i]
            x = row[j]
            if x:
                q = x if unit else x // pivot
                if q:
                    support = support or [(c, w) for c, w in enumerate(prow[j + 1 :], j + 1) if w]
                    if p is None:
                        for c, w in support:
                            row[c] -= q * w
                    else:
                        for c, w in support:
                            row[c] = (row[c] - q * w) % p
                    row[j] = zero if unit else x - q * pivot
        pivots.append(j)
        r += 1
    return pivots


def _meet(ring: Ring, rows: list, ncols: int, k: int = 0) -> list:
    """Canonical basis of the vectors of the row space (lattice) of the row
    lists that vanish on the first k columns, with those columns dropped.

    An echelon basis spans such vectors by its rows that vanish there (the
    rows with a pivot at column k or later), and those rows, cut down, are
    again in canonical form.
    """
    pivots = _echelon(ring, rows, ncols, k)
    lo = sum(1 for j in pivots if j < k)
    return [row[k:] for row in rows[lo : len(pivots)]]


def _cut(ring: Ring, basis: list, lo: int, hi: int) -> ExactMatrix:
    """Columns lo..hi of the basis rows, as a matrix."""
    return ExactMatrix(ring, len(basis), hi - lo, tuple([tuple(row[lo:hi]) for row in basis]))


# ---------------------------------------------------------------------------
# canonical forms, rank and the split-mono test: wrappers of the core


def echelon_rows(left: ExactMatrix, right: ExactMatrix) -> tuple:
    """The rows of the canonical echelon form of [left | right], as tuples:
    a canonical basis of the row space (lattice), then the zero rows."""
    _require_same_ring(left, right)
    if left.rows != right.rows:
        raise TypeMismatch("row counts differ")
    rows = [[*l, *r] for l, r in zip(left.entries, right.entries)]
    _echelon(left.ring, rows, left.cols + right.cols)
    return tuple(map(tuple, rows))


def echelon_rows_each(lefts, rights):
    """``([echelon_rows(left, right) for right in rights] for left in
    lefts)``, one list per left, lazily: one echelon pass over [left | I]
    per left instead of one pass per pair, and the block of rights is
    prepared once for all the lefts.

    The pass gives the canonical form H of left and an invertible U
    (unimodular over the integers) with U * left = H, so [left | right]
    and [H | U * right] have the same row space (lattice).  When H has no
    zero row, [H | U * right] is canonical already: every pivot lies in the
    H block, which is reduced.  Otherwise a pass over it finishes the rows.
    The U * right are one product, by the rights side by side, whose
    support is built once.  Every matrix is checked before the first list.
    """
    lefts, rights = list(lefts), list(rights)
    every = lefts + rights
    for a in every:
        _require_same_ring(every[0], a)
        if a.rows != every[0].rows:
            raise TypeMismatch("row counts differ")
    return _echelon_rows_each(lefts, rights) if lefts else iter(())


def _echelon_rows_each(lefts: list, rights: list):
    """The lists of :func:`echelon_rows_each`, for checked legs and at
    least one left."""
    ring, apex = lefts[0].ring, lefts[0].rows
    one, zero = ring.one, ring.zero
    eye = [[one if j == i else zero for j in range(apex)] for i in range(apex)]
    side_by_side = tuple([tuple([v for right in rights for v in right.entries[i]]) for i in range(apex)])
    block = ExactMatrix(ring, apex, sum(right.cols for right in rights), side_by_side)
    support = _row_support(block)
    for left in lefts:
        n = left.cols
        rows = [[*row, *unit] for row, unit in zip(left.entries, eye)]
        rank = sum(1 for j in _echelon(ring, rows, n + apex) if j < n)
        h = [tuple(row[:n]) for row in rows]
        u = ExactMatrix(ring, apex, apex, tuple([tuple(row[n:]) for row in rows]))
        products = mat_mul(u, block, support).entries
        out = []
        lo = 0
        for right in rights:
            hi = lo + right.cols
            if rank == apex:
                out.append(tuple([hrow + prow[lo:hi] for hrow, prow in zip(h, products)]))
            else:
                finished = [[*hrow, *prow[lo:hi]] for hrow, prow in zip(h, products)]
                _echelon(ring, finished, n + hi - lo)
                out.append(tuple(map(tuple, finished)))
            lo = hi
        yield out


def split_rows(ring: Ring, n: int, m: int, rows) -> tuple[ExactMatrix, ExactMatrix]:
    """The matrices of the first n and the last m columns of the rows."""
    return _cut(ring, rows, 0, n), _cut(ring, rows, n, n + m)


def mat_rank(a: ExactMatrix) -> int:
    """Rank; for integer matrices this is the rank over the rationals,
    the number of Hermite pivots."""
    return len(_echelon(a.ring, [list(row) for row in a.entries], a.cols, a.cols))


def is_split_mono(a: ExactMatrix) -> bool:
    """True iff a has a left inverse, i.e. its rows span the whole row
    space (Z^cols over the integers): the echelon form is the identity on
    top of zero rows.  Forward elimination decides it, since it already
    fixes the pivots; over a field they are 1, so this is full column rank."""
    if a.rows < a.cols:
        return False
    rows = [list(row) for row in a.entries]
    pivots = _echelon(a.ring, rows, a.cols, a.cols)
    return len(pivots) == a.cols and all(rows[i][i] == 1 for i in range(a.cols))


# ---------------------------------------------------------------------------
# limits and solves: one echelon pass each
#
# Every one is the meet of one stacked matrix with its first k columns,
# over every ring: the left kernel of [T; -B] carried through the outer
# legs, read off the rows of [T | L 0; -B | 0 R] that vanish on [T; -B]
# (Cohen, A Course in Computational Algebraic Number Theory, 2.4).  A left
# kernel is saturated, so over the integers no Smith form or free
# reflection is needed.


def _glued_basis(ring: Ring, top, bottom, k: int, left: Optional[ExactMatrix] = None, right: Optional[ExactMatrix] = None) -> list:
    """Canonical basis of {(w1 * left, w2 * right) : w1 * top = w2 * bottom},
    from one echelon pass over [top | left 0; -bottom | 0 right].

    ``top`` and ``bottom`` are sequences of rows of width k; an outer leg
    that is omitted is the identity, stacked as unit rows.
    """
    zero, one = ring.zero, ring.one
    neg = _negate(ring)
    x = len(top) if left is None else left.cols
    y = len(bottom) if right is None else right.cols
    rows = []
    for i, row in enumerate(top):
        if left is None:
            tail = [zero] * (x + y)
            tail[i] = one
            rows.append([*row, *tail])
        else:
            rows.append([*row, *left.entries[i], *(zero,) * y])
    for i, row in enumerate(bottom):
        if right is None:
            tail = [zero] * (x + y)
            tail[x + i] = one
            rows.append([*map(neg, row), *tail])
        else:
            rows.append([*map(neg, row), *(zero,) * x, *right.entries[i]])
    return _meet(ring, rows, k + x + y, k)


def mat_pullback(a: ExactMatrix, b: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Pullback of the cospan (a, b): the transposed pushout of the
    transposed legs, i.e. the kernel of the joint map [a | -b]."""
    _require_same_ring(a, b)
    if a.rows != b.rows:
        raise TypeMismatch(f"cospan feet disagree: {a.rows} vs {b.rows}")
    p1, p2 = mat_pushout(mat_transpose(a), mat_transpose(b))
    return mat_transpose(p1), mat_transpose(p2)


def mat_pushout(a: ExactMatrix, b: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Pushout of the span (a, b): the left kernel of [a; -b], whose
    canonical basis is also the canonical cospan of the pushout.

    Over the integers this is the quotient by the saturation of the image
    of [a; -b] (the free reflection), so the apex is again free and torsion
    cannot appear.
    """
    _require_same_ring(a, b)
    if a.cols != b.cols:
        raise TypeMismatch(f"span apexes disagree: {a.cols} vs {b.cols}")
    basis = _glued_basis(a.ring, a.entries, b.entries, a.cols)
    return split_rows(a.ring, a.rows, b.rows, basis)


def corelation_composite(l1: ExactMatrix, r1: ExactMatrix, l2: ExactMatrix, r2: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Canonical legs of the composite of the corelations (l1, r1) and
    (l2, r2): the left kernel of [r1; -l2] (their pushout) carried through
    diag(l1, r2), which is the image of the composite legs."""
    for leg in (r1, l2, r2):
        _require_same_ring(l1, leg)
    if r1.cols != l2.cols:
        raise TypeMismatch(f"feet disagree: {r1.cols} vs {l2.cols}")
    basis = _glued_basis(l1.ring, r1.entries, l2.entries, r1.cols, l1, r2)
    return split_rows(l1.ring, l1.cols, r2.cols, basis)


def corelation_tensor(pairs) -> tuple[ExactMatrix, ExactMatrix]:
    """Canonical legs of the tensor of canonical corelations, given as
    (left, right) pairs: the rows of [diag(left_i) | diag(right_i)] in
    order of their pivot columns, with no elimination.

    Each pair's rows are a canonical basis (reduced over a field, row
    Hermite over the integers) with no zero row, so its rows with a pivot
    in the left feet come first.  Padded into the direct sum, a row keeps
    its pivot, and a pivot column is zero outside its own pair.  So the
    rows in pivot order, which are every pair's rows with a pivot in the
    left feet, pair by pair, then every pair's other rows, are again
    reduced over a field, and over the integers keep positive pivots with
    the entries above them in [0, pivot).
    """
    ring = pairs[0][0].ring
    zero = ring.zero
    n = sum(left.cols for left, _ in pairs)
    m = sum(right.cols for _, right in pairs)
    # per leg, the rows with a pivot in the left feet, then the others
    lhead, ltail, rhead, rtail = [], [], [], []
    x = y = 0
    for left, right in pairs:
        k = 0
        for row in left.entries:
            if not any(row):
                break
            k += 1
        a, b = (zero,) * x, (zero,) * (n - x - left.cols)
        rows = [a + row + b for row in left.entries]
        lhead += rows[:k]
        ltail += rows[k:]
        a, b = (zero,) * y, (zero,) * (m - y - right.cols)
        rows = [a + row + b for row in right.entries]
        rhead += rows[:k]
        rtail += rows[k:]
        x += left.cols
        y += right.cols
    lrows, rrows = lhead + ltail, rhead + rtail
    return ExactMatrix(ring, len(lrows), n, tuple(lrows)), ExactMatrix(ring, len(rrows), m, tuple(rrows))


def mat_solve_left(a: ExactMatrix, b: ExactMatrix) -> Optional[ExactMatrix]:
    """Exact solution x of x*a = b, or None when none exists.

    One pass over [b | I 0; -a | 0 I]: its meet is {(z, x) : z*b = x*a},
    and a solution exists iff the meet's z block has a pivot of 1 in every
    column; its first rows are then (e_l, x_l).
    """
    _require_same_ring(a, b)
    if a.cols != b.cols:
        raise TypeMismatch("column counts differ")
    k = b.rows
    basis = _glued_basis(a.ring, b.entries, a.entries, a.cols)
    if len(basis) < k or any(basis[l][l] != 1 for l in range(k)):
        return None
    return _cut(a.ring, basis[:k], k, k + a.rows)


def enumerate_matrices(ring: Ring, rows: int, cols: int, entry_bound: int):
    """All rows-by-cols matrices with entries from the ring's probe set.

    GF(p) uses all residues; the integers and rationals use the integer box
    [-entry_bound, entry_bound].
    """
    if hasattr(ring, "p"):
        values = [ring.coerce(v) for v in range(ring.p)]
    else:
        values = [ring.coerce(v) for v in range(-entry_bound, entry_bound + 1)]
    for flat in product(values, repeat=rows * cols):
        yield ExactMatrix(ring, rows, cols, tuple(flat[r * cols : (r + 1) * cols] for r in range(rows)))
