"""Exact dense linear algebra over GF(p), the rationals, and the integers.

A morphism n -> m is stored as an m-by-n matrix; diagrammatic composition
"first A, then B" is the matrix product B*A.  Every canonical form, rank,
split-mono test, pullback, pushout, (co)span composite and mediator is one
pass of the one echelon core, ``_echelon``, on a list of rows: the row
Hermite normal form, which over a field is the reduced row echelon form,
by one loop over the rows above and then below each pivot, run once per
Euclid step over the integers.  A limit is the canonical basis of the rows
of one stacked matrix that vanish on a block of columns (``_meet``); the
left kernels it reads are saturated, so over the integers nothing leaves
the integers and no Smith form is needed.  The span half reads the legs'
columns as its rows and cuts its results as columns, with no transpose
built.

The core works on the stored values themselves, reading the ring only for
its data: ``int`` residues reduced mod ``ring.p`` for GF(p), ``int`` for the
integers.  A matrix over the rationals (a ``QMatrix``) stores one integer
table over a positive denominator, and every kernel stacks, slices,
transposes and multiplies those tables, so it neither reads nor builds a
``Fraction``; two Q matrices compare and hash as their tables in lowest
terms.  Fractions live only at the edges: a Q matrix built from values
(``mat``, ``ExactMatrix``) reads them once, and its ``entries``, which its
repr and the literals show, are built from the table when they are read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm
from typing import NamedTuple, Optional

from .errors import RingMismatch, TypeMismatch
from .exactnum import Ring


class _Fields(NamedTuple):
    ring: Ring
    rows: int
    cols: int
    entries: tuple  # the stored values (see ExactMatrix)


class ExactMatrix(_Fields):
    """A matrix over a ring.  Its last field holds its values as stored:
    over GF(p) and the integers its entries, which equality and hashing
    compare as fields; over Q (a ``QMatrix``) the pair (table, den) of a
    tuple of integer rows and a positive denominator, whose quotients are
    its entries.  Built from values over Q, it reads them into that
    pair."""

    __slots__ = ()

    def __new__(cls, ring: Ring, rows: int, cols: int, entries):
        if _rational(ring):
            return _read_values(ring, rows, cols, entries)
        return _new(cls, (ring, rows, cols, entries))

    @property
    def dom(self) -> int:
        return self.cols

    @property
    def cod(self) -> int:
        return self.rows


class QMatrix(ExactMatrix):
    """A matrix over Q.  Its stored table need not be in lowest terms, so
    it is compared and hashed in them (``_lowest``), as integers; its
    ``entries`` are ``Fraction``s built from the table when they are read,
    the integral ones shared from the ring's ``integers``."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not QMatrix:
            return NotImplemented
        return self[:3] == other[:3] and (self[3] == other[3] or _lowest(*self[3]) == _lowest(*other[3]))

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash((self[:3], _lowest(*self[3])))

    def __getnewargs__(self):
        # copy and pickle rebuild the matrix through ExactMatrix, from values
        return self.ring, self.rows, self.cols, self.entries

    @property
    def entries(self) -> tuple:
        table, den = self[3]
        return tuple([tuple(_fractions(self.ring, row, den)) for row in table])

    def __repr__(self) -> str:
        return f"ExactMatrix(ring={self.ring!r}, rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r})"


# builds a matrix from its stored fields without a Python frame:
# _new(ExactMatrix, (ring, rows, cols, entries)), and over Q
# _new(QMatrix, (ring, rows, cols, (table, den)))
_new = tuple.__new__


def _rational(ring: Ring) -> bool:
    """Whether the ring is Q, whose matrices store integer tables over a
    denominator: the field with no modulus."""
    return ring.p is None and ring.is_field


# ---------------------------------------------------------------------------
# rational matrices as integer tables
#
# A table of rationals is its integers over the lcm of its denominators,
# and a row of rationals spans what any multiple of it spans, so the core
# eliminates Q rows as integer rows (Bareiss, Sylvester's identity and
# multistep integer-preserving Gaussian elimination, Math. Comp. 1968), and
# the product multiplies integer rows.  The tables a kernel reads are
# brought to one denominator (``_tables``), the rows it leaves are over the
# denominator their pivots share (``_kept_den``), and ``_matrix`` stores
# its result as it is, so a Q matrix is built from its integers alone;
# only a comparison, a hash or a sweep key brings a table to lowest terms
# (``_lowest``).  ``_read_values`` reads every Fraction the program takes
# in, and ``_fractions`` builds every Fraction a caller reads but the
# shared ones.


def _read_values(ring: Ring, rows: int, cols: int, values) -> QMatrix:
    """The Q matrix of the rationals ``values``, row tuples of
    ``Fraction``s or ``int``s: each value times the lcm of their
    denominators, over it."""
    den = lcm(*[v.denominator for row in values for v in row])
    if den == 1:
        table = tuple([tuple([v.numerator for v in row]) for row in values])
    else:
        table = tuple([tuple([v.numerator * (den // v.denominator) for v in row]) for row in values])
    return _new(QMatrix, (ring, rows, cols, (table, den)))


def _fractions(ring: Ring, values, d: int) -> list:
    """The rationals v / d for the integers v, with d nonzero: an integral
    one is taken from the ring's shared ``integers`` when it is there."""
    ints = ring.integers
    if d == 1:
        return [ints[v] if v in ints else Fraction(v) for v in values]
    return [ints[v // d] if not v % d and v // d in ints else Fraction(v, d) for v in values]


def _lowest(table: tuple, den: int) -> tuple:
    """The pair (table, den) of integer rows over den > 0, in lowest terms:
    both divided by the gcd of den and every entry, which is read row by
    row until it is 1."""
    if den == 1:
        return table, den
    g = den
    for row in table:
        g = gcd(g, *row)
        if g == 1:
            return table, den
    return tuple([tuple([v // g for v in row]) for row in table]), den // g


def _matrix(ring: Ring, rows: int, cols: int, table: tuple, den: Optional[int]) -> ExactMatrix:
    """A kernel's result from its table of row tuples: over Q (``den`` not
    None) integers over den > 0; the stored values themselves
    otherwise."""
    if den is None:
        return _new(ExactMatrix, (ring, rows, cols, table))
    return _new(QMatrix, (ring, rows, cols, (table, den)))


def _stored(a: ExactMatrix) -> tuple:
    """a's stored table of row tuples and its denominator: its entries and
    None, or over Q its integers and their denominator."""
    return a[3] if type(a) is QMatrix else (a[3], None)


def _common_den(ring: Ring, legs) -> Optional[int]:
    """Over Q, the lcm of the legs' denominators, the one denominator a
    kernel brings their tables to (1 for no legs, the denominator of a
    table of integers); None outside Q, where no denominator is stored."""
    return lcm(*[a[3][1] for a in legs]) if _rational(ring) else None


def _scaled(a: ExactMatrix, den: int) -> tuple:
    """The rows of a's integer table brought to the denominator ``den``, a
    multiple of its own."""
    table, d = a[3]
    if d == den:
        return table
    s = den // d
    return tuple([tuple([v * s for v in row]) for row in table])


def _tables(ring: Ring, legs, columns: bool = False) -> tuple:
    """The legs' stored tables, each as (rows, width), with ``columns`` as
    (columns, height), the rows of its transpose, read with no transpose
    built; then the one denominator all of them are over: over Q their
    ``_common_den``, to which each table is ``_scaled``; None outside Q,
    where the tables are as stored."""
    den = _common_den(ring, legs)
    out = []
    for a in legs:
        table = a[3] if den is None else _scaled(a, den)
        if columns:
            out.append(((list(zip(*table)) if a.rows else [()] * a.cols), a.rows))
        else:
            out.append((table, a.cols))
    return out, den


def _kept_den(rows) -> int:
    """The denominator of the rows the Q core keeps: the pivot they share,
    the first nonzero entry of the first row (1 when there is none)."""
    for v in rows[0] if rows else ():
        if v:
            return v
    return 1


def mat(ring: Ring, rows: int, cols: int, entries) -> ExactMatrix:
    """Validated constructor; coerces every entry into the ring."""
    table = tuple(tuple(ring.coerce(v) for v in row) for row in entries)
    if len(table) != rows or any(len(row) != cols for row in table):
        raise TypeMismatch(f"entries do not form a {rows}x{cols} matrix")
    return ExactMatrix(ring, rows, cols, table)


def mat_identity(ring: Ring, n: int) -> ExactMatrix:
    return _matrix(ring, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), _common_den(ring, ()))


def _require_same_ring(a: ExactMatrix, b: ExactMatrix) -> None:
    if a.ring is not b.ring and a.ring != b.ring:
        raise RingMismatch(f"{a.ring.name} vs {b.ring.name}")


def _row_support(table) -> list:
    """The nonzero (column, value) pairs of each row of a table."""
    return [[(c, b) for c, b in enumerate(row) if b] for row in table]


def _product(rows, y_support, cols: int, p: Optional[int]) -> tuple:
    """The rows of the product of the table ``rows`` by the table whose
    ``_row_support`` is ``y_support``, ``cols`` wide, each entry reduced
    mod p after its sum when p is not None."""
    out = []
    for row in rows:
        acc = [0] * cols
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
    return tuple(out)


def mat_mul(x: ExactMatrix, y: ExactMatrix) -> ExactMatrix:
    """Raw matrix product x*y.

    Works on the stored values, skipping zero entries of both factors; an
    entry of x that is 1 or -1 adds or subtracts the row of y without a
    product (over GF(p) the stored values are residues, so p - 1 takes the
    general branch); over GF(p) each entry is reduced once, after its sum.
    Over Q it multiplies the integer tables, and the product is over the
    product of their denominators.
    """
    _require_same_ring(x, y)
    if x.cols != y.rows:
        raise TypeMismatch(f"cannot multiply {x.rows}x{x.cols} by {y.rows}x{y.cols}")
    (rows, d), (table, e) = _stored(x), _stored(y)
    product = _product(rows, _row_support(table), y.cols, x.ring.p)
    return _matrix(x.ring, x.rows, y.cols, product, None if d is None else d * e)


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
    den = _common_den(first.ring, blocks)
    cols = sum(b.cols for b in blocks)
    out = []
    before = 0
    for b in blocks:
        pad_left, pad_right = (0,) * before, (0,) * (cols - before - b.cols)
        out.extend(pad_left + row + pad_right for row in (b[3] if den is None else _scaled(b, den)))
        before += b.cols
    return _matrix(first.ring, len(out), cols, tuple(out), den)


def mat_symmetry(ring: Ring, n: int, m: int) -> ExactMatrix:
    """Block swap n + m -> m + n."""
    out = []
    for i in range(m):
        out.append(tuple(1 if j == n + i else 0 for j in range(n + m)))
    for i in range(n):
        out.append(tuple(1 if j == i else 0 for j in range(n + m)))
    return _matrix(ring, m + n, n + m, tuple(out), _common_den(ring, ()))


def mat_transpose(a: ExactMatrix) -> ExactMatrix:
    table, den = _stored(a)
    return _matrix(a.ring, a.cols, a.rows, tuple(zip(*table)) if table else ((),) * a.cols, den)


# ---------------------------------------------------------------------------
# the echelon core: in place on a list of row lists
#
# One loop serves every ring: the row Hermite form over a Euclidean ring
# (Cohen, A Course in Computational Algebraic Number Theory, 2.4) is the
# reduced row echelon form on a field, where every nonzero entry is a unit.
# The core reads three facts of the ring once per call: ``ring.p``, the
# modulus for the ``% p`` of a GF(p) row update (None outside GF(p)),
# ``ring.is_field``, and from the two whether its rows are Q rows: integer
# rows that stand for rows of rationals.
#
# One pass reduces the rows above and then below a pivot row, with one row
# update per ring.  Over the integers it runs at each Euclid step of a
# column, so a row above is reduced against every interim pivot; it ends as
# one reduction would leave it, since the Hermite form is unique.
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
    zero rows sink to the bottom.  The pivot is a column's least nonzero
    entry from row r down; one pass takes its floor quotient times the pivot
    row from each row above and below, and repeats with the least residue
    below as the next pivot (a Euclid step) until none is left.  On a field
    the pivot is the first nonzero entry and one step clears the column, so
    the form is the rref: over GF(p) the pivot is made 1 by its inverse;
    over the integers, and over Q, it is made positive by its sign.  Only
    the nonzero tail of the pivot row is read, and the pivot column is
    written directly.

    Over Q the rows are integer rows: a row with entry x under (or above) a
    pivot v becomes (v/g)·row − (x/g)·pivot row, g = gcd(v, x), scaled only
    when v/g is not 1 and only on its nonzero entries, then divided by the
    gcd of its entries.  At the end the rows a caller keeps (rows with a
    pivot at column k or later) are brought to one denominator, the lcm of
    their pivots, which each of their pivots becomes: divided by it, they
    are the rref rows.  A row with its pivot before column k keeps its
    integers, but for its pivot, which becomes 1 as on every field; the
    zero rows are zero already.
    """
    p = ring.p
    field = ring.is_field
    rational = p is None and field
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
            if p is not None:
                if x != 1:
                    inv = pow(x, -1, p)
                    prow[j:] = [v * inv % p for v in prow[j:]]
            elif x < 0:  # the integers, and Q's integer rows
                for c in range(j, ncols):
                    prow[c] = -prow[c]
            pivot = prow[j]
            unit = field or pivot == 1
            support = None  # built on first use, for this pivot row
            residue = False
            for i in range(lo, m):
                if i == r:
                    continue
                row = rows[i]
                x = row[j]
                if x:
                    if rational:
                        s = 0 if i < r else j + 1  # a row below is zero up to column j
                        g = gcd(pivot, x)
                        a, q = pivot // g, x // g
                        if a != 1:
                            row[s:] = [v * a if v else 0 for v in row[s:]]
                    else:
                        q = x if unit else x // pivot
                    if q:
                        support = support or [(c, w) for c, w in enumerate(prow[j + 1 :], j + 1) if w]
                        if p is None:
                            for c, w in support:
                                row[c] -= q * w
                        else:
                            for c, w in support:
                                row[c] = (row[c] - q * w) % p
                        x = row[j] = 0 if unit else x - q * pivot
                    if rational:
                        g = gcd(*row)
                        if g > 1:
                            row[s:] = [v // g for v in row[s:]]
                    elif x and i > r:  # a residue below; a unit pivot leaves none
                        residue = True
            if not residue:
                break
        if best >= 0:
            pivots.append(j)
            r += 1
    if rational:
        den = 1
        for i, j in enumerate(pivots):
            if j < k:
                rows[i][j] = 1
            elif rows[i][j] != 1:
                den = lcm(den, rows[i][j])
        if den != 1:
            for i, j in enumerate(pivots):
                row = rows[i]
                if j >= k and row[j] != den:
                    s = den // row[j]
                    row[k:] = [v * s for v in row[k:]]
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


def split_rows(ring: Ring, n: int, m: int, rows, den: Optional[int], columns: bool = False, skip: int = 0) -> tuple[ExactMatrix, ExactMatrix]:
    """The matrices of the n columns of the rows after the first ``skip``
    and of the m columns after them, over ``den`` (over Q; None outside
    it); with ``columns``, the matrices whose rows are those columns,
    which are the transposes, cut with no transpose built."""
    lo, mid, hi = skip, skip + n, skip + n + m
    k = len(rows)
    if columns:
        cols = list(zip(*rows)) if rows else [()] * hi
        return _matrix(ring, n, k, tuple(cols[lo:mid]), den), _matrix(ring, m, k, tuple(cols[mid:hi]), den)
    return (
        _matrix(ring, k, n, tuple([tuple(row[lo:mid]) for row in rows]), den),
        _matrix(ring, k, m, tuple([tuple(row[mid:hi]) for row in rows]), den),
    )


# ---------------------------------------------------------------------------
# canonical forms, rank and the split-mono test: wrappers of the core
#
# A span is the cospan of its transposed legs.  A function of this section
# or the next that takes ``columns`` serves the span half with it: it reads
# the legs' columns as its input rows and cuts its results as columns, so
# no transpose is built before or after.


def _require_apex(legs, columns: bool) -> int:
    """The common apex of the legs: their rows (with ``columns``, their
    columns), all over one ring; 0 for no legs."""
    if not legs:
        return 0
    apex = legs[0].cols if columns else legs[0].rows
    for a in legs:
        _require_same_ring(legs[0], a)
        if (a.cols if columns else a.rows) != apex:
            raise TypeMismatch("the legs' apexes differ")
    return apex


def echelon_rows(left: ExactMatrix, right: ExactMatrix, columns: bool = False) -> tuple:
    """The rows of the canonical echelon form of [left | right], as tuples
    of stored values, and the denominator they are over (over Q; None
    outside it): a canonical basis of the row space (lattice), then the
    zero rows.  With ``columns``, of [left^T | right^T]."""
    _require_apex((left, right), columns)
    ((lrows, x), (rrows, y)), den = _tables(left.ring, (left, right), columns)
    rows = [[*l, *r] for l, r in zip(lrows, rrows)]
    _echelon(left.ring, rows, x + y)
    return tuple(map(tuple, rows)), None if den is None else _kept_den(rows)


def echelon_rows_each(lefts, rights, columns: bool = False):
    """For each left, lazily, the canonical form H of left and, for each
    right, the columns of the right block of ``echelon_rows(left,
    right)``, whose rows are those of H beside that block; with
    ``columns``, of the legs' transposes.  Each is given as the stored
    values of its matrix: a tuple of rows, over Q the pair of a tuple of
    integer rows and a denominator, in lowest terms, so that two are equal
    exactly when the matrices are.  One echelon pass over [left | I] per
    left instead of one pass per pair, and the block of rights is prepared
    once for all the lefts.

    The pass gives the canonical form H of left and an invertible U
    (unimodular over the integers) with U * left = H, so [left | right]
    and [H | U * right] have the same row space (lattice).  When H has no
    zero row, [H | U * right] is canonical already: every pivot lies in the
    H block, which is reduced.  Otherwise a pass over it finishes the
    block, and leaves H as it is.  The U * right are one product, by the
    rights side by side, whose support is built once, and its columns are
    sliced for each right.  Every matrix is checked before the first
    result.
    """
    lefts, rights = list(lefts), list(rights)
    apex = _require_apex(lefts + rights, columns)
    if not lefts:
        return iter(())
    ring = lefts[0].ring
    return _echelon_rows_each(ring, apex, [_tables(ring, (a,), columns) for a in lefts], _tables(ring, rights, columns))


def _echelon_rows_each(ring: Ring, apex: int, lefts: list, rights: tuple):
    """The results of :func:`echelon_rows_each`, for checked legs: each
    left as its ``_tables``, and the rights as theirs, over one
    denominator."""
    p = ring.p
    rights, e = rights
    eye = [[1 if j == i else 0 for j in range(apex)] for i in range(apex)]
    side_by_side = tuple([tuple([v for rows, _ in rights for v in rows[i]]) for i in range(apex)])
    total = sum(m for _, m in rights)
    support = _row_support(side_by_side)
    bounds, lo = [], 0
    for _, m in rights:
        bounds.append((lo, lo + m))
        lo += m
    for ((left, n),), d in lefts:
        # over Q a unit row of [left | I] is d times a unit vector
        units = eye if d is None or d == 1 else [[v * d for v in row] for row in eye]
        rows = [[*row, *unit] for row, unit in zip(left, units)]
        rank = sum(1 for j in _echelon(ring, rows, n + apex) if j < n)
        hrows = [row[:n] for row in rows]
        products = _product([row[n:] for row in rows], support, total, p)
        # over Q, H and U are over the pivot den, and U * right over den * e
        h = tuple(map(tuple, hrows))
        den = None
        if d is not None:
            den = _kept_den(rows)
            h = _lowest(h, den)
            den *= e
        if rank == apex:
            cols = tuple(zip(*products)) if apex else ((),) * total
            if den is None:
                yield h, [cols[lo:hi] for lo, hi in bounds]
            else:
                yield h, [_lowest(cols[lo:hi], den) for lo, hi in bounds]
            continue
        if den is not None and e != 1:
            hrows = [[v * e for v in row] for row in hrows]
        blocks = []
        for lo, hi in bounds:
            finished = [[*hrow, *prow[lo:hi]] for hrow, prow in zip(hrows, products)]
            _echelon(ring, finished, n + hi - lo)
            cols = tuple(zip(*finished))[n:]
            blocks.append(cols if den is None else _lowest(cols, _kept_den(finished)))
        yield h, blocks


def mat_rank(a: ExactMatrix) -> int:
    """Rank; for integer matrices this is the rank over the rationals,
    the number of Hermite pivots."""
    return len(_echelon(a.ring, [list(row) for row in _stored(a)[0]], a.cols, a.cols))


def is_split_mono(a: ExactMatrix) -> bool:
    """True iff a has a left inverse, i.e. its rows span the whole row
    space (Z^cols over the integers): the echelon form is the identity on
    top of zero rows.  Forward elimination decides it, since it already
    fixes the pivots; over a field they are 1, so this is full column rank."""
    if a.rows < a.cols:
        return False
    rows = [list(row) for row in _stored(a)[0]]
    pivots = _echelon(a.ring, rows, a.cols, a.cols)
    return len(pivots) == a.cols and all(rows[i][i] == 1 for i in range(a.cols))


# ---------------------------------------------------------------------------
# limits, composites and mediators: one echelon pass each
#
# Every one is the meet of one stacked matrix with its first k columns,
# over every ring: the left kernel of [T; -B], stacked beside unit rows
# and carried through the outer legs, read off the rows of
# [T | I 0 L 0; -B | 0 I 0 R] that vanish on [T; -B] (Cohen, A Course in
# Computational Algebraic Number Theory, 2.4).  A left kernel is
# saturated, so over the integers no Smith form or free reflection is
# needed.  With the unit rows the kernel's own columns come first, so its
# rows are the canonical pushout basis whatever outer legs follow: a
# (co)span composite is cut from the columns of the outer legs, with no
# product.


def _glued_basis(ring: Ring, top, bottom, k: int, den: Optional[int], units: bool = True, left=None, right=None) -> tuple:
    """Canonical basis of {(w1, w2, w1 * left, w2 * right) : w1 * top =
    w2 * bottom}, from one echelon pass over [top | I 0 left 0; -bottom |
    0 I 0 right], and the denominator it is over (over Q; None outside it).

    ``top`` and ``bottom`` are sequences of rows of width k.  Without
    ``units`` the (w1, w2) columns are left out.  An outer leg ``left``
    (``right``) is a pair (rows, width), one row for each row of ``top``
    (``bottom``); an outer leg that is omitted has width 0.  Over Q every
    row given is over ``den``, so a unit row is den times a unit vector.
    """
    p = ring.p
    one = 1 if den is None else den
    a = len(top)
    u = a + len(bottom) if units else 0
    lrows, x = left or ((), 0)
    rrows, y = right or ((), 0)
    width = u + x + y
    rows = []
    for i, row in enumerate(top):
        tail = [0] * width
        if units:
            tail[i] = one
        if x:
            tail[u : u + x] = lrows[i]
        rows.append([*row, *tail])
    for i, row in enumerate(bottom):
        tail = [0] * width
        if units:
            tail[a + i] = one
        if y:
            tail[u + x :] = rrows[i]
        rows.append(([-v for v in row] if p is None else [-v % p for v in row]) + tail)
    basis = _meet(ring, rows, k + width, k)
    return basis, None if den is None else _kept_den(basis)


def mat_pullback(a: ExactMatrix, b: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Pullback of the cospan (a, b), the kernel of the joint map
    [a | -b]: the pushout of the legs' columns, read as rows, with its
    legs cut as columns."""
    _require_same_ring(a, b)
    if a.rows != b.rows:
        raise TypeMismatch(f"cospan feet disagree: {a.rows} vs {b.rows}")
    ((top, _), (bottom, _)), den = _tables(a.ring, (a, b), True)
    basis, den = _glued_basis(a.ring, top, bottom, a.rows, den)
    return split_rows(a.ring, a.cols, b.cols, basis, den, True)


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
    ((top, _), (bottom, _)), den = _tables(a.ring, (a, b))
    basis, den = _glued_basis(a.ring, top, bottom, a.cols, den)
    return split_rows(a.ring, a.rows, b.rows, basis, den)


def _glued_composite(l1, r1, l2, r2, units: bool, columns: bool = False) -> tuple[ExactMatrix, ExactMatrix]:
    """The outer-leg columns of the one pass over [r1 | I 0 l1 0; -l2 | 0
    I 0 r2], the unit rows kept or left out; with ``columns``, of the
    legs' columns read as rows, cut as columns."""
    for leg in (r1, l2, r2):
        _require_same_ring(l1, leg)
    ((l1_rows, x), (r1_rows, k), (l2_rows, k2), (r2_rows, y)), den = _tables(l1.ring, (l1, r1, l2, r2), columns)
    if k != k2:
        raise TypeMismatch(f"feet disagree: {k} vs {k2}")
    if len(l1_rows) != len(r1_rows) or len(l2_rows) != len(r2_rows):
        raise TypeMismatch("legs need a common apex")
    basis, den = _glued_basis(l1.ring, r1_rows, l2_rows, k, den, units, (l1_rows, x), (r2_rows, y))
    return split_rows(l1.ring, x, y, basis, den, columns, len(r1_rows) + len(l2_rows) if units else 0)


def composite(l1: ExactMatrix, r1: ExactMatrix, l2: ExactMatrix, r2: ExactMatrix, columns: bool = False) -> tuple[ExactMatrix, ExactMatrix]:
    """Legs of the composite of the cospans (l1, r1) and (l2, r2) (with
    ``columns``, of the spans): the canonical pushout (q1, q2) of (r1, l2)
    (pullback), whose legs are then composed with l1 and r2.

    One pass: the meet's rows are (q1, q2, q1 * l1, q2 * r2), with (q1,
    q2) a row of the canonical pushout basis, so the composite legs are
    its last columns, value for value those of the pushout followed by
    two products.
    """
    return _glued_composite(l1, r1, l2, r2, True, columns)


def corelation_composite(l1: ExactMatrix, r1: ExactMatrix, l2: ExactMatrix, r2: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Canonical legs of the composite of the corelations (l1, r1) and
    (l2, r2): the left kernel of [r1; -l2] (their pushout) carried through
    diag(l1, r2), which is the image of the composite legs."""
    return _glued_composite(l1, r1, l2, r2, False)


def mat_mediator(a1: ExactMatrix, a2: ExactMatrix, b1: ExactMatrix, b2: ExactMatrix, columns: bool = False) -> Optional[ExactMatrix]:
    """The solution u of u * a1 = b1 and u * a2 = b2 (with ``columns``, of
    a1 * u = b1 and a2 * u = b2), or None when none exists: the mediator
    from the pushout (a1, a2) to the cocone (b1, b2), or into the pullback
    (a1, a2) from the cone (b1, b2).

    One pass over [b | I 0; -a | 0 I], with the rows of a = [a1 | a2] and
    b = [b1 | b2] (with ``columns``, the columns of [a1; a2] and [b1; b2])
    read straight from the legs: its meet is {(z, x) : z*b = x*a}, and a
    solution exists iff the meet's z block has a pivot of 1 in every
    column (over Q, of its denominator); its first rows are then
    (e_l, x_l).
    """
    for leg in (a2, b1, b2):
        _require_same_ring(a1, leg)
    ((a1_rows, w1), (a2_rows, w2), (b1_rows, v1), (b2_rows, v2)), den = _tables(a1.ring, (a1, a2, b1, b2), columns)
    if len(a1_rows) != len(a2_rows) or len(b1_rows) != len(b2_rows) or (w1, w2) != (v1, v2):
        raise TypeMismatch("the legs are not a (co)cone of one shape")
    k = len(b1_rows)
    b = [r + s for r, s in zip(b1_rows, b2_rows)]
    a = [r + s for r, s in zip(a1_rows, a2_rows)]
    basis, den = _glued_basis(a1.ring, b, a, w1 + w2, den)
    one = 1 if den is None else den
    if len(basis) < k or any(basis[l][l] != one for l in range(k)):
        return None
    return split_rows(a1.ring, len(a1_rows), 0, basis[:k], den, columns, k)[0]


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
    den = _common_den(ring, chain.from_iterable(pairs))
    n = sum(left.cols for left, _ in pairs)
    m = sum(right.cols for _, right in pairs)
    # per leg, the rows with a pivot in the left feet, then the others
    lhead, ltail, rhead, rtail = [], [], [], []
    x = y = 0
    for left, right in pairs:
        lrows, rrows = (left[3], right[3]) if den is None else (_scaled(left, den), _scaled(right, den))
        k = 0
        for row in lrows:
            if not any(row):
                break
            k += 1
        a, b = (0,) * x, (0,) * (n - x - left.cols)
        rows = [a + row + b for row in lrows]
        lhead += rows[:k]
        ltail += rows[k:]
        a, b = (0,) * y, (0,) * (m - y - right.cols)
        rows = [a + row + b for row in rrows]
        rhead += rows[:k]
        rtail += rows[k:]
        x += left.cols
        y += right.cols
    lrows, rrows = lhead + ltail, rhead + rtail
    return _matrix(ring, len(lrows), n, tuple(lrows), den), _matrix(ring, len(rrows), m, tuple(rrows), den)


def enumerate_matrices(ring: Ring, rows: int, cols: int, entry_bound: int):
    """All rows-by-cols matrices with entries from the ring's probe set.

    GF(p) uses all residues; the integers and rationals use the integer box
    [-entry_bound, entry_bound].
    """
    values = range(ring.p) if ring.p is not None else range(-entry_bound, entry_bound + 1)
    den = _common_den(ring, ())
    for flat in product(values, repeat=rows * cols):
        yield _matrix(ring, rows, cols, tuple(flat[r * cols : (r + 1) * cols] for r in range(rows)), den)
