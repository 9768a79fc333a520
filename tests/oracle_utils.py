"""Shared brute-force helpers for the test suite."""

from itertools import combinations
from math import gcd

from corelate.exactnum import ZZ
from corelate.linmap import ExactMatrix, det_int, mat
from corelate.verify import span_rows


def reference_mat_mul(x, y):
    """Matrix product x*y through the ring's scalar operations.

    The reference for ``linmap.mat_mul``, which works on the stored values.
    """
    ring = x.ring
    add, mul, zero = ring.add, ring.mul, ring.zero
    ycols = [()] * y.cols if y.rows == 0 else list(zip(*y.entries))
    out = []
    for row in x.entries:
        out_row = []
        for col in ycols:
            acc = zero
            for a, b in zip(row, col):
                acc = add(acc, mul(a, b))
            out_row.append(acc)
        out.append(tuple(out_row))
    return ExactMatrix(ring, x.rows, y.cols, tuple(out))


def reference_rref(a):
    """Reduced row echelon form and pivot columns through the ring's scalar
    operations, over a field.

    The reference for ``linmap.rref``, which works on the stored values.
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
        inv = ring.inv(rows[r][j])
        rows[r] = [ring.mul(inv, v) for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][j] != ring.zero:
                c = rows[i][j]
                rows[i] = [ring.sub(v, ring.mul(c, w)) for v, w in zip(rows[i], rows[r])]
        pivots.append(j)
        r += 1
        if r == m:
            break
    return ExactMatrix(ring, m, n, tuple(tuple(r_) for r_ in rows)), tuple(pivots)


def minors_gcd(a, k):
    g = 0
    for ri in combinations(range(a.rows), k):
        for ci in combinations(range(a.cols), k):
            sub = mat(ZZ, k, k, [[a.entries[i][j] for j in ci] for i in ri])
            g = gcd(g, det_int(sub))
    return g


def invariant_factors_via_minors(a):
    """d_k = gcd of k-minors divided by gcd of (k-1)-minors."""
    out = []
    prev = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        g = minors_gcd(a, k)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def random_subspace_rows(rng, dim, ring):
    """Canonical echelon rows of a random subspace of ring^dim."""
    k = rng.randint(0, dim)
    vectors = [[rng.randrange(ring.p) for _ in range(dim)] for _ in range(k)]
    return span_rows(vectors, dim, ring)
