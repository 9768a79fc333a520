"""Shared brute-force helpers for the test suite."""

import sys
from pathlib import Path

from corelate.finfn import FinMap, ParMap
from corelate.linmap import ExactMatrix
from corelate.spancospan import Cospan, Span
from corelate.verify import span_rows

# the benchmark's oracles, which share no code with corelate
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))
import oracles  # noqa: E402


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


def invariant_factors(a) -> tuple:
    """The nonzero invariant factors of an integer matrix, from the
    benchmark's gcd-of-minors oracle (its own Fraction determinants)."""
    return tuple(d for d in oracles.invariant_factors(a.entries, a.cols) if d)


def random_subspace_rows(rng, dim, ring):
    """Canonical echelon rows of a random subspace of ring^dim."""
    k = rng.randint(0, dim)
    vectors = [[rng.randrange(ring.p) for _ in range(dim)] for _ in range(k)]
    return span_rows(vectors, dim, ring)


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
