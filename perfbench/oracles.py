"""Answer checks that share no code with corelate.

Each checker recomputes a circuit's meaning from the benchmark's own syntax
tree (``circuits.py``) with its own arithmetic, then compares it with what
the program returned:

* equivalence and partial equivalence relations: union-find gluing of the
  circuit's wires, with a basepoint class that absorbs ``undef``;
* linear relations over GF(2) and Q: elimination of the circuit's linear
  constraint system, one layer at a time, over integers mod 2 or
  ``fractions.Fraction``;
* integer corelations: the lattice spanned by the rows of the copairing
  [L|R], built from hand-written generator lattices, with ``;`` as
  relational composition of lattices (an integer left kernel) and ``@`` as
  direct sum, compared through Hermite normal forms;
* invariant factors of an integer matrix from gcds of its minors.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import gcd

from circuits import arity

# ---------------------------------------------------------------------------
# wire gluing (er, per)


class _UnionFind:
    def __init__(self):
        self.parent = []

    def new(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _glue_block(node, wires, uf, bot):
    kind = node[0]
    if kind == "id":
        return list(wires)
    if kind == "sym":
        n = node[1]
        return wires[n:] + wires[:n]
    if kind == "seq":
        return _glue_block(node[2], _glue_block(node[1], wires, uf, bot), uf, bot)
    if kind == "par":
        k = arity(node[1])[0]
        return _glue_block(node[1], wires[:k], uf, bot) + _glue_block(node[2], wires[k:], uf, bot)
    name = node[1]
    if name == "mult":
        uf.union(wires[0], wires[1])
        return [wires[0]]
    if name == "comult":
        return [wires[0], wires[0]]
    if name == "unit":
        return [uf.new()]
    if name == "counit":
        return []
    if name == "undef":
        if bot is None:
            raise ValueError("undef outside the partial theory")
        uf.union(wires[0], bot)
        return []
    raise ValueError(f"no gluing rule for {name!r}")


def glue(layers, width: int, partial: bool):
    """Blocks and undefined points of the boundary {0..n-1} (inputs) and
    {n..n+m-1} (outputs) after gluing every wire of the circuit."""
    uf = _UnionFind()
    inputs = [uf.new() for _ in range(width)]
    bot = uf.new() if partial else None
    wires = inputs
    for layer in layers:
        out = []
        for block in layer:
            k = arity(block)[0]
            out += _glue_block(block, wires[:k], uf, bot)
            wires = wires[k:]
        wires = out
    boundary = inputs + wires
    classes: dict[int, set] = {}
    for point, node in enumerate(boundary):
        classes.setdefault(uf.find(node), set()).add(point)
    undefined = classes.pop(uf.find(bot), set()) if partial else set()
    return {frozenset(c) for c in classes.values()}, undefined


def check_gluing(layers, width: int, partial: bool, result) -> bool:
    """The apex fibres of a (partial-)function corelation equal the gluing."""
    left, right = result.cospan.left, result.cospan.right
    if (left.dom, right.dom) != (width, width):
        return False
    fibres: dict[int, set] = {}
    undefined = set()
    for point, v in enumerate(tuple(left.table) + tuple(right.table)):
        if v is None:
            undefined.add(point)
        else:
            fibres.setdefault(v, set()).add(point)
    if len(fibres) != left.cod:  # a corelation's legs are jointly epi
        return False
    blocks, expect_undefined = glue(layers, width, partial)
    return {frozenset(b) for b in fibres.values()} == blocks and undefined == expect_undefined


# ---------------------------------------------------------------------------
# circuits as (co)relations
#
# Both algebras below write a (co)relation n -> m as (n, m, rows), rows over
# the n + m boundary points, inputs first; ``@`` is then a direct sum.


def _sym_targets(n: int, m: int):
    return list(range(n, n + m)) + list(range(n))


def direct_sum(a, b):
    n1, m1, r1 = a
    n2, m2, r2 = b
    rows = [r[:n1] + [0] * n2 + r[n1:] + [0] * m2 for r in r1]
    rows += [[0] * n1 + r[:n2] + [0] * m1 + r[n2:] for r in r2]
    return n1 + n2, m1 + m2, rows


def evaluate(layers, width: int, gen, wires, compose):
    """A circuit's (co)relation: ``gen(name, scalar)`` gives a generator's,
    ``wires(n, targets)`` that of a wiring n -> n, and ``compose`` does
    ``;``."""

    def block(node):
        kind = node[0]
        if kind == "gen":
            return gen(node[1], node[2])
        if kind == "id":
            return wires(node[1], range(node[1]))
        if kind == "sym":
            return wires(node[1] + node[2], _sym_targets(node[1], node[2]))
        a, b = block(node[1]), block(node[2])
        return compose(a, b) if kind == "seq" else direct_sum(a, b)

    rel = wires(width, range(width))
    for layer in layers:
        row = block(layer[0])
        for node in layer[1:]:
            row = direct_sum(row, block(node))
        rel = compose(rel, row)
    return rel


# ---------------------------------------------------------------------------
# linear relations over a field, as constraint systems
#
# A relation n -> m is (n, m, rows): the subspace of k^(n+m) cut out by the
# linear constraints ``rows`` (inputs first).  p = 2 means GF(2), p = 0 Q.


def _norm(v, p):
    return v % p if p else Fraction(v)


def field_rref(rows, ncols: int, p: int):
    """Reduced row echelon rows (zero rows dropped) and pivot columns."""
    rows = [[_norm(v, p) for v in r] for r in rows]
    pivots = []
    r = 0
    for j in range(ncols):
        k = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        head = rows[r][j]
        inv = pow(head, -1, p) if p else 1 / head
        rows[r] = [(v * inv) % p if p else v * inv for v in rows[r]]
        pivot_row = rows[r]
        for i in range(len(rows)):
            c = rows[i][j]
            if i != r and c:
                if p:
                    rows[i] = [(a - c * b) % p for a, b in zip(rows[i], pivot_row)]
                else:
                    rows[i] = [a - c * b if b else a for a, b in zip(rows[i], pivot_row)]
        pivots.append(j)
        r += 1
    return rows[:r], pivots


def _field_gen(name, scalar, p):
    r = Fraction(scalar) if scalar is not None else None
    if p and r is not None:
        r = r.numerator * pow(r.denominator, -1, p) % p
    table = {
        "w.mult": (2, 1, [[-1, -1, 1]]),
        "w.unit": (0, 1, [[1]]),
        "w.comult": (1, 2, [[1, -1, -1]]),
        "w.counit": (1, 0, [[1]]),
        "b.comult": (1, 2, [[-1, 1, 0], [-1, 0, 1]]),
        "b.counit": (1, 0, []),
        "b.mult": (2, 1, [[1, 0, -1], [0, 1, -1]]),
        "b.unit": (0, 1, []),
    }
    if name == "scalar":
        return 1, 1, [[-r, 1]]
    if name == "coscalar":
        return 1, 1, [[1, -r]]
    return table[name]


def _field_wires(n: int, targets):
    """Constraints y_j = x_targets[j] of a wiring n -> n."""
    rows = []
    for j, i in enumerate(targets):
        row = [0] * (2 * n)
        row[i], row[n + j] = -1, 1
        rows.append(row)
    return n, n, rows


def field_compose(a, b, p):
    n, k, rows_a = a
    k2, m, rows_b = b
    if k != k2:
        raise ValueError("feet disagree")
    stacked = [r[n:] + r[:n] + [0] * m for r in rows_a]
    stacked += [r[:k] + [0] * n + r[k:] for r in rows_b]
    reduced, _ = field_rref(stacked, k + n + m, p)
    return n, m, [r[k:] for r in reduced if not any(r[:k])]


def field_relation_rows(layers, width: int, p: int):
    """Canonical reduced-echelon basis of the circuit's relation, as a
    subspace of k^(width + width)."""
    gen, compose = partial(_field_gen, p=p), partial(field_compose, p=p)
    n, m, constraints = evaluate(layers, width, gen, _field_wires, compose)
    reduced, pivots = field_rref(constraints, n + m, p)
    pivot_set = set(pivots)
    basis = []
    for f in range(n + m):
        if f in pivot_set:
            continue
        vec = [0] * (n + m)
        vec[f] = 1
        for row, j in zip(reduced, pivots):
            vec[j] = -row[f]
        basis.append(vec)
    rows, _ = field_rref(basis, n + m, p)
    return tuple(tuple(r) for r in rows)


def check_field(layers, width: int, p: int, program_rows) -> bool:
    mine = field_relation_rows(layers, width, p)
    theirs = tuple(tuple(Fraction(v) for v in row) for row in program_rows)
    return tuple(tuple(Fraction(v) for v in row) for row in mine) == theirs


# ---------------------------------------------------------------------------
# integer lattices
#
# A corelation n -> m over Z is (n, m, rows): the lattice in Z^(n+m) spanned
# by ``rows``, the rows of the copairing [L|R] of its cospan.


def _int_echelon(rows, ncols: int):
    """Row-style Hermite form by unimodular row operations.

    Returns (echelon rows, rank): the first ``rank`` rows are the nonzero
    Hermite rows (positive pivots, entries above a pivot in [0, pivot));
    columns beyond ``ncols`` are carried along untouched by the pivot
    search, which is how a transform is tracked.
    """
    rows = [list(r) for r in rows]
    r = 0
    for j in range(ncols):
        while True:
            live = [i for i in range(r, len(rows)) if rows[i][j]]
            if not live:
                break
            k = min(live, key=lambda i: abs(rows[i][j]))
            rows[r], rows[k] = rows[k], rows[r]
            if rows[r][j] < 0:
                rows[r] = [-v for v in rows[r]]
            head = rows[r][j]
            for i in range(r + 1, len(rows)):
                q = rows[i][j] // head
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
            if all(rows[i][j] == 0 for i in range(r + 1, len(rows))):
                break
        if r < len(rows) and rows[r][j]:
            head = rows[r][j]
            for i in range(r):
                q = rows[i][j] // head
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
            r += 1
    return rows, r


def hnf(rows, ncols: int):
    """Canonical basis (Hermite normal form) of the lattice the rows span."""
    echelon, rank = _int_echelon(rows, ncols)
    return tuple(tuple(r) for r in echelon[:rank])


def left_kernel(rows, ncols: int):
    """Basis of {w : w . rows = 0} over the integers."""
    augmented = [list(r) + [int(i == j) for j in range(len(rows))] for i, r in enumerate(rows)]
    echelon, rank = _int_echelon(augmented, ncols)
    return [r[ncols:] for r in echelon[rank:]]


_Z_GENS = {
    "w.mult": (2, 1, [[1, 1, 1]]),
    "w.unit": (0, 1, [[1]]),
    "w.comult": (1, 2, [[1, 1, 1]]),
    "w.counit": (1, 0, [[1]]),
    "b.comult": (1, 2, [[1, 1, 0], [1, 0, 1]]),
    "b.counit": (1, 0, []),
    "b.mult": (2, 1, [[1, 0, 1], [0, 1, 1]]),
    "b.unit": (0, 1, []),
}


def _z_gen(name, scalar):
    if name in ("scalar", "coscalar"):
        r = Fraction(scalar)
        if r.denominator != 1:
            raise ValueError(f"integer circuit with scalar {r}")
        return (1, 1, [[r.numerator, 1]]) if name == "scalar" else (1, 1, [[1, r.numerator]])
    return _Z_GENS[name]


def _z_wires(n: int, targets):
    """Lattice of a wiring: output j is joined to input targets[j]."""
    rows = []
    for j, i in enumerate(targets):
        row = [0] * (2 * n)
        row[i] = row[n + j] = 1
        rows.append(row)
    return n, n, rows


def z_compose(a, b):
    n, k, rows_a = a
    k2, m, rows_b = b
    if k != k2:
        raise ValueError("feet disagree")
    meet = [r[n:] for r in rows_a] + [[-v for v in r[:k]] for r in rows_b]
    out = []
    for w in left_kernel(meet, k):
        wa, wb = w[: len(rows_a)], w[len(rows_a) :]
        x = [sum(c * r[i] for c, r in zip(wa, rows_a)) for i in range(n)]
        z = [sum(c * r[k + i] for c, r in zip(wb, rows_b)) for i in range(m)]
        out.append(x + z)
    return n, m, [list(r) for r in hnf(out, n + m)]


def z_lattice(layers, width: int):
    """Hermite basis of the circuit's lattice in Z^(width + width)."""
    return hnf(evaluate(layers, width, _z_gen, _z_wires, z_compose)[2], 2 * width)


def copairing_rows(result):
    """Rows of [L|R] for an integer corelation returned by the program."""
    left, right = result.cospan.left, result.cospan.right
    return [tuple(a) + tuple(b) for a, b in zip(left.entries, right.entries)]


def check_z(layers, width: int, result) -> bool:
    left, right = result.cospan.left, result.cospan.right
    if (left.cols, right.cols) != (width, width):
        return False
    return hnf(copairing_rows(result), 2 * width) == z_lattice(layers, width)


# ---------------------------------------------------------------------------
# invariant factors and literals of check records


def _det(m) -> int:
    m = [[Fraction(v) for v in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for j in range(n):
        k = next((i for i in range(j, n) if m[i][j]), None)
        if k is None:
            return 0
        if k != j:
            m[j], m[k] = m[k], m[j]
            det = -det
        det *= m[j][j]
        for i in range(j + 1, n):
            c = m[i][j] / m[j][j]
            if c:
                m[i] = [a - c * b for a, b in zip(m[i], m[j])]
    return int(det)


def invariant_factors(m, cols: int):
    """d_1..d_cols from gcds of minors: d_k = g_k / g_(k-1), where g_k is the
    gcd of the k-by-k minors; d_k = 0 once a gcd vanishes or k exceeds the
    row count."""
    rows = len(m)
    out = []
    prev = 1
    for k in range(1, cols + 1):
        g = 0
        if k <= rows:
            for rs in combinations(range(rows), k):
                for cs in combinations(range(cols), k):
                    g = gcd(g, _det([[m[i][j] for j in cs] for i in rs]))
        if g == 0 or prev == 0:
            out.append(0)
            prev = 0
        else:
            out.append(g // prev)
            prev = g
    return out


_MAT = re.compile(r"^mat z (\d+)x(\d+) : \[(.*)\]$")
_FN = re.compile(r"^fn (\d+) -> (\d+) : \[(.*)\]$")


def parse_int_matrix(text: str):
    m = _MAT.match(text)
    if m is None:
        raise ValueError(f"not an integer matrix literal: {text!r}")
    rows, cols = int(m.group(1)), int(m.group(2))
    body = re.findall(r"\[([^\[\]]*)\]", m.group(3)) if rows else []
    entries = [[int(v) for v in r.split(",")] if r.strip() else [] for r in body]
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ValueError(f"malformed matrix literal: {text!r}")
    return entries, cols


def parse_fn(text: str):
    m = _FN.match(text)
    if m is None:
        raise ValueError(f"not a function literal: {text!r}")
    body = m.group(3).strip()
    table = [int(v) for v in body.split(",")] if body else []
    return int(m.group(1)), int(m.group(2)), table
