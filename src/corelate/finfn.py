"""Total and partial functions between finite ordinals.

Objects are the ordinals {0, ..., n-1}; 0 is the empty set and the tensor
unit.  ``FinMap`` carries the arrows of the props of all / injective /
surjective functions, ``ParMap`` those of partial functions.  Partial maps
are stored with ``None`` entries; the pointed-set encoding (adjoin a
basepoint) is internal to pullbacks, pushouts and ``glue_compose``, the
one-pass composite of corelations that serves both kinds of map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import TypeMismatch


class FinMap(NamedTuple):
    dom: int
    cod: int
    table: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.table[i]


class ParMap(NamedTuple):
    dom: int
    cod: int
    table: tuple[Optional[int], ...]

    def __call__(self, i: int) -> Optional[int]:
        return self.table[i]


def fn(dom: int, cod: int, table) -> FinMap:
    """Validated FinMap constructor."""
    table = tuple(table)
    if len(table) != dom:
        raise TypeMismatch(f"table length {len(table)} != dom {dom}")
    for v in table:
        if not 0 <= v < cod:
            raise TypeMismatch(f"entry {v} outside codomain {cod}")
    return FinMap(dom, cod, table)


def par(dom: int, cod: int, table) -> ParMap:
    """Validated ParMap constructor; ``None`` entries mean undefined."""
    table = tuple(table)
    if len(table) != dom:
        raise TypeMismatch(f"table length {len(table)} != dom {dom}")
    for v in table:
        if v is not None and not 0 <= v < cod:
            raise TypeMismatch(f"entry {v} outside codomain {cod}")
    return ParMap(dom, cod, table)


class UnionFind:
    """Array-based disjoint sets with path compression."""

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


# ---------------------------------------------------------------------------
# total maps


def fn_identity(n: int) -> FinMap:
    return FinMap(n, n, tuple(range(n)))


def fn_compose(f: FinMap, g: FinMap) -> FinMap:
    """Diagrammatic composite: first f, then g."""
    if f.cod != g.dom:
        raise TypeMismatch(f"cod {f.cod} != dom {g.dom}")
    gt = g.table
    return FinMap(f.dom, g.cod, tuple(gt[v] for v in f.table))


def fn_tensor(*fs: FinMap) -> FinMap:
    """Side-by-side sum of any number of maps, left to right."""
    table: list[int] = []
    shift = 0
    for f in fs:
        table.extend(v + shift for v in f.table)
        shift += f.cod
    return FinMap(len(table), shift, tuple(table))


def fn_symmetry(n: int, m: int) -> FinMap:
    """The block swap n + m -> m + n."""
    return FinMap(n + m, m + n, tuple(range(m, m + n)) + tuple(range(m)))


def fn_classify(f: FinMap) -> tuple[bool, bool]:
    """(injective?, surjective?) flags of the table."""
    hit = set(f.table)
    return len(hit) == f.dom, len(hit) == f.cod


def fn_is_injective(f: FinMap) -> bool:
    return len(set(f.table)) == f.dom


def fn_is_surjective(f: FinMap) -> bool:
    return len(set(f.table)) == f.cod


def fn_factorize(f: FinMap) -> tuple[FinMap, FinMap]:
    """Surjection-injection factorisation e;m = f.

    m is the sorted inclusion of the image, the canonical representative of
    the factorisation.
    """
    image = sorted(set(f.table))
    index = {v: i for i, v in enumerate(image)}
    e = FinMap(f.dom, len(image), tuple(index[v] for v in f.table))
    m = FinMap(len(image), f.cod, tuple(image))
    return e, m


def fn_pullback(f: FinMap, g: FinMap) -> tuple[FinMap, FinMap]:
    """Pullback of the cospan (f, g): apex of matching pairs, lex ordered."""
    if f.cod != g.cod:
        raise TypeMismatch(f"cospan feet disagree: {f.cod} vs {g.cod}")
    pairs = [(x, y) for x in range(f.dom) for y in range(g.dom) if f.table[x] == g.table[y]]
    p1 = FinMap(len(pairs), f.dom, tuple(x for x, _ in pairs))
    p2 = FinMap(len(pairs), g.dom, tuple(y for _, y in pairs))
    return p1, p2


def fn_pushout(f: FinMap, g: FinMap) -> tuple[FinMap, FinMap]:
    """Pushout of the span (f, g) by union-find on cod(f) + cod(g).

    Apex classes are numbered by first occurrence scanning cod(f) then
    cod(g), which makes the output deterministic for downstream canonical
    forms.
    """
    if f.dom != g.dom:
        raise TypeMismatch(f"span apexes disagree: {f.dom} vs {g.dom}")
    n1, n2 = f.cod, g.cod
    uf = UnionFind(n1 + n2)
    ft, gt = f.table, g.table
    for x in range(f.dom):
        uf.union(ft[x], n1 + gt[x])
    index: dict[int, int] = {}
    q = []
    for e in range(n1 + n2):
        root = uf.find(e)
        if root not in index:
            index[root] = len(index)
        q.append(index[root])
    apex = len(index)
    return FinMap(n1, apex, tuple(q[:n1])), FinMap(n2, apex, tuple(q[n1:]))


def glue_compose(left1, right1, left2, right2):
    """Canonical jointly-epi composite of the cospans (left1, right1) and
    (left2, right2) of total or partial maps, in one union-find pass.

    The pushout glues right1[j] to left2[j] on apex1 + apex2; the classes
    reached from left1 or right2 are the image of the composite legs, and
    numbering them by first occurrence, scanning left1 then right2, is the
    canonical apex order.  Partial maps use the pointed encoding: ``None``
    is one more point, the basepoint, and a class glued to it decodes to
    ``None``.  Returns the two legs, of the type of ``left1``.
    """
    if right1.dom != left2.dom:
        raise TypeMismatch(f"feet disagree: {right1.dom} vs {left2.dom}")
    shift = left1.cod
    bot = shift + left2.cod
    parent = list(range(bot + 1))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for a, b in zip(right1.table, left2.table):
        ra = find(bot if a is None else a)
        rb = find(bot if b is None else shift + b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    label: list = [-1] * (bot + 1)
    label[find(bot)] = None
    apex = 0

    def leg(table, offset: int) -> tuple:
        nonlocal apex
        out = []
        for v in table:
            r = find(bot if v is None else offset + v)
            x = label[r]
            if x == -1:
                x = label[r] = apex
                apex += 1
            out.append(x)
        return tuple(out)

    lt, rt = leg(left1.table, 0), leg(right2.table, shift)
    make = type(left1)
    return make(len(lt), apex, lt), make(len(rt), apex, rt)


def enumerate_finmaps(dom: int, cod: int):
    """All maps dom -> cod in lexicographic table order."""
    if dom == 0:
        yield FinMap(0, cod, ())
        return
    if cod == 0:
        return
    table = [0] * dom
    while True:
        yield FinMap(dom, cod, tuple(table))
        i = dom - 1
        while i >= 0 and table[i] == cod - 1:
            table[i] = 0
            i -= 1
        if i < 0:
            return
        table[i] += 1


# ---------------------------------------------------------------------------
# partial maps

_BOT = None  # alias for readability in the pointed encoding helpers


def _to_pointed(f: ParMap) -> FinMap:
    # basepoint is the last element on each side
    bot = f.cod
    table = tuple(bot if v is None else v for v in f.table) + (bot,)
    return FinMap(f.dom + 1, f.cod + 1, table)


def par_identity(n: int) -> ParMap:
    return ParMap(n, n, tuple(range(n)))


def par_compose(f: ParMap, g: ParMap) -> ParMap:
    """Kleene composition: undefined propagates."""
    if f.cod != g.dom:
        raise TypeMismatch(f"cod {f.cod} != dom {g.dom}")
    gt = g.table
    return ParMap(f.dom, g.cod, tuple(_BOT if v is None else gt[v] for v in f.table))


def par_tensor(*fs: ParMap) -> ParMap:
    """Side-by-side sum of any number of partial maps, left to right."""
    table: list[Optional[int]] = []
    shift = 0
    for f in fs:
        table.extend(_BOT if v is None else v + shift for v in f.table)
        shift += f.cod
    return ParMap(len(table), shift, tuple(table))


def par_symmetry(n: int, m: int) -> ParMap:
    return ParMap(n + m, m + n, tuple(range(m, m + n)) + tuple(range(m)))


def par_is_total(f: ParMap) -> bool:
    return all(v is not None for v in f.table)


def par_is_injection(f: ParMap) -> bool:
    """Total and injective: the M class of the partial-function prop."""
    return par_is_total(f) and len(set(f.table)) == f.dom


def par_is_surjection(f: ParMap) -> bool:
    """Defined image covers the codomain: the E class."""
    return len({v for v in f.table if v is not None}) == f.cod


def par_factorize(f: ParMap) -> tuple[ParMap, ParMap]:
    """(partial surjection onto the image, total injection)."""
    image = sorted({v for v in f.table if v is not None})
    index = {v: i for i, v in enumerate(image)}
    e = ParMap(
        f.dom, len(image), tuple(_BOT if v is None else index[v] for v in f.table)
    )
    m = ParMap(len(image), f.cod, tuple(image))
    return e, m


def par_pullback(f: ParMap, g: ParMap) -> tuple[ParMap, ParMap]:
    """Pullback computed in the pointed-set encoding.

    The basepoint pair is dropped from the apex; pairs whose coordinate is
    the basepoint decode to undefined leg entries.
    """
    if f.cod != g.cod:
        raise TypeMismatch(f"cospan feet disagree: {f.cod} vs {g.cod}")
    pf, pg = _to_pointed(f), _to_pointed(g)
    botf, botg = f.dom, g.dom
    pairs = [
        (x, y)
        for x in range(pf.dom)
        for y in range(pg.dom)
        if pf.table[x] == pg.table[y] and not (x == botf and y == botg)
    ]
    p1 = ParMap(len(pairs), f.dom, tuple(_BOT if x == botf else x for x, _ in pairs))
    p2 = ParMap(len(pairs), g.dom, tuple(_BOT if y == botg else y for _, y in pairs))
    return p1, p2


def par_pushout(f: ParMap, g: ParMap) -> tuple[ParMap, ParMap]:
    """Pushout via the pointed encoding: classes glued onto the basepoint
    class become undefined; remaining classes keep first-occurrence order."""
    if f.dom != g.dom:
        raise TypeMismatch(f"span apexes disagree: {f.dom} vs {g.dom}")
    n1, n2 = f.cod, g.cod
    # pointed union-find over cod(f) + cod(g) + basepoint
    bot = n1 + n2
    uf = UnionFind(n1 + n2 + 1)
    for x in range(f.dom):
        a = f.table[x]
        b = g.table[x]
        ia = bot if a is None else a
        ib = bot if b is None else n1 + b
        uf.union(ia, ib)
    bot_root = uf.find(bot)
    index: dict[int, int] = {}
    q: list[Optional[int]] = []
    for e in range(n1 + n2):
        root = uf.find(e)
        if root == bot_root:
            q.append(_BOT)
            continue
        if root not in index:
            index[root] = len(index)
        q.append(index[root])
    apex = len(index)
    return ParMap(n1, apex, tuple(q[:n1])), ParMap(n2, apex, tuple(q[n1:]))


def enumerate_parmaps(dom: int, cod: int):
    """All partial maps dom -> cod (entry None counts as one more value)."""
    values: list[Optional[int]] = [None] + list(range(cod))
    if dom == 0:
        yield ParMap(0, cod, ())
        return
    idx = [0] * dom
    k = len(values)
    while True:
        yield ParMap(dom, cod, tuple(values[i] for i in idx))
        i = dom - 1
        while i >= 0 and idx[i] == k - 1:
            idx[i] = 0
            i -= 1
        if i < 0:
            return
        idx[i] += 1


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class Partition:
    """Partition of the ordinal {0, ..., ground-1} into nonempty blocks.

    Blocks are sorted internally and ordered by their minimum element.
    """

    ground: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if not block or list(block) != sorted(block):
                raise ValueError(f"block {block} not sorted and nonempty")
            if seen & set(block):
                raise ValueError("blocks overlap")
            seen |= set(block)
        if seen != set(range(self.ground)):
            raise ValueError("blocks do not cover the ground set")
        if [b[0] for b in self.blocks] != sorted(b[0] for b in self.blocks):
            raise ValueError("blocks not ordered by minimum")


def partition_from_pairs(ground: int, pairs) -> Partition:
    """Finest partition of the ground set identifying each given pair."""
    uf = UnionFind(ground)
    for a, b in pairs:
        uf.union(a, b)
    groups: dict[int, list[int]] = {}
    for e in range(ground):
        groups.setdefault(uf.find(e), []).append(e)
    blocks = sorted((tuple(g) for g in groups.values()), key=lambda b: b[0])
    return Partition(ground, tuple(blocks))


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
