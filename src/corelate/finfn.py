"""Total and partial functions between finite ordinals.

Objects are the ordinals {0, ..., n-1}; 0 is the empty set and the tensor
unit.  ``FinMap`` carries the arrows of the props of all / injective /
surjective functions, ``ParMap`` those of partial functions.  A partial map
is a pointed total map: each ordinal gains a basepoint, and a ``ParMap``
stores the entries that hit it as ``None``.  One set of kernels (composite,
tensor, pullback, pushout, the E and M tests, the one-pass composite of
cospans ``glue_compose``, and the first-occurrence numbering
``corelation_tensor``) serves both kinds of map, and returns maps of the
type it was given, or, for ``corelation_tensor``, the leg tables and the
apex, from which the caller builds each leg once, of the type it needs.
A function corelation is a partition of its feet, so the numbering alone
gives the quotient of a cospan, the tensor of corelations and, keeping
the apex, the iso-class form of a cospan.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Optional

from .errors import TypeMismatch


class FinMap(NamedTuple):
    dom: int
    cod: int
    table: tuple[int, ...]


class ParMap(NamedTuple):
    dom: int
    cod: int
    table: tuple[Optional[int], ...]


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


# ---------------------------------------------------------------------------
# kernels: ``None`` is the basepoint, which total maps never hit


def fn_identity(n: int) -> FinMap:
    return FinMap(n, n, tuple(range(n)))


def fn_compose(f, g):
    """Diagrammatic composite: first f, then g; undefined propagates."""
    if f.cod != g.dom:
        raise TypeMismatch(f"cod {f.cod} != dom {g.dom}")
    gt = g.table
    return type(f)(f.dom, g.cod, tuple(None if v is None else gt[v] for v in f.table))


def fn_tensor(*fs):
    """Side-by-side sum of one or more maps, left to right."""
    table: list = []
    shift = 0
    for f in fs:
        table.extend(None if v is None else v + shift for v in f.table)
        shift += f.cod
    return type(fs[0])(len(table), shift, tuple(table))


def fn_symmetry(n: int, m: int) -> FinMap:
    """The block swap n + m -> m + n."""
    return FinMap(n + m, m + n, tuple(range(m, m + n)) + tuple(range(m)))


def fn_is_injective(f) -> bool:
    """Total and injective: the M class of both props."""
    return None not in f.table and len(set(f.table)) == f.dom


def fn_is_surjective(f) -> bool:
    """The defined image covers the codomain: the E class of both props."""
    hit = set(f.table)
    hit.discard(None)
    return len(hit) == f.cod


def fn_pullback(f, g):
    """Pullback of the cospan (f, g): apex of matching pairs, lex ordered.

    In the pointed encoding each domain gains a basepoint over the
    codomain's; the pair of basepoints is dropped from the apex, and a
    basepoint coordinate decodes to an undefined leg entry.
    """
    if f.cod != g.cod:
        raise TypeMismatch(f"cospan feet disagree: {f.cod} vs {g.cod}")
    fdom, gdom = f.dom, g.dom
    gt = g.table + (None,)
    pairs = [(x, y) for x, a in enumerate(f.table + (None,)) for y, b in enumerate(gt) if a == b]
    pairs.pop()  # (fdom, gdom), last in lex order
    make = type(f)
    p1 = make(len(pairs), fdom, tuple(None if x == fdom else x for x, _ in pairs))
    p2 = make(len(pairs), gdom, tuple(None if y == gdom else y for _, y in pairs))
    return p1, p2


def fn_pushout(f, g):
    """Pushout of the span (f, g): the composite of the cospans (id, f) and
    (g, id), so classes are numbered by first occurrence scanning cod(f)
    then cod(g), and a class glued onto the basepoint decodes to undefined.
    """
    if f.dom != g.dom:
        raise TypeMismatch(f"span apexes disagree: {f.dom} vs {g.dom}")
    make = type(f)
    ident = lambda n: make(n, n, tuple(range(n)))
    return glue_compose(ident(f.cod), f, g, ident(g.cod))


def glue_compose(left1, right1, left2, right2):
    """Canonical jointly-epi composite of the cospans (left1, right1) and
    (left2, right2) of total or partial maps, in one union-find pass.

    The pushout glues right1[j] to left2[j] on apex1 + apex2 + basepoint;
    the classes reached from left1 or right2 are the image of the composite
    legs, and numbering them by first occurrence, scanning left1 then
    right2, is the canonical apex order.  A class glued to the basepoint
    decodes to ``None``.  Returns the two legs, of the type of ``left1``.
    """
    if right1.dom != left2.dom:
        raise TypeMismatch(f"feet disagree: {right1.dom} vs {left2.dom}")
    shift = left1.cod
    bot = shift + left2.cod
    parent = list(range(bot + 1))  # parent[i] <= i: a root is its class's least point
    for a, b in zip(right1.table, left2.table):
        a = bot if a is None else a
        while parent[a] != a:  # path halving
            parent[a] = a = parent[parent[a]]
        b = bot if b is None else shift + b
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    for i, p in enumerate(parent):  # p <= i, so parent[p] is already its root
        parent[i] = parent[p]
    label: list = [-1] * (bot + 1)
    label[parent[bot]] = None
    apex = 0

    def leg(table, offset: int) -> tuple:
        nonlocal apex
        out = []
        for v in table:
            r = parent[bot if v is None else offset + v]
            x = label[r]
            if x == -1:
                x = label[r] = apex
                apex += 1
            out.append(x)
        return tuple(out)

    lt, rt = leg(left1.table, 0), leg(right2.table, shift)
    make = type(left1)
    return make(len(lt), apex, lt), make(len(rt), apex, rt)


def corelation_tensor(cospans) -> tuple[tuple, tuple, int]:
    """The tables of the canonical legs of the corelation that the tensor
    of the cospans (left, right) of total or partial maps represents, and
    its apex.

    Side by side, each cospan's apex points are shifted by the apexes
    before it, and the points the legs reach are numbered by first
    occurrence, scanning every left leg and then every right leg: the
    canonical apex order.  A point that only a right leg reaches is
    numbered after the points of every left leg, those of later cospans
    included.  The apex is the number of points reached, which for
    canonical corelations is the sum of their apexes; on one cospan the
    legs are its quotient.  ``None`` stays undefined.
    """
    label: dict = {}
    get = label.get
    legs = []
    for side in (0, 1):  # every left leg, then every right leg
        out = []
        shift = 0
        for c in cospans:
            for v in c[side].table:
                if v is not None:
                    v += shift
                    x = get(v)
                    if x is None:
                        x = label[v] = len(label)
                    v = x
                out.append(v)
            shift += c.left.cod
        legs.append(tuple(out))
    return legs[0], legs[1], len(label)


def enumerate_finmaps(dom: int, cod: int):
    """All maps dom -> cod in lexicographic table order."""
    for table in product(range(cod), repeat=dom):
        yield FinMap(dom, cod, table)


def enumerate_parmaps(dom: int, cod: int):
    """All partial maps dom -> cod (entry None counts as one more value,
    before the others)."""
    for table in product((None, *range(cod)), repeat=dom):
        yield ParMap(dom, cod, table)


# ---------------------------------------------------------------------------
# partitions


class Partition(NamedTuple):
    """Partition of the ordinal {0, ..., ground-1} into nonempty blocks.

    Blocks are sorted internally and ordered by their minimum element.
    """

    ground: int
    blocks: tuple[tuple[int, ...], ...]
