"""Spans and cospans over a pluggable ambient prop.

An :class:`Ambient` bundles the categorical operations of one concrete prop
(finite functions, partial functions, or matrices over a ring) together with
its factorisation system and a distinguished subcategory used when mapping
spans to corelations.  Everything downstream (composition, canonical forms,
corelations, the verification harness) is written once against this
interface.

Iso-class representatives: a cospan is canonicalised by renaming its apex
only, which is exactly the isomorphism-class quotient.  Pullbacks for spans
over a subcategory are always computed in the full ambient prop.

Matrix ambients need no relation operations of their own: over a field a
relation is the corelation of its transposed legs (:func:`transpose_legs`),
so the corelation operations serve relations too.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple, Optional

from .errors import NoSuchMorphism, TypeMismatch, UnknownAmbient
from .exactnum import ZZ, Ring, parse_ring
from . import finfn
from .finfn import FinMap, ParMap
from . import linmap
from .linmap import ExactMatrix


class Span(NamedTuple):
    """Two morphisms out of a shared apex: X <- apex -> Y.

    A Span equals (and hashes as) the Cospan and the plain tuple with the
    same legs, so no dict may mix them as keys."""

    left: object
    right: object


class Cospan(NamedTuple):
    """Two morphisms into a shared apex: X -> apex <- Y.

    A Cospan equals (and hashes as) the Span and the plain tuple with the
    same legs, so no dict may mix them as keys."""

    left: object
    right: object


class Ambient:
    """Operations of one concrete prop; subclasses fix the morphism type.

    ``a_name`` selects the distinguished subcategory tested by :meth:`in_a`
    (e.g. injections inside total functions, split monos inside integer
    matrices).
    """

    name: str
    a_name: str
    leg_types: tuple  # the morphism classes of the prop

    def __eq__(self, other):
        return (
            isinstance(other, Ambient)
            and self.name == other.name
            and self.a_name == other.a_name
        )

    def __hash__(self):
        return hash((self.name, self.a_name))

    def __repr__(self):
        return f"Ambient({self.name}, A={self.a_name})"

    # morphism protocol; a leg carries its feet, as f.dom and f.cod
    def identity(self, n: int):
        raise NotImplementedError

    def compose(self, f, g):
        """Diagrammatic order: first f, then g."""
        raise NotImplementedError

    def tensor(self, *fs):
        """Side-by-side sum of one or more morphisms, left to right."""
        raise NotImplementedError

    def symmetry(self, n: int, m: int):
        raise NotImplementedError

    def pullback(self, f, g):
        raise NotImplementedError

    def pushout(self, f, g):
        raise NotImplementedError

    def in_e(self, f) -> bool:
        raise NotImplementedError

    def in_m(self, f) -> bool:
        raise NotImplementedError

    def in_a(self, f) -> bool:
        """A is every morphism or M."""
        return self.a_name == "all" or self.in_m(f)

    # mediators (used by the verification harness)
    def pushout_mediator(self, q1, q2, f, g):
        """Unique u with q1;u = f and q2;u = g, for a cocone (f, g)."""
        raise NotImplementedError

    def pullback_mediator(self, p1, p2, f, g):
        """Unique u with u;p1 = f and u;p2 = g, for a cone (f, g)."""
        raise NotImplementedError

    # canonical forms
    def canonical_cospan(self, c: Cospan) -> Cospan:
        raise NotImplementedError

    def canonical_span(self, s: Span) -> Span:
        raise NotImplementedError

    def cospan_keys(self, fs, gs):
        """One list of keys per left leg f in fs, lazily: the key of each
        cospan (f, g), g in gs (both lists of legs), a hashable value equal
        to another key exactly when the cospans are isomorphic over the
        apex.  A function ambient's key is the canonical form; for matrices
        see :func:`_matrix_keys`."""
        return ([self.canonical_cospan(Cospan(f, g)) for g in gs] for f in fs)

    def span_keys(self, fs, gs):
        """One list of keys per left leg f in fs, lazily: the key of each
        span (f, g), g in gs, as :meth:`cospan_keys` makes them, equal
        exactly when the spans are isomorphic over the apex."""
        return ([self.canonical_span(Span(f, g)) for g in gs] for f in fs)

    # composites
    def compose_cospans(self, c1: Cospan, c2: Cospan) -> Cospan:
        """The composite c1 ; c2 of cospans whose feet agree: the pushout
        of (c1.right, c2.left), with the outer legs composed through it."""
        q1, q2 = self.pushout(c1.right, c2.left)
        return Cospan(self.compose(c1.left, q1), self.compose(c2.right, q2))

    def compose_spans(self, s1: Span, s2: Span) -> Span:
        """The composite s1 ; s2 of spans whose feet agree: the pullback of
        (s1.right, s2.left), composed with the outer legs."""
        p1, p2 = self.pullback(s1.right, s2.left)
        return Span(self.compose(p1, s1.left), self.compose(p2, s2.right))

    # corelations: canonical jointly-epi cospans
    def corelation_cospan(self, c: Cospan) -> Cospan:
        """The canonical cospan of the corelation c represents: the epi
        part of the copairing, with a canonical apex."""
        raise NotImplementedError

    def compose_corelations(self, c1: Cospan, c2: Cospan) -> Cospan:
        """The canonical cospan of the corelation composite c1 ; c2: the
        pushout, then the image factorisation of the composite legs."""
        raise NotImplementedError

    def tensor_corelations(self, cospans) -> Cospan:
        """The canonical cospan of the tensor of the canonical cospans of
        one or more corelations, left to right.  E is closed under tensor,
        so the tensor is jointly epi already, and its canonical form is
        read off the parts' canonical forms, with no canonical pass."""
        raise NotImplementedError

    # enumeration / sampling (verification harness)
    def enumerate_morphisms(self, dom: int, cod: int, entry_bound: Optional[int] = None):
        raise NotImplementedError

    def enumerate_a_morphisms(self, dom: int, cod: int, entry_bound: Optional[int] = None):
        for f in self.enumerate_morphisms(dom, cod, entry_bound):
            if self.in_a(f):
                yield f

    def random_morphism(self, rng, dom: int, cod: int, entry_bound: Optional[int] = None):
        raise NotImplementedError

    def random_a_morphism(self, rng, dom: int, cod: int, entry_bound: Optional[int] = None):
        raise NotImplementedError


class FinFnAmbient(Ambient):
    """Total functions on finite ordinals; (surjections, injections).

    Every operation also serves partial maps, read as pointed total maps
    (see :mod:`finfn`), and builds its results with ``map_type``.
    """

    name = "f"
    map_type = FinMap
    leg_types = (FinMap,)

    def __init__(self, a_name: str = "inj"):
        if a_name not in ("inj", "all"):
            raise UnknownAmbient(f"unknown subcategory {a_name!r} for {self.name}")
        self.a_name = a_name

    def identity(self, n):
        return self.map_type(*finfn.fn_identity(n))

    def compose(self, f, g):
        return finfn.fn_compose(f, g)

    def tensor(self, *fs):
        return finfn.fn_tensor(*fs)

    def symmetry(self, n, m):
        return self.map_type(*finfn.fn_symmetry(n, m))

    def pullback(self, f, g):
        return finfn.fn_pullback(f, g)

    def pushout(self, f, g):
        return finfn.fn_pushout(f, g)

    def in_e(self, f):
        return finfn.fn_is_surjective(f)

    def in_m(self, f):
        return finfn.fn_is_injective(f)

    def pushout_mediator(self, q1, q2, f, g):
        table: list = [()] * q1.cod  # () marks an apex point not yet reached
        for a, v in zip(q1.table, f.table):
            if a is not None:
                table[a] = v
        for a, v in zip(q2.table, g.table):
            if a is not None:
                if table[a] != () and table[a] != v:
                    raise TypeMismatch("not a cocone")
                table[a] = v
        if () in table:
            raise TypeMismatch("pushout legs not jointly surjective")
        return self.map_type(q1.cod, f.cod, tuple(table))

    def pullback_mediator(self, p1, p2, f, g):
        index = {(p1.table[i], p2.table[i]): i for i in range(p1.dom)}
        index[(None, None)] = None
        table = tuple(index[pair] for pair in zip(f.table, g.table))
        return self.map_type(f.dom, p1.dom, table)

    def _legs(self, left: tuple, right: tuple, apex: int) -> Cospan:
        """The cospan of the leg tables into the apex."""
        make = self.map_type
        return Cospan(make(len(left), apex, left), make(len(right), apex, right))

    def canonical_cospan(self, c):
        """The legs of the quotient, on the apex of c: the points that no
        leg reaches stay in the apex, and no table names them."""
        left, right, _ = finfn.corelation_tensor([c])
        return self._legs(left, right, c.left.cod)

    def canonical_span(self, s):
        key = lambda p: tuple(-1 if v is None else v for v in p)
        pairs = sorted(zip(s.left.table, s.right.table), key=key)
        make = self.map_type
        return Span(
            make(len(pairs), s.left.cod, tuple(x for x, _ in pairs)),
            make(len(pairs), s.right.cod, tuple(y for _, y in pairs)),
        )

    def corelation_cospan(self, c):
        """Every apex point that a leg reaches, numbered by first occurrence."""
        return self._legs(*finfn.corelation_tensor([c]))

    def compose_corelations(self, c1, c2):
        return Cospan(*finfn.glue_compose(c1.left, c1.right, c2.left, c2.right))

    def tensor_corelations(self, cospans):
        return self._legs(*finfn.corelation_tensor(cospans))

    def enumerate_morphisms(self, dom, cod, entry_bound=None):
        return finfn.enumerate_finmaps(dom, cod)

    def enumerate_a_morphisms(self, dom, cod, entry_bound=None):
        """For A = inj the injections alone, in the table order of the filtered maps."""
        if self.a_name == "all":
            return self.enumerate_morphisms(dom, cod)
        return (self.map_type(dom, cod, table) for table in permutations(range(cod), dom))

    def random_morphism(self, rng, dom, cod, entry_bound=None):
        if cod == 0 and dom > 0:
            raise NoSuchMorphism("no maps into the empty set")
        return FinMap(dom, cod, tuple(rng.randrange(cod) for _ in range(dom)))

    def random_a_morphism(self, rng, dom, cod, entry_bound=None):
        if self.a_name == "all":
            return self.random_morphism(rng, dom, cod)
        if dom > cod:
            raise NoSuchMorphism(f"no injections {dom} -> {cod}")
        return self.map_type(dom, cod, tuple(rng.sample(range(cod), dom)))


class ParFnAmbient(FinFnAmbient):
    """Partial functions; (partial surjections, total injections)."""

    name = "pf"
    map_type = ParMap
    leg_types = (FinMap, ParMap)  # a total map is a partial one

    def enumerate_morphisms(self, dom, cod, entry_bound=None):
        return finfn.enumerate_parmaps(dom, cod)

    def random_morphism(self, rng, dom, cod, entry_bound=None):
        values = [None] + list(range(cod))
        return ParMap(dom, cod, tuple(rng.choice(values) for _ in range(dom)))


class MatrixAmbient(Ambient):
    """Matrices over a field or the integers.

    Fields carry the (epi, mono) system; the integers carry (rank-dense
    epis, split monos), with pushouts taken through the free reflection.
    Each limit, composite, canonical form, key and mediator is one echelon
    pass of :mod:`linmap`.  The span half is the cospan half of the
    transposed legs, computed with no transpose: a canonical span, its key,
    a pullback, a span composite and a pullback mediator read the legs'
    columns as rows and cut their results as columns.  A (co)span composite
    is one pass whose rows are the unit rows beside the outer legs, so it
    is the canonical pushout (pullback) composed with the outer legs, with
    no product.
    """

    leg_types = (ExactMatrix, linmap.QMatrix)

    def __init__(self, ring: Ring, a_name: Optional[str] = None):
        self.ring = ring
        self.name = ring.name
        if a_name is None:
            a_name = "split" if ring == ZZ else "all"
        if a_name not in ("all", "split"):
            raise UnknownAmbient(f"unknown subcategory {a_name!r} for {ring.name}")
        if a_name == "split" and ring != ZZ:
            raise UnknownAmbient("split-mono subcategory is specific to the integers")
        self.a_name = a_name

    def identity(self, n):
        return linmap.mat_identity(self.ring, n)

    def compose(self, f, g):
        return linmap.mat_compose(f, g)

    def tensor(self, *fs):
        return linmap.mat_tensor(*fs)

    def symmetry(self, n, m):
        return linmap.mat_symmetry(self.ring, n, m)

    def pullback(self, f, g):
        return linmap.mat_pullback(f, g)

    def pushout(self, f, g):
        return linmap.mat_pushout(f, g)

    def in_e(self, f):
        return linmap.mat_rank(f) == f.rows

    def in_m(self, f):
        return linmap.is_split_mono(f)

    def pushout_mediator(self, q1, q2, f, g):
        return _solved(linmap.mat_mediator(q1, q2, f, g))

    def pullback_mediator(self, p1, p2, f, g):
        return _solved(linmap.mat_mediator(p1, p2, f, g, columns=True))

    def compose_cospans(self, c1, c2):
        return Cospan(*linmap.composite(c1.left, c1.right, c2.left, c2.right))

    def compose_spans(self, s1, s2):
        return Span(*linmap.composite(s1.left, s1.right, s2.left, s2.right, columns=True))

    def corelation_cospan(self, c):
        """The corelation is the row space (lattice) of [L | R]: its
        canonical cospan is the canonical basis of it, split back."""
        return Cospan(*linmap.corelation_legs(c.left, c.right))

    def compose_corelations(self, c1, c2):
        """One echelon pass over [C | diag(L1, R2)] with C = [R1; -L2]: the
        composite is the rows whose C-part vanishes, i.e. the left kernel of
        C (the pushout) applied to the outer legs (the image)."""
        return Cospan(*linmap.corelation_composite(c1.left, c1.right, c2.left, c2.right))

    def tensor_corelations(self, cospans):
        return Cospan(*linmap.corelation_tensor(cospans))

    def canonical_cospan(self, c):
        return Cospan(*linmap.echelon_legs(c.left, c.right))

    def canonical_span(self, s):
        """The canonical cospan of the transposed legs, read from the
        columns and cut as columns."""
        return Span(*linmap.echelon_legs(s.left, s.right, columns=True))

    def cospan_keys(self, fs, gs):
        return _matrix_keys(fs, gs, False)

    def span_keys(self, fs, gs):
        return _matrix_keys(fs, gs, True)

    def enumerate_morphisms(self, dom, cod, entry_bound=None):
        if entry_bound is None:
            entry_bound = 1
        return linmap.enumerate_matrices(self.ring, cod, dom, entry_bound)

    def random_morphism(self, rng, dom, cod, entry_bound=None):
        if entry_bound is None:
            entry_bound = 2
        # every residue over GF(p), the integer box [-e, e] otherwise
        lo, hi = (-entry_bound, entry_bound + 1) if self.ring.p is None else (0, self.ring.p)
        return ExactMatrix(self.ring, cod, dom, tuple(tuple(rng.randrange(lo, hi) for _ in range(dom)) for _ in range(cod)))

    def random_a_morphism(self, rng, dom, cod, entry_bound=None):
        if self.a_name == "all":
            return self.random_morphism(rng, dom, cod, entry_bound)
        if dom > cod:
            raise NoSuchMorphism(f"no split monos {dom} -> {cod}")
        if dom and entry_bound is not None and entry_bound < 1:
            raise NoSuchMorphism(f"no split mono {dom} -> {cod} has entries bounded by {entry_bound}")
        # rejection sampling; dense enough at desk scale, and the box holds
        # the inclusion of the first dom coordinates, so the loop ends
        while True:
            f = self.random_morphism(rng, dom, cod, entry_bound)
            if linmap.is_split_mono(f):
                return f


def _solved(mediator):
    if mediator is None:
        raise TypeMismatch("no mediator: the legs are not a (co)cone")
    return mediator


def _matrix_keys(fs, gs, columns: bool):
    """The keys of :meth:`Ambient.cospan_keys` (with ``columns``, of
    :meth:`Ambient.span_keys`) over a matrix ambient, from one
    :func:`linmap.echelon_rows_each` call, which prepares the right legs
    once: per left leg f, its form (the key of its canonical form H, which
    hashes integers on every ring, and f's feet), then per right leg the
    key of the columns of the finished right block.  [H | block] is the
    echelon form of the pair, so with both feet (with apex 0, H is empty
    for every n) the key decides the pair's class, and no row is built."""
    for f, (h, blocks) in zip(fs, linmap.echelon_rows_each(fs, gs, columns)):
        form = (h, f.dom, f.cod)
        yield [(form, block) for block in blocks]


def transpose_legs(pair, kind):
    """The pair of transposed legs as a ``kind`` (Span or Cospan): a span
    of matrices becomes a cospan with the same feet, and back."""
    return kind(linmap.mat_transpose(pair.left), linmap.mat_transpose(pair.right))


def get_ambient(name: str, a_name: Optional[str] = None) -> Ambient:
    """Ambient registry: ``f``, ``pf``, ``q``, ``z`` or ``gf<p>``.

    ``a_name`` picks the distinguished subcategory (default: injections for
    function props, split monos over the integers, everything over fields).
    """
    name = name.strip().lower()
    if a_name is not None:
        a_name = a_name.strip().lower()
        if a_name == name:  # "--A f" with "--C f" means A = C itself
            a_name = "all"
    if name == "f":
        return FinFnAmbient(a_name or "inj")
    if name == "pf":
        return ParFnAmbient(a_name or "inj")
    if name in ("q", "z") or name.startswith("gf"):
        ring = parse_ring(name)
        return MatrixAmbient(ring, a_name)
    raise UnknownAmbient(f"unknown ambient {name!r}")


# ---------------------------------------------------------------------------
# span/cospan operations


def _require_legs(amb: Ambient, *legs) -> None:
    """Refuse a leg that is not a morphism of the ambient, named as literals name it."""
    for f in legs:
        if type(f) not in amb.leg_types or getattr(f, "ring", None) != getattr(amb, "ring", None):
            kind = {FinMap: "fn", ParMap: "par"}.get(type(f)) or f"mat {f.ring.name}"
            raise TypeMismatch(f"a {kind} leg is not a morphism of ambient {amb.name}")


def make_cospan(left, right, amb: Ambient) -> Cospan:
    _require_legs(amb, left, right)
    if left.cod != right.cod:
        raise TypeMismatch("cospan legs need a common apex")
    return Cospan(left, right)


def make_span(left, right, amb: Ambient) -> Span:
    _require_legs(amb, left, right)
    if left.dom != right.dom:
        raise TypeMismatch("span legs need a common apex")
    return Span(left, right)


def cospan_identity(n: int, amb: Ambient) -> Cospan:
    i = amb.identity(n)
    return Cospan(i, i)


def span_identity(n: int, amb: Ambient) -> Span:
    i = amb.identity(n)
    return Span(i, i)


def cospan_compose(c1: Cospan, c2: Cospan, amb: Ambient) -> Cospan:
    if c1.right.dom != c2.left.dom:
        raise TypeMismatch(f"feet disagree: {c1.right.dom} vs {c2.left.dom}")
    return amb.compose_cospans(c1, c2)


def span_compose(s1: Span, s2: Span, amb: Ambient) -> Span:
    if s1.right.cod != s2.left.cod:
        raise TypeMismatch(f"feet disagree: {s1.right.cod} vs {s2.left.cod}")
    return amb.compose_spans(s1, s2)


def cospan_tensor(c1: Cospan, c2: Cospan, amb: Ambient) -> Cospan:
    return Cospan(amb.tensor(c1.left, c2.left), amb.tensor(c1.right, c2.right))


def span_tensor(s1: Span, s2: Span, amb: Ambient) -> Span:
    return Span(amb.tensor(s1.left, s2.left), amb.tensor(s1.right, s2.right))


def cospan_canonical(c: Cospan, amb: Ambient) -> Cospan:
    return amb.canonical_cospan(c)


def span_canonical(s: Span, amb: Ambient) -> Span:
    return amb.canonical_span(s)


def embed_fwd_cospan(f, amb: Ambient) -> Cospan:
    return Cospan(f, amb.identity(f.cod))


def embed_bwd_cospan(f, amb: Ambient) -> Cospan:
    return Cospan(amb.identity(f.cod), f)


def embed_fwd_span(f, amb: Ambient) -> Span:
    return Span(amb.identity(f.dom), f)


def embed_bwd_span(f, amb: Ambient) -> Span:
    return Span(f, amb.identity(f.dom))
