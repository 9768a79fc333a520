"""Corelations and relations with decidable canonical forms.

A corelation n -> m is an equivalence class of cospans; its canonical
representative is the jointly-epi cospan obtained by factorising the
copairing and renaming the apex.  Equality is decided on canonical forms,
not by searching the witness closure; the closure is kept as an
independent oracle in the test suite (``tests/oracle_utils.py``).

Composition asks the ambient for the canonical composite: one union-find
pass over finite and partial functions, one echelon pass over matrices.
``pi`` is the ambient's pushout, which is the composite of the two leg
cospans and so already canonical.  Over functions a corelation is a
partition of its feet, so one first-occurrence numbering of the points
the legs reach gives both the quotient of a cospan and the tensor.
Tensors need neither a factorisation nor a canonical pass: E is closed
under tensor, and the ambient assembles the canonical tensor from the
parts' canonical forms, by that numbering over functions and a merge of
the rows by pivot column over matrices.  Identities and symmetries are
built canonical.

A relation over a field is stored as the corelation of its transposed
legs.  Transposing both legs of a span gives a cospan with the same feet,
turns jointly-mono spans into jointly-epi cospans and pullbacks into
pushouts (the self-duality of finite-dimensional vector spaces), so one
set of corelation operations serves both types, and the canonical
cospan's rows are the relation's subspace in reduced echelon form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAbelian, NotInA, TypeMismatch
from .finfn import ParMap, Partition
from .spancospan import (
    Ambient,
    Cospan,
    FinFnAmbient,
    MatrixAmbient,
    Span,
    cospan_identity,
    transpose_legs,
)


@dataclass(frozen=True)
class Corelation:
    """Canonical jointly-epi cospan; build via :func:`gamma` or :func:`pi`."""

    ambient: Ambient
    cospan: Cospan

    @property
    def dom(self) -> int:
        return self.cospan.left.dom

    @property
    def cod(self) -> int:
        return self.cospan.right.dom

    @property
    def apex(self) -> int:
        return self.cospan.left.cod


@dataclass(frozen=True)
class Relation(Corelation):
    """Canonical jointly-mono span over a field, stored as the canonical
    corelation of its transposed legs; build via :func:`rel_canonical`."""

    @property
    def span(self) -> Span:
        return transpose_legs(self.cospan, Span)


# ---------------------------------------------------------------------------
# corelations


def gamma(c: Cospan, amb: Ambient) -> Corelation:
    """Quotient a cospan to the corelation it represents.

    Keeps the epi part of the copairing, with a canonical apex; over
    matrices that is the canonical basis of the rows of [L | R].  Every
    corelation arises this way.
    """
    return Corelation(amb, amb.corelation_cospan(c))


def pi(s: Span, amb: Ambient) -> Corelation:
    """Pushout a span with legs in the distinguished subcategory, then quotient.

    The pushout of the span (f, g) is the composite of the cospans (id, f)
    and (g, id), so it is already jointly epi, with a canonical apex.
    """
    for leg in (s.left, s.right):
        if not amb.in_a(leg):
            raise NotInA(f"span leg fails the {amb.a_name} membership test")
    return Corelation(amb, Cospan(*amb.pushout(s.left, s.right)))


def corel_identity(n: int, amb: Ambient) -> Corelation:
    """(id, id), already canonical: [I | I] is reduced and in Hermite form,
    and first-occurrence renaming fixes an identity table."""
    return Corelation(amb, cospan_identity(n, amb))


def corel_symmetry(n: int, m: int, amb: Ambient) -> Corelation:
    """The canonical form of (sym(n, m), id), which is (id, sym(m, n))."""
    return Corelation(amb, Cospan(amb.identity(n + m), amb.symmetry(m, n)))


def _require_alike(a: Corelation, b: Corelation) -> None:
    if type(a) is not type(b):
        raise TypeMismatch(f"cannot combine a {type(a).__name__} with a {type(b).__name__}")
    if a.ambient is not b.ambient and a.ambient != b.ambient:
        raise TypeMismatch(f"ambients differ: {a.ambient} vs {b.ambient}")


def corel_compose(a: Corelation, b: Corelation) -> Corelation:
    """Composite of two corelations, or of two relations: the value type
    of ``a``."""
    _require_alike(a, b)
    if a.cod != b.dom:
        raise TypeMismatch(f"feet disagree: {a.cod} vs {b.dom}")
    return type(a)(a.ambient, a.ambient.compose_corelations(a.cospan, b.cospan))


def corel_tensor(first: Corelation, *rest: Corelation) -> Corelation:
    """Tensor of one or more corelations (or relations), left to right.

    E is closed under tensor, so the tensor of jointly-epi cospans is
    jointly epi, and the parts' canonical forms give its canonical form
    block by block: the ambient assembles it, with no factorisation and
    no canonical pass.
    """
    for c in rest:
        _require_alike(first, c)
    amb = first.ambient
    return type(first)(amb, amb.tensor_corelations([c.cospan for c in (first, *rest)]))


def corel_equal(a: Corelation, b: Corelation) -> bool:
    _require_alike(a, b)
    if (a.dom, a.cod) != (b.dom, b.cod):
        raise TypeMismatch("feet differ")
    return a.cospan == b.cospan


# ---------------------------------------------------------------------------
# relations (matrix ambients over a field): corelations of the transposed legs


def _require_products(amb: Ambient) -> MatrixAmbient:
    if not isinstance(amb, MatrixAmbient) or not amb.ring.is_field:
        raise NotAbelian(f"relations need a matrix ambient over a field, got {amb.name}")
    return amb


def rel_canonical(s: Span, amb: Ambient) -> Relation:
    """Keep the mono part of the pairing, in its canonical apex basis: the
    canonical corelation of the transposed legs."""
    amb = _require_products(amb)
    return Relation(amb, amb.corelation_cospan(transpose_legs(s, Cospan)))


# ---------------------------------------------------------------------------
# partitions as instance semantics


def er_from_corelation(c: Corelation) -> Partition:
    """Read off the apex fibers of a (partial-)function corelation n -> m,
    feet x0..x(n-1) then y0..y(m-1).

    Over partial functions the partition has one more point, the basepoint
    n + m, whose block lists the undefined points: a partial equivalence
    relation is a pointed partition.
    """
    amb = c.ambient
    if not isinstance(amb, FinFnAmbient):
        raise TypeMismatch(f"expected a function ambient, got {amb.name}")
    fibers: dict = {}
    for i, v in enumerate(c.cospan.left.table + c.cospan.right.table):
        fibers.setdefault(v, []).append(i)
    ground = c.dom + c.cod
    if amb.map_type is ParMap:
        fibers.setdefault(None, []).append(ground)
        ground += 1
    blocks = sorted((tuple(b) for b in fibers.values()), key=lambda b: b[0])
    return Partition(ground, tuple(blocks))


# ---------------------------------------------------------------------------
# subspace view of matrix relations


def rel_subspace_rows(r: Relation) -> tuple[tuple, ...]:
    """The subspace of k^(dom+cod) underlying a relation, as canonical
    reduced-echelon basis rows: the rows of [L | R] of its stored cospan."""
    _require_products(r.ambient)
    return tuple(left + right for left, right in zip(r.cospan.left.entries, r.cospan.right.entries))
