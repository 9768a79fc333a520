"""Textual literals for morphisms, (co)spans, and canonical forms.

Grammar:
  morphism  ::=  "fn" nat "->" nat ":" "[" nat,* "]"
             |   "par" nat "->" nat ":" "[" (nat | "_"),* "]"
             |   "mat" ringtag natxnat ":" "[" row,* "]"
  cospan    ::=  "cospan" "{" "left" "=" morphism "," "right" "=" morphism "}"
  span      ::=  "span"   "{" "left" "=" morphism "," "right" "=" morphism "}"

Scalars follow the ring: optional-sign decimals, rationals as n/d, GF(p)
residues as decimals.  Every number is ASCII digits 0-9, with no
underscores.
"""

from __future__ import annotations

import re

from .corelrel import Corelation, Relation, er_from_corelation, rel_subspace_rows
from .diagrams import MAX_LEAF_WIRES
from .errors import TypeMismatch
from .exactnum import ZZ, numeral_int, parse_ring
from .finfn import FinMap, ParMap, fn, par
from .linmap import ExactMatrix, mat
from .spancospan import make_cospan, make_span


def format_morphism(f) -> str:
    if isinstance(f, FinMap):
        body = ",".join(str(v) for v in f.table)
        return f"fn {f.dom} -> {f.cod} : [{body}]"
    if isinstance(f, ParMap):
        body = ",".join("_" if v is None else str(v) for v in f.table)
        return f"par {f.dom} -> {f.cod} : [{body}]"
    if isinstance(f, ExactMatrix):
        ring = f.ring
        rows = ",".join("[" + ",".join(ring.format(v) for v in row) + "]" for row in f.entries)
        return f"mat {ring.name} {f.rows}x{f.cols} : [{rows}]"
    raise TypeError(f"not a morphism: {f!r}")


_FN = re.compile(r"^fn\s+([0-9]+)\s*->\s*([0-9]+)\s*:\s*\[(.*)\]$")
_PAR = re.compile(r"^par\s+([0-9]+)\s*->\s*([0-9]+)\s*:\s*\[(.*)\]$")
_MAT = re.compile(r"^mat\s+([A-Za-z0-9]+)\s+([0-9]+)x([0-9]+)\s*:\s*\[(.*)\]$")


def _split_commas(body: str) -> list[str]:
    return [piece.strip() for piece in body.split(",")] if body.strip() else []


def _shape(m: re.Match, group: int) -> int:
    """A dom, cod, row or column count of a literal, as an int of at most
    ``MAX_LEAF_WIRES``, as for the leaves of a term."""
    n = numeral_int(m.group(group), TypeMismatch)
    if n > MAX_LEAF_WIRES:
        raise TypeMismatch(f"a shape of {n} wires is more than the {MAX_LEAF_WIRES} a literal may have")
    return n


def parse_morphism(text: str):
    text = text.strip()
    m = _FN.match(text)
    if m:
        dom, cod, body = _shape(m, 1), _shape(m, 2), m.group(3)
        return fn(dom, cod, [ZZ.parse(v) for v in _split_commas(body)])
    m = _PAR.match(text)
    if m:
        dom, cod, body = _shape(m, 1), _shape(m, 2), m.group(3)
        return par(dom, cod, [None if v == "_" else ZZ.parse(v) for v in _split_commas(body)])
    m = _MAT.match(text)
    if m:
        ring = parse_ring(m.group(1))
        rows, cols = _shape(m, 2), _shape(m, 3)
        body = m.group(4).strip()
        entries = _parse_rows(body, rows, cols, ring)
        return mat(ring, rows, cols, entries)
    raise TypeMismatch(f"unparseable morphism literal: {text!r}")


def _parse_rows(body: str, rows: int, cols: int, ring):
    out = []
    rest = body
    while rest:
        rest = rest.lstrip(", ")
        if not rest:
            break
        if not rest.startswith("["):
            raise TypeMismatch(f"expected a row, found {rest!r}")
        end = rest.find("]")
        if end < 0:
            raise TypeMismatch(f"unclosed row {rest!r}")
        inner = rest[1:end]
        out.append([ring.parse(v) for v in _split_commas(inner)])
        rest = rest[end + 1 :]
    if len(out) != rows or any(len(r) != cols for r in out):
        raise TypeMismatch(f"rows do not form a {rows}x{cols} matrix")
    return out


def format_pair(x) -> str:
    """A span or cospan literal, introduced by the keyword of its type."""
    return f"{type(x).__name__.lower()} {{ left = {format_morphism(x.left)}, right = {format_morphism(x.right)} }}"


_PAIR = re.compile(r"^(cospan|span)\s*\{\s*left\s*=\s*(.*?)\s*,\s*right\s*=\s*(.*?)\s*\}$")


def parse_pair(text: str, amb, kind=None):
    """A span or cospan literal as a ``Span`` or ``Cospan``; given ``kind``,
    one of those two types, a literal of the other type is refused."""
    m = _PAIR.match(text.strip())
    if not m:
        raise TypeMismatch(f"unparseable span/cospan literal: {text!r}")
    keyword, left, right = m.group(1), parse_morphism(m.group(2)), parse_morphism(m.group(3))
    if kind is not None and keyword != kind.__name__.lower():
        raise TypeMismatch(f"expected a {kind.__name__.lower()} literal")
    return (make_cospan if keyword == "cospan" else make_span)(left, right, amb)


# ---------------------------------------------------------------------------
# canonical-form printouts


def format_partition_blocks(blocks, n: int) -> str:
    """Feet-tagged block printout, e.g. {{x0,y0},{x1}}."""

    def name(e: int) -> str:
        return f"x{e}" if e < n else f"y{e - n}"

    inner = ",".join("{" + ",".join(name(e) for e in block) + "}" for block in blocks)
    return "{" + inner + "}"


def format_corelation(c) -> str:
    name = c.ambient.name
    if name in ("f", "pf"):
        # the block of the partial-function basepoint is not printed
        feet = c.dom + c.cod
        blocks = [b for b in er_from_corelation(c).blocks if b[-1] < feet]
        return f"corel {name} {c.dom} -> {c.cod} : {format_partition_blocks(blocks, c.dom)}"
    return f"corel {name} {c.dom} -> {c.cod} : {format_pair(c.cospan)}"


def format_relation(r) -> str:
    ring = r.ambient.ring
    rows = rel_subspace_rows(r)
    body = ",".join("[" + ",".join(ring.format(v) for v in row) + "]" for row in rows)
    return f"subspace {ring.name} {r.dom} -> {r.cod} : [{body}]"


def format_canonical(x) -> str:
    if isinstance(x, Relation):  # before Corelation, its base class
        return format_relation(x)
    if isinstance(x, Corelation):
        return format_corelation(x)
    return format_morphism(x)
