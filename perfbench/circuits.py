"""Seeded random string diagrams, kept as small syntax trees.

A circuit is a list of layers; a layer is a list of blocks placed side by
side; a block is a tree of ``("gen", name, scalar)``, ``("id", n)``,
``("sym", n, m)``, ``("seq", a, b)`` and ``("par", a, b)`` nodes.  Every
layer keeps the circuit's width.  The tree is printed to the term syntax
that ``corelate.diagrams.parse_term`` reads; the benchmark's own oracles
(``oracles.py``) evaluate the same tree without any corelate code.
"""

from __future__ import annotations

import random
from fractions import Fraction

ARITY = {
    "unit": (0, 1), "counit": (1, 0), "mult": (2, 1), "comult": (1, 2),
    "undef": (1, 0), "scalar": (1, 1), "coscalar": (1, 1),
}
for _c in ("w", "b"):
    for _g in ("unit", "counit", "mult", "comult"):
        ARITY[f"{_c}.{_g}"] = ARITY[_g]


def G(name, scalar=None):
    return ("gen", name, scalar)


def seq(*parts):
    out = parts[0]
    for p in parts[1:]:
        out = ("seq", out, p)
    return out


def par(*parts):
    out = parts[0]
    for p in parts[1:]:
        out = ("par", out, p)
    return out


ID1 = ("id", 1)
SWAP = ("sym", 1, 1)


def arity(node) -> tuple[int, int]:
    kind = node[0]
    if kind == "gen":
        return ARITY[node[1]]
    if kind == "id":
        return node[1], node[1]
    if kind == "sym":
        return node[1] + node[2], node[1] + node[2]
    a, b = arity(node[1]), arity(node[2])
    if kind == "seq":
        if a[1] != b[0]:
            raise ValueError(f"ill-typed block {node!r}")
        return a[0], b[1]
    return a[0] + b[0], a[1] + b[1]


def _scalar_text(r) -> str:
    r = Fraction(r)
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def block_text(node) -> str:
    kind = node[0]
    if kind == "gen":
        return node[1] if node[2] is None else f"{node[1]}({_scalar_text(node[2])})"
    if kind == "id":
        return f"id({node[1]})"
    if kind == "sym":
        return f"sym({node[1]},{node[2]})"
    op = " ; " if kind == "seq" else " @ "
    return "(" + block_text(node[1]) + op + block_text(node[2]) + ")"


def circuit_text(layers) -> str:
    return " ; ".join("(" + " @ ".join(block_text(b) for b in layer) + ")" for layer in layers)


# Width-preserving blocks of the equivalence-relation theories.  Each entry
# is (width, block); wider blocks join or cross wires, narrow ones cut them.
ER_BLOCKS = (
    (1, ID1),
    (1, seq(G("comult"), G("mult"))),
    (1, seq(G("counit"), G("unit"))),
    (1, seq(par(G("unit"), ID1), G("mult"))),
    (2, SWAP),
    (2, seq(G("mult"), G("comult"))),
    (2, seq(par(G("comult"), ID1), par(ID1, G("mult")))),
    (3, seq(par(G("mult"), ID1), par(ID1, G("comult")))),
    (3, ("sym", 1, 2)),
)
# The partial theory adds blocks that send wires to "undefined".
PER_BLOCKS = ER_BLOCKS + (
    (1, seq(G("undef"), G("unit"))),
    (1, seq(G("comult"), par(G("undef"), ID1))),
    (2, seq(par(G("undef"), ID1), G("comult"))),
)


def _linear_blocks(scalars):
    out = [
        (1, ID1),
        (1, seq(G("b.comult"), G("w.mult"))),
        (1, seq(G("w.comult"), G("b.mult"))),
        (1, seq(G("w.counit"), G("b.unit"))),
        (1, seq(G("b.counit"), G("w.unit"))),
        (2, SWAP),
        (2, seq(G("w.mult"), G("b.comult"))),
        (2, seq(par(G("b.comult"), ID1), par(ID1, G("w.mult")))),
        (2, seq(par(ID1, G("w.comult")), par(G("b.mult"), ID1))),
        (3, seq(par(G("w.mult"), ID1), par(ID1, G("b.comult")))),
    ]
    for r in scalars:
        out.append((1, G("scalar", r)))
        out.append((1, G("coscalar", r)))
        out.append((1, seq(G("scalar", r), G("coscalar", r))))
    return tuple(out)


LINEAR_SCALARS = {
    "gf2-subspace": (1,),
    "q-subspace": (2, -1, Fraction(1, 2), Fraction(-2, 3)),
    "z-corel": (2, -1, 3),
}
LINEAR_BLOCKS = {name: _linear_blocks(s) for name, s in LINEAR_SCALARS.items()}


def random_layer(rng: random.Random, blocks, width: int):
    layer = []
    left = width
    while left:
        w, block = rng.choice(blocks)
        if w <= left:
            layer.append(block)
            left -= w
    return layer


def random_circuit(rng: random.Random, blocks, width: int, depth: int):
    return [random_layer(rng, blocks, width) for _ in range(depth)]
