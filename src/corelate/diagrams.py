"""Typed term language for string diagrams, with evaluation into semantic props.

Terms are built from ``id(n)``, ``sym(n,m)``, named generators (optionally
colored ``w.``/``b.`` and optionally carrying one exact scalar argument),
sequential composition ``;`` (diagrammatic order, left to right) and
parallel composition ``@``.  As in a prop, both are strictly associative: a
chain ``a ; b ; c`` is one :class:`SeqTerm` and a row ``a @ b @ c`` one
:class:`TensorTerm`, each with n-ary ``parts``, and brackets around the same
operator only regroup, so ``(a ; b) ; c`` and ``a ; (b ; c)`` parse to the
same tree.  Terms compare and hash by their class, type and printed form;
semantic equality (:func:`term_equal`) evaluates both sides to canonical
(co)relations and compares them.  A parsed term is a DAG: equal subterms of
one term are one object, which :func:`eval_term` evaluates once.

A theory is its ``legs`` table: each generator is a morphism of the ambient
sent in by one of its two embeddings, and each colour is one monoid's
multiplication and unit sent in both ways.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadScalar,
    TermSyntaxError,
    TermTypeError,
    UnknownGenerator,
    UnknownTheory,
)
from .exactnum import QQ, numeral_int
from .linmap import mat
from .finfn import fn, par
from .spancospan import embed_bwd_cospan, embed_fwd_cospan, get_ambient
from . import corelrel
from .corelrel import Corelation, Relation


@dataclass(frozen=True, eq=False, repr=False)
class Term:
    """A typed term.  Two terms are equal when they have one class, one type
    and one printed form, which reparses to an identical tree; the hash is
    that of the same key, and the repr is the printed term, so a deep term
    costs no recursion."""

    dom: int
    cod: int

    def __repr__(self):
        return f"{type(self).__name__}({self.dom} -> {self.cod}: {print_term(self)})"

    def _key(self) -> tuple:
        return (self.__class__, self.dom, self.cod, print_term(self))

    def __eq__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False, repr=False)
class IdTerm(Term):
    n: int


@dataclass(frozen=True, eq=False, repr=False)
class SymTerm(Term):
    n: int
    m: int


@dataclass(frozen=True, eq=False, repr=False)
class GenTerm(Term):
    name: str
    args: tuple


@dataclass(frozen=True, eq=False, repr=False)
class SeqTerm(Term):
    """``parts[0] ; parts[1] ; ...``: two or more parts, none a SeqTerm when parsed."""

    parts: tuple


@dataclass(frozen=True, eq=False, repr=False)
class TensorTerm(Term):
    """``parts[0] @ parts[1] @ ...``: two or more parts, none a TensorTerm when parsed."""

    parts: tuple


# Arities are fixed across theories; which names are *bound* varies.
GENERATOR_ARITIES: dict[str, tuple[int, int]] = {
    "unit": (0, 1),
    "counit": (1, 0),
    "mult": (2, 1),
    "comult": (1, 2),
    "undef": (1, 0),
    "scalar": (1, 1),
    "coscalar": (1, 1),
}
for _color in ("w", "b"):
    for _g in ("unit", "counit", "mult", "comult"):
        GENERATOR_ARITIES[f"{_color}.{_g}"] = GENERATOR_ARITIES[_g]


# Whitespace separates tokens.  A character that starts no token is refused
# before tokenizing, so every token is a number, a name or one symbol.
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z_0-9]*|[();@,./-]")
_BAD = re.compile(r"[^\sA-Za-z_0-9();@,./-]")
_GLUED = re.compile(r"[0-9][A-Za-z_]")  # a numeral that a name follows unspaced
_NOT_NAME = frozenset("0123456789();@,./-")  # first characters of the other tokens
_LEAF_GOES_ON = frozenset(".(")  # tokens that continue a leaf after its name


def _tokens(src: str) -> list:
    """``_TOKEN.findall(src)`` for a src that ``_BAD`` accepts.  Spaced
    around its symbols, such a src splits at whitespace into its tokens,
    unless a numeral runs into a name, which only the regex splits."""
    if _GLUED.search(src):
        return _TOKEN.findall(src)
    for c in "();@,./-":
        src = src.replace(c, f" {c} ")
    return src.split()


def _fail(src: str, k: int, message: str):
    """Raise a syntax error at the k-th token of src, or at its end."""
    starts = [m.start() for m in _TOKEN.finditer(src)] + [len(src)]
    raise TermSyntaxError(message, starts[k])


def _expect(src: str, tokens: list, k: int, text: str) -> None:
    if tokens[k] != text:
        _fail(src, k, f"expected {text!r}, found {tokens[k]!r}")


def _nat(src: str, tokens: list, k: int) -> int:
    if not tokens[k].isdigit():
        _fail(src, k, f"expected a number, found {tokens[k]!r}")
    try:
        return numeral_int(tokens[k])
    except BadScalar as err:
        _fail(src, k, str(err))


# A leaf of n wires is an n-by-n matrix in the linear theories, so id(n) and
# sym(n,m) are refused above this many wires: a million entries at most.
# The literals refuse a dom, cod, row or column count above it too.
MAX_LEAF_WIRES = 1024


def _too_wide(src: str, k: int, leaf: str, n: int):
    """Refuse the leaf at token k, which has n > MAX_LEAF_WIRES wires."""
    _fail(src, k, f"{leaf} has {n} wires, more than the {MAX_LEAF_WIRES} a leaf may have")


def _leaf(src: str, tokens: list, i: int):
    """The leaf at token i, ``id(n)``, ``sym(n,m)`` or a generator, and the
    index of the token after it."""
    name = tokens[i]
    if not name or name[0] in _NOT_NAME:
        _fail(src, i, f"expected an atom, found {name!r}")
    if name == "id":
        _expect(src, tokens, i + 1, "(")
        n = _nat(src, tokens, i + 2)
        _expect(src, tokens, i + 3, ")")
        if n > MAX_LEAF_WIRES:
            _too_wide(src, i, f"id({n})", n)
        return IdTerm(n, n, n), i + 4
    if name == "sym":
        _expect(src, tokens, i + 1, "(")
        n = _nat(src, tokens, i + 2)
        _expect(src, tokens, i + 3, ",")
        m = _nat(src, tokens, i + 4)
        _expect(src, tokens, i + 5, ")")
        if n + m > MAX_LEAF_WIRES:
            _too_wide(src, i, f"sym({n},{m})", n + m)
        return SymTerm(n + m, m + n, n, m), i + 6
    i += 1
    if tokens[i] == ".":
        color = tokens[i + 1]
        if not color or color[0] in _NOT_NAME:
            _fail(src, i + 1, f"expected a generator name after color, found {color!r}")
        name = f"{name}.{color}"
        i += 2
    args: tuple = ()
    if tokens[i] == "(":
        sign = 1
        if tokens[i + 1] == "-":
            sign = -1
            i += 1
        num = sign * _nat(src, tokens, i + 1)
        i += 2
        if tokens[i] == "/":
            den = _nat(src, tokens, i + 1)
            if den == 0:
                _fail(src, i + 1, f"scalar {num}/0 has a zero denominator")
            num = Fraction(num, den)
            i += 2
        _expect(src, tokens, i, ")")
        args = (Fraction(num),)
        i += 1
    if name not in GENERATOR_ARITIES:
        raise UnknownGenerator(f"unknown generator {name!r}")
    dom, cod = GENERATOR_ARITIES[name]
    return GenTerm(dom, cod, name, args), i


def parse_term(src: str) -> Term:
    """Parse and type a diagram term; totals on grammatical, well-typed input.

    term := row (';' row)*,  row := atom ('@' atom)*,  atom := '(' term ')' | leaf.

    One pass over the tokens.  Each open parenthesis saves the ``;`` parts
    and the ``@`` parts read so far, so nesting depth costs no recursion.  A
    bracketed group is spliced into a parent of its own operator, so no
    SeqTerm has a SeqTerm part and no TensorTerm a TensorTerm part.

    Equal subterms of one term are one object: the parse keeps a dict from
    each finished subterm to that object, a leaf keyed by its tokens joined
    with spaces (injective, since no token holds a space) and an ``@`` row
    or a ``;`` chain by the identities of its parts, and builds no
    duplicate.  A leaf is read once: its tokens run from its name through
    an optional ``. colour`` and an optional ``( ... )`` to the first ``)``,
    and only a key not seen before is handed to ``_leaf``, which raises
    every error.  The dict lives for one call, so two parses share no node.
    """
    bad = _BAD.search(src)
    if bad:
        raise TermSyntaxError(f"unexpected character {bad.group()!r}", bad.start())
    tokens = _tokens(src) + ["", ""]  # "" ends the input, and a leaf scan may read one past it
    # keys are strings: a leaf's starts with its name, a row's or a chain's
    # with the "0x" of a hex id, and "@" or ";" tells a row from a chain.
    # Tuples of ids build faster, but the thousands each parse frees stay on
    # the interpreter's tuple free lists: 3 MB more peak memory over many
    # parses.
    shared: dict = {}
    frames = []  # the (seq, row) parts of each enclosing group
    seq: list = []  # the ';' parts of the innermost group so far
    row: list = []  # the '@' parts of its current row so far
    i = 0
    while True:
        if tokens[i] == "(":
            frames.append((seq, row))
            seq, row = [], []
            i += 1
            continue
        j = i + 1
        if tokens[j] in _LEAF_GOES_ON:
            if tokens[j] == ".":
                j += 2
            if tokens[j] == "(":
                try:
                    j = tokens.index(")", j) + 1
                except ValueError:  # unclosed: a key that no leaf has
                    j = len(tokens)
            key = " ".join(tokens[i:j])
        else:
            key = tokens[i]
        t = shared.get(key)
        if t is None:
            t, i = _leaf(src, tokens, i)
            shared[key] = t
        else:
            i = j
        while True:  # t is a finished atom of the innermost group
            if t.__class__ is TensorTerm:
                row += t.parts
            else:
                row.append(t)
            op = tokens[i]
            i += 1
            if op == "@":
                break
            if len(row) == 1:
                t = row[0]
            else:
                key = "@".join(map(hex, map(id, row)))
                t = shared.get(key)
                if t is None:
                    t = shared[key] = TensorTerm(sum(u.dom for u in row), sum(u.cod for u in row), tuple(row))
            row = []
            if seq and seq[-1].cod != t.dom:
                raise TermTypeError("cannot compose", seq[-1].cod, t.dom)
            if t.__class__ is SeqTerm:
                seq += t.parts
            else:
                seq.append(t)
            if op == ";":
                break
            if len(seq) == 1:
                t = seq[0]
            else:
                key = ";".join(map(hex, map(id, seq)))
                t = shared.get(key)
                if t is None:
                    t = shared[key] = SeqTerm(seq[0].dom, seq[-1].cod, tuple(seq))
            if not frames:
                if op:
                    _fail(src, i - 1, f"trailing input {op!r}")
                return t
            if op != ")":
                _fail(src, i - 1, f"expected ')', found {op!r}")
            seq, row = frames.pop()


def print_term(t: Term) -> str:
    """Textual form; every tree the parser builds reparses to an identical tree."""
    out = []
    # to print: literal text, or (term, level of its parent's operator); a
    # part is bracketed unless it binds tighter than its parent, and ``;``
    # (level 0) binds looser than ``@`` (level 1)
    todo: list = [(t, -1)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        t, parent = item
        if isinstance(t, (SeqTerm, TensorTerm)):
            level, op = (0, " ; ") if isinstance(t, SeqTerm) else (1, " @ ")
            items: list = [(t.parts[0], level)]
            for u in t.parts[1:]:
                items += (op, (u, level))
            if level <= parent:
                items = ["(", *items, ")"]
            todo += reversed(items)
        elif isinstance(t, IdTerm):
            out.append(f"id({t.n})")
        elif isinstance(t, SymTerm):
            out.append(f"sym({t.n},{t.m})")
        elif isinstance(t, GenTerm):
            out.append(f"{t.name}({QQ.format(t.args[0])})" if t.args else t.name)
        else:
            raise TypeError(f"not a term: {t!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# theories


class Theory:
    """A semantic prop: its ambient, its value class and its generator table.

    ``kind`` is the value class, :class:`~corelate.corelrel.Corelation` or
    :class:`~corelate.corelrel.Relation`, and identities and symmetries are
    built as that class.  Composition, tensor and equality belong to
    ``corelrel``, whose one set of operations serves both classes:
    :func:`eval_term` and :func:`term_equal` look them up there at call
    time, so wrappers installed on the module are seen.

    ``legs`` maps each generator name to ``(way, f)``, a morphism f of the
    ambient and the way it is sent in: ``"f"`` as the cospan (f, id), of
    type f.dom -> f.cod, and ``"b"`` as (id, f), of type f.cod -> f.dom.
    ``scalar_ways`` maps ``scalar`` and ``coscalar``, where the theory has
    them, to the way their argument's 1x1 matrix is sent in.  Each leg's
    value is built once, with the theory.
    """

    def __init__(self, name: str, kind: type, ambient, legs: dict, scalar_ways: dict):
        self.name = name
        self.kind = kind
        self.ambient = ambient
        self.legs = legs
        self.scalar_ways = scalar_ways
        self._values = {gen: self._embed(way, f) for gen, (way, f) in legs.items()}

    def __repr__(self):
        return f"Theory({self.name})"

    def _embed(self, way: str, f):
        embed = embed_fwd_cospan if way == "f" else embed_bwd_cospan
        return self.kind(self.ambient, self.ambient.corelation_cospan(embed(f, self.ambient)))

    def generator(self, name: str, args: tuple):
        value = self._values.get(name)
        if value is not None:
            if args:
                raise UnknownGenerator("generator takes no scalar argument")
            return value
        way = self.scalar_ways.get(name)
        if way is None:
            raise UnknownGenerator(f"theory {self.name!r} does not bind {name!r}")
        if len(args) != 1:
            raise UnknownGenerator("scalar generators take exactly one argument")
        ring = self.ambient.ring
        r = Fraction(args[0])
        if not ring.is_field and r.denominator != 1:
            raise UnknownGenerator(f"integer theory cannot interpret scalar {r}")
        return self._embed(way, mat(ring, 1, 1, [[ring.coerce(r)]]))

    def identity(self, n: int):
        return self.kind(self.ambient, corelrel.corel_identity(n, self.ambient).cospan)

    def symmetry(self, n: int, m: int):
        return self.kind(self.ambient, corelrel.corel_symmetry(n, m, self.ambient).cospan)


def _colour(prefix: str, ways: str, m, u) -> dict:
    """The legs of one colour: a monoid's multiplication m and unit u sent
    in the first way, as mult and unit, and the second way, as comult and
    counit."""
    return {
        f"{prefix}mult": (ways[0], m),
        f"{prefix}unit": (ways[0], u),
        f"{prefix}comult": (ways[1], m),
        f"{prefix}counit": (ways[1], u),
    }


def _er_like_theory(name: str, ambient_name: str) -> Theory:
    """One colour: merge 2 -> 1 and 0 -> 1; ``per`` adds undef, the empty partial map 1 -> 0."""
    mk = fn if ambient_name == "f" else par
    legs = _colour("", "fb", mk(2, 1, [0, 0]), mk(0, 1, []))
    if ambient_name == "pf":
        legs["undef"] = ("f", par(1, 0, [None]))
    return Theory(name, Corelation, get_ambient(ambient_name), legs, {})


def _linear_theory(name: str, ring_tag: str) -> Theory:
    """Signal-flow generators over a ring: corelations over the integers
    (``z-corel``), relations over a field (``<ring>-subspace``).

    White is add 2 -> 1 with 0 -> 1 and black is copy 1 -> 2 with 1 -> 0,
    each sent in both ways.  A relation is stored as the corelation of its
    transposed legs, and transposing turns add into copy and a map into its
    converse: so each relation generator is the corelation generator of the
    other colour, with scalar and coscalar swapped.
    """
    amb = get_ambient(ring_tag)
    ring = amb.ring
    add = mat(ring, 1, 2, [[1, 1]])
    copy = mat(ring, 2, 1, [[1], [1]])
    into = mat(ring, 1, 0, [[]])  # 0 -> 1
    onto = mat(ring, 0, 1, [])  # 1 -> 0
    if ring.is_field:
        legs = {**_colour("b.", "fb", add, into), **_colour("w.", "bf", copy, onto)}
        return Theory(name, Relation, amb, legs, {"scalar": "b", "coscalar": "f"})
    legs = {**_colour("w.", "fb", add, into), **_colour("b.", "bf", copy, onto)}
    return Theory(name, Corelation, amb, legs, {"scalar": "f", "coscalar": "b"})


_SUBSPACE = re.compile(r"^(gf[0-9]+|q)-subspace$")
_THEORIES: dict = {}  # normalised name -> its theory, built on first use


def get_theory(name: str) -> Theory:
    """Theory registry: er, per, z-corel, q-subspace, gf<p>-subspace."""
    name = name.strip().lower()
    if name not in _THEORIES:
        _THEORIES[name] = _build_theory(name)
    return _THEORIES[name]


def _build_theory(name: str) -> Theory:
    if name == "er":
        return _er_like_theory("er", "f")
    if name == "per":
        return _er_like_theory("per", "pf")
    if name == "z-corel":
        return _linear_theory(name, "z")
    m = _SUBSPACE.match(name)
    if m:
        return _linear_theory(name, m.group(1))
    raise UnknownTheory(f"no theory named {name!r}")


def eval_term(t: Term, th: Theory):
    """Structural evaluation into the theory's semantic prop.

    Walks the term with an explicit stack, so depth costs no recursion, and
    keeps, for the call only, the value of each node it has evaluated, keyed
    by the node's identity: a subterm that occurs more than once as one
    object, as equal subterms of a parsed term do, is evaluated once.  A
    ``;`` chain composes its parts left to right, and an ``@`` row is one
    n-ary tensor, canonicalised once.
    """
    values: dict = {}  # id of each evaluated node -> its value
    todo: list = [t]
    while todo:
        item = todo[-1]
        if id(item) in values:
            todo.pop()
            continue
        if isinstance(item, (SeqTerm, TensorTerm)):
            pending = [u for u in item.parts if id(u) not in values]
            if pending:  # evaluated left to right, so the first bad leaf raises
                todo += reversed(pending)
                continue
            parts = [values[id(u)] for u in item.parts]
            if isinstance(item, SeqTerm):
                value = parts[0]
                for second in parts[1:]:
                    value = corelrel.corel_compose(value, second)
            else:
                value = corelrel.corel_tensor(*parts)
        elif isinstance(item, IdTerm):
            value = th.identity(item.n)
        elif isinstance(item, SymTerm):
            value = th.symmetry(item.n, item.m)
        elif isinstance(item, GenTerm):
            value = th.generator(item.name, item.args)
        else:
            raise TypeError(f"not a term: {item!r}")
        todo.pop()
        values[id(item)] = value
    return values[id(t)]


def term_equal(t1: Term, t2: Term, th: Theory) -> bool:
    """Semantic equality: evaluate both sides and compare canonical forms."""
    if (t1.dom, t1.cod) != (t2.dom, t2.cod):
        raise TermTypeError("terms have different types", (t1.dom, t1.cod), (t2.dom, t2.cod))
    return corelrel.corel_equal(eval_term(t1, th), eval_term(t2, th))
