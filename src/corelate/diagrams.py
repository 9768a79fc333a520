"""Typed term language for string diagrams, with evaluation into semantic props.

Terms are built from ``id(n)``, ``sym(n,m)``, named generators (optionally
colored ``w.``/``b.`` and optionally carrying one exact scalar argument),
sequential composition ``;`` (diagrammatic order, left to right) and
parallel composition ``@``.  Equality of terms is decided semantically: both
sides are evaluated to canonical (co)relations and compared.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    TermSyntaxError,
    TermTypeError,
    UnknownGenerator,
    UnknownTheory,
)
from .exactnum import ZZ
from .linmap import mat
from .finfn import fn, par
from .spancospan import (
    Cospan,
    Span,
    embed_bwd_cospan,
    embed_fwd_cospan,
    get_ambient,
)
from . import corelrel
from .corelrel import gamma, rel_canonical


@dataclass(frozen=True)
class Term:
    dom: int
    cod: int


@dataclass(frozen=True)
class IdTerm(Term):
    n: int


@dataclass(frozen=True)
class SymTerm(Term):
    n: int
    m: int


@dataclass(frozen=True)
class GenTerm(Term):
    name: str
    args: tuple


@dataclass(frozen=True)
class SeqTerm(Term):
    first: Term
    second: Term


@dataclass(frozen=True)
class TensorTerm(Term):
    first: Term
    second: Term


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


# Whitespace separates tokens; any other character that starts no token is "bad".
_TOKEN = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<sym>[();@,./-])|(?P<bad>\S)")


def _tokenize(src: str):
    tokens = []
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind == "bad":
            raise TermSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str):
        kind, value, pos = self.next()
        if value != text:
            raise TermSyntaxError(f"expected {text!r}, found {value!r}", pos)

    def parse(self) -> Term:
        """term := row (';' row)*,  row := atom ('@' atom)*,
        atom := '(' term ')' | leaf.

        Iterative: each open parenthesis pushes a frame holding the ``;``
        chain so far and the ``@`` row so far, so nesting depth costs no
        recursion.  Rows fold left, as do chains.
        """
        frames: list[list] = [[None, None]]
        while True:
            if self.peek()[1] == "(":
                self.next()
                frames.append([None, None])
                continue
            t = self.leaf()
            while True:  # t is a finished atom of the innermost frame
                frame = frames[-1]
                row = frame[1]
                frame[1] = t if row is None else TensorTerm(row.dom + t.dom, row.cod + t.cod, row, t)
                kind, value, pos = self.next()
                if value == "@":
                    break
                chain, row = frame
                frame[:] = (row if chain is None else _seq(chain, row)), None
                if value == ";":
                    break
                if len(frames) == 1:
                    if kind != "end":
                        raise TermSyntaxError(f"trailing input {value!r}", pos)
                    return frame[0]
                if value != ")":
                    raise TermSyntaxError(f"expected ')', found {value!r}", pos)
                frames.pop()
                t = frame[0]

    def nat(self) -> int:
        kind, value, pos = self.next()
        if kind != "num":
            raise TermSyntaxError(f"expected a number, found {value!r}", pos)
        return int(value)

    def scalar(self) -> Fraction:
        sign = 1
        if self.peek()[1] == "-":
            self.next()
            sign = -1
        num = self.nat()
        if self.peek()[1] == "/":
            self.next()
            den = self.nat()
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def leaf(self) -> Term:
        """id(n), sym(n,m) or a generator."""
        kind, value, pos = self.peek()
        if kind != "name":
            raise TermSyntaxError(f"expected an atom, found {value!r}", pos)
        self.next()
        if value == "id":
            self.expect("(")
            n = self.nat()
            self.expect(")")
            return IdTerm(n, n, n)
        if value == "sym":
            self.expect("(")
            n = self.nat()
            self.expect(",")
            m = self.nat()
            self.expect(")")
            return SymTerm(n + m, m + n, n, m)
        name = value
        if self.peek()[1] == ".":
            self.next()
            kind2, value2, pos2 = self.next()
            if kind2 != "name":
                raise TermSyntaxError(f"expected a generator name after color, found {value2!r}", pos2)
            name = f"{name}.{value2}"
        args: tuple = ()
        if self.peek()[1] == "(":
            self.next()
            args = (self.scalar(),)
            self.expect(")")
        if name not in GENERATOR_ARITIES:
            raise UnknownGenerator(f"unknown generator {name!r}")
        dom, cod = GENERATOR_ARITIES[name]
        return GenTerm(dom, cod, name, args)


def _seq(t: Term, u: Term) -> Term:
    if t.cod != u.dom:
        raise TermTypeError("cannot compose", t.cod, u.dom)
    return SeqTerm(t.dom, u.cod, t, u)


def parse_term(src: str) -> Term:
    """Parse and type a diagram term; totals on grammatical, well-typed input."""
    return _Parser(src).parse()


def _format_scalar(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def print_term(t: Term) -> str:
    """Textual form that reparses to an identical tree."""
    out = []
    # to print: literal text, or (term, least operator level it may show
    # without parentheses); ``;`` has level 0 and binds looser than ``@``
    todo: list = [(t, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        t, min_level = item
        if isinstance(t, (SeqTerm, TensorTerm)):
            level, op = (0, " ; ") if isinstance(t, SeqTerm) else (1, " @ ")
            parts = [(t.first, level), op, (t.second, level + 1)]
            if level < min_level:
                parts = ["(", *parts, ")"]
            todo.extend(reversed(parts))
        elif isinstance(t, IdTerm):
            out.append(f"id({t.n})")
        elif isinstance(t, SymTerm):
            out.append(f"sym({t.n},{t.m})")
        elif isinstance(t, GenTerm):
            out.append(f"{t.name}({_format_scalar(t.args[0])})" if t.args else t.name)
        else:
            raise TypeError(f"not a term: {t!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# theories


class Theory:
    """A semantic prop plus a generator table.

    ``kind`` is "corel" for corelation-valued theories and "rel" for
    relation-valued ones; all structural operations are dispatched on it.
    """

    def __init__(self, name: str, kind: str, ambient, generators: dict):
        self.name = name
        self.kind = kind
        self.ambient = ambient
        self._generators = generators

    def __repr__(self):
        return f"Theory({self.name})"

    def generator(self, name: str, args: tuple):
        binder = self._generators.get(name)
        if binder is None:
            raise UnknownGenerator(f"theory {self.name!r} does not bind {name!r}")
        return binder(args)

    def identity(self, n: int):
        if self.kind == "corel":
            return corelrel.corel_identity(n, self.ambient)
        return corelrel.rel_identity(n, self.ambient)

    def symmetry(self, n: int, m: int):
        if self.kind == "corel":
            return corelrel.corel_symmetry(n, m, self.ambient)
        return corelrel.rel_symmetry(n, m, self.ambient)

    def compose(self, a, b):
        if self.kind == "corel":
            return corelrel.corel_compose(a, b)
        return corelrel.rel_compose(a, b)

    def tensor(self, *parts):
        if self.kind == "corel":
            return corelrel.corel_tensor(*parts)
        return corelrel.rel_tensor(*parts)

    def equal(self, a, b) -> bool:
        if self.kind == "corel":
            return corelrel.corel_equal(a, b)
        return corelrel.rel_equal(a, b)


def _no_args(value):
    def binder(args):
        if args:
            raise UnknownGenerator("generator takes no scalar argument")
        return value

    return binder


def _er_like_theory(name: str, ambient_name: str) -> Theory:
    amb = get_ambient(ambient_name)
    total = ambient_name == "f"
    mk = fn if total else par
    cs = lambda l, r: gamma(Cospan(l, r), amb)
    gens = {
        "unit": _no_args(cs(mk(0, 1, []), mk(1, 1, [0]))),
        "counit": _no_args(cs(mk(1, 1, [0]), mk(0, 1, []))),
        "mult": _no_args(cs(mk(2, 1, [0, 0]), mk(1, 1, [0]))),
        "comult": _no_args(cs(mk(1, 1, [0]), mk(2, 1, [0, 0]))),
    }
    if not total:
        gens["undef"] = _no_args(cs(par(1, 0, [None]), par(0, 0, [])))
    return Theory(name, "corel", amb, gens)


def _z_corel_theory() -> Theory:
    amb = get_ambient("z")
    add = mat(ZZ, 1, 2, [[1, 1]])
    copy = mat(ZZ, 2, 1, [[1], [1]])
    into = mat(ZZ, 1, 0, [[]])  # 0 -> 1
    onto = mat(ZZ, 0, 1, [])  # 1 -> 0

    fwd = lambda f: gamma(embed_fwd_cospan(f, amb), amb)
    bwd = lambda f: gamma(embed_bwd_cospan(f, amb), amb)

    def scalar(args):
        r = _int_scalar(args)
        return fwd(mat(ZZ, 1, 1, [[r]]))

    def coscalar(args):
        r = _int_scalar(args)
        return bwd(mat(ZZ, 1, 1, [[r]]))

    gens = {
        "w.mult": _no_args(fwd(add)),
        "w.unit": _no_args(fwd(into)),
        "w.comult": _no_args(bwd(add)),
        "w.counit": _no_args(bwd(into)),
        "b.comult": _no_args(fwd(copy)),
        "b.counit": _no_args(fwd(onto)),
        "b.mult": _no_args(bwd(copy)),
        "b.unit": _no_args(bwd(onto)),
        "scalar": scalar,
        "coscalar": coscalar,
    }
    return Theory("z-corel", "corel", amb, gens)


def _int_scalar(args) -> int:
    if len(args) != 1:
        raise UnknownGenerator("scalar generators take exactly one argument")
    r = Fraction(args[0])
    if r.denominator != 1:
        raise UnknownGenerator(f"integer theory cannot interpret scalar {r}")
    return r.numerator


def _subspace_theory(name: str, ring_tag: str) -> Theory:
    amb = get_ambient(ring_tag)
    ring = amb.ring
    add = mat(ring, 1, 2, [[1, 1]])
    copy = mat(ring, 2, 1, [[1], [1]])
    into = mat(ring, 1, 0, [[]])
    onto = mat(ring, 0, 1, [])
    ident = lambda n: amb.identity(n)

    graph = lambda f: rel_canonical(Span(ident(f.cols), f), amb)
    cograph = lambda f: rel_canonical(Span(f, ident(f.cols)), amb)

    def scalar(args):
        if len(args) != 1:
            raise UnknownGenerator("scalar generators take exactly one argument")
        return graph(mat(ring, 1, 1, [[ring.coerce(args[0])]]))

    def coscalar(args):
        if len(args) != 1:
            raise UnknownGenerator("scalar generators take exactly one argument")
        return cograph(mat(ring, 1, 1, [[ring.coerce(args[0])]]))

    gens = {
        "w.mult": _no_args(graph(add)),
        "w.unit": _no_args(graph(into)),
        "w.comult": _no_args(cograph(add)),
        "w.counit": _no_args(cograph(into)),
        "b.comult": _no_args(graph(copy)),
        "b.counit": _no_args(graph(onto)),
        "b.mult": _no_args(cograph(copy)),
        "b.unit": _no_args(cograph(onto)),
        "scalar": scalar,
        "coscalar": coscalar,
    }
    return Theory(name, "rel", amb, gens)


_SUBSPACE = re.compile(r"^(gf\d+|q)-subspace$")


def get_theory(name: str) -> Theory:
    """Theory registry: er, per, z-corel, q-subspace, gf<p>-subspace."""
    name = name.strip().lower()
    if name == "er":
        return _er_like_theory("er", "f")
    if name == "per":
        return _er_like_theory("per", "pf")
    if name == "z-corel":
        return _z_corel_theory()
    m = _SUBSPACE.match(name)
    if m:
        return _subspace_theory(name, m.group(1))
    raise UnknownTheory(f"no theory named {name!r}")


def _tensor_row(t: TensorTerm) -> list[Term]:
    """The operands of the maximal ``@`` chain rooted at t, left to right."""
    row, todo = [], [t]
    while todo:
        u = todo.pop()
        if isinstance(u, TensorTerm):
            todo += (u.second, u.first)
        else:
            row.append(u)
    return row


_COMPOSE = object()  # marker on the evaluation stack: compose the top two values


def eval_term(t: Term, th: Theory):
    """Structural evaluation into the theory's semantic prop.

    Walks the term with an explicit stack, so depth costs no recursion.
    Each ``@`` row is one n-ary tensor, canonicalised once; ``;`` nodes
    compose in the order the term nests them.
    """
    values: list = []
    todo: list = [t]
    while todo:
        item = todo.pop()
        if item is _COMPOSE:
            second = values.pop()
            values[-1] = th.compose(values[-1], second)
        elif isinstance(item, int):  # a row of that many tensor operands
            row = values[-item:]
            del values[-item:]
            values.append(th.tensor(*row))
        elif isinstance(item, SeqTerm):
            todo += (_COMPOSE, item.second, item.first)
        elif isinstance(item, TensorTerm):
            row = _tensor_row(item)
            todo.append(len(row))
            todo += reversed(row)
        elif isinstance(item, IdTerm):
            values.append(th.identity(item.n))
        elif isinstance(item, SymTerm):
            values.append(th.symmetry(item.n, item.m))
        elif isinstance(item, GenTerm):
            values.append(th.generator(item.name, item.args))
        else:
            raise TypeError(f"not a term: {item!r}")
    return values[0]


def term_equal(t1: Term, t2: Term, th: Theory) -> bool:
    """Semantic equality: evaluate both sides and compare canonical forms."""
    if (t1.dom, t1.cod) != (t2.dom, t2.cod):
        raise TermTypeError("terms have different types", (t1.dom, t1.cod), (t2.dom, t2.cod))
    return th.equal(eval_term(t1, th), eval_term(t2, th))
