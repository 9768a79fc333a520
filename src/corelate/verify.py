"""Property suites for the (co)relation machinery.

Each check enumerates (or, above a case budget, samples with a fixed seed)
configurations at desk scale, recompiles the categorical construction from
scratch, and reports failures as replayable literals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product, repeat
from math import ceil, perm, sqrt
from typing import Optional

from .errors import CorelateError
from .exactnum import QQ
from .corelrel import (
    corel_compose,
    corel_equal,
    corel_tensor,
    gamma,
    pi,
)
from .diagrams import get_theory, parse_term, term_equal
from .literals import format_morphism, format_pair, parse_morphism, parse_pair
from .spancospan import (
    Ambient,
    Cospan,
    Span,
    cospan_canonical,
    cospan_compose,
    cospan_identity,
    cospan_tensor,
    embed_bwd_cospan,
    embed_bwd_span,
    embed_fwd_cospan,
    embed_fwd_span,
    get_ambient,
    span_canonical,
    span_compose,
    span_identity,
    span_tensor,
)

CASE_BUDGET = 10**6  # exhaustive below this many cases, seeded sampling above
SAMPLE_BUDGET = 10**7  # units of work a sampled check may take (see _require_samplable)


@dataclass
class CheckReport:
    """Outcome of one check; failing reports carry replayable literals."""

    name: str
    c_name: str
    a_name: str
    bound: int
    verdict: str
    entry_bound: Optional[int] = None
    seed: Optional[int] = None
    counterexamples: tuple = ()
    details: tuple = ()  # ((label, holds), ...) for per-law checks

    def to_record(self) -> dict:
        record = {
            "check": self.name,
            "C": self.c_name,
            "A": self.a_name,
            "bound": self.bound,
            "entry_bound": self.entry_bound,
            "seed": self.seed,
            "verdict": self.verdict,
            "counterexamples": [dict(c) for c in self.counterexamples],
        }
        if self.details:
            record["details"] = {label: holds for label, holds in self.details}
        return record

    @classmethod
    def from_record(cls, record: dict) -> CheckReport:
        """The report that :meth:`to_record` made ``record`` of, from the
        record or from its JSON line read back."""
        return cls(
            name=record["check"],
            c_name=record["C"],
            a_name=record["A"],
            bound=record["bound"],
            verdict=record["verdict"],
            entry_bound=record["entry_bound"],
            seed=record["seed"],
            counterexamples=tuple(tuple(c.items()) for c in record["counterexamples"]),
            details=tuple(record.get("details", {}).items()),
        )


# ---------------------------------------------------------------------------
# single-case checkers (shared by sweeps and replay)


def assumption31_case(amb: Ambient, f, g):
    """Mediator from the pushout of the pullback of the cospan (f, g);
    returns (lies in M?, mediator)."""
    p1, p2 = amb.pullback(f, g)
    q1, q2 = amb.pushout(p1, p2)
    u = amb.pushout_mediator(q1, q2, f, g)
    return amb.in_m(u), u


def assumption33_case(amb: Ambient, f, g):
    """Mediator from the span (f, g) into the pullback of its pushout;
    returns (lies in E?, mediator)."""
    q1, q2 = amb.pushout(f, g)
    r1, r2 = amb.pullback(q1, q2)
    u = amb.pullback_mediator(r1, r2, f, g)
    return amb.in_e(u), u


def square_case(amb: Ambient, f) -> bool:
    """Both orientations of the square on a single morphism of A."""
    return (
        pi(embed_fwd_span(f, amb), amb) == gamma(embed_fwd_cospan(f, amb), amb)
        and pi(embed_bwd_span(f, amb), amb) == gamma(embed_bwd_cospan(f, amb), amb)
    )


def pi_functorial_case(amb: Ambient, s1: Span, s2: Span, memo: Optional[_PiMemo] = None) -> bool:
    """Whether pi(s1 ; s2) equals pi(s1) ; pi(s2).

    ``memo``, kept across the cases of one run (a fresh one otherwise),
    computes each distinct pullback, composite leg, pi and composite of
    pis once (see :class:`_PiMemo`).  The pi of a composite span, whose
    membership test checks that A is stable under pullback, then runs once
    per distinct composite span: pi is deterministic, so that covers every
    case."""
    return (_PiMemo(amb) if memo is None else memo).holds(s1, s2)


class _PiMemo:
    """What the cases of one pi-functorial run share, each computed once;
    dropped when the run returns.

    Every leg and corelation it holds is interned: ``legs`` and ``corels``
    map each distinct one to its one copy, so equal values share one object
    and the memo stays small.  The other dicts are keyed by one int made of
    the ids of two interned copies, which the memo holds, so an id is never
    reused while it is a key.  There is one dict per kind of key: the
    cospan (s1.right, s2.left) that a pullback is taken of and the span
    with the same two legs have the same key (as Span, Cospan and tuple
    keys with the same legs would compare equal).
    """

    def __init__(self, amb: Ambient):
        self.amb = amb
        self.legs: dict = {}
        self.corels: dict = {}
        self.pullbacks: dict = {}  # cospan (r1, l2) -> the legs of its pullback
        self.composites: dict = {}  # (p, f) -> the leg p ; f
        self.pis: dict = {}  # span (l, r) -> its pi
        self.pairs: dict = {}  # (pi(s1), pi(s2)) -> their composite

    def _pi(self, left, right):
        key = id(left) << 64 | id(right)
        c = self.pis.get(key)
        if c is None:
            c = pi(Span(left, right), self.amb)
            c = self.pis[key] = self.corels.setdefault(c, c)
        return c

    def _compose(self, p, f):
        key = id(p) << 64 | id(f)
        h = self.composites.get(key)
        if h is None:
            h = self.amb.compose(p, f)
            h = self.composites[key] = self.legs.setdefault(h, h)
        return h

    def holds(self, s1: Span, s2: Span) -> bool:
        """The case (s1, s2): the pi of the composite span, then the pis
        of s1 and s2 and their composite."""
        intern = self.legs.setdefault
        l1, r1 = intern(s1.left, s1.left), intern(s1.right, s1.right)
        l2, r2 = intern(s2.left, s2.left), intern(s2.right, s2.right)
        key = id(r1) << 64 | id(l2)
        pullback = self.pullbacks.get(key)
        if pullback is None:
            pullback = self.pullbacks[key] = [intern(p, p) for p in self.amb.pullback(r1, l2)]
        lhs = self._pi(self._compose(pullback[0], l1), self._compose(pullback[1], r2))
        a, b = self._pi(l1, r1), self._pi(l2, r2)
        key = id(a) << 64 | id(b)
        rhs = self.pairs.get(key)
        if rhs is None:
            rhs = corel_compose(a, b)
            rhs = self.pairs[key] = self.corels.setdefault(rhs, rhs)
        # both interned: equal exactly when they are one object
        return lhs is rhs


def _operations(kind):
    """Composite, identity, tensor, canonical form and feet of spans
    (``kind`` Span) or of cospans, read from this module at each call, so
    that a wrapper installed on it sees them."""
    if kind is Span:
        return span_compose, span_identity, span_tensor, span_canonical, lambda s: (s.left.cod, s.right.cod)
    return cospan_compose, cospan_identity, cospan_tensor, cospan_canonical, lambda c: (c.left.dom, c.right.dom)


def tensor_functorial_case(
    amb: Ambient, s1: Span, s2: Span, s1p: Span, s2p: Span, c1: Cospan, c2: Cospan, c1p: Cospan, c2p: Cospan
):
    """Interchange of the monoidal product with span, cospan and corelation
    composition on one tuple; returns whether each of the three holds."""
    holds = []
    for kind, (x1, x2, x1p, x2p) in ((Span, (s1, s2, s1p, s2p)), (Cospan, (c1, c2, c1p, c2p))):
        compose, _, tensor, canonical, _ = _operations(kind)
        lhs = compose(tensor(x1, x1p, amb), tensor(x2, x2p, amb), amb)
        rhs = tensor(compose(x1, x2, amb), compose(x1p, x2p, amb), amb)
        holds.append(canonical(lhs, amb) == canonical(rhs, amb))
    a1, a2, b1, b2 = (gamma(c, amb) for c in (c1, c2, c1p, c2p))
    lhs = corel_compose(corel_tensor(a1, b1), corel_tensor(a2, b2))
    holds.append(corel_equal(lhs, corel_tensor(corel_compose(a1, a2), corel_compose(b1, b2))))
    return tuple(holds)


_LAW_FLAGS = ("span_assoc", "span_id", "cospan_assoc", "cospan_id", "corel_assoc")


def laws_case(amb: Ambient, s1: Span, s2: Span, s3: Span, c1: Cospan, c2: Cospan, c3: Cospan):
    """Associativity and identity on one tuple of composable spans and
    cospans; returns whether each law in ``_LAW_FLAGS`` holds."""
    holds = []
    for kind, (x1, x2, x3) in ((Span, (s1, s2, s3)), (Cospan, (c1, c2, c3))):
        compose, identity, _, canonical, feet = _operations(kind)
        lhs, rhs = compose(compose(x1, x2, amb), x3, amb), compose(x1, compose(x2, x3, amb), amb)
        holds.append(canonical(lhs, amb) == canonical(rhs, amb))
        (x, y), form = feet(x1), canonical(x1, amb)
        holds.append(
            canonical(compose(identity(x, amb), x1, amb), amb) == form
            and canonical(compose(x1, identity(y, amb), amb), amb) == form
        )
    a1, a2, a3 = gamma(c1, amb), gamma(c2, amb), gamma(c3, amb)
    holds.append(corel_equal(corel_compose(corel_compose(a1, a2), a3), corel_compose(a1, corel_compose(a2, a3))))
    return tuple(holds)


# ---------------------------------------------------------------------------
# record fields: a span, cospan or morphism is recorded as its literal;
# replay parses a span or cospan field as the type that its key names


_TENSOR_SPANS = ("span1", "span2", "span1p", "span2p")
_TENSOR_COSPANS = ("cospan1", "cospan2", "cospan1p", "cospan2p")
_LAWS_SPANS, _LAWS_COSPANS = ("span1", "span2", "span3"), ("cospan1", "cospan2", "cospan3")


def _format_fields(keys, values) -> tuple:
    return tuple(
        (key, format_pair(value) if isinstance(value, (Span, Cospan)) else format_morphism(value))
        for key, value in zip(keys, values)
    )


def _parse_fields(ce: dict, amb: Ambient, keys, kind=None) -> list:
    """The morphisms the fields ``keys`` hold, or with ``kind`` the spans or
    cospans."""
    return [parse_morphism(ce[key]) if kind is None else parse_pair(ce[key], amb, kind) for key in keys]


# ---------------------------------------------------------------------------
# enumeration and sampling helpers


def _require_sweepable(amb: Ambient, bound: int, entry_bound) -> None:
    """Refuse a sweep of the A-morphisms dom -> cod, dom, cod <= bound, if
    ``enumerate_a_morphisms`` would look at more than ``CASE_BUDGET``, counted
    by formula first: cod!/(cod - dom)! injections (A = inj), cod^dom maps,
    (cod + 1)^dom partial maps, v^(dom * cod) matrices (v = p or 2e + 1).
    ``top`` factors of 2 or more pass the budget, so no product is longer."""
    where = f"{amb.name} with A = {amb.a_name} at bound {bound}"
    values = None
    if amb.name not in ("f", "pf"):
        values = amb.ring.p
        if values is None:
            entry_bound = 1 if entry_bound is None else entry_bound
            values, where = 2 * entry_bound + 1, f"{where} and entry bound {entry_bound}"
    top, total = CASE_BUDGET.bit_length() + 1, 0
    for dom, cod in product(range(bound, -1, -1), repeat=2):
        if amb.a_name == "inj":
            total += perm(cod, min(dom, top)) if dom <= cod else 0
        elif values is None:
            total += (cod + (amb.name == "pf")) ** min(dom, top)
        else:
            total += values ** min(dom * cod, top)
        if total > CASE_BUDGET:
            raise CorelateError(f"a sweep of {where} would enumerate more than {CASE_BUDGET:,} morphisms; lower the bounds")


def _require_samplable(amb: Ambient, bound: int, entry_bound, samples: int, pairs: int, a_legs: bool) -> None:
    """Refuse a sampled check whose work, counted by formula before any
    draw, passes ``SAMPLE_BUDGET``.  Each of the ``samples`` draws ``pairs``
    pairs of legs on objects of at most ``bound`` points or wires; with
    n = bound + 1, a pair costs 50 units plus n^2 over functions (a
    pullback of n-point maps has up to n^2 points) or n^4 over matrices (an
    elimination on about n rows and columns whose entries grow).  An entry
    is drawn from its range without listing it, so neither the entry bound
    nor p adds to the cost.  With legs in A = split over the integers
    (``a_legs``) that last term is paid once per rejected draw too: a
    square draw is split with probability about one over its
    root-mean-square determinant, sqrt(bound!) * s^bound, where
    s^2 = e(e + 1)/3 is the variance of an entry in [-e, e].  A unit took
    0.005 to 1 us on a 2-CPU Xeon host with Python 3.11, so an accepted
    check takes seconds, not hours."""
    where = f"{amb.name} with A = {amb.a_name} at bound {bound}"
    functions = amb.name in ("f", "pf")
    if not functions and amb.ring.p is None:
        entry_bound = 2 if entry_bound is None else entry_bound
        where = f"{where} and entry bound {entry_bound}"
    size = (bound + 1) ** (2 if functions else 4)
    draws = 1.0
    if a_legs and amb.a_name == "split":
        variance = entry_bound * (entry_bound + 1) / 3
        for k in range(1, bound + 1):
            draws *= sqrt(k * variance)
            if not draws or draws > SAMPLE_BUDGET:
                break
    if samples * pairs * (50 + size * ceil(draws)) > SAMPLE_BUDGET:
        raise CorelateError(
            f"{samples:,} sample{'s' * (samples != 1)} of {where} would take more than "
            f"{SAMPLE_BUDGET:,} units of work; lower the bounds or the samples"
        )


def _pairs(amb: Ambient, bound: int, entry_bound, seed, into_apex: bool):
    """All (or seeded-sampled) pairs of A-legs sharing an apex: into the
    apex (``into_apex``) or out of it.  Yields (f, g, key), where the keys
    of two pairs are equal exactly when the pairs are isomorphic over the
    apex; the keys of one block, every left leg (n, apex) against every
    right leg (m, apex), come from one call, which prepares the right legs
    once.  Every call shares one ``forms`` dict, which holds the forms
    that the keys name for as long as the sweep runs."""
    _require_sweepable(amb, bound, entry_bound)
    keys_of = amb.cospan_keys if into_apex else amb.span_keys
    forms: dict = {}
    sizes = range(bound + 1)
    legs = {}
    for size, apex in product(sizes, repeat=2):
        dom, cod = (size, apex) if into_apex else (apex, size)
        legs[(size, apex)] = list(amb.enumerate_a_morphisms(dom, cod, entry_bound))
    if sum(sum(len(legs[(n, apex)]) for n in sizes) ** 2 for apex in sizes) <= CASE_BUDGET:
        for apex, n, m in product(sizes, repeat=3):
            lefts, block = legs[(n, apex)], legs[(m, apex)]
            if lefts and block:
                for f, keys in zip(lefts, keys_of(lefts, block, forms)):
                    yield from zip(repeat(f), block, keys)
        return
    # above the budget: one pool of legs per apex, built once
    pools = [[f for n in sizes for f in legs[(n, apex)]] for apex in sizes]
    rng = random.Random(seed)
    for _ in range(20_000):
        pool = pools[rng.randint(0, bound)]
        if pool:
            f, g = rng.choice(pool), rng.choice(pool)
            yield f, g, next(keys_of([f], [g], forms))[0]


def random_span(amb: Ambient, rng, x: int, y: int, apex_bound: int, entry_bound=None) -> Span:
    if amb.name == "f" and (x == 0 or y == 0):
        apex = 0
    else:
        apex = rng.randint(0, apex_bound)
    return Span(
        amb.random_morphism(rng, apex, x, entry_bound),
        amb.random_morphism(rng, apex, y, entry_bound),
    )


def random_cospan(amb: Ambient, rng, x: int, y: int, apex_bound: int, entry_bound=None) -> Cospan:
    if amb.name == "f" and (x > 0 or y > 0):
        apex = rng.randint(1, max(1, apex_bound))
    else:
        apex = rng.randint(0, apex_bound)
    return Cospan(
        amb.random_morphism(rng, x, apex, entry_bound),
        amb.random_morphism(rng, y, apex, entry_bound),
    )


def random_a_span(amb: Ambient, rng, x: int, y: int, apex_bound: int, entry_bound=None) -> Span:
    """Span with both legs in the distinguished subcategory."""
    top = apex_bound if amb.a_name == "all" else min(x, y)
    if amb.name == "f" and (x == 0 or y == 0):
        top = 0
    apex = rng.randint(0, min(top, apex_bound))
    return Span(
        amb.random_a_morphism(rng, apex, x, entry_bound),
        amb.random_a_morphism(rng, apex, y, entry_bound),
    )


# ---------------------------------------------------------------------------
# checks: each check_* runs its failing cases, as record fields, through
# the one report constructor


def _report(name, c_name, a_name, bound, entry_bound, seed, failures, details=()) -> CheckReport:
    """The check report of the failing cases ``failures`` yields; the
    verdict is whether there was any."""
    counterexamples = tuple(failures)
    return CheckReport(
        name=name,
        c_name=c_name,
        a_name=a_name,
        bound=bound,
        entry_bound=entry_bound,
        seed=seed,
        verdict="fail" if counterexamples else "pass",
        counterexamples=counterexamples,
        details=tuple(details),
    )


def _mediator_failures(amb: Ambient, bound: int, entry_bound, seed, into_apex: bool):
    """A-cospans (``into_apex``) or A-spans, deduped by apex isomorphism,
    whose assumption 3.1 (dually 3.3) mediator is not in M (dually E)."""
    case = assumption31_case if into_apex else assumption33_case
    seen = set()
    for f, g, key in _pairs(amb, bound, entry_bound, seed, into_apex):
        if key in seen:
            continue
        seen.add(key)
        holds, mediator = case(amb, f, g)
        if not holds:
            yield _format_fields(("left", "right", "mediator"), (f, g, mediator))


def check_assumption31(amb: Ambient, bound: int, entry_bound: int = 3, seed: int = 0) -> CheckReport:
    """Pushout-of-pullback mediators of A-cospans must lie in M.

    Enumerates cospans with both legs in A and all three objects at most
    ``bound`` (matrix ambients additionally bound entry magnitude), deduped
    by apex isomorphism.
    """
    failures = _mediator_failures(amb, bound, entry_bound, seed, into_apex=True)
    return _report("assumption31", amb.name, amb.a_name, bound, entry_bound, seed, failures)


def check_assumption33(amb: Ambient, bound: int, entry_bound: int = 3, seed: int = 0) -> CheckReport:
    """Dual check: pullback-of-pushout mediators of A-spans must lie in E."""
    failures = _mediator_failures(amb, bound, entry_bound, seed, into_apex=False)
    return _report("assumption33", amb.name, amb.a_name, bound, entry_bound, seed, failures)


def check_square_commutes(amb: Ambient, bound: int, entry_bound: int = 3) -> CheckReport:
    """Mapping a morphism of A through spans or through cospans agrees."""
    _require_sweepable(amb, bound, entry_bound)
    failures = (
        (("morphism", format_morphism(f)),)
        for a, b in product(range(bound + 1), repeat=2)
        for f in amb.enumerate_a_morphisms(a, b, entry_bound)
        if not square_case(amb, f)
    )
    return _report("square", amb.name, amb.a_name, bound, entry_bound, None, failures)


# The generator shapes of pi-functoriality: a composable pair of spans
# embedded from A.  Per shape: the objects of f and of g, as letters over a
# triple (a, b, c); the embeddings of f and g, (f)orward or (b)ackward; and
# the letters that a sampled sorted triple is assigned to, in order.
_SHAPES = {
    "i": ("ab", "bc", "ff", "abc"),
    "ii": ("ab", "ca", "bb", "cab"),
    "iii": ("ab", "ac", "bf", "abc"),
    "iv": ("ab", "cb", "fb", "acb"),
}


def _objects(legs: str, letters: str, triple) -> tuple:
    """The (dom, cod) that ``legs`` names when ``letters`` name ``triple``."""
    at = dict(zip(letters, triple))
    return at[legs[0]], at[legs[1]]


def _shape_pairs(amb: Ambient, bound: int, entry_bound, seed, samples: int):
    """(shape, span pair) cases: a sweep of tiny instances, at most 3,000
    per shape, then ``samples`` seeded draws cycling through the shapes."""

    # looked up per call, so a wrapper installed on the module (as the
    # benchmark's tracer installs) sees the embeddings
    def embed(way: str, f):
        return embed_fwd_span(f, amb) if way == "f" else embed_bwd_span(f, amb)

    cap, entry_cap = min(bound, 2), min(entry_bound, 1)

    def embedded(way: str, legs: str, triple) -> list:
        """The embedded spans of the swept morphisms on ``legs``: one list
        per triple, which every pair of that triple shares."""
        morphisms = amb.enumerate_a_morphisms(*_objects(legs, "abc", triple), entry_cap)
        return [embed(way, f) for f in morphisms]

    for shape, (f_legs, g_legs, ways, _) in _SHAPES.items():
        swept = (
            pair
            for triple in product(range(cap + 1), repeat=3)
            for pair in product(embedded(ways[0], f_legs, triple), embedded(ways[1], g_legs, triple))
        )
        for pair in islice(swept, 3000):
            yield shape, pair
    rng = random.Random(seed)
    shapes = tuple(_SHAPES.items())
    for k in range(samples):
        shape, (f_legs, g_legs, ways, order) = shapes[k % 4]
        triple = sorted(rng.randint(0, bound) for _ in range(3))
        f = amb.random_a_morphism(rng, *_objects(f_legs, order, triple), entry_bound)
        g = amb.random_a_morphism(rng, *_objects(g_legs, order, triple), entry_bound)
        yield shape, (embed(ways[0], f), embed(ways[1], g))


def check_pi_functorial(
    amb: Ambient, bound: int, entry_bound: int = 3, seed: int = 0, samples: int = 1000
) -> CheckReport:
    """Composition is preserved on all four generator shapes, including the
    pullback shape (iv) that needs the subcategory restriction.

    Runs a deterministic exhaustive sweep at tiny sizes first (so the verdict
    cannot depend on sampling luck) and then the seeded random samples.
    Each distinct pullback, span pi and composite of pis is computed once
    per run.
    """
    _require_samplable(amb, bound, entry_bound, samples, 1, a_legs=True)
    memo = _PiMemo(amb)
    failures = (
        (("shape", shape),) + _format_fields(("span1", "span2"), pair)
        for shape, pair in _shape_pairs(amb, bound, entry_bound, seed, samples)
        if not pi_functorial_case(amb, *pair, memo)
    )
    return _report("pi-functorial", amb.name, amb.a_name, bound, entry_bound, seed, failures)


def check_tensor_functorial(
    amb: Ambient, bound: int, entry_bound: int = 2, seed: int = 0, samples: int = 200
) -> CheckReport:
    """Interchange of the monoidal product with span, cospan, and corelation
    composition on random tuples.

    Spans take their legs in the distinguished subcategory: the monoidal
    product is only required to preserve pullbacks there, and indeed the
    pointed tensor of partial functions fails interchange on arbitrary legs.
    """
    _require_samplable(amb, bound, entry_bound, samples, 8, a_legs=True)

    def failures():
        rng = random.Random(seed)
        for _ in range(samples):
            x, y, z = (rng.randint(0, bound) for _ in range(3))
            x2, y2, z2 = (rng.randint(0, bound) for _ in range(3))
            feet = ((x, y), (y, z), (x2, y2), (y2, z2))
            spans = [random_a_span(amb, rng, *xy, bound, entry_bound) for xy in feet]
            cospans = [random_cospan(amb, rng, *xy, bound, entry_bound) for xy in feet]
            ok_span, ok_cospan, ok_corel = tensor_functorial_case(amb, *spans, *cospans)
            if not (ok_span and ok_cospan and ok_corel):
                failing = f"span={ok_span} cospan={ok_cospan} corel={ok_corel}"
                yield _format_fields(_TENSOR_SPANS + _TENSOR_COSPANS, spans + cospans) + (("failing", failing),)

    return _report("tensor-functorial", amb.name, amb.a_name, bound, entry_bound, seed, failures())


def check_category_laws(
    amb: Ambient, bound: int, entry_bound: int = 2, seed: int = 0, samples: int = 500
) -> CheckReport:
    """Associativity and identity in the span, cospan, and corelation props."""
    _require_samplable(amb, bound, entry_bound, samples, 6, a_legs=False)

    def failures():
        rng = random.Random(seed)
        for _ in range(samples):
            x, y, z, u = (rng.randint(0, bound) for _ in range(4))
            feet = ((x, y), (y, z), (z, u))
            spans = [random_span(amb, rng, *xy, bound, entry_bound) for xy in feet]
            cospans = [random_cospan(amb, rng, *xy, bound, entry_bound) for xy in feet]
            holds = laws_case(amb, *spans, *cospans)
            if not all(holds):
                failing = " ".join(f"{flag}={h}" for flag, h in zip(_LAW_FLAGS, holds))
                yield _format_fields(_LAWS_SPANS + _LAWS_COSPANS, spans + cospans) + (("failing", failing),)

    return _report("laws", amb.name, amb.a_name, bound, entry_bound, seed, failures())


# ---------------------------------------------------------------------------
# Frobenius-style law suites


_ONE_COLOR_LAWS = (
    ("assoc", "({m} @ id(1)) ; {m}", "(id(1) @ {m}) ; {m}"),
    ("unit_left", "({u} @ id(1)) ; {m}", "id(1)"),
    ("unit_right", "(id(1) @ {u}) ; {m}", "id(1)"),
    ("coassoc", "{c} ; ({c} @ id(1))", "{c} ; (id(1) @ {c})"),
    ("counit_left", "{c} ; ({cu} @ id(1))", "id(1)"),
    ("counit_right", "{c} ; (id(1) @ {cu})", "id(1)"),
    ("commutative", "sym(1,1) ; {m}", "{m}"),
    ("cocommutative", "{c} ; sym(1,1)", "{c}"),
    ("frobenius_left", "({c} @ id(1)) ; (id(1) @ {m})", "{m} ; {c}"),
    ("frobenius_right", "(id(1) @ {c}) ; ({m} @ id(1))", "{m} ; {c}"),
    ("special", "{c} ; {m}", "id(1)"),
    ("extra", "{u} ; {cu}", "id(0)"),
)


def _law_suite(theory_name: str, scalars) -> list[tuple[str, str, str]]:
    single_color = theory_name in ("er", "per")
    prefixes = ("",) if single_color else ("w.", "b.")
    laws = []
    for prefix in prefixes:
        names = {
            "m": f"{prefix}mult",
            "c": f"{prefix}comult",
            "u": f"{prefix}unit",
            "cu": f"{prefix}counit",
        }
        tag = prefix.rstrip(".")
        for label, lhs, rhs in _ONE_COLOR_LAWS:
            full = f"{tag}_{label}" if tag else label
            laws.append((full, lhs.format(**names), rhs.format(**names)))
    for r in scalars:
        r_text = QQ.format(r)
        laws.append(
            (
                f"scalar_cancel({r_text})",
                f"scalar({r_text}) ; coscalar({r_text})",
                "id(1)",
            )
        )
    return laws


def _default_scalars(th) -> tuple:
    if th.name in ("er", "per"):
        return ()
    if th.name == "z-corel":
        return (1, -1, 2)
    ring = th.ambient.ring
    if ring.p is not None:
        return tuple(range(1, min(ring.p, 4)))
    return (1, 2, 3, Fraction(1, 2))


def check_frobenius(theory_name: str, scalars=None) -> CheckReport:
    """Evaluate the Frobenius-monoid law suite in the named semantics.

    The report records which laws hold; a failing law is not an error of the
    artifact but a fact about the theory (e.g. non-unit scalars over the
    integers do not cancel).
    """
    th = get_theory(theory_name)
    if scalars is None:
        scalars = _default_scalars(th)
    laws = [
        (label, lhs, rhs, term_equal(parse_term(lhs), parse_term(rhs), th))
        for label, lhs, rhs in _law_suite(th.name, scalars)
    ]
    failures = ((("law", label), ("lhs", lhs), ("rhs", rhs)) for label, lhs, rhs, holds in laws if not holds)
    details = [(label, holds) for label, _, _, holds in laws]
    return _report("frobenius", th.name, "-", 0, None, None, failures, details)


# ---------------------------------------------------------------------------
# expected verdicts

# Checks known to fail, with the least (bound, entry bound) pairs at which
# each reaches a counterexample: a check fails exactly when its bounds
# reach some pair in both.  The collapse counterexample (functions as their
# own subcategory) needs two points, its dual over total functions three.
# Integer split monos fail on 2 -> 2 cospans such as columns (1,1) and
# (1,-1), whose mediator has determinant -2; all integer matrices fail on
# a cospan into 1 with a leg (2) too.  pi-functorial's pairs are its
# sweep's, whose entries are capped at min(entry bound, 1); its samples can
# fail below them (all integer matrices at bound 1, entries 2), as can
# tensor-functorial's over all partial functions, which is not listed.
KNOWN_FAILURES = {
    ("assumption31", "f", "all"): ((2, 0),),
    ("assumption31", "pf", "all"): ((2, 0),),
    ("assumption31", "z", "split"): ((2, 1),),
    ("assumption31", "z", "all"): ((1, 2), (2, 1)),
    ("assumption33", "f", "all"): ((3, 0),),
    ("assumption33", "pf", "all"): ((2, 0),),
    ("pi-functorial", "f", "all"): ((2, 0),),
    ("pi-functorial", "pf", "all"): ((2, 0),),
    ("pi-functorial", "z", "split"): ((2, 1),),
    ("pi-functorial", "z", "all"): ((2, 1),),
}


def expected_verdict(report: CheckReport) -> str:
    """The verdict a correct run of the report's check computes."""
    if report.name == "frobenius":
        # a scalar cancels exactly when it is a unit of the theory's ring:
        # nonzero over a field, 1 or -1 over the integers
        labels = [label for label, _ in report.details if label.startswith("scalar_cancel(")]
        if not labels:
            return "pass"
        ring = get_theory(report.c_name).ambient.ring
        scalars = [ring.coerce(QQ.parse(label[len("scalar_cancel(") : -1])) for label in labels]
        units = all(r != ring.zero and (ring.is_field or abs(r) == 1) for r in scalars)
        return "pass" if units else "fail"
    least = KNOWN_FAILURES.get((report.name, report.c_name, report.a_name), ())
    reached = any(
        report.bound >= bound and (report.entry_bound is None or report.entry_bound >= entry_bound)
        for bound, entry_bound in least
    )
    return "fail" if reached else "pass"


# ---------------------------------------------------------------------------
# replay

# check name -> whether the case a recorded counterexample names holds when
# re-run in the report's ambient (its theory, for frobenius)
_HOLDS = {
    "assumption31": lambda amb, ce: assumption31_case(amb, *_parse_fields(ce, amb, ("left", "right")))[0],
    "assumption33": lambda amb, ce: assumption33_case(amb, *_parse_fields(ce, amb, ("left", "right")))[0],
    "square": lambda amb, ce: square_case(amb, *_parse_fields(ce, amb, ("morphism",))),
    "pi-functorial": lambda amb, ce: pi_functorial_case(amb, *_parse_fields(ce, amb, ("span1", "span2"), Span)),
    "tensor-functorial": lambda amb, ce: all(
        tensor_functorial_case(
            amb, *_parse_fields(ce, amb, _TENSOR_SPANS, Span), *_parse_fields(ce, amb, _TENSOR_COSPANS, Cospan)
        )
    ),
    "laws": lambda amb, ce: all(
        laws_case(amb, *_parse_fields(ce, amb, _LAWS_SPANS, Span), *_parse_fields(ce, amb, _LAWS_COSPANS, Cospan))
    ),
    "frobenius": lambda th, ce: term_equal(parse_term(ce["lhs"]), parse_term(ce["rhs"]), th),
}


def replay(report: CheckReport) -> bool:
    """Re-run every recorded counterexample; True iff each still fails."""
    if not report.counterexamples:
        return True
    if report.name == "frobenius":
        where = get_theory(report.c_name)
    else:
        where = get_ambient(report.c_name, report.a_name)
    return not any(_HOLDS[report.name](where, dict(ce)) for ce in report.counterexamples)
