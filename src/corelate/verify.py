"""Property suites and brute-force oracles for the (co)relation machinery.

Each check enumerates (or, above a case budget, samples with a fixed seed)
configurations at desk scale, recompiles the categorical construction from
scratch, and reports failures as replayable literals.  The oracles here are
deliberately independent of the canonical-form code paths they validate:
partition gluing runs on class relabelling, subspace composition on exhaustive
vector enumeration, and corelation equality on a bounded witness-closure
search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Optional

from .errors import TypeMismatch
from .exactnum import Ring
from .finfn import Partition
from .corelrel import (
    corel_compose,
    corel_equal,
    corel_tensor,
    gamma,
    pi,
)
from .diagrams import get_theory, parse_term, term_equal
from .literals import format_cospan, format_morphism, format_span, parse_cospan, parse_morphism, parse_span
from .spancospan import (
    Ambient,
    Cospan,
    MatrixAmbient,
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

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

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


def pi_functorial_case(amb: Ambient, s1: Span, s2: Span) -> bool:
    lhs = pi(span_compose(s1, s2, amb), amb)
    rhs = corel_compose(pi(s1, amb), pi(s2, amb))
    return corel_equal(lhs, rhs)


def tensor_functorial_case(
    amb: Ambient, s1: Span, s2: Span, s1p: Span, s2p: Span, c1: Cospan, c2: Cospan, c1p: Cospan, c2p: Cospan
):
    """Interchange of the monoidal product with span, cospan and corelation
    composition on one tuple; returns whether each of the three holds."""
    lhs = span_compose(span_tensor(s1, s1p, amb), span_tensor(s2, s2p, amb), amb)
    rhs = span_tensor(span_compose(s1, s2, amb), span_compose(s1p, s2p, amb), amb)
    ok_span = span_canonical(lhs, amb) == span_canonical(rhs, amb)

    clhs = cospan_compose(cospan_tensor(c1, c1p, amb), cospan_tensor(c2, c2p, amb), amb)
    crhs = cospan_tensor(cospan_compose(c1, c2, amb), cospan_compose(c1p, c2p, amb), amb)
    ok_cospan = cospan_canonical(clhs, amb) == cospan_canonical(crhs, amb)

    a1, a2 = gamma(c1, amb), gamma(c2, amb)
    b1, b2 = gamma(c1p, amb), gamma(c2p, amb)
    ok_corel = corel_equal(
        corel_compose(corel_tensor(a1, b1), corel_tensor(a2, b2)),
        corel_tensor(corel_compose(a1, a2), corel_compose(b1, b2)),
    )
    return ok_span, ok_cospan, ok_corel


_LAW_FLAGS = ("span_assoc", "span_id", "cospan_assoc", "cospan_id", "corel_assoc")


def laws_case(amb: Ambient, s1: Span, s2: Span, s3: Span, c1: Cospan, c2: Cospan, c3: Cospan):
    """Associativity and identity on one tuple of composable spans and
    cospans; returns whether each law in ``_LAW_FLAGS`` holds."""
    x, y = amb.cod(s1.left), amb.cod(s1.right)
    assoc_span = span_canonical(
        span_compose(span_compose(s1, s2, amb), s3, amb), amb
    ) == span_canonical(span_compose(s1, span_compose(s2, s3, amb), amb), amb)
    ident_span = span_canonical(
        span_compose(span_identity(x, amb), s1, amb), amb
    ) == span_canonical(s1, amb) and span_canonical(
        span_compose(s1, span_identity(y, amb), amb), amb
    ) == span_canonical(s1, amb)

    x, y = amb.dom(c1.left), amb.dom(c1.right)
    assoc_cospan = cospan_canonical(
        cospan_compose(cospan_compose(c1, c2, amb), c3, amb), amb
    ) == cospan_canonical(cospan_compose(c1, cospan_compose(c2, c3, amb), amb), amb)
    ident_cospan = cospan_canonical(
        cospan_compose(cospan_identity(x, amb), c1, amb), amb
    ) == cospan_canonical(c1, amb) and cospan_canonical(
        cospan_compose(c1, cospan_identity(y, amb), amb), amb
    ) == cospan_canonical(c1, amb)

    a1, a2, a3 = gamma(c1, amb), gamma(c2, amb), gamma(c3, amb)
    assoc_corel = corel_equal(
        corel_compose(corel_compose(a1, a2), a3),
        corel_compose(a1, corel_compose(a2, a3)),
    )
    return assoc_span, ident_span, assoc_cospan, ident_cospan, assoc_corel


# ---------------------------------------------------------------------------
# record fields: a key names what its value is, so one rule formats and
# parses every span, cospan and morphism field


_TENSOR_FIELDS = ("span1", "span2", "span1p", "span2p", "cospan1", "cospan2", "cospan1p", "cospan2p")
_LAWS_FIELDS = ("span1", "span2", "span3", "cospan1", "cospan2", "cospan3")


def _format_fields(keys, values) -> tuple:
    fields = []
    for key, value in zip(keys, values):
        if key.startswith("cospan"):
            fields.append((key, format_cospan(value)))
        elif key.startswith("span"):
            fields.append((key, format_span(value)))
        else:
            fields.append((key, format_morphism(value)))
    return tuple(fields)


def _parse_fields(ce: dict, amb: Ambient, keys) -> list:
    values = []
    for key in keys:
        if key.startswith("cospan"):
            values.append(parse_cospan(ce[key], amb))
        elif key.startswith("span"):
            values.append(parse_span(ce[key], amb))
        else:
            values.append(parse_morphism(ce[key]))
    return values


# ---------------------------------------------------------------------------
# enumeration and sampling helpers


def _leg_lists(amb: Ambient, bound: int, entry_bound, into_apex: bool, a_only: bool):
    """Lists of candidate legs indexed by (foot, apex)."""
    out = {}
    for size in range(bound + 1):
        for apex in range(bound + 1):
            dom, cod = (size, apex) if into_apex else (apex, size)
            legs = (
                amb.enumerate_a_morphisms(dom, cod, entry_bound)
                if a_only
                else amb.enumerate_morphisms(dom, cod, entry_bound)
            )
            out[(size, apex)] = list(legs)
    return out


def _pairs(amb, bound, entry_bound, seed, into_apex, a_only):
    """All (or seeded-sampled) leg pairs sharing an apex."""
    legs = _leg_lists(amb, bound, entry_bound, into_apex, a_only)
    total = 0
    for apex in range(bound + 1):
        lefts = sum(len(legs[(n, apex)]) for n in range(bound + 1))
        total += lefts * lefts
    if total <= CASE_BUDGET:
        for apex in range(bound + 1):
            for n in range(bound + 1):
                for m in range(bound + 1):
                    for f in legs[(n, apex)]:
                        for g in legs[(m, apex)]:
                            yield f, g
        return
    rng = random.Random(seed)
    for _ in range(20_000):
        apex = rng.randint(0, bound)
        pool = [f for n in range(bound + 1) for f in legs[(n, apex)]]
        if pool:
            yield rng.choice(pool), rng.choice(pool)


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
    if into_apex:
        pair, canonical, case = Cospan, cospan_canonical, assumption31_case
    else:
        pair, canonical, case = Span, span_canonical, assumption33_case
    seen = set()
    for f, g in _pairs(amb, bound, entry_bound, seed, into_apex, a_only=True):
        key = canonical(pair(f, g), amb)
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
    for shape, (f_legs, g_legs, ways, _) in _SHAPES.items():
        swept = (
            pair
            for triple in product(range(cap + 1), repeat=3)
            for pair in product(
                amb.enumerate_a_morphisms(*_objects(f_legs, "abc", triple), entry_cap),
                amb.enumerate_a_morphisms(*_objects(g_legs, "abc", triple), entry_cap),
            )
        )
        for f, g in islice(swept, 3000):
            yield shape, (embed(ways[0], f), embed(ways[1], g))
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
    """
    failures = (
        (("shape", shape),) + _format_fields(("span1", "span2"), pair)
        for shape, pair in _shape_pairs(amb, bound, entry_bound, seed, samples)
        if not pi_functorial_case(amb, *pair)
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
                yield _format_fields(_TENSOR_FIELDS, spans + cospans) + (("failing", failing),)

    return _report("tensor-functorial", amb.name, amb.a_name, bound, entry_bound, seed, failures())


def check_category_laws(
    amb: Ambient, bound: int, entry_bound: int = 2, seed: int = 0, samples: int = 500
) -> CheckReport:
    """Associativity and identity in the span, cospan, and corelation props."""

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
                yield _format_fields(_LAWS_FIELDS, spans + cospans) + (("failing", failing),)

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
        r_text = str(Fraction(r)) if Fraction(r).denominator > 1 else str(Fraction(r).numerator)
        laws.append(
            (
                f"scalar_cancel({r_text})",
                f"scalar({r_text}) ; coscalar({r_text})",
                "id(1)",
            )
        )
    return laws


def _default_scalars(theory_name: str, th) -> tuple:
    if theory_name in ("er", "per"):
        return ()
    if theory_name == "z-corel":
        return (1, -1, 2)
    ring = th.ambient.ring
    if hasattr(ring, "p"):
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
        scalars = _default_scalars(theory_name, th)
    laws = [
        (label, lhs, rhs, term_equal(parse_term(lhs), parse_term(rhs), th))
        for label, lhs, rhs in _law_suite(theory_name, scalars)
    ]
    failures = ((("law", label), ("lhs", lhs), ("rhs", rhs)) for label, lhs, rhs, holds in laws if not holds)
    details = [(label, holds) for label, _, _, holds in laws]
    return _report("frobenius", theory_name, "-", 0, None, None, failures, details)


# ---------------------------------------------------------------------------
# expected verdicts

# Checks known to fail, with the least bound and entry bound at which each
# reaches a counterexample; below either, the check passes.  The collapse
# counterexample (total functions as their own subcategory) needs two
# points, its dual three.  Integer split monos fail on 2 -> 2 cospans such
# as columns (1,1) and (1,-1), whose mediator has determinant -2;
# pi-functorial finds them in its sweep, whose entries are capped at
# min(entry bound, 1).
KNOWN_FAILURES = {
    ("assumption31", "f", "all"): (2, 0),
    ("assumption31", "z", "split"): (2, 1),
    ("assumption33", "f", "all"): (3, 0),
    ("pi-functorial", "z", "split"): (2, 1),
}


def expected_verdict(report: CheckReport) -> str:
    """The verdict a correct run of the report's check computes."""
    if (report.name, report.c_name) == ("frobenius", "z-corel"):
        # over the integers a scalar cancels exactly when it is a unit
        scalar_laws = {label for label, _ in report.details if label.startswith("scalar_cancel(")}
        return "fail" if scalar_laws - {"scalar_cancel(1)", "scalar_cancel(-1)"} else "pass"
    least = KNOWN_FAILURES.get((report.name, report.c_name, report.a_name))
    if least is None:
        return "pass"
    bound, entry_bound = least
    reached = report.bound >= bound and (report.entry_bound is None or report.entry_bound >= entry_bound)
    return "fail" if reached else "pass"


# ---------------------------------------------------------------------------
# witness-closure oracle for corelation equality


def _witness_monos(amb: Ambient, dom: int, cod: int, entry_bound):
    return [m for m in amb.enumerate_morphisms(dom, cod, entry_bound) if amb.in_m(m)]


def _max_abs_entry(f) -> int:
    if hasattr(f, "entries"):
        return max((abs(v) for row in f.entries for v in row), default=0)
    return 0


def witness_reachable(
    c: Cospan,
    amb: Ambient,
    depth: int = 3,
    apex_bound: int = 3,
    entry_bound: int = 2,
    state_entry_cap: Optional[int] = None,
    witness_cache: Optional[dict] = None,
) -> frozenset:
    """Cospans reachable from c by at most ``depth`` M-witness moves.

    A forward move postcomposes both legs with a mono witness, a backward
    move strips one off when both legs factor through it exactly.  The apex
    size, search depth, and (for matrices) state entry magnitudes are
    capped; witness enumeration is bounded by ``entry_bound``.
    """
    if state_entry_cap is None:
        state_entry_cap = 4 * entry_bound
    witnesses = witness_cache if witness_cache is not None else {}

    def witness_list(dom, cod):
        if (dom, cod) not in witnesses:
            witnesses[(dom, cod)] = _witness_monos(amb, dom, cod, entry_bound)
        return witnesses[(dom, cod)]

    is_matrix = isinstance(amb, MatrixAmbient)

    def ok_state(cand: Cospan) -> bool:
        if not is_matrix:
            return True
        return max(_max_abs_entry(cand.left), _max_abs_entry(cand.right)) <= state_entry_cap

    frontier = {c}
    visited = {c}
    for _ in range(depth):
        next_frontier = set()
        for state in frontier:
            apex = amb.cod(state.left)
            for new_apex in range(apex_bound + 1):
                for m in witness_list(apex, new_apex):
                    cand = Cospan(amb.compose(state.left, m), amb.compose(state.right, m))
                    if cand not in visited and ok_state(cand):
                        visited.add(cand)
                        next_frontier.add(cand)
                for m in witness_list(new_apex, apex):
                    left = amb.solve_postcompose(m, state.left)
                    if left is None:
                        continue
                    right = amb.solve_postcompose(m, state.right)
                    if right is None:
                        continue
                    cand = Cospan(left, right)
                    if cand not in visited and ok_state(cand):
                        visited.add(cand)
                        next_frontier.add(cand)
        frontier = next_frontier
        if not frontier:
            break
    return frozenset(visited)


def witness_equal_oracle(
    c1: Cospan,
    c2: Cospan,
    amb: Ambient,
    depth: int = 3,
    apex_bound: int = 3,
    entry_bound: int = 2,
    state_entry_cap: Optional[int] = None,
    witness_cache: Optional[dict] = None,
) -> bool:
    """Decide corelation equality by bounded search over M-witness moves.

    Independent of the canonical-form code path it is used to validate:
    states are whole cospans compared verbatim, and apex isomorphisms count
    as witnesses like any other mono.
    """
    if (amb.dom(c1.left), amb.dom(c1.right)) != (amb.dom(c2.left), amb.dom(c2.right)):
        raise TypeMismatch("cospans have different feet")
    return c2 in witness_reachable(
        c1, amb, depth, apex_bound, entry_bound, state_entry_cap, witness_cache
    )


# ---------------------------------------------------------------------------
# gluing and vector-enumeration oracles


def oracle_er_compose(p1: Partition, p2: Partition, n: int, z: int, m: int) -> Partition:
    """Glue equivalence classes along shared middle witnesses, then restrict."""
    if p1.ground != n + z or p2.ground != z + m:
        raise TypeMismatch("partition grounds do not match the feet")
    return Partition(n + m, _glue(p1.blocks, p2.blocks, n, z, m))


def oracle_per_compose(p1: Partition, p2: Partition, n: int, z: int, m: int) -> Partition:
    """Pointed gluing of partitions with basepoints n + z and z + m.

    The basepoint of p1 is read as one more middle point, and the basepoint
    block of p2 joins it on its way to the composite's basepoint n + m, so
    the total gluing does the rest.
    """
    if p1.ground != n + z + 1 or p2.ground != z + m + 1:
        raise TypeMismatch("partition grounds do not match the feet")
    lifted = [
        tuple(e for e in block if e < z)
        + ((z,) if block[-1] == z + m else ())
        + tuple(e + 1 for e in block if e >= z)
        for block in p2.blocks
    ]
    return Partition(n + m + 1, _glue(p1.blocks, lifted, n, z + 1, m + 1))


def _glue(blocks1, blocks2, n: int, z: int, m: int) -> tuple:
    """Blocks of n + m from blocks of n + z and of z + m, by relabelling:
    each point of n + z + m carries the label of its class, and every block
    of the second side relabels all the classes it meets to one."""
    label = list(range(n + z + m))
    for block in blocks1:
        for e in block:
            label[e] = block[0]
    for block in blocks2:
        met = {label[n + e] for e in block}
        if len(met) > 1:
            to = min(met)
            label = [to if x in met else x for x in label]
    # first occurrence in increasing order lists the blocks by their minimum
    groups: dict[int, list[int]] = {}
    for e in range(n):
        groups.setdefault(label[e], []).append(e)
    for e in range(n + z, n + z + m):
        groups.setdefault(label[e], []).append(e - z)
    return tuple(tuple(g) for g in groups.values())


def _reduce_against(rows, vec, ring: Ring):
    vec = list(vec)
    for row in rows:
        pivot = next((j for j, v in enumerate(row) if v != ring.zero), None)
        if pivot is not None and vec[pivot] != ring.zero:
            c = ring.mul(vec[pivot], ring.inv(row[pivot]))
            vec = [ring.sub(v, ring.mul(c, w)) for v, w in zip(vec, row)]
    return vec


def subspace_contains(rows, vec, ring: Ring) -> bool:
    return all(v == ring.zero for v in _reduce_against(rows, vec, ring))


def span_rows(vectors, dim: int, ring: Ring) -> tuple[tuple, ...]:
    """Canonical reduced-echelon rows spanning the given vectors."""
    from .linmap import ExactMatrix, rref

    vectors = [tuple(ring.coerce(v) for v in vec) for vec in vectors]
    if not vectors:
        return ()
    matrix = ExactMatrix(ring, len(vectors), dim, tuple(vectors))
    reduced, pivots = rref(matrix)
    return reduced.entries[: len(pivots)]


def enumerate_vectors(dim: int, ring: Ring):
    """All vectors of GF(p)^dim."""
    p = ring.p  # only sensible for prime fields
    idx = [0] * dim
    if dim == 0:
        yield ()
        return
    while True:
        yield tuple(idx)
        i = dim - 1
        while i >= 0 and idx[i] == p - 1:
            idx[i] = 0
            i -= 1
        if i < 0:
            return
        idx[i] += 1


def oracle_subspace_compose(v_rows, w_rows, n: int, z: int, m: int, ring: Ring):
    """Relational composition by exhaustive vector enumeration over GF(p)."""
    found = []
    for vec in enumerate_vectors(n + z + m, ring):
        v, u, w = vec[:n], vec[n : n + z], vec[n + z :]
        if subspace_contains(v_rows, v + u, ring) and subspace_contains(w_rows, u + w, ring):
            found.append(v + w)
    return span_rows(found, n + m, ring)


def enumerate_subspaces(dim: int, ring: Ring):
    """All subspaces of GF(p)^dim as canonical echelon row tuples."""
    seen = set()
    vectors = [v for v in enumerate_vectors(dim, ring) if any(v)]
    yield span_rows([], dim, ring)

    def rec(basis, start):
        for i in range(start, len(vectors)):
            cand = basis + [vectors[i]]
            rows = span_rows(cand, dim, ring)
            if len(rows) == len(cand) and rows not in seen:
                seen.add(rows)
                yield rows
                yield from rec(cand, i + 1)

    yield from rec([], 0)


# ---------------------------------------------------------------------------
# replay

# check name -> whether the case a recorded counterexample names holds when
# re-run in the report's ambient (its theory, for frobenius)
_HOLDS = {
    "assumption31": lambda amb, ce: assumption31_case(amb, *_parse_fields(ce, amb, ("left", "right")))[0],
    "assumption33": lambda amb, ce: assumption33_case(amb, *_parse_fields(ce, amb, ("left", "right")))[0],
    "square": lambda amb, ce: square_case(amb, *_parse_fields(ce, amb, ("morphism",))),
    "pi-functorial": lambda amb, ce: pi_functorial_case(amb, *_parse_fields(ce, amb, ("span1", "span2"))),
    "tensor-functorial": lambda amb, ce: all(
        tensor_functorial_case(amb, *_parse_fields(ce, amb, _TENSOR_FIELDS))
    ),
    "laws": lambda amb, ce: all(laws_case(amb, *_parse_fields(ce, amb, _LAWS_FIELDS))),
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
