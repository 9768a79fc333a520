import gc
import inspect
import random
import weakref
from itertools import product

import pytest

from corelate.errors import CorelateError
from corelate.exactnum import GF, ZZ
from corelate.finfn import Partition, enumerate_finmaps, fn
from corelate import linmap, verify
from corelate.linmap import ExactMatrix, mat
from corelate.corelrel import (
    Corelation,
    corel_compose,
    corel_equal,
    gamma,
    pi,
)
from corelate.literals import format_pair, parse_morphism
from corelate.spancospan import (
    Cospan,
    MatrixAmbient,
    Span,
    cospan_canonical,
    cospan_identity,
    get_ambient,
    span_canonical,
    span_compose,
    span_identity,
)
from corelate.verify import (
    CheckReport,
    assumption31_case,
    assumption33_case,
    check_assumption31,
    check_assumption33,
    check_category_laws,
    check_frobenius,
    check_pi_functorial,
    check_square_commutes,
    check_tensor_functorial,
    replay,
)
from oracle_utils import (
    PERFBENCH,
    echelon_values,
    enumerate_subspaces,
    invariant_factors,
    key_table,
    oracle_er_compose,
    oracle_per_compose,
    oracle_subspace_compose,
    rows_beside,
    span_rows,
    subspace_contains,
    witness_reachable,
)

F_ALL = get_ambient("f", "all")
F_INJ = get_ambient("f", "inj")
PF_INJ = get_ambient("pf", "inj")
G2 = get_ambient("gf2")
Q = get_ambient("q")
Z_SPLIT = get_ambient("z", "split")


# --- assumption checks ------------------------------------------------------------


def test_assumption31_collapse_counterexample():
    report = check_assumption31(F_ALL, 2)
    assert report.verdict == "fail"
    first = dict(report.counterexamples[0])
    assert first["left"] == "fn 0 -> 1 : []"
    assert first["right"] == "fn 2 -> 1 : [0,0]"
    assert first["mediator"] == "fn 2 -> 1 : [0,0]"
    assert replay(report)


def test_assumption31_injections_pass():
    assert check_assumption31(F_INJ, 3).verdict == "pass"


def test_assumption31_partial_injections_pass():
    assert check_assumption31(PF_INJ, 2).verdict == "pass"


def test_assumption31_abelian_pass():
    assert check_assumption31(G2, 2, entry_bound=1).verdict == "pass"


def test_assumption31_integer_split_monos_fails_with_small_counterexample():
    # Split monos over the integers do not satisfy the mediator condition:
    # two primitive columns can span a finite-index sublattice, e.g. (1,0)
    # and (1,2) give a mediator of determinant 2 with no left inverse.
    f = mat(ZZ, 2, 1, [[1], [0]])
    g = mat(ZZ, 2, 1, [[1], [2]])
    holds, mediator = assumption31_case(Z_SPLIT, f, g)
    assert not holds
    assert abs(
        mediator.entries[0][0] * mediator.entries[1][1]
        - mediator.entries[0][1] * mediator.entries[1][0]
    ) == 2
    report = check_assumption31(Z_SPLIT, 2, entry_bound=2)
    assert report.verdict == "fail"
    assert replay(report)


def test_assumption33_total_functions():
    # passes at bound 2: an unwitnessed glued pair needs a three-element
    # middle; the minimal failure appears at bound 3
    assert check_assumption33(F_ALL, 2).verdict == "pass"
    report = check_assumption33(F_ALL, 3)
    assert report.verdict == "fail"
    assert replay(report)


def test_assumption33_minimal_counterexample_shape():
    # chain x0 ~ y0 ~ x1 ~ y1 with only three witnesses: the glued pair
    # (x0, y1) has no direct witness, so the mediator misses it
    f = fn(3, 2, [0, 0, 1])
    g = fn(3, 2, [0, 1, 0])
    holds, mediator = assumption33_case(F_ALL, f, g)
    assert not holds
    assert mediator.cod == 4 and mediator.dom == 3


def test_assumption33_abelian_pass():
    assert check_assumption33(G2, 2, entry_bound=1).verdict == "pass"
    assert check_assumption33(Q, 2, entry_bound=1).verdict == "pass"


@pytest.mark.parametrize(
    "check, bound, pair, canonical, in_class",
    [
        # a mediator in M is injective, one in E surjective
        (check_assumption31, 2, Cospan, cospan_canonical, lambda u: len(set(u.table)) == u.dom),
        (check_assumption33, 3, Span, span_canonical, lambda u: set(u.table) == set(range(u.cod))),
    ],
)
def test_mediator_checks_sampled_above_the_case_budget(monkeypatch, check, bound, pair, canonical, in_class):
    def keys(report):
        legs = ((parse_morphism(dict(ce)[k]) for k in ("left", "right")) for ce in report.counterexamples)
        return {canonical(pair(*lr), F_ALL) for lr in legs}

    exhaustive = check(F_ALL, bound)
    # a budget that holds the legs of the sweep (11 at bound 2, 60 at bound
    # 3), which a sweep must, but not its pairs (59 and 1,544)
    monkeypatch.setattr(verify, "CASE_BUDGET", {2: 20, 3: 100}[bound])
    sampled = check(F_ALL, bound, seed=5)
    assert sampled.verdict == "fail"
    assert not any(in_class(parse_morphism(dict(ce)["mediator"])) for ce in sampled.counterexamples)
    assert replay(sampled)
    assert check(F_ALL, bound, seed=5).to_record() == sampled.to_record()
    assert keys(sampled) <= keys(exhaustive)


@pytest.mark.parametrize(
    "c_name, a_name, bound, entry_bound",
    [("f", "inj", 4, None), ("f", "all", 3, None), ("pf", "inj", 4, None), ("pf", "all", 3, None)]
    + [("gf3", None, 2, None), ("z", "split", 2, 1), ("q", None, 2, 0)],
)
def test_sweep_budget_counts_what_the_enumeration_looks_at(monkeypatch, c_name, a_name, bound, entry_bound):
    # exact: a budget of the enumerated count runs the sweep, one less refuses it
    amb = get_ambient(c_name, a_name)
    looked_at = amb.enumerate_a_morphisms if amb.a_name == "inj" else amb.enumerate_morphisms
    total = sum(1 for dom, cod in product(range(bound + 1), repeat=2) for _ in looked_at(dom, cod, entry_bound))
    monkeypatch.setattr(verify, "CASE_BUDGET", total)
    verify._require_sweepable(amb, bound, entry_bound)
    monkeypatch.setattr(verify, "CASE_BUDGET", total - 1)
    with pytest.raises(CorelateError, match=f"more than {total - 1:,} morphisms"):
        verify._require_sweepable(amb, bound, entry_bound)


# The mediator sweeps of the default report suite: (C, A, bound, entry bound,
# into the apex), then the pairs `_pairs` enumerates and the cases run, one
# per apex-isomorphism class.  A dedup key that merged too much could leave
# the records unchanged; these counts would move.
_SUITE_SWEEPS = {
    "a31-f-inj": (("f", "inj", 3, 3, True), 286, 63),
    "a31-f-all": (("f", "all", 2, 3, True), 59, 35),
    "a31-pf-inj": (("pf", "inj", 2, 3, True), 30, 18),
    "a31-gf2": (("gf2", None, 2, 3, True), 499, 159),
    "a31-z-split": (("z", "split", 2, 3, True), 70235, 2581),
    "a33-gf2": (("gf2", None, 2, 3, False), 499, 159),
    "a33-q": (("q", None, 2, 1, False), 8459, 602),
    "a33-f-all": (("f", "all", 3, 3, False), 1544, 494),
}


@pytest.mark.parametrize("sweep", list(_SUITE_SWEEPS))
def test_mediator_sweeps_pin_pairs_and_cases(monkeypatch, sweep):
    (c_name, a_name, bound, entry_bound, into_apex), pairs, cases = _SUITE_SWEEPS[sweep]
    case_name = "assumption31_case" if into_apex else "assumption33_case"
    enumerate_pairs, case = verify._pairs, getattr(verify, case_name)
    counts = {"pairs": 0, "cases": 0}

    def counted_pairs(*args):
        for pair in enumerate_pairs(*args):
            counts["pairs"] += 1
            yield pair

    def counted_case(*args):
        counts["cases"] += 1
        return case(*args)

    def refuse(self, pair):
        raise AssertionError("the dedup built a canonical form")

    # the matrix canonical forms raise: the dedup keys build none
    monkeypatch.setattr(MatrixAmbient, "canonical_cospan", refuse)
    monkeypatch.setattr(MatrixAmbient, "canonical_span", refuse)
    monkeypatch.setattr(verify, "_pairs", counted_pairs)
    monkeypatch.setattr(verify, case_name, counted_case)
    check = check_assumption31 if into_apex else check_assumption33
    report = check(get_ambient(c_name, a_name), bound, entry_bound)
    assert counts == {"pairs": pairs, "cases": cases}
    assert report.verdict == verify.expected_verdict(report)


def test_q_sweep_hashes_no_fraction(monkeypatch):
    # a Q key holds integers over a denominator, so the report's Q mediator
    # sweep hashes no Fraction for its dedup, and still enumerates the pairs
    # and runs the cases that the pins above hold
    from fractions import Fraction

    (c_name, a_name, bound, entry_bound, _), pairs, cases = _SUITE_SWEEPS["a33-q"]
    enumerate_pairs, case = verify._pairs, verify.assumption33_case
    counts = {"pairs": 0, "cases": 0, "hashes": 0}
    fraction_hash = Fraction.__hash__

    def counted_pairs(*args):
        for pair in enumerate_pairs(*args):
            counts["pairs"] += 1
            yield pair

    def counted_case(*args):
        counts["cases"] += 1
        return case(*args)

    def counted_hash(self):
        counts["hashes"] += 1
        return fraction_hash(self)

    monkeypatch.setattr(verify, "_pairs", counted_pairs)
    monkeypatch.setattr(verify, "assumption33_case", counted_case)
    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    report = check_assumption33(get_ambient(c_name, a_name), bound, entry_bound)
    assert counts == {"pairs": pairs, "cases": cases, "hashes": 0}
    assert report.verdict == "pass"


def _first_occurrences(items, key) -> list:
    """The items whose key no item before them has."""
    firsts = {}
    for item in items:
        firsts.setdefault(key(*item), item)
    return list(firsts.values())


_KEY_SWEEPS = [spec for spec, _, _ in _SUITE_SWEEPS.values()] + [("gf3", None, 2, 3, False), ("z", "split", 2, 3, False)]
_KEY_SWEEP_IDS = list(_SUITE_SWEEPS) + ["a33-gf3", "a33-z-split"]


@pytest.mark.parametrize("sweep", _KEY_SWEEPS, ids=_KEY_SWEEP_IDS)
def test_dedup_keys_agree_with_canonical_forms(sweep):
    # key equality holds exactly when canonical-form equality does, so the
    # keyed dedup keeps the first occurrences the canonical dedup keeps;
    # the two Z sweeps check a seeded sample of 10,000 pairs and every
    # first occurrence, in the order of enumeration
    c_name, a_name, bound, entry_bound, into_apex = sweep
    amb = get_ambient(c_name, a_name)
    triples = list(verify._pairs(amb, bound, entry_bound, 0, into_apex))
    if into_apex:
        canonical = lambda f, g, key: amb.canonical_cospan(Cospan(f, g))
    else:
        canonical = lambda f, g, key: amb.canonical_span(Span(f, g))
    by_key = lambda f, g, key: key
    if len(triples) > 20_000:
        firsts = {id(triple) for triple in _first_occurrences(triples, by_key)}
        sample = set(random.Random(16).sample(range(len(triples)), 10_000))
        triples = [triple for i, triple in enumerate(triples) if i in sample or id(triple) in firsts]
    keys = [key for _, _, key in triples]
    forms = [canonical(*triple) for triple in triples]
    assert len(set(keys)) == len(set(forms)) == len(set(zip(keys, forms)))
    assert _first_occurrences(triples, by_key) == _first_occurrences(triples, canonical)


@pytest.mark.parametrize(
    "sweep",
    _KEY_SWEEPS + [("q", None, 2, 1, True), ("gf3", None, 2, 3, True)],
    ids=_KEY_SWEEP_IDS + ["a31-q", "a31-gf3"],
)
def test_batch_keys_equal_one_echelon_pass_per_pair(sweep):
    # each key of a left leg's batch is, value for value and type for type
    # (the repr tells an int from a Fraction; a Q key holds integers over a
    # denominator, read as the Fractions they stand for), its own pair's
    # echelon rows
    # (for f and pf, its canonical form), on every pair the sweep
    # enumerates: a matrix key holds its left leg's canonical form H, as
    # a value, with the leg's feet, and H beside the key's block columns
    # is the pair's echelon rows
    c_name, a_name, bound, entry_bound, into_apex = sweep
    amb = get_ambient(c_name, a_name)
    if c_name in ("f", "pf"):
        pair = Cospan if into_apex else Span
        canonical = amb.canonical_cospan if into_apex else amb.canonical_span
        for f, g, key in verify._pairs(amb, bound, entry_bound, 0, into_apex):
            expected = canonical(pair(f, g))
            assert key == expected and repr(key) == repr(expected), (f, g)
        return
    for f, g, ((h, dom, cod), block) in verify._pairs(amb, bound, entry_bound, 0, into_apex):
        expected = echelon_values(f, g, columns=not into_apex)
        rows = rows_beside(amb.ring, h, block)
        columns = key_table(block)[0]
        assert (dom, cod, len(columns)) == (f.dom, f.cod, g.dom if into_apex else g.cod), (f, g)
        assert rows == expected and repr(rows) == repr(expected), (f, g)


# --- square and functoriality -------------------------------------------------------


def test_square_commutes():
    assert check_square_commutes(F_INJ, 3).verdict == "pass"
    assert check_square_commutes(PF_INJ, 2).verdict == "pass"
    assert check_square_commutes(Z_SPLIT, 2, entry_bound=3).verdict == "pass"


def test_pi_functorial_injections():
    assert check_pi_functorial(F_INJ, 3, seed=0, samples=400).verdict == "pass"


def test_pi_functorial_integer_split_monos_fails_on_shape_iv():
    report = check_pi_functorial(Z_SPLIT, 2, entry_bound=3, seed=0, samples=400)
    assert report.verdict == "fail"
    shapes = {dict(ce)["shape"] for ce in report.counterexamples}
    assert shapes == {"iv"}
    assert replay(report)


def _reference_pi_functorial_case(amb, s1, s2):
    """pi(s1 ; s2) = pi(s1) ; pi(s2), by the definition: no memo, nothing shared."""
    return corel_equal(pi(span_compose(s1, s2, amb), amb), corel_compose(pi(s1, amb), pi(s2, amb)))


def _reference_pi_functorial(amb, bound, entry_bound, seed, samples):
    """The pi-functorial record of a loop that decides every case by itself."""
    failures = (
        (("shape", shape),) + verify._format_fields(("span1", "span2"), pair)
        for shape, pair in verify._shape_pairs(amb, bound, entry_bound, seed, samples)
        if not _reference_pi_functorial_case(amb, *pair)
    )
    return verify._report("pi-functorial", amb.name, amb.a_name, bound, entry_bound, seed, failures).to_record()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "amb, bound, entry_bound",
    [(Z_SPLIT, 2, 3), (F_INJ, 3, 3), (PF_INJ, 2, 3), (G2, 2, 3), (Q, 1, 1)],
    ids=["z", "f", "pf", "gf2", "q"],
)
def test_pi_functorial_records_match_a_case_by_case_reference(amb, bound, entry_bound, seed):
    report = check_pi_functorial(amb, bound, entry_bound, seed, samples=40)
    assert report.to_record() == _reference_pi_functorial(amb, bound, entry_bound, seed, 40)


@pytest.mark.parametrize("amb, bound", [(F_INJ, 3), (Z_SPLIT, 1), (G2, 1)], ids=["f", "z", "gf2"])
def test_pi_functorial_computes_pi_once_per_distinct_span(monkeypatch, amb, bound):
    # one pi per distinct span, the factor spans of the cases and their
    # composite spans alike: pi is deterministic, so the composite's runs
    # once per distinct composite, not once per case
    pairs = [pair for _, pair in verify._shape_pairs(amb, bound, 3, 0, 40)]
    factors = {s for pair in pairs for s in pair}
    composites = {span_compose(*pair, amb) for pair in pairs}
    calls = []

    def counted(s, a):
        calls.append(s)
        return pi(s, a)

    monkeypatch.setattr(verify, "pi", counted)
    check_pi_functorial(amb, bound, 3, 0, 40)
    assert len(calls) == len(set(calls)) == len(factors | composites) < len(factors) + len(pairs)


@pytest.mark.parametrize("amb, bound", [(F_INJ, 3), (Z_SPLIT, 2), (G2, 1)], ids=["f", "z", "gf2"])
def test_pi_functorial_composes_each_distinct_pair_of_pis_once(monkeypatch, amb, bound):
    pairs = [pair for _, pair in verify._shape_pairs(amb, bound, 3, 0, 40)]
    distinct = {(pi(s1, amb), pi(s2, amb)) for s1, s2 in pairs}
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return corel_compose(a, b)

    monkeypatch.setattr(verify, "corel_compose", counted)
    report = check_pi_functorial(amb, bound, 3, 0, 40)
    assert len(calls) == len(set(calls)) == len(distinct) < len(pairs)
    assert report.verdict == verify.expected_verdict(report)


@pytest.mark.parametrize("amb, bound", [(F_INJ, 3), (Z_SPLIT, 2), (G2, 1)], ids=["f", "z", "gf2"])
def test_pi_functorial_pulls_back_each_distinct_cospan_once(monkeypatch, amb, bound):
    # the pullback of (s1.right, s2.left) is shared by every case with an
    # equal cospan, the equal legs of different cases included
    pairs = [pair for _, pair in verify._shape_pairs(amb, bound, 3, 0, 40)]
    distinct = {(s1.right, s2.left) for s1, s2 in pairs}
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return type(amb).pullback(amb, f, g)

    monkeypatch.setattr(amb, "pullback", counted)
    report = check_pi_functorial(amb, bound, 3, 0, 40)
    assert len(calls) == len(set(calls)) == len(distinct) < len(pairs)
    assert report.verdict == verify.expected_verdict(report)


def test_pi_functorial_memo_is_freed_when_the_check_returns(monkeypatch):
    memos = []

    class Watched(verify._PiMemo):
        def __init__(self, amb):
            super().__init__(amb)
            memos.append(weakref.ref(self))

    monkeypatch.setattr(verify, "_PiMemo", Watched)
    check_pi_functorial(Z_SPLIT, 1, 3, 0, 40)
    check_pi_functorial(F_INJ, 2, 3, 0, 40)
    gc.collect()
    assert len(memos) == 2 and all(ref() is None for ref in memos)


_CHECK_FNS = {
    "assumption31": check_assumption31,
    "assumption33": check_assumption33,
    "pi-functorial": lambda amb, bound, entry_bound: check_pi_functorial(amb, bound, entry_bound, samples=0),
}


def _just_below(least) -> list:
    """The (bound, entry bound) pairs one step below a set of least failing
    pairs (entry bounds up to 3) that reach none of them."""
    below = {(b - 1, 3) for b, _ in least} | {(b, e - 1) for b, e in least if e}
    reaches = lambda b, e: any(b >= lb and e >= le for lb, le in least)
    return sorted((b, e) for b, e in below if b >= 0 and not reaches(b, e))


@pytest.mark.parametrize("key", list(verify.KNOWN_FAILURES), ids="/".join)
def test_known_failures_are_the_least_failing_bounds(key):
    # each check fails at each of its least pairs and passes just below
    # them; pi-functorial runs its sweep alone (no samples)
    name, c_name, a_name = key
    least = verify.KNOWN_FAILURES[key]
    amb = get_ambient(c_name, a_name)
    points = [(point, "fail") for point in least] + [(point, "pass") for point in _just_below(least)]
    for (bound, entry_bound), verdict in points:
        report = _CHECK_FNS[name](amb, bound, entry_bound)
        assert report.verdict == verify.expected_verdict(report) == verdict, (bound, entry_bound)
        assert replay(report)


_ALL_FAILURES = [key for key in verify.KNOWN_FAILURES if key[2] == "all"]


@pytest.mark.parametrize("key", _ALL_FAILURES, ids="/".join)
def test_whole_category_counterexamples_are_genuine(key):
    # at the least pairs: a function mediator fails totality or injectivity
    # (3.1) or surjectivity (3.3) by its table, an integer one is not split
    # by its invariant factors, and a pi counterexample has the pullback
    # shape iv
    name, c_name, a_name = key
    amb = get_ambient(c_name, a_name)
    for bound, entry_bound in verify.KNOWN_FAILURES[key]:
        report = _CHECK_FNS[name](amb, bound, entry_bound)
        assert report.counterexamples
        for ce in map(dict, report.counterexamples):
            if name == "pi-functorial":
                assert ce["shape"] == "iv", ce
                continue
            u = parse_morphism(ce["mediator"])
            if c_name == "z":
                factors = invariant_factors(u)
                assert len(factors) < u.cols or any(d != 1 for d in factors), ce
            elif name == "assumption31":
                assert None in u.table or len(set(u.table)) < u.dom, ce
            else:
                assert set(u.table) - {None} != set(range(u.cod)), ce


def test_tensor_functorial_all_ambients():
    for amb in (F_INJ, PF_INJ, G2, Q, Z_SPLIT):
        assert check_tensor_functorial(amb, 2, entry_bound=2, seed=2, samples=60).verdict == "pass"


def test_category_laws_all_ambients():
    for amb in (F_INJ, PF_INJ, G2, Q, Z_SPLIT):
        assert check_category_laws(amb, 2, entry_bound=2, seed=1, samples=60).verdict == "pass"


@pytest.mark.parametrize(
    "check, pairs", [(check_category_laws, 6), (check_tensor_functorial, 8), (check_pi_functorial, 1)], ids=["laws", "tensor", "pi"]
)
def test_sampled_checks_refuse_above_the_sample_budget_before_drawing(monkeypatch, check, pairs):
    # 10 samples over Q at bound 2 and entry bound 2: each pair of legs costs
    # 50 units and 3^4 for the elimination
    work = 10 * pairs * (50 + 3**4)
    monkeypatch.setattr(verify, "SAMPLE_BUDGET", work)
    verify._require_samplable(Q, 2, 2, 10, pairs, a_legs=check is not check_category_laws)
    monkeypatch.setattr(verify, "SAMPLE_BUDGET", work - 1)

    def draw(*args):
        raise AssertionError("drew a leg before the budget check")

    monkeypatch.setattr(Q, "random_morphism", draw)
    with pytest.raises(CorelateError, match=f"^10 samples of q .* more than {work - 1:,} units of work"):
        check(Q, 2, 2, 0, 10)


def test_split_mono_draws_count_in_the_sample_budget(monkeypatch):
    # a split mono 2 -> 2 with entries in [-3, 3] is drawn by rejection, in
    # about sqrt(2!) * 2^2 = 5.7 draws, counted as 6; other legs take one
    six_draws = 50 + 6 * 3**4
    monkeypatch.setattr(verify, "SAMPLE_BUDGET", six_draws)
    verify._require_samplable(Z_SPLIT, 2, 3, 1, 1, a_legs=True)
    monkeypatch.setattr(verify, "SAMPLE_BUDGET", six_draws - 1)
    with pytest.raises(CorelateError, match="units of work"):
        verify._require_samplable(Z_SPLIT, 2, 3, 1, 1, a_legs=True)
    verify._require_samplable(Z_SPLIT, 2, 3, 1, 1, a_legs=False)


def test_tensor_functorial_counterexamples_replay(monkeypatch):
    # spans with arbitrary partial legs break interchange (see the check's
    # docstring), so drawing them in place of A-spans plants failures
    monkeypatch.setattr(verify, "random_a_span", verify.random_span)
    report = check_tensor_functorial(PF_INJ, 2, 2, 0, 200)
    assert report.verdict == "fail"
    assert len(report.counterexamples) == 75
    assert replay(report)
    # the same report with one counterexample swapped for a passing tuple
    ident_span = format_pair(span_identity(1, PF_INJ))
    ident_cospan = format_pair(cospan_identity(1, PF_INJ))
    passing = dict(report.counterexamples[0])
    for key in passing:
        if key.startswith("span"):
            passing[key] = ident_span
        elif key.startswith("cospan"):
            passing[key] = ident_cospan
    swapped = (tuple(passing.items()),) + report.counterexamples[1:]
    assert not replay(CheckReport(**{**vars(report), "counterexamples": swapped}))


def test_each_check_row_names_its_functions_parameters_in_order():
    # `corelate check` passes a row's flags, in order, as its function's
    # arguments: C and A as the ambient they name, theory as the theory's
    # name; and every check function has a row
    for name, (function, flags, _) in verify.CHECKS.items():
        if flags[:2] == ("C", "A"):
            flags = ("amb",) + flags[2:]
        parameters = ["theory_name" if flag == "theory" else flag for flag in flags]
        assert parameters == list(inspect.signature(getattr(verify, function)).parameters), name
    functions = {name for name, fn in vars(verify).items() if name.startswith("check_") and inspect.isfunction(fn)}
    assert sorted(function for function, _, _ in verify.CHECKS.values()) == sorted(functions)


def test_replay_refuses_a_check_it_does_not_know():
    # a record read back names its check; one that no row names is a user
    # error, which the command line reports with exit 2
    for report in (check_assumption31(F_ALL, 2), check_square_commutes(F_INJ, 1)):
        unknown = CheckReport.from_record({**report.to_record(), "check": "squares"})
        with pytest.raises(CorelateError, match="'squares'"):
            replay(unknown)


def test_record_keys_are_the_record_table_then_the_cases():
    assert list(check_square_commutes(F_INJ, 1).to_record()) == [*verify._RECORD, "counterexamples"]
    assert list(check_frobenius("er").to_record()) == [*verify._RECORD, "counterexamples", "details"]
    assert list(verify._RECORD) == ["check", "C", "A", "bound", "entry_bound", "seed", "verdict"]


def test_traced_names_are_verify_functions(monkeypatch):
    # perfbench/tracing.py wraps these by name: a renamed one would
    # silently zero its per-check metrics
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    names = set(tracing.CHECKS) | set(tracing.CASE_CHECKERS) | {"_pairs"}
    assert {name for name in names if not inspect.isfunction(getattr(verify, name, None))} == set()


def _compose_dropping_a_row(a, b):
    """A planted fault: drop the last apex row of composites of apex >= 2."""
    c = corel_compose(a, b)
    if c.apex < 2:
        return c
    left, right = c.cospan
    cut = lambda x: x._replace(rows=x.rows - 1, table=x.table[:-1])
    return Corelation(c.ambient, Cospan(cut(left), cut(right)))


@pytest.mark.parametrize("amb", [G2, Z_SPLIT], ids=["gf2", "z"])
def test_laws_counterexamples_replay(monkeypatch, amb):
    monkeypatch.setattr(verify, "corel_compose", _compose_dropping_a_row)
    report = check_category_laws(amb, 2, entry_bound=2, seed=1, samples=60)
    assert report.verdict == "fail"
    for ce in report.counterexamples:
        assert dict(ce)["failing"] == (
            "span_assoc=True span_id=True cospan_assoc=True cospan_id=True corel_assoc=False"
        )
    assert replay(report)
    monkeypatch.undo()  # with the fault gone, no recorded tuple fails
    assert not replay(report)
    one = CheckReport(**{**vars(report), "counterexamples": report.counterexamples[:1]})
    assert not replay(one)


def _drop_the_last_apex_point(s):
    """A planted fault: a span without the last point of its apex."""
    if isinstance(s.left, ExactMatrix):
        cut = lambda x: x._replace(cols=x.cols - 1, table=tuple(row[:-1] for row in x.table))
    else:
        cut = lambda x: x._replace(dom=x.dom - 1, table=x.table[:-1])
    return s if s.left.dom == 0 else Span(cut(s.left), cut(s.right))


def _add_an_unreached_apex_point(c):
    """A planted fault: a cospan with one more apex point, which no leg reaches."""
    if isinstance(c.left, ExactMatrix):
        grow = lambda x: x._replace(rows=x.rows + 1, table=x.table + ((0,) * x.cols,))
    else:
        grow = lambda x: x._replace(cod=x.cod + 1)
    return Cospan(grow(c.left), grow(c.right))


def _planted(compose, fault, nested: bool):
    """``compose`` with ``fault`` on every composite or, with ``nested``,
    only on a composite whose first factor is one of its composites: then
    the units still hold, and the two bracketings of three factors differ."""
    made = {}  # id -> composite, held so that no id is reused

    def planted(x1, x2, amb):
        out = compose(x1, x2, amb)
        if not nested or id(x1) in made:
            out = fault(out)
        made[id(out)] = out
        return out

    return planted


def _false_flags(report) -> set:
    """The flags that read False in the ``failing`` fields of a report."""
    items = (item for ce in report.counterexamples for item in dict(ce)["failing"].split())
    return {item[: -len("=False")] for item in items if item.endswith("=False")}


_PLANTED = {
    "span-unit": ("span_compose", lambda compose: _planted(compose, _drop_the_last_apex_point, False)),
    "span-assoc": ("span_compose", lambda compose: _planted(compose, _drop_the_last_apex_point, True)),
    "cospan-unit": ("cospan_compose", lambda compose: _planted(compose, _add_an_unreached_apex_point, False)),
    "cospan-assoc": ("cospan_compose", lambda compose: _planted(compose, _add_an_unreached_apex_point, True)),
    "corel": ("corel_compose", lambda compose: _compose_dropping_a_row),
}


# the fault, the ambient, and the flags of the laws and of the
# tensor-functorial check that read False under it
_FLAG_CASES = [
    ("span-unit", F_INJ, {"span_id"}, set()),
    ("span-unit", G2, {"span_assoc", "span_id"}, {"span"}),
    ("span-assoc", F_INJ, {"span_assoc"}, set()),
    ("span-assoc", G2, {"span_assoc"}, set()),
    ("cospan-unit", F_INJ, {"cospan_id"}, {"cospan"}),
    ("cospan-unit", G2, {"cospan_id"}, {"cospan"}),
    ("cospan-assoc", F_INJ, {"cospan_assoc"}, set()),
    ("cospan-assoc", G2, {"cospan_assoc"}, set()),
    ("corel", G2, {"corel_assoc"}, {"corel"}),
]


@pytest.mark.parametrize(
    "fault, amb, laws_false, tensor_false", _FLAG_CASES, ids=[f"{fault}-{amb.name}" for fault, amb, *_ in _FLAG_CASES]
)
def test_every_law_flag_reads_false_under_a_planted_fault(monkeypatch, fault, amb, laws_false, tensor_false):
    # each flag is computed from the planted side's composites alone: a
    # law statement that compared a form with itself would pass here
    name, plant = _PLANTED[fault]
    monkeypatch.setattr(verify, name, plant(getattr(verify, name)))
    for check, expected in ((check_category_laws, laws_false), (check_tensor_functorial, tensor_false)):
        report = check(amb, 2, 2, 0, 20)
        assert _false_flags(report) == expected, check.__name__
        assert report.verdict == ("fail" if expected else "pass")
        assert replay(report)


# --- frobenius suites -----------------------------------------------------------------


def test_frobenius_er_all_hold():
    report = check_frobenius("er")
    assert report.verdict == "pass"
    assert all(holds for _, holds in report.details)
    labels = {label for label, _ in report.details}
    assert {"special", "extra", "frobenius_left", "frobenius_right"} <= labels


def test_frobenius_z_corel_unit_criterion():
    report = check_frobenius("z-corel")
    detail = dict(report.details)
    assert detail["scalar_cancel(1)"] and detail["scalar_cancel(-1)"]
    assert not detail["scalar_cancel(2)"]
    assert report.verdict == "fail"
    assert replay(report)


def test_frobenius_q_subspace_scalars():
    report = check_frobenius("q-subspace")
    detail = dict(report.details)
    for tag in ("scalar_cancel(1)", "scalar_cancel(2)", "scalar_cancel(3)", "scalar_cancel(1/2)"):
        assert detail[tag]
    assert report.verdict == "pass"


def test_frobenius_per_core_laws_hold():
    report = check_frobenius("per")
    assert report.verdict == "pass"


# --- witness oracle --------------------------------------------------------------------


def test_witness_direct_move():
    c = Cospan(fn(1, 1, [0]), fn(1, 1, [0]))
    m = fn(1, 2, [0])
    moved = Cospan(fn(1, 2, [0]), fn(1, 2, [0]))
    assert moved in witness_reachable(c, F_INJ, depth=1)


def test_witness_z_scalars_unequal():
    one = Cospan(mat(ZZ, 1, 1, [[1]]), mat(ZZ, 1, 1, [[1]]))
    two = Cospan(mat(ZZ, 1, 1, [[2]]), mat(ZZ, 1, 1, [[2]]))
    assert one not in witness_reachable(two, Z_SPLIT, depth=3, apex_bound=2, entry_bound=2)


def test_witness_agrees_with_canonical_equality_f():
    # all cospans with feet (1,1) and apex <= 3, pairwise
    cospans = [
        Cospan(f, g)
        for apex in range(4)
        for f in enumerate_finmaps(1, apex)
        for g in enumerate_finmaps(1, apex)
    ]
    cache: dict = {}
    reach = {
        c: witness_reachable(c, F_INJ, depth=3, apex_bound=3, witness_cache=cache)
        for c in cospans
    }
    for c1 in cospans:
        for c2 in cospans:
            assert (c2 in reach[c1]) == corel_equal(gamma(c1, F_INJ), gamma(c2, F_INJ))


def test_witness_agrees_on_sampled_integer_cospans():
    rng = random.Random(0)
    pool = [
        Cospan(mat(ZZ, 1, 1, [[a]]), mat(ZZ, 1, 1, [[b]]))
        for a in range(-2, 3)
        for b in range(-2, 3)
    ]
    cache: dict = {}
    for _ in range(40):
        c1, c2 = rng.choice(pool), rng.choice(pool)
        expected = corel_equal(gamma(c1, Z_SPLIT), gamma(c2, Z_SPLIT))
        got = c2 in witness_reachable(c1, Z_SPLIT, depth=3, apex_bound=1, entry_bound=4, witness_cache=cache)
        assert got == expected, (c1, c2)


# --- gluing oracles ------------------------------------------------------------------


def test_oracle_er_example():
    p1 = Partition(3, ((0, 2), (1,)))
    p2 = Partition(3, ((0, 1, 2),))
    assert oracle_er_compose(p1, p2, 2, 1, 2) == Partition(4, ((0, 2, 3), (1,)))


def test_oracle_er_identity():
    ident = Partition(2, ((0, 1),))
    p = Partition(3, ((0, 1), (2,)))
    assert oracle_er_compose(p, ident, 2, 1, 1) == p


def test_oracle_per_drops_undefined_links():
    # x0 glued to an undefined middle point becomes undefined; the last
    # point of each partition is its basepoint
    p1 = Partition(3, ((0, 1), (2,)))  # x0 ~ w0
    p2 = Partition(3, ((0, 2), (1,)))  # w0 undefined, y0 defined alone
    out = oracle_per_compose(p1, p2, 1, 1, 1)
    assert out == Partition(3, ((0, 2), (1,)))


def test_oracle_subspace_example():
    v = span_rows([(1, 0)], 2, GF(2))
    w = span_rows([(1, 1)], 2, GF(2))
    assert oracle_subspace_compose(v, w, 1, 1, 1, GF(2)) == ((1, 0),)


def test_subspace_membership():
    rows = span_rows([(1, 0, 1), (0, 1, 1)], 3, GF(2))
    assert subspace_contains(rows, (1, 1, 0), GF(2))
    assert not subspace_contains(rows, (1, 1, 1), GF(2))


def test_enumerate_subspaces_galois_counts():
    # number of subspaces of GF(2)^n: 1, 2, 5, 16, 67
    for dim, count in enumerate((1, 2, 5, 16, 67)):
        assert sum(1 for _ in enumerate_subspaces(dim, GF(2))) == count


def test_subspace_oracles_share_no_elimination_with_linmap(monkeypatch):
    from corelate import linmap

    def refuse(*args, **kwargs):
        raise AssertionError("the subspace oracles reached linmap's elimination")

    monkeypatch.setattr(linmap, "_echelon", refuse)
    assert sum(1 for _ in enumerate_subspaces(3, GF(2))) == 16
    v, w = span_rows([(1, 0)], 2, GF(2)), span_rows([(1, 1)], 2, GF(2))
    assert oracle_subspace_compose(v, w, 1, 1, 1, GF(2)) == ((1, 0),)


def test_collapse_spot_derivation():
    # The equation that the failed mediator would force is genuinely refuted
    # in the corelation prop: gluing 0 -> 1 <- 2 directly merges the two
    # right-hand points, while the pushout of its pullback keeps them apart.
    from corelate.corelrel import er_from_corelation, pi

    f, g = fn(0, 1, []), fn(2, 1, [0, 0])
    direct = gamma(Cospan(f, g), F_ALL)
    p1, p2 = F_ALL.pullback(f, g)
    via_span = pi(Span(p1, p2), F_ALL)
    assert er_from_corelation(direct) == Partition(2, ((0, 1),))
    assert er_from_corelation(via_span) == Partition(2, ((0,), (1,)))
    assert direct != via_span


def test_report_records_are_stable():
    r1 = check_assumption31(F_ALL, 2)
    r2 = check_assumption31(F_ALL, 2)
    assert r1.to_record() == r2.to_record()
    record = r1.to_record()
    assert list(record)[:4] == ["check", "C", "A", "bound"]
