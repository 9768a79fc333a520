import inspect
import random

import pytest

from corelate.exactnum import GF, ZZ
from corelate.finfn import Partition, enumerate_finmaps, fn
from corelate import verify
from corelate.linmap import ExactMatrix, mat
from corelate.corelrel import (
    Corelation,
    corel_compose,
    corel_equal,
    gamma,
)
from corelate.literals import format_cospan, format_span
from corelate.spancospan import Cospan, Span, cospan_identity, get_ambient, span_identity
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
    enumerate_subspaces,
    oracle_er_compose,
    oracle_per_compose,
    oracle_subspace_compose,
    replay,
    span_rows,
    subspace_contains,
    witness_equal_oracle,
    witness_reachable,
)
from oracle_utils import PERFBENCH

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


def test_tensor_functorial_all_ambients():
    for amb in (F_INJ, PF_INJ, G2, Q, Z_SPLIT):
        assert check_tensor_functorial(amb, 2, entry_bound=2, seed=2, samples=60).verdict == "pass"


def test_category_laws_all_ambients():
    for amb in (F_INJ, PF_INJ, G2, Q, Z_SPLIT):
        assert check_category_laws(amb, 2, entry_bound=2, seed=1, samples=60).verdict == "pass"


def test_tensor_functorial_counterexamples_replay(monkeypatch):
    # spans with arbitrary partial legs break interchange (see the check's
    # docstring), so drawing them in place of A-spans plants failures
    monkeypatch.setattr(verify, "random_a_span", verify.random_span)
    report = check_tensor_functorial(PF_INJ, 2, 2, 0, 200)
    assert report.verdict == "fail"
    assert len(report.counterexamples) == 75
    assert replay(report)
    # the same report with one counterexample swapped for a passing tuple
    ident_span = format_span(span_identity(1, PF_INJ))
    ident_cospan = format_cospan(cospan_identity(1, PF_INJ))
    passing = dict(report.counterexamples[0])
    for key in passing:
        if key.startswith("span"):
            passing[key] = ident_span
        elif key.startswith("cospan"):
            passing[key] = ident_cospan
    swapped = (tuple(passing.items()),) + report.counterexamples[1:]
    assert not replay(CheckReport(**{**vars(report), "counterexamples": swapped}))


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
    cut = lambda x: ExactMatrix(x.ring, x.rows - 1, x.cols, x.entries[:-1])
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
    assert witness_equal_oracle(c, moved, F_INJ, depth=1)


def test_witness_z_scalars_unequal():
    one = Cospan(mat(ZZ, 1, 1, [[1]]), mat(ZZ, 1, 1, [[1]]))
    two = Cospan(mat(ZZ, 1, 1, [[2]]), mat(ZZ, 1, 1, [[2]]))
    assert not witness_equal_oracle(two, one, Z_SPLIT, depth=3, apex_bound=2, entry_bound=2)


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
        got = witness_equal_oracle(
            c1, c2, Z_SPLIT, depth=3, apex_bound=1, entry_bound=4, witness_cache=cache
        )
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
