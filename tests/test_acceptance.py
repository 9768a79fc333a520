"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Criteria 04 and 06 concern split monos over the
integers, which do not satisfy the pushout-of-pullback mediator condition:
columns (1,0) and (1,2) are a counterexample (the argument is in criterion
04).  Those two criteria therefore assert the refutation: the harness must
report the failure, every reported counterexample must be genuine, and the
report must replay.
"""

import random
import sys
import time
from itertools import product
from pathlib import Path

from corelate.exactnum import GF, ZZ
from corelate.finfn import enumerate_partitions
from corelate.linmap import det_int, mat, mat_mul, snf
from corelate.literals import parse_morphism, parse_span
from corelate.corelrel import (
    Corelation,
    corel_compose,
    corel_equal,
    corelation_from_er,
    corel_to_rel,
    er_from_corelation,
    gamma,
    pi,
    rel_compose,
    rel_from_subspace_rows,
    rel_subspace_rows,
    rel_to_corel,
)
from corelate.spancospan import Cospan, Span, cospan_canonical, get_ambient
from corelate.verify import (
    assumption31_case,
    check_assumption31,
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
    witness_reachable,
)
from oracle_utils import invariant_factors, random_subspace_rows

# the benchmark's integer lattice oracle, which shares no code with corelate
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))
from oracles import hnf, left_kernel, z_compose  # noqa: E402

F = get_ambient("f")
F_ALL = get_ambient("f", "all")
PF = get_ambient("pf")
G2 = get_ambient("gf2")
Q = get_ambient("q")
Z_SPLIT = get_ambient("z", "split")

BOUND3 = range(4)


def verdict(num, name, ok):
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_er_oracle_equivalence():
    start = time.monotonic()
    mismatches = 0
    for z in BOUND3:
        for n in BOUND3:
            left = [
                (p, corelation_from_er(p, n, z, F)) for p in enumerate_partitions(n + z)
            ]
            for m in BOUND3:
                right = [
                    (p, corelation_from_er(p, z, m, F)) for p in enumerate_partitions(z + m)
                ]
                for p1, a in left:
                    for p2, b in right:
                        got = er_from_corelation(corel_compose(a, b))
                        if got != oracle_er_compose(p1, p2, n, z, m):
                            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 30
    assert verdict(1, "ER oracle equivalence", ok), (mismatches, elapsed)


def test_criterion_02_per_oracle_equivalence():
    # a PER is a partition with one more point, the basepoint
    mismatches = 0
    for z in BOUND3:
        for n in BOUND3:
            left = [
                (p, corelation_from_er(p, n, z, PF)) for p in enumerate_partitions(n + z + 1)
            ]
            for m in BOUND3:
                right = [
                    (p, corelation_from_er(p, z, m, PF)) for p in enumerate_partitions(z + m + 1)
                ]
                for p1, a in left:
                    for p2, b in right:
                        got = er_from_corelation(corel_compose(a, b))
                        if got != oracle_per_compose(p1, p2, n, z, m):
                            mismatches += 1
    assert verdict(2, "PER oracle equivalence", mismatches == 0), mismatches


def test_criterion_03_subspace_oracle_equivalence():
    ring = GF(2)
    mismatches = 0
    for n, z, m in product(range(3), repeat=3):
        subs_nz = list(enumerate_subspaces(n + z, ring))
        subs_zm = list(enumerate_subspaces(z + m, ring))
        for v_rows in subs_nz:
            a = rel_from_subspace_rows(v_rows, n, z, G2)
            for w_rows in subs_zm:
                b = rel_from_subspace_rows(w_rows, z, m, G2)
                got = rel_subspace_rows(rel_compose(a, b))
                if got != oracle_subspace_compose(v_rows, w_rows, n, z, m, ring):
                    mismatches += 1
    rng = random.Random(0)
    n = z = m = 3
    for _ in range(500):
        v_rows = random_subspace_rows(rng, n + z, ring)
        w_rows = random_subspace_rows(rng, z + m, ring)
        a = rel_from_subspace_rows(v_rows, n, z, G2)
        b = rel_from_subspace_rows(w_rows, z, m, G2)
        got = rel_subspace_rows(rel_compose(a, b))
        if got != oracle_subspace_compose(v_rows, w_rows, n, z, m, ring):
            mismatches += 1
    assert verdict(3, "subspace oracle equivalence", mismatches == 0), mismatches


def _split_mono(a):
    """Split mono over the integers: full column rank, all invariant factors 1."""
    factors = invariant_factors(a)
    return len(factors) == a.cols and all(d == 1 for d in factors)


def _injective_not_split(a):
    factors = invariant_factors(a)
    return len(factors) == a.cols and any(d != 1 for d in factors)


def test_criterion_04_counterexample_reproduction():
    """Assumption 3.1 fails for all total functions and holds for injections;
    over the integers it also fails for A = M = split monos.

    Take f = (1,0) and g = (1,2) : Z -> Z^2.  Both are split mono, since
    [1 0] f = [1 0] g = 1.  Their pullback is 0, because (a,0) = (b,2b)
    forces a = b = 0.  The pushout of Z <- 0 -> Z is Z^2 with the coproduct
    injections, so the mediator is [[1,1],[0,2]].  Its determinant is 2,
    while a square integer matrix with a left inverse has determinant +-1,
    so the mediator is not in M.  The clause on Z therefore reproduces this
    counterexample instead of asserting the condition.
    """
    collapse = check_assumption31(F_ALL, 2)
    first = dict(collapse.counterexamples[0]) if collapse.counterexamples else {}
    clause1 = (
        collapse.verdict == "fail"
        and first.get("left") == "fn 0 -> 1 : []"
        and first.get("right") == "fn 2 -> 1 : [0,0]"
        and first.get("mediator") == "fn 2 -> 1 : [0,0]"
    )
    clause2 = check_assumption31(get_ambient("f", "inj"), 3).verdict == "pass"

    z_report = check_assumption31(Z_SPLIT, 2, entry_bound=3)
    z_cases = [
        tuple(parse_morphism(dict(ce)[key]) for key in ("left", "right", "mediator"))
        for ce in z_report.counterexamples
    ]
    # judged by gcds of minors, independently of linmap.is_split_mono
    genuine = all(
        _split_mono(f) and _split_mono(g) and _injective_not_split(u) for f, g, u in z_cases
    )
    f, g = mat(ZZ, 2, 1, [[1], [0]]), mat(ZZ, 2, 1, [[1], [2]])
    reported = {cospan_canonical(Cospan(fi, gi), Z_SPLIT) for fi, gi, _ in z_cases}
    holds, mediator = assumption31_case(Z_SPLIT, f, g)
    minimal_found = (
        cospan_canonical(Cospan(f, g), Z_SPLIT) in reported
        and not holds
        and abs(det_int(mediator)) == 2
    )
    replays = replay(z_report)
    clause3 = z_report.verdict == "fail" and genuine and minimal_found and replays
    ok = clause1 and clause2 and clause3
    verdict(4, "assumption counterexample reproduction", ok)
    assert clause1 and clause2, (collapse.verdict, first)
    assert clause3, (z_report.verdict, genuine, minimal_found, replays)


def test_criterion_05_pushout_square_commutation():
    inj = check_square_commutes(get_ambient("f", "inj"), 3)
    zsplit = check_square_commutes(Z_SPLIT, 2, entry_bound=3)
    ok = inj.verdict == "pass" and zsplit.verdict == "pass"
    assert verdict(5, "pushout-square commutation", ok), (inj.verdict, zsplit.verdict)


def test_criterion_06_pi_functoriality():
    """The pushout-then-project functor pi preserves composition for
    injections; over integer split monos it fails exactly where Assumption
    3.1 fails.

    On a shape-iv pair (fwd f ; bwd g) the composite-then-pi side is the
    corelation of the pushout of the pullback of (f, g), and the
    pi-then-compose side is the corelation of the cospan (f, g).  The
    copairing [q1 q2] of the pushout legs is epi, so the two sides agree
    exactly when the pushout-of-pullback mediator lies in M.  Criterion 04
    shows that it need not, so shape iv fails while shapes i-iii hold, and
    every disagreeing pair is an Assumption 3.1 counterexample.
    """
    inj = check_pi_functorial(get_ambient("f", "inj"), 3, seed=0, samples=1000)
    zsplit = check_pi_functorial(Z_SPLIT, 2, entry_bound=3, seed=0, samples=1000)
    z_cases = [
        (data["shape"], parse_span(data["span1"], Z_SPLIT), parse_span(data["span2"], Z_SPLIT))
        for data in map(dict, zsplit.counterexamples)
    ]
    only_iv = all(shape == "iv" for shape, _, _ in z_cases)
    mediator_fails = all(
        not assumption31_case(Z_SPLIT, s1.right, s2.left)[0] for _, s1, s2 in z_cases
    )
    replays = replay(zsplit)
    z_ok = zsplit.verdict == "fail" and only_iv and mediator_fails and replays
    ok = inj.verdict == "pass" and z_ok
    verdict(6, "composition preserved by the span-to-corelation functor", ok)
    assert inj.verdict == "pass", "injections must compose functorially"
    assert z_ok, (zsplit.verdict, only_iv, mediator_fails, replays)


def test_criterion_07_canonical_form_soundness():
    mismatches = 0
    for amb in (F, PF):
        cache: dict = {}
        for n in range(3):
            for m in range(3):
                cospans = [
                    Cospan(f, g)
                    for apex in range(4)
                    for f in amb.enumerate_morphisms(n, apex)
                    for g in amb.enumerate_morphisms(m, apex)
                ]
                reach = {
                    c: witness_reachable(
                        c, amb, depth=3, apex_bound=3, witness_cache=cache
                    )
                    for c in cospans
                }
                quotients = {c: gamma(c, amb) for c in cospans}
                for c1 in cospans:
                    for c2 in cospans:
                        canonical_eq = corel_equal(quotients[c1], quotients[c2])
                        oracle_eq = c2 in reach[c1]
                        if canonical_eq != oracle_eq:
                            mismatches += 1
    assert verdict(7, "canonical forms match the witness closure", mismatches == 0), mismatches


def test_criterion_08_abelian_iso():
    ring = GF(2)
    bad = 0
    # round trips on all relations with feet <= 2
    for n, m in product(range(3), repeat=2):
        for rows in enumerate_subspaces(n + m, ring):
            r = rel_from_subspace_rows(rows, n, m, G2)
            c = rel_to_corel(r)
            if corel_to_rel(c) != r or rel_to_corel(corel_to_rel(c)) != c:
                bad += 1
    # composition preserved in both directions, exhaustively at feet <= 2
    for n, z, m in product(range(3), repeat=3):
        for v_rows in enumerate_subspaces(n + z, ring):
            a = rel_from_subspace_rows(v_rows, n, z, G2)
            ca = rel_to_corel(a)
            for w_rows in enumerate_subspaces(z + m, ring):
                b = rel_from_subspace_rows(w_rows, z, m, G2)
                cb = rel_to_corel(b)
                if rel_to_corel(rel_compose(a, b)) != corel_compose(ca, cb):
                    bad += 1
                if corel_to_rel(corel_compose(ca, cb)) != rel_compose(a, b):
                    bad += 1
    # 500 seeded samples at dimension 3
    rng = random.Random(1)
    for _ in range(500):
        rows = random_subspace_rows(rng, 6, ring)
        r = rel_from_subspace_rows(rows, 3, 3, G2)
        if corel_to_rel(rel_to_corel(r)) != r:
            bad += 1
    assert verdict(8, "relations and corelations are isomorphic over fields", bad == 0), bad


def test_criterion_09_frobenius_suites():
    er = check_frobenius("er")
    er_ok = er.verdict == "pass" and all(h for _, h in er.details)
    q = dict(check_frobenius("q-subspace", scalars=(1, 2, 3, "1/2")).details)
    q_ok = all(
        q[f"scalar_cancel({r})"] for r in ("1", "2", "3", "1/2")
    )
    z = dict(check_frobenius("z-corel", scalars=(1, -1, 2)).details)
    z_ok = z["scalar_cancel(1)"] and z["scalar_cancel(-1)"] and not z["scalar_cancel(2)"]
    ok = er_ok and q_ok and z_ok
    assert verdict(9, "Frobenius law suites", ok), (er_ok, q_ok, z_ok)


def test_criterion_10_normal_form_algebra():
    start = time.monotonic()
    rng = random.Random(2)
    bad = 0
    for _ in range(1000):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = mat(ZZ, rows, cols, [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)])
        dec = snf(a)
        if mat_mul(mat_mul(dec.u, a), dec.v) != dec.d:
            bad += 1
            continue
        if abs(det_int(dec.u)) != 1 or abs(det_int(dec.v)) != 1:
            bad += 1
            continue
        diag = dec.diagonal
        nonzero = tuple(d for d in diag if d)
        if any(d < 0 for d in diag):
            bad += 1
            continue
        if any(nonzero[i + 1] % nonzero[i] for i in range(len(nonzero) - 1)):
            bad += 1
            continue
        if nonzero != invariant_factors(a):
            bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed < 60
    assert verdict(10, "Smith decomposition invariants", ok), (bad, elapsed)


def test_criterion_11_category_and_tensor_laws():
    bad = []
    for name in ("f", "pf", "gf2", "q", "z"):
        amb = get_ambient(name)
        laws = check_category_laws(amb, 2, entry_bound=2, seed=3, samples=500)
        tens = check_tensor_functorial(amb, 2, entry_bound=2, seed=4, samples=500)
        if laws.verdict != "pass":
            bad.append((name, "laws"))
        if tens.verdict != "pass":
            bad.append((name, "tensor"))
    assert verdict(11, "category and tensor laws", not bad), bad


def _lattice_rows(c: Corelation):
    """Rows of [L | R]: the lattice in Z^(dom + cod) an integer corelation is."""
    return tuple(a + b for a, b in zip(c.cospan.left.entries, c.cospan.right.entries))


def _z_corelations(apex_bound: int):
    """Every integer corelation reached from a cospan with feet <= 2, apex
    <= apex_bound and entries in {-1, 0, 1}, keyed by its feet, in a fixed
    order."""
    found: dict = {}
    for n, m, apex in product(range(3), range(3), range(apex_bound + 1)):
        for f in Z_SPLIT.enumerate_morphisms(n, apex, 1):
            for g in Z_SPLIT.enumerate_morphisms(m, apex, 1):
                found.setdefault((n, m), {})[gamma(Cospan(f, g), Z_SPLIT)] = None
    return {feet: list(cs) for feet, cs in found.items()}


def test_criterion_12_z_composition_oracle():
    """Integer corelation composition and pi against an independent oracle.

    An integer corelation n -> m is the lattice spanned by the rows of
    [L | R].  The oracle (``perfbench/oracles.py``) composes two lattices
    through an integer left kernel, takes the pushout of a span as the left
    kernel of [f; -g], and returns the Hermite basis.  The program's rows
    must equal that basis exactly: the same lattice, in canonical form.
    Cases: every composable pair of corelations reached from cospans with
    feet <= 2, apex <= 1 and entries in {-1, 0, 1}; 4,000 seeded pairs at
    apex <= 2; every span of split monos with feet and apex <= 2 and entries
    in [-2, 2].
    """
    start = time.monotonic()
    mismatches = []

    def expect(rows, oracle_rows, ncols, case):
        if rows != hnf(rows, ncols) or rows != tuple(map(tuple, oracle_rows)):
            mismatches.append(case)

    def compose_case(a, b):
        got = _lattice_rows(corel_compose(a, b))
        oracle = z_compose((a.dom, a.cod, _lattice_rows(a)), (b.dom, b.cod, _lattice_rows(b)))
        expect(got, oracle[2], a.dom + b.cod, (a, b))

    small = _z_corelations(1)
    cases = 0
    for n, k, m in product(range(3), repeat=3):
        for a in small[(n, k)]:
            for b in small[(k, m)]:
                compose_case(a, b)
                cases += 1
    wide = _z_corelations(2)
    rng = random.Random(12)
    for _ in range(4000):
        n, k, m = (rng.randrange(3) for _ in range(3))
        compose_case(rng.choice(wide[(n, k)]), rng.choice(wide[(k, m)]))
    for n, m, apex in product(range(3), repeat=3):
        lefts = list(Z_SPLIT.enumerate_a_morphisms(apex, n, 2))
        rights = list(Z_SPLIT.enumerate_a_morphisms(apex, m, 2))
        for f, g in product(lefts, rights):
            stacked = f.entries + tuple(tuple(-v for v in row) for row in g.entries)
            oracle = hnf(left_kernel(stacked, apex), n + m)
            expect(_lattice_rows(pi(Span(f, g), Z_SPLIT)), oracle, n + m, (f, g))
    elapsed = time.monotonic() - start
    ok = cases == 4105 and not mismatches and elapsed < 30
    assert verdict(12, "integer composition matches the lattice oracle", ok), (cases, mismatches[:3], elapsed)
