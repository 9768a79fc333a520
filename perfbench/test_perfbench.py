"""Tests of the benchmark's own parts: each answer checker accepts the
program's right answers and rejects wrong ones, and the inputs depend on
the seed alone.

Run from the checkout root:  python3 -m pytest -q perfbench
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import circuits  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from circuits import G, ID1, seq  # noqa: E402
from corelate.corelrel import rel_subspace_rows  # noqa: E402
from corelate.diagrams import eval_term, get_theory, parse_term  # noqa: E402
from corelate.finfn import FinMap  # noqa: E402

FIELDS = (("gf2-subspace", 2), ("q-subspace", 0))


def _eval(theory, layers):
    return eval_term(parse_term(circuits.circuit_text(layers)), get_theory(theory))


def _random_circuits(blocks, count, seed=0):
    rng = random.Random(seed)
    for k in range(count):
        width = 1 + k % 6
        yield width, circuits.random_circuit(rng, blocks, width, 1 + k % 4)


def test_checkers_accept_the_programs_answers():
    for theory, blocks, partial in (("er", circuits.ER_BLOCKS, False), ("per", circuits.PER_BLOCKS, True)):
        for width, layers in _random_circuits(blocks, 12):
            assert oracles.check_gluing(layers, width, partial, _eval(theory, layers))
    for theory, p in FIELDS:
        for width, layers in _random_circuits(circuits.LINEAR_BLOCKS[theory], 8):
            assert oracles.check_field(layers, width, p, rel_subspace_rows(_eval(theory, layers)))
    for width, layers in _random_circuits(circuits.LINEAR_BLOCKS["z-corel"], 8):
        assert oracles.check_z(layers, width, _eval("z-corel", layers))


def _merge_two_blocks(result):
    """The same corelation with apex points 0 and 1 identified."""
    left, right = result.cospan.left, result.cospan.right
    merge = lambda v: v if v is None or v == 0 else v - 1
    new_left = FinMap(left.dom, left.cod - 1, tuple(merge(v) for v in left.table))
    new_right = FinMap(right.dom, right.cod - 1, tuple(merge(v) for v in right.table))
    return type(result)(result.ambient, type(result.cospan)(new_left, new_right))


def test_gluing_rejects_merged_blocks():
    layers = [[ID1, ID1]]  # two separate wires: blocks {x0,y0} and {x1,y1}
    result = _eval("er", layers)
    assert result.cospan.left.cod == 2
    assert oracles.check_gluing(layers, 2, False, result)
    assert not oracles.check_gluing(layers, 2, False, _merge_two_blocks(result))


def test_gluing_tracks_undefined_points():
    cut = [[seq(G("comult"), circuits.par(G("undef"), ID1))]]  # the wire is sent to undef
    result = _eval("per", cut)
    assert result.cospan.left.table == (None,) and result.cospan.right.table == (None,)
    assert oracles.check_gluing(cut, 1, True, result)
    assert not oracles.check_gluing([[ID1]], 1, True, result)


def test_field_check_rejects_a_dropped_row():
    layers = [[seq(G("b.comult"), G("w.mult")), circuits.SWAP]]
    for theory, p in FIELDS:
        rows = rel_subspace_rows(_eval(theory, layers))
        assert len(rows) >= 2
        assert oracles.check_field(layers, 3, p, rows)
        for k in range(len(rows)):
            assert not oracles.check_field(layers, 3, p, rows[:k] + rows[k + 1 :])


def test_z_check_rejects_identity_for_scalar_cancel():
    layers = [[seq(G("scalar", 2), G("coscalar", 2))]]
    assert oracles.check_z(layers, 1, _eval("z-corel", layers))
    assert not oracles.check_z(layers, 1, _eval("z-corel", [[ID1]]))
    assert oracles.z_lattice(layers, 1) == ((2, 2),)


def test_hnf_and_left_kernel():
    assert oracles.hnf([[2, 4], [3, 5]], 2) == ((1, 1), (0, 2))
    assert oracles.hnf([[0, 0]], 2) == ()
    kernel = oracles.left_kernel([[2], [3]], 1)
    assert len(kernel) == 1 and abs(kernel[0][0]) == 3 and abs(kernel[0][1]) == 2


def test_invariant_factors_from_minors():
    assert oracles.invariant_factors([[1, 1], [0, 2]], 2) == [1, 2]
    assert oracles.invariant_factors([[1, 0], [0, 1]], 2) == [1, 1]
    assert oracles.invariant_factors([[2], [4]], 1) == [2]
    assert oracles.invariant_factors([[1, 2]], 2) == [1, 0]


def _entry(check, c, a):
    return next(e for e in workloads.SUITE if e[:3] == (check, c, a))


def test_record_checks_reject_wrong_counterexamples():
    z31 = _entry("assumption31", "z", "split")
    good = {"check": "assumption31", "C": "z", "A": "split", "verdict": "fail",
            "counterexamples": [{"mediator": "mat z 2x2 : [[1,1],[0,2]]"}]}
    assert workloads.check_record(z31, good)
    split = dict(good, counterexamples=[{"mediator": "mat z 2x2 : [[1,1],[0,1]]"}])
    assert not workloads.check_record(z31, split)
    assert not workloads.check_record(z31, dict(good, verdict="pass", counterexamples=[]))

    f31 = _entry("assumption31", "f", "all")
    rec = {"check": "assumption31", "C": "f", "A": "all", "verdict": "fail",
           "counterexamples": [{"mediator": "fn 2 -> 1 : [0,0]"}]}
    assert workloads.check_record(f31, rec)
    assert not workloads.check_record(f31, dict(rec, counterexamples=[{"mediator": "fn 2 -> 2 : [0,1]"}]))

    pi = _entry("pi-functorial", "z", "split")
    rec = {"check": "pi-functorial", "C": "z", "A": "split", "verdict": "fail",
           "counterexamples": [{"shape": "iv"}]}
    assert workloads.check_record(pi, rec)
    assert not workloads.check_record(pi, dict(rec, counterexamples=[{"shape": "iv"}, {"shape": "iii"}]))

    frob = _entry("frobenius", "z-corel", "-")
    rec = {"check": "frobenius", "C": "z-corel", "A": "-", "verdict": "fail",
           "counterexamples": [{"law": "scalar_cancel(2)"}],
           "details": {"w_assoc": True, "scalar_cancel(2)": False}}
    assert workloads.check_record(frob, rec)
    worse = dict(rec, details={"w_assoc": False, "scalar_cancel(2)": False})
    assert not workloads.check_record(frob, worse)


def test_inputs_depend_on_the_seed_alone():
    for cls in (workloads.FnCircuits, workloads.LinearCircuits, workloads.CheckReport):
        a, b, c = cls().make_ops(7), cls().make_ops(7), cls().make_ops(8)
        assert [op.label for op in a] == [op.label for op in b]
        assert [op.label for op in a] != [op.label for op in c]
        assert len(a) >= 40
    for cls in (workloads.FnCircuits, workloads.LinearCircuits):
        a, c = cls().make_ops(7), cls().make_ops(8)
        assert sorted(op.data[2] for op in a) != sorted(op.data[2] for op in c)
        assert sorted(op.label for op in a) == sorted(op.label for op in c)  # same plan
    # check-report keeps the check seeds fixed; the seed only orders the checks
    a, c = workloads.CheckReport().make_ops(7), workloads.CheckReport().make_ops(8)
    assert sorted(op.label for op in a) == sorted(op.label for op in c)


def test_suite_matches_the_default_report():
    assert len(workloads.SUITE) == 28
    assert sum(1 for e in workloads.SUITE if e[4]) == 12
    assert [e[5] for e in workloads.SUITE].count("fail") == 5
    assert len(workloads.CheckReport().make_ops(0)) == 28 + 2 * 11


def test_metric_names_match_benchmark_json():
    import json

    import tracing

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import refkernel

    layer = tracing.layer_metrics(tracing.Tracer(), 1, 1.0, refkernel.SpeedMeter().stolen_between())
    names = list(layer) + ["trace.overhead_ratio"]
    assert names == [m["name"] for m in spec["per_layer"]]
    units = {name: unit for name, (_, unit) in layer.items()}
    assert all(units[m["name"]] == m["unit"] for m in spec["per_layer"] if m["name"] in units)


def test_self_times_leave_out_the_reference_kernel():
    import refkernel
    import tracing

    tracer = tracing.Tracer()
    outer = tracer.name_id("cli.main")
    inner = tracer.name_id("verify.check_square_commutes")
    for nid, parent, start, end in ((outer, -1, 0.0, 10.0), (inner, 0, 2.0, 6.0)):
        tracer.span_name.append(nid)
        tracer.parent.append(parent)
        tracer.op.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    meter = refkernel.SpeedMeter()
    for at, spent in ((1.0, 0.5), (3.0, 0.5), (4.0, 1.0), (12.0, 9.0)):  # the last is outside both
        meter.at.append(at)
        meter.spent.append(spent)
    assert list(tracer.self_times(meter.stolen_between())) == [10.0 - 2.0 - 2.5, 4.0 - 1.5]
