import hashlib
import json
import os
import subprocess
import sys

import pytest

import corelate
from corelate.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- eval ---------------------------------------------------------------------


def test_eval_er_extra_law(capsys):
    code, out, _ = run(capsys, "eval", "--theory", "er", "unit ; counit")
    assert code == 0
    assert out.strip() == "corel f 0 -> 0 : {}"


def test_eval_type_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--theory", "er", "unit ; mult")
    assert code == 2
    assert "1 vs 2" in err


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--theory", "er", "unit ;; mult")
    assert code == 2


def test_eval_subspace_scalar(capsys):
    code, out, _ = run(capsys, "eval", "--theory", "q-subspace", "scalar(2);coscalar(2)")
    assert code == 0
    assert out.strip() == "subspace q 1 -> 1 : [[1,1]]"


def test_eval_unknown_theory(capsys):
    code, _, err = run(capsys, "eval", "--theory", "bogus", "id(1)")
    assert code == 2


# --- equal --------------------------------------------------------------------


def test_equal_frobenius_pair(capsys):
    code, out, _ = run(
        capsys,
        "equal",
        "--theory",
        "er",
        "(comult @ id(1)) ; (id(1) @ mult)",
        "mult ; comult",
    )
    assert code == 0
    assert out.strip() == "equal"


def test_equal_z_scalars_exit_3(capsys):
    code, out, _ = run(capsys, "equal", "--theory", "z-corel", "scalar(2);coscalar(2)", "id(1)")
    assert code == 3
    assert out.strip() == "not equal"


def test_equal_malformed_exit_2(capsys):
    code, _, _ = run(capsys, "equal", "--theory", "er", "mult ;", "id(1)")
    assert code == 2


# --- compose / normalize ---------------------------------------------------------


def test_compose_cospans(capsys):
    code, out, _ = run(
        capsys,
        "compose",
        "--ambient",
        "f",
        "cospan { left = fn 2 -> 1 : [0,0], right = fn 1 -> 1 : [0] }",
        "cospan { left = fn 1 -> 1 : [0], right = fn 2 -> 1 : [0,0] }",
    )
    assert code == 0
    assert out.strip() == "cospan { left = fn 2 -> 1 : [0,0], right = fn 2 -> 1 : [0,0] }"


def test_compose_kind_mismatch(capsys):
    code, _, err = run(
        capsys,
        "compose",
        "--ambient",
        "f",
        "cospan { left = fn 1 -> 1 : [0], right = fn 1 -> 1 : [0] }",
        "span { left = fn 1 -> 1 : [0], right = fn 1 -> 1 : [0] }",
    )
    assert code == 2


def test_normalize_cospan(capsys):
    code, out, _ = run(
        capsys,
        "normalize",
        "--ambient",
        "f",
        "cospan { left = fn 1 -> 2 : [1], right = fn 1 -> 2 : [0] }",
    )
    assert code == 0
    assert out.strip() == "cospan { left = fn 1 -> 2 : [0], right = fn 1 -> 2 : [1] }"


def test_normalize_quotient_to_corelation(capsys):
    code, out, _ = run(
        capsys,
        "normalize",
        "--ambient",
        "z",
        "--quotient",
        "cospan { left = mat z 1x1 : [[2]], right = mat z 1x1 : [[2]] }",
    )
    assert code == 0
    assert "corel z 1 -> 1" in out


# --- check ----------------------------------------------------------------------


def test_check_collapse_counterexample_expected_fail(capsys):
    # expected-fail mode: finding the counterexample exits 0
    code, out, _ = run(capsys, "check", "assumption31", "--C", "f", "--A", "f", "--bound", "2")
    assert code == 0
    assert "verdict=fail" in out
    assert "fn 2 -> 1 : [0,0]" in out


def test_check_injections_pass(capsys):
    code, out, _ = run(capsys, "check", "assumption31", "--C", "f", "--A", "inj", "--bound", "3")
    assert code == 0
    assert "verdict=pass" in out


def test_check_square(capsys):
    code, out, _ = run(capsys, "check", "square", "--C", "f", "--A", "inj", "--bound", "3")
    assert code == 0
    assert "verdict=pass" in out


def test_check_unexpected_verdict_exit_1(capsys):
    code, _, _ = run(
        capsys,
        "check", "assumption31", "--C", "f", "--A", "f", "--bound", "2", "--expect", "pass",
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv, verdict",
    [
        # below the least bound or entry bound of a known failure: pass, exit 0
        (("assumption31", "--C", "z", "--A", "split", "--bound", "1"), "pass"),
        (("assumption31", "--C", "z", "--A", "split", "--bound", "2", "--entry-bound", "0"), "pass"),
        (("assumption31", "--C", "f", "--A", "all", "--bound", "1"), "pass"),
        (("assumption33", "--C", "f", "--A", "all", "--bound", "1"), "pass"),
        (("assumption33", "--C", "f", "--A", "all", "--bound", "2"), "pass"),
        (("pi-functorial", "--C", "z", "--A", "split", "--bound", "1"), "pass"),
        # at the least bounds: fail, exit 0
        (("assumption31", "--C", "z", "--A", "split", "--bound", "2", "--entry-bound", "1"), "fail"),
        (("assumption33", "--C", "f", "--A", "all", "--bound", "3"), "fail"),
        (("pi-functorial", "--C", "z", "--A", "split", "--bound", "2", "--samples", "0"), "fail"),
    ],
)
def test_known_failures_respect_the_bounds(capsys, argv, verdict):
    code, out, _ = run(capsys, "check", *argv)
    assert f"verdict={verdict}" in out
    assert code == 0


@pytest.mark.parametrize("entry_bound, verdict", [(0, "pass"), (1, "fail")])
def test_pi_functorial_sweep_respects_the_entry_bound(capsys, entry_bound, verdict):
    from corelate.literals import parse_span
    from corelate.spancospan import get_ambient

    code, out, _ = run(
        capsys, "check", "pi-functorial", "--C", "z", "--A", "split", "--bound", "2",
        "--entry-bound", str(entry_bound), "--samples", "0", "--format", "records",
    )
    assert code == 0
    record = json.loads(out)
    assert (record["entry_bound"], record["verdict"]) == (entry_bound, verdict)
    z = get_ambient("z", "split")
    for ce in record["counterexamples"]:
        for text in (ce["span1"], ce["span2"]):
            s = parse_span(text, z)
            entries = [v for leg in s for row in leg.entries for v in row]
            assert max(map(abs, entries), default=0) <= entry_bound


@pytest.mark.parametrize("scalars, verdict", [("1,-1", "pass"), ("2", "fail"), (None, "fail")])
def test_z_corel_frobenius_expects_failure_only_on_non_units(capsys, scalars, verdict):
    argv = ["check", "frobenius", "--theory", "z-corel"] + (["--scalars", scalars] if scalars else [])
    code, out, _ = run(capsys, *argv)
    assert f"verdict={verdict}" in out
    assert code == 0


def test_check_unknown_name_exit_2(capsys):
    with pytest.raises(SystemExit):
        run(capsys, "check", "bogus")


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--theory", "gf4-subspace", "id(1)"),
        ("check", "laws", "--C", "gf4", "--A", "all"),
        ("check", "laws", "--C", "gfx"),
        ("check", "laws", "--C", "foo"),
        ("check", "laws", "--C", "q", "--A", "split"),
        ("check", "assumption31", "--C", "f", "--A", "split"),
        ("compose", "--ambient", "gf6", "cospan {}", "cospan {}"),
    ],
)
def test_bad_ring_or_ambient_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--bound", "--entry-bound", "--samples"])
@pytest.mark.parametrize("command", ["check", "report"])
def test_negative_bound_rejected_exit_2(capsys, command, flag):
    argv = [command, flag, "-1"]
    if command == "check":
        argv[1:1] = ["assumption31", "--C", "f", "--A", "inj"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


def _cli(*argv, timeout=60):
    """Run the CLI in a fresh interpreter, so a hang or a crash fails the test."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(corelate.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "corelate.cli", *argv], env=env, capture_output=True, text=True, timeout=timeout
    )


def test_split_mono_sampling_with_empty_entry_box_exit_2():
    # used to loop forever rejecting zero matrices; run apart so a hang fails
    done = _cli("check", "pi-functorial", "--C", "z", "--A", "split", "--bound", "2", "--entry-bound", "0")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: no split mono ") and done.stderr.count("\n") == 1


def test_eval_long_chain_exit_0():
    layers = " ; ".join(["(comult ; mult)"] * 2000)
    done = _cli("eval", "--theory", "er", layers)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "corel f 1 -> 1 : {{x0,y0}}\n"
    assert done.stderr == ""


@pytest.mark.parametrize("closing", [500, 499])
def test_eval_deep_parentheses_no_traceback(closing):
    done = _cli("eval", "--theory", "er", "(" * 500 + "id(1)" + ")" * closing)
    if closing == 500:
        assert done.returncode == 0
        assert done.stdout == "corel f 1 -> 1 : {{x0,y0}}\n"
    else:
        assert done.returncode == 2
        assert done.stderr.startswith("error: expected ')'") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def test_huge_field_characteristic_exit_2_quickly():
    # 10^30 + 57 is beyond the deterministic primality test; trial division hung
    done = _cli("eval", "--theory", "gf1000000000000000000000000000057-subspace", "id(1)", timeout=20)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("scalars", ["x", "1/0", "1,,2"])
def test_bad_scalars_exit_2(capsys, scalars):
    code, out, err = run(capsys, "check", "frobenius", "--theory", "q-subspace", "--scalars", scalars)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --scalars ") and err.count("\n") == 1


def test_check_frobenius_records_deterministic(capsys):
    code1, out1, _ = run(capsys, "check", "frobenius", "--theory", "z-corel", "--format", "records")
    code2, out2, _ = run(capsys, "check", "frobenius", "--theory", "z-corel", "--format", "records")
    assert code1 == code2 == 0  # expected-fail via the known-verdicts table
    assert out1 == out2
    record = json.loads(out1)
    assert record["verdict"] == "fail"
    assert record["details"]["scalar_cancel(2)"] is False
    assert record["details"]["w_special"] is True


def test_check_records_byte_identical_for_fixed_seed(capsys):
    args = [
        "check", "pi-functorial", "--C", "f", "--A", "inj",
        "--bound", "2", "--seed", "7", "--samples", "60", "--format", "records",
    ]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    record = json.loads(out1)
    assert record["seed"] == 7


def test_check_laws_cli(capsys):
    code, out, _ = run(
        capsys, "check", "laws", "--C", "gf2", "--bound", "2", "--samples", "40"
    )
    assert code == 0
    assert "verdict=pass" in out


def test_report_suite_expected_verdicts(capsys):
    code, out, _ = run(capsys, "report", "--samples", "40", "--format", "records")
    assert code == 0
    # the records are byte-identical across refactors; a deliberate change
    # of record updates this pin
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "96fd1e83ec4248c71a9924e555b430c1a57d3755f39687c13b7a6da6dc47e0f0"
    )
    lines = [json.loads(line) for line in out.strip().splitlines()]
    verdicts = {(r["check"], r["C"], r["A"]): r["verdict"] for r in lines}
    assert verdicts[("assumption31", "f", "inj")] == "pass"
    assert verdicts[("assumption31", "f", "all")] == "fail"
    assert verdicts[("assumption31", "z", "split")] == "fail"
    assert verdicts[("assumption33", "f", "all")] == "fail"
    assert verdicts[("pi-functorial", "z", "split")] == "fail"
    assert verdicts[("frobenius", "z-corel", "-")] == "fail"
    assert verdicts[("square", "z", "split")] == "pass"
    assert verdicts[("frobenius", "er", "-")] == "pass"
