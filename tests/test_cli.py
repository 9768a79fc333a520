import hashlib
import inspect
import json
import os
import resource
import subprocess
import sys
import time

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


def test_span_quotient_over_a_ring_names_the_ambient(capsys):
    span = "span { left = mat z 1x1 : [[2]], right = mat z 1x1 : [[2]] }"
    code, out, err = run(capsys, "normalize", "--ambient", "z", "--quotient", span)
    assert (code, out, err) == (2, "", "error: relations need a matrix ambient over a field, got z\n")


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
        # A the whole category: below and at the least bounds
        (("assumption31", "--C", "z", "--A", "all", "--bound", "1", "--entry-bound", "1"), "pass"),
        (("assumption31", "--C", "z", "--A", "all", "--bound", "2", "--entry-bound", "0"), "pass"),
        (("assumption33", "--C", "pf", "--A", "all", "--bound", "1"), "pass"),
        (("assumption31", "--C", "z", "--A", "all", "--bound", "1", "--entry-bound", "2"), "fail"),
        (("assumption31", "--C", "pf", "--A", "all", "--bound", "2"), "fail"),
        (("pi-functorial", "--C", "f", "--A", "f", "--bound", "2", "--samples", "0"), "fail"),
    ],
)
def test_known_failures_respect_the_bounds(capsys, argv, verdict):
    code, out, _ = run(capsys, "check", *argv)
    assert f"verdict={verdict}" in out
    assert code == 0


@pytest.mark.parametrize("entry_bound, verdict", [(0, "pass"), (1, "fail")])
def test_pi_functorial_sweep_respects_the_entry_bound(capsys, entry_bound, verdict):
    from corelate.literals import parse_pair
    from corelate.spancospan import Span, get_ambient

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
            s = parse_pair(text, z, Span)
            entries = [v for leg in s for row in leg.entries for v in row]
            assert max(map(abs, entries), default=0) <= entry_bound


@pytest.mark.parametrize(
    "theory, scalars, verdict",
    [
        ("z-corel", "1,-1", "pass"),
        ("z-corel", "2", "fail"),
        ("z-corel", None, "fail"),
        ("q-subspace", "0", "fail"),
        ("q-subspace", "1/2", "pass"),
        ("gf2-subspace", "2", "fail"),
        ("gf3-subspace", "3", "fail"),
    ],
)
def test_frobenius_expects_failure_only_on_non_units(capsys, theory, scalars, verdict):
    argv = ["check", "frobenius", "--theory", theory] + (["--scalars", scalars] if scalars else [])
    code, out, _ = run(capsys, *argv)
    assert f"verdict={verdict}" in out
    assert code == 0


@pytest.mark.parametrize("theory", ["ER", " per ", "Z-COREL", "GF2-Subspace"])
@pytest.mark.parametrize("output", ["text", "records"])
def test_frobenius_normalises_the_theory_name(capsys, theory, output):
    # the scalars, the law suite and the record follow the normalised name
    code, out, err = run(capsys, "check", "frobenius", "--theory", theory, "--format", output)
    expected = run(capsys, "check", "frobenius", "--theory", theory.strip().lower(), "--format", output)
    assert (code, out, err) == expected
    assert out and err == ""


def test_check_unknown_name_exit_2(capsys):
    with pytest.raises(SystemExit):
        run(capsys, "check", "bogus")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("check", "laws", "--C", "gf2", "--bound", "x"), "argument --bound: expected a non-negative integer, got 'x'"),
        (("check", "laws", "--bogus"), "unrecognized arguments: --bogus"),
        (("check", "bogus"), "argument check: invalid choice: 'bogus' (choose from "),
        ((), "the following arguments are required: command"),
    ],
)
def test_usage_errors_are_one_line_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_help_keeps_its_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: corelate check [-h]")


def _leg_pair(kind, left, right):
    return f"{kind} {{ left = {left}, right = {right} }}"


@pytest.mark.parametrize(
    "ambient, literal, message",
    [
        ("f", _leg_pair("cospan", "par 1 -> 1 : [_]", "par 1 -> 1 : [0]"), "a par leg is not a morphism of ambient f"),
        ("f", _leg_pair("span", "mat q 1x1 : [[1]]", "mat q 1x1 : [[1]]"), "a mat q leg is not a morphism of ambient f"),
        ("gf2", _leg_pair("cospan", "fn 1 -> 1 : [0]", "fn 1 -> 1 : [0]"), "a fn leg is not a morphism of ambient gf2"),
        ("gf2", _leg_pair("cospan", "mat gf3 1x1 : [[2]]", "mat gf3 1x1 : [[1]]"), "a mat gf3 leg is not a morphism of ambient gf2"),
        ("q", _leg_pair("cospan", "mat z 1x1 : [[2]]", "mat z 1x1 : [[1]]"), "a mat z leg is not a morphism of ambient q"),
        ("q", _leg_pair("span", "mat q 1x1 : [[2]]", "mat z 1x1 : [[1]]"), "a mat z leg is not a morphism of ambient q"),
    ],
)
def test_literal_leg_the_ambient_cannot_hold_exit_2(capsys, ambient, literal, message):
    for argv in (("normalize", "--ambient", ambient, literal), ("compose", "--ambient", ambient, literal, literal)):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_total_leg_in_partial_ambient(capsys):
    code, out, err = run(capsys, "normalize", "--ambient", "pf", _leg_pair("cospan", "fn 1 -> 1 : [0]", "par 1 -> 1 : [_]"))
    assert (code, out, err) == (0, "cospan { left = par 1 -> 1 : [0], right = par 1 -> 1 : [_] }\n", "")


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


def _cli(*argv, timeout=60, address_space=None):
    """Run the CLI in a fresh interpreter, so a hang or a crash fails the
    test; ``address_space`` caps the child's memory, in bytes."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(corelate.__file__)))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "corelate.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=None if address_space is None else cap,
    )


def test_split_mono_sampling_with_empty_entry_box_exit_2():
    # used to loop forever rejecting zero matrices; run apart so a hang fails
    done = _cli("check", "pi-functorial", "--C", "z", "--A", "split", "--bound", "2", "--entry-bound", "0")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: no split mono ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "assumption31", "--C", "f", "--A", "inj", "--bound", "99"),
        ("check", "assumption31", "--C", "z", "--A", "split", "--bound", "2", "--entry-bound", "40"),
        ("check", "square", "--C", "f", "--A", "inj", "--bound", "12"),
        ("check", "assumption33", "--C", "gf2", "--bound", "1000000"),
        ("check", "square", "--C", "q", "--bound", "1000000", "--entry-bound", "0"),
        ("report", "--bound", "99"),
    ],
    ids=["a31-f-inj-99", "a31-z-split-entries-40", "square-f-inj-12", "a33-gf2-1000000", "square-q-1000000", "report-99"],
)
def test_sweeps_above_the_case_budget_refused_exit_2(argv):
    # the first three printed nothing until a timeout killed them; under a
    # 1.5 GB cap, in a child process, a sweep that built its legs would fail
    done = _cli(*argv, timeout=30, address_space=3 << 29)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("error: a sweep of ") and done.stderr.count("\n") == 1
    assert "would enumerate more than 1,000,000 morphisms; lower the bounds" in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "laws", "--C", "q", "--A", "all", "--bound", "1000", "--samples", "2"),
        ("check", "tensor-functorial", "--C", "q", "--A", "all", "--bound", "400", "--samples", "2"),
        ("check", "laws", "--C", "f", "--A", "inj", "--bound", "2", "--samples", "100000000"),
        ("check", "pi-functorial", "--C", "z", "--A", "split", "--bound", "16"),
    ],
    ids=["laws-q-1000", "tensor-q-400", "laws-f-10^8-samples", "pi-z-split-16"],
)
def test_sampled_checks_above_the_sample_budget_refused_exit_2(argv):
    # each printed nothing until a timeout killed it (the split monos of
    # pi-functorial by rejection); under a 1.5 GB cap, in a child process,
    # a check that drew would hang or fail
    done = _cli(*argv, timeout=30, address_space=3 << 29)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "would take more than 10,000,000 units of work; lower the bounds or the samples" in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "laws", "--C", "q", "--bound", "1", "--samples", "1", "--entry-bound", "1000000000"),
        ("check", "laws", "--C", "gf1000000007", "--bound", "1", "--samples", "1"),
    ],
    ids=["laws-q-entries-10^9", "laws-gf-10^9"],
)
def test_sampled_checks_with_wide_entry_ranges_run_exit_0(argv):
    # an entry is drawn from its range without listing the range, so 2 *
    # 10^9 + 1 (or 10^9 + 7) entry values cost a draw no more than three;
    # under the same 1.5 GB cap and timeout as the refusals above
    done = _cli(*argv, timeout=30, address_space=3 << 29)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert "verdict=pass" in done.stdout


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


@pytest.mark.parametrize(
    "theory, term",
    [
        ("er", "id(100000000)"),
        ("q-subspace", "id(100000000)"),
        ("per", "sym(1,100000000)"),
        ("z-corel", "id(1025)"),
        ("gf2-subspace", "sym(512,513) ; sym(513,512)"),
        ("er", "id(" + "9" * 5000 + ")"),
        ("q-subspace", "scalar(" + "9" * 5000 + ")"),
    ],
    ids=["er-id", "q-id", "per-sym", "z-id-1025", "gf2-sym-1025", "id-5000-digits", "scalar-5000-digits"],
)
def test_eval_refuses_oversized_leaves_exit_2(theory, term):
    # under a 1.5 GB cap, in a child process: a leaf the parser builds in
    # full would fail the child with a MemoryError, not this process
    done = _cli("eval", "--theory", theory, term, address_space=3 << 29)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


HUGE = 100_000_000


@pytest.mark.parametrize("quotient", [(), ("--quotient",)], ids=["iso-class", "quotient"])
@pytest.mark.parametrize(
    "ambient, literal",
    [
        ("f", f"cospan {{ left = fn 0 -> {HUGE} : [], right = fn 0 -> {HUGE} : [] }}"),
        ("f", f"span {{ left = fn 0 -> {HUGE} : [], right = fn 0 -> 1 : [] }}"),
        ("pf", f"cospan {{ left = par {HUGE} -> 1 : [], right = par 0 -> 1 : [] }}"),
        ("z", f"cospan {{ left = mat z {HUGE}x0 : [], right = mat z {HUGE}x0 : [] }}"),
        ("gf2", f"cospan {{ left = mat gf2 0x{HUGE} : [], right = mat gf2 0x1 : [] }}"),
        ("q", "cospan { left = mat q 1025x0 : [], right = mat q 1025x0 : [] }"),
    ],
    ids=["fn-cod", "fn-span", "par-dom", "mat-rows", "mat-cols", "mat-1025-rows"],
)
def test_normalize_refuses_oversized_literal_shapes_exit_2(ambient, literal, quotient):
    # under a 1.5 GB cap, in a child process: a dom, cod, row or column
    # count above MAX_LEAF_WIRES is refused before anything is built
    done = _cli("normalize", "--ambient", ambient, *quotient, literal, address_space=3 << 29)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: a shape of ") and done.stderr.count("\n") == 1
    assert "more than the 1024 a literal may have" in done.stderr


def test_normalize_takes_literal_shapes_up_to_the_leaf_limit(capsys):
    literal = "cospan { left = fn 0 -> 1024 : [], right = fn 0 -> 1024 : [] }"
    assert run(capsys, "normalize", "--ambient", "f", literal) == (0, literal + "\n", "")


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


@pytest.mark.parametrize(
    "ring, entry, message",
    [
        ("z", "1/2", "'1/2' is not an integer"),
        ("q", "x", "'x' is not a rational"),
        ("q", "x/2", "'x/2' is not a rational"),
        ("gf3", "x", "'x' is not an integer residue mod 3"),
        ("gf3", "1/3", "'1/3' is not an integer residue mod 3"),
    ],
)
def test_bad_matrix_literal_entry_exit_2(capsys, ring, entry, message):
    literal = f"cospan {{ left = mat {ring} 1x1 : [[{entry}]], right = mat {ring} 1x1 : [[1]] }}"
    code, out, err = run(capsys, "normalize", "--ambient", ring, literal)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def _cospan_literal(ring, entry):
    return f"cospan {{ left = mat {ring} 1x1 : [[{entry}]], right = mat {ring} 1x1 : [[1]] }}"


# numerals are an optional sign and ASCII digits: int() and Fraction() also
# read underscores and other scripts' digits, which named the wrong value
def _fn_literal(kind, entry):
    return f"cospan {{ left = {kind} 1 -> 1 : [{entry}], right = {kind} 1 -> 1 : [0] }}"


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("normalize", "--ambient", "z", _cospan_literal("z", "1_0")), "'1_0' is not an integer", id="z-underscore"),
        pytest.param(("normalize", "--ambient", "z", _cospan_literal("z", "١")), "'١' is not an integer", id="z-arabic-indic"),
        pytest.param(("normalize", "--ambient", "q", _cospan_literal("q", "1_0/3")), "'1_0/3' is not a rational", id="q-underscore"),
        pytest.param(("normalize", "--ambient", "q", _cospan_literal("q", "1/٣")), "'1/٣' is not a rational", id="q-arabic-indic"),
        pytest.param(
            ("normalize", "--ambient", "gf3", _cospan_literal("gf3", "1_1")), "'1_1' is not an integer residue mod 3", id="gf3-underscore"
        ),
        pytest.param(("normalize", "--ambient", "f", _fn_literal("fn", "0_0")), "'0_0' is not an integer", id="fn-underscore"),
        pytest.param(("normalize", "--ambient", "f", _fn_literal("fn", "x")), "'x' is not an integer", id="fn-letter"),
        pytest.param(("normalize", "--ambient", "pf", _fn_literal("par", "٠")), "'٠' is not an integer", id="par-arabic-indic"),
        pytest.param(
            ("normalize", "--ambient", "z", "cospan { left = mat z ١x1 : [[1]], right = mat z 1x1 : [[1]] }"),
            "unparseable morphism literal: 'mat z ١x1 : [[1]]'",
            id="mat-shape-arabic-indic",
        ),
        pytest.param(("eval", "--theory", "er", "id(١)"), "unexpected character '١' (at position 3)", id="term-arabic-indic"),
        pytest.param(("eval", "--theory", "gf٣-subspace", "id(1)"), "no theory named 'gf٣-subspace'", id="theory-arabic-indic"),
        pytest.param(("check", "laws", "--C", "gf²"), "unknown ring tag 'gf²'", id="ring-superscript"),
        pytest.param(
            ("check", "frobenius", "--theory", "q-subspace", "--scalars", "1_0"),
            "--scalars takes comma-separated rationals, got '1_0'",
            id="scalars-underscore",
        ),
    ],
)
def test_non_ascii_or_underscored_numerals_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# the interpreter converts at most 4,300 digits to an int; a longer
# numeral is a bad literal, not a crash
LONG = "9" * 5000
TOO_LONG = "a number of 5000 digits is too long"


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("normalize", "--ambient", "z", _cospan_literal("z", LONG)), TOO_LONG, id="z-entry"),
        pytest.param(("normalize", "--ambient", "z", _cospan_literal("z", "-" + LONG)), TOO_LONG, id="z-negative-entry"),
        pytest.param(("normalize", "--ambient", "gf3", _cospan_literal("gf3", LONG)), TOO_LONG, id="gf3-entry"),
        pytest.param(("normalize", "--ambient", "q", _cospan_literal("q", LONG + "/3")), TOO_LONG, id="q-numerator"),
        pytest.param(("normalize", "--ambient", "q", _cospan_literal("q", "1/" + LONG)), TOO_LONG, id="q-denominator"),
        pytest.param(
            ("normalize", "--ambient", "z", f"cospan {{ left = mat z 1x{LONG} : [[1]], right = mat z 1x1 : [[1]] }}"),
            TOO_LONG,
            id="mat-shape",
        ),
        pytest.param(
            ("normalize", "--ambient", "f", f"cospan {{ left = fn {LONG} -> 1 : [0], right = fn 1 -> 1 : [0] }}"),
            TOO_LONG,
            id="fn-dom",
        ),
        pytest.param(
            ("normalize", "--ambient", "pf", f"cospan {{ left = par 1 -> {LONG} : [0], right = par 1 -> 1 : [0] }}"),
            TOO_LONG,
            id="par-cod",
        ),
        pytest.param(("normalize", "--ambient", "f", _fn_literal("fn", LONG)), TOO_LONG, id="fn-entry"),
        pytest.param(("check", "laws", "--C", f"gf{LONG}"), TOO_LONG, id="ring-tag"),
        pytest.param(("eval", "--theory", f"gf{LONG}-subspace", "id(1)"), TOO_LONG, id="theory-ring-tag"),
        pytest.param(
            ("check", "frobenius", "--theory", "q-subspace", "--scalars", f"1,{LONG}"),
            f"--scalars takes comma-separated rationals, got '1,{LONG}'",
            id="scalars",
        ),
    ],
)
def test_numbers_too_long_to_convert_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def _mat_cospan(left):
    return f"cospan {{ left = {left}, right = mat q 1x1 : [[1]] }}"


@pytest.mark.parametrize(
    "left, message",
    [
        ("mat q 1x1 : [[1]", "unclosed row '[1'"),
        ("mat q 2x1 : [[1],[1]", "unclosed row '[1'"),
        ("mat q 1x1 : [[1", "unparseable morphism literal: 'mat q 1x1 : [[1'"),
        ("mat q 1x1 : [1]", "expected a row, found '1'"),
        ("mat q 2x1 : [[1]]", "rows do not form a 2x1 matrix"),
    ],
)
def test_malformed_matrix_rows_exit_2(capsys, left, message):
    code, out, err = run(capsys, "normalize", "--ambient", "q", _mat_cospan(left))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("value", ["1_0", "\u0661"])
def test_count_flags_take_ascii_numerals_only(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["check", "laws", "--C", "gf2", "--bound", value])
    assert exc.value.code == 2
    assert f"expected a non-negative integer, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1_0", "\u0663", "-\u0661", "\uff11"])
@pytest.mark.parametrize("command", [["check", "laws", "--C", "gf2"], ["report"]], ids=["check", "report"])
def test_seed_takes_ascii_numerals_only(capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--seed", value])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: argument --seed: expected an integer, got {value!r}\n"


def test_seed_keeps_its_sign(capsys):
    argv = ("check", "laws", "--C", "gf2", "--bound", "1", "--samples", "2", "--seed", "-4", "--format", "records")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["seed"] == -4


@pytest.mark.parametrize(
    "argv, refused",
    [
        (("frobenius", "--theory", "er", "--C", "bogus", "--bound", "1"), "frobenius does not take --C, --bound"),
        (("frobenius", "--A", "inj"), "frobenius does not take --A"),
        (("square", "--samples", "5", "--seed", "9", "--scalars", "x"), "square does not take --scalars, --seed, --samples"),
        (("laws", "--C", "gf2", "--theory", "er"), "laws does not take --theory"),
        (("assumption31", "--samples", "0"), "assumption31 does not take --samples"),
    ],
)
def test_check_refuses_a_flag_the_check_does_not_take(capsys, argv, refused):
    assert run(capsys, "check", *argv) == (2, "", f"error: check {refused}\n")


def test_main_builds_its_parser_once_and_finds_each_command_per_call(capsys, monkeypatch):
    from corelate import cli

    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "cmd_eval", lambda args: 7)
    assert main(["eval", "--theory", "er", "id(1)"]) == 7
    monkeypatch.undo()
    assert run(capsys, "eval", "--theory", "er", "id(1)")[0] == 0


@pytest.mark.parametrize("theory", ["q-subspace", "z-corel"])
def test_eval_zero_denominator_scalar_exit_2(capsys, theory):
    code, out, err = run(capsys, "eval", "--theory", theory, "scalar(1/0)")
    assert code == 2
    assert out == ""
    assert err == "error: scalar 1/0 has a zero denominator (at position 9)\n"


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


# the records of `report` are byte-identical across refactors; a deliberate
# change of record updates these pins
REPORT_PINS = {
    (): "932363926958d1d4d1d1d00e2d0131a49362de81cde58047f61e828c98a2cf7a",
    ("--samples", "40"): "96fd1e83ec4248c71a9924e555b430c1a57d3755f39687c13b7a6da6dc47e0f0",
    ("--seed", "3", "--samples", "80"): "d1d3389155743e4c5f3f10eb8bb73a74f37c92b17934ab5604fd8788f974c309",
}


def assert_records_replay(out: str) -> None:
    """Every record of a pinned run is read back into the report it was
    written from, and every failing one's counterexamples still fail."""
    from corelate.verify import CheckReport, replay

    for line in out.splitlines():
        record = json.loads(line)
        report = CheckReport.from_record(record)
        assert report.to_record() == record
        if report.verdict == "fail":
            assert report.counterexamples and replay(report), record


def test_report_suite_expected_verdicts(capsys):
    code, out, _ = run(capsys, "report", "--samples", "40", "--format", "records")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_PINS[("--samples", "40")]
    assert_records_replay(out)
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


@pytest.mark.parametrize("argv", [(), ("--seed", "3", "--samples", "80")], ids=["default", "seed-3-samples-80"])
def test_report_records_match_their_pin(capsys, argv):
    code, out, _ = run(capsys, "report", *argv, "--format", "records")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_PINS[argv]
    assert_records_replay(out)


def test_report_user_error_exit_2(capsys):
    # pi-functorial on z/split samples split monos and finds none with
    # entries bounded by 0; the records of the twelve checks before it stay
    code, out, err = run(capsys, "report", "--entry-bound", "0", "--format", "records")
    assert code == 2
    assert err == "error: no split mono 1 -> 1 has entries bounded by 0\n"
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 12
    assert (records[-1]["check"], records[-1]["C"], records[-1]["A"]) == ("pi-functorial", "f", "inj")


def test_the_front_end_decides_each_thing_once():
    from corelate import cli, diagrams, literals, verify

    assert inspect.getsource(cli).count("except CorelateError") == 1
    assert set(cli._CHECKS) == set(verify._HOLDS)
    gone = {
        cli: ("_run_check",),
        literals: ("format_cospan", "format_span", "parse_cospan", "parse_span", "parse_pair_literal", "_parse_pair"),
        verify: (
            "_leg_lists",
            "witness_reachable",
            "witness_equal_oracle",
            "_witness_monos",
            "_max_abs_entry",
            "oracle_er_compose",
            "oracle_per_compose",
            "_glue",
            "span_rows",
            "subspace_contains",
            "_reduce_against",
            "enumerate_vectors",
            "oracle_subspace_compose",
            "enumerate_subspaces",
        ),
        diagrams: ("_format_scalar",),
    }
    assert [(m.__name__, name) for m, names in gone.items() for name in names if hasattr(m, name)] == []
    assert "a_only" not in inspect.signature(verify._pairs).parameters


# --- reach -------------------------------------------------------------------------

# eval in every theory (with a sym and a tensor over the integers), equal,
# the quotient of a cospan and of a span, a partial-map literal (the
# theories' own are built once per process) and a GF(3) literal, which a
# ring parses, sweeps of assumption 3.1 and 3.3
# over functions, partial functions and GF(2), square over integer split
# monos, and sampled checks over functions, partial functions, integers and
# GF(2) (pi-functorial, whose memo composes matrix legs one by one)
_SESSION = [
    ("eval", "--theory", "er", "id(1) @ unit ; sym(1,1) ; mult"),
    ("eval", "--theory", "per", "comult ; id(1) @ undef"),
    ("eval", "--theory", "z-corel", "w.mult ; scalar(2)"),
    ("eval", "--theory", "z-corel", "(sym(1,1) ; w.mult) @ scalar(2)"),
    ("eval", "--theory", "q-subspace", "scalar(2) ; coscalar(2)"),
    ("eval", "--theory", "gf2-subspace", "b.comult ; w.mult"),
    ("equal", "--theory", "er", "comult ; mult", "id(1)"),
    ("normalize", "--ambient", "f", "--quotient", "cospan { left = fn 1 -> 2 : [1], right = fn 1 -> 2 : [0] }"),
    ("normalize", "--ambient", "q", "--quotient", "span { left = mat q 1x1 : [[2]], right = mat q 1x1 : [[1]] }"),
    ("normalize", "--ambient", "pf", "cospan { left = par 1 -> 2 : [_], right = par 1 -> 2 : [1] }"),
    ("normalize", "--ambient", "gf3", "cospan { left = mat gf3 1x1 : [[2]], right = mat gf3 1x1 : [[1]] }"),
    ("check", "square", "--C", "f", "--A", "inj", "--bound", "1"),
    ("check", "assumption31", "--C", "f", "--A", "all", "--bound", "1"),
    ("check", "assumption33", "--C", "pf", "--A", "all", "--bound", "1"),
    ("check", "assumption31", "--C", "gf2", "--bound", "1"),
    ("check", "assumption33", "--C", "gf2", "--bound", "1"),
    ("check", "square", "--C", "z", "--A", "split", "--bound", "1", "--entry-bound", "1"),
    ("check", "tensor-functorial", "--C", "pf", "--bound", "1", "--samples", "3"),
    ("check", "tensor-functorial", "--C", "z", "--bound", "1", "--entry-bound", "1", "--samples", "3"),
    ("check", "laws", "--C", "f", "--bound", "1", "--samples", "2"),
    ("check", "pi-functorial", "--C", "gf2", "--bound", "1", "--samples", "2"),
]


def _public_functions(module) -> dict:
    """code -> name of each public function that ``module`` defines."""
    return {
        f.__code__: f"{module.__name__}.{name}"
        for name, f in vars(module).items()
        if inspect.isfunction(f) and f.__module__ == module.__name__ and not name.startswith("_")
    }


def _session_calls(capsys) -> set:
    """The code of every function that one in-process run of ``_SESSION`` calls."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(list(argv)) for argv in _SESSION]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(_SESSION)
    return called


def test_a_cli_session_reaches_every_public_corelrel_function(capsys):
    # corelrel keeps only what the program runs: no public function of it
    # waits for a test to call it
    import corelate.corelrel as corelrel

    called = _session_calls(capsys)
    assert sorted(name for code, name in _public_functions(corelrel).items() if code not in called) == []


def test_a_cli_session_reaches_every_kernel(capsys, monkeypatch):
    # exactnum, finfn, linmap and spancospan keep only what the program
    # runs: every public function of them, every public method of an
    # Ambient class and every non-dunder method of a Ring class, other than
    # the base classes' NotImplementedError declarations, is called by the
    # session, in well under a second
    import corelate.exactnum as exactnum
    import corelate.finfn as finfn
    import corelate.linmap as linmap
    import corelate.spancospan as spancospan

    kernels = {}
    for module in (exactnum, finfn, linmap, spancospan):
        kernels.update(_public_functions(module))
    for module, base, hidden in ((spancospan, spancospan.Ambient, "_"), (exactnum, exactnum.Ring, "__")):
        for cls in vars(module).values():
            if isinstance(cls, type) and issubclass(cls, base):
                for name, f in vars(cls).items():
                    if inspect.isfunction(f) and not name.startswith(hidden) and f.__code__.co_names != ("NotImplementedError",):
                        kernels[f.__code__] = f"{cls.__name__}.{name}"
    # a prime field is built, and its modulus tested, once per process:
    # the session starts with none built
    monkeypatch.setattr(exactnum, "_gf_cache", {})
    start = time.perf_counter()
    called = _session_calls(capsys)
    assert time.perf_counter() - start < 1.0
    assert sorted(name for code, name in kernels.items() if code not in called) == []
