"""Faults planted in the program, each of which named tests must catch.

A mutant is a name, a file under ``src/corelate``, an exact source fragment
that occurs once in it, the fragment's replacement, and the tests that must
fail with the replacement in place.

    python tests/mutants.py [name ...]

copies ``src/`` to a temporary directory and runs the tests of the named
mutants (of all of them, when none is named) against the unmutated copy,
which must pass them.  Then, for each mutant, it plants the fault in a
fresh copy and runs the mutant's tests in a child pytest that imports that
copy.  The mutant is killed when a test fails, or when the run outlives
``TIMEOUT`` seconds (an elimination that never ends is a fault caught); it
survived when every test passes.  A mutant is invalid, and its tests are
not run, when its fragment does not occur exactly once or the planted file
does not compile (a replacement with the wrong indentation would otherwise
fail every test on import and count as killed).  Each mutant's verdict and
time are printed; the exit status is 2 if the unmutated copy fails, a name
is unknown or a mutant is invalid, else 1 if any mutant survived.  The
checkout is never edited.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300.0


class Mutant(NamedTuple):
    name: str
    file: str  # under src/corelate
    fragment: str
    replacement: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = (
    # the GF(p) row update, above and below a pivot, leaves its entries
    # unreduced
    Mutant(
        "echelon-gf-update-without-mod",
        "linmap.py",
        "row[c] = (row[c] - q * w) % p\n                        x = row[j]",
        "row[c] = row[c] - q * w\n                        x = row[j]",
        (
            "tests/test_linmap.py::test_rref_matches_reference",
            "tests/test_spancospan.py::test_one_pass_composites_equal_the_limit_then_compose[gf3]",
        ),
    ),
    # the core takes every ring for one without a modulus
    Mutant(
        "echelon-reads-no-modulus",
        "linmap.py",
        "    p = ring.p\n    field = ring.is_field",
        "    p = None\n    field = ring.is_field",
        (
            "tests/test_linmap.py::test_rref_matches_reference",
            "tests/test_spancospan.py::test_matrix_mediators_are_the_unique_enumerated_ones[gf2-pushout]",
        ),
    ),
    # the integers eliminate as a field, dividing by their pivots
    Mutant(
        "integers-are-a-field",
        "exactnum.py",
        'ZZ = IntegerRing("z", None, False)',
        'ZZ = IntegerRing("z", None, True)',
        ("tests/test_linmap.py::test_hnf_row_matches_reference", "tests/test_linmap.py::test_is_split_mono"),
    ),
    # GF(p) is built for any modulus, prime or not
    Mutant(
        "gf-skips-primality-test",
        "exactnum.py",
        '        if not is_prime(p):\n            raise UnknownRing(f"GF({p}): {p} is not prime")\n',
        "",
        ("tests/test_exactnum.py::test_gf_requires_prime", "tests/test_exactnum.py::test_bad_ring_tags_raise_unknown_ring"),
    ),
    # a fraction's image in GF(p) forgets its denominator
    Mutant(
        "gf-coerce-without-inverse",
        "exactnum.py",
        "return x.numerator * pow(x.denominator, -1, p) % p",
        "return x.numerator % p",
        ("tests/test_exactnum.py::test_gf_coerce_fraction",),
    ),
    # the bottom rows of a glued pass are negated but not reduced mod p
    Mutant(
        "glued-negation-without-mod",
        "linmap.py",
        "[-v % p for v in row]",
        "[-v for v in row]",
        # an equivalent mutant on every result (the negated columns are
        # dropped, and each update of them is reduced), so it is caught on
        # the core's input
        (
            "tests/test_linmap.py::test_every_pass_of_the_core_reads_residues[gf2]",
            "tests/test_linmap.py::test_every_pass_of_the_core_reads_residues[gf3]",
        ),
    ),
    # a left entry -1 adds the row of the right factor instead of
    # subtracting it
    Mutant(
        "mat-mul-adds-row-for-minus-one",
        "linmap.py",
        "acc[c] -= b",
        "acc[c] += b",
        ("tests/test_linmap.py::test_mat_mul_matches_reference", "tests/test_linmap.py::test_compose_identity"),
    ),
    # a Q row update subtracts the pivot row's multiple without scaling the
    # row by the pivot's cofactor, as if every pivot were 1
    Mutant(
        "q-update-without-scaling",
        "linmap.py",
        "row[s:] = [v * a if v else 0 for v in row[s:]]",
        "pass",
        ("tests/test_linmap.py::test_q_core_matches_reference", "tests/test_linmap.py::test_rref_matches_reference"),
    ),
    # a kept Q row leaves as its integers over the kept rows' denominator,
    # not brought to it from its own pivot
    Mutant(
        "q-output-without-pivot-division",
        "linmap.py",
        "                    s = den // row[j]\n",
        "                    s = 1\n",
        ("tests/test_linmap.py::test_q_core_matches_reference", "tests/test_linmap.py::test_rref_matches_reference"),
    ),
    # every table a kernel stacks is the first leg's integer form, read
    # from the wrong matrix
    Mutant(
        "q-form-from-wrong-matrix",
        "linmap.py",
        "        table = a.table if a.den == den else _scaled(a, den)\n",
        "        table = a.table if a.den == den else _scaled(legs[0], den)\n",
        (
            "tests/test_diagrams.py::test_wide_q_circuits_match_the_fraction_oracle",
            "tests/test_linmap.py::test_every_pass_over_q_returns_fractions",
        ),
    ),
    # the rows the Q core keeps are read as integers, their denominator
    # dropped
    Mutant(
        "q-form-drops-denominator",
        "linmap.py",
        "    return pivots, den\n",
        "    return pivots, 1\n",
        ("tests/test_linmap.py::test_q_core_matches_reference", "tests/test_linmap.py::test_q_core_matches_sympy"),
    ),
    # a Q sweep key is emitted as its table over the denominator the pass
    # left, not in lowest terms, so equal matrices may have unequal keys
    Mutant(
        "q-key-not-in-lowest-terms",
        "linmap.py",
        "    table, den = _lowest(table, den)\n    return table if den == 1",
        "    return table if den == 1",
        ("tests/test_linmap.py::test_every_pass_over_q_returns_fractions",),
    ),
    # an integral Q entry is taken from the shared constant of its negative
    Mutant(
        "q-shared-integer-wrong-sign",
        "linmap.py",
        "[ints[v] if v in ints else Fraction(v) for v in values]",
        "[ints[-v] if v in ints else Fraction(v) for v in values]",
        ("tests/test_linmap.py::test_mat_mul_matches_reference", "tests/test_linmap.py::test_q_core_matches_reference"),
    ),
    # on a field the core leaves the entries above each pivot unreduced
    Mutant(
        "field-echelon-no-back-reduction",
        "linmap.py",
        "for i in range(lo, m):",
        "for i in range(r if field else lo, m):",
        ("tests/test_linmap.py::test_rref_matches_reference", "tests/test_linmap.py::test_limits_match_oracles[gf2]"),
    ),
    # over the integers the core leaves the entries above each pivot
    # unreduced (no mutant records a Euclid residue above the pivot too:
    # over Z the core then loops forever, and each hang costs TIMEOUT)
    Mutant(
        "z-echelon-no-back-reduction",
        "linmap.py",
        "for i in range(lo, m):",
        "for i in range(lo if field else r, m):",
        ("tests/test_linmap.py::test_hnf_row_matches_reference", "tests/test_linmap.py::test_limits_match_oracles[z]"),
    ),
    # over GF(2) a corelation composite loses its last row
    Mutant(
        "gf2-composite-drops-a-row",
        "linmap.py",
        "    return _glued_composite(l1, r1, l2, r2, False)\n",
        "    left, right = _glued_composite(l1, r1, l2, r2, False)\n"
        "    if l1.ring.p == 2 and left.rows:\n"
        "        left, right = (leg._replace(rows=leg.rows - 1, table=leg.table[:-1]) for leg in (left, right))\n"
        "    return left, right\n",
        ("tests/test_acceptance.py::test_criterion_03_subspace_oracle_equivalence",),
    ),
    # every integer matrix is taken for a split mono, so the mediators of
    # the Z counterexamples lie in M
    Mutant(
        "z-in-m-always-holds",
        "spancospan.py",
        "    def in_m(self, f):\n        return linmap.is_split_mono(f)",
        "    def in_m(self, f):\n        return self.ring == ZZ or linmap.is_split_mono(f)",
        (
            "tests/test_acceptance.py::test_criterion_04_counterexample_reproduction",
            "tests/test_acceptance.py::test_criterion_06_pi_functoriality",
        ),
    ),
    # `corelate check pi-functorial` passes its seed as the sample count
    # and its sample count as the seed
    Mutant(
        "check-row-swaps-seed-and-samples",
        "verify.py",
        '"check_pi_functorial", ("C", "A", "bound", "entry_bound", "seed", "samples")',
        '"check_pi_functorial", ("C", "A", "bound", "entry_bound", "samples", "seed")',
        ("tests/test_verify.py::test_each_check_row_names_its_functions_parameters_in_order",),
    ),
    # pi-functorial pullbacks are memoised by the first span's right leg
    # alone, so a pullback is reused for another second span
    Mutant(
        "pi-memo-keyed-by-one-leg",
        "verify.py",
        "key = id(r1) << 64 | id(l2)",
        "key = id(r1)",
        (
            "tests/test_verify.py::test_pi_functorial_records_match_a_case_by_case_reference[z-0]",
            "tests/test_verify.py::test_pi_functorial_records_match_a_case_by_case_reference[gf2-0]",
        ),
    ),
    # the span and cospan associativity flags compare one bracketing with
    # itself, so they hold whatever composite is planted
    Mutant(
        "laws-compare-one-bracketing",
        "verify.py",
        "compose(x1, compose(x2, x3, amb), amb)",
        "compose(compose(x1, x2, amb), x3, amb)",
        (
            "tests/test_verify.py::test_every_law_flag_reads_false_under_a_planted_fault[span-assoc-f]",
            "tests/test_verify.py::test_every_law_flag_reads_false_under_a_planted_fault[cospan-assoc-gf2]",
        ),
    ),
    # a matrix sweep key forgets its left leg's feet, so pairs whose left
    # legs share a canonical form but not their feet (with apex 0, H is
    # empty for every n) share one key
    Mutant(
        "sweep-key-drops-feet",
        "spancospan.py",
        "form = (h, f.dom, f.cod)",
        "form = h",
        (
            "tests/test_verify.py::test_dedup_keys_agree_with_canonical_forms[a33-gf2]",
            "tests/test_verify.py::test_dedup_keys_agree_with_canonical_forms[a33-q]",
        ),
    ),
    # a sampled check's budget counts one pair of legs per step of its
    # chains, not one per span and one per cospan
    Mutant(
        "sampled-budget-counts-half-the-legs",
        "verify.py",
        "2 * sum(chains)",
        "sum(chains)",
        (
            "tests/test_verify.py::test_sampled_checks_refuse_above_the_sample_budget_before_drawing[laws]",
            "tests/test_verify.py::test_sampled_checks_refuse_above_the_sample_budget_before_drawing[tensor]",
        ),
    ),
    # a union links the smaller root under the larger, so the one
    # ascending flattening pass leaves chains unflattened
    Mutant(
        "glue-links-larger-root",
        "finfn.py",
        "parent[b] = a\n        elif b < a:\n            parent[a] = b",
        "parent[a] = b\n        elif b < a:\n            parent[b] = a",
        ("tests/test_finfn.py::test_glue_compose_matches_reference_gluing",),
    ),
    # the last foot of a composite glues nothing
    Mutant(
        "glue-skips-last-pair",
        "finfn.py",
        "zip(right1.table, left2.table)",
        "zip(right1.table[:-1], left2.table)",
        ("tests/test_finfn.py::test_glue_compose_matches_reference_gluing", "tests/test_finfn.py::test_pushout_examples"),
    ),
    # leaves whose tokens concatenate alike share one key, so id(1 1) is
    # taken for an id(11) read before
    Mutant(
        "leaf-key-without-separator",
        "diagrams.py",
        'key = " ".join(tokens[i:j])',
        'key = "".join(tokens[i:j])',
        ("tests/test_diagrams.py::test_leaf_spellings_keep_their_outcomes",),
    ),
    # the split tokenizer runs on every source, so 12x is one token
    Mutant(
        "tokenizer-without-glued-guard",
        "diagrams.py",
        "    if _GLUED.search(src):\n        return _TOKEN.findall(src)\n",
        "",
        ("tests/test_diagrams.py::test_tokenizer_agrees_with_the_regex", "tests/test_diagrams.py::test_parser_outcomes_pinned"),
    ),
    # z-corel's black colour is sent in the white colour's ways, so its
    # mult is copy sent in forwards, a value 1 -> 2 for a generator 2 -> 1
    Mutant(
        "theory-black-colour-embedded-forward",
        "diagrams.py",
        '**_colour("b.", "bf", copy, onto)',
        '**_colour("b.", "fb", copy, onto)',
        ("tests/test_diagrams.py::test_eval_outputs_pinned",),
    ),
    # terms compare by their printed form alone, so mult typed 1 -> 1
    # equals mult typed 2 -> 1
    Mutant(
        "term-key-ignores-type",
        "diagrams.py",
        "return (self.__class__, self.dom, self.cod, print_term(self))",
        "return (self.__class__, print_term(self))",
        ("tests/test_diagrams.py::test_term_equality_and_hash_are_structural",),
    ),
)


def _copy(tmp: Path, label: str, mutant: Mutant | None = None) -> Path | str:
    """A copy of ``src/`` under ``tmp/label``, with the mutant planted; or
    why the mutant is invalid."""
    src = tmp / label / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = src / "corelate" / mutant.file
        text = path.read_text()
        if text.count(mutant.fragment) != 1:
            return f"the fragment occurs {text.count(mutant.fragment)} times in {mutant.file}"
        text = text.replace(mutant.fragment, mutant.replacement)
        try:
            compile(text, str(path), "exec")
        except SyntaxError as error:
            return f"{mutant.file} does not compile: {error.msg}, line {error.lineno}"
        path.write_text(text)
    return src


def _passes(src: Path, tests, cwd: Path) -> bool | None:
    """Whether the tests pass against the package in ``src``; None when
    they run past ``TIMEOUT``.  The child reads no bytecode cache, so a
    mutant of the same size and time stamp as the source is still
    compiled."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    # pyproject.toml's pythonpath would put the checkout's src first
    command += ["-o", f"pythonpath={src}", *(str(ROOT / test) for test in tests)]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.Popen(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return child.wait(TIMEOUT) == 0
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return None


def run(mutants) -> int:
    """Run the mutants as the module docstring says; the exit status."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="corelate-mutants-") as name:
        tmp = Path(name)
        tests = list(dict.fromkeys(test for mutant in mutants for test in mutant.tests))
        if not _passes(_copy(tmp, "unmutated"), tests, tmp):
            print("the unmutated copy fails the mutants' tests", flush=True)
            return 2
        print(f"{'unmutated copy':<36} passes   {time.perf_counter() - start:7.1f} s", flush=True)
        survivors, invalid = [], []
        for mutant in mutants:
            began = time.perf_counter()
            src = _copy(tmp, mutant.name, mutant)
            if isinstance(src, str):
                invalid.append(mutant.name)
                print(f"{mutant.name:<36} invalid  ({src})", flush=True)
                continue
            passed = _passes(src, mutant.tests, tmp)
            verdict = "survived" if passed else "killed"
            if passed:
                survivors.append(mutant.name)
            note = " (timed out)" if passed is None else ""
            print(f"{mutant.name:<36} {verdict:<8} {time.perf_counter() - began:7.1f} s{note}", flush=True)
    killed = len(mutants) - len(survivors) - len(invalid)
    print(f"{killed} of {len(mutants)} killed, {len(invalid)} invalid in {time.perf_counter() - start:.1f} s", flush=True)
    return 2 if invalid else 1 if survivors else 0


def main(argv) -> int:
    table = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in table]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; known: {', '.join(table)}", file=sys.stderr)
        return 2
    return run([table[name] for name in argv] if argv else list(MUTANTS))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
