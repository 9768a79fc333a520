"""The benchmark's three workloads.

Each workload builds its inputs from the seed alone, runs one operation at
a time through corelate's public API, and checks every output against a
computation made apart from the program (``oracles.py``).  corelate is
imported only inside ``setup``, so that set-up time includes the import.
Calls into corelate go through module attributes, so that the traced run's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from typing import NamedTuple

import circuits
import oracles
import setups


class Op(NamedTuple):
    label: str
    kind: str  # the theory of a circuit, or the name of a check
    data: object


class _Circuits:
    """A workload of seeded random circuits, one ``parse_term`` plus
    ``eval_term`` per operation.  ``plan`` lists (theory, width, depth) for
    each term of a round, ``BLOCKS`` the blocks of each theory."""

    def make_ops(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for theory, width, depth in self.plan():
            layers = circuits.random_circuit(rng, self.BLOCKS[theory], width, depth)
            text = circuits.circuit_text(layers)
            ops.append(Op(f"{theory} width={width} depth={depth}", theory, (layers, width, text)))
        rng.shuffle(ops)
        return ops

    def run_op(self, op: Op):
        text = op.data[2]
        return self.diagrams.eval_term(self.diagrams.parse_term(text), self.theories[op.kind])


class FnCircuits(_Circuits):
    """Width-preserving string diagrams in the ``er`` and ``per`` theories.

    Narrow terms stress per-call overhead (they set op_p50_ms); wide terms
    stress per-element loops in finfn (they set op_tail_ms).
    """

    name = "fn-circuits"
    # (width, number of terms) per round; depths cycle through 3..8.
    PLAN = ((4, 30), (8, 20), (16, 15), (32, 15), (64, 10), (128, 10))
    DEPTHS = (3, 4, 5, 6, 7, 8)
    BLOCKS = {"er": circuits.ER_BLOCKS, "per": circuits.PER_BLOCKS}

    def setup(self) -> None:
        self.theories = setups.fn_circuits()
        self.diagrams = sys.modules["corelate.diagrams"]

    def plan(self):
        k = 0
        for width, count in self.PLAN:
            for _ in range(count):
                yield ("er", "per")[k % 2], width, self.DEPTHS[k % len(self.DEPTHS)]
                k += 1

    def check_op(self, op: Op, out) -> bool:
        layers, width, _ = op.data
        return oracles.check_gluing(layers, width, op.kind == "per", out)


class LinearCircuits(_Circuits):
    """Signal-flow-graph terms over GF(2), Q and Z.

    linmap and exactnum do the work.  Operation counts per theory are set
    from measured per-theory times so that each theory takes about a third
    of run_s (see README.md).
    """

    name = "linear-circuits"
    CASES = tuple((w, d) for w in (2, 4, 6, 8, 12, 16) for d in (3, 5))
    REPEATS = {"gf2-subspace": 5, "q-subspace": 1, "z-corel": 5}
    FIELD = {"gf2-subspace": 2, "q-subspace": 0}
    BLOCKS = circuits.LINEAR_BLOCKS

    def setup(self) -> None:
        self.theories = setups.linear_circuits()
        self.diagrams = sys.modules["corelate.diagrams"]
        self.corelrel = sys.modules["corelate.corelrel"]

    def plan(self):
        for theory, repeats in self.REPEATS.items():
            for _ in range(repeats):
                for width, depth in self.CASES:
                    yield theory, width, depth

    def check_op(self, op: Op, out) -> bool:
        layers, width, _ = op.data
        if op.kind == "z-corel":
            return oracles.check_z(layers, width, out)
        rows = self.corelrel.rel_subspace_rows(out)
        return oracles.check_field(layers, width, self.FIELD[op.kind], rows)


# The default `corelate report` suite, one `corelate check` command per
# entry: (check, C, A, extra arguments, takes the seed, expected verdict).
SUITE = (
    ("assumption31", "f", "inj", ["--bound", "3"], False, "pass"),
    ("assumption31", "f", "all", ["--bound", "2"], False, "fail"),
    ("assumption31", "pf", "inj", ["--bound", "2"], False, "pass"),
    ("assumption31", "gf2", "all", ["--bound", "2", "--entry-bound", "3"], False, "pass"),
    ("assumption31", "z", "split", ["--bound", "2", "--entry-bound", "3"], False, "fail"),
    ("assumption33", "gf2", "all", ["--bound", "2", "--entry-bound", "3"], False, "pass"),
    ("assumption33", "q", "all", ["--bound", "2", "--entry-bound", "1"], False, "pass"),
    ("assumption33", "f", "all", ["--bound", "3"], False, "fail"),
    ("square", "f", "inj", ["--bound", "3"], False, "pass"),
    ("square", "pf", "inj", ["--bound", "2"], False, "pass"),
    ("square", "z", "split", ["--bound", "2", "--entry-bound", "3"], False, "pass"),
    ("pi-functorial", "f", "inj", ["--bound", "3", "--entry-bound", "3", "--samples", "200"], True, "pass"),
    ("pi-functorial", "z", "split", ["--bound", "2", "--entry-bound", "3", "--samples", "200"], True, "fail"),
) + tuple(
    ("tensor-functorial", c, a, ["--bound", "2", "--entry-bound", "2", "--samples", "40"], True, "pass")
    for c, a in (("f", "inj"), ("pf", "inj"), ("gf2", "all"), ("q", "all"), ("z", "split"))
) + tuple(
    ("laws", c, a, ["--bound", "2", "--entry-bound", "2", "--samples", "60"], True, "pass")
    for c, a in (("f", "inj"), ("pf", "inj"), ("gf2", "all"), ("q", "all"), ("z", "split"))
) + tuple(
    ("frobenius", theory, "-", ["--theory", theory], False, "fail" if theory == "z-corel" else "pass")
    for theory in ("er", "per", "gf2-subspace", "q-subspace", "z-corel")
)


def suite_argv(entry, seed: int) -> list[str]:
    check, c, a, extra, seeded, _ = entry
    argv = ["check", check]
    if check != "frobenius":
        argv += ["--C", c, "--A", a]
    argv += extra
    if seeded:
        argv += ["--seed", str(seed)]
    return argv + ["--format", "records"]


class CheckReport:
    """The default report suite, one check per operation through cli.main.

    A round runs the suite at seed 0, as `corelate report` does (28 checks),
    and at seeds 1 and 2 the eleven checks whose result depends on the seed
    and that take well under a second (22 more): 50 checks.  The twelfth
    seed-dependent check, pi-functorial on z/split, takes about 8 s; at three
    seeds it alone would be two thirds of the round.  The benchmark seed
    only orders the checks: between check seeds, the sampled checks' cost
    moved the tail order statistic of a round by 10-20%.
    """

    name = "check-report"
    EXTRA_SEEDS = (1, 2)

    def setup(self) -> None:
        setups.check_report()
        self.cli = sys.modules["corelate.cli"]

    def make_ops(self, seed: int) -> list[Op]:
        runs = [(e, 0) for e in SUITE]
        runs += [(e, s) for s in self.EXTRA_SEEDS for e in SUITE if e[4] and e[:2] != ("pi-functorial", "z")]
        ops = [Op(" ".join(suite_argv(e, s)), e[0], (e, suite_argv(e, s))) for e, s in runs]
        random.Random(f"{self.name}:{seed}").shuffle(ops)
        return ops

    def run_op(self, op: Op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(op.data[1])
        return code, buf.getvalue()

    def check_op(self, op: Op, out) -> bool:
        code, text = out
        lines = text.strip().splitlines()
        if code != 0 or len(lines) != 1:
            return False
        return check_record(op.data[0], json.loads(lines[0]))


def check_record(entry, rec) -> bool:
    """Verdict and counterexamples of one check record, judged apart from
    the program: expected verdicts are fixed here, integer mediators are
    judged by gcds of minors, function mediators by their tables."""
    check, c, a, _, _, expect = entry
    if (rec["check"], rec["C"], rec["A"], rec["verdict"]) != (check, c, a, expect):
        return False
    ces = rec["counterexamples"]
    if expect == "pass":
        return not ces and all(rec.get("details", {}).values())
    if not ces:
        return False
    if check == "assumption31" and c == "z":
        return all(_not_split(ce["mediator"]) for ce in ces)
    if check == "assumption31" and c == "f":
        return all(_not_injective(ce["mediator"]) for ce in ces)
    if check == "assumption33" and c == "f":
        return all(_not_surjective(ce["mediator"]) for ce in ces)
    if check == "pi-functorial":
        return all(ce["shape"] == "iv" for ce in ces)
    if check == "frobenius":
        failing = [law for law, holds in rec["details"].items() if not holds]
        return failing == ["scalar_cancel(2)"] and [ce["law"] for ce in ces] == failing
    return False


def _not_split(literal: str) -> bool:
    entries, cols = oracles.parse_int_matrix(literal)
    return any(d != 1 for d in oracles.invariant_factors(entries, cols))


def _not_injective(literal: str) -> bool:
    dom, _, table = oracles.parse_fn(literal)
    return len(set(table)) < dom


def _not_surjective(literal: str) -> bool:
    _, cod, table = oracles.parse_fn(literal)
    return len(set(table)) < cod


WORKLOADS = {w.name: w for w in (FnCircuits, LinearCircuits, CheckReport)}
