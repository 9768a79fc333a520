"""The mutant table of ``tests/mutants.py`` keeps up with the source."""

import re

import mutants


def test_each_mutant_fragment_occurs_once_in_the_source():
    # a refactor that moves a fragment updates its mutant in the same change
    counts = {m.name: (mutants.ROOT / "src" / "corelate" / m.file).read_text().count(m.fragment) for m in mutants.MUTANTS}
    assert counts == {m.name: 1 for m in mutants.MUTANTS}
    assert all(m.replacement != m.fragment for m in mutants.MUTANTS)
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)


def test_each_mutant_names_tests_that_exist():
    for m in mutants.MUTANTS:
        assert m.tests, m.name
        for test in m.tests:
            path, _, name = test.partition("::")
            name = re.sub(r"\[.*\]$", "", name)
            assert f"\ndef {name}(" in (mutants.ROOT / path).read_text(), test


def test_the_runner_kills_a_caught_fault_and_reports_a_harmless_one(capsys):
    # the child imports the mutated copy, not the checkout: a real fault is
    # killed, and a comment planted in the same place survives
    caught = next(m for m in mutants.MUTANTS if m.name == "gf-coerce-without-inverse")
    harmless = caught._replace(name="comment", replacement=caught.fragment + "  # planted")
    assert mutants.run([caught, harmless]) == 1
    verdicts = [line.split()[:2] for line in capsys.readouterr().out.splitlines()]
    assert verdicts[1:3] == [["gf-coerce-without-inverse", "killed"], ["comment", "survived"]]


def test_the_runner_reports_a_mutant_that_does_not_compile_as_invalid(capsys):
    # a replacement with the wrong indentation would fail every test on
    # import; it is refused before any test runs, and the exit status says
    # the table is wrong
    caught = next(m for m in mutants.MUTANTS if m.name == "gf-coerce-without-inverse")
    broken = caught._replace(name="broken-indentation", replacement=caught.replacement + "\n  pass")
    assert mutants.run([broken]) == 2
    verdicts = [line.split()[:2] for line in capsys.readouterr().out.splitlines()]
    assert verdicts[1] == ["broken-indentation", "invalid"]
